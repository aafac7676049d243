"""Opinion values and the two pairwise interaction rules.

Circle-valued opinions live in the half-open chart (-1, 1], understood as
the real line modulo 2 with the boundary point represented by +1 (never -1).
Interval-valued opinions live in [0, 1]. Everything here is scalar and
side-effect free; the simulation engine composes these into full runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "ModelParams",
    "validate_params",
    "mod_s",
    "circle_dist",
    "update_pair_compass",
    "update_pair_deffuant",
]


def _is_num(x) -> bool:
    """An int or float that converts to a float: not a bool, nor an integer
    beyond the float range (JSON allows those, and float() overflows)."""
    if isinstance(x, float):
        return True
    return isinstance(x, int) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def validate_params(mu, theta) -> list[str]:
    """Return a list of human-readable problems with (mu, theta), empty when valid."""
    problems = []
    if not _is_num(mu) or not math.isfinite(mu):
        problems.append(f"mu must be a finite number, got {mu!r}")
    elif not 0.0 < mu <= 0.5:
        problems.append(f"mu must lie in (0, 1/2], got {mu!r}")
    if not _is_num(theta) or math.isnan(theta):
        problems.append(f"theta must be a positive number or math.inf, got {theta!r}")
    elif not theta > 0.0:
        problems.append(f"theta must be positive, got {theta!r}")
    return problems


@dataclass(frozen=True)
class ModelParams:
    """Interaction parameters shared by both update rules.

    mu is the fraction of the gap each endpoint concedes per interaction,
    restricted to (0, 1/2] so a single event never overshoots the partner.
    theta is the confidence bound: pairs farther apart than theta ignore
    each other. math.inf (the default) disables the bound.
    """

    mu: float = 0.5
    theta: float = math.inf

    def __post_init__(self):
        problems = validate_params(self.mu, self.theta)
        if problems:
            raise ValueError("; ".join(problems))


def mod_s(x: float) -> float:
    """Reduce x modulo 2 into the chart (-1, 1].

    The representative of the cut point is +1: mod_s(-1.0) == 1.0 and
    mod_s(3.0) == 1.0. Exact for every finite float (fmod is exact, and the
    final +-2 adjustment falls in the Sterbenz range).
    """
    if not math.isfinite(x):
        raise ValueError(f"opinion values must be finite, got {x!r}")
    y = math.fmod(x, 2.0)
    if y > 1.0:
        return y - 2.0
    if y <= -1.0:
        return y + 2.0
    return y


def circle_dist(x: float, y: float) -> float:
    """Geodesic distance on the circle: min(|x - y|, 2 - |x - y|), in [0, 1]."""
    d = math.fmod(abs(x - y), 2.0)
    return d if d <= 1.0 else 2.0 - d


def _sgn(x: float) -> float:
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return 0.0


def _wrap(y: float) -> float:
    # like mod_s but assumes |y| < 3, which every update below guarantees
    if y > 1.0:
        return y - 2.0
    if y <= -1.0:
        return y + 2.0
    return y


def update_pair_compass(x_u: float, x_v: float, params: ModelParams,
                        tie: int = 1) -> tuple[float, float]:
    """One symmetric interaction on the circle; returns the updated pair.

    The rule splits on the raw chart difference |x_u - x_v|. Below 1 both
    endpoints move toward each other inside the chart. Above 1 the short
    geodesic runs through the +-1 cut, so each endpoint moves outward, away
    from zero, and wraps. At exactly 1 the pair is antipodal, both geodesics
    tie, and the tie bit picks one: tie=1 moves each endpoint toward zero,
    tie=2 away from it. An endpoint sitting exactly at zero in a tied pair
    inherits the direction opposite its partner, keeping the motion
    symmetric. Nothing moves if the circle distance exceeds params.theta.

    Every branch contracts the circle distance by the factor (1 - 2 mu).
    With mu = 1/2 the endpoints land on the geodesic midpoint exactly,
    computed symmetrically so swapping the arguments swaps the outputs
    bit for bit.
    """
    if tie not in (1, 2):
        raise ValueError(f"tie must be 1 or 2, got {tie!r}")
    mu = params.mu
    diff = x_u - x_v
    ad = abs(diff)
    gap = ad if ad <= 1.0 else 2.0 - ad
    if gap > params.theta:
        return x_u, x_v
    if ad < 1.0 or (ad == 1.0 and _sgn(x_u) == _sgn(x_v)):
        # a genuinely tied pair has opposite (or one zero) signs; same signs
        # at 1 mean the difference rounded up to 1 from inside the chart, so
        # the pair is really a linear-branch pair
        if mu == 0.5:
            mid = 0.5 * (x_u + x_v)
            return mid, mid
        return x_u - mu * diff, x_v + mu * diff
    if ad > 1.0:
        if mu == 0.5:
            mid = _wrap(0.5 * (x_u + x_v) + 1.0)
            return mid, mid
        step = mu * (2.0 - ad)
        return _wrap(x_u + step * _sgn(x_u)), _wrap(x_v + step * _sgn(x_v))
    # antipodal tie: |x_u - x_v| == 1 exactly
    su = _sgn(x_u)
    sv = _sgn(x_v)
    if su == 0.0:
        su = -sv
    elif sv == 0.0:
        sv = -su
    move = -mu if tie == 1 else mu
    return _wrap(x_u + move * su), _wrap(x_v + move * sv)


def update_pair_deffuant(x_u: float, x_v: float,
                         params: ModelParams) -> tuple[float, float]:
    """One interval interaction: both endpoints move mu of the gap inward.

    No move when the gap exceeds params.theta. The pair sum is preserved,
    exactly when mu = 1/2 (a single rounded midpoint is shared) and to a
    few ulp otherwise. The exact case needs x_u + x_v to be 0 or at least
    2 * sys.float_info.min: below that, halving the sum underflows (0.0 and
    5e-324 share the midpoint 0.0, and no float is half of 5e-324).
    """
    diff = x_u - x_v
    if abs(diff) > params.theta:
        return x_u, x_v
    if params.mu == 0.5:
        mid = 0.5 * (x_u + x_v)
        return mid, mid
    mu = params.mu
    return x_u - mu * diff, x_v + mu * diff
