"""Edge-difference bookkeeping for circle-valued runs.

Every oriented edge carries the signed circular gap between its endpoints,
delta = mod_s(opinion[head] - opinion[tail]). An interaction on an edge
rescales that edge's gap and shifts the gaps of adjacent edges, so the whole
collection evolves by local linear moves plus wrapping. The unsigned
companion process xi applies the same moves without signs or wrapping and
bounds |delta| from above pathwise; it is the workhorse for scheduling
arguments, valid as stated only for unbounded confidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import _gaps
from .opinion_space import ModelParams, _wrap, circle_dist, mod_s
from .topology import Graph

__all__ = [
    "DeltaState",
    "XiState",
    "delta_from_config",
    "xi_from_values",
    "apply_event_delta",
    "apply_event_xi",
    "check_consistency",
    "winding_sum",
    "DifferenceTracker",
]


@dataclass
class DeltaState:
    """Signed circular gaps per edge, each in (-1, 1]."""

    graph: Graph
    values: list[float]


@dataclass
class XiState:
    """Nonnegative per-edge bounds co-evolving with the gaps."""

    graph: Graph
    values: list[float]


def delta_from_config(g: Graph, opinions, space: str = "circle") -> DeltaState:
    """Signed gaps of a circle opinion profile, one per oriented edge."""
    if space != "circle":
        raise ValueError(f"edge differences are defined on the circle, not {space!r}")
    if len(opinions) != g.vertex_count:
        raise ValueError(f"expected {g.vertex_count} opinions, got {len(opinions)}")
    return DeltaState(g, _gaps(g, np.asarray(opinions, dtype=float), True).tolist())


def xi_from_values(g: Graph, values=None) -> XiState:
    """A bound state, all ones by default (the natural start for gaps)."""
    if values is None:
        vals = [1.0] * g.edge_count
    else:
        vals = [float(v) for v in values]
        if len(vals) != g.edge_count:
            raise ValueError(f"expected {g.edge_count} values, got {len(vals)}")
        # an infinite bound turns to NaN at mu = 1/2, where (1 - 2 mu) * inf = 0 * inf
        if not all(map(math.isfinite, vals)):
            raise ValueError("bounds must be finite")
        if any(v < 0.0 for v in vals):
            raise ValueError("bounds must be nonnegative")
    return XiState(g, vals)


def apply_event_delta(d: DeltaState, ev, params: ModelParams) -> DeltaState:
    """Advance the gap state through one event, in place.

    The event edge's gap shrinks by the factor (1 - 2 mu); each adjacent
    edge absorbs mu times the old gap, signed by the orientation coupling
    and wrapped back into the chart. Nothing happens when the gap exceeds
    params.theta. A gap sitting exactly on the cut (value 1) is pushed
    through the same linear move; co-evolving trackers instead re-read the
    affected entries from the opinions, where the tie bit decides.
    """
    vals = d.values
    e = ev.edge_id
    c = vals[e]
    if abs(c) > params.theta:
        return d
    mu = params.mu
    step = mu * c
    for f, sign in d.graph.edge_neighbors[e]:
        vals[f] = _wrap(vals[f] + (step if sign > 0 else -step))
    vals[e] = (1.0 - 2.0 * mu) * c
    return d


def apply_event_xi(x: XiState, ev, params: ModelParams) -> XiState:
    """Advance the bound state through one event, in place.

    Same shape as the gap move but unsigned and without wrapping: neighbors
    gain mu times the event edge's value, the event edge shrinks by
    (1 - 2 mu). No confidence gate is applied here; with bounded confidence
    the caller must skip exactly the events the gap process skips, or the
    domination guarantee is lost.
    """
    vals = x.values
    e = ev.edge_id
    c = vals[e]
    step = params.mu * c
    for f, _ in x.graph.edge_neighbors[e]:
        vals[f] += step
    vals[e] = (1.0 - 2.0 * params.mu) * c
    return x


def check_consistency(g: Graph, opinions, d: DeltaState) -> float:
    """Largest circular distance between tracked gaps and the profile's own."""
    own = delta_from_config(g, opinions).values
    if len(d.values) != g.edge_count:
        raise ValueError(f"expected {g.edge_count} gap entries, got {len(d.values)}")
    # as a loop keeping the largest from 0.0 up: a NaN distance is skipped
    return max([0.0, *map(circle_dist, own, d.values)])


def winding_sum(d: DeltaState) -> float:
    """Sum of signed gaps around an oriented cycle, as the raw `math.fsum`.

    Only defined when every vertex has exactly one incoming and one
    outgoing edge, so the signed gaps telescope around the loop to an even
    integer. The gaps carry rounding, so the value returned is only close
    to it: a winding of 2 can read 1.9999999999999998. Round it with
    2 * round(w / 2) for the integer.
    """
    if not d.graph.is_oriented_cycle:
        raise ValueError("winding is defined only on consistently oriented cycles")
    return math.fsum(d.values)


class DifferenceTrackerError(ValueError):
    pass


class DifferenceTracker:
    """Co-evolves gap (and optionally bound) values alongside a simulation.

    Attach as an engine observer of `state`, the state it was built from
    (`run` refuses one whose `.state` is another state; after a restore, set
    `.state` to the restored state). After each applied event the tracked
    values advance by the same local move the opinions took. Gap
    maintenance keeps each adjacent edge's shift attributable to the shared
    vertex, so it is restricted to graphs of maximum degree 2. Antipodal
    ties are resolved by re-reading the affected entries from the opinions.

    When it is a Poisson or scripted run's only observer, the compiled kernel makes
    these moves in C, mirroring `apply_event`, which the run then does not
    call; the values reach `delta.values` and `xi.values`, the same list
    objects, when the run ends.

    With bounded confidence the gate is decided on the tracked gap, which
    agrees with the opinions' own gate up to accumulated rounding; profiles
    engineered so the two disagree at the boundary are outside the contract.
    """

    def __init__(self, state, with_xi: bool = False, xi_values=None):
        if state.space != "circle":
            raise DifferenceTrackerError("gap tracking is defined on the circle")
        if state.graph.max_degree > 2:
            raise DifferenceTrackerError(
                "gap tracking needs maximum degree 2, got degree "
                f"{state.graph.max_degree}")
        self.state = state
        self.delta = delta_from_config(state.graph, state.opinions)
        self.xi = xi_from_values(state.graph) if with_xi or xi_values is not None else None
        if xi_values is not None:
            self.xi = xi_from_values(state.graph, xi_values)

    def apply_event(self, ev) -> None:
        vals = self.delta.values
        e = ev.edge_id
        c = vals[e]
        params = self.state.params
        if abs(c) > params.theta:
            return
        if abs(c) == 1.0:
            g = self.state.graph
            op = self.state.opinions
            for f, _ in g.edge_neighbors[e]:
                a, b = g.edges[f]
                vals[f] = mod_s(op[b] - op[a])
            a, b = g.edges[e]
            vals[e] = mod_s(op[b] - op[a])
        else:
            apply_event_delta(self.delta, ev, params)
        if self.xi is not None:
            apply_event_xi(self.xi, ev, params)

    def domination_gap(self) -> float:
        """Smallest xi - |delta| margin across edges; negative means violated."""
        if self.xi is None:
            raise DifferenceTrackerError("no bound state attached")
        return min(x - abs(dv) for x, dv in zip(self.xi.values, self.delta.values))
