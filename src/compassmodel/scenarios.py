"""Canned experiments: flattening schedules, the butterfly construction,
the sign-flip construction, and the circle-versus-interval comparison.

Each construction has a describing function that builds graphs, initial
profiles, and event schedules, and a run_* driver that executes it and
returns a result object whose passed property checks its contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import fmean, stdev

import numpy as np

from . import analysis
from .difference import DeltaState, apply_event_delta
from .engine import (Event, Explicit, IidUniform, PoissonStream, ScriptedStream,
                     SimState, StopRule, derive_seed, new_simulation, run)
from .opinion_space import ModelParams, circle_dist, mod_s
from .topology import Graph, _count, build_path

__all__ = [
    "FlattenPlan",
    "flatten_schedule",
    "ButterflyResult",
    "butterfly_scenario",
    "run_butterfly",
    "SignFlipResult",
    "signflip_vertex_count",
    "signflip_scenario",
    "run_signflip",
    "ComparisonResult",
    "run_comparison",
]


@dataclass(eq=False)
class FlattenPlan:
    """A scripted schedule that drains the bound mass off an edge segment.

    The schedule is two columns, one entry per event: `times` (float64)
    and `event_edges` (int64); every tie is 1. `edge_ids` is the segment,
    in sweep order. `events` builds the schedule as Events at each call.
    """

    times: np.ndarray
    event_edges: np.ndarray
    edge_ids: tuple[int, ...]
    sweeps: int
    xi_remaining: float

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(map(Event, self.times.tolist(), self.event_edges.tolist()))


def _clock(start_time: float, time_step: float, k: int) -> np.ndarray:
    """The k times start_time + time_step, + time_step, ...: a sequential
    accumulate, so each is the float that `t += time_step` gives. A step
    that leaves the clock where it was raises ValueError."""
    steps = np.full(k + 1, time_step, dtype=np.float64)
    steps[0] = start_time
    times = np.add.accumulate(steps)
    stuck = np.flatnonzero(times[1:] <= times[:-1])
    if stuck.size:
        raise ValueError(f"time_step {time_step} does not advance the clock from "
                         f"{float(times[stuck[0]])}")
    return times[1:]


def flatten_schedule(g: Graph, edge_ids, eps: float, params: ModelParams,
                     start_time: float = 0.0, time_step: float = 1.0,
                     max_total_events: int = 10_000_000) -> FlattenPlan:
    """Sweep a chain of edges until its total bound mass is at most eps.

    Starts every edge of the segment at bound 1 and replays the unsigned
    update edge by edge, sweep after sweep; each application is a scripted
    event, the first at start_time + time_step, each next one time_step
    later. Mass leaks out through the segment's ends (or into frozen
    neighboring edges), so the total decays geometrically and the sweep
    count depends only on the segment length, mu, and eps. Any gap
    profile dominated by the all-ones bound, which is every profile, ends
    with total gap mass at most eps after this schedule. The schedule is
    built as columns (see FlattenPlan), not event by event.

    eps must be positive (not NaN); an eps at or above the initial mass
    yields an empty plan. start_time must be finite and time_step finite
    and positive, large enough that every time is later than the one
    before; anything else raises ValueError. The segment must be a
    simple chain: flattening a full ring has nowhere to leak and is
    refused.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not math.isfinite(start_time):
        raise ValueError(f"start_time must be finite, got {start_time}")
    if not 0.0 < time_step < math.inf:
        raise ValueError(f"time_step must be finite and positive, got {time_step}")
    ids = [int(e) for e in edge_ids]
    if not ids:
        raise ValueError("empty segment")
    if len(set(ids)) != len(ids):
        raise ValueError("segment repeats an edge")
    for e in ids:
        if not 0 <= e < g.edge_count:
            raise ValueError(f"edge id {e} out of range")
    pos = {e: i for i, e in enumerate(ids)}
    nbrs = []
    links = 0
    for e in ids:
        inside = [pos[f] for f, _ in g.edge_neighbors[e] if f in pos]
        if len(inside) > 2:
            raise ValueError("segment must be a simple chain of adjacent edges")
        links += len(inside)
        nbrs.append(inside)
    if links != 2 * (len(ids) - 1):
        raise ValueError("segment must be a simple chain of adjacent edges")

    mu = params.mu
    keep = 1.0 - 2.0 * mu
    k = len(ids)
    # one sweep, each event's slot and its two neighbours' slots: a missing
    # neighbour is slot k, emptied after each sweep
    sweep = [(i, *inside, k, k)[:3] for i, inside in enumerate(nbrs)]
    xi = [1.0] * k + [0.0]
    total = float(k)
    sweeps = 0
    while total > eps:
        if (sweeps + 1) * k > max_total_events:
            raise RuntimeError(
                f"flattening to {eps} needs more than {max_total_events} events; "
                "raise the cap or the target")
        sweeps += 1
        for i, a, b in sweep:
            c = xi[i]
            step = mu * c
            xi[a] += step
            xi[b] += step
            xi[i] = keep * c
        xi[k] = 0.0
        total = math.fsum(xi)
    return FlattenPlan(times=_clock(start_time, time_step, sweeps * k),
                       event_edges=np.tile(np.array(ids, dtype=np.int64), sweeps),
                       edge_ids=tuple(ids), sweeps=sweeps, xi_remaining=total)


def _butterfly(n, params: ModelParams, alternations, flatten_eps: float,
               settle_eps: float):
    """The butterfly's path, its shared schedule as a ScriptedStream built
    from the plans' columns, and the base and variant profiles."""
    n = _count(n, "n")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    alternations = _count(alternations, "alternations")
    if alternations < 0:
        raise ValueError(f"need alternations >= 0, got {alternations}")
    g = build_path(2 * n - 1)
    plan_left = flatten_schedule(g, range(0, n - 2), flatten_eps, params)
    t = float(plan_left.times[-1]) if plan_left.sweeps else 0.0
    plan_right = flatten_schedule(g, range(n, 2 * n - 2), flatten_eps, params, start_time=t)
    t = float(plan_right.times[-1]) if plan_right.sweeps else t
    bridge = _clock(t, 1.0, alternations)
    t = float(bridge[-1]) if alternations else t
    settle = flatten_schedule(g, range(g.edge_count), settle_eps, params, start_time=t)
    times = np.concatenate((plan_left.times, plan_right.times, bridge, settle.times))
    edges = np.concatenate((plan_left.event_edges, plan_right.event_edges,
                            # the two bridge edges, in turn
                            np.resize(np.array([n - 2, n - 1], dtype=np.int64), alternations),
                            settle.event_edges))
    stream = ScriptedStream._from_arrays(times, edges, np.ones(times.size, dtype=np.int64))
    base = tuple((v + 1) / n - 1.0 for v in range(2 * n - 1))
    variant = list(base)
    variant[n - 1] = 1.0
    return g, stream, base, tuple(variant)


def butterfly_scenario(n: int, params: ModelParams | None = None,
                       alternations: int = 200, flatten_eps: float = 1e-9,
                       settle_eps: float = 1e-10):
    """Two coupled runs differing in one vertex, sharing one event schedule.

    On the path with 2n-1 vertices the base profile is the ramp
    (v+1)/n - 1 and the variant moves the middle vertex (1-based label n)
    to the cut point +1. The shared schedule first flattens the two blocks
    on either side of the middle vertex, leaving the two bridge edges
    untouched, then fires a long alternation of single events on the two
    bridge edges, then flattens the whole path so each run settles to its
    consensus value. A one-vertex difference in the input ends up as an
    order-one difference in the output.

    n and alternations are counts by the whole-number rule (4 and 4.0 are
    both 4); n below 3, a negative alternations, or anything
    flatten_schedule refuses raises ValueError. The schedule is built as
    columns, the three plans' and the bridge events', and converted to
    Events once.

    Returns the path, the schedule, and the base and variant profiles.
    """
    params = params if params is not None else ModelParams()
    g, stream, base, variant = _butterfly(n, params, alternations, flatten_eps, settle_eps)
    return g, stream.events, base, variant


@dataclass
class ButterflyResult:
    n: int
    distance: float
    limit_base: float
    limit_variant: float
    schedule_events: int
    deffuant_shift: float
    deffuant_shift_exact: float
    deffuant_gap: float
    min_distance: float = 0.8

    @property
    def passed(self) -> bool:
        return (self.distance >= self.min_distance
                and self.deffuant_gap < 1e-9)


def run_butterfly(n: int, params: ModelParams | None = None,
                  alternations: int = 200, flatten_eps: float = 1e-9,
                  settle_eps: float = 1e-10, deffuant_seed: int = 7,
                  min_distance: float = 0.8) -> ButterflyResult:
    """Execute the butterfly pair plus its interval twin.

    The circle runs settle to single values whose circular distance is the
    headline number. The twin runs the interval rule from the matching
    profiles, x = (opinion + 1) / 2 with the variant vertex at 1, under a
    Poisson stream; there the limit is the conserved mean, so the variant
    shifts it by exactly (1 - 1/2) / (2n - 1).
    """
    params = params if params is not None else ModelParams()
    g, stream, base, variant = _butterfly(n, params, alternations, flatten_eps, settle_eps)
    n = (g.vertex_count + 1) // 2  # the whole number _butterfly took n as
    # one schedule, built once: the variant replays the base stream's arrays
    twin = ScriptedStream._from_arrays(stream.times, stream.edge_ids, stream.ties)
    lb, lv = (run(new_simulation(g, Explicit(profile), params, stream=replay)).terminal["L"]
              for profile, replay in ((base, stream), (variant, twin)))
    if lb is None or lv is None:
        raise RuntimeError("butterfly runs failed to settle; lower settle_eps")
    distance = circle_dist(lb, lv)

    m = 2 * n - 1
    base_x = tuple((v + 1) / (2 * n) for v in range(m))
    var_x = list(base_x)
    var_x[n - 1] = 1.0
    shifts = []
    for tag, profile in (("base", base_x), ("variant", var_x)):
        st = new_simulation(build_path(m), Explicit(profile), params,
                            space="interval",
                            stream=PoissonStream(derive_seed(deffuant_seed, tag)))
        rec = run(st, stop=StopRule(w_below=1e-10, max_events=2_000_000))
        if rec.terminal["L"] is None:
            raise RuntimeError(f"interval twin ({tag}) did not converge")
        shifts.append(rec.terminal["L"])
    shift = shifts[1] - shifts[0]
    exact = (1.0 - base_x[n - 1]) / m
    return ButterflyResult(n=n, distance=distance, limit_base=lb,
                           limit_variant=lv, schedule_events=stream.times.size,
                           deffuant_shift=shift, deffuant_shift_exact=exact,
                           deffuant_gap=abs(shift - exact),
                           min_distance=min_distance)


def signflip_vertex_count(c: float) -> int:
    """Vertex count of the sign-flip construction for concentration level c."""
    if not 0.0 < c <= 1.0:
        raise ValueError(f"need 0 < c <= 1, got {c}")
    q = math.ceil(4.0 / c) + 3
    return math.ceil(2.0 / c) * q + 1


@dataclass
class SignFlipResult:
    c: float
    vertex_count: int
    block_edges: tuple[int, ...]
    events_total: int
    first_flip_event: int | None
    flipped: bool
    control_flipped: bool
    terminal_values: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return self.flipped and not self.control_flipped


def signflip_scenario(c: float, params: ModelParams | None = None):
    """Gap profile and schedule that force a sign disagreement.

    All gaps start nonnegative: a contiguous block of edges at c/2 in the
    middle of a path, zero elsewhere. The schedule flattens the block's
    interior; the drained mass piles into the two block-boundary edges,
    enough to push one of them through the cut and negative while a
    neighbor is still positive.
    """
    params = params if params is not None else ModelParams()
    if not 0.0 < c <= 1.0:
        raise ValueError(f"need 0 < c <= 1, got {c}")
    k = signflip_vertex_count(c)
    g = build_path(k)
    q = math.ceil(4.0 / c) + 3
    start = (g.edge_count - q) // 2
    block = tuple(range(start, start + q))
    interior = list(block[1:-1])
    values = [0.0] * g.edge_count
    for e in block:
        values[e] = c / 2.0
    plan = flatten_schedule(g, interior, c / 3.0, params)
    return g, DeltaState(g, values), block, plan


def run_signflip(c: float, params: ModelParams | None = None) -> SignFlipResult:
    """Replay the sign-flip schedule and watch for a negative adjacent product.

    The same schedule applied to the all-zero profile is the control: zero
    gaps stay zero, so no flip can appear there.

    Both starts have no negative product, and an event changes only its
    own edge's gap and its neighbours', so after each event only the pairs
    touching those edges are checked: a first flip can appear nowhere else.
    """
    params = params if params is not None else ModelParams()
    g, delta, block, plan = signflip_scenario(c, params)
    control = DeltaState(g, [0.0] * g.edge_count)
    nbrs = g.edge_neighbors
    near = {e: {(min(f, h), max(f, h)) for f in (e, *(x for x, _ in nbrs[e]))
                for h, _ in nbrs[f]}
            for e in plan.edge_ids}
    vals, control_vals = delta.values, control.values
    first_flip = None
    control_flipped = False
    for idx, ev in enumerate(plan.events):
        apply_event_delta(delta, ev, params)
        apply_event_delta(control, ev, params)
        pairs = near[ev.edge_id]
        if first_flip is None and any(vals[i] * vals[j] < 0.0 for i, j in pairs):
            first_flip = idx
        if not control_flipped and any(control_vals[i] * control_vals[j] < 0.0
                                       for i, j in pairs):
            control_flipped = True
    return SignFlipResult(c=c, vertex_count=g.vertex_count, block_edges=block,
                          events_total=plan.times.size,
                          first_flip_event=first_flip,
                          flipped=first_flip is not None,
                          control_flipped=control_flipped,
                          terminal_values=tuple(delta.values))


@dataclass
class ComparisonResult:
    n: int
    replicates: int
    deffuant_limits: tuple[float, ...]
    compass_limits: tuple[float, ...]
    deffuant_sd: float | None
    deffuant_conservation_worst: float
    compass_ks: analysis.UniformityReport
    compass_unconverged: int

    @property
    def passed(self) -> bool:
        return self.compass_ks.pvalue > 0.01 and self.compass_unconverged == 0


def run_comparison(n: int, seed: int, replicates: int = 200,
                   params: ModelParams | None = None,
                   deffuant_max_events: int = 2000,
                   compass_w_stop: float = 0.25,
                   compass_max_events: int = 20_000_000) -> ComparisonResult:
    """Coupled interval and circle runs on the path with n vertices.

    Each replicate draws one uniform circle profile and maps it to the
    interval by x = (opinion + 1) / 2, so the two models start from the
    same randomness. The interval limit is the conserved mean and is read
    off after a short burn (convergence itself is tested elsewhere). The
    circle limit is read off once the run is concentrated enough that no
    event can cross the cut (total neighbor distance below compass_w_stop),
    where the unwrapped mean is frozen; that keeps the cost of large n sane
    without touching the measured value.
    """
    params = params if params is not None else ModelParams()
    g = build_path(n)
    d_limits = []
    c_limits = []
    cons_worst = 0.0
    unconverged = 0
    for i in range(replicates):
        eta = new_simulation(g, IidUniform(derive_seed(seed, "init", i)), params,
                             stream=PoissonStream(derive_seed(seed, "compass", i)))
        x0 = [(v + 1.0) / 2.0 for v in eta.opinions]
        dst = SimState(graph=g, space="interval", params=params, opinions=list(x0),
                       stream=PoissonStream(derive_seed(seed, "deffuant", i)))
        run(dst, stop=StopRule(max_events=deffuant_max_events))
        lim_d = fmean(dst.opinions)
        cons_worst = max(cons_worst, abs(lim_d - fmean(x0)))
        d_limits.append(lim_d)

        rec = run(eta, stop=StopRule(w_below=compass_w_stop,
                                     max_events=compass_max_events))
        if rec.stop_reason != "w_below":
            unconverged += 1
            continue
        c_limits.append(mod_s(analysis._circle_lift(eta.opinions)))
    sd = stdev(d_limits) if len(d_limits) >= 2 else None
    if not c_limits:
        raise RuntimeError("no circle replicate converged; raise compass_max_events")
    ks = analysis.ks_uniform_pvalue(c_limits, -1.0, 1.0)
    return ComparisonResult(n=n, replicates=replicates,
                            deffuant_limits=tuple(d_limits),
                            compass_limits=tuple(c_limits),
                            deffuant_sd=sd,
                            deffuant_conservation_worst=cons_worst,
                            compass_ks=ks,
                            compass_unconverged=unconverged)
