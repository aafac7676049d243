"""Event-driven simulation engine.

Events are clock rings on edges. A Poisson stream merges independent
unit-rate clocks into one exponential race; a scripted stream replays a
fixed schedule. Runs advance a SimState event by event, sample metrics at
probe times, and stop on an event budget, a time horizon, or a smallness
test on the total neighbor distance W.

Reproducibility contract: a Poisson stream consumes exactly three draws
from its own random.Random per event, in the order wait, edge, tie bit.
Identical (graph, init, params, seed, stop, probes) give bitwise identical
trajectories, records, and serialized output. Seeds must be integers;
string seeding is process-dependent and is refused.
"""

from __future__ import annotations

import array
import math
import random
import struct
import time as _time
from dataclasses import dataclass
from hashlib import sha256

import numpy as np

from . import analysis
from .difference import DifferenceTracker
from .opinion_space import ModelParams, update_pair_compass, update_pair_deffuant
from .topology import Graph, _whole, build_path, build_ring, build_torus

__all__ = [
    "Event",
    "ScheduleExhausted",
    "SnapshotError",
    "PoissonStream",
    "ScriptedStream",
    "IidUniform",
    "Explicit",
    "Constant",
    "initial_opinions",
    "SimState",
    "new_simulation",
    "StopRule",
    "apply_event",
    "run",
    "snapshot",
    "restore",
    "derive_seed",
]


class ScheduleExhausted(Exception):
    """A scripted stream has no further events."""


class SnapshotError(ValueError):
    """A snapshot byte string cannot be decoded."""


@dataclass(slots=True)
class Event:
    """One clock ring: when, on which edge, and which tie branch if needed."""

    time: float
    edge_id: int
    tie: int = 1


class PoissonStream:
    """Independent unit-rate clocks on every edge, merged.

    The next ring arrives after an Exponential(edge count) wait and lands
    on a uniformly chosen edge; a fair tie bit is drawn for every event,
    used or not, to keep the draw count fixed.
    """

    kind = "poisson"

    def __init__(self, seed: int):
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise TypeError(f"stream seeds must be integers, got {seed!r}")
        self.seed = seed
        self.rng = random.Random(seed)

    def next_event(self, state: "SimState") -> Event:
        m = state.graph.edge_count
        rng = self.rng
        t = state.clock - math.log(1.0 - rng.random()) / m
        e = int(rng.random() * m)
        tie = 1 if rng.random() < 0.5 else 2
        return Event(t, e, tie)


def _edge_id_array(values) -> np.ndarray:
    """The edge ids as int64, each a whole number within int64; the first
    that is not raises ValueError."""
    a = np.asarray(values)
    if a.dtype.kind == "i" or a.dtype.kind in "bu" and a.dtype.itemsize < 8:
        return a.astype(np.int64)
    # floats, ints past int64 or other objects: one by one, by the scalar rule
    ids = []
    for i, v in enumerate(values):
        e = _whole(v)
        if e is None or not -2**63 <= e < 2**63:
            raise ValueError(f"event {i} has edge id {v!r}, must be a whole number in int64")
        ids.append(e)
    return np.array(ids, dtype=np.int64)


class ScriptedStream:
    """Replays a fixed schedule of events, in order, then signals the end.

    The schedule is three read-only arrays, one entry per event: `times`
    (float64, finite and strictly increasing), `edge_ids` and `ties`
    (int64, each tie 1 or 2). They are its only copy: `events` and
    `next_event` build Events from them, and a kernel run replays them in
    place. An edge id or a tie may be given as any whole number (2, 2.0,
    np.int64(2)); 2.5 is refused. Edge ids are checked against a graph
    when a run takes them, as `apply_event` checks them.
    """

    kind = "scripted"
    seed = None

    def __init__(self, events, cursor: int = 0):
        evs = [e if isinstance(e, Event) else Event(e[0], e[1], e[2] if len(e) > 2 else 1)
               for e in events]
        self._load([e.time for e in evs], [e.edge_id for e in evs], [e.tie for e in evs],
                   cursor)

    @classmethod
    def _from_arrays(cls, times, edge_ids, ties, cursor: int = 0) -> "ScriptedStream":
        """A stream of the schedule given as its three columns, checked as
        the constructor checks Events."""
        stream = cls.__new__(cls)
        stream._load(times, edge_ids, ties, cursor)
        return stream

    def _load(self, times, edge_ids, ties, cursor: int) -> None:
        # all at once; the messages name the first fault, as a check event by event would
        edge_ids = _edge_id_array(edge_ids)
        times = np.array(times, dtype=np.float64)
        given_ties = np.asarray(ties)
        bad_time = ~np.isfinite(times)
        bad = bad_time | ~((given_ties == 1) | (given_ties == 2))
        if bad.any():
            i = int(bad.argmax())
            if bad_time[i]:
                raise ValueError(f"event {i} has time {float(times[i])!r}, must be finite")
            raise ValueError(f"event {i} has tie {given_ties[i:i + 1].tolist()[0]!r}, "
                             "must be 1 or 2")
        back = np.flatnonzero(times[1:] <= times[:-1])
        if back.size:
            i = int(back[0]) + 1
            raise ValueError(
                f"scripted times must be strictly increasing, events {i - 1} and {i} "
                f"have times {float(times[i - 1])} and {float(times[i])}")
        if not 0 <= cursor <= times.size:
            raise ValueError(f"cursor {cursor} out of range")
        self.times, self.edge_ids, self.ties = times, edge_ids, given_ties.astype(np.int64)
        for a in (self.times, self.edge_ids, self.ties):
            a.flags.writeable = False
        self.cursor = cursor

    @property
    def events(self) -> tuple[Event, ...]:
        """The schedule as Events, built from the arrays at each call."""
        return tuple(map(Event, self.times.tolist(), self.edge_ids.tolist(),
                         self.ties.tolist()))

    def next_event(self, state: "SimState") -> Event:
        i = self.cursor
        if i >= self.times.size:
            raise ScheduleExhausted
        self.cursor = i + 1
        return Event(self.times.item(i), self.edge_ids.item(i), self.ties.item(i))


@dataclass(frozen=True)
class IidUniform:
    """Independent uniform opinions, from a dedicated integer seed."""

    seed: int


@dataclass(frozen=True)
class Explicit:
    """A caller-supplied opinion per vertex, validated against the space."""

    values: tuple

    def __init__(self, values):
        object.__setattr__(self, "values", tuple(float(v) for v in values))


@dataclass(frozen=True)
class Constant:
    """The same opinion everywhere."""

    value: float


def _check_opinion(v: float, what: str, space: str) -> None:
    if space == "circle":
        if not -1.0 < v <= 1.0:
            raise ValueError(f"{what} {v!r} outside the circle chart (-1, 1]")
    else:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{what} {v!r} outside [0, 1]")


def _check_chart(values, what: str, space: str) -> None:
    """`_check_opinion` of every value, in one vectorised pass; the scalar
    check of the first value outside the chart (NaN included) words the error."""
    values = np.asarray(values, dtype=np.float64)
    low = values > -1.0 if space == "circle" else values >= 0.0
    outside = ~(low & (values <= 1.0))
    if outside.any():
        _check_opinion(float(values[outside.argmax()]), what, space)


_BLOCK = 1 << 16  # the most draws a block takes: a bounded transient integer at 1e6


def _uniform(rng: random.Random, n: int, circle: bool) -> list[float]:
    """n draws of rng.random(), or of 1.0 - 2.0 * rng.random(), bit for bit:
    getrandbits(64 * k) holds the next 2k words from its low end, so its i-th
    64 bits hold the a (low) and b of ((a >> 5) * 2**26 + (b >> 6)) * 2**-53."""
    r = np.empty(n)
    for done in range(0, n, _BLOCK):
        k = min(n - done, _BLOCK)
        u = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), dtype="<u8")
        r[done:done + k] = (u & 0xFFFFFFFF) >> 5 << 26 | u >> 38  # below 2**53: exact
    r *= (-2.0 if circle else 1.0) * 2.0 ** -53
    if circle:
        r += 1.0
    return r.tolist()


def initial_opinions(init, n: int, space: str = "circle") -> list[float]:
    """Materialize an initial profile of length n for the given space."""
    if space not in ("circle", "interval"):
        raise ValueError(f"unknown space {space!r}")
    if isinstance(init, IidUniform):
        if not isinstance(init.seed, int) or isinstance(init.seed, bool):
            raise TypeError(f"init seeds must be integers, got {init.seed!r}")
        return _uniform(random.Random(init.seed), n, space == "circle")
    if isinstance(init, Explicit):
        if len(init.values) != n:
            raise ValueError(f"expected {n} values, got {len(init.values)}")
        _check_chart(init.values, "explicit value", space)
        return list(init.values)
    if isinstance(init, Constant):
        v = float(init.value)
        _check_opinion(v, "constant value", space)
        return [v] * n
    raise TypeError(f"unknown init spec {init!r}")


@dataclass
class SimState:
    """A simulation frozen between events.

    pending holds an event that was generated but not applied (a run that
    stopped on a time horizon parks the overshooting event here), so
    resuming reproduces the uninterrupted trajectory bit for bit.
    """

    graph: Graph
    space: str
    params: ModelParams
    opinions: list[float]
    clock: float = 0.0
    events_applied: int = 0
    pending: Event | None = None
    stream: object = None


def new_simulation(graph: Graph, init, params: ModelParams | None = None,
                   space: str = "circle", stream=None) -> SimState:
    """Assemble a ready-to-run state; an integer stream means a Poisson seed."""
    params = params if params is not None else ModelParams()
    if isinstance(stream, int) and not isinstance(stream, bool):
        stream = PoissonStream(stream)
    ops = initial_opinions(init, graph.vertex_count, space)
    return SimState(graph=graph, space=space, params=params, opinions=ops,
                    stream=stream)


@dataclass(frozen=True)
class StopRule:
    """When to stop: an event budget, a time horizon, or W below a level.

    Several bounds may be set at once; whichever trips first ends the run
    and names the stop reason. The W test runs every w_check_interval
    events and once more when the event budget lands, so a run that
    converges exactly at the budget still counts as converged. It stops
    exactly when W, the exactly rounded sum of the edge distances that the
    record reports, is below w_below (see `_run_loop`).

    A rule whose only bound is w_below may never return. A ring wound k
    times keeps W >= 2|k|, and under a finite theta gated clusters can
    freeze with W above w_below; until the engine stops at a winding floor
    or on fixed clusters, a max_events bound is what ends such a run.

    max_events and w_check_interval are counts: a whole float such as 1e6
    (as JSON gives it) is taken as its int; bools and other numbers are
    refused.
    """

    max_events: int | None = None
    max_time: float | None = None
    w_below: float | None = None
    w_check_interval: int = 100

    def __post_init__(self):
        if self.max_events is None and self.max_time is None and self.w_below is None:
            raise ValueError("a stop rule needs max_events, max_time, or w_below")
        for name in ("max_events", "w_check_interval"):
            v = getattr(self, name)
            if v is None:
                continue
            # a float budget comes from JSON as 1e6; 10.5, NaN, inf or True is no count
            count = None if isinstance(v, bool) else _whole(v)
            if count is None:
                raise ValueError(f"{name} must be a whole number, got {v!r}")
            object.__setattr__(self, name, count)
        if self.max_events is not None and self.max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {self.max_events}")
        if self.max_time is not None and not self.max_time >= 0.0:
            raise ValueError(f"max_time must be >= 0, got {self.max_time}")
        if self.w_below is not None and not self.w_below > 0.0:
            raise ValueError(f"w_below must be > 0, got {self.w_below}")
        if self.w_check_interval < 1:
            raise ValueError(f"w_check_interval must be >= 1, got {self.w_check_interval}")


def _check_event(edge_count: int, clock: float, t: float, e, k) -> tuple[int, int]:
    """Refuse an event the loop did not draw itself: an edge id that is not
    a whole number or is out of range, a time that is NaN, before the clock
    or not finite, or a tie other than 1 or 2. The interval ignores the
    tie, but it too takes only those two, as a drawn, scripted or restored
    event does.
    Return the edge id and the tie as ints: 1.0 or np.int64(1) is taken as
    1, and 1.5 is refused, on every loop."""
    edge = _whole(e)
    if edge is None:
        raise ValueError(f"edge id must be a whole number, got {e!r}")
    if not 0 <= edge < edge_count:
        raise ValueError(f"edge id {edge} out of range")
    if not t >= clock:
        raise ValueError(f"event at {t} is earlier than the clock {clock}")
    if not -math.inf < t < math.inf:
        raise ValueError(f"event at {t} is not finite")
    if k not in (1, 2):
        raise ValueError(f"tie must be 1 or 2, got {k!r}")
    return edge, int(k)


def apply_event(state: SimState, ev: Event) -> None:
    """Apply one event to the state: one pair update, clock forward.

    Only the event edge's endpoints may change. Gated events (pairs beyond
    the confidence bound) still advance the clock and the event count.
    """
    e, k = _check_event(state.graph.edge_count, state.clock, ev.time, ev.edge_id, ev.tie)
    a, b = state.graph.edges[e]
    op = state.opinions
    if state.space == "circle":
        op[a], op[b] = update_pair_compass(op[a], op[b], state.params, k)
    else:
        op[a], op[b] = update_pair_deffuant(op[a], op[b], state.params)
    state.clock = ev.time
    state.events_applied += 1


def _total_w(state) -> float:
    """T: the edge distances of a SimState summed left to right, in edge-id
    order; or of a kernel run's `Context`, which sums its opinions in C the
    same way. T is not W but a cheap bound on it, which a W test uses only
    to rule a stop out (see `_run_loop`)."""
    if not isinstance(state, SimState):
        return state.total_w()
    op = state.opinions
    total = 0.0
    if state.space == "circle":
        for a, b in state.graph.edges:
            d = abs(op[a] - op[b])
            total += d if d <= 1.0 else 2.0 - d
    else:
        for a, b in state.graph.edges:
            total += abs(op[a] - op[b])
    return total


def run(state: SimState, stream=None, stop: StopRule | None = None,
        probes=(), observers=(), tol: float = 1e-6,
        initial_opinions_for_limits=None) -> analysis.RunRecord:
    """Advance a state until a stop rule trips; return the run's record.

    Probes are sampled left-continuously extended: a probe at time p reports
    the state after the last event at or before p. Probes beyond the final
    clock are dropped, except after a scripted schedule runs out, where the
    state is constant forever and every remaining probe is well defined.

    Limit values in the terminal block need the t=0 profile; a fresh state
    supplies it implicitly, a resumed one only via
    initial_opinions_for_limits.

    A DifferenceTracker observer must track this very state: one of another
    state (a twin, or the state a snapshot was taken of) would re-read that
    state's opinions and drift. Such a tracker, one whose gaps or bounds are
    not one per edge of a graph equal to the state's, opinions that are not
    one per vertex or lie outside the space's chart (NaN included), a clock
    that is not finite (as `restore` refuses it), a NaN probe time, a
    Poisson stream on a graph without edges, a scripted stream whose cursor
    is not a whole number within its schedule, and a parked pending event
    that apply_event would refuse raise ValueError before the first event,
    with the state untouched. A cursor, or a parked event's edge id or tie,
    that is a whole number of another type (1.0, np.int64(1)) is put back as
    a plain int.
    """
    observers = tuple(observers)
    g = state.graph
    if len(state.opinions) != g.vertex_count:
        raise ValueError(f"expected {g.vertex_count} opinions, got {len(state.opinions)}")
    if not math.isfinite(state.clock):
        raise ValueError(f"clock {state.clock} is not finite")
    # one copy as doubles, which a kernel run starts from; a value that is not
    # a real number (a string, None) raises TypeError. The rules keep
    # opinions in the chart, so every edge distance stays in [0, 1]
    x = array.array("d", state.opinions)
    _check_chart(x, "opinion", state.space)
    for obs in observers:
        if not isinstance(obs, DifferenceTracker):
            continue
        if obs.state is not state:
            raise ValueError("a DifferenceTracker observer must track the state being run; "
                             "set its .state to this state")
        for values in (obs.delta, obs.xi):
            if values is not None and not (values.graph == g
                                           and len(values.values) == g.edge_count):
                raise ValueError("a DifferenceTracker's gaps and bounds must hold one entry "
                                 "per edge of the state's graph")
    probes = sorted(float(p) for p in probes)
    if any(math.isnan(p) for p in probes):
        # NaN sorts anywhere, and no time is past it: every later probe would be lost
        raise ValueError("probe times must not be NaN")
    stream = stream if stream is not None else state.stream
    if stream is None:
        raise ValueError("no event stream attached to the state")
    if isinstance(stream, PoissonStream) and not g.edge_count:
        raise ValueError("a Poisson stream needs a graph with at least one edge")
    if isinstance(stream, ScriptedStream):
        cursor = _whole(stream.cursor)
        if cursor is None or not 0 <= cursor <= stream.times.size:
            raise ValueError(f"cursor {stream.cursor!r} out of range")
        stream.cursor = cursor
    pending = state.pending
    if pending is not None:
        e, k = _check_event(g.edge_count, state.clock, pending.time, pending.edge_id,
                            pending.tie)
        if type(pending.edge_id) is not int or type(pending.tie) is not int:
            # taken as plain ints once, for every loop and for snapshot
            state.pending = Event(pending.time, e, k)
    state.stream = stream
    if stop is None:
        if not isinstance(stream, ScriptedStream):
            raise ValueError("a stop rule is required unless the stream is scripted")
        # one more than the events left, so the schedule runs out first
        left = stream.times.size - stream.cursor + (state.pending is not None)
        stop = StopRule(max_events=state.events_applied + left + 1)
    if initial_opinions_for_limits is not None:
        initial = list(initial_opinions_for_limits)
    elif state.events_applied == 0:
        initial = list(state.opinions)
    else:
        initial = None

    samples: list[analysis.MetricSample] = []
    t0 = _time.perf_counter()
    reason, last = _run_loop(state, stream, stop, probes, samples, observers, x)
    wall = _time.perf_counter() - t0

    final = analysis.compute_metrics(g, last, state.space, at_time=state.clock)
    cls = analysis.consensus_classify(final, tol)
    terminal = {
        "consensus": cls,
        "W": final.W,
        "max_neighbor_dist": final.max_neighbor_dist,
        "mean_abs_delta": final.mean_abs_delta,
        "opinion_range": final.opinion_range,
        "sign_flip_fraction": final.sign_flip_fraction,
        "L": None,
        "K": None,
        "K_gap": None,
        "conservation_gap": None,
    }
    record = analysis.RunRecord(
        space=state.space,
        graph_kind=g.kind,
        vertex_count=g.vertex_count,
        edge_count=g.edge_count,
        mu=state.params.mu,
        theta=state.params.theta,
        seed=getattr(stream, "seed", None),
        stop_reason=reason,
        events_applied=state.events_applied,
        final_time=state.clock,
        samples=samples,
        terminal=terminal,
        wall_seconds=wall,
        final_opinions=list(state.opinions),
    )
    if cls == "strong-like" and initial is not None:
        lim = analysis.extract_limits(record, initial, tol)
        terminal["L"] = lim.L
        terminal["K"] = lim.K
        terminal["K_gap"] = lim.K_gap
        terminal["conservation_gap"] = lim.conservation_gap
    return record


# the most events one kernel call applies, so a run between checks stays
# interruptible
_CHUNK = 1 << 20


def _least_t(lo: float, shrink: float, fold: float) -> float:
    """A T at and above which T * shrink - fold, as computed, is at least lo.
    That expression never falls as T grows, so the first T that passes will
    do."""
    t = (lo + fold) / shrink
    while t * shrink - fold < lo:
        t = math.nextafter(t, math.inf)
    return t


def _run_loop(state: SimState, stream, stop: StopRule, probes, samples,
              observers, values: array.array):
    """The event loop: either space, any stream, observers welcome. Return
    the stop reason and the final opinions: the caller's list, or on a
    kernel run its buffer, which holds the same doubles.

    Poisson events are drawn inline, with PoissonStream.next_event's three
    draws; other streams' events get apply_event's checks, as a parked event
    gets them in `run`. Each event is applied with the scalar rule that
    apply_event calls, so a run is stepping apply_event. A run the kernel
    takes (see `_kernel`) goes to it in chunks that end at the next W test
    or the budget, after _CHUNK events, or at an event past the next probe
    or max_time. Every W test, probe and stop decision stays here.

    A W test at count c sums the m edge distances left to right, T
    (`_total_w`), and T only rules a stop out: the run stops on W, the
    exactly rounded sum that the record reports (`analysis._gap_pass`, as
    compute_metrics takes it). T lies within (m - 1) * 2**-53 * T of the
    exact sum of its terms (recursive summation of nonnegative terms,
    Higham 2002, ch. 4), and each term within 2**-53 of its distance. So
    lo = T * (1 - (m + 4) * 2**-53) - m * 2**-52, as computed, lies below
    that exact sum by at least 2**-52 per term and 2**-52 * T. No stop is
    possible at lo >= w_below; below it, the exact W decides. lo also rules
    out a stop for a window after the test. An event on an edge at
    distance d moves each of its ends by mu * d (every branch of both
    rules), and an edge distance by at most the moves of its two ends. The
    edges at the event's ends hold at most 2 * max_degree ends, and a
    computed move is within 2**-51 of mu * d, so
    step = 2 * max_degree * (mu + 2**-50), even rounded down twice, bounds
    what one event does to the sum of the distances. No test at a count up
    to c + (lo - w_below) / step can find W below w_below: the room under
    the exact sum covers each term's rounding at both ends of the window,
    and the window's own arithmetic. The next test that sums is the first
    past the window. The window is worked out only when lo reaches
    w_below + step * interval, where it skips a test. lo never falls as T
    grows, so a test compares T itself with `low` and `gate`, the T at
    which lo reaches w_below and w_below + step * interval (`_least_t`): a
    test that rules a stop out costs one sum and two compares.
    A run that raises after drawing an event and before applying it parks
    the event in `state.pending` and keeps its count of applied events.
    """
    g = state.graph
    space = state.space
    circle = space == "circle"
    m = g.edge_count
    params = state.params
    # read from the module at each run, so a wrapped rule sees every call
    compass, deffuant = update_pair_compass, update_pair_deffuant
    poisson = isinstance(stream, PoissonStream)
    scripted = type(stream) is ScriptedStream
    rnd = stream.rng.random if poisson else None
    log = math.log
    compute, exact = analysis.compute_metrics, analysis._gap_pass

    clock = state.clock
    count = state.events_applied
    max_events = stop.max_events if stop.max_events is not None else math.inf
    max_time = stop.max_time if stop.max_time is not None else math.inf
    interval = stop.w_check_interval
    w_below = stop.w_below
    # the next event count at which the W test or the budget is due, and the
    # count up to which tests answer "not below" without a sum: every one
    # when the run has no W test, none before its first sum
    check_at, quiet = max_events, math.inf
    if w_below is not None:
        check_at, quiet = min(count + interval, max_events), -1
        step = 2 * g.max_degree * (params.mu + 2.0 ** -50)
        shrink, fold = 1.0 - (m + 4) * 2.0 ** -53, m * 2.0 ** -52
        low = _least_t(w_below, shrink, fold)
        gate = _least_t(w_below + step * interval, shrink, fold)
    pi = 0
    next_probe = probes[pi] if probes else math.inf
    kernel = lib = None
    tracker = observers[0] if len(observers) == 1 else None
    if type(tracker) is not DifferenceTracker:
        tracker = None
    if (not observers or tracker) and (
            scripted or poisson and type(stream.rng) is random.Random):
        # imported here, so the build and load of the kernel stay out of the package import
        from . import _kernel
        lib = _kernel.load()
    # (t, e, k) is drawn or taken off the stream by the Python loop, and not
    # applied: when the run stops or raises, it goes back to state.pending
    loose = False
    reason = None

    try:
        if lib:
            kernel = _kernel.Chunks(lib, state, stream, max_time, values, tracker)
            observers = ()
            advance, chunk = kernel.ctx.run, _CHUNK
        edges = None if kernel else g.edges
        op = kernel.buf if kernel else state.opinions
        summed = kernel.ctx if kernel else state
        pending = state.pending
        while True:
            if count >= check_at:
                ahead = interval
                if count > quiet:
                    w = _total_w(summed)
                    if w < low and exact(g, np.asarray(op, dtype=float), circle)[0] < w_below:
                        reason = "w_below"
                        break
                    if w >= gate:
                        skip = int((w * shrink - fold - w_below) // step)
                        quiet = count + skip
                        ahead += skip - skip % interval
                if count >= max_events:
                    reason = "max_events"
                    break
                check_at = count + ahead
                if check_at > max_events:
                    check_at = max_events
            if kernel:
                limit = check_at - count
                if limit > chunk:
                    limit = chunk
                done = advance(limit, next_probe)
                count += done
                if done == limit:
                    continue
                if not kernel.ctx.drawn:
                    # only a replay stops short without holding an event
                    reason = "schedule_exhausted"
                    break
                t = kernel.ctx.t
            elif pending is None and poisson:
                t = clock - log(1.0 - rnd()) / m
                e = int(rnd() * m)
                k = 1 if rnd() < 0.5 else 2
                loose = True
            else:
                if pending is None:
                    state.clock = clock
                    state.events_applied = count
                    try:
                        pending = stream.next_event(state)
                    except ScheduleExhausted:
                        reason = "schedule_exhausted"
                        break
                    e, k = _check_event(m, clock, pending.time, pending.edge_id, pending.tie)
                else:
                    e, k = pending.edge_id, pending.tie  # checked by `run`
                t = pending.time
                pending = state.pending = None
                loose = True
            if t > max_time:
                clock = max_time
                reason = "max_time"
                break
            while t > next_probe:
                samples.append(compute(g, op, space, at_time=next_probe))
                pi += 1
                next_probe = probes[pi] if pi < len(probes) else math.inf
            if kernel:
                continue
            a, b = edges[e]
            if circle:
                op[a], op[b] = compass(op[a], op[b], params, k)
            else:
                op[a], op[b] = deffuant(op[a], op[b], params)
            loose = False
            clock = t
            count += 1
            if observers:
                # observers see each event after its update, clock and count synced
                state.clock = t
                state.events_applied = count
                ev = Event(t, e, k)
                for obs in observers:
                    obs.apply_event(ev)
    finally:
        if kernel:
            last, count, state.pending = kernel.close()
            if reason != "max_time":
                clock = last
        elif loose:
            state.pending = Event(t, e, k)
        state.clock = clock
        state.events_applied = count

    if kernel and reason == "schedule_exhausted" and stream.cursor < stream.times.size:
        # the replay ended before an event the Python loop refuses: take it
        # and refuse it as that loop does, the cursor past it
        ev = stream.next_event(state)
        _check_event(m, clock, ev.time, ev.edge_id, ev.tie)
    while pi < len(probes) and (next_probe <= clock or reason == "schedule_exhausted"):
        samples.append(compute(g, op, space, at_time=next_probe))
        pi += 1
        next_probe = probes[pi] if pi < len(probes) else math.inf
    return reason, op


_MAGIC = b"CMSN"
_SNAPSHOT_VERSION = 1
_SPACE_CODES = {"circle": 0, "interval": 1}
_SPACE_NAMES = {v: k for k, v in _SPACE_CODES.items()}
_KIND_CODES = {"path": 0, "ring": 1}
# one scripted event, packed as struct "<dIB" packs it: 13 bytes
_RECORD = np.dtype([("time", "<f8"), ("edge_id", "<u4"), ("tie", "u1")])


def snapshot(state: SimState) -> bytes:
    """Serialize a state, its graph, and its stream to bytes.

    The byte layout is versioned; restore() refuses anything it does not
    recognize. Observers are not part of the state and are not captured.
    Graphs of a non-builder kind are stored as explicit edge lists and come
    back with kind 'custom'.
    """
    out = bytearray()
    out += struct.pack("<4sHB", _MAGIC, _SNAPSHOT_VERSION, _SPACE_CODES[state.space])
    out += struct.pack("<dddQ", state.params.mu, state.params.theta,
                       state.clock, state.events_applied)
    p = state.pending
    if p is not None:
        e, k = _whole(p.edge_id), _whole(p.tie)
        if e is None or k is None:
            raise SnapshotError(f"cannot snapshot pending event {p}: its edge id and tie "
                                "must be whole numbers")
        out += struct.pack("<BdIB", 1, p.time, e, k)
    else:
        out += struct.pack("<B", 0)

    g = state.graph
    if g.kind in _KIND_CODES:
        out += struct.pack("<BI", _KIND_CODES[g.kind], g.vertex_count)
    else:
        # everything else (tori included) is stored as an explicit edge list
        out += struct.pack("<BII", 3, g.vertex_count, g.edge_count)
        out += g.edge_array.astype("<u4").tobytes()

    out += struct.pack(f"<{g.vertex_count}d", *state.opinions)

    stream = state.stream
    if stream is None:
        out += struct.pack("<B", 0)
    elif isinstance(stream, PoissonStream):
        out += struct.pack("<B", 1)
        seed_bytes = str(stream.seed).encode("ascii")
        out += struct.pack("<I", len(seed_bytes)) + seed_bytes
        ver, words, gauss = stream.rng.getstate()
        out += struct.pack("<II", ver, len(words))
        out += struct.pack(f"<{len(words)}I", *words)
        if gauss is None:
            out += struct.pack("<B", 0)
        else:
            out += struct.pack("<Bd", 1, gauss)
    elif isinstance(stream, ScriptedStream):
        ids = stream.edge_ids
        if ids.size and not (ids.min() >= 0 and ids.max() < 2**32):
            raise SnapshotError(f"cannot snapshot edge id {ids[(ids < 0) | (ids >= 2**32)][0]}: "
                                "a snapshot holds edge ids in [0, 2**32)")
        out += struct.pack("<BII", 2, ids.size, stream.cursor)
        out += np.rec.fromarrays((stream.times, ids, stream.ties), dtype=_RECORD).tobytes()
    else:
        raise SnapshotError(f"cannot snapshot stream of type {type(stream).__name__}")
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        self.need(size)
        vals = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return vals

    def need(self, size: int) -> None:
        if self.pos + size > len(self.data):
            raise SnapshotError("snapshot is truncated")

    def take_bytes(self, n: int) -> bytes:
        self.need(n)
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def done(self):
        if self.pos != len(self.data):
            raise SnapshotError(f"{len(self.data) - self.pos} bytes of trailing data")


def restore(data: bytes) -> SimState:
    """Rebuild a SimState from snapshot() bytes, bit for bit.

    Bytes that do not decode raise SnapshotError, whatever the fault, and
    every declared size is checked against the bytes left before anything
    of that size is built.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise SnapshotError(f"expected bytes, got {type(data).__name__}")
    try:
        return _restore(_Reader(bytes(data)))
    except SnapshotError:
        raise
    except ValueError as exc:  # a seed, generator state, rate or graph that does not decode
        raise SnapshotError(f"snapshot does not decode: {exc}") from exc


def _restore(r: _Reader) -> SimState:
    magic, version, space_code = r.take("<4sHB")
    if magic != _MAGIC:
        raise SnapshotError("not a simulation snapshot (bad magic)")
    if version != _SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version} not supported (this build reads "
            f"{_SNAPSHOT_VERSION})")
    if space_code not in _SPACE_NAMES:
        raise SnapshotError(f"unknown space code {space_code}")
    mu, theta, clock, events_applied = r.take("<dddQ")
    params = ModelParams(mu=mu, theta=theta)
    if not math.isfinite(clock):
        raise SnapshotError(f"clock {clock} is not finite")
    (has_pending,) = r.take("<B")
    pending = None
    if has_pending == 1:
        pt, pe, pk = r.take("<dIB")
        pending = Event(pt, pe, pk)
    elif has_pending != 0:
        raise SnapshotError(f"bad pending flag {has_pending}")

    kind_code, n = r.take("<BI")
    if kind_code in (0, 1):
        r.need(8 * n)  # the opinions
        g = build_path(n) if kind_code == 0 else build_ring(n)
    elif kind_code == 3:
        (m,) = r.take("<I")
        r.need(8 * m + 8 * n)  # the edges and the opinions
        g = Graph("custom", n, np.frombuffer(r.take_bytes(8 * m), dtype="<u4").reshape(m, 2))
    else:
        raise SnapshotError(f"unknown graph kind code {kind_code}")
    if pending is not None:
        try:
            _check_event(g.edge_count, clock, pending.time, pending.edge_id, pending.tie)
        except ValueError as exc:
            raise SnapshotError(f"pending event {pending}: {exc}") from None

    # checked as an explicit start is
    space = _SPACE_NAMES[space_code]
    values = np.frombuffer(r.take_bytes(8 * n), dtype="<f8")
    _check_chart(values, "explicit value", space)
    opinions = values.tolist()

    (stream_code,) = r.take("<B")
    if stream_code == 0:
        stream = None
    elif stream_code == 1:
        (seed_len,) = r.take("<I")
        seed = int(r.take_bytes(seed_len).decode("ascii"))
        ver, nwords = r.take("<II")
        words = r.take(f"<{nwords}I")
        (has_gauss,) = r.take("<B")
        gauss = r.take("<d")[0] if has_gauss else None
        stream = PoissonStream(seed)
        stream.rng.setstate((ver, tuple(words), gauss))
    elif stream_code == 2:
        total, cursor = r.take("<II")
        records = np.frombuffer(r.take_bytes(_RECORD.itemsize * total), dtype=_RECORD)
        stream = ScriptedStream._from_arrays(records["time"], records["edge_id"],
                                             records["tie"], cursor)
    else:
        raise SnapshotError(f"unknown stream code {stream_code}")
    r.done()

    return SimState(graph=g, space=space, params=params,
                    opinions=opinions, clock=clock, events_applied=events_applied,
                    pending=pending, stream=stream)


def derive_seed(master: int, *parts) -> int:
    """Stable 64-bit child seed from a master seed and a label path.

    Hash-based so replicate i's streams never overlap replicate j's, and
    adding parts never perturbs sibling derivations. A master that is not
    an int (a bool included) raises TypeError, as stream seeds do.
    """
    if not isinstance(master, int) or isinstance(master, bool):
        raise TypeError(f"master seeds must be integers, got {master!r}")
    text = ":".join([str(int(master))] + [str(p) for p in parts])
    return int.from_bytes(sha256(text.encode("ascii")).digest()[:8], "big")
