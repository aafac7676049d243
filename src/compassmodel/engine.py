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

import math
import random
import struct
import time as _time
from dataclasses import dataclass
from hashlib import sha256

from . import analysis
from .opinion_space import (ModelParams, _sgn, _wrap, update_pair_compass,
                            update_pair_deffuant)
from .topology import Graph, build_path, build_ring, build_torus

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


class ScriptedStream:
    """Replays a fixed schedule of events, in order, then signals the end."""

    kind = "scripted"
    seed = None

    def __init__(self, events, cursor: int = 0):
        evs = tuple(Event(float(e.time), int(e.edge_id), int(e.tie)) if isinstance(e, Event)
                    else Event(float(e[0]), int(e[1]), int(e[2]) if len(e) > 2 else 1)
                    for e in events)
        for i in range(1, len(evs)):
            if evs[i].time <= evs[i - 1].time:
                raise ValueError(
                    f"scripted times must be strictly increasing, events {i - 1} and {i} "
                    f"have times {evs[i - 1].time} and {evs[i].time}")
        for i, e in enumerate(evs):
            if e.tie not in (1, 2):
                raise ValueError(f"event {i} has tie {e.tie!r}, must be 1 or 2")
        if not 0 <= cursor <= len(evs):
            raise ValueError(f"cursor {cursor} out of range")
        self.events = evs
        self.cursor = cursor

    def next_event(self, state: "SimState") -> Event:
        if self.cursor >= len(self.events):
            raise ScheduleExhausted
        ev = self.events[self.cursor]
        self.cursor += 1
        return ev


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


def initial_opinions(init, n: int, space: str = "circle") -> list[float]:
    """Materialize an initial profile of length n for the given space."""
    if space not in ("circle", "interval"):
        raise ValueError(f"unknown space {space!r}")

    def _check(v, what):
        if space == "circle":
            if not -1.0 < v <= 1.0:
                raise ValueError(f"{what} {v!r} outside the circle chart (-1, 1]")
        else:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{what} {v!r} outside [0, 1]")

    if isinstance(init, IidUniform):
        if not isinstance(init.seed, int) or isinstance(init.seed, bool):
            raise TypeError(f"init seeds must be integers, got {init.seed!r}")
        rng = random.Random(init.seed)
        if space == "circle":
            return [1.0 - 2.0 * rng.random() for _ in range(n)]
        return [rng.random() for _ in range(n)]
    if isinstance(init, Explicit):
        if len(init.values) != n:
            raise ValueError(f"expected {n} values, got {len(init.values)}")
        for v in init.values:
            _check(v, "explicit value")
        return list(init.values)
    if isinstance(init, Constant):
        v = float(init.value)
        _check(v, "constant value")
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
    converges exactly at the budget still counts as converged. It is exact:
    it stops exactly when the left-to-right sum of the edge distances is
    below w_below. On a graph with more than 2 * max_degree *
    w_check_interval edges it costs O(degree) per event instead of O(edges)
    per test.
    """

    max_events: int | None = None
    max_time: float | None = None
    w_below: float | None = None
    w_check_interval: int = 100

    def __post_init__(self):
        if self.max_events is None and self.max_time is None and self.w_below is None:
            raise ValueError("a stop rule needs max_events, max_time, or w_below")
        if self.max_events is not None and self.max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {self.max_events}")
        if self.max_time is not None and not self.max_time >= 0.0:
            raise ValueError(f"max_time must be >= 0, got {self.max_time}")
        if self.w_below is not None and not self.w_below > 0.0:
            raise ValueError(f"w_below must be > 0, got {self.w_below}")
        if self.w_check_interval < 1:
            raise ValueError(f"w_check_interval must be >= 1, got {self.w_check_interval}")


def apply_event(state: SimState, ev: Event) -> None:
    """Apply one event to the state: one pair update, clock forward.

    Only the event edge's endpoints may change. Gated events (pairs beyond
    the confidence bound) still advance the clock and the event count.
    """
    if not 0 <= ev.edge_id < state.graph.edge_count:
        raise ValueError(f"edge id {ev.edge_id} out of range")
    if ev.time < state.clock:
        raise ValueError(f"event at {ev.time} is earlier than the clock {state.clock}")
    a, b = state.graph.edges[ev.edge_id]
    op = state.opinions
    if state.space == "circle":
        op[a], op[b] = update_pair_compass(op[a], op[b], state.params, ev.tie)
    else:
        op[a], op[b] = update_pair_deffuant(op[a], op[b], state.params)
    state.clock = ev.time
    state.events_applied += 1


def _total_w(state: SimState) -> float:
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


class _WTest:
    """The w_below stop test; every answer is `_total_w(state) < w_below`.

    On a graph with more edges than the events between two tests can touch
    (m > 2 * max_degree * w_check_interval) and opinions in [-1, 1] ([0, 1]
    on the interval), the loop appends each event's edge id to `touched`; a
    test updates the edge distances d (computed as `_total_w` does) around
    those edges and their running sum `est`, and calls `_total_w` only when
    `est` is within its error bound of w_below.
    """

    def __init__(self, state: SimState, stop: StopRule):
        g = state.graph
        self.state = state
        self.w_below = stop.w_below
        self.touched: list[int] = []
        lo = -1.0 if state.space == "circle" else 0.0
        self.tracked = (g.edge_count > 2 * g.max_degree * stop.w_check_interval
                        and all(lo <= x <= 1.0 for x in state.opinions))
        if self.tracked:
            op = state.opinions
            self.d = [abs(op[a] - op[b]) for a, b in g.edges]
            if state.space == "circle":
                self.d = [x if x <= 1.0 else 2.0 - x for x in self.d]
            self._sync()

    def _sync(self) -> None:
        self.est = self.w_max = math.fsum(self.d)
        self.updates = 0

    def below(self) -> bool:
        state = self.state
        if not self.tracked:
            return _total_w(state) < self.w_below
        g = state.graph
        edges, incident, op, d = g.edges, g.incident_edges, state.opinions, self.d
        circle = state.space == "circle"
        acc = 0.0
        for e in self.touched:
            for v in edges[e]:
                for f in incident[v]:
                    a, b = edges[f]
                    x = abs(op[a] - op[b])
                    if circle and x > 1.0:
                        x = 2.0 - x
                    acc += x - d[f]
                    d[f] = x
        self.est += acc
        self.updates += 2 * g.max_degree * len(self.touched)
        self.touched.clear()
        m = g.edge_count
        if self.updates >= m:
            self._sync()
        elif self.est > self.w_max:
            self.w_max = self.est
        # Error bound, with u = 2**-53, S the exact sum of d (all d >= 0 on
        # these opinions), M the largest est since the last fsum re-sync and
        # k >= the edge updates since then. The re-sync rounds by u*M. Each
        # update rounds x - d[f] by u*M and acc + (x - d[f]) by 2u*M, since
        # acc's partial sums are a mix of old and new d minus the old ones.
        # est + acc rounds by u*M per test, at most one per 2 updates, so
        # |est - S| <= (4k + 1)u*M. `_total_w` sums the same d left to right
        # (|T - S| <= (m - 1)u*S) and est - bound rounds by u*M, so the
        # bound must reach (m + 4k + 1)u*M. The spare u*M and 1.2e-16 > u
        # cover second-order terms for m < 1e13 and M's error as a bound on S.
        bound = (m + 4 * self.updates + 2) * 1.2e-16 * self.w_max
        if self.est - bound > self.w_below:
            return False
        return _total_w(state) < self.w_below


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
    """
    if stream is not None:
        state.stream = stream
    stream = state.stream
    if stream is None:
        raise ValueError("no event stream attached to the state")
    if stop is None:
        if not isinstance(stream, ScriptedStream):
            raise ValueError("a stop rule is required unless the stream is scripted")
        stop = StopRule(max_events=len(stream.events) + 1)
    probes = sorted(float(p) for p in probes)
    if initial_opinions_for_limits is not None:
        initial = list(initial_opinions_for_limits)
    elif state.events_applied == 0:
        initial = list(state.opinions)
    else:
        initial = None

    samples: list[analysis.MetricSample] = []
    t0 = _time.perf_counter()
    reason = _run_loop(state, stream, stop, probes, samples, observers)
    wall = _time.perf_counter() - t0

    g = state.graph
    final = analysis.compute_metrics(g, state.opinions, state.space,
                                     at_time=state.clock)
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


def _run_loop(state: SimState, stream, stop: StopRule, probes, samples,
              observers) -> str:
    """The event loop: either space, any stream, observers welcome.

    Poisson events are drawn inline, with the three draws of
    PoissonStream.next_event; other streams are asked for their next event,
    which gets apply_event's checks. Both rules are inlined and mirror
    update_pair_compass and update_pair_deffuant branch for branch (the
    interval rule is the circle rule's linear branch), so a run stays
    bitwise equal to stepping apply_event (a property the tests pin down).
    """
    g = state.graph
    space = state.space
    circle = space == "circle"
    op = state.opinions
    edges = g.edges
    m = len(edges)
    mu = state.params.mu
    theta = state.params.theta
    gated = theta < (1.0 if circle else math.inf)  # circle distances never exceed 1
    halfmu = mu == 0.5
    poisson = isinstance(stream, PoissonStream)
    rnd = stream.rng.random if poisson else None
    log = math.log
    compute = analysis.compute_metrics

    clock = state.clock
    count = state.events_applied
    max_events = stop.max_events if stop.max_events is not None else math.inf
    max_time = stop.max_time if stop.max_time is not None else math.inf
    interval = stop.w_check_interval
    w_test = _WTest(state, stop) if stop.w_below is not None else None
    note = w_test.touched.append if w_test and w_test.tracked else None
    # the next event count at which the W test or the budget is due
    check_at = min(count + interval if w_test else math.inf, max_events)
    # the per-event side work: the tracked W test's edge log, and observers,
    # which see each event after its update with the clock and count synced
    if observers:
        def hook(t, e, k, count):
            if note:
                note(e)
            state.clock = t
            state.events_applied = count
            ev = Event(t, e, k)
            for obs in observers:
                obs.apply_event(ev)
    else:
        hook = (lambda t, e, k, count: note(e)) if note else None
    pi = 0
    next_probe = probes[pi] if probes else math.inf
    pending = state.pending

    try:
        while True:
            if count >= check_at:
                if w_test and w_test.below():
                    reason = "w_below"
                    break
                if count >= max_events:
                    reason = "max_events"
                    break
                check_at = min(count + interval, max_events)
            if pending is None and poisson:
                t = clock - log(1.0 - rnd()) / m
                e = int(rnd() * m)
                k = 1 if rnd() < 0.5 else 2
            else:
                if pending is None:
                    state.clock = clock
                    state.events_applied = count
                    try:
                        pending = stream.next_event(state)
                    except ScheduleExhausted:
                        reason = "schedule_exhausted"
                        break
                t, e, k = pending.time, pending.edge_id, pending.tie
                pending = state.pending = None
                if not 0 <= e < m:
                    raise ValueError(f"edge id {e} out of range")
                if t < clock:
                    raise ValueError(f"event at {t} is earlier than the clock {clock}")
                if circle and k not in (1, 2):
                    raise ValueError(f"tie must be 1 or 2, got {k!r}")
            if t > max_time:
                state.pending = Event(t, e, k)
                clock = max_time
                reason = "max_time"
                break
            while t > next_probe:
                samples.append(compute(g, op, space, at_time=next_probe))
                pi += 1
                next_probe = probes[pi] if pi < len(probes) else math.inf

            a, b = edges[e]
            xu = op[a]
            xv = op[b]
            diff = xu - xv
            ad = abs(diff)
            if gated and (ad if ad <= 1.0 or not circle else 2.0 - ad) > theta:
                pass
            elif ad < 1.0 or not circle:
                if halfmu:
                    op[a] = op[b] = 0.5 * (xu + xv)
                else:
                    op[a] = xu - mu * diff
                    op[b] = xv + mu * diff
            elif ad > 1.0:
                if halfmu:
                    op[a] = op[b] = _wrap(0.5 * (xu + xv) + 1.0)
                else:
                    step = mu * (2.0 - ad)
                    op[a] = _wrap(xu + step * _sgn(xu))
                    op[b] = _wrap(xv + step * _sgn(xv))
            else:
                su = _sgn(xu)
                sv = _sgn(xv)
                if su == sv:
                    # same signs mean the gap rounded up to 1 from inside the
                    # chart; treat as the linear pair it really is
                    if halfmu:
                        op[a] = op[b] = 0.5 * (xu + xv)
                    else:
                        op[a] = xu - mu * diff
                        op[b] = xv + mu * diff
                else:
                    if su == 0.0:
                        su = -sv
                    elif sv == 0.0:
                        sv = -su
                    move = -mu if k == 1 else mu
                    op[a] = _wrap(xu + move * su)
                    op[b] = _wrap(xv + move * sv)

            clock = t
            count += 1
            if hook:
                hook(t, e, k, count)
    finally:
        state.clock = clock
        state.events_applied = count

    while next_probe <= clock or (reason == "schedule_exhausted" and pi < len(probes)):
        samples.append(compute(g, op, space, at_time=next_probe))
        pi += 1
        next_probe = probes[pi] if pi < len(probes) else math.inf
    return reason


_MAGIC = b"CMSN"
_SNAPSHOT_VERSION = 1
_SPACE_CODES = {"circle": 0, "interval": 1}
_SPACE_NAMES = {v: k for k, v in _SPACE_CODES.items()}
_KIND_CODES = {"path": 0, "ring": 1}


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
    if state.pending is not None:
        out += struct.pack("<BdIB", 1, state.pending.time,
                           state.pending.edge_id, state.pending.tie)
    else:
        out += struct.pack("<B", 0)

    g = state.graph
    if g.kind in _KIND_CODES:
        out += struct.pack("<BI", _KIND_CODES[g.kind], g.vertex_count)
    else:
        # everything else (tori included) is stored as an explicit edge list
        out += struct.pack("<BI", 3, g.vertex_count)
        out += struct.pack("<I", g.edge_count)
        for a, b in g.edges:
            out += struct.pack("<II", a, b)

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
        out += struct.pack("<B", 2)
        out += struct.pack("<II", len(stream.events), stream.cursor)
        for e in stream.events:
            out += struct.pack("<dIB", e.time, e.edge_id, e.tie)
    else:
        raise SnapshotError(f"cannot snapshot stream of type {type(stream).__name__}")
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise SnapshotError("snapshot is truncated")
        vals = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return vals

    def take_bytes(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise SnapshotError("snapshot is truncated")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def done(self):
        if self.pos != len(self.data):
            raise SnapshotError(f"{len(self.data) - self.pos} bytes of trailing data")


def restore(data: bytes) -> SimState:
    """Rebuild a SimState from snapshot() bytes, bit for bit."""
    if not isinstance(data, (bytes, bytearray)):
        raise SnapshotError(f"expected bytes, got {type(data).__name__}")
    r = _Reader(bytes(data))
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
    (has_pending,) = r.take("<B")
    pending = None
    if has_pending == 1:
        pt, pe, pk = r.take("<dIB")
        pending = Event(pt, pe, pk)
    elif has_pending != 0:
        raise SnapshotError(f"bad pending flag {has_pending}")

    kind_code, n = r.take("<BI")
    if kind_code == 0:
        g = build_path(n)
    elif kind_code == 1:
        g = build_ring(n)
    elif kind_code == 3:
        (m,) = r.take("<I")
        edges = tuple(r.take("<II") for _ in range(m))
        g = Graph("custom", n, edges)
    else:
        raise SnapshotError(f"unknown graph kind code {kind_code}")
    if pending is not None and not (pending.edge_id < g.edge_count
                                    and pending.tie in (1, 2) and pending.time >= clock):
        raise SnapshotError(
            f"pending event {pending} needs an edge id below {g.edge_count}, "
            f"tie 1 or 2 and a time not before the clock {clock}")

    opinions = list(r.take(f"<{n}d"))

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
        events = [Event(*r.take("<dIB")) for _ in range(total)]
        stream = ScriptedStream(events, cursor=cursor)
    else:
        raise SnapshotError(f"unknown stream code {stream_code}")
    r.done()

    return SimState(graph=g, space=_SPACE_NAMES[space_code],
                    params=ModelParams(mu=mu, theta=theta), opinions=opinions,
                    clock=clock, events_applied=events_applied,
                    pending=pending, stream=stream)


def derive_seed(master: int, *parts) -> int:
    """Stable 64-bit child seed from a master seed and a label path.

    Hash-based so replicate i's streams never overlap replicate j's, and
    adding parts never perturbs sibling derivations.
    """
    text = ":".join([str(int(master))] + [str(p) for p in parts])
    return int.from_bytes(sha256(text.encode("ascii")).digest()[:8], "big")
