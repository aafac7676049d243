"""The determinism contract as one state machine.

Twin states take the same steps, one on the compiled kernel and one on the
Python loop (`_kernel._lib = False`), and must agree bit for bit after
each: the opinions, the clock, the count, the parked event, the generator's
state or the schedule's cursor, the tracker's gaps and bounds, the snapshot
bytes, and each leg's record (its JSON without `metadata`) or its error.

A step is a leg of a run: a Poisson or a scripted stream, with any of a
budget, `max_time` and a W stop, probes, and no observer, one
`DifferenceTracker`, or on the Python loop's side a plain observer that
steps its own copy by `apply_event`, checks each event against the model's
promises and takes the exact W at each test (so the kernel's leg,
unobserved, is checked against stepping `apply_event`, and a W stop
against the first test where W is below `w_below`). A W
stop's `w_below` may lie within a few ulps of the state's W, with the test
at the budget, now; a leg that ends on its budget or its W stop must have
stopped on W just when the W its record reports is below `w_below`. A
step may also be a leg that a raising probe
interrupts; or a snapshot of one side restored into the other; or a bad
scripted or parked event, which both sides must refuse alike. Hypothesis
searches sequences of these and shrinks a failure to the shortest. Run it
alone with

    PYTHONPATH=src python -m pytest tests/test_twins.py
"""

import json
import math
import random
import shutil
import sys
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from compassmodel import (DifferenceTracker, Event, Explicit, Graph, ModelParams, PoissonStream,
                          ScriptedStream, SimState, StopRule, apply_event, build_path,
                          build_ring, build_torus, new_simulation, restore, run, snapshot)
from compassmodel import _kernel, analysis, engine

# where gcc is found the kernel loads (TestKernel checks it) and must take
# every leg it can: a silent fall-back to the Python loop fails the machine
KERNEL = shutil.which("gcc") is not None
total_w = engine._total_w


class Interrupt(Exception):
    """What a probe raises to interrupt a leg."""


def distance(x, y, circle):
    """The distance of a pair: on the circle the shorter way round."""
    d = abs(x - y)
    return 2.0 - d if circle and d > 1.0 else d


def exact_w(state):
    """The model's W: `math.fsum` of the edge distances, as a record reports
    it."""
    op, circle = state.opinions, state.space == "circle"
    return math.fsum(distance(op[a], op[b], circle) for a, b in state.graph.edges)


def near(w, ulps):
    """w moved by ulps units in the last place, kept above zero."""
    for _ in range(abs(ulps)):
        w = math.nextafter(w, math.inf if ulps > 0 else 0.0)
    return max(w, 5e-324)


def bits(values):
    return [float(v).hex() for v in values]


def outcome(f, *args):
    """f's value, or its exception's type name and message."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


@st.composite
def starts(draw):
    """A ring or path of 3 to 9 vertices, some of its edges reversed, or a
    6x6 torus (a custom graph, as it restores); a space and a start, with
    edges at distance 1, a rounding off it, or 0 from signed zeros; rates;
    a seed; and a tracker's bounds, on the circle at degree 2. theta is at
    times the distance of one of the start's edges."""
    shape, space = draw(st.sampled_from([(shape, space) for space in ("circle", "interval")
                                         for shape in ("ring", "path", "torus")]))
    circle = space == "circle"
    if shape == "torus":
        g = Graph("custom", 36, build_torus([6, 6]).edge_array)
    else:
        g = (build_ring if shape == "ring" else build_path)(draw(st.integers(3, 9)))
        flips = draw(st.lists(st.booleans(), min_size=g.edge_count, max_size=g.edge_count))
        if draw(st.booleans()) and any(flips):
            g = Graph("custom", g.vertex_count,
                      [e[::-1] if flip else e for e, flip in zip(g.edges, flips)])
    special = [0.0, 1.0, 0.5, 0.25, 2.0**-53, math.nextafter(1.0, 0.0)]
    if circle:
        special += [-0.5, -0.75, -2.0**-52, math.nextafter(-1.0, 0.0)]
    values = st.sampled_from(special) | (st.floats(-1.0, 1.0, exclude_min=True) if circle
                                         else st.floats(0.0, 1.0))
    # a short arc, so that W can fall below the stops
    scale = draw(st.sampled_from([1.0, 0.05]))
    init = [scale * v for v in draw(st.lists(values, min_size=g.vertex_count,
                                             max_size=g.vertex_count))]
    pairs = [(0.0, 1.0), (1.0, 2.0**-53), (0.0, -0.0)]
    if circle:
        pairs += [(0.5, -0.5), (-0.75, 0.25), (1.0, -2.0**-52)]
    for e in draw(st.lists(st.integers(0, g.edge_count - 1), max_size=3)):
        a, b = g.edges[e]
        init[a], init[b] = draw(st.sampled_from(pairs))
    theta = draw(st.sampled_from([math.inf, 1.0, 0.9, 0.3, 0.05]))
    gaps = [d for d in (distance(init[a], init[b], circle) for a, b in g.edges) if d > 0.0]
    if gaps and draw(st.booleans()):
        theta = draw(st.sampled_from(gaps))  # an edge at the gate's boundary
    params = ModelParams(mu=draw(st.sampled_from([0.5, 0.25]) | st.floats(0.05, 0.5)),
                         theta=theta)
    tracker = None
    if circle and g.max_degree <= 2:
        tracker = dict(with_xi=draw(st.booleans()), xi_values=draw(
            st.none() | st.lists(st.floats(0.0, 2.0), min_size=g.edge_count,
                                 max_size=g.edge_count)))
    return g, space, init, params, draw(st.integers(0, 2**64)), tracker


@st.composite
def legs(draw):
    """A leg's stream, stop, probes and observer. Times are in mean waits,
    1 / edge count, after the clock (and a schedule's after a parked event);
    the budget is in events after the count; `chunk` caps a kernel call."""
    return dict(
        source=draw(st.sampled_from(["same", "poisson", "scripted"])),
        seed=draw(st.integers(0, 2**32)),
        schedule=draw(st.lists(st.tuples(st.floats(0.01, 3.0), st.integers(0, 2**16),
                                         st.sampled_from([1, 2])), max_size=40)),
        more=draw(st.integers(-5, 300) | st.sampled_from([None, 104, 105, 3000])),
        max_time=draw(st.none() | st.floats(0.0, 40.0)),
        w_below=draw(st.none() | st.sampled_from([1e-3, 1e-2, 0.5, 5.0, "near"])),
        ulps=draw(st.integers(-3, 3)),
        interval=draw(st.integers(1, 8)),
        probes=draw(st.lists(st.floats(-2.0, 40.0) | st.just(math.inf), max_size=4)),
        observer=draw(st.sampled_from([None, "tracker", "plain"])),
        chunk=draw(st.sampled_from([engine._CHUNK, 1, 3])),
    )


class Stepper:
    """A plain observer, which keeps a run off the kernel. It steps its own
    copy of the state and of the stream by `apply_event`, and checks that
    the run shows it the same events, each after the same update, and that
    each update keeps the model's promises (`promise`). Where the stop has
    a W test it takes the exact W at every count a test is due, as if no
    bound ruled out the tests after it, and notes the counts where W is
    below w_below."""

    def __init__(self, state, stream, stop):
        self.state, self.stop, self.start, self.below = state, stop, state.events_applied, []
        self.copy = SimState(state.graph, state.space, state.params, list(state.opinions),
                             state.clock, state.events_applied, state.pending)
        if isinstance(stream, PoissonStream):
            self.stream = PoissonStream(0)
            self.stream.rng.setstate(stream.rng.getstate())
        else:
            self.stream = ScriptedStream._from_arrays(stream.times, stream.edge_ids,
                                                      stream.ties, stream.cursor)

    def apply_event(self, ev):
        copy = self.copy
        want, copy.pending = copy.pending or self.stream.next_event(copy), None
        before = list(copy.opinions)
        apply_event(copy, want)
        s = self.state
        assert (ev, bits(s.opinions), s.clock, s.events_applied) == \
            (want, bits(copy.opinions), copy.clock, copy.events_applied)
        self.promise(before, *copy.graph.edges[int(want.edge_id)])
        self.test()

    def promise(self, before, a, b):
        """What the docstrings and the paper promise of an event on the edge
        (a, b), checked against the opinions before it, not a rule call:
        - only a and b changed;
        - a gated event (the pair's distance d above theta) changed nothing,
          bit for bit;
        - an ungated one took the distance to (1 - 2 mu) * d, within 2**-48.
          An end's new value carries at most three roundings and a distance
          one, each within 2**-52 on values below 2 in magnitude;
        - on the interval it kept the pair sum: exactly at mu = 1/2 above
          `update_pair_deffuant`'s underflow bound, and otherwise within the
          half ulp that each end's last rounding may move it."""
        after, circle, params = self.copy.opinions, self.copy.space == "circle", self.copy.params
        x, y, x2, y2 = before[a], before[b], after[a], after[b]
        others = list(after)
        others[a], others[b] = x, y
        assert bits(others) == bits(before)
        d = distance(x, y, circle)
        if d > params.theta:
            assert bits([x2, y2]) == bits([x, y])
            return
        assert abs(distance(x2, y2, circle) - (1.0 - 2.0 * params.mu) * d) <= 2.0**-48
        if circle:
            return
        if params.mu == 0.5 and (x + y == 0.0 or x + y >= 2.0 * sys.float_info.min):
            assert x2 + y2 == x + y
        else:
            assert abs(math.fsum([x2, y2, -x, -y])) <= 2.0**-53 * (x2 + y2) + 2.0**-1074

    def test(self):
        stop, count, start = self.stop, self.copy.events_applied, self.start
        if stop is None or stop.w_below is None:
            return
        end = math.inf if stop.max_events is None else stop.max_events
        due = count == start if end <= start else \
            count == end or (count - start) % stop.w_check_interval == 0 < count - start
        if due and exact_w(self.copy) < stop.w_below:
            self.below.append(count)


class Side:
    """One twin: its state, its tracker, and its loop (the kernel, or the
    Python loop when `python`)."""

    def __init__(self, python, state, tracker):
        self.python, self.state = python, state
        self.tracker = tracker and DifferenceTracker(state, **tracker)

    def leg(self, make_stream, stop, probes, observer, chunk, raise_at):
        """Run a leg; return its record or error, and the hex of each W sum.
        Check that the kernel took it if it could, with no scalar rule or
        tracker call (the Python loop makes a rule call per event, and
        one more per observer); that each sum was of the kernel's context
        on a kernel run; that a Poisson stream drew six words per event;
        and that the state keeps the caller's list."""
        state = self.state
        caller, count, parked = state.opinions, state.events_applied, state.pending is not None
        calls, sums, probed = [0], [], [0]
        compute = analysis.compute_metrics

        def counted(f):
            def call(*args):
                calls[0] += 1
                return f(*args)
            return call

        def traced(source):
            w = total_w(source)
            sums.append((type(source) is SimState, w.hex()))
            return w

        def probe(*args, **kwargs):
            probed[0] += 1
            if probed[0] == raise_at:
                raise Interrupt("a probe raised")
            return compute(*args, **kwargs)

        with ExitStack() as stack:
            if self.python:
                stack.enter_context(mock.patch.object(_kernel, "_lib", False))
            built = stack.enter_context(mock.patch.object(_kernel, "Chunks",
                                                          wraps=_kernel.Chunks))
            stack.enter_context(mock.patch.object(engine, "_CHUNK", chunk))
            stack.enter_context(mock.patch.object(engine, "_total_w", traced))
            stack.enter_context(mock.patch.object(analysis, "compute_metrics", probe))
            for owner, name in [(engine, "update_pair_compass"), (engine, "update_pair_deffuant"),
                                (DifferenceTracker, "apply_event")]:
                stack.enter_context(mock.patch.object(owner, name, counted(getattr(owner, name))))
            stream, before, observers = state.stream, None, []
            try:
                stream = make_stream() or stream
                if observer == "tracker":
                    observers = [self.tracker]
                elif observer == "plain" and self.python:
                    observers = [Stepper(state, stream, stop)]
                    observers[0].test()
                before = isinstance(stream, PoissonStream) and stream.rng.getstate()
                rec = run(state, stream=stream, stop=stop, probes=probes, observers=observers)
            except Exception as exc:
                out = type(exc).__name__, str(exc)
            else:
                if stop and stop.w_below and rec.stop_reason in ("max_events", "w_below"):
                    # one W: the stop's and the record's
                    assert (rec.stop_reason == "w_below") == (rec.terminal["W"] < stop.w_below)
                out = json.loads(rec.to_json(include_opinions=True))
                del out["metadata"]
                out = json.dumps(out)
                if observers and type(observers[0]) is Stepper:
                    # a W stop at the first test below w_below, and only there
                    stopped = [rec.events_applied] if rec.stop_reason == "w_below" else []
                    assert observers[0].below[:1] == stopped
        assert state.opinions is caller and type(caller) is list
        applied = state.events_applied - count
        kernel = bool(built.call_count)
        assert not (kernel and self.python)
        if not isinstance(out, tuple) or out[0] == "Interrupt":
            assert kernel == (KERNEL and not self.python)
        assert calls[0] == (0 if kernel else applied * (1 + len(observers)))
        assert {python for python, _ in sums} <= {not kernel}
        if before:
            drawn = applied + (state.pending is not None) - parked
            words = random.Random()
            words.setstate(before)
            words.getrandbits(32 * 6 * drawn)
            assert stream.rng.getstate() == words.getstate()
        return out, [w for _, w in sums]


class Twins(RuleBasedStateMachine):
    """The kernel's side and the Python loop's side of one drawn state."""

    @initialize(case=starts())
    def start(self, case):
        g, space, init, params, seed, tracker = case
        self.sides = [Side(python, new_simulation(g, Explicit(init), params, space=space,
                                                  stream=seed), tracker)
                      for python in (False, True)]

    @property
    def state(self):
        return self.sides[0].state

    def times(self, schedule, first=None):
        """A leg's schedule as events: times after the parked event or the
        clock, or from `first`, and edge ids taken modulo the edge count."""
        s = self.state
        m = s.graph.edge_count
        t = s.pending.time if s.pending else s.clock
        events = []
        for i, (wait, edge, tie) in enumerate(schedule):
            t = first if i == 0 and first is not None else t + wait / m
            events.append([t, edge % m, tie])
        return events

    def step(self, leg, raise_at=None, events=None):
        s = self.state
        m = s.graph.edge_count
        if leg["source"] == "poisson":
            def make_stream():
                return PoissonStream(leg["seed"])
        elif leg["source"] == "scripted" or events is not None:
            events = events if events is not None else self.times(leg["schedule"])

            def make_stream():
                return ScriptedStream(events)
        else:
            def make_stream():
                return None
        more, stop, w_below = leg["more"], None, leg["w_below"]
        if w_below == "near":
            # within a few ulps of W, tested at the budget, before any event
            more, w_below = min(more or 0, 0), near(exact_w(s), leg["ulps"])
        if more is None and leg["max_time"] is None and w_below is not None:
            more = 300  # W may rest above w_below: at a winding floor, or gated
        if (more, leg["max_time"], w_below) != (None, None, None):
            stop = StopRule(
                max_events=None if more is None else max(0, s.events_applied + more),
                max_time=None if leg["max_time"] is None else s.clock + leg["max_time"] / m,
                w_below=w_below, w_check_interval=leg["interval"])
        probes = [s.clock + x / m for x in leg["probes"]]
        observer = leg["observer"]
        if observer == "tracker" and self.sides[0].tracker is None:
            observer = None
        kernel, python = (side.leg(make_stream, stop, probes, observer, leg["chunk"], raise_at)
                          for side in self.sides)
        assert kernel == python
        return kernel[0]

    @rule(leg=legs())
    def run_leg(self, leg):
        self.step(leg)

    @rule(leg=legs(), at=st.integers(1, 3))
    def interrupt_leg(self, leg, at):
        # the probe that raises parks the event past it, or ends the run
        # before its terminal record
        self.step(leg, raise_at=at)

    @rule(source=st.sampled_from([0, 1]))
    def resume_across(self, source):
        data = outcome(snapshot, self.sides[source].state)
        if isinstance(data, bytes):
            other = self.sides[1 - source]
            other.state = restore(data)
            if other.tracker:
                other.tracker.state = other.state

    @rule(words=st.integers(1, 1300))
    def move_generator(self, words):
        for side in self.sides:
            if isinstance(side.state.stream, PoissonStream):
                side.state.stream.rng.getrandbits(32 * words)

    @rule(leg=legs(), at=st.integers(0, 2**16),
          fault=st.sampled_from(["edge m", "edge -1", "early", "tie 1.5"]))
    def refuse_a_scripted_event(self, leg, at, fault):
        s = self.state
        m = s.graph.edge_count
        floor = s.pending.time if s.pending else s.clock
        # first before the clock, or between the clock and the parked event
        first = s.clock - 0.5 / m
        if at % 2 and (s.clock + floor) / 2 < floor:
            first = (s.clock + floor) / 2
        events = self.times(leg["schedule"] or [(1.0, 0, 1)],
                            first=first if fault == "early" else None)
        bad = events[at % len(events)]
        if fault == "edge m":
            bad[1] = m + at % 8
        elif fault == "edge -1":
            bad[1] = -1
        elif fault == "tie 1.5":
            bad[2] = 1.5
        leg = dict(leg, source="scripted", more=None, max_time=None, w_below=None)
        assert self.step(leg, events=events)[0] == "ValueError"

    @rule(leg=legs(), wait=st.floats(0.0, 3.0), edge=st.integers(0, 2**16),
          tie=st.sampled_from([1, 2]),
          fault=st.none() | st.sampled_from(["edge m", "edge -1", "edge 1.5", "early", "inf",
                                             "nan", "tie 1.5", "tie 0"]))
    def park_an_event(self, leg, wait, edge, tie, fault):
        s = self.state
        m = s.graph.edge_count
        t, e, k = s.clock + wait / m, edge % m, tie
        if fault is None:
            # whole numbers of other types run as ints
            e, k = float(e), np.int64(k)
        elif fault.startswith("edge"):
            e = {"edge m": m, "edge -1": -1, "edge 1.5": 1.5}[fault]
        elif fault.startswith("tie"):
            k = float(fault.split()[1])
        else:
            t = {"early": s.clock - (wait + 0.01) / m, "inf": math.inf, "nan": math.nan}[fault]
        held = [side.state.pending for side in self.sides]
        for side in self.sides:
            side.state.pending = Event(t, e, k)
        out = self.step(leg)
        if fault is not None:
            assert out[0] == "ValueError"
            for side, pending in zip(self.sides, held):
                side.state.pending = pending

    @invariant()
    def agree(self):
        def seen(side):
            s, tracker = side.state, side.tracker
            stream = s.stream
            return (bits(s.opinions), s.clock.hex(), s.events_applied, s.pending,
                    stream.rng.getstate() if isinstance(stream, PoissonStream) else stream.cursor,
                    tracker and (bits(tracker.delta.values),
                                 tracker.xi and bits(tracker.xi.values)),
                    outcome(snapshot, s))

        kernel, python = map(seen, self.sides)
        assert kernel == python


TestTwins = Twins.TestCase
TestTwins.settings = settings(max_examples=150, stateful_step_count=12, deadline=None)


# Pinned sequences: the machine's steps on fixed starts, for the cases a
# search need not draw on every run (a refused event after a parked one,
# a W test before any chunk, a parked event past the first probe, a leg
# run to consensus, a snapshot resumed on the other loop). `begin` makes a
# start as `starts` draws one; `go` makes a step, whose leg names what it
# changes in LEG, in the units of `legs`.
LEG = dict(source="same", seed=0, schedule=[], more=None, max_time=None, w_below=None,
           ulps=0, interval=1, probes=[], observer=None, chunk=engine._CHUNK)
XI = dict(with_xi=True, xi_values=None)
TORUS = Graph("custom", 36, build_torus([6, 6]).edge_array)
SCRIPT = [(2.0, 0, 1), (2.0, 1, 2), (2.0, 0, 1), (2.0, 1, 1)]  # at 1, 2, 3, 4 on a 3-path


def begin(g, f, space="circle", mu=0.3, seed=9, tracker=None, theta=math.inf):
    init = [f(i) for i in range(g.vertex_count)]
    return g, space, [abs(v) for v in init] if space == "interval" else init, \
        ModelParams(mu=mu, theta=theta), seed, tracker


def go(rule="run_leg", leg=None, **kw):
    return rule, dict(kw, **({} if leg is None else {"leg": dict(LEG, **leg)}))


def L(**leg):
    return go(leg=leg)


def small(i):
    return 0.1 * math.sin(i)


def wide(i):
    return 0.9 * math.cos(2.0 * i)


RING9 = begin(build_ring(9), lambda i: 0.8 * math.sin(1.7 * i), seed=8)
PARK = L(max_time=4.5)
PINNED = {
    "budget": (begin(build_ring(36), small), [L(more=500, probes=[18.0, 108.0])]),
    "max_time": (begin(build_ring(36), small), [L(max_time=162.0, probes=[36.0])]),
    "w_below": (begin(build_ring(36), small), [L(more=10**6, w_below=1e-4, probes=[18.0])]),
    "w_below windowed": (begin(TORUS, small), [L(more=10**6, w_below=1e-4, interval=3)]),
    "max_time at a probe": (begin(build_ring(36), small),
                            [L(max_time=72.0, probes=[18.0, 36.0, 72.0])]),
    "terminal, torus": (begin(TORUS, wide, seed=23),
                        [L(more=4000, w_below=1e-9, probes=[36.0, 144.0, 2160.0])]),
    "terminal, ring to consensus": (begin(build_ring(8), small, seed=23, tracker=XI),
                                    [L(more=10**6, w_below=1e-7, probes=[0.0, 8.0],
                                       observer="tracker")]),
    "terminal, interval path": (begin(build_path(7), wide, "interval", seed=23),
                                [L(more=10**6, w_below=1e-7, probes=[1.5, 18.0])]),
    "W test at max_events=0": (RING9, [L(more=40), L(more=-40, w_below=1e-9, interval=4)]),
    "W test restored at its budget": (RING9, [L(more=40), go("resume_across", source=0),
                                              L(more=0, w_below=1e-9, interval=4)]),
    "W test below the count": (RING9, [L(more=40), L(more=-20, w_below=1e-9, interval=4)]),
    "W test after a held event": (RING9, [L(more=40), L(
        more=2000, w_below=1e-9, interval=4, probes=[0.45 * i for i in range(1, 400)])]),
    "W test in chunks of 3": (RING9, [L(more=40), L(more=2000, w_below=1e-9, interval=4,
                                                     chunk=3)]),
    "parked past a probe": (begin(build_ring(9), wide), [PARK, L(more=200,
                                                                 probes=[0.0, 1e-6, 27.0])]),
    "parked past max_time": (begin(build_ring(9), wide), [PARK, L(more=200, max_time=1e-6),
                                                          L(more=200, probes=[27.0])]),
    "a probe raises": (begin(build_ring(12), wide, seed=5), [go(
        "interrupt_leg", dict(more=5000, w_below=1e-9, interval=3, probes=[6.0, 24.0, 48.0]),
        at=2)]),
    "a probe raises, windowed": (begin(TORUS, wide, seed=5), [go(
        "interrupt_leg", dict(more=5000, w_below=1e-9, interval=3, probes=[36.0, 144.0]),
        at=2)]),
    "held scripted event taken": (begin(build_path(3), [0.2, 0.6, -0.9].__getitem__), [
        L(source="scripted", schedule=SCRIPT, max_time=5.0, probes=[3.0]), L()]),
    "W stop where W first falls below": (begin(build_ring(12), small), [
        L(more=5000, w_below=1e-3, observer="plain")]),
    "W stop at a window of 3": (begin(build_ring(12), small), [
        L(more=5000, w_below=1e-3, interval=3, observer="plain")]),
    "parked Poisson, then scripted": (begin(build_ring(9), wide), [
        PARK, L(source="scripted", schedule=SCRIPT * 3, probes=[1.0])]),
    "kernel snapshot on the Python loop": (begin(build_ring(9), wide), [
        PARK, go("resume_across", source=0), L(more=300, probes=[2.0])]),
    "Python snapshot on the kernel": (begin(build_path(9), wide), [
        PARK, go("resume_across", source=1), L(more=300, max_time=20.0)]),
    "ties at distance 1": (begin(build_ring(8), lambda i: 0.5 - i % 2), [L(more=50)]),
    # left-to-right sums 1.0 and 1.4999999999999993 of W = 1.0000000000000002
    # and 1.4999999999999991: w_below at W and an ulp above it
    "near W, its sum rounded down": (begin(build_path(4), [0.0, 1.0, 1.0 - 2.0**-53,
                                                           1.0 - 2.0**-52].__getitem__,
                                           "interval"),
                                     [L(w_below="near"), L(w_below="near", ulps=1)]),
    "near W, its sum rounded up": (begin(build_path(4), [3 * 2.0**-53, 1.0, 0.75 + 2.0**-52,
                                                         1.0].__getitem__, "interval"),
                                   [L(w_below="near", ulps=1), L(w_below="near")]),
    # on a 3-path at theta = 1/4: edge 0 through the cut at exactly theta,
    # which moves, and edge 1 at 5/8 and further, gated throughout
    "a gate at theta": (begin(build_path(3), [0.875, -0.875, -0.25].__getitem__, theta=0.25), [
        L(source="scripted", schedule=SCRIPT * 3, observer="plain")]),
}
for space in ("circle", "interval"):
    for w in (None, 1e-300):
        PINNED[f"long chunks, {space}, W test {w}"] = (
            begin(build_ring(12), wide, space), [go("move_generator", words=1247), L(more=104),
                                                 L(more=105), L(more=3000, w_below=w,
                                                                interval=105)])
for fault in ("edge m", "edge -1", "early", "tie 1.5"):
    for parked in (False, True):
        for observer in (None, "tracker"):
            PINNED[f"refused {fault}, parked {parked}, {observer}"] = (
                begin(build_path(3), [0.2, 0.6, -0.9].__getitem__, tracker=XI),
                [PARK] * parked + [go("refuse_a_scripted_event", dict(
                    schedule=SCRIPT, observer=observer, probes=[0.5, 5.0]), at=5, fault=fault)])
for fault in (None, "edge 1.5", "nan", "inf", "tie 0", "tie 1.5"):
    PINNED[f"parked {fault}"] = (begin(build_ring(9), wide), [go(
        "park_an_event", dict(more=50), wait=1.0, edge=4, tie=2, fault=fault)])


@pytest.mark.parametrize("name", PINNED)
def test_a_pinned_sequence(name):
    machine = Twins()
    machine.start(case=PINNED[name][0])
    machine.agree()
    for rule, kw in PINNED[name][1]:
        getattr(machine, rule)(**kw)
        machine.agree()
