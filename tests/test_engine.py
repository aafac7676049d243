import math
import random
import struct
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compassmodel import (Constant, Event, Explicit, IidUniform, ModelParams,
                          PoissonStream, ScheduleExhausted, ScriptedStream,
                          SimState, SnapshotError, StopRule, apply_event,
                          build_path, build_ring, build_torus, derive_seed,
                          initial_opinions, new_simulation, restore, run,
                          snapshot)
from compassmodel.engine import _total_w


class Noop:
    def apply_event(self, ev):
        pass


def fresh(graph, values, mu=0.5, theta=math.inf, space="circle", stream=None):
    return new_simulation(graph, Explicit(values), ModelParams(mu=mu, theta=theta),
                          space=space, stream=stream)


class TestPoissonStream:
    def test_three_draws_per_event_in_order(self):
        g = build_path(6)
        state = fresh(g, [0.0] * 6, stream=4242)
        raw = random.Random(4242)
        m = g.edge_count
        clock = 0.0
        for _ in range(8):
            t = clock - math.log(1.0 - raw.random()) / m
            e = int(raw.random() * m)
            k = 1 if raw.random() < 0.5 else 2
            ev = state.stream.next_event(state)
            assert (ev.time, ev.edge_id, ev.tie) == (t, e, k)
            state.clock = t
            clock = t

    def test_times_strictly_increase_and_edges_in_range(self):
        g = build_ring(7)
        state = fresh(g, [0.0] * 7, stream=1)
        last = 0.0
        for _ in range(200):
            ev = state.stream.next_event(state)
            assert ev.time > last
            assert 0 <= ev.edge_id < g.edge_count
            assert ev.tie in (1, 2)
            state.clock = ev.time
            last = ev.time

    def test_string_seed_refused(self):
        with pytest.raises(TypeError, match="integer"):
            PoissonStream("lucky")

    def test_bool_seed_refused(self):
        with pytest.raises(TypeError, match="integer"):
            PoissonStream(True)


class TestScriptedStream:
    def test_replays_in_order_then_signals_end(self):
        s = ScriptedStream([(0.5, 1), (0.9, 0, 2)])
        state = fresh(build_path(3), [0.0, 0.1, 0.2])
        ev = s.next_event(state)
        assert (ev.time, ev.edge_id, ev.tie) == (0.5, 1, 1)
        ev = s.next_event(state)
        assert (ev.time, ev.edge_id, ev.tie) == (0.9, 0, 2)
        with pytest.raises(ScheduleExhausted):
            s.next_event(state)

    def test_nonincreasing_times_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ScriptedStream([(0.5, 0), (0.5, 1)])

    def test_bad_tie_rejected(self):
        with pytest.raises(ValueError, match="tie"):
            ScriptedStream([(0.5, 0, 3)])

    def test_bad_cursor_rejected(self):
        with pytest.raises(ValueError, match="cursor"):
            ScriptedStream([(0.5, 0)], cursor=2)


class TestInitialOpinions:
    def test_uniform_circle_stays_in_chart(self):
        vals = initial_opinions(IidUniform(9), 500, "circle")
        assert len(vals) == 500
        assert all(-1.0 < v <= 1.0 for v in vals)

    def test_uniform_interval_stays_in_unit(self):
        vals = initial_opinions(IidUniform(9), 500, "interval")
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_uniform_is_seed_deterministic(self):
        a = initial_opinions(IidUniform(31), 40, "circle")
        b = initial_opinions(IidUniform(31), 40, "circle")
        assert a == b

    def test_explicit_validated(self):
        with pytest.raises(ValueError, match="outside the circle chart"):
            initial_opinions(Explicit([0.0, -1.0]), 2, "circle")
        with pytest.raises(ValueError, match="expected 3"):
            initial_opinions(Explicit([0.0, 0.5]), 3, "circle")

    def test_constant_validated(self):
        assert initial_opinions(Constant(1.0), 3, "circle") == [1.0, 1.0, 1.0]
        with pytest.raises(ValueError, match="outside"):
            initial_opinions(Constant(1.5), 3, "circle")

    def test_bool_seed_refused(self):
        with pytest.raises(TypeError, match="integer"):
            initial_opinions(IidUniform(True), 3, "circle")

    def test_unknown_space(self):
        with pytest.raises(ValueError, match="unknown space"):
            initial_opinions(Constant(0.5), 3, "sphere")


class TestApplyEvent:
    def test_midpoint_example(self):
        state = fresh(build_path(2), [0.2, 0.6], mu=0.5)
        apply_event(state, Event(1.0, 0))
        assert state.opinions == pytest.approx([0.4, 0.4], abs=1e-12)
        assert state.clock == 1.0
        assert state.events_applied == 1

    def test_cut_example_is_local(self):
        state = fresh(build_path(3), [0.9, -0.9, 0.0], mu=0.25)
        apply_event(state, Event(0.5, 0))
        assert state.opinions[0] == pytest.approx(0.95, abs=1e-12)
        assert state.opinions[1] == pytest.approx(-0.95, abs=1e-12)
        assert state.opinions[2] == 0.0

    def test_constant_profile_unchanged(self):
        state = fresh(build_ring(5), [0.3] * 5, mu=0.25)
        for i in range(20):
            apply_event(state, Event(float(i + 1), i % 5))
        assert state.opinions == [0.3] * 5

    def test_bad_edge_rejected(self):
        state = fresh(build_path(2), [0.0, 0.1])
        with pytest.raises(ValueError, match="out of range"):
            apply_event(state, Event(1.0, 5))

    def test_time_reversal_rejected(self):
        state = fresh(build_path(2), [0.0, 0.1])
        apply_event(state, Event(1.0, 0))
        with pytest.raises(ValueError, match="earlier"):
            apply_event(state, Event(0.5, 0))

    def test_gated_event_still_advances_clock(self):
        state = fresh(build_path(2), [0.0, 0.9], mu=0.5, theta=0.3)
        apply_event(state, Event(2.0, 0))
        assert state.opinions == [0.0, 0.9]
        assert state.clock == 2.0
        assert state.events_applied == 1


class TestStopRule:
    def test_needs_a_bound(self):
        with pytest.raises(ValueError, match="needs"):
            StopRule()

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="max_events"):
            StopRule(max_events=-1)
        with pytest.raises(ValueError, match="max_time"):
            StopRule(max_time=-0.5)
        with pytest.raises(ValueError, match="w_below"):
            StopRule(w_below=0.0)
        with pytest.raises(ValueError, match="w_check_interval"):
            StopRule(max_events=10, w_check_interval=0)


class TestRun:
    def test_zero_budget_returns_initial_state(self):
        state = fresh(build_path(4), [0.1, 0.2, 0.3, 0.4], stream=5)
        rec = run(state, stop=StopRule(max_events=0))
        assert rec.events_applied == 0
        assert rec.final_time == 0.0
        assert rec.final_opinions == [0.1, 0.2, 0.3, 0.4]
        assert rec.stop_reason == "max_events"

    def test_scripted_run_applies_whole_schedule(self):
        state = fresh(build_path(3), [0.2, 0.6, 0.6], mu=0.5)
        rec = run(state, stream=ScriptedStream([(1.0, 0), (2.0, 1)]))
        assert rec.events_applied == 2
        assert rec.stop_reason == "schedule_exhausted"
        assert rec.final_time == 2.0

    def test_probe_semantics_hand_computed(self):
        # events at 1.0 and 2.0 on the only edge; a probe exactly at an
        # event time sees the state after that event
        state = fresh(build_path(2), [0.2, 0.6], mu=0.5)
        rec = run(state, stream=ScriptedStream([(1.0, 0), (2.0, 0)]),
                  probes=(0.5, 1.0, 1.5, 3.0))
        times = [s.time for s in rec.samples]
        ws = [s.W for s in rec.samples]
        assert times == [0.5, 1.0, 1.5, 3.0]
        assert ws[0] == pytest.approx(0.4, abs=1e-12)
        assert ws[1] == 0.0
        assert ws[2] == 0.0
        # the schedule ran out, so the state is constant forever and the
        # trailing probe is still well defined
        assert ws[3] == 0.0

    def test_event_budget_drops_unreached_probes(self):
        state = fresh(build_path(4), [0.1, -0.5, 0.701, 0.9], stream=17)
        rec = run(state, stop=StopRule(max_events=3), probes=(1e9,))
        assert rec.samples == []

    def test_stop_reason_w_below_and_limits_filled(self):
        state = new_simulation(build_path(10), IidUniform(3), ModelParams(mu=0.5),
                               stream=77)
        rec = run(state, stop=StopRule(max_events=200_000, w_below=1e-9))
        assert rec.stop_reason == "w_below"
        assert rec.terminal["consensus"] == "strong-like"
        assert rec.terminal["L"] is not None
        assert abs(rec.terminal["K_gap"]) <= 1e-6
        assert rec.terminal["K"] == round(rec.terminal["K"])

    def test_max_time_parks_the_overshooting_event(self):
        state = fresh(build_ring(6), [0.5, -0.5, 0.25, 0.75, -0.25, 0.0],
                      mu=0.3, stream=11)
        rec = run(state, stop=StopRule(max_time=0.05))
        assert rec.stop_reason == "max_time"
        assert state.clock == 0.05
        assert state.pending is not None
        assert state.pending.time > 0.05

    def test_requires_stop_for_poisson(self):
        state = fresh(build_path(3), [0.0, 0.1, 0.2], stream=2)
        with pytest.raises(ValueError, match="stop rule"):
            run(state)

    def test_requires_a_stream(self):
        state = fresh(build_path(3), [0.0, 0.1, 0.2])
        with pytest.raises(ValueError, match="stream"):
            run(state, stop=StopRule(max_events=10))

    def test_determinism_same_seed_same_record(self):
        def go():
            state = new_simulation(build_ring(9), IidUniform(8),
                                   ModelParams(mu=0.31), stream=123)
            return run(state, stop=StopRule(max_events=4000),
                       probes=(1.0, 10.0, 100.0))

        a, b = go(), go()
        assert a.final_opinions == b.final_opinions
        assert a.final_time == b.final_time
        assert [(s.time, s.W, s.opinion_range) for s in a.samples] == \
               [(s.time, s.W, s.opinion_range) for s in b.samples]

    def test_fast_and_general_loops_agree_bitwise(self):
        def go(observers):
            state = new_simulation(build_ring(15), IidUniform(21),
                                   ModelParams(mu=0.37), stream=99)
            rec = run(state, stop=StopRule(max_events=10_000),
                      probes=(2.0, 20.0, 200.0), observers=observers)
            return state, rec

        s1, r1 = go(())
        s2, r2 = go([Noop()])
        assert s1.opinions == s2.opinions
        assert s1.clock == s2.clock
        assert [(s.time, s.W) for s in r1.samples] == \
               [(s.time, s.W) for s in r2.samples]

    def test_fast_and_general_loops_agree_on_a_tracked_w_stop(self):
        # 72 edges > 2 * 4 * 3: both loops follow W instead of summing it
        rng = random.Random(8)
        init = [0.2 * rng.random() - 0.1 for _ in range(36)]

        def go(observers):
            state = new_simulation(build_torus([6, 6]), Explicit(init),
                                   ModelParams(mu=0.37), stream=99)
            rec = run(state, stop=StopRule(max_events=100_000, w_below=1e-4,
                                           w_check_interval=3),
                      probes=(2.0, 20.0), observers=observers)
            return state, rec

        (s1, r1), (s2, r2) = go(()), go([Noop()])
        assert r1.stop_reason == r2.stop_reason == "w_below"
        assert r1.events_applied == r2.events_applied < 100_000
        assert r1.events_applied % 3 == 0
        assert (s1.opinions, s1.clock) == (s2.opinions, s2.clock)
        assert r1.samples == r2.samples
        assert _total_w(s1) < 1e-4

    def test_constant_profile_bitwise_invariant(self):
        vals = [0.7071067811865476] * 8
        state = fresh(build_ring(8), list(vals), mu=0.29, stream=5)
        run(state, stop=StopRule(max_events=5000))
        assert state.opinions == vals

    @pytest.mark.parametrize("schedules,bad,message", [
        ([[(1.0, 0), (2.0, 7)]], Event(2.0, 7), "edge id 7 out of range"),
        ([[(1.0, 0)], [(0.5, 1)]], Event(0.5, 1), "event at 0.5 is earlier than the clock 1.0"),
    ])
    @pytest.mark.parametrize("observers", [(), [Noop()]])
    @pytest.mark.parametrize("space", ["circle", "interval"])
    def test_bad_scripted_event_fails_like_apply_event(self, schedules, bad, message,
                                                       observers, space):
        ref = fresh(build_path(3), [0.2, 0.6, 0.9], space=space)
        apply_event(ref, Event(1.0, 0))
        with pytest.raises(ValueError) as expected:
            apply_event(ref, bad)

        state = fresh(build_path(3), [0.2, 0.6, 0.9], space=space)
        with pytest.raises(ValueError) as got:
            for events in schedules:
                run(state, stream=ScriptedStream(events), observers=observers)
        assert str(got.value) == str(expected.value) == message
        assert (state.opinions, state.clock, state.events_applied, state.pending) == \
            (ref.opinions, ref.clock, ref.events_applied, None)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_event_count_honors_budget(self, seed):
        state = new_simulation(build_path(5), IidUniform(seed),
                               ModelParams(mu=0.25), stream=seed)
        rec = run(state, stop=StopRule(max_events=137))
        assert rec.events_applied == 137


@st.composite
def tracked_w_cases(draw):
    """A graph whose W test is tracked, a start, rates, and a check interval."""
    if draw(st.booleans()):
        g = build_ring(draw(st.integers(9, 40)))
    else:
        g = build_torus([draw(st.integers(3, 6)), draw(st.integers(3, 6))])
    interval = draw(st.integers(1, min(6, (g.edge_count - 1) // (2 * g.max_degree))))
    space = draw(st.sampled_from(["circle", "interval"]))
    values = (st.one_of(st.sampled_from([0.0, 1.0, 0.5, -0.5]),
                        st.floats(-1.0, 1.0, exclude_min=True))
              if space == "circle" else
              st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0)))
    if draw(st.booleans()):
        # a start inside a short arc, so W can fall all the way to zero
        values = values.map(lambda v: 0.05 * v)
    init = draw(st.lists(values, min_size=g.vertex_count, max_size=g.vertex_count))
    mu = draw(st.sampled_from([0.5, 0.25]) | st.floats(0.05, 0.5))
    theta = draw(st.sampled_from([math.inf, 0.9, 0.3]))
    return g, space, init, ModelParams(mu=mu, theta=theta), interval


class TestTrackedWTest:
    """The tracked W test against `_total_w` checked after every interval."""

    @given(tracked_w_cases(), st.integers(0, 2**32), st.integers(0, 600),
           st.booleans(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_stops_where_total_w_first_falls_below(self, case, seed, budget,
                                                   observed, data):
        g, space, init, params, interval = case

        def fresh_state():
            return new_simulation(g, Explicit(init), params, space=space,
                                  stream=PoissonStream(seed))

        # the oracle: step the same trajectory one interval at a time
        state = fresh_state()
        points = []
        while state.events_applied < budget or not points:
            run(state, stop=StopRule(max_events=min(state.events_applied + interval,
                                                    budget)))
            points.append((state.events_applied, _total_w(state),
                           list(state.opinions), state.clock))
        # w_below at, just above or just below a W the tests will see
        w_seen = data.draw(st.sampled_from([w for _, w, _, _ in points if w > 0.0] or [1.0]))
        w_below = data.draw(st.sampled_from(
            [w_seen, math.nextafter(w_seen, math.inf), math.nextafter(w_seen, 0.0)]))
        hit = next((p for p in points if p[1] < w_below), None)
        events, _, opinions, clock = hit or points[-1]

        state = fresh_state()
        rec = run(state, stop=StopRule(max_events=budget, w_below=w_below,
                                       w_check_interval=interval),
                  observers=[Noop()] if observed else ())
        assert rec.stop_reason == ("w_below" if hit else "max_events")
        assert (state.events_applied, state.opinions, state.clock) == \
            (events, opinions, clock)


def bits(values):
    return [v.hex() for v in values]


class Recorder:
    """An observer that logs each event with the state it sees then."""

    def __init__(self, state):
        self.state = state
        self.seen = []

    def apply_event(self, ev):
        s = self.state
        self.seen.append((ev.time, ev.edge_id, ev.tie, s.clock, s.events_applied,
                          bits(s.opinions)))


def step_reference(state, stream, max_events, max_time, seen):
    """apply_event over the stream's events, stopping and parking as run() does."""
    ev, state.pending = state.pending, None
    while state.events_applied < max_events:
        if ev is None:
            try:
                ev = stream.next_event(state)
            except ScheduleExhausted:
                return "schedule_exhausted"
        if ev.time > max_time:
            state.pending, state.clock = ev, max_time
            return "max_time"
        apply_event(state, ev)
        seen.append((ev.time, ev.edge_id, ev.tie, state.clock, state.events_applied,
                     bits(state.opinions)))
        ev = None
    state.pending = ev
    return "max_events"


@st.composite
def loop_cases(draw):
    """A small graph and start, rates, a stream, and the legs of a run."""
    space = draw(st.sampled_from(["circle", "interval"]))
    n = draw(st.integers(3, 7))
    g = build_ring(n) if draw(st.booleans()) else build_path(n)
    values = (st.sampled_from([0.0, 1.0, 0.5, -0.5, 0.25, -0.75])
              | st.floats(-1.0, 1.0, exclude_min=True)
              if space == "circle" else
              st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0))
    init = draw(st.lists(values, min_size=n, max_size=n))
    if draw(st.booleans()):
        # an antipodal pair (or one a rounding away from it) on the first edge
        pairs = ([(0.0, 1.0), (0.5, -0.5), (-0.75, 0.25), (1.0, 1e-17), (1.0, -1e-17)]
                 if space == "circle" else [(0.0, 1.0)])
        x, y = draw(st.sampled_from(pairs))
        a, b = g.edges[0]
        init[a], init[b] = (x, y) if draw(st.booleans()) else (y, x)
    mu = draw(st.sampled_from([0.5, 0.25]) | st.floats(0.05, 0.5))
    theta = draw(st.sampled_from([math.inf, 0.9, 0.3]))
    seed = draw(st.integers(0, 2**32))
    if draw(st.booleans()):
        stream = partial(PoissonStream, seed)
    else:
        rng = random.Random(seed)
        events = [(0.1 * (i + rng.random()), rng.randrange(g.edge_count), rng.choice([1, 2]))
                  for i in range(draw(st.integers(0, 100)))]
        stream = partial(ScriptedStream, events)
    legs = draw(st.lists(st.tuples(st.integers(0, 150), st.none() | st.floats(0.0, 12.0),
                                   st.booleans()), min_size=1, max_size=3))
    return g, space, init, ModelParams(mu=mu, theta=theta), stream, legs


class TestOneLoop:
    """run() against apply_event stepped over a twin stream's events."""

    @given(loop_cases(), st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_run_matches_stepping_apply_event(self, case, observed):
        g, space, init, params, stream, legs = case
        state = new_simulation(g, Explicit(init), params, space=space, stream=stream())
        ref = new_simulation(g, Explicit(init), params, space=space)
        ref_stream = stream()
        recorder = Recorder(state)
        seen = []
        budget = 0
        for more, max_time, split in legs:
            budget += more
            rec = run(state, stop=StopRule(max_events=budget, max_time=max_time),
                      observers=[recorder] if observed else ())
            reason = step_reference(ref, ref_stream, budget,
                                    math.inf if max_time is None else max_time, seen)
            assert rec.stop_reason == reason
            assert (bits(state.opinions), state.clock, state.events_applied, state.pending) \
                == (bits(ref.opinions), ref.clock, ref.events_applied, ref.pending)
            if split:
                state = restore(snapshot(state))
                recorder.state = state
        assert recorder.seen == (seen if observed else [])

    def test_other_streams_see_a_synced_state(self):
        class Asking:
            """A stream type run() does not know, asking a Poisson stream."""

            def __init__(self, seed):
                self.inner = PoissonStream(seed)
                self.seen = []

            def next_event(self, state):
                self.seen.append((state.clock, state.events_applied))
                return self.inner.next_event(state)

        asked = new_simulation(build_ring(5), IidUniform(3), ModelParams(mu=0.3),
                               stream=Asking(8))
        run(asked, stop=StopRule(max_events=50))
        twin = new_simulation(build_ring(5), IidUniform(3), ModelParams(mu=0.3), stream=8)
        recorder = Recorder(twin)
        run(twin, stop=StopRule(max_events=50), observers=[recorder])
        assert (bits(asked.opinions), asked.clock) == (bits(twin.opinions), twin.clock)
        assert asked.stream.seen == [(0.0, 0)] + [seen[3:5] for seen in recorder.seen[:-1]]

    @pytest.mark.parametrize("space", ["circle", "interval"])
    def test_a_bad_tie_fails_like_apply_event(self, space):
        class BadTie:
            def next_event(self, state):
                if state.events_applied:
                    raise ScheduleExhausted
                return Event(1.0, 0, 9)

        def outcome(step):
            state = fresh(build_path(2), [0.2, 0.6], space=space)
            try:
                step(state)
            except ValueError as exc:
                return str(exc), state.opinions, state.events_applied
            return None, state.opinions, state.events_applied

        ref = outcome(lambda s: apply_event(s, Event(1.0, 0, 9)))
        assert ref == (("tie must be 1 or 2, got 9", [0.2, 0.6], 0) if space == "circle"
                       else (None, [0.4, 0.4], 1))
        assert outcome(lambda s: run(s, stream=BadTie(), stop=StopRule(max_events=5))) == ref

    @pytest.mark.parametrize("space,pair", [
        *[("circle", p) for p in [(0.0, 1.0), (0.5, -0.5), (-0.75, 0.25), (1.0, 1e-17),
                                  (1.0, -1e-17), (0.9, -0.9), (1.0, -0.2), (0.3, 0.1)]],
        *[("interval", p) for p in [(0.0, 1.0), (0.2, 0.9)]]])
    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("tie", [1, 2])
    def test_each_branch_matches_apply_event(self, space, pair, swap, tie):
        pair = pair[::-1] if swap else pair
        for mu in (0.5, 0.25, 0.3):
            for theta in (math.inf, 0.9, 0.3):
                state = fresh(build_path(2), pair, mu=mu, theta=theta, space=space)
                ref = fresh(build_path(2), pair, mu=mu, theta=theta, space=space)
                run(state, stream=ScriptedStream([(1.0, 0, tie)]))
                apply_event(ref, Event(1.0, 0, tie))
                assert bits(state.opinions) == bits(ref.opinions), (mu, theta)


class TestSnapshot:
    def test_round_trip_preserves_everything(self):
        state = new_simulation(build_ring(7), IidUniform(2),
                               ModelParams(mu=0.3, theta=0.8), stream=42)
        run(state, stop=StopRule(max_events=500))
        back = restore(snapshot(state))
        assert back.space == state.space
        assert back.graph.kind == state.graph.kind
        assert back.graph.edges == state.graph.edges
        assert back.opinions == state.opinions
        assert back.clock == state.clock
        assert back.events_applied == state.events_applied
        assert back.params == state.params
        assert back.stream.rng.getstate() == state.stream.rng.getstate()

    def test_resume_matches_uninterrupted_run(self):
        def straight():
            s = new_simulation(build_ring(12), IidUniform(6),
                               ModelParams(mu=0.4), stream=314)
            run(s, stop=StopRule(max_events=6000))
            return s

        s1 = straight()
        s2 = new_simulation(build_ring(12), IidUniform(6),
                            ModelParams(mu=0.4), stream=314)
        run(s2, stop=StopRule(max_events=2500))
        s2b = restore(snapshot(s2))
        run(s2b, stop=StopRule(max_events=6000))
        assert s2b.opinions == s1.opinions
        assert s2b.clock == s1.clock

    def test_max_time_pending_event_survives(self):
        def straight():
            s = fresh(build_path(6), [0.9, -0.8, 0.3, -0.1, 0.5, 0.0],
                      mu=0.3, stream=2718)
            run(s, stop=StopRule(max_events=400))
            return s

        s1 = straight()
        s2 = fresh(build_path(6), [0.9, -0.8, 0.3, -0.1, 0.5, 0.0],
                   mu=0.3, stream=2718)
        run(s2, stop=StopRule(max_time=10.0))
        assert s2.pending is not None
        s2b = restore(snapshot(s2))
        assert s2b.pending == s2.pending
        run(s2b, stop=StopRule(max_events=400))
        assert s2b.opinions == s1.opinions
        assert s2b.clock == s1.clock

    @pytest.mark.parametrize("edit", [{"edge_id": 99}, {"edge_id": 5}, {"tie": 9},
                                      {"tie": 0}, {"time": 5.0}, {"time": math.nan}])
    def test_bad_pending_event_rejected(self, edit):
        state = fresh(build_path(6), [0.9, -0.8, 0.3, -0.1, 0.5, 0.0], mu=0.3, stream=2718)
        run(state, stop=StopRule(max_time=10.0))
        blob = bytearray(snapshot(state))
        at = struct.calcsize("<4sHB") + struct.calcsize("<dddQ")
        p = state.pending
        assert struct.unpack_from("<BdIB", blob, at) == (1, p.time, p.edge_id, p.tie)
        fields = {"time": p.time, "edge_id": p.edge_id, "tie": p.tie, **edit}
        struct.pack_into("<BdIB", blob, at, 1, fields["time"], fields["edge_id"], fields["tie"])
        with pytest.raises(SnapshotError, match="pending event"):
            restore(bytes(blob))

    @pytest.mark.parametrize("observers", [(), [Noop()]])
    def test_parked_event_outlives_a_spent_budget(self, observers):
        def start():
            return fresh(build_path(6), [0.9, -0.8, 0.3, -0.1, 0.5, 0.0], mu=0.3,
                         stream=2718)

        straight = start()
        run(straight, stop=StopRule(max_events=400))
        state = start()
        run(state, stop=StopRule(max_time=10.0))
        parked = state.pending
        rec = run(state, stop=StopRule(max_events=state.events_applied), observers=observers)
        assert (rec.stop_reason, state.pending) == ("max_events", parked)
        run(state, stop=StopRule(max_events=400), observers=observers)
        assert (state.opinions, state.clock) == (straight.opinions, straight.clock)

    def test_scripted_stream_round_trip(self):
        state = fresh(build_path(3), [0.1, 0.5, -0.5])
        state.stream = ScriptedStream([(1.0, 0), (2.0, 1, 2), (3.0, 0)])
        run(state, stop=StopRule(max_events=2))
        back = restore(snapshot(state))
        assert isinstance(back.stream, ScriptedStream)
        assert back.stream.cursor == state.stream.cursor
        assert back.stream.events == state.stream.events

    def test_torus_restores_as_explicit_edges(self):
        g = build_torus([3, 3])
        state = new_simulation(g, Constant(0.25), ModelParams(mu=0.25), stream=1)
        back = restore(snapshot(state))
        assert back.graph.kind == "custom"
        assert back.graph.edges == g.edges
        assert back.graph.vertex_count == g.vertex_count

    def test_empty_input_rejected(self):
        with pytest.raises(SnapshotError):
            restore(b"")

    def test_bad_magic_rejected(self):
        state = fresh(build_path(2), [0.0, 0.5], stream=1)
        blob = bytearray(snapshot(state))
        blob[0:4] = b"NOPE"
        with pytest.raises(SnapshotError, match="magic"):
            restore(bytes(blob))

    def test_version_mismatch_rejected(self):
        state = fresh(build_path(2), [0.0, 0.5], stream=1)
        blob = bytearray(snapshot(state))
        blob[4] = 99
        with pytest.raises(SnapshotError, match="version"):
            restore(bytes(blob))

    def test_truncation_rejected(self):
        state = fresh(build_path(2), [0.0, 0.5], stream=1)
        blob = snapshot(state)
        with pytest.raises(SnapshotError, match="truncated"):
            restore(blob[: len(blob) // 2])

    def test_trailing_junk_rejected(self):
        state = fresh(build_path(2), [0.0, 0.5], stream=1)
        with pytest.raises(SnapshotError, match="trailing"):
            restore(snapshot(state) + b"\x00")

    def test_non_bytes_rejected(self):
        with pytest.raises(SnapshotError, match="bytes"):
            restore("not bytes")


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "init", 3) == derive_seed(7, "init", 3)

    def test_parts_matter(self):
        seen = {derive_seed(7, "init", i) for i in range(50)}
        seen |= {derive_seed(7, "compass", i) for i in range(50)}
        assert len(seen) == 100

    def test_fits_in_64_bits(self):
        for i in range(20):
            assert 0 <= derive_seed(1, i) < 2**64
