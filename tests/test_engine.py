import array
import ctypes
import inspect
import json
import math
import os
import random
import re
import shutil
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from compassmodel import (Constant, DifferenceTracker, Event, Explicit, Graph,
                          IidUniform, ModelParams, PoissonStream, ScheduleExhausted,
                          ScriptedStream, SimState, SnapshotError, StopRule, apply_event,
                          build_path, build_ring, build_torus, derive_seed,
                          graph_from_edges, initial_opinions, new_simulation, restore, run,
                          snapshot, xi_from_values)
from compassmodel import _kernel, engine
from compassmodel.analysis import compute_metrics
from compassmodel.engine import _total_w


needs_kernel = pytest.mark.skipif(_kernel.load() is None, reason="no compiled kernel")


class Noop:
    def apply_event(self, ev):
        pass


@contextmanager
def deadline(seconds):
    """Fail the block, instead of hanging, when it runs longer than seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


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

    @pytest.mark.parametrize("events", [[(math.inf, 0, 1)], [(math.nan, 0, 1), (1.0, 1, 1)],
                                        [(0.5, 0, 1), (-math.inf, 1, 1)]])
    def test_non_finite_times_rejected(self, events):
        # an event at +inf used to hang the run; one at NaN was applied
        with deadline(2.0), pytest.raises(ValueError, match="must be finite"):
            run(new_simulation(build_path(3), Constant(0.1), stream=ScriptedStream(events)))


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

    @pytest.mark.parametrize("value", [True, False, 10.5, math.nan, math.inf, -math.inf, "10"])
    @pytest.mark.parametrize("name", ["max_events", "w_check_interval"])
    def test_counts_must_be_whole_numbers(self, name, value):
        # 10.5 used to apply 11 events, and True one
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            StopRule(**{"max_events": 10, name: value})

    def test_a_whole_float_count_is_taken_as_its_int(self):
        # JSON gives `--set compass_max_events=1e6` as a float
        stop = StopRule(max_events=1e6, w_check_interval=np.float64(2.0))
        assert (stop.max_events, stop.w_check_interval) == (1_000_000, 2)
        assert type(stop.max_events) is type(stop.w_check_interval) is int
        state = new_simulation(build_path(4), IidUniform(1), ModelParams(mu=0.25), stream=2)
        rec = run(state, stop=StopRule(max_events=1e6))
        assert (rec.stop_reason, rec.events_applied) == ("max_events", 1_000_000)


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

    def test_scripted_run_counts_its_budget_from_the_state(self):
        # 10 events already applied: the default budget is the schedule's
        # events on top of them, not in place of them
        state = fresh(build_path(3), [0.2, 0.6, 0.9], stream=4)
        run(state, stop=StopRule(max_events=10))
        stream = ScriptedStream([(state.clock + 1.0, 0), (state.clock + 2.0, 1)])
        rec = run(state, stream=stream)
        assert (rec.stop_reason, rec.events_applied, stream.cursor) == \
            ("schedule_exhausted", 12, 2)
        # and a schedule resumed past its cursor with an event parked
        state = fresh(build_path(3), [0.2, 0.6, 0.9])
        stream = ScriptedStream([(1.0, 0), (2.0, 1), (3.0, 0)])
        run(state, stream=stream, stop=StopRule(max_time=1.5))
        assert (state.events_applied, stream.cursor, state.pending) == (1, 2, Event(2.0, 1))
        rec = run(state)
        assert (rec.stop_reason, rec.events_applied, rec.final_time) == \
            ("schedule_exhausted", 3, 3.0)

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
        # 72 edges > 2 * 4 * 3: a sum of W can rule out the tests after it
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

    @pytest.mark.parametrize("bad,message", [
        (Event(2.0, 7), "edge id 7 out of range"),
        (Event(0.5, 1), "event at 0.5 is earlier than the clock 1.0"),
        (Event(2.0, 1, 9), "tie must be 1 or 2, got 9"),
    ])
    @pytest.mark.parametrize("observers", [(), [Noop()]])
    def test_bad_pending_event_fails_like_apply_event(self, bad, message, observers):
        # a Poisson run without observers takes its pending event in the kernel
        def start():
            state = fresh(build_path(3), [0.2, 0.6, 0.9], stream=3)
            apply_event(state, Event(1.0, 0))
            return state

        with pytest.raises(ValueError) as expected:
            apply_event(start(), bad)
        state = start()
        state.pending = bad
        with pytest.raises(ValueError) as got:
            run(state, stop=StopRule(max_events=5), observers=observers)
        assert str(got.value) == str(expected.value) == message
        assert (state.opinions, state.clock, state.events_applied) == \
            (start().opinions, 1.0, 1)

    def test_a_nan_event_time_is_refused_by_apply_event(self):
        state = fresh(build_path(3), [0.2, 0.6, 0.9], stream=3)
        apply_event(state, Event(1.0, 0))
        before = (list(state.opinions), state.clock, state.events_applied, state.pending)
        with pytest.raises(ValueError, match="clock"):
            apply_event(state, Event(math.nan, 0, 1))
        assert (state.opinions, state.clock, state.events_applied, state.pending) == before

    @pytest.mark.parametrize("observers", [(), [Noop()]])
    def test_a_parked_nan_event_is_refused_and_stays_parked(self, observers):
        # a Poisson run without observers takes its pending event in the kernel
        state = fresh(build_path(3), [0.2, 0.6, 0.9], stream=3)
        apply_event(state, Event(1.0, 0))
        parked = state.pending = Event(math.nan, 0, 1)
        before = (list(state.opinions), state.clock, state.events_applied)
        with pytest.raises(ValueError, match="clock"):
            run(state, stop=StopRule(max_events=5), observers=observers)
        assert (state.opinions, state.clock, state.events_applied) == before
        assert state.pending is parked

    @pytest.mark.parametrize("lib", ["kernel", "python"])
    @pytest.mark.parametrize("case", ["short opinions", "long opinions", "edgeless graph"])
    def test_malformed_inputs_are_refused_before_the_first_event(self, case, lib):
        if case == "edgeless graph":
            state = new_simulation(graph_from_edges(1, []), Constant(0.5))
        else:
            state = fresh(build_ring(5), [0.1, 0.2, 0.3, 0.4, 0.5])
            if case == "short opinions":
                state.opinions.pop()
            else:
                state.opinions.append(0.6)
        before = (list(state.opinions), state.clock, state.events_applied, state.stream)
        stream = PoissonStream(3)
        with mock.patch.object(_kernel, "_lib", _kernel.load() if lib == "kernel" else False), \
                pytest.raises(ValueError, match="opinions|at least one edge"):
            run(state, stream=stream, stop=StopRule(max_events=10))
        assert (state.opinions, state.clock, state.events_applied, state.stream) == before
        assert stream.rng.getstate() == PoissonStream(3).rng.getstate()

    @pytest.mark.parametrize("lib", ["kernel", "python"])
    @pytest.mark.parametrize("given_stream", [False, True])
    def test_a_nan_probe_is_refused_before_the_first_event(self, lib, given_stream):
        # sorted() leaves a NaN anywhere and no time is past it: the probes
        # after it used to be dropped without a word
        state = new_simulation(build_ring(10), IidUniform(1), ModelParams(mu=0.5),
                               stream=None if given_stream else 3)
        stream = PoissonStream(3) if given_stream else state.stream
        before = (list(state.opinions), state.clock, state.events_applied, state.stream,
                  state.pending, stream.rng.getstate())
        with mock.patch.object(_kernel, "_lib", _kernel.load() if lib == "kernel" else False), \
                pytest.raises(ValueError, match="NaN"):
            run(state, stream=stream if given_stream else None,
                stop=StopRule(max_events=1000), probes=[0.5, math.nan, 1.0, 2.0])
        assert (state.opinions, state.clock, state.events_applied, state.stream,
                state.pending, stream.rng.getstate()) == before

    @pytest.mark.parametrize("lib", ["kernel", "python"])
    def test_a_probe_at_infinity_is_allowed(self, lib):
        state = new_simulation(build_ring(10), IidUniform(1), ModelParams(mu=0.5), stream=3)
        with mock.patch.object(_kernel, "_lib", _kernel.load() if lib == "kernel" else False):
            rec = run(state, stop=StopRule(max_events=1000), probes=[0.5, math.inf, 1.0, 2.0])
        # beyond the final clock, like any unreached probe
        assert [s.time for s in rec.samples] == [0.5, 1.0, 2.0]
        assert rec.final_time > 2.0

    @pytest.mark.parametrize("probes", [(), (0.5, 2.0)])
    @pytest.mark.parametrize("start", ["clock", "pending"])
    def test_a_clock_at_infinity_returns(self, start, probes):
        # a state built by hand can still reach +inf; the probes then run out
        state = fresh(build_path(3), [0.1, 0.5, -0.5], mu=0.25, stream=4)
        if start == "clock":
            state.clock = math.inf
        else:
            state.pending = Event(math.inf, 0, 1)
        with deadline(2.0):
            rec = run(state, stop=StopRule(max_events=10), probes=probes)
        assert (rec.events_applied, rec.final_time, len(rec.samples)) == \
            (10, math.inf, len(probes))

    @staticmethod
    def interrupted_then_resumed(lib, raise_at, error):
        """A 12-ring run to 300 events whose second probe raises after 21
        events, resumed to 300 events; and the same run straight through.
        raise_at wraps what raises: the probes' compute_metrics, or the
        kernel's advance."""
        g = build_ring(12)
        init = [0.5 * math.cos(3 * i) for i in range(12)]
        probes = (0.5, 2.0, 4.0)

        def end(state):
            return bits(state.opinions), state.clock, state.events_applied, \
                state.stream.rng.getstate()

        with mock.patch.object(_kernel, "_lib", _kernel.load() if lib == "kernel" else False):
            whole = fresh(g, init, mu=0.3, stream=5)
            run(whole, stop=StopRule(max_events=300), probes=probes)
            state = fresh(g, init, mu=0.3, stream=5)
            with raise_at(error), pytest.raises(error):
                run(state, stop=StopRule(max_events=300), probes=probes)
            raised = (state.events_applied, state.pending)
            run(state, stop=StopRule(max_events=300))
        return raised, end(state), end(whole)

    @staticmethod
    @contextmanager
    def second_probe_raises(error):
        calls = []

        def compute(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise error
            return compute_metrics(*args, **kwargs)

        with mock.patch.object(engine.analysis, "compute_metrics", compute):
            yield

    @pytest.mark.parametrize("lib", ["kernel", "python"])
    @pytest.mark.parametrize("error", [ArithmeticError, KeyboardInterrupt])
    def test_a_run_that_raises_at_a_probe_keeps_the_drawn_event(self, lib, error):
        # the probe at 2.0 raised with the event past it drawn (three draws)
        # and not applied: it must be parked, or the resumed run skips it
        raised, got, want = self.interrupted_then_resumed(lib, self.second_probe_raises, error)
        events, pending = raised
        assert events == 21 and pending is not None and pending.time > 2.0
        assert got == want

    @needs_kernel
    def test_an_event_the_kernel_holds_comes_back_when_the_run_raises(self):
        # an interrupt between hold() and the advance that would apply the
        # held event: close() hands it back, and it is parked
        advance = _kernel.Chunks.advance

        @contextmanager
        def held_event_interrupted(error):
            def interrupted(self, *args):
                if self.ctx.drawn:
                    raise error
                return advance(self, *args)

            with mock.patch.object(_kernel.Chunks, "advance", interrupted):
                yield

        raised, got, want = self.interrupted_then_resumed("kernel", held_event_interrupted,
                                                          KeyboardInterrupt)
        events, pending = raised
        assert pending is not None and pending.time > 0.5
        assert got == want

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


LOOPS = ["kernel", "python"]


def loop_lib(loop):
    """The kernel library for the kernel loop (skipping when it does not
    load), False for the Python loop."""
    if loop == "python":
        return False
    lib = _kernel.load()
    if lib is None:
        pytest.skip("no compiled kernel")
    return lib


def summed_run(state, stop, probes=()):
    """run(), with the hex of every full W sum."""
    seen, patch = traced_total_w()
    with patch:
        rec = run(state, stop=stop, probes=probes)
    return rec, [got for _, got, _ in seen]


def first_below(state, interval, w_below):
    """Step the state one interval at a time, without a W stop, to the
    first count whose sum of W is below w_below."""
    while True:
        run(state, stop=StopRule(max_events=state.events_applied + interval))
        if _total_w(state) < w_below:
            return state.events_applied


def outcome_of(rec, state):
    """A run's record and end state, apart from the stop reason and timing."""
    return (rec.events_applied, rec.final_time, rec.samples, rec.terminal,
            bits(rec.final_opinions), state.clock, state.pending, state.stream.rng.getstate())


class TestWTestWindow:
    """After a full W sum T, the tests of the next (T - w_below - margin) /
    (2 * max_degree) events answer "not below" without a sum. None of them
    could have found a sum below w_below."""

    @pytest.mark.parametrize("loop", LOOPS)
    def test_a_torus_run_sums_less_and_stops_where_every_test_would(self, loop):
        g, interval, w_below, probes = build_torus([40, 40]), 10, 900.0, (0.5, 1.0, 1.5)

        def fresh_state():
            return new_simulation(g, IidUniform(3), ModelParams(mu=0.25), stream=3)

        with mock.patch.object(_kernel, "_lib", loop_lib(loop)):
            # the oracle: W summed at every test, then a run to that count
            stop_at = first_below(fresh_state(), interval, w_below)
            state = fresh_state()
            want = outcome_of(run(state, stop=StopRule(max_events=stop_at), probes=probes),
                              state)
            state = fresh_state()
            rec, sums = summed_run(state, StopRule(max_events=20_000, w_below=w_below,
                                                   w_check_interval=interval), probes)
        assert rec.stop_reason == "w_below" and len(rec.samples) == 3
        assert outcome_of(rec, state) == want
        assert float.fromhex(sums[-1]) < w_below
        # W starts near 1,600 and falls by about 0.1 an event: a sum rules
        # out the tests of the next (W - 900) / 8 events
        assert len(sums) < stop_at // interval / 2

    @pytest.mark.parametrize("loop", LOOPS)
    @pytest.mark.parametrize("shape,space", [("path", "interval"), ("ring", "circle"),
                                             ("torus", "circle"), ("torus", "interval")])
    def test_a_fast_fall_stops_where_every_test_would(self, shape, space, loop):
        # far-apart neighbours everywhere: an early event takes W down by up
        # to 1 + (2 * max_degree - 2) / 2, so a window ten times too long
        # would run past the test where W first falls below w_below
        g, side = {"path": (build_path(400), 400), "ring": (build_ring(400), 400),
                   "torus": (build_torus([20, 20]), 20)}[shape]
        a, b = (0.0, 1.0) if space == "interval" else (0.5, -0.5)
        init = [a if sum(divmod(v, side)) % 2 else b for v in range(g.vertex_count)]
        interval, w_below = 2, 0.9 * g.edge_count

        def fresh_state():
            return fresh(g, init, space=space, stream=11)

        with mock.patch.object(_kernel, "_lib", loop_lib(loop)):
            stop_at = first_below(fresh_state(), interval, w_below)
            state = fresh_state()
            want = outcome_of(run(state, stop=StopRule(max_events=stop_at)), state)
            state = fresh_state()
            rec, sums = summed_run(state, StopRule(max_events=10_000, w_below=w_below,
                                                   w_check_interval=interval))
        assert rec.stop_reason == "w_below"
        assert outcome_of(rec, state) == want
        assert 1 < len(sums) < stop_at // interval

    @pytest.mark.parametrize("loop", LOOPS)
    @pytest.mark.parametrize("shape", ["path", "torus"])
    def test_a_budget_in_a_window_stops_where_every_test_would(self, shape, loop):
        # the fast fall again, with every budget up to past the first stop:
        # the test at a budget inside a window needs no sum, and one past it
        # may stop the run on W
        g, side = (build_path(400), 400) if shape == "path" else (build_torus([20, 20]), 20)
        init = [0.0 if sum(divmod(v, side)) % 2 else 1.0 for v in range(g.vertex_count)]
        interval, w_below = 3, 0.9 * g.edge_count

        def fresh_state():
            return fresh(g, init, space="interval", stream=11)

        skipped = 0
        with mock.patch.object(_kernel, "_lib", loop_lib(loop)):
            # whether W is below w_below after each event, to the first stop
            state, below = fresh_state(), [False]
            while not any(below[interval::interval]):
                run(state, stop=StopRule(max_events=state.events_applied + 1))
                below.append(_total_w(state) < w_below)
            for budget in range(len(below) + interval):
                tests = sorted({*range(interval, budget + 1, interval), budget})
                hit = next((c for c in tests if c < len(below) and below[c]), None)
                rec, sums = summed_run(fresh_state(), StopRule(
                    max_events=budget, w_below=w_below, w_check_interval=interval))
                assert (rec.stop_reason, rec.events_applied) == \
                    (("w_below", hit) if hit is not None else ("max_events", budget)), budget
                assert len(sums) <= len(tests)
                skipped += len(sums) < len(tests)
        assert skipped

    @pytest.mark.parametrize("loop", LOOPS)
    @pytest.mark.parametrize("space,bad", [
        ("circle", 7.5), ("circle", -1.0), ("circle", math.nan), ("circle", -math.inf),
        ("interval", 1.5), ("interval", -0.0001), ("interval", math.nan)])
    def test_opinions_outside_the_chart_are_refused(self, space, bad, loop):
        state = new_simulation(build_ring(12), Constant(0.25), ModelParams(), space=space,
                               stream=5)
        state.opinions[7] = bad

        def seen():
            return (bits(state.opinions), state.clock, state.events_applied, state.pending,
                    state.stream.rng.getstate())

        before = seen()
        chart = "the circle chart (-1, 1]" if space == "circle" else "[0, 1]"
        with mock.patch.object(_kernel, "_lib", loop_lib(loop)), \
                pytest.raises(ValueError, match=re.escape(f"opinion {bad!r} outside {chart}")):
            run(state, stop=StopRule(max_events=100, w_below=1e-6))
        assert seen() == before


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


@contextmanager
def kernel_calls():
    """Count the kernel's chunks; each one draws at least one event."""
    calls = []
    advance = _kernel.Chunks.advance

    def counted(self, *args):
        calls.append(args)
        return advance(self, *args)

    with mock.patch.object(_kernel.Chunks, "advance", counted):
        yield calls


@contextmanager
def rule_calls():
    """Count the scalar rule calls through the engine, the events that
    kernel chunks apply, and the events the engine holds for a chunk."""
    counts = SimpleNamespace(rules=0, chunked=0, held=0)
    advance, hold = _kernel.Chunks.advance, _kernel.Chunks.hold

    def counted(rule):
        def call(*args):
            counts.rules += 1
            return rule(*args)
        return call

    def counted_advance(self, *args):
        out = advance(self, *args)
        counts.chunked += out[0]
        return out

    def counted_hold(self, *args):
        counts.held += 1
        return hold(self, *args)

    with mock.patch.object(engine, "update_pair_compass", counted(engine.update_pair_compass)), \
            mock.patch.object(engine, "update_pair_deffuant",
                              counted(engine.update_pair_deffuant)), \
            mock.patch.object(_kernel.Chunks, "advance", counted_advance), \
            mock.patch.object(_kernel.Chunks, "hold", counted_hold):
        yield counts


class TestOneLoop:
    """run() against apply_event stepped over a twin stream's events."""

    @given(loop_cases(), st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_run_matches_stepping_apply_event(self, case, observed):
        g, space, init, params, stream, legs = case
        state = new_simulation(g, Explicit(init), params, space=space, stream=stream())
        ref = new_simulation(g, Explicit(init), params, space=space)
        ref_stream = stream()
        poisson = isinstance(ref_stream, PoissonStream)
        recorder = Recorder(state)
        seen = []
        budget = 0
        for more, max_time, split in legs:
            budget += more
            drawn_before = ref_stream.rng.getstate() if poisson else None
            with kernel_calls() as calls:
                rec = run(state, stop=StopRule(max_events=budget, max_time=max_time),
                          observers=[recorder] if observed else ())
            reason = step_reference(ref, ref_stream, budget,
                                    math.inf if max_time is None else max_time, seen)
            assert rec.stop_reason == reason
            assert (bits(state.opinions), state.clock, state.events_applied, state.pending) \
                == (bits(ref.opinions), ref.clock, ref.events_applied, ref.pending)
            if poisson:
                assert state.stream.rng.getstate() == ref_stream.rng.getstate()
            # a Poisson leg without observers that draws runs in the kernel
            drew = poisson and ref_stream.rng.getstate() != drawn_before
            assert bool(calls) == (drew and not observed and _kernel.load() is not None)
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
        *[("interval", p) for p in [(0.0, 1.0), (0.2, 0.9)]],
        ("circle", (0.625, -0.875))])  # the cut step lands on -1, which wraps to +1
    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("tie", [1, 2])
    def test_each_branch_matches_apply_event(self, space, pair, swap, tie):
        pair = pair[::-1] if swap else pair
        # a Poisson stream on one edge whose first event has this tie bit: its
        # run goes through the kernel, the scripted one through the Python loop
        seed = next(s for s in range(100) if PoissonStream(s).next_event(
            fresh(build_path(2), pair)).tie == tie)
        for mu in (0.5, 0.25, 0.3):
            for theta in (math.inf, 0.9, 0.3):
                for stream in (ScriptedStream([(1.0, 0, tie)]), PoissonStream(seed)):
                    state = fresh(build_path(2), pair, mu=mu, theta=theta, space=space)
                    ref = fresh(build_path(2), pair, mu=mu, theta=theta, space=space)
                    ev = PoissonStream(seed).next_event(ref) \
                        if isinstance(stream, PoissonStream) else Event(1.0, 0, tie)
                    run(state, stream=stream, stop=StopRule(max_events=1))
                    apply_event(ref, ev)
                    assert bits(state.opinions) == bits(ref.opinions), (mu, theta, stream)


def opinion_values(space):
    return (st.sampled_from([0.0, 1.0, 0.5, -0.5, 0.25, -0.75, math.nextafter(-1.0, 0.0)])
            | st.floats(-1.0, 1.0, exclude_min=True)
            if space == "circle" else
            st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0))


@st.composite
def twin_cases(draw):
    """A run in legs for the kernel and the Python loop: probes, time stops,
    W stops (whose sums can rule out later tests on the torus) and snapshots
    between legs."""
    space = draw(st.sampled_from(["circle", "interval"]))
    shape = draw(st.sampled_from(["ring", "path", "torus"]))
    n = draw(st.integers(3, 9))
    g = {"ring": build_ring, "path": build_path}[shape](n) if shape != "torus" \
        else build_torus([6, 6])
    values = opinion_values(space)
    if draw(st.booleans()):
        # a start inside a short arc, so W can fall below the stop levels
        values = values.map(lambda v: 0.05 * v)
    init = draw(st.lists(values, min_size=g.vertex_count, max_size=g.vertex_count))
    if space == "circle" and draw(st.booleans()):
        # an antipodal pair on the first edge, so the tie bit decides
        a, b = g.edges[0]
        init[a], init[b] = draw(st.sampled_from([(0.0, 1.0), (0.5, -0.5), (1.0, 0.0)]))
    mu = draw(st.sampled_from([0.5, 0.25]) | st.floats(0.05, 0.5))
    theta = draw(st.sampled_from([math.inf, 0.9, 0.3]))
    # up to 8 keeps the torus's 72 edges above 2 * 4 * interval, so a sum of
    # W can rule out the tests after it
    interval = draw(st.integers(1, 8))
    probes = sorted(set(draw(st.lists(st.floats(0.0, 15.0), max_size=4))))
    legs = draw(st.lists(st.tuples(st.integers(0, 400), st.none() | st.floats(0.0, 15.0),
                                   st.none() | st.sampled_from([1e-3, 1e-2, 0.5]),
                                   st.booleans()), min_size=1, max_size=3))
    return (g, space, init, ModelParams(mu=mu, theta=theta), draw(st.integers(0, 2**32)),
            interval, probes, legs)


def run_legs(case):
    g, space, init, params, seed, interval, probes, legs = case
    state = new_simulation(g, Explicit(init), params, space=space, stream=seed)
    out = []
    budget = 0
    for more, max_time, w_below, split in legs:
        budget += more
        rec = run(state, stop=StopRule(max_events=budget, max_time=max_time, w_below=w_below,
                                       w_check_interval=interval), probes=probes)
        out.append((rec.stop_reason, rec.events_applied, rec.final_time, rec.samples,
                    rec.terminal, bits(state.opinions), state.clock, state.pending,
                    state.stream.rng.getstate()))
        if split:
            state = restore(snapshot(state))
    return out


def untemper(y):
    """The MT19937 state word that tempering turns into the word y."""
    y ^= y >> 18
    y ^= (y << 15) & 0xefc60000
    x = y
    for _ in range(4):  # 7 more bits of x right on each pass
        x = y ^ ((x << 7) & 0x9d2c5680)
    y = x
    for _ in range(2):  # 11 more bits right on each pass
        x = y ^ (x >> 11)
    return x


def boundary_cases():
    """(space, index, words): the next six words of a generator at index,
    chosen at the bounds of the three draws. The tie words sit on either
    side of 2**31, where random() < 0.5 turns, each with the least and the
    greatest partner word; the wait words give u = 0 and u = 1 - 2**-53;
    the edge words pick the first edge and the last. From index 618 the
    next event makes a new block."""
    ties = [(a, b) for a in (0x7fffffff, 0x80000000) for b in (0, 0xffffffff)]
    ends = [(0, 0), (0xffffffff, 0xffffffff)]
    return [(space, index, wait + edge + tie)
            for space in ("circle", "interval") for index in (0, 618)
            for wait in ends for edge in ends for tie in ties]


def boundary_run(space, index, words):
    """Three events of a 5-ring whose generator draws the given six words
    next; both chosen edges join an antipodal pair on the circle, where the
    tie bit decides."""
    init = [1.0, 0.0, 0.4, -0.3, 0.0] if space == "circle" else [1.0, 0.0, 0.4, 0.7, 0.0]
    state = new_simulation(build_ring(5), Explicit(init), ModelParams(mu=0.3), space=space,
                           stream=1)
    rng = state.stream.rng
    version, mt, gauss = rng.getstate()
    mt = list(mt[:-1])
    mt[index:index + 6] = map(untemper, words)
    rng.setstate((version, (*mt, index), gauss))
    check = random.Random()
    check.setstate(rng.getstate())
    assert tuple(check.getrandbits(32) for _ in words) == words
    run(state, stop=StopRule(max_events=3))
    return ([v.hex() for v in state.opinions], state.clock, state.pending,
            state.events_applied, rng.getstate())


# Run in a subprocess against a build of _kernel.c given as argv[1]: twin
# runs of the build and the Python loop, at the draw boundaries too,
# cm_fsum against math.fsum, and probe metrics against the numpy path. The
# build aborts the process on undefined behaviour.
UBSAN_CHECK = """
import ctypes, math, random, sys
from unittest import mock
import numpy as np
from compassmodel import (DifferenceTracker, Explicit, Graph, ModelParams, StopRule, _kernel,
                          analysis, build_path, build_ring, build_torus, compute_metrics,
                          graph_from_edges, new_simulation, run)

lib = _kernel._open(sys.argv[1])
chunks = []
advance = _kernel.Chunks.advance

def counted(self, *args):
    chunks.append(1)
    return advance(self, *args)

def go(g, space, mu, theta, stop, probes, tracked):
    init = [0.97 * math.sin(2.3 * i + 0.4) for i in range(g.vertex_count)]
    if space == "interval":
        init = [abs(v) for v in init]
    state = new_simulation(g, Explicit(init), ModelParams(mu=mu, theta=theta), space=space,
                           stream=len(init))
    observers = [DifferenceTracker(state, with_xi=True)] if tracked else []
    rec = run(state, stop=stop, probes=probes, observers=observers)
    gaps = [[v.hex() for v in obs.delta.values + obs.xi.values] for obs in observers]
    return (rec.stop_reason, rec.events_applied, rec.final_time, rec.samples, rec.terminal,
            [v.hex() for v in state.opinions], state.clock, state.pending,
            state.stream.rng.getstate(), gaps)

cases = [
    # W test, probes: W starts far above 2 * 4 * 10, so each sum rules out
    # a window of the tests after it, and a chunk spans the window
    (build_torus([20, 20]), "circle", 0.5, math.inf,
     StopRule(max_events=20_000, w_below=0.5, w_check_interval=10), (0.5, 1.0, 2.0), False),
    # W below 2 * 4 * 100 from the start: T at every test point
    (build_torus([20, 20]), "circle", 0.3, 0.9,
     StopRule(max_events=20_000, w_below=1e-3), (0.5, 3.0), False),
    (build_ring(12), "circle", 0.3, 0.9, StopRule(max_events=3_000), (1.0,), True),
    (build_ring(9), "circle", 0.5, math.inf,
     StopRule(max_events=3_000, w_below=1e-9, w_check_interval=3), (), False),
    (build_path(7), "interval", 0.25, math.inf, StopRule(max_time=20.0), (2.0, 5.0), False),
]
for case in cases:
    with mock.patch.object(_kernel, "_lib", lib), \
            mock.patch.object(_kernel.Chunks, "advance", counted):
        got = go(*case)
    with mock.patch.object(_kernel, "_lib", False):
        want = go(*case)
    assert got == want, case
assert chunks

""" + "\n\n".join(map(inspect.getsource, (untemper, boundary_cases, boundary_run))) + """

bounds = boundary_cases()
for case in bounds:
    with mock.patch.object(_kernel, "_lib", lib):
        got = boundary_run(*case)
    with mock.patch.object(_kernel, "_lib", False):
        want = boundary_run(*case)
    assert got == want, case

rng = np.random.default_rng(3)
terms = [rng.uniform(0.0, 1.0, 10_000),
         rng.uniform(-1.0, 1.0, 5_000) * 10.0 ** rng.uniform(-150.0, 150.0, 5_000),
         rng.choice([1.0, 2.0**-53, 2.0**-54, 3 * 2.0**-54], 2_000),
         np.array([1.0, math.inf, -1.0]), np.array([sys.float_info.max] * 2), np.array([])]
for t in terms:
    ctx = _kernel._Context(d=t.ctypes.data, m=t.size)
    got = lib.cm_fsum(ctypes.addressof(ctx))
    if math.isfinite(got):
        assert got.hex() == math.fsum(t).hex()

def metrics(g, ops, gaps):
    m = compute_metrics(g, ops, delta_values=gaps)
    return [float(v).hex() for v in vars(m).values()]

tiny = 2.0 ** -537
star = graph_from_edges(7, [(0, v) if v % 2 else (v, 0) for v in range(1, 7)])
probes = [
    # opposite gaps under 2**-537 at the centre: the products one by one
    (star, [0.0, tiny, -tiny, 1e-200, -1e-200, 0.5, -0.25], None),
    (star, [0.0] * 7, [tiny, -tiny, 1e-200, -1e-200, -0.0, 0.3]),
    (Graph("custom", 1, ()), [0.4], None),  # no edges
]
for case in probes:
    with mock.patch.object(_kernel, "_lib", lib), \
            mock.patch.object(analysis, "_sign_flips", side_effect=AssertionError):
        got = metrics(*case)
    with mock.patch.object(_kernel, "_lib", False):
        want = metrics(*case)
    assert got == want, case
print("ok", len(cases), len(bounds), len(terms), len(probes))
"""


class TestKernel:
    """The compiled kernel against the Python loop it mirrors."""

    def test_the_kernel_loads_wherever_gcc_is_found(self):
        # a kernel that stops compiling must fail here, not fall back silently
        assert (_kernel.load() is not None) == (shutil.which("gcc") is not None)

    def test_the_kernel_compiles_without_warnings(self, tmp_path):
        # unused variables and shadowed names left behind by an edit fail here;
        # a full build with the kernel's flags also runs the warnings that
        # need the optimiser, such as -Wmaybe-uninitialized
        gcc = shutil.which("gcc")
        if gcc is None:
            pytest.skip("no gcc on PATH")
        done = subprocess.run([gcc, *_kernel.FLAGS, "-Wall", "-Wextra", "-Wshadow", "-Werror",
                               "-o", str(tmp_path / "_kernel.so"), str(_kernel._SOURCE), "-lm"],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_the_context_matches_struct_cm_ctx(self):
        # a field out of step with the C struct corrupts memory without an error
        source = _kernel._SOURCE.read_text()
        body = re.search(r"^struct cm_ctx \{(.*?)^\};", source, re.S | re.M).group(1)
        fields = []
        for decl in re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";")[:-1]:
            ctype, names = re.fullmatch(r"\s*(?:const\s+)?(\w+)\s+(.*?)\s*", decl, re.S).groups()
            for name in names.split(","):
                pointer = name.strip().startswith("*")
                fields.append((name.strip(" *"), "pointer" if pointer else ctype))
        kinds = {ctypes.c_void_p: "pointer", ctypes.c_int64: "int64_t", ctypes.c_double: "double"}
        assert [(name, kinds[kind]) for name, kind in _kernel._Context._fields_] == fields

    def test_the_entry_points_match_the_source(self):
        # a C function called without its restype returns garbage silently
        source = re.sub(r"/\*.*?\*/", "", _kernel._SOURCE.read_text(), flags=re.S)
        defined = re.findall(r"^(?!static\b)(\w+)\s+(\w+)\(([^)]*)\)\s*\{", source, re.M)
        restypes = {"int64_t": ctypes.c_int64, "double": ctypes.c_double, "void": None}
        assert {name: restypes[ret] for ret, name, _ in defined} == _kernel.ENTRY_POINTS
        assert {args for *_, args in defined} == {"struct cm_ctx *c"}
        lib = _kernel.load()
        if lib:
            for name, restype in _kernel.ENTRY_POINTS.items():
                assert getattr(lib, name).restype is restype
                assert getattr(lib, name).argtypes == [ctypes.c_void_p]

    @pytest.mark.parametrize("g,tracked", [(build_ring(9), True), (build_torus([6, 6]), False)],
                             ids=["ring, tracker", "torus, W test"])
    def test_the_kernel_reads_the_graph_tables_without_copies(self, g, tracked):
        if _kernel.load() is None:
            pytest.skip("no compiled kernel")
        contexts = []
        advance = _kernel.Chunks.advance

        def seen(self, *args):
            contexts.append(self.ctx)
            return advance(self, *args)

        state = new_simulation(g, IidUniform(4), ModelParams(mu=0.25), stream=6)
        observers = [DifferenceTracker(state, with_xi=True)] if tracked else []
        with mock.patch.object(_kernel.Chunks, "advance", seen):
            run(state, stop=StopRule(max_events=500, w_below=1e-9, w_check_interval=2),
                observers=observers)
        starts, ids = g.incidence
        for table in (g.edge_array, starts, ids):
            assert table.dtype == np.int64 and table.flags.c_contiguous
        assert contexts and {(c.edges, c.inc_start, c.inc_ids) for c in contexts} == \
            {(g.edge_array.ctypes.data, starts.ctypes.data, ids.ctypes.data)}

    @given(twin_cases())
    @settings(max_examples=300, deadline=None)
    def test_kernel_runs_match_the_python_loop_bitwise(self, case):
        with kernel_calls() as calls, rule_calls() as on:
            got = run_legs(case)
        with mock.patch.object(_kernel, "_lib", False), kernel_calls() as off, \
                rule_calls() as python_loop:
            want = run_legs(case)
        assert got == want
        assert off == []
        drew = got[-1][-1] != random.Random(case[4]).getstate()
        assert bool(calls) == (drew and _kernel.load() is not None)
        # the Python loop applies each event with one scalar rule call; a
        # kernel run applies every event in a chunk, the held ones (drawn
        # past probes, or parked at max_time and resumed) too
        events = got[-1][1]
        assert (python_loop.rules, python_loop.held) == (events, 0)
        if _kernel.load():
            assert (on.rules, on.chunked) == (0, events)
        else:
            assert (on.rules, on.held) == (events, 0)

    @needs_kernel
    @pytest.mark.parametrize("held", ["none", "probe", "parked"])
    @pytest.mark.parametrize("events", range(1, 8))
    def test_chunks_from_every_generator_index_match_the_python_loop(self, events, held):
        # a chunk of 1 to 7 events from each index the generator can be at,
        # fresh (index 624) or moved by 1 to 624 words: the chunks that reach
        # index 624 regenerate the state between two of their six-word draws
        g = build_ring(5)
        init = [0.9 * math.cos(2.0 * i) for i in range(5)]

        def go(lib, words):
            state = fresh(g, init, mu=0.3, stream=PoissonStream(17))
            rng = state.stream.rng
            for _ in range(words):
                rng.getrandbits(32)
            start = rng.getstate()[1][-1]
            with mock.patch.object(_kernel, "_lib", lib), kernel_calls() as calls:
                if held == "parked":
                    # the first event drawn is parked, and held by the next run
                    run(state, stop=StopRule(max_time=1e-9))
                # the first event drawn is past the probe, and held
                run(state, stop=StopRule(max_events=events),
                    probes=(1e-9,) if held == "probe" else ())
            return (start, len(calls), bits(state.opinions), state.clock, state.pending,
                    state.events_applied, rng.getstate())

        regenerated = 0
        for words in range(625):
            got, want = go(_kernel.load(), words), go(False, words)
            assert got[2:] == want[2:], words
            # every draw in the kernel: the held event's in a chunk of its own
            assert got[1] == (1 if held == "none" else 2)
            assert got[-2] == events
            regenerated += got[-1][1][-1] < got[0]
        # the starts from which the 6 * events words drawn (the held event's
        # among them) reach past index 624, and the fresh generator's twice
        assert regenerated == 6 * events + 1

    @pytest.mark.parametrize("space", ["circle", "interval"])
    @pytest.mark.parametrize("w_test", [False, True], ids=["no W test", "W test"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_long_chunks_match_the_python_loop_and_the_generator(self, space, w_test, data):
        # chunks of up to 3,000 events make several blocks each, and a
        # generator moved by 0 to 1,247 words starts them inside one
        n = data.draw(st.integers(3, 12), label="n")
        g = build_ring(n) if data.draw(st.booleans(), label="ring") else build_path(n)
        init = data.draw(st.lists(opinion_values(space), min_size=n, max_size=n), label="init")
        params = ModelParams(mu=data.draw(st.sampled_from([0.5, 0.25]) | st.floats(0.05, 0.5),
                                          label="mu"),
                             theta=data.draw(st.sampled_from([math.inf, 0.9, 0.3]),
                                             label="theta"))
        seed = data.draw(st.integers(0, 2**64), label="seed")
        words = data.draw(st.integers(0, 1247), label="words")
        # 104 events draw one block's 624 words
        sizes = st.integers(1, 3000) | st.sampled_from([1, 104, 105, 3000])
        legs = data.draw(st.lists(sizes, min_size=1, max_size=3), label="legs")
        interval = data.draw(sizes, label="interval")  # of the W test, if any

        def go():
            state = new_simulation(g, Explicit(init), params, space=space, stream=seed)
            rng = state.stream.rng
            for _ in range(words):
                rng.getrandbits(32)
            budget = 0
            for more in legs:
                budget += more
                run(state, stop=StopRule(max_events=budget, w_below=1e-300 if w_test else None,
                                         w_check_interval=interval))
            return (bits(state.opinions), state.clock, state.pending, state.events_applied,
                    rng.getstate())

        with kernel_calls() as calls:
            got = go()
        with mock.patch.object(_kernel, "_lib", False):
            want = go()
        assert got == want
        # the three draws of each event are six words of the one generator
        fresh_rng = random.Random(seed)
        for _ in range(words + 6 * got[3]):
            fresh_rng.getrandbits(32)
        assert got[-1] == fresh_rng.getstate()
        if _kernel.load() and not w_test:
            assert [limit for limit, _ in calls] == legs  # each leg is one chunk

    @pytest.mark.parametrize("case", boundary_cases(),
                             ids=lambda c: f"{c[0]}-{c[1]}-" + "-".join(f"{w:x}" for w in c[2]))
    def test_draw_boundaries_match_the_python_loop(self, case):
        with kernel_calls() as calls:
            got = boundary_run(*case)
        with mock.patch.object(_kernel, "_lib", False):
            want = boundary_run(*case)
        assert got == want
        assert got[3] == 3
        assert bool(calls) == (_kernel.load() is not None)

    def test_an_unreadable_source_falls_back_to_the_python_loop(self, tmp_path, monkeypatch):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on PATH: the build is not tried")
        g = build_ring(10)

        def go():
            state = new_simulation(g, IidUniform(3), ModelParams(mu=0.3), stream=4)
            run(state, stop=StopRule(max_events=500), probes=(1.0,))
            return bits(state.opinions), state.clock, state.stream.rng.getstate()

        monkeypatch.setattr(_kernel, "_lib", False)
        want = go()
        monkeypatch.setattr(_kernel, "_SOURCE", tmp_path / "missing" / "_kernel.c")
        monkeypatch.setattr(_kernel, "_lib", None)
        with kernel_calls() as calls, \
                pytest.warns(RuntimeWarning, match="using the Python loop"):
            got = go()
        assert _kernel.load() is None and calls == []
        assert got == want

    def test_the_kernel_runs_clean_under_ubsan(self, tmp_path):
        # undefined behaviour (an overflow, a shift past the width, an index
        # out of bounds the sanitizer sees) aborts the subprocess
        gcc = shutil.which("gcc")
        if gcc is None:
            pytest.skip("no gcc on PATH")
        lib = tmp_path / "_kernel-ubsan.so"
        built = subprocess.run([gcc, "-O1", "-ffp-contract=off", "-fsanitize=undefined",
                                "-fno-sanitize-recover=all", "-fPIC", "-shared", "-o", str(lib),
                                str(_kernel._SOURCE), "-lm"],
                               capture_output=True, text=True, timeout=120)
        if built.returncode != 0 and "ubsan" in built.stderr:
            pytest.skip(f"no libubsan to link: {built.stderr.strip()}")
        assert built.returncode == 0, built.stderr
        src = str(Path(engine.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-c", UBSAN_CHECK, str(lib)], env=env,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr[-3000:]
        assert done.stdout.split() == ["ok", "5", "64", "6", "3"]


# pairs of opinions whose distance is exactly 1 (antipodal), nextafter(1, +inf),
# nextafter(1, -inf), +0.0 from signed zeros, and 0
W_PAIRS = {"circle": [(0.5, -0.5), (0.0, 1.0), (-0.75, 0.25), (1.0, -2.0**-52),
                      (1.0, 2.0**-53), (0.0, -0.0), (-0.0, 0.0), (0.3, 0.3)],
           "interval": [(0.0, 1.0), (1.0, 2.0**-53), (0.0, -0.0), (-0.0, 0.0), (0.5, 0.5)]}


@st.composite
def total_w_cases(draw):
    """A graph (ring, path or custom, edges in any order and orientation),
    opinions with the distances where the fold and the order of the sum
    matter, and the length of a run with a W test every `interval` events."""
    space = draw(st.sampled_from(["circle", "interval"]))
    shape = draw(st.sampled_from(["ring", "path", "custom"]))
    n = draw(st.integers(3, 40))
    if shape == "custom":
        # a random tree, some chords, reversed and shuffled edges
        pairs = {frozenset((v, draw(st.integers(0, v - 1)))) for v in range(1, n)}
        for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=2 * n)):
            if a != b:
                pairs.add(frozenset((a, b)))
        edges = [tuple(p)[::draw(st.sampled_from([1, -1]))] for p in sorted(pairs, key=sorted)]
        g = Graph("custom", n, draw(st.permutations(edges)))
    else:
        g = {"ring": build_ring, "path": build_path}[shape](n)
    special = [0.0, -0.0, 1.0, 0.5, 2.0**-53, math.nextafter(1.0, 0.0)]
    if space == "circle":
        special += [-0.5, 0.25, -0.75, -2.0**-52, math.nextafter(-1.0, 0.0)]
    init = draw(st.lists(st.sampled_from(special) | opinion_values(space),
                         min_size=n, max_size=n))
    for e in draw(st.lists(st.integers(0, g.edge_count - 1), max_size=4)):
        a, b = g.edges[e]
        init[a], init[b] = draw(st.sampled_from(W_PAIRS[space]))
    mu = draw(st.sampled_from([0.5, 0.25]) | st.floats(0.05, 0.5))
    # at least m / 2 events between tests: the W test sums every edge
    interval = draw(st.integers(max(1, g.edge_count // 2), g.edge_count + 5))
    return g, space, init, mu, interval, draw(st.integers(0, 3 * interval))


def traced_total_w():
    """Wrap `engine._total_w`: each call logs the opinions' type, the sum
    it returns and the Python loop's sum of a list of the same opinions (on
    a copy of the graph, whose tuple views the loop builds)."""
    seen = []
    total_w = engine._total_w

    def traced(state):
        got = total_w(state)
        g = state.graph
        ref = total_w(SimpleNamespace(graph=Graph(g.kind, g.vertex_count, g.edge_array),
                                      space=state.space, opinions=list(state.opinions)))
        seen.append((type(state.opinions), got.hex(), ref.hex()))
        return got

    return seen, mock.patch.object(engine, "_total_w", traced)


class TestKernelOpinions:
    """A kernel run works on the kernel's own buffer, and gives the caller's
    list back."""

    @needs_kernel
    @given(total_w_cases(), st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_total_w_on_the_kernel_buffer_matches_the_python_loop(self, case, seed):
        g, space, init, mu, interval, events = case
        state = fresh(g, init, mu=mu, space=space, stream=seed)
        seen, patch = traced_total_w()
        with patch:
            # one test of the start as drawn, then tests of the profiles it reaches
            run(state, stop=StopRule(max_events=0, w_below=1e-300))
            run(state, stop=StopRule(max_events=events, w_below=1e-300,
                                     w_check_interval=interval))
        assert len(seen) >= 2
        assert {kind for kind, *_ in seen} == {_kernel.Opinions}
        assert [got for _, got, _ in seen] == [ref for *_, ref in seen]

    @needs_kernel
    @pytest.mark.parametrize("how", ["max_events", "max_time", "w_below", "w_below tracked",
                                     "max_time at a probe"])
    def test_the_caller_list_comes_back(self, how):
        init = [0.1 * math.sin(i) for i in range(36)]
        g = build_torus([6, 6]) if how == "w_below tracked" else build_ring(36)
        stop, probes = {
            "max_events": (StopRule(max_events=500), (0.5, 3.0)),
            "max_time": (StopRule(max_time=4.5), (1.0,)),
            # 36 edges: a test every 100 events sums them all
            "w_below": (StopRule(max_events=10**6, w_below=1e-4), (0.5,)),
            # 72 edges > 2 * 4 * 3: a sum can rule out the tests after it
            "w_below tracked": (StopRule(max_events=10**6, w_below=1e-4, w_check_interval=3),
                                (0.5,)),
            "max_time at a probe": (StopRule(max_time=2.0), (0.5, 1.0, 2.0)),
        }[how]

        def go(lib):
            state = fresh(g, init, mu=0.37, stream=99)
            caller = state.opinions
            with mock.patch.object(_kernel, "_lib", lib), kernel_calls() as calls:
                rec = run(state, stop=stop, probes=probes)
            assert state.opinions is caller and type(caller) is list
            return rec, calls, bits(caller), state.clock, state.pending

        rec, calls, *got = go(_kernel.load())
        want_rec, _, *want = go(False)
        assert calls and rec.stop_reason == how.split()[0]
        assert got == want
        assert rec.samples == want_rec.samples and len(rec.samples) == len(probes)

    @needs_kernel
    @pytest.mark.parametrize("tracked", [False, True])
    def test_a_probe_that_raises_leaves_its_opinions_in_the_caller_list(self, tracked):
        class Boom(Exception):
            pass

        g = build_torus([6, 6]) if tracked else build_ring(12)
        init = [0.5 * math.cos(3 * i) for i in range(g.vertex_count)]

        def go(lib):
            state = fresh(g, init, mu=0.3, stream=5)
            caller = state.opinions
            seen = []

            def compute(graph, opinions, *args, **kwargs):
                seen.append((type(opinions), bits(opinions)))
                if len(seen) == 2:
                    raise Boom
                return compute_metrics(graph, opinions, *args, **kwargs)

            with mock.patch.object(_kernel, "_lib", lib), \
                    mock.patch.object(engine.analysis, "compute_metrics", compute), \
                    pytest.raises(Boom):
                run(state, stop=StopRule(max_events=5000, w_below=1e-9, w_check_interval=3),
                    probes=(0.5, 2.0, 4.0))
            assert state.opinions is caller and type(caller) is list
            # the values as of the probe that raised
            assert bits(caller) == seen[-1][1]
            return seen, state.clock, state.events_applied, state.stream.rng.getstate()

        got, want = go(_kernel.load()), go(False)
        assert [kind for kind, _ in got[0]] == [_kernel.Opinions] * 2
        assert [kind for kind, _ in want[0]] == [list] * 2
        assert [b for _, b in got[0]] == [b for _, b in want[0]]
        assert got[1:] == want[1:]

    @needs_kernel
    @pytest.mark.parametrize("max_events,interval,w_below", [
        (1_000, 100, 1e-300), (1_050, 100, 1e-300), (0, 100, 1e-300), (5_000, 7, 1e-3)])
    @pytest.mark.parametrize("space", ["circle", "interval"])
    def test_one_total_w_call_per_w_test(self, max_events, interval, w_below, space):
        # a path of 6 has W <= 5, below any window's gate of 2 * 2 * interval:
        # every test sums W, once
        seen, patch = traced_total_w()
        g = build_path(6)
        state = new_simulation(g, IidUniform(1), ModelParams(), space=space,
                               stream=PoissonStream(2))
        with patch, kernel_calls() as calls:
            rec = run(state, stop=StopRule(max_events=max_events, w_below=w_below,
                                           w_check_interval=interval))
        events = rec.events_applied
        assert calls or max_events == 0
        tests = events // interval + (events % interval > 0 or events == 0) \
            if rec.stop_reason == "max_events" else events // interval
        assert len(seen) == tests > 0
        assert {kind for kind, *_ in seen} == {_kernel.Opinions}
        assert [got for _, got, _ in seen] == [ref for *_, ref in seen]
        # the sum reads edge_array in C, not the Python loop's tuple view
        assert not TUPLE_TABLES & set(vars(g))

    @needs_kernel
    @pytest.mark.parametrize("case", ["max_events=0", "restored at its budget",
                                      "max_events below events_applied",
                                      "after a probe's held event", "capped at _CHUNK"])
    def test_an_untracked_w_test_reads_t_from_its_chunk(self, case):
        # W <= 9 edges < 2 * 2 * 4: every test sums W in full. A test that follows
        # a chunk reads the T that chunk left; one before any chunk finds NaN
        # there, and sums in C. A stale T reads as a wrong W, and the run
        # stops, or goes on, where the Python loop does not.
        g = build_ring(9)
        init = [0.8 * math.sin(1.7 * i) for i in range(9)]
        lib = _kernel.load()
        # each run starts at 40 events
        budget = {"max_events=0": 0, "restored at its budget": 40,
                  "max_events below events_applied": 20}.get(case, 2_040)
        before_any_chunk = budget <= 40
        probes = tuple(0.05 * i for i in range(1, 400)) if "probe" in case else ()
        held_only = []
        advance = _kernel.Chunks.advance

        def noted(self, limit, next_probe):
            held_only.append(limit == 1 and self.ctx.drawn == 1)
            return advance(self, limit, next_probe)

        def go(lib):
            state = fresh(g, init, mu=0.3, stream=8)
            with mock.patch.object(_kernel, "_lib", lib):
                run(state, stop=StopRule(max_events=40))
                if case == "restored at its budget":
                    state = restore(snapshot(state))
                seen, patch = traced_total_w()
                with patch, mock.patch.object(engine, "_CHUNK", 3 if "_CHUNK" in case else
                                              engine._CHUNK), \
                        mock.patch.object(_kernel.Chunks, "advance", noted):
                    rec = run(state, stop=StopRule(max_events=budget, w_below=1e-9,
                                                   w_check_interval=4), probes=probes)
                sums = [got for _, got, _ in seen]
                assert sums == [ref for *_, ref in seen]
            return (rec.stop_reason, rec.events_applied, sums, bits(state.opinions),
                    state.clock, state.pending, state.stream.rng.getstate())

        in_c = []
        total_w_in_c = lib.cm_total_w

        def counted(address):
            in_c.append(address)
            return total_w_in_c(address)

        with mock.patch.object(lib, "cm_total_w", counted):
            got = go(lib)
        assert got == go(False)
        tests = got[2]
        if before_any_chunk:
            assert len(in_c) == len(tests) == 1
        else:
            assert in_c == [] and len(tests) > 20
        assert any(held_only) == ("probe" in case)


@st.composite
def fsum_terms(draw):
    """float64 terms for an exact sum: 0 to 1e4 of them, of mixed signs or
    one sign, spread over 300 decades, in clusters at 1, 2**-53, 2**-54 and
    3 * 2**-54 (an ulp either side, where the roundings of a running sum are
    ties), or signed zeros; or a short list hypothesis can shrink."""
    if draw(st.booleans()):
        return draw(st.lists(st.floats(-1e150, 1e150) | st.sampled_from(
            [1.0, -1.0, 2.0**-53, -2.0**-53, 2.0**-54, 3 * 2.0**-54, 0.0, -0.0]), max_size=30))
    m = draw(st.sampled_from([0, 1, 2, 3, 51_200 // 8]) | st.integers(0, 10_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    kinds = {
        "decades": rng.uniform(-1.0, 1.0, m) * 10.0 ** rng.uniform(-150.0, 150.0, m),
        "clusters": rng.choice([1.0, 2.0**-53, 2.0**-54, 3 * 2.0**-54], m)
        * rng.choice([1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53], m),
        "zeros": rng.choice([0.0, -0.0], m),
        "unit": rng.uniform(0.0, 1.0, m),
    }
    mix = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, unique=True))
    terms = np.choose(rng.integers(len(mix), size=m), [kinds[k] for k in mix])
    sign = draw(st.sampled_from(["mixed", "+", "-"]))
    if sign == "mixed":
        terms *= rng.choice([1.0, -1.0], m)
    elif sign == "-":
        terms = -terms
    return terms.tolist()


def outcome(f, *args):
    """f's value as its hex, or its exception's type and message."""
    try:
        return f(*args).hex()
    except Exception as exc:
        return type(exc), str(exc)


MAX = sys.float_info.max


class TestFsum:
    """`_kernel.fsum`, the exact W sum in C, against `math.fsum`."""

    @needs_kernel
    @given(fsum_terms())
    @example([1e-16, 1.0, 1e16])  # half-even across partials: 1e16 + 2, not 1e16
    @example([1.0, 2.0**-53, 2.0**-53])  # left to right, each tie rounds back to 1
    @example([-0.0, -0.0])
    @settings(max_examples=500, deadline=None)
    def test_the_c_sum_is_math_fsum_bit_for_bit(self, terms):
        want = math.fsum(terms).hex()
        # finite terms under 1e150 cannot overflow: the C sum answers alone
        with mock.patch("math.fsum", side_effect=AssertionError("fell back to math.fsum")):
            assert _kernel.fsum(np.array(terms, dtype=np.float64)).hex() == want
            assert _kernel.fsum(array.array("d", terms)).hex() == want

    @pytest.mark.parametrize("terms,want", [
        ([math.nan], "nan"),
        ([1.0, math.nan, -1.0], "nan"),
        ([math.inf, 1.0], "inf"),
        ([1.0, -math.inf, MAX], "-inf"),
        ([math.inf, math.nan], "nan"),
        ([math.inf, -math.inf], ValueError),
        ([-math.inf, 2.0, math.inf], ValueError),
        ([MAX, MAX], OverflowError),
        ([-MAX, 1.0, -MAX], OverflowError),
        ([MAX, -MAX, MAX], "max"),
    ])
    def test_special_terms_behave_as_under_math_fsum(self, terms, want):
        got = outcome(_kernel.fsum, np.array(terms))
        assert got == outcome(math.fsum, terms)
        if isinstance(want, type):
            assert got[0] is want
        else:
            assert got == (MAX if want == "max" else float(want)).hex()

    @staticmethod
    def torus_run(lib):
        """A 40x40 torus run with probes and a W test: its payload and the
        modules that called math.fsum."""
        callers = []
        fsum = math.fsum

        def traced_fsum(values):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return fsum(values)

        state = new_simulation(build_torus([40, 40]), IidUniform(3), ModelParams(mu=0.25),
                               stream=3)
        with mock.patch.object(_kernel, "_lib", lib), mock.patch("math.fsum", traced_fsum):
            rec = run(state, stop=StopRule(max_events=8000, w_below=1e-6, w_check_interval=10),
                      probes=(0.1, 0.5, 1.0))
        payload = json.loads(rec.to_json(include_opinions=True))
        del payload["metadata"]
        assert len(payload["samples"]) == 3
        return json.dumps(payload), callers

    @needs_kernel
    def test_a_torus_run_with_probes_sums_w_in_c(self):
        got, callers = self.torus_run(_kernel.load())
        assert callers == []
        want, callers = self.torus_run(False)
        assert got == want
        # without the kernel the same sums go to math.fsum
        assert set(callers) == {"compassmodel._kernel"}


@st.composite
def window_twin_cases(draw):
    """twin_cases on graphs with more than 2 * max_degree * w_check_interval
    edges, so a sum of W can rule out the tests after it: rings, paths and
    tori, some from alternating starts whose W is near the edge count."""
    space = draw(st.sampled_from(["circle", "interval"]))
    shape = draw(st.sampled_from(["ring", "path", "torus"]))
    if shape == "torus":
        g = build_torus([draw(st.integers(3, 7)), draw(st.integers(3, 7))])
    else:
        g = {"ring": build_ring, "path": build_path}[shape](draw(st.integers(10, 60)))
    interval = draw(st.integers(1, min(8, (g.edge_count - 1) // (2 * g.max_degree))))
    values = opinion_values(space)
    start = draw(st.sampled_from(["any", "short arc", "alternating"]))
    if start == "short arc":
        # W can fall below the stop levels
        values = values.map(lambda v: 0.05 * v)
    init = draw(st.lists(values, min_size=g.vertex_count, max_size=g.vertex_count))
    if start == "alternating":
        # far-apart values at odd and even vertices, every fifth one as
        # drawn: W starts near m
        a, b = draw(st.sampled_from([(0.0, 1.0), (0.5, -0.5), (0.9, -0.05)]
                                    if space == "circle" else [(0.0, 1.0), (0.95, 0.02)]))
        init = [x if v % 5 == 4 else a if v % 2 else b for v, x in enumerate(init)]
    mu = draw(st.sampled_from([0.5, 0.25]) | st.floats(0.05, 0.5))
    theta = draw(st.sampled_from([math.inf, 0.9, 0.3]))
    # probes over the time the legs' events take, so most fall between checks
    probes = sorted(set(draw(st.lists(st.floats(0.0, 600.0 / g.edge_count), max_size=4))))
    legs = draw(st.lists(st.tuples(st.integers(0, 400),
                                   st.none() | st.floats(0.0, 600.0 / g.edge_count),
                                   st.sampled_from([None, 1e-3, 1e-2, 0.1, 0.5, 5.0]),
                                   st.booleans()), min_size=1, max_size=3))
    return (g, space, init, ModelParams(mu=mu, theta=theta), draw(st.integers(0, 2**32)),
            interval, probes, legs)


def traced_legs(case):
    """run_legs, with the event count and the hex of every full W sum."""
    sums = []
    total_w = engine._total_w

    def traced_total_w(state):
        got = total_w(state)
        # the loop keeps its count in a local until the run ends
        sums.append((sys._getframe(1).f_locals["count"], got.hex()))
        return got

    with mock.patch.object(engine, "_total_w", traced_total_w):
        out = run_legs(case)
    return out, sums


def scheduled_tests(case, out):
    """The W tests the legs of run_legs schedule: every w_check_interval
    events of a leg with a W stop, and at a budget that lands off that grid."""
    interval, legs = case[5], case[7]
    tests, start, budget = 0, 0, 0
    for (more, _, w_below, _), (_, events, *_) in zip(legs, out):
        budget += more
        if w_below is not None:
            done = events - start
            tests += done // interval
            if events >= budget and (done % interval or done == 0):
                tests += 1
        start = events
    return tests


class TestKernelWTest:
    """The W test's sums, and the windows they rule out, on the kernel and
    on the Python loop."""

    @given(window_twin_cases())
    @settings(max_examples=200, deadline=None)
    def test_full_sums_match_the_python_loop_bitwise(self, case):
        got, sums = traced_legs(case)
        with mock.patch.object(_kernel, "_lib", False):
            want, want_sums = traced_legs(case)
        assert got == want
        assert sums == want_sums
        scheduled = scheduled_tests(case, got)
        assert len(sums) <= scheduled
        if len(sums) < scheduled:
            event("a window skipped a test")


@st.composite
def tracker_twin_cases(draw):
    """Circle runs on rings and paths observed by one DifferenceTracker, in
    legs: gated events, gaps on the cut, probes, time and W stops, and
    snapshots between legs. Some graphs reverse edges, so that couplings
    of sign -1 occur."""
    n = draw(st.integers(3, 40))
    g = build_ring(n) if draw(st.booleans()) else build_path(n)
    if draw(st.booleans()):
        flips = draw(st.lists(st.booleans(), min_size=g.edge_count, max_size=g.edge_count))
        g = Graph("custom", n, tuple(e[::-1] if f else e for e, f in zip(g.edges, flips)))
    values = opinion_values("circle")
    start = draw(st.sampled_from(["any", "short arc", "constant", "quarters"]))
    if start == "constant":
        init = [draw(values)] * n
    else:
        if start == "short arc":
            values = values.map(lambda v: 0.05 * v)
        elif start == "quarters":
            # exact gaps of 1 between neighbors, and more of them at mu = 1/2
            values = st.sampled_from([0.0, 1.0, 0.5, -0.5, 0.25, -0.75])
        init = draw(st.lists(values, min_size=n, max_size=n))
    if draw(st.booleans()):
        # an antipodal pair on the first edge: its gap sits on the cut
        a, b = g.edges[0]
        init[a], init[b] = draw(st.sampled_from([(0.0, 1.0), (0.5, -0.5), (1.0, 0.0)]))
    mu = draw(st.sampled_from([0.5, 0.25]) | st.floats(0.05, 0.5))
    theta = draw(st.sampled_from([math.inf, 1.0, 0.9, 0.3, 0.05]))
    with_xi = draw(st.booleans())
    xi_values = draw(st.none() | st.lists(st.floats(0.0, 2.0), min_size=g.edge_count,
                                          max_size=g.edge_count))
    interval = draw(st.integers(1, 8))
    horizon = 600.0 / g.edge_count
    probes = sorted(set(draw(st.lists(st.floats(0.0, horizon), max_size=4))))
    legs = draw(st.lists(st.tuples(st.integers(0, 400), st.none() | st.floats(0.0, horizon),
                                   st.sampled_from([None, 1e-3, 1e-2, 0.5]), st.booleans()),
                         min_size=1, max_size=3))
    return (g, init, ModelParams(mu=mu, theta=theta), with_xi, xi_values,
            draw(st.integers(0, 2**32)), interval, probes, legs)


def tracker_legs(case):
    """run_legs with a DifferenceTracker, carried over each restore; each
    leg also reports the tracker's gaps and bounds."""
    g, init, params, with_xi, xi_values, seed, interval, probes, legs = case
    state = new_simulation(g, Explicit(init), params, stream=seed)
    tracker = DifferenceTracker(state, with_xi=with_xi, xi_values=xi_values)
    lists = tracker.delta.values, tracker.xi and tracker.xi.values
    out = []
    budget = 0
    for more, max_time, w_below, split in legs:
        budget += more
        rec = run(state, stop=StopRule(max_events=budget, max_time=max_time, w_below=w_below,
                                       w_check_interval=interval),
                  probes=probes, observers=[tracker])
        out.append((rec.stop_reason, rec.events_applied, rec.final_time, rec.samples,
                    rec.terminal, bits(state.opinions), state.clock, state.pending,
                    state.stream.rng.getstate(), bits(tracker.delta.values),
                    tracker.xi and bits(tracker.xi.values)))
        if split:
            state = tracker.state = restore(snapshot(state))
    # the kernel writes its values back into the tracker's own lists
    assert all(a is b for a, b in zip(lists, (tracker.delta.values,
                                              tracker.xi and tracker.xi.values)))
    return out


@contextmanager
def tracker_calls():
    """Count the tracker's apply_event calls, and those gated on the tracked
    gap or taking the re-read at |gap| == 1."""
    counts = SimpleNamespace(calls=0, gated=0, cut=0)
    apply = DifferenceTracker.apply_event

    def counted(self, ev):
        gap = abs(self.delta.values[ev.edge_id])
        counts.calls += 1
        counts.gated += gap > self.state.params.theta
        counts.cut += gap == 1.0 and gap <= self.state.params.theta
        return apply(self, ev)

    with mock.patch.object(DifferenceTracker, "apply_event", counted):
        yield counts


TUPLE_TABLES = {"edges", "incident_edges", "edge_neighbors"}


class TestKernelTracker:
    """A Poisson run observed by one DifferenceTracker: the gap and bound
    updates in C against the tracker's apply_event in the Python loop."""

    @given(tracker_twin_cases())
    @settings(max_examples=300, deadline=None)
    def test_tracker_runs_match_the_python_loop_bitwise(self, case):
        with tracker_calls() as on:
            got = tracker_legs(case)
        with mock.patch.object(_kernel, "_lib", False), tracker_calls() as off:
            want = tracker_legs(case)
        assert got == want
        events = got[-1][1]
        assert off.calls == events
        assert on.calls == (0 if _kernel.load() else events)
        if off.gated:
            event("a tracker event gated on its gap")
        if off.cut:
            event("a tracker re-read at |gap| == 1")

    @pytest.mark.parametrize("tie", [1, 2])
    @pytest.mark.parametrize("via", ["parked", "past a probe"])
    def test_a_gap_on_the_cut_applied_alone(self, via, tie):
        # the first event, on the antipodal edge 0, is one the engine holds
        # for the next chunk: parked by max_time, or drawn past a probe
        g, init = build_path(3), [0.0, 1.0, 0.5]
        seed = next(s for s in range(200)
                    if PoissonStream(s).next_event(fresh(g, init)).tie == tie
                    and PoissonStream(s).next_event(fresh(g, init)).edge_id == 0)

        def legs(lib):
            state = fresh(g, init, mu=0.25, stream=seed)
            tracker = DifferenceTracker(state, with_xi=True)
            with mock.patch.object(_kernel, "_lib", lib), tracker_calls() as calls:
                if via == "parked":
                    run(state, stop=StopRule(max_events=5, max_time=0.0), observers=[tracker])
                    run(state, stop=StopRule(max_events=5), observers=[tracker])
                else:
                    run(state, stop=StopRule(max_events=5), probes=[0.0], observers=[tracker])
            return (bits(state.opinions), bits(tracker.delta.values), bits(tracker.xi.values),
                    calls.cut)

        got, want = legs(_kernel.load()), legs(False)
        assert got[:3] == want[:3]
        assert want[3] >= 1

    @pytest.mark.parametrize("misfit", ["two observers", "subclass", "xi of another graph",
                                        "short delta", "xi of another graph as long"])
    def test_a_tracker_the_kernel_cannot_take_runs_in_python(self, misfit):
        # trackers that do not fit the graph are refused before any event
        refused = misfit not in ("two observers", "subclass")

        def observed(lib):
            state = fresh(build_ring(6), [0.0, 0.3, 0.6, 0.9, -0.8, -0.4], mu=0.25, stream=5)
            start = bits(state.opinions), state.stream.rng.getstate()
            tracker = (type("Sub", (DifferenceTracker,), {}) if misfit == "subclass"
                       else DifferenceTracker)(state, with_xi=True)
            observers = [tracker]
            if misfit == "two observers":
                observers.append(Noop())
            elif misfit == "xi of another graph":
                tracker.xi = xi_from_values(build_path(9))
            elif misfit == "xi of another graph as long":
                tracker.xi = xi_from_values(build_path(7))
            elif misfit == "short delta":
                tracker.delta.values.pop()
            with mock.patch.object(_kernel, "_lib", lib), tracker_calls() as calls:
                if refused:
                    with pytest.raises(ValueError, match="one entry per edge"):
                        run(state, stop=StopRule(max_events=200), observers=observers)
                    assert (bits(state.opinions), state.stream.rng.getstate()) == start
                else:
                    run(state, stop=StopRule(max_events=200), observers=observers)
            return bits(state.opinions), tracker.delta.values, tracker.xi.values, calls.calls

        got = observed(_kernel.load())
        assert got == observed(False)
        assert got[-1] == (0 if refused else 200)

    def test_a_resumed_tracked_run_needs_no_edge_neighbors(self):
        # the kernel walks the incidence; edge_neighbors is a Python loop over
        # the edges, which a restored graph would rebuild for every leg
        if _kernel.load() is None:
            pytest.skip("no compiled kernel")
        state = new_simulation(build_ring(300), IidUniform(5), ModelParams(mu=0.25), stream=7)
        tracker = DifferenceTracker(state, with_xi=True)
        graphs = []
        for leg in range(1, 4):
            graphs.append(state.graph)
            with tracker_calls() as calls:
                run(state, stop=StopRule(max_events=1000 * leg), observers=[tracker])
            assert calls.calls == 0
            state = tracker.state = restore(snapshot(state))
        assert len({id(g) for g in graphs}) == 3
        assert not any(TUPLE_TABLES & set(vars(g)) for g in graphs)

    @pytest.mark.parametrize("case", ["untracked ring", "torus W test and probes"])
    def test_a_kernel_run_builds_no_tuple_table(self, case):
        # the kernel reads edge_array and incidence; the tuple views are
        # Python loops over the edges, built only for the Python paths
        if _kernel.load() is None:
            pytest.skip("no compiled kernel")
        if case == "untracked ring":
            state = new_simulation(build_ring(300), IidUniform(5), ModelParams(mu=0.25), stream=7)
            run(state, stop=StopRule(max_events=5000))
        else:
            state = new_simulation(build_torus([40, 40]), IidUniform(5), ModelParams(mu=0.25),
                                   stream=7)
            stop = StopRule(max_events=20_000, w_below=1e-6)
            seen, patch = traced_total_w()
            with patch:
                record = run(state, stop=stop, probes=[0.5, 1.0, 2.0])
            assert (record.stop_reason, len(record.samples)) == ("max_events", 3)
            # a window after each sum skips most of the 200 tests
            assert 0 < len(seen) < 200
        assert state.events_applied > 0
        assert not TUPLE_TABLES & set(vars(state.graph))


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

    @pytest.mark.parametrize("graph", [
        build_path(5), build_ring(6), build_torus([3, 4]),
        graph_from_edges(5, [(0, 1), (2, 1), (2, 3), (3, 0), (1, 3), (4, 3)]),
    ], ids=lambda g: g.kind)
    @pytest.mark.parametrize("max_time", [None, 0.3])
    def test_bytes_match_the_version_1_layout(self, graph, max_time):
        state = new_simulation(graph, IidUniform(2), ModelParams(mu=0.3, theta=0.9), stream=11)
        run(state, stop=StopRule(max_events=40, max_time=max_time))
        assert (state.pending is not None) == (max_time is not None)
        blob = snapshot(state)
        assert blob == snapshot_by_struct(state)
        back = restore(blob)
        assert back.graph.edges == graph.edges and snapshot(back) == blob

    @staticmethod
    def custom_blob():
        """A snapshot of a custom graph and the offset of its first edge."""
        state = fresh(graph_from_edges(4, [(0, 1), (1, 2), (3, 2)]), [0.1, 0.2, 0.3, 0.4],
                      stream=1)
        at = struct.calcsize("<4sHB") + struct.calcsize("<dddQ") + 1 + struct.calcsize("<BI")
        blob = bytearray(snapshot(state))
        assert struct.unpack_from("<I4I", blob, at) == (3, 0, 1, 1, 2)
        return blob, at + 4

    @pytest.mark.parametrize("edge,message", [((0, 4), "out of range"),
                                              ((1, 0), "duplicate edge")])
    def test_a_bad_edge_is_refused(self, edge, message):
        blob, at = self.custom_blob()
        struct.pack_into("<II", blob, at + 8, *edge)
        with pytest.raises(SnapshotError, match=message):
            restore(bytes(blob))

    def test_edge_count_checked_before_the_edges_are_read(self):
        blob, at = self.custom_blob()
        struct.pack_into("<I", blob, at - 4, 2**32 - 1)
        tracemalloc.start()
        try:
            with pytest.raises(SnapshotError, match="truncated"):
                restore(bytes(blob))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @staticmethod
    def stream_offsets(state):
        """Where the seed's bytes and the generator's index sit in a snapshot."""
        blob = snapshot(state)
        seed_bytes = str(state.stream.seed).encode("ascii")
        end_of_seed = blob.index(seed_bytes) + len(seed_bytes)
        index_at = end_of_seed + struct.calcsize("<II") + 624 * 4
        return bytearray(blob), end_of_seed - len(seed_bytes), index_at

    def test_non_ascii_seed_rejected(self):
        state = fresh(build_path(3), [0.1, 0.5, -0.5], stream=987654321)
        blob, seed_at, _ = self.stream_offsets(state)
        blob[seed_at] = 0xFF
        with pytest.raises(SnapshotError):
            restore(bytes(blob))

    def test_bad_generator_index_rejected(self):
        state = fresh(build_path(3), [0.1, 0.5, -0.5], stream=987654321)
        blob, _, index_at = self.stream_offsets(state)
        assert struct.unpack_from("<I", blob, index_at) == (state.stream.rng.getstate()[1][-1],)
        struct.pack_into("<I", blob, index_at, 9999)
        with pytest.raises(SnapshotError):
            restore(bytes(blob))

    @pytest.mark.parametrize("field,value", [(0, 0.9), (0, math.nan), (1, -1.0), (1, math.nan)])
    def test_bad_rates_rejected(self, field, value):
        state = fresh(build_path(3), [0.1, 0.5, -0.5], mu=0.3, theta=0.8, stream=1)
        blob = bytearray(snapshot(state))
        at = struct.calcsize("<4sHB") + 8 * field
        assert struct.unpack_from("<d", blob, at) == ((0.3, 0.8)[field],)
        struct.pack_into("<d", blob, at, value)
        with pytest.raises(SnapshotError):
            restore(bytes(blob))

    @pytest.mark.parametrize("field", ["clock", "pending time"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_clock_is_refused(self, field, value):
        # a restored clock or pending event at +inf used to hang the run
        state = fresh(build_path(3), [0.1, 0.5, -0.5], mu=0.3, stream=1)
        if field == "pending time":
            state.pending = Event(2.0, 0, 1)
        blob = bytearray(snapshot(state))
        at = struct.calcsize("<4sHB") + (16 if field == "clock" else 32 + 1)
        assert struct.unpack_from("<d", blob, at) == ((0.0, 2.0)[field != "clock"],)
        struct.pack_into("<d", blob, at, value)
        with deadline(2.0), pytest.raises(SnapshotError, match="clock|pending"):
            run(restore(bytes(blob)), stop=StopRule(max_events=10))

    @pytest.mark.parametrize("space,value", [("circle", math.nan), ("circle", 5.0),
                                             ("circle", -1.0), ("circle", math.inf),
                                             ("interval", 1.5), ("interval", -0.1)])
    def test_opinions_outside_the_chart_are_refused(self, space, value):
        state = fresh(build_ring(4), [0.1, 0.5, 0.25, 0.0], space=space, stream=1)
        blob = bytearray(snapshot(state))
        at = struct.calcsize("<4sHB") + struct.calcsize("<dddQ") + 1 + struct.calcsize("<BI")
        assert struct.unpack_from("<4d", blob, at) == tuple(state.opinions)
        struct.pack_into("<d", blob, at + 16, value)
        with pytest.raises(SnapshotError, match="outside"):
            restore(bytes(blob))

    @pytest.mark.parametrize("space,first,second", [
        ("circle", math.nan, 5.0), ("circle", -1.0, math.nan), ("circle", -math.inf, 2.0),
        ("interval", -0.1, 1.5), ("interval", math.nan, math.nan), ("interval", 1.5, -2.0)])
    def test_a_refusal_names_the_first_opinion_outside_the_chart(self, space, first, second):
        # the values are checked at once; the message is the scalar check's
        state = fresh(build_ring(5), [0.1, 0.5, 0.25, 0.0, 0.75], space=space, stream=1)
        blob = bytearray(snapshot(state))
        at = struct.calcsize("<4sHB") + struct.calcsize("<dddQ") + 1 + struct.calcsize("<BI")
        values = list(state.opinions)
        values[1], values[3] = first, second
        struct.pack_into("<5d", blob, at, *values)
        with pytest.raises(ValueError) as scalar:
            initial_opinions(Explicit(values), 5, space)
        with pytest.raises(SnapshotError) as got:
            restore(bytes(blob))
        assert str(got.value) == f"snapshot does not decode: {scalar.value}"

    @pytest.mark.parametrize("space", ["circle", "interval"])
    def test_restored_opinions_keep_their_bits(self, space):
        values = [-0.0, 0.0, 1.0, 5e-324, math.nextafter(1.0, 0.0), 0.1]
        if space == "circle":
            values += [math.nextafter(-1.0, 0.0), -0.5, -5e-324]
        state = fresh(build_path(len(values)), values, space=space, stream=3)
        got = restore(snapshot(state)).opinions
        assert type(got) is list and {type(v) for v in got} == {float}
        assert bits(got) == bits(values)

    @pytest.mark.parametrize("graph", [build_ring(6), build_torus([3, 3])])
    def test_vertex_count_checked_before_the_graph_is_built(self, graph, monkeypatch):
        state = new_simulation(graph, Constant(0.25), ModelParams(), stream=1)
        blob = bytearray(snapshot(state))
        at = struct.calcsize("<4sHB") + struct.calcsize("<dddQ") + 1 + 1
        assert struct.unpack_from("<I", blob, at) == (graph.vertex_count,)
        struct.pack_into("<I", blob, at, 20_000_000)
        built = []
        monkeypatch.setattr(engine, "build_ring", lambda n: built.append(n))
        monkeypatch.setattr(engine, "Graph", lambda *args: built.append(args))
        with pytest.raises(SnapshotError, match="truncated"):
            restore(bytes(blob))
        assert built == []

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

    @staticmethod
    def fuzz_sources():
        ring = new_simulation(build_ring(5), IidUniform(1), ModelParams(mu=0.3), stream=3)
        run(ring, stop=StopRule(max_events=50, max_time=0.4))  # parks a pending event
        # a torus is stored as an edge list, so its graph goes through Graph's validator
        torus = new_simulation(build_torus([4, 5]), IidUniform(2), ModelParams(), stream=4)
        run(torus, stop=StopRule(max_events=30))
        return [snapshot(ring), snapshot(torus)]

    @given(st.sampled_from([0, 1]), st.lists(st.tuples(
        st.sampled_from(["truncate", "extend", "byte", "word"]), st.integers(0, 2**16),
        st.sampled_from([0, 1, 2, 3, 5, 19, 255, 2**16, 2**31, 2**32 - 1]) | st.integers(0, 2**32 - 1)),
        min_size=1, max_size=4))
    @settings(max_examples=400, deadline=None)
    def test_edited_bytes_restore_or_raise_snapshot_error(self, which, edits):
        blob = bytearray(self.fuzz_sources()[which])
        for op, where, value in edits:
            at = where % (len(blob) + 1)
            if op == "truncate":
                del blob[at:]
            elif op == "extend":
                blob += value.to_bytes(4, "little")[:1 + where % 4]
            elif op == "byte" and at < len(blob):
                blob[at] = value & 0xFF
            elif op == "word":
                blob[at:at + 4] = struct.pack("<I", value)
        _kernel.load()  # a first build of the kernel is not part of the bound
        start = time.perf_counter()
        try:
            state = restore(bytes(blob))
        except SnapshotError:
            pass
        else:
            # what restores must run, or refuse to, like any state
            try:
                run(state, stop=StopRule(max_events=10))
            except ValueError:
                pass
        assert time.perf_counter() - start < 1.0


def snapshot_by_struct(state):
    """Version-1 snapshot bytes of a Poisson-stream state, packed field by
    field, with one struct.pack per edge of a graph stored as an edge list."""
    out = struct.pack("<4sHB", b"CMSN", 1, {"circle": 0, "interval": 1}[state.space])
    out += struct.pack("<dddQ", state.params.mu, state.params.theta, state.clock,
                       state.events_applied)
    p = state.pending
    out += struct.pack("<BdIB", 1, p.time, p.edge_id, p.tie) if p else struct.pack("<B", 0)
    g = state.graph
    code = {"path": 0, "ring": 1}.get(g.kind, 3)
    out += struct.pack("<BI", code, g.vertex_count)
    if code == 3:
        out += struct.pack("<I", g.edge_count)
        for a, b in g.edges:
            out += struct.pack("<II", a, b)
    out += struct.pack(f"<{g.vertex_count}d", *state.opinions)
    seed = str(state.stream.seed).encode("ascii")
    version, words, gauss = state.stream.rng.getstate()
    assert gauss is None
    out += struct.pack("<BI", 1, len(seed)) + seed
    out += struct.pack(f"<II{len(words)}IB", version, len(words), *words, 0)
    return out


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
