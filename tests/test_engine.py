import array
import gc
import inspect
import itertools
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import struct
import subprocess
import sys
import sysconfig
import time
import tracemalloc
import weakref
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from types import MemberDescriptorType, SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compassmodel import (Constant, DifferenceTracker, Event, Explicit, Graph,
                          IidUniform, ModelParams, PoissonStream, ScheduleExhausted,
                          ScriptedStream, SimState, SnapshotError, StopRule, apply_event,
                          build_path, build_ring, build_torus, derive_seed,
                          graph_from_edges, initial_opinions, new_simulation, restore, run,
                          snapshot, xi_from_values)
from compassmodel import _kernel, analysis, engine
from compassmodel.analysis import compute_metrics
from compassmodel.scenarios import butterfly_scenario
from compassmodel.engine import _total_w
from test_twins import near, starts


needs_kernel = pytest.mark.skipif(_kernel.load() is None, reason="no compiled kernel")


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

    def test_the_schedule_is_three_read_only_arrays(self):
        s = ScriptedStream([Event(0.5, 1), (0.9, 0, 2), (1.5, 7)], cursor=1)
        assert (s.times.dtype, s.edge_ids.dtype, s.ties.dtype) == \
            (np.float64, np.int64, np.int64)
        assert (s.times.tolist(), s.edge_ids.tolist(), s.ties.tolist()) == \
            ([0.5, 0.9, 1.5], [1, 0, 7], [1, 2, 1])
        for a in (s.times, s.edge_ids, s.ties):
            assert not a.flags.writeable and a.flags.c_contiguous
        assert s.events == (Event(0.5, 1, 1), Event(0.9, 0, 2), Event(1.5, 7, 1))
        ev = s.next_event(None)
        assert ev == Event(0.9, 0, 2) and s.cursor == 2
        assert [type(v) for v in (ev.time, ev.edge_id, ev.tie)] == [float, int, int]

    @pytest.mark.parametrize("edge,tie", [(1.0, 2.0), (np.int64(1), np.int64(2)),
                                          (np.float64(1.0), np.float64(2.0)), (1, 2)])
    def test_whole_number_edge_ids_and_ties_are_taken_as_ints(self, edge, tie):
        s = ScriptedStream([(0.5, edge, tie), Event(np.float64(0.75), edge, tie)])
        assert s.events == (Event(0.5, 1, 2), Event(0.75, 1, 2))
        assert {type(v) for ev in s.events for v in (ev.time, ev.edge_id, ev.tie)} == \
            {float, int}

    @pytest.mark.parametrize("events,message", [
        ([(0.5, 0, 1.7)], "event 0 has tie 1.7, must be 1 or 2"),  # was truncated to 1
        ([(0.5, 0), (0.6, 0, 2.5)], "event 1 has tie 2.5, must be 1 or 2"),
        ([(0.5, 0), (0.6, 1.5)], "event 1 has edge id 1.5, must be a whole number in int64"),
        ([(0.5, math.nan)], "event 0 has edge id nan, must be a whole number in int64"),
        ([(0.5, 2**63)], f"event 0 has edge id {2**63}, must be a whole number in int64"),
        ([(0.5, "1")], "event 0 has edge id '1', must be a whole number in int64"),
        # the first fault of any kind, time before tie within an event, as
        # a check event by event finds it
        ([(0.5, 0), (math.nan, 0, 3), (0.4, 0, 9)], "event 1 has time nan, must be finite"),
        ([(0.5, 0, 3), (math.inf, 0)], "event 0 has tie 3, must be 1 or 2"),
        ([(0.5, 0), (0.4, 0), (0.6, 0, 9)], "event 2 has tie 9, must be 1 or 2"),
        ([(0.5, 0), (0.7, 0), (0.7, 1), (0.6, 0)],
         "scripted times must be strictly increasing, events 1 and 2 have times 0.7 and 0.7"),
    ])
    def test_a_fault_is_named_as_an_event_by_event_check_names_it(self, events, message):
        with pytest.raises(ValueError) as got:
            ScriptedStream(events)
        assert str(got.value) == message

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

    @given(st.one_of(st.integers(0, 2**200), st.integers(-2**200, -1)),
           st.one_of(st.integers(1, 1_000), st.integers(1, 2 * engine._BLOCK + 1_000)),
           st.sampled_from(["circle", "interval"]))
    @example(0, 312, "circle")  # the generator's first block of words, to the draw
    @example(1, 2 * engine._BLOCK + 1, "interval")  # one draw past two blocks
    @settings(max_examples=60, deadline=None)
    def test_the_block_draw_is_the_draw_by_draw_comprehension(self, seed, n, space):
        rng = random.Random(seed)
        if space == "circle":
            want = [1.0 - 2.0 * rng.random() for _ in range(n)]
        else:
            want = [rng.random() for _ in range(n)]
        got = initial_opinions(IidUniform(seed), n, space)
        assert type(got) is list and {type(v) for v in got} == {float}
        assert bits(got) == bits(want)


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

    @pytest.mark.parametrize("value", [2**63, 1e19, 10**400], ids=["2**63", "1e19", "10**400"])
    @pytest.mark.parametrize("name", ["max_events", "w_check_interval"])
    def test_a_count_past_int64_is_refused(self, name, value):
        # the kernel counts in an int64, and a w_check_interval of 10**400
        # made run raise OverflowError from the window's float arithmetic
        with pytest.raises(ValueError, match=rf"^{name} must be below 2\*\*63, got {int(value)}$"):
            StopRule(**{"max_events": 1000, "w_below": 1e-3, name: value})

    @pytest.mark.parametrize("loop", LOOPS)
    def test_counts_just_below_2_63_run(self, loop):
        big = 2**63 - 1

        def ring():
            return new_simulation(build_ring(20), IidUniform(1), ModelParams(), stream=2)

        with mock.patch.object(_kernel, "_lib", loop_lib(loop)):
            rec = run(ring(), stop=StopRule(max_events=1000, w_below=1e-9, w_check_interval=big))
            assert (rec.stop_reason, rec.events_applied) == ("max_events", 1000)
            rec = run(ring(), stop=StopRule(max_events=big, max_time=2.0, w_below=1e-9,
                                            w_check_interval=big))
            assert rec.stop_reason == "max_time"

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

    def test_an_infinite_event_time_is_refused_by_apply_event(self):
        # taken, it would leave the clock at +inf, which restore refuses
        state = fresh(build_path(3), [0.2, 0.6, 0.9], stream=3)
        apply_event(state, Event(1.0, 0))
        before = (list(state.opinions), state.clock, state.events_applied, state.pending)
        with pytest.raises(ValueError, match="event at inf is not finite"):
            apply_event(state, Event(math.inf, 0, 1))
        assert (state.opinions, state.clock, state.events_applied, state.pending) == before
        assert restore(snapshot(state)).clock == 1.0

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

    @pytest.mark.parametrize("loop", ["kernel", "python"])
    @pytest.mark.parametrize("bad,message", [
        (Event(2.0, 7), "edge id 7 out of range"),
        (Event(0.5, 1), "event at 0.5 is earlier than the clock 1.0"),
        (Event(2.0, 1, 9), "tie must be 1 or 2, got 9"),
        (Event(math.nan, 0, 1), "event at nan is earlier than the clock 1.0"),
        (Event(math.inf, 0, 1), "event at inf is not finite"),
    ])
    def test_a_bad_parked_event_is_refused_with_the_budget_spent(self, bad, message, loop):
        # no loop would reach the event: run() checks it before the first
        # event, with the state untouched
        state = fresh(build_path(3), [0.2, 0.6, 0.9], stream=3)
        apply_event(state, Event(1.0, 0))
        state.pending = bad
        before = (list(state.opinions), state.clock, state.events_applied,
                  state.stream.rng.getstate())
        with mock.patch.object(_kernel, "_lib", loop_lib(loop)), \
                pytest.raises(ValueError, match=re.escape(message)):
            run(state, stop=StopRule(max_events=1))
        assert state.pending is bad
        assert (state.opinions, state.clock, state.events_applied,
                state.stream.rng.getstate()) == before

    @pytest.mark.parametrize("loop", ["kernel", "python"])
    @pytest.mark.parametrize("tie", [2**70, -2**63 - 1, 0, 9])
    def test_a_parked_tie_other_than_1_or_2_is_refused_on_the_interval(self, tie, loop):
        # the interval ignores the tie; the kernel's context held it in an
        # int64, and a tie past that came back from a kernel run as another
        state = fresh(build_path(3), [0.2, 0.6, 0.9], space="interval", stream=3)
        parked = state.pending = Event(0.1, 0, tie)
        before = (list(state.opinions), state.clock, state.events_applied,
                  state.stream.rng.getstate())
        with mock.patch.object(_kernel, "_lib", loop_lib(loop)), \
                pytest.raises(ValueError, match=re.escape(f"tie must be 1 or 2, got {tie!r}")):
            run(state, stop=StopRule(max_time=0.05))
        assert state.pending is parked and parked == Event(0.1, 0, tie)
        assert (state.opinions, state.clock, state.events_applied,
                state.stream.rng.getstate()) == before

    @pytest.mark.parametrize("loop", ["kernel", "python"])
    @pytest.mark.parametrize("space", ["circle", "interval"])
    @pytest.mark.parametrize("edge,tie", [(1.0, 2.0), (np.int64(1), np.int64(2)),
                                          (np.float64(1.0), 2), (1, np.float64(2.0))])
    def test_a_whole_number_parked_edge_id_or_tie_runs_as_an_int(self, edge, tie, space, loop):
        # a parked tie of 1.0 ran on the Python loop, raised TypeError in the
        # kernel's context and struct.error in snapshot
        def go(parked):
            state = fresh(build_path(3), [0.2, 0.6, -0.9 if space == "circle" else 0.9],
                          mu=0.25, space=space, stream=3)
            state.pending = parked
            with mock.patch.object(_kernel, "_lib", loop_lib(loop)):
                rec = run(state, stop=StopRule(max_events=5))
            return (rec.stop_reason, bits(state.opinions), state.clock, state.events_applied,
                    state.pending, state.stream.rng.getstate())

        assert go(Event(0.1, edge, tie)) == go(Event(0.1, 1, 2))
        # parked again past max_time, as plain ints, and snapshot takes it
        state = fresh(build_path(3), [0.2, 0.6, 0.9], space=space, stream=3)
        state.pending = Event(0.1, edge, tie)
        with mock.patch.object(_kernel, "_lib", loop_lib(loop)):
            run(state, stop=StopRule(max_time=0.05))
        assert state.pending == Event(0.1, 1, 2)
        assert (type(state.pending.edge_id), type(state.pending.tie)) == (int, int)
        assert restore(snapshot(state)).pending == Event(0.1, 1, 2)

    @pytest.mark.parametrize("loop", ["kernel", "python"])
    @pytest.mark.parametrize("bad,message", [
        (Event(0.1, 0, 1.7), "tie must be 1 or 2, got 1.7"),
        (Event(0.1, 0, np.float64(1.5)), "tie must be 1 or 2, got np.float64(1.5)"),
        (Event(0.1, 0.5, 1), "edge id must be a whole number, got 0.5"),
        (Event(0.1, math.nan, 1), "edge id must be a whole number, got nan"),
    ])
    def test_a_parked_edge_id_or_tie_that_is_not_whole_is_refused(self, bad, message, loop):
        state = fresh(build_path(3), [0.2, 0.6, 0.9], stream=3)
        state.pending = bad
        before = (list(state.opinions), state.clock, state.events_applied,
                  state.stream.rng.getstate())
        with mock.patch.object(_kernel, "_lib", loop_lib(loop)), \
                pytest.raises(ValueError) as got:
            run(state, stop=StopRule(max_events=5))
        assert str(got.value) == message
        assert state.pending is bad
        assert (state.opinions, state.clock, state.events_applied,
                state.stream.rng.getstate()) == before
        with pytest.raises(ValueError) as applied:
            apply_event(fresh(build_path(3), [0.2, 0.6, 0.9]), bad)
        assert str(applied.value) == message
        # snapshot refuses it too, with ValueError (not struct.error)
        with pytest.raises(ValueError, match="whole numbers"):
            snapshot(state)

    def test_apply_event_takes_a_whole_number_edge_id_and_tie(self):
        ref = fresh(build_path(3), [0.5, -0.5, 0.9])
        apply_event(ref, Event(1.0, 0, 2))
        for edge, tie in [(0.0, 2.0), (np.int64(0), np.float64(2.0))]:
            state = fresh(build_path(3), [0.5, -0.5, 0.9])
            apply_event(state, Event(1.0, edge, tie))
            assert (bits(state.opinions), state.clock) == (bits(ref.opinions), ref.clock)

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

    @pytest.mark.parametrize("lib", ["kernel", "python"])
    @pytest.mark.parametrize("probes", [(), (0.5, 2.0)])
    @pytest.mark.parametrize("start", ["clock", "nan clock", "pending"])
    def test_a_clock_or_event_that_is_not_finite_is_refused(self, start, probes, lib):
        # a state built by hand with a clock restore refuses, or a parked
        # event at +inf, is refused before the first event, on either loop
        state = fresh(build_path(3), [0.1, 0.5, -0.5], mu=0.25, stream=4)
        if start == "pending":
            state.pending = Event(math.inf, 0, 1)
            clock = 0.0
        else:
            state.clock = clock = math.inf if start == "clock" else math.nan
        words = state.stream.rng.getstate()
        with mock.patch.object(_kernel, "_lib", _kernel.load() if lib == "kernel" else False), \
                deadline(2.0), pytest.raises(ValueError, match="not finite"):
            run(state, stop=StopRule(max_events=10), probes=probes)
        assert state.clock == clock or math.isnan(clock) and math.isnan(state.clock)
        assert (state.opinions, state.events_applied, state.stream.rng.getstate()) == \
            ([0.1, 0.5, -0.5], 0, words)

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
        # an interrupt at the chunk that would apply the event the kernel
        # holds from the chunk before: close() hands it back, and it is parked
        @contextmanager
        def held_event_interrupted(error):
            def interrupted(own, ctx, *args):
                if ctx.drawn:
                    raise error
                return own(ctx, *args)

            with wrapped_context(run=interrupted):
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


def summed_run(state, stop, probes=()):
    """run(), with the hex of every lower bound on W that a test took."""
    seen, patch = traced_total_w()
    with patch:
        rec = run(state, stop=stop, probes=probes)
    return rec, [got for _, got in seen]


def exact_w(state):
    """W as a record reports it: compute_metrics' exactly rounded sum."""
    return compute_metrics(state.graph, state.opinions, state.space).W


def first_below(state, interval, w_below):
    """Step the state one interval at a time, without a W stop, to the
    first count whose W is below w_below."""
    while True:
        run(state, stop=StopRule(max_events=state.events_applied + interval))
        if exact_w(state) < w_below:
            return state.events_applied


def outcome_of(rec, state):
    """A run's record and end state, apart from the stop reason and timing."""
    return (rec.events_applied, rec.final_time, rec.samples, rec.terminal,
            bits(rec.final_opinions), state.clock, state.pending, state.stream.rng.getstate())


class TestWTestWindow:
    """After a lower bound lo on W, the tests of the next
    (lo - w_below) / (2 * max_degree * mu) events answer "not below" without
    a sum. None of them could have found W below w_below."""

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
        assert rec.terminal["W"] < w_below
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
                below.append(exact_w(state) < w_below)
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

    @pytest.mark.parametrize("shape,interval,stop_at", [("path", 1, 60), ("path", 3, 60),
                                                        ("torus", 2, 20), ("torus", 1, 21)])
    def test_a_fall_at_the_bound_stops_at_the_first_test_past_the_window(self, shape, interval,
                                                                           stop_at):
        # on a 0/1 alternating start at mu = 1/2, an event on an edge whose
        # ends have max_degree edges each, all still at distance 1, puts both
        # ends at 1/2: W falls by 1 + (2 * max_degree - 2) / 2 = max_degree,
        # which is 2 * max_degree * mu, the most one event can move it. After
        # the first sum the window ends one event before the count at which
        # W falls below w_below, so a window one interval longer misses that
        # test, and one computed without mu sums more often
        g = build_path(301) if shape == "path" else build_torus([20, 20])
        degree, incident = g.max_degree, g.incident_edges
        touched, events = set(), []
        for e, (a, b) in enumerate(g.edges):
            # the event's ends and their neighbours, all untouched so far
            near = {v for f in incident[a] + incident[b] for v in g.edges[f]}
            if len(incident[a]) == len(incident[b]) == degree and not near & touched:
                touched |= near
                events.append((1.0 + len(events), e, 1))
        assert len(events) > stop_at + 2 * interval
        side = 301 if shape == "path" else 20
        init = [float(sum(divmod(v, side)) % 2) for v in range(g.vertex_count)]
        # W = edge_count - degree * c after c events; below w_below from stop_at on
        w_below = g.edge_count - degree * stop_at + 0.5

        def fresh_state():
            return fresh(g, init, space="interval", stream=ScriptedStream(events))

        assert first_below(fresh_state(), interval, w_below) == stop_at
        rec, sums = summed_run(fresh_state(), StopRule(max_events=len(events), w_below=w_below,
                                                       w_check_interval=interval))
        assert (rec.stop_reason, rec.events_applied) == ("w_below", stop_at)
        # the bounds at the first test and at stop_at: lo of the whole-number
        # sums, just below them
        m = g.edge_count
        whole = [m - degree * interval, m - degree * stop_at]
        assert sums == [(t * (1.0 - (m + 4) * 2.0**-53) - m * 2.0**-52).hex() for t in whole]
        assert all(float.fromhex(lo) <= t for lo, t in zip(sums, whole))

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

    @pytest.mark.parametrize("loop", LOOPS)
    @pytest.mark.parametrize("bad", ["0.5", None, b"0"])
    def test_an_opinion_that_is_not_a_number_is_refused(self, bad, loop):
        # refused before the first event, on both loops; the Python loop used
        # to raise at the first event on that vertex, after the events before
        # it, and None was refused as NaN, with ValueError
        state = new_simulation(build_ring(12), Constant(0.25), ModelParams(), stream=5)
        state.opinions[7] = bad
        before = (list(state.opinions), state.stream.rng.getstate())
        with mock.patch.object(_kernel, "_lib", loop_lib(loop)), \
                pytest.raises(TypeError, match="must be real number"):
            run(state, stop=StopRule(max_events=100, w_below=1e-6))
        assert (list(state.opinions), state.stream.rng.getstate()) == before
        assert (state.clock, state.events_applied, state.pending) == (0.0, 0, None)


@contextmanager
def decisions():
    """Count the stop decision's exact W: the calls of `analysis._gap_pass`
    that no compute_metrics call (a probe, the terminal record) made."""
    calls = SimpleNamespace(gap_pass=0, metrics=0)
    gap_pass, metrics = analysis._gap_pass, analysis.compute_metrics

    def counted_gap_pass(*args):
        calls.gap_pass += 1
        return gap_pass(*args)

    def counted_metrics(*args, **kwargs):
        calls.metrics += 1
        return metrics(*args, **kwargs)

    taken = []
    with mock.patch.object(analysis, "_gap_pass", counted_gap_pass), \
            mock.patch.object(analysis, "compute_metrics", counted_metrics):
        yield taken
    taken.append(calls.gap_pass - calls.metrics)


# interval starts whose left-to-right sum is not W, the exactly rounded
# sum, with a w_below between them: the sum 1.0 < w_below = W, and
# W < w_below = the sum 1.4999999999999993
NEAR_STARTS = {"W at w_below": ([0.0, 1.0, 1.0 - 2.0**-53, 1.0 - 2.0**-52],
                                math.nextafter(1.0, 2.0), ("max_events", 1.0000000000000002)),
               "W an ulp below": ([3 * 2.0**-53, 1.0, 0.75 + 2.0**-52, 1.0], 1.4999999999999993,
                                  ("w_below", 1.4999999999999991))}
NEAR_VALUES = [0.0, 1.0, 0.5, 0.75, 0.75 + 2.0**-52, 1.0 - 2.0**-53, 1.0 - 2.0**-52,
               2.0**-53, 3 * 2.0**-53, 2.0**-1074]


class TestOneW:
    """A run stops on w_below exactly when the W its record reports is
    below it; a lower bound on W only rules a stop out."""

    @pytest.mark.parametrize("loop", LOOPS)
    @pytest.mark.parametrize("name", NEAR_STARTS)
    def test_a_stop_on_the_w_the_record_reports(self, name, loop):
        init, w_below, want = NEAR_STARTS[name]
        state = fresh(build_path(4), init, space="interval", stream=1)
        op = state.opinions
        # the left-to-right sum lies on the other side of w_below from W,
        # and lo below both
        t = sum(abs(op[a] - op[b]) for a, b in state.graph.edges)
        assert (t < w_below) != (name == "W an ulp below")
        assert _total_w(state) < min(t, exact_w(state), w_below)
        with mock.patch.object(_kernel, "_lib", loop_lib(loop)), decisions() as taken:
            rec = run(state, stop=StopRule(max_events=0, w_below=w_below))
        assert (rec.stop_reason, rec.terminal["W"]) == want
        assert taken == [1]

    @pytest.mark.parametrize("loop", LOOPS)
    @given(shape=st.sampled_from(["path", "ring"]), n=st.integers(2, 9),
           space=st.sampled_from(["circle", "interval"]),
           values=st.lists(st.sampled_from(NEAR_VALUES) | st.floats(0.0, 1.0), min_size=9,
                           max_size=9),
           signs=st.lists(st.booleans(), min_size=9, max_size=9),
           theta=st.sampled_from([math.inf, 0.3, 1e-3]), seed=st.integers(0, 2**32),
           events=st.sampled_from([0, 1, 2]) | st.integers(0, 40), ulps=st.integers(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_w_below_holds_just_when_the_reported_w_is_below(
            self, loop, shape, n, space, values, signs, theta, seed, events, ulps):
        # w_below within a few ulps of W at the run's one test, at its budget
        g = build_path(n) if shape == "path" else build_ring(max(n, 3))
        init = values[:g.vertex_count]
        if space == "circle":
            init = [-v if sign and v < 1.0 else v for v, sign in zip(init, signs)]

        def start():
            return fresh(g, init, mu=0.25, theta=theta, space=space, stream=seed)

        with mock.patch.object(_kernel, "_lib", loop_lib(loop)):
            state = start()
            run(state, stop=StopRule(max_events=events))
            w, lo = exact_w(state), _total_w(state)
            w_below = near(w, ulps)
            seen, patch = traced_total_w()
            with patch, decisions() as taken:
                rec = run(start(), stop=StopRule(max_events=events, w_below=w_below,
                                                 w_check_interval=events + 1))
        assert rec.stop_reason in ("max_events", "w_below")
        assert (rec.events_applied, rec.terminal["W"]) == (events, w)
        assert (rec.stop_reason == "w_below") == (w < w_below)
        assert [got for _, got in seen] == [lo.hex()]
        # the exact W is taken just where lo is below w_below, and lo lies
        # below W by no more than a bound looser than the loop's
        m = g.edge_count
        assert taken == [int(lo < w_below)]
        assert 0.0 <= w - lo <= w * (m + 8) * 2.0**-52 + m * 2.0**-51

    @needs_kernel
    def test_a_ring_of_1e5_near_w_below_takes_the_exact_w_once(self):
        # W starts near 2e-6, inside the (m + 3)**2 * 2**-52 = 2.2e-6 margin
        # an absolute bound on the sum would need: every test would take the exact W
        rnd = random.Random(1)
        g = build_ring(10**5)
        state = fresh(g, [6e-11 * rnd.random() for _ in range(g.vertex_count)], mu=0.25,
                      stream=3)
        assert 1e-6 < exact_w(state) < (g.edge_count + 3) ** 2 * 2.0**-52
        seen, patch = traced_total_w()
        with patch, decisions() as taken, kernel_calls() as calls:
            rec = run(state, stop=StopRule(max_events=10**6, w_below=1e-6))
        assert calls
        assert (rec.stop_reason, rec.events_applied, len(seen)) == ("w_below", 114_800, 1_148)
        assert rec.terminal["W"] < 1e-6
        assert taken == [1]


class TestConfidenceGate:
    """apply_rule's gate, as the scalar rules': one scripted event on a pair
    at distance exactly theta moves it, and on one at nextafter(theta, 2)
    does not, on both loops."""

    @pytest.mark.parametrize("loop", LOOPS)
    @pytest.mark.parametrize("past", [False, True])
    @pytest.mark.parametrize("space,pair", [("circle", (0.5, 0.25)), ("circle", (1.0, -0.75)),
                                            ("interval", (0.75, 0.5))])
    def test_one_event_at_the_gate(self, space, pair, past, loop):
        theta = math.nextafter(0.25, 0.0) if past else 0.25
        state = fresh(build_path(2), list(pair), mu=0.25, theta=theta, space=space,
                      stream=ScriptedStream([(1.0, 0, 1)]))
        with mock.patch.object(_kernel, "_lib", loop_lib(loop)), kernel_calls() as calls:
            rec = run(state)
        assert (rec.stop_reason, rec.events_applied) == ("schedule_exhausted", 1)
        assert bool(calls) == (loop == "kernel")
        rule = engine.update_pair_compass if space == "circle" else engine.update_pair_deffuant
        want = rule(*pair, state.params)
        assert bits(state.opinions) == bits(want)
        assert (tuple(state.opinions) == pair) == past


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


@contextmanager
def wrapped_context(**wrappers):
    """Build every kernel run's context as a Python subclass of the kernel's
    `Context` whose methods named here are wrapped: each wrapper is called
    with the type's own method, then the context (or, for `__new__`, the
    class) and the call's arguments. Without the kernel nothing is wrapped."""
    lib = _kernel.load()
    if not lib:
        yield
        return

    def method(wrap, own):
        return lambda self, *args, **kwargs: wrap(own, self, *args, **kwargs)

    base = lib.Context
    body = {name: method(wrap, getattr(base, name)) for name, wrap in wrappers.items()}
    with mock.patch.object(lib, "Context", type("Wrapped", (base,), body)):
        yield


@contextmanager
def kernel_calls():
    """Count the kernel's chunks, each with its (limit, next_probe); each one
    draws or replays at least one event, unless it finds its schedule out."""
    calls = []

    def counted(own, ctx, *args):
        calls.append(args)
        return own(ctx, *args)

    with wrapped_context(run=counted):
        yield calls


class TestOneLoop:
    """run() against apply_event stepped over a twin stream's events."""

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

        # the interval ignores the tie, and refuses this one as the circle does
        ref = outcome(lambda s: apply_event(s, Event(1.0, 0, 9)))
        assert ref == ("tie must be 1 or 2, got 9", [0.2, 0.6], 0)
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
        # a scripted event with this tie bit, and a Poisson stream on one edge
        # whose first event has it: each run on the kernel and on the Python loop
        seed = next(s for s in range(100) if PoissonStream(s).next_event(
            fresh(build_path(2), pair)).tie == tie)
        for mu in (0.5, 0.25, 0.3):
            for theta in (math.inf, 0.9, 0.3):
                makers = (lambda: ScriptedStream([(1.0, 0, tie)]), lambda: PoissonStream(seed))
                for lib, make in itertools.product((_kernel.load(), False), makers):
                    stream = make()
                    state = fresh(build_path(2), pair, mu=mu, theta=theta, space=space)
                    ref = fresh(build_path(2), pair, mu=mu, theta=theta, space=space)
                    ev = PoissonStream(seed).next_event(ref) \
                        if isinstance(stream, PoissonStream) else Event(1.0, 0, tie)
                    with mock.patch.object(_kernel, "_lib", lib):
                        run(state, stream=stream, stop=StopRule(max_events=1))
                    apply_event(ref, ev)
                    assert bits(state.opinions) == bits(ref.opinions), (mu, theta, stream, lib)


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


def block_run(index):
    """A 7-ring run of 330 events from a generator at index (0 to 624, 624
    making a new block first), which crosses at least three of its blocks
    of 104 events, then a run to a time that holds the event past it. The
    generator's state, the opinions, the clock and the held event."""
    state = new_simulation(build_ring(7), IidUniform(index), ModelParams(mu=0.3),
                           stream=index)
    rng = state.stream.rng
    version, mt, gauss = rng.getstate()
    rng.setstate((version, (*mt[:-1], index), gauss))
    run(state, stop=StopRule(max_events=330))
    run(state, stop=StopRule(max_time=state.clock + 1.0))
    return rng.getstate(), bits(state.opinions), state.clock.hex(), state.pending


@cache
def python_block_runs():
    """`block_run` from every generator index on the Python loop."""
    with mock.patch.object(_kernel, "_lib", False):
        return [block_run(index) for index in range(625)]


def cpu_flags():
    """The CPU's feature flags as Linux lists them; none where it does not."""
    try:
        info = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in info.splitlines() if line.startswith("flags")
            for flag in line.partition(":")[2].split()}


def context_cases():
    """`Context` arguments on a 4-path (m = 3, n = 4), all by keyword and
    fresh at each call, as (name, good, kwargs). The good ones draw from a
    generator or replay a schedule, with or without a tracker and a held
    event. Each of the others has one array of the wrong size, strided, or
    read-only where the kernel writes; or two sources or none, or a
    generator on a graph without edges; or a cursor, end or held event out
    of range."""
    g = build_path(4)
    starts, ids = g.incidence

    def given(source, **change):
        kwargs = dict(edges=g.edge_array, starts=starts, ids=ids,
                      opinions=array.array("d", [0.5, -0.25, 0.75, 0.0]), mu=0.25,
                      theta=math.inf, circle=True, clock=0.0, count=0, max_time=math.inf,
                      **source)
        kwargs.update(change)
        return kwargs

    def generator(**change):
        return given(dict(mt=array.array("I", random.Random(1).getstate()[1])), **change)

    def schedule(**change):
        return given(dict(times=np.array([0.1, 0.2, 0.3]), edge_ids=np.array([0, 2, 1]),
                          ties=np.array([1, 2, 1]), cursor=0, end=3), **change)

    def gaps(k):
        return array.array("d", [0.25] * k)

    def readonly(a):
        return memoryview(a).toreadonly()

    tracked = dict(delta=gaps(3), xi=gaps(3), drawn=True, t=0.05, e=1, k=2)
    return [
        ("generator", True, generator()),
        ("generator, tracked, held", True, generator(**tracked)),
        ("schedule", True, schedule()),
        ("schedule from its cursor, tracked, held", True,
         schedule(cursor=1, delta=gaps(3), drawn=True, t=0.05, e=2)),
        ("2 edges", False, generator(edges=g.edge_array[:2])),
        ("5 edge ends", False, generator(edges=g.edge_array.ravel()[:5])),
        ("4 starts", False, generator(starts=starts[:4])),
        ("5 ids", False, generator(ids=ids[:5])),
        ("6 ids with a stride", False, generator(ids=np.repeat(ids, 2)[::2])),
        ("3 opinions", False, generator(opinions=array.array("d", [0.0] * 3))),
        ("5 opinions", False, generator(opinions=array.array("d", [0.0] * 5))),
        ("read-only opinions", False,
         generator(opinions=readonly(array.array("d", [0.0] * 4)))),
        ("624 state words", False, generator(mt=array.array("I", bytes(4 * 624)))),
        ("read-only state words", False,
         generator(mt=readonly(array.array("I", random.Random(1).getstate()[1])))),
        ("a generator and a schedule", False,
         generator(times=np.zeros(1), edge_ids=np.zeros(1, np.int64),
                   ties=np.ones(1, np.int64))),
        ("no source", False, given({})),
        ("a generator without edges", False,
         generator(edges=g.edge_array[:0], ids=ids[:0])),
        ("2 edge ids", False, schedule(edge_ids=np.array([0, 2]))),
        ("4 ties", False, schedule(ties=np.array([1, 2, 1, 1]))),
        ("2 times", False, schedule(times=np.array([0.1, 0.2]))),
        ("cursor -1", False, schedule(cursor=-1)),
        ("cursor past the end", False, schedule(cursor=2, end=1)),
        ("end past the schedule", False, schedule(end=4)),
        ("2 gaps", False, generator(delta=gaps(2))),
        ("4 bounds", False, generator(delta=gaps(3), xi=gaps(4))),
        ("read-only gaps", False, generator(delta=readonly(gaps(3)))),
        ("read-only bounds", False, schedule(delta=gaps(3), xi=readonly(gaps(3)))),
        ("a held event on edge 3", False, generator(drawn=True, t=0.05, e=3)),
        ("a held event on edge -1", False, schedule(drawn=True, t=0.05, e=-1)),
    ]


# Run in a subprocess against a build of _kernel.c given as argv[1], with
# the tests on the path: the twin machine of test_twins.py (the build's
# runs against the Python loop's), twin runs at the draw boundaries, W in
# C against math.fsum, and probe metrics against the numpy path (tiny gaps
# at one vertex and at several, and a 64x64 torus), the graph pass against
# the numpy checks, on valid and invalid edge lists, and contexts built, run
# and dropped, or refused. The build checks every graph the script builds,
# and aborts the process on undefined behaviour.
UBSAN_CHECK = """
import array, math, random, sys
from unittest import mock
import numpy as np
import conftest
from hypothesis import settings
from hypothesis.stateful import run_state_machine_as_test
from compassmodel import (Explicit, Graph, ModelParams, StopRule, _kernel, analysis,
                          build_path, build_ring, build_torus, compute_metrics, graph_from_edges,
                          new_simulation, run)
from test_twins import Twins

lib = _kernel._open(sys.argv[1])
_kernel._lib = lib  # every graph the check builds, the build checks
run_state_machine_as_test(Twins, settings=settings(max_examples=40, stateful_step_count=12,
                                                   deadline=None))

""" + "\n\n".join(map(inspect.getsource, (untemper, boundary_cases, boundary_run,
                                            context_cases))) + """

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
    # W of the gaps t, in cm_metrics; None when a gap or W is not finite
    g = build_path(t.size + 1) if t.size else Graph("custom", 1, ())
    with mock.patch.object(_kernel, "_lib", lib):
        found = _kernel.metrics(g, None, True, t)
    if found is not None:
        assert found[0].hex() == math.fsum(np.abs(t)).hex()

def metrics(g, ops, gaps):
    m = compute_metrics(g, ops, delta_values=gaps)
    return [float(v).hex() for v in vars(m).values()]

tiny = 2.0 ** -537
star = graph_from_edges(7, [(0, v) if v % 2 else (v, 0) for v in range(1, 7)])
# 8,192 edges; then tiny gaps at several of its vertices
big = build_torus([64, 64])
spread = [0.97 * math.sin(2.3 * i + 0.4) for i in range(big.vertex_count)]
planted = list(spread)
for v, x in [(0, 5e-324), (130, -1e-310), (2049, 2.0**-540)]:
    planted[v], planted[big.edges[2 * v][1]] = 0.0, x
probes = [
    # opposite gaps under 2**-537 at the centre: the products one by one
    (star, [0.0, tiny, -tiny, 1e-200, -1e-200, 0.5, -0.25], None),
    (star, [0.0] * 7, [tiny, -tiny, 1e-200, -1e-200, -0.0, 0.3]),
    (Graph("custom", 1, ()), [0.4], None),  # no edges
    (big, spread, None),
    (big, planted, None),
]
for case in probes:
    with mock.patch.object(_kernel, "_lib", lib), \
            mock.patch.object(analysis, "_sign_flips", side_effect=AssertionError):
        got = metrics(*case)
    with mock.patch.object(_kernel, "_lib", False):
        want = metrics(*case)
    assert got == want, case

# the graph pass against the numpy checks, on valid and invalid lists
torus = build_torus([5, 4]).edge_array.tolist()
graphs = [
    (20, torus), (20, torus[::-1]), (1, ()), (2, ((1, 0),)),
    (4, ((0, 1), (-1, 5), (1, 2), (2, 3))),  # out of range, and a wrapped-key tie
    (4, ((0, 1), (1, 2), (4, 0), (2, 3))),
    (4, ((0, 1), (1, 2), (2, 1), (2, 3), (3, 3))),  # a duplicate before a self-loop
    (3, ((0, 1), (1, 1), (1, 0))),
    (4, ((0, 1), (2, 3), (1, 0))),
    (5, ((0, 1), (1, 2), (3, 4), (0, 2))),  # not connected
    (3, ((0, 2**63 - 1), (-2**63, 1), (1, 2))),
    (20, torus[:-1] + [torus[3]]),
]
for n, edges in graphs:
    outs = []
    for each in (lib, False):
        with mock.patch.object(_kernel, "_lib", each):
            try:
                g = Graph("custom", n, edges)
                outs.append((g.edge_array.tolist(), [a.tolist() for a in g.incidence]))
            except ValueError as exc:
                outs.append(str(exc))
    assert outs[0] == outs[1], (n, edges)

# contexts built, run and dropped, and refused: each releases every buffer
contexts = context_cases()
for name, good, kwargs in contexts:
    opinions = kwargs["opinions"]
    try:
        ctx = lib.Context(**kwargs)
    except (ValueError, TypeError, BufferError):
        assert not good, name
    else:
        assert good and ctx.run(5, math.inf) > 0 and ctx.total_w() > 0.0, name
        del ctx
    if isinstance(opinions, array.array):
        opinions.append(0.0)
print("ok", len(bounds), len(terms), len(probes), len(graphs), len(contexts))
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
        # Python.h included, with the flags and -I paths the build uses
        done = subprocess.run([gcc, *_kernel.FLAGS, *_kernel._includes(), "-Wall", "-Wextra",
                               "-Wshadow", "-Wunused-macros", "-Werror", "-o",
                               str(tmp_path / "_kernel.so"),
                               str(_kernel._SOURCE), "-lm"],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("clone", ["avx512f", "avx2", None],
                             ids=["avx512f", "avx2", "no clones"])
    def test_each_clone_draws_the_python_loops_words(self, clone, tmp_path):
        # the shipped build runs only the clone this CPU picks: build a copy
        # of the source for one clone each, by its attribute line alone, and
        # run it from every generator index against the Python loop
        gcc = shutil.which("gcc")
        if gcc is None:
            pytest.skip("no gcc on PATH")
        source = _kernel._SOURCE.read_text()
        line = '#define WIDEST __attribute__((target_clones("avx512f", "avx2", "default")))'
        assert source.count(line) == 1
        warn = []
        if clone is None:
            # the default target's body alone, as where ifunc is missing
            attribute = "#define WIDEST"
            warn = ["-Wall", "-Wextra", "-Wshadow", "-Wunused-macros", "-Werror"]
        elif platform.machine() not in ("x86_64", "AMD64"):
            pytest.skip(f"{clone} is an x86-64 target, and this is {platform.machine()}")
        elif clone not in cpu_flags():
            pytest.skip(f"this CPU lacks {clone}, so it cannot run that clone")
        else:
            attribute = f'#define WIDEST __attribute__((target("{clone}")))'
        copy = tmp_path / "_kernel.c"
        copy.write_text(source.replace(line, attribute))
        build = tmp_path / f"_kernel{sysconfig.get_config_var('EXT_SUFFIX')}"
        done = subprocess.run([gcc, *_kernel.FLAGS, *_kernel._includes(), *warn, "-o",
                               str(build), str(copy), "-lm"],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lib = _kernel._open(build)
        with mock.patch.object(_kernel, "_lib", lib), kernel_calls() as calls:
            got = [block_run(index) for index in range(625)]
        assert len(calls) >= 2 * 625
        assert got == python_block_runs()

    def test_the_context_matches_struct_cm_ctx(self):
        # the type's members are the C member table's, each a field of
        # struct cm_ctx read as that field's C type, and none can be set: a
        # member read as the wrong type reads garbage
        source = _kernel._SOURCE.read_text()
        body = re.search(r"^struct cm_ctx \{(.*?)^\};", source, re.S | re.M).group(1)
        fields = {}
        for decl in re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";")[:-1]:
            ctype, names = re.fullmatch(r"\s*(?:const\s+)?(\w+)\s+(.*?)\s*", decl, re.S).groups()
            for name in names.split(","):
                pointer = name.strip().startswith("*")
                fields[name.strip(" *")] = "pointer" if pointer else ctype
        table = re.findall(r"^\s*MEMBER\((\w+), (\w+)\),$", source, re.M)
        kinds = {"T_DOUBLE": "double", "T_LONGLONG": "int64_t"}
        assert [name for name, _ in table] == [
            "clock", "count", "drawn", "t", "e", "k", "sched_next"]
        assert all(fields[name] == kinds[kind] for name, kind in table)
        lib = _kernel.load()
        if lib:
            members = {name for name, v in vars(lib.Context).items()
                       if isinstance(v, MemberDescriptorType)}
            assert members == {name for name, _ in table}
            ctx = lib.Context(**context_cases()[0][2])
            for name in members:
                with pytest.raises(AttributeError, match="readonly"):
                    setattr(ctx, name, getattr(ctx, name))

    def test_the_entry_points_match_the_source(self):
        # the Context type's method table names run, a METH_FASTCALL call of
        # cm_run on the context with the chunk's limit and next probe, and
        # total_w, a METH_NOARGS call of cm_total_w; the module's names
        # metrics and graph, METH_VARARGS calls of cm_metrics and cm_graph on
        # the buffers they are given; the module's init function is the one
        # function the build exports, and the module holds Context, metrics
        # and graph
        source = re.sub(r"/\*.*?\*/", "", _kernel._SOURCE.read_text(), flags=re.S)
        defined = re.findall(r"^(?!static\b)(\w+)\s+(\w+)\(([^)]*)\)\s*\{", source, re.M)
        assert defined == [("PyMODINIT_FUNC", "PyInit__kernel_c", "void")]
        table = re.findall(r'^\s*\{"(\w+)", (?:\(PyCFunction\)\(void \(\*\)\(void\)\))?'
                           r'(\w+), (\w+),', source, re.M)
        methods = {"run": ("struct cm_ctx *c, int64_t limit, double next_probe",
                           "cm_run(c, limit, next_probe)"),
                   "total_w": ("struct cm_ctx *c", "cm_total_w(c)")}
        assert table == [("run", "context_run", "METH_FASTCALL"),
                         ("total_w", "context_total_w", "METH_NOARGS"),
                         ("metrics", "metrics", "METH_VARARGS"), ("graph", "graph", "METH_VARARGS")]
        assert "PyModule_AddType(m, &ContextType)" in source
        for name, (params, call) in methods.items():
            body = re.search(rf"^static PyObject \*context_{name}\(PyObject \*self, [^\n]*\)\n"
                             rf"\{{(.*?)^\}}", source, re.S | re.M)
            assert call in body.group(1)
            assert re.search(rf"^static \w+ cm_{name}\({re.escape(params)}\)$", source, re.M)
        calls = {"metrics": "cm_metrics(edges.buf, m, start.buf, ids.buf, n,",
                 "graph": "cm_graph(edges.buf, m, n, start.buf, ids.buf)"}
        for name, call in calls.items():
            body = re.search(rf"^static PyObject \*{name}\(PyObject \*Py_UNUSED\(module\), "
                             rf"PyObject \*args\)\n\{{(.*?)^\}}", source, re.S | re.M)
            assert call in body.group(1)
        lib = _kernel.load()
        if lib:
            assert sorted(n for n in vars(lib) if not n.startswith("__")) == [
                "Context", "graph", "metrics"]

    @needs_kernel
    @pytest.mark.parametrize("n,starts,ids", [(0, 1, 6), (2**32 + 1, 3, 6), (2, 4, 6),
                                              (2, 3, 5), (2, 3, 7)])
    def test_the_graph_entry_refuses_tables_of_the_wrong_size(self, n, starts, ids):
        # the C pass writes n + 1 starts and 2m ids: any other size is refused
        # before it runs
        edges = np.array([[0, 1], [1, 0], [0, 1]], dtype=np.int64)
        with pytest.raises(ValueError, match="graph needs int64 edges"):
            _kernel.load().graph(edges, n, np.empty(starts, dtype=np.int64),
                                 np.empty(ids, dtype=np.int64))
        with pytest.raises(ValueError, match="graph needs int64 edges"):
            _kernel.load().graph(edges.ravel()[:5], 2, np.empty(3, dtype=np.int64),
                                 np.empty(5, dtype=np.int64))

    @needs_kernel
    @pytest.mark.parametrize("values,opinions", [(3, True), (5, True), (4, False), (2, False)])
    def test_the_metrics_entry_refuses_buffers_of_the_wrong_size(self, values, opinions):
        # a 4-path: 4 opinions or 3 gaps, 5 starts, 6 ids; any other size is
        # refused before the pass reads past a buffer
        g = build_path(4)
        starts, ids = g.incidence
        lib = _kernel.load()
        assert lib.metrics(g.edge_array, starts, ids, np.zeros(4 if opinions else 3), True,
                           opinions) == (0.0, 0.0, 0, 2)
        with pytest.raises(ValueError, match="metrics needs int64 edges"):
            lib.metrics(g.edge_array, starts, ids, np.zeros(values), True, opinions)
        for bad in [(g.edge_array.ravel()[:5], starts, ids), (g.edge_array, starts[:0], ids),
                    (g.edge_array, starts, ids[:5])]:
            with pytest.raises(ValueError, match="metrics needs int64 edges"):
                lib.metrics(*bad, np.zeros(4), True, True)

    @needs_kernel
    def test_the_graph_entry_writes_only_writable_tables(self):
        edges = np.array([[0, 1]], dtype=np.int64)
        starts, ids = np.empty(3, dtype=np.int64), np.empty(2, dtype=np.int64)
        ids.setflags(write=False)
        with pytest.raises((TypeError, BufferError)):
            _kernel.load().graph(edges, 2, starts, ids)

    @needs_kernel
    def test_the_context_refuses_buffers_of_the_wrong_size(self):
        # the kernel reads and writes every array the context takes for as
        # long as it lives: any other size, a read-only array where it
        # writes, or a cursor, end or held edge out of range is refused
        # before an event runs, with every buffer taken released; a context
        # holds its buffers, so the opinions cannot be resized under it
        lib = _kernel.load()
        for name, good, kwargs in context_cases():
            opinions = kwargs["opinions"]
            try:
                ctx = lib.Context(**kwargs)
            except (ValueError, TypeError, BufferError):
                assert not good, name
            else:
                assert good, name
                with pytest.raises(BufferError):
                    opinions.append(0.0)
                # the schedule holds 3 events; from its cursor, 2 and the held one
                assert ctx.run(5, math.inf) == (5 if "generator" in name else 3), name
                del ctx
            if isinstance(opinions, array.array):
                opinions.append(0.0)  # no buffer of it is held any more

    @needs_kernel
    @pytest.mark.parametrize("source", ["generator", "schedule"])
    def test_a_limit_below_one_applies_nothing(self, source):
        # a chunk applies at most limit events: below 1 none, not even a held
        # one, which stays held, with the clock, count, opinions and source
        # as they were, until a chunk with room applies it
        kwargs = next(kw for name, _, kw in context_cases() if name == source)
        ctx = _kernel.load().Context(**kwargs)
        assert ctx.run(1, 0.0) == 0 and ctx.drawn  # the first event is past 0.0
        held = (ctx.t, ctx.e, ctx.k)
        before = (bits(kwargs["opinions"]), bytes(kwargs.get("mt", b"")), ctx.sched_next)
        for limit in (0, -1, -2**63):
            assert ctx.run(limit, math.inf) == 0, limit
            assert (ctx.drawn, (ctx.t, ctx.e, ctx.k), ctx.clock, ctx.count) == (1, held, 0.0, 0)
            assert (bits(kwargs["opinions"]), bytes(kwargs.get("mt", b"")),
                    ctx.sched_next) == before
        assert ctx.run(1, math.inf) == 1
        assert (ctx.drawn, ctx.clock, ctx.count) == (0, held[0], 1)

    @needs_kernel
    def test_a_context_in_a_cycle_with_its_opinions_is_collected(self):
        # an array that holds the context's total_w while the context holds
        # its buffer is a cycle, which the collector finds
        kwargs = context_cases()[0][2]
        buf = kwargs["opinions"] = type("Held", (array.array,), {})("d", kwargs["opinions"])
        buf.total_w = _kernel.load().Context(**kwargs).total_w
        gone = weakref.ref(buf)
        del buf, kwargs
        gc.collect()
        assert gone() is None

    @pytest.mark.parametrize("g,tracked", [(build_ring(9), True), (build_torus([6, 6]), False)],
                             ids=["ring, tracker", "torus, W test"])
    def test_the_kernel_reads_the_graph_tables_without_copies(self, g, tracked):
        # the context takes the buffers of the graph's own int64 tables
        if _kernel.load() is None:
            pytest.skip("no compiled kernel")
        handed = []

        def seen(own, cls, *args, **kwargs):
            handed.append(args[:3])
            return own(cls, *args, **kwargs)

        state = new_simulation(g, IidUniform(4), ModelParams(mu=0.25), stream=6)
        observers = [DifferenceTracker(state, with_xi=True)] if tracked else []
        with wrapped_context(__new__=seen):
            run(state, stop=StopRule(max_events=500, w_below=1e-9, w_check_interval=2),
                observers=observers)
        starts, ids = g.incidence
        for table in (g.edge_array, starts, ids):
            assert table.dtype == np.int64 and table.flags.c_contiguous
        assert len(handed) == 1
        assert all(a is b for a, b in zip(handed[0], (g.edge_array, starts, ids), strict=True))

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
        # kernel_calls tries the build first, inside the check for its warning
        with pytest.warns(RuntimeWarning, match="using the Python loop"), \
                kernel_calls() as calls:
            got = go()
        assert _kernel.load() is None and calls == []
        assert got == want

    def test_the_build_name_hashes_the_interpreter(self, tmp_path, monkeypatch):
        # no interpreter loads a build made against another's headers or ABI
        suffix = sysconfig.get_config_var("EXT_SUFFIX")
        built = _kernel._target(str(tmp_path))
        assert built.parent == tmp_path / "compassmodel" and built.name.endswith(suffix)
        with monkeypatch.context() as patched:
            patched.setattr(_kernel, "_includes", lambda: [f"-I{tmp_path}"])
            other_headers = _kernel._target(str(tmp_path))
        get = sysconfig.get_config_var
        monkeypatch.setattr(sysconfig, "get_config_var",
                            lambda name: ".cpython-399-other.so" if name == "EXT_SUFFIX"
                            else get(name))
        other_abi = _kernel._target(str(tmp_path))
        assert other_abi.name.endswith(".cpython-399-other.so")
        # "_kernel-<tag>", the name before the suffix
        tags = {path.name.split(".")[0] for path in (built, other_headers, other_abi)}
        assert len(tags) == 3

    def test_a_build_without_python_h_falls_back_to_the_python_loop(self, tmp_path,
                                                                      monkeypatch):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on PATH: the build is not tried")
        g = build_torus([6, 6])

        def payload():
            state = new_simulation(g, IidUniform(3), ModelParams(mu=0.3), stream=4)
            rec = run(state, stop=StopRule(max_events=3000, w_below=1e-3, w_check_interval=7),
                      probes=(0.5, 2.0))
            out = json.loads(rec.to_json(include_opinions=True))
            del out["metadata"]
            return json.dumps(out), state.stream.rng.getstate()

        with_kernel = payload()
        monkeypatch.setattr(_kernel, "_lib", False)
        want = payload()
        # headers from an empty directory, built into a fresh cache
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(_kernel, "_includes", lambda: [f"-I{tmp_path}"])
        monkeypatch.setattr(_kernel, "_lib", None)
        # kernel_calls tries the build first, inside the check for its warning
        with pytest.warns(RuntimeWarning, match="using the Python loop.*Python.h"), \
                kernel_calls() as calls:
            got = payload()
        assert _kernel.load() is None and calls == []
        assert got == want == with_kernel
        assert not list((tmp_path / "cache" / "compassmodel").iterdir())

    @needs_kernel
    def test_a_w_test_that_sums_costs_one_call_into_the_kernel(self):
        # a 50-ring keeps W below any window's gate: every test sums, and the
        # chunk after it is one call of the context's run, with no min() per
        # test (the run's start calls it once)
        calls = SimpleNamespace(run=0, total_w=0, min=0)
        total_w = engine._total_w

        def counted_run(own, ctx, *args):
            calls.run += 1
            return own(ctx, *args)

        def counted_total_w(state):
            calls.total_w += 1
            return total_w(state)

        def counted_min(*args):
            calls.min += 1
            return min(*args)

        state = new_simulation(build_ring(50), IidUniform(1), ModelParams(), stream=1)
        with wrapped_context(run=counted_run), \
                mock.patch.object(engine, "_total_w", counted_total_w), \
                mock.patch.object(engine, "min", counted_min, create=True):
            rec = run(state, stop=StopRule(max_events=20_000, w_below=1e-300))
        assert (rec.stop_reason, rec.events_applied) == ("max_events", 20_000)
        assert calls == SimpleNamespace(run=200, total_w=200, min=1)

    def test_the_kernel_runs_clean_under_ubsan(self, tmp_path):
        # under AddressSanitizer and UBSan together: a read or write past a
        # buffer, a use after free, or undefined behaviour (an overflow, a
        # shift past the width) aborts the subprocess, naming the line. The
        # interpreter does not link ASan's runtime, so it is preloaded
        gcc = shutil.which("gcc")
        if gcc is None:
            pytest.skip("no gcc on PATH")
        runtime = subprocess.run([gcc, "-print-file-name=libasan.so"], capture_output=True,
                                 text=True, timeout=60).stdout.strip()
        if not os.path.isabs(runtime):
            pytest.skip("no libasan runtime")
        lib = tmp_path / "_kernel-asan.so"
        built = subprocess.run([gcc, "-O1", "-g", "-fno-omit-frame-pointer", "-ffp-contract=off",
                                "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
                                "-fPIC", "-shared", *_kernel._includes(), "-o", str(lib),
                                str(_kernel._SOURCE), "-lm"],
                               capture_output=True, text=True, timeout=120)
        if built.returncode != 0 and "ubsan" in built.stderr:
            pytest.skip(f"no libubsan to link: {built.stderr.strip()}")
        assert built.returncode == 0, built.stderr
        src = str(Path(engine.__file__).parents[1])
        env = {**os.environ, "LD_PRELOAD": runtime, "ASAN_OPTIONS": "detect_leaks=0",
               "PYTHONPATH": os.pathsep.join(
                   [src, str(Path(__file__).parent),
                    *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-c", UBSAN_CHECK, str(lib)], env=env,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr[-3000:]
        assert done.stdout.split() == ["ok", "64", "6", "5", "12", "29"]


# pairs of opinions whose distance is exactly 1 (antipodal), nextafter(1, +inf),
# nextafter(1, -inf), +0.0 from signed zeros, and 0
W_PAIRS = {"circle": [(0.5, -0.5), (0.0, 1.0), (-0.75, 0.25), (1.0, -2.0**-52),
                      (1.0, 2.0**-53), (0.0, -0.0), (-0.0, 0.0), (0.3, 0.3)],
           "interval": [(0.0, 1.0), (1.0, 2.0**-53), (0.0, -0.0), (-0.0, 0.0), (0.5, 0.5)]}


def traced_total_w():
    """Wrap `engine._total_w`: each call logs what it summed (a state, or a
    kernel run's context) and the hex of the sum."""
    seen = []
    total_w = engine._total_w

    def traced(source):
        got = total_w(source)
        seen.append((source, got.hex()))
        return got

    return seen, mock.patch.object(engine, "_total_w", traced)


def context_of(lib, g, ops, space):
    """A kernel Context over the opinions ops of the graph g."""
    words = array.array("I", random.Random(1).getstate()[1])
    return lib.Context(g.edge_array, *g.incidence, array.array("d", ops), 0.5, math.inf,
                       space == "circle", 0.0, 0, math.inf, mt=words)


class TestKernelW:
    """A kernel run's W test takes a lower bound on W from its context's
    opinions in C, as the Python loop takes it from the state's."""

    @needs_kernel
    @pytest.mark.parametrize("start", ["uniform", "after a run", "around 1"])
    @pytest.mark.parametrize("space", ["circle", "interval"])
    def test_total_w_on_a_64x64_torus_is_the_python_loops(self, start, space):
        g = build_torus([64, 64])  # 8,192 edges
        ops = initial_opinions(IidUniform(7), g.vertex_count)
        if space == "interval":
            ops = [abs(v) for v in ops]
        if start == "after a run":
            state = fresh(g, ops, mu=0.3, space=space, stream=7)
            run(state, stop=StopRule(max_events=40_000))
            ops = state.opinions
        elif start == "around 1":
            # distances of exactly 1, and a rounding either side of it, on
            # the row edge of every other vertex: edges with no end in common
            for v in range(0, g.vertex_count, 2):
                a, b = g.edges[2 * v + 1]
                ops[a], ops[b] = W_PAIRS[space][v // 2 % len(W_PAIRS[space])]
        ctx = context_of(_kernel.load(), g, ops, space)
        distances = [abs(ops[a] - ops[b]) for a, b in g.edges]
        assert space == "interval" or min(distances) < 1.0 < max(distances)
        assert start != "around 1" or 1.0 in distances
        want = engine._total_w(SimState(g, space, ModelParams(), list(ops)))
        assert ctx.total_w().hex() == want.hex()

    @pytest.mark.parametrize("loop", LOOPS)
    @given(case=starts(), tiny=st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from(
        [(2.0**-1074, 0.0), (2.0**-1022, 3 * 2.0**-1074)])), max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_total_w_is_a_close_lower_bound_on_w(self, loop, case, tiny):
        # the twin machine's starts (edges at distance 0, 1 and an ulp off
        # it), with subnormal distances planted; lo is below W by at most
        # about twice the rounding it allows for
        lib = loop_lib(loop)
        g, space, ops = case[:3]
        m = g.edge_count
        for e, pair in tiny:
            a, b = g.edges[e % m]
            ops[a], ops[b] = pair
        lo = engine._total_w(SimState(g, space, ModelParams(), list(ops)))
        if lib:
            got = context_of(lib, g, ops, space).total_w()
            assert got.hex() == lo.hex()
            lo = got
        w = compute_metrics(g, ops, space).W
        assert lo <= w
        assert w - lo <= (m + 8) * 2.0**-52 * w + m * 2.0**-51

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
        # each sum is the run's context's, in C
        assert all(isinstance(source, _kernel.load().Context) for source, _ in seen)
        # the sum reads edge_array in C, not the Python loop's tuple view
        assert not TUPLE_TABLES & set(vars(g))


class TestInterruptedChunk:
    """A KeyboardInterrupt that lands as a kernel chunk returns, where the
    default SIGINT handler raises it: the state keeps the events the chunk
    applied, and resumes to the uninterrupted run's bytes."""

    @staticmethod
    def go(lib, budget, probes, tracked, interrupt_at=None, chunk=None):
        """A 12-ring run to budget, interrupted as the kernel's call number
        interrupt_at returns, if given; the state and the tracker."""
        init = [0.5 * math.cos(3 * i) for i in range(12)]
        state = fresh(build_ring(12), init, mu=0.3, stream=5)
        observers = [DifferenceTracker(state, with_xi=True)] if tracked else []
        calls = []

        def interrupted(own, ctx, *args):
            done = own(ctx, *args)
            calls.append(done)
            if len(calls) == interrupt_at:
                raise KeyboardInterrupt
            return done

        with mock.patch.object(_kernel, "_lib", lib), \
                mock.patch.object(engine, "_CHUNK", chunk or engine._CHUNK):
            if interrupt_at is None:
                run(state, stop=StopRule(max_events=budget), probes=probes, observers=observers)
            else:
                with wrapped_context(run=interrupted), pytest.raises(KeyboardInterrupt):
                    run(state, stop=StopRule(max_events=budget), probes=probes,
                        observers=observers)
                assert len(calls) == interrupt_at
        return state, observers

    @staticmethod
    def end(state, observers):
        return (bits(state.opinions), state.clock, state.pending, state.events_applied,
                state.stream.rng.getstate(),
                [(bits(obs.delta.values), bits(obs.xi.values)) for obs in observers])

    @needs_kernel
    @pytest.mark.parametrize("case", ["capped at _CHUNK", "ends at a probe", "tracked"])
    def test_an_interrupted_chunk_keeps_its_events(self, case):
        lib = _kernel.load()
        budget = 1000
        capped = case == "capped at _CHUNK"
        probes = () if capped else (0.5, 2.0, 4.0)
        chunk = 64 if capped else None
        tracked = case == "tracked"
        state, observers = self.go(lib, budget, probes, tracked, interrupt_at=3, chunk=chunk)
        events = state.events_applied
        if capped:
            assert (events, state.pending) == (3 * 64, None)
        else:
            # the third chunk applied the event held past 2.0, and ended past 4.0
            assert state.pending is not None and state.pending.time > 4.0
        # the Python loop to the same count, and the event the chunk holds
        ref, ref_observers = self.go(False, events, probes, tracked)
        if state.pending is not None:
            ref.pending = ref.stream.next_event(ref)
        assert self.end(state, observers) == self.end(ref, ref_observers)
        # resumed, it gives the uninterrupted run's bytes
        with mock.patch.object(engine, "_CHUNK", chunk or engine._CHUNK):
            run(state, stop=StopRule(max_events=budget), probes=probes, observers=observers)
        assert self.end(state, observers) == \
            self.end(*self.go(lib, budget, probes, tracked, chunk=chunk))

    @needs_kernel
    def test_an_interrupt_as_the_context_is_built_loses_nothing(self):
        # the context has taken the opinions and the parked event when the
        # interrupt lands: the run hands both back
        init = [0.5 * math.cos(3 * i) for i in range(12)]
        state = fresh(build_ring(12), init, mu=0.3, stream=5)
        run(state, stop=StopRule(max_time=1.0))
        caller, parked = state.opinions, state.pending
        before = (bits(caller), state.clock, state.events_applied, state.stream.rng.getstate())
        build = _kernel.Chunks.__init__

        def interrupted(self, *args, **kwargs):
            build(self, *args, **kwargs)
            raise KeyboardInterrupt

        with mock.patch.object(_kernel.Chunks, "__init__", interrupted), \
                pytest.raises(KeyboardInterrupt):
            run(state, stop=StopRule(max_events=100))
        assert state.opinions is caller and state.pending == parked
        assert (bits(caller), state.clock, state.events_applied,
                state.stream.rng.getstate()) == before


@st.composite
def fsum_terms(draw):
    """Signed gaps whose magnitudes W sums exactly: 0 to 1e4 of them,
    spread over 300 decades or over the 1,074 binades below 1 (subnormals
    included), in clusters at 1, 2**-53, 2**-54 and 3 * 2**-54 (an ulp
    either side, where the roundings of a running sum are ties) or at the
    subnormal edge 2**-1022, or zeros of both signs; or a short list
    hypothesis can shrink."""
    if draw(st.booleans()):
        return draw(st.lists(st.floats(-1e150, 1e150) | st.sampled_from(
            [1.0, -1.0, 2.0**-53, -2.0**-53, 2.0**-54, 3 * 2.0**-54, 0.0, -0.0, 2.0**-1074,
             2.0**-1022, 2.0**-1022 - 2.0**-1074]), max_size=30))
    m = draw(st.sampled_from([0, 1, 2, 3, 51_200 // 8]) | st.integers(0, 10_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    edges = np.array([1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53])
    kinds = {
        "decades": rng.uniform(0.0, 1.0, m) * 10.0 ** rng.uniform(-150.0, 150.0, m),
        "binades": rng.uniform(1.0, 2.0, m) * 2.0 ** rng.integers(-1075, 0, m).astype(float),
        "clusters": rng.choice([1.0, 2.0**-53, 2.0**-54, 3 * 2.0**-54], m) * rng.choice(edges, m),
        "subnormal edge": rng.choice([2.0**-1022, 2.0**-1074, 2.0**-1023], m)
        * rng.choice(edges, m),
        "zeros": np.zeros(m),
        "unit": rng.uniform(0.0, 1.0, m),
    }
    mix = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, unique=True))
    terms = np.choose(rng.integers(len(mix), size=m), [kinds[k] for k in mix])
    return (terms * rng.choice([1.0, -1.0], m)).tolist()


def gap_path(m):
    """A graph of m edges, to carry m given gaps."""
    return build_path(m + 1) if m else Graph("custom", 1, ())


def outcome(f, *args):
    """f's value as its hex, or its exception's type and message."""
    try:
        return f(*args).hex()
    except Exception as exc:
        return type(exc), str(exc)


MAX = sys.float_info.max


class TestFsum:
    """W in C, `math.fsum` of the |gap|s, against `math.fsum`."""

    @needs_kernel
    @given(fsum_terms())
    @example([1e-16, 1.0, 1e16])  # half-even across partials: 1e16 + 2, not 1e16
    @example([1.0, 2.0**-53, 2.0**-53])  # left to right, each tie rounds back to 1
    @example([-0.0, -0.0])
    @settings(max_examples=500, deadline=None)
    def test_the_c_sum_is_math_fsum_bit_for_bit(self, terms):
        want = math.fsum(abs(t) for t in terms).hex()
        # finite gaps under 1e150 cannot overflow: C answers alone
        found = _kernel.metrics(gap_path(len(terms)), None, True,
                                np.array(terms, dtype=np.float64))
        assert found is not None and found[0].hex() == want

    @needs_kernel
    @given(st.lists(st.sampled_from([MAX, MAX / 2, 2.0**1023, 2.0**970, 2.0**969, 2.0**969
                                     + 2.0**917, 1.0]) | st.floats(0.0, MAX), max_size=6))
    @example([MAX, 2.0**970])  # a tie past DBL_MAX rounds to 2**1024: fsum overflows
    @example([MAX, 2.0**969, 2.0**969])
    @example([MAX, 2.0**969, 1.0])  # just under the tie: DBL_MAX
    @settings(max_examples=300, deadline=None)
    def test_near_dbl_max_the_c_sum_is_math_fsum_or_left_to_numpy(self, terms):
        # C answers only with math.fsum's value, and never where fsum overflows
        try:
            want = math.fsum(terms).hex()
        except OverflowError:
            want = None
        found = _kernel.metrics(gap_path(len(terms)), None, True,
                                np.array(terms, dtype=np.float64))
        assert found is None or found[0].hex() == want
        assert want is not None or found is None

    @pytest.mark.parametrize("lib", ["kernel", "numpy"])
    @pytest.mark.parametrize("terms,want", [
        ([math.nan], "nan"),
        ([1.0, math.nan, -1.0], "nan"),
        ([math.inf, 1.0], "inf"),
        ([1.0, -math.inf, MAX], "inf"),
        ([math.inf, math.nan], "nan"),
        ([MAX, MAX], OverflowError),
        ([-MAX, 1.0, -MAX], OverflowError),
        ([MAX, 0.5], "max"),
    ])
    def test_special_terms_behave_as_under_math_fsum(self, terms, want, lib):
        g = gap_path(len(terms))

        def w(gaps):
            return compute_metrics(g, [0.0] * g.vertex_count, delta_values=gaps).W

        with mock.patch.object(_kernel, "_lib", _kernel.load() if lib == "kernel" else False):
            got = outcome(w, terms)
        assert got == outcome(math.fsum, [abs(t) for t in terms])
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
        assert set(callers) == {"compassmodel.analysis"}


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


class TestScriptedKernel:
    """Scripted runs replayed in the compiled kernel against the Python loop."""

    @pytest.mark.parametrize("loop", LOOPS)
    @pytest.mark.parametrize("cursor", [-1, 3, 1.5])
    def test_a_cursor_outside_the_schedule_is_refused(self, cursor, loop):
        state = fresh(build_path(3), [0.2, 0.6, -0.9],
                      stream=ScriptedStream([(1.0, 0), (2.0, 1)]))
        state.stream.cursor = cursor
        before = (list(state.opinions), state.clock, state.events_applied)
        with mock.patch.object(_kernel, "_lib", loop_lib(loop)), \
                pytest.raises(ValueError, match=re.escape(f"cursor {cursor!r} out of range")):
            run(state)
        assert (state.opinions, state.clock, state.events_applied) == before

    @pytest.mark.parametrize("loop", LOOPS)
    @pytest.mark.parametrize("cursor", [1.0, np.int64(1)])
    def test_a_whole_number_cursor_runs_as_an_int(self, cursor, loop):
        def go(at):
            state = fresh(build_path(3), [0.2, 0.6, -0.9],
                          stream=ScriptedStream([(1.0, 0), (2.0, 1), (3.0, 0)]))
            state.stream.cursor = at
            with mock.patch.object(_kernel, "_lib", loop_lib(loop)):
                rec = run(state)
            return rec.events_applied, bits(state.opinions), state.clock, state.stream.cursor

        assert go(cursor) == go(1) == (2, *go(1)[1:3], 3)
        assert type(go(cursor)[-1]) is int


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

    def test_a_pending_event_at_infinity_is_refused(self):
        # by the rule apply_event and run apply, worded for the snapshot
        state = fresh(build_path(3), [0.1, 0.5, -0.5], mu=0.3, stream=1)
        state.pending = Event(math.inf, 0, 1)
        with pytest.raises(SnapshotError, match=r"pending event .*: event at inf is not finite"):
            restore(snapshot(state))

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

    def test_a_scripted_stream_packs_as_it_did_event_by_event(self):
        # the butterfly's 20,030 events, written as one block of 13-byte
        # records, are the bytes of one struct.pack("<dIB") per event
        g, events, base, _ = butterfly_scenario(10)
        assert len(events) == 20_030
        state = fresh(g, base, stream=ScriptedStream(events, cursor=4321))
        run(state, stop=StopRule(max_events=1234))
        blob = snapshot(state)
        stream = state.stream
        tail = struct.pack("<B", 2) + struct.pack("<II", len(stream.events), stream.cursor)
        for e in stream.events:
            tail += struct.pack("<dIB", e.time, e.edge_id, e.tie)
        assert blob.endswith(tail) and len(tail) == 9 + 13 * 20_030
        back = restore(blob)
        assert (back.stream.events, back.stream.cursor) == (stream.events, 4321 + 1234)
        assert snapshot(back) == blob

    def test_a_scripted_stream_size_is_checked_before_it_is_read(self):
        # 2**32 - 1 records would be 56 GB: refused before any is read
        state = fresh(build_path(3), [0.1, 0.5, -0.5],
                      stream=ScriptedStream([(1.0, 0), (2.0, 1, 2)]))
        blob = bytearray(snapshot(state))
        at = len(blob) - 2 * 13 - 8
        assert struct.unpack_from("<II", blob, at) == (2, 0)
        struct.pack_into("<I", blob, at, 2**32 - 1)
        with pytest.raises(SnapshotError, match="truncated"):
            restore(bytes(blob))

    @pytest.mark.parametrize("edit,message", [
        ({"tie": 3}, "event 1 has tie 3, must be 1 or 2"),
        ({"time": math.nan}, "event 1 has time nan, must be finite"),
        ({"time": 0.5}, "scripted times must be strictly increasing, events 0 and 1 have "
                        "times 1.0 and 0.5"),
    ])
    def test_a_bad_scripted_record_is_a_snapshot_error(self, edit, message):
        state = fresh(build_path(3), [0.1, 0.5, -0.5],
                      stream=ScriptedStream([(1.0, 0), (2.0, 1, 2)]))
        blob = bytearray(snapshot(state))
        fields = {"time": 2.0, "edge_id": 1, "tie": 2, **edit}
        struct.pack_into("<dIB", blob, len(blob) - 13, *fields.values())
        with pytest.raises(SnapshotError) as got:
            restore(bytes(blob))
        assert str(got.value) == f"snapshot does not decode: {message}"

    @pytest.mark.parametrize("edge", [-1, 2**32])
    def test_an_edge_id_a_snapshot_cannot_hold_is_refused(self, edge):
        state = fresh(build_path(3), [0.1, 0.5, -0.5],
                      stream=ScriptedStream([(1.0, 0), (2.0, edge)]))
        with pytest.raises(SnapshotError, match=f"cannot snapshot edge id {edge}"):
            snapshot(state)

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
        # a scripted schedule is read as one block of records
        path = fresh(build_path(4), [0.1, 0.5, -0.5, 0.9],
                     stream=ScriptedStream([(0.5 * i, i % 3, 1 + i % 2) for i in range(1, 9)]))
        run(path, stop=StopRule(max_time=2.2))  # parks a pending event
        return [snapshot(ring), snapshot(torus), snapshot(path)]

    @given(st.sampled_from([0, 1, 2]), st.lists(st.tuples(
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

    @pytest.mark.parametrize("master", [1.5, True, "1", None])
    def test_a_master_that_is_not_an_int_is_refused(self, master):
        # 1.5, True and "1" used to be taken as 1
        with pytest.raises(TypeError, match="master seeds must be integers"):
            derive_seed(master, "x")

    def test_fits_in_64_bits(self):
        for i in range(20):
            assert 0 <= derive_seed(1, i) < 2**64
