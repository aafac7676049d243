import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compassmodel import (ComparisonResult, DeltaState, Event, Explicit, ModelParams,
                          ScriptedStream, SignFlipResult, UniformityReport,
                          apply_event_delta, apply_event_xi, build_path, build_ring,
                          butterfly_scenario, circle_dist, delta_from_config,
                          flatten_schedule, new_simulation, run, run_butterfly,
                          run_comparison, run_signflip, signflip_scenario,
                          signflip_vertex_count, xi_from_values)


def flatten_by_events(g, ids, eps, params, start_time=0.0, time_step=1.0,
                      max_total_events=10_000_000):
    """flatten_schedule as an event-by-event loop: one Event and one
    `t += time_step` per scripted event. Returns (events, sweeps, xi_remaining)."""
    pos = {e: i for i, e in enumerate(ids)}
    nbrs = [[pos[f] for f, _ in g.edge_neighbors[e] if f in pos] for e in ids]
    mu = params.mu
    keep = 1.0 - 2.0 * mu
    xi = [1.0] * len(ids)
    total = float(len(ids))
    events = []
    t = start_time
    sweeps = 0
    while total > eps:
        if len(events) + len(ids) > max_total_events:
            raise RuntimeError("cap")
        sweeps += 1
        for i, e in enumerate(ids):
            c = xi[i]
            step = mu * c
            for j in nbrs[i]:
                xi[j] += step
            xi[i] = keep * c
            t += time_step
            events.append(Event(t, e, 1))
        total = math.fsum(xi)
    return events, sweeps, total


def butterfly_events_by_loop(n, params, alternations=200, flatten_eps=1e-9,
                             settle_eps=1e-10):
    """The butterfly's schedule built event by event, from flatten_by_events."""
    g = build_path(2 * n - 1)
    left, _, _ = flatten_by_events(g, list(range(0, n - 2)), flatten_eps, params)
    t = left[-1].time if left else 0.0
    right, _, _ = flatten_by_events(g, list(range(n, 2 * n - 2)), flatten_eps, params,
                                    start_time=t)
    t = right[-1].time if right else t
    events = left + right
    for i in range(alternations):
        t += 1.0
        events.append(Event(t, n - 2 if i % 2 == 0 else n - 1, 1))
    settle, _, _ = flatten_by_events(g, list(range(g.edge_count)), settle_eps, params,
                                     start_time=t)
    return events + settle


def signflip_by_full_scan(c, params):
    """run_signflip scanning every adjacent pair after every event."""
    g, delta, block, plan = signflip_scenario(c, params)
    control = DeltaState(g, [0.0] * g.edge_count)
    pairs = g.adjacent_edge_pairs
    first_flip = None
    control_flipped = False
    for idx, ev in enumerate(plan.events):
        apply_event_delta(delta, ev, params)
        apply_event_delta(control, ev, params)
        if first_flip is None:
            vals = delta.values
            if any(vals[i] * vals[j] < 0.0 for i, j in pairs):
                first_flip = idx
        if any(control.values[i] * control.values[j] < 0.0 for i, j in pairs):
            control_flipped = True
    return SignFlipResult(c=c, vertex_count=g.vertex_count, block_edges=block,
                          events_total=len(plan.events), first_flip_event=first_flip,
                          flipped=first_flip is not None, control_flipped=control_flipped,
                          terminal_values=tuple(delta.values))


def hexes(events):
    return [(ev.time.hex(), ev.edge_id, ev.tie) for ev in events]


class TestFlattenSchedule:
    def test_two_edge_example(self):
        plan = flatten_schedule(build_path(4), [0, 1], 0.5, ModelParams(mu=0.5))
        assert plan.xi_remaining <= 0.5
        assert plan.sweeps == 2
        assert len(plan.events) == 4

    def test_loose_target_gives_empty_plan(self):
        plan = flatten_schedule(build_path(4), [0, 1], 2.0, ModelParams(mu=0.5))
        assert plan.events == ()
        assert plan.sweeps == 0
        assert plan.xi_remaining == 2.0

    def test_eps_validation(self):
        with pytest.raises(ValueError, match="positive"):
            flatten_schedule(build_path(4), [0, 1], 0.0, ModelParams())

    @pytest.mark.parametrize("kwargs,message", [
        ({"eps": math.nan}, "eps must be positive"),
        ({"eps": -1e-9}, "eps must be positive"),
        ({"time_step": 0.0}, "time_step must be finite and positive"),
        ({"time_step": -1.0}, "time_step must be finite and positive"),
        ({"time_step": math.nan}, "time_step must be finite and positive"),
        ({"time_step": math.inf}, "time_step must be finite and positive"),
        ({"start_time": math.inf}, "start_time must be finite"),
        ({"start_time": -math.inf}, "start_time must be finite"),
        ({"start_time": math.nan}, "start_time must be finite"),
    ])
    def test_times_and_target_validation(self, kwargs, message):
        # each was taken: a NaN eps gave an empty plan, the others plans
        # whose times a ScriptedStream refuses
        args = {"eps": 1e-3, **kwargs}
        with pytest.raises(ValueError, match=message):
            flatten_schedule(build_path(6), [1, 2, 3], params=ModelParams(), **args)

    @pytest.mark.parametrize("start_time,time_step,stuck", [
        (1e17, 1.0, 1e17), (1.0, 1e-17, 1.0), (2.0**53 - 2, 1.0, 2.0**53)])
    def test_times_that_do_not_increase_are_refused(self, start_time, time_step, stuck):
        # a step too small to move the clock, from the start or once the
        # clock has grown: the plan gave times a ScriptedStream refuses
        message = f"time_step {time_step} does not advance the clock from {stuck}"
        with pytest.raises(ValueError, match=re.escape(message)):
            flatten_schedule(build_path(6), [1, 2, 3], 1e-3, ModelParams(),
                             start_time=start_time, time_step=time_step)

    @given(st.integers(min_value=2, max_value=12), st.data(),
           st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
           st.floats(min_value=1e-12, max_value=20.0),
           st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=300, deadline=None)
    def test_the_columns_are_the_event_loop(self, n, data, mu, eps, start_time, time_step):
        g = build_path(n)
        lo = data.draw(st.integers(min_value=0, max_value=g.edge_count - 1))
        hi = data.draw(st.integers(min_value=lo + 1, max_value=g.edge_count))
        ids = data.draw(st.permutations(list(range(lo, hi))))
        params = ModelParams(mu=mu)
        try:
            events, sweeps, xi = flatten_by_events(g, ids, eps, params, start_time,
                                                   time_step, max_total_events=20_000)
        except RuntimeError:
            with pytest.raises(RuntimeError, match="needs more than 20000 events"):
                flatten_schedule(g, ids, eps, params, start_time, time_step,
                                 max_total_events=20_000)
            return
        plan = flatten_schedule(g, ids, eps, params, start_time, time_step,
                                max_total_events=20_000)
        assert plan.times.dtype == "float64" and plan.event_edges.dtype == "int64"
        assert [t.hex() for t in plan.times.tolist()] == [ev.time.hex() for ev in events]
        assert plan.event_edges.tolist() == [ev.edge_id for ev in events]
        assert plan.edge_ids == tuple(ids)
        assert plan.sweeps == sweeps
        assert plan.xi_remaining.hex() == xi.hex()
        assert plan.events == tuple(events)

    def test_segment_validation(self):
        g = build_path(6)
        with pytest.raises(ValueError, match="empty"):
            flatten_schedule(g, [], 0.1, ModelParams())
        with pytest.raises(ValueError, match="repeats"):
            flatten_schedule(g, [1, 1], 0.1, ModelParams())
        with pytest.raises(ValueError, match="out of range"):
            flatten_schedule(g, [9], 0.1, ModelParams())
        with pytest.raises(ValueError, match="chain"):
            flatten_schedule(g, [0, 2], 0.1, ModelParams())

    def test_full_ring_refused(self):
        g = build_ring(5)
        with pytest.raises(ValueError, match="chain"):
            flatten_schedule(g, list(range(5)), 0.1, ModelParams())

    def test_replay_matches_reported_bound_mass(self):
        g = build_path(8)
        ids = [1, 2, 3, 4, 5]
        plan = flatten_schedule(g, ids, 1e-6, ModelParams(mu=0.5))
        x = xi_from_values(g)
        for ev in plan.events:
            apply_event_xi(x, ev, ModelParams(mu=0.5))
        seg_mass = math.fsum(x.values[e] for e in ids)
        assert seg_mass == plan.xi_remaining
        assert seg_mass <= 1e-6

    def test_pattern_depends_only_on_shape(self):
        pa = flatten_schedule(build_path(10), [2, 3, 4, 5], 1e-4,
                              ModelParams(mu=0.3))
        pb = flatten_schedule(build_path(20), [7, 8, 9, 10], 1e-4,
                              ModelParams(mu=0.3))
        assert pa.sweeps == pb.sweeps
        assert pa.xi_remaining == pb.xi_remaining
        assert [e.edge_id - 2 for e in pa.events] == \
               [e.edge_id - 7 for e in pb.events]

    def test_flattens_every_gap_profile(self):
        # the plan is built from bounds alone; domination makes it drain
        # arbitrary gap data below the same target
        g = build_path(8)
        ids = [1, 2, 3, 4, 5]
        p = ModelParams(mu=0.5)
        plan = flatten_schedule(g, ids, 1e-6, p)
        rng = random.Random(17)
        for _ in range(100):
            ops = [1.0 - 2.0 * rng.random() for _ in range(8)]
            d = delta_from_config(g, ops)
            for ev in plan.events:
                apply_event_delta(d, ev, p)
            assert math.fsum(abs(d.values[e]) for e in ids) <= 1e-6


class TestButterfly:
    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 3"):
            butterfly_scenario(2)

    def test_pair_shares_one_schedule(self):
        g, events, base, var = butterfly_scenario(5)
        assert g.vertex_count == len(base) == len(var) == 9
        assert all(0 <= ev.edge_id < g.edge_count for ev in events)
        assert [v for v in range(9) if base[v] != var[v]] == [4]
        assert base[4] != 1.0
        assert var[4] == 1.0

    def test_contract_at_n_ten(self):
        res = run_butterfly(10)
        assert res.passed
        assert res.distance >= 0.8
        # the construction lands on the predicted endpoints
        assert abs(res.limit_base) < 0.05
        assert circle_dist(res.limit_variant, 1.0) < 0.05

    # run_butterfly(n, deffuant_seed=7) as built event by event, in hex:
    # distance, limit_base, limit_variant, schedule_events, deffuant_shift,
    # deffuant_shift_exact, deffuant_gap
    @pytest.mark.parametrize("n,pinned", [
        (3, ("0x1.ffffffffffffep-1", "-0x1.7b80000000000p-79", "-0x1.ffffffffffffep-1", 434,
             "0x1.99999999999acp-4", "0x1.999999999999ap-4", "0x1.2000000000000p-52")),
        (5, ("0x1.0000000000000p+0", "-0x1.b1495ca300000p-57", "0x1.0000000000000p+0", 2008,
             "0x1.c71c71c71c770p-5", "0x1.c71c71c71c71cp-5", "0x1.5000000000000p-51")),
        (6, ("0x1.ffffffffffffep-1", "0x1.e1c5e26d00000p-55", "0x1.ffffffffffffep-1", 3684,
             "0x1.745d1745d16e0p-5", "0x1.745d1745d1746p-5", "0x1.9800000000000p-51")),
        (10, ("0x1.fffffffffffffp-1", "0x1.09b2236a10000p-54", "0x1.0000000000000p+0",
              20030, "0x1.af286bca1af40p-6", "0x1.af286bca1af28p-6",
              "0x1.8000000000000p-54")),
    ])
    def test_results_are_pinned(self, n, pinned):
        res = run_butterfly(n, deffuant_seed=7)
        assert res.n == n
        assert (res.distance.hex(), res.limit_base.hex(), res.limit_variant.hex(),
                res.schedule_events, res.deffuant_shift.hex(),
                res.deffuant_shift_exact.hex(), res.deffuant_gap.hex()) == pinned

    @pytest.mark.parametrize("n,alternations", [(3, 200), (5, 0), (5, 1), (6, 7)])
    def test_the_schedule_is_the_event_loop(self, n, alternations):
        _, events, _, _ = butterfly_scenario(n, alternations=alternations)
        assert hexes(events) == hexes(butterfly_events_by_loop(n, ModelParams(),
                                                               alternations))

    def test_counts_by_the_whole_number_rule(self):
        g, events, base, var = butterfly_scenario(4, alternations=6)
        assert butterfly_scenario(4.0, alternations=6.0) == (g, events, base, var)
        assert run_butterfly(4.0).n == 4
        with pytest.raises(ValueError, match="n must be a whole number, got 4.5"):
            butterfly_scenario(4.5)
        with pytest.raises(ValueError, match="alternations must be a whole number"):
            butterfly_scenario(4, alternations=2.5)
        with pytest.raises(ValueError, match="need alternations >= 0, got -4"):
            butterfly_scenario(4, alternations=-4)

    def test_interval_twin_shift_is_conservation_exact(self):
        res = run_butterfly(6)
        assert res.deffuant_shift_exact == (1.0 - 0.5) / 11.0
        assert res.deffuant_gap < 1e-9

    def test_identical_inits_stay_coupled(self):
        g, events, base, _ = butterfly_scenario(5)
        rec1, rec2 = (run(new_simulation(g, Explicit(base), stream=ScriptedStream(events)))
                      for _ in range(2))
        assert rec1.final_opinions == rec2.final_opinions
        assert circle_dist(rec1.terminal["L"], rec2.terminal["L"]) == 0.0


class TestSignFlip:
    def test_vertex_count_formula(self):
        assert signflip_vertex_count(0.5) == 45
        assert signflip_vertex_count(0.25) == 153
        assert signflip_vertex_count(1.0) == 15

    def test_bad_concentration_rejected(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="0 < c <= 1"):
                signflip_vertex_count(bad)
        with pytest.raises(ValueError, match="0 < c <= 1"):
            run_signflip(0.0)

    def test_flip_appears_and_control_stays_clean(self):
        res = run_signflip(0.5)
        assert res.passed
        assert res.flipped
        assert not res.control_flipped
        assert res.first_flip_event is not None
        assert res.first_flip_event < res.events_total
        assert res.vertex_count == 45

    def test_flip_at_quarter_mu(self):
        res = run_signflip(0.5, ModelParams(mu=0.25))
        assert res.flipped
        assert not res.control_flipped

    @pytest.mark.parametrize("c", [0.5, 0.25, 0.2])
    def test_the_local_check_is_the_full_scan(self, c):
        params = ModelParams()
        assert run_signflip(c, params) == signflip_by_full_scan(c, params)

    def test_terminal_has_a_negative_entry_next_to_a_positive(self):
        res = run_signflip(0.5)
        vals = res.terminal_values
        assert any(vals[i] * vals[i + 1] < 0.0 for i in range(len(vals) - 1))


class TestComparison:
    def test_small_path_limits_uniform(self):
        res = run_comparison(5, seed=2024, replicates=100)
        assert res.passed
        assert res.compass_unconverged == 0
        assert res.compass_ks.pvalue > 0.01
        assert res.deffuant_conservation_worst < 1e-12
        assert len(res.compass_limits) == 100
        for v in res.compass_limits:
            assert -1.0 < v <= 1.0

    def test_deterministic_in_the_master_seed(self):
        a = run_comparison(5, seed=9, replicates=20)
        b = run_comparison(5, seed=9, replicates=20)
        assert a.compass_limits == b.compass_limits
        assert a.deffuant_limits == b.deffuant_limits

    def test_interval_spread_matches_the_law_midsize(self):
        res = run_comparison(20, seed=55, replicates=60)
        expected = math.sqrt(1.0 / (12.0 * 20))
        assert res.deffuant_sd == pytest.approx(expected, rel=0.15)
        assert res.compass_ks.pvalue > 0.01

    def test_interval_spread_matches_the_law_large(self):
        # the slow one: a hundred-vertex path per replicate
        res = run_comparison(100, seed=77, replicates=30)
        expected = math.sqrt(1.0 / (12.0 * 100))
        assert res.deffuant_sd == pytest.approx(expected, rel=0.15)
        assert res.compass_ks.pvalue > 0.01
        assert res.compass_unconverged == 0

    @pytest.mark.parametrize("pvalue,unconverged,passed", [
        (0.5, 0, True), (0.01, 0, False), (0.5, 1, False)])
    def test_passed_needs_uniform_limits_and_no_unconverged_run(self, pvalue,
                                                                unconverged, passed):
        res = ComparisonResult(n=5, replicates=3, deffuant_limits=(), compass_limits=(),
                               deffuant_sd=None, deffuant_conservation_worst=0.0,
                               compass_ks=UniformityReport(0.1, pvalue, 3, "exact"),
                               compass_unconverged=unconverged)
        assert res.passed is passed
