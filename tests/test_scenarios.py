import math
import random

import pytest

from compassmodel import (ComparisonResult, Explicit, ModelParams, ScriptedStream,
                          UniformityReport, apply_event_delta, apply_event_xi,
                          build_path, build_ring, butterfly_scenario, circle_dist,
                          delta_from_config, flatten_schedule, new_simulation, run,
                          run_butterfly, run_comparison, run_signflip,
                          signflip_vertex_count, xi_from_values)


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
