import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compassmodel import (DifferenceTracker, Event, Explicit, ModelParams,
                          ScriptedStream, StopRule, apply_event, apply_event_delta,
                          apply_event_xi, build_path, build_ring,
                          check_consistency, delta_from_config,
                          graph_from_edges, mod_s, new_simulation, run,
                          winding_sum, xi_from_values)
from compassmodel.difference import DeltaState

APPROX = dict(abs=1e-12)


class Noop:
    def apply_event(self, ev):
        pass

circle_values = st.floats(min_value=-1.0, max_value=1.0, exclude_min=True,
                          allow_nan=False)
mus = st.one_of(st.just(0.5), st.just(0.25),
                st.floats(min_value=1e-6, max_value=0.5, allow_nan=False))


def profile(n):
    return st.lists(circle_values, min_size=n, max_size=n)


class TestDeltaFromConfig:
    def test_two_vertex_example(self):
        g = build_path(2)
        d = delta_from_config(g, [0.8, -0.9])
        assert d.values[0] == pytest.approx(0.3, **APPROX)

    def test_constant_profile_all_zero(self):
        g = build_ring(6)
        assert delta_from_config(g, [0.4] * 6).values == [0.0] * 6

    def test_three_ring_equally_spaced(self):
        g = build_ring(3)
        d = delta_from_config(g, [0.0, 2.0 / 3.0, -2.0 / 3.0])
        assert d.values == pytest.approx([2.0 / 3.0] * 3, **APPROX)
        assert winding_sum(d) == pytest.approx(2.0, **APPROX)

    def test_interval_space_rejected(self):
        with pytest.raises(ValueError, match="circle"):
            delta_from_config(build_path(3), [0.1, 0.2, 0.3], space="interval")

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="expected 3"):
            delta_from_config(build_path(3), [0.1, 0.2])

    @given(st.integers(min_value=2, max_value=20), st.data())
    @settings(max_examples=100)
    def test_entries_in_chart(self, n, data):
        ops = data.draw(profile(n))
        d = delta_from_config(build_path(n), ops)
        for v in d.values:
            assert -1.0 < v <= 1.0


class TestApplyEventDelta:
    def test_middle_edge_example(self):
        g = build_path(4)
        d = DeltaState(g, [0.4, 0.6, -0.2])
        apply_event_delta(d, Event(0.0, 1), ModelParams(mu=1.0 / 3.0))
        assert d.values == pytest.approx([0.6, 0.2, 0.0], **APPROX)

    def test_all_zero_stays_zero(self):
        g = build_path(4)
        d = DeltaState(g, [0.0, 0.0, 0.0])
        apply_event_delta(d, Event(0.0, 1), ModelParams(mu=0.25))
        assert d.values == [0.0, 0.0, 0.0]

    def test_tight_total_example(self):
        g = build_path(4)
        d = DeltaState(g, [0.1, 0.6, 0.1])
        apply_event_delta(d, Event(0.0, 1), ModelParams(mu=1.0 / 3.0))
        assert d.values == pytest.approx([0.3, 0.2, 0.3], **APPROX)
        assert math.fsum(abs(v) for v in d.values) == pytest.approx(0.8, **APPROX)

    def test_gate_blocks_large_gap(self):
        g = build_path(3)
        d = DeltaState(g, [0.9, 0.1])
        apply_event_delta(d, Event(0.0, 0), ModelParams(mu=0.25, theta=0.5))
        assert d.values == [0.9, 0.1]

    @given(circle_values, mus)
    def test_center_factor_exact(self, c, mu):
        g = build_path(2)
        d = DeltaState(g, [c])
        apply_event_delta(d, Event(0.0, 0), ModelParams(mu=mu))
        assert d.values[0] == (1.0 - 2.0 * mu) * c

    @given(st.integers(min_value=4, max_value=16), st.data(), mus,
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=120)
    def test_incident_sum_and_total_never_increase(self, n, data, mu, seed):
        import random
        g = data.draw(st.sampled_from([build_path(n), build_ring(n)]))
        ops = data.draw(profile(n))
        d = delta_from_config(g, ops)
        p = ModelParams(mu=mu)
        rng = random.Random(seed)
        for _ in range(40):
            e = rng.randrange(g.edge_count)
            near = [e] + [f for f, _ in g.edge_neighbors[e]]
            before_near = math.fsum(abs(d.values[f]) for f in near)
            before_w = math.fsum(abs(v) for v in d.values)
            apply_event_delta(d, Event(0.0, e), p)
            after_near = math.fsum(abs(d.values[f]) for f in near)
            after_w = math.fsum(abs(v) for v in d.values)
            assert after_near <= before_near + 1e-12
            assert after_w <= before_w + 1e-12


class TestApplyEventXi:
    def test_all_ones_example(self):
        g = build_path(3)
        x = xi_from_values(g)
        apply_event_xi(x, Event(0.0, 0), ModelParams(mu=1.0 / 3.0))
        assert x.values == pytest.approx([1.0 / 3.0, 4.0 / 3.0], **APPROX)

    def test_zero_stays_zero(self):
        g = build_path(3)
        x = xi_from_values(g, [0.0, 0.0])
        apply_event_xi(x, Event(0.0, 1), ModelParams(mu=0.25))
        assert x.values == [0.0, 0.0]

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            xi_from_values(build_path(3), [1.0, -0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_start_rejected(self, bad):
        # an infinite bound turns to NaN after one event at mu = 1/2
        with pytest.raises(ValueError, match="finite"):
            xi_from_values(build_path(3), [bad, 1.0])
        state = new_simulation(build_path(3), Explicit([0.0, 0.1, 0.2]), ModelParams())
        with pytest.raises(ValueError, match="finite"):
            DifferenceTracker(state, xi_values=[1.0, bad])

    @given(st.integers(min_value=3, max_value=12), mus,
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80)
    def test_stays_nonnegative(self, n, mu, seed):
        import random
        g = build_path(n)
        x = xi_from_values(g)
        p = ModelParams(mu=mu)
        rng = random.Random(seed)
        for _ in range(60):
            apply_event_xi(x, Event(0.0, rng.randrange(g.edge_count)), p)
        assert all(v >= 0.0 for v in x.values)


class TestWinding:
    def test_non_cycle_rejected(self):
        d = delta_from_config(build_path(4), [0.0, 0.2, 0.4, 0.6])
        with pytest.raises(ValueError, match="cycle"):
            winding_sum(d)

    def test_event_conserves_the_three_ring_example(self):
        g = build_ring(3)
        d = delta_from_config(g, [0.0, 2.0 / 3.0, -2.0 / 3.0])
        apply_event_delta(d, Event(0.0, 0), ModelParams(mu=1.0 / 3.0))
        assert d.values == pytest.approx([2.0 / 9.0, 8.0 / 9.0, 8.0 / 9.0], **APPROX)
        assert winding_sum(d) == pytest.approx(2.0, **APPROX)

    @given(st.integers(min_value=3, max_value=14), st.data(), mus,
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100)
    def test_even_integer_along_trajectories(self, n, data, mu, seed):
        import random
        g = build_ring(n)
        ops = data.draw(profile(n))
        d = delta_from_config(g, ops)
        p = ModelParams(mu=mu)
        rng = random.Random(seed)
        for _ in range(50):
            apply_event_delta(d, Event(0.0, rng.randrange(n)), p)
            w = winding_sum(d)
            assert abs(w - 2.0 * round(w / 2.0)) < 1e-9

    @given(st.integers(min_value=3, max_value=14), st.data(), mus,
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60)
    def test_conserved_when_no_wrap_can_fire(self, n, data, mu, seed):
        # gaps capped at 0.4 keep every neighbor shift inside the chart,
        # so the sum is conserved to accumulation error, not just mod 2
        import random
        small = st.floats(min_value=-0.2, max_value=0.2, allow_nan=False)
        ops = data.draw(st.lists(small, min_size=n, max_size=n))
        g = build_ring(n)
        d = delta_from_config(g, ops)
        w0 = winding_sum(d)
        p = ModelParams(mu=mu)
        rng = random.Random(seed)
        for _ in range(50):
            apply_event_delta(d, Event(0.0, rng.randrange(n)), p)
        assert winding_sum(d) == pytest.approx(w0, abs=1e-12)


class TestConsistency:
    def test_zero_at_start(self):
        g = build_ring(5)
        ops = [0.1, -0.3, 0.9, -0.8, 0.4]
        assert check_consistency(g, ops, delta_from_config(g, ops)) == 0.0

    def test_one_event_agreement(self):
        g = build_path(4)
        ops = [0.1, -0.3, 0.9, -0.8]
        p = ModelParams(mu=0.3)
        d = delta_from_config(g, ops)
        state = new_simulation(g, Explicit(ops), p)
        ev = Event(0.5, 1)
        apply_event(state, ev)
        apply_event_delta(d, ev, p)
        assert check_consistency(g, state.opinions, d) <= 1e-12

    def test_shape_mismatch(self):
        g = build_path(3)
        d = delta_from_config(g, [0.0, 0.1, 0.2])
        with pytest.raises(ValueError, match="expected 3 opinions"):
            check_consistency(g, [0.0, 0.1], d)
        with pytest.raises(ValueError, match="gap entries"):
            check_consistency(g, [0.0, 0.1, 0.2],
                              DeltaState(build_path(4), [0.0, 0.0, 0.0]))


class TestDifferenceTracker:
    def test_high_degree_rejected(self):
        star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        state = new_simulation(star, Explicit([0.0, 0.1, 0.2, 0.3]),
                               ModelParams(mu=0.25))
        with pytest.raises(ValueError, match="degree"):
            DifferenceTracker(state)

    def test_interval_space_rejected(self):
        state = new_simulation(build_path(3), Explicit([0.1, 0.2, 0.3]),
                               ModelParams(mu=0.25), space="interval")
        with pytest.raises(ValueError, match="circle"):
            DifferenceTracker(state)

    def test_domination_gap_needs_bounds(self):
        state = new_simulation(build_path(3), Explicit([0.1, 0.2, 0.3]),
                               ModelParams(mu=0.25))
        with pytest.raises(ValueError, match="bound"):
            DifferenceTracker(state).domination_gap()

    def test_tie_event_rereads_from_opinions(self):
        g = build_path(3)
        p = ModelParams(mu=0.25)
        state = new_simulation(g, Explicit([0.0, 1.0, 0.5]), p)
        tr = DifferenceTracker(state)
        assert tr.delta.values[0] == 1.0
        ev = Event(0.1, 0, tie=2)
        apply_event(state, ev)
        tr.apply_event(ev)
        assert check_consistency(g, state.opinions, tr.delta) == 0.0

    @pytest.mark.parametrize("observers", [lambda tr: [tr], lambda tr: [Noop(), tr]],
                             ids=["alone", "second"])
    def test_run_refuses_a_tracker_of_another_state(self, observers):
        # the tie branch would re-read the other state's opinions and drift
        g = build_path(3)
        a, b = (new_simulation(g, Explicit([0.0, 1.0, 0.5]), ModelParams(mu=0.25))
                for _ in range(2))
        tr = DifferenceTracker(a)
        with pytest.raises(ValueError, match="state being run"):
            run(b, stream=ScriptedStream([(0.1, 0, 2)]), observers=observers(tr))
        assert (b.opinions, b.events_applied, b.stream) == ([0.0, 1.0, 0.5], 0, None)
        tr.state = b
        run(b, stream=ScriptedStream([(0.1, 0, 2)]), observers=observers(tr))
        assert b.events_applied == 1
        assert check_consistency(g, b.opinions, tr.delta) == 0.0

    def test_gated_event_freezes_delta_and_xi(self):
        g = build_path(3)
        p = ModelParams(mu=0.25, theta=0.2)
        state = new_simulation(g, Explicit([0.0, 0.9, 0.5]), p)
        tr = DifferenceTracker(state, with_xi=True)
        before_d = list(tr.delta.values)
        before_x = list(tr.xi.values)
        ev = Event(0.1, 0)
        apply_event(state, ev)
        tr.apply_event(ev)
        assert tr.delta.values == before_d
        assert tr.xi.values == before_x
        assert check_consistency(g, state.opinions, tr.delta) == 0.0

    @given(st.integers(min_value=6, max_value=14), st.booleans(),
           st.integers(min_value=0, max_value=10_000), mus)
    @settings(max_examples=25, deadline=None)
    def test_long_run_consistency_and_domination(self, n, use_ring, seed, mu):
        g = build_ring(n) if use_ring else build_path(n)
        p = ModelParams(mu=mu)
        init = Explicit([mod_s(0.37 * k + 0.1) for k in range(n)])
        state = new_simulation(g, init, p, stream=seed)
        tr = DifferenceTracker(state, with_xi=True)
        run(state, stop=StopRule(max_events=2000), observers=[tr])
        assert check_consistency(g, state.opinions, tr.delta) <= 1e-10
        assert tr.domination_gap() >= -1e-12


class TestRandomRunConsistency:
    def test_poisson_run_on_ring(self):
        g = build_ring(12)
        p = ModelParams(mu=0.3)
        state = new_simulation(g, Explicit([mod_s(1.7 * k) for k in range(12)]),
                               p, stream=901)
        tr = DifferenceTracker(state, with_xi=True)
        run(state, stop=StopRule(max_events=20_000), observers=[tr])
        assert check_consistency(g, state.opinions, tr.delta) <= 1e-10
        assert tr.domination_gap() >= -1e-12
