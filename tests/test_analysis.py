import contextlib
import io
import math
import random
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compassmodel import (Explicit, Graph, IidUniform, MetricSample, ModelParams,
                          RunRecord, StopRule, build_path, build_ring, build_torus,
                          circle_opinion_range, compute_metrics,
                          consensus_classify, delta_from_config,
                          extract_limits, initial_opinions, ks_uniform_pvalue,
                          marginal_uniformity_test, mod_s,
                          monotone_mean_delta_check, new_simulation,
                          read_samples_csv, run, write_samples_csv)
from compassmodel import _kernel, analysis
from compassmodel.analysis import _circle_lift
from compassmodel.topology import graph_from_edges
from conftest import comb, star

circle_values = st.floats(min_value=-1.0, max_value=1.0, exclude_min=True,
                          allow_nan=False)


def arc_oracle(opinions):
    """Smallest closed arc length by brute force over starting points."""
    pts = [mod_s(v) for v in opinions]
    best = 2.0
    for a in pts:
        reach = max((b - a) % 2.0 for b in pts)
        best = min(best, reach)
    return best


def make_record(space, n, final, terminal_extra=None, graph_kind="path"):
    terminal = {"opinion_range": 0.0, "max_neighbor_dist": 0.0}
    if terminal_extra:
        terminal.update(terminal_extra)
    return RunRecord(space=space, graph_kind=graph_kind, vertex_count=n,
                     edge_count=n - 1, mu=0.5, theta=math.inf, seed=1,
                     stop_reason="w_below", events_applied=10, final_time=3.0,
                     samples=[], terminal=terminal, wall_seconds=0.01,
                     final_opinions=final)


class TestOpinionRange:
    def test_constant_profile(self):
        assert circle_opinion_range([0.3, 0.3, 0.3]) == 0.0

    def test_antipodal_pair(self):
        assert circle_opinion_range([0.5, -0.5]) == pytest.approx(1.0, abs=1e-12)

    def test_three_equally_spaced(self):
        r = circle_opinion_range([0.0, 2.0 / 3.0, -2.0 / 3.0])
        assert r == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_same_class_values_collapse(self):
        assert circle_opinion_range([0.5, 2.5, -1.5]) == pytest.approx(0.0, abs=1e-12)

    def test_single_value(self):
        assert circle_opinion_range([0.7]) == 0.0

    @given(st.lists(circle_values, min_size=1, max_size=8))
    @settings(max_examples=250)
    def test_matches_brute_force_arc(self, ops):
        assert circle_opinion_range(ops) == pytest.approx(arc_oracle(ops), abs=1e-12)

    @given(st.lists(circle_values, min_size=2, max_size=10))
    def test_range_within_bounds(self, ops):
        r = circle_opinion_range(ops)
        assert 0.0 <= r <= 2.0


class TestComputeMetrics:
    def test_constant_profile(self):
        g = build_ring(5)
        m = compute_metrics(g, [0.3] * 5)
        assert m.W == 0.0
        assert m.max_neighbor_dist == 0.0
        assert m.opinion_range == 0.0
        assert m.sign_flip_fraction == 0.0

    def test_antipodal_pair(self):
        g = build_path(2)
        m = compute_metrics(g, [0.5, -0.5])
        assert m.W == pytest.approx(1.0, abs=1e-12)
        assert m.opinion_range == pytest.approx(1.0, abs=1e-12)

    def test_three_ring_equally_spaced(self):
        g = build_ring(3)
        m = compute_metrics(g, [0.0, 2.0 / 3.0, -2.0 / 3.0])
        assert m.W == pytest.approx(2.0, abs=1e-12)
        assert m.opinion_range == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert m.mean_abs_delta == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert m.sign_flip_fraction == 0.0

    def test_interval_space(self):
        g = build_path(3)
        m = compute_metrics(g, [0.1, 0.9, 0.4], space="interval")
        assert m.W == pytest.approx(0.8 + 0.5, abs=1e-12)
        assert m.opinion_range == pytest.approx(0.8, abs=1e-12)

    def test_the_gaps_are_the_opinions_differences(self):
        g = build_path(3)
        m = compute_metrics(g, [0.0, 0.25, -0.25])  # gaps 0.25 and -0.5
        assert m.W == 0.75
        assert m.max_neighbor_dist == 0.5
        assert m.sign_flip_fraction == 1.0

    def test_shape_errors(self):
        g = build_path(3)
        with pytest.raises(ValueError, match="opinions"):
            compute_metrics(g, [0.0, 0.1])
        with pytest.raises(ValueError, match="opinions"):
            compute_metrics(g, [0.0, 0.1, 0.2, 0.3])

    @given(st.integers(min_value=2, max_value=12), st.data())
    @settings(max_examples=150)
    def test_w_dominates_max_dist(self, n, data):
        ops = data.draw(st.lists(circle_values, min_size=n, max_size=n))
        m = compute_metrics(build_path(n), ops)
        assert m.W >= m.max_neighbor_dist >= 0.0
        assert 0.0 <= m.opinion_range <= 2.0

    def test_w_equals_tracked_sum_exactly(self):
        g = build_ring(6)
        ops = [0.9, -0.8, 0.3, 0.1, -0.2, 0.75]
        d = delta_from_config(g, ops)
        m = compute_metrics(g, ops)
        assert m.W == math.fsum(abs(v) for v in d.values)


def scalar_opinion_range(opinions):
    """circle_opinion_range as a list sort and loop: the oracle for the array code."""
    vals = sorted(mod_s(v) for v in opinions)
    n = len(vals)
    if n <= 1:
        return 0.0
    largest = (vals[0] - vals[-1]) + 2.0
    for i in range(n - 1):
        gap = vals[i + 1] - vals[i]
        if gap > largest:
            largest = gap
    return 2.0 - largest


def scalar_metrics(g, opinions, space="circle", at_time=0.0):
    """compute_metrics as list arithmetic over adjacent_edge_pairs: the oracle."""
    if space == "circle":
        gaps = [mod_s(opinions[b] - opinions[a]) for a, b in g.edges]
    else:
        gaps = [opinions[b] - opinions[a] for a, b in g.edges]
    absd = [abs(v) for v in gaps]
    w = math.fsum(absd)
    max_nd = max(absd) if absd else 0.0
    mean_ad = w / len(absd) if absd else 0.0
    if space == "circle":
        rng = scalar_opinion_range(opinions)
    else:
        rng = max(opinions) - min(opinions) if opinions else 0.0
    pairs = g.adjacent_edge_pairs
    if pairs:
        flips = sum(1 for i, j in pairs if gaps[i] * gaps[j] < 0.0)
        flip_frac = flips / len(pairs)
    else:
        flip_frac = 0.0
    return MetricSample(time=at_time, W=w, max_neighbor_dist=max_nd,
                        mean_abs_delta=mean_ad, opinion_range=rng,
                        sign_flip_fraction=flip_frac)


def outcome(fn, *args, **kwargs):
    """Every field of the result, bit for bit (hex tells -0.0 from 0.0), or the error."""
    try:
        result = fn(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    fields = astuple(result) if isinstance(result, MetricSample) else (result,)
    return [(type(v), float(v).hex()) for v in fields]


def nudge(value, ulps):
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


specials = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.3, 1e-300, 5e-324, -5e-324])
# ties (specials repeat), tiny gaps (a few ulps apart) and values off the chart
chart_like = st.one_of(specials, circle_values,
                       st.builds(nudge, st.one_of(specials, circle_values),
                                 st.integers(-3, 3)),
                       st.floats(-5.0, 5.0))
unit_like = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 5e-324]), st.floats(0.0, 1.0),
                      st.builds(nudge, st.sampled_from([0.0, 0.5, 1.0]), st.integers(-2, 2)),
                      st.floats(allow_nan=True, allow_infinity=True))
gaps_like = st.one_of(specials, st.sampled_from([1e-200, -1e-200, 1e-170]),
                      st.floats(-2.0, 2.0), st.floats(allow_nan=True, allow_infinity=True))
graphs = st.one_of(st.just(Graph("custom", 1, ())), st.integers(2, 9).map(build_path),
                   st.integers(3, 9).map(build_ring),
                   st.lists(st.integers(3, 4), min_size=1, max_size=3).map(build_torus))


def profile(g, values):
    return st.lists(values, min_size=g.vertex_count, max_size=g.vertex_count)


@pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
class TestVectorizedMetrics:
    """The array code against the list code it replaced, bit for bit.

    numpy warns where the list code was silent (inf - inf, overflowing
    products of huge tracked gaps); the values still agree.
    """

    @given(graphs, st.data())
    @settings(max_examples=300)
    def test_circle_profiles(self, g, data):
        ops = data.draw(profile(g, chart_like))
        assert outcome(compute_metrics, g, ops, at_time=2.5) == \
            outcome(scalar_metrics, g, ops, at_time=2.5)
        assert outcome(circle_opinion_range, ops) == outcome(scalar_opinion_range, ops)

    @given(graphs, st.data())
    @settings(max_examples=200)
    def test_interval_profiles(self, g, data):
        ops = data.draw(profile(g, unit_like))
        assert outcome(compute_metrics, g, ops, "interval") == \
            outcome(scalar_metrics, g, ops, "interval")

    @given(st.sampled_from([comb, star]), st.sampled_from(["circle", "interval"]),
           st.lists(gaps_like, max_size=32))
    @settings(max_examples=200)
    def test_given_gap_values(self, carrier, space, gaps):
        # opinions that carry the gaps: exactly on the interval, in the
        # chart on the circle
        g, ops = carrier(gaps)
        assert outcome(compute_metrics, g, ops, space) == outcome(scalar_metrics, g, ops, space)

    @given(graphs, st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
    @settings(max_examples=100)
    def test_non_finite_circle_opinions_raise_alike(self, g, bad, data):
        ops = data.draw(profile(g, circle_values))
        ops[data.draw(st.integers(0, g.vertex_count - 1))] = bad
        got = outcome(compute_metrics, g, ops)
        assert got[0] is ValueError and got == outcome(scalar_metrics, g, ops)
        assert outcome(circle_opinion_range, ops) == outcome(scalar_opinion_range, ops)

    def test_tiny_gap_products_underflow_to_no_flip(self):
        g, ops = build_path(3), [0.0, 1e-200, 0.0]  # gaps 1e-200 and -1e-200
        assert compute_metrics(g, ops, "interval").sign_flip_fraction == 0.0
        assert outcome(compute_metrics, g, ops, "interval") == \
            outcome(scalar_metrics, g, ops, "interval")


TINY = 2.0 ** -537
# zeros of both signs, the cut, gaps either side of the 2**-537 at which a
# product of two gaps may underflow, products that do, and non-finite gaps
gap_specials = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 1e-200, -1e-200, math.inf, -math.inf, math.nan, 1e300, -1e300]
    + [sign * nudge(TINY, ulps) for sign in (1.0, -1.0) for ulps in (-1, 0, 1)]
    # with +-TINY, products at and either side of -2**-1075, which rounds to -0.0
    + [sign * nudge(TINY / 2, ulps) for sign in (1.0, -1.0) for ulps in (-1, 0, 1)]
    + [(1 + 2.0**-52) * TINY / 2, -(1 - 2.0**-53) * TINY])


@st.composite
def stars(draw):
    """A star of degree 1 to 40 from graph_from_edges, each edge either way."""
    k = draw(st.integers(1, 40))
    out = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    return graph_from_edges(k + 1, [(0, v) if o else (v, 0) for v, o in enumerate(out, 1)],
                            kind="star")


def chart_by_fmod(x):
    """`analysis._chart` without its in-chart shortcut: fmod and the fold."""
    bad = ~np.isfinite(x)
    if bad.any():
        raise ValueError(f"opinion values must be finite, got {float(x[bad][0])!r}")
    y = np.fmod(x, 2.0)
    return np.where(y > 1.0, y - 2.0, np.where(y <= -1.0, y + 2.0, y))


class TestChart:
    @pytest.mark.parametrize("special", [
        -1.0, nudge(-1.0, 1), -0.0, 0.0, 1.0, nudge(1.0, 1), 2.0, -2.0, 1e300, -1e300,
        math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("around", [[], [0.5], [-0.25, 0.75]])
    def test_the_in_chart_shortcut_is_the_fmod_fold(self, special, around):
        def charted(fold, x):
            try:
                return [v.hex() for v in fold(x).tolist()]
            except ValueError as exc:
                return str(exc)

        for values in ([special, *around], [*around, special]):
            x = np.array(values)
            assert charted(analysis._chart, x) == charted(chart_by_fmod, x)
            assert [v.hex() for v in x.tolist()] == [v.hex() for v in values]  # left as given

    def test_an_array_in_the_chart_comes_back_as_itself(self):
        x = np.array([-0.0, 1.0, nudge(-1.0, 1), 0.3])
        assert analysis._chart(x) is x
        assert analysis._chart(np.array([])).size == 0


@pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
class TestOnePassMetrics:
    """The kernel's one pass, the numpy path and the list oracle, bit for bit."""

    @given(st.one_of(graphs, stars()), st.sampled_from(["circle", "interval"]),
           st.booleans(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_the_c_pass_the_numpy_path_and_the_oracle_agree(self, g, space, given_gaps, data):
        if given_gaps:
            # the gaps, of the drawn graph's edge count, carried by opinions
            gaps = data.draw(st.lists(st.one_of(gap_specials, gaps_like),
                                      min_size=g.edge_count, max_size=g.edge_count))
            g, ops = data.draw(st.sampled_from([comb, star]))(gaps)
        else:
            # the specials as opinions: on a star, gaps against the centre's
            values = chart_like if space == "circle" else unit_like
            ops = data.draw(profile(g, st.one_of(gap_specials, values)))
        oracle = outcome(scalar_metrics, g, ops, space)
        with mock.patch.object(_kernel, "_lib", False):
            numpy = outcome(compute_metrics, g, ops, space)
        alone = mock.patch.object(analysis, "_sign_flips", side_effect=AssertionError)
        if _kernel.load() is None or type(oracle) is tuple or oracle[1][1] in ("inf", "nan"):
            alone = contextlib.nullcontext()
        with alone:  # a finite W, so finite gaps: the kernel's pass alone
            kernel = outcome(compute_metrics, g, ops, space)
        assert kernel == numpy == oracle

    @pytest.mark.skipif(_kernel.load() is None, reason="no compiled kernel")
    def test_a_probe_is_one_call_into_the_kernel(self):
        lib, calls = _kernel.load(), []

        class Counted:
            def __getattr__(self, name):
                calls.append(name)
                return getattr(lib, name)

        g = build_torus([20, 20])
        ops = initial_opinions(IidUniform(2), g.vertex_count)
        with mock.patch.object(_kernel, "_lib", Counted()):
            got = outcome(compute_metrics, g, ops, at_time=1.0)
        assert calls == ["metrics"]
        assert got == outcome(scalar_metrics, g, ops, at_time=1.0)

    @pytest.mark.parametrize("lib", [None, False], ids=["kernel", "numpy"])
    @pytest.mark.parametrize("gaps,flips", [
        ([TINY, -TINY], 1),  # 2**-1074: the least subnormal, below zero
        ([nudge(TINY, -1), -TINY], 1),  # rounds to the least subnormal
        ([1e-200, -1e-200, 0.5, -0.5], 3),  # one product underflows
        ([1e-200, -1e-200, -1e-200], 0),
        ([-0.0, 0.0, 1.0, -1.0], 1),
        ([TINY / 2, -TINY], 0),  # exactly -2**-1075: a tie, rounded to -0.0
        ([nudge(TINY / 2, 1), -TINY], 1),  # past the tie: the least subnormal
        # scaled by 2**1200 the product rounds to -2**125, past which it lies
        ([(1 + 2.0**-52) * TINY / 2, -(1 - 2.0**-53) * TINY], 1),
        ([1e300, -5e-324, -0.0, 1e-300], 1),  # 1e300 * -5e-324 only: 1e-300 * -5e-324 underflows
    ])
    def test_flips_at_a_vertex_with_tiny_gaps(self, lib, gaps, flips, monkeypatch):
        if lib is False:
            monkeypatch.setattr(_kernel, "_lib", False)
        k = len(gaps)
        g, ops = star(gaps)
        got = compute_metrics(g, ops, "interval")
        assert got.sign_flip_fraction == flips / (k * (k - 1) // 2)
        assert outcome(compute_metrics, g, ops, "interval") == \
            outcome(scalar_metrics, g, ops, "interval")

    @pytest.mark.skipif(_kernel.load() is None, reason="no compiled kernel")
    @pytest.mark.parametrize("start", ["uniform", "after a run", "tiny gaps"])
    @pytest.mark.parametrize("space", ["circle", "interval"])
    def test_a_probe_of_a_64x64_torus_is_the_numpy_paths(self, start, space):
        g = build_torus([64, 64])  # 8,192 edges
        ops = initial_opinions(IidUniform(5), g.vertex_count)
        if space == "interval":
            ops = [abs(v) for v in ops]
        if start == "after a run":
            state = new_simulation(g, Explicit(ops), ModelParams(mu=0.3), space=space, stream=5)
            run(state, stop=StopRule(max_events=40_000))
            ops = state.opinions
        elif start == "tiny gaps":
            # gaps under 2**-537 of either sign on edges at several vertices,
            # whose products with most of the gaps around them underflow
            for v, x in [(0, 5e-324), (130, -1e-310), (2049, 2.0**-540), (4095, -5e-324)]:
                ops[v] = 0.0
                ops[g.edges[2 * v][1]] = abs(x) if space == "interval" else x
        with mock.patch.object(analysis, "_sign_flips", side_effect=AssertionError):
            kernel = outcome(compute_metrics, g, ops, space)
        with mock.patch.object(_kernel, "_lib", False):
            numpy = outcome(compute_metrics, g, ops, space)
        assert kernel == numpy == outcome(scalar_metrics, g, ops, space)
        if start == "tiny gaps" and space == "circle":
            # the products that underflow are taken back: pos * neg overcounts
            delta = np.array([mod_s(ops[b] - ops[a]) for a, b in g.edges])
            starts, ids = g.incidence
            pos, neg = (np.add.reduceat(delta[ids] * sign > 0.0, starts[:-1])
                        for sign in (1.0, -1.0))
            flips, pairs = analysis._sign_flips(g, delta)
            assert flips < int(pos @ neg) and kernel[-1][1] == (flips / pairs).hex()

    @pytest.mark.parametrize("lib", [None, False], ids=["kernel", "numpy"])
    @pytest.mark.parametrize("space", ["circel", "", "Circle", None])
    def test_an_unknown_space_is_refused(self, lib, space, monkeypatch):
        if lib is False:
            monkeypatch.setattr(_kernel, "_lib", False)
        with pytest.raises(ValueError, match=f"unknown space {space!r}"):
            compute_metrics(build_ring(5), [0.1, 0.5, -0.9, 0.3, 0.95], space)


class TestConsensusClassify:
    def test_three_classes(self):
        tight = MetricSample(0.0, 1e-9, 1e-9, 1e-9, 1e-9, 0.0)
        wound = MetricSample(0.0, 2.0, 1e-9, 0.01, 1.9, 0.0)
        spread = MetricSample(0.0, 3.0, 0.8, 0.4, 1.9, 0.4)
        assert consensus_classify(tight) == "strong-like"
        assert consensus_classify(wound) == "weak-only-like"
        assert consensus_classify(spread) == "none"

    def test_monotone_in_tolerance(self):
        s = MetricSample(0.0, 1e-4, 1e-4, 1e-4, 1e-4, 0.0)
        assert consensus_classify(s, tol=1e-5) == "none"
        assert consensus_classify(s, tol=1e-3) == "strong-like"

    def test_record_input(self):
        rec = make_record("circle", 4, [0.1] * 4,
                          {"opinion_range": 0.0, "max_neighbor_dist": 0.0})
        assert consensus_classify(rec) == "strong-like"


class TestExtractLimits:
    def test_interval_mean_conserved(self):
        rec = make_record("interval", 4, [0.35] * 4)
        rep = extract_limits(rec, [0.2, 0.3, 0.4, 0.5])
        assert rep.L == pytest.approx(0.35, abs=1e-12)
        assert rep.conservation_gap == pytest.approx(0.0, abs=1e-12)
        assert rep.K is None

    def test_constant_circle_profile(self):
        rec = make_record("circle", 5, [0.6] * 5)
        rep = extract_limits(rec, [0.6] * 5)
        assert rep.L == pytest.approx(0.6, abs=1e-12)
        assert rep.K == 0
        assert rep.K_gap == pytest.approx(0.0, abs=1e-9)

    def test_path_run_quotient_is_integer(self):
        state = new_simulation(build_path(5), IidUniform(12),
                               ModelParams(mu=0.5), stream=34)
        init = list(state.opinions)
        rec = run(state, stop=StopRule(max_events=100_000, w_below=1e-9))
        rep = extract_limits(rec, init, tol=1e-5)
        assert rep.K_gap <= 1e-6
        assert isinstance(rep.K, int)

    def test_non_converged_rejected(self):
        rec = make_record("circle", 3, [0.0, 0.5, -0.9],
                          {"opinion_range": 1.5, "max_neighbor_dist": 0.6})
        with pytest.raises(ValueError, match="strong-like"):
            extract_limits(rec, [0.0, 0.5, -0.9])

    def test_missing_final_opinions_rejected(self):
        rec = make_record("circle", 3, None)
        with pytest.raises(ValueError, match="final opinions"):
            extract_limits(rec, [0.0, 0.1, 0.2])

    def test_initial_length_checked(self):
        rec = make_record("circle", 3, [0.1, 0.1, 0.1])
        with pytest.raises(ValueError, match="initial"):
            extract_limits(rec, [0.1, 0.1])


class TestSpatialAverage:
    """The spatial average of |gap| is compute_metrics' mean_abs_delta."""

    def test_uniform_init_gap_mean_near_half(self):
        g = build_ring(4000)
        ops = initial_opinions(IidUniform(5), 4000, "circle")
        est = compute_metrics(g, ops).mean_abs_delta
        assert est == math.fsum(map(abs, delta_from_config(g, ops).values)) / 4000
        assert est == pytest.approx(0.5, abs=0.03)


class TestCircleMean:
    """The unwrapped mean of a concentrated profile, shared with extract_limits."""

    def test_concentrated_across_the_cut(self):
        ops = [0.99, -0.99, 0.98]
        lift = _circle_lift(ops)
        assert lift == pytest.approx(1.0, abs=0.02)
        m = mod_s(lift)
        assert m == pytest.approx(1.0, abs=0.02)
        assert -1.0 < m <= 1.0
        assert extract_limits(make_record("circle", 3, ops), ops).L == m

    def test_plain_concentrated_profile(self):
        assert _circle_lift([0.1, 0.2, 0.3]) == pytest.approx(0.2, abs=1e-12)


class TestMonotoneCheck:
    def test_decreasing_curve_passes(self):
        rng = np.random.default_rng(3)
        times = [0.0, 1.0, 2.0, 3.0]
        base = np.array([0.5, 0.4, 0.33, 0.30])
        est = base + rng.normal(0.0, 0.01, size=(80, 4))
        rep = monotone_mean_delta_check(times, est)
        assert rep.passed
        assert rep.violations == ()

    def test_bump_is_flagged(self):
        rng = np.random.default_rng(4)
        times = [0.0, 1.0, 2.0]
        base = np.array([0.5, 0.4, 0.48])
        est = base + rng.normal(0.0, 0.005, size=(60, 3))
        rep = monotone_mean_delta_check(times, est)
        assert not rep.passed
        assert 1 in rep.violations

    def test_floors_enforced(self):
        with pytest.raises(ValueError, match="probe times"):
            monotone_mean_delta_check([1.0], np.zeros((60, 1)))
        with pytest.raises(ValueError, match="50 replicates"):
            monotone_mean_delta_check([0.0, 1.0], np.zeros((10, 2)))
        with pytest.raises(ValueError, match="replicates x"):
            monotone_mean_delta_check([0.0, 1.0], np.zeros((60, 3)))


class TestUniformity:
    def test_exact_method_for_small_batches(self):
        rng = random.Random(0)
        rep = ks_uniform_pvalue([1.0 - 2.0 * rng.random() for _ in range(50)])
        assert rep.method == "exact"
        assert rep.n_samples == 50

    def test_asymptotic_beyond_cutoff(self):
        rng = random.Random(0)
        rep = ks_uniform_pvalue([1.0 - 2.0 * rng.random() for _ in range(101)])
        assert rep.method == "asymp"

    def test_uniform_batch_passes(self):
        vals = initial_opinions(IidUniform(11), 2000, "circle")
        rep = marginal_uniformity_test(vals)
        assert rep.pvalue > 0.01

    def test_concentrated_batch_fails(self):
        rng = random.Random(1)
        vals = [0.9 + 0.01 * rng.random() for _ in range(600)]
        rep = marginal_uniformity_test(vals)
        assert rep.pvalue < 1e-6

    def test_sample_floor(self):
        with pytest.raises(ValueError, match="500"):
            marginal_uniformity_test([0.0] * 499)

    def test_constant_batch_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            marginal_uniformity_test([0.25] * 600)


class TestSignProductRate:
    """The rate of sign-disagreeing adjacent gaps is sign_flip_fraction."""

    @staticmethod
    def rate(g, opinions):
        return compute_metrics(g, opinions).sign_flip_fraction

    def test_alternating_signs(self):
        assert self.rate(build_path(4), [0.0, 0.3, 0.1, 0.5]) == 1.0  # gaps 0.3, -0.2, 0.4

    def test_constant_profile_rate_zero(self):
        assert self.rate(build_ring(5), [0.2] * 5) == 0.0

    def test_uniform_init_near_half(self):
        ops = initial_opinions(IidUniform(7), 2000, "circle")
        assert self.rate(build_ring(2000), ops) == pytest.approx(0.5, abs=0.05)


class TestCsvRoundTrip:
    def samples(self):
        return [MetricSample(0.5, 0.4, 0.4, 0.4, 0.4, 0.0),
                MetricSample(1.0, 1e-17, 5e-18, 5e-18, 1e-17, 0.5)]

    def test_round_trip_is_float_exact(self, tmp_path):
        p = tmp_path / "s.csv"
        write_samples_csv(self.samples(), p)
        back = read_samples_csv(p)
        assert back == self.samples()

    def test_stream_destination(self):
        buf = io.StringIO()
        write_samples_csv(self.samples(), buf)
        buf.seek(0)
        assert read_samples_csv(buf) == self.samples()

    def test_schema_line_checked(self):
        buf = io.StringIO("# other-schema\ntime,W\n")
        with pytest.raises(ValueError, match="schema"):
            read_samples_csv(buf)

    def test_columns_checked(self, tmp_path):
        p = tmp_path / "s.csv"
        write_samples_csv(self.samples(), p)
        text = p.read_text().replace("sign_flip_fraction", "flips")
        p.write_text(text)
        with pytest.raises(ValueError, match="columns"):
            read_samples_csv(p)


class TestRunRecordJson:
    def test_round_trip(self):
        rec = make_record("circle", 3, [0.1, 0.1, 0.1])
        rec.samples = [MetricSample(1.0, 0.2, 0.1, 0.1, 0.3, 0.0)]
        back = RunRecord.from_json(rec.to_json(include_opinions=True))
        assert back.samples == rec.samples
        assert back.final_opinions == rec.final_opinions
        assert back.theta == math.inf
        assert back.terminal == rec.terminal

    def test_opinions_omitted_by_default(self):
        rec = make_record("circle", 3, [0.1, 0.1, 0.1])
        back = RunRecord.from_json(rec.to_json())
        assert back.final_opinions is None

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            RunRecord.from_json('{"schema": "something-else"}')

    def test_finite_theta_round_trips(self):
        rec = make_record("circle", 3, None)
        rec.theta = 0.25
        back = RunRecord.from_json(rec.to_json())
        assert back.theta == 0.25
