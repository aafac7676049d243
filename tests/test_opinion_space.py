import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from compassmodel import (ModelParams, circle_dist, mod_s, update_pair_compass,
                          update_pair_deffuant, validate_params)

APPROX = dict(abs=1e-12)


def canon(x):
    return mod_s(x)


circle_values = st.floats(min_value=-1.0, max_value=1.0, exclude_min=True,
                          allow_nan=False)
raw_values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
# rotations stay small so adding them costs at most a few ulp; every rotation
# of the circle is reachable from (-2, 2] anyway
rotations = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)
interval_values = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
mus = st.one_of(st.just(0.5), st.just(0.25),
                st.floats(min_value=1e-6, max_value=0.5, allow_nan=False))


class TestModS:
    def test_examples(self):
        assert mod_s(1.4) == pytest.approx(-0.6, **APPROX)
        assert mod_s(-1.0) == 1.0
        assert mod_s(0.3) == 0.3
        assert mod_s(1.0) == 1.0
        assert mod_s(3.0) == 1.0
        assert mod_s(2.0) == 0.0
        assert mod_s(5.5) == -0.5
        assert mod_s(-0.5) == -0.5

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            mod_s(bad)

    @given(raw_values)
    def test_lands_in_chart(self, x):
        y = mod_s(x)
        assert -1.0 < y <= 1.0

    @given(raw_values)
    def test_differs_by_exact_even_integer(self, x):
        # fmod is exact and the +-2 fixup is in the Sterbenz range, so the
        # reduction is exact in rational arithmetic, not just approximately
        y = mod_s(x)
        assert (Fraction(x) - Fraction(y)) % 2 == 0

    @given(circle_values)
    def test_fixes_canonical_values(self, x):
        assert mod_s(x) == x


class TestCircleDist:
    def test_examples(self):
        assert circle_dist(0.9, -0.9) == pytest.approx(0.2, **APPROX)
        assert circle_dist(0.2, 0.6) == pytest.approx(0.4, **APPROX)
        assert circle_dist(1.0, -0.5) == pytest.approx(0.5, **APPROX)
        assert circle_dist(0.3, 0.3) == 0.0

    @given(circle_values, circle_values)
    def test_range_and_symmetry(self, x, y):
        d = circle_dist(x, y)
        assert 0.0 <= d <= 1.0
        assert circle_dist(y, x) == d

    @given(circle_values, circle_values, circle_values)
    def test_triangle(self, x, y, z):
        assert circle_dist(x, z) <= circle_dist(x, y) + circle_dist(y, z) + 1e-12

    @given(circle_values, circle_values, raw_values)
    def test_rotation_invariant(self, x, y, s):
        d0 = circle_dist(x, y)
        d1 = circle_dist(mod_s(x + s), mod_s(y + s))
        assert d1 == pytest.approx(d0, abs=1e-9)


class TestCompassUpdate:
    def test_linear_example(self):
        assert update_pair_compass(0.2, 0.6, ModelParams(mu=0.5)) == \
            pytest.approx((0.4, 0.4), **APPROX)

    def test_wrap_example(self):
        out = update_pair_compass(0.9, -0.9, ModelParams(mu=0.25))
        assert out == pytest.approx((0.95, -0.95), **APPROX)

    def test_tie_examples(self):
        p = ModelParams(mu=0.25)
        assert update_pair_compass(0.5, -0.5, p, tie=1) == (0.25, -0.25)
        assert update_pair_compass(0.5, -0.5, p, tie=2) == (0.75, -0.75)

    def test_tie_with_zero_endpoint(self):
        # the zero endpoint inherits the direction opposite its partner
        p = ModelParams(mu=0.25)
        assert update_pair_compass(0.0, 1.0, p, tie=1) == (0.25, 0.75)
        assert update_pair_compass(0.0, 1.0, p, tie=2) == (-0.25, -0.75)
        assert update_pair_compass(1.0, 0.0, p, tie=1) == (0.75, 0.25)

    def test_tie_bit_validated(self):
        with pytest.raises(ValueError):
            update_pair_compass(0.5, -0.5, ModelParams(), tie=3)

    def test_confidence_gate(self):
        p = ModelParams(mu=0.5, theta=0.3)
        assert update_pair_compass(0.2, 0.6, p) == (0.2, 0.6)
        assert update_pair_compass(0.2, 0.4, p) == pytest.approx((0.3, 0.3), **APPROX)
        # distance through the cut is what counts, not the chart difference
        assert update_pair_compass(0.95, -0.95, p) != (0.95, -0.95)

    @given(circle_values, circle_values, mus, st.sampled_from([1, 2]))
    @settings(max_examples=300)
    def test_contraction(self, x, y, mu, tie):
        p = ModelParams(mu=mu)
        d0 = circle_dist(x, y)
        u, v = update_pair_compass(x, y, p, tie)
        assert circle_dist(u, v) == pytest.approx((1.0 - 2.0 * mu) * d0, abs=1e-12)

    @given(circle_values, mus, st.sampled_from([1, 2]))
    def test_exact_tie_contraction(self, x, mu, tie):
        y = mod_s(x - 1.0)
        assume(abs(x - y) == 1.0)  # the antipode may round off the exact tie
        u, v = update_pair_compass(x, y, ModelParams(mu=mu), tie)
        assert circle_dist(u, v) == pytest.approx(1.0 - 2.0 * mu, abs=1e-12)

    @given(circle_values, circle_values, mus, st.sampled_from([1, 2]))
    @settings(max_examples=300)
    def test_stays_in_chart(self, x, y, mu, tie):
        u, v = update_pair_compass(x, y, ModelParams(mu=mu), tie)
        assert -1.0 < u <= 1.0
        assert -1.0 < v <= 1.0

    @given(circle_values, circle_values, mus, st.sampled_from([1, 2]))
    @settings(max_examples=300)
    def test_swap_symmetry_bitwise(self, x, y, mu, tie):
        p = ModelParams(mu=mu)
        u, v = update_pair_compass(x, y, p, tie)
        v2, u2 = update_pair_compass(y, x, p, tie)
        assert (u, v) == (u2, v2)

    @given(circle_values, circle_values, rotations, mus)
    @settings(max_examples=300)
    def test_rotational_equivariance(self, x, y, s, mu):
        # rotating inputs rotates outputs; near-antipodal pairs are skipped
        # because rounding the rotated inputs can flip which branch applies,
        # and at an exact tie the direction is frame-dependent anyway
        xr = mod_s(x + s)
        yr = mod_s(y + s)
        assume(abs(abs(x - y) - 1.0) > 1e-9)
        assume(abs(abs(xr - yr) - 1.0) > 1e-9)
        p = ModelParams(mu=mu)
        u, v = update_pair_compass(x, y, p)
        ur, vr = update_pair_compass(xr, yr, p)
        assert circle_dist(ur, mod_s(u + s)) == pytest.approx(0.0, abs=1e-12)
        assert circle_dist(vr, mod_s(v + s)) == pytest.approx(0.0, abs=1e-12)

    def test_half_mu_merges_exactly(self):
        p = ModelParams(mu=0.5)
        u, v = update_pair_compass(0.1234, -0.8721, p)
        assert u == v
        u, v = update_pair_compass(0.93, -0.88, p)
        assert u == v


class TestDeffuantUpdate:
    def test_example(self):
        out = update_pair_deffuant(0.2, 0.8, ModelParams(mu=0.3))
        assert out == pytest.approx((0.38, 0.62), **APPROX)

    def test_gate_example(self):
        assert update_pair_deffuant(0.1, 0.9, ModelParams(mu=0.3, theta=0.5)) == (0.1, 0.9)

    @given(interval_values, interval_values)
    def test_half_mu_conserves_sum_exactly(self, x, y):
        # halving a float is exact from 2 * float_info.min up; below that a
        # sum that is an odd multiple of the smallest subnormal (0 + 5e-324)
        # has no representable midpoint, so no shared value can keep it
        assume(x + y == 0.0 or x + y >= 2.0 * sys.float_info.min)
        u, v = update_pair_deffuant(x, y, ModelParams(mu=0.5))
        assert u == v
        assert u + v == x + y

    @given(interval_values, interval_values, mus)
    @settings(max_examples=300)
    def test_sum_conserved_to_rounding(self, x, y, mu):
        u, v = update_pair_deffuant(x, y, ModelParams(mu=mu))
        assert abs((u + v) - (x + y)) <= 1e-15

    @given(interval_values, interval_values, mus)
    @settings(max_examples=300)
    def test_stays_in_interval_and_contracts(self, x, y, mu):
        u, v = update_pair_deffuant(x, y, ModelParams(mu=mu))
        assert 0.0 <= u <= 1.0 and 0.0 <= v <= 1.0
        assert abs(u - v) == pytest.approx((1.0 - 2.0 * mu) * abs(x - y), abs=1e-12)

    @given(interval_values, interval_values, mus)
    def test_swap_symmetry_bitwise(self, x, y, mu):
        p = ModelParams(mu=mu)
        u, v = update_pair_deffuant(x, y, p)
        v2, u2 = update_pair_deffuant(y, x, p)
        assert (u, v) == (u2, v2)


# pairs at distance 1/4: on the circle's linear branch, through its cut
# (chart difference 1.75), and on the interval
GATE_PAIRS = [("circle", 0.5, 0.25), ("circle", 1.0, -0.75), ("interval", 0.75, 0.5)]


class TestConfidenceGate:
    """Nothing moves only when the distance exceeds theta: a pair at
    distance exactly theta moves, and one at nextafter(theta, 2) does not."""

    @pytest.mark.parametrize("space,x,y", GATE_PAIRS)
    def test_a_pair_at_theta_moves_and_one_an_ulp_past_it_does_not(self, space, x, y):
        rule = update_pair_compass if space == "circle" else update_pair_deffuant
        d = circle_dist(x, y) if space == "circle" else abs(x - y)
        assert d == 0.25
        theta = math.nextafter(d, 0.0)  # so that d is nextafter(theta, 2)
        assert math.nextafter(theta, 2.0) == d
        assert rule(x, y, ModelParams(mu=0.25, theta=d)) != (x, y)
        assert rule(x, y, ModelParams(mu=0.25, theta=theta)) == (x, y)


class TestParams:
    def test_defaults(self):
        p = ModelParams()
        assert p.mu == 0.5
        assert math.isinf(p.theta)

    def test_mu_out_of_range_mentions_interval(self):
        with pytest.raises(ValueError, match=r"\(0, 1/2\]"):
            ModelParams(mu=0.7)

    @pytest.mark.parametrize("mu", [0.0, -0.1, 0.500001, math.nan, math.inf])
    def test_bad_mu(self, mu):
        assert validate_params(mu, math.inf)

    @pytest.mark.parametrize("theta", [0.0, -1.0, math.nan])
    def test_bad_theta(self, theta):
        assert validate_params(0.5, theta)

    def test_validate_params_clean(self):
        assert validate_params(0.25, 0.8) == []
        assert validate_params(0.5, math.inf) == []
