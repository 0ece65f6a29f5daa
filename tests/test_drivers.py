import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amhedge.drivers import (POSITION_BOUND, WEALTH_BOUND, Driver, admissibility_rows,
                             borrow_lend_driver, check_gamma_assumption,
                             check_lambda_admissible, gamma_rows, large_trader_driver,
                             perfect_driver)
from amhedge.market import MarketParams, NodeState, PiecewiseConstant
from helpers import (eight_steps, float_bits, reference_borrow_lend_g, reference_large_trader_g,
                     reference_perfect_g)


def flat_params(**overrides):
    base = dict(r=0.05, mu1=0.05, mu2=0.0, sigma1=0.2, sigma2=0.3, lam=0.4,
                s1_0=100.0, s2_0=90.0, T=1.0)
    base.update(overrides)
    return MarketParams(**base)


def alive_state(params, t=0.0):
    return NodeState(t, 1.0, params.s1_0, params.s2_0, params.lam.at(t), False, params.at(t))


def defaulted_state(params, t=0.0):
    return NodeState(t, 1.0, params.s1_0, 0.0, 0.0, True, params.at(t))


class TestPerfectDriver:
    def test_zero_drift_market(self):
        params = flat_params(r=0.0, mu1=0.0, mu2=0.0)
        g = perfect_driver(params)
        s = alive_state(params)
        for y, z, k in [(1.0, 2.0, -1.0), (0.0, 0.0, 0.0), (-3.0, 0.5, 4.0)]:
            assert g.eval(0.0, y, z, k, s) == 0.0

    def test_zero_market_price_of_diffusion_risk(self):
        params = flat_params(r=0.05, mu1=0.05)
        g = perfect_driver(params)
        s = alive_state(params)
        # theta1 = 0, so only the discounting and jump terms remain
        ck = 0.3 * 0.0 - 0.0 + 0.05
        assert g.eval(0.0, 1.0, 7.0, 0.0, s) == pytest.approx(-0.05, abs=1e-15)
        assert g.eval(0.0, 2.0, 0.0, 1.0, s) == pytest.approx(-0.1 - ck, abs=1e-15)

    def test_hand_value(self):
        # theta1 = 0.5, theta2 = (0.3*0.5 - 0 + 0)/0.5 = 0.3
        params = flat_params(r=0.0, mu1=0.1, sigma1=0.2, mu2=0.0, sigma2=0.3, lam=0.5)
        g = perfect_driver(params)
        s = alive_state(params)
        assert g.eval(0.0, 1.0, 1.0, 1.0, s) == pytest.approx(-0.65, abs=1e-15)

    def test_linearity_exact_on_samples(self):
        params = flat_params()
        g = perfect_driver(params)
        s = alive_state(params)
        pts = [(1.0, 0.5, -0.25), (-2.0, 1.5, 3.0)]
        for a, b in [(0.5, 2.0), (-1.0, 0.25), (3.0, -0.5)]:
            combo = tuple(a * p + b * q for p, q in zip(*pts))
            direct = g.eval(0.0, *combo, s)
            mixed = a * g.eval(0.0, *pts[0], s) + b * g.eval(0.0, *pts[1], s)
            assert direct == pytest.approx(mixed, rel=1e-12, abs=1e-14)

    def test_k_dropped_after_default(self):
        params = flat_params()
        g = perfect_driver(params)
        s = defaulted_state(params)
        assert g.eval(0.3, 1.0, 1.0, 5.0, s) == g.eval(0.3, 1.0, 1.0, 0.0, s)


class TestBorrowLendDriver:
    def test_rejects_rate_below_riskless(self):
        with pytest.raises(ValueError):
            borrow_lend_driver(flat_params(r=0.05), 0.04)

    def test_no_spread_is_perfect(self):
        params = flat_params()
        g0 = perfect_driver(params)
        g = borrow_lend_driver(params, 0.05)
        s = alive_state(params)
        for y, z, k in [(0.0, 1.0, 0.0), (5.0, -2.0, 1.0), (-1.0, 0.2, -0.3)]:
            assert g.eval(0.0, y, z, k, s) == g0.eval(0.0, y, z, k, s)

    def test_no_borrowing_matches_perfect(self):
        params = flat_params()
        g0 = perfect_driver(params)
        g = borrow_lend_driver(params, 0.07)
        s = alive_state(params)
        # wealth large enough that phi1 + phi2 - y stays negative
        assert g.eval(0.0, 100.0, 1.0, -0.5, s) == g0.eval(0.0, 100.0, 1.0, -0.5, s)

    def test_fully_levered_correction(self):
        # y = 0, z = sigma1, k = 0 puts phi1 = 1, so the excess is exactly 1.
        params = flat_params(r=0.05, mu1=0.08, sigma1=0.2)
        g0 = perfect_driver(params)
        g = borrow_lend_driver(params, 0.07)
        s = alive_state(params)
        diff = g.eval(0.0, 0.0, 0.2, 0.0, s) - g0.eval(0.0, 0.0, 0.2, 0.0, s)
        assert diff == pytest.approx(0.02, abs=1e-15)

    def test_midpoint_convexity_on_samples(self):
        params = flat_params()
        g = borrow_lend_driver(params, 0.08)
        s = alive_state(params)
        pts = [(0.0, 0.5, -1.0), (2.0, -1.0, 0.5), (-1.0, 2.0, 2.0), (1.0, 1.0, 1.0)]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                mid = tuple((p + q) / 2.0 for p, q in zip(pts[i], pts[j]))
                lhs = g.eval(0.0, *mid, s)
                rhs = (g.eval(0.0, *pts[i], s) + g.eval(0.0, *pts[j], s)) / 2.0
                assert lhs <= rhs + 1e-12

    def test_k_independent_where_intensity_vanishes(self):
        params = flat_params()
        g = borrow_lend_driver(params, 0.08)
        s = defaulted_state(params)
        assert g.eval(0.5, -1.0, 2.0, 9.0, s) == g.eval(0.5, -1.0, 2.0, 0.0, s)


class TestLargeTraderDriver:
    def test_rejects_gamma_bar_at_most_minus_one(self):
        with pytest.raises(ValueError):
            large_trader_driver(flat_params(), 0.01, -1.0)

    @pytest.mark.parametrize("alpha,gamma_bar,name", [
        (math.nan, 0.2, "alpha"), (math.inf, 0.2, "alpha"), (-math.inf, 0.2, "alpha"),
        (0.01, math.inf, "gamma_bar"), (0.01, math.nan, "gamma_bar"),
    ])
    def test_rejects_non_finite_parameters_naming_them(self, alpha, gamma_bar, name):
        # Unchecked, NaN drops out of the max that makes lipschitz_C (0.0) and inf makes it inf.
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got -?(nan|inf)$"):
            large_trader_driver(flat_params(), alpha, gamma_bar)

    def test_no_impact_reduces_to_perfect(self):
        params = flat_params()
        g0 = perfect_driver(params)
        g = large_trader_driver(params, 0.0, 0.0)
        s = alive_state(params)
        for y, z, k in [(1.0, 1.0, 1.0), (-2.0, 0.5, -0.25), (0.0, 0.0, 0.0)]:
            assert g.eval(0.0, y, z, k, s) == pytest.approx(
                g0.eval(0.0, y, z, k, s), rel=1e-12, abs=1e-15)

    def test_post_default_k_independence(self):
        params = flat_params()
        g = large_trader_driver(params, 0.01, 0.5)
        s = defaulted_state(params)
        assert g.eval(0.2, 1.0, 1.0, 3.0, s) == g.eval(0.2, 1.0, 1.0, 0.0, s)

    def test_hand_value(self):
        # phi1 = (1 + 0.3) / 0.2 = 6.5, phi2 = -1, rbar = 0.05 + 0.01 * 6.5
        params = flat_params(r=0.05, mu1=0.1, sigma1=0.2, mu2=0.0, sigma2=0.3,
                             lam=0.4)
        g = large_trader_driver(params, 0.01, 0.5)
        s = alive_state(params)
        assert g.eval(0.0, 1.0, 1.0, 1.0, s) == pytest.approx(0.0675, abs=1e-12)


class TestLambdaAdmissible:
    def test_zero_driver_passes_any_constant(self):
        params = flat_params()
        g = Driver(name="zero", eval=lambda t, y, z, k, s: 0.0, lipschitz_C=0.0)
        report = check_lambda_admissible(g, admissibility_rows(params, eight_steps(params)))
        assert report.max_ratio == 0.0
        assert report.passed

    def test_perfect_driver_passes_declared_constant(self):
        params = flat_params()
        g = perfect_driver(params)
        report = check_lambda_admissible(g, admissibility_rows(params, eight_steps(params)))
        assert report.passed
        assert report.max_ratio <= g.lipschitz_C + 1e-10

    def test_quadratic_driver_fails_on_wide_grid(self):
        params = flat_params()
        g = Driver(name="square", eval=lambda t, y, z, k, s: k * k, lipschitz_C=5.0)
        report = check_lambda_admissible(
            g, admissibility_rows(params, eight_steps(params), ks=(-100.0, 0.0, 100.0)))
        assert not report.passed
        assert report.max_ratio > 5.0

    def test_a_pair_of_equal_points_is_skipped(self):
        params = flat_params()
        point = tuple(np.array([1.0, -2.0]) for _ in range(3))
        report = check_lambda_admissible(perfect_driver(params),
                                         [(alive_state(params), point, point)])
        assert (report.max_ratio, report.passed, report.worst) == (0.0, True, None)

    def test_borrow_lend_passes_declared_constant(self):
        params = flat_params()
        g = borrow_lend_driver(params, 0.08)
        samples = admissibility_rows(params, eight_steps(params), ys=(-20.0, 0.0, 20.0),
                                     zs=(-20.0, 0.0, 20.0), ks=(-20.0, 0.0, 20.0))
        report = check_lambda_admissible(g, samples)
        assert report.passed

    def test_large_trader_passes_on_its_reference_box(self):
        params = flat_params()
        g = large_trader_driver(params, 0.005, 0.2)
        # positions stay inside the box: |phi1| = |z + 0.3 k| / 0.2 <= 6.5 x for |z|, |k| <= x
        y, x = WEALTH_BOUND, POSITION_BOUND / 6.5
        samples = admissibility_rows(params, eight_steps(params), ys=(-y, 0.0, y),
                                     zs=(-x, 0.0, x), ks=(-x, 0.0, x))
        report = check_lambda_admissible(g, samples)
        assert report.passed


class TestGammaAssumption:
    def test_perfect_driver_ratio_is_minus_theta2(self):
        params = flat_params(r=0.0, mu1=0.1, sigma1=0.2, mu2=0.0, sigma2=0.3, lam=0.5)
        g = perfect_driver(params)
        report = check_gamma_assumption(g, gamma_rows(params, eight_steps(params)))
        assert report.passed
        assert report.min_ratio == pytest.approx(-0.3, abs=1e-12)

    def test_perfect_driver_fails_when_theta2_exceeds_one(self):
        # sigma2 * theta1 - mu2 + r = 0.2 with lam = 0.1 gives theta2 = 2
        params = flat_params(r=0.0, mu1=0.1, sigma1=0.2, mu2=-0.1, sigma2=0.2,
                             lam=0.1)
        g = perfect_driver(params)
        report = check_gamma_assumption(g, gamma_rows(params, eight_steps(params)))
        assert not report.passed
        assert report.min_ratio == pytest.approx(-2.0, abs=1e-12)

    def test_k_independent_driver_passes_with_zero_ratio(self):
        params = flat_params()
        g = Driver(name="flat", eval=lambda t, y, z, k, s: -0.1 * y, lipschitz_C=0.1)
        report = check_gamma_assumption(g, gamma_rows(params, eight_steps(params)))
        assert report.passed
        assert report.min_ratio == 0.0

    def test_constructed_violation_fails(self):
        params = flat_params()
        g = Driver(name="bad", eval=lambda t, y, z, k, s: -2.0 * s.lam * k,
                   lipschitz_C=2.0)
        report = check_gamma_assumption(g, gamma_rows(params, eight_steps(params)))
        assert not report.passed
        assert report.min_ratio == pytest.approx(-2.0, abs=1e-12)

    def test_empty_sample_set_passes_vacuously(self):
        params = flat_params(lam=0.0)
        g = perfect_driver(params)
        report = check_gamma_assumption(g, gamma_rows(params, eight_steps(params)))
        assert report.passed
        assert report.n_samples == 0
        # With default possible but k1 == k2 in every pair, no pair is a sample either.
        params = flat_params()
        rows = [(state, y, z, k1, k1) for state, y, z, k1, _ in
                gamma_rows(params, eight_steps(params))]
        report = check_gamma_assumption(perfect_driver(params), rows)
        assert (report.n_samples, report.min_ratio, report.passed) == (0, math.inf, True)


class TestDefaultIndependenceInvariant:
    def test_every_shipped_driver_ignores_k_after_default(self):
        params = flat_params()
        drivers = [perfect_driver(params),
                   borrow_lend_driver(params, 0.08),
                   large_trader_driver(params, 0.005, 0.2)]
        s = defaulted_state(params)
        for g in drivers:
            for k in (-3.0, -1.0, 2.0, 10.0):
                assert g.eval(0.4, 1.5, -0.7, k, s) == g.eval(0.4, 1.5, -0.7, 0.0, s)


# ---------------------------------------------------------------------------
# Split forms: eval and eval.split give the bits of the reference formulas
# ---------------------------------------------------------------------------

SPLIT_MARKETS = ("const", "lam_zero", "piecewise")
PIECEWISE_R = PiecewiseConstant([0.07, 0.1, 0.08], times=[0.0, 0.25, 0.7])
SPLIT_DRIVERS = {  # factory, reference, times
    "perfect": (perfect_driver, reference_perfect_g, lambda p: ()),
    "borrow_lend": (lambda p: borrow_lend_driver(p, 0.07),
                    lambda p: reference_borrow_lend_g(p, 0.07), lambda p: (0.0,)),
    "borrow_lend_piecewise_R": (lambda p: borrow_lend_driver(p, PIECEWISE_R),
                                lambda p: reference_borrow_lend_g(p, PIECEWISE_R),
                                lambda p: PIECEWISE_R.times),
    "large_trader": (lambda p: large_trader_driver(p, 8e-4, 0.3),
                     lambda p: reference_large_trader_g(p, 8e-4, 0.3), lambda p: ()),
    "large_trader_flat": (lambda p: large_trader_driver(p, 0.0, -0.0),
                          lambda p: reference_large_trader_g(p, 0.0, -0.0), lambda p: ()),
}
SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 1e308, -5e-324)
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


def split_market(style) -> MarketParams:
    base = dict(r=0.05, mu1=0.07, mu2=-0.0, sigma1=0.2, sigma2=0.25, lam=0.2,
                s1_0=100.0, s2_0=80.0, T=1.0)
    if style == "lam_zero":
        base.update(lam=0.0)
    elif style == "piecewise":
        base.update(r=PiecewiseConstant([0.05, -0.0, 0.03], times=[0.0, 0.3, 0.6]),
                    sigma1=PiecewiseConstant([0.2, 0.3], times=[0.0, 0.5]),
                    lam=PiecewiseConstant([0.2, 0.0, 0.4], times=[0.0, 0.4, 0.8]))
    return MarketParams(**base)


def value_bits(value) -> tuple:
    """The type and, elementwise, the IEEE bytes of a driver's value. A float
    NaN counts as one value: which NaN CPython's float arithmetic returns
    (sign and payload) changes once the interpreter specialises the
    operation, so the same formula gives different NaN bits from call to call."""
    if isinstance(value, np.ndarray):
        return np.ndarray, value.dtype, value.shape, value.tobytes()
    return type(value), "nan" if math.isnan(value) else float_bits(value)


class TestSplitForms:
    @pytest.mark.parametrize("kind", sorted(SPLIT_DRIVERS))
    def test_times_declare_the_drivers_own_breakpoints(self, kind):
        factory, _, times = SPLIT_DRIVERS[kind]
        params = split_market("piecewise")
        assert factory(params).eval.times == times(params)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(sorted(SPLIT_DRIVERS)), style=st.sampled_from(SPLIT_MARKETS),
           t=st.sampled_from([0.0, 0.25, 0.3, 0.4, 0.5, 0.65, 0.7, 0.8, 0.99]),
           defaulted=st.booleans(), data=st.data())
    def test_eval_and_split_equal_the_reference_bit_for_bit(self, kind, style, t, defaulted,
                                                            data):
        factory, reference, _ = SPLIT_DRIVERS[kind]
        params = split_market(style)
        driver, g = factory(params), reference(params)
        coef = params.at(t)
        state = NodeState(t, 1.0, 100.0, 0.0 if defaulted else 80.0,
                          0.0 if defaulted else coef.lam, defaulted, coef)
        m = data.draw(st.integers(1, 6), label="m")
        y, z, k = (data.draw(st.lists(VALUES, min_size=m, max_size=m), label=name)
                   for name in "yzk")
        rows = tuple(np.array(v) for v in (y, z, k))
        with np.errstate(all="ignore"):
            for y_, z_, k_ in (rows, (y[0], z[0], k[0])):  # rows, then floats
                want = value_bits(g(t, y_, z_, k_, state))
                assert value_bits(driver.eval(t, y_, z_, k_, state)) == want
                assert value_bits(driver.eval.split(t, z_, k_, state)(y_)) == want
