import pytest

from amhedge.drivers import (Driver, admissibility_rows, borrow_lend_driver,
                             check_gamma_assumption, check_lambda_admissible,
                             gamma_rows, large_trader_driver, perfect_driver)
from amhedge.market import MarketParams, NodeState


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
        report = check_lambda_admissible(g, admissibility_rows(params))
        assert report.max_ratio == 0.0
        assert report.passed

    def test_perfect_driver_passes_declared_constant(self):
        params = flat_params()
        g = perfect_driver(params)
        report = check_lambda_admissible(g, admissibility_rows(params))
        assert report.passed
        assert report.max_ratio <= g.lipschitz_C + 1e-10

    def test_quadratic_driver_fails_on_wide_grid(self):
        params = flat_params()
        g = Driver(name="square", eval=lambda t, y, z, k, s: k * k, lipschitz_C=5.0)
        report = check_lambda_admissible(
            g, admissibility_rows(params, ks=(-100.0, 0.0, 100.0)))
        assert not report.passed
        assert report.max_ratio > 5.0

    def test_borrow_lend_passes_declared_constant(self):
        params = flat_params()
        g = borrow_lend_driver(params, 0.08)
        samples = admissibility_rows(params, ys=(-20.0, 0.0, 20.0),
                                     zs=(-20.0, 0.0, 20.0), ks=(-20.0, 0.0, 20.0))
        report = check_lambda_admissible(g, samples)
        assert report.passed

    def test_large_trader_passes_on_its_reference_box(self):
        params = flat_params()
        g = large_trader_driver(params, 0.005, 0.2, wealth_bound=50.0,
                                position_bound=60.0)
        # positions stay inside the box for |z|, |k| <= 8 with these sigmas
        samples = admissibility_rows(params, ys=(-50.0, 0.0, 50.0),
                                     zs=(-8.0, 0.0, 8.0), ks=(-8.0, 0.0, 8.0))
        report = check_lambda_admissible(g, samples)
        assert report.passed


class TestGammaAssumption:
    def test_perfect_driver_ratio_is_minus_theta2(self):
        params = flat_params(r=0.0, mu1=0.1, sigma1=0.2, mu2=0.0, sigma2=0.3, lam=0.5)
        g = perfect_driver(params)
        report = check_gamma_assumption(g, gamma_rows(params))
        assert report.passed
        assert report.min_ratio == pytest.approx(-0.3, abs=1e-12)

    def test_perfect_driver_fails_when_theta2_exceeds_one(self):
        # sigma2 * theta1 - mu2 + r = 0.2 with lam = 0.1 gives theta2 = 2
        params = flat_params(r=0.0, mu1=0.1, sigma1=0.2, mu2=-0.1, sigma2=0.2,
                             lam=0.1)
        g = perfect_driver(params)
        report = check_gamma_assumption(g, gamma_rows(params))
        assert not report.passed
        assert report.min_ratio == pytest.approx(-2.0, abs=1e-12)

    def test_k_independent_driver_passes_with_zero_ratio(self):
        params = flat_params()
        g = Driver(name="flat", eval=lambda t, y, z, k, s: -0.1 * y, lipschitz_C=0.1)
        report = check_gamma_assumption(g, gamma_rows(params))
        assert report.passed
        assert report.min_ratio == 0.0

    def test_constructed_violation_fails(self):
        params = flat_params()
        g = Driver(name="bad", eval=lambda t, y, z, k, s: -2.0 * s.lam * k,
                   lipschitz_C=2.0)
        report = check_gamma_assumption(g, gamma_rows(params))
        assert not report.passed
        assert report.min_ratio == pytest.approx(-2.0, abs=1e-12)

    def test_empty_sample_set_passes_vacuously(self):
        params = flat_params(lam=0.0)
        g = perfect_driver(params)
        report = check_gamma_assumption(g, gamma_rows(params))
        assert report.passed
        assert report.n_samples == 0


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
