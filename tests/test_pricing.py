import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amhedge import cli, hedging, pricing, rbsde
from amhedge.bsde import ConvergenceError
from amhedge.cli import canonical_json, report_to_dict
from amhedge.drivers import (Driver, borrow_lend_driver, large_trader_driver, perfect_driver,
                             split_eval)
from amhedge.market import MarketParams, NodeState, PiecewiseConstant, build_tree
from amhedge.payoffs import call, put
from amhedge.oracle import brute_force_seller_value, enumerate_stopping_rules, g_evaluation
from amhedge.pricing import (StoppingRule, buyer_price, epsilon_gap_bound,
                             epsilon_rational, is_rational, phi_inverse, phi_map,
                             price_american, rational_exercise_times, seller_price,
                             strategy_from_solution)
from amhedge.rbsde import Obstacle, solve_rbsde_lower, solve_rbsde_upper
from helpers import (DRIVER_KINDS, assert_plain_stats, black_scholes_call, dict_rows,
                     duality_instances, eight_steps, float_bits, make_driver, make_instance,
                     named_payoff, negated, per_step_strategy, refuse_node_views,
                     scalar_epsilon_rational, scalar_is_rational, style_params)

ZERO = Driver(name="zero", eval=lambda t, y, z, k, s: 0.0, lipschitz_C=0.0)
README_MARKET = dict(r=0.05, mu1=0.07, mu2=-0.02, sigma1=0.2, sigma2=0.25, lam=0.25,
                     s1_0=100.0, s2_0=90.0, T=1.0)


def flat_params(**overrides):
    base = dict(r=0.05, mu1=0.05, mu2=0.0, sigma1=0.2, sigma2=0.3, lam=0.0,
                s1_0=100.0, s2_0=90.0, T=1.0)
    base.update(overrides)
    return MarketParams(**base)


class TestPhiMap:
    def test_zero_maps_to_zero(self):
        assert phi_map(0.0, 0.0, 0.2, 0.3) == (0.0, 0.0)

    def test_hand_value(self):
        phi1, phi2 = phi_map(0.5, -0.2, 0.2, 0.3)
        assert phi2 == pytest.approx(0.2, abs=1e-15)
        assert phi1 == pytest.approx(2.2, rel=1e-14)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(z=st.floats(-1e4, 1e4), k=st.floats(-1e4, 1e4))
    def test_round_trip(self, z, k):
        phi1, phi2 = phi_map(z, k, 0.2, 0.3)
        z2, k2 = phi_inverse(phi1, phi2, 0.2, 0.3)
        assert k2 == k
        assert z2 == pytest.approx(z, rel=1e-12, abs=1e-12)

    def test_rejects_zero_sigma1(self):
        with pytest.raises(ValueError):
            phi_map(1.0, 1.0, 0.0, 0.3)
        with pytest.raises(ValueError):
            phi_inverse(1.0, 1.0, 0.0, 0.3)


class TestSellerPrice:
    def test_zero_payoff_zero_price_and_strategy(self):
        tree = build_tree(flat_params(lam=0.2), 3)
        obs = Obstacle(tree, dict_rows(tree, {node: 0.0 for node in tree.nodes}))
        result = seller_price(tree, ZERO, obs)
        assert result.u0 == 0.0
        for rows in (result.strategy.phi1_rows, result.strategy.phi2_rows):
            assert all(v == 0.0 for v in tree.node_dict(rows, range(tree.n_steps)).values())

    def test_price_dominates_immediate_exercise(self):
        rng = np.random.default_rng(201)
        for kind in ("perfect", "borrow_lend", "large_trader"):
            inst = make_instance(rng, kind, 3)
            result = seller_price(inst.tree, inst.driver, inst.obstacle)
            assert result.u0 >= inst.obstacle.rows[0] - 1e-12  # the root's payoff

    def test_matches_rule_enumeration(self):
        rng = np.random.default_rng(202)
        inst = make_instance(rng, "borrow_lend", 3)
        result = seller_price(inst.tree, inst.driver, inst.obstacle)
        brute = brute_force_seller_value(inst.tree, inst.driver, inst.obstacle)
        assert result.u0 == pytest.approx(brute, abs=1e-12)

    def test_gamma_precondition_enforced(self):
        params = flat_params(r=0.0, mu1=0.1, sigma1=0.2, mu2=-0.1, sigma2=0.2,
                             lam=0.1)
        tree = build_tree(params, 3)
        obs = Obstacle(tree, dict_rows(tree, {node: 1.0 for node in tree.nodes}))
        with pytest.raises(ValueError, match="monotonicity"):
            seller_price(tree, perfect_driver(params), obs)
        assert seller_price(tree, perfect_driver(params), obs,
                            gamma_check=False).u0 == 1.0

    def test_gamma_precondition_samples_out_to_price_scale(self):
        # the impact driver's jump sensitivity is benign near the origin but
        # breaches the -1 floor at wealth levels the solver visits
        from amhedge.drivers import check_gamma_assumption, gamma_rows, \
            large_trader_driver
        params = flat_params(lam=0.1, sigma1=0.2, sigma2=0.27)
        driver = large_trader_driver(params, 0.002, 0.0)
        unit = check_gamma_assumption(driver, gamma_rows(params, eight_steps(params)))
        assert unit.passed
        tree = build_tree(params, 3)
        obs = Obstacle(tree, dict_rows(tree, {node: 1.0 for node in tree.nodes}))
        with pytest.raises(ValueError, match="monotonicity"):
            seller_price(tree, driver, obs)

    def test_defaulted_positions_in_second_asset_vanish(self):
        rng = np.random.default_rng(203)
        inst = make_instance(rng, "perfect", 4)
        result = seller_price(inst.tree, inst.driver, inst.obstacle)
        for node, phi2 in inst.tree.node_dict(result.strategy.phi2_rows,
                                              range(inst.tree.n_steps)).items():
            if inst.tree.nodes[node].defaulted:
                assert phi2 == 0.0


class TestPrecheckSampling:
    """The price precheck samples one state per distinct (coefficient record,
    piece of ``eval.times``), at its first step, and every step of a driver
    that declares no ``times``."""

    STEPWISE_R = PiecewiseConstant([0.07, 0.08, 0.09], times=[0.0, 0.25, 0.75])

    @staticmethod
    def precheck(monkeypatch, tree, driver) -> tuple:
        """The samples handed to the check and its report (or the error raised)."""
        handed = []

        def spy(d, samples):
            handed.append(list(samples))
            return check(d, handed[-1])

        check = pricing.check_gamma_assumption
        monkeypatch.setattr(pricing, "check_gamma_assumption", spy)
        try:
            pricing._require_gamma(tree, driver)
        except ValueError as exc:
            return handed[0], exc
        return handed[0], None

    @pytest.mark.parametrize("market,kind,first_steps", [
        ("const", "perfect", [0]), ("const", "borrow_lend", [0]), ("const", "large_trader", [0]),
        ("piecewise", "perfect", [0, 4]), ("piecewise", "borrow_lend", [0, 4]),
        ("piecewise", "large_trader", [0, 4]), ("const", "borrow_lend_stepwise_R", [0, 3, 8]),
        ("signed_zero_r", "perfect", [0, 5])])
    def test_shipped_drivers_are_sampled_once_per_piece(self, monkeypatch, market, kind,
                                                         first_steps):
        # The piecewise market's intensity is 0 from t = 0.5, where no state is
        # sampled; a rate of 0.0 then -0.0 makes two records, which compare equal.
        params = (flat_params(r=PiecewiseConstant([0.0, -0.0], times=[0.0, 0.5]), lam=0.2)
                  if market == "signed_zero_r" else style_params(market, 0.05, 0.25))
        driver = {"perfect": lambda: perfect_driver(params),
                  "borrow_lend": lambda: borrow_lend_driver(params, 0.08),
                  "borrow_lend_stepwise_R": lambda: borrow_lend_driver(params, self.STEPWISE_R),
                  "large_trader": lambda: large_trader_driver(params, 0.0, 0.3)}[kind]()
        tree = build_tree(params, 10)
        samples, error = self.precheck(monkeypatch, tree, driver)
        assert error is None
        assert [round(state.t / tree.dt) for state, *_ in samples] == first_steps
        # The smallest ratio and its state are those of sampling every step.
        every = dataclasses.replace(driver, eval=split_eval(driver.eval.split, None))
        all_samples, _ = self.precheck(monkeypatch, tree, every)
        assert len(all_samples) == sum(c.lam > 0.0 for c in tree.coef[:-1]) > len(samples)
        want = pricing.check_gamma_assumption(every, all_samples)
        got = pricing.check_gamma_assumption(driver, samples)
        assert (got.min_ratio, got.worst[0]) == (want.min_ratio, want.worst[0])

    def test_a_driver_without_times_is_sampled_at_every_step(self, monkeypatch):
        params = style_params("const", 0.05, 0.25)
        tree = build_tree(params, 10)
        plain = Driver(name="plain", eval=lambda t, y, z, k, s: -0.5 * s.lam * k + 0.0 * y,
                       lipschitz_C=1.0)
        split = perfect_driver(params).eval.split
        for driver in (plain, Driver(name="split", eval=split_eval(split, None),
                                     lipschitz_C=1.0)):
            samples, error = self.precheck(monkeypatch, tree, driver)
            assert error is None and len(samples) == 10

    def test_a_breach_at_one_step_inside_a_piece_is_rejected(self, monkeypatch):
        params = style_params("const", 0.05, 0.25)
        tree = build_tree(params, 10)
        t5, t6 = tree.time(5), tree.time(6)

        def split(t, z, k, s):
            w = -2.0 if t5 <= t < t6 else 0.0  # ratio -2 at step 5 alone
            return lambda y: w * s.lam * k + 0.0 * y

        undeclared = Driver(name="undeclared", eval=lambda t, y, z, k, s: split(t, z, k, s)(y),
                            lipschitz_C=1.0)
        declared = Driver(name="declared", eval=split_eval(split, (t5, t6)), lipschitz_C=1.0)
        for driver, count in ((undeclared, 10), (declared, 3)):
            samples, error = self.precheck(monkeypatch, tree, driver)
            assert len(samples) == count
            assert "min sampled ratio -2 <= -1" in str(error)


class TestAdmissibleSampling:
    """The ``admissible`` check samples the states the price precheck does: the first
    step of each (coefficient record, piece of ``eval.times``); its report keeps the
    bits of sampling every step."""

    STEPWISE_R = PiecewiseConstant([0.07, 0.08, 0.09], times=[0.0, 0.25, 0.75])

    @staticmethod
    def check(monkeypatch, tree, driver) -> tuple:
        """The ``admissible`` entry of report.json and the sampled states' steps."""
        handed = []

        def spy(d, samples):
            handed.extend(round(state.t / tree.dt) for state, *_ in samples)
            return check(d, samples)

        check = cli.check_lambda_admissible
        monkeypatch.setattr(cli, "check_lambda_admissible", spy)
        return canonical_json(cli._check_admissible(tree, driver)), handed

    @pytest.mark.parametrize("market,first_steps", [
        ("const", [0]), ("piecewise", [0, 4, 5, 6]), ("stepwise_R", [0, 3, 8]),
        ("lam_to_zero", [0, 5])])
    @pytest.mark.parametrize("kind", ["perfect", "borrow_lend", "large_trader"])
    def test_one_step_per_piece_gives_the_every_step_report(self, monkeypatch, market, kind,
                                                             first_steps):
        params = (style_params(market, 0.05, 0.25) if market in ("const", "piecewise")
                  else MarketParams(**dict(README_MARKET, lam=PiecewiseConstant(
                      [0.25, 0.0], times=[0.0, 0.5]) if market == "lam_to_zero" else 0.25)))
        R = self.STEPWISE_R if market == "stepwise_R" else 0.08
        driver = {"perfect": lambda: perfect_driver(params),
                  "borrow_lend": lambda: borrow_lend_driver(params, R),
                  "large_trader": lambda: large_trader_driver(params, 5e-4, 0.3)}[kind]()
        tree = build_tree(params, 10)
        report, steps = self.check(monkeypatch, tree, driver)
        if kind != "borrow_lend" and market == "stepwise_R":  # R's pieces are borrow_lend's
            first_steps = [0]
        assert steps == [i for i in first_steps for _ in (0, 1)]  # alive and defaulted
        every = dataclasses.replace(driver, eval=split_eval(driver.eval.split, None))
        want, every_steps = self.check(monkeypatch, tree, every)
        assert every_steps == [i for i in range(10) for _ in (0, 1)]
        assert report == want

    def test_a_driver_without_times_is_sampled_at_every_step(self, monkeypatch):
        params = style_params("const", 0.05, 0.25)
        tree = build_tree(params, 10)
        plain = Driver(name="plain", eval=lambda t, y, z, k, s: -0.5 * s.lam * k + 0.0 * y,
                       lipschitz_C=1.0)
        _, steps = self.check(monkeypatch, tree, plain)
        assert steps == [i for i in range(10) for _ in (0, 1)]


class TestBuyerPrice:
    def test_linear_driver_buyer_equals_seller(self):
        rng = np.random.default_rng(211)
        inst = make_instance(rng, "perfect", 4)
        u0 = seller_price(inst.tree, inst.driver, inst.obstacle).u0
        v0 = buyer_price(inst.tree, inst.driver, inst.obstacle).v0
        assert abs(u0 - v0) <= 1e-10

    def test_constant_payoff_stops_at_root(self):
        tree = build_tree(flat_params(lam=0.2), 3)
        obs = Obstacle(tree, dict_rows(tree, {node: 7.0 for node in tree.nodes}))
        result = buyer_price(tree, ZERO, obs)
        assert result.v0 == 7.0
        assert result.exercise.rows[0]  # stops at the root

    def test_matches_rule_enumeration(self):
        rng = np.random.default_rng(212)
        inst = make_instance(rng, "borrow_lend", 3)
        v0 = buyer_price(inst.tree, inst.driver, inst.obstacle).v0
        neg = negated(inst.obstacle)
        worst = min(g_evaluation(inst.tree, inst.driver, rule, neg)
                    for rule in enumerate_stopping_rules(inst.tree))
        assert v0 == pytest.approx(-worst, abs=1e-12)

    def test_interval_ordering_for_convex_driver(self):
        rng = np.random.default_rng(213)
        inst = make_instance(rng, "borrow_lend", 4)
        u0 = seller_price(inst.tree, inst.driver, inst.obstacle).u0
        v0 = buyer_price(inst.tree, inst.driver, inst.obstacle).v0
        assert v0 <= u0 + 1e-12


def binding_put_instance(lam=0.0, n_steps=6):
    params = flat_params(r=0.06, mu1=0.06, lam=lam)
    tree = build_tree(params, n_steps)
    obs = Obstacle.from_payoff(tree, lambda t, s1, s2, d: max(110.0 - s1, 0.0))
    return params, tree, obs


class TestRationalExercise:
    def test_binding_at_root_stops_at_root(self):
        tree = build_tree(flat_params(), 3)
        obs = Obstacle.from_payoff(tree, lambda t, s1, s2, d: 50.0 - 40.0 * t)
        sol = seller_price(tree, ZERO, obs).solution
        nu_star, nu_bar = rational_exercise_times(sol, obs)
        assert nu_star.rows[0]  # the root
        assert nu_bar.rows[0] == (sol.da_rows[0] > 0.0)

    def test_non_binding_stops_only_at_terminal(self):
        rng = np.random.default_rng(221)
        inst = make_instance(rng, "perfect", 3)
        xi = inst.tree.node_dict(inst.obstacle.rows)
        low = Obstacle(inst.tree, dict_rows(inst.tree, {
            n: xi[n] if inst.tree.is_terminal(n) else -1e9 for n in inst.tree.nodes}))
        sol = seller_price(inst.tree, inst.driver, low).solution
        nu_star, nu_bar = (inst.tree.node_dict(rule.rows)
                           for rule in rational_exercise_times(sol, low))
        for node in inst.tree.nodes:
            expect = inst.tree.is_terminal(node)
            assert nu_star[node] == expect
            assert nu_bar[node] == expect

    def test_late_rule_stops_no_earlier_than_early_rule(self):
        params, tree, obs = binding_put_instance()
        sol = seller_price(tree, perfect_driver(params), obs).solution
        nu_star, nu_bar = (tree.node_dict(rule.rows) for rule in rational_exercise_times(sol, obs))
        for node in tree.nodes:
            if nu_bar[node] and not tree.is_terminal(node):
                assert nu_star[node]

    def test_both_rules_rational_and_optimal(self):
        params, tree, obs = binding_put_instance()
        g = perfect_driver(params)
        result = seller_price(tree, g, obs)
        assert any(da > 0.0 for da in tree.node_dict(result.solution.da_rows,
                                                     range(tree.n_steps)).values())
        nu_star, nu_bar = rational_exercise_times(result.solution, obs)
        assert is_rational(result.solution, obs, nu_star).ok
        assert is_rational(result.solution, obs, nu_bar).ok
        for rule in (nu_star, nu_bar):
            value = g_evaluation(tree, g, rule, obs)
            assert value == pytest.approx(result.u0, abs=1e-10)

    def test_terminal_rule_rejected_with_witness(self):
        params, tree, obs = binding_put_instance()
        result = seller_price(tree, perfect_driver(params), obs)
        rule = StoppingRule(tree, dict_rows(tree, {node: tree.is_terminal(node)
                                                   for node in tree.nodes}))
        report = is_rational(result.solution, obs, rule)
        assert not report.ok
        assert report.witness is not None
        assert "charge" in report.reason

    def test_stopping_off_the_payoff_rejected(self):
        params, tree, obs = binding_put_instance()
        result = seller_price(tree, perfect_driver(params), obs)
        assert result.solution.y_rows[0] > obs.rows[0]  # at the root
        rule = StoppingRule(tree, dict_rows(tree, {node: True for node in tree.nodes}))
        report = is_rational(result.solution, obs, rule)
        assert not report.ok
        assert report.witness == tree.root
        assert "payoff" in report.reason


class TestEpsilonRational:
    def test_huge_eps_stops_at_root(self):
        params, tree, obs = binding_put_instance()
        g = perfect_driver(params)
        result = seller_price(tree, g, obs)
        rule, gap = epsilon_rational(result.solution, obs, 1e6)
        assert rule.rows[0]  # stops at the root
        assert gap == pytest.approx(result.u0 - obs.rows[0], abs=1e-12)
        assert gap <= epsilon_gap_bound(g, params.T, 1e6)

    def test_small_eps_recovers_early_rule(self):
        params, tree, obs = binding_put_instance()
        g = perfect_driver(params)
        result = seller_price(tree, g, obs)
        nu_star, _ = rational_exercise_times(result.solution, obs)
        rule, gap = epsilon_rational(result.solution, obs, 1e-13)
        assert tree.node_dict(rule.rows) == tree.node_dict(nu_star.rows)
        assert abs(gap) <= 1e-10

    def test_gap_bounded_and_monotone(self):
        rng = np.random.default_rng(231)
        inst = make_instance(rng, "borrow_lend", 4)
        result = seller_price(inst.tree, inst.driver, inst.obstacle)
        # the optimum the gap is measured against agrees with enumeration
        brute = brute_force_seller_value(inst.tree, inst.driver, inst.obstacle)
        assert result.u0 == pytest.approx(brute, abs=1e-12)
        gaps = []
        for eps in (0.1, 0.01, 0.001):
            rule, gap = epsilon_rational(result.solution, inst.obstacle, eps)
            assert gap == pytest.approx(
                brute - g_evaluation(inst.tree, inst.driver, rule, inst.obstacle),
                abs=1e-12)
            assert -1e-12 <= gap <= epsilon_gap_bound(inst.driver, inst.params.T, eps)
            gaps.append(gap)
        assert gaps[2] <= gaps[1] + 1e-10
        assert gaps[1] <= gaps[0] + 1e-10

    @pytest.mark.parametrize("kind", ["perfect", "borrow_lend", "large_trader"])
    def test_row_rule_equals_the_per_node_rule(self, kind):
        params = MarketParams(**README_MARKET)
        tree = build_tree(params, 6)
        driver = {"perfect": perfect_driver(params),
                  "borrow_lend": borrow_lend_driver(params, 0.07),
                  "large_trader": large_trader_driver(params, 8e-4, 0.2)}[kind]
        obs = Obstacle.from_payoff(tree, put(105.0))
        sol = seller_price(tree, driver, obs, gamma_check=False).solution
        # Gaps y - payoff of inner nodes that, added back to the payoff,
        # give y exactly, so that the rule's comparison ties there.
        xi = tree.node_dict(obs.rows)
        ties = sorted({y - xi[node] for node, y in tree.node_dict(sol.y_rows).items()
                       if not tree.is_terminal(node) and y > xi[node]
                       and xi[node] + (y - xi[node]) == y})
        assert len(ties) >= 3
        for eps in (*ties[::max(1, len(ties) // 4)], 1e-13, 0.1, 1e6):
            rule, gap = epsilon_rational(sol, obs, eps)
            stop, want = scalar_epsilon_rational(sol, obs, eps)
            assert rule.rows.dtype == bool
            assert list(tree.node_dict(rule.rows).items()) == list(stop.items())
            assert float_bits(gap) == float_bits(want)

    def test_rejects_nonpositive_eps(self):
        params, tree, obs = binding_put_instance()
        sol = seller_price(tree, perfect_driver(params), obs).solution
        with pytest.raises(ValueError):
            epsilon_rational(sol, obs, 0.0)


class TestPriceAmerican:
    def test_report_fields_consistent(self):
        rng = np.random.default_rng(241)
        inst = make_instance(rng, "borrow_lend", 3)
        report = price_american(inst.tree, inst.driver, inst.obstacle)
        u0, v0 = report.seller.u0, report.buyer.v0
        assert u0 == seller_price(inst.tree, inst.driver, inst.obstacle).u0
        assert v0 == buyer_price(inst.tree, inst.driver, inst.obstacle).v0
        assert report.interval_ok == (v0 <= u0 + 1e-10)
        n_nonterminal = sum(1 for n in inst.tree.nodes
                            if not inst.tree.is_terminal(n))
        terminal = inst.tree.starts[-3]  # the first terminal node
        assert terminal == n_nonterminal
        for strategy in (report.seller.strategy, report.buyer.strategy):
            assert len(strategy.phi1_rows) == len(inst.tree.s1)
            assert not strategy.phi1_rows[terminal:].any()
        for rule in (report.nu_star, report.nu_bar, report.buyer.exercise):
            assert rule.rows[terminal:].all()


# The README market's default-free asset without default, with its rate or its
# drift stepping at t = 0.5, against a closed form that shares no code with the
# lattice. Lattice minus closed form, for K = 95 / 105: constant -0.030 / -0.033
# at n = 64 and -0.0063 / -0.0069 at n = 256; piecewise r -0.029 / -0.034 and
# -0.0062 / -0.0072; piecewise mu1 -0.032 / -0.013 and -0.030 / -0.025 (still
# -0.013 / -0.010 at n = 1024). A time-varying sigma diverges and is left out.
BLACK_SCHOLES_MARKETS = {
    "constant": {},
    "piecewise_r": {"r": PiecewiseConstant([0.05, 0.08], times=[0.0, 0.5])},
    "piecewise_mu1": {"mu1": PiecewiseConstant([0.07, 0.12], times=[0.0, 0.5])},
}


@pytest.mark.parametrize("strike", [95.0, 105.0])
@pytest.mark.parametrize("market,n_steps,bound", [
    ("constant", 64, 0.04), ("constant", 256, 0.01),
    ("piecewise_r", 64, 0.04), ("piecewise_r", 256, 0.01),
    ("piecewise_mu1", 64, 0.04), ("piecewise_mu1", 256, 0.04),
])
def test_frictionless_call_is_near_black_scholes(market, n_steps, bound, strike):
    params = MarketParams(**dict(README_MARKET, lam=0.0, **BLACK_SCHOLES_MARKETS[market]))
    tree = build_tree(params, n_steps)
    report = price_american(tree, perfect_driver(params), Obstacle.from_payoff(tree, call(strike)))
    reference = black_scholes_call(params.s1_0, strike, params.r, params.sigma1, params.T)
    assert abs(report.seller.u0 - reference) <= bound
    assert abs(report.buyer.v0 - reference) <= bound


def _row_items(tree, values, steps, cast=float):
    """(node, value) pairs of a row-order array, level by level, alive row first."""
    return [((i, j, d), cast(v)) for i in steps for d, row in enumerate(tree.step_rows(values, i))
            for j, v in enumerate(row.tolist())]


def test_price_path_stays_on_rows(monkeypatch):
    params = flat_params(mu1=0.07, mu2=-0.02, sigma2=0.25,
                         lam=PiecewiseConstant([0.25, 0.0], times=[0.0, 0.5]))
    tree = build_tree(params, 6)
    with monkeypatch.context() as patch:
        refuse_node_views(patch)
        obstacle = Obstacle.from_payoff(tree, put(105.0))
        report = price_american(tree, borrow_lend_driver(params, 0.07), obstacle)
        canonical_json(report_to_dict(report))

    solutions = (report.seller.solution, report.buyer.solution)
    strategies = (report.seller.strategy, report.buyer.strategy)
    rules = (report.buyer.exercise, report.nu_star, report.nu_bar)
    # The tree's view and the node dict of each array, at every step or below the
    # last, hold the rows in the node-by-node order.
    n = tree.n_steps
    every, below = range(n + 1), range(n)
    assert list(tree.nodes.items()) == [
        (node, NodeState(tree.time(node[0]), tree.s0[node[0]], s1, s2,
                         tree.coef[node[0]].lam if not node[2] else 0.0, bool(node[2]),
                         tree.coef[node[0]]))
        for (node, s1), (_, s2) in zip(_row_items(tree, tree.s1, every),
                                          _row_items(tree, tree.s2, every))]
    arrays = [(obstacle.rows, every)]
    for sol in solutions:
        arrays += [(sol.y_rows, every), (sol.z_rows, below), (sol.k_rows, below),
                   (sol.da_rows, below)]
    for strategy in strategies:
        arrays += [(strategy.phi1_rows, below), (strategy.phi2_rows, below)]
    for rows, steps in arrays:
        assert list(tree.node_dict(rows, steps).items()) == _row_items(tree, rows, steps)
    for rule in rules:
        stop = tree.node_dict(rule.rows)
        assert list(stop.items()) == _row_items(tree, rule.rows, every, bool)
        assert all(stop[node] for node in tree.terminal_nodes())


def test_rationality_and_strict_gain_stay_on_rows(monkeypatch):
    params = flat_params(mu1=0.07, mu2=-0.02, sigma2=0.25,
                         lam=PiecewiseConstant([0.25, 0.0], times=[0.0, 0.5]))
    tree = build_tree(params, 6)
    obstacle = Obstacle.from_payoff(tree, put(105.0))
    report = price_american(tree, borrow_lend_driver(params, 0.07), obstacle)
    seller = report.seller
    field = hedging.simulate_wealth(tree, seller.u0, seller.strategy, seller.solution.driver)

    def no_call(*args, **kwargs):
        raise AssertionError("the check solved or simulated again")

    for name in ("solve_rbsde_lower", "simulate_wealth"):
        monkeypatch.setattr(hedging, name, no_call)
    refuse_node_views(monkeypatch)
    rules = (report.nu_star, report.nu_bar, report.buyer.exercise)
    assert [is_rational(seller.solution, obstacle, rule).ok for rule in rules[:2]] == [True, True]
    assert is_rational(report.buyer.solution, negated(obstacle), report.buyer.exercise).ok
    gain = hedging.strict_gain_after_nubar(field, seller.solution)
    assert gain.passed and gain.n_states > 0
    assert "node_ids" not in vars(field)


# ---------------------------------------------------------------------------
# The row recurrence of is_rational against the node-dict walk of
# helpers.scalar_is_rational
# ---------------------------------------------------------------------------

def assert_rational_matches_scalar(solution, obstacle, rule):
    """The same (ok, witness, reason), the witness a tuple of Python ints."""
    got = is_rational(solution, obstacle, rule)
    want = scalar_is_rational(solution, obstacle, rule)
    assert (got.ok, got.witness, got.reason) == (want.ok, want.witness, want.reason)
    assert got.witness is None or {type(x) for x in got.witness} == {int}
    return got


def random_rule(tree, rng, p_stop):
    """Stop flags drawn independently per node, terminal nodes included, so
    the rule can also fail to stop at the terminal step."""
    return StoppingRule(tree, rng.random(len(tree.s1)) < p_stop)


def test_row_is_rational_equals_the_scalar_walk_on_every_enumerated_rule():
    reasons = []
    for inst in duality_instances():
        solution = solve_rbsde_lower(inst.tree, inst.driver, inst.obstacle)
        for rule in enumerate_stopping_rules(inst.tree):
            reasons.append(assert_rational_matches_scalar(solution, inst.obstacle, rule).reason)
    assert len(reasons) == 1698
    assert {reason.split(" ")[0] for reason in reasons} == {"", "value", "cumulative"}


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(style=st.sampled_from(("const", "piecewise", "lam_zero")),
       kind=st.sampled_from(DRIVER_KINDS), payoff=st.sampled_from(("put", "call", "expr")),
       n_steps=st.integers(1, 16), r=st.floats(0.0, 0.06), sigma1=st.floats(0.1, 0.5),
       strike=st.floats(70.0, 130.0), seed=st.integers(0, 2**32 - 1))
def test_row_is_rational_equals_the_scalar_walk_on_random_markets(
        style, kind, payoff, n_steps, r, sigma1, strike, seed):
    params = style_params(style, r, sigma1)
    tree = build_tree(params, n_steps)
    obstacle = Obstacle.from_payoff(tree, named_payoff(payoff, strike))
    try:
        report = price_american(tree, make_driver(kind, params), obstacle, gamma_check=False)
    except ConvergenceError:
        return
    rng = np.random.default_rng(seed)
    seller = report.seller.solution
    for rule in (report.nu_star, report.nu_bar, report.buyer.exercise,
                 random_rule(tree, rng, 0.2), random_rule(tree, rng, 0.7)):
        assert_rational_matches_scalar(seller, obstacle, rule)
    assert_rational_matches_scalar(report.buyer.solution, negated(obstacle),
                                   report.buyer.exercise)


@pytest.mark.parametrize("seed", range(6))
def test_row_is_rational_equals_the_scalar_walk_on_nan_charges(seed):
    # A NaN charge reaches a child first or after a number; the walk keeps the
    # first arrival unless a later one is strictly larger, so either stays.
    rng = np.random.default_rng(seed)
    params = style_params("piecewise", 0.03, 0.25)
    tree = build_tree(params, 7)
    obstacle = Obstacle.from_payoff(tree, put(float(rng.uniform(95.0, 115.0))))
    solution = solve_rbsde_lower(tree, make_driver("borrow_lend", params), obstacle)
    nu_star, nu_bar = rational_exercise_times(solution, obstacle)
    # Stops on the payoff but not where a charge leaves, so charges accrue.
    inner = tree.starts[-3]  # the nodes below the last step
    through = (solution.y_rows == obstacle.rows) & ~(solution.da_rows > 0.0)
    through[inner:] = nu_bar.rows[inner:]
    through = StoppingRule(tree, through)
    da = solution.da_rows.copy()
    da[:inner] = np.where(rng.random(inner) < 0.3, math.nan, da[:inner])
    nan_y = np.where(rng.random(len(tree.s1)) < 0.1, math.nan, solution.y_rows)
    for changes in ({"da_rows": da}, {"da_rows": da, "y_rows": nan_y}):
        broken = dataclasses.replace(solution, **changes)
        for rule in (nu_star, nu_bar, through, random_rule(tree, rng, 0.1),
                     random_rule(tree, rng, 0.5)):
            assert_rational_matches_scalar(broken, obstacle, rule)


def _rows_bits(values):
    return [float_bits(v) for v in values]


def _rule_rows(rule):
    return rule.rows.tolist()


def _side(solution, strategy):
    assert_plain_stats(solution.stats)
    return (solution.kind, solution.stats, *map(_rows_bits, (
        solution.y_rows, solution.z_rows, solution.k_rows, solution.da_rows,
        strategy.phi1_rows, strategy.phi2_rows)))


def _outcome(compute):
    try:
        return compute()
    except ConvergenceError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(style=st.sampled_from(("const", "piecewise", "lam_zero")),
       kind=st.sampled_from(DRIVER_KINDS), payoff=st.sampled_from(("put", "call", "expr")),
       n_steps=st.integers(1, 16), r=st.floats(0.0, 0.06), sigma1=st.floats(0.1, 0.5),
       strike=st.floats(70.0, 130.0))
def test_shared_sweep_equals_the_standalone_solves_on_random_markets(
        style, kind, payoff, n_steps, r, sigma1, strike):
    params = style_params(style, r, sigma1)
    tree = build_tree(params, n_steps)
    driver = make_driver(kind, params)
    obstacle = Obstacle.from_payoff(tree, named_payoff(payoff, strike))

    def shared():
        report = price_american(tree, driver, obstacle, gamma_check=False)
        return (_side(report.seller.solution, report.seller.strategy),
                _side(report.buyer.solution, report.buyer.strategy),
                *map(_rule_rows, (report.buyer.exercise, report.nu_star, report.nu_bar)))

    def standalone():
        upper = negated(obstacle)
        lower_sol = solve_rbsde_lower(tree, driver, obstacle)
        upper_sol = solve_rbsde_upper(tree, driver, upper)
        exercise = rational_exercise_times(upper_sol, upper)[0]
        return (_side(lower_sol, strategy_from_solution(lower_sol)),
                _side(upper_sol, strategy_from_solution(upper_sol)),
                *map(_rule_rows, (exercise, *rational_exercise_times(lower_sol, obstacle))))

    assert _outcome(shared) == _outcome(standalone)


def test_price_american_solves_both_sides_in_one_sweep(monkeypatch):
    sweep, calls = rbsde.backward_sweep, []

    def recording(tree, sides):
        calls.append([kind for kind, _, _ in sides])
        return sweep(tree, sides)

    monkeypatch.setattr(rbsde, "backward_sweep", recording)
    params = MarketParams(**README_MARKET)
    tree = build_tree(params, 8)
    price_american(tree, borrow_lend_driver(params, 0.07), Obstacle.from_payoff(tree, put(105.0)))
    assert calls == [["lower", "upper"]]


def _side_by_side_error(tree, driver, obstacle) -> str:
    with pytest.raises(ConvergenceError) as exc:
        seller_price(tree, driver, obstacle, gamma_check=False)
        buyer_price(tree, driver, obstacle, gamma_check=False)
    return str(exc.value)


class TestSharedSweepFailure:
    """A failure of the shared sweep raises what the two standalone solves,
    seller first, would."""

    def setup_method(self):
        params = MarketParams(**README_MARKET)
        self.tree = build_tree(params, 4)  # dt = 0.25
        self.obstacle = Obstacle.from_payoff(self.tree, put(105.0))

    def test_only_the_buyer_fails(self):
        # Picard on y = e - 12.5 y for y < 0 cycles, and only the buyer's
        # values are negative.
        driver = Driver(name="negative", eval=lambda t, y, z, k, s: -50.0 * y * (y < 0.0),
                        lipschitz_C=50.0)
        seller_price(self.tree, driver, self.obstacle, gamma_check=False)
        expected = _side_by_side_error(self.tree, driver, self.obstacle)
        assert "at node (3, " in expected
        with pytest.raises(ConvergenceError) as exc:
            price_american(self.tree, driver, self.obstacle, gamma_check=False)
        assert str(exc.value) == expected

    def test_the_seller_fails_below_the_buyer(self):
        # The buyer's values cycle from t = 0.5 on, the seller's at t = 0 only;
        # the backward sweep meets the buyer's failure first.
        def g(t, y, z, k, s):
            return -50.0 * y * (((y < 0.0) & (t >= 0.5)) | ((y > 0.0) & (t < 0.25)))

        driver = Driver(name="split", eval=g, lipschitz_C=50.0)
        expected = _side_by_side_error(self.tree, driver, self.obstacle)
        assert "at node (0, 0, 0)" in expected
        with pytest.raises(ConvergenceError, match=r"at node \(3, "):
            buyer_price(self.tree, driver, self.obstacle, gamma_check=False)
        with pytest.raises(ConvergenceError) as exc:
            price_american(self.tree, driver, self.obstacle, gamma_check=False)
        assert str(exc.value) == expected

    def test_an_error_of_the_block_alone_is_raised_as_it_is(self):
        # The driver fails only on more values than the widest row a side solves,
        # so each side alone passes and the block's own error is raised.
        widest = max(len(row) for i in range(self.tree.n_steps)
                     for row in self.tree.step_rows(self.tree.s1, i))

        def g(t, y, z, k, s):
            if np.size(y) > widest:
                raise ValueError("block only")
            return 0.0 * y

        driver = Driver(name="block", eval=g, lipschitz_C=0.0)
        seller_price(self.tree, driver, self.obstacle, gamma_check=False)
        buyer_price(self.tree, driver, self.obstacle, gamma_check=False)
        with pytest.raises(ValueError, match="^block only$"):
            price_american(self.tree, driver, self.obstacle, gamma_check=False)

    def test_a_driver_error_is_the_seller_first(self):
        def g(t, y, z, k, s):
            if np.any(((y < 0.0) & (t >= 0.5)) | ((y > 0.0) & (t < 0.25))):
                raise ValueError(f"driver refuses t={t}")
            return 0.0 * y

        driver = Driver(name="refusing", eval=g, lipschitz_C=0.0)
        with pytest.raises(ValueError, match="driver refuses t=0.75"):
            buyer_price(self.tree, driver, self.obstacle, gamma_check=False)
        with pytest.raises(ValueError, match="driver refuses t=0.0$"):
            price_american(self.tree, driver, self.obstacle, gamma_check=False)


@pytest.mark.parametrize("market", [
    dict(sigma1=PiecewiseConstant([0.2, 0.35, 0.2], times=[0.0, 0.3, 0.6])),
    dict(sigma2=PiecewiseConstant([0.25, 0.15], times=[0.0, 0.45])),
    dict(lam=PiecewiseConstant([0.25, 0.0], times=[0.0, 0.5]),
         sigma1=PiecewiseConstant([0.2, 0.3], times=[0.0, 0.7])),
    dict(lam=0.0), dict()])
def test_positions_per_volatility_run_equal_the_per_step_map(market):
    params = MarketParams(**dict(README_MARKET, **market))
    for n_steps in (1, 2, 5, 16, 33):
        tree = build_tree(params, n_steps)
        obstacle = Obstacle.from_payoff(tree, put(105.0))
        for solution in pricing.solve_prices(tree, borrow_lend_driver(params, 0.07), obstacle):
            strategy = strategy_from_solution(solution)
            phi1, phi2 = per_step_strategy(solution)
            assert float_bits(strategy.phi1_rows) == float_bits(phi1)
            assert float_bits(strategy.phi2_rows) == float_bits(phi2)
