import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amhedge.bsde import ConvergenceError, g_evaluation, g_evaluations, solve_bsde
from amhedge.drivers import Driver, borrow_lend_driver, perfect_driver
from amhedge.market import MarketParams, build_tree
from amhedge.oracle import (_stop_flags, apriori_estimate_check, brute_force_seller_value,
                            crr_american_oracle, enumerate_stopping_rules)
from amhedge.payoffs import payoff_from_config, put
from amhedge.pricing import seller_price
from amhedge.rbsde import Obstacle, solve_rbsde_lower
from helpers import (DRIVER_KINDS, dict_rows, duality_instances, float_bits, make_driver,
                     make_instance, named_payoff, scalar_brute_force_seller_value,
                     style_params)

ZERO = Driver(name="zero", eval=lambda t, y, z, k, s: 0.0, lipschitz_C=0.0)
# y = e + (-0.0) * dt is e itself, so a child value's zero sign reaches the root.
SIGNED_ZERO = Driver(name="signed zero", eval=lambda t, y, z, k, s: -0.0, lipschitz_C=0.0)


def flat_params(**overrides):
    base = dict(r=0.05, mu1=0.05, mu2=0.0, sigma1=0.2, sigma2=0.3, lam=0.0,
                s1_0=100.0, s2_0=90.0, T=1.0)
    base.update(overrides)
    return MarketParams(**base)


def reached_signature(tree, rule):
    """Behaviour of a rule on the nodes it actually reaches."""
    sig = []
    frontier = [tree.root]
    while frontier:
        nxt = []
        for node in frontier:
            sig.append((node, rule.stop[node]))
            if not rule.stop[node]:
                nxt.extend(b.child for b in tree.branches[node])
        frontier = list(dict.fromkeys(nxt))
    return frozenset(sig)


class TestEnumeration:
    def test_zero_step_tree_has_one_rule(self):
        tree = build_tree(flat_params(), 0)
        rules = list(enumerate_stopping_rules(tree))
        assert len(rules) == 1
        assert rules[0].stop[tree.root]

    def test_one_step_binomial_has_two_rules(self):
        tree = build_tree(flat_params(), 1)
        assert sum(1 for _ in enumerate_stopping_rules(tree)) == 2

    def test_two_step_binomial_has_five_rules(self):
        tree = build_tree(flat_params(), 2)
        assert sum(1 for _ in enumerate_stopping_rules(tree)) == 5

    def test_three_step_binomial_has_eighteen_rules(self):
        # 1 stop-at-root plus 8 + 4 + 4 + 1 over the step-1 subsets
        tree = build_tree(flat_params(), 3)
        assert sum(1 for _ in enumerate_stopping_rules(tree)) == 18

    def test_rules_are_distinct_on_reached_nodes(self):
        tree = build_tree(flat_params(lam=0.3), 3)
        sigs = [reached_signature(tree, rule)
                for rule in enumerate_stopping_rules(tree)]
        assert len(sigs) == len(set(sigs))

    def test_guard_on_tree_depth(self):
        tree = build_tree(flat_params(), 5)
        with pytest.raises(ValueError, match="limited"):
            next(enumerate_stopping_rules(tree))


class TestBruteForce:
    def test_single_node_tree_returns_root_payoff(self):
        tree = build_tree(flat_params(), 0)
        obs = Obstacle(tree, dict_rows(tree, {tree.root: 3.5}))
        assert brute_force_seller_value(tree, ZERO, obs) == 3.5

    def test_terminal_only_payoff_equals_plain_solve(self):
        rng = np.random.default_rng(401)
        inst = make_instance(rng, "perfect", 3)
        tree = inst.tree
        low = {node: -1e9 for node in tree.nodes}
        for node in tree.terminal_nodes():
            low[node] = inst.obstacle.values[node]
        value = brute_force_seller_value(tree, inst.driver, Obstacle(tree, dict_rows(tree, low)))
        terminal = {node: inst.obstacle.values[node] for node in tree.terminal_nodes()}
        plain = solve_bsde(tree, inst.driver, terminal)
        assert value == pytest.approx(plain.root_value, abs=1e-12)

    @pytest.mark.parametrize("kind,seed", [("perfect", 402), ("borrow_lend", 403),
                                           ("large_trader", 404)])
    def test_duality_against_reflected_solver(self, kind, seed):
        rng = np.random.default_rng(seed)
        inst = make_instance(rng, kind, 3)
        solver = solve_rbsde_lower(inst.tree, inst.driver, inst.obstacle)
        brute = brute_force_seller_value(inst.tree, inst.driver, inst.obstacle)
        assert abs(solver.root_value - brute) <= 1e-12


def counting(driver):
    """The driver and a one-element list that counts its calls."""
    calls = [0]

    def counted(t, y, z, k, state):
        calls[0] += 1
        return driver.eval(t, y, z, k, state)

    return dataclasses.replace(driver, eval=counted), calls


def _outcome(evaluate):
    try:
        return evaluate()
    except ConvergenceError as exc:
        return str(exc)


def assert_shared_equals_per_rule(tree, driver, obstacle):
    """Each rule's value from the shared walk and the best of them equal the
    per-rule walks bit for bit, or both raise the same solver error."""
    shared = _outcome(lambda: [float_bits(v) for v in
                               g_evaluations(tree, driver, _stop_flags(tree), obstacle)])
    per_rule = _outcome(lambda: [float_bits(g_evaluation(tree, driver, stop, obstacle))
                                 for stop in _stop_flags(tree)])
    assert shared == per_rule
    assert (_outcome(lambda: float_bits(brute_force_seller_value(tree, driver, obstacle)))
            == _outcome(lambda: float_bits(
                scalar_brute_force_seller_value(tree, driver, obstacle))))


class TestSharedContinuationValues:
    README_MARKET = flat_params(mu1=0.07, mu2=-0.02, sigma2=0.25, lam=0.25)

    def test_duality_instances_equal_the_per_rule_reference(self):
        for inst in duality_instances():
            assert_shared_equals_per_rule(inst.tree, inst.driver, inst.obstacle)

    @pytest.mark.parametrize("kind", DRIVER_KINDS + ("signed_zero",))
    def test_zero_child_values_keep_their_sign(self, kind):
        # 0 * (S1 - 120) is -0.0 below the strike, which lies above every step-1
        # price, and 0.0 above it; the two compare equal, so a cache keyed on ==
        # would hand the step of one sign to the other.
        tree = build_tree(self.README_MARKET, 3)
        payoff = payoff_from_config({"kind": "expr", "expr": "0 * (S1 - 120)"})
        obstacle = Obstacle.from_payoff(tree, payoff)
        assert ({float_bits(v) for v in obstacle.values.values()}
                == {float_bits(0.0), float_bits(-0.0)})
        driver = SIGNED_ZERO if kind == "signed_zero" else make_driver(kind, self.README_MARKET)
        assert_shared_equals_per_rule(tree, driver, obstacle)

    def test_a_solver_error_first_met_at_a_later_rule_is_the_same(self):
        tree = build_tree(flat_params(), 3)
        pay = {node: 1000.0 if node == (2, 0, 0) else 0.0 for node in tree.nodes}
        obstacle = Obstacle(tree, dict_rows(tree, pay))
        # Contracts on small values and diverges once the 1000 is collected,
        # which the first rule (continue everywhere) never does.
        steep = Driver(name="steep", eval=lambda t, y, z, k, s: 3.0 * y if abs(y) > 100.0 else 0.0,
                       lipschitz_C=3.0)
        assert g_evaluation(tree, steep, next(_stop_flags(tree)), obstacle) == 0.0
        with pytest.raises(ConvergenceError, match="did not converge"):
            brute_force_seller_value(tree, steep, obstacle)
        assert_shared_equals_per_rule(tree, steep, obstacle)

    def test_driver_calls_are_shared_between_rules(self):
        # The README job at n=4: borrow_lend R=0.07, put K=105, 4209 rules.
        tree = build_tree(self.README_MARKET, 4)
        obstacle = Obstacle.from_payoff(tree, put(105.0))
        driver = borrow_lend_driver(self.README_MARKET, 0.07)
        shared, shared_calls = counting(driver)
        per_rule, per_rule_calls = counting(driver)
        assert (brute_force_seller_value(tree, shared, obstacle)
                == scalar_brute_force_seller_value(tree, per_rule, obstacle))
        assert shared_calls[0] == 4994
        assert per_rule_calls[0] == 226128
        assert 10 * shared_calls[0] < per_rule_calls[0]


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(style=st.sampled_from(("const", "piecewise", "lam_zero")),
       kind=st.sampled_from(DRIVER_KINDS), payoff=st.sampled_from(("put", "call", "expr")),
       n_steps=st.integers(1, 3), r=st.floats(0.0, 0.06), sigma1=st.floats(0.1, 0.5),
       strike=st.floats(70.0, 130.0))
def test_shared_walk_equals_the_per_rule_reference_on_random_markets(
        style, kind, payoff, n_steps, r, sigma1, strike):
    params = style_params(style, r, sigma1)
    tree = build_tree(params, n_steps)
    obstacle = Obstacle.from_payoff(tree, named_payoff(payoff, strike))
    assert_shared_equals_per_rule(tree, make_driver(kind, params), obstacle)


class TestCrrOracle:
    def put(self, strike):
        return lambda t, s1, s2, d: max(strike - s1, 0.0)

    def european_by_binomial_weights(self, params, strike, n):
        """Plain discounted expectation with explicit binomial weights."""
        dt = params.T / n
        sq = math.sqrt(dt)
        r, mu, sig = params.r.at(0.0), params.mu1.at(0.0), params.sigma1.at(0.0)
        up, dn = 1.0 + mu * dt + sig * sq, 1.0 + mu * dt - sig * sq
        q = ((1.0 + r * dt) - dn) / (up - dn)
        total = 0.0
        for j in range(n + 1):
            s = params.s1_0 * up ** j * dn ** (n - j)
            w = math.comb(n, j) * q ** j * (1.0 - q) ** (n - j)
            total += w * max(strike - s, 0.0)
        return total / (1.0 + r * dt) ** n

    def test_american_dominates_european(self):
        params = flat_params()
        for n in (4, 16, 48):
            amer = crr_american_oracle(params, self.put(100.0), n)
            euro = self.european_by_binomial_weights(params, 100.0, n)
            assert amer >= euro - 1e-12

    def test_deep_in_the_money_exercises_immediately(self):
        params = flat_params(s1_0=20.0)
        value = crr_american_oracle(params, self.put(100.0), 16)
        assert value == 80.0

    def test_agreement_with_reflected_solver(self):
        params = flat_params()
        n = 64
        tree = build_tree(params, n)
        obs = Obstacle.from_payoff(tree, self.put(100.0))
        u0 = seller_price(tree, perfect_driver(params), obs).u0
        assert abs(u0 - crr_american_oracle(params, self.put(100.0), n)) <= 1e-12

    def test_rejects_positive_intensity(self):
        with pytest.raises(ValueError, match="intensity"):
            crr_american_oracle(flat_params(lam=0.1), self.put(100.0), 8)

    def test_rejects_degenerate_risk_neutral_weight(self):
        params = flat_params(mu1=3.0, sigma1=0.15)
        with pytest.raises(ValueError, match="risk-neutral"):
            crr_american_oracle(params, self.put(100.0), 16)


class TestAprioriEstimate:
    def shifted(self, base, delta):
        return Driver(name=f"{base.name}+{delta}",
                      eval=lambda t, y, z, k, s: base.eval(t, y, z, k, s) + delta,
                      lipschitz_C=base.lipschitz_C)

    def hypothesis_box(self, driver):
        c = driver.lipschitz_C
        eta = 1.0 / (c * c + 1.0)
        beta = 3.0 / eta + 2.0 * c + 1.0
        return eta, beta

    def test_identical_drivers_bind_with_zero(self):
        rng = np.random.default_rng(411)
        inst = make_instance(rng, "perfect", 4)
        eta, beta = self.hypothesis_box(inst.driver)
        report = apriori_estimate_check(inst.tree, inst.driver, inst.driver,
                                        inst.obstacle, eta, beta)
        assert report.max_pointwise_violation == 0.0
        assert report.y_norm_lhs == 0.0
        assert report.passed()

    def test_shifted_driver_within_bound(self):
        params = flat_params(lam=0.3, mu2=-0.05)
        tree = build_tree(params, 6)
        obs = Obstacle.from_payoff(tree, lambda t, s1, s2, d: max(105.0 - s1, 0.0))
        g = perfect_driver(params)
        eta, beta = self.hypothesis_box(g)
        report = apriori_estimate_check(tree, g, self.shifted(g, 0.1), obs, eta, beta)
        assert report.passed()
        assert report.zk_norm_violation is not None

    def test_doubling_the_gap_at_most_quadruples_both_sides(self):
        params = flat_params(lam=0.3, mu2=-0.05)
        tree = build_tree(params, 6)
        obs = Obstacle.from_payoff(tree, lambda t, s1, s2, d: max(105.0 - s1, 0.0))
        g = perfect_driver(params)
        eta, beta = self.hypothesis_box(g)
        small = apriori_estimate_check(tree, g, self.shifted(g, 0.1), obs, eta, beta)
        large = apriori_estimate_check(tree, g, self.shifted(g, 0.2), obs, eta, beta)
        assert large.y_norm_rhs == pytest.approx(4.0 * small.y_norm_rhs, rel=1e-12)
        assert large.y_norm_lhs <= 4.0 * small.y_norm_lhs * (1.0 + 1e-8) + 1e-15

    def test_rejects_parameters_outside_hypothesis(self):
        rng = np.random.default_rng(421)
        inst = make_instance(rng, "perfect", 3)
        c = inst.driver.lipschitz_C
        with pytest.raises(ValueError, match="eta"):
            apriori_estimate_check(inst.tree, inst.driver, inst.driver,
                                   inst.obstacle, 2.0 / (c * c), 1e9)
        with pytest.raises(ValueError, match="beta"):
            apriori_estimate_check(inst.tree, inst.driver, inst.driver,
                                   inst.obstacle, 1.0 / (c * c + 1.0), 1.0)
        with pytest.raises(ValueError):
            apriori_estimate_check(inst.tree, inst.driver, inst.driver,
                                   inst.obstacle, -1.0, 10.0)
