import dataclasses
import gc
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from amhedge.bsde import ConvergenceError, Solution
from amhedge.drivers import Driver, borrow_lend_driver, perfect_driver
from amhedge.market import MarketParams, PiecewiseConstant, build_tree
from amhedge.oracle import (_frontier_tables, _stop_flags, apriori_estimate,
                            apriori_estimate_check, brute_force_seller_value,
                            crr_american_oracle, enumerate_stopping_rules, g_evaluation,
                            rule_values, solve_bsde)
from amhedge.payoffs import call, payoff_from_config, put
from amhedge.pricing import seller_price
from amhedge.rbsde import Obstacle, solve_rbsde_lower
from helpers import (DRIVER_KINDS, dict_rows, duality_instances, float_bits, make_driver,
                     make_instance, named_payoff, refuse_node_views, scalar_apriori_estimate,
                     scalar_brute_force_seller_value, style_params, walk_apriori_estimate)

# y = e + (-0.0) * dt is e itself, so a child value's zero sign reaches the root.
SIGNED_ZERO = Driver(name="signed zero", eval=lambda t, y, z, k, s: -0.0, lipschitz_C=0.0)


def flat_params(**overrides):
    base = dict(r=0.05, mu1=0.05, mu2=0.0, sigma1=0.2, sigma2=0.3, lam=0.0,
                s1_0=100.0, s2_0=90.0, T=1.0)
    base.update(overrides)
    return MarketParams(**base)


def reached_signature(tree, rule):
    """Behaviour of a rule on the nodes it actually reaches."""
    sig, stop = [], tree.node_dict(rule.rows)
    frontier = [tree.root]
    while frontier:
        nxt = []
        for node in frontier:
            sig.append((node, stop[node]))
            if not stop[node]:
                nxt.extend(b.child for b in tree.branches[node])
        frontier = list(dict.fromkeys(nxt))
    return frozenset(sig)


class TestEnumeration:
    @pytest.mark.parametrize("n_steps", [0, -1, 2.5, math.inf, math.nan, True])
    def test_a_lattice_needs_a_positive_whole_number_of_steps(self, n_steps):
        with pytest.raises(ValueError, match=r"^n_steps must be a positive integer$"):
            build_tree(flat_params(), n_steps)

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
    def test_terminal_only_payoff_equals_plain_solve(self):
        rng = np.random.default_rng(401)
        inst = make_instance(rng, "perfect", 3)
        tree = inst.tree
        low, xi = {node: -1e9 for node in tree.nodes}, tree.node_dict(inst.obstacle.rows)
        for node in tree.terminal_nodes():
            low[node] = xi[node]
        value = brute_force_seller_value(tree, inst.driver, Obstacle(tree, dict_rows(tree, low)))
        terminal = {node: xi[node] for node in tree.terminal_nodes()}
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


def assert_tables_equal_per_rule(tree, driver, obstacle):
    """Each rule's value from the frontier tables, and the best of them, equal
    one ``g_evaluation`` per rule and the per-rule maximum bit for bit, or all
    raise the same solver error."""
    tables = _outcome(lambda: [float_bits(v) for v in rule_values(tree, driver, obstacle)])
    assert tables == _outcome(lambda: [float_bits(g_evaluation(tree, driver, stop, obstacle))
                                       for stop in _stop_flags(tree)])
    assert (_outcome(lambda: float_bits(brute_force_seller_value(tree, driver, obstacle)))
            == _outcome(lambda: float_bits(
                scalar_brute_force_seller_value(tree, driver, obstacle))))


class TestFrontierTables:
    README_MARKET = flat_params(mu1=0.07, mu2=-0.02, sigma2=0.25, lam=0.25)

    def test_duality_instances_equal_the_per_rule_reference(self):
        for inst in duality_instances():
            assert_tables_equal_per_rule(inst.tree, inst.driver, inst.obstacle)

    @pytest.mark.parametrize("kind", DRIVER_KINDS + ("signed_zero",))
    def test_zero_child_values_keep_their_sign(self, kind):
        # 0 * (S1 - 120) is -0.0 below the strike, which lies above every step-1
        # price, and 0.0 above it; the two compare equal, so a cache keyed on ==
        # would hand the step of one sign to the other.
        tree = build_tree(self.README_MARKET, 3)
        payoff = payoff_from_config({"kind": "expr", "expr": "0 * (S1 - 120)"})
        obstacle = Obstacle.from_payoff(tree, payoff)
        assert ({float_bits(v) for v in tree.node_dict(obstacle.rows).values()}
                == {float_bits(0.0), float_bits(-0.0)})
        driver = SIGNED_ZERO if kind == "signed_zero" else make_driver(kind, self.README_MARKET)
        assert_tables_equal_per_rule(tree, driver, obstacle)

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
        assert_tables_equal_per_rule(tree, steep, obstacle)

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 4])
    @pytest.mark.parametrize("lam", [0.0, 0.25])
    @pytest.mark.parametrize("kind", DRIVER_KINDS)
    def test_frontier_tables_equal_the_per_rule_walk(self, kind, lam, n_steps):
        # lambda = 0 has two-branch nodes only (97 rules at n = 4), lambda > 0
        # three-branch ones (4209 rules at n = 4).
        params = dataclasses.replace(self.README_MARKET, lam=lam)
        tree = build_tree(params, n_steps)
        obstacle = Obstacle.from_payoff(tree, put(105.0))
        assert_tables_equal_per_rule(tree, make_driver(kind, params), obstacle)

    def test_a_solver_error_is_the_first_of_the_per_rule_walk(self):
        # Diverges at t = dt for every value, which the first rule (continue
        # everywhere) meets after its steps at t = 2 dt. At t = 2 dt it diverges
        # only once a later rule collects the 1000 at a level-3 node, and the
        # tables step every rule below a frontier before the frontier itself.
        tree = build_tree(flat_params(), 4)
        dt = tree.dt
        pay = {node: 1000.0 if node == (3, 1, 0) else 0.0 for node in tree.nodes}
        obstacle = Obstacle(tree, dict_rows(tree, pay))

        def eval_(t, y, z, k, s):
            if t == dt:
                return 10.0 * abs(y) + 1.0
            return 10.0 * abs(y) + 1.0 if t == 2 * dt and abs(y) > 100.0 else 0.0

        driver = Driver(name="diverging", eval=eval_, lipschitz_C=10.0)
        # Continue down to (2, 0, 0), which steps from the 1000 at (3, 1, 0).
        collects = {node: node[0] > 2 or node[1] > 0 for node in tree.nodes}
        with pytest.raises(ConvergenceError, match=r"at t=0\.5;"):
            g_evaluation(tree, driver, collects, obstacle)
        with pytest.raises(ConvergenceError, match=r"at t=0\.5;"):
            _frontier_tables(tree, driver, obstacle)
        with pytest.raises(ConvergenceError, match=r"at t=0\.25;"):
            brute_force_seller_value(tree, driver, obstacle)
        assert_tables_equal_per_rule(tree, driver, obstacle)

    @pytest.mark.parametrize("evaluate", [brute_force_seller_value, rule_values])
    def test_depth_guard_raises_before_any_step(self, evaluate):
        tree = build_tree(self.README_MARKET, 5)
        obstacle = Obstacle.from_payoff(tree, put(105.0))
        driver, calls = counting(perfect_driver(self.README_MARKET))
        with pytest.raises(ValueError, match=r"^stopping-rule enumeration is limited to 4 "
                                             r"steps \(got 5\); the rule count grows doubly "
                                             r"exponentially$"):
            evaluate(tree, driver, obstacle)
        assert calls[0] == 0

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

    def test_the_tables_leave_no_cyclic_garbage(self):
        # Reference counting alone frees the tables: nothing they hold refers back
        # to them. The tree caches its node views on first use, so they come first.
        tree = build_tree(self.README_MARKET, 4)
        obstacle = Obstacle.from_payoff(tree, put(105.0))
        driver = borrow_lend_driver(self.README_MARKET, 0.07)
        assert tree.nodes and tree.branches and tree.levels
        gc.collect()
        gc.disable()
        try:
            brute_force_seller_value(tree, driver, obstacle)
            assert gc.collect() == 0
        finally:
            gc.enable()


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(style=st.sampled_from(("const", "piecewise", "lam_zero")),
       kind=st.sampled_from(DRIVER_KINDS), payoff=st.sampled_from(("put", "call", "expr")),
       n_steps=st.integers(1, 3), r=st.floats(0.0, 0.06), sigma1=st.floats(0.1, 0.5),
       strike=st.floats(70.0, 130.0))
def test_frontier_tables_equal_the_per_rule_walk_on_random_markets(
        style, kind, payoff, n_steps, r, sigma1, strike):
    params = style_params(style, r, sigma1)
    tree = build_tree(params, n_steps)
    obstacle = Obstacle.from_payoff(tree, named_payoff(payoff, strike))
    assert_tables_equal_per_rule(tree, make_driver(kind, params), obstacle)


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


# Values of crr_american_oracle as float.hex, pinned from the version that
# read each coefficient field by field at every step.
CRR_MARKET = dict(r=0.05, mu1=0.07, mu2=-0.02, sigma1=0.2, sigma2=0.25, lam=0.0,
                  s1_0=100.0, s2_0=90.0, T=1.0)
CRR_MARKETS = {
    "constant": CRR_MARKET,
    "piecewise": dict(CRR_MARKET, r=PiecewiseConstant([0.04, 0.06], times=[0.0, 0.3]),
                      mu2=PiecewiseConstant([-0.02, 0.03], times=[0.0, 0.5]),
                      sigma1=PiecewiseConstant([0.2, 0.25], times=[0.0, 0.6]),
                      sigma2=PiecewiseConstant([0.25, 0.35], times=[0.0, 0.45])),
}
CRR_PAYOFFS = {
    "put": lambda: put(105.0),
    "call": lambda: call(95.0),
    "expr": lambda: payoff_from_config({"kind": "expr",
                                        "expr": "max(100 - S1, 0) + max(S2 - 88, 0) / 2"}),
}
CRR_HEX = {
    ("constant", "put", 1): "0x1.2db6db6db6db3p+3",
    ("constant", "put", 7): "0x1.1ba7196a1d587p+3",
    ("constant", "put", 64): "0x1.17029b0159ec6p+3",
    ("constant", "call", 1): "0x1.b6db6db6db6dap+3",
    ("constant", "call", 7): "0x1.a8e7511d55920p+3",
    ("constant", "call", 64): "0x1.aa216e149f7c1p+3",
    ("constant", "expr", 1): "0x1.758fd8fd8fd8cp+3",
    ("constant", "expr", 7): "0x1.44a0884c092b0p+3",
    ("constant", "expr", 64): "0x1.3f17a079a8b77p+3",
    ("piecewise", "put", 1): "0x1.3e76276276272p+3",
    ("piecewise", "put", 7): "0x1.147c80f7da557p+3",
    ("piecewise", "put", 64): "0x1.0104fa08058f2p+3",
    ("piecewise", "call", 1): "0x1.a276276276275p+3",
    ("piecewise", "call", 7): "0x1.03be40d684d98p+4",
    ("piecewise", "call", 64): "0x1.b63c71d0352cep+4",
    ("piecewise", "expr", 1): "0x1.7a6c4ec4ec4e7p+3",
    ("piecewise", "expr", 7): "0x1.8b4c5f0017af4p+3",
    ("piecewise", "expr", 64): "0x1.6b2e40dccbfcfp+4",
}


@pytest.mark.parametrize("market,payoff,n_steps", sorted(CRR_HEX))
def test_crr_values_are_pinned_bit_for_bit(market, payoff, n_steps):
    value = crr_american_oracle(MarketParams(**CRR_MARKETS[market]), CRR_PAYOFFS[payoff](),
                                n_steps)
    assert value.hex() == CRR_HEX[market, payoff, n_steps]


@pytest.mark.parametrize("overrides,n_steps,message", [
    ({"lam": 0.1}, 8, "the binomial oracle requires a zero default intensity"),
    ({"mu1": 3.0, "sigma1": 0.15}, 16, "risk-neutral weight -1.95833 outside (0, 1) at step 0"),
    ({}, 0, "n_steps must be a positive integer"),
    ({}, 2.5, "n_steps must be a positive integer"),
    *(({}, n_steps, "n_steps must be a positive integer")
      for n_steps in (math.inf, math.nan, True)),
])
def test_crr_errors_are_pinned(overrides, n_steps, message):
    with pytest.raises(ValueError) as failure:
        crr_american_oracle(MarketParams(**dict(CRR_MARKET, **overrides)), put(100.0), n_steps)
    assert str(failure.value) == message


def shifted(base, delta):
    return Driver(name=f"{base.name}+{delta}",
                  eval=lambda t, y, z, k, s: base.eval(t, y, z, k, s) + delta,
                  lipschitz_C=base.lipschitz_C)


def hypothesis_box(driver):
    """The CLI's (eta, beta) for a driver."""
    c = driver.lipschitz_C
    eta = 1.0 / (c * c + 1.0)
    return eta, 3.0 / eta + 2.0 * c + 1.0


class TestAprioriEstimate:
    def test_identical_drivers_bind_with_zero(self):
        rng = np.random.default_rng(411)
        inst = make_instance(rng, "perfect", 4)
        eta, beta = hypothesis_box(inst.driver)
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
        eta, beta = hypothesis_box(g)
        report = apriori_estimate_check(tree, g, shifted(g, 0.1), obs, eta, beta)
        assert report.passed()
        assert report.zk_norm_violation is not None

    def test_doubling_the_gap_at_most_quadruples_both_sides(self):
        params = flat_params(lam=0.3, mu2=-0.05)
        tree = build_tree(params, 6)
        obs = Obstacle.from_payoff(tree, lambda t, s1, s2, d: max(105.0 - s1, 0.0))
        g = perfect_driver(params)
        eta, beta = hypothesis_box(g)
        small = apriori_estimate_check(tree, g, shifted(g, 0.1), obs, eta, beta)
        large = apriori_estimate_check(tree, g, shifted(g, 0.2), obs, eta, beta)
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


def assert_apriori_equals_the_reference(tree, driver, obstacle, delta):
    """apriori_estimate equals the five-walk reference in every field, bit for
    bit, on the CLI's (eta, beta) for the driver and its shift by delta, and
    returns its report; where the reference overflows it raises ValueError."""
    c = driver.lipschitz_C
    eta, beta = hypothesis_box(driver)
    sol1 = solve_rbsde_lower(tree, driver, obstacle)
    sol2 = solve_rbsde_lower(tree, shifted(driver, delta), obstacle)
    try:
        want = scalar_apriori_estimate(sol1, sol2, eta, beta)
    except OverflowError:  # exp(beta t) out of range: a named error instead
        with pytest.raises(ValueError) as failure:
            apriori_estimate(sol1, sol2, eta, beta)
        assert f"beta = {beta:.6g}" in str(failure.value)
        assert f"lipschitz_C = {c:.6g}" in str(failure.value)
        return None
    report = apriori_estimate(sol1, sol2, eta, beta)
    for field in dataclasses.fields(report):
        got, ref = getattr(report, field.name), getattr(want, field.name)
        assert (got is None) == (ref is None), field.name
        assert got is None or float_bits(got) == float_bits(ref), field.name
    assert report.passed() == want.passed()
    return report


@pytest.mark.parametrize("kind,delta,passed", [
    ("perfect", 0.5, True),
    ("large_trader", 0.1, False),
])
def test_apriori_equals_the_five_walk_reference_passing_and_failing(kind, delta, passed):
    params = style_params("const", 0.05, 0.2)
    tree = build_tree(params, 8)
    obstacle = Obstacle.from_payoff(tree, put(105.0))
    report = assert_apriori_equals_the_reference(tree, make_driver(kind, params), obstacle,
                                                 delta)
    assert report.passed() is passed


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(style=st.sampled_from(("const", "piecewise", "lam_zero")),
       kind=st.sampled_from(DRIVER_KINDS), payoff=st.sampled_from(("put", "call", "expr")),
       n_steps=st.integers(1, 16), r=st.floats(0.0, 0.06), sigma1=st.floats(0.1, 0.5),
       strike=st.floats(70.0, 130.0), delta=st.sampled_from((0.1, 0.5, 3.0)))
def test_apriori_equals_the_five_walk_reference_on_random_markets(
        style, kind, payoff, n_steps, r, sigma1, strike, delta):
    params = style_params(style, r, sigma1)
    tree = build_tree(params, n_steps)
    obstacle = Obstacle.from_payoff(tree, named_payoff(payoff, strike))
    report = assert_apriori_equals_the_reference(tree, make_driver(kind, params), obstacle,
                                                 delta)
    event("out of range" if report is None else "passed" if report.passed() else "failed")


def same_float(a, b) -> bool:
    """Equal bits, except that a NaN equals any NaN: Python float arithmetic may
    return either operand's NaN (CPython 3.11 specialises a float addition after a
    few calls), so a NaN's sign in the node walk does not follow from its formula."""
    return (a is None) == (b is None) and (a is None or float_bits(a) == float_bits(b)
                                          or math.isnan(a) and math.isnan(b))


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(lam=st.sampled_from((0.0, 0.25, "to_zero", "from_zero")),
       kind=st.sampled_from(DRIVER_KINDS), payoff=st.sampled_from(("put", "call", "expr")),
       n_steps=st.integers(1, 14), r=st.floats(0.0, 0.06), sigma1=st.floats(0.1, 0.5),
       strike=st.floats(70.0, 130.0), delta=st.sampled_from((0.1, 0.5, 3.0)),
       edge=st.booleans())
def test_apriori_equals_the_node_walk_on_random_markets(lam, kind, payoff, n_steps, r, sigma1,
                                                        strike, delta, edge):
    # Every field of the row form against the one backward and one forward node
    # walk it replaced, on the seller and a seller under the driver plus delta.
    steps = {"to_zero": [0.25, 0.0], "from_zero": [0.0, 0.25]}
    params = dataclasses.replace(style_params("const", r, sigma1), lam=PiecewiseConstant(
        steps[lam], times=[0.0, 0.5]) if lam in steps else lam)
    tree = build_tree(params, n_steps)
    obstacle = Obstacle.from_payoff(tree, named_payoff(payoff, strike))
    driver = make_driver(kind, params)
    c = driver.lipschitz_C
    eta = 1.0 / (c * c) if edge else 1.0 / (c * c + 1.0)  # at 1 / C^2 no (z, k) bound
    beta = 3.0 / eta + 2.0 * c + 1.0
    sol1 = solve_rbsde_lower(tree, driver, obstacle)
    sol2 = solve_rbsde_lower(tree, shifted(driver, delta), obstacle)
    try:
        want = walk_apriori_estimate(sol1, sol2, eta, beta)
    except OverflowError:  # exp(beta t) out of range: the named error instead
        with pytest.raises(ValueError, match="overflows exp"):
            apriori_estimate(sol1, sol2, eta, beta)
        return
    got = apriori_estimate(sol1, sol2, eta, beta)
    for field in dataclasses.fields(got):
        assert same_float(getattr(got, field.name), getattr(want, field.name)), field.name


def test_apriori_reads_no_node_view(monkeypatch):
    params = style_params("const", 0.05, 0.2)
    tree = build_tree(params, 8)
    obstacle = Obstacle.from_payoff(tree, put(105.0))
    driver = make_driver("borrow_lend", params)
    sol1 = solve_rbsde_lower(tree, driver, obstacle)
    sol2 = solve_rbsde_lower(tree, shifted(driver, 0.1), obstacle)
    want = walk_apriori_estimate(sol1, sol2, *hypothesis_box(driver))

    refuse_node_views(monkeypatch)
    assert apriori_estimate(sol1, sol2, *hypothesis_box(driver)) == want


def test_apriori_squares_each_gap_as_python_does():
    # numpy's x ** 2 is x * x, which for these y gaps differs in the last bit from
    # Python's float ** 2 (libm pow), the square of the node walk. Under one driver
    # the driver gap is 0, so the pointwise bound and the y norm are the squares'.
    # The last gap is NaN: the largest violation skips it, as Python's max does.
    gaps = [x for x in np.random.default_rng(1).standard_normal(10_000).tolist()
            if x * x != x ** 2] + [math.nan]
    assert (np.square(gaps[:-1]) != np.array([x ** 2 for x in gaps[:-1]])).all()
    params = flat_params(lam=0.3)
    tree = build_tree(params, 3)
    driver = perfect_driver(params)
    zero = dict.fromkeys(tree.nodes, 0.0)
    planted = {node: -x for node, x in zip(tree.nodes, gaps)}  # the gap y1 - y2 is x

    def solution(y):
        zero_rows = dict_rows(tree, zero, tree.n_steps)
        return Solution(tree, driver, "lower", dict_rows(tree, {**zero, **y}), zero_rows,
                        zero_rows, zero_rows, stats=None)

    sol1, sol2 = solution({}), solution(planted)
    eta, beta = hypothesis_box(driver)
    got, want = apriori_estimate(sol1, sol2, eta, beta), walk_apriori_estimate(sol1, sol2, eta,
                                                                                 beta)
    assert got.max_pointwise_violation > 0.0 and math.isnan(got.y_norm_lhs)
    for field in dataclasses.fields(got):
        assert same_float(getattr(got, field.name), getattr(want, field.name)), field.name
