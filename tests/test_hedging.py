import contextlib
import math
import re
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from amhedge import cli, hedging, pricing
from amhedge.bsde import ConvergenceError
from amhedge.drivers import Driver, borrow_lend_driver, large_trader_driver, perfect_driver
from amhedge.hedging import (simulate_wealth, strict_gain_after_nubar,
                             verify_superhedge_buyer, verify_superhedge_seller,
                             wealth_martingale_residual)
from amhedge.market import Coefs, MarketParams, PiecewiseConstant, build_tree
from amhedge.payoffs import put
from amhedge.pricing import (StoppingRule, Strategy, buyer_price, price_american, seller_price,
                             strategy_from_solution)
from amhedge.rbsde import Obstacle, solve_rbsde_lower
from helpers import (DRIVER_KINDS, dict_rows, float_bits, make_driver, make_instance,
                     named_payoff, scalar_martingale_residual, scalar_obstacle_rows,
                     scalar_simulate_exact, scalar_simulate_sampled, scalar_strict_gain,
                     scalar_verify_buyer, scalar_verify_seller, style_params)

ZERO = Driver(name="zero", eval=lambda t, y, z, k, s: 0.0, lipschitz_C=0.0)
NAN = Driver(name="nan", eval=lambda t, y, z, k, s: math.nan, lipschitz_C=0.0)

# The README market, and a piecewise one whose intensity drops to 0 at
# t = 0.5 (two-branch alive rows from then on).
README_MARKET = dict(r=0.05, mu1=0.07, mu2=-0.02, sigma1=0.2, sigma2=0.25, lam=0.25,
                     s1_0=100.0, s2_0=90.0, T=1.0)
PIECEWISE_MARKET = dict(README_MARKET, r={"values": [0.04, 0.06], "times": [0.0, 0.3]},
                        sigma1={"values": [0.2, 0.25], "times": [0.0, 0.6]},
                        lam={"values": [0.3, 0.0], "times": [0.0, 0.5]})


def flat_params(**overrides):
    base = dict(r=0.05, mu1=0.05, mu2=0.0, sigma1=0.2, sigma2=0.3, lam=0.0,
                s1_0=100.0, s2_0=90.0, T=1.0)
    base.update(overrides)
    return MarketParams(**base)


def zero_strategy(tree):
    phi = dict_rows(tree, {node: 0.0 for node in tree.nodes}, tree.n_steps)
    return Strategy(tree, phi, phi)


def terminal_rule(tree):
    """The rule that stops at the terminal step only."""
    return StoppingRule(tree, dict_rows(tree, {n: tree.is_terminal(n) for n in tree.nodes}))


def random_strategy(tree, rng):
    nodes = [node for node in tree.nodes if not tree.is_terminal(node)]
    phi1 = {n: float(rng.uniform(-2, 2)) for n in nodes}
    phi2 = {n: float(rng.uniform(-1, 1)) if not tree.nodes[n].defaulted else 0.0 for n in nodes}
    return Strategy(tree, dict_rows(tree, phi1, tree.n_steps), dict_rows(tree, phi2, tree.n_steps))


class TestSimulateWealth:
    def test_idle_strategy_compounds_at_riskless_rate(self):
        params = flat_params(r=0.04, mu1=0.04, lam=0.3)
        tree = build_tree(params, 5)
        g = perfect_driver(params)
        field = simulate_wealth(tree, 10.0, zero_strategy(tree), g)
        for level in range(len(field.node_ids)):
            expected = 10.0 * (1.0 + 0.04 * tree.dt) ** level
            for v in field.v[level]:
                assert v == pytest.approx(expected, rel=1e-12)

    def test_exact_expansion_counts_paths(self):
        tree = build_tree(flat_params(lam=0.3), 3)
        field = simulate_wealth(tree, 1.0, zero_strategy(tree), ZERO)
        assert field.mode == "exact"
        assert field.n_states(0) == 1
        assert field.n_states(1) == 3
        assert field.n_states(3) == sum(
            len(tree.branches[node]) for node in field.node_ids[2])

    def test_large_tree_switches_to_sampling(self):
        tree = build_tree(flat_params(), 20)
        field = simulate_wealth(tree, 1.0, zero_strategy(tree), ZERO, n_paths=50)
        assert field.mode == "sampled"
        assert field.n_states(20) == 50

    def test_sampling_is_seed_deterministic(self):
        tree = build_tree(flat_params(lam=0.2), 6)
        rng = np.random.default_rng(7)
        strat = random_strategy(tree, rng)
        a = simulate_wealth(tree, 5.0, strat, ZERO, mode="sampled", n_paths=64, seed=3)
        b = simulate_wealth(tree, 5.0, strat, ZERO, mode="sampled", n_paths=64, seed=3)
        c = simulate_wealth(tree, 5.0, strat, ZERO, mode="sampled", n_paths=64, seed=4)
        assert a.v == b.v and a.node_ids == b.node_ids
        assert a.v != c.v

    def test_monotone_in_initial_wealth(self):
        rng = np.random.default_rng(301)
        inst = make_instance(rng, "borrow_lend", 4)
        strat = random_strategy(inst.tree, rng)
        lo = simulate_wealth(inst.tree, 3.0, strat, inst.driver)
        hi = simulate_wealth(inst.tree, 3.01, strat, inst.driver)
        for level in range(len(lo.node_ids)):
            for a, b in zip(lo.v[level], hi.v[level]):
                assert b > a

    def test_path_id_reconstruction(self):
        tree = build_tree(flat_params(lam=0.3), 2)
        field = simulate_wealth(tree, 1.0, zero_strategy(tree), ZERO)
        assert field.path_id(0, 0) == "(root)"
        ids = {field.path_id(2, i) for i in range(field.n_states(2))}
        assert {"uu", "dj", "ju"} <= ids
        assert "jj" not in ids  # a defaulted node cannot default again


class TestSellerSuperhedge:
    def test_funded_seller_passes(self):
        rng = np.random.default_rng(311)
        for kind in ("perfect", "borrow_lend", "large_trader"):
            inst = make_instance(rng, kind, 4)
            result = seller_price(inst.tree, inst.driver, inst.obstacle)
            field = simulate_wealth(inst.tree, result.u0, result.strategy, inst.driver)
            report = verify_superhedge_seller(field, inst.obstacle)
            assert report.passed, (kind, report.min_slack)

    def test_underfunded_seller_fails_with_negative_slack(self):
        tree = build_tree(flat_params(), 3)
        obs = Obstacle.from_payoff(tree, lambda t, s1, s2, d: 10.0 - t)
        result = seller_price(tree, ZERO, obs)
        field = simulate_wealth(tree, result.u0 - 0.01, result.strategy, ZERO)
        report = verify_superhedge_seller(field, obs)
        assert not report.passed
        assert report.min_slack < -1e-10
        assert report.violations

    def test_bottomless_obstacle_trivially_passes(self):
        tree = build_tree(flat_params(lam=0.2), 3)
        obs = Obstacle(tree, dict_rows(tree, {node: -1e9 for node in tree.nodes}))
        field = simulate_wealth(tree, 0.0, zero_strategy(tree), ZERO)
        report = verify_superhedge_seller(field, obs)
        assert report.passed and not report.violations


class TestBuyerSuperhedge:
    def test_buyer_exact_at_stops(self):
        rng = np.random.default_rng(321)
        for kind in ("perfect", "borrow_lend"):
            inst = make_instance(rng, kind, 4)
            result = buyer_price(inst.tree, inst.driver, inst.obstacle)
            field = simulate_wealth(inst.tree, -result.v0, result.strategy,
                                    inst.driver)
            report = verify_superhedge_buyer(field, inst.obstacle, result.exercise)
            assert report.passed
            assert report.max_abs_at_stop <= 1e-10

    def test_late_exercise_can_fail(self):
        params = flat_params(r=0.06, mu1=0.06)
        tree = build_tree(params, 6)
        obs = Obstacle.from_payoff(tree, lambda t, s1, s2, d: max(110.0 - s1, 0.0))
        g = perfect_driver(params)
        result = buyer_price(tree, g, obs)
        assert any(da > 0.0 for da in result.solution.delta_a.values())
        field = simulate_wealth(tree, -result.v0, result.strategy, g)
        late = terminal_rule(tree)
        report = verify_superhedge_buyer(field, obs, late)
        assert not report.passed

    def test_zero_everything_passes_with_zero_slack(self):
        tree = build_tree(flat_params(lam=0.2), 3)
        obs = Obstacle(tree, dict_rows(tree, {node: 0.0 for node in tree.nodes}))
        field = simulate_wealth(tree, 0.0, zero_strategy(tree), ZERO)
        rule = terminal_rule(tree)
        report = verify_superhedge_buyer(field, obs, rule)
        assert report.passed
        assert report.min_slack == 0.0 and report.max_abs_at_stop == 0.0

    def test_a_rule_that_never_stops_is_rejected_naming_a_terminal_node(self):
        params = MarketParams(**README_MARKET)
        tree = build_tree(params, 3)
        obs = Obstacle.from_payoff(tree, put(105.0))
        g = perfect_driver(params)
        buyer = buyer_price(tree, g, obs)
        field = simulate_wealth(tree, -buyer.v0, buyer.strategy, g)
        never = StoppingRule(tree, [tuple(np.zeros(len(row), dtype=bool) for row in rows)
                                    for rows in tree.s1])
        with pytest.raises(ValueError) as failure:
            verify_superhedge_buyer(field, obs, never)
        assert str(failure.value) == "rule does not stop by the terminal step at (3, 3, 0)"


class TestViolationRows:
    def test_rows_describe_states(self):
        from amhedge.hedging import violation_rows
        tree = build_tree(flat_params(), 3)
        obs = Obstacle.from_payoff(tree, lambda t, s1, s2, d: 10.0 - t)
        result = seller_price(tree, ZERO, obs)
        field = simulate_wealth(tree, result.u0 - 0.01, result.strategy, ZERO)
        report = verify_superhedge_seller(field, obs)
        rows = violation_rows(report)
        assert rows
        pid, step, node, v, xi, slack = rows[0]
        assert isinstance(node, str) and node.count(",") == 2
        assert slack == pytest.approx(v - xi)
        assert all(r[5] < -1e-10 for r in rows)


class TestSampledMode:
    def test_sampled_buyer_verification_matches_exact(self):
        params = flat_params(r=0.06, mu1=0.06, lam=0.2)
        tree = build_tree(params, 5)
        obs = Obstacle.from_payoff(tree, lambda t, s1, s2, d: max(105.0 - s1, 0.0))
        g = perfect_driver(params)
        result = buyer_price(tree, g, obs)
        exact = simulate_wealth(tree, -result.v0, result.strategy, g)
        sampled = simulate_wealth(tree, -result.v0, result.strategy, g,
                                  mode="sampled", n_paths=500, seed=5)
        r_exact = verify_superhedge_buyer(exact, obs, result.exercise)
        r_sampled = verify_superhedge_buyer(sampled, obs, result.exercise)
        assert r_exact.passed and r_sampled.passed
        assert r_sampled.max_abs_at_stop <= 1e-10


class TestMartingaleResidual:
    def test_any_strategy_is_self_financing(self):
        rng = np.random.default_rng(331)
        for kind in ("perfect", "borrow_lend", "large_trader"):
            inst = make_instance(rng, kind, 4)
            strat = random_strategy(inst.tree, rng)
            field = simulate_wealth(inst.tree, 2.5, strat, inst.driver)
            assert wealth_martingale_residual(field, inst.driver) <= 1e-10

    def test_diverging_resolve_raises_as_the_scalar_walk(self):
        # Zero positions and g = -3y/dt: V grows 4-fold a step, and the implicit
        # step y = e - 3y has a Picard map with slope -3, so the re-solve diverges.
        params = flat_params(lam=0.3)
        tree = build_tree(params, 6)
        driver = Driver(name="diverging", eval=lambda t, y, z, k, s: -3.0 * y / tree.dt,
                        lipschitz_C=3.0 / tree.dt)
        field = simulate_wealth(tree, 1.5, zero_strategy(tree), driver)
        assert field.mode == "exact"
        ref = scalar_simulate_exact(tree, 1.5, zero_strategy(tree), driver)
        with pytest.raises(ConvergenceError) as want:
            scalar_martingale_residual(ref, driver)
        with pytest.raises(ConvergenceError) as got:
            wealth_martingale_residual(field, driver)
        assert str(got.value) == str(want.value)
        assert "at t=0.833333;" in str(got.value)

    def test_requires_exact_mode(self):
        tree = build_tree(flat_params(), 4)
        field = simulate_wealth(tree, 1.0, zero_strategy(tree), ZERO,
                                mode="sampled", n_paths=8)
        with pytest.raises(ValueError, match="exact"):
            wealth_martingale_residual(field, ZERO)


class TestForwardBackwardConsistency:
    def test_wealth_dominates_reflected_value(self):
        rng = np.random.default_rng(341)
        inst = make_instance(rng, "borrow_lend", 5)
        result = seller_price(inst.tree, inst.driver, inst.obstacle)
        field = simulate_wealth(inst.tree, result.u0, result.strategy, inst.driver)
        sol = result.solution
        a_in = [0.0]
        for level in range(len(field.node_ids)):
            for idx, node in enumerate(field.node_ids[level]):
                gap = field.v[level][idx] - sol.y[node]
                assert gap >= -1e-11
                if a_in[idx] == 0.0:
                    assert abs(gap) <= 1e-11
            if level + 1 < len(field.node_ids):
                nxt = [0.0] * field.n_states(level + 1)
                for jdx in range(field.n_states(level + 1)):
                    pidx = field.parent[level + 1][jdx]
                    pnode = field.node_ids[level][pidx]
                    nxt[jdx] = a_in[pidx] + sol.delta_a[pnode]
                a_in = nxt


def strict_gain(tree, driver, obstacle):
    """strict_gain_after_nubar on the seller's solve and its exact wealth field."""
    solution = solve_rbsde_lower(tree, driver, obstacle)
    field = simulate_wealth(tree, solution.root_value, strategy_from_solution(solution), driver,
                            mode="exact")
    return strict_gain_after_nubar(field, solution)


class TestStrictGain:
    def test_vacuous_without_binding(self):
        rng = np.random.default_rng(351)
        inst = make_instance(rng, "perfect", 3)
        low = Obstacle(inst.tree, dict_rows(inst.tree, {
            n: inst.obstacle.values[n] if inst.tree.is_terminal(n) else -1e9
            for n in inst.tree.nodes}))
        report = strict_gain(inst.tree, inst.driver, low)
        assert report.passed and report.n_states == 0 and report.min_gain is None

    def test_put_with_early_exercise_gains(self):
        params = flat_params(r=0.06, mu1=0.06)
        tree = build_tree(params, 6)
        obs = Obstacle.from_payoff(tree, lambda t, s1, s2, d: max(110.0 - s1, 0.0))
        report = strict_gain(tree, perfect_driver(params), obs)
        assert report.n_states > 0
        assert report.passed
        assert report.min_gain > 1e-6

    def test_two_step_gain_is_compounded_charge(self):
        params = flat_params(r=0.1, mu1=0.1, T=1.0)
        tree = build_tree(params, 2)  # dt = 0.5
        values = {node: 0.0 for node in tree.nodes}
        for node in tree.levels[1]:
            values[node] = 5.0
        for node in tree.levels[2]:
            values[node] = 4.0
        obs = Obstacle(tree, dict_rows(tree, values))
        g = perfect_driver(params)
        report = strict_gain(tree, g, obs)
        charge = 5.0 - 4.0 / 1.05
        assert report.n_states == 4
        assert report.min_gain == pytest.approx(charge * 1.05, rel=1e-12)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_wealth_at_a_charged_state_raises_naming_it(self, value):
        params = flat_params(r=0.06, mu1=0.06)
        tree = build_tree(params, 6)
        obs = Obstacle.from_payoff(tree, put(110.0))
        solution = solve_rbsde_lower(tree, perfect_driver(params), obs)
        field = simulate_wealth(tree, solution.root_value, strategy_from_solution(solution),
                                perfect_driver(params), mode="exact")
        assert scalar_strict_gain(field, solution)[0] == 80  # charged states exist
        field = replace(field, wealth=[*field.wealth[:-1], np.full_like(field.wealth[-1], value)])
        with pytest.raises(ValueError) as row:
            strict_gain_after_nubar(field, solution)
        with pytest.raises(ValueError) as ref:
            scalar_strict_gain(field, solution)
        assert str(row.value) == str(ref.value)
        assert re.fullmatch(rf"strict gain is not finite \({value!r}\) at step 6, "
                            r"node \(6, \d, 0\), path [ud]{6}", str(row.value))

    def test_field_of_another_tree_rejected(self):
        params = flat_params()
        tree = build_tree(params, 3)
        obs = Obstacle.from_payoff(tree, put(100.0))
        solution = solve_rbsde_lower(tree, perfect_driver(params), obs)
        other = build_tree(params, 3)
        field = simulate_wealth(other, solution.root_value, zero_strategy(other), ZERO)
        with pytest.raises(ValueError, match="different trees"):
            strict_gain_after_nubar(field, solution)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def report_bits(report):
    assert type(report.min_slack) is float
    return (report.side, report.passed, bits(report.min_slack), report.n_states,
            [(pid, level, node, bits([v, xi, slack]))
             for pid, level, node, v, xi, slack in report.violations],
            None if report.max_abs_at_stop is None else bits(report.max_abs_at_stop))


def assert_same_field(field, ref):
    assert field.mode == ref.mode and field.x0 == ref.x0
    assert field.node_ids == ref.node_ids
    assert field.parent == ref.parent and field.branch == ref.branch
    assert [bits(v) for v in field.v] == [bits(v) for v in ref.v]


def reference_driver(kind, params):
    if kind == "perfect":
        return perfect_driver(params)
    if kind == "borrow_lend":
        return borrow_lend_driver(params, 0.08)
    return large_trader_driver(params, 8e-4, 0.2)


class TestMatchesScalarReference:
    """The level-array simulation and checks equal the per-path scalar code
    of tests/helpers.py bit for bit."""

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize("market", ["constant", "piecewise_lambda_to_0"])
    @pytest.mark.parametrize("kind", ["perfect", "borrow_lend", "large_trader"])
    def test_fields_and_reports(self, kind, market, mode):
        params = MarketParams(**(README_MARKET if market == "constant" else PIECEWISE_MARKET))
        tree = build_tree(params, 7)
        driver = reference_driver(kind, params)
        obs = Obstacle.from_payoff(tree, put(105.0))
        seller = seller_price(tree, driver, obs, gamma_check=False)
        buyer = buyer_price(tree, driver, obs, gamma_check=False)
        late = terminal_rule(tree)
        # Funded and underfunded (by 0.01) capital for each side.
        for x0, strategy in ((seller.u0, seller.strategy), (seller.u0 - 0.01, seller.strategy),
                             (-buyer.v0, buyer.strategy), (-buyer.v0 - 0.01, buyer.strategy)):
            field = simulate_wealth(tree, x0, strategy, driver, mode=mode, n_paths=200, seed=3)
            ref = (scalar_simulate_exact(tree, x0, strategy, driver) if mode == "exact"
                   else scalar_simulate_sampled(tree, x0, strategy, driver, 200, 3))
            assert_same_field(field, ref)
            assert (report_bits(verify_superhedge_seller(field, obs))
                    == report_bits(scalar_verify_seller(ref, obs)))
            for rule in (buyer.exercise, late):
                assert (report_bits(verify_superhedge_buyer(field, obs, rule))
                        == report_bits(scalar_verify_buyer(ref, obs, rule)))
            if mode == "exact":
                assert (bits(wealth_martingale_residual(field, driver))
                        == bits(scalar_martingale_residual(ref, driver)))
            gain = strict_gain_after_nubar(field, seller.solution)
            n, min_gain = scalar_strict_gain(ref, seller.solution)
            assert gain.n_states == n
            assert (float_bits(gain.min_gain) == float_bits(min_gain) if n
                    else gain.min_gain is None)
        # The underfunded seller compares violation lists and path ids.
        ref = scalar_simulate_exact(tree, seller.u0 - 0.01, seller.strategy, driver)
        assert scalar_verify_seller(ref, obs).violations

    def test_draws_on_probability_boundaries(self, monkeypatch):
        params = MarketParams(**README_MARKET)
        tree = build_tree(params, 6)
        accs = [acc for row in tree.row_branches[0] for acc in accumulate(b.prob for b in row)]
        edges = np.array(sorted({0.0, *accs, *(np.nextafter(a, 0.0) for a in accs)}))
        assert 1.0 in edges  # past every running sum: the last branch is taken
        real = np.random.default_rng

        class EdgeRng:
            def __init__(self, key):
                self.inner = real(key)

            def random(self, n):
                return edges[self.inner.integers(len(edges), size=n)]

        monkeypatch.setattr(np.random, "default_rng", EdgeRng)  # the scalar reference's draws
        monkeypatch.setattr(hedging, "_draws", lambda seed, n_paths, n_steps: np.column_stack(
            [EdgeRng([seed, p]).random(n_steps) for p in range(n_paths)]))
        driver = borrow_lend_driver(params, 0.08)
        obs = Obstacle.from_payoff(tree, put(105.0))
        seller = seller_price(tree, driver, obs, gamma_check=False)
        field = simulate_wealth(tree, seller.u0, seller.strategy, driver, mode="sampled",
                                n_paths=300, seed=5)
        ref = scalar_simulate_sampled(tree, seller.u0, seller.strategy, driver, 300, 5)
        assert_same_field(field, ref)
        assert {b for level in field.branch[1:] for b in level} == {0, 1, 2}

    @pytest.mark.parametrize("kind", ["perfect", "borrow_lend", "large_trader"])
    def test_a_level_of_defaulted_states_only_is_stepped_whole(self, kind):
        # lambda * dt = 0.9: at seed 2 all eight paths default at the first step, so
        # levels 1 and 2 hold defaulted states only and take one driver call each. The
        # positions hold the defaultable asset after default too, so that a driver
        # handed the alive rows' intensity there would give other wealth.
        params = MarketParams(**dict(README_MARKET, lam=1.8))
        tree = build_tree(params, 2)
        driver = reference_driver(kind, params)
        rng = np.random.default_rng(7)
        nodes = [node for node in tree.nodes if not tree.is_terminal(node)]
        strategy = Strategy(tree, *(dict_rows(tree, {n: float(rng.uniform(-1, 1)) for n in nodes},
                                              tree.n_steps) for _ in range(2)))
        field = simulate_wealth(tree, 1.0, strategy, driver, mode="sampled", n_paths=8, seed=2)
        assert field.paths.d[1].all()
        assert_same_field(field, scalar_simulate_sampled(tree, 1.0, strategy, driver, 8, 2))

    def test_sampled_field_at_a_two_word_seed(self):
        params = MarketParams(**README_MARKET)
        tree = build_tree(params, 7)
        driver = borrow_lend_driver(params, 0.08)
        seller = seller_price(tree, driver, Obstacle.from_payoff(tree, put(105.0)),
                              gamma_check=False)
        seed = 2**32 + 5
        field = simulate_wealth(tree, seller.u0, seller.strategy, driver, mode="sampled",
                                n_paths=200, seed=seed)
        assert_same_field(field, scalar_simulate_sampled(tree, seller.u0, seller.strategy,
                                                         driver, 200, seed))


@pytest.mark.parametrize("seed", [0, 1, 999, 2**32 - 1, 2**32, 2**64 + 7, 2**96, 2**1024 + 1])
def test_draws_are_the_default_rng_streams(seed):
    """Column p of ``_draws`` is ``default_rng([seed, p]).random(n_steps)`` bit for bit;
    the seeds from 2**32 on take more than one SeedSequence entropy word, and from
    2**96 on the words with the path index overflow the four-word pool."""
    def streams(n_paths, n_steps):
        return np.column_stack([np.random.default_rng([seed, p]).random(n_steps)
                                for p in range(n_paths)]).view(np.uint64)

    ref = streams(10_000, 16)
    np.testing.assert_array_equal(ref[:1, :3], streams(3, 1))
    for n_paths in (1, 3, 10_000):
        for n_steps in (1, 16):
            np.testing.assert_array_equal(hedging._draws(seed, n_paths, n_steps).view(np.uint64),
                                          ref[:n_steps, :n_paths])


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(style=st.sampled_from(("const", "piecewise", "lam_zero", "lam_rises")),
       kind=st.sampled_from(DRIVER_KINDS), payoff=st.sampled_from(("put", "call", "expr")),
       n_steps=st.integers(1, 6), r=st.floats(0.0, 0.06), sigma1=st.floats(0.1, 0.5),
       strike=st.floats(70.0, 130.0), seed=st.integers(0, 2**16),
       shortfall=st.sampled_from((0.0, 0.01)))
def test_rows_equal_the_scalar_references_on_random_markets(style, kind, payoff, n_steps, r,
                                                              sigma1, strike, seed, shortfall):
    """The obstacle rows, both wealth fields (exact and sampled), both
    superhedge checks, the martingale residual (exact) and the strict gain
    equal their scalar references bit for bit, from each side's price or
    ``shortfall`` below it."""
    params = style_params(style, r, sigma1)
    tree = build_tree(params, n_steps)
    payoff = named_payoff(payoff, strike)
    obs = Obstacle.from_payoff(tree, payoff)
    assert [[row.tobytes() for row in pair] for pair in obs.rows] == \
        [[row.tobytes() for row in pair] for pair in scalar_obstacle_rows(tree, payoff)]
    driver = make_driver(kind, params)
    try:
        seller = seller_price(tree, driver, obs, gamma_check=False)
        buyer = buyer_price(tree, driver, obs, gamma_check=False)
    except ConvergenceError:
        reject()
    for x0, strategy in ((seller.u0 - shortfall, seller.strategy),
                         (-buyer.v0 - shortfall, buyer.strategy)):
        for mode in ("exact", "sampled"):
            field = simulate_wealth(tree, x0, strategy, driver, mode=mode, n_paths=50,
                                    seed=seed)
            ref = (scalar_simulate_exact(tree, x0, strategy, driver) if mode == "exact"
                   else scalar_simulate_sampled(tree, x0, strategy, driver, 50, seed))
            assert_same_field(field, ref)
            assert (report_bits(verify_superhedge_seller(field, obs))
                    == report_bits(scalar_verify_seller(ref, obs)))
            assert (report_bits(verify_superhedge_buyer(field, obs, buyer.exercise))
                    == report_bits(scalar_verify_buyer(ref, obs, buyer.exercise)))
            if mode == "exact":
                assert (bits(wealth_martingale_residual(field, driver))
                        == bits(scalar_martingale_residual(ref, driver)))
            gain = strict_gain_after_nubar(field, seller.solution)
            n, min_gain = scalar_strict_gain(ref, seller.solution)
            assert gain.n_states == n
            assert (float_bits(gain.min_gain) == float_bits(min_gain) if n
                    else gain.min_gain is None)


class TestBrokenWealth:
    def setup_method(self):
        params = MarketParams(**README_MARKET)
        self.tree = build_tree(params, 4)
        self.obs = Obstacle.from_payoff(self.tree, put(105.0))
        self.driver = borrow_lend_driver(params, 0.07)

    # 2**32: rejected before any draw; 2.5 and True: rejected before numpy sees them
    @pytest.mark.parametrize("n_paths", [0, -1, 2**32, 2.5, True])
    def test_no_sample_paths_rejected(self, n_paths):
        seller = seller_price(self.tree, self.driver, self.obs)
        with pytest.raises(ValueError, match="n_paths"):
            simulate_wealth(self.tree, seller.u0, seller.strategy, self.driver,
                            mode="sampled", n_paths=n_paths)

    def test_an_unknown_mode_is_rejected(self):
        seller = seller_price(self.tree, self.driver, self.obs)
        with pytest.raises(ValueError, match=r"^mode must be 'exact' or 'sampled', got 'both'$"):
            simulate_wealth(self.tree, seller.u0, seller.strategy, self.driver, mode="both")

    @pytest.mark.parametrize("seed", [-1, 2.0, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        seller = seller_price(self.tree, self.driver, self.obs)
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}"):
            simulate_wealth(self.tree, seller.u0, seller.strategy, self.driver,
                            mode="sampled", n_paths=5, seed=seed)

    @pytest.mark.parametrize("mode,path", [("exact", "[udj]"), ("sampled", "0")])
    def test_nan_wealth_fails_seller_naming_the_state(self, mode, path):
        seller = seller_price(self.tree, self.driver, self.obs)
        field = simulate_wealth(self.tree, seller.u0, seller.strategy, NAN, mode=mode,
                                n_paths=20)
        with pytest.raises(ValueError, match=r"seller superhedge slack is not finite \(nan\) "
                                             rf"at step 1, node \(1, \d, \d\), path {path}$"):
            verify_superhedge_seller(field, self.obs)

    def test_nan_wealth_fails_buyer_naming_the_state(self):
        buyer = buyer_price(self.tree, self.driver, self.obs)
        field = simulate_wealth(self.tree, -buyer.v0, buyer.strategy, NAN)
        with pytest.raises(ValueError, match=r"buyer superhedge slack is not finite \(nan\) "
                                             r"at step \d, node \(\d, \d, \d\), path [udj]+$"):
            verify_superhedge_buyer(field, self.obs, buyer.exercise)


class CountingPiecewise(PiecewiseConstant):
    """A piecewise-constant coefficient that counts its lookups by time."""

    __slots__ = ()
    calls = 0

    def at(self, t):
        CountingPiecewise.calls += 1
        return super().at(t)


def counting_params() -> MarketParams:
    market = MarketParams(**PIECEWISE_MARKET)
    return replace(market, **{name: CountingPiecewise(getattr(market, name).values,
                                                      getattr(market, name).times)
                              for name in Coefs._fields})


@pytest.mark.parametrize("kind", ["perfect", "borrow_lend", "large_trader"])
def test_pricing_and_simulation_read_the_per_step_coefficients(kind):
    params = counting_params()
    CountingPiecewise.calls = 0
    tree = build_tree(params, 7)
    driver = reference_driver(kind, params)
    obstacle = Obstacle.from_payoff(tree, put(105.0))
    assert CountingPiecewise.calls > 0  # the lattice resolves each step once
    CountingPiecewise.calls = 0
    report = price_american(tree, driver, obstacle, gamma_check=False)
    for mode in ("exact", "sampled"):
        seller, buyer = report.seller, report.buyer
        simulate_wealth(tree, seller.u0, seller.strategy, driver, mode=mode, n_paths=50)
        simulate_wealth(tree, -buyer.v0, buyer.strategy, driver, mode=mode, n_paths=50)
    assert CountingPiecewise.calls == 0


@pytest.mark.parametrize("kind", ["perfect", "borrow_lend", "large_trader"])
def test_sampled_driver_checks_read_the_per_step_coefficients(kind):
    params = counting_params()
    tree = build_tree(params, 7)
    driver = reference_driver(kind, params)
    CountingPiecewise.calls = 0
    with contextlib.suppress(ValueError):  # large_trader fails the precheck after sampling
        pricing._require_gamma(tree, driver)
    cli._check_gamma(tree, driver)
    cli._check_admissible(tree, driver)
    assert CountingPiecewise.calls == 0
