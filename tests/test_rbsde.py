import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amhedge.bsde import ConvergenceError, backward_sweep
from amhedge.drivers import (Driver, borrow_lend_driver, check_gamma_assumption,
                             gamma_rows, large_trader_driver, perfect_driver, split_eval,
                             split_of)
from amhedge.market import MarketParams, NodeState, PiecewiseConstant, build_tree
from amhedge.oracle import implicit_value, one_step, solve_bsde
from amhedge.pricing import rational_exercise_times
from amhedge.payoffs import put
from amhedge.rbsde import (Obstacle, skorokhod_residual, solve_rbsde_lower,
                           solve_rbsde_upper, solve_reflected, solved)
from helpers import (DRIVER_KINDS, assert_plain_stats, at_times, dict_rows, float_bits,
                     make_driver, make_instance, named_payoff, negated, random_payoff,
                     row_by_row_sweep, scalar_cumulative_charge, scalar_gamma_scan,
                     scalar_is_rational, style_params)

ZERO = Driver(name="zero", eval=lambda t, y, z, k, s: 0.0, lipschitz_C=0.0)


def flat_params(**overrides):
    base = dict(r=0.0, mu1=0.0, mu2=0.0, sigma1=0.2, sigma2=0.3, lam=0.0,
                s1_0=100.0, s2_0=90.0, T=1.0)
    base.update(overrides)
    return MarketParams(**base)


def snell_put_oracle(params, n_steps, strike):
    """Independent dynamic program: V = max(payoff, plain average of children)."""
    dt = params.T / n_steps
    sq = math.sqrt(dt)
    mu, sig = params.mu1.at(0.0), params.sigma1.at(0.0)
    up, dn = 1.0 + mu * dt + sig * sq, 1.0 + mu * dt - sig * sq
    prices = [params.s1_0]
    levels = [prices]
    for i in range(n_steps):
        prices = [prices[0] * dn] + [p * up for p in prices]
        levels.append(prices)
    values = [max(strike - s, 0.0) for s in levels[n_steps]]
    for i in range(n_steps - 1, -1, -1):
        values = [max(max(strike - levels[i][j], 0.0),
                      0.5 * (values[j + 1] + values[j]))
                  for j in range(i + 1)]
    return values[0]


class TestLowerReflection:
    def test_non_binding_obstacle_is_plain_solve(self):
        rng = np.random.default_rng(61)
        inst = make_instance(rng, "perfect", 4)
        tree = inst.tree
        low, xi = {node: -1e9 for node in tree.nodes}, tree.node_dict(inst.obstacle.rows)
        for node in tree.terminal_nodes():
            low[node] = xi[node]
        sol = solve_rbsde_lower(tree, inst.driver, Obstacle(tree, dict_rows(tree, low)))
        terminal = {node: xi[node] for node in tree.terminal_nodes()}
        plain = solve_bsde(tree, inst.driver, terminal)
        y, plain_y = tree.node_dict(sol.y_rows), tree.node_dict(plain.y_rows)
        assert all(y[node] == plain_y[node] for node in tree.nodes)
        assert all(v == 0.0 for v in tree.node_dict(sol.da_rows, range(tree.n_steps)).values())

    def test_decreasing_deterministic_obstacle(self):
        tree = build_tree(flat_params(T=1.0), 2)  # dt = 0.5
        obs = Obstacle.from_payoff(tree, lambda t, s1, s2, d: 10.0 - t)
        sol = solve_rbsde_lower(tree, ZERO, obs)
        y, xi = tree.node_dict(sol.y_rows), tree.node_dict(obs.rows)
        delta_a = tree.node_dict(sol.da_rows, range(tree.n_steps))
        for node in tree.nodes:
            assert y[node] == xi[node]
        for node in tree.levels[0] + tree.levels[1]:
            assert delta_a[node] == pytest.approx(0.5, abs=1e-15)

    def test_american_put_matches_independent_snell_program(self):
        params = flat_params()
        tree = build_tree(params, 6)
        obs = Obstacle.from_payoff(tree, lambda t, s1, s2, d: max(105.0 - s1, 0.0))
        sol = solve_rbsde_lower(tree, ZERO, obs)
        assert sol.root_value == pytest.approx(
            snell_put_oracle(params, 6, 105.0), abs=1e-13)

    def test_terminal_value_equals_obstacle(self):
        rng = np.random.default_rng(67)
        inst = make_instance(rng, "borrow_lend", 3)
        sol = solve_rbsde_lower(inst.tree, inst.driver, inst.obstacle)
        y, xi = inst.tree.node_dict(sol.y_rows), inst.tree.node_dict(inst.obstacle.rows)
        for node in inst.tree.terminal_nodes():
            assert y[node] == xi[node]


class TestUpperReflection:
    def test_non_binding_upper_is_plain_solve(self):
        rng = np.random.default_rng(71)
        inst = make_instance(rng, "perfect", 3)
        tree = inst.tree
        high, xi = {node: 1e9 for node in tree.nodes}, tree.node_dict(inst.obstacle.rows)
        for node in tree.terminal_nodes():
            high[node] = xi[node]
        sol = solve_rbsde_upper(tree, inst.driver, Obstacle(tree, dict_rows(tree, high)))
        terminal = {node: xi[node] for node in tree.terminal_nodes()}
        plain = solve_bsde(tree, inst.driver, terminal)
        y, plain_y = tree.node_dict(sol.y_rows), tree.node_dict(plain.y_rows)
        assert all(y[node] == plain_y[node] for node in tree.nodes)
        assert all(v == 0.0 for v in tree.node_dict(sol.da_rows, range(tree.n_steps)).values())

    def test_sign_symmetry_against_lower_for_linear_driver(self):
        rng = np.random.default_rng(73)
        inst = make_instance(rng, "perfect", 4)
        tree = inst.tree
        lower = solve_rbsde_lower(tree, inst.driver, inst.obstacle)
        neg = negated(inst.obstacle)
        upper = solve_rbsde_upper(tree, inst.driver, neg)
        upper_y, lower_y = tree.node_dict(upper.y_rows), tree.node_dict(lower.y_rows)
        for node in tree.nodes:
            assert upper_y[node] == -lower_y[node]
        below = range(tree.n_steps)
        upper_da, lower_da = tree.node_dict(upper.da_rows, below), tree.node_dict(lower.da_rows, below)
        for node in lower_da:
            assert upper_da[node] == lower_da[node]

    def test_binding_upper_two_step_by_hand(self):
        tree = build_tree(flat_params(T=1.0), 2)
        values = {(2, 0, 0): 4.0, (2, 1, 0): 6.0, (2, 2, 0): 8.0,
                  (1, 0, 0): 3.0, (1, 1, 0): 100.0, (0, 0, 0): 100.0}
        sol = solve_rbsde_upper(tree, ZERO, Obstacle(tree, dict_rows(tree, values)))
        y = tree.node_dict(sol.y_rows)
        assert y[(1, 1, 0)] == 7.0
        assert y[(1, 0, 0)] == 3.0
        assert tree.node_dict(sol.da_rows, [1])[(1, 0, 0)] == 2.0
        assert y[tree.root] == 5.0


class TestSkorokhod:
    def test_residual_zero_on_solver_output(self):
        for seed, kind in [(81, "perfect"), (82, "borrow_lend"), (83, "large_trader")]:
            rng = np.random.default_rng(seed)
            inst = make_instance(rng, kind, 3)
            sol = solve_rbsde_lower(inst.tree, inst.driver, inst.obstacle)
            assert skorokhod_residual(sol, inst.obstacle) == 0.0

    def test_corrupted_solution_reports_product(self):
        rng = np.random.default_rng(89)
        inst = make_instance(rng, "perfect", 3)
        sol = solve_rbsde_lower(inst.tree, inst.driver, inst.obstacle)
        tree = inst.tree
        y, xi = tree.node_dict(sol.y_rows), tree.node_dict(inst.obstacle.rows)
        # The nodes below the last step, the last of them first.
        node = max(tree.node_dict(sol.da_rows, range(tree.n_steps - 1, -1, -1)),
                   key=lambda n: y[n] - xi[n])
        assert y[node] > xi[node]
        i, j, d = node
        sol.da_rows[tree.starts[2 * i + d] + j] = 0.5
        expected = 0.5 * (y[node] - xi[node])
        assert skorokhod_residual(sol, inst.obstacle) == pytest.approx(expected)

    def test_rejects_plain_solve(self):
        rng = np.random.default_rng(97)
        inst = make_instance(rng, "perfect", 2)
        sol = solve_bsde(inst.tree, inst.driver, inst.obstacle)
        with pytest.raises(ValueError, match="'bsde'"):
            skorokhod_residual(sol, inst.obstacle)


@pytest.mark.parametrize("seed,kind", [(101, "perfect"), (102, "borrow_lend"),
                                       (103, "large_trader"), (104, "perfect"),
                                       (105, "borrow_lend")])
class TestStructuralInvariants:
    def test_lower_structure(self, seed, kind):
        rng = np.random.default_rng(seed)
        inst = make_instance(rng, kind, 4)
        sol = solve_rbsde_lower(inst.tree, inst.driver, inst.obstacle)
        tree = inst.tree
        y, xi = tree.node_dict(sol.y_rows), tree.node_dict(inst.obstacle.rows)
        delta_a = tree.node_dict(sol.da_rows, range(tree.n_steps))
        for node in tree.nodes:
            assert y[node] >= xi[node]
        for node, da in delta_a.items():
            assert da >= 0.0
            assert da * (y[node] - xi[node]) == 0.0
        # The latest rational rule of the solve is rational, and the charge
        # accrued on arrival never falls along a branch.
        nu_bar = rational_exercise_times(sol, inst.obstacle)[1]
        assert scalar_is_rational(sol, inst.obstacle, nu_bar).ok
        charge = scalar_cumulative_charge(tree, delta_a)
        for node, branches in tree.branches.items():
            for b in branches:
                assert charge[b.child] >= charge[node] + delta_a[node] >= charge[node]

    def test_upper_structure(self, seed, kind):
        rng = np.random.default_rng(seed)
        inst = make_instance(rng, kind, 4)
        neg = negated(inst.obstacle)
        sol = solve_rbsde_upper(inst.tree, inst.driver, neg)
        tree = inst.tree
        y, neg_xi = tree.node_dict(sol.y_rows), tree.node_dict(neg.rows)
        for node in tree.nodes:
            assert y[node] <= neg_xi[node]
        for node, da in tree.node_dict(sol.da_rows, range(tree.n_steps)).items():
            assert da >= 0.0
            assert da * (neg_xi[node] - y[node]) == 0.0

    def test_monotone_in_obstacle(self, seed, kind):
        rng = np.random.default_rng(seed)
        inst = make_instance(rng, kind, 3)
        bumped = Obstacle(inst.tree, dict_rows(inst.tree, {
            n: v + float(rng.uniform(0, 2))
            for n, v in inst.tree.node_dict(inst.obstacle.rows).items()}))
        y1, y2 = (inst.tree.node_dict(solve_rbsde_lower(inst.tree, inst.driver, obs).y_rows)
                  for obs in (inst.obstacle, bumped))
        for node in inst.tree.nodes:
            assert y1[node] <= y2[node] + 1e-12


# ---------------------------------------------------------------------------
# The row sweep against the scalar reference kernel
# ---------------------------------------------------------------------------

def row_test_params(style):
    base = dict(r=0.03, mu1=0.06, mu2=0.01, sigma1=0.25, sigma2=0.3, lam=0.2,
                s1_0=100.0, s2_0=90.0, T=1.0)
    if style == "piecewise":
        base.update(r=PiecewiseConstant([0.03, 0.05], times=[0.0, 0.4]),
                    sigma1=PiecewiseConstant([0.25, 0.18], times=[0.0, 0.6]),
                    lam=PiecewiseConstant([0.2, 0.35], times=[0.0, 0.5]))
    elif style == "lam_drop":
        # Alive rows lose their default branch mid-horizon, while the
        # defaulted rows keep stepping on two branches.
        base.update(lam=PiecewiseConstant([0.3, 0.0], times=[0.0, 0.5]))
    return MarketParams(**base)


def row_test_driver(kind, params):
    if kind == "perfect":
        return perfect_driver(params)
    if kind == "borrow_lend":
        return borrow_lend_driver(params, 0.09)
    alpha = 0.0 if kind == "large_trader" else 0.0008
    return large_trader_driver(params, alpha, 0.3)


def scalar_reflected(tree, driver, obstacle, side):
    """Node-by-node reference: the scalar one_step, then the reflection; the
    dicts hold the levels last first."""
    xi = tree.node_dict(obstacle.rows)
    y = {node: float(xi[node]) for node in tree.terminal_nodes()}
    z, k, delta_a = {}, {}, {}
    for level in reversed(tree.levels[:-1]):
        for node in level:
            y_c, z[node], k[node] = one_step(tree, driver, node, y)
            b = xi[node]
            if side == "lower" and b > y_c:
                y[node], delta_a[node] = b, b - y_c
            elif side == "upper" and b < y_c:
                y[node], delta_a[node] = b, y_c - b
            else:
                y[node], delta_a[node] = y_c, 0.0
    return y, z, k, delta_a


@pytest.mark.parametrize("style", ["const", "piecewise", "lam_drop"])
@pytest.mark.parametrize("kind", ["perfect", "borrow_lend", "large_trader",
                                  "large_trader_alpha"])
class TestRowSweepMatchesScalar:
    def test_every_node_equal(self, style, kind):
        params = row_test_params(style)
        driver = row_test_driver(kind, params)
        rng = np.random.default_rng(7)
        for n_steps in (1, 5, 12):
            tree = build_tree(params, n_steps)
            obstacle = Obstacle.from_payoff(tree, random_payoff(rng))
            upper = negated(obstacle)
            for side, solve, barrier in (("lower", solve_rbsde_lower, obstacle),
                                         ("upper", solve_rbsde_upper, upper)):
                sol = solve(tree, driver, barrier)
                expected = scalar_reflected(tree, driver, barrier, side)
                for got, want in zip(last_first(tree, sol.y_rows, sol.z_rows, sol.k_rows,
                                                sol.da_rows), expected):
                    assert list(got) == list(want)  # same nodes, same order
                    assert all(got[node] == want[node] for node in want)

    def test_plain_solve_equal(self, style, kind):
        params = row_test_params(style)
        tree = build_tree(params, 12)
        driver = row_test_driver(kind, params)
        terminal = {node: float(i % 7) - 2.0
                    for i, node in enumerate(tree.terminal_nodes())}
        sol = solve_bsde(tree, driver, terminal)
        sol_y, sol_z, sol_k = last_first(tree, sol.y_rows, sol.z_rows, sol.k_rows)
        y = dict(terminal)
        for level in reversed(tree.levels[:-1]):
            for node in level:
                y[node], z, k = one_step(tree, driver, node, y)
                assert (sol_z[node], sol_k[node]) == (z, k)
        assert list(sol_y) == list(y)
        assert all(sol_y[node] == y[node] for node in y)


def last_first(tree, y_rows, *below):
    """Node dicts of row-order arrays in the scalar references' order, the levels
    last first: ``y_rows`` at every step, the arrays of ``below`` below the last."""
    n = tree.n_steps
    return (tree.node_dict(y_rows, range(n, -1, -1)),
            *(tree.node_dict(rows, range(n - 1, -1, -1)) for rows in below))


def node_bits(*views):
    """(node, value bits) of node dicts in their order, so that -0.0 is not 0.0."""
    return [[(node, float_bits(v)) for node, v in view.items()] for view in views]


def _bits_or_error(compute):
    try:
        return compute()
    except ConvergenceError:
        return ConvergenceError


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(style=st.sampled_from(("const", "piecewise", "lam_zero")),
       kind=st.sampled_from(DRIVER_KINDS), payoff=st.sampled_from(("put", "call", "expr")),
       n_steps=st.integers(1, 16), r=st.floats(0.0, 0.06), sigma1=st.floats(0.1, 0.5),
       strike=st.floats(70.0, 130.0))
def test_row_sweep_equals_the_scalar_kernel_on_random_markets(
        style, kind, payoff, n_steps, r, sigma1, strike):
    params = style_params(style, r, sigma1)
    tree = build_tree(params, n_steps)
    driver = make_driver(kind, params)
    obstacle = Obstacle.from_payoff(tree, named_payoff(payoff, strike))
    for side, solve, barrier in (("lower", solve_rbsde_lower, obstacle),
                                 ("upper", solve_rbsde_upper, negated(obstacle))):
        def rows():
            sol = solve(tree, driver, barrier)
            return node_bits(*last_first(tree, sol.y_rows, sol.z_rows, sol.k_rows, sol.da_rows))
        assert (_bits_or_error(rows)
                == _bits_or_error(lambda: node_bits(*scalar_reflected(tree, driver, barrier, side))))

    xi = tree.node_dict(obstacle.rows)
    terminal = {node: xi[node] for node in tree.terminal_nodes()}

    def plain():
        sol = solve_bsde(tree, driver, terminal)
        return node_bits(*last_first(tree, sol.y_rows, sol.z_rows, sol.k_rows))

    def scalar_plain():
        y, z, k = dict(terminal), {}, {}
        for level in reversed(tree.levels[:-1]):
            for node in level:
                y[node], z[node], k[node] = one_step(tree, driver, node, y)
        return node_bits(y, z, k)

    assert _bits_or_error(plain) == _bits_or_error(scalar_plain)


@pytest.mark.parametrize("kind", ["perfect", "borrow_lend", "large_trader_alpha"])
def test_batched_gamma_check_equals_scalar_scan(kind):
    params = row_test_params("piecewise")
    driver = row_test_driver(kind, params)
    points = (-101.0, -1.0, 0.0, 1.0, 101.0)
    samples = gamma_rows(params, steps=at_times(params, [0.0, 0.25, 0.5, 0.75]), ys=points,
                         zs=points, ks=points)
    dead = NodeState(0.5, 1.0, 100.0, 0.0, 0.0, True, params.at(0.5))
    alive = samples[0][0]

    def part(sample, cut):
        return (sample[0], *(row[cut] for row in sample[1:]))

    def rows(state, *columns):
        return (state, *(np.array(c, dtype=float) for c in columns))

    # Mix in samples the check skips in whole or in part, repeated states and
    # a state whose rows are split by another state.
    mixed = ([rows(dead, [1.0], [2.0], [0.0], [1.0]),
              rows(alive, [3.0, 4.0], [-2.0, -2.0], [1.0, 1.0], [1.0, 2.0]),
              part(samples[0], slice(70)), rows(dead, [-1.0], [0.0], [1.0], [2.0]),
              part(samples[0], slice(70, None)), *samples[1:], part(samples[0], slice(30)),
              rows(alive, [5.0], [5.0], [-3.0], [4.0])])
    report = check_gamma_assumption(driver, mixed)
    min_ratio, worst, n = scalar_gamma_scan(driver, mixed)
    assert (report.min_ratio, report.worst, report.n_samples) == (min_ratio, worst, n)
    assert type(report.min_ratio) is float


def test_batched_gamma_check_keeps_first_of_tied_minima():
    linear = Driver(name="linear", eval=lambda t, y, z, k, s: -0.5 * s.lam * k,
                    lipschitz_C=1.0)
    params = flat_params(lam=0.5)
    a = NodeState(0.0, 1.0, 100.0, 90.0, 0.5, False, params.at(0.0))
    b = NodeState(0.5, 1.0, 100.0, 90.0, 0.5, False, params.at(0.5))
    samples = [(a, np.array([0.0, 1.0]), np.zeros(2), np.array([1.0, 2.0]), np.array([1.0, 0.0])),
               (b, np.array([2.0]), np.zeros(1), np.array([4.0]), np.array([-4.0])),
               (a, np.array([3.0]), np.zeros(1), np.array([1.0]), np.array([3.0]))]
    report = check_gamma_assumption(linear, samples)  # every ratio is exactly -0.5
    assert (report.min_ratio, report.n_samples) == (-0.5, 3)
    assert report.worst == (a, 1.0, 0.0, 2.0, 0.0)


@pytest.mark.parametrize("solve", [solve_rbsde_lower, solve_rbsde_upper])
def test_obstacle_of_another_tree_rejected(solve):
    tree = build_tree(flat_params(), 3)
    for other in (build_tree(flat_params(), 4), build_tree(flat_params(), 3)):
        obstacle = Obstacle.from_payoff(other, lambda t, s1, s2, d: 1.0)
        with pytest.raises(ValueError, match="another tree"):
            solve(tree, ZERO, obstacle)


def test_convergence_failure_names_node_and_residual():
    tree = build_tree(flat_params(lam=0.0, T=1.0), 2)  # dt = 0.5
    stiff = Driver(name="stiff", eval=lambda t, y, z, k, s: -50.0 * y,
                   lipschitz_C=50.0)
    obstacle = Obstacle(tree, dict_rows(tree, {node: 1.0 for node in tree.nodes}))
    y, residual = 1.0, None
    for _ in range(50):  # the scalar iteration at the first node swept
        y_new = 1.0 + (-50.0 * y) * 0.5
        y, residual = y_new, abs(y_new - y)
    with pytest.raises(ConvergenceError) as failure:
        solve_rbsde_lower(tree, stiff, obstacle)
    message = str(failure.value)
    assert "node (1, 0, 0)" in message
    assert f"last residual {residual:.3g}" in message


def assert_stats_match_scalar_counts(kind, side):
    params = row_test_params("lam_drop")
    driver = row_test_driver(kind, params)
    tree = build_tree(params, 6)
    obstacle = Obstacle.from_payoff(tree, random_payoff(np.random.default_rng(11)))
    calls = []  # elements per driver call

    def counted(t, y, z, k, state):
        calls.append(np.size(y))
        return driver.eval(t, y, z, k, state)

    counting = Driver(name=driver.name, eval=counted, lipschitz_C=driver.lipschitz_C)
    sol = (solve_rbsde_lower(tree, counting, obstacle) if side == "lower"
           else solve_rbsde_upper(tree, counting, negated(obstacle)))
    evals = sum(calls)
    # Picard iterations of each node, counted on the scalar reference sweep.
    per_node, y = [], tree.node_dict(sol.y_rows)
    for level in reversed(tree.levels[:-1]):
        for node in level:
            calls.clear()
            one_step(tree, counting, node, y)
            per_node.append(len(calls))
    stats = sol.stats
    delta_a = tree.node_dict(sol.da_rows, range(tree.n_steps))
    assert stats.nodes == len(delta_a) == len(per_node)
    assert stats.picard_max == max(per_node)
    assert stats.picard_mean == sum(per_node) / len(per_node)
    assert stats.driver_evals == evals
    assert stats.bound == sum(1 for charge in delta_a.values() if charge > 0.0) > 0
    xi = tree.node_dict(obstacle.rows)
    plain = solve_bsde(tree, driver, {n: xi[n] for n in tree.terminal_nodes()})
    assert plain.stats.nodes == stats.nodes and plain.stats.bound == 0
    # The same types at K = 1 and in a K = 3 sweep, whose sides count as on their own.
    sides = [(obstacle, "lower"), (negated(obstacle), "upper"), (negated(obstacle), "lower")]
    shared = solve_reflected(tree, driver, sides)
    for solution in (sol, plain, *shared):
        assert_plain_stats(solution.stats)
    for solution, side in zip(shared, sides, strict=True):
        assert solution.stats == solve_reflected(tree, driver, [side])[0].stats


def _counting(driver, calls):
    """``driver`` with an eval that records the elements of each call (its split
    form dropped, so the sweep calls eval on each iterate)."""
    def counted(t, y, z, k, state):
        calls.append(np.size(y))
        return driver.eval(t, y, z, k, state)
    return dataclasses.replace(driver, eval=counted)


def _rows_bits(solution) -> list:
    return [float_bits(getattr(solution, name)) for name in ("y_rows", "z_rows", "k_rows",
                                                             "da_rows")]


# The intensity of the step-loop differential: none, constant, or stepping to 0 at
# t = 0.5, so that a step holds one row, two rows, or alive rows losing their default
# branch beside defaulted rows that keep stepping.
STEP_LAMBDAS = {"lam_zero": 0.0, "lam_const": 0.25,
                "lam_to_zero": PiecewiseConstant([0.25, 0.0], times=[0.0, 0.5])}


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(lam=st.sampled_from(sorted(STEP_LAMBDAS)), kind=st.sampled_from(DRIVER_KINDS),
       kinds=st.lists(st.sampled_from(("lower", "upper")), min_size=1, max_size=3),
       n_steps=st.integers(1, 10), payoff=st.sampled_from(("put", "call", "expr")),
       strike=st.floats(80.0, 120.0))
def test_one_loop_per_step_equals_the_row_by_row_reference(lam, kind, kinds, n_steps, payoff,
                                                           strike):
    # K = 1, 2 or 3 sides; at K = 3 the last side has a driver of its own.
    params = dataclasses.replace(row_test_params("const"), lam=STEP_LAMBDAS[lam])
    tree = build_tree(params, n_steps)
    obstacle = Obstacle.from_payoff(tree, named_payoff(payoff, strike))
    calls = []
    driver = _counting(make_driver(kind, params), calls)
    second = _counting(make_driver("perfect" if kind != "perfect" else "borrow_lend", params),
                       calls)
    sides = [(side, (obstacle if side == "lower" else negated(obstacle)).rows,
              second if h == 2 else driver) for h, side in enumerate(kinds)]
    got = backward_sweep(tree, sides)
    evals = sum(calls)
    calls.clear()
    want = row_by_row_sweep(tree, sides)
    assert sum(calls) == evals > 0
    for solution, rows, side in zip(got, want, sides, strict=True):
        assert _rows_bits(solution) == [float_bits(part) for part in rows]
        assert solution.stats == backward_sweep(tree, [side])[0].stats


def _recording(driver, tree, calls):
    """``driver`` with a split form that checks each call against the tree: the state's
    s1 and s2 are the row's prices repeated once per side, z and k as long, and k all
    zeros on a two-branch row; each call of the g it returns is recorded as (driver
    name, t, defaulted, length)."""
    split, step = split_of(driver), {tree.time(i): i for i in range(tree.n_steps)}

    def recorded(t, z, k, state):
        i, d = step[t], int(state.defaulted)
        s1, s2 = (tree.step_rows(prices, i)[d] for prices in (tree.s1, tree.s2))
        sides = len(z) // len(s1)
        assert sides >= 1 and len(z) == len(k) == len(state.s1) == sides * len(s1)
        assert float_bits(state.s1) == float_bits(np.tile(s1, sides))
        assert float_bits(state.s2) == float_bits(np.tile(s2, sides))
        if len(tree.row_branches[i][d]) == 2:
            assert float_bits(k) == float_bits(np.zeros(len(k)))
        g = split(t, z, k, state)

        def g_recorded(y):
            calls.append((driver.name, t, d, len(y)))
            return g(y)
        return g_recorded
    return dataclasses.replace(driver, eval=split_eval(recorded, driver.eval.times))


@pytest.mark.parametrize("lam", sorted(STEP_LAMBDAS))
@pytest.mark.parametrize("kinds", [("lower",), ("lower", "upper"), ("lower", "upper", "lower")])
def test_every_sweep_call_keeps_the_driver_contract(lam, kinds):
    # At K = 3 the last side has a driver of its own, so a row has two runs. One loop
    # per step interleaves the iterations of a step's segments, so the calls are
    # compared with the row-by-row reference's as a multiset, each tagged with its step.
    params = dataclasses.replace(row_test_params("const"), lam=STEP_LAMBDAS[lam])
    tree = build_tree(params, 7)
    obstacle = Obstacle.from_payoff(tree, put(105.0))
    calls = []
    drivers = [_recording(make_driver(kind, params), tree, calls)
               for kind in ("borrow_lend", "perfect")]
    sides = [(side, (obstacle if side == "lower" else negated(obstacle)).rows,
              drivers[1] if h == 2 else drivers[0]) for h, side in enumerate(kinds)]
    for solution in backward_sweep(tree, sides):
        assert not isinstance(solution, Exception)
    swept = sorted(calls)
    calls.clear()
    row_by_row_sweep(tree, sides)
    assert swept == sorted(calls) and len({name for name, *_ in swept}) == 1 + (len(kinds) == 3)


def test_only_the_third_sides_driver_diverges():
    # Picard on y = e - 12.5 y cycles: the third side alone fails, and the first
    # two come out as they do on their own.
    params = row_test_params("lam_drop")
    tree = build_tree(params, 4)  # dt = 0.25
    obstacle = Obstacle.from_payoff(tree, put(105.0))
    driver = row_test_driver("borrow_lend", params)
    diverging = Driver(name="diverging", eval=lambda t, y, z, k, s: -50.0 * y,
                       lipschitz_C=50.0)
    sides = [("lower", obstacle.rows, driver), ("upper", negated(obstacle).rows, driver),
             ("lower", obstacle.rows, diverging)]
    alone = backward_sweep(tree, sides[2:])[0]
    assert type(alone) is ConvergenceError
    *solutions, error = backward_sweep(tree, sides)
    assert type(error) is ConvergenceError and str(error) == str(alone)
    with pytest.raises(ConvergenceError, match=f"^{re.escape(str(alone))}$"):
        solved(error)
    for solution, side in zip(solutions, sides, strict=False):
        own = backward_sweep(tree, [side])[0]
        assert _rows_bits(solution) == _rows_bits(own) and solution.stats == own.stats


def test_a_failing_step_is_solved_again_a_row_at_a_time():
    # The defaulted row's driver raises on its first call and the alive row's Picard
    # cycles: in one loop the defaulted row's error comes first, but the error raised
    # is the alive row's, the first row of the step, as a row at a time gives it.
    def g(t, y, z, k, state):
        if state.defaulted:
            raise ValueError("defaulted row")
        return -50.0 * y

    tree = build_tree(row_test_params("const"), 4)
    obstacle = Obstacle.from_payoff(tree, put(105.0))
    driver = Driver(name="alive cycles", eval=g, lipschitz_C=50.0)
    with pytest.raises(ConvergenceError, match=r"at node \(3, \d+, 0\) \(t=0\.75, "):
        solve_rbsde_lower(tree, driver, obstacle)


@pytest.mark.parametrize("kind", ["perfect", "borrow_lend", "large_trader_alpha"])
def test_a_replaced_eval_is_the_one_the_solvers_call(kind):
    # A split form belongs to the eval that carries it: replacing eval drops it,
    # so the solvers call the new eval on each iterate, with the same results.
    params = row_test_params("lam_drop")
    driver = row_test_driver(kind, params)
    tree = build_tree(params, 6)
    obstacle = Obstacle.from_payoff(tree, random_payoff(np.random.default_rng(5)))
    calls = []

    def counted(t, y, z, k, state):
        calls.append(np.size(y))
        return driver.eval(t, y, z, k, state)

    replaced = dataclasses.replace(driver, eval=counted)
    assert not hasattr(replaced.eval, "split")
    for solve in (lambda d: solve_reflected(tree, d, [(obstacle, "lower"),
                                                      (negated(obstacle), "upper")]),
                  lambda d: [solve_rbsde_lower(tree, d, obstacle)]):
        calls.clear()
        got = solve(replaced)
        assert calls
        for sol, ref in zip(got, solve(driver), strict=True):
            assert sol.stats == ref.stats and sum(calls) >= sol.stats.driver_evals
            for name in ("y_rows", "z_rows", "k_rows", "da_rows"):
                assert getattr(sol, name).tobytes() == getattr(ref, name).tobytes()
    calls.clear()
    state = tree.nodes[(2, 1, 0)]
    got = implicit_value(replaced, state, tree.dt, 1.5, 0.3, -0.2)
    assert calls and float_bits(got) == float_bits(implicit_value(driver, state, tree.dt, 1.5,
                                                                  0.3, -0.2))


@pytest.mark.parametrize("kind", ["borrow_lend", "large_trader_alpha"])
def test_solve_stats_match_scalar_counts(kind):
    assert_stats_match_scalar_counts(kind, "lower")


@pytest.mark.parametrize("kind", ["borrow_lend", "large_trader_alpha"])
def test_upper_solve_stats_match_scalar_counts(kind):
    assert_stats_match_scalar_counts(kind, "upper")
