import numpy as np
import pytest

from amhedge.bsde import ConvergenceError
from amhedge.drivers import Driver, perfect_driver
from amhedge.market import MarketParams, build_tree
from amhedge.oracle import g_evaluation, martingale_check, solve_bsde
from helpers import make_instance

ZERO = Driver(name="zero", eval=lambda t, y, z, k, s: 0.0, lipschitz_C=0.0)


def flat_params(**overrides):
    base = dict(r=0.05, mu1=0.05, mu2=0.0, sigma1=0.2, sigma2=0.3, lam=0.3,
                s1_0=100.0, s2_0=90.0, T=1.0)
    base.update(overrides)
    return MarketParams(**base)


def expectation_by_paths(tree, terminal):
    """Exhaustive path enumeration of the terminal expectation."""
    total = 0.0
    stack = [(tree.root, 1.0)]
    while stack:
        node, prob = stack.pop()
        if tree.is_terminal(node):
            total += prob * terminal[node]
        else:
            for b in tree.branches[node]:
                stack.append((b.child, prob * b.prob))
    return total


def stop_everywhere_at(tree, step):
    return {node: node[0] >= step for node in tree.nodes}


class TestSolveBsde:
    def test_zero_driver_is_plain_expectation(self):
        tree = build_tree(flat_params(lam=0.4), 3)
        rng = np.random.default_rng(7)
        terminal = {node: float(rng.uniform(-5, 5)) for node in tree.terminal_nodes()}
        sol = solve_bsde(tree, ZERO, terminal)
        assert sol.root_value == pytest.approx(
            expectation_by_paths(tree, terminal), rel=1e-12, abs=1e-12)

    def test_pure_discounting(self):
        # g = -r y discounts a constant terminal value step by step.
        params = flat_params(r=0.04, mu1=0.04, lam=0.0)
        tree = build_tree(params, 5)
        g = perfect_driver(params)
        sol = solve_bsde(tree, g, {node: 10.0 for node in tree.terminal_nodes()})
        expected = 10.0 / (1.0 + 0.04 * tree.dt) ** 5
        assert sol.root_value == pytest.approx(expected, rel=1e-12)

    def test_zero_terminal_zero_everything(self):
        tree = build_tree(flat_params(), 4)
        sol = solve_bsde(tree, ZERO, {node: 0.0 for node in tree.terminal_nodes()})
        below = range(tree.n_steps)
        assert all(v == 0.0 for v in tree.node_dict(sol.y_rows).values())
        assert all(v == 0.0 for v in tree.node_dict(sol.z_rows, below).values())
        assert all(v == 0.0 for v in tree.node_dict(sol.k_rows, below).values())

    def test_comparison_in_terminal_condition(self):
        rng = np.random.default_rng(11)
        inst = make_instance(rng, "borrow_lend", 4)
        tree = inst.tree
        t1 = {node: float(rng.uniform(-5, 5)) for node in tree.terminal_nodes()}
        t2 = {node: t1[node] + float(rng.uniform(0, 3)) for node in t1}
        y1, y2 = (tree.node_dict(solve_bsde(tree, inst.driver, t).y_rows) for t in (t1, t2))
        assert all(y1[node] <= y2[node] + 1e-12 for node in y1)

    def test_flow_property_exact(self):
        params = flat_params(lam=0.25, T=1.0)
        g = perfect_driver(params)
        tree = build_tree(params, 4)
        rng = np.random.default_rng(3)
        terminal = {node: float(rng.uniform(0, 8)) for node in tree.terminal_nodes()}
        full = solve_bsde(tree, g, terminal)
        # restart from the level-2 values on the matching shorter horizon
        split = 2
        params_short = flat_params(lam=0.25, T=split * tree.dt)
        tree_short = build_tree(params_short, split)
        y = tree.node_dict(full.y_rows)
        mid = {node: y[node] for node in tree_short.terminal_nodes()}
        g_short = perfect_driver(params_short)
        restarted = solve_bsde(tree_short, g_short, mid)
        assert restarted.root_value == full.root_value

    def test_linearity_for_perfect_driver(self):
        params = flat_params(lam=0.3)
        g = perfect_driver(params)
        tree = build_tree(params, 3)
        rng = np.random.default_rng(5)
        t1 = {node: float(rng.uniform(-4, 4)) for node in tree.terminal_nodes()}
        t2 = {node: float(rng.uniform(-4, 4)) for node in tree.terminal_nodes()}
        a, b = 1.7, -0.6
        combo = {node: a * t1[node] + b * t2[node] for node in t1}
        lhs = solve_bsde(tree, g, combo).root_value
        rhs = (a * solve_bsde(tree, g, t1).root_value
               + b * solve_bsde(tree, g, t2).root_value)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_missing_terminal_value_rejected(self):
        tree = build_tree(flat_params(), 2)
        with pytest.raises(ValueError, match="missing"):
            solve_bsde(tree, ZERO, {tree.terminal_nodes()[0]: 1.0})

    def test_divergent_implicit_step_raises(self):
        tree = build_tree(flat_params(lam=0.0, T=1.0), 2)  # dt = 0.5
        stiff = Driver(name="stiff", eval=lambda t, y, z, k, s: -50.0 * y,
                       lipschitz_C=50.0)
        with pytest.raises(ConvergenceError):
            solve_bsde(tree, stiff, {node: 1.0 for node in tree.terminal_nodes()})


class TestGEvaluation:
    def test_stop_at_terminal_equals_plain_solve(self):
        rng = np.random.default_rng(23)
        inst = make_instance(rng, "perfect", 3)
        tree = inst.tree
        value = g_evaluation(tree, inst.driver, stop_everywhere_at(tree, tree.n_steps),
                             inst.obstacle)
        xi = tree.node_dict(inst.obstacle.rows)
        terminal = {node: xi[node] for node in tree.terminal_nodes()}
        assert value == solve_bsde(tree, inst.driver, terminal).root_value

    def test_stop_at_root_returns_root_payoff(self):
        rng = np.random.default_rng(29)
        inst = make_instance(rng, "borrow_lend", 3)
        value = g_evaluation(inst.tree, inst.driver,
                             stop_everywhere_at(inst.tree, 0), inst.obstacle)
        assert value == inst.obstacle.rows[0]  # the root's payoff

    def test_two_step_mixture_by_hand(self):
        params = flat_params(lam=0.0, T=1.0)
        tree = build_tree(params, 2)
        rng = np.random.default_rng(31)
        pay = {node: float(rng.uniform(0, 10)) for node in tree.nodes}
        # stop at step 1 only on the up node
        stop = {node: tree.is_terminal(node) for node in tree.nodes}
        stop[(1, 1, 0)] = True
        value = g_evaluation(tree, ZERO, stop, pay)
        down_cont = 0.5 * (pay[(2, 1, 0)] + pay[(2, 0, 0)])
        expected = 0.5 * pay[(1, 1, 0)] + 0.5 * down_cont
        assert value == pytest.approx(expected, rel=1e-14)

    def test_rule_not_stopping_at_terminal_rejected(self):
        tree = build_tree(flat_params(), 2)
        rule = {node: False for node in tree.nodes}
        with pytest.raises(ValueError, match="terminal"):
            g_evaluation(tree, ZERO, rule, {node: 0.0 for node in tree.nodes})

    def test_payoff_without_node_values_rejected(self):
        tree = build_tree(flat_params(), 2)
        rule = {node: True for node in tree.nodes}
        with pytest.raises(TypeError, match="^cannot read node values from float$"):
            g_evaluation(tree, ZERO, rule, 3.0)

    def test_rule_missing_flags_rejected(self):
        tree = build_tree(flat_params(), 2)
        rule = {node: True for node in tree.terminal_nodes()}
        with pytest.raises(ValueError, match="undefined"):
            g_evaluation(tree, ZERO, rule, {node: 0.0 for node in tree.nodes})


class TestOneStepRepresentation:
    def test_coefficients_reconstruct_child_values(self):
        # the square system e + z dW + k dM = child value is solved exactly
        from amhedge.bsde import coefficients
        tree = build_tree(flat_params(lam=0.35), 3)
        rng = np.random.default_rng(47)
        values = {node: float(rng.uniform(-10, 10)) for node in tree.nodes}
        for node in tree.branches:
            branches = tree.branches[node]
            child_vals = [values[b.child] for b in branches]
            e, z, k = coefficients(branches, child_vals, tree.sq)
            for b, f in zip(branches, child_vals):
                rebuilt = e + z * b.dw + k * b.dm
                assert rebuilt == pytest.approx(f, rel=1e-12, abs=1e-12)
            if len(branches) == 2:
                assert k == 0.0


class TestMartingaleCheck:
    def test_solution_has_tiny_residual(self):
        rng = np.random.default_rng(41)
        inst = make_instance(rng, "borrow_lend", 4)
        xi = inst.tree.node_dict(inst.obstacle.rows)
        terminal = {node: xi[node] for node in inst.tree.terminal_nodes()}
        sol = solve_bsde(inst.tree, inst.driver, terminal)
        assert martingale_check(inst.tree, inst.driver, inst.tree.node_dict(sol.y_rows)) <= 1e-12

    def test_perturbation_is_detected(self):
        params = flat_params(lam=0.2)
        tree = build_tree(params, 3)
        g = perfect_driver(params)
        sol = solve_bsde(tree, g, {node: 5.0 for node in tree.terminal_nodes()})
        eps = 0.01
        bumped = tree.node_dict(sol.y_rows)
        bumped[(1, 0, 0)] += eps
        residual = martingale_check(tree, g, bumped)
        assert residual >= eps * (1.0 - g.lipschitz_C * tree.dt)

    def test_conditional_expectation_tree_for_zero_driver(self):
        tree = build_tree(flat_params(lam=0.35), 4)
        rng = np.random.default_rng(43)
        values = {node: float(rng.uniform(-2, 2)) for node in tree.terminal_nodes()}
        for level in reversed(tree.levels[:-1]):
            for node in level:
                values[node] = sum(b.prob * values[b.child]
                                   for b in tree.branches[node])
        assert martingale_check(tree, ZERO, values) <= 1e-13
