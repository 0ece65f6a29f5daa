"""Independent references on the node views: the scalar backward step and its
E^g evaluations, stopping-rule search, a binomial pricer and a stability check.

The scalar step walks node dicts and shares only ``bsde.coefficients`` with
the row sweep, so agreement is evidence, not tautology; ``solve_bsde`` and
``apriori_estimate_check`` run the sweep itself. The rule enumeration
doubles exponentially in the number of steps, hence the hard guard on tree
depth (4209 rules on a 4-step tree with default). The enumeration below a
frontier (the reached nodes of one level) depends on that frontier alone, so
the rules' values are built as one table per distinct frontier: its values
under each of its sub-rules, in enumeration order, from the table of each
set of children that it continues to. Each distinct (node, child values) is
stepped once with the scalar ``one_step`` and shared; nodes a rule never
reaches are never visited. The stability estimate walks the tree once
backward (driver gap, conditional sums) and once forward (pointwise bound,
reach probabilities, norms).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Iterator, Mapping

from .bsde import (PICARD_MAX_ITER, PICARD_TOL, ConvergenceError, Solution, backward_sweep,
                   coefficients)
from .drivers import Driver, split_of
from .market import MarketParams, NodeId, NodeState, Tree, is_finite_number
from .rbsde import Obstacle, StoppingRule, solve_rbsde_lower

MAX_ENUM_STEPS = 4
DUALITY_TOL = 1e-12  # largest |u0 - enumerated value| that passes
# Largest violation of a stability bound that still passes (rounding of the sums).
APRIORI_TOL = 1e-10


def implicit_value(driver: Driver, state: NodeState, dt: float, e: float,
                   z: float, k: float) -> float:
    """Solve y = e + g(t, y, z, k) * dt by Picard iteration.

    The stopping test is scale aware (PICARD_TOL * (1 + |y|)): below one unit in
    the last place an absolute test can alternate between adjacent floats
    forever at large value scales.
    """
    t = state.t
    g = split_of(driver)(t, z, k, state)
    y = e
    for _ in range(PICARD_MAX_ITER):
        y_new = e + g(y) * dt
        if abs(y_new - y) <= PICARD_TOL * (1.0 + abs(y_new)):
            return y_new
        y = y_new
    raise ConvergenceError(
        f"implicit step did not converge in {PICARD_MAX_ITER} iterations at t={t:.6g}; "
        "the time step is too large for the driver's Lipschitz constant")


def one_step(tree: Tree, driver: Driver, node: NodeId, values: Mapping) -> tuple:
    """One backward step from child values; returns (y, z, k)."""
    branches = tree.branches[node]
    child_values = [values[b.child] for b in branches]
    e, z, k = coefficients(branches, child_values, tree.sq)
    y = implicit_value(driver, tree.nodes[node], tree.dt, e, z, k)
    return y, z, k


def _values_on(source, nodes: Iterable) -> dict:
    """Node -> value dict of a mapping, or of an object's ``values`` mapping."""
    values = source if isinstance(source, Mapping) else getattr(source, "values", None)
    if not isinstance(values, Mapping):
        raise TypeError(f"cannot read node values from {type(source).__name__}")
    out = {}
    for node in nodes:
        if node not in values:
            raise ValueError(f"value missing at node {node}")
        out[node] = float(values[node])
    return out


def solve_bsde(tree: Tree, driver: Driver, terminal) -> Solution:
    """Backward solve with a terminal condition and no reflection.

    ``terminal`` maps terminal nodes to values (a dict, or any object with a
    ``values`` mapping covering the last level).
    """
    values = _values_on(terminal, tree.terminal_nodes())
    return backward_sweep(tree, driver, [("bsde", [tree.level_rows(values, tree.n_steps)])])[0]


def g_evaluation(tree: Tree, driver: Driver, rule, payoff) -> float:
    """Root value of the payoff collected at an adapted stopping rule.

    The rule is a per-node boolean flag (anything with a ``stop`` mapping,
    or the mapping itself); adaptedness is structural since flags are
    functions of the node alone. Every terminal node must be flagged.
    At stopped nodes the value is the payoff; elsewhere it is the backward
    step through the children.
    """
    pay = _values_on(payoff, tree.nodes)
    stops = getattr(rule, "stop", rule)
    for node in tree.terminal_nodes():
        if not stops.get(node, False):
            raise ValueError(f"stopping rule must stop at terminal node {node}")
    w = {}
    for level in reversed(tree.levels):
        for node in level:
            if node not in stops:
                raise ValueError(f"stopping rule undefined at node {node}")
            w[node] = pay[node] if stops[node] else one_step(tree, driver, node, w)[0]
    return w[tree.root]


def martingale_check(tree: Tree, driver: Driver, process: Mapping) -> float:
    """Largest one-step self-consistency residual of a per-node process.

    For each non-terminal node, the process value is compared with the
    backward step applied to its child values; a process that solves the
    backward equation returns a residual at solver tolerance.
    """
    worst = 0.0
    for level in tree.levels[:-1]:
        for node in level:
            y, _, _ = one_step(tree, driver, node, process)
            worst = max(worst, abs(process[node] - y))
    return worst


def enumerate_stopping_rules(tree: Tree) -> Iterator[StoppingRule]:
    """Yield every adapted absorbing rule on the tree exactly once.

    A rule is a function of the node alone; enumeration walks the reachable
    frontier level by level, choosing at each frontier the subset of nodes
    that stop now. Terminal nodes always stop; flags on nodes that a rule
    never reaches are filled with True and carry no meaning.
    """
    for stop in _stop_flags(tree):
        yield StoppingRule(tree, [tuple(row != 0.0 for row in tree.level_rows(stop, i))
                                  for i in range(tree.n_steps + 1)])


def _require_depth(tree: Tree) -> None:
    if tree.n_steps > MAX_ENUM_STEPS:
        raise ValueError(
            f"stopping-rule enumeration is limited to {MAX_ENUM_STEPS} steps "
            f"(got {tree.n_steps}); the rule count grows doubly exponentially")


def _stop_flags(tree: Tree) -> Iterator[dict]:
    """The node -> flag dicts of ``enumerate_stopping_rules``, in its order;
    the depth guard raises on the call, before any rule is read."""
    _require_depth(tree)
    filler = {node: True for node in tree.nodes}

    def recurse(level, frontier, flags):
        if level == tree.n_steps or not frontier:
            yield {**filler, **flags}
            return
        for mask in range(1 << len(frontier)):
            stop = {node: bool(mask & (1 << idx)) for idx, node in enumerate(frontier)}
            children = dict.fromkeys(b.child for node in frontier if not stop[node]
                                     for b in tree.branches[node])
            yield from recurse(level + 1, list(children), {**flags, **stop})

    return recurse(0, [tree.root], {})


def rule_values(tree: Tree, driver: Driver, obstacle: Obstacle) -> list:
    """Root value of every enumerated stopping rule, in enumeration order, equal
    bit for bit to one ``g_evaluation`` per rule of ``_stop_flags``. The tables
    meet new steps in another order than that walk, so on an error the rules
    are walked one at a time and the first error of that walk is raised."""
    _require_depth(tree)
    try:
        return _frontier_tables(tree, driver, obstacle)
    except Exception:
        for stop in _stop_flags(tree):
            g_evaluation(tree, driver, stop, obstacle)
        raise


def _frontier_tables(tree: Tree, driver: Driver, obstacle: Obstacle) -> list:
    """The root's column of the root frontier's table. A frontier's table holds
    one column per node: its values under each of the frontier's sub-rules, in
    ``_stop_flags`` order. Per subset that stops, a node that stops holds its
    payoff, and a node that goes on holds its column over the table of the
    next frontier (the children of the nodes that go on). Such a column
    depends on the node and the set that goes on alone, so frontiers share
    it. Each distinct (node, packed child bits) is stepped once; the bits
    keep -0.0 apart from 0.0."""
    pay = _values_on(obstacle, tree.nodes)
    packers = {m: struct.Struct(f"{m}d").pack for m in (2, 3)}  # up, down[, default]
    stepped, belows, columns, tables = {}, {}, {}, {}

    def below(go: tuple) -> tuple:
        if go not in belows:
            belows[go] = tuple(dict.fromkeys(b.child for node in go for b in tree.branches[node]))
        return belows[go]

    def column(node, go: tuple) -> list:
        if (node, go) not in columns:
            children = [b.child for b in tree.branches[node]]
            frontier, pack, out = below(go), packers[len(children)], []
            sub = table(frontier)
            for values in zip(*[sub[frontier.index(child)] for child in children]):
                key = node, pack(*values)
                if key not in stepped:
                    stepped[key], _, _ = one_step(tree, driver, node, dict(zip(children, values)))
                out.append(stepped[key])
            columns[node, go] = out
        return columns[node, go]

    def table(frontier: tuple) -> list:
        if frontier in tables:
            return tables[frontier]
        if frontier[0][0] == tree.n_steps:  # terminal nodes always stop
            cols = [[pay[node]] for node in frontier]
        else:
            cols = [[] for _ in frontier]
            for mask in range(1 << len(frontier)):
                stops = [mask >> idx & 1 for idx in range(len(frontier))]
                go = tuple(node for node, stop in zip(frontier, stops) if not stop)
                size = len(column(go[0], go)) if go else 1  # sub-rules below ``go``
                for col, node, stop in zip(cols, frontier, stops):
                    col += repeat(pay[node], size) if stop else column(node, go)
        tables[frontier] = cols
        return cols

    try:
        return table((tree.root,))[0]
    finally:  # the nested functions hold themselves in a cycle: free the tables now
        for cache in (stepped, belows, columns, tables):
            cache.clear()


def brute_force_seller_value(tree: Tree, driver: Driver, obstacle: Obstacle) -> float:
    """Best root value over every enumerated stopping rule (``rule_values``);
    the first strict maximum wins."""
    best = -math.inf
    for value in rule_values(tree, driver, obstacle):
        if value > best:
            best = value
    return best


def crr_american_oracle(params: MarketParams, payoff: Callable, n_steps: int) -> float:
    """Risk-neutral binomial American value on the same multiplicative grid.

    Requires a zero intensity everywhere (no default branch). Backward
    induction with the one-period risk-neutral weight
    q = ((1 + r dt) - d) / (u - d) and discounting by 1 + r dt; the price
    arrays follow the same canonical edge recursion as the lattice builder
    so both routes see identical grids. ``payoff`` has the usual signature
    (t, s1, s2, defaulted).
    """
    if any(v != 0.0 for v in params.lam.values):
        raise ValueError("the binomial oracle requires a zero default intensity")
    if not (is_finite_number(n_steps) and int(n_steps) == n_steps >= 1):
        raise ValueError("n_steps must be a positive integer")
    n_steps = int(n_steps)
    dt = params.T / n_steps
    sq = math.sqrt(dt)

    prices = [([params.s1_0], [params.s2_0])]  # (s1, s2) of each level
    steps = []  # (q, growth) of each step
    for i in range(n_steps):
        c = params.at(i * dt)
        up1, dn1 = 1.0 + c.mu1 * dt + c.sigma1 * sq, 1.0 + c.mu1 * dt - c.sigma1 * sq
        up2, dn2 = 1.0 + c.mu2 * dt + c.sigma2 * sq, 1.0 + c.mu2 * dt - c.sigma2 * sq
        growth = 1.0 + c.r * dt
        q = (growth - dn1) / (up1 - dn1)
        if not 0.0 < q < 1.0:
            raise ValueError(f"risk-neutral weight {q:.6g} outside (0, 1) at step {i}")
        steps.append((q, growth))
        s1, s2 = prices[-1]
        prices.append(([s1[0] * dn1] + [x * up1 for x in s1],
                       [s2[0] * dn2] + [x * up2 for x in s2]))

    values = [payoff(params.T, x1, x2, False) for x1, x2 in zip(*prices[-1])]
    for i, (q, growth) in reversed(list(enumerate(steps))):
        t = i * dt
        values = [max(payoff(t, x1, x2, False),
                      (q * values[j + 1] + (1.0 - q) * values[j]) / growth)
                  for j, x1, x2 in zip(range(i + 1), *prices[i])]
    return values[0]


@dataclass
class AprioriReport:
    """Outcome of the stability-estimate check for a pair of drivers."""

    eta: float
    beta: float
    max_pointwise_violation: float
    y_norm_lhs: float
    y_norm_rhs: float
    y_norm_violation: float
    zk_norm_lhs: float = None
    zk_norm_rhs: float = None
    zk_norm_violation: float = None

    def passed(self) -> bool:
        return all(v is None or v <= APRIORI_TOL for v in (
            self.max_pointwise_violation, self.y_norm_violation, self.zk_norm_violation))


def apriori_estimate_check(tree: Tree, driver1: Driver, driver2: Driver,
                           obstacle: Obstacle, eta: float, beta: float) -> AprioriReport:
    """``apriori_estimate`` for the lower-reflected solves under two drivers."""
    return apriori_estimate(solve_rbsde_lower(tree, driver1, obstacle),
                            solve_rbsde_lower(tree, driver2, obstacle), eta, beta)


def apriori_estimate(sol1: Solution, sol2: Solution, eta: float,
                     beta: float) -> AprioriReport:
    """Numerically verify the weighted stability estimate for two solves.

    Both lower-reflected solutions share the tree and the obstacle, each
    under the driver it carries. With C the first driver's declared
    constant, the hypotheses eta <= 1 / C^2 and beta >= 3 / eta + 2 C are
    enforced, and exp(beta T) must be a float. Writing fbar for the driver
    gap evaluated along the second solution, the pointwise bound

        exp(beta t) (Y1 - Y2)^2 <= eta * E[ sum exp(beta s) fbar(s)^2 dt | node ]

    is checked at every node with the exact conditional sums of the tree,
    and the squared-norm bounds on Y1 - Y2 (factor T eta) and, when
    eta < 1 / C^2, on the (z, k) gaps (factor eta / (1 - eta C^2)) are
    checked with the exact node-reach probabilities. Reported violations
    are clipped at zero.
    """
    tree, driver1, driver2 = sol1.tree, sol1.driver, sol2.driver
    c = driver1.lipschitz_C
    if eta <= 0.0 or beta <= 0.0:
        raise ValueError("eta and beta must be positive")
    if c > 0.0 and eta > 1.0 / (c * c):
        raise ValueError(f"eta = {eta:.6g} violates eta <= 1/C^2 = {1.0 / (c * c):.6g}")
    if beta < 3.0 / eta + 2.0 * c:
        raise ValueError(f"beta = {beta:.6g} violates beta >= 3/eta + 2C = "
                         f"{3.0 / eta + 2.0 * c:.6g}")
    try:
        math.exp(beta * tree.time(tree.n_steps))
    except OverflowError:
        raise ValueError(f"beta = {beta:.6g} overflows exp(beta t) on [0, {tree.params.T:.6g}] "
                         f"(the driver's lipschitz_C = {c:.6g})") from None

    dt, y1, z1, k1, y2, z2, k2 = tree.dt, sol1.y, sol1.z, sol1.k, sol2.y, sol2.z, sol2.k
    # fbar^2, and the conditional sums of exp(beta s) fbar^2 dt from each node to the end.
    fbar2 = {}
    rhs = dict.fromkeys(tree.terminal_nodes(), 0.0)
    for level in reversed(tree.levels[:-1]):
        for node in level:
            t = tree.time(node[0])
            args = y2[node], z2[node], k2[node], tree.nodes[node]
            fbar2[node] = (driver1.eval(t, *args) - driver2.eval(t, *args)) ** 2
            rhs[node] = (math.exp(beta * t) * fbar2[node] * dt
                         + sum(b.prob * rhs[b.child] for b in tree.branches[node]))

    max_violation = y_norm = f_norm = zk_norm = 0.0
    prob = {tree.root: 1.0}
    for level in tree.levels:
        for node in level:
            weight = math.exp(beta * tree.time(node[0]))
            dy2 = (y1[node] - y2[node]) ** 2
            max_violation = max(max_violation, weight * dy2 - eta * rhs[node])
            if node[0] < tree.n_steps:
                w = prob[node] * weight * dt
                y_norm += w * dy2
                f_norm += w * fbar2[node]
                zk_norm += w * ((z1[node] - z2[node]) ** 2
                                + tree.nodes[node].lam * (k1[node] - k2[node]) ** 2)
                for b in tree.branches[node]:
                    prob[b.child] = prob.get(b.child, 0.0) + prob[node] * b.prob

    y_rhs = tree.params.T * eta * f_norm
    zk = {}
    if c == 0.0 or eta < 1.0 / (c * c):
        zk_rhs = eta / (1.0 - eta * c * c) * f_norm
        zk = dict(zk_norm_lhs=zk_norm, zk_norm_rhs=zk_rhs,
                  zk_norm_violation=max(0.0, zk_norm - zk_rhs))
    return AprioriReport(eta=eta, beta=beta, max_pointwise_violation=max(0.0, max_violation),
                         y_norm_lhs=y_norm, y_norm_rhs=y_rhs,
                         y_norm_violation=max(0.0, y_norm - y_rhs), **zk)
