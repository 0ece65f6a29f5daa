"""Independent references: exhaustive stopping-rule search, a classical
binomial American pricer, and a numerical stability-estimate check.

Everything here deliberately avoids the reflected solvers so that
agreement between the two routes is evidence, not tautology. The rule
enumeration doubles exponentially in the number of steps, hence the hard
guard on tree depth (4209 rules on a 4-step tree with default); the
scalar g-evaluation of every rule runs as one walk that steps each
distinct (node, child values) once and shares it between rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

# g_evaluation stays a name of this module: the benchmark's tracer wraps it here.
from .bsde import Solution, g_evaluation, g_evaluations  # noqa: F401
from .drivers import Driver
from .market import MarketParams, Tree
from .pricing import StoppingRule
from .rbsde import Obstacle, solve_rbsde_lower

MAX_ENUM_STEPS = 4
DUALITY_TOL = 1e-12  # largest |u0 - enumerated value| that passes
# Largest violation of a stability bound that still passes (rounding of the sums).
APRIORI_TOL = 1e-10


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


def _stop_flags(tree: Tree) -> Iterator[dict]:
    """The node -> flag dicts of ``enumerate_stopping_rules``, in its order;
    the depth guard raises on the call, before any rule is read."""
    if tree.n_steps > MAX_ENUM_STEPS:
        raise ValueError(
            f"stopping-rule enumeration is limited to {MAX_ENUM_STEPS} steps "
            f"(got {tree.n_steps}); the rule count grows doubly exponentially")

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


def brute_force_seller_value(tree: Tree, driver: Driver, obstacle: Obstacle) -> float:
    """Best root value over every enumerated stopping rule (read as flag dicts);
    the first strict maximum wins."""
    best = -math.inf
    for value in g_evaluations(tree, driver, _stop_flags(tree), obstacle):
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
    if int(n_steps) != n_steps or n_steps < 1:
        raise ValueError("n_steps must be a positive integer")
    n_steps = int(n_steps)
    dt = params.T / n_steps
    sq = math.sqrt(dt)

    s1 = [params.s1_0]
    s2 = [params.s2_0]
    levels_s1 = [s1]
    levels_s2 = [s2]
    qs = []
    discounts = []
    for i in range(n_steps):
        t = i * dt
        r_i = params.r.at(t)
        mu1_i = params.mu1.at(t)
        sig1_i = params.sigma1.at(t)
        mu2_i = params.mu2.at(t)
        sig2_i = params.sigma2.at(t)
        up1 = 1.0 + mu1_i * dt + sig1_i * sq
        dn1 = 1.0 + mu1_i * dt - sig1_i * sq
        up2 = 1.0 + mu2_i * dt + sig2_i * sq
        dn2 = 1.0 + mu2_i * dt - sig2_i * sq
        growth = 1.0 + r_i * dt
        q = (growth - dn1) / (up1 - dn1)
        if not 0.0 < q < 1.0:
            raise ValueError(f"risk-neutral weight {q:.6g} outside (0, 1) at step {i}")
        qs.append(q)
        discounts.append(growth)
        s1 = [s1[0] * dn1] + [s1[j] * up1 for j in range(i + 1)]
        s2 = [s2[0] * dn2] + [s2[j] * up2 for j in range(i + 1)]
        levels_s1.append(s1)
        levels_s2.append(s2)

    values = [payoff(params.T, levels_s1[n_steps][j], levels_s2[n_steps][j], False)
              for j in range(n_steps + 1)]
    for i in range(n_steps - 1, -1, -1):
        t = i * dt
        q = qs[i]
        growth = discounts[i]
        values = [
            max(payoff(t, levels_s1[i][j], levels_s2[i][j], False),
                (q * values[j + 1] + (1.0 - q) * values[j]) / growth)
            for j in range(i + 1)
        ]
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
        checks = [self.max_pointwise_violation, self.y_norm_violation]
        if self.zk_norm_violation is not None:
            checks.append(self.zk_norm_violation)
        return all(v <= APRIORI_TOL for v in checks)


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
    enforced. Writing fbar for the driver gap evaluated along the second
    solution, the pointwise bound

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

    dt = tree.dt

    fbar = {}
    for level in tree.levels[:-1]:
        for node in level:
            t = tree.time(node[0])
            state = tree.state(node)
            y2, z2, k2 = sol2.y[node], sol2.z[node], sol2.k[node]
            fbar[node] = (driver1.eval(t, y2, z2, k2, state)
                          - driver2.eval(t, y2, z2, k2, state))

    # Conditional sums of exp(beta s) fbar^2 dt from each node to the end.
    rhs = {node: 0.0 for node in tree.terminal_nodes()}
    for level in reversed(tree.levels[:-1]):
        for node in level:
            w = math.exp(beta * tree.time(node[0])) * fbar[node] ** 2 * dt
            cond = sum(b.prob * rhs[b.child] for b in tree.branches[node])
            rhs[node] = w + cond

    max_violation = 0.0
    for node in tree.nodes:
        lhs = math.exp(beta * tree.time(node[0])) * (sol1.y[node] - sol2.y[node]) ** 2
        max_violation = max(max_violation, lhs - eta * rhs[node])

    prob = {tree.root: 1.0}
    for level in tree.levels[:-1]:
        for node in level:
            p = prob.get(node, 0.0)
            for b in tree.branches[node]:
                prob[b.child] = prob.get(b.child, 0.0) + p * b.prob

    y_norm = 0.0
    f_norm = 0.0
    zk_norm = 0.0
    for level in tree.levels[:-1]:
        for node in level:
            w = prob[node] * math.exp(beta * tree.time(node[0])) * dt
            y_norm += w * (sol1.y[node] - sol2.y[node]) ** 2
            f_norm += w * fbar[node] ** 2
            zbar = sol1.z[node] - sol2.z[node]
            kbar = sol1.k[node] - sol2.k[node]
            zk_norm += w * (zbar ** 2 + tree.nodes[node].lam * kbar ** 2)

    y_rhs = tree.params.T * eta * f_norm
    report = AprioriReport(eta=eta, beta=beta,
                           max_pointwise_violation=max(0.0, max_violation),
                           y_norm_lhs=y_norm, y_norm_rhs=y_rhs,
                           y_norm_violation=max(0.0, y_norm - y_rhs))
    if c == 0.0 or eta < 1.0 / (c * c):
        denom = 1.0 - eta * c * c
        zk_rhs = eta / denom * f_norm
        report.zk_norm_lhs = zk_norm
        report.zk_norm_rhs = zk_rhs
        report.zk_norm_violation = max(0.0, zk_norm - zk_rhs)
    return report
