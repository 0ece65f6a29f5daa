"""Shared random-instance generation for the test suite.

Instances are drawn inside stability margins so that the comparison-based
properties under test are actually in force: bounded market prices of
risk, jump-monotonicity ratio well above -1 out to the price scale,
moderate C * dt, and a directly verified monotone one-step map at the
solved values (rejection sampling otherwise).

The end of the file keeps the scalar references of the forward wealth
simulation, of the superhedge checks, of the obstacle, of the sampled
driver checks, of the eps-triggered exercise rule, of the rule
enumeration's best value, of the rationality check and of the stability
estimate (five walks, and the two-walk node walk), the row-by-row backward
sweep, the shipped generators' formulas as single functions of
(t, y, z, k, state), the node-dict document of ``tree.json`` and the
Black-Scholes call, a reference that does not share the lattice.
"""

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from amhedge.bsde import PICARD_MAX_ITER, PICARD_TOL, ConvergenceError, coefficients
from amhedge.drivers import (Driver, borrow_lend_driver, check_gamma_assumption,
                             gamma_rows, large_trader_driver, perfect_driver, split_of)
from amhedge.hedging import SUPERHEDGE_TOL, HedgeReport
from amhedge.market import (MarketParams, PiecewiseConstant, as_piecewise, build_tree,
                            node_key)
from amhedge.oracle import AprioriReport, _stop_flags, g_evaluation, implicit_value, one_step
from amhedge.payoffs import call, payoff_from_config, put
from amhedge.pricing import A_ZERO_TOL, EQUALITY_RTOL, RationalityReport, phi_inverse
from amhedge.rbsde import Obstacle, solve_rbsde_lower, solve_rbsde_upper

DRIVER_KINDS = ("perfect", "borrow_lend", "large_trader")

WEIGHT_MARGIN = 1e-3


@dataclass
class Instance:
    kind: str
    params: MarketParams
    tree: object
    driver: Driver
    obstacle: Obstacle


def at_times(params: MarketParams, times) -> list:
    """The ``(t, Coefs)`` sample steps of the driver checks at given times."""
    return [(t, params.at(t)) for t in times]


def eight_steps(params: MarketParams) -> list:
    """The sample steps of the driver checks at eight evenly spaced times."""
    return at_times(params, [params.T * i / 8 for i in range(8)])


def random_params(rng, lam=None, T=None) -> MarketParams:
    while True:
        r = rng.uniform(0.0, 0.08)
        mu1 = rng.uniform(-0.05, 0.12)
        sigma1 = rng.uniform(0.15, 0.35)
        mu2 = rng.uniform(-0.15, 0.08)
        sigma2 = rng.uniform(0.10, 0.35)
        lam_v = float(rng.uniform(0.05, 0.5)) if lam is None else float(lam)
        T_v = float(rng.uniform(0.5, 1.25)) if T is None else float(T)
        th1 = (mu1 - r) / sigma1
        if abs(th1) > 0.9:
            continue
        if lam_v > 0.0:
            th2 = (sigma2 * th1 - mu2 + r) / lam_v
            if not -2.0 < th2 < 0.8:
                continue
        return MarketParams(r=r, mu1=mu1, mu2=mu2, sigma1=sigma1, sigma2=sigma2,
                            lam=lam_v, s1_0=float(rng.uniform(80, 120)),
                            s2_0=float(rng.uniform(60, 110)), T=T_v)


def random_payoff(rng):
    """Mixed put on the first asset plus a slice of the second."""
    a = rng.uniform(0.5, 1.5)
    k1 = rng.uniform(85, 115)
    b = rng.uniform(0.0, 0.3)
    c = rng.uniform(0.0, 3.0)

    def payoff(t, s1, s2, defaulted):
        return a * max(k1 - s1, 0.0) + b * s2 + (c if defaulted else 0.0)

    return payoff


def call_payoff(rng):
    k1 = rng.uniform(90, 110)

    def payoff(t, s1, s2, defaulted):
        return max(s1 - k1, 0.0)

    return payoff


def style_params(style: str, r: float, sigma1: float) -> MarketParams:
    """A market of the differential tests: constant coefficients with an
    intensity of 0.2 ("const") or 0 ("lam_zero"), piecewise r and sigma1
    with an intensity dropping from 0.2 to 0 at t = 0.5 ("piecewise"), or
    constant coefficients but an intensity rising from 0 to 0.2 at t = 0.5
    ("lam_rises")."""
    base = dict(r=0.05, mu1=0.05, mu2=0.0, sigma1=0.2, sigma2=0.3, lam=0.0,
                s1_0=100.0, s2_0=90.0, T=1.0)
    if style == "lam_rises":
        return MarketParams(**dict(base, r=r, sigma1=sigma1,
                                   lam=PiecewiseConstant([0.0, 0.2], times=[0.0, 0.5])))
    if style == "piecewise":
        return MarketParams(**dict(base, r=PiecewiseConstant([r, r + 0.02], times=[0.0, 0.4]),
                                   sigma1=PiecewiseConstant([sigma1, 0.2], times=[0.0, 0.6]),
                                   lam=PiecewiseConstant([0.2, 0.0], times=[0.0, 0.5])))
    return MarketParams(**dict(base, r=r, sigma1=sigma1, lam=0.2 if style == "const" else 0.0))


def named_payoff(name: str, strike: float):
    """put, call or an ``expr`` payoff whose zeros carry the sign of S1 - strike."""
    expr = f"0 * (S1 - {strike!r}) + max(S1 - {strike!r}, 0) * defaulted"
    return {"put": lambda: put(strike), "call": lambda: call(strike),
            "expr": lambda: payoff_from_config({"kind": "expr", "expr": expr})}[name]()


def shifted_rate(params: MarketParams, spread: float) -> PiecewiseConstant:
    return PiecewiseConstant([v + spread for v in params.r.values],
                             list(params.r.times))


def make_driver(kind: str, params: MarketParams, rng=None, spread: float = 0.02) -> Driver:
    if kind == "perfect":
        return perfect_driver(params)
    if kind == "borrow_lend":
        return borrow_lend_driver(params, shifted_rate(params, spread))
    if kind == "large_trader":
        alpha = float(rng.uniform(0.0002, 0.001)) if rng is not None else 0.0005
        gamma_bar = float(rng.uniform(-0.3, 0.5)) if rng is not None else 0.3
        return large_trader_driver(params, alpha, gamma_bar)
    raise ValueError(kind)


def dict_rows(tree, values: dict, n_steps: int = None) -> np.ndarray:
    """The row-order array of a node dict, over every step or over the first
    ``n_steps`` (a strategy's: 0 on the rows past them); a boolean array for
    stop flags."""
    flags = all(isinstance(v, (bool, np.bool_)) for v in values.values())
    steps = tree.n_steps + 1 if n_steps is None else n_steps
    return np.array([values[node] if node[0] < steps else 0.0
                     for level in tree.levels for node in level], dtype=bool if flags else float)


def negated(obstacle: Obstacle) -> Obstacle:
    """The obstacle -xi of the buyer's upper-reflected solve."""
    return Obstacle(obstacle.tree, -obstacle.rows)


def assert_plain_stats(stats) -> None:
    """Every ``SolveStats`` field is an exact int or float (no numpy scalar),
    so the stats dump to JSON as they are."""
    assert [type(v) for v in dataclasses.astuple(stats)] == [int, int, float, int, int]
    json.dumps(dataclasses.asdict(stats))


def min_one_step_weight(tree, driver, values) -> float:
    """Smallest finite-difference sensitivity of the backward step to a
    child-value bump, over all nodes and branches; negative means the
    one-step map is not monotone at these values."""
    worst = float("inf")
    for level in tree.levels[:-1]:
        for node in level:
            base = {b.child: values[b.child] for b in tree.branches[node]}
            y0, _, _ = one_step(tree, driver, node, base)
            for b in tree.branches[node]:
                h = 1e-5 * (1.0 + abs(base[b.child]))
                bumped = dict(base)
                bumped[b.child] += h
                y1, _, _ = one_step(tree, driver, node, bumped)
                worst = min(worst, (y1 - y0) / h)
    return worst


def _monotone_at_solution(tree, driver, obstacle) -> bool:
    try:
        low = solve_rbsde_lower(tree, driver, obstacle)
        up = solve_rbsde_upper(tree, driver, negated(obstacle))
    except ConvergenceError:
        return False
    return (min_one_step_weight(tree, driver, low.y) > WEIGHT_MARGIN
            and min_one_step_weight(tree, driver, up.y) > WEIGHT_MARGIN)


def make_instance(rng, kind: str, n_steps: int, lam=None, T=None,
                  payoff_factory=random_payoff) -> Instance:
    while True:
        params = random_params(rng, lam=lam, T=T)
        driver = make_driver(kind, params, rng)
        tree = build_tree(params, n_steps)
        steps = [(tree.time(i), tree.coef[i]) for i in range(n_steps)]
        scale = 1.0 + max(abs(params.s1_0), abs(params.s2_0))
        points = (-scale, -1.0, 0.0, 1.0, scale)
        gamma = check_gamma_assumption(
            driver, gamma_rows(params, steps=steps, ys=points, zs=points, ks=points))
        if not gamma.passed:
            continue
        if gamma.n_samples and gamma.min_ratio <= -0.9:
            continue
        if kind != "large_trader" and driver.lipschitz_C * tree.dt >= 0.5:
            continue
        obstacle = Obstacle.from_payoff(tree, payoff_factory(rng))
        if not _monotone_at_solution(tree, driver, obstacle):
            continue
        return Instance(kind=kind, params=params, tree=tree, driver=driver,
                        obstacle=obstacle)


@functools.cache
def duality_instances() -> list:
    """21 instances: 2-4 steps, every shipped driver, random payoffs."""
    rng = np.random.default_rng(1001)
    instances = []
    for kind in DRIVER_KINDS:
        for n, lam in [(2, None), (2, None), (3, None), (3, None),
                       (3, None), (4, 0.0), (4, 0.0)]:
            instances.append(make_instance(rng, kind, n, lam=lam))
    return instances


# ---------------------------------------------------------------------------
# Scalar reference for the forward simulation and the superhedge checks: the
# per-path, per-node code that the level-array version in amhedge.hedging
# replaced, kept so the two can be compared bit for bit.
# ---------------------------------------------------------------------------

_KIND_LETTER = {"up": "u", "down": "d", "default": "j"}


@dataclass
class ScalarWealthField:
    """Per-step wealth states with parent links back to the root.

    ``levels[i]`` holds parallel lists: the node of each state, its wealth,
    the index of its parent state at step i - 1 and the branch index taken
    from that parent. In sampled mode each path occupies one slot per level.
    """

    tree: object
    x0: float
    mode: str  # "exact" | "sampled"
    node_ids: list
    v: list
    parent: list
    branch: list

    def n_states(self, level: int) -> int:
        return len(self.node_ids[level])

    def path_id(self, level: int, idx: int) -> str:
        """Branch-letter path into a state, e.g. 'udj'; sampled paths use their row."""
        if self.mode == "sampled":
            return str(idx)
        letters = []
        i, j = level, idx
        while i > 0:
            node = self.node_ids[i - 1][self.parent[i][j]]
            kind = self.tree.branches[node][self.branch[i][j]].kind
            letters.append(_KIND_LETTER[kind])
            i, j = i - 1, self.parent[i][j]
        return "".join(reversed(letters)) or "(root)"


def _node_exposures(tree, strategy, level: int) -> dict:
    params = tree.params
    t = tree.time(level)
    s1 = params.sigma1.at(t)
    s2 = params.sigma2.at(t)
    out = {}
    for node in tree.levels[level]:
        out[node] = phi_inverse(strategy.phi1[node], strategy.phi2[node], s1, s2)
    return out


def scalar_simulate_exact(tree, x0: float, strategy, driver) -> ScalarWealthField:
    node_ids = [[tree.root]]
    values = [[float(x0)]]
    parent = [[-1]]
    branch = [[-1]]
    dt = tree.dt
    for i in range(tree.n_steps):
        zk = _node_exposures(tree, strategy, i)
        t = tree.time(i)
        ids_i, v_i = node_ids[i], values[i]
        next_ids, next_v, next_p, next_b = [], [], [], []
        for idx, node in enumerate(ids_i):
            v = v_i[idx]
            z, k = zk[node]
            drift = v - driver.eval(t, v, z, k, tree.nodes[node]) * dt
            for b_idx, b in enumerate(tree.branches[node]):
                next_ids.append(b.child)
                next_v.append(drift + z * b.dw + k * b.dm)
                next_p.append(idx)
                next_b.append(b_idx)
        node_ids.append(next_ids)
        values.append(next_v)
        parent.append(next_p)
        branch.append(next_b)
    return ScalarWealthField(tree=tree, x0=float(x0), mode="exact", node_ids=node_ids,
                             v=values, parent=parent, branch=branch)


def scalar_simulate_sampled(tree, x0: float, strategy, driver,
                            n_paths: int, seed: int) -> ScalarWealthField:
    dt = tree.dt
    zk_levels = [_node_exposures(tree, strategy, i) for i in range(tree.n_steps)]
    node_ids = [[tree.root] * n_paths]
    values = [[float(x0)] * n_paths]
    parent = [[-1] * n_paths]
    branch = [[-1] * n_paths]
    for i in range(tree.n_steps):
        node_ids.append([None] * n_paths)
        values.append([0.0] * n_paths)
        parent.append(list(range(n_paths)))
        branch.append([0] * n_paths)
    for p in range(n_paths):
        rng = np.random.default_rng([seed, p])
        draws = rng.random(tree.n_steps)
        node = tree.root
        v = float(x0)
        for i in range(tree.n_steps):
            z, k = zk_levels[i][node]
            drift = v - driver.eval(tree.time(i), v, z, k, tree.nodes[node]) * dt
            u = draws[i]
            acc = 0.0
            b_idx = len(tree.branches[node]) - 1
            for j, b in enumerate(tree.branches[node]):
                acc += b.prob
                if u < acc:
                    b_idx = j
                    break
            b = tree.branches[node][b_idx]
            node = b.child
            v = drift + z * b.dw + k * b.dm
            node_ids[i + 1][p] = node
            values[i + 1][p] = v
            branch[i + 1][p] = b_idx
    return ScalarWealthField(tree=tree, x0=float(x0), mode="sampled", node_ids=node_ids,
                             v=values, parent=parent, branch=branch)


def scalar_verify_seller(field, obstacle) -> HedgeReport:
    """Smallest slack V - payoff over every reached state; pass iff >= -SUPERHEDGE_TOL."""
    min_slack = math.inf
    n = 0
    violations = []
    for level in range(len(field.node_ids)):
        xi = obstacle.values
        for idx, node in enumerate(field.node_ids[level]):
            slack = field.v[level][idx] - xi[node]
            n += 1
            if slack < min_slack:
                min_slack = slack
            if slack < -SUPERHEDGE_TOL:
                violations.append((field.path_id(level, idx), level, node,
                                   field.v[level][idx], xi[node], slack))
    return HedgeReport(side="seller", passed=min_slack >= -SUPERHEDGE_TOL,
                       min_slack=min_slack, n_states=n, violations=violations)


def _stopped_states(field, rule) -> Iterable:
    """Yield (level, idx, node, v) at the first stop along each path."""
    stops = getattr(rule, "stop", rule)
    active = [True] * field.n_states(0)
    n_levels = len(field.node_ids)
    for level in range(n_levels):
        for idx, node in enumerate(field.node_ids[level]):
            if not active[idx]:
                continue
            if stops[node]:
                yield level, idx, node, field.v[level][idx]
            elif level == n_levels - 1:
                raise ValueError(f"rule does not stop by the terminal step at {node}")
        if level + 1 < n_levels:
            next_active = [False] * field.n_states(level + 1)
            for jdx in range(field.n_states(level + 1)):
                pidx = field.parent[level + 1][jdx]
                pnode = field.node_ids[level][pidx]
                next_active[jdx] = active[pidx] and not stops[pnode]
            active = next_active


def scalar_verify_buyer(field, obstacle, rule) -> HedgeReport:
    """Slack V + payoff at the states where the exercise rule first stops."""
    min_slack = math.inf
    max_abs = 0.0
    n = 0
    violations = []
    for level, idx, node, v in _stopped_states(field, rule):
        slack = v + obstacle.values[node]
        n += 1
        min_slack = min(min_slack, slack)
        max_abs = max(max_abs, abs(slack))
        if slack < -SUPERHEDGE_TOL:
            violations.append((field.path_id(level, idx), level, node, v,
                               obstacle.values[node], slack))
    if n == 0:
        min_slack = 0.0
    return HedgeReport(side="buyer", passed=min_slack >= -SUPERHEDGE_TOL, min_slack=min_slack,
                       n_states=n, violations=violations, max_abs_at_stop=max_abs)


def scalar_martingale_residual(field, driver) -> float:
    """|root backward value - x0| when the terminal wealth is solved backward."""
    tree = field.tree
    vals = list(field.v[-1])
    for level in range(tree.n_steps - 1, -1, -1):
        new_vals = []
        offset = 0
        for idx, node in enumerate(field.node_ids[level]):
            branches = tree.branches[node]
            child_vals = vals[offset:offset + len(branches)]
            offset += len(branches)
            e, z, k = coefficients(branches, child_vals, tree.sq)
            new_vals.append(implicit_value(driver, tree.nodes[node], tree.dt, e, z, k))
        vals = new_vals
    return abs(vals[0] - field.x0)


def scalar_strict_gain(field, solution) -> tuple:
    """(count, smallest V - Y) over the path states whose cumulative incoming
    charge is positive; a gain that is not finite raises, naming its state."""
    min_gain = math.inf
    n = 0
    a_in = [0.0] * field.n_states(0)
    for level in range(len(field.node_ids)):
        for idx, node in enumerate(field.node_ids[level]):
            if a_in[idx] > 0.0:
                gain = field.v[level][idx] - solution.y[node]
                if not math.isfinite(gain):
                    raise ValueError(f"strict gain is not finite ({gain!r}) at step {level}, "
                                     f"node {node}, path {field.path_id(level, idx)}")
                n += 1
                min_gain = min(min_gain, gain)
        if level + 1 < len(field.node_ids):
            nxt = [0.0] * field.n_states(level + 1)
            for jdx in range(field.n_states(level + 1)):
                pidx = field.parent[level + 1][jdx]
                pnode = field.node_ids[level][pidx]
                nxt[jdx] = a_in[pidx] + solution.delta_a[pnode]
            a_in = nxt
    return n, min_gain


# ---------------------------------------------------------------------------
# Scalar references for the obstacle, the sampled driver checks and the
# eps-triggered exercise rule: the per-node and per-sample code that the row
# versions in amhedge.rbsde, amhedge.drivers and amhedge.pricing replaced,
# kept so the two can be compared bit for bit.
# ---------------------------------------------------------------------------

def scalar_obstacle_rows(tree, payoff) -> np.ndarray:
    """The payoff at every node in row order, the payoff called with floats
    once per node in node order."""
    return np.array([float(payoff(state.t, state.s1, state.s2, state.defaulted))
                     for state in tree.nodes.values()])


def _points(rows) -> list:
    """The float tuples of equal-length rows, one per element."""
    return list(zip(*(row.tolist() for row in rows)))


def scalar_gamma_scan(driver, samples) -> tuple:
    """Per-sample reference for check_gamma_assumption on its row samples,
    flattened to one float tuple a grid point: (min, worst, count)."""
    min_ratio, worst, n = math.inf, None, 0
    for state, y, z, k1, k2 in ((s, *p) for s, *rows in samples for p in _points(rows)):
        if state.lam <= 0.0 or k1 == k2:
            continue
        n += 1
        ratio = ((driver.eval(state.t, y, z, k1, state)
                  - driver.eval(state.t, y, z, k2, state)) / ((k1 - k2) * state.lam))
        if ratio < min_ratio:
            min_ratio, worst = ratio, (state, y, z, k1, k2)
    return min_ratio, worst, n


def scalar_admissible_scan(driver, samples) -> tuple:
    """Per-sample reference for check_lambda_admissible on its row samples,
    flattened to one pair of float points a grid pair: (max, worst)."""
    max_ratio, worst = 0.0, None
    for state, p1, p2 in ((s, *pq) for s, r1, r2 in samples
                          for pq in zip(_points(r1), _points(r2))):
        (y1, z1, k1), (y2, z2, k2) = p1, p2
        denom = abs(y1 - y2) + abs(z1 - z2) + math.sqrt(state.lam) * abs(k1 - k2)
        if denom == 0.0:
            continue
        ratio = abs(driver.eval(state.t, y1, z1, k1, state)
                    - driver.eval(state.t, y2, z2, k2, state)) / denom
        if ratio > max_ratio:
            max_ratio, worst = ratio, (state, p1, p2)
    return max_ratio, worst


def scalar_epsilon_rational(solution, obstacle, eps: float) -> tuple:
    """Per-node reference for pricing.epsilon_rational: the rule as a node
    dict, built node by node, and the root value it gives up."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    tree = solution.tree
    stop = {}
    for node in tree.nodes:
        stop[node] = (tree.is_terminal(node)
                      or solution.y[node] <= obstacle.values[node] + eps)
    value = g_evaluation(tree, solution.driver, stop, obstacle)
    return stop, solution.root_value - value


def scalar_brute_force_seller_value(tree, driver, obstacle) -> float:
    """Per-rule reference for oracle.brute_force_seller_value: one
    ``g_evaluation`` of every enumerated rule, nothing shared between rules;
    the first strict maximum wins."""
    best = -math.inf
    for stop in _stop_flags(tree):
        value = g_evaluation(tree, driver, stop, obstacle)
        if value > best:
            best = value
    return best


def float_bits(value) -> bytes:
    """The IEEE bytes of a float, so that -0.0 and 0.0 differ and NaN equals NaN."""
    return np.float64(value).tobytes()


# ---------------------------------------------------------------------------
# Scalar reference for the rationality check: the node-dict walk that the row
# recurrence of amhedge.pricing.is_rational replaced.
# ---------------------------------------------------------------------------

def scalar_cumulative_charge(tree, delta_a, stop=None) -> dict:
    """Largest charge accrued before arriving at each node, over paths not yet stopped."""
    a = {tree.root: 0.0}
    for level in tree.levels[:-1]:
        for node in level:
            if node not in a or (stop is not None and stop[node]):
                continue
            incoming = a[node] + delta_a[node]
            for b in tree.branches[node]:
                prev = a.get(b.child)
                if prev is None or incoming > prev:
                    a[b.child] = incoming
    return a


def scalar_is_rational(solution, obstacle, rule) -> RationalityReport:
    """Check that a rule stops only on the payoff and before any charge.

    Walks every path reached under the rule, carrying the largest cumulative
    charge; at each stopped node the value must equal the payoff within a
    scale-aware tolerance and the incoming charge must be zero within an
    absolute floor. The first violating node is returned as a witness.
    """
    tree = solution.tree
    stops = getattr(rule, "stop", rule)
    reached = scalar_cumulative_charge(tree, solution.delta_a, stops)
    for level in tree.levels:
        for node in level:
            if node not in reached:
                continue
            a_in = reached[node]
            if stops[node]:
                gap = solution.y[node] - obstacle.values[node]
                scale = 1.0 + abs(obstacle.values[node])
                if abs(gap) > EQUALITY_RTOL * scale:
                    return RationalityReport(ok=False, witness=node,
                                             reason=f"value off the payoff by {gap:.3g}")
                if a_in > A_ZERO_TOL:
                    return RationalityReport(ok=False, witness=node,
                                             reason=f"cumulative charge {a_in:.3g} on arrival")
            elif tree.is_terminal(node):
                return RationalityReport(ok=False, witness=node,
                                         reason="rule does not stop at the terminal step")
    return RationalityReport(ok=True)


# ---------------------------------------------------------------------------
# Scalar reference for the stability estimate: the five node walks (driver
# gap, conditional sums, pointwise bound, reach probabilities, norms) that
# the one backward and one forward walk of amhedge.oracle.apriori_estimate
# replaced.
# ---------------------------------------------------------------------------

def scalar_apriori_estimate(sol1, sol2, eta: float, beta: float) -> AprioriReport:
    """Weighted stability estimate for two lower-reflected solves, one walk
    per quantity; the hypotheses on eta and beta are not checked here."""
    tree, driver1, driver2 = sol1.tree, sol1.driver, sol2.driver
    c = driver1.lipschitz_C
    dt = tree.dt

    fbar = {}
    for level in tree.levels[:-1]:
        for node in level:
            t = tree.time(node[0])
            state = tree.nodes[node]
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


# ---------------------------------------------------------------------------
# Row-by-row reference for the backward sweep: each level row solved on its
# own, one Picard loop per run of adjacent sides that share a driver, as
# amhedge.bsde.backward_sweep ran before it solved a step in one loop.
# ---------------------------------------------------------------------------

def _picard_row(g, e, dt: float):
    """y = e + g(y) * dt on one row, each element keeping the iterate at which it
    first passes the stopping test; the row's g is called until its last passes."""
    y, out, pending = e, np.empty_like(e), np.ones(e.shape, dtype=bool)
    for _ in range(PICARD_MAX_ITER):
        y_new = e + g(y) * dt
        passed = (np.abs(y_new - y) <= PICARD_TOL * (1.0 + np.abs(y_new))) & pending
        np.copyto(out, y_new, where=passed)
        pending ^= passed
        if not pending.any():
            return out
        y = y_new
    raise ConvergenceError("the row did not converge")


@np.errstate(over="ignore", invalid="ignore")
def row_by_row_sweep(tree, sides) -> list:
    """(y_rows, z_rows, k_rows, da_rows) of each reflected ``(kind, rows, driver)``
    side as row-order arrays (0 where a quantity has no value), solved together a
    level row at a time on lists of (alive, defaulted) rows."""
    n, K = tree.n_steps, len(sides)
    runs = []  # [first side, end, driver] of each run of adjacent sides with one driver
    for h, (_, _, driver) in enumerate(sides):
        if runs and runs[-1][2] == driver:
            runs[-1][1] = h + 1
        else:
            runs.append([h, h + 1, driver])
    y = [None] * n + [tuple(np.array([tree.step_rows(rows, n)[d] for _, rows, _ in sides])
                            for d in (0, 1))]
    z, k, da = ([None] * n for _ in range(3))
    for i in range(n - 1, -1, -1):
        step = []
        for d, branches in enumerate(tree.row_branches[i]):
            s1, s2 = (tree.step_rows(x, i)[d] for x in (tree.s1, tree.s2))
            m = len(s1)
            children = [y[i + 1][dead][:, up:up + m] for _, up, dead in (b.child for b in branches)]
            e, z_row, k_row = coefficients(branches, children, tree.sq)
            k_row = np.broadcast_to(k_row, (K, m))  # 0 without a default branch
            y_row = np.empty((K, m))
            for a, b, driver in runs if m else ():
                state = tree.row_state(i, d, np.tile(s1, b - a), np.tile(s2, b - a))
                g = split_of(driver)(state.t, z_row[a:b].ravel(), k_row[a:b].ravel(), state)
                y_row[a:b] = _picard_row(g, e[a:b].ravel(), tree.dt).reshape(b - a, m)
            barrier = np.array([tree.step_rows(rows, i)[d] for _, rows, _ in sides])
            da_row = np.zeros((K, m))
            for h, (kind, _, _) in enumerate(sides):
                bind = barrier[h] > y_row[h] if kind == "lower" else barrier[h] < y_row[h]
                gap = barrier[h] - y_row[h] if kind == "lower" else y_row[h] - barrier[h]
                da_row[h] = np.where(bind, gap, 0.0)
                y_row[h] = np.where(bind, barrier[h], y_row[h])
            step.append((y_row, z_row, k_row, da_row))
        y[i], z[i], k[i], da[i] = zip(*step)

    def whole(blocks, h):  # side h's rows end to end, 0 on the rows past them
        out = np.zeros(len(tree.s1))
        out[:tree.starts[2 * len(blocks)]] = np.concatenate([row[h] for pair in blocks
                                                             for row in pair])
        return out
    return [tuple(whole(blocks, h) for blocks in (y, z, k, da)) for h in range(K)]


# ---------------------------------------------------------------------------
# Reference for the stability estimate on level rows: the one backward and one
# forward node walk that amhedge.oracle.apriori_estimate ran before it read
# level rows.
# ---------------------------------------------------------------------------

def walk_apriori_estimate(sol1, sol2, eta: float, beta: float) -> AprioriReport:
    """Weighted stability estimate for two lower-reflected solves by one backward
    and one forward walk of the node dicts; the hypotheses on eta and beta are not
    checked here."""
    tree, driver1, driver2 = sol1.tree, sol1.driver, sol2.driver
    c = driver1.lipschitz_C
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


# ---------------------------------------------------------------------------
# Reference generators: the formulas of the shipped drivers as they read
# before their split forms, one function g(t, y, z, k, state) each. The
# split forms must give the same bits.
# ---------------------------------------------------------------------------

def _effective_k(k: float, state) -> float:
    # Jump exposure is meaningless where no default can occur.
    return k if state.lam > 0.0 else 0.0


def reference_perfect_g(params: MarketParams):
    def g(t, y, z, k, state):
        c = state.coef
        th1 = (c.mu1 - c.r) / c.sigma1
        val = -c.r * y - th1 * z
        if state.lam > 0.0:
            val -= (c.sigma2 * th1 - c.mu2 + c.r) * k  # theta2 * lam
        return val
    return g


def reference_borrow_lend_g(params: MarketParams, borrow_rate):
    base = Driver(name="perfect", eval=reference_perfect_g(params), lipschitz_C=0.0)
    R = as_piecewise(borrow_rate)

    def g(t, y, z, k, state):
        c = state.coef
        val = base.eval(t, y, z, k, state)
        k_eff = _effective_k(k, state)
        phi1 = (z + c.sigma2 * k_eff) / c.sigma1
        phi2 = -k_eff
        excess = phi1 + phi2 - y
        # The charge is added only where the excess is positive; the mask
        # keeps the arithmetic elementwise for rows and floats alike.
        return val + (R.at(t) - c.r) * (excess * (excess > 0.0))
    return g


def reference_large_trader_g(params: MarketParams, alpha: float, gamma_bar: float):
    alpha = float(alpha)
    gamma_bar = float(gamma_bar)

    def g(t, y, z, k, state):
        c = state.coef
        k_eff = _effective_k(k, state)
        phi1 = (z + c.sigma2 * k_eff) / c.sigma1
        phi2 = -k_eff
        rbar = c.r + alpha * phi1
        return (-rbar * y
                - phi1 * (c.mu1 - rbar)
                - phi2 * (c.mu2 - rbar)
                - gamma_bar * state.lam * phi2)
    return g


# ---------------------------------------------------------------------------
# Reference for the node orders of report.json and tree.json: the two 3-key
# lexsorts that amhedge.cli replaced with one argsort each.
# ---------------------------------------------------------------------------

def row_lengths(tree) -> list:
    """The node count of each row 2 * step + defaulted: the nodes reached from the
    root through ``tree.row_branches`` alone."""
    level, counts = {(0, 0)}, []  # (up count, defaulted) of the nodes of a step
    for i in range(tree.n_steps + 1):
        counts += [sum(1 for _, d in level if d == dead) for dead in (0, 1)]
        level = {(j + b.child[1], b.child[2]) for j, d in level
                 for b in (tree.row_branches[i][d] if i < tree.n_steps else ())}
    return counts


def lexsort_orders(tree) -> tuple:
    """Row-order positions of every node sorted by node id (step, up count,
    defaulted) and by node key (the same, step and up count ranked as strings)."""
    sizes = np.diff(tree.starts).tolist()
    row = np.repeat(np.arange(len(sizes)), sizes)
    up = np.arange(len(row)) - np.repeat(np.cumsum([0] + sizes[:-1]), sizes)
    rank = np.argsort(sorted(range(tree.n_steps + 1), key=str))  # place in key order
    return (np.lexsort((row % 2, up, row // 2)),
            np.lexsort((row % 2, rank[up], rank[row // 2])))


# ---------------------------------------------------------------------------
# Reference for tree.json: the node-dict document that ``canonical_json``
# serialised before amhedge.cli wrote the file from the level rows. The two
# must give the same bytes.
# ---------------------------------------------------------------------------

def reference_tree_dict(tree) -> dict:
    """JSON-ready document: step count, step size, node and branch tables."""
    table = {}
    for node, data in tree.nodes.items():
        entry = {
            "s0": data.s0,
            "s1": data.s1,
            "s2": data.s2,
            "lam": data.lam,
            "defaulted": bool(data.defaulted),
        }
        if node in tree.branches:
            entry["branches"] = [
                {"child": node_key(b.child), "prob": b.prob, "dw": b.dw,
                 "dm": b.dm, "kind": b.kind}
                for b in tree.branches[node]
            ]
        table[node_key(node)] = entry
    return {"n_steps": tree.n_steps, "dt": tree.dt, "nodes": table}


# ---------------------------------------------------------------------------
# Off-lattice reference: the Black-Scholes call under deterministic
# piecewise-constant r and sigma. It shares no code with the lattice.
# ---------------------------------------------------------------------------

def black_scholes_call(s0: float, strike: float, r, sigma, T: float) -> float:
    """European call on an asset without dividends when r and sigma are
    deterministic (``PiecewiseConstant``): the Black-Scholes formula with the
    integrated rate and variance. With r >= 0 throughout, it is also the
    American call."""
    def integral(fn, power):
        edges = [t for t in fn.times if t < T] + [T]
        return sum(v ** power * (b - a) for v, a, b in zip(fn.values, edges, edges[1:]))

    rate, var = integral(r, 1), integral(sigma, 2)
    d1 = (math.log(s0 / strike) + rate + var / 2.0) / math.sqrt(var)
    d2 = d1 - math.sqrt(var)

    def normal_cdf(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    return s0 * normal_cdf(d1) - strike * math.exp(-rate) * normal_cdf(d2)
