"""Forward wealth simulation and superhedge verification.

Wealth is simulated branch by branch with the explicit update

    V_child = V - g(t, V, z, k) * dt + z * dW + k * dM,

where (z, k) are read off the per-node positions. Through a recombining
node the arriving wealth depends on the incoming path whenever the driver
is nonlinear, so states are kept per (node, path): the full path expansion
is used up to ``MAX_EXACT_STEPS`` steps and a fixed-seed sample of paths
beyond that. Each sampled path derives its own seed from (seed, path
index), so results do not depend on scheduling or batching. Every level
is stepped at once, with one driver call per (alive, defaulted) group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .bsde import PICARD_MAX_ITER, ConvergenceError, Solution, _implicit_row, coefficients
from .drivers import Driver
from .market import Tree, node_key
from .pricing import StoppingRule, Strategy, phi_inverse
# solve_rbsde_lower stays a name of this module: the benchmark's tracer wraps it here.
from .rbsde import Obstacle, solve_rbsde_lower  # noqa: F401

SUPERHEDGE_TOL = 1e-10
MARTINGALE_TOL = 1e-10  # largest wealth martingale residual that passes
STRICT_GAIN_MIN = 1e-14
MAX_EXACT_STEPS = 12
DEFAULT_SAMPLE_PATHS = 10_000

_KIND_LETTER = {"up": "u", "down": "d", "default": "j"}


class Paths(NamedTuple):
    """Per-level arrays of the states of a path expansion or sample: the
    node's up count ``j`` and defaulted flag ``d``, the parent state one
    level up and the branch taken from it (-1 at the root level)."""

    j: list  # int32
    d: list  # int8
    parent: list  # int32
    branch: list  # int8

    def at(self, rows: tuple, i: int) -> np.ndarray:
        """Values of step i's (alive, defaulted) ``rows`` at each state of level i."""
        return np.concatenate(rows)[np.where(self.d[i], self.j[i] + len(rows[0]), self.j[i])]


def _lists(arrays) -> cached_property:
    """Per-level lists of the arrays ``arrays(field)``, built on first read."""
    return cached_property(lambda self: [row.tolist() for row in arrays(self)])


@dataclass(eq=False)
class WealthField:
    """Per-level wealth (float64) of the states in ``paths``, which the
    seller's and the buyer's field share. In sampled mode each path occupies
    one slot per level. ``node_ids``, ``v``, ``parent`` and ``branch`` are
    per-level lists (node tuples, floats, ints) built on first read.
    """

    tree: Tree
    x0: float
    mode: str  # "exact" | "sampled"
    paths: Paths
    wealth: list

    v = _lists(lambda self: self.wealth)
    parent = _lists(lambda self: self.paths.parent)
    branch = _lists(lambda self: self.paths.branch)

    @cached_property
    def node_ids(self) -> list:
        return [list(zip([i] * len(j), j.tolist(), d.tolist()))
                for i, (j, d) in enumerate(zip(self.paths.j, self.paths.d))]

    def n_states(self, level: int) -> int:
        return len(self.paths.j[level])

    def node(self, level: int, idx: int) -> tuple:
        return (level, int(self.paths.j[level][idx]), int(self.paths.d[level][idx]))

    def path_id(self, level: int, idx: int) -> str:
        """Branch-letter path into a state, e.g. 'udj'; sampled paths use their row."""
        if self.mode == "sampled":
            return str(idx)
        paths, letters = self.paths, []
        i, j = level, idx
        while i > 0:
            p = paths.parent[i][j]
            kind = self.tree.row_branches[i - 1][paths.d[i - 1][p]][paths.branch[i][j]].kind
            letters.append(_KIND_LETTER[kind])
            i, j = i - 1, p
        return "".join(reversed(letters)) or "(root)"


@dataclass
class HedgeReport:
    side: str
    passed: bool
    min_slack: float
    n_states: int
    violations: list = field(default_factory=list)
    max_abs_at_stop: float = None  # buyer side only


@dataclass
class GainReport:
    passed: bool
    n_states: int
    min_gain: float = None


def _table(branches: tuple, column, pad, dtype=float) -> np.ndarray:
    """(defaulted, branch) table of ``column(row)`` per row of ``branches``."""
    return np.array([[*column(row), *[pad] * (3 - len(row))] for row in branches], dtype=dtype)


@lru_cache(maxsize=1)
def _path_sample(tree: Tree, mode: str, n_paths: int, seed: int) -> Paths:
    """The full path expansion from one root state (``n_paths`` = 1), or ``n_paths``
    paths drawn with the generators ``default_rng([seed, p])``; kept for the last tree."""
    j, d = [np.zeros(n_paths, np.int32)], [np.zeros(n_paths, np.int8)]
    parent, branch = [np.full(n_paths, -1, np.int32)], [np.full(n_paths, -1, np.int8)]
    if mode == "sampled":  # one column of draws per path; one parent index shared by the levels
        draws, rows = np.empty((tree.n_steps, n_paths)), np.arange(n_paths, dtype=np.int32)
        for p in range(n_paths):
            draws[:, p] = np.random.default_rng([seed, p]).random(tree.n_steps)
    for i, branches in enumerate(tree.row_branches):
        last = np.array([len(row) - 1 for row in branches])[d[i]]
        if mode == "exact":  # each state's branches in template order
            par = np.repeat(np.arange(len(last), dtype=np.int32), last + 1)
            br = np.arange(len(par)) - np.repeat(np.cumsum(last + 1) - last - 1, last + 1)
        else:  # the first branch whose running sum of probabilities exceeds the draw
            acc = _table(branches, lambda row: accumulate(b.prob for b in row), -math.inf)
            par, br = rows, last
            for b in (2, 1, 0):
                br = np.where(draws[i] < acc[d[i], b], b, br)
        child = _table(branches, lambda row: (b.child[1:] for b in row), (0, 0), np.int32)
        up, dead = child[d[i][par], br].T
        j.append(j[i][par] + up)
        d.append(dead.astype(np.int8))
        parent.append(par)
        branch.append(br.astype(np.int8))
    return Paths(j, d, parent, branch)


def _groups(tree: Tree, paths: Paths, i: int):
    """(defaulted, state indices, NodeState with gathered s1/s2) per group of level i."""
    for g in (0, 1):
        idx = np.flatnonzero(paths.d[i] == g)
        if idx.size:
            j = paths.j[i][idx]
            yield g, idx, tree.row_state(i, g, tree.s1[i][g][j], tree.s2[i][g][j])


def simulate_wealth(tree: Tree, x0: float, strategy: Strategy, driver: Driver,
                    n_paths: int = DEFAULT_SAMPLE_PATHS, seed: int = 0,
                    mode: str = None) -> WealthField:
    """Simulate wealth from x0 under the given positions and driver.

    The full path expansion is used for trees up to ``MAX_EXACT_STEPS``
    steps, a deterministic path sample beyond that; pass ``mode`` to force
    either representation.
    """
    if mode is None:
        mode = "exact" if tree.n_steps <= MAX_EXACT_STEPS else "sampled"
    if mode == "exact":
        return _simulate(tree, x0, strategy, driver, "exact", 1, 0)
    if mode == "sampled":
        if not n_paths >= 1:
            raise ValueError(f"n_paths must be at least 1, got {n_paths!r}")
        return _simulate(tree, x0, strategy, driver, "sampled", n_paths, seed)
    raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")


@np.errstate(over="ignore", invalid="ignore")  # float arithmetic, as in one_step
def _simulate(tree: Tree, x0: float, strategy: Strategy, driver: Driver, mode: str,
              n_paths: int, seed: int) -> WealthField:
    paths = _path_sample(tree, mode, n_paths, seed)
    phi1, phi2 = strategy.phi1_rows, strategy.phi2_rows
    wealth = [np.full(len(paths.j[0]), float(x0))]
    for i, branches in enumerate(tree.row_branches):
        c = tree.coef[i]
        z, k = phi_inverse(paths.at(phi1[i], i), paths.at(phi2[i], i), c.sigma1, c.sigma2)
        v, drift = wealth[i], np.empty_like(wealth[i])
        for _, idx, state in _groups(tree, paths, i):
            drift[idx] = v[idx] - driver.eval(state.t, v[idx], z[idx], k[idx], state) * tree.dt
        p = paths.parent[i + 1]
        dw, dm = _table(branches, lambda row: (b[2:4] for b in row), (0.0, 0.0))[
            paths.d[i][p], paths.branch[i + 1]].T
        wealth.append(drift[p] + z[p] * dw + k[p] * dm)
    return WealthField(tree=tree, x0=float(x0), mode=mode, paths=paths, wealth=wealth)


def _slack_report(field: WealthField, obstacle: Obstacle, side: str, states) -> HedgeReport:
    """Slack V - payoff (seller) or V + payoff (buyer) at ``states``, per level
    the level and its state indices: the smallest (the first in level order),
    the largest |slack|, the count and the violations below -SUPERHEDGE_TOL."""
    min_slack, max_abs, n, violations = math.inf, 0.0, 0, []
    for level, idx in states:
        v, xi = field.wealth[level][idx], field.paths.at(obstacle.rows[level], level)[idx]
        slack = v - xi if side == "seller" else v + xi
        bad = ~np.isfinite(slack)
        if bad.any():
            s = int(idx[bad.argmax()])
            raise ValueError(
                f"{side} superhedge slack is not finite ({float(slack[bad.argmax()])!r}) at "
                f"step {level}, node {field.node(level, s)}, path {field.path_id(level, s)}")
        if slack.size and slack[m := slack.argmin()] < min_slack:
            min_slack = float(slack[m])
        max_abs = max(max_abs, float(np.abs(slack).max(initial=0.0)))
        n += slack.size
        for m in np.flatnonzero(slack < -SUPERHEDGE_TOL).tolist():
            s = int(idx[m])
            violations.append((field.path_id(level, s), level, field.node(level, s),
                               float(v[m]), float(xi[m]), float(slack[m])))
    return HedgeReport(side=side, passed=min_slack >= -SUPERHEDGE_TOL, min_slack=min_slack,
                       n_states=n, violations=violations,
                       max_abs_at_stop=max_abs if side == "buyer" else None)


def verify_superhedge_seller(field: WealthField, obstacle: Obstacle) -> HedgeReport:
    """Smallest slack V - payoff over every reached state; pass iff >= -SUPERHEDGE_TOL."""
    states = ((level, np.arange(len(v))) for level, v in enumerate(field.wealth))
    return _slack_report(field, obstacle, "seller", states)


def _first_stops(field: WealthField, rule: StoppingRule):
    """(level, state indices) of the states where each path first stops."""
    paths, last = field.paths, len(field.wealth) - 1
    active = np.ones(field.n_states(0), dtype=bool)
    for level in range(last + 1):
        stop = paths.at(rule.rows[level], level)
        if level == last and not stop[active].all():
            node = field.node(level, int(np.flatnonzero(active & ~stop)[0]))
            raise ValueError(f"rule does not stop by the terminal step at {node}")
        yield level, np.flatnonzero(active & stop)
        if level < last:
            active = (active & ~stop)[paths.parent[level + 1]]


def verify_superhedge_buyer(field: WealthField, obstacle: Obstacle,
                            rule: StoppingRule) -> HedgeReport:
    """Slack V + payoff at the states where the exercise rule first stops.

    Passes when the smallest slack is above -SUPERHEDGE_TOL; the largest |V + payoff|
    at the stops is reported as well, since the buyer's wealth should match
    the debt exactly there.
    """
    return _slack_report(field, obstacle, "buyer", _first_stops(field, rule))


@np.errstate(over="ignore", invalid="ignore")
def wealth_martingale_residual(field: WealthField, driver: Driver) -> float:
    """|root backward value - x0| when the terminal wealth is solved backward.

    Runs on the exact path expansion: the backward step through every path
    state must reproduce the forward wealth, so the root recovers the
    initial capital at solver tolerance.
    """
    if field.mode != "exact":
        raise ValueError("martingale residual requires the exact path expansion")
    tree, paths = field.tree, field.paths
    vals = field.wealth[-1]
    for i in range(tree.n_steps - 1, -1, -1):
        first = np.flatnonzero(paths.branch[i + 1] == 0)  # each state's first child
        new_vals = np.empty(len(first))
        for g, idx, state in _groups(tree, paths, i):
            branches = tree.row_branches[i][g]
            e, z, k = coefficients(branches, [vals[first[idx] + b] for b in range(len(branches))],
                                   tree.sq)
            try:
                new_vals[idx], _, _ = _implicit_row(driver, state, tree.dt, e, z,
                                                    np.broadcast_to(k, e.shape), (i, g))
            except ConvergenceError:  # with the message of the scalar implicit_value
                raise ConvergenceError(f"implicit step did not converge in {PICARD_MAX_ITER} "
                                       f"iterations at t={state.t:.6g}; the time step is too large "
                                       "for the driver's Lipschitz constant") from None
        vals = new_vals
    return abs(float(vals[0]) - field.x0)


def strict_gain_after_nubar(field: WealthField, solution: Solution) -> GainReport:
    """Wealth strictly beats the reflected value once a charge has accrued.

    ``field`` is the seller's wealth, simulated (exact or sampled) from the
    root value of the lower-reflected ``solution`` under its positions. Over
    every path state whose cumulative incoming charge is positive, reports
    the smallest V - Y. Vacuous pass when the obstacle never binds before
    the terminal step.
    """
    if field.tree is not solution.tree:
        raise ValueError("the wealth field and the solution belong to different trees")
    paths, gains = field.paths, []
    a_in = np.zeros(field.n_states(0))  # charge accrued along each path before its state
    for level, v in enumerate(field.wealth):
        gains.append((v - paths.at(solution.y_rows[level], level))[a_in > 0.0])
        if level < field.tree.n_steps:
            a_in = (a_in + paths.at(solution.da_rows[level], level))[paths.parent[level + 1]]
    gains = np.concatenate(gains)
    if not gains.size:
        return GainReport(passed=True, n_states=0, min_gain=None)
    min_gain = float(gains[gains.argmin()])
    return GainReport(passed=min_gain >= STRICT_GAIN_MIN, n_states=gains.size, min_gain=min_gain)


def violation_rows(report: HedgeReport) -> list:
    """CSV-ready rows (path id, step, node, V, payoff, slack)."""
    return [(pid, level, node_key(node), v, xi, slack)
            for pid, level, node, v, xi, slack in report.violations]
