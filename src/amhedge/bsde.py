"""Backward solvers on the lattice and the induced nonlinear evaluation.

The backward step at a node with child values f is exact in (z, k): the
branch increments make the system

    f_child = e + z * dW_child + k * dM_child

square, so (e, z, k) are solved in closed form and only the value update
y = e + g(t, y, z, k) * dt is implicit. That fixed point is found by
Picard iteration, which contracts whenever C * dt < 1 for the driver's
Lipschitz constant C (in practice the relevant constant is the local
y-sensitivity of g).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .drivers import Driver, GammaReport, check_gamma_assumption, gamma_samples
from .market import NodeId, NodeState, Tree

PICARD_TOL = 1e-12
PICARD_MAX_ITER = 50


class ConvergenceError(RuntimeError):
    """The implicit value update failed to converge (dt too large for C)."""


@dataclass
class Solution:
    """Per-node output of a backward solve.

    ``y`` is defined at every node; ``z`` and ``k`` at every non-terminal
    node (k is recorded as 0 where no default branch exists). ``delta_a`` is
    the outgoing reflection charge of each non-terminal node and ``a`` the
    largest cumulative charge over all paths into the node, counting
    increments strictly before arrival; both are identically zero for plain
    (non-reflected) solves.
    """

    tree: Tree
    driver: Driver
    kind: str  # "bsde" | "lower" | "upper"
    y: dict
    z: dict
    k: dict
    delta_a: dict
    a: dict

    @property
    def root_value(self) -> float:
        return self.y[self.tree.root]


def coefficients(branches, child_values, sq: float) -> tuple:
    """Exact (e, z, k) of the one-step representation from child values.

    ``child_values`` is ordered like ``branches`` (up, down[, default]).
    """
    if len(branches) == 3:
        f_u, f_d, f_j = child_values
        e = branches[0].prob * f_u + branches[1].prob * f_d + branches[2].prob * f_j
        z = (f_u - f_d) / (2.0 * sq)
        k = f_j - 0.5 * (f_u + f_d)
    else:
        f_u, f_d = child_values
        e = branches[0].prob * f_u + branches[1].prob * f_d
        z = (f_u - f_d) / (2.0 * sq)
        k = 0.0
    return e, z, k


def implicit_value(driver: Driver, state: NodeState, dt: float, e: float,
                   z: float, k: float, tol: float = PICARD_TOL,
                   max_iter: int = PICARD_MAX_ITER) -> float:
    """Solve y = e + g(t, y, z, k) * dt by Picard iteration.

    The stopping test is scale aware (tol * (1 + |y|)): below one unit in
    the last place an absolute test can alternate between adjacent floats
    forever at large value scales.
    """
    t = state.t
    y = e
    for _ in range(max_iter):
        y_new = e + driver.eval(t, y, z, k, state) * dt
        if abs(y_new - y) <= tol * (1.0 + abs(y_new)):
            return y_new
        y = y_new
    raise ConvergenceError(
        f"implicit step did not converge in {max_iter} iterations at t={t:.6g}; "
        "the time step is too large for the driver's Lipschitz constant")


def one_step(tree: Tree, driver: Driver, node: NodeId, values: Mapping,
             tol: float = PICARD_TOL) -> tuple:
    """One backward step from child values; returns (y, z, k)."""
    branches = tree.branches[node]
    child_values = [values[b.child] for b in branches]
    e, z, k = coefficients(branches, child_values, tree.sq)
    y = implicit_value(driver, tree.state(node), tree.dt, e, z, k, tol=tol)
    return y, z, k


def _values_on(tree: Tree, source, nodes: Iterable) -> dict:
    """Resolve a terminal/payoff description to a node -> value dict."""
    if isinstance(source, Mapping):
        values = source
    elif hasattr(source, "values") and isinstance(source.values, Mapping):
        values = source.values
    elif callable(source):
        return {node: float(source(node)) for node in nodes}
    else:
        raise TypeError(f"cannot read node values from {type(source).__name__}")
    out = {}
    for node in nodes:
        if node not in values:
            raise ValueError(f"value missing at node {node}")
        out[node] = float(values[node])
    return out


def _implicit_row(driver: Driver, state: NodeState, dt: float, e, z, k,
                  tol: float, nodes: list) -> np.ndarray:
    """``implicit_value`` over a row; each element keeps the iterate at which
    it first passes the stopping test, so it equals the scalar result."""
    y = e
    out = np.empty_like(e)
    done = np.zeros(e.shape, dtype=bool)
    for _ in range(PICARD_MAX_ITER):
        y_new = e + driver.eval(state.t, y, z, k, state) * dt
        residual = np.abs(y_new - y)
        passed = residual <= tol * (1.0 + np.abs(y_new))
        np.copyto(out, y_new, where=passed & ~done)
        done |= passed
        if done.all():
            return out
        y = y_new
    j = int(np.argmin(done))
    raise ConvergenceError(
        f"implicit step did not converge in {PICARD_MAX_ITER} iterations at node "
        f"{nodes[j]} (t={state.t:.6g}, last residual {residual[j]:.3g}); "
        "the time step is too large for the driver's Lipschitz constant")


@np.errstate(over="ignore", invalid="ignore")  # float arithmetic, as in one_step
def backward_sweep(tree: Tree, driver: Driver, terminal: Mapping,
                   tol: float = PICARD_TOL, barrier: Mapping = None,
                   side: str = "lower") -> tuple:
    """Backward solve one level row at a time; returns dicts (y, z, k, delta_a).

    A level is an alive row and a defaulted row indexed by the up count j;
    the children of a row are slices of the next level's rows (up j+1, down
    j, default j of the defaulted row), and each element follows the
    arithmetic of ``one_step`` exactly. With a ``barrier`` the continuation
    is reflected from below (``side`` "lower") or above ("upper") and
    ``delta_a`` holds the charges; without one it is empty.
    """
    y = dict(terminal)
    z, k, delta_a = {}, {}, {}
    last = tree.levels[tree.n_steps]
    alive_next = np.array([y[n] for n in last[:tree.n_steps + 1]], dtype=float)
    dead_next = np.array([y[n] for n in last[tree.n_steps + 1:]], dtype=float)
    for i in range(tree.n_steps - 1, -1, -1):
        level = tree.levels[i]
        rows = []
        for nodes, nxt in ((level[:i + 1], alive_next), (level[i + 1:], dead_next)):
            m = len(nodes)
            if not m:
                rows.append(np.empty(0))
                continue
            branches = tree.branches[nodes[0]]
            children = (nxt[1:m + 1], nxt[:m], dead_next[:m])[:len(branches)]
            e, z_row, k_row = coefficients(branches, children, tree.sq)
            k_row = np.broadcast_to(k_row, e.shape)
            data = [tree.nodes[n] for n in nodes]
            state = NodeState(tree.time(i), data[0].s0, np.array([d.s1 for d in data]),
                              np.array([d.s2 for d in data]), data[0].lam, data[0].defaulted)
            y_row = _implicit_row(driver, state, tree.dt, e, z_row, k_row, tol, nodes)
            if barrier is not None:
                b = np.array([barrier[n] for n in nodes], dtype=float)
                bind = b > y_row if side == "lower" else b < y_row
                delta_a.update(zip(nodes, np.where(bind, np.abs(b - y_row), 0.0).tolist()))
                y_row = np.where(bind, b, y_row)
            y.update(zip(nodes, y_row.tolist()))
            z.update(zip(nodes, z_row.tolist()))
            k.update(zip(nodes, k_row.tolist()))
            rows.append(y_row)
        alive_next, dead_next = rows
    return y, z, k, delta_a


def solve_bsde(tree: Tree, driver: Driver, terminal, tol: float = PICARD_TOL) -> Solution:
    """Backward solve with a terminal condition and no reflection.

    ``terminal`` maps terminal nodes to values (a dict, a callable on node
    ids, or any object with a ``values`` mapping covering the last level).
    """
    y, z, k, _ = backward_sweep(tree, driver,
                                _values_on(tree, terminal, tree.terminal_nodes()), tol)
    zeros = {node: 0.0 for node in tree.nodes}
    return Solution(tree=tree, driver=driver, kind="bsde", y=y, z=z, k=k,
                    delta_a={node: 0.0 for node in z}, a=zeros)


def g_evaluation(tree: Tree, driver: Driver, rule, payoff,
                 tol: float = PICARD_TOL) -> float:
    """Root value of the payoff collected at an adapted stopping rule.

    The rule is a per-node boolean flag (anything with a ``stop`` mapping,
    or the mapping itself); adaptedness is structural since flags are
    functions of the node alone. Every terminal node must be flagged.
    At stopped nodes the value is the payoff; elsewhere it is the backward
    step through the children.
    """
    stops = getattr(rule, "stop", rule)
    pay = _values_on(tree, payoff, tree.nodes)
    for node in tree.terminal_nodes():
        if not stops.get(node, False):
            raise ValueError(f"stopping rule must stop at terminal node {node}")
    w = {}
    for level in reversed(tree.levels):
        for node in level:
            if node not in stops:
                raise ValueError(f"stopping rule undefined at node {node}")
            if stops[node]:
                w[node] = pay[node]
            else:
                w[node], _, _ = one_step(tree, driver, node, w, tol=tol)
    return w[tree.root]


def martingale_check(tree: Tree, driver: Driver, process: Mapping,
                     tol: float = PICARD_TOL) -> float:
    """Largest one-step self-consistency residual of a per-node process.

    For each non-terminal node, the process value is compared with the
    backward step applied to its child values; a process that solves the
    backward equation returns a residual at solver tolerance.
    """
    worst = 0.0
    for level in tree.levels[:-1]:
        for node in level:
            y, _, _ = one_step(tree, driver, node, process, tol=tol)
            worst = max(worst, abs(process[node] - y))
    return worst


@dataclass
class MonotoneReport:
    c_dt: float
    c_dt_ok: bool
    gamma: GammaReport
    ok: bool


def one_step_monotone_report(tree: Tree, driver: Driver,
                             gamma_samples_: Iterable = None) -> MonotoneReport:
    """Report whether the one-step map is monotone in the child values.

    Sufficient conditions checked: C * dt < 1 for the declared constant, and
    the jump-monotonicity ratio above -1 on a sampled grid. Comparison-based
    properties of the solvers are only meaningful when this report is clean.
    """
    c_dt = driver.lipschitz_C * tree.dt
    if gamma_samples_ is None:
        times = [tree.time(i) for i in range(max(tree.n_steps, 1))]
        gamma_samples_ = gamma_samples(tree.params, times=times)
    gamma = check_gamma_assumption(driver, gamma_samples_)
    ok = c_dt < 1.0 and gamma.passed
    return MonotoneReport(c_dt=c_dt, c_dt_ok=c_dt < 1.0, gamma=gamma, ok=ok)
