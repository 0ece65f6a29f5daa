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

from .drivers import Driver
from .market import NodeId, NodeState, Tree, row_view

PICARD_TOL = 1e-12
PICARD_MAX_ITER = 50


class ConvergenceError(RuntimeError):
    """The implicit value update failed to converge (dt too large for C)."""


@dataclass(frozen=True)
class SolveStats:
    """Work of one backward solve, counted on its rows; never part of a report.

    ``nodes`` is the number of non-terminal nodes swept, ``picard_max`` and
    ``picard_mean`` the Picard iterations per node (up to the iterate that
    first passed the stopping test), ``driver_evals`` the elements handed to
    the driver (a row is evaluated whole until its last element passes) and
    ``bound`` the number of nodes where the obstacle binds (delta_a > 0).
    """

    nodes: int
    picard_max: int
    picard_mean: float
    driver_evals: int
    bound: int


@dataclass(eq=False)
class Solution:
    """Level rows of a backward solve: y at every step, z, k (0 without a
    default branch) and the outgoing reflection charge delta_a below the
    last. Their node views are built on first read; delta_a is identically
    zero for plain (non-reflected) solves.
    """

    tree: Tree
    driver: Driver
    kind: str  # "bsde" | "lower" | "upper"
    y_rows: list
    z_rows: list
    k_rows: list
    da_rows: list
    stats: SolveStats

    y = row_view("y_rows", backward=True)
    z = row_view("z_rows", backward=True)
    k = row_view("k_rows", backward=True)
    delta_a = row_view("da_rows", backward=True)

    @property
    def root_value(self) -> float:
        return float(self.y_rows[0][0][0])


def cumulative_charge(tree: Tree, delta_a: Mapping, stop: Mapping = None) -> dict:
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
                   z: float, k: float) -> float:
    """Solve y = e + g(t, y, z, k) * dt by Picard iteration.

    The stopping test is scale aware (PICARD_TOL * (1 + |y|)): below one unit in
    the last place an absolute test can alternate between adjacent floats
    forever at large value scales.
    """
    t = state.t
    y = e
    for _ in range(PICARD_MAX_ITER):
        y_new = e + driver.eval(t, y, z, k, state) * dt
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
    y = implicit_value(driver, tree.state(node), tree.dt, e, z, k)
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


def _implicit_row(driver: Driver, state: NodeState, dt: float, e, z, k,
                  row: tuple) -> tuple:
    """``implicit_value`` over the row ``(step, defaulted)``; each element
    keeps the iterate at which it first passes the stopping test, so it
    equals the scalar result. Also counts the iterations (max and sum)."""
    y = e
    out = np.empty_like(e)
    done = np.zeros(e.shape, dtype=bool)
    pending, total = e.size, 0
    for it in range(1, PICARD_MAX_ITER + 1):
        total += pending
        y_new = e + driver.eval(state.t, y, z, k, state) * dt
        residual = np.abs(y_new - y)
        passed = residual <= PICARD_TOL * (1.0 + np.abs(y_new))
        np.copyto(out, y_new, where=passed & ~done)
        done |= passed
        pending = e.size - int(np.count_nonzero(done))
        if not pending:
            return out, it, total
        y = y_new
    j = int(np.argmin(done))
    raise ConvergenceError(
        f"implicit step did not converge in {PICARD_MAX_ITER} iterations at node "
        f"{(row[0], j, row[1])} (t={state.t:.6g}, last residual {residual[j]:.3g}); "
        "the time step is too large for the driver's Lipschitz constant")


@np.errstate(over="ignore", invalid="ignore")  # float arithmetic, as in one_step
def backward_sweep(tree: Tree, driver: Driver, terminal: tuple,
                   barrier: list = None, side: str = "lower") -> Solution:
    """Backward solve one level row at a time from the terminal rows.

    The children of a row are slices of the next level's rows, and each
    element follows the arithmetic of ``one_step`` exactly. With ``barrier``
    rows the continuation is reflected from below (``side`` "lower") or
    above ("upper") and ``da_rows`` holds the charges.
    """
    n = tree.n_steps
    y, z, k, da = [None] * n + [terminal], [None] * n, [None] * n, [None] * n
    nodes = picard_max = picard_sum = evals = bound = 0
    for i in range(n - 1, -1, -1):
        out = []
        for d, branches in enumerate(tree.row_branches[i]):
            s1, m = tree.s1[i][d], len(tree.s1[i][d])
            if not m:
                out.append((np.empty(0),) * 4)
                continue
            children = [y[i + 1][dead][up:up + m] for _, up, dead in (b.child for b in branches)]
            e, z_row, k_row = coefficients(branches, children, tree.sq)
            k_row = np.broadcast_to(k_row, e.shape)
            state = tree.row_state(i, d, s1, tree.s2[i][d])
            y_row, iters, total = _implicit_row(driver, state, tree.dt, e, z_row, k_row, (i, d))
            nodes, picard_sum, evals = nodes + m, picard_sum + total, evals + iters * m
            picard_max = max(picard_max, iters)
            da_row = np.zeros(m)
            if barrier is not None:
                b = barrier[i][d]
                bind = b > y_row if side == "lower" else b < y_row
                da_row = np.where(bind, np.abs(b - y_row), 0.0)
                y_row = np.where(bind, b, y_row)
                bound += int(np.count_nonzero(bind))
            out.append((y_row, z_row, k_row, da_row))
        y[i], z[i], k[i], da[i] = zip(*out)
    stats = SolveStats(nodes, picard_max, picard_sum / nodes if nodes else 0.0, evals, bound)
    return Solution(tree=tree, driver=driver, kind="bsde" if barrier is None else side,
                    y_rows=y, z_rows=z, k_rows=k, da_rows=da, stats=stats)


def solve_bsde(tree: Tree, driver: Driver, terminal) -> Solution:
    """Backward solve with a terminal condition and no reflection.

    ``terminal`` maps terminal nodes to values (a dict, or any object with a
    ``values`` mapping covering the last level).
    """
    values = _values_on(terminal, tree.terminal_nodes())
    return backward_sweep(tree, driver, tree.level_rows(values, tree.n_steps))


def g_evaluation(tree: Tree, driver: Driver, rule, payoff) -> float:
    """Root value of the payoff collected at an adapted stopping rule.

    The rule is a per-node boolean flag (anything with a ``stop`` mapping,
    or the mapping itself); adaptedness is structural since flags are
    functions of the node alone. Every terminal node must be flagged.
    At stopped nodes the value is the payoff; elsewhere it is the backward
    step through the children.
    """
    stops = getattr(rule, "stop", rule)
    pay = _values_on(payoff, tree.nodes)
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
                w[node], _, _ = one_step(tree, driver, node, w)
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

