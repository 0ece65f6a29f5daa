"""The backward sweep on the lattice's level rows.

The backward step at a node with child values f is exact in (z, k): the
branch increments make the system

    f_child = e + z * dW_child + k * dM_child

square, so (e, z, k) are solved in closed form and only the value update
y = e + g(t, y, z, k) * dt is implicit. That fixed point is found by
Picard iteration, which contracts whenever C * dt < 1 for the driver's
Lipschitz constant C (in practice the relevant constant is the local
y-sensitivity of g).

``backward_sweep`` runs this step for K sides at once: each level row is a
(K, m) block, side h in block row h, with its own terminal rows, driver
and, on a reflected side, its own barrier. A job's reflected solves share
one such sweep, a step's rows one Picard loop; a single solve is the case
K = 1. Each side's work counts (``SolveStats``) are those of its solve on
its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby

import numpy as np

from .drivers import Driver, split_of
from .market import Tree, row_view

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


def coefficients(branches, child_values, sq: float) -> tuple:
    """Exact (e, z, k) of the one-step representation from child values.

    ``child_values`` is ordered like ``branches`` (up, down[, default]).
    """
    f_u, f_d, *f_j = child_values
    e = branches[0].prob * f_u + branches[1].prob * f_d
    z = (f_u - f_d) / (2.0 * sq)
    if not f_j:
        return e, z, 0.0
    return e + branches[2].prob * f_j[0], z, f_j[0] - 0.5 * (f_u + f_d)


def _picard(segments: list, dt: float, where, first=None) -> np.ndarray:
    """``oracle.implicit_value`` over the flat concatenation of ``segments``, each the
    ``(g, e)`` of a row: a driver's split (y -> g(y)) and the row's flat e. A segment's
    g is called on each iteration while it has an element that has not passed, and each
    element keeps the iterate at which it first passes, so it equals the scalar result.
    Counts iterations in ``first`` if given; ``where(j, residual)`` names a failure."""
    (g, e), *more = segments
    if more:  # (start, end, g) of each segment that has an element left
        ends = list(accumulate(len(e) for _, e in segments))
        live = list(zip([0] + ends, ends, (g for g, _ in segments)))
        e = np.concatenate([e for _, e in segments])
        gy = np.empty_like(e)
    y, out, pending = e, np.empty_like(e), np.ones(e.shape, dtype=bool)
    for _ in range(PICARD_MAX_ITER):
        if first is not None:
            first += pending
        for a, b, g_ab in live if more else ():
            gy[a:b] = g_ab(y[a:b])
        y_new = e + (gy if more else g(y)) * dt
        residual = np.abs(y_new - y)
        passed = (residual <= PICARD_TOL * (1.0 + np.abs(y_new))) & pending
        np.copyto(out, y_new, where=passed)
        pending ^= passed
        if not np.count_nonzero(pending):
            return out
        if more:
            live = [seg for seg in live if np.count_nonzero(pending[seg[0]:seg[1]])]
        y = y_new
    j = int(np.argmax(pending))
    raise ConvergenceError(
        f"implicit step did not converge in {PICARD_MAX_ITER} iterations at "
        f"{where(j, residual[j])}; the time step is too large for the driver's Lipschitz constant")


def _side_stats(K: int, rows: list, binds: list) -> list:
    """``SolveStats`` of each of K sides from the ``(width, first)`` of every
    swept row and, on reflected sides, where the barrier bound. ``first``
    holds the iteration at which each element of the row's (K, m) block
    passed, so each side's counts are read from its block row."""
    widths, firsts = zip(*rows)
    widths = np.array(widths)
    first = np.concatenate([block.reshape(K, -1) for block in firsts], axis=1)
    bound = np.concatenate(binds, axis=1).sum(axis=1) if binds else [0] * K
    row_iters = np.maximum.reduceat(first, np.cumsum(widths) - widths, axis=1)
    nodes = first.shape[1]
    return [SolveStats(nodes, int(top), int(total) / nodes, int(work), int(count))
            for top, total, work, count in zip(first.max(axis=1), first.sum(axis=1),
                                               row_iters @ widths, bound)]


@np.errstate(over="ignore", invalid="ignore")  # float arithmetic, as in a scalar step
def backward_sweep(tree: Tree, sides: list) -> list:
    """Backward solve of K sides together, one level row at a time.

    ``sides`` holds one ``(kind, rows, driver)`` per side: "bsde" (solved
    alone) with rows ending in the terminal rows, or "lower"/"upper" with
    the barrier rows of every step, whose last doubles as the terminal
    condition. A row is solved as a (K, m) block, side h in block row h: the
    children are column slices of the next level's blocks, and each element
    follows the arithmetic of the scalar step exactly, then is reflected from
    below ("lower") or above ("upper") at its side's barrier. Returns one
    ``Solution`` per side, with that side's own work counts. If the sweep
    fails, the sides are swept again one at a time, and a side that fails on
    its own has its error in its place, for ``rbsde.solved`` to raise where
    the side is used; an error that no side meets on its own is raised.
    """
    n, K = tree.n_steps, len(sides)
    kinds = [kind for kind, _, _ in sides]
    reflected = kinds != ["bsde"]
    orient = np.array([[1.0 if kind == "lower" else -1.0] for kind in kinds])
    # (first side, end, split) of each run of adjacent sides with one driver
    ends = list(accumulate(len(list(run)) for _, run in groupby(d for _, _, d in sides)))
    runs = [(a, b, split_of(sides[a][2])) for a, b in zip([0] + ends, ends)]
    zero = np.zeros((K, n + 1))  # k without a default branch, delta_a without reflection
    zero.flags.writeable = False
    y = [None] * n + [tuple(np.array([rows[-1][d] for _, rows, _ in sides]) for d in (0, 1))]
    z, k, da, work, binds = [None] * n, [None] * n, [None] * n, [], []
    try:
        for i in range(n - 1, -1, -1):
            t, blocks = tree.time(i), []  # (d, m, e, z, k) of each row with nodes
            for d, branches in enumerate(tree.row_branches[i]):
                if m := len(tree.s1[i][d]):
                    children = [y[i + 1][dead][:, up:up + m]
                                for _, up, dead in (b.child for b in branches)]
                    e, z_row, k_row = coefficients(branches, children, tree.sq)
                    blocks.append((d, m, e, z_row, zero[:, :m] if len(branches) == 2 else k_row))

            def segments(d, _, e, z_row, k_row):  # each run's split on the row's state
                s1, s2 = tree.s1[i][d], tree.s2[i][d]
                return [(split(t, z_row[a:b].ravel(), k_row[a:b].ravel(), tree.row_state(
                    i, d, np.concatenate([s1] * (b - a)), np.concatenate([s2] * (b - a)))),
                         e[a:b].ravel()) for a, b, split in runs]

            def solve(blocks, first=None):  # the rows of ``blocks`` in one Picard loop
                def where(j, r):  # element j of their segments end to end
                    for d, m, *_ in blocks:
                        if j < K * m:
                            return f"node {(i, j % m, d)} (t={t:.6g}, last residual {r:.3g})"
                        j -= K * m
                return _picard([seg for block in blocks for seg in segments(*block)], tree.dt,
                               where, first)

            # One loop per step, each run of adjacent sides with one driver a segment of each
            # row; if it fails, again a row at a time, so the error is the failing row's own.
            first = np.zeros(K * sum(block[1] for block in blocks), dtype=np.int8)  # for the stats
            try:
                flat = solve(blocks, first)
            except Exception:
                for block in blocks:
                    solve([block])
                raise
            step, at = [(zero[:, :0],) * 4] * 2, 0  # a row without nodes
            for d, m, _, z_row, k_row in blocks:
                y_row = flat[at:at + K * m].reshape(K, m)
                work.append((m, first[at:at + K * m]))
                at += K * m
                da_row = zero[:, :m]
                if reflected:
                    b = np.array([rows[i][d] for _, rows, _ in sides])
                    gap = b - y_row
                    bind = gap * orient > 0.0  # b > y on a lower side, b < y on an upper one
                    da_row = np.where(bind, np.abs(gap), 0.0)
                    y_row = np.where(bind, b, y_row)
                    binds.append(bind)
                step[d] = (y_row, z_row, k_row, da_row)
            y[i], z[i], k[i], da[i] = zip(*step)
    except Exception as exc:  # a driver may fail on one side's values alone
        alone = [exc] if K == 1 else [backward_sweep(tree, [side])[0] for side in sides]
        if not any(isinstance(result, Exception) for result in alone):
            raise
        return alone

    def rows_of(h, blocks):
        return [(alive[h], dead[h]) for alive, dead in blocks]

    return [Solution(tree=tree, driver=driver, kind=kind, y_rows=rows_of(h, y),
                     z_rows=rows_of(h, z), k_rows=rows_of(h, k), da_rows=rows_of(h, da),
                     stats=stats)
            for h, ((kind, _, driver), stats) in enumerate(zip(sides, _side_stats(K, work, binds)))]
