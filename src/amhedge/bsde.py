"""The backward sweep on the lattice's row-order arrays.

The backward step at a node with child values f is exact in (z, k): the
branch increments make the system

    f_child = e + z * dW_child + k * dM_child

square, so (e, z, k) are solved in closed form and only the value update
y = e + g(t, y, z, k) * dt is implicit. That fixed point is found by
Picard iteration, which contracts whenever C * dt < 1 for the driver's
Lipschitz constant C (in practice the relevant constant is the local
y-sensitivity of g).

``backward_sweep`` runs this step for K sides at once on (K, N) arrays in
the tree's row order, side h in row h, each side with its own terminal rows,
driver and, on a reflected side, its own barrier. A level row and its
children are column slices, and results are written in place. A job's
reflected solves share one such sweep, a step's rows one Picard loop; a
single solve is the case K = 1. Each side's work counts (``SolveStats``) are
those of its solve on its own.
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
    """A backward solve in the tree's row order: y at every node, z, k (0
    without a default branch) and the outgoing reflection charge delta_a below
    the last step (0 on the terminal rows), each a row of the sweep's (K, N)
    array, which it keeps alive. Their node views are built on first read;
    delta_a is identically zero for plain (non-reflected) solves.
    """

    tree: Tree
    driver: Driver
    kind: str  # "bsde" | "lower" | "upper"
    y_rows: np.ndarray
    z_rows: np.ndarray
    k_rows: np.ndarray
    da_rows: np.ndarray
    stats: SolveStats

    y = row_view("y_rows", backward=True)
    z = row_view("z_rows", backward=True, terminal=False)
    k = row_view("k_rows", backward=True, terminal=False)
    delta_a = row_view("da_rows", backward=True, terminal=False)

    @property
    def root_value(self) -> float:
        return float(self.y_rows[0])


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


def _side_stats(starts: np.ndarray, first: np.ndarray, da: np.ndarray) -> list:
    """``SolveStats`` of each of K sides from ``first``, the (K, nodes below the
    last step) iterations at which each element passed, and the charges ``da``:
    a row's driver evaluations are its width times its slowest element's count."""
    widths = np.diff(starts[:-2])
    swept = widths > 0
    row_iters = np.maximum.reduceat(first, starts[:-3][swept], axis=1)
    nodes = first.shape[1]
    return [SolveStats(nodes, int(top), int(total) / nodes, int(work), int(count))
            for top, total, work, count in zip(first.max(axis=1), first.sum(axis=1),
                                               row_iters @ widths[swept],
                                               np.count_nonzero(da > 0.0, axis=1))]


@np.errstate(over="ignore", invalid="ignore")  # float arithmetic, as in a scalar step
def backward_sweep(tree: Tree, sides: list) -> list:
    """Backward solve of K sides together, one level row at a time.

    ``sides`` holds one ``(kind, rows, driver)`` per side, ``rows`` a row-order
    array: "bsde" (solved alone), of which only the terminal rows are read, or
    "lower"/"upper", the barrier at every node, whose terminal rows double as
    the terminal condition. The results are (K, N) arrays in row order, side h
    in row h, written in place: a level row is a column slice, its children
    are column slices of the next level's rows, and each element follows the
    arithmetic of the scalar step exactly, then is reflected from below
    ("lower") or above ("upper") at its side's barrier.
    Returns one ``Solution`` per side, with that side's own work counts. If
    the sweep fails, the sides are swept again one at a time, and a side that
    fails on its own has its error in its place, for ``rbsde.solved`` to raise
    where the side is used; an error that no side meets on its own is raised.
    """
    n, K, starts = tree.n_steps, len(sides), tree.starts.tolist()
    kinds = [kind for kind, _, _ in sides]
    reflected = kinds != ["bsde"]
    orient = np.array([[1.0 if kind == "lower" else -1.0] for kind in kinds])
    # (first side, end, split) of each run of adjacent sides with one driver
    ends = list(accumulate(len(list(run)) for _, run in groupby(d for _, _, d in sides)))
    runs = [(a, b, split_of(sides[a][2])) for a, b in zip([0] + ends, ends)]
    y, (z, k, da) = np.empty((K, starts[-1])), (np.zeros((K, starts[-1])) for _ in range(3))
    y[:, starts[-3]:] = [rows[starts[-3]:] for _, rows, _ in sides]
    first = np.zeros((K, starts[-3]), dtype=np.int8)  # for the stats
    try:
        for i in range(n - 1, -1, -1):
            t, blocks = tree.time(i), []  # (d, row slice, e) of each row with nodes
            for d, branches in enumerate(tree.row_branches[i]):
                row = slice(starts[2 * i + d], starts[2 * i + d + 1])
                if m := row.stop - row.start:
                    children = [y[:, c:c + m] for c in (starts[2 * i + 2 + b.child[2]] + b.child[1]
                                                        for b in branches)]
                    e, z[:, row], k_row = coefficients(branches, children, tree.sq)
                    if len(branches) == 3:
                        k[:, row] = k_row
                    blocks.append((d, row, e))

            def segments(d, row, e):  # each run's split on the row's state, once per side
                return [(split(t, z[a:b, row].ravel(), k[a:b, row].ravel(), tree.row_state(
                    i, d, np.tile(tree.s1[row], b - a), np.tile(tree.s2[row], b - a))),
                         e[a:b].ravel()) for a, b, split in runs]

            def solve(blocks, first=None):  # the rows of ``blocks`` in one Picard loop
                def where(j, r):  # element j of their segments end to end
                    for d, row, _ in blocks:
                        m = row.stop - row.start
                        if j < K * m:
                            return f"node {(i, j % m, d)} (t={t:.6g}, last residual {r:.3g})"
                        j -= K * m
                return _picard([seg for block in blocks for seg in segments(*block)], tree.dt,
                               where, first)

            # One loop per step, each run of adjacent sides with one driver a segment of each
            # row; if it fails, again a row at a time, so the error is the failing row's own.
            count = np.zeros(K * (starts[2 * i + 2] - starts[2 * i]), dtype=np.int8)
            try:
                flat = solve(blocks, count)
            except Exception:
                for block in blocks:
                    solve([block])
                raise
            at = 0
            for _, row, _ in blocks:
                m = row.stop - row.start
                first[:, row] = count[at:at + K * m].reshape(K, m)
                y_row = flat[at:at + K * m].reshape(K, m)
                at += K * m
                if reflected:
                    b = np.array([rows[row] for _, rows, _ in sides])
                    gap = b - y_row
                    bind = gap * orient > 0.0  # b > y on a lower side, b < y on an upper one
                    da[:, row] = np.where(bind, np.abs(gap), 0.0)
                    y_row = np.where(bind, b, y_row)
                y[:, row] = y_row
    except Exception as exc:  # a driver may fail on one side's values alone
        alone = [exc] if K == 1 else [backward_sweep(tree, [side])[0] for side in sides]
        if not any(isinstance(result, Exception) for result in alone):
            raise
        return alone

    return [Solution(tree=tree, driver=driver, kind=kind, y_rows=y[h], z_rows=z[h],
                     k_rows=k[h], da_rows=da[h], stats=stats)
            for h, ((kind, _, driver), stats) in enumerate(
                zip(sides, _side_stats(tree.starts, first, da[:, :starts[-3]])))]
