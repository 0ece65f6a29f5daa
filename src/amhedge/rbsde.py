"""Reflected backward solves against lower and upper obstacles.

The reflection is applied after the implicit value update: the
continuation value is solved with the driver first and then clipped at
the obstacle, so the per-node charge delta_a is nonnegative by
construction and charges only where the solution sits exactly on the
obstacle. On a grid the nondecreasing process cannot distinguish a
predictable jump from a continuous increase, so a single per-step charge
carries both; its flatness off the obstacle is the testable rendering of
the minimality condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from typing import Callable

import numpy as np

from .bsde import Solution, backward_sweep
from .drivers import Driver
from .market import Tree


@dataclass(eq=False)
class Obstacle:
    """Payoff values of one tree in its row order (``Tree.starts``), at every
    node; the terminal rows double as the terminal condition."""

    tree: Tree
    rows: np.ndarray

    @classmethod
    def from_payoff(cls, tree: Tree, payoff: Callable) -> "Obstacle":
        """Evaluate a payoff map (t, s1, s2, defaulted) -> value at every node in
        node order, a whole row per call through its ``row`` form if it has one."""
        row = getattr(payoff, "row", None) or (lambda t, s1, s2, d: np.array(
            [float(payoff(t, x1, x2, d)) for x1, x2 in zip(s1.tolist(), s2.tolist())]))
        values = np.empty(len(tree.s1))
        for r, (a, b) in enumerate(pairwise(tree.starts.tolist())):  # r = 2 * step + defaulted
            values[a:b] = row(tree.time(r >> 1), tree.s1[a:b], tree.s2[a:b], bool(r & 1))
        return cls(tree, values)


@dataclass(eq=False)
class StoppingRule:
    """Stop flags of one tree in its row order, at every node; descendants of
    a stopped node are irrelevant."""

    tree: Tree
    rows: np.ndarray


def solve_reflected(tree: Tree, driver: Driver, sides: list) -> list:
    """Reflected solves against each ``(obstacle, side)`` ("lower" or "upper") of ``sides``
    under ``driver``, or ``(obstacle, side, own driver)``, all in one backward sweep; one
    solution per side, each equal to its solve on its own (see ``backward_sweep``)."""
    if any(obstacle.tree is not tree for obstacle, *_ in sides):
        raise ValueError("the obstacle's rows belong to another tree")
    return backward_sweep(tree, [(side, obstacle.rows, own[0] if own else driver)
                                 for obstacle, side, *own in sides])


def solved(result) -> Solution:
    """A side's entry of a backward sweep: its solution, or its error raised."""
    if isinstance(result, Exception):
        raise result
    return result


def solve_rbsde_lower(tree: Tree, driver: Driver, obstacle: Obstacle) -> Solution:
    """Solve with a lower barrier: y = max(obstacle, continuation).

    The charge delta_a = y - continuation is nonnegative and strictly
    positive only at nodes where y equals the obstacle, so the discrete
    flatness product delta_a * (y - obstacle) vanishes identically.
    """
    return solved(solve_reflected(tree, driver, [(obstacle, "lower")])[0])


def solve_rbsde_upper(tree: Tree, driver: Driver, obstacle_upper: Obstacle) -> Solution:
    """Solve with an upper barrier: y = min(obstacle_upper, continuation)."""
    return solved(solve_reflected(tree, driver, [(obstacle_upper, "upper")])[0])


def skorokhod_residual(solution: Solution, obstacle: Obstacle) -> float:
    """Largest flatness product |y - barrier| * delta_a over all nodes of a
    reflected solve (either side).

    Zero by construction for solver output; a corrupted solution charging
    off the barrier shows up as a positive residual.
    """
    if solution.kind not in ("lower", "upper"):
        raise ValueError(f"solution must be reflected ('lower' or 'upper'), got {solution.kind!r}")
    # fmax skips NaN; the terminal rows add nothing, their charge being 0.
    return float(np.fmax.reduce(np.abs(solution.y_rows - obstacle.rows) * solution.da_rows,
                                initial=0.0))
