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
from typing import Callable

import numpy as np

from .bsde import Solution, backward_sweep
from .drivers import Driver
from .market import Tree, row_view


@dataclass(eq=False)
class Obstacle:
    """Payoff values as the (alive, defaulted) level rows of every step of
    one tree; the terminal rows double as the terminal condition. The node
    dict ``values`` is built on first read."""

    tree: Tree
    rows: list

    values = row_view("rows")

    @classmethod
    def from_payoff(cls, tree: Tree, payoff: Callable) -> "Obstacle":
        """Evaluate a payoff map (t, s1, s2, defaulted) -> value at every node in
        node order, a whole row per call through its ``row`` form if it has one."""
        row = getattr(payoff, "row", None) or (lambda t, s1, s2, d: np.array(
            [float(payoff(t, x1, x2, d)) for x1, x2 in zip(s1.tolist(), s2.tolist())]))
        return cls(tree, [tuple(row(tree.time(i), s1[d], s2[d], bool(d)) for d in (0, 1))
                          for i, (s1, s2) in enumerate(zip(tree.s1, tree.s2))])


@dataclass(eq=False)
class StoppingRule:
    """Stop flags as level rows of every step of one tree, with the node dict
    built on first read; descendants of a stopped node are irrelevant."""

    tree: Tree
    rows: list

    stop = row_view("rows")


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
    worst = 0.0
    for y, da, xi in zip(solution.y_rows, solution.da_rows, obstacle.rows):
        for y_d, da_d, xi_d in zip(y, da, xi):
            worst = np.fmax.reduce(np.abs(y_d - xi_d) * da_d, initial=worst)  # skips NaN
    return float(worst)
