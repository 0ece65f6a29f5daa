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
from typing import Callable, Mapping

from .bsde import PICARD_TOL, Solution, backward_sweep
from .drivers import Driver
from .market import Tree


@dataclass
class Obstacle:
    """Per-node payoff values; the terminal row doubles as the terminal condition."""

    values: dict

    @classmethod
    def from_payoff(cls, tree: Tree, payoff: Callable) -> "Obstacle":
        """Evaluate a payoff map (t, s1, s2, defaulted) -> value at every node."""
        values = {}
        for node, data in tree.nodes.items():
            values[node] = float(payoff(tree.time(node[0]), data.s1, data.s2,
                                        data.defaulted))
        return cls(values=values)


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


def _solve_reflected(tree: Tree, driver: Driver, obstacle: Obstacle,
                     side: str, tol: float) -> Solution:
    barrier = obstacle.values
    terminal = {node: float(barrier[node]) for node in tree.terminal_nodes()}
    y, z, k, delta_a = backward_sweep(tree, driver, terminal, tol, barrier, side)
    return Solution(tree=tree, driver=driver, kind=side, y=y, z=z, k=k,
                    delta_a=delta_a, a=cumulative_charge(tree, delta_a))


def solve_rbsde_lower(tree: Tree, driver: Driver, obstacle: Obstacle,
                      tol: float = PICARD_TOL) -> Solution:
    """Solve with a lower barrier: y = max(obstacle, continuation).

    The charge delta_a = y - continuation is nonnegative and strictly
    positive only at nodes where y equals the obstacle, so the discrete
    flatness product delta_a * (y - obstacle) vanishes identically.
    """
    return _solve_reflected(tree, driver, obstacle, "lower", tol)


def solve_rbsde_upper(tree: Tree, driver: Driver, obstacle_upper: Obstacle,
                      tol: float = PICARD_TOL) -> Solution:
    """Solve with an upper barrier: y = min(obstacle_upper, continuation)."""
    return _solve_reflected(tree, driver, obstacle_upper, "upper", tol)


def skorokhod_residual(solution: Solution, obstacle: Obstacle,
                       side: str = None) -> float:
    """Largest flatness product |y - barrier| * delta_a over all nodes.

    Zero by construction for solver output; a corrupted solution charging
    off the barrier shows up as a positive residual.
    """
    side = side or solution.kind
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    worst = 0.0
    for node, da in solution.delta_a.items():
        gap = abs(solution.y[node] - obstacle.values[node])
        worst = max(worst, gap * da)
    return worst
