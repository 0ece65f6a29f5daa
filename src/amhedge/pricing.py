"""Seller and buyer superhedging prices, strategies and exercise rules.

The seller's price is the root value of the lower-reflected solve and the
buyer's price the negated root value of the upper-reflected solve against
the negated payoff. Portfolio positions are read off the martingale
coefficients through the bijection

    phi2 = -k,    phi1 = (z + sigma2 * k) / sigma1,

whose inverse is k = -phi2, z = phi1 * sigma1 + phi2 * sigma2. Exercise
rules are per-node boolean flags, adapted by construction and absorbing by
convention (flags below a stopped node are never consulted).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bsde import Solution
from .drivers import Driver, check_gamma_assumption, gamma_rows, piece_steps
from .market import NodeId, Tree, locate, row_view
from .oracle import g_evaluation
# solve_rbsde_lower and _upper stay names of this module: the benchmark's tracer wraps them.
from .rbsde import (Obstacle, StoppingRule, solve_rbsde_lower, solve_rbsde_upper,  # noqa: F401
                    solve_reflected, solved)

# Equality of the value and the obstacle is scale aware; the cumulative
# charge is compared against an absolute floor.
EQUALITY_RTOL = 1e-10
A_ZERO_TOL = 1e-12
INTERVAL_TOL = 1e-10


@dataclass(eq=False)
class Strategy:
    """Amounts held in the two risky assets in the row order of one tree, at
    the nodes below the last step (0 on the terminal rows), with the node
    dicts built on first read."""

    tree: Tree
    phi1_rows: np.ndarray
    phi2_rows: np.ndarray

    phi1 = row_view("phi1_rows", backward=True, terminal=False)
    phi2 = row_view("phi2_rows", backward=True, terminal=False)


def _rule(tree: Tree, flag, *arrays) -> StoppingRule:
    """Rule stopping where ``flag`` holds elementwise on the row-order ``arrays``
    at the steps below n; terminal nodes stop."""
    stop = flag(*arrays)
    stop[tree.starts[-3]:] = True
    return StoppingRule(tree, stop)


class SellerPrice(NamedTuple):
    u0: float
    solution: Solution
    strategy: Strategy


class BuyerPrice(NamedTuple):
    v0: float
    solution: Solution
    strategy: Strategy
    exercise: StoppingRule


@dataclass
class RationalityReport:
    ok: bool
    witness: NodeId = None
    reason: str = ""


@dataclass
class PricingReport:
    """Everything the front door returns for one configuration: both prices
    with their solves, strategies and the buyer's exercise, and the rational
    exercise rules of the seller's solve."""

    seller: SellerPrice
    buyer: BuyerPrice
    nu_star: StoppingRule
    nu_bar: StoppingRule
    interval_ok: bool


def phi_map(z: float, k: float, sigma1: float, sigma2: float) -> tuple:
    """Positions (phi1, phi2) carried by martingale coefficients (z, k)."""
    if sigma1 <= 0.0:
        raise ValueError("sigma1 must be positive")
    return ((z + sigma2 * k) / sigma1, -k)


def phi_inverse(phi1: float, phi2: float, sigma1: float, sigma2: float) -> tuple:
    """Martingale coefficients (z, k) carried by positions (phi1, phi2)."""
    if sigma1 <= 0.0:
        raise ValueError("sigma1 must be positive")
    return (phi1 * sigma1 + phi2 * sigma2, -phi2)


def strategy_from_solution(solution: Solution) -> Strategy:
    """Apply the position map to z and k, a step at a time with its volatilities."""
    tree, starts = solution.tree, solution.tree.starts.tolist()
    phi1, phi2 = np.zeros(len(tree.s1)), np.zeros(len(tree.s1))
    for i, c in enumerate(tree.coef[:-1]):
        at = slice(starts[2 * i], starts[2 * i + 2])  # the step's two rows
        phi1[at], phi2[at] = phi_map(solution.z_rows[at], solution.k_rows[at], c.sigma1, c.sigma2)
    return Strategy(tree, phi1, phi2)


def _require_gamma(tree: Tree, driver: Driver) -> None:
    # Sample out to the price scale: a driver whose jump sensitivity is
    # state dependent can satisfy the floor near the origin yet breach it
    # at the wealth and exposure levels the solver actually visits.
    scale = 1.0 + max(abs(tree.params.s1_0), abs(tree.params.s2_0))
    points = (-scale, -1.0, 0.0, 1.0, scale)
    samples = gamma_rows(tree.params, steps=piece_steps(tree, driver), ys=points, zs=points,
                         ks=points)
    report = check_gamma_assumption(driver, samples)
    if not report.passed:
        raise ValueError(
            f"driver {driver.name!r} fails the jump-monotonicity check "
            f"(min sampled ratio {report.min_ratio:.6g} <= -1)")


def _negated(obstacle: Obstacle) -> Obstacle:
    return Obstacle(obstacle.tree, -obstacle.rows)


def seller_of(solution: Solution) -> SellerPrice:
    """The seller's price and positions from the lower-reflected solve."""
    return SellerPrice(solution.root_value, solution, strategy_from_solution(solution))


def buyer_of(solution: Solution, obstacle: Obstacle) -> BuyerPrice:
    """The buyer's price, positions and exercise rule from the upper-reflected solve
    against the negated ``obstacle``."""
    return BuyerPrice(-solution.root_value, solution, strategy_from_solution(solution),
                      _rule(solution.tree, lambda y, xi: y == -xi, solution.y_rows, obstacle.rows))


def seller_price(tree: Tree, driver: Driver, obstacle: Obstacle,
                 gamma_check: bool = True) -> SellerPrice:
    """Least initial capital with a portfolio dominating the payoff throughout.

    Returns the root value of the lower-reflected solve together with the
    solution and the superhedging positions.
    """
    return seller_of(solved(solve_prices(tree, driver, obstacle, gamma_check, ("lower",))[0]))


def buyer_price(tree: Tree, driver: Driver, obstacle: Obstacle,
                gamma_check: bool = True) -> BuyerPrice:
    """Largest price the buyer can finance by borrowing and exercising well.

    Solves against the upper barrier given by the negated payoff; the
    exercise rule stops at the first node where the solution sits on that
    barrier (equality there is structural, so it is tested exactly).
    """
    return buyer_of(solved(solve_prices(tree, driver, obstacle, gamma_check, ("upper",))[0]),
                    obstacle)


def rational_exercise_times(solution: Solution, obstacle: Obstacle) -> tuple:
    """Earliest and latest exercise rules that lose nothing.

    The early rule stops where the value first touches the payoff; the late
    rule stops at the first node whose outgoing charge is positive (the
    cumulative charge is then still zero on arrival, counting strictly
    earlier increments). Terminal nodes always stop.
    """
    tree = solution.tree
    return (_rule(tree, operator.eq, solution.y_rows, obstacle.rows),
            _rule(tree, lambda da: da > 0.0, solution.da_rows))


@np.errstate(over="ignore", invalid="ignore")  # float arithmetic, as in a scalar walk
def is_rational(solution: Solution, obstacle: Obstacle, rule: StoppingRule) -> RationalityReport:
    """Check that a rule stops only on the payoff and before any charge.

    Walks the level rows forward, carrying which nodes the rule reaches and
    the largest charge accrued before arrival over the incoming paths; the
    children of a row are slices of the next level's rows. At each reached
    stop the value must equal the payoff within a scale-aware tolerance and
    the charge on arrival must be zero within an absolute floor; a reached
    terminal node must stop. The first violating node in level order (the
    row order) is returned as a witness.
    """
    tree, starts = solution.tree, solution.tree.starts.tolist()
    reached, a_in = np.zeros(len(tree.s1), dtype=bool), np.zeros(len(tree.s1))
    reached[0] = True
    # Each child takes the first arrival in level order, then any strictly larger one.
    for i in range(tree.n_steps):
        for d, branches in enumerate(tree.row_branches[i]):
            row = slice(starts[2 * i + d], starts[2 * i + d + 1])
            go, incoming = reached[row] & ~rule.rows[row], a_in[row] + solution.da_rows[row]
            for _, up, dead in (b.child for b in branches):
                c = starts[2 * i + 2 + dead] + up
                seen, a = reached[c:c + len(go)], a_in[c:c + len(go)]
                take = go & (~seen | (incoming > a))
                a[take] = incoming[take]
                seen |= go
    gap = solution.y_rows - obstacle.rows
    off = np.abs(gap) > EQUALITY_RTOL * (1.0 + np.abs(obstacle.rows))
    terminal = np.arange(len(gap)) >= starts[-3]
    bad = reached & np.where(rule.rows, off | (a_in > A_ZERO_TOL), terminal)
    if not bad.any():
        return RationalityReport(ok=True)
    at = int(bad.argmax())
    row, up = map(int, locate(tree.starts, at))
    reason = ("rule does not stop at the terminal step" if not rule.rows[at]
              else f"value off the payoff by {gap[at]:.3g}" if off[at]
              else f"cumulative charge {a_in[at]:.3g} on arrival")
    return RationalityReport(ok=False, witness=(row >> 1, up, row & 1), reason=reason)


def epsilon_rational(solution: Solution, obstacle: Obstacle, eps: float) -> tuple:
    """Rule stopping as soon as the value is within eps of the payoff.

    Returns the rule and the root value it gives up relative to the optimal
    one. The gap is bounded by exp(C * (1 + C) * T) * eps for the driver's
    declared constant C; see ``epsilon_gap_bound``.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    tree = solution.tree
    rule = _rule(tree, lambda y, b: y <= b + eps, solution.y_rows, obstacle.rows)
    value = g_evaluation(tree, solution.driver, rule, obstacle)
    return rule, solution.root_value - value


def epsilon_gap_bound(driver: Driver, T: float, eps: float) -> float:
    """Guaranteed bound on the value given up by the eps-triggered rule."""
    c = driver.lipschitz_C
    return math.exp(c * (1.0 + c) * T) * eps


def solve_prices(tree: Tree, driver: Driver, obstacle: Obstacle, gamma_check: bool = True,
                 kinds=("lower", "upper"), shifted: Driver = None) -> list:
    """After the precheck, one sweep of the seller's ("lower") and the buyer's ("upper")
    solves of ``kinds``, then the seller's under ``shifted`` if given: each side's
    solution, or the error of its solve on its own, which ``rbsde.solved`` raises."""
    if gamma_check:
        _require_gamma(tree, driver)
    sides = [(obstacle if kind == "lower" else _negated(obstacle), kind) for kind in kinds]
    return solve_reflected(tree, driver, sides + [(obstacle, "lower", shifted)] * bool(shifted))


def report_of(seller: SellerPrice, buyer: BuyerPrice, obstacle: Obstacle) -> PricingReport:
    """Both prices with the rational exercise rules of the seller's solve."""
    nu_star, nu_bar = rational_exercise_times(seller.solution, obstacle)
    return PricingReport(seller=seller, buyer=buyer, nu_star=nu_star, nu_bar=nu_bar,
                         interval_ok=buyer.v0 <= seller.u0 + INTERVAL_TOL)


def price_american(tree: Tree, driver: Driver, obstacle: Obstacle,
                   gamma_check: bool = True) -> PricingReport:
    """Full pricing pass: both prices, both strategies, exercise rules.

    The seller's and the buyer's reflected solves share one backward sweep;
    each equals its standalone solve, and a failure raises the error of the
    seller's solve, else the buyer's, as ``seller_price`` then
    ``buyer_price`` would.
    """
    lower, upper = map(solved, solve_prices(tree, driver, obstacle, gamma_check))
    return report_of(seller_of(lower), buyer_of(upper, obstacle), obstacle)
