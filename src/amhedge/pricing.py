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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bsde import Solution, cumulative_charge, g_evaluation
from .drivers import Driver, check_gamma_assumption, gamma_rows
from .market import NodeId, Tree, row_view
from .rbsde import Obstacle, solve_rbsde_lower, solve_rbsde_upper

# Equality of the value and the obstacle is scale aware; the cumulative
# charge is compared against an absolute floor.
EQUALITY_RTOL = 1e-10
A_ZERO_TOL = 1e-12
INTERVAL_TOL = 1e-10


class Strategy:
    """Per-node amounts held in the two risky assets: level rows below the
    last step with the dicts built on first read, or dicts whose rows are
    derived once per tree."""

    def __init__(self, phi1: dict = None, phi2: dict = None, *, tree: Tree = None,
                 phi1_rows: list = None, phi2_rows: list = None):
        if phi1 is not None:
            self.phi1, self.phi2 = phi1, phi2
        self.tree, self.phi1_rows, self.phi2_rows = tree, phi1_rows, phi2_rows

    phi1 = row_view("phi1_rows", backward=True)
    phi2 = row_view("phi2_rows", backward=True)

    def rows(self, tree: Tree) -> tuple:
        """The (phi1, phi2) level rows of the steps below n of ``tree``."""
        if self.tree is not tree:
            self.phi1_rows, self.phi2_rows = ([tree.level_rows(phi, i) for i in range(tree.n_steps)]
                                              for phi in (self.phi1, self.phi2))
            self.tree = tree
        return self.phi1_rows, self.phi2_rows


class StoppingRule:
    """Per-node stop flag; descendants of a stopped node are irrelevant.
    A dict, or level rows with the dict built on first read."""

    def __init__(self, stop: dict = None, *, tree: Tree = None, rows: list = None):
        if stop is not None:
            self.stop = stop
        self.tree, self.rows = tree, rows

    stop = row_view("rows")


def _rule(tree: Tree, rows: list) -> StoppingRule:
    """Rule from the flag rows of the steps below n; terminal nodes stop."""
    return StoppingRule(tree=tree, rows=[*rows, tuple(np.ones(len(row), dtype=bool)
                                                      for row in tree.s1[-1])])


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
    """Everything the front door returns for one configuration, with both solves."""

    u0: float
    v0: float
    seller_strategy: Strategy
    buyer_strategy: Strategy
    buyer_exercise: StoppingRule
    nu_star: StoppingRule
    nu_bar: StoppingRule
    interval_ok: bool
    seller: SellerPrice
    buyer: BuyerPrice


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
    """Apply the position map to the (z, k) rows with each step's volatilities."""
    tree = solution.tree
    phi1, phi2 = [], []
    for z, k, c in zip(solution.z_rows, solution.k_rows, tree.coef):
        phi1.append(tuple((z_d + c.sigma2 * k_d) / c.sigma1 for z_d, k_d in zip(z, k)))  # phi_map
        phi2.append(tuple(-k_d for k_d in k))
    return Strategy(tree=tree, phi1_rows=phi1, phi2_rows=phi2)


def _require_gamma(tree: Tree, driver: Driver) -> None:
    # Sample out to the price scale: a driver whose jump sensitivity is
    # state dependent can satisfy the floor near the origin yet breach it
    # at the wealth and exposure levels the solver actually visits.
    times = [tree.time(i) for i in range(max(tree.n_steps, 1))]
    scale = 1.0 + max(abs(tree.params.s1_0), abs(tree.params.s2_0))
    points = (-scale, -1.0, 0.0, 1.0, scale)
    samples = gamma_rows(tree.params, times=times, ys=points, zs=points, ks=points)
    report = check_gamma_assumption(driver, samples)
    if not report.passed:
        raise ValueError(
            f"driver {driver.name!r} fails the jump-monotonicity check "
            f"(min sampled ratio {report.min_ratio:.6g} <= -1)")


def seller_price(tree: Tree, driver: Driver, obstacle: Obstacle,
                 gamma_check: bool = True) -> SellerPrice:
    """Least initial capital with a portfolio dominating the payoff throughout.

    Returns the root value of the lower-reflected solve together with the
    solution and the superhedging positions.
    """
    if gamma_check:
        _require_gamma(tree, driver)
    solution = solve_rbsde_lower(tree, driver, obstacle)
    return SellerPrice(u0=solution.root_value, solution=solution,
                       strategy=strategy_from_solution(solution))


def buyer_price(tree: Tree, driver: Driver, obstacle: Obstacle,
                gamma_check: bool = True) -> BuyerPrice:
    """Largest price the buyer can finance by borrowing and exercising well.

    Solves against the upper barrier given by the negated payoff; the
    exercise rule stops at the first node where the solution sits on that
    barrier (equality there is structural, so it is tested exactly).
    """
    if gamma_check:
        _require_gamma(tree, driver)
    upper = Obstacle(tree=tree, rows=[(-a, -d) for a, d in obstacle.rows(tree)])
    solution = solve_rbsde_upper(tree, driver, upper)
    stop = [(y_a == u_a, y_d == u_d)
            for (y_a, y_d), (u_a, u_d) in zip(solution.y_rows[:-1], upper.rows(tree))]
    return BuyerPrice(v0=-solution.root_value, solution=solution,
                      strategy=strategy_from_solution(solution),
                      exercise=_rule(tree, stop))


def rational_exercise_times(solution: Solution, obstacle: Obstacle) -> tuple:
    """Earliest and latest exercise rules that lose nothing.

    The early rule stops where the value first touches the payoff; the late
    rule stops at the first node whose outgoing charge is positive (the
    cumulative charge is then still zero on arrival, counting strictly
    earlier increments). Terminal nodes always stop.
    """
    tree = solution.tree
    star = [(y_a == b_a, y_d == b_d)
            for (y_a, y_d), (b_a, b_d) in zip(solution.y_rows[:-1], obstacle.rows(tree))]
    bar = [(a > 0.0, d > 0.0) for a, d in solution.da_rows]
    return _rule(tree, star), _rule(tree, bar)


def is_rational(solution: Solution, obstacle: Obstacle, rule) -> RationalityReport:
    """Check that a rule stops only on the payoff and before any charge.

    Walks every path reached under the rule, carrying the largest cumulative
    charge; at each stopped node the value must equal the payoff within a
    scale-aware tolerance and the incoming charge must be zero within an
    absolute floor. The first violating node is returned as a witness.
    """
    tree = solution.tree
    stops = getattr(rule, "stop", rule)
    reached = cumulative_charge(tree, solution.delta_a, stops)
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


def epsilon_rational(solution: Solution, obstacle: Obstacle, eps: float) -> tuple:
    """Rule stopping as soon as the value is within eps of the payoff.

    Returns the rule and the root value it gives up relative to the optimal
    one. The gap is bounded by exp(C * (1 + C) * T) * eps for the driver's
    declared constant C; see ``epsilon_gap_bound``.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    tree = solution.tree
    stop = {}
    for node in tree.nodes:
        stop[node] = (tree.is_terminal(node)
                      or solution.y[node] <= obstacle.values[node] + eps)
    rule = StoppingRule(stop=stop)
    value = g_evaluation(tree, solution.driver, rule, obstacle)
    return rule, solution.root_value - value


def epsilon_gap_bound(driver: Driver, T: float, eps: float) -> float:
    """Guaranteed bound on the value given up by the eps-triggered rule."""
    c = driver.lipschitz_C
    return math.exp(c * (1.0 + c) * T) * eps


def price_american(tree: Tree, driver: Driver, obstacle: Obstacle,
                   gamma_check: bool = True) -> PricingReport:
    """Full pricing pass: both prices, both strategies, exercise rules."""
    seller = seller_price(tree, driver, obstacle, gamma_check=gamma_check)
    buyer = buyer_price(tree, driver, obstacle, gamma_check=False)
    nu_star, nu_bar = rational_exercise_times(seller.solution, obstacle)
    return PricingReport(
        u0=seller.u0,
        v0=buyer.v0,
        seller_strategy=seller.strategy,
        buyer_strategy=buyer.strategy,
        buyer_exercise=buyer.exercise,
        nu_star=nu_star,
        nu_bar=nu_bar,
        interval_ok=buyer.v0 <= seller.u0 + INTERVAL_TOL,
        seller=seller,
        buyer=buyer,
    )
