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

from .bsde import PICARD_TOL, Solution, g_evaluation
from .drivers import Driver, check_gamma_assumption, gamma_samples
from .market import NodeId, Tree
from .rbsde import (Obstacle, cumulative_charge, solve_rbsde_lower,
                    solve_rbsde_upper)

# Equality of the value and the obstacle is scale aware; the cumulative
# charge is compared against an absolute floor.
EQUALITY_RTOL = 1e-10
A_ZERO_TOL = 1e-12
INTERVAL_TOL = 1e-10


@dataclass
class Strategy:
    """Per-node amounts held in the two risky assets."""

    phi1: dict
    phi2: dict


@dataclass
class StoppingRule:
    """Per-node stop flag; descendants of a stopped node are irrelevant."""

    stop: dict


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
    """Apply the position map nodewise to (z, k), with volatilities read once per level."""
    tree = solution.tree
    params = tree.params
    phi1 = {}
    phi2 = {}
    step = None
    for node, z in solution.z.items():
        if node[0] != step:
            step = node[0]
            t = tree.time(step)
            s1, s2 = params.sigma1.at(t), params.sigma2.at(t)
        phi1[node], phi2[node] = phi_map(z, solution.k[node], s1, s2)
    return Strategy(phi1=phi1, phi2=phi2)


def _require_gamma(tree: Tree, driver: Driver) -> None:
    # Sample out to the price scale: a driver whose jump sensitivity is
    # state dependent can satisfy the floor near the origin yet breach it
    # at the wealth and exposure levels the solver actually visits.
    times = [tree.time(i) for i in range(max(tree.n_steps, 1))]
    scale = 1.0 + max(abs(tree.params.s1_0), abs(tree.params.s2_0))
    points = (-scale, -1.0, 0.0, 1.0, scale)
    samples = gamma_samples(tree.params, times=times, ys=points, zs=points,
                            ks=points)
    report = check_gamma_assumption(driver, samples)
    if not report.passed:
        raise ValueError(
            f"driver {driver.name!r} fails the jump-monotonicity check "
            f"(min sampled ratio {report.min_ratio:.6g} <= -1)")


def seller_price(tree: Tree, driver: Driver, obstacle: Obstacle,
                 gamma_check: bool = True, tol: float = PICARD_TOL) -> SellerPrice:
    """Least initial capital with a portfolio dominating the payoff throughout.

    Returns the root value of the lower-reflected solve together with the
    solution and the superhedging positions.
    """
    if gamma_check:
        _require_gamma(tree, driver)
    solution = solve_rbsde_lower(tree, driver, obstacle, tol=tol)
    return SellerPrice(u0=solution.root_value, solution=solution,
                       strategy=strategy_from_solution(solution))


def buyer_price(tree: Tree, driver: Driver, obstacle: Obstacle,
                gamma_check: bool = True, tol: float = PICARD_TOL) -> BuyerPrice:
    """Largest price the buyer can finance by borrowing and exercising well.

    Solves against the upper barrier given by the negated payoff; the
    exercise rule stops at the first node where the solution sits on that
    barrier (equality there is structural, so it is tested exactly).
    """
    if gamma_check:
        _require_gamma(tree, driver)
    upper = Obstacle(values={node: -v for node, v in obstacle.values.items()})
    solution = solve_rbsde_upper(tree, driver, upper, tol=tol)
    stop = {}
    for node in tree.nodes:
        stop[node] = tree.is_terminal(node) or solution.y[node] == upper.values[node]
    return BuyerPrice(v0=-solution.root_value, solution=solution,
                      strategy=strategy_from_solution(solution),
                      exercise=StoppingRule(stop=stop))


def rational_exercise_times(solution: Solution, obstacle: Obstacle) -> tuple:
    """Earliest and latest exercise rules that lose nothing.

    The early rule stops where the value first touches the payoff; the late
    rule stops at the first node whose outgoing charge is positive (the
    cumulative charge is then still zero on arrival, counting strictly
    earlier increments). Terminal nodes always stop.
    """
    tree = solution.tree
    stop_star = {}
    stop_bar = {}
    for node in tree.nodes:
        terminal = tree.is_terminal(node)
        stop_star[node] = terminal or solution.y[node] == obstacle.values[node]
        stop_bar[node] = terminal or solution.delta_a[node] > 0.0
    return StoppingRule(stop=stop_star), StoppingRule(stop=stop_bar)


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
                   gamma_check: bool = True, tol: float = PICARD_TOL) -> PricingReport:
    """Full pricing pass: both prices, both strategies, exercise rules."""
    seller = seller_price(tree, driver, obstacle, gamma_check=gamma_check, tol=tol)
    buyer = buyer_price(tree, driver, obstacle, gamma_check=False, tol=tol)
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
