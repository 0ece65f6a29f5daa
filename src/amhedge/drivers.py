"""Nonlinear generators for the wealth dynamics, plus admissibility checks.

A driver is a map g(t, y, z, k, state) giving the drift of the backward
wealth equation in terms of the current value y, the Brownian exposure z
and the jump exposure k. Every shipped driver ignores k at nodes where the
effective intensity is zero (in particular after default), which is what
makes it admissible there.

The two checks in this module are sampling based: the Lipschitz and the
jump-monotonicity conditions are quantified over a continuum, so they are
verified on caller-supplied grids with the fixed tolerance ``RATIO_TOL`` on
the sampled ratios. A sample is one node state with the grid as float rows
(``gamma_rows`` and ``admissibility_rows`` build them), so the driver is
called twice per state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .market import (MarketParams, NodeState, as_piecewise,
                     merged_breakpoints)

RATIO_TOL = 1e-10
# The reference box on which large_trader's declared Lipschitz constant holds.
WEALTH_BOUND = 200.0
POSITION_BOUND = 500.0


@dataclass(frozen=True)
class Driver:
    """A generator g with its declared Lipschitz constant.

    ``eval`` has signature (t, y, z, k, state) -> value where ``state`` is a
    ``NodeState``. It must be elementwise. The backward sweep and the forward
    simulation call it per level row (the state's s1 and s2 are rows too), and
    the three sampled checks (price precheck, ``gamma``, ``admissible``) twice
    per sampled state (a state of scalars): y, z and k are numpy rows, t and
    the other state fields are shared by the row, and the row it returns is
    used (a scalar broadcasts). Only the oracles and the scalar ``one_step``
    call it with floats, and then it returns a float.
    The market coefficients of t are ``state.coef``; ``state.lam`` is the
    effective intensity (0 after default). ``lipschitz_C`` is
    the constant C in the bound |dg| <= C * (|dy| + |dz| + sqrt(lam) * |dk|),
    declared by the factory that built the driver.
    """

    name: str
    eval: Callable
    lipschitz_C: float


def _effective_k(k: float, state: NodeState) -> float:
    # Jump exposure is meaningless where no default can occur.
    return k if state.lam > 0.0 else 0.0


def perfect_driver(params: MarketParams) -> Driver:
    """Linear generator of a frictionless market.

    g(t, y, z, k) = -r y - theta1 z - theta2 k lam with
    theta1 = (mu1 - r) / sigma1 and theta2 = (sigma2 theta1 - mu2 + r) / lam.
    The product theta2 * lam is formed directly as sigma2 theta1 - mu2 + r,
    so no division by the intensity is ever performed; the k term is dropped
    wherever the node intensity is zero.
    """
    def g(t, y, z, k, state):
        c = state.coef
        th1 = (c.mu1 - c.r) / c.sigma1
        val = -c.r * y - th1 * z
        if state.lam > 0.0:
            val -= (c.sigma2 * th1 - c.mu2 + c.r) * k  # theta2 * lam
        return val

    bound = 0.0
    for c in map(params.at, merged_breakpoints(params.r, params.mu1, params.mu2,
                                               params.sigma1, params.sigma2, params.lam)):
        th1 = (c.mu1 - c.r) / c.sigma1
        piece = abs(c.r) + abs(th1)
        if c.lam > 0.0:
            ck = c.sigma2 * th1 - c.mu2 + c.r
            piece += abs(ck) / math.sqrt(c.lam)  # |theta2| * sqrt(lam)
        bound = max(bound, piece)
    return Driver(name="perfect", eval=g, lipschitz_C=bound)


def borrow_lend_driver(params: MarketParams, borrow_rate) -> Driver:
    """Perfect generator plus a spread charged on borrowed amounts.

    When the total risky investment phi1 + phi2 exceeds the wealth y, the
    excess is financed at the borrowing rate R >= r, adding
    (R - r) * (phi1 + phi2 - y)^+ to the generator. The positions are read
    off (z, k) through phi2 = -k, phi1 = (z + sigma2 k) / sigma1. Convex in
    (y, z, k).
    """
    base = perfect_driver(params)
    R = as_piecewise(borrow_rate)
    if not all(map(math.isfinite, R.values)):
        raise ValueError(f"borrow rate must be finite, got {list(R.values)}")

    def g(t, y, z, k, state):
        c = state.coef
        val = base.eval(t, y, z, k, state)
        k_eff = _effective_k(k, state)
        phi1 = (z + c.sigma2 * k_eff) / c.sigma1
        phi2 = -k_eff
        excess = phi1 + phi2 - y
        # The charge is added only where the excess is positive; the mask
        # keeps the arithmetic elementwise for rows and floats alike.
        return val + (R.at(t) - c.r) * (excess * (excess > 0.0))

    extra = 0.0
    times = merged_breakpoints(R, params.r, params.sigma1, params.sigma2, params.lam)
    for t, c in zip(times, map(params.at, times)):  # the earliest breach is a breakpoint of R or r
        if R.at(t) < c.r:
            raise ValueError(f"borrow rate {R.at(t)} below riskless rate {c.r} at t={t}")
        spread = R.at(t) - c.r
        piece = spread * (1.0 + 1.0 / c.sigma1)
        if c.lam > 0.0:
            piece += spread * abs(c.sigma2 / c.sigma1 - 1.0) / math.sqrt(c.lam)
        extra = max(extra, piece)
    return Driver(name="borrow_lend", eval=g, lipschitz_C=base.lipschitz_C + extra)


def large_trader_driver(params: MarketParams, alpha: float, gamma_bar: float) -> Driver:
    """Generator of a seller whose position moves the short rate and whose
    jump exposure moves the default compensation.

    The financing rate seen by the trader is r + alpha * phi1 and the
    generator carries an extra -gamma_bar * lam * phi2 term; positions come
    from (z, k) through the affine inverse phi2 = -k,
    phi1 = (z + sigma2 k) / sigma1. With alpha = gamma_bar = 0 this reduces
    to the frictionless generator.

    The declared Lipschitz constant is valid on the reference box
    |y| <= WEALTH_BOUND, |phi1|, |phi2| <= POSITION_BOUND; the generator is
    bilinear in (y, phi1) and therefore only locally Lipschitz.
    """
    if not gamma_bar > -1.0:
        raise ValueError(f"gamma_bar must exceed -1, got {gamma_bar}")
    alpha = float(alpha)
    gamma_bar = float(gamma_bar)

    def g(t, y, z, k, state):
        c = state.coef
        k_eff = _effective_k(k, state)
        phi1 = (z + c.sigma2 * k_eff) / c.sigma1
        phi2 = -k_eff
        rbar = c.r + alpha * phi1
        return (-rbar * y
                - phi1 * (c.mu1 - rbar)
                - phi2 * (c.mu2 - rbar)
                - gamma_bar * state.lam * phi2)

    a, by, bp = abs(alpha), WEALTH_BOUND, POSITION_BOUND
    bound = 0.0
    for c in map(params.at, merged_breakpoints(params.r, params.mu1, params.mu2,
                                               params.sigma1, params.sigma2, params.lam)):
        g1 = a * by + abs(c.mu1 - c.r) + 2.0 * a * bp + a * bp
        g2 = abs(c.mu2 - c.r) + a * bp
        piece = (abs(c.r) + a * bp) + g1 / c.sigma1
        if c.lam > 0.0:
            piece += ((c.sigma2 / c.sigma1) * g1 + g2 + abs(gamma_bar) * c.lam) / math.sqrt(c.lam)
        bound = max(bound, piece)
    return Driver(name="large_trader", eval=g, lipschitz_C=bound)


# ---------------------------------------------------------------------------
# Sampling-based checks
# ---------------------------------------------------------------------------

@dataclass
class AdmissibilityReport:
    max_ratio: float
    lipschitz_C: float
    passed: bool
    worst: tuple = None


@dataclass
class GammaReport:
    min_ratio: float
    passed: bool
    worst: tuple = None
    n_samples: int = 0


@np.errstate(over="ignore", invalid="ignore")  # float arithmetic, as in a scalar scan
def check_lambda_admissible(driver: Driver, samples: Iterable) -> AdmissibilityReport:
    """Largest sampled ratio |dg| / (|dy| + |dz| + sqrt(lam) |dk|) vs the
    declared constant.

    ``samples`` yields (state, (y1, z1, k1), (y2, z2, k2)), one per state with
    six equal-length float rows; both points of a pair are evaluated at that
    node state, skipping pairs with a zero denominator."""
    max_ratio = 0.0
    worst = None
    for state, p1, p2 in samples:
        y1, z1, k1, y2, z2, k2 = cols = (*p1, *p2)
        denom = abs(y1 - y2) + abs(z1 - z2) + math.sqrt(state.lam) * abs(k1 - k2)
        keep = denom != 0.0
        y1, z1, k1, y2, z2, k2 = cols = [c[keep] for c in cols]
        if not len(y1):
            continue
        ratio = abs(driver.eval(state.t, y1, z1, k1, state)
                    - driver.eval(state.t, y2, z2, k2, state)) / denom[keep]
        # The first largest ratio wins and NaN never does, as in a scalar scan.
        i = int(np.argmax(np.where(np.isnan(ratio), -math.inf, ratio)))
        if ratio[i] > max_ratio:
            max_ratio = float(ratio[i])
            worst = (state, *(tuple(float(c[i]) for c in p) for p in (cols[:3], cols[3:])))
    passed = max_ratio <= driver.lipschitz_C + RATIO_TOL
    return AdmissibilityReport(max_ratio=max_ratio, lipschitz_C=driver.lipschitz_C,
                               passed=passed, worst=worst)


@np.errstate(over="ignore", invalid="ignore")  # float arithmetic, as in a scalar scan
def check_gamma_assumption(driver: Driver, samples: Iterable) -> GammaReport:
    """Smallest sampled ratio (g(k1) - g(k2)) / ((k1 - k2) lam).

    ``samples`` yields (state, y, z, k1, k2), one per state with four
    equal-length float rows; states with a zero intensity and pairs with
    k1 == k2 are skipped. The check passes when the smallest ratio stays above
    -1; an empty sample set passes vacuously.
    """
    min_ratio = math.inf
    worst = None
    n = 0
    for state, *cols in samples:
        if state.lam <= 0.0:
            continue
        keep = cols[2] != cols[3]
        y, z, k1, k2 = cols = [c[keep] for c in cols]
        if not len(y):
            continue
        n += len(y)
        g1 = driver.eval(state.t, y, z, k1, state)
        g2 = driver.eval(state.t, y, z, k2, state)
        ratio = (g1 - g2) / ((k1 - k2) * state.lam)
        # The first smallest ratio wins and NaN never does, as in a scalar scan.
        i = int(np.argmin(np.where(np.isnan(ratio), math.inf, ratio)))
        if ratio[i] < min_ratio:
            min_ratio = float(ratio[i])
            worst = (state, *(float(c[i]) for c in cols))
    passed = (n == 0) or (min_ratio > -1.0 + RATIO_TOL)
    return GammaReport(min_ratio=min_ratio, passed=passed, worst=worst, n_samples=n)


def sample_states(params: MarketParams, steps: Sequence,
                  include_defaulted: bool = True) -> list:
    """Representative node states, alive and (optionally) defaulted, at each
    ``(t, Coefs)`` of ``steps`` (a tree's ``tree.time(i)``, ``tree.coef[i]``)."""
    states = []
    for t, coef in steps:
        states.append(NodeState(t, 1.0, params.s1_0, params.s2_0, coef.lam, False, coef))
        if include_defaulted:
            states.append(NodeState(t, 1.0, params.s1_0, 0.0, 0.0, True, coef))
    return states


def _columns(pairs: list, width: int) -> tuple:
    return tuple(np.array(list(zip(*pairs)), dtype=float).reshape(width, -1))


def admissibility_rows(params: MarketParams, steps: Sequence,
                       ys=(-1.0, 0.0, 1.0), zs=(-1.0, 0.0, 1.0),
                       ks=(-1.0, 0.0, 1.0)) -> list:
    """All distinct pairs of grid points: per state, one sample of pair rows."""
    points = [(y, z, k) for y in ys for z in zs for k in ks]
    cols = _columns([p + q for i, p in enumerate(points) for q in points[i + 1:]], 6)
    return [(state, cols[:3], cols[3:]) for state in sample_states(params, steps)]


def gamma_rows(params: MarketParams, steps: Sequence,
               ys=(-1.0, 0.0, 1.0), zs=(-1.0, 0.0, 1.0),
               ks=(-1.0, 0.0, 1.0)) -> list:
    """Jump-pair samples (state, y, z, k1, k2) at states with positive
    intensity: one per state, with the grid's pairs as rows."""
    cols = _columns([(y, z, a, b) for y in ys for z in zs
                     for i, a in enumerate(ks) for b in ks[i + 1:]], 4)
    return [(state, *cols) for state in sample_states(params, steps, include_defaulted=False)
            if state.lam > 0.0]

