"""The obstacle and the sampled driver checks on rows agree bit for bit with
their scalar references in ``helpers``: per-node payoff calls and ratio scans
over the row samples flattened to one grid point at a time."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amhedge import payoffs
from amhedge.drivers import (Driver, admissibility_rows, borrow_lend_driver,
                             check_gamma_assumption, check_lambda_admissible,
                             gamma_rows, large_trader_driver, perfect_driver)
from amhedge.market import MarketParams, PiecewiseConstant, build_tree
from amhedge.payoffs import call, put
from amhedge.pricing import buyer_price, seller_price
from amhedge.rbsde import Obstacle
from helpers import (at_times, eight_steps, float_bits, scalar_admissible_scan, scalar_gamma_scan,
                     scalar_obstacle_rows)

MARKETS = ("const", "piecewise", "lam_drop")
KINDS = ("perfect", "borrow_lend", "large_trader")


def market(style, **overrides) -> MarketParams:
    base = dict(r=0.03, mu1=0.06, mu2=0.01, sigma1=0.25, sigma2=0.3, lam=0.2,
                s1_0=100.0, s2_0=90.0, T=1.0)
    if style == "piecewise":
        base.update(r=PiecewiseConstant([0.03, 0.05], times=[0.0, 0.4]),
                    sigma1=PiecewiseConstant([0.25, 0.18], times=[0.0, 0.6]),
                    lam=PiecewiseConstant([0.2, 0.35], times=[0.0, 0.5]))
    elif style == "lam_drop":
        base.update(lam=PiecewiseConstant([0.3, 0.0], times=[0.0, 0.5]))
    base.update(overrides)
    return MarketParams(**base)


def driver_of(kind, params) -> Driver:
    if kind == "perfect":
        return perfect_driver(params)
    if kind == "borrow_lend":
        return borrow_lend_driver(params, 0.09)
    return large_trader_driver(params, 8e-4, 0.3)


def assert_same_rows(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_same_worst(got, want):
    """Worst samples are equal with every float equal bit for bit."""
    def flat(sample):
        return [v for item in sample[1:] for v in (item if isinstance(item, tuple) else (item,))]

    if want is None:
        assert got is None
        return
    assert got[0] == want[0]
    assert [float_bits(v) for v in flat(got)] == [float_bits(v) for v in flat(want)]
    assert all(type(v) is float for v in flat(got))


# ---------------------------------------------------------------------------
# Obstacle rows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("style", MARKETS)
@pytest.mark.parametrize("make", [put, call])
def test_obstacle_rows_equal_the_scalar_payoff(style, make):
    tree = build_tree(market(style), 12)
    # A strike equal to lattice prices: the root's and an inner node's.
    for strike in (100.0, float(tree.step_rows(tree.s1, 6)[0][2]), 93.7):
        payoff = make(strike)
        obstacle = Obstacle.from_payoff(tree, payoff)
        assert_same_rows(obstacle.rows, scalar_obstacle_rows(tree, payoff))


def test_put_and_call_obstacles_make_no_scalar_payoff_call(monkeypatch):
    tree = build_tree(market("const"), 16)
    calls = []

    def counting_max(*args):
        calls.append(args)
        return max(*args)

    monkeypatch.setattr(payoffs, "max", counting_max, raising=False)
    assert put(100.0)(0.0, 90.0, 80.0, False) == 10.0 and len(calls) == 1
    calls.clear()
    Obstacle.from_payoff(tree, put(100.0))
    Obstacle.from_payoff(tree, call(100.0))
    assert calls == []


def test_row_payoffs_keep_the_zero_sign_and_nan_of_max():
    s1 = np.array([100.0, 99.0, 101.0, math.nan, 0.0, math.inf])
    for make, strikes in ((put, (100.0, -0.0)), (call, (100.0, 0.0))):
        for strike in strikes:
            payoff = make(strike)
            want = [payoff(0.0, x, 0.0, False) for x in s1.tolist()]
            assert [float_bits(v) for v in payoff.row(0.0, s1, 0.0, False)] == \
                [float_bits(v) for v in want]
    # -0.0 - 0.0 is -0.0 and max(-0.0, 0.0) keeps it: a put struck at -0.0
    # on a lattice whose lowest price underflows to 0.
    tree = build_tree(market("const", s1_0=5e-324, sigma1=0.9, mu1=0.0), 1)
    assert tree.step_rows(tree.s1, 1)[0][0] == 0.0
    obstacle = Obstacle.from_payoff(tree, put(-0.0))
    assert math.copysign(1.0, tree.node_dict(obstacle.rows)[(1, 0, 0)]) == -1.0
    assert_same_rows(obstacle.rows, scalar_obstacle_rows(tree, put(-0.0)))


@pytest.mark.parametrize("style", MARKETS)
@pytest.mark.parametrize("kind", KINDS)
def test_prices_on_row_obstacles_equal_the_scalar_obstacle(style, kind):
    params = market(style)
    tree = build_tree(params, 10)
    driver = driver_of(kind, params)
    check = kind != "large_trader"  # alpha 8e-4 fails the jump-monotonicity floor
    for payoff in (put(103.0), call(100.0)):
        rows = Obstacle.from_payoff(tree, payoff)
        scalar = Obstacle(tree, scalar_obstacle_rows(tree, payoff))
        for price, field in ((seller_price, "u0"), (buyer_price, "v0")):
            got = getattr(price(tree, driver, rows, gamma_check=check), field)
            want = getattr(price(tree, driver, scalar, gamma_check=check), field)
            assert float_bits(got) == float_bits(want)


# ---------------------------------------------------------------------------
# Sampled driver checks
# ---------------------------------------------------------------------------

POINTS = (-101.0, -1.0, 0.0, 1.0, 101.0)
TIMES = [0.0, 0.2, 0.4, 0.6, 0.8]


def assert_gamma_matches_scan(driver, params, **grid):
    rows = gamma_rows(params, steps=at_times(params, TIMES), **grid)
    report = check_gamma_assumption(driver, rows)
    min_ratio, worst, n = scalar_gamma_scan(driver, rows)
    assert float_bits(report.min_ratio) == float_bits(min_ratio)
    assert type(report.min_ratio) is float and report.n_samples == n
    assert_same_worst(report.worst, worst)
    return report


def assert_admissible_matches_scan(driver, params, **grid):
    rows = admissibility_rows(params, steps=at_times(params, TIMES), **grid)
    report = check_lambda_admissible(driver, rows)
    max_ratio, worst = scalar_admissible_scan(driver, rows)
    assert float_bits(report.max_ratio) == float_bits(max_ratio)
    assert type(report.max_ratio) is float
    assert_same_worst(report.worst, worst)
    return report


@pytest.mark.parametrize("style", MARKETS)
@pytest.mark.parametrize("kind", KINDS)
def test_row_checks_equal_the_scalar_scans(style, kind):
    params = market(style)
    driver = driver_of(kind, params)
    for grid in ({}, {"ys": POINTS, "zs": POINTS, "ks": POINTS}):
        assert_gamma_matches_scan(driver, params, **grid)
        assert_admissible_matches_scan(driver, params, **grid)


def test_rows_hold_the_grid_in_order():
    params = market("lam_drop")
    samples = gamma_rows(params, steps=at_times(params, TIMES), ys=POINTS, ks=(0.0, 2.0, -1.0))
    assert [s.t for s, *_ in samples] == [0.0, 0.2, 0.4]  # lambda is 0 from 0.5 on
    assert all(row.dtype == float and len(row) == 5 * 3 * 3 for _, *rows in samples
               for row in rows)
    state, *rows = gamma_rows(params, steps=at_times(params, TIMES))[0]
    assert [tuple(row[:3].tolist()) for row in rows] == [
        (-1.0, -1.0, -1.0), (-1.0, -1.0, -1.0), (-1.0, -1.0, 0.0), (0.0, 1.0, 1.0)]
    pairs = admissibility_rows(params, steps=at_times(params, [0.0]))
    assert [s.defaulted for s, _, _ in pairs] == [False, True]
    assert all(len(row) == 351 for _, p1, p2 in pairs for row in (*p1, *p2))
    _, p1, p2 = pairs[0]
    assert [tuple(float(row[i]) for row in p) for i in (0, -1) for p in (p1, p2)] == [
        (-1.0, -1.0, -1.0), (-1.0, -1.0, 0.0), (1.0, 1.0, 0.0), (1.0, 1.0, 1.0)]


@pytest.mark.parametrize("check,rows", [(check_gamma_assumption, gamma_rows),
                                        (check_lambda_admissible, admissibility_rows)])
def test_row_checks_call_the_driver_twice_per_state(check, rows):
    params = market("lam_drop")
    driver = perfect_driver(params)
    sizes = []

    def counted(t, y, z, k, state):
        sizes.append(np.size(y))
        return driver.eval(t, y, z, k, state)

    counting = Driver(name="counted", eval=counted, lipschitz_C=driver.lipschitz_C)
    samples = rows(params, steps=at_times(params, TIMES))
    check(counting, samples)
    assert len(sizes) == 2 * len(samples) and min(sizes) > 1


def test_admissible_skips_k_only_pairs_on_defaulted_states():
    params = market("const")
    seen = []

    def recording(t, y, z, k, state):
        seen.append((state.defaulted, np.size(y)))
        return -0.5 * y

    check_lambda_admissible(Driver(name="half", eval=recording, lipschitz_C=0.5),
                            admissibility_rows(params, steps=at_times(params, TIMES)))
    # Of the 351 pairs of a state, the 27 that differ in k only have a zero
    # denominator where lambda is 0, and the driver never sees them.
    k_only = [np.count_nonzero((p[0] == q[0]) & (p[1] == q[1]))
              for _, p, q in admissibility_rows(params, steps=at_times(params, [0.0]))]
    assert k_only == [27, 27]
    assert sorted(set(seen)) == [(False, 351), (True, 351 - 27)]
    # Twice as steep after default: the worst pair is on a masked row.
    steep = Driver(name="steep", eval=lambda t, y, z, k, s: -0.5 * y * (1.0 + s.defaulted),
                   lipschitz_C=1.0)
    report = assert_admissible_matches_scan(steep, params)
    assert report.worst[0].defaulted and report.max_ratio == 1.0
    driver = Driver(name="half", eval=lambda t, y, z, k, s: -0.5 * y, lipschitz_C=0.5)
    report = assert_admissible_matches_scan(driver, params)
    # -0.5 y gives the ratio 0.5 exactly on every pair that differs in y only;
    # the first of these tied maxima is kept.
    assert report.max_ratio == 0.5
    assert report.worst[1:] == ((-1.0, -1.0, -1.0), (0.0, -1.0, -1.0))


def test_nan_ratios_never_win_and_ties_keep_the_first():
    params = market("piecewise")
    nan_gamma = Driver(name="nan", lipschitz_C=1.0,
                       eval=lambda t, y, z, k, s: np.where(y == 0.0, math.nan, 0.0 * k))
    with np.errstate(invalid="ignore"):
        report = assert_gamma_matches_scan(nan_gamma, params)
    assert report.min_ratio == 0.0 and report.worst[1] == -1.0  # the first non-NaN sample
    nan_lipschitz = Driver(name="nan", lipschitz_C=1.0,
                           eval=lambda t, y, z, k, s: np.where(z == 0.0, math.nan, -0.5 * y))
    with np.errstate(invalid="ignore"):
        report = assert_admissible_matches_scan(nan_lipschitz, params)
    assert report.max_ratio == 0.5
    all_nan = Driver(name="nan", lipschitz_C=1.0, eval=lambda t, y, z, k, s: y * math.nan)
    assert check_lambda_admissible(all_nan, admissibility_rows(params, eight_steps(params))).worst is None
    gamma = check_gamma_assumption(all_nan, gamma_rows(params, eight_steps(params)))
    assert (gamma.min_ratio, gamma.worst, gamma.n_samples) == (math.inf, None, 8 * 9 * 3)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(style=st.sampled_from(MARKETS), kind=st.sampled_from(KINDS),
       r=st.floats(0.0, 0.06), sigma1=st.floats(0.1, 0.5),
       n_steps=st.integers(1, 9), node=st.integers(0, 10**6),
       strike=st.one_of(st.floats(50.0, 150.0), st.none()))
def test_rows_equal_the_scalar_references_on_random_markets(style, kind, r, sigma1,
                                                              n_steps, node, strike):
    params = market(style, **({} if style == "piecewise" else {"r": r, "sigma1": sigma1}))
    tree = build_tree(params, n_steps)
    if strike is None:  # a strike equal to a lattice price
        i = node % (n_steps + 1)
        strike = float(tree.step_rows(tree.s1, i)[0][node % (i + 1)])
    for make in (put, call):
        payoff = make(strike)
        assert_same_rows(Obstacle.from_payoff(tree, payoff).rows,
                         scalar_obstacle_rows(tree, payoff))
    driver = driver_of(kind, params)
    grid = {"ys": (-strike, 0.0, 1.0), "zs": (-1.0, strike), "ks": (-strike, 0.0, 1.0)}
    assert_gamma_matches_scan(driver, params, **grid)
    assert_admissible_matches_scan(driver, params, **grid)
