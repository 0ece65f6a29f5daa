"""Acceptance suite: one printed pass/fail line per criterion.

Run `pytest -s tests/test_acceptance.py` to see the lines. Every tolerance
is fixed here; nothing is calibrated at run time. Randomized instances use
frozen seeds and are drawn inside the stability margins of helpers.py.
"""

import json
import math
import time

import numpy as np
import pytest

from amhedge.cli import run as cli_run
from amhedge.drivers import Driver, perfect_driver
from amhedge.hedging import (simulate_wealth, verify_superhedge_buyer,
                             verify_superhedge_seller,
                             wealth_martingale_residual)
from amhedge.market import MarketParams, build_tree
from amhedge.oracle import (apriori_estimate_check, brute_force_seller_value,
                            crr_american_oracle, g_evaluation)
from amhedge.pricing import (StoppingRule, Strategy, buyer_price, epsilon_gap_bound,
                             epsilon_rational, is_rational,
                             rational_exercise_times, seller_price)
from amhedge.rbsde import (Obstacle, solve_rbsde_lower, solve_rbsde_upper)
from helpers import (DRIVER_KINDS, call_payoff, dict_rows, duality_instances,
                     make_instance, negated, random_payoff)

_STOCK = {}


def _criterion(label, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, f"{label}: {detail}"


def linear_instances():
    """10 frictionless instances, half without and half with default risk."""
    if "linear" not in _STOCK:
        rng = np.random.default_rng(1003)
        instances = [make_instance(rng, "perfect", int(rng.integers(3, 7)), lam=0.0)
                     for _ in range(5)]
        instances += [make_instance(rng, "perfect", int(rng.integers(3, 7)), lam=0.3)
                      for _ in range(5)]
        _STOCK["linear"] = instances
    return _STOCK["linear"]


def interval_instances():
    """20 borrow/lend instances with a 2 percent spread."""
    if "interval" not in _STOCK:
        rng = np.random.default_rng(1004)
        instances = []
        for i in range(20):
            factory = call_payoff if i % 3 == 0 else random_payoff
            instances.append(make_instance(rng, "borrow_lend",
                                           int(rng.integers(2, 7)),
                                           payoff_factory=factory))
        _STOCK["interval"] = instances
    return _STOCK["interval"]


CRR_MARKET = MarketParams(r=0.05, mu1=0.05, mu2=0.0, sigma1=0.2, sigma2=0.3,
                          lam=0.0, s1_0=100.0, s2_0=100.0, T=1.0)


def crr_values():
    if "crr" not in _STOCK:
        pay = lambda t, s1, s2, d: max(100.0 - s1, 0.0)
        start = time.perf_counter()
        values = {}
        oracle_values = {}
        for n in (8, 64, 256):
            tree = build_tree(CRR_MARKET, n)
            obs = Obstacle.from_payoff(tree, pay)
            values[n] = seller_price(tree, perfect_driver(CRR_MARKET), obs).u0
            oracle_values[n] = crr_american_oracle(CRR_MARKET, pay, n)
        _STOCK["crr"] = (values, oracle_values, time.perf_counter() - start)
    return _STOCK["crr"]


def test_c01_duality_against_rule_enumeration():
    start = time.perf_counter()
    worst = 0.0
    for inst in duality_instances():
        solver = solve_rbsde_lower(inst.tree, inst.driver, inst.obstacle)
        brute = brute_force_seller_value(inst.tree, inst.driver, inst.obstacle)
        worst = max(worst, abs(solver.root_value - brute))
    elapsed = time.perf_counter() - start
    _criterion("C1 duality vs enumerated stopping rules",
               worst <= 1e-12 and elapsed < 10.0,
               f"{len(duality_instances())} instances, max gap {worst:.2e}, "
               f"{elapsed:.2f}s")


def test_c02_classical_reduction_oracle_agreement():
    values, oracle_values, elapsed = crr_values()
    worst = max(abs(values[n] - oracle_values[n]) for n in values)
    _criterion("C2 frictionless put matches the binomial oracle",
               worst <= 1e-12 and elapsed < 5.0,
               f"max gap {worst:.2e} over n in (8, 64, 256), {elapsed:.2f}s")


def test_c02_grid_convergence_trend():
    values, _, _ = crr_values()
    d1 = abs(values[8] - values[64])
    d2 = abs(values[64] - values[256])
    _criterion("C2 successive grid values within 1e-2",
               d1 < 1e-2 and d2 < 1e-2,
               f"|v8-v64| = {d1:.4f}, |v64-v256| = {d2:.4f}")


def test_c03_linear_driver_buyer_equals_seller():
    worst = 0.0
    for inst in linear_instances():
        u0 = seller_price(inst.tree, inst.driver, inst.obstacle).u0
        v0 = buyer_price(inst.tree, inst.driver, inst.obstacle).v0
        worst = max(worst, abs(u0 - v0))
    _criterion("C3 buyer price equals seller price for the linear driver",
               worst <= 1e-10, f"10 instances, max |u0 - v0| = {worst:.2e}")


def test_c04_borrowing_spread_interval():
    worst_violation = -math.inf
    widest = 0.0
    for inst in interval_instances():
        u0 = seller_price(inst.tree, inst.driver, inst.obstacle).u0
        v0 = buyer_price(inst.tree, inst.driver, inst.obstacle).v0
        worst_violation = max(worst_violation, v0 - u0)
        widest = max(widest, u0 - v0)
    _criterion("C4 price interval ordering under a borrowing spread",
               worst_violation <= 1e-12 and widest > 1e-4,
               f"20 instances, max v0 - u0 = {worst_violation:.2e}, "
               f"widest interval {widest:.4f}")


def superhedge_instances():
    pay = lambda t, s1, s2, d: max(100.0 - s1, 0.0)
    tree8 = build_tree(CRR_MARKET, 8)
    crr8 = (tree8, perfect_driver(CRR_MARKET), Obstacle.from_payoff(tree8, pay))
    for inst in duality_instances() + linear_instances() + interval_instances():
        yield inst.tree, inst.driver, inst.obstacle
    yield crr8


def test_c05_superhedging_both_sides():
    worst_seller = math.inf
    worst_buyer = math.inf
    worst_stop = 0.0
    count = 0
    for tree, driver, obstacle in superhedge_instances():
        count += 1
        seller = seller_price(tree, driver, obstacle, gamma_check=False)
        field = simulate_wealth(tree, seller.u0, seller.strategy, driver)
        worst_seller = min(worst_seller,
                           verify_superhedge_seller(field, obstacle).min_slack)
        buyer = buyer_price(tree, driver, obstacle, gamma_check=False)
        bfield = simulate_wealth(tree, -buyer.v0, buyer.strategy, driver)
        breport = verify_superhedge_buyer(bfield, obstacle, buyer.exercise)
        worst_buyer = min(worst_buyer, breport.min_slack)
        worst_stop = max(worst_stop, breport.max_abs_at_stop)
    _criterion("C5 superhedges verified on the full path expansion",
               worst_seller >= -1e-10 and worst_buyer >= -1e-10
               and worst_stop <= 1e-10,
               f"{count} instances, seller slack {worst_seller:.2e}, buyer "
               f"slack {worst_buyer:.2e}, buyer stop gap {worst_stop:.2e}")


def binding_instances():
    out = []
    for lam, spread in [(0.0, None), (0.3, None), (0.3, 0.02)]:
        params = MarketParams(r=0.06, mu1=0.06, mu2=0.0, sigma1=0.2, sigma2=0.3,
                              lam=lam, s1_0=100.0, s2_0=90.0, T=1.0)
        driver = perfect_driver(params)
        if spread is not None:
            from amhedge.drivers import borrow_lend_driver
            driver = borrow_lend_driver(params, 0.06 + spread)
        tree = build_tree(params, 6)
        obs = Obstacle.from_payoff(tree, lambda t, s1, s2, d: max(110.0 - s1, 0.0))
        out.append((tree, driver, obs))
    return out


def test_c06_rational_exercise_characterization():
    ok = True
    details = []
    for tree, driver, obstacle in binding_instances():
        result = seller_price(tree, driver, obstacle)
        solution = result.solution
        interior = any(da > 0.0 for node, da in tree.node_dict(
            solution.da_rows, range(1, tree.n_steps)).items())
        nu_star, nu_bar = rational_exercise_times(solution, obstacle)
        r_star = is_rational(solution, obstacle, nu_star)
        r_bar = is_rational(solution, obstacle, nu_bar)
        v_star = g_evaluation(tree, driver, nu_star, obstacle)
        v_bar = g_evaluation(tree, driver, nu_bar, obstacle)
        late = StoppingRule(tree, dict_rows(tree, {node: tree.is_terminal(node)
                                                   for node in tree.nodes}))
        r_late = is_rational(solution, obstacle, late)
        ok = ok and interior and r_star.ok and r_bar.ok and not r_late.ok
        ok = ok and r_late.witness is not None
        ok = ok and abs(v_star - result.u0) <= 1e-10
        ok = ok and abs(v_bar - result.u0) <= 1e-10
        details.append(f"{abs(v_star - result.u0):.1e}/{abs(v_bar - result.u0):.1e}")
    _criterion("C6 earliest and latest exercise rules are rational and optimal",
               ok, "value gaps " + ", ".join(details))


def test_c07_epsilon_rationality():
    rng = np.random.default_rng(1007)
    ok = True
    worst_ratio = 0.0
    for i in range(10):
        kind = "perfect" if i % 2 == 0 else "borrow_lend"
        inst = make_instance(rng, kind, int(rng.integers(3, 7)))
        result = seller_price(inst.tree, inst.driver, inst.obstacle)
        gaps = []
        for eps in (0.1, 0.01, 0.001):
            _, gap = epsilon_rational(result.solution, inst.obstacle, eps)
            bound = epsilon_gap_bound(inst.driver, inst.params.T, eps)
            ok = ok and gap <= bound + 1e-12
            worst_ratio = max(worst_ratio, gap / bound)
            gaps.append(gap)
        ok = ok and gaps[2] <= gaps[1] + 1e-10 and gaps[1] <= gaps[0] + 1e-10
    _criterion("C7 eps-triggered exercise within the guaranteed bound",
               ok, f"10 instances, worst gap/bound = {worst_ratio:.3f}")


def test_c08_skorokhod_and_structure():
    ok = True
    count = 0
    for inst in duality_instances() + linear_instances() + interval_instances():
        count += 1
        low = solve_rbsde_lower(inst.tree, inst.driver, inst.obstacle)
        neg = negated(inst.obstacle)
        up = solve_rbsde_upper(inst.tree, inst.driver, neg)
        tree, below = inst.tree, range(inst.tree.n_steps)
        xi, neg_xi = tree.node_dict(inst.obstacle.rows), tree.node_dict(neg.rows)
        low_y, up_y = tree.node_dict(low.y_rows), tree.node_dict(up.y_rows)
        for node in tree.nodes:
            ok = ok and low_y[node] >= xi[node]
            ok = ok and up_y[node] <= neg_xi[node]
        for node, da in tree.node_dict(low.da_rows, below).items():
            ok = ok and da >= 0.0
            ok = ok and da * (low_y[node] - xi[node]) == 0.0
        for node, da in tree.node_dict(up.da_rows, below).items():
            ok = ok and da >= 0.0
            ok = ok and da * (neg_xi[node] - up_y[node]) == 0.0
    _criterion("C8 flatness products vanish exactly and barriers are respected",
               ok, f"{count} instances, both reflections")


def test_c09_apriori_estimate():
    params = MarketParams(r=0.04, mu1=0.07, mu2=-0.03, sigma1=0.25, sigma2=0.2,
                          lam=0.3, s1_0=100.0, s2_0=90.0, T=1.0)
    pay = lambda t, s1, s2, d: max(105.0 - s1, 0.0)
    from amhedge.drivers import borrow_lend_driver
    bases = [perfect_driver(params), borrow_lend_driver(params, 0.06)]
    ok = True
    worst = {6: 0.0, 12: 0.0}
    for base in bases:
        shifted = Driver(name=base.name + "+0.1",
                         eval=lambda t, y, z, k, s, _b=base: _b.eval(t, y, z, k, s) + 0.1,
                         lipschitz_C=base.lipschitz_C)
        c = base.lipschitz_C
        eta = 1.0 / (c * c + 1.0)
        beta = 3.0 / eta + 2.0 * c + 1.0
        for n in (6, 12):
            tree = build_tree(params, n)
            obs = Obstacle.from_payoff(tree, pay)
            report = apriori_estimate_check(tree, base, shifted, obs, eta, beta)
            vio = max(report.max_pointwise_violation, report.y_norm_violation,
                      report.zk_norm_violation)
            ok = ok and vio <= 1e-10
            worst[n] = max(worst[n], vio)
    ok = ok and worst[12] <= worst[6] + 1e-12
    _criterion("C9 stability estimate holds and does not degrade as dt halves",
               ok, f"max violation {worst[6]:.2e} (n=6), {worst[12]:.2e} (n=12)")


def test_c10_comparison_and_wealth_martingale():
    rng = np.random.default_rng(1010)
    ok = True
    for i in range(20):
        kind = "perfect" if i % 2 == 0 else "borrow_lend"
        inst = make_instance(rng, kind, int(rng.integers(3, 6)))
        bumped = Obstacle(inst.tree, dict_rows(inst.tree, {
            n: v + float(rng.uniform(0.0, 2.0))
            for n, v in inst.tree.node_dict(inst.obstacle.rows).items()}))
        y1, y2 = (inst.tree.node_dict(solve_rbsde_lower(inst.tree, inst.driver, obs).y_rows)
                  for obs in (inst.obstacle, bumped))
        ok = ok and all(y1[node] <= y2[node] + 1e-12 for node in y1)
    worst_residual = 0.0
    for i in range(5):
        inst = make_instance(rng, DRIVER_KINDS[i % 3], 4)
        nodes = [n for n in inst.tree.nodes if not inst.tree.is_terminal(n)]
        phi1 = {n: float(rng.uniform(-2, 2)) for n in nodes}
        phi2 = {n: 0.0 if inst.tree.nodes[n].defaulted else float(rng.uniform(-1, 1))
                for n in nodes}
        n_steps = inst.tree.n_steps
        strat = Strategy(inst.tree, dict_rows(inst.tree, phi1, n_steps),
                         dict_rows(inst.tree, phi2, n_steps))
        field = simulate_wealth(inst.tree, float(rng.uniform(-5, 5)), strat,
                                inst.driver)
        worst_residual = max(worst_residual,
                             wealth_martingale_residual(field, inst.driver))
    ok = ok and worst_residual <= 1e-10
    _criterion("C10 obstacle comparison and wealth self-consistency",
               ok, f"20 pairs, martingale residual {worst_residual:.2e}")


def test_c11_deterministic_reports(tmp_path):
    config = {
        "market": {"r": 0.05, "mu1": 0.07, "mu2": -0.02, "sigma1": 0.2,
                   "sigma2": 0.25, "lambda": 0.25, "s1_0": 100.0, "s2_0": 90.0,
                   "T": 1.0},
        "grid": {"n_steps": 4},
        "driver": {"name": "borrow_lend", "params": {"R": 0.07}},
        "payoff": {"kind": "put", "strike": 105.0},
        "jobs": ["price", "hedge", "verify"],
        "verify": ["superhedge", "duality", "skorokhod"],
        "seed": 11,
    }
    a, b = tmp_path / "a", tmp_path / "b"
    code_a = cli_run(config, out_dir=a)
    code_b = cli_run(config, out_dir=b)
    same = (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    report = json.loads((a / "report.json").read_text())
    _criterion("C11 byte-identical reports for identical configurations",
               code_a == 0 and code_b == 0 and same
               and report["verification"]["all_passed"],
               f"{(a / 'report.json').stat().st_size} bytes")
