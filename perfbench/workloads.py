"""Seeded job generators for the three benchmark workloads.

A workload is a fixed list of job *shapes* (grid size, driver, payoff kind,
coefficient style, requested jobs and checks). The benchmark runs it in
rounds of one job per shape; the seed and the round number draw the
continuous parameters of each shape (market coefficients, strikes, borrow
rate, price impact) from the ranges below, and the order of the round. So
every round holds the same mix of work, a run covers a fresh parameter draw
per shape in each round, and the same seed gives identical job documents.

Every range is chosen so that the job passes the price job's
jump-monotonicity precheck and every requested verification check on the
seed code.
"""

from __future__ import annotations

import random

# The README market.
README_MARKET = {"r": 0.05, "mu1": 0.07, "mu2": -0.02, "sigma1": 0.2,
                 "sigma2": 0.25, "lambda": 0.25, "s1_0": 100.0, "s2_0": 90.0,
                 "T": 1.0}

# Small variations around the README market, shared by every workload.
MARKET_RANGES = {"r": (0.04, 0.06), "mu1": (0.06, 0.08), "mu2": (-0.03, -0.01),
                 "sigma1": (0.18, 0.22), "sigma2": (0.22, 0.28),
                 "lambda": (0.2, 0.3)}
STRIKE_RANGE = (90.0, 110.0)
BORROW_SPREAD_RANGE = (0.01, 0.03)   # R - max(r)
GAMMA_BAR_RANGE = (0.0, 0.3)
RECOVERY_RANGE = (0.0, 10.0)
# Price impact of the large trader in the n=12 hedge-and-verify jobs. The
# apriori check fails on the seed code for alpha = 2e-4 on some of the
# markets above at n=12, and on the README market for alpha = 1e-4 at n=4
# and alpha = 2e-4 at n=8, so a positive alpha is only used at n=12, up to
# 1e-4.
LT_ALPHA_RANGE = (0.0, 0.0001)

EXPR_TEMPLATES = (
    "max({K} - S1, 0) + S2 * defaulted",
    "max({K} - S1, 0) + {c} * defaulted",
    "max(S1 - {K}, 0) * (1 - defaulted)",
)

HEDGE_CHECKS = ["superhedge", "skorokhod", "apriori", "admissible"]
MAX_MARTINGALE_STEPS = 12
MAX_DUALITY_STEPS = 4

PRICE = ["price"]
FULL = ["price", "hedge", "verify"]
HEDGE_ONLY = ["hedge", "verify"]


def _shape(n, driver, payoff, style="const", jobs=PRICE):
    return {"n": n, "driver": driver, "payoff": payoff, "style": style,
            "jobs": jobs}


def _strip_small_shapes():
    # Every grid size with every coefficient style, each with every driver
    # and payoff: equal weights, as no usage data favours any of them.
    shapes = []
    for n in (4, 8, 16, 32):
        for style in ("const", "piecewise", "lambda0"):
            for driver in ("perfect", "borrow_lend", "large_trader"):
                for payoff in ("put", "call", "expr"):
                    shapes.append(_shape(n, driver, payoff, style))
    return shapes


def _price_fine_shapes():
    # Every grid size, driver and payoff once: equal weights.
    return [_shape(n, driver, payoff)
            for n in (128, 256)
            for driver in ("perfect", "borrow_lend")
            for payoff in ("put", "call")]


def _hedge_verify_shapes():
    # One job of each kind the workload names: a full job on every grid
    # size (duality at n=4 only, martingale up to n=12; the drivers and
    # payoffs alternate so each driver runs a put and a call) and one
    # large_trader hedge-only job. The cheapest comes first, as job 0 is
    # also the re-run job.
    return [
        _shape(8, "borrow_lend", "call", jobs=FULL),
        _shape(4, "perfect", "put", jobs=FULL),
        _shape(12, "perfect", "call", jobs=FULL),
        _shape(16, "borrow_lend", "put", jobs=FULL),
        _shape(12, "large_trader", "call", jobs=HEDGE_ONLY),
    ]


WORKLOADS = {
    "strip_small": {
        "why": ("equal mix of price-only jobs, n 4/8/16/32 x put/call/expr x "
                "perfect/borrow_lend/large_trader(alpha=0) x const/piecewise/"
                "lambda=0: fixed per-job costs dominate"),
        "shapes": _strip_small_shapes,
    },
    "price_fine": {
        "why": ("equal mix of price-only jobs, n 128/256 x perfect/borrow_lend x "
                "put/call: the O(n^2) lattice build, sweep and report "
                "serialisation dominate"),
        "shapes": _price_fine_shapes,
    },
    "hedge_verify": {
        "why": ("one price+hedge+verify job per n 4/8/12/16 (duality at 4, 10k "
                "paths at 16) and one large_trader hedge job: forward simulation, "
                "superhedge checks, repeated solves"),
        "shapes": _hedge_verify_shapes,
    },
}


def _draw(rng, lo_hi, digits=4):
    lo, hi = lo_hi
    return round(rng.uniform(lo, hi), digits)


def _market(rng, style):
    market = dict(README_MARKET)
    for key, rng_range in MARKET_RANGES.items():
        market[key] = _draw(rng, rng_range)
    if style == "lambda0":
        market["lambda"] = 0.0
    elif style == "piecewise":
        for key in ("r", "sigma1", "lambda"):
            market[key] = {"values": [market[key], _draw(rng, MARKET_RANGES[key])],
                           "times": [0.0, round(rng.uniform(0.3, 0.7), 2)]}
    return market


def _max_value(coefficient):
    if isinstance(coefficient, dict):
        return max(coefficient["values"])
    return coefficient


def _driver(rng, name, market, jobs):
    if name == "perfect":
        return {"name": "perfect"}
    if name == "borrow_lend":
        rate = _max_value(market["r"]) + _draw(rng, BORROW_SPREAD_RANGE)
        return {"name": "borrow_lend", "params": {"R": round(rate, 4)}}
    # The price job's precheck only accepts alpha = 0; hedge-only jobs run
    # without it and may carry a small price impact.
    alpha = 0.0 if "price" in jobs else _draw(rng, LT_ALPHA_RANGE, 6)
    return {"name": "large_trader",
            "params": {"alpha": alpha, "gamma_bar": _draw(rng, GAMMA_BAR_RANGE)}}


def _payoff(rng, kind):
    strike = round(rng.uniform(*STRIKE_RANGE), 2)
    if kind in ("put", "call"):
        return {"kind": kind, "strike": strike}
    template = EXPR_TEMPLATES[rng.randrange(len(EXPR_TEMPLATES))]
    source = template.format(K=strike, c=_draw(rng, RECOVERY_RANGE, 2))
    return {"kind": "expr", "expr": source}


def _checks(n, jobs):
    if "verify" not in jobs:
        return []
    checks = list(HEDGE_CHECKS)
    if n <= MAX_MARTINGALE_STEPS:
        checks.append("martingale")
    if n <= MAX_DUALITY_STEPS:
        checks.append("duality")
    return checks


def make_job(rng, shape):
    """One job document for a shape, with parameters drawn from ``rng``."""
    market = _market(rng, shape["style"])
    return {
        "market": market,
        "grid": {"n_steps": shape["n"]},
        "driver": _driver(rng, shape["driver"], market, shape["jobs"]),
        "payoff": _payoff(rng, shape["payoff"]),
        "jobs": list(shape["jobs"]),
        "verify": _checks(shape["n"], shape["jobs"]),
        "seed": rng.randrange(1000),
    }


def generate(workload: str, seed: int, round_: int = 0) -> list:
    """The job documents of round ``round_`` of ``workload`` for ``seed``.

    The first document of round 0 is the one the benchmark re-runs for the
    byte-identical report check, so the first shape stays first (each
    workload lists a cheap shape first).
    """
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r} "
                       f"(expected one of {sorted(WORKLOADS)})")
    rng = random.Random(f"{workload}:{seed}:{round_}")
    shapes = WORKLOADS[workload]["shapes"]()
    jobs = [make_job(rng, shape) for shape in shapes]
    head, rest = jobs[:1], jobs[1:]
    rng.shuffle(rest)
    return head + rest


def warmup_job(workload: str, seed: int) -> dict:
    """The untimed warm-up job: the first job of round 0 on four steps,
    without the rule enumeration of the duality check."""
    job = generate(workload, seed)[0]
    job["grid"] = {"n_steps": 4}
    job["verify"] = [c for c in _checks(4, job["jobs"]) if c != "duality"]
    return job
