"""Batch front door: read a JSON job, run the pipelines, write reports.

Output is deterministic: report keys are emitted in sorted order and every
float is rendered with 17 significant digits, so identical configurations
produce byte-identical files.

Exit codes: 0 success, 2 configuration or guard error, 3 solver failure,
4 failed verification under --strict.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from decimal import Decimal
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import hedging, oracle, pricing
from .bsde import ConvergenceError
from .drivers import (Driver, admissibility_rows, borrow_lend_driver,
                      check_gamma_assumption, check_lambda_admissible,
                      gamma_rows, large_trader_driver, perfect_driver)
from .market import MarketParams, build_tree, is_finite_number
from .payoffs import payoff_from_config
from .rbsde import Obstacle, skorokhod_residual, solve_rbsde_lower

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

# Largest grid a job may ask for. A lattice of n steps has (n + 1)^2 nodes at
# most (alive and defaulted rows), so the cap is about 16.8M nodes.
MAX_STEPS = 4096

_JOBS = ("price", "hedge", "verify")
_CHECKS = ("superhedge", "duality", "apriori", "skorokhod", "martingale",
           "gamma", "admissible")

WEALTH_CSV_HEADER = ("path_id", "step", "node", "V", "xi", "slack")


class ConfigError(ValueError):
    """Configuration problem; the message names the offending field."""


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------

_encode_str = json.encoder.encode_basestring_ascii  # equals json.dumps on a str


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    if x == 0.0:
        return "0"
    return format(x, ".17g")


class NodeTable(NamedTuple):
    """Written as the dict {key: {column: value}}; keys and values in key order."""

    keys: list
    columns: dict


def _table_json(table: NodeTable) -> str:
    names = sorted(table.columns)
    values = np.column_stack([table.columns[name] for name in names]).ravel()
    bad = ~np.isfinite(values)
    if bad.any():
        _fmt_float(float(values[bad.argmax()]))  # raises, naming the first one
    # "%.17g" formats as _fmt_float does; adding 0.0 turns -0.0 into 0.
    entry = ": {" + ", ".join(f"{_encode_str(name)}: %.17g" for name in names) + "}"
    body = (entry + ", ").join(map(_encode_str, table.keys)) + entry if table.keys else ""
    return "{" + body % tuple((values + 0.0).tolist()) + "}"


def canonical_json(obj) -> str:
    """Serialize with sorted keys and fixed float formatting."""
    out = []
    append = out.append

    def emit(value):
        kind = type(value)  # exact types first: floats, strings and dicts dominate
        if kind is float:
            append(_fmt_float(value))
        elif kind is str:
            append(_encode_str(value))
        elif kind is NodeTable:
            append(_table_json(value))
        elif isinstance(value, dict):
            append("{")
            for i, key in enumerate(sorted(value)):
                if i:
                    append(", ")
                append(_encode_str(str(key)))
                append(": ")
                emit(value[key])
            append("}")
        elif isinstance(value, bool):
            append("true" if value else "false")
        elif value is None:
            append("null")
        elif isinstance(value, int):
            append(str(value))
        elif isinstance(value, float):
            append(_fmt_float(value))
        elif isinstance(value, str):
            append(_encode_str(value))
        elif isinstance(value, (list, tuple)) and {*map(type, value)} <= {str}:
            append("[" + ", ".join(map(_encode_str, value)) + "]")  # node key lists
        elif isinstance(value, (list, tuple)):
            append("[")
            for i, item in enumerate(value):
                if i:
                    append(", ")
                emit(item)
            append("]")
        else:
            raise ValueError(f"cannot serialize {type(value).__name__}")

    emit(obj)
    append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def build_driver(params: MarketParams, block: dict) -> Driver:
    _known(block, "driver", ("name", "params"))
    name = block.get("name")
    dparams = block.get("params", {})
    if not isinstance(dparams, dict):
        raise ConfigError("driver.params: must be an object")
    if name == "perfect":
        if dparams:
            raise ConfigError(f"driver.params: 'perfect' takes none, got {sorted(dparams)}")
        return perfect_driver(params)
    if name == "borrow_lend":
        _known(dparams, "driver.params", ("R",))
        if "R" not in dparams:
            raise ConfigError("driver.params.R: required for 'borrow_lend'")
        try:
            return borrow_lend_driver(params, dparams["R"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"driver.params.R: {exc}") from None
    if name == "large_trader":
        _known(dparams, "driver.params", ("alpha", "gamma_bar"))
        missing = [k for k in ("alpha", "gamma_bar") if k not in dparams]
        if missing:
            raise ConfigError(f"driver.params: missing {missing} for 'large_trader'")
        for key in ("alpha", "gamma_bar"):
            value = dparams[key]
            if not is_finite_number(value):
                raise ConfigError(f"driver.params.{key}: must be a finite number, "
                                  f"got {value!r}")
        try:
            return large_trader_driver(params, dparams["alpha"], dparams["gamma_bar"])
        except ValueError as exc:
            raise ConfigError(f"driver.params.gamma_bar: {exc}") from None
    raise ConfigError(f"driver.name: unknown driver {name!r} "
                      f"(expected perfect, borrow_lend or large_trader)")


def parse_config(config: dict) -> dict:
    """Validate the job document and build the runtime objects."""
    if not isinstance(config, dict):
        raise ConfigError("config: top level must be an object")
    _known(config, "config", ("market", "grid", "driver", "payoff", "jobs", "verify",
                              "output_dir", "strict", "seed"))
    for key in ("market", "grid", "driver", "payoff"):
        if key not in config:
            raise ConfigError(f"{key}: required")

    try:
        params = MarketParams.from_dict(config["market"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"market: {exc}") from None

    grid = config["grid"]
    if not isinstance(grid, dict) or "n_steps" not in grid:
        raise ConfigError("grid.n_steps: required")
    _known(grid, "grid", ("n_steps",))
    n_steps = grid["n_steps"]
    if not (is_finite_number(n_steps) and int(n_steps) == n_steps >= 1):
        raise ConfigError(f"grid.n_steps: must be a positive integer, got {n_steps!r}")
    n_steps = int(n_steps)
    if n_steps > MAX_STEPS:
        raise ConfigError(
            f"grid.n_steps: {Decimal(n_steps):.4g} steps make about "
            f"{Decimal((n_steps + 1) ** 2):.3g} lattice nodes, over the cap of "
            f"{MAX_STEPS} steps ({Decimal((MAX_STEPS + 1) ** 2):.3g} nodes)")

    driver = build_driver(params, config["driver"]
                          if isinstance(config["driver"], dict)
                          else _bad("driver"))
    try:
        payoff = payoff_from_config(config["payoff"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    jobs = _list(config, "jobs", ["price"])
    for job in jobs:
        if job not in _JOBS:
            raise ConfigError(f"jobs: unknown job {job!r} (expected {list(_JOBS)})")
    checks = _list(config, "verify", [])
    for check in checks:
        if check not in _CHECKS:
            raise ConfigError(f"verify: unknown check {check!r} (expected {list(_CHECKS)})")
    seed = config.get("seed", 0)
    if not (is_finite_number(seed) and int(seed) == seed >= 0):
        raise ConfigError(f"seed: must be a non-negative integer, got {seed!r}")
    strict = config.get("strict", False)
    if not isinstance(strict, bool):
        raise ConfigError(f"strict: must be true or false, got {strict!r}")
    output_dir = config.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError(f"output_dir: must be a string, got {output_dir!r}")

    return {"params": params, "n_steps": n_steps, "driver": driver,
            "payoff": payoff, "jobs": jobs, "checks": checks,
            "strict": strict, "seed": int(seed), "output_dir": output_dir}


def _bad(field: str):
    raise ConfigError(f"{field}: must be an object")


def _known(block: dict, field: str, keys: tuple) -> None:
    extra = sorted(set(block) - set(keys))
    if extra:
        raise ConfigError(f"{field}: unknown key(s) {extra}")


def _list(config: dict, key: str, default: list) -> list:
    value = config.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"{key}: must be a list, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Serialization of pricing results
# ---------------------------------------------------------------------------

def _strategy_table(tree, strategy: pricing.Strategy) -> NodeTable:
    # Serialised like {key: {"phi1": .., "phi2": ..}} over the non-terminal nodes.
    by_key = tree.orders[1]
    order = by_key[by_key < len(tree.keys) - sum(map(len, tree.s1[-1]))]  # below the last step
    phi1, phi2 = (tree.flat(rows)[order] for rows in (strategy.phi1_rows, strategy.phi2_rows))
    return NodeTable([tree.keys[p] for p in order.tolist()], {"phi1": phi1, "phi2": phi2})


def _rule_dict(tree, rule: pricing.StoppingRule) -> dict:
    by_id = tree.orders[0]
    order = by_id[tree.flat(rule.rows)[by_id]]
    return {"stopped": [tree.keys[p] for p in order.tolist()]}


def report_to_dict(report: pricing.PricingReport) -> dict:
    seller, buyer = report.seller, report.buyer
    tree = seller.solution.tree
    return {
        "u0": seller.u0,
        "v0": buyer.v0,
        "interval_ok": report.interval_ok,
        "seller_strategy": _strategy_table(tree, seller.strategy),
        "buyer_strategy": _strategy_table(tree, buyer.strategy),
        "buyer_exercise": _rule_dict(tree, buyer.exercise),
        "nu_star": _rule_dict(tree, report.nu_star),
        "nu_bar": _rule_dict(tree, report.nu_bar),
    }


# ---------------------------------------------------------------------------
# Verification checks
# ---------------------------------------------------------------------------

def _check_superhedge(seller_rep, buyer_rep):
    passed = (seller_rep.passed and buyer_rep.passed
              and buyer_rep.max_abs_at_stop <= hedging.SUPERHEDGE_TOL)
    return {"passed": passed,
            "seller_min_slack": seller_rep.min_slack,
            "buyer_min_slack": buyer_rep.min_slack,
            "buyer_max_abs_at_stop": buyer_rep.max_abs_at_stop}


def _check_duality(tree, driver, obstacle, seller):
    if tree.n_steps > oracle.MAX_ENUM_STEPS:
        raise ConfigError(
            f"grid.n_steps: duality check enumerates stopping rules and is "
            f"limited to {oracle.MAX_ENUM_STEPS} steps, got {tree.n_steps}")
    u0 = seller().u0
    brute = oracle.brute_force_seller_value(tree, driver, obstacle)
    gap = abs(u0 - brute)
    return {"passed": gap <= oracle.DUALITY_TOL, "solver_value": u0,
            "enumerated_value": brute, "gap": gap}


def _check_apriori(tree, driver, obstacle, solution):
    delta = 0.1
    shifted = Driver(name=f"{driver.name}+shift",
                     eval=lambda t, y, z, k, s: driver.eval(t, y, z, k, s) + delta,
                     lipschitz_C=driver.lipschitz_C)
    c = driver.lipschitz_C
    eta = 1.0 / (c * c + 1.0)
    beta = 3.0 / eta + 2.0 * c + 1.0
    report = oracle.apriori_estimate(solution, solve_rbsde_lower(tree, shifted, obstacle),
                                     eta, beta)
    return {"passed": report.passed(),
            "eta": eta, "beta": beta,
            "max_pointwise_violation": report.max_pointwise_violation,
            "y_norm_violation": report.y_norm_violation,
            "zk_norm_violation": report.zk_norm_violation}


def _check_skorokhod(tree, obstacle, solution):
    residual = skorokhod_residual(solution, obstacle)
    charge = tree.flat(solution.da_rows)
    min_da = float(charge.min()) if charge.size else 0.0
    min_gap = float((tree.flat(solution.y_rows) - tree.flat(obstacle.rows)).min())
    passed = residual == 0.0 and min_da >= 0.0 and min_gap >= 0.0
    return {"passed": passed, "flatness_residual": residual,
            "min_charge": min_da, "min_gap_to_obstacle": min_gap}


def _check_martingale(tree, driver, seller_field):
    # Within this guard simulate_wealth expands every path, as the residual needs.
    if tree.n_steps > hedging.MAX_EXACT_STEPS:
        raise ConfigError(
            f"grid.n_steps: martingale check needs the exact path expansion "
            f"and is limited to {hedging.MAX_EXACT_STEPS} steps, got {tree.n_steps}")
    residual = hedging.wealth_martingale_residual(seller_field(), driver)
    return {"passed": residual <= hedging.MARTINGALE_TOL, "residual": residual}


def _check_gamma(tree, driver):
    steps = [(tree.time(i), tree.coef[i]) for i in range(tree.n_steps)]
    report = check_gamma_assumption(driver, gamma_rows(tree.params, steps=steps))
    min_ratio = None if math.isinf(report.min_ratio) else report.min_ratio
    return {"passed": report.passed, "min_ratio": min_ratio,
            "n_samples": report.n_samples}


def _check_admissible(tree, driver):
    steps = [(tree.time(i), tree.coef[i]) for i in range(tree.n_steps)]
    report = check_lambda_admissible(driver, admissibility_rows(tree.params, steps=steps))
    return {"passed": report.passed, "max_ratio": report.max_ratio,
            "declared_C": report.lipschitz_C}


# ---------------------------------------------------------------------------
# Job runner
# ---------------------------------------------------------------------------

def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(WEALTH_CSV_HEADER)
        for pid, step, node, v, xi, slack in rows:
            writer.writerow([pid, step, node, _fmt_float(v), _fmt_float(xi),
                             _fmt_float(slack)])


def _run_jobs(job: dict, tree, obstacle, out: Path) -> dict:
    """Run the requested jobs, solving and simulating each side at most once;
    all of it is freed on return, before the report is serialised."""
    driver, seed = job["driver"], job["seed"]
    report = pricing.price_american(tree, driver, obstacle) if "price" in job["jobs"] else None
    document = report_to_dict(report) if report else {}

    @functools.cache
    def seller():
        return report.seller if report else pricing.seller_price(
            tree, driver, obstacle, gamma_check=False)

    @functools.cache
    def seller_field():
        return hedging.simulate_wealth(tree, seller().u0, seller().strategy, driver, seed=seed)

    @functools.cache
    def hedge():
        buyer = report.buyer if report else pricing.buyer_price(
            tree, driver, obstacle, gamma_check=False)
        bfield = hedging.simulate_wealth(tree, -buyer.v0, buyer.strategy, driver, seed=seed)
        return (hedging.verify_superhedge_seller(seller_field(), obstacle),
                hedging.verify_superhedge_buyer(bfield, obstacle, buyer.exercise))

    if "hedge" in job["jobs"]:
        seller_rep, buyer_rep = hedge()
        _write_csv(out / "wealth.csv", hedging.violation_rows(seller_rep))
        _write_csv(out / "wealth_buyer.csv", hedging.violation_rows(buyer_rep))

    if "verify" in job["jobs"]:
        run_check = {
            "superhedge": lambda: _check_superhedge(*hedge()),
            "duality": lambda: _check_duality(tree, driver, obstacle, seller),
            "apriori": lambda: _check_apriori(tree, driver, obstacle, seller().solution),
            "skorokhod": lambda: _check_skorokhod(tree, obstacle, seller().solution),
            "martingale": lambda: _check_martingale(tree, driver, seller_field),
            "gamma": lambda: _check_gamma(tree, driver),
            "admissible": lambda: _check_admissible(tree, driver),
        }
        checks = {name: run_check[name]() for name in job["checks"]}
        all_passed = all(c["passed"] for c in checks.values())
        document["verification"] = {"checks": checks, "all_passed": all_passed}
    return document


def run(config: dict, out_dir=None, strict: bool = False,
        dump_tree: bool = False) -> int:
    """Execute one job document; returns the process exit code."""
    try:
        job = parse_config(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(out_dir or job["output_dir"] or ".")
    out.mkdir(parents=True, exist_ok=True)
    strict = strict or job["strict"]

    try:
        tree = build_tree(job["params"], job["n_steps"])
    except ValueError as exc:
        print(f"config error: market: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        obstacle = Obstacle.from_payoff(tree, job["payoff"])
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        document = _run_jobs(job, tree, obstacle, out)
    except ConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if dump_tree:
        (out / "tree.json").write_text(canonical_json(tree.to_dict()))
    (out / "report.json").write_text(canonical_json(document))

    verification = document.get("verification")
    if strict and verification is not None and not verification["all_passed"]:
        failed = sorted(name for name, c in verification["checks"].items()
                        if not c["passed"])
        print(f"verification failed: {failed}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="amhedge",
                                     description="Price and superhedge American "
                                                 "options on a defaultable lattice.")
    sub = parser.add_subparsers(dest="command", required=True)
    price = sub.add_parser("price", help="run a JSON job document")
    price.add_argument("config", help="path to the job document")
    price.add_argument("--strict", action="store_true",
                       help="exit 4 when any requested verification fails")
    price.add_argument("--dump-tree", action="store_true",
                       help="also write tree.json")
    price.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        config = json.loads(Path(args.config).read_text())
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:  # also bytes that are not UTF-8, or an over-long integer
        print(f"config error: {args.config} is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(config, out_dir=args.out, strict=args.strict,
               dump_tree=args.dump_tree)


if __name__ == "__main__":
    sys.exit(main())
