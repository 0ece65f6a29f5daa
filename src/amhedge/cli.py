"""Batch front door: read a JSON job, run the pipelines, write reports.

The document alone decides the work: ``parse_config`` rejects a grid beyond a
check's limit before the lattice is built; ``_run_jobs`` does each part once.

Output is deterministic: report keys are emitted in sorted order and every
float is rendered with 17 significant digits, so identical configurations
produce byte-identical files, and ``run`` publishes a run's files together,
each one whole, once its report is complete.

Exit codes: 0 success, 2 configuration or guard error (an unusable output
location included), 3 solver failure, 4 failed verification under --strict.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import json
import math
import os
import sys
from decimal import Decimal
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import hedging, oracle, pricing
from .bsde import ConvergenceError
from .drivers import (Driver, admissibility_rows, borrow_lend_driver,
                      check_gamma_assumption, check_lambda_admissible,
                      gamma_rows, large_trader_driver, perfect_driver, piece_steps,
                      split_eval, split_of)
from .market import MarketParams, Tree, build_tree, is_finite_number
from .payoffs import payoff_from_config
# solve_rbsde_lower stays a name of this module: the benchmark's tracer wraps it here.
from .rbsde import Obstacle, skorokhod_residual, solve_rbsde_lower, solved  # noqa: F401

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
# The largest grid of each check that has one, and why, checked by parse_config.
_CHECK_LIMITS = {"duality": (oracle.MAX_ENUM_STEPS, "enumerates stopping rules"),
                 "martingale": (hedging.MAX_EXACT_STEPS, "needs the exact path expansion")}

WEALTH_CSV_HEADER = ("path_id", "step", "node", "V", "xi", "slack")


class ConfigError(ValueError):
    """Configuration problem; the message names the offending field."""


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------

_encode_str = json.encoder.encode_basestring_ascii  # equals json.dumps on a str

# Keys per piece: node tables, key lists and tree.json's nodes are written this
# many keys at a time, so no string of a whole document is built.
_CHUNK = 4096


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    if x == 0.0:
        return "0"
    return format(x, ".17g")


def _require_finite(values: np.ndarray) -> None:
    for bad in values[~np.isfinite(values)][:1]:
        _fmt_float(float(bad))  # raises, naming the first one


class Nodes(NamedTuple):
    """The nodes at row-order positions ``at`` in rows that start at ``starts``
    (``_orders``), written as the list of their keys or, with ``columns`` (values in
    row order), as the dict {key: {column: value}}. A key is digits and commas, so it
    is written without escaping."""

    starts: np.ndarray
    at: np.ndarray
    columns: dict = None


def _locate(starts: np.ndarray, at: np.ndarray) -> tuple:
    """Row (2 * step + defaulted) and up count of the nodes at row-order positions ``at``."""
    row = np.searchsorted(starts, at, side="right") - 1
    return row, at - starts[row]


def _orders(tree: Tree) -> tuple:
    """Where each row's nodes start in row order (the node count last), and the
    row-order positions of every node sorted by node id and by node key: one argsort
    each of (step * (n + 1) + up) * 2 + defaulted, step and up ranked as strings for
    the keys ("10" sorts before "9")."""
    starts = np.cumsum([0] + [len(row) for rows in tree.s1 for row in rows])
    row, up = _locate(starts, np.arange(starts[-1]))
    step, d, size = row >> 1, row & 1, tree.n_steps + 1
    rank = np.argsort(sorted(range(size), key=str))  # place of each number in key order
    return starts, *(np.argsort((s * size + j) * 2 + d, kind="stable")
                     for s, j in ((step, up), (rank[step], rank[up])))


def _keyed_json(nodes: Nodes, write) -> None:
    """``nodes`` written _CHUNK per piece: each piece's text joined from its nodes'
    steps and up counts, then one % over its values."""
    columns = nodes.columns
    names = sorted(columns or ())
    # "%.17g" formats as _fmt_float does; adding 0.0 turns -0.0 into 0.
    tail = ('"' if columns is None
            else '": {' + ", ".join(f"{_encode_str(name)}: %.17g" for name in names) + "}")
    # A node's text is steps[step] + tails[defaulted, up]: its key between the separator
    # before it and the text after it; joined a piece at a time, no key string is made.
    starts, size = nodes.starts, len(nodes.starts) // 2  # two rows a step: n + 1
    steps = np.array([f', "{i}' for i in range(size)], dtype=object)
    tails = np.array([[f",{j},{d}{tail}" for j in range(size)] for d in (0, 1)], dtype=object)
    write("[" if columns is None else "{")
    for a in range(0, len(nodes.at), _CHUNK):
        at = nodes.at[a:a + _CHUNK]
        row, up = _locate(starts, at)
        text = np.empty((len(at), 2), dtype=object)
        text[:, 0], text[:, 1] = steps[row >> 1], tails[row & 1, up]
        text = "".join(text.ravel().tolist())[0 if a else 2:]  # no separator before the first
        if names:
            values = np.column_stack([columns[name][at] for name in names]).ravel()
            _require_finite(values)
            text %= tuple((values + 0.0).tolist())
        write(text)
    write("]" if columns is None else "}")


def _tree_json(tree: Tree, write) -> None:
    """tree.json from the level rows: each row's constants formatted once, then
    the nodes in key order, _CHUNK per piece."""
    entries, ups = [], []  # per row; %d and %.17g: a node's up count, its children's, s1, s2
    for i, rows in enumerate(tree.row_branches + [((), ())]):
        for d, branches in enumerate(rows):
            links = ", ".join('{"child": "%d,%%d,%d", "dm": %s, "dw": %s, "kind": "%s", "prob": %s}'
                              % (i + 1, b.child[2], _fmt_float(b.dm), _fmt_float(b.dw), b.kind,
                                 _fmt_float(b.prob)) for b in branches)
            entries.append('"%d,%%d,%d": {%s"defaulted": %s, "lam": %s, "s0": %s, "s1": %%.17g, '
                           '"s2": %%.17g}' % (i, d, f'"branches": [{links}], ' if branches else "",
                           "true" if d else "false", _fmt_float(0.0 if d else tree.coef[i].lam),
                           _fmt_float(tree.s0[i])))
            ups.append([b.child[1] for b in branches])
            _require_finite(np.concatenate((tree.s1[i][d], tree.s2[i][d])))
    starts, _, by_key = _orders(tree)
    s1, s2 = tree.flat(tree.s1) + 0.0, tree.flat(tree.s2) + 0.0
    write(f'{{"dt": {_fmt_float(tree.dt)}, "n_steps": {tree.n_steps}, "nodes": {{')
    for a in range(0, len(by_key), _CHUNK):
        at = by_key[a:a + _CHUNK]
        write((", " if a else "") + ", ".join([
            entries[r] % (j, *[j + up for up in ups[r]], x, y)
            for r, j, x, y in zip(*(column.tolist() for column in
                                    (*_locate(starts, at), s1[at], s2[at])))]))
    write("}}")


def _emit(value, write) -> None:
    if isinstance(value, Nodes):  # before the tuples
        _keyed_json(value, write)
    elif isinstance(value, Tree):
        _tree_json(value, write)
    elif isinstance(value, dict):
        write("{")
        for i, key in enumerate(sorted(value)):
            write((", " if i else "") + _encode_str(str(key)) + ": ")
            _emit(value[key], write)
        write("}")
    elif isinstance(value, (list, tuple)):
        write("[")
        for i, item in enumerate(value):
            if i:
                write(", ")
            _emit(item, write)
        write("]")
    elif isinstance(value, bool):
        write("true" if value else "false")
    elif value is None:
        write("null")
    elif isinstance(value, int):
        write(str(value))
    elif isinstance(value, float):
        write(_fmt_float(value))
    elif isinstance(value, str):
        write(_encode_str(value))
    else:
        raise ValueError(f"cannot serialize {type(value).__name__}")


def canonical_json(obj, write=None):
    """Serialize with sorted keys and fixed float formatting (a ``Tree`` as
    tree.json), piece by piece to ``write``, or returned as one string without it.
    A bad value raises ValueError after the pieces before it; ``_write`` drops them."""
    parts = []
    sink = write or parts.append
    _emit(obj, sink)
    sink("\n")
    return None if write else "".join(parts)


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def build_driver(params: MarketParams, block: dict) -> Driver:
    if not isinstance(block, dict):
        raise ConfigError("driver: must be an object")
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
    if not (_is_whole(n_steps) and n_steps >= 1):
        raise ConfigError(f"grid.n_steps: must be a positive integer, got {n_steps!r}")
    n_steps = int(n_steps)
    if n_steps > MAX_STEPS:
        raise ConfigError(
            f"grid.n_steps: {Decimal(n_steps):.4g} steps make about "
            f"{Decimal((n_steps + 1) ** 2):.3g} lattice nodes, over the cap of "
            f"{MAX_STEPS} steps ({Decimal((MAX_STEPS + 1) ** 2):.3g} nodes)")

    driver = build_driver(params, config["driver"])
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
    if not (_is_whole(seed) and seed >= 0):
        raise ConfigError(f"seed: must be a non-negative integer, got {seed!r}")
    strict = config.get("strict", False)
    if not isinstance(strict, bool):
        raise ConfigError(f"strict: must be true or false, got {strict!r}")
    output_dir = config.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError(f"output_dir: must be a string, got {output_dir!r}")
    checks = list(dict.fromkeys(checks)) if "verify" in jobs else []  # each once, as named
    for check in checks:
        limit, need = _CHECK_LIMITS.get(check, (math.inf, ""))
        if n_steps > limit:
            raise ConfigError(f"grid.n_steps: {check} check {need} and is limited to "
                              f"{limit} steps, got {n_steps}")

    return {"params": params, "n_steps": n_steps, "driver": driver,
            "payoff": payoff, "jobs": jobs, "checks": checks,
            "strict": strict, "seed": int(seed), "output_dir": output_dir}


def _known(block: dict, field: str, keys: tuple) -> None:
    extra = sorted(set(block) - set(keys))
    if extra:
        raise ConfigError(f"{field}: unknown key(s) {extra}")


def _list(config: dict, key: str, default: list) -> list:
    value = config.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"{key}: must be a list, got {value!r}")
    return value


def _is_whole(value) -> bool:
    """An int other than a bool, of any size (its ``float()`` overflows from
    2**1024 on), or a finite float of integral value."""
    return (value.is_integer() if isinstance(value, float)
            else isinstance(value, int) and not isinstance(value, bool))


# ---------------------------------------------------------------------------
# Serialization of pricing results
# ---------------------------------------------------------------------------

def report_to_dict(report: pricing.PricingReport) -> dict:
    seller, buyer = report.seller, report.buyer
    tree = seller.solution.tree
    starts, by_id, by_key = _orders(tree)
    inner = by_key[by_key < starts[2 * tree.n_steps]]  # below step n, in key order

    def table(strategy: pricing.Strategy) -> Nodes:  # {key: {"phi1": .., "phi2": ..}}
        return Nodes(starts, inner, {"phi1": tree.flat(strategy.phi1_rows),
                                     "phi2": tree.flat(strategy.phi2_rows)})

    def stopped(rule: pricing.StoppingRule) -> dict:  # in node id order
        return {"stopped": Nodes(starts, by_id[tree.flat(rule.rows)[by_id]])}
    return {
        "u0": seller.u0,
        "v0": buyer.v0,
        "interval_ok": report.interval_ok,
        "seller_strategy": table(seller.strategy),
        "buyer_strategy": table(buyer.strategy),
        "buyer_exercise": stopped(buyer.exercise),
        "nu_star": stopped(report.nu_star),
        "nu_bar": stopped(report.nu_bar),
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


def _check_duality(tree, driver, obstacle, u0):
    brute = oracle.brute_force_seller_value(tree, driver, obstacle)
    gap = abs(u0 - brute)
    return {"passed": gap <= oracle.DUALITY_TOL, "solver_value": u0,
            "enumerated_value": brute, "gap": gap}


def _shifted(driver: Driver) -> Driver:
    """The apriori check's second driver: g + 0.1, with g's own operations first."""
    delta, split = 0.1, split_of(driver)

    def shifted_split(t, z, k, state):
        g = split(t, z, k, state)
        return lambda y: g(y) + delta
    return Driver(name=f"{driver.name}+shift", lipschitz_C=driver.lipschitz_C,
                  eval=split_eval(shifted_split, getattr(driver.eval, "times", None)))


def _check_apriori(driver, solution, shifted):
    # ``shifted`` is the shifted seller's entry of the job's sweep: its error, if it
    # failed, is raised after the eta check.
    c = driver.lipschitz_C
    eta = 1.0 / (c * c + 1.0)
    if eta == 0.0:
        raise ConfigError(f"verify: apriori: eta = 1/(C^2 + 1) is 0, so beta = 3/eta + 2C + 1 "
                          f"is infinite (the driver's lipschitz_C = {c:.6g})")
    beta = 3.0 / eta + 2.0 * c + 1.0
    shifted = solved(shifted)
    try:
        report = oracle.apriori_estimate(solution, shifted, eta, beta)
    except ValueError as exc:
        raise ConfigError(f"verify: apriori: {exc}") from None
    return {"passed": report.passed(),
            "eta": eta, "beta": beta,
            "max_pointwise_violation": report.max_pointwise_violation,
            "y_norm_violation": report.y_norm_violation,
            "zk_norm_violation": report.zk_norm_violation}


def _check_skorokhod(tree, obstacle, solution):
    residual = skorokhod_residual(solution, obstacle)
    min_da = float(tree.flat(solution.da_rows).min())
    min_gap = float((tree.flat(solution.y_rows) - tree.flat(obstacle.rows)).min())
    passed = residual == 0.0 and min_da >= 0.0 and min_gap >= 0.0
    return {"passed": passed, "flatness_residual": residual,
            "min_charge": min_da, "min_gap_to_obstacle": min_gap}


def _check_martingale(driver, field):
    # Within parse_config's limit the field expands every path, as the residual needs.
    residual = hedging.wealth_martingale_residual(field, driver)
    return {"passed": residual <= hedging.MARTINGALE_TOL, "residual": residual}


def _check_gamma(tree, driver):
    steps = [(tree.time(i), tree.coef[i]) for i in range(tree.n_steps)]
    report = check_gamma_assumption(driver, gamma_rows(tree.params, steps=steps))
    min_ratio = None if math.isinf(report.min_ratio) else report.min_ratio
    return {"passed": report.passed, "min_ratio": min_ratio,
            "n_samples": report.n_samples}


def _check_admissible(tree, driver):
    # A piece's states differ only in t, so its first step gives every bit of the report.
    report = check_lambda_admissible(
        driver, admissibility_rows(tree.params, steps=piece_steps(tree, driver)))
    return {"passed": report.passed, "max_ratio": report.max_ratio,
            "declared_C": report.lipschitz_C}


# ---------------------------------------------------------------------------
# Job runner
# ---------------------------------------------------------------------------

def _write(path: Path, emit, parts: list) -> None:
    """Fill ``<name>.part`` by ``emit(handle)`` and list it with ``path`` in ``parts``;
    ``run`` moves a run's parts over their files together, or deletes them all."""
    part = path.with_name(path.name + ".part")
    with open(part, "w", newline="") as handle:
        parts.append((part, path))
        emit(handle)


def _write_csv(path: Path, rows, parts: list) -> None:
    def emit(handle):
        writer = csv.writer(handle)
        writer.writerow(WEALTH_CSV_HEADER)
        writer.writerows([pid, step, node, _fmt_float(v), _fmt_float(xi), _fmt_float(slack)]
                         for pid, step, node, v, xi, slack in rows)
    _write(path, emit, parts)


def _hedge(job: dict, obstacle, field, buyer: pricing.BuyerPrice) -> tuple:
    """Superhedge reports of the seller's wealth ``field`` and of the buyer."""
    bfield = hedging.simulate_wealth(field.tree, -buyer.v0, buyer.strategy, job["driver"],
                                     paths=field.paths)
    return (hedging.verify_superhedge_seller(field, obstacle),
            hedging.verify_superhedge_buyer(bfield, obstacle, buyer.exercise))


def _run_jobs(job: dict, tree, obstacle, out: Path, parts: list) -> dict:
    """One sweep of every side the job reads, one path sample and the seller's wealth on
    it, the hedge and its files (listed in ``parts``), then the checks in order; nothing
    of the job is kept. A side's error is raised where the side is first used."""
    jobs, checks, driver, seed = job["jobs"], job["checks"], job["driver"], job["seed"]
    seller = buyer = field = hedge = None
    priced = "price" in jobs or "hedge" in jobs
    if priced or set(checks) - {"gamma", "admissible"}:  # the other checks read the seller
        kinds = ("lower", "upper") if priced or "superhedge" in checks else ("lower",)
        sides = pricing.solve_prices(tree, driver, obstacle, "price" in jobs, kinds,
                                     _shifted(driver) if "apriori" in checks else None)
        seller = pricing.seller_of(solved(sides[0]))
        if priced:  # the seller's error first, then the buyer's
            buyer = pricing.buyer_of(solved(sides[1]), obstacle)
    document = report_to_dict(pricing.report_of(seller, buyer, obstacle)) if "price" in jobs else {}
    if "hedge" in jobs or {"superhedge", "martingale"} & set(checks):
        paths = hedging.path_sample(tree, seed=seed)  # the buyer is simulated on it too
        field = hedging.simulate_wealth(tree, seller.u0, seller.strategy, driver, paths=paths)
    if "hedge" in jobs:
        hedge = _hedge(job, obstacle, field, buyer)
        _write_csv(out / "wealth.csv", hedging.violation_rows(hedge[0]), parts)
        _write_csv(out / "wealth_buyer.csv", hedging.violation_rows(hedge[1]), parts)

    if "verify" in jobs:
        run_check = {  # without a hedge job the buyer is simulated here
            "superhedge": lambda: _check_superhedge(*hedge or _hedge(
                job, obstacle, field, buyer or pricing.buyer_of(solved(sides[1]), obstacle))),
            "duality": lambda: _check_duality(tree, driver, obstacle, seller.u0),
            "apriori": lambda: _check_apriori(driver, seller.solution, sides[-1]),
            "skorokhod": lambda: _check_skorokhod(tree, obstacle, seller.solution),
            "martingale": lambda: _check_martingale(driver, field),
            "gamma": lambda: _check_gamma(tree, driver),
            "admissible": lambda: _check_admissible(tree, driver),
        }
        results = {name: run_check[name]() for name in checks}
        document["verification"] = {"checks": results,
                                    "all_passed": all(c["passed"] for c in results.values())}
    return document


def run(config: dict, out_dir=None, strict: bool = False,
        dump_tree: bool = False) -> int:
    """Execute one job document; returns the process exit code. Every failure,
    from the document to the last byte written, maps to its code here. The parts
    ``_write`` fills are moved over their files once report.json's is complete."""
    parts = []  # (part, file) of each file written, deleted unmoved on any failure
    try:
        job = parse_config(config)
        out = Path(out_dir or job["output_dir"] or ".")
        out.mkdir(parents=True, exist_ok=True)
        try:
            tree = build_tree(job["params"], job["n_steps"])
        except ValueError as exc:
            raise ConfigError(f"market: {exc}") from None
        document = _run_jobs(job, tree, Obstacle.from_payoff(tree, job["payoff"]), out, parts)
        if dump_tree:
            _write(out / "tree.json", lambda handle: canonical_json(tree, handle.write), parts)
        _write(out / "report.json", lambda handle: canonical_json(document, handle.write), parts)
        for _, path in parts:  # a move onto a directory fails: refuse it before the first move
            if path.is_dir() and not path.is_symlink():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for part, path in parts[-1:] + parts[:-1]:  # report.json first
            part.replace(path)
    except ConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        where = "output_dir" if not out_dir and job["output_dir"] else "--out"  # "." by default
        if exc.filename is not None:  # from an open or a move: named by the file, not its part
            exc = OSError(exc.errno, exc.strerror, str(exc.filename).removesuffix(".part"))
        print(f"config error: {where}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        for part, _ in parts:  # none left after the moves
            part.unlink(missing_ok=True)

    checks = document.get("verification", {"checks": {}})["checks"]
    failed = sorted(name for name, c in checks.items() if not c["passed"])
    if failed and (strict or job["strict"]):
        print(f"verification failed: {failed}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

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
