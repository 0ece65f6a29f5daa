"""Output checks for benchmark jobs.

A job fails when its exit code is not 0 or when any check below fails on
its ``report.json``. Every failure feeds ``failed`` in the benchmark
result; the messages say which check failed.
"""

from __future__ import annotations

import json
from pathlib import Path

from amhedge import oracle, pricing
from amhedge.market import MarketParams
from amhedge.payoffs import payoff_from_config

ORACLE_TOL = 1e-12


def has_oracle(job: dict) -> bool:
    """Frictionless jobs without default have a binomial reference price."""
    return (job["driver"]["name"] == "perfect" and "price" in job["jobs"]
            and job["market"]["lambda"] == 0.0)


def oracle_price(job: dict) -> float:
    """Binomial American price of a job that ``has_oracle``."""
    params = MarketParams.from_dict(job["market"])
    payoff = payoff_from_config(job["payoff"])
    return oracle.crr_american_oracle(params, payoff, job["grid"]["n_steps"])


def check_report(job: dict, report: dict, oracle_u0: float = None) -> list:
    """Problems found in a parsed report; empty when the report is right."""
    problems = []
    if "price" in job["jobs"]:
        if report.get("interval_ok") is not True:
            problems.append("interval_ok is not true")
        u0, v0 = report.get("u0"), report.get("v0")
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                   for x in (u0, v0)):
            problems.append("u0/v0 missing")
            return problems
        if job["driver"]["name"] == "perfect" and abs(u0 - v0) > pricing.INTERVAL_TOL:
            problems.append(f"perfect driver: |u0 - v0| = {abs(u0 - v0):.3g}")
        if oracle_u0 is not None and abs(u0 - oracle_u0) > ORACLE_TOL:
            problems.append(f"binomial oracle: |u0 - oracle| = {abs(u0 - oracle_u0):.3g}")
    if "verify" in job["jobs"]:
        verification = report.get("verification") or {}
        if verification.get("all_passed") is not True:
            failed = sorted(name for name, c in verification.get("checks", {}).items()
                            if not c.get("passed"))
            problems.append(f"verification failed: {failed}")
    return problems


def check_job(job: dict, exit_code, out_dir: Path, oracle_u0: float = None) -> tuple:
    """Check one finished job; returns (problems, parsed report or None)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], None
    try:
        report = json.loads((Path(out_dir) / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"], None
    return check_report(job, report, oracle_u0), report
