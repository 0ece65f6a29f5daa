"""Span tracing for the benchmark's traced run, from outside the library.

``install`` wraps the names that the library's callers look up at call time
(for example ``amhedge.cli.build_tree`` or ``amhedge.pricing.solve_rbsde_lower``)
so that each call records a span: name, start, end, parent span and job id.
Driver evaluations are counted by wrapping the driver factories that
``amhedge.cli`` imports, and each evaluation is attributed to the innermost
open span. Garbage-collector pauses are recorded as ``runtime.gc`` spans
through ``gc.callbacks``, as children of the span they interrupt.

Spans are kept in memory; per-job summaries are computed when a job ends,
outside every span. A span's self time is its duration minus the part of it
covered by its child spans.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from collections import Counter, defaultdict

_now = time.perf_counter

# The span around the whole front-door call of a traced job.
ROOT = "cli"

# Span name -> per-layer self-time metric.
SELF_METRICS = {
    ROOT: "cli.self_s",
    "cli.parse": "cli.parse_s",
    "cli.serialize": "cli.serialize_s",
    "market.build": "market.build_s",
    "payoffs.obstacle": "payoffs.obstacle_s",
    "drivers.precheck": "drivers.precheck_s",
    "drivers.check": "drivers.check_s",
    "rbsde.sweep": "rbsde.sweep_s",
    "pricing": "pricing.self_s",
    "hedging.simulate": "hedging.simulate_s",
    "hedging.verify": "hedging.verify_s",
    "bsde.solve": "bsde.solve_s",
    "oracle": "oracle.s",
    "runtime.gc": "runtime.gc_s",
}

# Innermost open span -> driver-evaluation bucket.
EVAL_BUCKETS = {"drivers.precheck": "precheck", "rbsde.sweep": "sweep",
                "hedging.simulate": "forward"}
BUCKETS = ("precheck", "sweep", "forward", "other")

COUNT_METRICS = ("cli.report_bytes", "market.nodes", "drivers.precheck_samples", "rbsde.solves",
                 "rbsde.nodes_swept", "hedging.simulations", "hedging.states")


def self_times(spans) -> list:
    """Self time of each span in ``spans``.

    ``spans`` is a list of (name, start, end, parent) where ``parent`` is the
    index of the parent span in the same list, or None. A span's self time is
    its duration minus the length of the union of its children's intervals,
    each clipped to the span.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job id]
        self.stack = []          # indices of open spans, innermost last
        self.job = None
        self.bucket = "other"
        self.evals = Counter()
        self.pending = []        # (kind, result, args) summarised at end_job
        self.jobs = []           # per-job summaries
        self._job_first = 0
        self._gc_start = None

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, _now(), None, parent, self.job])
        self.stack.append(idx)
        self.bucket = EVAL_BUCKETS.get(name, "other")
        return idx

    def close(self, idx: int) -> None:
        end = _now()
        while self.stack:  # also closes spans an exception left open
            top = self.stack.pop()
            self.spans[top][2] = end
            if top == idx:
                break
        self.bucket = (EVAL_BUCKETS.get(self.spans[self.stack[-1]][0], "other")
                       if self.stack else "other")

    def gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = _now()
        elif self._gc_start is not None:
            parent = self.stack[-1] if self.stack else None
            self.spans.append(["runtime.gc", self._gc_start, _now(), parent, self.job])
            self._gc_start = None

    # -- jobs ---------------------------------------------------------------
    def begin_job(self, job_id) -> None:
        self.job = job_id
        self._job_first = len(self.spans)
        self.evals = Counter()
        self.pending = []

    def end_job(self, wall: float) -> dict:
        """Summarise the spans and counts of the job that just ended."""
        first = self._job_first
        rows = [(name, start, end, None if parent is None else parent - first)
                for name, start, end, parent, _ in self.spans[first:]]
        selfs = Counter()
        for (name, *_), value in zip(rows, self_times(rows)):
            selfs[name] += value
        summary = {"job": self.job, "wall": wall, "self": dict(selfs),
                   "evals": {b: self.evals[b] for b in BUCKETS},
                   **_summarise_pending(self.pending)}
        self.jobs.append(summary)
        self.job = None
        self.pending = []
        return summary


def _summarise_pending(pending) -> dict:
    counts = Counter({name: 0 for name in COUNT_METRICS})
    distinct = set()
    bound = 0
    for kind, result, args in pending:
        if kind == "tree":
            counts["market.nodes"] += len(result.nodes)
        elif kind == "gamma":
            counts["drivers.precheck_samples"] += result.n_samples
        elif kind == "field":
            counts["hedging.simulations"] += 1
            counts["hedging.states"] += sum(len(ids) for ids in result.node_ids)
        elif kind == "solve":
            tree, driver, obstacle = args[:3]
            counts["rbsde.solves"] += 1
            counts["rbsde.nodes_swept"] += len(result.delta_a)
            # Nodes where the reflection pushes: a tie of the continuation
            # value with the obstacle (a call out of reach) is not binding.
            bound += sum(1 for charge in result.delta_a.values() if charge > 0)
            distinct.add((id(tree), id(driver), result.kind,
                          tuple(obstacle.values.values())))
    return {"counts": dict(counts), "distinct_solves": len(distinct),
            "bound_nodes": bound}


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _traced(tracer, name, fn, keep=None):
    """``fn`` inside a span; with ``keep``, its result and arguments are
    kept under that kind for the job summary."""
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if keep is not None:
            tracer.pending.append((keep, result, args))
        return result
    return wrapper


def _counting_factory(tracer, factory):
    def make(*args, **kwargs):
        driver = factory(*args, **kwargs)
        inner = driver.eval

        def counted(t, y, z, k, state):
            tracer.evals[tracer.bucket] += 1
            return inner(t, y, z, k, state)

        return dataclasses.replace(driver, eval=counted)
    return make


def _targets():
    """(module, attribute, span name, kind kept or None) of each wrapper."""
    from amhedge import cli, hedging, oracle, pricing
    return [
        (cli, "parse_config", "cli.parse", None),
        (cli, "build_tree", "market.build", "tree"),
        (cli, "report_to_dict", "cli.serialize", None),
        (cli, "canonical_json", "cli.serialize", None),
        (cli, "_write_csv", "cli.serialize", None),
        (cli, "solve_rbsde_lower", "rbsde.sweep", "solve"),
        (cli, "check_lambda_admissible", "drivers.check", None),
        (cli, "check_gamma_assumption", "drivers.check", None),
        (pricing, "price_american", "pricing", None),
        (pricing, "seller_price", "pricing", None),
        (pricing, "buyer_price", "pricing", None),
        (pricing, "_require_gamma", "drivers.precheck", None),
        (pricing, "check_gamma_assumption", "drivers.precheck", "gamma"),
        (pricing, "solve_rbsde_lower", "rbsde.sweep", "solve"),
        (pricing, "solve_rbsde_upper", "rbsde.sweep", "solve"),
        (pricing, "g_evaluation", "bsde.solve", None),
        (hedging, "simulate_wealth", "hedging.simulate", "field"),
        (hedging, "verify_superhedge_seller", "hedging.verify", None),
        (hedging, "verify_superhedge_buyer", "hedging.verify", None),
        (hedging, "wealth_martingale_residual", "hedging.verify", None),
        (hedging, "solve_rbsde_lower", "rbsde.sweep", "solve"),
        (oracle, "brute_force_seller_value", "oracle", None),
        (oracle, "apriori_estimate_check", "oracle", None),
        (oracle, "solve_rbsde_lower", "rbsde.sweep", "solve"),
        (oracle, "g_evaluation", "bsde.solve", None),
    ]


def install(tracer: Tracer):
    """Install every wrapper and the gc callback; returns an undo function."""
    from amhedge import cli
    from amhedge.rbsde import Obstacle

    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for owner, attr, name, keep in _targets():
        patch(owner, attr, _traced(tracer, name, getattr(owner, attr), keep))
    for attr in ("perfect_driver", "borrow_lend_driver", "large_trader_driver"):
        patch(cli, attr, _counting_factory(tracer, getattr(cli, attr)))
    from_payoff = Obstacle.__dict__["from_payoff"].__func__
    patch(Obstacle, "from_payoff",
          classmethod(_traced(tracer, "payoffs.obstacle", from_payoff)))
    gc.callbacks.append(tracer.gc_callback)

    def undo():
        gc.callbacks.remove(tracer.gc_callback)
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(jobs: list) -> dict:
    """Per-job means of every layer metric over the traced jobs.

    Self times and counts are means per job; the fractions and the Picard
    count are ratios of totals over all jobs.
    """
    n = len(jobs)
    out = {}
    for span_name, metric in SELF_METRICS.items():
        out[metric] = _ratio(sum(j["self"].get(span_name, 0.0) for j in jobs), n)
    totals = Counter()
    for job in jobs:
        totals.update(job["counts"])
        totals.update({f"drivers.evals.{b}": v for b, v in job["evals"].items()})
        totals["distinct"] += job["distinct_solves"]
        totals["bound"] += job["bound_nodes"]
    for metric in COUNT_METRICS + tuple(f"drivers.evals.{b}" for b in BUCKETS):
        out[metric] = _ratio(totals[metric], n)
    out["rbsde.distinct_solve_frac"] = _ratio(totals["distinct"], totals["rbsde.solves"])
    out["rbsde.bind_frac"] = _ratio(totals["bound"], totals["rbsde.nodes_swept"])
    out["bsde.picard_per_node"] = _ratio(totals["drivers.evals.sweep"],
                                         totals["rbsde.nodes_swept"])
    # The root span "cli" covers the whole front-door call, so its self time
    # is whatever no wrapper covers; it is left out of the accounted part.
    wall = sum(j["wall"] for j in jobs)
    out["trace.accounted_frac"] = _ratio(
        sum(v for j in jobs for name, v in j["self"].items() if name != ROOT), wall)
    return out
