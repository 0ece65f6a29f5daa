#!/usr/bin/env python3
"""End-to-end benchmark of the amhedge job runner.

Runs one workload of generated job documents through the public front door
``amhedge.cli.main(["price", <job.json>, "--out", <dir>])`` in a closed loop
with one client, checks every output and prints the metrics; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload strip_small --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it reports the end-to-end metrics with tracing off:

* ``setup_s``: median over several fresh interpreters, spread over the run,
  of the wall time to import amhedge, generate the job documents and run one
  untimed warm-up job;
* ``job_cost.mean``: mean cost of one job, the reciprocal of throughput;
* ``peak_rss_mb``: peak resident set size of this process.

A job's cost is its wall time divided by the wall time of a fixed
pure-Python reference workload measured between the jobs around it (unit
``ref``, see ``job_costs``). On a shared host whose speed changes by a third between
phases of a few seconds, the cost is steady where the raw wall time is not.
The median cost ``job_cost.p50``, the raw ``job_s.p50``, ``jobs_per_s`` and
(with at least 100 jobs) ``job_s.p90`` are printed too, with their sample
counts, but not reported as metrics: a workload's jobs are one per shape, so
the median falls on whichever shape sits in the middle by cost, and that
job's cost moves with the drawn parameters far more than the mean does.

With ``--trace 1`` it runs every job twice, untraced and traced (see
``spans.py``), checks that both give byte-identical reports, and reports the
per-layer metrics as means per traced job, plus ``trace.overhead_frac``, the
traced mean job cost over the untraced one, minus one.

The loop runs rounds of one job per shape of the workload, each round with
fresh parameter draws (see ``workloads.py``), and stops at the end of the
first whole round after ``--seconds`` of timed job time, so every run holds
the same mix of work. Everything runs inside the checkout; scratch files go to
``.perfbench_out/`` and are removed at exit, except the span dump of a traced
run. The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
REFERENCE_ENTRIES = 2_500
REFERENCE_SAMPLES = 3
REFERENCE_WINDOW_S = 0.25
SETUP_PROBE_TIMEOUT_S = 60
MAX_REPORTED_PROBLEMS = 5

_now = time.perf_counter


class BenchError(RuntimeError):
    """The benchmark cannot run; no result is printed."""


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "amhedge").rglob("*.py")))
    return {"cpu": _cpu_model(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": _git_commit(ROOT), "src_lines": src_lines}


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def run_cli(job_path: Path, out_dir: Path):
    """One job through the front door; None when it raised."""
    from amhedge import cli
    try:
        return cli.main(["price", str(job_path), "--out", str(out_dir)])
    except Exception:  # a traceback from the library is a failed job
        traceback.print_exc(file=sys.stderr)
        return None


def write_round(workload: str, seed: int, round_: int, jobs_dir: Path) -> tuple:
    """Generate and write the job documents of one round."""
    import workloads

    docs = workloads.generate(workload, seed, round_)
    jobs_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, doc in enumerate(docs):
        path = jobs_dir / f"{round_:03d}-{i:03d}.json"
        path.write_text(json.dumps(doc))
        paths.append(path)
    return docs, paths


def set_up(workload: str, seed: int, workdir: Path) -> tuple:
    """Import amhedge, write the first round's job documents and run the
    warm-up job."""
    import amhedge  # noqa: F401  (the import is part of set-up)
    import workloads

    jobs_dir = workdir / "jobs"
    docs, paths = write_round(workload, seed, 0, jobs_dir)
    warm_path = jobs_dir / "warmup.json"
    warm_path.write_text(json.dumps(workloads.warmup_job(workload, seed)))
    warm_out = workdir / "warmup"
    if run_cli(warm_path, warm_out) != 0:
        raise BenchError("the warm-up job failed")
    shutil.rmtree(warm_out)
    return docs, paths


class SetupTimer:
    """Set-up time in fresh interpreters, probed at even points of the run.

    Each probe is a new process that runs ``set_up`` and prints the time
    from just before it was spawned (``perf_counter`` is one monotonic clock
    for all processes) to the end of set-up; its exit is not set-up. Spread
    over the run, the probes see the machine's slow and fast phases alike.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.command = [sys.executable, str(Path(__file__).resolve()),
                        "--workload", workload, "--seed", str(seed), "--setup-probe"]
        self.every = seconds / SETUP_PROBES
        self.samples = []

    def probe(self) -> None:
        proc = subprocess.run(self.command + [repr(_now())], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=SETUP_PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited with {proc.returncode}")
        try:
            self.samples.append(float(proc.stdout.split()[-1]))
        except (IndexError, ValueError):
            raise BenchError(f"set-up probe printed {proc.stdout!r}") from None

    def at(self, timed: float) -> None:
        """Probe once if ``timed`` seconds of jobs have passed the next point."""
        if len(self.samples) < SETUP_PROBES and timed >= len(self.samples) * self.every:
            self.probe()

    def finish(self) -> list:
        while len(self.samples) < SETUP_PROBES:
            self.probe()
        return self.samples


# ---------------------------------------------------------------------------
# Timed loop
# ---------------------------------------------------------------------------

def reference_seconds() -> float:
    """Wall time of a fixed pure-Python workload: build and read a dict of
    tuples, the kind of work the library's lattice code does."""
    start = _now()
    table = {}
    for i in range(REFERENCE_ENTRIES):
        table[(i >> 3, i & 7, 0)] = (i * 0.5, i + 1.0, i & 1 == 0)
    acc = 0.0
    for first, second, _ in table.values():
        acc += first * second
    return _now() - start


def job_costs(jobs: list, refs: list) -> list:
    """Cost of each job: its wall time over the machine's reference time.

    ``jobs`` holds (start, wall, k) triples and ``refs`` (time, reference
    seconds) pairs in time order: ``refs[k - 1]`` was taken right before
    the job and ``refs[k]`` right after it. A job's reference time is the
    mean of these two and of every sample taken within one job length, and
    at least ``REFERENCE_WINDOW_S``, on either side of it: a short job is
    compared with the machine's speed at that moment, and a long one, whose
    speed is an average over phases the samples at its edges cannot see,
    with the speed over a longer stretch.
    """
    times = [t for t, _ in refs]
    costs = []
    for start, wall, k in jobs:
        reach = max(wall, REFERENCE_WINDOW_S)
        lo = min(k - 1, bisect.bisect_left(times, start - reach))
        hi = max(k + 1, bisect.bisect_right(times, start + wall + reach))
        costs.append(wall / statistics.fmean(v for _, v in refs[lo:hi]))
    return costs


class Run:
    """Outcome counters, job times and machine-speed samples of one run."""

    def __init__(self, workload: str, seed: int, docs, paths, workdir: Path):
        import checker
        self.checker = checker
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.docs = []
        self.paths = []
        self.oracle = {}
        self.rounds = []         # job indices of each round
        self._add(docs, paths)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.refs = []

    def _add(self, docs, paths) -> None:
        first = len(self.docs)
        self.docs += docs
        self.paths += paths
        self.oracle.update({first + i: self.checker.oracle_price(doc)
                            for i, doc in enumerate(docs) if self.checker.has_oracle(doc)})
        self.rounds.append(range(first, len(self.docs)))

    def round(self, r: int) -> range:
        """Job indices of round ``r``, written (with their oracle prices
        computed) when the round is first needed."""
        while len(self.rounds) <= r:
            self._add(*write_round(self.workload, self.seed, len(self.rounds),
                                   self.workdir / "jobs"))
        return self.rounds[r]

    def sample_speed(self) -> None:
        """Record the median of a few reference timings, with the time."""
        value = statistics.median(reference_seconds() for _ in range(REFERENCE_SAMPLES))
        self.refs.append((_now(), value))

    def job(self, i: int, out_dir: Path, tracer=None) -> tuple:
        """Run and check job ``i``, traced when a tracer is given.

        Returns ((start, wall seconds, index of the next machine-speed
        sample), problems, report bytes or None). The
        timed part is the ``cli.main`` call and a ``gc.collect()`` of the
        cyclic garbage the job left behind: that collection is the job's
        cost, and left pending it would land in whatever runs next. The
        heap from before the first job is frozen (see ``main``), so the
        collection covers the job's own objects only. A machine-speed sample
        follows the job; the checks run after that.
        """
        if not self.refs:
            self.sample_speed()
        k = len(self.refs)
        start = _now()
        if tracer is None:
            code = run_cli(self.paths[i], out_dir)
            gc.collect()
            wall = _now() - start
        else:
            wall, code = _traced_job(tracer, self.paths[i], out_dir)
        self.sample_speed()
        problems, _ = self.checker.check_job(self.docs[i], code, out_dir,
                                             self.oracle.get(i))
        data = None if problems else (out_dir / "report.json").read_bytes()
        shutil.rmtree(out_dir, ignore_errors=True)
        return (start, wall, k), problems, data

    def record(self, i: int, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_REPORTED_PROBLEMS:
                self.problems.append(f"job {i}: {'; '.join(problems)}")

    def rerun_check(self, first_report) -> None:
        """Gate C11: a rerun of the first job gives a byte-identical report."""
        _, problems, data = self.job(0, self.workdir / "rerun")
        if not problems and data != first_report:
            problems.append("rerun report is not byte-identical")
        self.record(0, problems)


def _traced_job(tracer, path: Path, out_dir: Path) -> tuple:
    """One job through the front door with the wrappers installed."""
    import spans
    from amhedge import cli

    undo = spans.install(tracer)
    tracer.begin_job(len(tracer.jobs))
    start = _now()
    root = tracer.open(spans.ROOT)
    try:
        code = cli.main(["price", str(path), "--out", str(out_dir)])
    except Exception:  # a traceback from the library is a failed job
        traceback.print_exc(file=sys.stderr)
        code = None
    finally:
        tracer.close(root)
        gc.collect()
        wall = _now() - start
        undo()
    summary = tracer.end_job(wall)
    summary["counts"]["cli.report_bytes"] = (
        sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.is_dir() else 0)
    return wall, code


def measure(run: Run, seconds: float, tracer=None, setup=None) -> tuple:
    """Run whole rounds of the workload until ``seconds`` of timed job time.

    Without a tracer every job runs once; with one, every job runs untraced
    and then traced, and the two reports must be byte-identical. A
    ``SetupTimer`` probes between jobs. Returns {"plain": [(wall, cost)],
    "traced": [(wall, cost)]} and the report of the first job.
    """
    jobs = {"plain": [], "traced": []}
    first_report = None
    out_dir = run.workdir / "out"
    timed = 0.0
    r = 0
    while timed < seconds:
        for i in run.round(r):
            if setup is not None:
                setup.at(timed)
            timing, problems, plain_report = run.job(i, out_dir)
            run.record(i, problems)
            jobs["plain"].append(timing)
            timed += timing[1]
            if i == 0 and first_report is None:
                first_report = plain_report
            if tracer is None:
                continue
            timing, problems, report = run.job(i, out_dir, tracer)
            if not problems and report != plain_report:
                problems.append("traced report differs from the untraced one")
            run.record(i, problems)
            jobs["traced"].append(timing)
            timed += timing[1]
        r += 1
    samples = {kind: list(zip((wall for _, wall, _ in timings),
                              job_costs(timings, run.refs)))
               for kind, timings in jobs.items()}
    return samples, first_report


def write_spans(tracer, path: Path, env: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"environment": env,
                   "fields": ["name", "start", "end", "parent", "job"],
                   "spans": tracer.spans, "jobs": tracer.jobs}, handle)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(samples: list, setup: list) -> tuple:
    """(metrics, printed lines) of an untraced run."""
    walls = [wall for wall, _ in samples]
    costs = [cost for _, cost in samples]
    n = len(samples)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "job_cost.mean": _metric(statistics.fmean(costs), "ref"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
    }
    counts = {"setup_s": len(setup), "job_cost.mean": n}
    lines = [f"{name:<14} {m['value']:.6g} {m['unit']}"
             + (f"  (n={counts[name]})" if name in counts else "")
             for name, m in metrics.items()]
    lines += ["not reported as metrics:",
              f"{'job_cost.p50':<14} {statistics.median(costs):.6g} ref  (n={n})",
              f"{'job_s.p50':<14} {statistics.median(walls):.6g} s  (n={n})",
              f"{'jobs_per_s':<14} {n / sum(walls):.6g} 1/s  (n={n})"]
    if n >= 100:  # at least ten samples beyond the 90th percentile
        lines.append(f"{'job_s.p90':<14} {statistics.quantiles(walls, n=10)[-1]:.6g} s"
                     f"  (n={n})")
    return metrics, lines


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "oracle.s":
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name == "bsde.picard_per_node":
        return "evals/node"
    if name == "cli.report_bytes":
        return "B"
    return "count"


def per_layer(samples: dict, tracer) -> tuple:
    """(metrics, printed lines) of a traced run."""
    import spans
    values = spans.layer_metrics(tracer.jobs)
    plain = statistics.fmean(cost for _, cost in samples["plain"])
    traced = statistics.fmean(cost for _, cost in samples["traced"])
    values["trace.overhead_frac"] = traced / plain - 1.0
    metrics = {name: _metric(values[name], _layer_unit(name)) for name in sorted(values)}
    lines = [f"{name:<28} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"per traced job; traced jobs: {len(samples['traced'])}, "
                 f"untraced jobs: {len(samples['plain'])}")
    return metrics, lines


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, metavar="START",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "amhedge" / "__init__.py").is_file():
        print(f"perfbench: no amhedge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(expected one of {sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_probe is not None:
            set_up(args.workload, args.seed, workdir)
            print(_now() - args.setup_probe)
            return 0
        docs, paths = set_up(args.workload, args.seed, workdir)
        env = environment()
        run = Run(args.workload, args.seed, docs, paths, workdir)
        gc.collect()
        gc.freeze()
        if args.trace:
            import spans
            tracer = spans.Tracer()
            samples, first_report = measure(run, args.seconds, tracer)
            metrics, lines = per_layer(samples, tracer)
            write_spans(tracer, OUT / f"spans-{args.workload}-{args.seed}.json", env)
        else:
            setup = SetupTimer(args.workload, args.seed, args.seconds)
            samples, first_report = measure(run, args.seconds, setup=setup)
            metrics, lines = end_to_end(samples["plain"], setup.finish())
        run.rerun_check(first_report)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in run.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{run.attempted} jobs attempted, {run.failed} failed, "
          f"fail_frac {run.failed / run.attempted:.6g}")
    for line in lines:
        print(line)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
