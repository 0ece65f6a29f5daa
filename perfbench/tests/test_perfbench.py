"""Tests of the benchmark's own parts: generator, checker, tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import gc
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from amhedge import cli  # noqa: E402


def _run(job: dict, tmp_path: Path, name: str = "out") -> tuple:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(job))
    out = tmp_path / name
    return cli.main(["price", str(path), "--out", str(out)]), out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7, 1) == workloads.generate(workload, 7, 1)
    # Another seed, or another round, draws other parameters for the same
    # mix of shapes.
    shape = lambda job: (job["grid"]["n_steps"], job["driver"]["name"],
                         job["payoff"]["kind"], tuple(job["jobs"]))
    for other in (workloads.generate(workload, 8), workloads.generate(workload, 7, 1)):
        assert other != first
        assert sorted(map(shape, first)) == sorted(map(shape, other))


def test_checker_counts_a_corrupted_u0_as_a_failure(tmp_path):
    job = next(doc for doc in workloads.generate("strip_small", 3)
               if checker.has_oracle(doc) and doc["grid"]["n_steps"] == 8)
    oracle_u0 = checker.oracle_price(job)
    code, out = _run(job, tmp_path)
    problems, report = checker.check_job(job, code, out, oracle_u0)
    assert problems == []

    report["u0"] = report["u0"] + 1e-9
    (out / "report.json").write_text(cli.canonical_json(report))
    problems, _ = checker.check_job(job, code, out, oracle_u0)
    assert any("u0" in p for p in problems)
    assert checker.check_job(job, 2, out, oracle_u0)[0] == ["exit code 2"]


def test_self_times_on_a_synthetic_span_tree():
    tree = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),      # overlaps a: the union 1..6 is covered
        ("a.child", 2.0, 3.5, 1),
        ("gc", 8.0, 12.0, 0),    # clipped to the parent's end
        ("leaf", 7.0, 7.5, None),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.5, 3.0, 1.5, 4.0, 0.5])


def test_accounted_frac_shows_time_no_wrapper_covers(monkeypatch):
    clock = iter([0.0, 1.0, 4.0, 4.5, 5.0, 10.0])
    monkeypatch.setattr(spans, "_now", lambda: next(clock))
    tracer = spans.Tracer()
    tracer.begin_job(0)
    root = tracer.open(spans.ROOT)                  # 0.0
    sweep = tracer.open("rbsde.sweep")              # 1.0
    tracer.close(sweep)                             # 4.0
    tracer.gc_callback("start", {})                 # 4.5
    tracer.gc_callback("stop", {})                  # 5.0
    tracer.close(root)                              # 10.0: 6 s unwrapped
    metrics = spans.layer_metrics([tracer.end_job(10.0)])
    assert metrics["cli.self_s"] == pytest.approx(6.5)
    assert metrics["rbsde.sweep_s"] == pytest.approx(3.0)
    assert metrics["runtime.gc_s"] == pytest.approx(0.5)
    assert metrics["trace.accounted_frac"] == pytest.approx(0.35)


def test_bind_frac_counts_reflecting_nodes_not_ties():
    # Node "tie" sits on the obstacle with no charge, as a call does out of
    # reach; only "push", where the reflection adds a charge, binds.
    result = SimpleNamespace(kind="lower", delta_a={"tie": 0.0, "push": 0.2, "free": 0.0},
                             y={"tie": 0.0, "push": 1.0, "free": 2.0})
    obstacle = SimpleNamespace(values={"tie": 0.0, "push": 1.0, "free": 0.5})
    tracer = spans.Tracer()
    tracer.begin_job(0)
    tracer.pending.append(("solve", result, (object(), object(), obstacle)))
    metrics = spans.layer_metrics([tracer.end_job(1.0)])
    assert metrics["rbsde.bind_frac"] == pytest.approx(1 / 3)


def _full_hedge_verify_job(n_steps):
    job = next(doc for doc in workloads.generate("hedge_verify", 1)
               if doc["grid"]["n_steps"] == 8 and doc["jobs"] == workloads.FULL)
    job["grid"] = {"n_steps": n_steps}
    return job


def test_full_n8_hedge_verify_job_runs_ten_reflected_solves(tmp_path):
    job = _full_hedge_verify_job(8)
    assert job["verify"] == workloads.HEDGE_CHECKS + ["martingale"]
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        tracer.begin_job(0)
        root = tracer.open(spans.ROOT)
        code, out = _run(job, tmp_path)
        tracer.close(root)
    finally:
        undo()
    summary = tracer.end_job(1.0)
    assert code == 0
    assert summary["counts"]["rbsde.solves"] == 10
    # Seller, buyer and the apriori check's shifted seller.
    assert summary["distinct_solves"] == 3
    # hedge, the superhedge check (seller and buyer each) and martingale.
    assert summary["counts"]["hedging.simulations"] == 5


def test_wrappers_change_no_numbers(tmp_path):
    job = _full_hedge_verify_job(4)
    code, plain = _run(job, tmp_path, "plain")
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        tracer.begin_job(0)
        traced_code, traced = _run(job, tmp_path, "traced")
    finally:
        undo()
    assert code == traced_code == 0
    assert (plain / "report.json").read_bytes() == (traced / "report.json").read_bytes()
    # Every wrapper is removed again.
    assert cli.build_tree.__module__ == "amhedge.market"
    assert tracer.gc_callback not in gc.callbacks


def test_benchmark_json_lists_what_the_benchmark_emits():
    import run
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w["why"] for name, w in workloads.WORKLOADS.items()}
    metrics, _ = run.end_to_end([(0.5, 10.0), (1.5, 30.0)], [0.2, 0.3])
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics)
    assert all(m["unit"] == metrics[m["name"]]["unit"] for m in spec["end_to_end"])
    layer = set(spans.layer_metrics([])) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layer
