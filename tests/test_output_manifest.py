"""Every output of round 0 of the ``strip_small`` and ``hedge_verify``
benchmark workloads matches a committed manifest of sha256 hashes.

Each job of ``perfbench/workloads.py`` runs in process as
``amhedge price job.json --out out --dump-tree``; its exit code, stderr and
the bytes of ``report.json``, ``tree.json``, ``wealth.csv`` and
``wealth_buyer.csv`` are hashed. A deliberate output change regenerates the
manifest (and says so in CHANGES.md):

    PYTHONPATH=src python tests/test_output_manifest.py
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from amhedge.cli import main

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("output_manifest.json")
SEED = 5
WORKLOADS = ("strip_small", "hedge_verify")
OUTPUTS = ("report.json", "tree.json", "wealth.csv", "wealth_buyer.csv")


def _workloads():
    """``perfbench/workloads.py``, imported without writing bytecode there."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def job_hashes(job: dict) -> dict:
    """Hashes of the job document and of everything one run of it leaves."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        tmp = Path(tmp)
        (tmp / "job.json").write_text(json.dumps(job, sort_keys=True))
        code = main(["price", str(tmp / "job.json"), "--out", str(tmp / "out"),
                     "--dump-tree"])
        out = tmp / "out"
        files = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
        hashes = {name: _sha((out / name).read_bytes()) if name in files else None
                  for name in OUTPUTS}
    return {"job": _sha(json.dumps(job, sort_keys=True)), "exit": code,
            "stderr": _sha(err.getvalue()), "files": files, **hashes}


def workload_hashes(workload: str) -> dict:
    return {f"{workload} {i}": job_hashes(job)
            for i, job in enumerate(_workloads().generate(workload, SEED, 0))}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_match_manifest(workload):
    expected = json.loads(MANIFEST.read_text())["jobs"]
    got = workload_hashes(workload)
    assert sorted(got) == sorted(k for k in expected if k.startswith(workload + " "))
    changed = [(label, [key for key in got[label] if got[label][key] != expected[label][key]])
               for label in got if got[label] != expected[label]]
    assert not changed, f"outputs differ from the manifest: {changed[:5]}"


if __name__ == "__main__":
    jobs = {label: hashes for workload in WORKLOADS
            for label, hashes in workload_hashes(workload).items()}
    MANIFEST.write_text(json.dumps({"seed": SEED, "round": 0, "jobs": jobs},
                                   indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(jobs)} job hashes to {MANIFEST}")
