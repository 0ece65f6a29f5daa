"""Run the benchmark's job documents through two source trees and compare
every output byte.

    python scripts/compare_outputs.py PARENT_SRC CHANGE_SRC --seed 5 --rounds 2

PARENT_SRC and CHANGE_SRC are directories holding the ``amhedge`` package
(for example ``src`` of two checkouts). Every job of rounds 0 .. R-1 of the
three workloads in ``perfbench/workloads.py`` runs, and after them the
fixed ``EDGE_JOBS``, which reach what no workload job does:

* hedge and verify jobs on the README market whose stability-estimate
  check fails with a finite violation (the workloads draw only jobs whose
  checks pass);
* two price jobs whose intensity steps from 0.25 to 0 and from 0 to 0.25
  at t = 0.5, so that ``tree.json`` holds alive rows whose branch count
  changes partway down the tree;
* a verify-only job (skorokhod, apriori, martingale, duality) at n = 4,
  which solves the seller and the stability check's shifted seller in one
  sweep of two sides;
* verify-only ``duality`` jobs at n = 1 and n = 3, and at n = 4 with no
  default (lambda = 0, two branches per node) under ``perfect`` and
  ``large_trader``, so that the rule enumeration meets short trees and
  two-branch frontiers (the workloads run it only at n = 4 with default);
* the README put under ``borrow_lend`` R = 40 at n = 4, as a
  price+hedge+verify and as a hedge+verify job: the buyer's solve
  diverges at node (3, 0, 0) while the seller's alone converges, and both
  exit 3;
* a verify-only ``duality`` job on a call K = 95 with no default
  (lambda = 0) under ``large_trader`` alpha = 0.01 at n = 3: the seller's
  solve converges, but the rule enumeration diverges at t = 1/3, so the
  duality oracle walks the rules one at a time and the job exits 3;
* a verify-only skorokhod job on a call K = 95 with no default
  (lambda = 0), R = 2 and n = 2, whose seller alone diverges at node
  (1, 0, 0) and exits 3;
* a verify-only job running the ``gamma`` and ``admissible`` checks at
  n = 16 on a market whose intensity steps from 0.25 to 0 at t = 0.5, so
  that the jump-monotonicity check skips the steps without default (no
  workload job runs ``gamma``);
* a hedge and verify job at n = 16 with seed 2**32 + 5, whose 10,000
  sampled paths are seeded from two 32-bit words of the seed (the
  workloads draw seeds below 1000, which take one);
* the same job with seed 2**200 + 7, whose seven words overflow numpy's
  four-word entropy pool, so that the words beyond it are mixed in;
* hedge and verify jobs at n = 16, on 10,000 sampled paths, whose intensity
  steps from 0.25 to 0 or from 0 to 0.25 at t = 0.5, or is 0 throughout, so
  that the sampler picks branches in alive rows of two branches, which no
  workload job samples;
* a ``large_trader`` hedge and verify job at n = 8, on the exact path
  expansion, whose intensity steps from 0 to 0.25 at t = 0.5, with the
  superhedge, skorokhod and martingale checks;
* a verify-only superhedge, apriori and skorokhod job at n = 16, on 10,000
  sampled paths, whose seller, buyer and shifted seller (the apriori check's
  second driver) are three sides of one sweep;
* the README put under ``borrow_lend`` R = 40 at n = 4 as a verify-only
  apriori and superhedge job: the apriori check's beta message comes first,
  and the buyer's divergence, kept from the sweep, is never raised;
* a ``large_trader`` hedge and verify job with the apriori check at n = 8,
  whose intensity steps from 0.25 to 0 at t = 0.5, so that the shifted
  seller's rows lose their default branch partway down the tree;
* a price and hedge job at n = 96 whose intensity steps from 0.25 to 0 at
  t = 0.5: its strategy tables and ``tree.json`` span three pieces of
  ``cli._CHUNK`` keys, so the node orders and the keys made a piece at a
  time are compared across pieces, on alive and defaulted rows of unequal
  length, with branch lists that change partway down the tree.

Each job runs as
``amhedge price job.json --out out --dump-tree`` in a fresh Python
process for each tree. The exit code, stderr, the set of output files and
the bytes of ``report.json``, ``wealth.csv``, ``wealth_buyer.csv`` and
``tree.json`` must be equal. The first difference is named and the exit code is 1;
otherwise the exit code is 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # import the workloads without writing into perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

OUTPUTS = ("report.json", "wealth.csv", "wealth_buyer.csv", "tree.json")
RUN_CLI = "import sys; from amhedge.cli import main; sys.exit(main(sys.argv[1:]))"


def edge_job(name: str, params: dict, n_steps: int, lam=0.25, jobs=("hedge", "verify"),
             payoff=("put", 105.0), verify=("superhedge", "apriori", "skorokhod"),
             seed=0) -> dict:
    """A README-market option under one driver, hedged and verified unless ``jobs`` says
    otherwise; ``lam`` is the intensity, a number or a piecewise block, ``payoff`` the
    ``(kind, strike)``, ``verify`` the checks and ``seed`` the path sample's seed."""
    return {"market": {"r": 0.05, "mu1": 0.07, "mu2": -0.02, "sigma1": 0.2, "sigma2": 0.25,
                       "lambda": lam, "s1_0": 100.0, "s2_0": 90.0, "T": 1.0},
            "grid": {"n_steps": n_steps}, "driver": {"name": name, "params": params},
            "payoff": dict(zip(("kind", "strike"), payoff)), "jobs": list(jobs),
            "verify": list(verify), "seed": seed}


EDGE_JOBS = [
    *(edge_job("large_trader", {"alpha": 5e-4, "gamma_bar": 0.2}, n) for n in (8, 12)),
    edge_job("borrow_lend", {"R": 1.0}, 16),
    *(edge_job("borrow_lend", {"R": rate}, 32) for rate in (2.0, 2.3)),
    *(edge_job("borrow_lend", {"R": 0.07}, 16, {"values": values, "times": [0.0, 0.5]},
               ["price"]) for values in ([0.25, 0.0], [0.0, 0.25])),
    edge_job("borrow_lend", {"R": 0.07}, 4, jobs=["verify"],
             verify=["skorokhod", "apriori", "martingale", "duality"]),
    *(edge_job("borrow_lend", {"R": 0.07}, n, jobs=["verify"], verify=["duality"])
      for n in (1, 3)),
    *(edge_job(name, params, 4, lam=0.0, jobs=["verify"], verify=["duality"])
      for name, params in (("perfect", {}), ("large_trader", {"alpha": 5e-4, "gamma_bar": 0.2}))),
    *(edge_job("borrow_lend", {"R": 40.0}, 4, jobs=jobs)
      for jobs in (["price", "hedge", "verify"], ["hedge", "verify"])),
    edge_job("large_trader", {"alpha": 0.01, "gamma_bar": 0.2}, 3, lam=0.0, jobs=["verify"],
             payoff=("call", 95.0), verify=["duality"]),
    edge_job("borrow_lend", {"R": 2.0}, 2, lam=0.0, jobs=["verify"], payoff=("call", 95.0),
             verify=["skorokhod"]),
    edge_job("borrow_lend", {"R": 0.07}, 16, {"values": [0.25, 0.0], "times": [0.0, 0.5]},
             ["verify"], verify=["gamma", "admissible"]),
    *(edge_job("borrow_lend", {"R": 0.07}, 16, seed=seed) for seed in (2**32 + 5, 2**200 + 7)),
    *(edge_job("borrow_lend", {"R": 0.07}, 16, lam) for lam in (
        {"values": [0.25, 0.0], "times": [0.0, 0.5]}, {"values": [0.0, 0.25], "times": [0.0, 0.5]},
        0.0)),
    edge_job("large_trader", {"alpha": 5e-4, "gamma_bar": 0.2}, 8,
             {"values": [0.0, 0.25], "times": [0.0, 0.5]},
             verify=["superhedge", "skorokhod", "martingale"]),
    edge_job("borrow_lend", {"R": 0.07}, 16, jobs=["verify"],
             verify=["superhedge", "apriori", "skorokhod"]),
    edge_job("borrow_lend", {"R": 40.0}, 4, jobs=["verify"], verify=["apriori", "superhedge"]),
    edge_job("large_trader", {"alpha": 5e-4, "gamma_bar": 0.2}, 8,
             {"values": [0.25, 0.0], "times": [0.0, 0.5]}, verify=["superhedge", "apriori"]),
    edge_job("borrow_lend", {"R": 0.07}, 96, {"values": [0.25, 0.0], "times": [0.0, 0.5]},
             ["price", "hedge"]),
]


def run_job(src: Path, job: dict, workdir: Path) -> dict:
    """One job in a fresh process; its exit code, stderr and output bytes."""
    workdir.mkdir(parents=True)
    (workdir / "job.json").write_text(json.dumps(job))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_CLI, "price", "job.json", "--out", "out", "--dump-tree"],
        cwd=workdir, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True)
    out = workdir / "out"
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return {"exit code": proc.returncode,
            "stderr": proc.stderr.replace(str(src), "<src>"),
            "output files": sorted(files),
            **{name: files.get(name) for name in OUTPUTS}}


def first_difference(a: dict, b: dict):
    return next((key for key in a if a[key] != b[key]), None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1, help="rounds 0 .. R-1")
    args = parser.parse_args(argv)
    srcs = [args.parent_src.resolve(), args.change_src.resolve()]
    for src in srcs:
        if not (src / "amhedge" / "cli.py").is_file():
            parser.error(f"{src} does not hold the amhedge package")

    jobs = [(f"{name} round {r} job {i}", job)
            for name in workloads.WORKLOADS for r in range(args.rounds)
            for i, job in enumerate(workloads.generate(name, args.seed, r))]
    jobs += [(f"edge job {i}", job) for i, job in enumerate(EDGE_JOBS)]
    with tempfile.TemporaryDirectory() as tmp:
        for index, (label, job) in enumerate(jobs):
            workdir = Path(tmp) / str(index)
            diff = first_difference(*[run_job(src, job, workdir / side)
                                      for side, src in zip(("parent", "change"), srcs)])
            shutil.rmtree(workdir)
            if diff is not None:
                print(f"DIFFERENT: {label}: {diff}\n{json.dumps(job, sort_keys=True)}")
                return 1
    print(f"identical: {len(jobs)} jobs ({len(jobs) - len(EDGE_JOBS)} of seed {args.seed}, "
          f"rounds 0..{args.rounds - 1}, and {len(EDGE_JOBS)} edge jobs); "
          f"exit codes, stderr and {', '.join(OUTPUTS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
