import contextlib
import copy
import errno
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from amhedge import cli, hedging, oracle, rbsde
from amhedge.bsde import ConvergenceError
from amhedge.drivers import Driver
from amhedge.cli import (EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, EXIT_VERIFY, MAX_STEPS,
                         ConfigError, Nodes, canonical_json, main,
                         parse_config, run)
from amhedge.market import MarketParams, build_tree, node_key
from amhedge.payoffs import put
from amhedge.pricing import price_american
from helpers import lexsort_orders, reference_tree_dict, row_lengths

# The example job document of the README.
README_JOB = {
    "market": {"r": 0.05, "mu1": 0.07, "mu2": -0.02, "sigma1": 0.2,
               "sigma2": 0.25, "lambda": 0.25, "s1_0": 100.0, "s2_0": 90.0,
               "T": 1.0},
    "grid": {"n_steps": 8},
    "driver": {"name": "borrow_lend", "params": {"R": 0.07}},
    "payoff": {"kind": "put", "strike": 105.0},
    "jobs": ["price", "hedge", "verify"],
    "verify": ["superhedge", "skorokhod", "martingale"],
    "output_dir": "out",
    "strict": False,
    "seed": 0,
}


def minimal_config(**overrides):
    cfg = {
        "market": {"r": 0.05, "mu1": 0.05, "mu2": 0.0, "sigma1": 0.2,
                   "sigma2": 0.3, "lambda": 0.0, "s1_0": 100.0, "s2_0": 90.0,
                   "T": 1.0},
        "grid": {"n_steps": 8},
        "driver": {"name": "perfect"},
        "payoff": {"kind": "put", "strike": 100.0},
        "jobs": ["price"],
    }
    cfg.update(overrides)
    return cfg


def _job(**fields):
    """The README job at n = 4, price only, with ``fields`` set; None removes a field."""
    job = {**copy.deepcopy(README_JOB), "grid": {"n_steps": 4}, "jobs": ["price"],
           "verify": [], **fields}
    return {key: value for key, value in job.items() if value is not None}


class TestCanonicalJson:
    def test_sorted_keys_and_17_digit_floats(self):
        doc = {"b": 0.1, "a": [1, True, None, "x"], "z": 0.0}
        text = canonical_json(doc)
        assert text == ('{"a": [1, true, null, "x"], '
                        '"b": 0.10000000000000001, "z": 0}\n')
        # float subclasses, a tuple and dicts nested in a list
        doc = {"f": np.float64(0.1), "m": np.float64(-0.0), "t": (1, "x", 2.5),
               "n": [{"b": 1, "a": ["k"]}, {"c": None}]}
        assert canonical_json(doc) == ('{"f": 0.10000000000000001, "m": 0, '
                                       '"n": [{"a": ["k"], "b": 1}, {"c": null}], '
                                       '"t": [1, "x", 2.5]}\n')

    def test_negative_zero_normalized(self):
        assert canonical_json(-0.0) == "0\n"

    @pytest.mark.parametrize("value,message", [(float("nan"), "non-finite value nan"),
                                               (object(), "cannot serialize object")])
    def test_rejects_non_finite(self, value, message):
        with pytest.raises(ValueError, match=message):
            canonical_json(value)

    @pytest.mark.parametrize("keys,phi1,phi2", [
        (["0,0,0", "1,0,0", "1,0,1", "10,2,0"], [0.1, -0.0, 5e-324, -1e-300],
         [1e300, -2.5, 0.0, 123456789.123]),
        ([], [], []),
    ])
    def test_node_table_writes_like_its_dict(self, keys, phi1, phi2):
        table = _table(keys, phi1=phi1, phi2=phi2)
        as_dict = {key: {"phi1": a, "phi2": b} for key, a, b in zip(keys, phi1, phi2)}
        assert canonical_json({"t": table, "u": [table]}) == canonical_json(
            {"t": as_dict, "u": [as_dict]})

    def test_node_table_rejects_non_finite(self):
        table = _table(["0,0,0", "1,0,0"], phi1=[1.0, math.inf], phi2=[math.nan, 0.0])
        with pytest.raises(ValueError, match="non-finite value nan"):
            canonical_json(table)


def _row_keys(tree) -> list:
    """Every node key of ``tree`` in row order."""
    return [node_key(node) for level in tree.levels for node in level]


def _table(keys, **columns) -> Nodes:
    """The README lattice's nodes of ``keys`` in their order, with each column's
    values at those nodes (0 elsewhere), or a key list without columns."""
    tree = build_tree(MarketParams.from_dict(README_JOB["market"]), 12)
    row_keys = _row_keys(tree)
    at = np.array([row_keys.index(key) for key in keys], dtype=np.intp)
    rows = {name: np.zeros(len(row_keys)) for name in columns}
    for name, values in columns.items():
        rows[name][at] = values
    return Nodes(tree.starts, at, rows or None)


# The intensity of a tree.json market: none, constant, or a step at t = 0.5
# that turns the default branch off or on partway down the tree.
DUMP_LAMBDAS = {"zero": 0.0, "constant": 0.25,
                "to_zero": {"values": [0.25, 0.0], "times": [0.0, 0.5]},
                "from_zero": {"values": [0.0, 0.25], "times": [0.0, 0.5]}}


class TestTreeJson:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(lam=st.sampled_from(sorted(DUMP_LAMBDAS)), r=st.sampled_from([0.05, 0.0, -0.0]),
           mu2=st.floats(-0.1, 0.1), sigma1=st.floats(0.1, 0.4),
           s1_0=st.floats(50.0, 150.0), n_steps=st.integers(1, 12))
    @example(lam="to_zero", r=-0.0, mu2=0.0, sigma1=0.2, s1_0=100.0, n_steps=12)
    @example(lam="from_zero", r=0.05, mu2=-0.02, sigma1=0.2, s1_0=100.0, n_steps=3)
    def test_dump_equals_the_node_dict_document(self, lam, r, mu2, sigma1, s1_0, n_steps):
        params = MarketParams(r=r, mu1=0.07, mu2=mu2, sigma1=sigma1, sigma2=0.25,
                              lam=DUMP_LAMBDAS[lam], s1_0=s1_0, s2_0=90.0, T=1.0)
        tree = build_tree(params, n_steps)
        assert canonical_json(tree) == canonical_json(reference_tree_dict(tree))

    def test_round_trips_structure(self, tmp_path):
        cfg = minimal_config(grid={"n_steps": 3})
        cfg["market"]["lambda"] = 0.2
        assert run(cfg, out_dir=tmp_path, dump_tree=True) == EXIT_OK
        doc = json.loads((tmp_path / "tree.json").read_text())
        assert doc["n_steps"] == 3
        tree = build_tree(MarketParams.from_dict(cfg["market"]), 3)
        assert doc["dt"] == tree.dt
        assert sorted(doc["nodes"]) == sorted(map(node_key, tree.nodes)) and len(tree.nodes) == 16
        root = doc["nodes"]["0,0,0"]
        assert root["s1"] == 100.0
        assert len(root["branches"]) == 3
        assert root["branches"][2]["kind"] == "default"
        terminal = doc["nodes"]["3,0,0"]
        assert "branches" not in terminal

    def test_rejects_non_finite(self):
        tree = build_tree(MarketParams.from_dict(minimal_config()["market"]), 2)
        tree.s2[tree.starts[2 * 2] + 1] = math.inf  # node (2, 1, 0)
        with pytest.raises(ValueError, match="non-finite value inf"):
            canonical_json(tree)

    def test_price_job_builds_no_node_view(self, tmp_path, monkeypatch):
        trees, build = [], cli.build_tree

        def recording(*args):
            trees.append(build(*args))
            return trees[-1]

        monkeypatch.setattr(cli, "build_tree", recording)
        assert run(minimal_config(), out_dir=tmp_path, dump_tree=True) == EXIT_OK
        assert (tmp_path / "tree.json").exists() and len(trees) == 1
        assert not {"nodes", "branches", "levels"} & set(vars(trees[0]))


class TestChunks:
    """Node tables, key lists and tree.json go out _CHUNK keys per piece."""

    CHUNK = 4

    @pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_pieces_join_to_the_text_and_the_json_module_document(self, monkeypatch, size):
        monkeypatch.setattr(cli, "_CHUNK", self.CHUNK)
        # Lattice keys in key order from the fourth on, where "10,..." sorts before "2,..."
        keys = sorted(_row_keys(build_tree(MarketParams.from_dict(README_JOB["market"]), 12)))
        keys = keys[3:3 + size]
        # Dyadic, nonzero floats: "%.17g" and json.dumps write them alike.
        phi1, phi2 = np.arange(size) + 0.5, -np.arange(size) - 0.25
        pieces = -(-size // self.CHUNK)
        for obj, plain in ((_table(keys, phi2=phi2, phi1=phi1),
                            {k: {"phi1": a, "phi2": b} for k, a, b in zip(keys, phi1, phi2)}),
                           (_table(keys), keys)):
            parts = []
            assert canonical_json(obj, parts.append) is None
            assert len(parts) == pieces + 3  # the brackets, the pieces, the newline
            assert "".join(parts) == canonical_json(obj) == canonical_json(plain)
            assert canonical_json(obj) == json.dumps(plain, sort_keys=True) + "\n"

    @pytest.mark.parametrize("lam", sorted(DUMP_LAMBDAS))
    def test_report_tables_in_pieces_equal_the_node_dict_document(self, monkeypatch, lam):
        # Every node table and stopped list of an n = 12 report spans 3 or more pieces
        params = MarketParams(r=0.05, mu1=0.07, mu2=-0.02, sigma1=0.2, sigma2=0.25,
                              lam=DUMP_LAMBDAS[lam], s1_0=100.0, s2_0=90.0, T=1.0)
        tree = build_tree(params, 12)
        report = price_american(tree, cli.borrow_lend_driver(params, 0.07),
                                rbsde.Obstacle.from_payoff(tree, put(105.0)))
        monkeypatch.setattr(cli, "_CHUNK", self.CHUNK)
        document, parts = cli.report_to_dict(report), []
        canonical_json(document, parts.append)
        tables = {key: value["stopped"] if isinstance(value, dict) else value
                  for key, value in document.items() if isinstance(value, (dict, Nodes))}
        assert len(tables) == 5 and min(len(t.at) for t in tables.values()) > 2 * self.CHUNK

        def strategy(s):
            return {node_key(node): {"phi1": s.phi1[node], "phi2": s.phi2[node]}
                    for node in s.phi1}

        def stopped(rule):
            return {"stopped": [node_key(node) for node in sorted(rule.stop) if rule.stop[node]]}
        plain = {"u0": report.seller.u0, "v0": report.buyer.v0,
                 "interval_ok": report.interval_ok,
                 "seller_strategy": strategy(report.seller.strategy),
                 "buyer_strategy": strategy(report.buyer.strategy),
                 "buyer_exercise": stopped(report.buyer.exercise),
                 "nu_star": stopped(report.nu_star), "nu_bar": stopped(report.nu_bar)}
        monkeypatch.setattr(cli, "_CHUNK", 10**9)  # each table whole, in one piece
        assert "".join(parts) == canonical_json(document) == canonical_json(plain)

    @pytest.mark.parametrize("chunk", [1, 5, 24, 25, 26])
    def test_tree_json_in_pieces_equals_the_node_dict_document(self, monkeypatch, chunk):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        params = MarketParams(r=0.05, mu1=0.07, mu2=-0.02, sigma1=0.2, sigma2=0.25,
                              lam=DUMP_LAMBDAS["to_zero"], s1_0=100.0, s2_0=90.0, T=1.0)
        tree = build_tree(params, 4)  # 25 nodes
        parts = []
        canonical_json(tree, parts.append)
        assert len(parts) == 3 + -(-25 // chunk)
        assert "".join(parts) == canonical_json(reference_tree_dict(tree))

    def test_node_keys_need_no_escaping(self):
        # Steps and up counts of two digits reach every digit.
        params = MarketParams.from_dict(README_JOB["market"])
        tree = build_tree(params, 12)
        keys = json.loads(canonical_json(Nodes(tree.starts, np.arange(tree.starts[-1]))))
        assert keys == _row_keys(tree)
        assert all(cli._encode_str(key) == '"' + key + '"' for key in keys)

    # How the write fails: a NaN in the last piece of a table, or ENOSPC after the
    # first piece of an artifact, as a write to a full disk raises it.
    @pytest.mark.parametrize("failure,artifact", [("nan", "report.json"), ("full", "report.json"),
                                                  ("full", "tree.json"), ("full", "wealth.csv")])
    @pytest.mark.parametrize("earlier", [None, b'{"u0": "an earlier file"}\n'],
                             ids=["absent", "earlier"])
    def test_non_finite_report_exits_2_and_leaves_report_json(self, tmp_path, capsys, monkeypatch,
                                                              failure, artifact, earlier):
        monkeypatch.setattr(cli, "_CHUNK", 5)
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        to_dict = cli.report_to_dict

        def poisoned(report):
            document = to_dict(report)
            table = document["seller_strategy"]
            table.columns["phi2"][table.at[-1]] = math.nan  # in the last piece
            return document

        def after_first_piece(emit):  # an emitter whose second write raises ENOSPC
            def failing(value, write, *args):
                pieces = []

                def limited(text):
                    if pieces:
                        raise full
                    pieces.append(text)
                    write(text)
                emit(value, limited, *args)
            return failing

        def rows(report):
            yield 0, 1, "1,1,0", 1.0, 2.0, -1.0
            raise full

        if failure == "nan":
            monkeypatch.setattr(cli, "report_to_dict", poisoned)
        elif artifact == "wealth.csv":
            monkeypatch.setattr(hedging, "violation_rows", rows)
        else:
            emitter = "_tree_json" if artifact == "tree.json" else "_keyed_json"
            monkeypatch.setattr(cli, emitter, after_first_piece(getattr(cli, emitter)))
        if earlier is not None:
            (tmp_path / artifact).write_bytes(earlier)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        config = minimal_config(jobs=["hedge"] if artifact == "wealth.csv" else ["price"])
        assert run(config, out_dir=tmp_path, dump_tree=artifact == "tree.json") == EXIT_CONFIG
        message = ("cannot serialize non-finite value nan" if failure == "nan"
                   else "--out: [Errno 28] No space left on device")
        assert capsys.readouterr().err == f"config error: {message}\n"
        # The earlier file, or its absence, as it was, and no .part file left
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


class TestOrders:
    """``cli._orders`` against the 3-key lexsorts it replaced, and the report it feeds."""

    @pytest.mark.parametrize("lam", ["const", "lam_zero", "lam_to_zero"])
    def test_orders_equal_the_lexsort_reference(self, lam):
        lam = {"const": 0.25, "lam_zero": 0.0, "lam_to_zero": DUMP_LAMBDAS["to_zero"]}[lam]
        params = MarketParams.from_dict({**README_JOB["market"], "lambda": lam})
        for n_steps in [*range(1, 41), 256]:
            tree = build_tree(params, n_steps)
            by_id, by_key = cli._orders(tree)
            want_id, want_key = lexsort_orders(tree)
            assert by_id.tolist() == want_id.tolist() and by_key.tolist() == want_key.tolist()
            assert tree.starts.tolist() == np.cumsum([0] + row_lengths(tree)).tolist()
            if n_steps <= 12:  # and against Python's sort of the nodes and of their keys
                nodes = [node for level in tree.levels for node in level]
                assert by_id.tolist() == sorted(range(len(nodes)), key=nodes.__getitem__)
                keys = list(map(node_key, nodes))
                assert by_key.tolist() == sorted(range(len(keys)), key=keys.__getitem__)

    def test_the_report_document_holds_no_node_keys(self):
        # The n = 256 README put: the document holds positions and row-order values,
        # about 3 MB, where one string per node and the tables' key lists took 9 MB.
        params = MarketParams.from_dict(README_JOB["market"])
        tree = build_tree(params, 256)
        report = price_american(tree, cli.borrow_lend_driver(params, 0.07),
                                rbsde.Obstacle.from_payoff(tree, put(105.0)))
        tracemalloc.start()
        try:
            document = cli.report_to_dict(report)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert document["seller_strategy"].columns["phi1"] is report.seller.strategy.phi1_rows
        assert held < 6e6


class TestRun:
    def test_minimal_price_job(self, tmp_path):
        assert run(minimal_config(), out_dir=tmp_path) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert abs(report["u0"] - report["v0"]) <= 1e-10
        assert report["interval_ok"] is True
        assert "seller_strategy" in report and "nu_star" in report

    def test_verification_block(self, tmp_path):
        cfg = minimal_config(jobs=["price", "verify"],
                             verify=["superhedge", "duality", "apriori"])
        cfg["grid"]["n_steps"] = 3
        cfg["market"]["lambda"] = 0.2
        assert run(cfg, out_dir=tmp_path) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        checks = report["verification"]["checks"]
        assert set(checks) == {"superhedge", "duality", "apriori"}
        assert all(c["passed"] for c in checks.values())
        assert report["verification"]["all_passed"] is True

    def test_lambda_dt_guard_names_n_steps(self, tmp_path, capsys):
        cfg = minimal_config()
        cfg["market"]["lambda"] = 9.0
        assert run(cfg, out_dir=tmp_path) == EXIT_CONFIG
        assert "n_steps" in capsys.readouterr().err

    def test_unknown_driver_rejected(self, tmp_path, capsys):
        cfg = minimal_config(driver={"name": "quadratic"})
        assert run(cfg, out_dir=tmp_path) == EXIT_CONFIG
        assert "driver.name" in capsys.readouterr().err

    @pytest.mark.parametrize("params,field", [
        ({"alpha": None, "gamma_bar": 0.0}, "alpha"),
        ({"alpha": "x", "gamma_bar": 0.0}, "alpha"),
        ({"alpha": 0.0, "gamma_bar": None}, "gamma_bar"),
        ({"alpha": 0.0, "gamma_bar": "y"}, "gamma_bar"),
    ])
    def test_bad_large_trader_param_named(self, tmp_path, capsys, params, field):
        cfg = minimal_config(driver={"name": "large_trader", "params": params})
        assert run(cfg, out_dir=tmp_path) == EXIT_CONFIG
        assert f"driver.params.{field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("path,value,field", [
        (("grid", "n_steps"), "abc", "grid.n_steps:"),
        (("grid", "n_steps"), None, "grid.n_steps:"),
        (("jobs",), None, "jobs:"),
        (("jobs",), "price", "jobs:"),
        (("verify",), None, "verify:"),
        (("seed",), "a", "seed:"),
        (("strict",), "no", "strict:"),
        (("payoff",), [1], "payoff:"),
        (("payoff",), {"kind": "expr", "expr": "1/(S1-S1)"}, "payoff.expr:"),
        (("payoff", "strike"), "x", "payoff.strike:"),
        (("market", "sigma1"), 50.0, "sigma1:"),
        (("market", "sigma2"), 50.0, "sigma2:"),
        (("market", "s1_0"), -5.0, "s1_0"),
        (("market", "s2_0"), 0.0, "s2_0"),
    ])
    def test_malformed_job_exits_2_naming_field(self, tmp_path, capsys, path, value, field):
        cfg = minimal_config()
        cfg["grid"]["n_steps"] = 4
        owner = cfg
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        assert run(cfg, out_dir=tmp_path) == EXIT_CONFIG
        assert field in capsys.readouterr().err

    def test_unknown_job_and_check_rejected(self, tmp_path, capsys):
        assert run(minimal_config(jobs=["simulate"]), out_dir=tmp_path) == EXIT_CONFIG
        assert "jobs" in capsys.readouterr().err
        cfg = minimal_config(jobs=["verify"], verify=["entropy"])
        assert run(cfg, out_dir=tmp_path) == EXIT_CONFIG
        assert "verify" in capsys.readouterr().err

    def test_duality_guard_names_n_steps(self, tmp_path, capsys):
        cfg = minimal_config(jobs=["verify"], verify=["duality"])
        assert run(cfg, out_dir=tmp_path) == EXIT_CONFIG
        assert "grid.n_steps" in capsys.readouterr().err

    def test_martingale_guard_names_n_steps(self, tmp_path, capsys):
        cfg = minimal_config(jobs=["verify"], verify=["martingale"])
        cfg["grid"]["n_steps"] = 16
        assert run(cfg, out_dir=tmp_path) == EXIT_CONFIG
        assert "grid.n_steps" in capsys.readouterr().err

    def test_hedge_job_writes_csv(self, tmp_path):
        cfg = minimal_config(jobs=["price", "hedge"])
        assert run(cfg, out_dir=tmp_path) == EXIT_OK
        lines = (tmp_path / "wealth.csv").read_text().splitlines()
        assert lines[0] == "path_id,step,node,V,xi,slack"
        assert len(lines) == 1  # a funded seller has no violations
        assert (tmp_path / "wealth_buyer.csv").exists()

    def test_strict_failing_check_exits_4(self, tmp_path, capsys):
        cfg = minimal_config(jobs=["verify"], verify=["gamma"])
        # jump sensitivity breaches the -1 floor for this market
        cfg["market"].update({"r": 0.0, "mu1": 0.1, "sigma1": 0.2, "mu2": -0.1,
                              "sigma2": 0.2, "lambda": 0.1})
        assert run(cfg, out_dir=tmp_path) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verification"]["checks"]["gamma"]["passed"] is False
        assert run(cfg, out_dir=tmp_path, strict=True) == EXIT_VERIFY
        assert "gamma" in capsys.readouterr().err

    def test_custom_expression_payoff(self, tmp_path):
        cfg = minimal_config(payoff={"kind": "expr",
                                     "expr": "max(100 - S1, 0) + S2 * defaulted"})
        cfg["market"]["lambda"] = 0.2
        cfg["grid"]["n_steps"] = 4
        assert run(cfg, out_dir=tmp_path) == EXIT_OK

    def test_bad_expression_named(self, tmp_path, capsys):
        cfg = minimal_config(payoff={"kind": "expr", "expr": "S1 ** 2"})
        assert run(cfg, out_dir=tmp_path) == EXIT_CONFIG
        assert "payoff expression" in capsys.readouterr().err

    def test_deterministic_reports(self, tmp_path):
        cfg = minimal_config(jobs=["price", "verify"], verify=["skorokhod"])
        cfg["grid"]["n_steps"] = 4
        cfg["market"]["lambda"] = 0.25
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(cfg, out_dir=a) == EXIT_OK
        assert run(cfg, out_dir=b) == EXIT_OK
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


class TestSharedSolves:
    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()
        sweep, simulate = rbsde.backward_sweep, hedging.simulate_wealth

        def counted_sweep(tree, sides):
            counts["sweeps"] += 1
            counts["sides"] += len(sides)
            return sweep(tree, sides)

        def counted_simulate(*args, **kwargs):
            counts["simulations"] += 1
            return simulate(*args, **kwargs)

        # Looked up at call time, so every caller goes through the counter.
        monkeypatch.setattr(rbsde, "backward_sweep", counted_sweep)
        monkeypatch.setattr(hedging, "simulate_wealth", counted_simulate)
        return counts

    # One sweep solves every side a job reads: the seller and the buyer for a price
    # or hedge job, the buyer of a verify job for its superhedge check, and the
    # apriori check's shifted seller; one wealth simulation per hedged side.
    @pytest.mark.parametrize("jobs,checks,sweeps,sides,simulations", [
        (["price", "hedge", "verify"],
         ["superhedge", "skorokhod", "apriori", "martingale"], 1, 3, 2),
        (["verify"], ["gamma", "admissible"], 0, 0, 0),
        (["hedge", "verify"], ["superhedge", "skorokhod", "apriori"], 1, 3, 2),
        (["verify"], ["skorokhod", "superhedge"], 1, 2, 2),
        (["verify"], ["superhedge", "apriori"], 1, 3, 2),
        (["verify"], ["skorokhod", "apriori"], 1, 2, 0),
    ], ids=["price_hedge_verify", "no_solve", "hedge_verify", "verify_superhedge",
            "verify_superhedge_apriori", "verify_skorokhod_apriori"])
    def test_each_side_solved_and_simulated_once(self, tmp_path, counts, jobs, checks,
                                                 sweeps, sides, simulations):
        cfg = minimal_config(jobs=jobs, verify=checks)
        cfg["market"]["lambda"] = 0.2
        assert run(cfg, out_dir=tmp_path) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verification"]["all_passed"] is True
        assert (counts["sweeps"], counts["sides"], counts["simulations"]) == (
            sweeps, sides, simulations)

    def test_a_check_named_twice_runs_once(self, tmp_path, monkeypatch):
        calls, brute = [], oracle.brute_force_seller_value

        def counted_brute(*args):
            calls.append(args)
            return brute(*args)

        cfg = _job(jobs=["verify"], verify=["duality", "skorokhod"])
        assert run(cfg, out_dir=tmp_path / "once") == EXIT_OK
        monkeypatch.setattr(oracle, "brute_force_seller_value", counted_brute)
        cfg["verify"] = ["duality", "skorokhod", "duality"]
        assert run(cfg, out_dir=tmp_path / "twice") == EXIT_OK
        assert len(calls) == 1
        assert ((tmp_path / "twice" / "report.json").read_bytes()
                == (tmp_path / "once" / "report.json").read_bytes())


# A borrowing rate of 40 makes the implicit step diverge: the README put's
# first failing node at each grid, with its last residual.
SOLVER_FAILURES = [
    (1, "(0, 0, 0) (t=0, last residual 7.7e+10)", {}),
    (2, "(1, 0, 0) (t=0.5, last residual 4.18e+03)", {}),
    (4, "(3, 0, 0) (t=0.75, last residual 1.2e+03)", {}),
    # A hedge without a price sweeps both sides at once as well: the put's
    # buyer diverges, and on a call K = 95 without default the seller does.
    (4, "(3, 0, 0) (t=0.75, last residual 1.2e+03)", {"jobs": ["hedge", "verify"]}),
    (4, "(3, 1, 0) (t=0.75, last residual 530)",
     {"jobs": ["hedge", "verify"], "payoff": {"kind": "call", "strike": 95.0}, "lambda": 0.0}),
]


@pytest.mark.parametrize("n_steps,where,fields", SOLVER_FAILURES)
def test_diverging_solve_exits_3_naming_the_node(tmp_path, capsys, n_steps, where, fields):
    cfg = copy.deepcopy(README_JOB)
    cfg["grid"]["n_steps"] = n_steps
    cfg["driver"]["params"]["R"] = 40
    for key, value in fields.items():
        (cfg["market"] if key == "lambda" else cfg)[key] = value
    cfg["output_dir"] = str(tmp_path)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main(["price", str(path)]) == EXIT_SOLVER
    assert capsys.readouterr().err == (
        f"solver error: implicit step did not converge in 50 iterations at node {where}; "
        "the time step is too large for the driver's Lipschitz constant\n")


def _hedge_job(n_steps):
    cfg = copy.deepcopy(README_JOB)
    cfg["grid"]["n_steps"] = n_steps
    cfg.update(jobs=["hedge", "verify"], verify=["superhedge"])
    return cfg


class TestHedgeOnArrays:
    @pytest.mark.parametrize("n_steps", [8, 13])  # exact and sampled
    def test_hedge_job_builds_no_view(self, tmp_path, monkeypatch, n_steps):
        fields, simulate = [], hedging.simulate_wealth

        def recording(*args, **kwargs):
            fields.append(simulate(*args, **kwargs))
            return fields[-1]

        monkeypatch.setattr(hedging, "simulate_wealth", recording)
        assert run(_hedge_job(n_steps), out_dir=tmp_path) == EXIT_OK
        assert len(fields) == 2 and fields[0].paths is fields[1].paths
        for field in fields:
            assert not {"node_ids", "v", "parent", "branch"} & set(vars(field))
        assert not {"nodes", "branches"} & set(vars(fields[0].tree))

    def test_no_module_cache_keeps_a_jobs_tree(self, tmp_path, monkeypatch):
        trees, build = [], cli.build_tree

        def recording(*args):
            tree = build(*args)
            trees.append(weakref.ref(tree))
            return tree

        monkeypatch.setattr(cli, "build_tree", recording)
        for n_steps in (8, 13):  # exact and sampled
            assert run(_hedge_job(n_steps), out_dir=tmp_path) == EXIT_OK
        gc.collect()
        assert [ref() is None for ref in trees] == [True, True]

    def test_non_finite_wealth_exits_2_naming_the_state(self, tmp_path, capsys, monkeypatch):
        nan = Driver(name="nan", eval=lambda t, y, z, k, s: math.nan, lipschitz_C=0.0)
        simulate = hedging.simulate_wealth
        monkeypatch.setattr(hedging, "simulate_wealth",
                            lambda tree, x0, strategy, driver, **kw:
                            simulate(tree, x0, strategy, nan, **kw))
        cfg = _hedge_job(4)
        cfg["jobs"] = ["hedge"]
        assert run(cfg, out_dir=tmp_path) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "seller superhedge slack is not finite (nan) at step 1, node (1, " in err
        assert "path " in err


class TestMain:
    def test_price_subcommand_end_to_end(self, tmp_path):
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps(minimal_config()))
        out = tmp_path / "out"
        code = main(["price", str(config_path), "--out", str(out), "--dump-tree"])
        assert code == EXIT_OK
        assert (out / "report.json").exists()
        tree_doc = json.loads((out / "tree.json").read_text())
        assert tree_doc["n_steps"] == 8

    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["price", str(tmp_path / "none.json")]) == EXIT_CONFIG
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["price", str(path)]) == EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("path,value,message", [
        # Strings and booleans where a JSON number belongs; float() reads both.
        (("market", "sigma1"), "2", "market: sigma1:"),
        (("market", "r"), {"values": [0.05, 0.06], "times": "01"}, "market: r: times:"),
        (("market", "s1_0"), "100", "market: s1_0:"),
        (("market", "T"), True, "market: T:"),
        (("payoff", "strike"), True, "payoff.strike:"),
        (("payoff", "strike"), "105", "payoff.strike:"),
        (("driver", "params", "R"), "7", "driver.params.R:"),
        (("driver", "params", "R"), True, "driver.params.R:"),
        # json reads NaN and Infinity.
        (("driver", "params", "R"), math.nan, "driver.params.R:"),
        (("driver", "params", "R"), math.inf, "driver.params.R:"),
        # Unknown keys in the nested blocks.
        (("grid", "dt"), 0.25, "grid: unknown key(s) ['dt']"),
        (("driver", "paramz"), {}, "driver: unknown key(s) ['paramz']"),
        (("driver", "params", "Rr"), 0.08, "driver.params: unknown key(s) ['Rr']"),
        (("driver",), {"name": "large_trader",
                       "params": {"alpha": 0.0, "gamma_bar": 0.0, "wealth_bound": 5}},
         "driver.params: unknown key(s) ['wealth_bound']"),
        (("payoff", "strke"), 105.0, "payoff: unknown key(s) ['strke']"),
        (("seed",), -1, "seed: must be a non-negative integer, got -1"),
        # Unknown keys in a piecewise block.
        (("market", "r"), {"values": [0.05], "time": [0.0, 0.5]},
         "market: r: unknown key(s) ['time']"),
        (("driver", "params", "R"), {"values": [0.07], "tims": [0.0]},
         "driver.params.R: unknown key(s) ['tims']"),
    ])
    def test_bad_field_exits_2_naming_it(self, tmp_path, capsys, path, value, message):
        cfg = copy.deepcopy(README_JOB)
        cfg.update(grid={"n_steps": 4}, jobs=["price"], verify=[])
        owner = cfg
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps(cfg))
        assert main(["price", str(config_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_a_seed_beyond_the_float_range_runs(self, tmp_path, capsys):
        # float() of 2**1024 overflows; the 10,000 sampled paths take any integer seed.
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps({**_hedge_job(16), "seed": 2**1024}))
        assert main(["price", str(config_path), "--out", str(tmp_path / "out")]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("market,message", [
        (list(README_JOB["market"].items()), "must be an object"),  # [name, value] pairs
        ("ab", "must be an object"),
        (5, "must be an object"),
        (None, "must be an object"),
        ({k: v for k, v in README_JOB["market"].items() if k != "T"}, "missing field(s) ['T']"),
        ({**README_JOB["market"], "rate": 0.05}, "unknown field(s) ['rate']"),
    ], ids=["pairs", "string", "number", "null", "missing", "unknown"])
    def test_bad_market_block_exits_2_naming_it_once(self, tmp_path, capsys, market, message):
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps({**README_JOB, "market": market}))
        assert main(["price", str(config_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: market: {message}\n"

    @pytest.mark.parametrize("job,message", [
        ([1], "config: top level must be an object"),
        (_job(payoff=None), "payoff: required"),
        (_job(output_dir=5), "output_dir: must be a string, got 5"),
        (_job(driver=[1]), "driver: must be an object"),
        (_job(driver={"name": "perfect", "params": {"x": 1}}),
         "driver.params: 'perfect' takes none, got ['x']"),
        (_job(driver={"name": "borrow_lend", "params": {}}),
         "driver.params.R: required for 'borrow_lend'"),
        (_job(driver={"name": "large_trader", "params": {"alpha": 0.0}}),
         "driver.params: missing ['gamma_bar'] for 'large_trader'"),
        (_job(driver={"name": "large_trader", "params": {"alpha": 0.0, "gamma_bar": -2}}),
         "driver.params.gamma_bar: gamma_bar must exceed -1, got -2"),
        (_job(payoff={"kind": "expr", "expr": "S1 ** 2"}),
         "payoff expression: operator not allowed in 'S1 ** 2'"),
        (_job(payoff={"kind": "expr", "expr": "~S1"}),
         "payoff expression: operator not allowed in '~S1'"),
        (_job(payoff={"kind": "expr", "expr": "S1 + True"}),
         "payoff expression: literal True not allowed"),
        (_job(payoff={"kind": "expr", "expr": 5}),
         "payoff.expr: a string is required for kind 'expr'"),
        (_job(payoff={"kind": "expr", "expr": "S1 * 1e308 * 10"}),
         "payoff.expr: 'S1 * 1e308 * 10' gives the value inf at t=0, S1=100, S2=90, "
         "defaulted=False"),
    ], ids=["top_level", "payoff_missing", "output_dir", "driver_block", "perfect_params",
            "R_missing", "gamma_bar_missing", "gamma_bar_low", "operator", "unary_operator",
            "literal",
            "expr_not_string", "expr_inf"])
    def test_front_door_error_exits_2_with_its_message(self, tmp_path, capsys, job, message):
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps(job))
        assert main(["price", str(config_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("expr,message", [
        ("+".join(["S1"] * 1000), "nested 1000 deep, beyond the limit of 300"),
        ("-" * 5000 + "S1", "nested too deeply (5002 characters)"),  # too deep for the parser
        ("+".join(["S1"] * 300), None),
    ], ids=["sum_of_1000", "5000_signs", "sum_of_300"])
    def test_deeply_nested_expression_exits_2_in_one_line(self, tmp_path, capsys, expr,
                                                         message):
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps(_job(payoff={"kind": "expr", "expr": expr})))
        code = main(["price", str(config_path), "--out", str(tmp_path / "out")])
        assert code == (EXIT_OK if message is None else EXIT_CONFIG)
        assert capsys.readouterr().err == ("" if message is None else
                                           f"config error: payoff expression: {message}\n")

    # A file or a directory (a trailing "/") in the way of the outputs; the
    # location given by output_dir or --out, and the path the OS error names.
    @pytest.mark.parametrize("blocker,location,flag,code,failing", [
        ("file", "file", False, errno.EEXIST, "file"),
        ("out/report.json/", "out", True, errno.EISDIR, "out/report.json"),
        ("out/wealth.csv/", "out", False, errno.EISDIR, "out/wealth.csv"),
        ("file", "file/sub", True, errno.ENOTDIR, "file/sub"),
        # Neither: --out's default, the working directory, named by a relative path.
        ("report.json/", None, False, errno.EISDIR, "report.json"),
    ])
    def test_unusable_output_path_exits_2_naming_it(self, tmp_path, capsys, monkeypatch, blocker,
                                                    location, flag, code, failing):
        monkeypatch.chdir(tmp_path)
        if blocker.endswith("/"):
            (tmp_path / blocker).mkdir(parents=True)
        else:
            (tmp_path / blocker).write_text("")
        cfg = copy.deepcopy(README_JOB)
        del cfg["output_dir"]
        if location:
            cfg["output_dir"] = str(tmp_path / location)
        argv = ["--out", cfg.pop("output_dir")] if flag else []
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps(cfg))
        assert main(["price", str(config_path), *argv]) == EXIT_CONFIG
        field = "output_dir" if location and not flag else "--out"
        named = str(tmp_path / failing) if location else failing
        assert capsys.readouterr().err == (f"config error: {field}: [Errno {code}] "
                                           f"{os.strerror(code)}: {named!r}\n")

    @pytest.mark.parametrize("argv,code", [([], 2), (["price"], 2), (["price", "a", "--bogus"], 2),
                                           (["--help"], 0), (["price", "--help"], 0)])
    def test_usage_errors_and_help_repeat_on_every_call(self, capsys, argv, code):
        # The parser is built once per process and reused by every call.
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as stop:
                main(list(argv))
            assert stop.value.code == code
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert (outputs[0].out if code == 0 else outputs[0].err).startswith("usage: amhedge")

    def test_the_module_runs_as_a_program(self):
        # The README's entry point, python -m amhedge.cli, in a process of its own.
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-m", "amhedge.cli", "--help"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("usage: amhedge")

    @pytest.mark.parametrize("field", ["s1_0", "s2_0", "T"])
    def test_non_finite_price_or_horizon_exits_2_naming_it(self, tmp_path, capsys, field):
        cfg = copy.deepcopy(README_JOB)
        cfg["market"][field] = math.inf  # json writes and reads Infinity
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps(cfg))
        assert main(["price", str(config_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (f"config error: market: {field} must be bounded "
                                           "(finite values)\n")

    @pytest.mark.parametrize("dump_tree", [False, True])
    def test_overflowing_lattice_exits_2_naming_the_price(self, tmp_path, capsys, dump_tree):
        cfg = copy.deepcopy(README_JOB)
        cfg["market"]["s2_0"] = 1e308
        cfg.update(jobs=["price"], verify=[])
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps(cfg))
        argv = ["price", str(config_path), "--out", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning fails the test
            assert main(argv + ["--dump-tree"] * dump_tree) == EXIT_CONFIG
        assert capsys.readouterr().err == ("config error: market: s2: the price built from "
                                           "s2_0, mu2 and sigma2 overflows at step 6\n")
        assert not list((tmp_path / "out").iterdir())


class TestStepCap:
    @pytest.mark.parametrize("n_steps", [MAX_STEPS + 1, 10**9, 1e12])
    def test_over_cap_rejected_before_any_allocation(self, n_steps):
        cfg = minimal_config()
        cfg["grid"]["n_steps"] = n_steps
        with pytest.raises(ConfigError) as failure:
            parse_config(cfg)
        message = str(failure.value)
        assert message.startswith("grid.n_steps:")
        assert "lattice nodes" in message and f"cap of {MAX_STEPS} steps" in message

    def test_cap_itself_accepted(self):
        cfg = minimal_config()
        cfg["grid"]["n_steps"] = MAX_STEPS
        assert parse_config(cfg)["n_steps"] == MAX_STEPS  # parsed only, never built

    def test_a_count_beyond_the_float_range_gets_the_cap_message(self, tmp_path, capsys):
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps({**_job(), "grid": {"n_steps": 2**1024}}))
        assert main(["price", str(config_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: grid.n_steps: 1.798e+308 steps make about 3.23e+616 lattice nodes, "
            "over the cap of 4096 steps (1.68e+7 nodes)\n")


# A check over its grid limit, with the error it exits with.
CHECK_LIMITS = [
    (["duality"], 5, "duality check enumerates stopping rules and is limited to 4 steps, got 5"),
    (["martingale"], 13, "martingale check needs the exact path expansion and is limited to "
                         "12 steps, got 13"),
    # Both over their limits: the one named first is reported.
    (["skorokhod", "martingale", "duality"], 13, "martingale check needs the exact path "
                                                 "expansion and is limited to 12 steps, got 13"),
    (["duality", "martingale"], 13, "duality check enumerates stopping rules and is limited "
                                    "to 4 steps, got 13"),
]


class TestCheckLimits:
    @pytest.mark.parametrize("checks,n_steps,message", CHECK_LIMITS,
                             ids=["duality", "martingale", "martingale_first", "duality_first"])
    def test_over_the_limit_exits_2_before_the_lattice(self, tmp_path, capsys, monkeypatch,
                                                       checks, n_steps, message):
        def no_lattice(*args):
            raise AssertionError("the lattice was built")

        monkeypatch.setattr(cli, "build_tree", no_lattice)
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps(_job(grid={"n_steps": n_steps},
                                               jobs=["price", "hedge", "verify"], verify=checks)))
        assert main(["price", str(config_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: grid.n_steps: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_checks_that_do_not_run_have_no_limit(self, tmp_path):
        cfg = _job(grid={"n_steps": 13}, verify=["duality", "martingale"])  # jobs: price
        assert run(cfg, out_dir=tmp_path) == EXIT_OK
        assert "verification" not in json.loads((tmp_path / "report.json").read_text())

    def test_checks_listed_once_in_first_order_and_only_under_verify(self):
        cfg = _job(jobs=["verify"], verify=["skorokhod", "duality", "skorokhod", "gamma"])
        assert parse_config(cfg)["checks"] == ["skorokhod", "duality", "gamma"]
        cfg["jobs"] = ["price", "hedge"]
        assert parse_config(cfg)["checks"] == []


# ---------------------------------------------------------------------------
# Junk in any single field of the README job ends in an exit code, never in
# a traceback.
# ---------------------------------------------------------------------------

PROPERTY_JOB = copy.deepcopy(README_JOB)
PROPERTY_JOB["grid"]["n_steps"] = 4  # every run stays small
# Piecewise blocks, so that their keys are fuzzed as well.
PROPERTY_JOB["market"]["r"] = {"values": [0.05, 0.04], "times": [0.0, 0.5]}
PROPERTY_JOB["driver"]["params"]["R"] = {"values": [0.07], "times": [0.0]}
NEW_KEY = "<a key the object does not have>"


def _field_paths(doc, prefix=()):
    yield prefix + (NEW_KEY,)
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


FIELD_PATHS = sorted(_field_paths(PROPERTY_JOB))

JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6)
    | st.floats(allow_nan=False) | st.integers(-10**40, 10**40)
    | st.sampled_from([-1, -0.5, 10**400, -10**400]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=5)


def _big_grid(value):
    """A number that would be accepted as more than six steps."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 6 < value <= MAX_STEPS and value == int(value))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(path=st.sampled_from(FIELD_PATHS), data=st.data())
def test_junk_field_exits_with_a_code(path, data):
    junk = JSON_JUNK.filter(lambda v: not _big_grid(v)) if path[-1] == "n_steps" else JSON_JUNK
    cfg = copy.deepcopy(PROPERTY_JOB)
    owner = cfg
    for key in path[:-1]:
        owner = owner[key]
    key = path[-1]
    if key == NEW_KEY:
        key = data.draw(st.text(max_size=6).filter(lambda k: k not in owner))
    owner[key] = data.draw(junk)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        code = run(cfg, out_dir=out)
    assert code == EXIT_CONFIG if path[-1] == NEW_KEY else code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# The stability-estimate check out of floating-point range
# ---------------------------------------------------------------------------

def _apriori_job(driver, n_steps, jobs, checks, **market):
    cfg = copy.deepcopy(README_JOB)
    cfg["market"].update(market)
    cfg.update(grid={"n_steps": n_steps}, driver=driver, jobs=jobs, verify=checks)
    return cfg


APRIORI_OUT_OF_RANGE = [
    # C = 19.5 gives a beta of about 1186, so exp(beta T) overflows.
    (_apriori_job({"name": "borrow_lend", "params": {"R": 3}}, 32, ["price", "verify"],
                  ["apriori"]),
     "beta = 1185.54 overflows exp(beta t) on [0, 1] (the driver's lipschitz_C = 19.515)"),
    # C^2 overflows, so eta = 1 / (C^2 + 1) is 0; the lattice prices stay finite.
    (_apriori_job({"name": "borrow_lend", "params": {"R": 0.07}}, 8, ["verify"],
                  ["apriori"], sigma1=1e-160),
     "eta = 1/(C^2 + 1) is 0, so beta = 3/eta + 2C + 1 is infinite "
     "(the driver's lipschitz_C = 6e+158)"),
    # The wealth files are filled before the check fails, and deleted unpublished.
    (_apriori_job({"name": "large_trader", "params": {"alpha": 0.002, "gamma_bar": 0.0}}, 64,
                  ["hedge", "verify"], ["superhedge", "apriori"]),
     "beta = 2556.92 overflows exp(beta t) on [0, 1] (the driver's lipschitz_C = 28.84)"),
    # Without a hedge job the buyer, whose solve diverges at R = 40, is solved
    # at the superhedge check, after this one fails.
    (_apriori_job({"name": "borrow_lend", "params": {"R": 40}}, 4, ["verify"],
                  ["apriori", "superhedge"]),
     "beta = 203347 overflows exp(beta t) on [0, 1] (the driver's lipschitz_C = 260.015)"),
]


@pytest.mark.parametrize("cfg,message", APRIORI_OUT_OF_RANGE,
                         ids=["beta_overflows", "eta_underflows", "after_the_hedge",
                              "before_the_buyer"])
def test_apriori_out_of_range_exits_2_naming_beta_and_C(tmp_path, capsys, cfg, message):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main(["price", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: verify: apriori: {message}\n"


def test_a_failing_run_publishes_none_of_its_files(tmp_path):
    # A run whose stability check fails after the hedge leaves the earlier run's
    # four files in place, on their old inodes, and no .part file.
    first = {**copy.deepcopy(README_JOB), "jobs": ["price", "hedge"], "verify": []}
    first["grid"]["n_steps"] = 16
    out = tmp_path / "out"
    for cfg, code in ((first, EXIT_OK), (APRIORI_OUT_OF_RANGE[2][0], EXIT_CONFIG)):
        (tmp_path / "job.json").write_text(json.dumps(cfg))
        assert main(["price", str(tmp_path / "job.json"), "--out", str(out), "--dump-tree"]) == code
        if code == EXIT_OK:
            before = {path.name: (path.stat().st_ino, path.read_bytes())
                      for path in out.iterdir()}
    assert sorted(before) == ["report.json", "tree.json", "wealth.csv", "wealth_buyer.csv"]
    assert {path.name: (path.stat().st_ino, path.read_bytes()) for path in out.iterdir()} == before


def test_a_directory_in_the_way_publishes_nothing(tmp_path, capsys):
    # A directory at wealth_buyer.csv would fail its move after report.json and
    # wealth.csv were published: the run refuses it first, with the move's error.
    job = {**copy.deepcopy(README_JOB), "jobs": ["price", "hedge"], "verify": []}
    job["grid"]["n_steps"] = 4
    assert run(copy.deepcopy(job), out_dir=tmp_path) == EXIT_OK
    (tmp_path / "wealth_buyer.csv").unlink()
    (tmp_path / "wealth_buyer.csv").mkdir()
    before = {path.name: (path.stat().st_ino, path.is_dir() or path.read_bytes())
              for path in tmp_path.iterdir()}
    job["grid"]["n_steps"] = 6
    assert run(job, out_dir=tmp_path) == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: --out: [Errno 21] Is a directory: "
                                       f"'{tmp_path / 'wealth_buyer.csv'}'\n")
    assert sorted(before) == ["report.json", "wealth.csv", "wealth_buyer.csv"]
    assert {path.name: (path.stat().st_ino, path.is_dir() or path.read_bytes())
            for path in tmp_path.iterdir()} == before


def test_both_sides_diverge_and_the_sellers_error_is_raised(tmp_path, capsys):
    # large_trader alpha = 0.018 at n = 2: the seller's solve diverges at the root,
    # the buyer's at (1, 0, 0); the hedge job exits with the seller's error.
    cfg = _apriori_job({"name": "large_trader", "params": {"alpha": 0.018, "gamma_bar": 0.0}}, 2,
                       ["hedge", "verify"], ["superhedge"])
    cfg["payoff"]["strike"] = 95.0
    (tmp_path / "job.json").write_text(json.dumps(cfg))
    assert main(["price", str(tmp_path / "job.json"), "--out", str(tmp_path)]) == EXIT_SOLVER
    assert capsys.readouterr().err.startswith(
        "solver error: implicit step did not converge in 50 iterations at node (0, 0, 0) (t=0, ")


def test_a_failing_shifted_seller_is_raised_at_the_apriori_check(tmp_path, capsys, monkeypatch):
    # Only the apriori check reads the shifted seller: its error comes after the checks
    # named before it and after the eta check, though its sweep is the job's one sweep.
    diverging = Driver(name="diverging", eval=lambda t, y, z, k, s: -50.0 * y,
                       lipschitz_C=50.0)  # Picard on y = e - 12.5 y cycles at dt = 0.25
    monkeypatch.setattr(cli, "_shifted", lambda driver: diverging)
    ran, skorokhod = [], cli._check_skorokhod
    monkeypatch.setattr(cli, "_check_skorokhod", lambda *args: ran.append(args) or skorokhod(*args))
    cfg = _job(jobs=["hedge", "verify"], verify=["skorokhod", "apriori"])
    tree = build_tree(MarketParams.from_dict(cfg["market"]), 4)
    with pytest.raises(ConvergenceError) as alone:
        rbsde.solve_rbsde_lower(tree, diverging, rbsde.Obstacle.from_payoff(tree, put(105.0)))
    for job, code, message in ((cfg, EXIT_SOLVER, f"solver error: {alone.value}"),
                               *((job, EXIT_CONFIG, f"config error: verify: apriori: {message}")
                                 for job, message in APRIORI_OUT_OF_RANGE[1:2])):
        (tmp_path / "job.json").write_text(json.dumps(job))
        assert main(["price", str(tmp_path / "job.json"), "--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err == message + "\n"
    assert len(ran) == 1


def test_apriori_still_reports_just_below_the_overflow(tmp_path):
    cfg = _apriori_job({"name": "borrow_lend", "params": {"R": 2.3}}, 32,
                       ["price", "verify"], ["apriori"])
    assert run(cfg, out_dir=tmp_path) == EXIT_OK
    check = json.loads((tmp_path / "report.json").read_text())["verification"]["checks"]
    assert round(check["apriori"]["beta"], 1) == 705.8


# One coefficient, initial price or horizon of the README job set to an
# extreme value, with or without tree.json: every run ends in an exit code,
# never in a traceback or a warning.
EXTREME_VALUES = (0, 1e-300, 1e-8, 2, 10, 1e154, 1e300, 1.7e308)
EXTREME_FIELDS = [("market", name) for name in ("r", "mu1", "mu2", "sigma1", "sigma2", "lambda",
                                               "s1_0", "s2_0", "T")]
EXTREME_FIELDS += [("driver", "R"), ("driver", "alpha"), ("driver", "gamma_bar")]
EXTREME_DRIVERS = {
    "borrow_lend": {"R": 0.07},
    "large_trader": {"alpha": 5e-4, "gamma_bar": 0.2},
    "perfect": {},
}
EXTREME_JOBS = (["price", "verify"], ["hedge", "verify"], ["price", "hedge", "verify"])
OTHER_CHECKS = ("superhedge", "skorokhod", "martingale", "gamma", "admissible", "duality")


@pytest.mark.parametrize("field", EXTREME_FIELDS, ids=[name for _, name in EXTREME_FIELDS])
@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(value=st.sampled_from(EXTREME_VALUES),
       driver=st.sampled_from(sorted(EXTREME_DRIVERS)), jobs=st.sampled_from(EXTREME_JOBS),
       checks=st.lists(st.sampled_from(OTHER_CHECKS), unique=True, max_size=2),
       n_steps=st.integers(1, 8), dump_tree=st.booleans())
@example(value=1.7e308, driver="borrow_lend", jobs=["price", "verify"], checks=[], n_steps=8,
         dump_tree=True)  # s1_0 and s2_0 overflow the lattice that tree.json writes
def test_extreme_coefficient_exits_with_a_code(field, value, driver, jobs, checks, n_steps,
                                               dump_tree):
    block, name = field
    if block == "driver":  # the driver that has the parameter
        driver = "borrow_lend" if name == "R" else "large_trader"
    cfg = copy.deepcopy(README_JOB)
    cfg.update(grid={"n_steps": n_steps}, jobs=jobs, verify=["apriori", *checks],
               driver={"name": driver, "params": dict(EXTREME_DRIVERS[driver])})
    (cfg["market"] if block == "market" else cfg["driver"]["params"])[name] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(cfg, out_dir=out, dump_tree=dump_tree)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert not caught, [str(w.message) for w in caught]


# ---------------------------------------------------------------------------
# Output bytes pinned across versions
# ---------------------------------------------------------------------------

PIECEWISE_JOB = {
    "market": {"r": {"values": [0.04, 0.06], "times": [0.0, 0.3]},
               "mu1": 0.07, "mu2": -0.02,
               "sigma1": {"values": [0.2, 0.25], "times": [0.0, 0.6]},
               "sigma2": 0.25,
               "lambda": {"values": [0.3, 0.0], "times": [0.0, 0.5]},
               "s1_0": 100.0, "s2_0": 90.0, "T": 1.0},
    "grid": {"n_steps": 32},
    "driver": {"name": "borrow_lend", "params": {"R": 0.08}},
    "payoff": {"kind": "put", "strike": 100.0},
    "jobs": ["price"],
}
EXPR_JOB = {
    "market": dict(README_JOB["market"]),
    "grid": {"n_steps": 16},
    "driver": {"name": "large_trader", "params": {"alpha": 0.0, "gamma_bar": 0.2}},
    "payoff": {"kind": "expr", "expr": "max(105 - S1, 0) + S2 * defaulted"},
    "jobs": ["price"],
}
# Reaches the bytes of the sampled checks: gamma's min_ratio and n_samples,
# admissible's max_ratio, on piecewise coefficients with lambda dropping to 0.
CHECKS_JOB = {
    "market": {"r": {"values": [0.03, 0.05], "times": [0.0, 0.4]},
               "mu1": 0.08, "mu2": -0.01,
               "sigma1": {"values": [0.3, 0.22], "times": [0.0, 0.7]},
               "sigma2": 0.2,
               "lambda": {"values": [0.2, 0.0], "times": [0.0, 0.55]},
               "s1_0": 100.0, "s2_0": 80.0, "T": 1.0},
    "grid": {"n_steps": 20},
    "driver": {"name": "borrow_lend", "params": {"R": 0.07}},
    "payoff": {"kind": "call", "strike": 100.0},
    "jobs": ["price", "verify"],
    "verify": ["gamma", "admissible", "skorokhod"],
}
HEADER_ONLY_CSV = "01d4a41f258bb8a00eceb035a67db30b125b200840329bf7df045466bb5a1753"
# Past MAX_EXACT_STEPS, so both wealth fields are 10,000-path samples.
SAMPLED_JOB = {**_hedge_job(13), "seed": 11}
# The stability estimate fails with a finite pointwise violation (about 4.4e68).
APRIORI_FAILING_JOB = _apriori_job({"name": "large_trader",
                                    "params": {"alpha": 5e-4, "gamma_bar": 0.2}}, 8,
                                   ["hedge", "verify"], ["apriori", "skorokhod"])


@pytest.mark.parametrize("job,digests", [
    (README_JOB, {
        "report.json": "550a6846916be77811a0a87fc93c69956fa8990296d853ea16923a5cbf3797bd",
        "wealth.csv": HEADER_ONLY_CSV, "wealth_buyer.csv": HEADER_ONLY_CSV,
        "tree.json": "fd009eb564bf3b24d08a7ef0ff821b85b163957f237081b1a8da4848e37ff57f"}),
    (PIECEWISE_JOB, {
        "report.json": "da4da7fc9573c31af8eed29d7568f36e2dab7f674c3606f5571e0604f77c286e",
        "wealth.csv": None, "wealth_buyer.csv": None,
        "tree.json": "16470a31062bdd025185573d760d631da0823a308cbbf5668ec87df4c0a8a062"}),
    (EXPR_JOB, {
        "report.json": "d3a7228f65b48ec49b0e812b60b3866dd867d9a85a404212ce2575a0971d405f",
        "wealth.csv": None, "wealth_buyer.csv": None,
        "tree.json": "fae47f05077bbb75e4aa5b7d4b4ed9c20155e13676322d90cb4e1794fb7f8f28"}),
    (SAMPLED_JOB, {
        "report.json": "0aac01dc08a683e4760b558aeb21b77fa3fb474cf812741a8cb0dbff5e6cdf49",
        "wealth.csv": HEADER_ONLY_CSV, "wealth_buyer.csv": HEADER_ONLY_CSV,
        "tree.json": "82894a7b8f90cf15c53e217432762e68ba6621b2b6d208416478f8cfa23d732f"}),
    (CHECKS_JOB, {
        "report.json": "1e7914b0f24074020565f51f9309db29e06381205566b77a4efc2050c38f4846",
        "wealth.csv": None, "wealth_buyer.csv": None,
        "tree.json": "0be77b7d4d9e446470be600c40e138464e7beaa980e6347a0fbbe0da752fc292"}),
    (APRIORI_FAILING_JOB, {
        "report.json": "b8ff336920645258eb8154e6181a2831ec7b94704668fc690c4e62e9b8aedaa3",
        "wealth.csv": HEADER_ONLY_CSV, "wealth_buyer.csv": HEADER_ONLY_CSV,
        "tree.json": "fd009eb564bf3b24d08a7ef0ff821b85b163957f237081b1a8da4848e37ff57f"}),
], ids=["readme", "borrow_lend_piecewise_lambda_to_0", "large_trader_expr", "sampled_hedge",
        "call_sampled_checks", "apriori_violated"])
def test_golden_bytes(tmp_path, job, digests):
    """Output files are byte-identical to those of earlier versions (sha256)."""
    assert run(copy.deepcopy(job), out_dir=tmp_path, dump_tree=True) == EXIT_OK
    for name, digest in digests.items():
        path = Path(tmp_path) / name
        got = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        assert got == digest, name
