import json
from collections import Counter

import pytest

from amhedge import hedging, rbsde
from amhedge.cli import (EXIT_CONFIG, EXIT_OK, EXIT_VERIFY, canonical_json,
                         main, run)


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


class TestCanonicalJson:
    def test_sorted_keys_and_17_digit_floats(self):
        doc = {"b": 0.1, "a": [1, True, None, "x"], "z": 0.0}
        text = canonical_json(doc)
        assert text == ('{"a": [1, true, null, "x"], '
                        '"b": 0.10000000000000001, "z": 0}\n')

    def test_negative_zero_normalized(self):
        assert canonical_json(-0.0) == "0\n"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))


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

        def counting(name, inner):
            def counted(*args, **kwargs):
                counts[name] += 1
                return inner(*args, **kwargs)
            return counted

        # Looked up at call time, so every caller goes through the counter.
        for module, name in ((rbsde, "_solve_reflected"),
                             (hedging, "_simulate_exact"),
                             (hedging, "_simulate_sampled")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        return counts

    @pytest.mark.parametrize("jobs,checks,solves,simulations", [
        # Seller, buyer and the apriori check's shifted seller; one wealth
        # simulation per side.
        (["price", "hedge", "verify"],
         ["superhedge", "skorokhod", "apriori", "martingale"], 3, 2),
        (["verify"], ["gamma", "admissible"], 0, 0),
    ])
    def test_each_side_solved_and_simulated_once(self, tmp_path, counts, jobs,
                                                 checks, solves, simulations):
        cfg = minimal_config(jobs=jobs, verify=checks)
        cfg["market"]["lambda"] = 0.2
        assert run(cfg, out_dir=tmp_path) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verification"]["all_passed"] is True
        assert counts["_solve_reflected"] == solves
        assert counts["_simulate_exact"] + counts["_simulate_sampled"] == simulations


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
