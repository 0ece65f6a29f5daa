"""The README's examples run as written: the library quick start and the
example job document through the command line."""

import json
import re
from pathlib import Path

from amhedge.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(lang: str, after: str) -> str:
    """The first fenced ``lang`` block of the README after the line ``after``."""
    match = re.search(rf"^{re.escape(after)}$.*?^```{lang}\n(.*?)^```$", README,
                      re.MULTILINE | re.DOTALL)
    assert match, f"no {lang} block after {after!r}"
    return match.group(1)


def test_the_quick_start_runs(capsys):
    exec(compile(_block("python", "## Library quick start"), "README.md", "exec"), {})
    u0, v0, passed = capsys.readouterr().out.split()
    # The linear generator gives one price for both sides.
    assert abs(float(u0) - float(v0)) <= 1e-10 and passed == "True"


def test_the_example_job_document_runs(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(_block("json", "Example job document:"))
    assert json.loads(path.read_text())["jobs"] == ["price", "hedge", "verify"]
    out = tmp_path / "out"
    assert main(["price", str(path), "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["verification"]["all_passed"]
    for name in ("wealth.csv", "wealth_buyer.csv"):
        assert (out / name).read_text().startswith("path_id,step,node,V,xi,slack")
