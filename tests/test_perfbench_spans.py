"""The benchmark's span tracer still finds every library name that it wraps.

``perfbench/spans.py`` wraps names such as ``amhedge.cli.build_tree`` and
``amhedge.oracle.g_evaluation`` by looking them up in each module; a name
that a change removes or moves makes ``install`` raise, and the traced
benchmark run with it.
"""

import importlib.util
import sys
from pathlib import Path

from amhedge import cli

ROOT = Path(__file__).resolve().parents[1]


def _spans():
    """``perfbench/spans.py``, imported without writing bytecode there."""
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_tracer_installs_on_every_name_and_undoes():
    spans = _spans()
    undo = spans.install(spans.Tracer())
    try:
        assert cli.build_tree.__module__ == "perfbench_spans"
    finally:
        undo()
    assert cli.build_tree.__module__ == "amhedge.market"
