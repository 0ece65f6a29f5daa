"""The node-keyed reference route stays in ``oracle``. Outside ``market.py``,
which defines the lattice's node views, only ``oracle.py`` reads one; the
fast-path modules import nothing from ``oracle``, and ``oracle`` imports
nothing from the layers that consume it. One writer, ``cli._write``, opens
every file the package writes. The row layout is decided in ``market`` alone:
only it builds row starts from row lengths, no module joins a quantity's rows
with a ``flat``, and the forward pass reads its arrays without joining rows.
The result types hold their row-order arrays only: no module defines a
``row_view``, and no node dict hangs off a solve, an obstacle, a strategy or
a rule (``Tree.node_dict`` builds one where a reference needs it)."""

import ast
import dataclasses
from pathlib import Path

import pytest

from amhedge.bsde import Solution
from amhedge.pricing import Strategy
from amhedge.rbsde import Obstacle, StoppingRule

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "amhedge"
NODE_VIEWS = {"nodes", "branches", "levels", "terminal_nodes", "level_rows", "node_dict",
              "is_terminal", "root"}
FAST_PATH = ("market", "drivers", "payoffs", "bsde", "rbsde", "hedging")


def _parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _view_reads(module: str) -> list:
    """(line, attribute) of every node-view attribute that ``module`` reads."""
    return [(node.lineno, node.attr) for node in ast.walk(_parse(module))
            if isinstance(node, ast.Attribute) and node.attr in NODE_VIEWS]


def _imported_modules(module: str) -> set:
    """The ``amhedge`` modules that ``module`` imports, or imports names from."""
    names = []
    for node in ast.walk(_parse(module)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["amhedge" if node.level else "", node.module]))
            names += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in names if name.startswith("amhedge.")}


def _open_calls(module: str) -> list:
    """The enclosing function, as ``module.function``, of every call to ``open``
    (a name or an attribute) in ``module``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and "open" in (getattr(child.func, "id", None),
                                                          getattr(child.func, "attr", None)):
                found.append(scope)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)
    visit(_parse(module), module)
    return found


def test_only_cli_write_opens_a_file():
    calls = [scope for path in sorted(PACKAGE.glob("*.py")) for scope in _open_calls(path.stem)]
    assert calls == ["cli._write"]


def test_only_oracle_reads_node_views_outside_market():
    readers = {path.stem: _view_reads(path.stem) for path in sorted(PACKAGE.glob("*.py"))
               if path.stem not in ("market", "oracle")}
    assert {module: reads for module, reads in readers.items() if reads} == {}
    assert _view_reads("oracle")  # the walk finds the reads it looks for


@pytest.mark.parametrize("module", FAST_PATH)
def test_the_fast_path_does_not_import_the_references(module):
    assert "oracle" not in _imported_modules(module)


def test_the_references_do_not_import_their_consumers():
    imported = _imported_modules("oracle")
    assert imported.isdisjoint({"pricing", "cli"})
    assert "bsde" in imported  # the walk finds the imports it looks for


def _calls(tree: ast.AST, name: str) -> list:
    """Every call in ``tree`` to ``name``, as a name or an attribute."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def _function(module: str, *path: str) -> ast.AST:
    """The definition at ``path`` (class, then method; or a function) in ``module``."""
    scope = _parse(module)
    for name in path:
        scope = next(node for node in scope.body if getattr(node, "name", None) == name)
    return scope


def test_no_module_defines_or_reads_flat():
    found = [(path.stem, node.lineno) for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(_parse(path.stem))
             if getattr(node, "name", None) == "flat" or getattr(node, "attr", None) == "flat"]
    assert found == []


def test_only_market_builds_row_starts_from_row_lengths():
    def from_lengths(tree):  # cumsum calls with a len(...) call among their arguments
        return [call.lineno for call in _calls(tree, "cumsum")
                if any(_calls(arg, "len") for arg in call.args)]
    found = {path.stem: from_lengths(_parse(path.stem)) for path in sorted(PACKAGE.glob("*.py"))
             if path.stem != "market"}
    assert {module: lines for module, lines in found.items() if lines} == {}
    assert _calls(_parse("market"), "cumsum")  # market builds them
    # The walk finds the row starts as modules outside market once built them.
    assert from_lengths(ast.parse("np.cumsum([0] + [len(row) for rows in s1 for row in rows])"))


def test_the_row_starts_are_read_from_the_tree():
    for module, name in (("cli", "_orders"), ("oracle", "apriori_estimate")):
        assert any(getattr(node, "attr", None) == "starts"
                   for node in ast.walk(_function(module, name))), name


def test_the_forward_pass_reads_rows_without_joining_them():
    assert _calls(_function("hedging", "Paths", "at"), "concatenate") == []
    assert _calls(_function("hedging", "_groups"), "concatenate") == []
    assert _calls(_parse("hedging"), "concatenate")  # the walk finds the calls it looks for


def _names(tree: ast.AST, name: str) -> list:
    """The line of every definition of, assignment to or read of ``name`` in ``tree``."""
    return [node.lineno for node in ast.walk(tree)
            if name in (getattr(node, "name", None), getattr(node, "id", None),
                        getattr(node, "attr", None))]


def test_no_module_defines_row_view():
    found = {path.stem: _names(_parse(path.stem), "row_view")
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: lines for module, lines in found.items() if lines} == {}
    # The walk finds a definition and its uses, as ``market`` once held them.
    assert len(_names(ast.parse("def row_view(v):\n    pass\ny = row_view('y_rows')\n"
                                "from .market import row_view\nz = market.row_view('z')"),
                      "row_view")) == 4


@pytest.mark.parametrize("cls,methods", [(Solution, {"root_value"}), (Obstacle, {"from_payoff"}),
                                         (Strategy, set()), (StoppingRule, set())])
def test_the_result_types_hold_rows_only(cls, methods):
    extra = {name for name in vars(cls) if not (name.startswith("__") and name.endswith("__"))}
    assert extra - {field.name for field in dataclasses.fields(cls)} == methods
