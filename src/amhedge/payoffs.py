"""Payoff maps over (t, S1, S2, defaulted) and a small expression language.

Custom payoffs are written as arithmetic expressions over the names
``t``, ``S1``, ``S2`` and ``defaulted`` (0 or 1), the operators
``+ - * /``, unary signs, parentheses, numeric literals and calls to
``max`` / ``min``. Anything else is rejected at compile time, and so is
an expression nested more than ``MAX_EXPR_DEPTH`` deep.
"""

from __future__ import annotations

import ast
import math
from typing import Callable

import numpy as np

from .market import is_finite_number

_ALLOWED_NAMES = {"t", "S1", "S2", "defaulted"}
_ALLOWED_FUNCS = {"max", "min"}
_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)
_ALLOWED_UNARY = (ast.UAdd, ast.USub)
# Deepest nesting of expression nodes a payoff may have ("S1" is 1, a sum of
# n terms is n). Checked without recursion, it keeps the recursive grammar check
# and the compiler well inside Python's recursion limit wherever compile_payoff
# is called from, so every caller gets the same answer.
MAX_EXPR_DEPTH = 300


def _max0(x):
    # Python's max(x, 0.0) on a row: x unless 0.0 > x, so -0.0 and NaN pass.
    return np.where(x < 0.0, 0.0, x)


def put(strike: float) -> Callable:
    """Right to sell the default-free asset at the strike; ``.row`` maps rows."""
    strike = float(strike)

    def payoff(t, s1, s2, defaulted):
        return max(strike - s1, 0.0)

    payoff.row = lambda t, s1, s2, defaulted: _max0(strike - s1)
    return payoff


def call(strike: float) -> Callable:
    """Right to buy the default-free asset at the strike; ``.row`` maps rows."""
    strike = float(strike)

    def payoff(t, s1, s2, defaulted):
        return max(s1 - strike, 0.0)

    payoff.row = lambda t, s1, s2, defaulted: _max0(s1 - strike)
    return payoff


def _depth(parsed: ast.Expression) -> int:
    """Deepest nesting of expression nodes in ``parsed``, by an explicit-stack walk."""
    deepest, stack = 0, [(parsed.body, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in ast.iter_child_nodes(node)
                     if isinstance(child, ast.expr))
    return deepest


def _validate(node: ast.AST, source: str) -> None:
    if isinstance(node, ast.Expression):
        _validate(node.body, source)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise ValueError(f"payoff expression: operator not allowed in {source!r}")
        _validate(node.left, source)
        _validate(node.right, source)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise ValueError(f"payoff expression: operator not allowed in {source!r}")
        _validate(node.operand, source)
    elif isinstance(node, ast.Call):
        if (not isinstance(node.func, ast.Name)
                or node.func.id not in _ALLOWED_FUNCS
                or node.keywords):
            raise ValueError(f"payoff expression: only max/min calls are allowed in {source!r}")
        if len(node.args) < 2:
            raise ValueError(f"payoff expression: {node.func.id} needs at least two arguments")
        for arg in node.args:
            _validate(arg, source)
    elif isinstance(node, ast.Name):
        if node.id not in _ALLOWED_NAMES:
            raise ValueError(f"payoff expression: unknown name {node.id!r} in {source!r}")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)) or isinstance(node.value, bool):
            raise ValueError(f"payoff expression: literal {node.value!r} not allowed")
    else:
        raise ValueError(f"payoff expression: syntax not allowed in {source!r}")


def compile_payoff(source: str) -> Callable:
    """Compile an expression string into a payoff map; rejects anything
    outside the documented grammar."""
    try:
        parsed = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"payoff expression: cannot parse {source!r}: {exc}") from None
    except RecursionError:  # the parser's own limit, before there is a tree to measure
        raise ValueError(f"payoff expression: nested too deeply ({len(source)} "
                         "characters)") from None
    depth = _depth(parsed)
    if depth > MAX_EXPR_DEPTH:
        raise ValueError(f"payoff expression: nested {depth} deep, beyond the limit of "
                         f"{MAX_EXPR_DEPTH}")
    _validate(parsed, source)
    code = compile(parsed, "<payoff>", "eval")

    def payoff(t, s1, s2, defaulted):
        scope = {"t": t, "S1": s1, "S2": s2,
                 "defaulted": 1.0 if defaulted else 0.0,
                 "max": max, "min": min}
        try:
            value = float(eval(code, {"__builtins__": {}}, scope))
            if math.isfinite(value):
                return value
            problem = f"the value {value}"
        except ArithmeticError as exc:
            problem = f"{type(exc).__name__} ({exc})"
        raise ValueError(f"payoff.expr: {source!r} gives {problem} at t={t:.6g}, "
                         f"S1={s1:.6g}, S2={s2:.6g}, defaulted={bool(defaulted)}")

    return payoff


def _strike(cfg: dict) -> float:
    if "strike" not in cfg:
        raise ValueError(f"payoff.strike: required for kind {cfg['kind']!r}")
    if not is_finite_number(cfg["strike"]):
        raise ValueError(f"payoff.strike: must be a finite number, got {cfg['strike']!r}")
    return float(cfg["strike"])


def payoff_from_config(cfg: dict) -> Callable:
    """Resolve the CLI payoff block {kind, strike | expr} to a map."""
    if not isinstance(cfg, dict):
        raise ValueError("payoff: must be an object")
    kind = cfg.get("kind")
    if kind not in ("put", "call", "expr"):
        raise ValueError(f"payoff.kind: expected 'put', 'call' or 'expr', got {kind!r}")
    extra = sorted(set(cfg) - {"kind", "expr" if kind == "expr" else "strike"})
    if extra:
        raise ValueError(f"payoff: unknown key(s) {extra} for kind {kind!r}")
    if kind == "expr":
        if not isinstance(cfg.get("expr"), str):
            raise ValueError("payoff.expr: a string is required for kind 'expr'")
        return compile_payoff(cfg["expr"])
    return (put if kind == "put" else call)(_strike(cfg))
