import pytest

from amhedge.payoffs import MAX_EXPR_DEPTH, call, compile_payoff, payoff_from_config, put


class TestStandardPayoffs:
    def test_put(self):
        p = put(100.0)
        assert p(0.0, 90.0, 50.0, False) == 10.0
        assert p(0.5, 120.0, 50.0, True) == 0.0

    def test_call(self):
        c = call(100.0)
        assert c(0.0, 90.0, 50.0, False) == 0.0
        assert c(1.0, 130.0, 0.0, True) == 30.0


class TestExpressionLanguage:
    def test_put_expression_matches_builtin(self):
        expr = compile_payoff("max(100 - S1, 0)")
        ref = put(100.0)
        for s1 in (55.0, 100.0, 131.5):
            assert expr(0.2, s1, 10.0, False) == ref(0.2, s1, 10.0, False)

    def test_all_names_available(self):
        expr = compile_payoff("t + S1 / 2 + S2 * (1 - defaulted)")
        assert expr(0.5, 10.0, 8.0, False) == pytest.approx(0.5 + 5.0 + 8.0)
        assert expr(0.5, 10.0, 8.0, True) == pytest.approx(0.5 + 5.0)

    def test_nested_min_max_and_unary(self):
        expr = compile_payoff("min(max(S1 - 90, 0), 20) + -1 * t")
        assert expr(1.0, 150.0, 0.0, False) == 19.0

    @pytest.mark.parametrize("source", [
        "__import__('os').system('true')",
        "S3 + 1",
        "S1 ** 2",
        "max(S1)",
        "S1 < 2",
        "abs(S1)",
        "(lambda: 1)()",
        "S1 if t else S2",
        "[1, 2][0]",
        "max(S1, 0, key=None)",
    ])
    def test_rejects_out_of_grammar(self, source):
        with pytest.raises(ValueError, match="payoff expression"):
            compile_payoff(source)

    def test_rejects_unparseable(self):
        with pytest.raises(ValueError, match="cannot parse"):
            compile_payoff("max(S1, ")

    @pytest.mark.parametrize("depth", [MAX_EXPR_DEPTH, MAX_EXPR_DEPTH + 1])
    @pytest.mark.parametrize("shape", ["sum", "signs"])
    def test_depth_limit_gives_every_caller_the_same_answer(self, shape, depth):
        """A sum of ``depth`` terms, or ``depth - 1`` signs before S1, compiled at the
        top of the stack and 400 frames deeper: both compile at the limit and both are
        rejected one level beyond it."""
        source = "+".join(["S1"] * depth) if shape == "sum" else "-" * (depth - 1) + "S1"

        def outcome(frames):
            if frames:
                return outcome(frames - 1)
            try:
                return compile_payoff(source)(0.0, 2.0, 0.0, False)
            except ValueError as exc:
                return str(exc)

        top = outcome(0)
        assert outcome(400) == top
        if depth <= MAX_EXPR_DEPTH:
            assert top == (2.0 * depth if shape == "sum" else (-1) ** (depth - 1) * 2.0)
        else:
            assert top == (f"payoff expression: nested {depth} deep, beyond the limit of "
                           f"{MAX_EXPR_DEPTH}")


class TestPayoffFromConfig:
    def test_put_and_call(self):
        p = payoff_from_config({"kind": "put", "strike": 50.0})
        assert p(0.0, 40.0, 0.0, False) == 10.0
        c = payoff_from_config({"kind": "call", "strike": 50.0})
        assert c(0.0, 60.0, 0.0, False) == 10.0

    def test_expr(self):
        p = payoff_from_config({"kind": "expr", "expr": "S2 * 2"})
        assert p(0.0, 1.0, 3.0, False) == 6.0

    def test_missing_strike_named(self):
        with pytest.raises(ValueError, match="payoff.strike"):
            payoff_from_config({"kind": "put"})

    def test_unknown_kind_named(self):
        with pytest.raises(ValueError, match="payoff.kind"):
            payoff_from_config({"kind": "digital"})
