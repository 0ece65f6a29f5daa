import warnings

import pytest

from amhedge.market import (MarketParams, PiecewiseConstant, as_piecewise,
                            build_tree, is_finite_number)
from helpers import concatenated_prices


def flat_params(**overrides):
    base = dict(r=0.05, mu1=0.05, mu2=0.0, sigma1=0.2, sigma2=0.3, lam=0.0,
                s1_0=100.0, s2_0=90.0, T=1.0)
    base.update(overrides)
    return MarketParams(**base)


def enumerate_nodes_by_walk(tree):
    """Independent recursive walk of the branch graph collecting node ids."""
    seen = set()

    def walk(node):
        if node in seen:
            return
        seen.add(node)
        for b in tree.branches.get(node, ()):
            walk(b.child)

    walk(tree.root)
    return seen


@pytest.mark.parametrize("value,expected", [
    (0, True), (-3, True), (1.5, True), (1e308, True),
    (float("nan"), False), (float("inf"), False), (10**400, False),
    ("1", False), (True, False), (None, False), ([1.0], False), ({"v": 1}, False)])
def test_finite_number_is_a_json_number_in_float_range(value, expected):
    assert is_finite_number(value) is expected


class TestPiecewiseConstant:
    def test_scalar(self):
        f = PiecewiseConstant(0.05)
        assert f.at(0.0) == 0.05
        assert f.at(0.7) == 0.05
        assert repr(f) == "PiecewiseConstant(0.05)"

    def test_pieces_right_continuous(self):
        f = PiecewiseConstant([0.1, 0.2], times=[0.0, 0.5])
        assert f.at(-0.1) == 0.1  # before the first breakpoint: the first piece
        assert f.at(0.49) == 0.1
        assert f.at(0.5) == 0.2
        assert f.at(2.0) == 0.2
        assert repr(f) == "PiecewiseConstant([0.1, 0.2], times=[0.0, 0.5])"

    def test_coercion_from_dict(self):
        f = as_piecewise({"values": [1.0, 2.0], "times": [0.0, 1.0]})
        assert f.at(1.5) == 2.0

    def test_rejects_bad_breakpoints(self):
        with pytest.raises(ValueError):
            PiecewiseConstant([1.0, 2.0], times=[0.1, 0.5])
        with pytest.raises(ValueError):
            PiecewiseConstant([1.0, 2.0], times=[0.0, 0.0])


class TestMarketParams:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            flat_params(sigma1=0.0)
        with pytest.raises(ValueError):
            flat_params(sigma2=-0.1)

    def test_rejects_negative_intensity(self):
        with pytest.raises(ValueError):
            flat_params(lam=-0.01)

    def test_from_dict_accepts_lambda_key(self):
        p = MarketParams.from_dict(dict(r=0.0, mu1=0.0, mu2=0.0, sigma1=0.2,
                                        sigma2=0.3, s1_0=1.0, s2_0=1.0, T=1.0,
                                        **{"lambda": 0.1}))
        assert p.lam.at(0.0) == 0.1

    @pytest.mark.parametrize("data", [
        [("r", 0.0), ("mu1", 0.0), ("mu2", 0.0), ("sigma1", 0.2), ("sigma2", 0.3),
         ("lambda", 0.1), ("s1_0", 1.0), ("s2_0", 1.0), ("T", 1.0)],  # [name, value] pairs
        "ab", 5, None,
    ], ids=["pairs", "string", "number", "null"])
    def test_from_dict_rejects_what_is_not_a_mapping(self, data):
        with pytest.raises(ValueError, match="^must be an object$"):
            MarketParams.from_dict(data)


class TestBuildTree:
    def test_no_default_single_step_is_binomial(self):
        tree = build_tree(flat_params(lam=0.0), 1)
        out = tree.branches[tree.root]
        assert len(out) == 2
        assert [b.prob for b in out] == [0.5, 0.5]
        assert all(b.dm == 0.0 for b in out)

    def test_default_probabilities_and_compensation(self):
        # lam * dt = 0.1 puts (0.45, 0.45, 0.10) on the three branches.
        tree = build_tree(flat_params(lam=0.1, T=1.0), 1)
        out = tree.branches[tree.root]
        assert len(out) == 3
        assert [b.prob for b in out] == [0.45, 0.45, 0.1]
        assert out[2].dm == 0.9
        assert sum(b.prob * b.dm for b in out) == 0.0

    def test_increments_mean_zero_everywhere(self):
        tree = build_tree(flat_params(lam=0.4, T=0.75), 5)
        for node, out in tree.branches.items():
            assert abs(sum(b.prob for b in out) - 1.0) <= 1e-15
            assert abs(sum(b.prob * b.dw for b in out)) == 0.0
            assert abs(sum(b.prob * b.dm for b in out)) == 0.0
            assert all(b.prob > 0.0 for b in out)

    def test_second_moment_of_dw(self):
        tree = build_tree(flat_params(lam=0.25, T=1.0), 4)
        for node, out in tree.branches.items():
            lam_dt = tree.nodes[node].lam * tree.dt
            expected = tree.dt * (1.0 - lam_dt)
            got = sum(b.prob * b.dw ** 2 for b in out)
            assert got == pytest.approx(expected, rel=1e-14)

    def test_node_count_matches_independent_walk(self):
        params = flat_params(r=0.0, mu1=0.0, lam=0.05, T=1.0)
        tree = build_tree(params, 4)
        walked = enumerate_nodes_by_walk(tree)
        assert walked == set(tree.nodes)
        # one alive row of i+1 nodes plus one defaulted row of i nodes per step
        assert len(tree.nodes) == (4 + 1) ** 2

    def test_no_default_node_count(self):
        tree = build_tree(flat_params(lam=0.0), 6)
        for i, level in enumerate(tree.levels):
            assert len(level) == i + 1

    def test_defaulted_nodes_have_zero_s2_and_two_children(self):
        tree = build_tree(flat_params(lam=0.3), 5)
        saw_default = False
        for node, data in tree.nodes.items():
            if data.defaulted:
                saw_default = True
                assert data.s2 == 0.0
                assert data.lam == 0.0
                if not tree.is_terminal(node):
                    out = tree.branches[node]
                    assert len(out) == 2
                    assert all(b.child[2] == 1 for b in out)
        assert saw_default

    def test_alive_children_count_tracks_intensity(self):
        lam = PiecewiseConstant([0.3, 0.0], times=[0.0, 0.5])
        tree = build_tree(flat_params(lam=lam), 4)
        for node in tree.branches:
            if node[2] == 0:
                expect = 3 if tree.nodes[node].lam * tree.dt > 0.0 else 2
                assert len(tree.branches[node]) == expect

    def test_rejects_lambda_dt_at_least_one(self):
        with pytest.raises(ValueError, match="n_steps"):
            build_tree(flat_params(lam=2.5), 2)

    @pytest.mark.parametrize("overrides,field", [
        ({"sigma1": 50.0}, "sigma1"),
        ({"sigma2": 50.0}, "sigma2"),
        ({"s1_0": -5.0}, "s1_0"),
        ({"s1_0": 0.0}, "s1_0"),
        ({"s2_0": 0.0}, "s2_0"),
    ])
    def test_rejects_non_positive_prices(self, overrides, field):
        with pytest.raises(ValueError, match=field):
            build_tree(flat_params(**overrides), 4)

    @pytest.mark.parametrize("overrides,message", [
        ({"r": 1e300}, "s0: the price built from r overflows at step 2"),
        ({"mu1": 1e300}, "s1: the price built from s1_0, mu1 and sigma1 overflows at step 2"),
        ({"s2_0": 1e308}, "s2: the price built from s2_0, mu2 and sigma2 overflows at step 6"),
    ])
    def test_overflowing_prices_rejected_naming_price_and_step(self, overrides, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning on the way
            with pytest.raises(ValueError) as failure:
                build_tree(flat_params(**overrides), 8)
        assert str(failure.value) == message
        tree = build_tree(flat_params(s2_0=1e307), 8)  # large but finite
        assert max(tree.step_rows(tree.s2, 8)[0]) < float("inf")

    def test_down_factor_guard_names_the_step(self):
        params = flat_params(sigma1=PiecewiseConstant([0.2, 5.0], times=[0.0, 0.5]))
        with pytest.raises(ValueError, match="sigma1.*step 2"):
            build_tree(params, 4)  # 1 + mu1 dt - 5 sqrt(dt) < 0 once sigma1 jumps
        tree = build_tree(params, 100)  # fine enough for the same market
        assert min(data.s1 for data in tree.nodes.values()) > 0.0

    def test_price_updates_multiplicative_euler(self):
        params = flat_params(lam=0.2, mu1=0.04, mu2=-0.02)
        tree = build_tree(params, 4)
        dt, sq = tree.dt, tree.sq
        for node, out in tree.branches.items():
            data = tree.nodes[node]
            t = tree.time(node[0])
            mu1, sig1 = params.mu1.at(t), params.sigma1.at(t)
            mu2, sig2 = params.mu2.at(t), params.sigma2.at(t)
            lam = data.lam
            for b in out:
                child = tree.nodes[b.child]
                assert child.s1 == pytest.approx(
                    data.s1 * (1.0 + mu1 * dt + sig1 * b.dw), rel=1e-12)
                if b.kind == "default":
                    assert child.s2 == 0.0
                elif not data.defaulted:
                    assert child.s2 == pytest.approx(
                        data.s2 * (1.0 + (mu2 + lam) * dt + sig2 * b.dw), rel=1e-12)

    def test_conditional_expectation_matches_branch_mix(self):
        tree = build_tree(flat_params(lam=0.2), 3)
        values = {node: float(hash(node) % 97) for node in tree.nodes}
        for node, out in tree.branches.items():
            lam_dt = tree.nodes[node].lam * tree.dt
            mixed = sum(b.prob * values[b.child] for b in out)
            if len(out) == 3:
                direct = ((1.0 - lam_dt) * (values[out[0].child] + values[out[1].child]) / 2.0
                          + lam_dt * values[out[2].child])
            else:
                direct = (values[out[0].child] + values[out[1].child]) / 2.0
            assert mixed == pytest.approx(direct, rel=1e-14)


class TestNodePrices:
    def test_root_prices(self):
        tree = build_tree(flat_params(), 2)
        root = tree.nodes[tree.root]
        assert (root.s0, root.s1, root.s2) == (1.0, 100.0, 90.0)

    def test_riskless_compounding(self):
        tree = build_tree(flat_params(r=0.1, T=1.0), 2)  # dt = 0.5
        assert tree.nodes[(2, 1, 0)].s0 == pytest.approx(1.05 ** 2, rel=1e-14)

    def test_defaulted_price_is_zero(self):
        tree = build_tree(flat_params(lam=0.3), 3)
        assert tree.nodes[(2, 1, 1)].s2 == 0.0


# The intensity: none, constant, or stepping to or from 0 at t = 0.5, so that the
# defaulted rows start at once, never, grow from one alive row, or start late.
PRICE_LAMBDAS = {"lam_zero": 0.0, "lam_const": 0.25,
                 "lam_to_zero": PiecewiseConstant([0.25, 0.0], times=[0.0, 0.5]),
                 "lam_from_zero": PiecewiseConstant([0.0, 0.25], times=[0.0, 0.5])}


@pytest.mark.parametrize("lam", sorted(PRICE_LAMBDAS))
@pytest.mark.parametrize("sigma1", [0.2, PiecewiseConstant([0.2, 0.35], times=[0.0, 0.4])])
def test_prices_written_in_place_equal_the_concatenated_rows(lam, sigma1):
    params = flat_params(mu1=0.07, mu2=-0.02, sigma1=sigma1, sigma2=0.25,
                         lam=PRICE_LAMBDAS[lam])
    for n_steps in [*range(1, 18), 64, 256]:
        tree = build_tree(params, n_steps)
        starts, s1, s2 = concatenated_prices(params, n_steps)
        assert tree.starts.tobytes() == starts.tobytes()
        assert tree.s1.tobytes() == s1.tobytes() and tree.s2.tobytes() == s2.tobytes()
