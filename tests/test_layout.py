"""The row layout: every per-node quantity is one array in the tree's row order,
row r = 2 * step + defaulted from ``tree.starts[r]``, and a step's (alive,
defaulted) rows are views of that array that hold the bits which the earlier
layout, a list of (alive, defaulted) array pairs per quantity, gave."""

import hashlib

import numpy as np
import pytest

from amhedge import cli, pricing
from amhedge.market import MarketParams, PiecewiseConstant, build_tree
from amhedge.payoffs import put
from amhedge.rbsde import Obstacle

from helpers import float_bits, row_lengths

MARKET = {"r": 0.05, "mu1": 0.07, "mu2": -0.02, "sigma1": 0.2, "sigma2": 0.25,
          "s1_0": 100.0, "s2_0": 90.0, "T": 1.0}
# Constant, stepping to 0 and stepping from 0 at t = 0.5: the last leaves the
# defaulted rows of steps 1 to 3 empty.
LAMS = {"const": 0.25, "to_zero": PiecewiseConstant([0.25, 0.0], times=[0.0, 0.5]),
        "from_zero": PiecewiseConstant([0.0, 0.25], times=[0.0, 0.5])}
# Quantities with a value below the last step only (0 on the terminal rows).
INNER = ("z_rows", "k_rows", "da_rows", "phi1_rows", "phi2_rows")

# ``_digest`` of each quantity's rows on the n = 6 README borrow_lend put (R = 0.07,
# K = 105), taken from the list-of-pairs layout before its rows became views.
PARENT_DIGESTS = {
    "const": {
        "s1": "8706c41790785a4b",
        "s2": "de53aa5d72e85326",
        "obstacle": "61ed90463f37e87b",
        "seller.y_rows": "b247a20bc9925115",
        "seller.z_rows": "2ec2807951fe13a8",
        "seller.k_rows": "c22a1fd2abc7148a",
        "seller.da_rows": "cf92712585b0b0db",
        "buyer.y_rows": "22617b36b4b93542",
        "buyer.z_rows": "7d21a0a699ceee53",
        "buyer.k_rows": "6cd2b2b6374eac64",
        "buyer.da_rows": "e8bf924e734cb059",
        "shifted.y_rows": "5d664844f5670b96",
        "shifted.z_rows": "972617188821f2a0",
        "shifted.k_rows": "60d341ced2896546",
        "shifted.da_rows": "932d9b2e273c707a",
        "seller.phi1_rows": "e0881058eeaa9bbb",
        "seller.phi2_rows": "bb929863fe825783",
        "buyer.phi1_rows": "1d8710f102a863fd",
        "buyer.phi2_rows": "222acfb6adbba9c0",
        "nu_star": "88b36382a82e1232",
        "nu_bar": "31a38adc88813d40",
        "buyer_exercise": "88b36382a82e1232",
    },
    "to_zero": {
        "s1": "47343407709a4959",
        "s2": "204ca95fa6941e14",
        "obstacle": "3b613dc73d220546",
        "seller.y_rows": "b426c394ed2987c1",
        "seller.z_rows": "21e58de23342a0a6",
        "seller.k_rows": "2614434941973031",
        "seller.da_rows": "451a55dc2ddee9b7",
        "buyer.y_rows": "f6b646d6f4299cfc",
        "buyer.z_rows": "d56a294ea32ed9f6",
        "buyer.k_rows": "983ff4dc6d4275f9",
        "buyer.da_rows": "0ff73e049b4f6341",
        "shifted.y_rows": "21f0af16db2ddf51",
        "shifted.z_rows": "a4a396d73752c378",
        "shifted.k_rows": "6e1e00d45b97fbbd",
        "shifted.da_rows": "0e10e755207309db",
        "seller.phi1_rows": "e65e0a259009c8b2",
        "seller.phi2_rows": "19d96a1f9376dff9",
        "buyer.phi1_rows": "8e6a1900147c146d",
        "buyer.phi2_rows": "1926d1f88ba73068",
        "nu_star": "88b36382a82e1232",
        "nu_bar": "31a38adc88813d40",
        "buyer_exercise": "88b36382a82e1232",
    },
    "from_zero": {
        "s1": "197c6ce21d0b7030",
        "s2": "7d4f9892abad242d",
        "obstacle": "accd1e672786ccaf",
        "seller.y_rows": "cb3b3a93c22bb8d6",
        "seller.z_rows": "af27150b16d9a44f",
        "seller.k_rows": "e9be6c5c7ba8a91d",
        "seller.da_rows": "8819850efe6a9cdd",
        "buyer.y_rows": "1c3449f9d31df0a2",
        "buyer.z_rows": "9219f9729b2539f1",
        "buyer.k_rows": "20a7c9da0ed09efa",
        "buyer.da_rows": "746c9b0213e43e7e",
        "shifted.y_rows": "eced247810002658",
        "shifted.z_rows": "a1d22fa03147903c",
        "shifted.k_rows": "984c86412f89f09d",
        "shifted.da_rows": "a80b6f9e2c03e72a",
        "seller.phi1_rows": "2cf2063a58328e11",
        "seller.phi2_rows": "eceb29af5124adaf",
        "buyer.phi1_rows": "728200f00adbc847",
        "buyer.phi2_rows": "291abacbc5850fc1",
        "nu_star": "49385d6d3bd3f6e6",
        "nu_bar": "797019845306af11",
        "buyer_exercise": "49385d6d3bd3f6e6",
    },
}


def _digest(rows) -> str:
    """sha256 of the rows in order, each as its dtype, its length and the
    ``float_bits`` of its values."""
    h = hashlib.sha256()
    for row in rows:
        h.update(row.dtype.str.encode() + len(row).to_bytes(4, "little")
                 + b"".join(map(float_bits, row.tolist())))
    return h.hexdigest()[:16]


def _quantities(tree, params) -> dict:
    """Name -> row-order array of the tree's prices, the obstacle, the three sides
    of one seller + buyer + shifted seller sweep, both strategies and the three
    stopping rules."""
    driver = cli.borrow_lend_driver(params, 0.07)
    obstacle = Obstacle.from_payoff(tree, put(105.0))
    sides = pricing.solve_prices(tree, driver, obstacle, True, ("lower", "upper"),
                                 cli._shifted(driver))
    seller, buyer = pricing.seller_of(sides[0]), pricing.buyer_of(sides[1], obstacle)
    report = pricing.report_of(seller, buyer, obstacle)
    arrays = {"s1": tree.s1, "s2": tree.s2, "obstacle": obstacle.rows,
              "nu_star": report.nu_star.rows, "nu_bar": report.nu_bar.rows,
              "buyer_exercise": buyer.exercise.rows}
    for side, solution in zip(("seller", "buyer", "shifted"), sides):
        for name in ("y_rows", "z_rows", "k_rows", "da_rows"):
            arrays[f"{side}.{name}"] = getattr(solution, name)
    for side, price in (("seller", seller), ("buyer", buyer)):
        for name in ("phi1_rows", "phi2_rows"):
            arrays[f"{side}.{name}"] = getattr(price.strategy, name)
    return arrays


def _owner(array: np.ndarray) -> np.ndarray:
    return array if array.base is None else array.base


@pytest.mark.parametrize("lam", sorted(LAMS))
def test_every_row_is_a_view_of_its_one_array_with_the_earlier_bits(lam):
    params = MarketParams(lam=LAMS[lam], **MARKET)
    tree = build_tree(params, 6)
    assert tree.starts.tolist() == np.cumsum([0] + row_lengths(tree)).tolist()
    arrays = _quantities(tree, params)
    assert sorted(arrays) == sorted(PARENT_DIGESTS[lam])
    n = tree.n_steps
    for name, array in arrays.items():
        assert array.shape == (tree.starts[-1],)
        inner = name.endswith(INNER)
        rows = [row for i in range(n + 1 - inner) for row in tree.step_rows(array, i)]
        for row in rows:  # an empty row shares no memory, but it is a view all the same
            assert _owner(row) is _owner(array)
            assert row.size == 0 or np.shares_memory(row, array)
        assert _digest(rows) == PARENT_DIGESTS[lam][name], name
        if inner:
            assert not array[tree.starts[-3]:].any()
