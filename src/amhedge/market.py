"""Discrete market lattice with a single default branch.

The lattice discretises a market with one riskless account, one
default-free risky asset driven by a binomial Brownian increment, and one
defaultable asset that drops to zero the moment the default branch is
taken. While a node is alive and the local default intensity ``lam`` is
positive, every step has three branches:

    up       dW = +sqrt(dt)   dM = -lam*dt       prob (1 - lam*dt)/2
    down     dW = -sqrt(dt)   dM = -lam*dt       prob (1 - lam*dt)/2
    default  dW = 0           dM = 1 - lam*dt    prob lam*dt

Both increments have exactly zero mean under the branch probabilities, so
the one-step system (mean value, dW coefficient, dM coefficient) is square
and solvable at every node. After default the intensity is treated as zero
and only the two Brownian branches remain, with dM = 0.

Nodes are identified by ``(step, up_count, defaulted)``. Asset prices
follow the multiplicative Euler rule along a canonical parent edge (the
up-parent for the top rows, the down edge for the bottom row, the alive
parent for freshly defaulted rows). With constant coefficients every edge
satisfies the multiplicative update exactly; with time-varying
coefficients the recombining labels are canonical representatives and
cross edges agree only up to the usual recombination error. The lattice
itself (probabilities and increments) is exact either way.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple

import numpy as np

NodeId = tuple  # (step, up_count, defaulted) with defaulted in {0, 1}


def _number(value) -> float:
    """``float(value)``; a string or a boolean is not a number here."""
    if isinstance(value, (str, bool)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def is_finite_number(value) -> bool:
    """Whether ``_number`` reads a finite float from ``value`` (a JSON number)."""
    try:
        return math.isfinite(_number(value))
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int too large for a float
        return False


class PiecewiseConstant:
    """Right-continuous piecewise-constant function of time on [0, T]."""

    __slots__ = ("times", "values")

    def __init__(self, values, times=None):
        if isinstance(values, str):
            raise TypeError(f"expected a number or a list of numbers, got {values!r}")
        if isinstance(values, (int, float)):
            values = [_number(values)]
        else:
            values = [_number(v) for v in values]
        if not values:
            raise ValueError("piecewise-constant function needs at least one value")
        if times is None:
            if len(values) != 1:
                raise ValueError("times required when more than one value is given")
            times = [0.0]
        if isinstance(times, str):
            raise TypeError(f"times: expected a list of numbers, got {times!r}")
        times = [_number(t) for t in times]
        if len(times) != len(values):
            raise ValueError("times and values must have the same length")
        if times[0] != 0.0:
            raise ValueError("first breakpoint must be t = 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        self.times = tuple(times)
        self.values = tuple(values)

    def at(self, t: float) -> float:
        """Value of the piece containing time t (last piece for t past the end)."""
        idx = bisect.bisect_right(self.times, t) - 1
        if idx < 0:
            idx = 0
        return self.values[idx]

    def __repr__(self):
        if len(self.values) == 1:
            return f"PiecewiseConstant({self.values[0]!r})"
        return f"PiecewiseConstant({list(self.values)!r}, times={list(self.times)!r})"


def as_piecewise(value) -> PiecewiseConstant:
    """Coerce a scalar, a (values, times) dict, or a PiecewiseConstant."""
    if isinstance(value, PiecewiseConstant):
        return value
    if isinstance(value, dict):
        extra = sorted(set(value) - {"values", "times"})
        if extra:
            raise ValueError(f"unknown key(s) {extra}")
        return PiecewiseConstant(value.get("values", ()), value.get("times"))
    return PiecewiseConstant(value)


def merged_breakpoints(*functions: PiecewiseConstant) -> list:
    """Sorted union of the breakpoints of several piecewise functions."""
    points = {0.0}
    for fn in functions:
        points.update(fn.times)
    return sorted(points)


class Coefs(NamedTuple):
    """The market coefficients in force at one time (constant over a step)."""

    r: float
    mu1: float
    mu2: float
    sigma1: float
    sigma2: float
    lam: float  # the market's intensity, also on defaulted rows


@dataclass
class MarketParams:
    """Market coefficients, each piecewise-constant in time on [0, T].

    Attributes:
        r: riskless rate.
        mu1, sigma1: drift and volatility of the default-free asset.
        mu2, sigma2: drift and volatility of the defaultable asset.
        lam: default intensity (nonnegative; zero recovers a no-default model).
        s1_0, s2_0: initial prices of the two risky assets.
        T: horizon.
    """

    r: PiecewiseConstant
    mu1: PiecewiseConstant
    mu2: PiecewiseConstant
    sigma1: PiecewiseConstant
    sigma2: PiecewiseConstant
    lam: PiecewiseConstant
    s1_0: float
    s2_0: float
    T: float

    def __post_init__(self):
        for name in ("r", "mu1", "mu2", "sigma1", "sigma2", "lam", "s1_0", "s2_0", "T"):
            convert = _number if name in ("s1_0", "s2_0", "T") else as_piecewise
            try:
                setattr(self, name, convert(getattr(self, name)))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{name}: {exc}") from None
        if not self.T > 0.0:
            raise ValueError("T must be positive")
        for name in ("r", "mu1", "mu2", "sigma1", "sigma2", "lam", "s1_0", "s2_0", "T"):
            value = getattr(self, name)
            if not all(map(math.isfinite, getattr(value, "values", [value]))):
                raise ValueError(f"{name} must be bounded (finite values)")
        if any(v <= 0.0 for v in self.sigma1.values):
            raise ValueError("sigma1 must be positive everywhere")
        if any(v <= 0.0 for v in self.sigma2.values):
            raise ValueError("sigma2 must be positive everywhere")
        if any(v < 0.0 for v in self.lam.values):
            raise ValueError("lam must be nonnegative")

    @classmethod
    def from_dict(cls, data: Mapping) -> "MarketParams":
        """Build from a mapping; the intensity key may be 'lam' or 'lambda', and an
        error names the one given."""
        if not isinstance(data, Mapping):
            raise ValueError("must be an object")
        if {"lam", "lambda"} <= data.keys():
            raise ValueError("'lam' and 'lambda' both given; they name one field")
        d = {"lam" if k == "lambda" else k: v for k, v in data.items()}
        required = ["r", "mu1", "mu2", "sigma1", "sigma2", "lam", "s1_0", "s2_0", "T"]
        missing = [k for k in required if k not in d]
        if missing:
            raise ValueError(f"missing field(s) {missing}")
        extra = [k for k in d if k not in required]
        if extra:
            raise ValueError(f"unknown field(s) {extra}")
        try:
            return cls(**{k: d[k] for k in required})
        except ValueError as exc:  # the messages about lam start with its name
            if "lambda" in data and str(exc).startswith("lam"):
                raise ValueError("lambda" + str(exc)[3:]) from None
            raise

    def at(self, t: float) -> Coefs:
        """The coefficients in force at time t."""
        return Coefs(*(getattr(self, name).at(t) for name in Coefs._fields))


class Branch(NamedTuple):
    child: NodeId
    prob: float
    dw: float
    dm: float
    kind: str  # "up" | "down" | "default"


class NodeState(NamedTuple):
    """Per-node market data handed to drivers. ``lam`` is the effective
    intensity (0 after default), ``coef`` the market's coefficients of the
    node's step, so ``coef.lam`` stays the market's intensity."""

    t: float
    s0: float
    s1: float
    s2: float
    lam: float
    defaulted: bool
    coef: Coefs


@dataclass(eq=False)
class Tree:
    """Recombining lattice in row order: row r = 2 * step + defaulted holds one
    step's alive or defaulted nodes, up counts 0, 1, ..., at positions
    ``starts[r]`` to ``starts[r + 1]`` of every per-node array (the prices
    ``s1``, ``s2`` and what is built on the tree); ``step_rows`` gives one
    step's two rows as views. Step i has the coefficients ``coef[i]``, and
    ``row_branches[i]`` the branches out of each row's first node; node
    (i, j, d) has the same ones with children j up counts higher. ``levels``,
    ``nodes`` (node -> ``NodeState``) and ``branches`` are views built on first
    read. Immutable after construction; safe to share."""

    params: MarketParams
    n_steps: int
    dt: float
    sq: float  # sqrt(dt)
    s0: list  # riskless price per step
    coef: list  # Coefs of each step
    starts: np.ndarray  # 2 * (n_steps + 1) + 1 row starts, the node count last
    s1: np.ndarray
    s2: np.ndarray
    row_branches: list

    @property
    def root(self) -> NodeId:
        return (0, 0, 0)

    def time(self, step: int) -> float:
        return step * self.dt

    def is_terminal(self, node: NodeId) -> bool:
        return node[0] == self.n_steps

    def terminal_nodes(self) -> list:
        return self.levels[self.n_steps]

    def step_rows(self, values: np.ndarray, step: int) -> tuple:
        """The (alive, defaulted) rows of ``step``: views of the row-order array ``values``."""
        a, b, c = self.starts[2 * step:2 * step + 3].tolist()
        return values[a:b], values[b:c]

    def row_state(self, step: int, defaulted: int, s1, s2) -> NodeState:
        """State of one step's alive or defaulted row at prices s1, s2."""
        coef = self.coef[step]
        return NodeState(self.time(step), self.s0[step], s1, s2,
                         0.0 if defaulted else coef.lam, bool(defaulted), coef)

    @cached_property
    def levels(self) -> list:
        widths = np.diff(self.starts).tolist()
        return [[(i, j, d) for d in (0, 1) for j in range(widths[2 * i + d])]
                for i in range(self.n_steps + 1)]

    @cached_property
    def nodes(self) -> dict:
        s1, s2 = self.node_dict(self.s1), self.node_dict(self.s2)
        return {node: self.row_state(node[0], node[2], s1[node], s2[node]) for node in s1}

    @cached_property
    def branches(self) -> dict:
        return {(i, j, d): tuple(Branch((i + 1, j + b.child[1], b.child[2]), *b[1:])
                                 for b in self.row_branches[i][d])
                for i in range(self.n_steps) for _, j, d in self.levels[i]}

    def node_dict(self, values: np.ndarray, steps=None) -> dict:
        """Node -> value dict of the row-order array ``values`` at ``steps`` (default: all)."""
        steps = range(self.n_steps + 1) if steps is None else steps
        at = self.starts[::2].tolist()
        return dict(zip([node for i in steps for node in self.levels[i]],
                        [x for i in steps for x in values[at[i]:at[i + 1]].tolist()]))


def node_key(node: NodeId) -> str:
    return f"{node[0]},{node[1]},{node[2]}"


def locate(starts: np.ndarray, at) -> tuple:
    """Row (2 * step + defaulted) and up count of the nodes at row-order positions ``at``
    in rows that start at ``starts`` (``Tree.starts``)."""
    row = np.searchsorted(starts, at, side="right") - 1
    return row, at - starts[row]


@np.errstate(over="ignore", invalid="ignore")  # overflowing prices are rejected below
def build_tree(params: MarketParams, n_steps: int) -> Tree:
    """Build the lattice over [0, T] with ``n_steps`` (at least 1) time steps.

    Requires max_t lam(t) * dt < 1 so that the default branch carries a
    genuine probability, positive initial prices, positive down factors so
    that prices stay positive, and prices that stay finite. A zero intensity
    everywhere yields the plain recombining binomial tree (two branches per
    node, dM identically 0).
    """
    if not (is_finite_number(n_steps) and int(n_steps) == n_steps >= 1):
        raise ValueError("n_steps must be a positive integer")
    n_steps = int(n_steps)
    dt = params.T / n_steps
    sq = math.sqrt(dt)

    for name in ("s1_0", "s2_0"):
        if not getattr(params, name) > 0.0:
            raise ValueError(f"{name} must be positive, got {getattr(params, name)!r}")
    coef = [params.at(i * dt) for i in range(n_steps + 1)]
    for i in range(n_steps):
        if coef[i].lam * dt >= 1.0:
            raise ValueError(
                f"lambda*dt = {coef[i].lam * dt:.6g} >= 1 at step {i}; "
                f"n_steps = {n_steps} is too coarse for this intensity")

    # Step i has i + 1 alive nodes, and i defaulted ones once a step before it could default.
    onset = next((i for i, c in enumerate(coef[:-1]) if c.lam * dt > 0.0), n_steps)
    starts = np.cumsum([0] + [w for i in range(n_steps + 1) for w in (i + 1, i * (i > onset))])
    start = starts.tolist()
    s1, s2 = np.empty(start[-1]), np.zeros(start[-1])  # the defaulted rows' s2 stay 0
    s1[0], s2[0] = params.s1_0, params.s2_0
    s0, row_branches = [1.0], []

    for i, c in enumerate(coef[:-1]):
        lam_dt = c.lam * dt
        one_minus = 1.0 - lam_dt

        up1 = 1.0 + c.mu1 * dt + c.sigma1 * sq
        dn1 = 1.0 + c.mu1 * dt - c.sigma1 * sq
        up2 = 1.0 + (c.mu2 + c.lam) * dt + c.sigma2 * sq
        dn2 = 1.0 + (c.mu2 + c.lam) * dt - c.sigma2 * sq
        flat1 = 1.0 + c.mu1 * dt  # default transition carries no dW
        for name, down in (("sigma1", dn1), ("sigma2", dn2)):
            if not down > 0.0:
                raise ValueError(
                    f"{name}: the down factor is {down:.6g} <= 0 at step {i}, so prices "
                    f"would turn negative; n_steps = {n_steps} is too coarse for it")

        if lam_dt > 0.0:
            p = one_minus / 2.0
            alive = (Branch((i + 1, 1, 0), p, sq, -lam_dt, "up"),
                     Branch((i + 1, 0, 0), p, -sq, -lam_dt, "down"),
                     Branch((i + 1, 0, 1), lam_dt, 0.0, one_minus, "default"))
        else:
            alive = (Branch((i + 1, 1, 0), 0.5, sq, 0.0, "up"),
                     Branch((i + 1, 0, 0), 0.5, -sq, 0.0, "down"))
        row_branches.append((alive, (Branch((i + 1, 1, 1), 0.5, sq, 0.0, "up"),
                                     Branch((i + 1, 0, 1), 0.5, -sq, 0.0, "down"))))

        # Next-level prices along the canonical edges, written in place.
        a, d, a_next, d_next, end = start[2 * i:2 * i + 5]
        for s, dn, up in ((s1, dn1, up1), (s2, dn2, up2)):
            np.multiply(s[a], dn, out=s[a_next:a_next + 1])
            np.multiply(s[a:d], up, out=s[a_next + 1:d_next])
        if lam_dt > 0.0:
            np.multiply(s1[a:d], flat1, out=s1[d_next:end])
        elif d_next < end:
            np.multiply(s1[d], dn1, out=s1[d_next:d_next + 1])
            np.multiply(s1[d:a_next], up1, out=s1[d_next + 1:end])
        s0.append(s0[i] * (1.0 + c.r * dt))

    for name, fields, values, ends in (("s0", "r", np.array(s0), np.arange(1, n_steps + 2)),
                                       ("s1", "s1_0, mu1 and sigma1", s1, starts[2::2]),
                                       ("s2", "s2_0, mu2 and sigma2", s2, starts[2::2])):
        for at in np.flatnonzero(~np.isfinite(values))[:1]:  # ends: where each step ends
            raise ValueError(f"{name}: the price built from {fields} overflows at step "
                             f"{np.searchsorted(ends, at, side='right')}")
    return Tree(params=params, n_steps=n_steps, dt=dt, sq=sq, s0=s0, coef=coef,
                starts=starts, s1=s1, s2=s2, row_branches=row_branches)
