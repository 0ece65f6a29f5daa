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
from typing import NamedTuple

NodeId = tuple  # (step, up_count, defaulted) with defaulted in {0, 1}


class PiecewiseConstant:
    """Right-continuous piecewise-constant function of time on [0, T]."""

    __slots__ = ("times", "values")

    def __init__(self, values, times=None):
        if isinstance(values, (int, float)):
            values = [float(values)]
        else:
            values = [float(v) for v in values]
        if not values:
            raise ValueError("piecewise-constant function needs at least one value")
        if times is None:
            if len(values) != 1:
                raise ValueError("times required when more than one value is given")
            times = [0.0]
        times = [float(t) for t in times]
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
        if len(self.values) == 1:
            return self.values[0]
        idx = bisect.bisect_right(self.times, t) - 1
        if idx < 0:
            idx = 0
        return self.values[idx]

    __call__ = at

    def max_abs(self) -> float:
        return max(abs(v) for v in self.values)

    def __repr__(self):
        if len(self.values) == 1:
            return f"PiecewiseConstant({self.values[0]!r})"
        return f"PiecewiseConstant({list(self.values)!r}, times={list(self.times)!r})"


def as_piecewise(value) -> PiecewiseConstant:
    """Coerce a scalar, a (values, times) dict, or a PiecewiseConstant."""
    if isinstance(value, PiecewiseConstant):
        return value
    if isinstance(value, dict):
        return PiecewiseConstant(value.get("values", ()), value.get("times"))
    return PiecewiseConstant(value)


def merged_breakpoints(*functions: PiecewiseConstant) -> list:
    """Sorted union of the breakpoints of several piecewise functions."""
    points = {0.0}
    for fn in functions:
        points.update(fn.times)
    return sorted(points)


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
            convert = float if name in ("s1_0", "s2_0", "T") else as_piecewise
            try:
                setattr(self, name, convert(getattr(self, name)))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name}: {exc}") from None
        if not self.T > 0.0:
            raise ValueError("T must be positive")
        for name in ("r", "mu1", "mu2", "sigma1", "sigma2", "lam"):
            for v in getattr(self, name).values:
                if not math.isfinite(v):
                    raise ValueError(f"{name} must be bounded (finite values)")
        if any(v <= 0.0 for v in self.sigma1.values):
            raise ValueError("sigma1 must be positive everywhere")
        if any(v <= 0.0 for v in self.sigma2.values):
            raise ValueError("sigma2 must be positive everywhere")
        if any(v < 0.0 for v in self.lam.values):
            raise ValueError("lam must be nonnegative")

    @classmethod
    def from_dict(cls, data: dict) -> "MarketParams":
        """Build from a plain dict; the intensity key may be 'lam' or 'lambda'."""
        d = dict(data)
        if "lambda" in d and "lam" not in d:
            d["lam"] = d.pop("lambda")
        required = ["r", "mu1", "mu2", "sigma1", "sigma2", "lam", "s1_0", "s2_0", "T"]
        missing = [k for k in required if k not in d]
        if missing:
            raise ValueError(f"market: missing field(s) {missing}")
        extra = [k for k in d if k not in required]
        if extra:
            raise ValueError(f"market: unknown field(s) {extra}")
        return cls(**{k: d[k] for k in required})


class Branch(NamedTuple):
    child: NodeId
    prob: float
    dw: float
    dm: float
    kind: str  # "up" | "down" | "default"


class NodeData(NamedTuple):
    s0: float
    s1: float
    s2: float
    lam: float  # effective intensity at the node; 0 after default
    defaulted: bool


class NodeState(NamedTuple):
    """Per-node market data handed to drivers."""

    t: float
    s0: float
    s1: float
    s2: float
    lam: float
    defaulted: bool


@dataclass
class Tree:
    """Recombining lattice. Immutable after construction; safe to share."""

    params: MarketParams
    n_steps: int
    dt: float
    sq: float  # sqrt(dt)
    nodes: dict
    branches: dict
    levels: list

    @property
    def root(self) -> NodeId:
        return (0, 0, 0)

    def time(self, step: int) -> float:
        return step * self.dt

    def is_terminal(self, node: NodeId) -> bool:
        return node[0] == self.n_steps

    def children(self, node: NodeId) -> tuple:
        return self.branches[node]

    def terminal_nodes(self) -> list:
        return self.levels[self.n_steps]

    def state(self, node: NodeId) -> NodeState:
        data = self.nodes[node]
        return NodeState(self.time(node[0]), data.s0, data.s1, data.s2,
                         data.lam, data.defaulted)

    def node_prices(self, node: NodeId) -> tuple:
        """Prices (S0, S1, S2) at a node; raises on an unknown node id."""
        try:
            data = self.nodes[node]
        except (KeyError, TypeError):
            raise ValueError(f"unknown node id {node!r}")
        return (data.s0, data.s1, data.s2)

    def to_dict(self) -> dict:
        """JSON-ready document: step count, step size, node and branch tables."""
        table = {}
        for node, data in self.nodes.items():
            entry = {
                "s0": data.s0,
                "s1": data.s1,
                "s2": data.s2,
                "lam": data.lam,
                "defaulted": bool(data.defaulted),
            }
            if node in self.branches:
                entry["branches"] = [
                    {"child": node_key(b.child), "prob": b.prob, "dw": b.dw,
                     "dm": b.dm, "kind": b.kind}
                    for b in self.branches[node]
                ]
            table[node_key(node)] = entry
        return {"n_steps": self.n_steps, "dt": self.dt, "nodes": table}


def node_key(node: NodeId) -> str:
    return f"{node[0]},{node[1]},{node[2]}"


def build_tree(params: MarketParams, n_steps: int) -> Tree:
    """Build the lattice over [0, T] with ``n_steps`` time steps.

    Requires max_t lam(t) * dt < 1 so that the default branch carries a
    genuine probability, positive initial prices, and positive down factors
    so that prices stay positive. A zero intensity everywhere yields the
    plain recombining binomial tree (two branches per node, dM identically 0).
    """
    if int(n_steps) != n_steps or n_steps < 0:
        raise ValueError("n_steps must be a nonnegative integer")
    n_steps = int(n_steps)
    dt = params.T / n_steps if n_steps > 0 else 0.0
    sq = math.sqrt(dt)

    for name in ("s1_0", "s2_0"):
        if not getattr(params, name) > 0.0:
            raise ValueError(f"{name} must be positive, got {getattr(params, name)!r}")
    for i in range(n_steps):
        lam_i = params.lam.at(i * dt)
        if lam_i * dt >= 1.0:
            raise ValueError(
                f"lambda*dt = {lam_i * dt:.6g} >= 1 at step {i}; "
                f"n_steps = {n_steps} is too coarse for this intensity")

    nodes = {}
    branches = {}
    levels = []

    s0 = 1.0
    alive_s1 = [params.s1_0]
    alive_s2 = [params.s2_0]
    def_s1: list = []
    def_count = 0

    lam0 = params.lam.at(0.0)
    nodes[(0, 0, 0)] = NodeData(s0, alive_s1[0], alive_s2[0], lam0, False)
    levels.append([(0, 0, 0)])

    for i in range(n_steps):
        t = i * dt
        r_i = params.r.at(t)
        mu1_i = params.mu1.at(t)
        mu2_i = params.mu2.at(t)
        sig1_i = params.sigma1.at(t)
        sig2_i = params.sigma2.at(t)
        lam_i = params.lam.at(t)
        lam_dt = lam_i * dt
        one_minus = 1.0 - lam_dt

        up1 = 1.0 + mu1_i * dt + sig1_i * sq
        dn1 = 1.0 + mu1_i * dt - sig1_i * sq
        up2 = 1.0 + (mu2_i + lam_i) * dt + sig2_i * sq
        dn2 = 1.0 + (mu2_i + lam_i) * dt - sig2_i * sq
        flat1 = 1.0 + mu1_i * dt  # default transition carries no dW
        for name, down in (("sigma1", dn1), ("sigma2", dn2)):
            if not down > 0.0:
                raise ValueError(
                    f"{name}: the down factor is {down:.6g} <= 0 at step {i}, so prices "
                    f"would turn negative; n_steps = {n_steps} is too coarse for it")

        # Branches out of the alive row.
        for j in range(i + 1):
            nid = (i, j, 0)
            if lam_dt > 0.0:
                p = one_minus / 2.0
                out = (Branch((i + 1, j + 1, 0), p, sq, -lam_dt, "up"),
                       Branch((i + 1, j, 0), p, -sq, -lam_dt, "down"),
                       Branch((i + 1, j, 1), lam_dt, 0.0, one_minus, "default"))
            else:
                out = (Branch((i + 1, j + 1, 0), 0.5, sq, 0.0, "up"),
                       Branch((i + 1, j, 0), 0.5, -sq, 0.0, "down"))
            branches[nid] = out

        # Branches out of the defaulted row.
        for j in range(def_count):
            nid = (i, j, 1)
            branches[nid] = (Branch((i + 1, j + 1, 1), 0.5, sq, 0.0, "up"),
                             Branch((i + 1, j, 1), 0.5, -sq, 0.0, "down"))

        # Next-level prices along the canonical edges.
        next_s1 = [alive_s1[0] * dn1] + [alive_s1[j] * up1 for j in range(i + 1)]
        next_s2 = [alive_s2[0] * dn2] + [alive_s2[j] * up2 for j in range(i + 1)]
        if lam_dt > 0.0:
            next_def1 = [alive_s1[j] * flat1 for j in range(i + 1)]
        elif def_count > 0:
            next_def1 = [def_s1[0] * dn1] + [def_s1[j] * up1 for j in range(def_count)]
        else:
            next_def1 = []

        s0 = s0 * (1.0 + r_i * dt)
        t_next = (i + 1) * dt
        lam_next = params.lam.at(t_next)

        level = []
        for j, s1v in enumerate(next_s1):
            nid = (i + 1, j, 0)
            nodes[nid] = NodeData(s0, s1v, next_s2[j], lam_next, False)
            level.append(nid)
        for j, s1v in enumerate(next_def1):
            nid = (i + 1, j, 1)
            nodes[nid] = NodeData(s0, s1v, 0.0, 0.0, True)
            level.append(nid)
        levels.append(level)

        alive_s1, alive_s2, def_s1 = next_s1, next_s2, next_def1
        def_count = len(next_def1)

    return Tree(params=params, n_steps=n_steps, dt=dt, sq=sq, nodes=nodes,
                branches=branches, levels=levels)
