"""Forward wealth simulation and superhedge verification.

Wealth is simulated branch by branch with the explicit update

    V_child = V - g(t, V, z, k) * dt + z * dW + k * dM,

where (z, k) are read off the per-node positions. Through a recombining
node the arriving wealth depends on the incoming path whenever the driver
is nonlinear, so states are kept per (node, path): ``path_sample`` gives the
full path expansion up to ``MAX_EXACT_STEPS`` steps and a fixed-seed sample
of paths beyond that, one per job. Sampled path p takes its draws from the
stream of ``numpy.random.default_rng([seed, p])``, so results do not depend
on scheduling or batching; ``_draws`` computes every path's stream in one
vectorised pass, bit for bit. Branches are picked and followed through flat
per-step tables. Every level is stepped at once, with one driver call per
(alive, defaulted) group, and nothing is gathered along a sampled path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, pairwise, repeat
from typing import NamedTuple

import numpy as np

from .bsde import Solution, _picard, coefficients
from .drivers import Driver, split_of
from .market import Tree, locate, node_key
from .pricing import Strategy, phi_inverse
# solve_rbsde_lower stays a name of this module: the benchmark's tracer wraps it here.
from .rbsde import Obstacle, StoppingRule, solve_rbsde_lower  # noqa: F401

SUPERHEDGE_TOL = 1e-10
MARTINGALE_TOL = 1e-10  # largest wealth martingale residual that passes
STRICT_GAIN_MIN = 1e-14
MAX_EXACT_STEPS = 12
DEFAULT_SAMPLE_PATHS = 10_000

_KIND_LETTER = {"up": "u", "down": "d", "default": "j"}


class Paths(NamedTuple):
    """Per-level arrays of the states of a path expansion or sample: the
    node's position ``index`` in the tree's row order (``Tree.starts``), which
    also says whether it is defaulted, the parent state one level up and the
    branch taken from it (-1 at the root level); and per step the dW and dM
    of each slot 3 * defaulted + branch (0 past a row's last branch)."""

    mode: str  # "exact" | "sampled"
    index: list  # int32
    parent: list  # int32
    branch: list  # int8
    dw: np.ndarray  # (n_steps, 6)
    dm: np.ndarray

    def at(self, values: np.ndarray, i: int) -> np.ndarray:
        """The row-order array ``values`` at each state of level i."""
        return values.take(self.index[i])

    def down(self, i: int, values: np.ndarray) -> np.ndarray:
        """``values`` of level i's states at each state of level i + 1, their parents';
        a sampled path keeps its slot, so its values come back as they are."""
        return values if self.mode == "sampled" else values.take(self.parent[i + 1])


def _lists(arrays) -> cached_property:
    """Per-level lists of the arrays ``arrays(field)``, built on first read."""
    return cached_property(lambda self: [row.tolist() for row in arrays(self)])


@dataclass(eq=False)
class WealthField:
    """Per-level wealth (float64) of the states in ``paths``, which the
    seller's and the buyer's field share. In sampled mode each path occupies
    one slot per level. ``node_ids``, ``v``, ``parent`` and ``branch`` are
    per-level lists (node tuples, floats, ints) built on first read.
    """

    tree: Tree
    x0: float
    paths: Paths
    wealth: list

    mode = property(lambda self: self.paths.mode)  # "exact" | "sampled"
    v = _lists(lambda self: self.wealth)
    parent = _lists(lambda self: self.paths.parent)
    branch = _lists(lambda self: self.paths.branch)

    @cached_property
    def node_ids(self) -> list:
        ids = []
        for i, index in enumerate(self.paths.index):
            row, up = locate(self.tree.starts, index)
            ids.append(list(zip([i] * len(index), up.tolist(), (row & 1).tolist())))
        return ids

    def n_states(self, level: int) -> int:
        return len(self.paths.index[level])

    def node(self, level: int, idx: int) -> tuple:
        row, up = map(int, locate(self.tree.starts, self.paths.index[level][idx]))
        return (level, up, row & 1)

    def path_id(self, level: int, idx: int) -> str:
        """Branch-letter path into a state, e.g. 'udj'; sampled paths use their row."""
        if self.mode == "sampled":
            return str(idx)
        paths, letters = self.paths, []
        i, j = level, idx
        while i > 0:
            p = paths.parent[i][j]
            kind = self.tree.row_branches[i - 1][self.node(i - 1, p)[2]][paths.branch[i][j]].kind
            letters.append(_KIND_LETTER[kind])
            i, j = i - 1, p
        return "".join(reversed(letters)) or "(root)"


@dataclass
class HedgeReport:
    side: str
    passed: bool
    min_slack: float
    n_states: int
    violations: list = field(default_factory=list)
    max_abs_at_stop: float = None  # buyer side only


@dataclass
class GainReport:
    passed: bool
    n_states: int
    min_gain: float = None


_M32 = 0xFFFFFFFF
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341  # PCG64's multiplier


def _hasher(init: int, mult: int):
    """SeedSequence's hash of uint32 arrays: call k xors in init * mult**k and
    multiplies by init * mult**(k + 1), modulo 2**32."""
    consts = pairwise(accumulate(repeat(mult), lambda c, m: c * m & _M32, initial=init))

    def hash_(v):
        a, b = next(consts)
        v = (v ^ a) * b
        return v ^ (v >> 16)
    return hash_


def _mix(x, y):
    r = x * 0xca01f9dd - y * 0x4973f715
    return r ^ (r >> 16)


def _step(hi, lo, inc_hi, inc_lo):
    """PCG64's 128-bit LCG step, state * multiplier + inc, on (hi, lo) uint64 halves;
    the high 64 bits of lo times the multiplier's low half come from 32-bit limbs."""
    a0, a1, b0, b1 = lo & _M32, lo >> 32, _PCG_MULT_LO & _M32, _PCG_MULT_LO >> 32
    t = a1 * b0 + ((a0 * b0) >> 32)
    u = a0 * b1 + (t & _M32)
    hi = a1 * b1 + (t >> 32) + (u >> 32) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO + inc_hi
    lo = lo * _PCG_MULT_LO + inc_lo
    return hi + (lo < inc_lo), lo


def _draws(seed: int, n_paths: int, n_steps: int) -> np.ndarray:
    """(n_steps, n_paths) draws whose column p equals
    ``np.random.default_rng([seed, p]).random(n_steps)`` bit for bit: numpy's
    SeedSequence seeds PCG64 (XSL-RR output), for every path at once. Each path
    index must fit in one uint32 word."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.zeros((max(len(words) + 1, 4), n_paths), np.uint32)  # zero-padded to the pool
    entropy[:len(words)] = np.array(words, np.uint32)[:, None]
    entropy[len(words)] = np.arange(n_paths, dtype=np.uint32)
    hash_ = _hasher(0x43b0d7e5, 0x931e8875)
    pool = [hash_(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hash_(w))
    hash_ = _hasher(0x8b51f9dd, 0x58f38ded)  # generate_state(4, uint64), little-endian pairs
    w = [hash_(pool[k % 4]).astype(np.uint64) for k in range(8)]
    s_hi, s_lo, q_hi, q_lo = (w[k] | w[k + 1] << 32 for k in (0, 2, 4, 6))
    inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
    lo = inc_lo + s_lo  # state 0 stepped is inc; add the initial state, step
    hi, lo = _step(inc_hi + s_hi + (lo < s_lo), lo, inc_hi, inc_lo)
    draws = np.empty((n_steps, n_paths))
    for i in range(n_steps):
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        v, rot = hi ^ lo, hi >> 58
        draws[i] = (v >> rot | v << (-rot & 63)) >> 11
    draws *= 2.0**-53
    return draws


def path_sample(tree: Tree, n_paths: int = DEFAULT_SAMPLE_PATHS, seed: int = 0,
                mode: str = None) -> Paths:
    """The states to simulate wealth on: the full path expansion from one root state
    for trees up to ``MAX_EXACT_STEPS`` steps, beyond that ``n_paths`` paths whose
    path p draws from the stream of ``default_rng([seed, p])`` (see ``_draws``);
    pass ``mode`` to force either representation."""
    if mode is None:
        mode = "exact" if tree.n_steps <= MAX_EXACT_STEPS else "sampled"
    if mode == "exact":
        n_paths = 1  # one root state; the expansion draws nothing
    elif mode != "sampled":
        raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    elif not (_is_int(n_paths) and 1 <= n_paths < 2**32):  # a path index is one uint32 word
        raise ValueError(f"n_paths must be at least 1 and below 2**32, got {n_paths!r}")
    elif not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    else:  # one column of draws per path; one parent index shared by the levels
        draws, rows = _draws(int(seed), n_paths, tree.n_steps), np.arange(n_paths, dtype=np.int32)
    # Per step and slot 3 * defaulted + branch: the running sum of the probabilities (-inf
    # past the row's last branch), the child's row-order position less its parent's, the
    # child's defaulted flag, dW, dM and the row's last branch.
    slots, starts = [], tree.starts.tolist()
    for i, branches in enumerate(tree.row_branches):
        for d, row in enumerate(branches):
            slots += [(acc, starts[2 * i + 2 + b.child[2]] + b.child[1] - starts[2 * i + d],
                       b.child[2], b.dw, b.dm, len(row) - 1)
                      for b, acc in zip(row, accumulate(b.prob for b in row))]
            slots += [(-math.inf, 0, 0, 0.0, 0.0, len(row) - 1)] * (3 - len(row))
    acc, off, dead, dw, dm, last = np.array(slots).reshape(-1, 6, 6).transpose(2, 0, 1).copy()
    off, dead, last = off.astype(np.int32), dead.astype(np.int8), last.astype(np.intp)
    index = [np.zeros(n_paths, np.int32)]
    parent, branch = [np.full(n_paths, -1, np.int32)], [np.full(n_paths, -1, np.int8)]
    base = np.zeros(n_paths, np.intp)  # 3 * the defaulted flag of each state of level i
    for i in range(tree.n_steps):
        if mode == "exact":  # each state's branches in template order
            count = last[i][base] + 1
            par = np.repeat(np.arange(len(count), dtype=np.int32), count)
            br = np.arange(len(par)) - np.repeat(np.cumsum(count) - count, count)
            at, base = index[i].take(par), base.take(par)
        else:  # the first branch whose running sum of probabilities exceeds the draw
            par, br, at = rows, last[i][base], index[i]
            for b in (2, 1, 0):
                br = np.where(draws[i] < acc[i][base + b], b, br)
        slot = base + br
        index.append(at + off[i][slot])
        parent.append(par)
        branch.append(br.astype(np.int8))
        base = dead[i][slot] * np.intp(3)
    return Paths(mode, index, parent, branch, dw, dm)


def _groups(tree: Tree, paths: Paths, i: int):
    """(defaulted, state indices, NodeState at their prices) per group of level i; a
    level of one group comes whole, its indices ``slice(None)``, so nothing is gathered."""
    dead = paths.index[i] >= tree.starts[2 * i + 1]  # in the step's defaulted row
    n_dead = np.count_nonzero(dead)
    whole = n_dead in (0, len(dead))
    for g in ((int(n_dead > 0),) if whole else (0, 1)):
        idx = slice(None) if whole else np.flatnonzero(dead == g)
        at = paths.index[i][idx]
        yield g, idx, tree.row_state(i, g, tree.s1.take(at), tree.s2.take(at))


def _is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer other than a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@np.errstate(over="ignore", invalid="ignore")  # float arithmetic, as in one_step
def simulate_wealth(tree: Tree, x0: float, strategy: Strategy, driver: Driver,
                    n_paths: int = DEFAULT_SAMPLE_PATHS, seed: int = 0,
                    mode: str = None, paths: Paths = None) -> WealthField:
    """Simulate wealth from x0 under the given positions and driver on ``paths``, a
    ``path_sample`` of this tree, or else on ``path_sample(tree, n_paths, seed, mode)``."""
    if paths is None:
        paths = path_sample(tree, n_paths, seed, mode)
    phi1, phi2 = strategy.phi1_rows, strategy.phi2_rows
    wealth = [np.full(len(paths.index[0]), float(x0))]
    for i in range(tree.n_steps):
        c = tree.coef[i]
        z, k = phi_inverse(paths.at(phi1, i), paths.at(phi2, i), c.sigma1, c.sigma2)
        v, drift, base = wealth[i], np.empty_like(wealth[i]), np.empty(len(wealth[i]), np.intp)
        for g, idx, state in _groups(tree, paths, i):
            drift[idx] = (y := v[idx]) - driver.eval(state.t, y, z[idx], k[idx], state) * tree.dt
            base[idx] = 3 * g
        slot = paths.down(i, base) + paths.branch[i + 1]  # see path_sample
        drift, z, k = (paths.down(i, x) for x in (drift, z, k))
        wealth.append(drift + z * paths.dw[i][slot] + k * paths.dm[i][slot])
    return WealthField(tree=tree, x0=float(x0), paths=paths, wealth=wealth)


def _slack_report(field: WealthField, obstacle: Obstacle, side: str, states) -> HedgeReport:
    """Slack V - payoff (seller) or V + payoff (buyer) at ``states``, per level
    the level and its state indices (None: all): the smallest (the first in level
    order), the largest |slack|, the count and the violations below -SUPERHEDGE_TOL."""
    min_slack, max_abs, n, violations = math.inf, 0.0, 0, []
    for level, idx in states:
        v, xi = field.wealth[level], field.paths.at(obstacle.rows, level)
        v, xi = (v, xi) if idx is None else (v[idx], xi[idx])
        slack = v - xi if side == "seller" else v + xi
        bad = ~np.isfinite(slack)
        if bad.any():
            s = int(bad.argmax() if idx is None else idx[bad.argmax()])
            raise ValueError(
                f"{side} superhedge slack is not finite ({float(slack[bad.argmax()])!r}) at "
                f"step {level}, node {field.node(level, s)}, path {field.path_id(level, s)}")
        if slack.size and slack[m := slack.argmin()] < min_slack:
            min_slack = float(slack[m])
        max_abs = max(max_abs, float(np.abs(slack).max(initial=0.0)))
        n += slack.size
        for m in np.flatnonzero(slack < -SUPERHEDGE_TOL).tolist():
            s = int(m if idx is None else idx[m])
            violations.append((field.path_id(level, s), level, field.node(level, s),
                               float(v[m]), float(xi[m]), float(slack[m])))
    return HedgeReport(side=side, passed=min_slack >= -SUPERHEDGE_TOL, min_slack=min_slack,
                       n_states=n, violations=violations,
                       max_abs_at_stop=max_abs if side == "buyer" else None)


def verify_superhedge_seller(field: WealthField, obstacle: Obstacle) -> HedgeReport:
    """Smallest slack V - payoff over every reached state; pass iff >= -SUPERHEDGE_TOL."""
    states = ((level, None) for level in range(len(field.wealth)))  # whole levels
    return _slack_report(field, obstacle, "seller", states)


def _first_stops(field: WealthField, rule: StoppingRule):
    """(level, state indices) of the states where each path first stops."""
    paths, last = field.paths, len(field.wealth) - 1
    active = np.ones(field.n_states(0), dtype=bool)
    for level in range(last + 1):
        stop = paths.at(rule.rows, level)
        if level == last and not stop[active].all():
            node = field.node(level, int(np.flatnonzero(active & ~stop)[0]))
            raise ValueError(f"rule does not stop by the terminal step at {node}")
        yield level, np.flatnonzero(active & stop)
        if level < last:
            active = paths.down(level, active & ~stop)


def verify_superhedge_buyer(field: WealthField, obstacle: Obstacle,
                            rule: StoppingRule) -> HedgeReport:
    """Slack V + payoff at the states where the exercise rule first stops.

    Passes when the smallest slack is above -SUPERHEDGE_TOL; the largest |V + payoff|
    at the stops is reported as well, since the buyer's wealth should match
    the debt exactly there.
    """
    return _slack_report(field, obstacle, "buyer", _first_stops(field, rule))


@np.errstate(over="ignore", invalid="ignore")
def wealth_martingale_residual(field: WealthField, driver: Driver) -> float:
    """|root backward value - x0| when the terminal wealth is solved backward.

    Runs on the exact path expansion: the backward step through every path
    state must reproduce the forward wealth, so the root recovers the
    initial capital at solver tolerance.
    """
    if field.mode != "exact":
        raise ValueError("martingale residual requires the exact path expansion")
    tree, paths = field.tree, field.paths
    vals = field.wealth[-1]
    for i in range(tree.n_steps - 1, -1, -1):
        first = np.flatnonzero(paths.branch[i + 1] == 0)  # each state's first child
        segments, at = [], []  # a segment of the sweep's Picard loop per group
        for g, idx, state in _groups(tree, paths, i):
            branches = tree.row_branches[i][g]
            e, z, k = coefficients(branches, [vals[first[idx] + b] for b in range(len(branches))],
                                   tree.sq)
            segments.append((split_of(driver)(state.t, z, np.broadcast_to(k, e.shape), state), e))
            at.append(idx)
        # A failure names t alone, as the scalar implicit_value does.
        vals = np.empty(len(first))
        vals[at[0] if len(at) == 1 else np.concatenate(at)] = _picard(
            segments, tree.dt, lambda j, r, t=state.t: f"t={t:.6g}")[0]
    return abs(float(vals[0]) - field.x0)


def strict_gain_after_nubar(field: WealthField, solution: Solution) -> GainReport:
    """Wealth strictly beats the reflected value once a charge has accrued.

    ``field`` is the seller's wealth, simulated (exact or sampled) from the
    root value of the lower-reflected ``solution`` under its positions. Over
    every path state whose cumulative incoming charge is positive, reports
    the smallest V - Y. Vacuous pass when the obstacle never binds before
    the terminal step; a gain that is not finite raises, naming its state.
    """
    if field.tree is not solution.tree:
        raise ValueError("the wealth field and the solution belong to different trees")
    paths, gains = field.paths, []
    a_in = np.zeros(field.n_states(0))  # charge accrued along each path before its state
    for level, v in enumerate(field.wealth):
        charged = np.flatnonzero(a_in > 0.0)
        gain = (v - paths.at(solution.y_rows, level))[charged]
        bad = ~np.isfinite(gain)
        if bad.any():
            s = int(charged[bad.argmax()])
            raise ValueError(
                f"strict gain is not finite ({float(gain[bad.argmax()])!r}) at step {level}, "
                f"node {field.node(level, s)}, path {field.path_id(level, s)}")
        gains.append(gain)
        if level < field.tree.n_steps:
            a_in = paths.down(level, a_in + paths.at(solution.da_rows, level))
    gains = np.concatenate(gains)
    if not gains.size:
        return GainReport(passed=True, n_states=0, min_gain=None)
    min_gain = float(gains[gains.argmin()])
    return GainReport(passed=min_gain >= STRICT_GAIN_MIN, n_states=gains.size, min_gain=min_gain)


def violation_rows(report: HedgeReport) -> list:
    """CSV-ready rows (path id, step, node, V, payoff, slack)."""
    return [(pid, level, node_key(node), v, xi, slack)
            for pid, level, node, v, xi, slack in report.violations]
