"""Autobidder behavior: uniform bidding, the log-space multiplier
dynamic, and exact grid best responses.

Every bidder submits uniform bids b_{i,j} = delta_i * v_{i,j}.  A value
maximizer (lambda_i = 0) wants maximal welfare subject to a
return-on-spend constraint (payments at most value delivered), so each
iteration it pulls log delta_i toward log(Wel_i / Rev_i), the point
where the constraint binds.  Utility maximizers keep the truthful
multiplier under VCG; under GSP and FPA they re-solve an exact uniform
best response on a breakpoint-augmented grid each iteration.

The best response evaluates the whole grid in one pass.  With the
opponents' bids fixed, their eligibility, scores and clearing order are
computed once; then, for a block of candidates at a time, the bidder's
rank, win and price in every auction follow from array comparisons
against those scores, using the clearing engine's pricing formulas.
That is O(grid * n * m) array work in one pass, and the welfare and
revenue it gives equal a full clear at each candidate bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .clearing import _check_shapes, _unit_price, clear, revenue_per_bidder, welfare_per_bidder
from .types import (
    AgentState,
    AuctionFormat,
    BidProfile,
    MechanismConfig,
    ProblemInstance,
    _is_int,
    _is_real,
)

__all__ = [
    "DynamicsConfig",
    "Trajectory",
    "best_response_uniform",
    "objective",
    "response_grid",
    "ros_satisfied",
    "run_dynamics",
    "step_multipliers",
    "uniform_bids",
]

# Candidates per block of the best-response pass; bounds its (block, n, m) work arrays.
_BLOCK = 128


@dataclass(frozen=True)
class DynamicsConfig:
    """Iteration budget, learning-rate schedule, and multiplier clamps."""

    pretrain_iters: int = 25
    treatment_iters: int = 25
    eta0: float = 0.3
    tau: float = 10.0
    convergence_tol: float = 1e-4
    min_multiplier: float = 1e-3
    max_multiplier: float = 1e3

    def __post_init__(self) -> None:
        if not all(map(_is_real, (self.eta0, self.tau, self.convergence_tol,
                                  self.min_multiplier, self.max_multiplier))):
            raise ValueError("eta0, tau, convergence_tol and the multiplier clamps must be finite numbers")
        if not 0.0 < self.eta0 < 1.0:
            raise ValueError("eta0 must lie in (0, 1)")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if self.convergence_tol <= 0.0:
            raise ValueError("convergence_tol must be positive")
        if not 0.0 < self.min_multiplier < self.max_multiplier:
            raise ValueError("need 0 < min_multiplier < max_multiplier")
        if not (_is_int(self.pretrain_iters) and _is_int(self.treatment_iters)):
            raise ValueError("iteration counts must be integers")
        if self.pretrain_iters < 0 or self.treatment_iters < 0:
            raise ValueError("iteration counts must be nonnegative")

    def learning_rate(self, t: int) -> float:
        # decaying schedule; stays in (0, eta0] for all t >= 0
        return self.eta0 / (1.0 + t / self.tau)


def objective(lam: float, wel: float, rev: float) -> float:
    """Bidder objective wel - lam * rev (lam = 0: value, lam = 1: utility)."""
    return wel - lam * rev


def ros_satisfied(wel: float, rev: float) -> bool:
    """Return-on-spend constraint: total payment within value delivered."""
    return wel >= rev


def uniform_bids(
    instance: ProblemInstance, multipliers: Union[np.ndarray, Sequence[float]]
) -> BidProfile:
    """Bid delta_i * v_{i,j} everywhere."""
    delta = np.asarray(multipliers, dtype=np.float64)
    if delta.shape != (instance.n,):
        raise ValueError("need one multiplier per bidder")
    return BidProfile(delta[:, None] * instance.values)


@dataclass
class Trajectory:
    """States visited by a dynamics run.

    Row t holds the multipliers entering iteration t and the per-bidder
    welfare/revenue realized by clearing at those multipliers.  The last
    row is the post-run state evaluated the same way, so a run of T
    update steps yields T + 1 rows.
    """

    multipliers: np.ndarray  # (T+1, n)
    wel: np.ndarray  # (T+1, n)
    rev: np.ndarray  # (T+1, n)
    lambdas: np.ndarray  # (n,)
    converged: bool

    @property
    def steps(self) -> int:
        return self.multipliers.shape[0] - 1

    @property
    def final_state(self) -> AgentState:
        return AgentState(self.lambdas, self.multipliers[-1])

    @property
    def final_wel(self) -> np.ndarray:
        return self.wel[-1]

    @property
    def final_rev(self) -> np.ndarray:
        return self.rev[-1]

    def total_wel(self) -> np.ndarray:
        return self.wel.sum(axis=1)

    def total_rev(self) -> np.ndarray:
        return self.rev.sum(axis=1)

    def avg_multiplier(self) -> np.ndarray:
        return self.multipliers.mean(axis=1)

    def write_bidder_csv(self, path: str) -> None:
        """Rows `iter,bidder,delta,wel_i,rev_i`, one per bidder per state."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "bidder", "delta", "wel_i", "rev_i"])
            for t in range(self.multipliers.shape[0]):
                for i in range(self.multipliers.shape[1]):
                    writer.writerow(
                        [
                            t,
                            i,
                            repr(float(self.multipliers[t, i])),
                            repr(float(self.wel[t, i])),
                            repr(float(self.rev[t, i])),
                        ]
                    )

    def write_aggregate_csv(self, path: str) -> None:
        """Rows `iter,wel,rev,avg_delta`, one per recorded state."""
        wel, rev, avg = self.total_wel(), self.total_rev(), self.avg_multiplier()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "wel", "rev", "avg_delta"])
            for t in range(self.multipliers.shape[0]):
                writer.writerow(
                    [t, repr(float(wel[t])), repr(float(rev[t])), repr(float(avg[t]))]
                )


def _advance(
    instance: ProblemInstance,
    config: MechanismConfig,
    dyn: DynamicsConfig,
    lambdas: np.ndarray,
    delta: np.ndarray,
    wel_i: np.ndarray,
    rev_i: np.ndarray,
    t: int,
) -> np.ndarray:
    """One simultaneous multiplier update given metrics at the current state."""
    if not (np.isfinite(wel_i).all() and np.isfinite(rev_i).all()):
        raise FloatingPointError("non-finite welfare or revenue from clearing")
    eta = dyn.learning_rate(t)
    new = delta.copy()
    for i in np.nonzero(lambdas == 0.0)[0]:
        w, r = wel_i[i], rev_i[i]
        if w > 0.0 and r > 0.0:
            nl = (1.0 - eta) * math.log(delta[i]) + eta * math.log(w / r)
        else:
            # no spend (or no wins): surrogate upward step to re-enter
            nl = math.log(delta[i]) + eta * math.log(dyn.max_multiplier)
        new[i] = min(max(math.exp(nl), dyn.min_multiplier), dyn.max_multiplier)
    if config.format is not AuctionFormat.VCG:
        # utility maximizers re-solve against everyone's current bids;
        # under VCG they hold the truthful multiplier instead
        others = uniform_bids(instance, delta).bids
        for i in np.nonzero(lambdas > 0.0)[0]:
            grid = response_grid(instance, config, int(i), others, dyn)
            new[i] = best_response_uniform(
                instance, config, int(i), others, float(lambdas[i]), grid
            )
    return new


def step_multipliers(
    instance: ProblemInstance,
    config: MechanismConfig,
    state: AgentState,
    dyn: DynamicsConfig,
    t: int,
) -> AgentState:
    """Clear at uniform bids for `state`, then apply one update."""
    instance.require_valid()
    config.require_valid()
    state.require_valid()
    out = clear(instance, config, uniform_bids(instance, state.multipliers))
    new = _advance(
        instance,
        config,
        dyn,
        state.lambdas,
        np.array(state.multipliers, dtype=np.float64),
        welfare_per_bidder(instance, out),
        revenue_per_bidder(out),
        t,
    )
    return AgentState(state.lambdas, new)


def run_dynamics(
    instance: ProblemInstance,
    config: MechanismConfig,
    state: AgentState,
    dyn: DynamicsConfig,
    iters: Optional[int] = None,
) -> Trajectory:
    """Iterate the dynamic, stopping early once the largest log-multiplier
    move falls below `dyn.convergence_tol`."""
    instance.require_valid()
    config.require_valid()
    state.require_valid()
    if iters is None:
        iters = dyn.treatment_iters
    lambdas = np.array(state.lambdas, dtype=np.float64)
    delta = np.array(state.multipliers, dtype=np.float64)
    rows_d, rows_w, rows_r = [], [], []
    converged = False

    def evaluate(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out = clear(instance, config, uniform_bids(instance, d))
        return welfare_per_bidder(instance, out), revenue_per_bidder(out)

    for t in range(iters):
        w, r = evaluate(delta)
        rows_d.append(delta.copy())
        rows_w.append(w)
        rows_r.append(r)
        nxt = _advance(instance, config, dyn, lambdas, delta, w, r, t)
        move = float(np.max(np.abs(np.log(nxt) - np.log(delta))))
        delta = nxt
        if move < dyn.convergence_tol:
            converged = True
            break
    w, r = evaluate(delta)
    rows_d.append(delta.copy())
    rows_w.append(w)
    rows_r.append(r)
    return Trajectory(
        multipliers=np.array(rows_d),
        wel=np.array(rows_w),
        rev=np.array(rows_r),
        lambdas=lambdas,
        converged=converged,
    )


def response_grid(
    instance: ProblemInstance,
    config: MechanismConfig,
    i: int,
    others_bids: np.ndarray,
    dyn: DynamicsConfig,
    points_per_decade: int = 12,
) -> np.ndarray:
    """Candidate multipliers for bidder i against fixed opponent bids.

    The allocation is piecewise constant in delta between the points
    where delta * v_{i,j} + z_{i,j} crosses an eligible opponent score or
    delta * v_{i,j} crosses the reserve, so a geometric ladder augmented
    with those breakpoints (plus a nudge just above each, and cell
    midpoints) evaluates every achievable allocation.  The breakpoints of
    all (auction, opponent) pairs come from one array pass, O(n * m).
    """
    lo, hi = dyn.min_multiplier, dyn.max_multiplier
    decades = math.log10(hi / lo)
    base = np.geomspace(lo, hi, int(round(decades * points_per_decade)) + 1)
    bids = np.asarray(others_bids, dtype=np.float64)
    v, z, r = instance.values[i], config.boosts[i], config.reserves[i]
    live = v > 0.0
    gated = live & (r > 0.0)
    o, j = np.nonzero((np.arange(instance.n) != i)[:, None] & live & (bids >= config.reserves))
    cross = (bids[o, j] + config.boosts[o, j] - z[j]) / v[j]
    breaks = np.concatenate([r[gated] / v[gated], cross[cross > 0.0]])
    inside = np.unique(breaks[(lo <= breaks) & (breaks <= hi)])
    mids = (inside[:-1] + inside[1:]) / 2.0
    grid = np.unique(np.concatenate([base, [1.0], inside, np.nextafter(inside, np.inf), mids]))
    return grid[(grid >= lo) & (grid <= hi)]


def _own_outcomes(
    instance: ProblemInstance,
    config: MechanismConfig,
    i: int,
    others_bids: np.ndarray,
    candidates: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Bidder i's welfare and revenue at every candidate multiplier.

    Equal, bit for bit, to clearing the market with i bidding d * v_i at
    each candidate d: i's rank, eligibility and price follow `clear`'s
    rules and arithmetic, welfare is summed auction by auction from 0 as
    `welfare_per_bidder`'s bincount does, and revenue is the row sum of
    an (candidates, m) payment block, as `payments.sum(axis=1)` is.
    The inputs must have passed `clear`'s checks; a candidate whose bid
    row is not finite and nonnegative raises as `clear` would.
    """
    n, m = instance.n, instance.m
    pos = instance.pos_table  # (m, s_max + 1)
    s_max = pos.shape[1] - 1
    slots = np.asarray(instance.slots)
    cols = np.arange(m)
    opp = np.arange(n) != i
    b = others_bids[opp]
    masked = np.where(b >= config.reserves[opp], b + config.boosts[opp], -1.0)
    # below[k, j]: score of the opponent ranked k in auction j, 0 past the last
    order = np.argsort(-masked, axis=0, kind="stable")
    ranked = np.maximum(np.take_along_axis(masked, order, axis=0), 0.0)
    below = np.vstack([ranked, np.zeros((1, m))])
    v, z, r = instance.values[i], config.boosts[i], config.reserves[i]

    wel = np.empty(candidates.size)
    rev = np.empty(candidates.size)
    for start in range(0, candidates.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        bid = candidates[block, None] * v
        bad = ~(np.isfinite(bid) & (bid >= 0.0)).all(axis=1)
        if bad.any():
            issues = BidProfile(bid[np.argmax(bad)][None]).issues
            raise ValueError("invalid bids: " + "; ".join(issues))
        eligible = bid >= r
        score = np.where(eligible, bid + z, -1.0)
        # i's rank: opponents scoring higher, and equal ones with a lower index
        rank = (masked[:i, None] >= score).sum(axis=0, dtype=np.int32)
        rank += (masked[i:, None] > score).sum(axis=0, dtype=np.int32)
        win = eligible & (rank < slots)
        k = np.minimum(rank, s_max)
        weight = pos[cols, k]

        gain = np.zeros((bid.shape[0], m + 1))
        gain[:, 1:] = np.where(win, v * weight, 0.0)
        wel[block] = np.cumsum(gain, axis=1)[:, -1]  # sequential, in auction order

        if config.format is AuctionFormat.FPA:
            price = bid * weight
        elif config.format is AuctionFormat.GSP:
            price = _unit_price(below[k, cols], z, r, bid) * weight
        else:
            price = np.zeros(bid.shape)
            for u in range(1, s_max + 1):
                # the rank-u bidder, opponent u - 1 when i ranks above it
                t = _unit_price(below[u - 1], z, r, bid)
                price += np.where(k < u, t * (pos[:, u - 1] - pos[:, u]), 0.0)
        rev[block] = np.where(win, price, 0.0).sum(axis=1)
    return wel, rev


def best_response_uniform(
    instance: ProblemInstance,
    config: MechanismConfig,
    i: int,
    others_bids: np.ndarray,
    lam: float,
    grid: Union[np.ndarray, Sequence[float]],
) -> float:
    """Best multiplier on the grid: feasible (ROS-satisfying) candidates
    beat infeasible ones, then higher objective, then smaller delta.

    Every candidate is evaluated exactly, against the fixed rows of
    `others_bids` (row i is ignored): its welfare and revenue equal those
    of a full clear at that multiplier.  The evaluation is one array pass
    over the grid, O(grid * n * m) work in blocks of `_BLOCK` candidates,
    and the choice is one masked argmax.  An empty or non-1-D grid, a
    misshaped bid matrix, an invalid instance or config, and a candidate
    whose bids would be negative or not finite raise `ValueError`.
    """
    candidates = np.asarray(grid, dtype=np.float64)
    if candidates.ndim != 1:
        raise ValueError("multiplier grid must be one-dimensional")
    candidates = np.sort(candidates)
    if candidates.size == 0:
        raise ValueError("empty multiplier grid")
    bids = np.array(others_bids, dtype=np.float64)
    if bids.shape != (instance.n, instance.m):
        raise ValueError("others_bids must be a full n x m bid matrix")
    i = range(instance.n)[i]  # negative i counts from the end, as in array indexing
    # the checks `clear` makes, on the bids of the first candidate
    bids[i] = candidates[0] * instance.values[i]
    _check_shapes(instance, config, BidProfile(bids))
    wel, rev = _own_outcomes(instance, config, i, bids, candidates)
    pool = np.flatnonzero(ros_satisfied(wel, rev))
    if pool.size == 0:
        pool = np.arange(candidates.size)
    # argmax takes the first, smallest-delta, of equal objectives
    return float(candidates[pool[np.argmax(objective(lam, wel[pool], rev[pool]))]])
