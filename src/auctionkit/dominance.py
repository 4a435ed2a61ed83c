"""Exact grid-relative dominance checking.

Weak dominance of bid vector b by b' for bidder i quantifies over
opponent bid profiles: b' must be at least as good everywhere (an
ROS-violating b is always weakly improvable; when b satisfies ROS, b'
must too and match or beat the objective wel - lambda * rev) and
strictly better somewhere.  Everything here evaluates that definition
exhaustively over finite per-(bidder, auction) level grids, so results
are exact relative to the grid and stated as such: the continuous
undominated set is a subset of the grid-relative one.

Payoffs separate across auctions, so each (candidate level, opponent
combination) pair is cleared once per auction and full-profile payoffs
are assembled by summation.  All caps refuse rather than sample; this
module's value is exactness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .clearing import clear, top_value_bidders
from .types import AuctionFormat, BidProfile, MechanismConfig, ProblemInstance

__all__ = [
    "BidGrid",
    "DominanceVerdict",
    "LemmaCheckReport",
    "UndominatedResult",
    "build_closure_grid",
    "dominates",
    "evaluate_profiles",
    "is_undominated",
    "run_lemma_check",
    "undominated_set",
    "verify_bid_lower_bounds",
]

DEFAULT_MULTIPLIERS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25)
MAX_OPPONENT_PROFILES = 10**6
MAX_CANDIDATES = 4096
# workspace guard for the (candidates x profiles) payoff tensors
_MAX_ELEMENTS = 5 * 10**7
# elements per block of the undominated mask's pairwise comparison; the
# blocks are temporaries, and larger ones raise peak memory
_MASK_CHUNK_ELEMENTS = 2**18


@dataclass(frozen=True)
class BidGrid:
    """Finite candidate bid levels per (bidder, auction), plus an optional
    per-bidder multiplier ladder for uniform-bid candidates."""

    levels: tuple[tuple[np.ndarray, ...], ...]
    multipliers: tuple[float, ...] = ()

    @property
    def n(self) -> int:
        return len(self.levels)

    @property
    def m(self) -> int:
        return len(self.levels[0]) if self.levels else 0

    def candidate_count(self, i: int) -> int:
        return math.prod(len(lv) for lv in self.levels[i])

    def opponent_profile_count(self, i: int) -> int:
        total = 1
        for j in range(self.m):
            for o in range(self.n):
                if o != i:
                    total *= len(self.levels[o][j])
        return total

    def describe(self) -> dict:
        return {
            "levels_per_bidder_auction": [
                [len(lv) for lv in row] for row in self.levels
            ],
            "multipliers": list(self.multipliers),
        }

    def with_levels(self, i: int, extra: Sequence[float]) -> "BidGrid":
        """New grid with extra levels for bidder i, one per auction,
        appended as-is (no closure reflow)."""
        if len(extra) != self.m:
            raise ValueError("need one level per auction")
        rows = [list(row) for row in self.levels]
        rows[i] = [
            np.unique(np.append(rows[i][j], float(extra[j]))) for j in range(self.m)
        ]
        return BidGrid(tuple(tuple(row) for row in rows), self.multipliers)


def build_closure_grid(
    instance: ProblemInstance,
    config: MechanismConfig,
    multipliers: Optional[Sequence[float]] = None,
    extra_levels: Optional[Sequence[tuple[int, int, float]]] = None,
) -> BidGrid:
    """Candidate levels {0, r, v} closed under the dominance-proof
    constructions.

    Two passes follow the base set.  The proof pass gives each opponent
    the score-matching bid for a value bid and score-space midpoints, so
    the dominating witnesses used by the bid-floor arguments exist on
    the grid.  The separation pass then guarantees adequacy: for every
    remaining below-value level b of a top-value bidder, each opponent
    receives an eligible bid whose score falls strictly between b's
    score and the value bid's score, which is what makes bidding up to
    value strictly better somewhere and never worse.
    """
    instance.require_valid()
    config.require_valid()
    n, m = instance.n, instance.m
    v, r, z = instance.values, config.reserves, config.boosts
    levels: list[list[set[float]]] = [
        [{0.0, float(r[i, j]), float(v[i, j])} for j in range(m)] for i in range(n)
    ]
    if multipliers is not None:
        for i in range(n):
            for j in range(m):
                levels[i][j].update(float(d * v[i, j]) for d in multipliers)
    if extra_levels:
        for i, j, level in extra_levels:
            if level < 0:
                raise ValueError("bid levels must be nonnegative")
            levels[i][j].add(float(level))

    snap = [[sorted(levels[i][j]) for j in range(m)] for i in range(n)]
    for j in range(m):
        for i in range(n):
            for o in range(n):
                if o == i:
                    continue
                pts = {
                    v[i, j] + z[o, j],
                    v[i, j] + z[i, j] - z[o, j],
                }
                pts.update((v[i, j] + b) / 2.0 + z[o, j] - z[i, j] for b in snap[o][j])
                pts.update((v[i, j] + b) / 2.0 + z[i, j] - z[o, j] for b in snap[i][j])
                levels[o][j].update(float(p) for p in pts if p >= 0.0)

    top = top_value_bidders(instance)
    for j in range(m):
        for t in range(n):
            if not top[t, j]:
                continue
            for b in sorted(levels[t][j]):
                if b >= v[t, j]:
                    continue
                for i in range(n):
                    if i == t:
                        continue
                    lo = max(b + z[t, j] - z[i, j], r[i, j])
                    hi = v[t, j] + z[t, j] - z[i, j]
                    if lo < hi:
                        levels[i][j].add(float((lo + hi) / 2.0))

    arrays = tuple(
        tuple(np.array(sorted(levels[i][j]), dtype=np.float64) for j in range(m))
        for i in range(n)
    )
    return BidGrid(arrays, tuple(float(d) for d in (multipliers or ())))


def _cartesian(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """All combinations, last array varying fastest; (1, 0) when empty."""
    if not arrays:
        return np.zeros((1, 0))
    rows = list(itertools.product(*[a.tolist() for a in arrays]))
    return np.array(rows, dtype=np.float64).reshape(len(rows), len(arrays))


def _clear_auction_scenarios(
    instance: ProblemInstance, config: MechanismConfig, j: int, bids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Clear T independent copies of auction j under T bid columns.

    Returns per-bidder welfare and revenue, each (n, T).
    """
    n, T = bids.shape
    s = instance.slots[j]
    tiled = ProblemInstance(
        n,
        T,
        [s] * T,
        np.repeat(instance.values[:, j : j + 1], T, axis=1),
        [instance.pos[j]] * T,
    )
    cfg = MechanismConfig(
        config.format,
        n,
        T,
        np.repeat(config.reserves[:, j : j + 1], T, axis=1),
        np.repeat(config.boosts[:, j : j + 1], T, axis=1),
    )
    out = clear(tiled, cfg, BidProfile(bids))
    ts, ks = np.nonzero(out.winners >= 0)  # winners is (T, s)
    w = out.winners[ts, ks]
    wel = np.zeros((n, T))
    # a bidder wins at most one slot per copy, so no cell is written twice
    wel[w, ts] = instance.values[w, j] * instance.pos[j][ks]
    return wel, out.payments


def _payoff_tensors(
    instance: ProblemInstance,
    config: MechanismConfig,
    i: int,
    candidates: np.ndarray,
    grid: BidGrid,
    max_profiles: int,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Welfare and revenue of bidder i for every (candidate, opponent
    profile) pair, shape (A, P); also the per-auction opponent combos.

    Profiles enumerate the grid levels of every opponent independently
    per auction; P is their product.  Payoffs are assembled from
    per-auction tables, exploiting that auctions clear independently.
    """
    n, m = instance.n, instance.m
    if candidates.ndim != 2 or candidates.shape[1] != m:
        raise ValueError("candidates must be (count, m)")
    opponents = [o for o in range(n) if o != i]
    P = grid.opponent_profile_count(i)
    if P > max_profiles:
        raise ValueError(
            f"{P} opponent profiles exceed the cap of {max_profiles}; refusing"
        )
    A = candidates.shape[0]
    if A * P > _MAX_ELEMENTS:
        raise ValueError(f"payoff tensor {A} x {P} exceeds the workspace guard")

    combos = []
    wel = np.zeros((A, P))
    rev = np.zeros((A, P))
    p_sizes = []
    for j in range(m):
        combo_j = _cartesian([grid.levels[o][j] for o in opponents])
        combos.append(combo_j)
        p_sizes.append(combo_j.shape[0])
    for j in range(m):
        cand_j = np.unique(candidates[:, j])
        a_j = cand_j.shape[0]
        p_j = p_sizes[j]
        bids = np.zeros((n, a_j * p_j))
        bids[i] = np.repeat(cand_j, p_j)
        for col, o in enumerate(opponents):
            bids[o] = np.tile(combos[j][:, col], a_j)
        w_all, r_all = _clear_auction_scenarios(instance, config, j, bids)
        w_tab = w_all[i].reshape(a_j, p_j)
        r_tab = r_all[i].reshape(a_j, p_j)
        # scatter the per-auction table into the joint (A, P) tensors
        cand_idx = np.searchsorted(cand_j, candidates[:, j])
        inner = math.prod(p_sizes[j + 1 :])
        outer = P // (p_j * inner)
        prof_idx = np.tile(np.repeat(np.arange(p_j), inner), outer)
        wel += w_tab[np.ix_(cand_idx, prof_idx)]
        rev += r_tab[np.ix_(cand_idx, prof_idx)]
    return wel, rev, combos


def _decode_profile(
    grid: BidGrid, i: int, combos: list[np.ndarray], flat: int, m: int
) -> np.ndarray:
    """Opponent bid matrix (n, m) for a flat profile index; row i is 0."""
    n = grid.n
    out = np.zeros((n, m))
    opponents = [o for o in range(n) if o != i]
    sizes = [c.shape[0] for c in combos]
    idx = np.unravel_index(flat, sizes)
    for j in range(m):
        for col, o in enumerate(opponents):
            out[o, j] = combos[j][idx[j], col]
    return out


@dataclass(frozen=True)
class DominanceVerdict:
    """Outcome of one ordered dominance query: does challenger dominate
    candidate?  The witness opponent profile (row `bidder` is unused and
    zero) proves strictness for a positive verdict, or the failure of
    the everywhere-at-least-as-good requirement for a negative one; a
    negative verdict with no witness failed only the strictness
    requirement."""

    bidder: int
    candidate: np.ndarray
    challenger: np.ndarray
    lam: float
    dominates: bool
    witness: Optional[np.ndarray]
    reason: str

    def verify(self, instance: ProblemInstance, config: MechanismConfig) -> bool:
        """Re-clear at the witness and confirm the claimed relation."""
        if self.witness is None:
            return not self.dominates and self.reason == "no_strict_improvement"
        pairs = []
        for vec in (self.candidate, self.challenger):
            bids = self.witness.copy()
            bids[self.bidder] = vec
            w = r = 0.0
            for j in range(instance.m):
                wj, rj = _clear_auction_scenarios(instance, config, j, bids[:, j : j + 1])
                w += wj[self.bidder, 0]
                r += rj[self.bidder, 0]
            pairs.append((w, r))
        (wa, ra), (wb, rb) = pairs
        feas_a, feas_b = wa >= ra, wb >= rb
        if self.dominates:
            return (not feas_a and feas_b) or (
                feas_a and feas_b and wb - self.lam * rb > wa - self.lam * ra
            )
        return feas_a and (not feas_b or wb - self.lam * rb < wa - self.lam * ra)


def dominates(
    instance: ProblemInstance,
    config: MechanismConfig,
    lam: float,
    i: int,
    b_i: Union[np.ndarray, Sequence[float]],
    b_prime: Union[np.ndarray, Sequence[float]],
    opponent_grid: BidGrid,
    max_profiles: int = MAX_OPPONENT_PROFILES,
) -> DominanceVerdict:
    """Evaluate whether b_prime weakly dominates b_i over the grid."""
    cand = np.asarray(b_i, dtype=np.float64)
    chal = np.asarray(b_prime, dtype=np.float64)
    if cand.shape != (instance.m,) or chal.shape != (instance.m,):
        raise ValueError("bid vectors must have one entry per auction")
    wel, rev, combos = _payoff_tensors(
        instance, config, i, np.vstack([cand, chal]), opponent_grid, max_profiles
    )
    feas = wel >= rev
    obj = wel - lam * rev
    at_least = ~feas[0] | (feas[1] & (obj[1] >= obj[0]))
    strict = (~feas[0] & feas[1]) | (feas[0] & feas[1] & (obj[1] > obj[0]))
    if not at_least.all():
        flat = int(np.argmin(at_least))
        witness = _decode_profile(opponent_grid, i, combos, flat, instance.m)
        return DominanceVerdict(i, cand, chal, lam, False, witness, "req1_violated")
    if not strict.any():
        return DominanceVerdict(i, cand, chal, lam, False, None, "no_strict_improvement")
    flat = int(np.argmax(strict))
    witness = _decode_profile(opponent_grid, i, combos, flat, instance.m)
    return DominanceVerdict(i, cand, chal, lam, True, witness, "strictly_better")


@dataclass(frozen=True)
class UndominatedResult:
    """Grid-relative undominated candidates per bidder, plus the joint
    profiles among them where every bidder pays at most its welfare."""

    per_bidder: tuple[np.ndarray, ...]  # (K_i, m) each
    theta: np.ndarray  # (T, n, m) feasible joint profiles
    mode: str
    grid: BidGrid

    def theta_profiles(self) -> list[BidProfile]:
        return [BidProfile(p) for p in self.theta]


def _undominated_mask(feas: np.ndarray, obj: np.ndarray) -> np.ndarray:
    """feas/obj are (A, P); candidate a survives unless some b dominates it.

    With u = obj where feasible and -inf where not, b dominates a exactly
    when u_b >= u_a in every profile and u_a >= u_b fails in some profile:
    the Pareto order on the rows of u.  obj must be finite.  ge[a, b]
    ("u_b >= u_a everywhere") is filled a block of rows at a time, each
    block's (rows, A, P) comparison kept within _MASK_CHUNK_ELEMENTS.
    """
    A, P = feas.shape
    u = np.where(feas, obj, -np.inf)
    ge = np.empty((A, A), dtype=bool)
    step = max(1, _MASK_CHUNK_ELEMENTS // max(1, A * P))
    for lo in range(0, A, step):
        ge[lo : lo + step] = (u[None, :, :] >= u[lo : lo + step, None, :]).all(axis=2)
    return ~(ge & ~ge.T).any(axis=1)


def evaluate_profiles(
    instance: ProblemInstance, config: MechanismConfig, profiles: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-bidder welfare and revenue, (T, n) each, for T joint profiles."""
    T = profiles.shape[0]
    wel = np.zeros((T, instance.n))
    rev = np.zeros((T, instance.n))
    for j in range(instance.m):
        wj, rj = _clear_auction_scenarios(instance, config, j, profiles[:, :, j].T)
        wel += wj.T
        rev += rj.T
    return wel, rev


def undominated_set(
    instance: ProblemInstance,
    config: MechanismConfig,
    lambdas: Union[np.ndarray, Sequence[float]],
    grid: BidGrid,
    mode: str = "general",
    max_candidates: int = MAX_CANDIDATES,
    max_profiles: int = MAX_OPPONENT_PROFILES,
) -> UndominatedResult:
    """Exhaustive grid-relative undominated sets for every bidder.

    mode "general" enumerates the cartesian product of each bidder's own
    levels; mode "uniform" restricts candidates (and hence dominators)
    to multiplier-generated uniform vectors, the Theta_u convention.
    Opponent profiles always range over the full level grid.
    """
    instance.require_valid()
    config.require_valid()
    lams = np.asarray(lambdas, dtype=np.float64)
    if lams.shape != (instance.n,):
        raise ValueError("need one lambda per bidder")
    if mode not in ("general", "uniform"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "uniform" and not grid.multipliers:
        raise ValueError("uniform mode needs a multiplier ladder on the grid")

    survivors = []
    for i in range(instance.n):
        if mode == "general":
            count = grid.candidate_count(i)
            if count > max_candidates:
                raise ValueError(
                    f"bidder {i}: {count} candidates exceed the cap of {max_candidates}"
                )
            cands = _cartesian(list(grid.levels[i]))
        else:
            mults = np.array(grid.multipliers, dtype=np.float64)
            cands = np.unique(mults[:, None] * instance.values[i][None, :], axis=0)
        wel, rev, _ = _payoff_tensors(instance, config, i, cands, grid, max_profiles)
        alive = _undominated_mask(wel >= rev, wel - lams[i] * rev)
        survivors.append(cands[alive])

    total = math.prod(s.shape[0] for s in survivors)
    if total * instance.n * instance.m > _MAX_ELEMENTS:
        raise ValueError(f"{total} joint profiles exceed the workspace guard")
    joint = np.zeros((total, instance.n, instance.m))
    for t, rows in enumerate(itertools.product(*[list(s) for s in survivors])):
        joint[t] = np.vstack(rows)
    wel, rev = evaluate_profiles(instance, config, joint)
    feasible = (rev <= wel).all(axis=1)
    return UndominatedResult(
        per_bidder=tuple(survivors), theta=joint[feasible], mode=mode, grid=grid
    )


def is_undominated(
    instance: ProblemInstance,
    config: MechanismConfig,
    lam: float,
    i: int,
    b_i: Union[np.ndarray, Sequence[float]],
    grid: Optional[BidGrid] = None,
    max_profiles: int = MAX_OPPONENT_PROFILES,
) -> tuple[bool, Optional[DominanceVerdict]]:
    """Scan the closure grid (augmented with b_i itself) for a dominator
    of b_i; returns the first dominating verdict found, if any.

    The components of b_i join bidder i's candidate levels after
    closure.  Closure constructions derive from values and base levels;
    reflowing them from an arbitrary query bid would manufacture
    opponent levels tailored against it.
    """
    vec = np.asarray(b_i, dtype=np.float64)
    if grid is None:
        grid = build_closure_grid(instance, config)
    grid = grid.with_levels(i, list(vec))
    cands = _cartesian(list(grid.levels[i]))
    wel, rev, combos = _payoff_tensors(
        instance, config, i, np.vstack([vec[None, :], cands]), grid, max_profiles
    )
    feas = wel >= rev
    obj = wel - lam * rev
    at_least = ~feas[0][None, :] | (feas[1:] & (obj[1:] >= obj[0][None, :]))
    strict = (~feas[0][None, :] & feas[1:]) | (
        feas[0][None, :] & feas[1:] & (obj[1:] > obj[0][None, :])
    )
    dominating = at_least.all(axis=1) & strict.any(axis=1)
    if not dominating.any():
        return True, None
    b = int(np.argmax(dominating))
    flat = int(np.argmax(strict[b]))
    witness = _decode_profile(grid, i, combos, flat, instance.m)
    verdict = DominanceVerdict(
        i, vec, cands[b], lam, True, witness, "strictly_better"
    )
    return False, verdict


LEMMA_KINDS = ("vcg", "gsp-uniform", "gsp", "fpa")
_KIND_FORMAT = {
    "vcg": AuctionFormat.VCG,
    "gsp-uniform": AuctionFormat.GSP,
    "gsp": AuctionFormat.GSP,
    "fpa": AuctionFormat.FPA,
}


@dataclass(frozen=True)
class LemmaCheckReport:
    """Result of checking a bid-floor claim against grid-relative
    undominated sets.  Scope is always grid-relative: a FAIL is either a
    grid-adequacy finding or a counterexample candidate, not a proof."""

    kind: str
    passed: bool
    floor: str  # "value-on-top" or "reserve"
    violations: tuple[dict, ...]
    grid_description: dict
    scope: str = "grid-relative"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "passed": self.passed,
            "floor": self.floor,
            "violations": list(self.violations),
            "grid": self.grid_description,
            "scope": self.scope,
        }


def _gate_hypotheses(instance: ProblemInstance, config: MechanismConfig, kind: str) -> None:
    v, r, z = instance.values, config.reserves, config.boosts
    if config.format is not _KIND_FORMAT[kind]:
        raise ValueError(f"lemma kind {kind!r} applies to {_KIND_FORMAT[kind].value}")
    if kind in ("gsp", "fpa"):
        if z.any():
            raise ValueError(f"lemma kind {kind!r} assumes no boosts")
        ok = np.where(v > 0, r < v, r == 0.0)
        if not ok.all():
            raise ValueError("hypothesis r < v violated")
        return
    # vcg / gsp-uniform: r < v everywhere and a boost band of width < 1
    if not (r < v).all():
        raise ValueError("hypothesis r < v violated")
    if np.any((v == 0.0) & (z > 0.0)):
        raise ValueError("boost on a zero value admits no band")
    ratios = z[v > 0] / v[v > 0]
    if ratios.size and ratios.max() - ratios.min() >= 1.0:
        raise ValueError("boost band wider than the nu - mu <= 1 hypothesis")


def verify_bid_lower_bounds(
    instance: ProblemInstance,
    config: MechanismConfig,
    result: UndominatedResult,
    kind: str,
) -> LemmaCheckReport:
    """PASS iff every undominated bid vector respects the kind's floor:
    b >= v on top-s_j values (vcg, gsp-uniform) or b >= r everywhere
    (gsp, fpa)."""
    if kind not in LEMMA_KINDS:
        raise ValueError(f"unknown lemma kind {kind!r}; expected one of {LEMMA_KINDS}")
    _gate_hypotheses(instance, config, kind)
    value_floor = kind in ("vcg", "gsp-uniform")
    top = top_value_bidders(instance)
    violations = []
    for i, cands in enumerate(result.per_bidder):
        for vec in cands:
            for j in range(instance.m):
                if value_floor:
                    if not top[i, j]:
                        continue
                    floor = instance.values[i, j]
                else:
                    floor = config.reserves[i, j]
                if vec[j] < floor:
                    violations.append(
                        {
                            "bidder": i,
                            "auction": j,
                            "bid": float(vec[j]),
                            "floor": float(floor),
                            "vector": [float(x) for x in vec],
                        }
                    )
    return LemmaCheckReport(
        kind=kind,
        passed=not violations,
        floor="value-on-top" if value_floor else "reserve",
        violations=tuple(violations),
        grid_description=result.grid.describe(),
    )


def run_lemma_check(
    instance: ProblemInstance,
    config: MechanismConfig,
    kind: str,
    multipliers: Sequence[float] = DEFAULT_MULTIPLIERS,
    max_candidates: int = MAX_CANDIDATES,
    max_profiles: int = MAX_OPPONENT_PROFILES,
) -> LemmaCheckReport:
    """Build the closure grid, compute undominated sets in the mode the
    lemma kind calls for, and verify its bid floor."""
    if kind not in LEMMA_KINDS:
        raise ValueError(f"unknown lemma kind {kind!r}; expected one of {LEMMA_KINDS}")
    _gate_hypotheses(instance, config, kind)
    uniform = kind == "gsp-uniform"
    grid = build_closure_grid(
        instance, config, multipliers=multipliers if uniform else None
    )
    result = undominated_set(
        instance,
        config,
        np.zeros(instance.n),
        grid,
        mode="uniform" if uniform else "general",
        max_candidates=max_candidates,
        max_profiles=max_profiles,
    )
    return verify_bid_lower_bounds(instance, config, result, kind)
