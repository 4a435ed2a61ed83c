"""Approximation-guarantee machinery.

The central result is a parametrized pair of lower bounds: if an
allocation rule ranks by boosted score with reserve gating and the bids,
reserves, boosts, and payments satisfy five checkable conditions with
factors (alpha, beta, mu, nu), then

    Rev >= min((alpha + mu) * beta / (beta + nu), beta) * Wel(OPT)
    Wel >= (alpha + mu) / (1 + max(nu, alpha + mu - beta)) * Wel(OPT).

Reserves and boosts come from gamma-approximate value signals, and every
guarantee depends only on the band those signals land in.  SignalBand is
that band: reserves in [gamma*v, v), boosts s times a signal, so in
[gamma*s*v, s*v) with boost scale s of 1 or 1/(1 - gamma).  It owns the
gamma range, the band edges that the samplers draw from and the
validator checks, and the map to (beta, mu, nu).  The six named
corollaries each pair a format and a band with the bid floor alpha; the
lift experiment's treatments build their bands the same way.
Tight-instance generators produce small adversarial instances on which
the welfare bounds are attained up to O(eps), showing they cannot be
improved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .clearing import (
    clear,
    opt_welfare,
    revenue_per_bidder,
    top_value_bidders,
    welfare_per_bidder,
)
from .types import AuctionFormat, BidProfile, MechanismConfig, ProblemInstance

__all__ = [
    "BoundReport",
    "COROLLARIES",
    "CorollarySpec",
    "LemmaParams",
    "OverlapPartition",
    "PreconditionCheck",
    "PreconditionReport",
    "SignalBand",
    "TightInstance",
    "assert_corollary",
    "check_lemma1_preconditions",
    "lemma1_bounds",
    "overlap_partition",
    "sample_signals",
    "tight_instance",
]

RATIO_TOL = 1e-9
# slack for cross-format payment comparisons, which reassociate sums
_FLOAT_SLACK = 1e-9


@dataclass(frozen=True)
class LemmaParams:
    """Factors of the master bound: bid floor alpha, reserve floor beta,
    boost band [mu * v, nu * v)."""

    alpha: float
    beta: float
    mu: float = 0.0
    nu: float = 0.0

    def __post_init__(self) -> None:
        if min(self.alpha, self.beta, self.mu, self.nu) < 0:
            raise ValueError("factors must be nonnegative")
        if self.mu > self.nu:
            raise ValueError("need mu <= nu")


def lemma1_bounds(params: LemmaParams) -> tuple[float, float]:
    """(revenue bound, welfare bound) as fractions of optimal welfare."""
    a, b, mu, nu = params.alpha, params.beta, params.mu, params.nu
    if b + nu == 0.0:
        # no reserve and no boost: the revenue expression is 0/0
        rev = 0.0
    else:
        rev = min((a + mu) * b / (b + nu), b)
    wel = (a + mu) / (1.0 + max(nu, a + mu - b))
    return rev, wel


ROLES = ("reserve", "boost")
BOOST_SCALES = ("1", "1/(1-gamma)")


@dataclass(frozen=True)
class SignalBand:
    """Where gamma-approximate value signals put reserves and boosts.

    A signal lands in [gamma*v, v).  A reserve is the signal itself; a
    boost is the signal times the scale s named by boost, "1" or
    "1/(1-gamma)", so it lands in [gamma*s*v, s*v).  reserve=False or
    boost=None leaves that role out.  gamma lies in [0, 1); at gamma = 1
    the band is empty.
    """

    gamma: float
    reserve: bool = False
    boost: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.gamma == 1.0:
            raise ValueError("gamma = 1 leaves the signal band [gamma*v, v) empty")
        if self.boost is not None and self.boost not in BOOST_SCALES:
            raise ValueError(f"boost scale must be one of {BOOST_SCALES}, got {self.boost!r}")
        object.__setattr__(self, "gamma", float(self.gamma))

    @property
    def roles(self) -> tuple[str, ...]:
        return tuple(r for r, on in zip(ROLES, (self.reserve, self.boost is not None)) if on)

    @property
    def boost_scale(self) -> Optional[float]:
        if self.boost is None:
            return None
        return 1.0 if self.boost == "1" else 1.0 / (1.0 - self.gamma)

    def edges(self, role: str, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """[lo, hi) for one role at values v, elementwise."""
        hi = v if role == "reserve" else self.boost_scale * v
        return self.gamma * hi, hi

    def params(self, alpha: float = 1.0) -> LemmaParams:
        """Lemma factors for signals in this band and bids floored at
        alpha * v: beta = gamma with reserves, [mu, nu) = the boost band
        over v."""
        g = self.gamma
        beta = g if self.reserve else 0.0
        if self.boost is None:
            return LemmaParams(alpha, beta)
        # g / (1 - g), not g * scale: the two differ in the last bit at some gamma
        mu = g if self.boost == "1" else g / (1.0 - g)
        return LemmaParams(alpha, beta, mu, self.boost_scale)


@dataclass(frozen=True)
class CorollarySpec:
    """One named guarantee: a mechanism format, the signal band it draws
    reserves and boosts from, and its bid floor.  GSP and FPA with
    reserves only floor bids at the reserve (alpha = gamma); the others
    at the value (alpha = 1)."""

    ident: int
    format: AuctionFormat
    label: str
    reserve: bool = False
    boost: Optional[str] = None
    bid_floor_at_reserve: bool = False

    def band(self, gamma: float) -> SignalBand:
        return SignalBand(gamma, self.reserve, self.boost)

    def params(self, gamma: float) -> LemmaParams:
        band = self.band(gamma)
        return band.params(band.gamma if self.bid_floor_at_reserve else 1.0)

    def promised(self, gamma: float) -> tuple[float, float]:
        return lemma1_bounds(self.params(gamma))


COROLLARIES: dict[int, CorollarySpec] = {
    1: CorollarySpec(1, AuctionFormat.VCG, "vcg-reserve", reserve=True),
    2: CorollarySpec(2, AuctionFormat.VCG, "vcg-boost", boost="1/(1-gamma)"),
    3: CorollarySpec(3, AuctionFormat.VCG, "vcg-reserve-boost", reserve=True, boost="1"),
    4: CorollarySpec(4, AuctionFormat.GSP, "gsp-reserve", reserve=True, bid_floor_at_reserve=True),
    5: CorollarySpec(5, AuctionFormat.GSP, "gsp-reserve-boost", reserve=True, boost="1"),
    6: CorollarySpec(6, AuctionFormat.FPA, "fpa-reserve", reserve=True, bid_floor_at_reserve=True),
}


@dataclass(frozen=True)
class PreconditionCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class PreconditionReport:
    checks: tuple[PreconditionCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __getitem__(self, name: str) -> PreconditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {c.name: {"ok": c.ok, "detail": c.detail} for c in self.checks}


def _first_bad(mask: np.ndarray) -> tuple[int, int]:
    i, j = np.argwhere(mask)[0]
    return int(i), int(j)


def check_lemma1_preconditions(
    instance: ProblemInstance,
    config: MechanismConfig,
    bids: BidProfile,
    outcome,
    params: LemmaParams,
) -> PreconditionReport:
    """Evaluate the five bound hypotheses on a cleared outcome.

    Diagnostics, not faults: each check reports ok/detail and never raises.
    """
    v = instance.values
    r = config.reserves
    z = config.boosts
    b = bids.bids
    checks = []

    # 1. signal bands: r >= beta v and mu v <= z < nu v (z = 0 allowed
    # when the band is empty or absent)
    bad = (r < params.beta * v) | (z < params.mu * v) | ((z >= params.nu * v) & (z > 0.0))
    if bad.any():
        i, j = _first_bad(bad)
        detail = (
            f"bidder {i}, auction {j}: r={r[i, j]:.6g}, z={z[i, j]:.6g}, "
            f"v={v[i, j]:.6g} outside beta={params.beta:.6g}, "
            f"[mu, nu)=[{params.mu:.6g}, {params.nu:.6g})"
        )
        checks.append(PreconditionCheck("signal_bands", False, detail))
    else:
        checks.append(PreconditionCheck("signal_bands", True))

    # 2. outcome really is rank-by-score with reserve gating; ranking does
    # not depend on the format, so the VCG clear of check 4 gives the winners
    vcg = clear(instance, MechanismConfig(AuctionFormat.VCG, instance.n, instance.m, r, z), bids)
    mismatch = ""
    for j in range(instance.m):
        expect = [i for i in vcg.winners[j].tolist() if i >= 0]
        got = [i for i in outcome.winners[j].tolist() if i >= 0]
        if expect != got:
            mismatch = f"auction {j}: expected winners {expect}, got {got}"
            break
    checks.append(PreconditionCheck("score_ranking", not mismatch, mismatch))

    # 3. top-s_j values bid at least alpha * v
    top = top_value_bidders(instance)
    low = top & (b < params.alpha * v - 1e-12)
    if low.any():
        i, j = _first_bad(low)
        detail = (
            f"bidder {i}, auction {j}: bid {b[i, j]:.6g} < "
            f"alpha*v = {params.alpha * v[i, j]:.6g}"
        )
        checks.append(PreconditionCheck("bid_lower_bound", False, detail))
    else:
        checks.append(PreconditionCheck("bid_lower_bound", True))

    # 4. winners pay at least the VCG price for these bids
    floor = vcg.payments
    slack = _FLOAT_SLACK * np.maximum(1.0, floor)
    short = outcome.payments < floor - slack
    if short.any():
        i, j = _first_bad(short)
        detail = (
            f"bidder {i}, auction {j}: payment {outcome.payments[i, j]:.6g} "
            f"below VCG floor {floor[i, j]:.6g}"
        )
        checks.append(PreconditionCheck("vcg_price_floor", False, detail))
    else:
        checks.append(PreconditionCheck("vcg_price_floor", True))

    # 5. per-bidder payment within delivered value
    wel_i = welfare_per_bidder(instance, outcome)
    rev_i = revenue_per_bidder(outcome)
    over = rev_i > wel_i + _FLOAT_SLACK * np.maximum(1.0, wel_i)
    if over.any():
        i = int(np.argmax(over))
        detail = f"bidder {i}: pays {rev_i[i]:.6g} > value {wel_i[i]:.6g}"
        checks.append(PreconditionCheck("payment_within_value", False, detail))
    else:
        checks.append(PreconditionCheck("payment_within_value", True))

    return PreconditionReport(tuple(checks))


@dataclass(frozen=True)
class BoundReport:
    corollary: int
    gamma: float
    wel_ratio: float
    rev_ratio: float
    wel_bound: float
    rev_bound: float
    preconditions: PreconditionReport
    passed: bool

    def to_dict(self) -> dict:
        return {
            "corollary": self.corollary,
            "gamma": self.gamma,
            "wel_ratio": self.wel_ratio,
            "rev_ratio": self.rev_ratio,
            "wel_bound": self.wel_bound,
            "rev_bound": self.rev_bound,
            "preconditions": self.preconditions.to_dict(),
            "passed": self.passed,
        }


def _validate_bands(
    instance: ProblemInstance, config: MechanismConfig, band: SignalBand, label: str
) -> None:
    for role, x, name in (("reserve", config.reserves, "r"), ("boost", config.boosts, "z")):
        if role not in band.roles:
            if x.any():
                raise ValueError(f"{label} uses no {role}s but config has them")
            continue
        lo, hi = band.edges(role, instance.values)
        ok = np.where(hi > lo, (x >= lo) & (x < hi), x == 0.0)
        if not ok.all():
            i, j = _first_bad(~ok)
            raise ValueError(
                f"{role} not gamma-approx at bidder {i}, auction {j}: "
                f"{name}={x[i, j]:.6g} outside [{lo[i, j]:.6g}, {hi[i, j]:.6g})"
            )


def assert_corollary(
    instance: ProblemInstance,
    config: MechanismConfig,
    outcome,
    corollary_id: int,
    gamma: float,
    bids: BidProfile,
) -> BoundReport:
    """Compare achieved welfare/revenue ratios against the promised
    constants for one named guarantee.  Raises if the config's format or
    signal bands do not match the guarantee; everything else is reported,
    not raised.
    """
    if corollary_id not in COROLLARIES:
        raise ValueError(f"unknown corollary id {corollary_id}")
    spec = COROLLARIES[corollary_id]
    band = spec.band(gamma)
    if config.format is not spec.format:
        raise ValueError(f"{spec.label} applies to {spec.format.value}, got {config.format.value}")
    params = spec.params(gamma)
    _validate_bands(instance, config, band, spec.label)
    rev_bound, wel_bound = lemma1_bounds(params)
    opt = opt_welfare(instance)
    if opt > 0.0:
        wel_ratio = float(welfare_per_bidder(instance, outcome).sum() / opt)
        rev_ratio = float(revenue_per_bidder(outcome).sum() / opt)
    else:
        # nothing at stake: every guarantee holds vacuously
        wel_ratio = rev_ratio = 1.0
    pre = check_lemma1_preconditions(instance, config, bids, outcome, params)
    passed = (
        pre.ok
        and wel_ratio >= wel_bound - RATIO_TOL
        and rev_ratio >= rev_bound - RATIO_TOL
    )
    return BoundReport(
        corollary=corollary_id,
        gamma=band.gamma,
        wel_ratio=wel_ratio,
        rev_ratio=rev_ratio,
        wel_bound=wel_bound,
        rev_bound=rev_bound,
        preconditions=pre,
        passed=passed,
    )


def _band_draw(lo: np.ndarray, hi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Uniform draw on [lo, hi), elementwise; empty bands collapse to the
    largest float below hi (or to 0 when hi = 0)."""
    x = lo + u * (hi - lo)
    # rounding may land on hi; the band is half-open
    on_edge = (x >= hi) & (hi > lo)
    x = np.where(on_edge, np.nextafter(hi, lo), x)
    empty = hi <= lo
    x = np.where(empty, np.nextafter(hi, 0.0), x)
    return np.where(hi == 0.0, 0.0, x)


def sample_signals(
    instance: ProblemInstance, band: SignalBand, seed: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """(reserves, boosts) drawn uniform on the band; a role the band
    leaves out is all zeros.  The reserve draw comes from
    default_rng([*seed, 1]) and the boost draw from default_rng([*seed, 2])."""
    v = instance.values
    out = []
    for stream, role in enumerate(ROLES, start=1):
        if role in band.roles:
            u = np.random.default_rng([*seed, stream]).random(size=v.shape)
            out.append(_band_draw(*band.edges(role, v), u))
        else:
            out.append(np.zeros(v.shape))
    return out[0], out[1]


@dataclass(frozen=True)
class TightInstance:
    """A small adversarial instance plus the bid profile realizing its
    worst case and the ratio that outcome approaches as eps shrinks."""

    kind: str
    gamma: float
    eps: float
    instance: ProblemInstance
    config: MechanismConfig
    bids: BidProfile
    expected_ratio: float
    metric: str  # "welfare" or "revenue"


def _nudge_up_product(delta: float, factor: float, target: float) -> float:
    # make delta * factor clear target despite rounding
    while delta * factor < target:
        delta = float(np.nextafter(delta, np.inf))
    return delta


def _nudge_up_sum(b: float, add: float, target: float) -> float:
    while b + add < target:
        b = float(np.nextafter(b, np.inf))
    return b


def tight_instance(kind: str, gamma: float, eps: float) -> TightInstance:
    """Worst-case witnesses showing each welfare bound is attained.

    All four use VCG.  The two-auction kinds pit an adversarial bidder 0
    against an honest truthful bidder 1 with values (0, 1); the signal
    realization makes winning both auctions undominated for bidder 0,
    wasting auction 2's slot on a low value.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly inside (0, 1)")
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 0.5)")
    g, e = float(gamma), float(eps)
    pos = [[1.0], [1.0]]

    if kind == "revenue_single":
        inst = ProblemInstance(1, 1, [1], [[1.0]], [[1.0]])
        config = MechanismConfig(AuctionFormat.VCG, 1, 1, reserves=[[g]])
        return TightInstance(
            kind, g, e, inst, config, BidProfile([[1.0]]), expected_ratio=g, metric="revenue"
        )

    if kind == "reserve_only":
        v0 = 1.0 / (1.0 - g)
        values = [[v0, e], [0.0, 1.0]]
        inst = ProblemInstance(2, 2, [1, 1], values, pos)
        reserves = g * inst.values
        config = MechanismConfig(AuctionFormat.VCG, 2, 2, reserves=reserves)
        # bidder 0 outbids the honest value 1 in auction 2 at tiny own value
        delta = _nudge_up_product(1.0 / e, e, 1.0)
        bids = BidProfile([[delta * v0, delta * e], [0.0, 1.0]])
        return TightInstance(
            kind, g, e, inst, config, bids, expected_ratio=1.0 / (2.0 - g), metric="welfare"
        )

    if kind == "boost_only":
        scale = 1.0 / (1.0 - g)
        values = [[1.0 - g + e, g], [0.0, 1.0]]
        h = e * g
        expected = 1.0 / (2.0 - g)
    elif kind == "reserve_and_boost":
        scale = 1.0
        values = [[1.0 + e, g], [0.0, 1.0]]
        h = e * (1.0 - g) / 2.0
        expected = (1.0 + g) / 2.0
    else:
        raise ValueError(f"unknown tight instance kind {kind!r}")

    inst = ProblemInstance(2, 2, [1, 1], values, pos)
    # adversarial boosts: bidder 0's sits near the top of its band in the
    # contested auction, the honest bidder's at the bottom
    boosts = np.zeros((2, 2))
    boosts[0, 0] = g * scale * inst.values[0, 0]
    boosts[1, 1] = g * scale * 1.0
    boosts[0, 1] = boosts[1, 1] - h
    reserves = g * inst.values if kind == "reserve_and_boost" else None
    config = MechanismConfig(AuctionFormat.VCG, 2, 2, reserves=reserves, boosts=boosts)
    # bidder 0 matches the honest score in auction 2 and wins the tie
    target = 1.0 + boosts[1, 1]
    b01 = _nudge_up_sum(target - boosts[0, 1], boosts[0, 1], target)
    bids = BidProfile([[inst.values[0, 0], b01], [0.0, 1.0]])
    return TightInstance(kind, g, e, inst, config, bids, expected_ratio=expected, metric="welfare")


@dataclass(frozen=True)
class OverlapPartition:
    """Per-(auction, depth) comparison of cleared winners against the
    welfare-optimal top-k; diagnostic companion to the bound proofs."""

    allocated: dict  # (j, k) -> frozenset of bidders in slots 1..k
    optimal: dict  # (j, k) -> frozenset of top-k positive-value bidders

    def common(self, j: int, k: int) -> frozenset:
        return self.allocated[j, k] & self.optimal[j, k]

    def only_allocated(self, j: int, k: int) -> frozenset:
        return self.allocated[j, k] - self.optimal[j, k]

    def only_optimal(self, j: int, k: int) -> frozenset:
        return self.optimal[j, k] - self.allocated[j, k]


def overlap_partition(instance: ProblemInstance, outcome) -> OverlapPartition:
    allocated = {}
    optimal = {}
    for j in range(instance.m):
        col = instance.values[:, j]
        order = np.argsort(-col, kind="stable")
        positive = [int(i) for i in order if col[i] > 0.0]
        won = [int(i) for i in outcome.winners[j] if i >= 0]
        for k in range(1, instance.slots[j] + 1):
            allocated[j, k] = frozenset(won[:k])
            optimal[j, k] = frozenset(positive[:k])
    return OverlapPartition(allocated, optimal)
