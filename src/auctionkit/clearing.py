"""Auction clearing for the three pricing rules.

Each auction is cleared independently.  Bidders whose bid meets their
reserve are eligible; eligible bidders are ranked by score bid + boost,
ties going to the lower bidder index, and the top slots[j] of them win
slots in order.

Prices use the extended score sequence: rank k's score past the last
eligible bidder is 0, and the hypothetical slot past the last one has
weight 0.  With s = slots[j] and 0-based slot k, the winner of slot k
pays

  VCG:  sum over u in (k, s] of clamp(max(score[u] - z, r)) * (pos[u-1] - pos[u])
  GSP:  clamp(max(score[k+1] - z, r)) * pos[k]
  FPA:  bid * pos[k]

where clamp floors the unit price at 0 and caps it at the winner's own
bid.  The VCG sum runs through u = s with pos[s] = 0, so a reserve binds
on the bottom slot even with no bidder beneath it.

`clear` is the one clearing engine.  It ranks every auction with one
stable argsort and prices all (auction, slot) pairs at once, with click
weights from the instance's padded `pos_table`.  The VCG sum is added up
one u at a time, in increasing u, which fixes its floating-point order.
The result stores winners as one (m, s_max) matrix padded with -1 plus
the per-auction slot counts (see `Outcome`).  `tests/oracle.py` is the
independent per-auction reference the engine is tested against.
"""

from __future__ import annotations

import numpy as np

from .types import AuctionFormat, BidProfile, MechanismConfig, Outcome, ProblemInstance


def _check_shapes(instance: ProblemInstance, config: MechanismConfig, bids: BidProfile) -> None:
    instance.require_valid()
    config.require_valid()
    if bids.issues:
        raise ValueError("invalid bids: " + "; ".join(bids.issues))
    shape = (instance.n, instance.m)
    if config.reserves.shape != shape or config.boosts.shape != shape:
        raise ValueError(f"mechanism config shaped {config.reserves.shape}, instance needs {shape}")
    if bids.bids.shape != shape:
        raise ValueError(f"bids shaped {bids.bids.shape}, instance needs {shape}")


def _unit_price(score: np.ndarray, z: np.ndarray, r: np.ndarray, bid: np.ndarray) -> np.ndarray:
    """clamp(max(score - z, r)): floored at 0, capped at the bid."""
    return np.minimum(np.maximum(np.maximum(score - z, r), 0.0), bid)


def clear(instance: ProblemInstance, config: MechanismConfig, bids: BidProfile) -> Outcome:
    """Clear all auctions at once."""
    _check_shapes(instance, config, bids)
    n, m = instance.n, instance.m
    pos = instance.pos_table  # (m, s_max + 1)
    s_max = pos.shape[1] - 1
    b = bids.bids

    eligible = b >= config.reserves
    masked = np.where(eligible, b + config.boosts, -1.0)  # eligible scores are >= 0, so -1 sorts last
    order = np.argsort(-masked, axis=0, kind="stable")[: s_max + 1]
    ranked = np.maximum(np.take_along_axis(masked, order, axis=0), 0.0)
    # score[j, u]: score of the rank-u eligible bidder of auction j, 0 past the last one
    score = np.vstack([ranked, np.zeros((1, m))])[: s_max + 1].T
    top = order[:s_max].T  # (m, s_max): the bidder ranked k in auction j
    cols = np.arange(m)[:, None]
    slots = instance.slot_array
    filled = (np.arange(s_max) < slots[:, None]) & eligible[top, cols]

    bid = b[top, cols]
    z = config.boosts[top, cols]
    r = config.reserves[top, cols]
    if config.format is AuctionFormat.FPA:
        price = bid * pos[:, :s_max]
    elif config.format is AuctionFormat.GSP:
        price = _unit_price(score[:, 1:], z, r, bid) * pos[:, :s_max]
    else:
        price = np.zeros((m, s_max))
        for u in range(1, s_max + 1):
            # the rank-u score prices every slot above it; past an auction's
            # own slot count the weight difference is 0
            t = _unit_price(score[:, u : u + 1], z[:, :u], r[:, :u], bid[:, :u])
            price[:, :u] += t * (pos[:, u - 1] - pos[:, u])[:, None]

    js, ks = np.nonzero(filled)
    payments = np.zeros((n, m))
    payments[top[js, ks], js] = price[js, ks]
    return Outcome(np.where(filled, top, -1), payments, slots)


def opt_welfare(instance: ProblemInstance) -> float:
    """Welfare of the value-sorted allocation: top slots to top values."""
    instance.require_valid()
    # one sort for all auctions; row j holds auction j's values, largest first
    top = np.ascontiguousarray(-np.sort(-instance.values, axis=0).T)
    total = 0.0
    for row, p in zip(top, instance.pos):
        total += float(np.dot(row[: len(p)], p))  # np.dot fixes the summation order
    return total


def top_value_bidders(instance: ProblemInstance) -> np.ndarray:
    """Boolean (n, m) mask: value ranks in the top slots[j] of its auction.

    Ties resolve to the lower bidder index, matching the clearing tie-break.
    """
    n, m = instance.n, instance.m
    mask = np.zeros((n, m), dtype=bool)
    order = np.argsort(-instance.values, axis=0, kind="stable")
    for j in range(m):
        mask[order[: instance.slots[j], j], j] = True
    return mask


def welfare_per_bidder(instance: ProblemInstance, outcome: Outcome) -> np.ndarray:
    """Value each bidder receives from the allocation, summed auction by auction."""
    js, ks = np.nonzero(outcome.winners >= 0)
    w = outcome.winners[js, ks]
    gain = instance.values[w, js] * instance.pos_table[js, ks]
    return np.bincount(w, weights=gain, minlength=instance.n)


def revenue_per_bidder(outcome: Outcome) -> np.ndarray:
    return outcome.payments.sum(axis=1)


def welfare(instance: ProblemInstance, outcome: Outcome) -> float:
    return float(welfare_per_bidder(instance, outcome).sum())


def revenue(outcome: Outcome) -> float:
    return float(outcome.payments.sum())
