"""Shared generators for randomized tests."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from auctionkit import AuctionFormat, BidProfile, MechanismConfig, ProblemInstance


def random_instance(rng, n_max=4, m_max=3, s_max=3, allow_zero_values=True):
    """Small random instance with strictly decreasing click weights."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    slots = [int(rng.integers(1, min(s_max, n) + 1)) for _ in range(m)]
    values = rng.uniform(0.0, 10.0, size=(n, m))
    if allow_zero_values:
        values[rng.random((n, m)) < 0.2] = 0.0
    pos = []
    for s in slots:
        raw = np.sort(rng.uniform(0.05, 1.0, size=s))[::-1]
        # force strict decrease so slot order is meaningful
        p = raw * np.power(0.95, np.arange(s))
        pos.append(p)
    return ProblemInstance(n, m, slots, values, pos)


def random_config(rng, instance, with_reserves=True, with_boosts=True):
    n, m = instance.n, instance.m
    fmt = [AuctionFormat.VCG, AuctionFormat.GSP, AuctionFormat.FPA][int(rng.integers(0, 3))]
    reserves = rng.uniform(0.0, 5.0, size=(n, m)) if with_reserves else None
    boosts = rng.uniform(0.0, 3.0, size=(n, m)) if with_boosts else None
    return MechanismConfig(fmt, n, m, reserves, boosts)


def random_bids(rng, instance):
    return BidProfile(rng.uniform(0.0, 12.0, size=(instance.n, instance.m)))


def lemma_trial(rng, n_max=5, m_max=4):
    """Random VCG setting satisfying all five bound preconditions.

    Reserves sit exactly at beta * v, boosts are drawn inside [mu*v, nu*v),
    and bids are truthful or mildly above.  Trials violating any
    precondition (above-value bids can break the payment-within-value
    condition) are rejected and redrawn.
    """
    from auctionkit import (
        LemmaParams,
        check_lemma1_preconditions,
        clear,
        opt_welfare,
    )

    while True:
        inst = random_instance(rng, n_max=n_max, m_max=m_max)
        if opt_welfare(inst) <= 0.0:
            continue
        beta = float(rng.uniform(0.0, 0.9))
        if rng.random() < 0.5:
            nu = float(rng.uniform(0.1, 1.5))
            mu = float(rng.uniform(0.0, 0.99 * nu))
        else:
            mu = nu = 0.0
        params = LemmaParams(alpha=1.0, beta=beta, mu=mu, nu=nu)
        v = inst.values
        reserves = beta * v
        if nu > 0.0:
            factor = mu + rng.random(v.shape) * (nu - mu)
            boosts = np.minimum(factor * v, np.nextafter(nu * v, 0.0))
        else:
            boosts = np.zeros_like(v)
        config = MechanismConfig(AuctionFormat.VCG, inst.n, inst.m, reserves, boosts)
        scale = np.ones(inst.n)
        above = rng.random(inst.n) < 0.3
        scale[above] += rng.uniform(0.0, 0.5, size=int(above.sum()))
        bids = BidProfile(scale[:, None] * v)
        outcome = clear(inst, config, bids)
        report = check_lemma1_preconditions(inst, config, bids, outcome, params)
        if report.ok:
            return inst, config, bids, outcome, params
