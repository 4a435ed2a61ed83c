"""Clearing engine tests: frozen worked examples, oracle cross-checks,
bit-identity with the oracle, and pricing invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionkit import (
    AuctionFormat,
    BidProfile,
    MechanismConfig,
    ProblemInstance,
    clear,
    opt_welfare,
    revenue,
    top_value_bidders,
    welfare,
    welfare_per_bidder,
)
from conftest import random_bids, random_config, random_instance
from oracle import oracle_clear, oracle_opt_welfare


def one_auction(pos, values):
    n = len(values)
    return ProblemInstance(n, 1, [len(pos)], np.array(values)[:, None], [pos])


def plain(fmt, n, m=1):
    return MechanismConfig(fmt, n, m)


def oracle_outcome(inst, config, bids):
    """The oracle's winners in the dense (m, s_max) layout padded with -1,
    and its payments."""
    winners, payments = oracle_clear(
        inst.n,
        inst.m,
        list(inst.slots),
        [p.tolist() for p in inst.pos],
        config.format.value,
        config.reserves.tolist(),
        config.boosts.tolist(),
        bids.bids.tolist(),
    )
    dense = np.full((inst.m, max(inst.slots)), -1, dtype=np.int64)
    for j, w in enumerate(winners):
        dense[j, : len(w)] = w
    return dense, np.array(payments)


class TestWorkedExamples:
    """Hand-computed outcomes, frozen."""

    def setup_method(self):
        self.inst = one_auction([1.0, 0.4], [5.0, 3.0, 2.0])
        self.bids = BidProfile(np.array([[5.0], [3.0], [2.0]]))

    def test_gsp_prices(self):
        out = clear(self.inst, plain(AuctionFormat.GSP, 3), self.bids)
        assert out.winners[0].tolist() == [0, 1]
        assert out.payments[:, 0].tolist() == [3.0 * 1.0, 2.0 * 0.4, 0.0]

    def test_vcg_prices(self):
        out = clear(self.inst, plain(AuctionFormat.VCG, 3), self.bids)
        # slot 1: 3*(1.0-0.4) + 2*(0.4-0) = 2.6; slot 2: 2*(0.4-0) = 0.8
        assert out.payments[0, 0] == pytest.approx(2.6, abs=1e-12)
        assert out.payments[1, 0] == pytest.approx(0.8, abs=1e-12)
        assert out.payments[2, 0] == 0.0

    def test_fpa_prices(self):
        out = clear(self.inst, plain(AuctionFormat.FPA, 3), self.bids)
        assert out.payments[:, 0].tolist() == [5.0, 3.0 * 0.4, 0.0]

    def test_payment_order_at_equal_bids(self):
        outs = [clear(self.inst, plain(f, 3), self.bids) for f in AuctionFormat]
        rev_vcg, rev_gsp, rev_fpa = (revenue(o) for o in outs)
        assert rev_vcg <= rev_gsp <= rev_fpa

    def test_single_bidder_reserve_and_boost(self):
        inst = one_auction([1.0], [5.0])
        config = MechanismConfig(AuctionFormat.VCG, 1, 1, reserves=[[2.0]], boosts=[[1.0]])
        out = clear(inst, config, BidProfile([[5.0]]))
        # no runner-up: unit price is max(0 - 1, 2) = 2 on the whole slot
        assert out.winners[0].tolist() == [0]
        assert out.payments[0, 0] == 2.0

    def test_reserve_gates_eligibility(self):
        inst = one_auction([1.0, 0.4], [5.0, 3.0, 2.0])
        config = MechanismConfig(
            AuctionFormat.GSP, 3, 1, reserves=[[6.0], [0.0], [0.0]]
        )
        out = clear(inst, config, self.bids)
        # top bidder priced out entirely; remaining two shift up
        assert out.winners[0].tolist() == [1, 2]
        assert out.payments[0, 0] == 0.0

    def test_boost_changes_ranking_but_not_fpa_price(self):
        config = MechanismConfig(
            AuctionFormat.FPA, 3, 1, boosts=[[0.0], [3.0], [0.0]]
        )
        out = clear(self.inst, config, self.bids)
        # scores 5, 6, 2: boosted bidder tops the ranking but pays own bid
        assert out.winners[0].tolist() == [1, 0]
        assert out.payments[1, 0] == 3.0 * 1.0
        assert out.payments[0, 0] == 5.0 * 0.4

    def test_tie_goes_to_lower_index(self):
        bids = BidProfile(np.array([[3.0], [3.0], [3.0]]))
        out = clear(self.inst, plain(AuctionFormat.GSP, 3), bids)
        assert out.winners[0].tolist() == [0, 1]

    def test_opt_welfare_example(self):
        assert opt_welfare(self.inst) == pytest.approx(5.0 + 3.0 * 0.4, abs=1e-12)

    def test_empty_auction_when_nobody_clears_reserve(self):
        config = MechanismConfig(AuctionFormat.VCG, 3, 1, reserves=np.full((3, 1), 10.0))
        out = clear(self.inst, config, self.bids)
        assert out.winners[0].tolist() == [-1, -1]
        assert revenue(out) == 0.0


class TestOracleEquivalence:
    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            inst = random_instance(rng)
            config = random_config(rng, inst)
            bids = random_bids(rng, inst)
            got = clear(inst, config, bids)
            winners, payments = oracle_outcome(inst, config, bids)
            assert np.array_equal(got.winners, winners), (inst.to_dict(), config.to_dict())
            assert np.array_equal(got.payments, payments)

    def test_opt_welfare_matches_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            inst = random_instance(rng)
            expect = oracle_opt_welfare(
                inst.n, inst.m, list(inst.slots), [p.tolist() for p in inst.pos], inst.values.tolist()
            )
            assert opt_welfare(inst) == pytest.approx(expect, rel=1e-12)


def loop_opt_welfare(inst):
    """The per-auction loop opt_welfare replaced, kept as the bits to match."""
    total = 0.0
    for j in range(inst.m):
        top = -np.sort(-inst.values[:, j])[: inst.slots[j]]
        total += float(np.dot(top, inst.pos[j]))
    return total


class TestOptWelfareMatchesLoop:
    def test_random_instances(self):
        rng = np.random.default_rng(11)
        for k in range(2000):
            inst = random_instance(rng, n_max=24, m_max=12, s_max=12)
            if k % 2:  # exact value ties, with the zeros stored as -0.0 in half of them
                values = np.round(inst.values)
                if k % 4 == 3:
                    values[values == 0] = -0.0
                inst = ProblemInstance(inst.n, inst.m, inst.slots, values, inst.pos)
            assert opt_welfare(inst).hex() == loop_opt_welfare(inst).hex(), inst.to_dict()

    def test_wide_market(self):
        rng = np.random.default_rng(12)
        n, m = 20, 1000
        values = rng.lognormal(0.0, 0.5, size=n)[:, None] * rng.lognormal(0.0, 1.0, size=(n, m))
        values[rng.random((n, m)) < 0.3] = 0.0
        slots = rng.integers(1, 5, size=m)
        inst = ProblemInstance(n, m, slots, values, [0.5 ** np.arange(s, dtype=np.float64) for s in slots])
        assert opt_welfare(inst).hex() == loop_opt_welfare(inst).hex()


class TestBatchEquality:
    """The vectorized engine is bit-identical to the per-auction oracle."""

    def test_batch_bit_identical_to_reference(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            inst = random_instance(rng, n_max=6, m_max=5)
            config = random_config(rng, inst)
            bids = random_bids(rng, inst)
            out = clear(inst, config, bids)
            winners, payments = oracle_outcome(inst, config, bids)
            assert np.array_equal(out.winners, winners)
            assert np.array_equal(out.payments, payments)

    def test_batch_on_wide_instance(self):
        rng = np.random.default_rng(10)
        n, m = 8, 400
        slots = rng.integers(1, 5, size=m).tolist()
        values = rng.uniform(0, 10, size=(n, m))
        pos = [np.power(0.6, np.arange(s)) for s in slots]
        inst = ProblemInstance(n, m, slots, values, pos)
        config = MechanismConfig(
            AuctionFormat.VCG, n, m,
            reserves=rng.uniform(0, 3, size=(n, m)),
            boosts=rng.uniform(0, 2, size=(n, m)),
        )
        bids = BidProfile(rng.uniform(0, 12, size=(n, m)))
        out = clear(inst, config, bids)
        winners, payments = oracle_outcome(inst, config, bids)
        assert np.array_equal(out.winners, winners)
        assert np.array_equal(out.payments, payments)


class TestInvariants:
    def test_payment_never_exceeds_bid_times_weight(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            inst = random_instance(rng)
            config = random_config(rng, inst)
            bids = random_bids(rng, inst)
            out = clear(inst, config, bids)
            for j, w in enumerate(out.winners):
                for k, i in enumerate(w):
                    if i >= 0:
                        cap = bids.bids[i, j] * inst.pos[j][k]
                        assert out.payments[i, j] <= cap + 1e-12
            # non-winners never pay
            winner_set = {(int(i), j) for j, w in enumerate(out.winners) for i in w if i >= 0}
            for i in range(inst.n):
                for j in range(inst.m):
                    if (i, j) not in winner_set:
                        assert out.payments[i, j] == 0.0

    def test_welfare_bounded_by_opt(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            inst = random_instance(rng)
            config = random_config(rng, inst)
            bids = random_bids(rng, inst)
            out = clear(inst, config, bids)
            assert welfare(inst, out) <= opt_welfare(inst) + 1e-9

    def test_truthful_unreserved_clearing_is_efficient(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            inst = random_instance(rng, allow_zero_values=False)
            config = MechanismConfig(AuctionFormat.VCG, inst.n, inst.m)
            out = clear(inst, config, BidProfile(inst.values))
            assert welfare(inst, out) == pytest.approx(opt_welfare(inst), rel=1e-12)

    def test_ranked_view_matches_clearing(self):
        """Filled slots hold eligible bidders in nonincreasing score order;
        unfilled and missing slots hold -1."""
        rng = np.random.default_rng(14)
        for _ in range(50):
            inst = random_instance(rng, n_max=5, m_max=3)
            config = random_config(rng, inst)
            bids = random_bids(rng, inst)
            out = clear(inst, config, bids)
            eligible = bids.bids >= config.reserves
            scores = bids.bids + config.boosts
            assert out.winners.shape == (inst.m, max(inst.slots))
            assert out.slots == inst.slots
            for j in range(inst.m):
                nwin = min(inst.slots[j], int(eligible[:, j].sum()))
                filled = out.winners[j, :nwin]
                assert np.all(filled >= 0) and np.all(eligible[filled, j])
                assert np.all(np.diff(scores[filled, j]) <= 0)
                assert np.all(out.winners[j, nwin:] == -1)

    def test_top_value_mask_tie_break(self):
        inst = one_auction([1.0], [2.0, 2.0])
        mask = top_value_bidders(inst)
        assert mask[:, 0].tolist() == [True, False]

    def test_welfare_per_bidder_sums(self):
        rng = np.random.default_rng(15)
        inst = random_instance(rng)
        config = random_config(rng, inst)
        bids = random_bids(rng, inst)
        out = clear(inst, config, bids)
        assert welfare(inst, out) == pytest.approx(welfare_per_bidder(inst, out).sum(), rel=1e-12)


@st.composite
def small_setting(draw):
    n = draw(st.integers(1, 4))
    s = draw(st.integers(1, min(2, n)))
    vals = draw(st.lists(st.floats(0, 10, allow_nan=False), min_size=n, max_size=n))
    bids = draw(st.lists(st.floats(0, 10, allow_nan=False), min_size=n, max_size=n))
    top = draw(st.floats(0.1, 1.0, allow_nan=False))
    pos = [top * (0.5 ** k) for k in range(s)]
    inst = ProblemInstance(n, 1, [s], np.array(vals)[:, None], [pos])
    return inst, BidProfile(np.array(bids)[:, None])


@settings(max_examples=150, deadline=None)
@given(small_setting())
def test_format_payment_ordering_property(setting):
    """With no reserves or boosts, VCG <= GSP <= FPA payment, per winner."""
    inst, bids = setting
    outs = {f: clear(inst, plain(f, inst.n), bids) for f in AuctionFormat}
    for i in range(inst.n):
        p_vcg = outs[AuctionFormat.VCG].payments[i, 0]
        p_gsp = outs[AuctionFormat.GSP].payments[i, 0]
        p_fpa = outs[AuctionFormat.FPA].payments[i, 0]
        assert p_vcg <= p_gsp + 1e-12
        assert p_gsp <= p_fpa + 1e-12


@settings(max_examples=150, deadline=None)
@given(small_setting(), st.floats(0.01, 5.0, allow_nan=False))
def test_raising_own_bid_never_worsens_rank(setting, bump):
    inst, bids = setting
    config = plain(AuctionFormat.GSP, inst.n)
    before = clear(inst, config, bids)
    raised = bids.bids.copy()
    raised[0, 0] += bump
    after = clear(inst, config, BidProfile(raised))

    def rank(out):
        w = out.winners[0].tolist()
        return w.index(0) if 0 in w else len(w) + 1

    assert rank(after) <= rank(before)
