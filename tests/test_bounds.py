"""Bound formulas, precondition diagnostics, signal sampling, and
tight-instance reproduction."""

import numpy as np
import pytest

from auctionkit import (
    COROLLARIES,
    AuctionFormat,
    BidProfile,
    LemmaParams,
    MechanismConfig,
    Outcome,
    ProblemInstance,
    SignalBand,
    assert_corollary,
    check_lemma1_preconditions,
    clear,
    lemma1_bounds,
    opt_welfare,
    overlap_partition,
    revenue,
    revenue_per_bidder,
    sample_signals,
    tight_instance,
    welfare,
    welfare_per_bidder,
)
from conftest import lemma_trial, random_instance

GAMMAS = [0.1, 0.3, 0.5, 0.7, 0.9]


class TestLemma1Bounds:
    def test_reserve_only_params(self):
        rev, wel = lemma1_bounds(LemmaParams(alpha=1.0, beta=0.5))
        assert rev == pytest.approx(0.5, abs=1e-12)
        assert wel == pytest.approx(1.0 / 1.5, abs=1e-12)

    def test_boost_only_params(self):
        g = 0.5
        rev, wel = lemma1_bounds(
            LemmaParams(alpha=1.0, beta=0.0, mu=g / (1 - g), nu=1 / (1 - g))
        )
        assert rev == 0.0
        assert wel == pytest.approx(1.0 / (2 - g), abs=1e-12)

    def test_reserve_and_boost_params(self):
        rev, wel = lemma1_bounds(LemmaParams(alpha=1.0, beta=0.5, mu=0.5, nu=1.0))
        assert rev == pytest.approx(0.5, abs=1e-12)
        assert wel == pytest.approx(0.75, abs=1e-12)

    def test_reserve_floor_bid_params(self):
        rev, wel = lemma1_bounds(LemmaParams(alpha=0.5, beta=0.5))
        assert rev == pytest.approx(0.5, abs=1e-12)
        assert wel == pytest.approx(0.5, abs=1e-12)

    def test_no_signal_revenue_convention(self):
        rev, wel = lemma1_bounds(LemmaParams(alpha=1.0, beta=0.0))
        assert rev == 0.0
        assert wel == 0.5

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LemmaParams(alpha=-0.1, beta=0.0)
        with pytest.raises(ValueError):
            LemmaParams(alpha=1.0, beta=0.0, mu=0.5, nu=0.2)

    def test_monotonicity(self):
        grid = np.linspace(0.0, 1.2, 7)
        for alpha in grid:
            for nu in grid:
                for mu in grid[grid <= nu]:
                    revs = [lemma1_bounds(LemmaParams(alpha, b, mu, nu))[0] for b in grid]
                    assert all(x <= y + 1e-15 for x, y in zip(revs, revs[1:]))
        for beta in grid:
            for nu in grid:
                wels = [
                    lemma1_bounds(LemmaParams(a, beta, min(0.3, nu), nu))[1] for a in grid
                ]
                assert all(x <= y + 1e-15 for x, y in zip(wels, wels[1:]))

    def test_bound_ordering_across_gamma(self):
        # reserve+boost beats reserve-or-boost alone beats the bid-floor pair
        for g in np.linspace(0.01, 0.99, 50):
            assert (1 + g) / 2 > 1 / (2 - g) > g


class TestCorollaryRegistry:
    def test_table_values(self):
        for g in GAMMAS:
            for ident, spec in COROLLARIES.items():
                rev, wel = spec.promised(g)
                if ident in (1, 2):
                    assert abs(wel - 1 / (2 - g)) <= 1e-12
                elif ident in (3, 5):
                    assert abs(wel - (1 + g) / 2) <= 1e-12
                else:
                    assert abs(wel - g) <= 1e-12
                assert abs(rev - (0.0 if ident == 2 else g)) <= 1e-12

    def test_formats(self):
        assert COROLLARIES[1].format is AuctionFormat.VCG
        assert COROLLARIES[4].format is AuctionFormat.GSP
        assert COROLLARIES[5].format is AuctionFormat.GSP
        assert COROLLARIES[6].format is AuctionFormat.FPA

    def test_corollary2_band_diverges_at_one(self):
        with pytest.raises(ValueError):
            COROLLARIES[2].params(1.0)


def truthful_vcg_setting(rng, gamma):
    inst = random_instance(rng, allow_zero_values=False)
    config = MechanismConfig(
        AuctionFormat.VCG, inst.n, inst.m, reserves=gamma * inst.values
    )
    bids = BidProfile(inst.values)
    return inst, config, bids, clear(inst, config, bids)


class TestPreconditions:
    def test_truthful_vcg_all_hold(self):
        rng = np.random.default_rng(31)
        params = LemmaParams(alpha=1.0, beta=0.4)
        for _ in range(50):
            inst, config, bids, out = truthful_vcg_setting(rng, 0.4)
            report = check_lemma1_preconditions(inst, config, bids, out, params)
            assert report.ok, report.to_dict()

    def test_low_bid_on_top_value_reported(self):
        inst = ProblemInstance(2, 1, [1], [[4.0], [1.0]], [[1.0]])
        config = MechanismConfig(AuctionFormat.VCG, 2, 1)
        bids = BidProfile([[2.0], [1.0]])
        out = clear(inst, config, bids)
        report = check_lemma1_preconditions(
            inst, config, bids, out, LemmaParams(alpha=1.0, beta=0.0)
        )
        check = report["bid_lower_bound"]
        assert not check.ok
        assert "bidder 0" in check.detail and "auction 0" in check.detail

    def test_gsp_payments_clear_vcg_floor(self):
        rng = np.random.default_rng(32)
        params = LemmaParams(alpha=1.0, beta=0.3)
        for _ in range(50):
            inst = random_instance(rng, allow_zero_values=False)
            config = MechanismConfig(
                AuctionFormat.GSP, inst.n, inst.m, reserves=0.3 * inst.values
            )
            bids = BidProfile(inst.values)
            out = clear(inst, config, bids)
            report = check_lemma1_preconditions(inst, config, bids, out, params)
            assert report["vcg_price_floor"].ok

    def test_reserve_below_beta_detected(self):
        inst = ProblemInstance(1, 1, [1], [[2.0]], [[1.0]])
        config = MechanismConfig(AuctionFormat.VCG, 1, 1, reserves=[[0.1]])
        bids = BidProfile([[2.0]])
        out = clear(inst, config, bids)
        report = check_lemma1_preconditions(
            inst, config, bids, out, LemmaParams(alpha=1.0, beta=0.5)
        )
        assert not report["signal_bands"].ok

    def test_boost_at_band_top_detected(self):
        inst = ProblemInstance(1, 1, [1], [[2.0]], [[1.0]])
        config = MechanismConfig(AuctionFormat.VCG, 1, 1, boosts=[[2.0]])
        bids = BidProfile([[2.0]])
        out = clear(inst, config, bids)
        report = check_lemma1_preconditions(
            inst, config, bids, out, LemmaParams(alpha=1.0, beta=0.0, mu=0.5, nu=1.0)
        )
        assert not report["signal_bands"].ok

    def test_foreign_allocation_detected(self):
        inst = ProblemInstance(2, 1, [1], [[4.0], [1.0]], [[1.0]])
        config = MechanismConfig(AuctionFormat.VCG, 2, 1)
        bids = BidProfile(inst.values)
        fake = Outcome([[1]], np.array([[0.0], [0.5]]), [1])
        report = check_lemma1_preconditions(
            inst, config, bids, fake, LemmaParams(alpha=1.0, beta=0.0)
        )
        assert not report["score_ranking"].ok
        assert report["score_ranking"].detail == "auction 0: expected winners [0], got [1]"

    def test_payment_above_value_detected(self):
        inst = ProblemInstance(1, 1, [1], [[1.0]], [[1.0]])
        config = MechanismConfig(AuctionFormat.VCG, 1, 1)
        bids = BidProfile([[1.0]])
        fake = Outcome([[0]], np.array([[2.0]]), [1])
        report = check_lemma1_preconditions(
            inst, config, bids, fake, LemmaParams(alpha=1.0, beta=0.0)
        )
        assert not report["payment_within_value"].ok


def in_band_config(rng, inst, ident, gamma):
    """Reserves/boosts matching a registry entry's bands."""
    spec = COROLLARIES[ident]
    reserves, boosts = sample_signals(inst, spec.band(gamma), rng.integers(0, 2**31, size=2).tolist())
    return MechanismConfig(spec.format, inst.n, inst.m, reserves, boosts)


class TestAssertCorollary:
    def test_corollary1_bounds_at_07(self):
        rng = np.random.default_rng(33)
        inst, config, bids, out = truthful_vcg_setting(rng, 0.7)
        report = assert_corollary(inst, config, out, 1, 0.7, bids)
        assert report.wel_bound == pytest.approx(1 / 1.3, abs=1e-12)
        assert report.rev_bound == pytest.approx(0.7, abs=1e-12)
        assert report.passed, report.to_dict()

    def test_format_mismatch_raises(self):
        rng = np.random.default_rng(34)
        inst, config, bids, out = truthful_vcg_setting(rng, 0.5)
        with pytest.raises(ValueError):
            assert_corollary(inst, config, out, 4, 0.5, bids)

    def test_band_violation_raises(self):
        inst = ProblemInstance(1, 1, [1], [[2.0]], [[1.0]])
        config = MechanismConfig(AuctionFormat.VCG, 1, 1, reserves=[[0.1]])
        bids = BidProfile([[2.0]])
        out = clear(inst, config, bids)
        with pytest.raises(ValueError):
            assert_corollary(inst, config, out, 1, 0.5, bids)

    def test_unknown_id_raises(self):
        inst = ProblemInstance(1, 1, [1], [[2.0]], [[1.0]])
        config = MechanismConfig(AuctionFormat.VCG, 1, 1)
        bids = BidProfile([[2.0]])
        out = clear(inst, config, bids)
        with pytest.raises(ValueError):
            assert_corollary(inst, config, out, 7, 0.5, bids)

    def test_full_value_payments_pass_everywhere(self):
        # efficient allocation at truthful bids, charged full value:
        # ratios are 1, above every promise
        rng = np.random.default_rng(35)
        for ident in COROLLARIES:
            inst = random_instance(rng, allow_zero_values=False)
            config = in_band_config(rng, inst, ident, 0.5)
            bids = BidProfile(inst.values)
            out = clear(inst, config, bids)
            full = np.zeros_like(inst.values)
            for j, w in enumerate(out.winners):
                for k, i in enumerate(w):
                    if i >= 0:
                        full[i, j] += inst.values[i, j] * inst.pos[j][k]
            paid = Outcome(out.winners, full, out.slots)
            report = assert_corollary(inst, config, paid, ident, 0.5, bids)
            assert report.passed, (ident, report.to_dict())


class TestSampleSignals:
    def test_reserve_in_band(self):
        rng = np.random.default_rng(36)
        inst = random_instance(rng, n_max=10, m_max=10)
        for k, gamma in enumerate([0.0, 0.3, 0.99]):
            r, z = sample_signals(inst, SignalBand(gamma, reserve=True), [36, k])
            v = inst.values
            assert np.all(r[v > 0] >= gamma * v[v > 0])
            assert np.all(r[v > 0] < v[v > 0])
            assert np.all(r[v == 0] == 0.0)
            assert not z.any()

    def test_boost_in_band(self):
        rng = np.random.default_rng(37)
        inst = random_instance(rng, n_max=10, m_max=10)
        for k, gamma in enumerate([0.0, 0.5, 0.99]):
            band = SignalBand(gamma, boost="1/(1-gamma)")
            r, z = sample_signals(inst, band, [37, k])
            scale = band.boost_scale
            v = inst.values
            assert np.all(z[v > 0] >= gamma * scale * v[v > 0])
            assert np.all(z[v > 0] < scale * v[v > 0])
            assert np.all(z[v == 0] == 0.0)
            assert not r.any()

    def test_perfect_signal_is_refused(self):
        # at gamma = 1 the band [gamma*v, v) holds no value to draw
        for boost in (None, "1", "1/(1-gamma)"):
            with pytest.raises(ValueError, match=r"^gamma = 1 leaves the signal band \[gamma\*v, v\) empty$"):
                SignalBand(1.0, reserve=True, boost=boost)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(38)
        inst = random_instance(rng)
        band = SignalBand(0.4, reserve=True, boost="1")
        a = sample_signals(inst, band, [123])
        b = sample_signals(inst, band, [123])
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_many_draws_stay_in_band(self):
        inst = ProblemInstance(2, 2, [1, 1], [[1.0, 5.0], [2.0, 0.0]], [[1.0], [1.0]])
        band = SignalBand(0.6, reserve=True)
        for seed in range(2500):
            r, _ = sample_signals(inst, band, [seed])
            v = inst.values
            assert np.all((r[v > 0] >= 0.6 * v[v > 0]) & (r[v > 0] < v[v > 0]))


class TestEndToEndBound:
    def test_random_trials_beat_promise(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            inst, config, bids, outcome, params = lemma_trial(rng)
            rev_bound, wel_bound = lemma1_bounds(params)
            opt = opt_welfare(inst)
            assert welfare(inst, outcome) / opt >= wel_bound - 1e-9
            assert revenue(outcome) / opt >= rev_bound - 1e-9


class TestTightInstances:
    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("kind", ["reserve_only", "boost_only", "reserve_and_boost"])
    def test_welfare_ratio_attained(self, kind, gamma):
        tight = tight_instance(kind, gamma, 1e-3)
        out = clear(tight.instance, tight.config, tight.bids)
        ratio = welfare(tight.instance, out) / opt_welfare(tight.instance)
        assert abs(ratio - tight.expected_ratio) <= 2e-3

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7])
    def test_revenue_single_exact(self, gamma):
        tight = tight_instance("revenue_single", gamma, 1e-3)
        out = clear(tight.instance, tight.config, tight.bids)
        assert revenue(out) / opt_welfare(tight.instance) == gamma

    @pytest.mark.parametrize("kind", ["reserve_only", "boost_only", "reserve_and_boost"])
    def test_adversary_wins_both_and_keeps_ros(self, kind):
        tight = tight_instance(kind, 0.5, 1e-3)
        out = clear(tight.instance, tight.config, tight.bids)
        assert [w.tolist() for w in out.winners] == [[0], [0]]
        wel_i = welfare_per_bidder(tight.instance, out)
        rev_i = revenue_per_bidder(out)
        assert rev_i[0] <= wel_i[0]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            tight_instance("reserve_only", 0.0, 1e-3)
        with pytest.raises(ValueError):
            tight_instance("reserve_only", 0.5, 0.0)
        with pytest.raises(ValueError):
            tight_instance("nonsense", 0.5, 1e-3)


class TestOverlapPartition:
    def test_set_sizes(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            inst = random_instance(rng)
            from conftest import random_bids, random_config

            config = random_config(rng, inst)
            out = clear(inst, config, random_bids(rng, inst))
            part = overlap_partition(inst, out)
            for j in range(inst.m):
                col = inst.values[:, j]
                for k in range(1, inst.slots[j] + 1):
                    assert len(part.allocated[j, k]) <= k
                    assert len(part.optimal[j, k]) == min(k, int((col > 0).sum()))
                    assert part.common(j, k) <= part.allocated[j, k]
                    full = len(part.allocated[j, k]) == k == len(part.optimal[j, k])
                    if full:
                        assert len(part.only_allocated(j, k)) == len(part.only_optimal(j, k))
