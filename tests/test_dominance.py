"""Grid-relative dominance: worked examples, relation laws, closure grid
adequacy, and the bid-floor lemma checks at desk scale."""

import itertools

import numpy as np
import pytest

from auctionkit import (
    AuctionFormat,
    BidGrid,
    BidProfile,
    MechanismConfig,
    ProblemInstance,
    build_closure_grid,
    clear,
    dominates,
    evaluate_profiles,
    is_undominated,
    opt_welfare,
    revenue_per_bidder,
    run_lemma_check,
    tight_instance,
    undominated_set,
    verify_bid_lower_bounds,
    welfare_per_bidder,
)
from auctionkit import dominance
from auctionkit.dominance import DEFAULT_MULTIPLIERS, _payoff_tensors, _undominated_mask

from conftest import random_config, random_instance


def lemma_setting(rng, kind):
    """2x2 single-slot instance with in-hypothesis signals for a lemma kind."""
    vals = rng.uniform(0.05, 3.0, size=(2, 2))
    inst = ProblemInstance(2, 2, [1, 1], vals, [[1.0], [1.0]])
    gamma = rng.uniform(0.1, 0.9)
    c = rng.uniform(0.05, 0.95)
    if kind == "gsp":
        cfg = MechanismConfig(AuctionFormat.GSP, 2, 2, reserves=gamma * vals)
    elif kind == "fpa":
        cfg = MechanismConfig(AuctionFormat.FPA, 2, 2, reserves=gamma * vals)
    elif kind == "vcg":
        cfg = MechanismConfig(AuctionFormat.VCG, 2, 2, reserves=gamma * vals,
                              boosts=c * vals)
    elif kind == "gsp-uniform":
        cfg = MechanismConfig(AuctionFormat.GSP, 2, 2, reserves=gamma * vals,
                              boosts=c * vals)
    else:
        raise ValueError(kind)
    return inst, cfg


class TestWorkedExamples:
    def test_fpa_below_reserve_dominated_by_reserve(self):
        inst = ProblemInstance(2, 1, [1], [[1.0], [0.6]], [[1.0]])
        cfg = MechanismConfig(AuctionFormat.FPA, 2, 1, reserves=[[0.4], [0.0]])
        grid = build_closure_grid(inst, cfg)
        v = dominates(inst, cfg, 0.0, 0, [0.3], [0.4], grid)
        assert v.dominates
        assert v.reason == "strictly_better"
        assert v.witness is not None
        assert v.verify(inst, cfg)

    def test_identical_vectors_never_dominate(self):
        inst = ProblemInstance(2, 1, [1], [[1.0], [0.6]], [[1.0]])
        cfg = MechanismConfig(AuctionFormat.FPA, 2, 1, reserves=[[0.4], [0.0]])
        grid = build_closure_grid(inst, cfg)
        v = dominates(inst, cfg, 0.0, 0, [0.3], [0.3], grid)
        assert not v.dominates
        assert v.reason == "no_strict_improvement"
        assert v.witness is None
        assert v.verify(inst, cfg)

    def test_vcg_overbid_not_dominating_when_it_overpays(self):
        # opponent level 1.5: bidding 2 wins at price 1.5 > value 1, so the
        # ROS-safe bid of 1 is strictly better there
        inst = ProblemInstance(2, 1, [1], [[1.0], [1.5]], [[1.0]])
        cfg = MechanismConfig(AuctionFormat.VCG, 2, 1)
        grid = BidGrid(((np.array([1.0, 2.0]),), (np.array([1.5]),)))
        v = dominates(inst, cfg, 0.0, 0, [1.0], [2.0], grid)
        assert not v.dominates
        assert v.reason == "req1_violated"
        assert v.witness[1, 0] == 1.5
        assert v.verify(inst, cfg)

    def test_single_bidder_grid_excludes_zero_keeps_value(self):
        inst = ProblemInstance(1, 1, [1], [[1.0]], [[1.0]])
        cfg = MechanismConfig(AuctionFormat.VCG, 1, 1, reserves=[[0.5]])
        grid = build_closure_grid(inst, cfg, extra_levels=[(0, 0, 1.5)])
        res = undominated_set(inst, cfg, [0.0], grid)
        kept = set(res.per_bidder[0].ravel().tolist())
        assert kept == {0.5, 1.0, 1.5}
        assert 0.0 not in kept
        # all three clear the pays-at-most-welfare filter
        assert sorted(res.theta[:, 0, 0].tolist()) == [0.5, 1.0, 1.5]


class TestRelationLaws:
    def test_irreflexive_and_asymmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            inst, cfg = lemma_setting(rng, "gsp")
            grid = build_closure_grid(inst, cfg)
            i = int(rng.integers(2))
            pool = list(itertools.product(*[lv.tolist() for lv in grid.levels[i]]))
            picks = rng.choice(len(pool), size=min(4, len(pool)), replace=False)
            for a in picks:
                va = np.array(pool[a])
                assert not dominates(inst, cfg, 0.0, i, va, va, grid).dominates
                for b in picks:
                    if a == b:
                        continue
                    vb = np.array(pool[b])
                    fwd = dominates(inst, cfg, 0.0, i, va, vb, grid).dominates
                    bwd = dominates(inst, cfg, 0.0, i, vb, va, grid).dominates
                    assert not (fwd and bwd)

    def test_transitive(self):
        rng = np.random.default_rng(11)
        inst, cfg = lemma_setting(rng, "fpa")
        grid = build_closure_grid(inst, cfg)
        i = 0
        pool = [np.array(t) for t in itertools.product(
            *[lv.tolist() for lv in grid.levels[i]])][:12]
        rel = {}
        for a, va in enumerate(pool):
            for b, vb in enumerate(pool):
                if a != b:
                    rel[a, b] = dominates(inst, cfg, 0.0, i, va, vb, grid).dominates
        for a, b, c in itertools.permutations(range(len(pool)), 3):
            if rel[a, b] and rel[b, c]:
                assert rel[a, c], (a, b, c)


class TestClosureGrid:
    def test_contains_base_levels(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, n_max=3, m_max=2)
        cfg = random_config(rng, inst, with_reserves=True, with_boosts=True)
        grid = build_closure_grid(inst, cfg)
        for i in range(inst.n):
            for j in range(inst.m):
                levels = grid.levels[i][j]
                assert 0.0 in levels
                assert cfg.reserves[i, j] in levels
                assert inst.values[i, j] in levels
                assert np.all(np.diff(levels) > 0)  # sorted, unique

    def test_contains_proof_constructions(self):
        inst = ProblemInstance(2, 1, [1], [[2.0], [1.0]], [[1.0]])
        cfg = MechanismConfig(AuctionFormat.VCG, 2, 1,
                              reserves=[[0.5], [0.25]], boosts=[[0.6], [0.1]])
        grid = build_closure_grid(inst, cfg)
        lv1 = grid.levels[1][0]
        # score-matching bid for bidder 0's value, shifted into bidder 1's scale
        assert 2.0 + 0.6 - 0.1 in lv1
        # the literal construction v + z of the receiving bidder
        assert 2.0 + 0.1 in lv1
        # midpoint construction for the base level b = 0 of bidder 0
        assert (2.0 + 0.0) / 2 + 0.6 - 0.1 in lv1

    def test_with_levels_appends_without_reflow(self):
        inst = ProblemInstance(2, 1, [1], [[2.0], [1.0]], [[1.0]])
        cfg = MechanismConfig(AuctionFormat.VCG, 2, 1)
        grid = build_closure_grid(inst, cfg)
        aug = grid.with_levels(0, [77.0])
        assert 77.0 in aug.levels[0][0]
        # no synthetic opponent levels are derived from the appended bid
        assert aug.levels[1][0].tolist() == grid.levels[1][0].tolist()
        with pytest.raises(ValueError):
            grid.with_levels(0, [1.0, 2.0])

    def test_negative_extra_level_rejected(self):
        inst = ProblemInstance(1, 1, [1], [[1.0]], [[1.0]])
        cfg = MechanismConfig(AuctionFormat.VCG, 1, 1)
        with pytest.raises(ValueError):
            build_closure_grid(inst, cfg, extra_levels=[(0, 0, -0.5)])

    def test_multiplier_ladder_levels_present(self):
        inst = ProblemInstance(2, 2, [1, 1], [[2.0, 0.5], [1.0, 1.5]],
                               [[1.0], [1.0]])
        cfg = MechanismConfig(AuctionFormat.GSP, 2, 2)
        grid = build_closure_grid(inst, cfg, multipliers=DEFAULT_MULTIPLIERS)
        assert grid.multipliers == DEFAULT_MULTIPLIERS
        for i in range(2):
            for j in range(2):
                for d in DEFAULT_MULTIPLIERS:
                    assert d * inst.values[i, j] in grid.levels[i][j]


class TestPayoffTensors:
    def test_matches_direct_clearing(self):
        """Tiled per-auction evaluation agrees with clearing full matrices."""
        rng = np.random.default_rng(17)
        inst, cfg = lemma_setting(rng, "vcg")
        grid = build_closure_grid(inst, cfg)
        i = 0
        cands = np.array(list(itertools.product(
            *[lv.tolist() for lv in grid.levels[i]])))
        wel, rev, combos = _payoff_tensors(inst, cfg, i, cands, grid, 10**6)
        sizes = [c.shape[0] for c in combos]
        for _ in range(25):
            a = int(rng.integers(cands.shape[0]))
            flat = int(rng.integers(wel.shape[1]))
            idx = np.unravel_index(flat, sizes)
            bids = np.zeros((2, 2))
            bids[i] = cands[a]
            for j in range(2):
                bids[1 - i, j] = combos[j][idx[j], 0]
            out = clear(inst, cfg, BidProfile(bids))
            assert wel[a, flat] == welfare_per_bidder(inst, out)[i]
            assert rev[a, flat] == revenue_per_bidder(out)[i]

    def test_profile_cap_refuses(self):
        inst = ProblemInstance(2, 3, [1, 1, 1], np.ones((2, 3)),
                               [[1.0], [1.0], [1.0]])
        cfg = MechanismConfig(AuctionFormat.FPA, 2, 3)
        big = tuple(np.linspace(0.0, 1.0, 101) for _ in range(3))
        grid = BidGrid((big, big))
        with pytest.raises(ValueError, match="refus"):
            dominates(inst, cfg, 0.0, 0, [1, 1, 1], [0, 0, 0], grid)

    def test_candidate_cap_refuses(self):
        rng = np.random.default_rng(23)
        inst, cfg = lemma_setting(rng, "gsp")
        grid = build_closure_grid(inst, cfg)
        with pytest.raises(ValueError, match="cap"):
            undominated_set(inst, cfg, [0.0, 0.0], grid, max_candidates=4)


class TestUndominatedSet:
    def test_truthful_survives_vcg_utility_maximizer(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            inst, cfg0 = lemma_setting(rng, "vcg")
            cfg = MechanismConfig(AuctionFormat.VCG, 2, 2)  # no signals
            grid = build_closure_grid(inst, cfg)
            res = undominated_set(inst, cfg, [1.0, 1.0], grid)
            for i in range(2):
                truthful = inst.values[i]
                assert any(np.array_equal(vec, truthful) for vec in res.per_bidder[i])

    def test_adding_dominated_candidate_is_noop(self):
        rng = np.random.default_rng(37)
        inst, cfg = lemma_setting(rng, "fpa")
        grid = build_closure_grid(inst, cfg)
        base = undominated_set(inst, cfg, [0.0, 0.0], grid)
        # a bid below reserve everywhere is dominated by bidding the reserve
        tiny = cfg.reserves[0] * 0.5
        aug = grid.with_levels(0, list(tiny))
        again = undominated_set(inst, cfg, [0.0, 0.0], aug)
        assert len(base.per_bidder[0]) == len(again.per_bidder[0])
        for u, w in zip(base.per_bidder[0], again.per_bidder[0]):
            assert np.array_equal(u, w)

    def test_grid_level_order_is_irrelevant(self):
        inst = ProblemInstance(2, 1, [1], [[1.0], [0.7]], [[1.0]])
        cfg = MechanismConfig(AuctionFormat.GSP, 2, 1, reserves=[[0.3], [0.2]])
        lv = [0.0, 0.3, 0.55, 1.0]
        a = BidGrid(((np.array(lv),), (np.array([0.0, 0.2, 0.7]),)))
        b = BidGrid(((np.array(lv[::-1])[::-1],), (np.array([0.7, 0.0, 0.2])[np.argsort([0.7, 0.0, 0.2])],)))
        ra = undominated_set(inst, cfg, [0.0, 0.0], a)
        rb = undominated_set(inst, cfg, [0.0, 0.0], b)
        assert np.array_equal(ra.per_bidder[0], rb.per_bidder[0])
        assert np.array_equal(ra.per_bidder[1], rb.per_bidder[1])

    def test_theta_filter_drops_overpaying_profiles(self):
        # both bidders value 1; FPA overbid level stays undominated for a
        # pure value maximizer only if it never wins; force a profile where
        # it would pay above welfare and check theta excludes it
        inst = ProblemInstance(1, 1, [1], [[1.0]], [[1.0]])
        cfg = MechanismConfig(AuctionFormat.FPA, 1, 1)
        grid = BidGrid(((np.array([0.4, 1.0]),),))
        res = undominated_set(inst, cfg, [1.0], grid)
        wel, rev = evaluate_profiles(inst, cfg, res.theta)
        assert (rev <= wel).all()

    def test_uniform_mode_needs_ladder(self):
        inst = ProblemInstance(2, 1, [1], [[1.0], [0.5]], [[1.0]])
        cfg = MechanismConfig(AuctionFormat.GSP, 2, 1)
        grid = build_closure_grid(inst, cfg)
        with pytest.raises(ValueError, match="ladder"):
            undominated_set(inst, cfg, [0.0, 0.0], grid, mode="uniform")
        with pytest.raises(ValueError, match="mode"):
            undominated_set(inst, cfg, [0.0, 0.0], grid, mode="exotic")


def reference_mask(feas, obj):
    """The per-candidate loop `_undominated_mask` replaced; the reference
    of the differential tests below."""
    A = feas.shape[0]
    alive = np.ones(A, dtype=bool)
    for a in range(A):
        at_least = ~feas[a][None, :] | (feas & (obj >= obj[a][None, :]))
        strict = (~feas[a][None, :] & feas) | (feas[a][None, :] & feas & (obj > obj[a][None, :]))
        dominated_by = at_least.all(axis=1) & strict.any(axis=1)
        if dominated_by.any():
            alive[a] = False
    return alive


def random_payoffs(rng):
    """(feas, obj) with ties, duplicate rows and all-infeasible rows."""
    A = int(rng.integers(1, 14))
    P = int(rng.integers(1, 9))
    # few distinct objective values make ties and comparable rows common
    obj = rng.integers(-2, 3, size=(A, P)).astype(np.float64) * rng.choice([1.0, 0.25])
    feas = rng.random((A, P)) < rng.uniform(0.3, 1.0)
    for a in range(A):
        draw = rng.random()
        if draw < 0.15:
            feas[a] = False
        elif draw < 0.35 and a:
            b = int(rng.integers(0, a))
            feas[a], obj[a] = feas[b], obj[b]
    return feas, obj


class TestUndominatedMaskMatchesLoop:
    def test_random_payoffs(self):
        rng = np.random.default_rng(41)
        for _ in range(2000):
            feas, obj = random_payoffs(rng)
            assert np.array_equal(_undominated_mask(feas, obj), reference_mask(feas, obj))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (6, 1)])
    def test_degenerate_shapes(self, shape):
        rng = np.random.default_rng(42)
        for _ in range(200):
            feas = rng.random(shape) < 0.6
            obj = rng.integers(-1, 2, size=shape).astype(np.float64)
            assert np.array_equal(_undominated_mask(feas, obj), reference_mask(feas, obj))

    def test_all_infeasible_and_duplicates_survive(self):
        feas = np.zeros((3, 4), dtype=bool)
        obj = np.arange(12.0).reshape(3, 4)
        assert _undominated_mask(feas, obj).all()
        feas[1:] = True
        obj[2] = obj[1]
        # rows 1 and 2 are equal and beat row 0 everywhere
        assert _undominated_mask(feas, obj).tolist() == [False, True, True]
        assert reference_mask(feas, obj).tolist() == [False, True, True]
        # feasible beats infeasible however low its objective
        feas, obj = np.array([[True], [False]]), np.array([[-1e308], [0.0]])
        assert _undominated_mask(feas, obj).tolist() == [True, False]

    @pytest.mark.parametrize("budget", [1, 97])
    def test_chunk_budget_does_not_change_results(self, budget, monkeypatch):
        # 1 compares one row per block; 97 gives blocks that divide no A
        monkeypatch.setattr(dominance, "_MASK_CHUNK_ELEMENTS", budget)
        rng = np.random.default_rng(43)
        for _ in range(500):
            feas, obj = random_payoffs(rng)
            assert np.array_equal(_undominated_mask(feas, obj), reference_mask(feas, obj))

    def test_lemma_payoffs(self):
        rng = np.random.default_rng(44)
        for kind in ("vcg", "gsp", "fpa"):
            inst, cfg = lemma_setting(rng, kind)
            grid = build_closure_grid(inst, cfg)
            for i in range(2):
                cands = np.array(list(itertools.product(*[lv.tolist() for lv in grid.levels[i]])))
                wel, rev, _ = _payoff_tensors(inst, cfg, i, cands, grid, 10**6)
                for lam in (0.0, 0.5, 1.0):
                    feas, obj = wel >= rev, wel - lam * rev
                    assert np.array_equal(_undominated_mask(feas, obj), reference_mask(feas, obj))


class TestLemmaChecks:
    @pytest.mark.parametrize("kind", ["vcg", "gsp-uniform", "gsp", "fpa"])
    def test_random_settings_pass(self, kind):
        rng = np.random.default_rng(hash(kind) % 2**32)
        for _ in range(12):
            inst, cfg = lemma_setting(rng, kind)
            rep = run_lemma_check(inst, cfg, kind)
            assert rep.passed, rep.violations
            assert rep.scope == "grid-relative"
            assert rep.floor == (
                "value-on-top" if kind in ("vcg", "gsp-uniform") else "reserve"
            )

    def test_report_round_trip(self):
        rng = np.random.default_rng(41)
        inst, cfg = lemma_setting(rng, "gsp")
        rep = run_lemma_check(inst, cfg, "gsp")
        d = rep.to_dict()
        assert d["passed"] is True
        assert d["kind"] == "gsp"
        assert d["violations"] == []
        assert "levels_per_bidder_auction" in d["grid"]

    def test_format_gate(self):
        rng = np.random.default_rng(43)
        inst, cfg = lemma_setting(rng, "gsp")
        with pytest.raises(ValueError, match="applies to"):
            run_lemma_check(inst, cfg, "vcg")

    def test_boost_gate_for_reserve_lemmas(self):
        vals = np.array([[1.0, 2.0], [0.5, 0.4]])
        inst = ProblemInstance(2, 2, [1, 1], vals, [[1.0], [1.0]])
        cfg = MechanismConfig(AuctionFormat.GSP, 2, 2,
                              reserves=0.5 * vals, boosts=0.1 * vals)
        with pytest.raises(ValueError, match="boost"):
            run_lemma_check(inst, cfg, "gsp")

    def test_reserve_at_value_gate(self):
        vals = np.array([[1.0, 2.0], [0.5, 0.4]])
        inst = ProblemInstance(2, 2, [1, 1], vals, [[1.0], [1.0]])
        cfg = MechanismConfig(AuctionFormat.VCG, 2, 2, reserves=vals)
        with pytest.raises(ValueError, match="r < v"):
            run_lemma_check(inst, cfg, "vcg")

    def test_wide_boost_band_gate(self):
        vals = np.array([[1.0, 2.0], [0.5, 0.4]])
        inst = ProblemInstance(2, 2, [1, 1], vals, [[1.0], [1.0]])
        boosts = vals * np.array([[0.1, 0.1], [1.5, 1.5]])
        cfg = MechanismConfig(AuctionFormat.VCG, 2, 2,
                              reserves=0.2 * vals, boosts=boosts)
        with pytest.raises(ValueError, match="band"):
            run_lemma_check(inst, cfg, "vcg")

    def test_unknown_kind(self):
        inst = ProblemInstance(1, 1, [1], [[1.0]], [[1.0]])
        cfg = MechanismConfig(AuctionFormat.VCG, 1, 1)
        with pytest.raises(ValueError, match="unknown lemma kind"):
            run_lemma_check(inst, cfg, "spa")

    def test_verify_reports_violation_details(self):
        # hand a deliberately wrong "undominated" set to the verifier
        inst = ProblemInstance(2, 1, [1], [[1.0], [0.5]], [[1.0]])
        cfg = MechanismConfig(AuctionFormat.GSP, 2, 1, reserves=[[0.4], [0.2]])
        grid = build_closure_grid(inst, cfg)
        res = undominated_set(inst, cfg, [0.0, 0.0], grid)
        from auctionkit import UndominatedResult
        forged = UndominatedResult(
            per_bidder=(np.array([[0.1]]), res.per_bidder[1]),
            theta=res.theta, mode="general", grid=grid)
        rep = verify_bid_lower_bounds(inst, cfg, forged, "gsp")
        assert not rep.passed
        v = rep.violations[0]
        assert (v["bidder"], v["auction"]) == (0, 0)
        assert v["bid"] == 0.1 and v["floor"] == 0.4


class TestFPATheorem:
    def test_uniform_undominated_profiles_reach_opt(self):
        rng = np.random.default_rng(2026)
        for _ in range(6):
            vals = rng.uniform(0.05, 3.0, size=(2, 2))
            inst = ProblemInstance(2, 2, [1, 1], vals, [[1.0], [1.0]])
            cfg = MechanismConfig(AuctionFormat.FPA, 2, 2)
            grid = build_closure_grid(inst, cfg, multipliers=DEFAULT_MULTIPLIERS)
            res = undominated_set(inst, cfg, [0.0, 0.0], grid, mode="uniform")
            assert res.theta.shape[0] >= 1
            opt = opt_welfare(inst)
            wel, rev = evaluate_profiles(inst, cfg, res.theta)
            assert np.allclose(wel.sum(axis=1), opt, rtol=0, atol=1e-12)
            assert np.allclose(rev.sum(axis=1), opt, rtol=0, atol=1e-12)


class TestTightInstanceProfiles:
    @pytest.mark.parametrize(
        "kind", ["reserve_only", "boost_only", "reserve_and_boost", "revenue_single"]
    )
    def test_bad_profile_undominated_on_closure_grid(self, kind):
        ti = tight_instance(kind, 0.5, 1e-3)
        ok, verdict = is_undominated(ti.instance, ti.config, 0.0, 0, ti.bids.bids[0])
        assert ok, verdict

    def test_dominated_query_returns_reproducible_verdict(self):
        ti = tight_instance("reserve_only", 0.5, 1e-3)
        # dropping the sniping bid to zero forfeits auction 1's win; that
        # vector is dominated by restoring it at the grid's value level
        weak = ti.bids.bids[0].copy()
        weak[:] = 0.0
        ok1, v1 = is_undominated(ti.instance, ti.config, 0.0, 0, weak)
        ok2, v2 = is_undominated(ti.instance, ti.config, 0.0, 0, weak)
        assert not ok1 and not ok2
        assert np.array_equal(v1.challenger, v2.challenger)
        assert np.array_equal(v1.witness, v2.witness)
        assert v1.verify(ti.instance, ti.config)
