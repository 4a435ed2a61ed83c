"""Multiplier dynamics: frozen step values, fixed points, direction,
convergence, and exact uniform best responses."""

import csv
import math

import numpy as np
import pytest

from auctionkit import agents
from auctionkit import (
    AgentState,
    AuctionFormat,
    BidProfile,
    DynamicsConfig,
    MechanismConfig,
    ProblemInstance,
    best_response_uniform,
    clear,
    objective,
    response_grid,
    revenue_per_bidder,
    ros_satisfied,
    run_dynamics,
    step_multipliers,
    uniform_bids,
    welfare_per_bidder,
)
from conftest import random_bids, random_config, random_instance


def single(v, reserve=0.0, boost=0.0, fmt=AuctionFormat.VCG):
    inst = ProblemInstance(1, 1, [1], [[v]], [[1.0]])
    config = MechanismConfig(fmt, 1, 1, reserves=[[reserve]], boosts=[[boost]])
    return inst, config


class TestScalarHelpers:
    def test_objective(self):
        assert objective(0.0, 2.0, 1.0) == 2.0
        assert objective(1.0, 2.0, 1.0) == 1.0

    def test_ros(self):
        assert ros_satisfied(2.0, 1.0)
        assert not ros_satisfied(1.0, 2.0)

    def test_learning_rate_schedule(self):
        dyn = DynamicsConfig()
        assert dyn.learning_rate(0) == 0.3
        assert dyn.learning_rate(10) == pytest.approx(0.15)
        for t in range(0, 500, 7):
            assert 0.0 < dyn.learning_rate(t) <= 0.3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DynamicsConfig(eta0=1.0)
        with pytest.raises(ValueError):
            DynamicsConfig(min_multiplier=2.0, max_multiplier=1.0)
        with pytest.raises(ValueError):
            DynamicsConfig(convergence_tol=0.0)

    @pytest.mark.parametrize("field", ["eta0", "tau", "convergence_tol", "min_multiplier", "max_multiplier"])
    @pytest.mark.parametrize("value", [True, math.nan, math.inf, -math.inf, "0.5", None])
    def test_float_fields_must_be_finite_numbers(self, field, value):
        with pytest.raises(ValueError, match="must be finite numbers"):
            DynamicsConfig(**{field: value})


class TestUniformBids:
    def test_identity_and_scaling(self):
        inst = ProblemInstance(2, 2, [1, 1], [[1.0, 3.0], [2.0, 0.0]], [[1.0], [1.0]])
        assert np.array_equal(uniform_bids(inst, [1.0, 1.0]).bids, inst.values)
        scaled = uniform_bids(inst, [2.0, 0.5]).bids
        assert scaled[0].tolist() == [2.0, 6.0]
        assert scaled[1].tolist() == [1.0, 0.0]

    def test_zero_value_bids_zero(self):
        inst = ProblemInstance(1, 1, [1], [[0.0]], [[1.0]])
        assert uniform_bids(inst, [500.0]).bids[0, 0] == 0.0


class TestStepMultipliers:
    def test_sqrt2_step(self):
        # wel 2, rev 1 at delta = 1, eta = 0.5: exp(0.5 ln 2) = sqrt(2)
        inst, config = single(2.0, reserve=1.0)
        dyn = DynamicsConfig(eta0=0.5)
        state = AgentState([0.0], [1.0])
        new = step_multipliers(inst, config, state, dyn, t=0)
        assert abs(new.multipliers[0] - math.sqrt(2.0)) <= 1e-12

    def test_fixed_point(self):
        # wel = rev = 1 at delta = 1: exactly stationary
        inst, config = single(1.0, reserve=1.0)
        state = AgentState([0.0], [1.0])
        new = step_multipliers(inst, config, state, DynamicsConfig(), t=0)
        assert new.multipliers[0] == 1.0

    def test_direction_up_when_ros_slack(self):
        inst, config = single(2.0, reserve=1.0)
        state = AgentState([0.0], [1.0])
        new = step_multipliers(inst, config, state, DynamicsConfig(), t=3)
        assert new.multipliers[0] >= 1.0

    def test_direction_down_when_ros_violated(self):
        # delta 2 on v=1 against reserve 1.5: pays 1.5 > wel 1
        inst, config = single(1.0, reserve=1.5)
        state = AgentState([0.0], [2.0])
        new = step_multipliers(inst, config, state, DynamicsConfig(), t=0)
        assert new.multipliers[0] <= 2.0

    def test_zero_spend_upward_surrogate(self):
        # no reserve, no rival: pays 0, so delta takes the surrogate up-step
        inst, config = single(1.0)
        dyn = DynamicsConfig()
        new = step_multipliers(inst, config, AgentState([0.0], [1.0]), dyn, t=0)
        # exp(0.3 * ln 1000) = 1000 ** 0.3
        assert abs(new.multipliers[0] - 7.943282347242816) <= 1e-12
        # repeated steps saturate at the cap
        state = AgentState([0.0], [1.0])
        for t in range(10):
            state = step_multipliers(inst, config, state, dyn, t)
        assert state.multipliers[0] == dyn.max_multiplier

    def test_convex_pull_toward_ratio(self):
        rng = np.random.default_rng(21)
        dyn = DynamicsConfig()
        for _ in range(40):
            inst = random_instance(rng, allow_zero_values=False)
            config = random_config(rng, inst)
            delta = rng.uniform(0.2, 3.0, size=inst.n)
            state = AgentState(np.zeros(inst.n), delta)
            out = clear(inst, config, uniform_bids(inst, delta))
            from auctionkit import revenue_per_bidder, welfare_per_bidder

            w = welfare_per_bidder(inst, out)
            r = revenue_per_bidder(out)
            new = step_multipliers(inst, config, state, dyn, t=0)
            for i in range(inst.n):
                if w[i] > 0 and r[i] > 0:
                    lo = min(math.log(delta[i]), math.log(w[i] / r[i]))
                    hi = max(math.log(delta[i]), math.log(w[i] / r[i]))
                    got = math.log(new.multipliers[i])
                    assert lo - 1e-12 <= got <= hi + 1e-12
                else:
                    assert new.multipliers[i] >= delta[i]

    def test_vcg_utility_maximizer_holds(self):
        inst = ProblemInstance(2, 1, [1], [[1.0], [2.0]], [[1.0]])
        config = MechanismConfig(AuctionFormat.VCG, 2, 1)
        state = AgentState([0.0, 1.0], [1.0, 1.7])
        new = step_multipliers(inst, config, state, DynamicsConfig(), t=0)
        assert new.multipliers[1] == 1.7

    def test_gsp_utility_maximizer_responds(self):
        # truthful loses to the rival's 0.8 here; best response overtakes it
        inst = ProblemInstance(2, 1, [1], [[0.5], [1.0]], [[1.0]])
        config = MechanismConfig(AuctionFormat.GSP, 2, 1)
        state = AgentState([0.0, 1.0], [1.6, 0.5])
        new = step_multipliers(inst, config, state, DynamicsConfig(), t=0)
        assert new.multipliers[1] * 1.0 >= 0.8


class TestRunDynamics:
    def test_single_bidder_reserve_convergence(self):
        # rev fixed at 0.5, wel at 1: fixed point is delta = 2, ROS slack
        inst, config = single(1.0, reserve=0.5)
        traj = run_dynamics(inst, config, AgentState([0.0], [1.0]), DynamicsConfig(), iters=200)
        assert traj.converged
        assert abs(math.log(traj.final_state.multipliers[0]) - math.log(2.0)) < 1e-2
        assert traj.final_wel[0] == 1.0
        assert traj.final_rev[0] == 0.5
        assert ros_satisfied(traj.final_wel[0], traj.final_rev[0])

    def test_mirror_symmetric_bidders_stay_equal(self):
        inst = ProblemInstance(
            2, 2, [1, 1], [[1.0, 0.6], [0.6, 1.0]], [[1.0], [1.0]]
        )
        config = MechanismConfig(AuctionFormat.VCG, 2, 2)
        traj = run_dynamics(inst, config, AgentState([0.0, 0.0], [1.0, 1.0]), DynamicsConfig(), iters=40)
        assert np.array_equal(traj.multipliers[:, 0], traj.multipliers[:, 1])

    def test_trajectory_shape_and_finiteness(self):
        rng = np.random.default_rng(22)
        inst = random_instance(rng, allow_zero_values=False)
        config = random_config(rng, inst)
        traj = run_dynamics(inst, config, AgentState(np.zeros(inst.n), np.ones(inst.n)), DynamicsConfig(), iters=10)
        T = traj.multipliers.shape[0]
        assert traj.wel.shape == traj.rev.shape == (T, inst.n)
        assert T <= 11
        assert np.isfinite(traj.multipliers).all()
        assert np.isfinite(traj.wel).all() and np.isfinite(traj.rev).all()
        assert traj.steps == T - 1

    def test_lambda_one_held_under_vcg_all_run(self):
        inst = ProblemInstance(2, 1, [1], [[1.0], [2.0]], [[1.0]])
        config = MechanismConfig(AuctionFormat.VCG, 2, 1)
        traj = run_dynamics(inst, config, AgentState([0.0, 1.0], [1.0, 1.0]), DynamicsConfig(), iters=15)
        assert np.all(traj.multipliers[:, 1] == 1.0)

    def test_csv_writers(self, tmp_path):
        inst, config = single(1.0, reserve=0.5)
        traj = run_dynamics(inst, config, AgentState([0.0], [1.0]), DynamicsConfig(), iters=5)
        per = tmp_path / "bidders.csv"
        agg = tmp_path / "agg.csv"
        traj.write_bidder_csv(per)
        traj.write_aggregate_csv(agg)
        with open(per, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "bidder", "delta", "wel_i", "rev_i"]
        assert len(rows) - 1 == traj.multipliers.shape[0] * inst.n
        assert float(rows[1][2]) == traj.multipliers[0, 0]
        with open(agg, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "wel", "rev", "avg_delta"]
        assert len(rows) - 1 == traj.multipliers.shape[0]
        assert float(rows[-1][3]) == traj.avg_multiplier()[-1]

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        inst = random_instance(rng, allow_zero_values=False)
        config = random_config(rng, inst)
        state = AgentState(np.zeros(inst.n), np.ones(inst.n))
        a = run_dynamics(inst, config, state, DynamicsConfig(), iters=20)
        b = run_dynamics(inst, config, state, DynamicsConfig(), iters=20)
        assert np.array_equal(a.multipliers, b.multipliers)
        assert np.array_equal(a.wel, b.wel)


class TestScaleInvariance:
    def test_scaling_one_auction_preserves_allocation(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            inst = random_instance(rng, allow_zero_values=False)
            config = random_config(rng, inst)
            delta = rng.uniform(0.3, 3.0, size=inst.n)
            j = int(rng.integers(inst.m))
            c = 3.7
            values = inst.values.copy()
            values[:, j] *= c
            reserves = config.reserves.copy()
            reserves[:, j] *= c
            boosts = config.boosts.copy()
            boosts[:, j] *= c
            scaled_inst = ProblemInstance(inst.n, inst.m, inst.slots, values, inst.pos)
            scaled_cfg = MechanismConfig(config.format, inst.n, inst.m, reserves, boosts)
            a = clear(inst, config, uniform_bids(inst, delta))
            b = clear(scaled_inst, scaled_cfg, uniform_bids(scaled_inst, delta))
            for wa, wb in zip(a.winners, b.winners):
                assert wa.tolist() == wb.tolist()


class TestBestResponse:
    def setup(self, other_bid, fmt=AuctionFormat.VCG):
        inst = ProblemInstance(2, 1, [1], [[1.0], [1.0]], [[1.0]])
        config = MechanismConfig(fmt, 2, 1)
        others = np.array([[0.0], [other_bid]])
        return inst, config, others

    def eval_at(self, inst, config, others, i, d):
        bids = others.copy()
        bids[i, 0] = d * inst.values[i, 0]
        out = clear(inst, config, BidProfile(bids))
        from auctionkit import revenue_per_bidder, welfare_per_bidder

        return welfare_per_bidder(inst, out)[i], revenue_per_bidder(out)[i]

    def test_overtake_cheapest_winning_point(self):
        inst, config, others = self.setup(0.8)
        grid = response_grid(inst, config, 0, others, DynamicsConfig())
        star = best_response_uniform(inst, config, 0, others, 0.0, grid)
        # index 0 wins the tie at the breakpoint itself
        assert star == 0.8
        w, r = self.eval_at(inst, config, others, 0, star)
        assert w == 1.0 and r == 0.8

    def test_losing_optimal_when_price_exceeds_value(self):
        inst, config, others = self.setup(1.2)
        grid = response_grid(inst, config, 0, others, DynamicsConfig())
        star = best_response_uniform(inst, config, 0, others, 0.0, grid)
        w, r = self.eval_at(inst, config, others, 0, star)
        assert w == 0.0 and r == 0.0
        assert star == grid[0]

    def test_truthful_weakly_optimal_for_utility_maximizer_vcg(self):
        inst, config, others = self.setup(0.8)
        grid = response_grid(inst, config, 0, others, DynamicsConfig())
        star = best_response_uniform(inst, config, 0, others, 1.0, grid)
        w, r = self.eval_at(inst, config, others, 0, star)
        wt, rt = self.eval_at(inst, config, others, 0, 1.0)
        assert objective(1.0, w, r) == objective(1.0, wt, rt)
        assert ros_satisfied(w, r)

    def test_empty_grid_rejected(self):
        inst, config, others = self.setup(0.5)
        with pytest.raises(ValueError):
            best_response_uniform(inst, config, 0, others, 0.0, [])

    def test_never_violates_ros_when_feasible_exists(self):
        rng = np.random.default_rng(25)
        for _ in range(25):
            inst = random_instance(rng, n_max=3, m_max=2)
            config = random_config(rng, inst)
            others = random_bids(rng, inst).bids.copy()
            i = int(rng.integers(inst.n))
            grid = response_grid(inst, config, i, others, DynamicsConfig())
            star = best_response_uniform(inst, config, i, others, 0.0, grid)
            w, r = self.eval_at(inst, config, others, i, star)
            feasible_exists = False
            for d in grid:
                wd, rd = self.eval_at(inst, config, others, i, d)
                if ros_satisfied(wd, rd):
                    feasible_exists = True
                    break
            if feasible_exists:
                assert ros_satisfied(w, r)

    def test_grid_contains_breakpoints_and_unit(self):
        inst, config, others = self.setup(0.8)
        grid = response_grid(inst, config, 0, others, DynamicsConfig())
        assert 1.0 in grid
        assert 0.8 in grid
        assert np.all(np.diff(grid) > 0)
        dyn = DynamicsConfig()
        assert grid[0] >= dyn.min_multiplier and grid[-1] <= dyn.max_multiplier


# -- reference implementations the vectorized code replaced -----------------


def reclear_outcomes(instance, config, i, others_bids, grid):
    """Bidder i's (welfare, revenue) at each sorted grid point, by clearing
    the whole market once per point."""
    candidates = np.sort(np.asarray(grid, dtype=np.float64))
    if candidates.size == 0:
        raise ValueError("empty multiplier grid")
    bids = np.array(others_bids, dtype=np.float64)
    if bids.shape != (instance.n, instance.m):
        raise ValueError("others_bids must be a full n x m bid matrix")
    wel, rev = [], []
    for d in candidates:
        bids[i, :] = d * instance.values[i, :]
        out = clear(instance, config, BidProfile(bids))
        wel.append(float(welfare_per_bidder(instance, out)[i]))
        rev.append(float(revenue_per_bidder(out)[i]))
    return candidates, np.array(wel), np.array(rev)


def reference_choice(candidates, wel, rev, lam):
    """The per-candidate selection rule: feasible first, then objective,
    then the first (smallest) delta."""
    best = None
    for d, w, r in zip(candidates, wel.tolist(), rev.tolist()):
        key = (ros_satisfied(w, r), objective(lam, w, r))
        if best is None or key > (best[0], best[1]):
            best = (key[0], key[1], float(d))
    return best[2]


def reference_grid(instance, config, i, others_bids, dyn, points_per_decade=12):
    """The per-(auction, opponent) loop that built the response grid."""
    lo, hi = dyn.min_multiplier, dyn.max_multiplier
    decades = math.log10(hi / lo)
    base = np.geomspace(lo, hi, int(round(decades * points_per_decade)) + 1)
    breaks = []
    for j in range(instance.m):
        v = instance.values[i, j]
        if v <= 0.0:
            continue
        z = config.boosts[i, j]
        r = config.reserves[i, j]
        if r > 0.0:
            breaks.append(r / v)
        for o in range(instance.n):
            if o == i or others_bids[o, j] < config.reserves[o, j]:
                continue
            cross = (others_bids[o, j] + config.boosts[o, j] - z) / v
            if cross > 0.0:
                breaks.append(cross)
    pts = [1.0]
    inside = sorted({b for b in breaks if lo <= b <= hi})
    for b in inside:
        pts.append(b)
        pts.append(float(np.nextafter(b, np.inf)))
    pts.extend((a + b) / 2.0 for a, b in zip(inside, inside[1:]))
    grid = np.unique(np.concatenate([base, np.asarray(pts, dtype=np.float64)]))
    return grid[(grid >= lo) & (grid <= hi)]


def differential_cases(seed, count):
    """Random markets under every format, with reserves and boosts.

    Cases cycle through every (format, tied, wide) combination.  A tied
    case has small integer values, reserves and boosts and uniform
    opponent bids, which make exact score ties between bidder i and its
    opponents.  A wide case has m >= 9, which reaches numpy's pairwise
    row sums.
    """
    rng = np.random.default_rng(seed)
    for t in range(count):
        fmt, tied, wide = list(AuctionFormat)[t % 3], (t // 3) % 2, (t // 6) % 2
        inst = random_instance(rng, n_max=6, m_max=24 if wide else 4, s_max=4)
        while wide and inst.m < 9:
            inst = random_instance(rng, n_max=6, m_max=24, s_max=4)
        if tied:
            values = rng.integers(0, 4, size=(inst.n, inst.m)).astype(float)
            inst = ProblemInstance(inst.n, inst.m, inst.slots, values, inst.pos)
            reserves = rng.integers(0, 3, size=(inst.n, inst.m)) * 0.5
            boosts = rng.integers(0, 2, size=(inst.n, inst.m)) * 0.5
            config = MechanismConfig(fmt, inst.n, inst.m, reserves, boosts)
            others = uniform_bids(inst, np.ones(inst.n)).bids.copy()
        else:
            base = random_config(rng, inst)
            config = MechanismConfig(fmt, inst.n, inst.m, base.reserves, base.boosts)
            others = random_bids(rng, inst).bids.copy()
        yield inst, config, int(rng.integers(inst.n)), others


def paper_scale_market(fmt):
    """One 20 x 1000 market with lognormal values (30% zero), 1-4 slots,
    reserves and boosts, and opponents bidding 0.6-1.0 of value."""
    rng = np.random.default_rng(3)
    n, m = 20, 1000
    values = rng.lognormal(0.0, 0.5, size=n)[:, None] * rng.lognormal(0.0, 1.0, size=(n, m))
    values[rng.random((n, m)) < 0.3] = 0.0
    slots = rng.integers(1, 5, size=m)
    inst = ProblemInstance(n, m, slots, values, [0.5 ** np.arange(s, dtype=np.float64) for s in slots])
    config = MechanismConfig(
        fmt, n, m,
        values * rng.uniform(0.2, 0.6, size=(n, m)),
        values * rng.uniform(0.0, 0.3, size=(n, m)),
    )
    return inst, config, values * rng.uniform(0.6, 1.0, size=n)[:, None]


class TestBestResponseMatchesReclearing:
    def test_outcomes_and_choices_equal_on_random_markets(self):
        dyn = DynamicsConfig()
        for inst, config, i, others in differential_cases(31, 90):
            grid = response_grid(inst, config, i, others, dyn)
            candidates, wel, rev = reclear_outcomes(inst, config, i, others, grid)
            got_wel, got_rev = agents._own_outcomes(inst, config, i, others, candidates)
            assert np.array_equal(got_wel, wel) and np.array_equal(got_rev, rev)
            for lam in (0.0, 0.5, 1.0):
                star = best_response_uniform(inst, config, i, others, lam, grid)
                assert star == reference_choice(candidates, wel, rev, lam)

    def test_no_feasible_point_takes_smallest_best(self):
        # every point wins and pays the 1.5 reserve for a value of 1
        inst, config = single(1.0, reserve=1.5, fmt=AuctionFormat.GSP)
        others = np.zeros((1, 1))
        grid = [4.0, 2.0, 3.0, 2.5]
        candidates, wel, rev = reclear_outcomes(inst, config, 0, others, grid)
        assert not any(ros_satisfied(w, r) for w, r in zip(wel, rev))
        for lam in (0.0, 0.5, 1.0):
            star = best_response_uniform(inst, config, 0, others, lam, grid)
            assert star == reference_choice(candidates, wel, rev, lam) == 2.0

    def test_unsorted_grid_with_duplicates(self):
        inst, config, i, others = next(differential_cases(32, 1))
        grid = response_grid(inst, config, i, others, DynamicsConfig())
        shuffled = np.random.default_rng(33).permutation(np.concatenate([grid, grid[::3]]))
        candidates, wel, rev = reclear_outcomes(inst, config, i, others, shuffled)
        for lam in (0.0, 0.5, 1.0):
            assert best_response_uniform(inst, config, i, others, lam, shuffled) == reference_choice(
                candidates, wel, rev, lam
            )

    def test_negative_index_counts_from_the_end(self):
        # i = -1 is bidder 1.  At 2.0 it also wins auction 1 for 1.5, and
        # ROS holds only if auction 0, won at every point, stays free
        inst = ProblemInstance(2, 2, [1, 1], [[1.0, 1.0], [1.0, 1.0]], [[1.0], [1.0]])
        config = MechanismConfig(AuctionFormat.GSP, 2, 2)
        others = np.array([[0.0, 1.5], [0.0, 0.0]])
        candidates, wel, rev = reclear_outcomes(inst, config, -1, others, [0.8, 2.0])
        assert wel.tolist() == [1.0, 2.0] and rev.tolist() == [0.0, 1.5]
        for lam in (0.0, 0.5, 1.0):
            star = best_response_uniform(inst, config, -1, others, lam, candidates)
            assert star == reference_choice(candidates, wel, rev, lam)
        assert best_response_uniform(inst, config, -1, others, 0.0, candidates) == 2.0

    @pytest.mark.parametrize("fmt", list(AuctionFormat))
    def test_sampled_grid_on_paper_scale_market(self, fmt):
        inst, config, others = paper_scale_market(fmt)
        grid = response_grid(inst, config, 5, others, DynamicsConfig())
        sample = grid[np.linspace(0, grid.size - 1, 41).astype(int)]
        candidates, wel, rev = reclear_outcomes(inst, config, 5, others, sample)
        got_wel, got_rev = agents._own_outcomes(inst, config, 5, others, candidates)
        assert np.array_equal(got_wel, wel) and np.array_equal(got_rev, rev)
        for lam in (0.0, 0.5, 1.0):
            star = best_response_uniform(inst, config, 5, others, lam, sample)
            assert star == reference_choice(candidates, wel, rev, lam)

    @pytest.mark.parametrize(
        "grid, others_shape",
        [([], None), ([0.5, 1.0], (2, 2)), ([0.5, np.nan, 1.0], None), ([0.5, -0.1, 1.0], None)],
        ids=["empty-grid", "bids-shape", "nan-point", "negative-point"],
    )
    def test_errors_match_reclearing(self, grid, others_shape):
        inst = ProblemInstance(2, 1, [1], [[1.0], [1.0]], [[1.0]])
        config = MechanismConfig(AuctionFormat.GSP, 2, 1)
        others = np.zeros(others_shape) if others_shape else np.array([[0.0], [0.8]])
        with pytest.raises(ValueError) as expected:
            reclear_outcomes(inst, config, 0, others, grid)
        with pytest.raises(ValueError) as got:
            best_response_uniform(inst, config, 0, others, 1.0, grid)
        assert str(got.value) == str(expected.value)

    def test_invalid_opponent_bids_rejected(self):
        inst = ProblemInstance(2, 1, [1], [[1.0], [1.0]], [[1.0]])
        config = MechanismConfig(AuctionFormat.FPA, 2, 1)
        for bad in (-1.0, np.inf):
            with pytest.raises(ValueError, match="invalid bids"):
                best_response_uniform(inst, config, 0, np.array([[0.0], [bad]]), 1.0, [1.0])

    def test_block_boundaries_do_not_change_results(self, monkeypatch):
        cases = list(differential_cases(34, 12))
        dyn = DynamicsConfig()

        def run():
            out = []
            for inst, config, i, others in cases:
                grid = response_grid(inst, config, i, others, dyn)
                out.append(agents._own_outcomes(inst, config, i, others, grid))
                out.append(best_response_uniform(inst, config, i, others, 0.5, grid))
            return out

        unpatched = run()
        sizes = {len(response_grid(inst, c, i, o, dyn)) for inst, c, i, o in cases}
        odd = next(b for b in range(7, 100) if all(size % b for size in sizes))
        for block in (1, odd):
            monkeypatch.setattr(agents, "_BLOCK", block)
            for a, b in zip(run(), unpatched):
                if isinstance(a, tuple):
                    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
                else:
                    assert a == b


class TestResponseGridMatchesLoop:
    def test_random_markets(self):
        rng = np.random.default_rng(35)
        dyn = DynamicsConfig()
        for inst, config, i, others in differential_cases(36, 60):
            assert np.array_equal(
                response_grid(inst, config, i, others, dyn),
                reference_grid(inst, config, i, others, dyn),
            )
            ppd = int(rng.integers(1, 20))
            assert np.array_equal(
                response_grid(inst, config, i, others, dyn, ppd),
                reference_grid(inst, config, i, others, dyn, ppd),
            )

    def test_paper_scale_market(self):
        inst, config, others = paper_scale_market(AuctionFormat.GSP)
        dyn = DynamicsConfig()
        for i in (0, 5, 19):
            assert np.array_equal(
                response_grid(inst, config, i, others, dyn),
                reference_grid(inst, config, i, others, dyn),
            )
