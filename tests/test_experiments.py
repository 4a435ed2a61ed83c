"""Experiment harness: generator, signal sampling, lifts, persistence."""

import filecmp
import math
import time

import numpy as np
import pytest

from auctionkit import (
    AgentState,
    AuctionFormat,
    DynamicsConfig,
    MechanismConfig,
    GeneratorSpec,
    TreatmentSpec,
    emit_plot_data,
    generate_instance,
    lemma1_bounds,
    opt_welfare,
    run_dynamics,
    run_experiment,
)
from auctionkit.experiments import (
    _run_treatment,
    _truncated_gaussian,
    sample_treatment_signals,
    treatment_bound,
)


SMALL = GeneratorSpec(n=6, m=40, s_max=3)


class FixedDraws:
    """Stands in for a Generator: hands out preset normal draws in order."""

    def __init__(self, values):
        self.values = list(values)

    def normal(self, mean, sd, size):
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out)


def small_report(tmp_path=None, runs=3, **kw):
    treatments = [
        TreatmentSpec("baseline"),
        TreatmentSpec("reserve", 0.5),
        TreatmentSpec("boost", 0.5),
        TreatmentSpec("boost_reserve", 0.5),
    ]
    return run_experiment(
        SMALL, treatments, runs=runs, master_seed=7,
        out_dir=tmp_path, **kw,
    )


class TestTreatmentSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            TreatmentSpec("rebate", 0.5)
        with pytest.raises(ValueError, match="gamma"):
            TreatmentSpec("reserve", 0.0)
        with pytest.raises(ValueError, match="gamma"):
            TreatmentSpec("boost", 1.0)
        with pytest.raises(ValueError, match="signal_sd"):
            TreatmentSpec("reserve", 0.5, signal_sd=0.0)
        TreatmentSpec("baseline")  # gamma irrelevant

    @pytest.mark.parametrize("gamma", [7.0, 1.0, -0.5, math.nan, math.inf])
    def test_baseline_gamma_in_unit_interval(self, gamma):
        with pytest.raises(ValueError, match=r"gamma must be in \[0, 1\)"):
            TreatmentSpec("baseline", gamma)
        with pytest.raises(ValueError, match="gamma"):
            TreatmentSpec.from_dict({"kind": "baseline", "gamma": gamma})

    def test_labels_and_roles(self):
        t = TreatmentSpec("boost_reserve", 0.25)
        assert t.label == "boost_reserve_g0.25"
        assert t.band.roles == ("reserve", "boost")
        assert t.band.boost_scale == pytest.approx(4 / 3, abs=1e-15)
        assert TreatmentSpec("baseline").label == "baseline"
        assert TreatmentSpec("baseline").band is None
        assert TreatmentSpec("reserve", 0.5).band.roles == ("reserve",)
        assert TreatmentSpec("reserve", 0.5).band.boost_scale is None
        assert TreatmentSpec("boost", 0.5).band.roles == ("boost",)

    def test_round_trip(self):
        t = TreatmentSpec("boost", 0.4, signal_sd=0.02, share_draw=True)
        assert TreatmentSpec.from_dict(t.to_dict()) == t

    def test_bounds_match_induced_bands(self):
        g = 0.5
        assert treatment_bound(TreatmentSpec("baseline")) is None
        from auctionkit import LemmaParams
        assert treatment_bound(TreatmentSpec("reserve", g)) == lemma1_bounds(
            LemmaParams(1.0, g))
        assert treatment_bound(TreatmentSpec("boost", g)) == lemma1_bounds(
            LemmaParams(1.0, 0.0, g / (1 - g), 1 / (1 - g)))
        rev, wel = treatment_bound(TreatmentSpec("boost_reserve", g))
        # with the section's boost scale, the welfare floor stays 1/(2-g)
        assert wel == pytest.approx(1 / (2 - g), abs=1e-15)
        assert rev == pytest.approx(g / (1 + g - g * g), abs=1e-15)


class TestGenerator:
    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec(n=0)
        with pytest.raises(ValueError):
            GeneratorSpec(s_max=25)  # exceeds n
        with pytest.raises(ValueError):
            GeneratorSpec(zero_prob=1.0)
        with pytest.raises(ValueError):
            GeneratorSpec(pos_decay=1.0)

    @pytest.mark.parametrize("field", ["quality_sigma", "value_sigma", "zero_prob", "pos_decay"])
    @pytest.mark.parametrize("value", [True, False, math.nan, math.inf, "0.5", None])
    def test_float_fields_must_be_finite_numbers(self, field, value):
        with pytest.raises(ValueError, match="must be finite numbers"):
            GeneratorSpec(**{field: value})
        with pytest.raises(ValueError, match="must be finite numbers"):
            GeneratorSpec.from_dict({field: value})

    def test_deterministic_and_seeded(self):
        a = generate_instance(SMALL, 11)
        b = generate_instance(SMALL, 11)
        c = generate_instance(SMALL, 12)
        assert a == b
        assert not np.array_equal(a.values, c.values)

    def test_contract_at_scale(self):
        spec = GeneratorSpec(n=20, m=300, s_max=4)
        inst = generate_instance(spec, 0)
        inst.require_valid()
        assert inst.n == 20 and inst.m == 300
        assert set(inst.slots) <= {1, 2, 3, 4}
        for p in inst.pos:
            assert np.all(np.diff(p) < 0) and np.all(p > 0)
        zero_frac = float((inst.values == 0).mean())
        assert 0.2 < zero_frac < 0.4

    def test_round_trip(self):
        spec = GeneratorSpec(n=5, m=9, pos_decay=0.7)
        assert GeneratorSpec.from_dict(spec.to_dict()) == spec


class TestSignals:
    def test_truncated_gaussian_band_and_mean(self):
        rng = np.random.default_rng(3)
        draws = _truncated_gaussian(rng, 0.65, 0.01, 0.3, 1.0, 10_000)
        assert draws.min() >= 0.3 and draws.max() <= 1.0
        assert abs(draws.mean() - 0.65) < 0.001

    def test_truncated_gaussian_band_is_half_open(self):
        # centred on the top edge, half the draws land at or above it
        draws = _truncated_gaussian(np.random.default_rng(4), 1.0, 1e-3, 0.5, 1.0, 10_000)
        assert draws.max() < 1.0
        # a draw exactly at the top edge is rejected and redrawn
        draws = _truncated_gaussian(FixedDraws([1.0, 0.75, 0.5]), 0.75, 0.1, 0.5, 1.0, 2)
        assert draws.tolist() == [0.75, 0.5]

    def test_truncated_gaussian_refuses_at_round_cap(self):
        inst = generate_instance(SMALL, 1)
        spec = TreatmentSpec(kind="reserve", gamma=0.5, signal_sd=1e9)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="refusing"):
            sample_treatment_signals(inst, spec, 5)
        assert time.perf_counter() - start < 5.0

    def test_baseline_zeros(self):
        inst = generate_instance(SMALL, 1)
        r, z = sample_treatment_signals(inst, TreatmentSpec("baseline"), 5)
        assert not r.any() and not z.any()

    @pytest.mark.parametrize("gamma", [0.3, 0.7])
    def test_reserve_band(self, gamma):
        inst = generate_instance(SMALL, 2)
        r, z = sample_treatment_signals(inst, TreatmentSpec("reserve", gamma), 5)
        assert not z.any()
        pos = inst.values > 0
        assert np.all(r[pos] >= gamma * inst.values[pos])
        assert np.all(r[pos] < inst.values[pos])
        assert np.all(r[~pos] == 0)

    def test_boost_band(self):
        gamma = 0.5
        inst = generate_instance(SMALL, 2)
        r, z = sample_treatment_signals(inst, TreatmentSpec("boost", gamma), 5)
        assert not r.any()
        pos = inst.values > 0
        scale = 1 / (1 - gamma)
        assert np.all(z[pos] >= gamma * scale * inst.values[pos])
        assert np.all(z[pos] < scale * inst.values[pos])

    def test_boost_reserve_draws(self):
        inst = generate_instance(SMALL, 2)
        indep = TreatmentSpec("boost_reserve", 0.5)
        shared = TreatmentSpec("boost_reserve", 0.5, share_draw=True)
        r1, z1 = sample_treatment_signals(inst, indep, 5)
        r2, z2 = sample_treatment_signals(inst, shared, 5)
        pos = inst.values > 0
        # shared: the boost is exactly the reserve rescaled
        assert np.allclose(z2[pos], r2[pos] * indep.band.boost_scale, rtol=0, atol=0)
        # independent: the two roles use different draws
        assert not np.allclose(z1[pos], r1[pos] * indep.band.boost_scale)

    def test_deterministic_per_seed(self):
        inst = generate_instance(SMALL, 2)
        t = TreatmentSpec("reserve", 0.4)
        a = sample_treatment_signals(inst, t, 9)
        b = sample_treatment_signals(inst, t, 9)
        c = sample_treatment_signals(inst, t, 10)
        assert np.array_equal(a[0], b[0])
        assert not np.array_equal(a[0], c[0])


class TestRunExperiment:
    def test_baseline_lift_exactly_zero(self):
        rep = small_report()
        wl, rl = rep.lift_arrays("baseline")
        assert np.all(wl == 0.0) and np.all(rl == 0.0)

    def test_job_count_independent(self):
        a = small_report(jobs=1)
        b = small_report(jobs=3)
        key = lambda r: (r.run, r.treatment.label)
        for x, y in zip(sorted(a.results, key=key), sorted(b.results, key=key)):
            assert x.wel_end == y.wel_end and x.rev_end == y.rev_end
            assert np.array_equal(
                x.trajectory.multipliers, y.trajectory.multipliers)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            run_experiment(SMALL, [TreatmentSpec("reserve", 0.5)] * 2, runs=1)

    def test_gapless_instances_exhaust_seeds(self):
        # a lone bidder always wins everything, so welfare equals OPT and
        # the lift denominator is never positive
        lonely = GeneratorSpec(n=1, m=2, s_max=1, zero_prob=0.0)
        with pytest.raises(RuntimeError, match="optimality gap"):
            run_experiment(lonely, [TreatmentSpec("baseline")], runs=1)

    def test_lift_arithmetic(self):
        rep = small_report()
        for r in rep.results:
            gap_w = rep.opt[r.run] - rep.wel_init[r.run]
            gap_r = rep.opt[r.run] - rep.rev_init[r.run]
            assert r.wel_lift == (r.wel_end - rep.wel_init[r.run]) / gap_w
            assert r.rev_lift == (r.rev_end - rep.rev_init[r.run]) / gap_r

    def test_ci_half_width(self):
        rep = small_report()
        rows = {r["treatment"]: r for r in rep.summary_rows()}
        wl, _ = rep.lift_arrays("reserve_g0.5")
        want = 1.96 * wl.std(ddof=1) / np.sqrt(wl.size)
        assert rows["reserve_g0.5"]["wel_lift_ci"] == pytest.approx(want, rel=1e-12)
        assert rows["baseline"]["wel_lift_ci"] == 0.0

    def test_multiplier_direction(self):
        rep = small_report()
        for r in rep.per_run("reserve_g0.5"):
            avg = r.trajectory.avg_multiplier()
            assert avg[-1] < avg[0]
        for r in rep.per_run("boost_g0.5"):
            avg = r.trajectory.avg_multiplier()
            assert avg[-1] > avg[0]

    def test_flags_follow_the_treatment_roles(self):
        # bids at 0.3 v sit under reserves near 0.95 v, so every treatment
        # with reserves loses welfare at once; only a boost may flag it as a
        # boost drop
        inst = generate_instance(SMALL, 4)
        cfg = MechanismConfig(AuctionFormat.VCG, inst.n, inst.m)
        dyn = DynamicsConfig(treatment_iters=1)
        pre = run_dynamics(inst, cfg, AgentState(np.zeros(inst.n), np.full(inst.n, 0.3)), dyn, iters=0)
        expected = {"reserve": {"reserve_initial_welfare_shift"},
                    "boost_reserve": {"boost_initial_welfare_drop"}, "boost": set()}
        for kind, flags in expected.items():
            result = _run_treatment(inst, pre, opt_welfare(inst), TreatmentSpec(kind, 0.9), dyn, 0, 0)
            assert set(result.flags) - {"ros_violation"} == flags, kind

    def test_ros_feasible_at_convergence(self):
        rep = small_report()
        for r in rep.results:
            active = r.trajectory.final_rev > 0
            assert np.all(
                r.trajectory.final_rev[active]
                <= 1.01 * r.trajectory.final_wel[active]
            ), (r.run, r.treatment.label)

    def test_custom_dynamics_config(self):
        dyn = DynamicsConfig(pretrain_iters=5, treatment_iters=5)
        rep = small_report(runs=2, dyn=dyn)
        for r in rep.results:
            if r.treatment.kind != "baseline":
                assert r.trajectory.steps <= 5


class TestPersistence:
    def test_files_and_regeneration(self, tmp_path):
        rep = small_report(tmp_path=tmp_path / "a")
        files = {p.name for p in (tmp_path / "a").iterdir()}
        assert "summary.csv" in files
        assert "runs.csv" in files
        assert "plot_welfare.csv" in files
        assert "plot_multiplier.csv" in files
        assert "traj_0_baseline.csv" in files
        assert "traj_2_boost_reserve_g0.5.csv" in files
        emit_plot_data(rep, tmp_path / "b")
        for name in sorted(files):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), name

    def test_summary_schema(self, tmp_path):
        small_report(tmp_path=tmp_path)
        header = (tmp_path / "summary.csv").read_text().splitlines()[0]
        assert header == ("treatment,gamma,wel_lift_mean,wel_lift_ci,"
                          "rev_lift_mean,rev_lift_ci")
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(lines) == 1 + 4  # header + one row per treatment

    def test_baseline_traj_single_state(self, tmp_path):
        small_report(tmp_path=tmp_path)
        rows = (tmp_path / "traj_0_baseline.csv").read_text().splitlines()
        assert rows[0] == "iter,wel,rev,avg_delta"
        assert len(rows) == 2  # snapshot only: the control arm runs no steps
