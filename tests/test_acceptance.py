"""Acceptance gate: one test per contract criterion, at the stated
tolerances and runtime budgets.

Each test prints a `[criterion N] <name>: PASS/FAIL (<measurements>)`
line; run with `pytest tests/test_acceptance.py -v -s` to read the
checklist with measured slacks.  The full-scale experiment for
criterion 7 runs once per module and is shared by that test alone.
"""

import time

import numpy as np
import pytest

from conftest import lemma_trial, random_bids, random_config, random_instance
from oracle import oracle_clear

from auctionkit import (
    AuctionFormat,
    BidProfile,
    COROLLARIES,
    DynamicsConfig,
    GeneratorSpec,
    MechanismConfig,
    ProblemInstance,
    TreatmentSpec,
    build_closure_grid,
    clear,
    evaluate_profiles,
    is_undominated,
    lemma1_bounds,
    opt_welfare,
    revenue,
    run_experiment,
    run_lemma_check,
    undominated_set,
    welfare,
)
from auctionkit.agents import AgentState, step_multipliers
from auctionkit.bounds import tight_instance
from auctionkit.cli import _lemma_setting
from auctionkit.dominance import DEFAULT_MULTIPLIERS
from auctionkit.experiments import treatment_bound

GAMMAS = (0.1, 0.3, 0.5, 0.7, 0.9)


def report(n: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {n}] {name}: {tag}{suffix}")
    assert ok, f"criterion {n} {name}: {tag}{suffix}"


def test_criterion_1_pricing_oracle_equivalence():
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        inst = random_instance(rng)
        cfg = random_config(rng, inst)
        bids = random_bids(rng, inst)
        for fmt in AuctionFormat:
            config = MechanismConfig(fmt, inst.n, inst.m, cfg.reserves, cfg.boosts)
            got = clear(inst, config, bids).payments
            _, pay = oracle_clear(
                inst.n, inst.m, list(inst.slots), [p.tolist() for p in inst.pos],
                fmt.value, config.reserves.tolist(), config.boosts.tolist(),
                bids.bids.tolist(),
            )
            ref = np.asarray(pay)
            err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
            worst = max(worst, float(err.max()))
    elapsed = time.perf_counter() - t0
    report(
        1, "pricing oracle equivalence",
        worst <= 1e-12 and elapsed < 30.0,
        f"10000 instances x 3 formats, max rel err {worst:.1e}, {elapsed:.1f}s",
    )


def test_criterion_2_guarantee_table_formulas():
    worst = 0.0
    for g in GAMMAS:
        for ident, spec in COROLLARIES.items():
            rev_b, wel_b = spec.promised(g)
            wel_ref = 1.0 / (2.0 - g) if ident in (1, 2) else (
                (1.0 + g) / 2.0 if ident in (3, 5) else g
            )
            rev_ref = 0.0 if ident == 2 else g
            worst = max(worst, abs(wel_b - wel_ref), abs(rev_b - rev_ref))
    report(
        2, "guarantee table formulas",
        worst <= 1e-12,
        f"6 guarantees x gammas {GAMMAS}, max abs err {worst:.1e}",
    )


def test_criterion_3_bound_property_end_to_end():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    min_slack = np.inf
    for _ in range(1000):
        inst, config, bids, outcome, params = lemma_trial(rng)
        rev_b, wel_b = lemma1_bounds(params)
        opt = opt_welfare(inst)
        min_slack = min(
            min_slack,
            welfare(inst, outcome) / opt - wel_b,
            revenue(outcome) / opt - rev_b,
        )
    elapsed = time.perf_counter() - t0
    report(
        3, "welfare/revenue bounds hold end to end",
        min_slack >= -1e-9 and elapsed < 60.0,
        f"1000 trials, min ratio slack {min_slack:+.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_tight_instances():
    eps = 1e-3
    worst = 0.0
    exact_rev = True
    for g in (0.3, 0.5, 0.7):
        for kind, target in (
            ("reserve_only", 1.0 / (2.0 - g)),
            ("boost_only", 1.0 / (2.0 - g)),
            ("reserve_and_boost", (1.0 + g) / 2.0),
        ):
            ti = tight_instance(kind, g, eps)
            out = clear(ti.instance, ti.config, ti.bids)
            ratio = welfare(ti.instance, out) / opt_welfare(ti.instance)
            worst = max(worst, abs(ratio - target))
        ti = tight_instance("revenue_single", g, eps)
        out = clear(ti.instance, ti.config, ti.bids)
        exact_rev &= revenue(out) / opt_welfare(ti.instance) == g
    undominated = True
    for kind in ("revenue_single", "reserve_only", "boost_only", "reserve_and_boost"):
        ti = tight_instance(kind, 0.5, eps)
        ok, _ = is_undominated(ti.instance, ti.config, 0.0, 0, ti.bids.bids[0])
        undominated &= ok
    report(
        4, "worst-case instances reproduce their ratios",
        worst <= 2e-3 and exact_rev and undominated,
        f"max welfare-ratio dev {worst:.1e}, revenue exact: {exact_rev}, "
        f"bad profiles undominated at gamma=0.5: {undominated}",
    )


def test_criterion_5_bid_floor_checks_on_random_instances():
    rng = np.random.default_rng(55)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(50):
        gamma = float(rng.uniform(0.1, 0.9))
        for kind in ("vcg", "gsp-uniform", "gsp", "fpa"):
            inst, config = _lemma_setting(rng, kind, gamma)
            if not run_lemma_check(inst, config, kind).passed:
                failures += 1
    elapsed = time.perf_counter() - t0
    report(
        5, "bid floors hold on undominated sets",
        failures == 0 and elapsed < 120.0,
        f"50 instances x 4 floor kinds, {failures} failures, {elapsed:.1f}s",
    )


def test_criterion_6_first_price_uniform_sets_hit_optimum():
    rng = np.random.default_rng(66)
    step = float(np.max(np.diff(DEFAULT_MULTIPLIERS)))
    min_ratio = np.inf
    for _ in range(20):
        values = rng.uniform(0.5, 2.0, size=(2, 2))
        inst = ProblemInstance(2, 2, [1, 1], values, [np.ones(1), np.ones(1)])
        config = MechanismConfig(AuctionFormat.FPA, 2, 2)
        grid = build_closure_grid(inst, config, multipliers=DEFAULT_MULTIPLIERS)
        result = undominated_set(inst, config, np.zeros(2), grid, mode="uniform")
        wel, rev = evaluate_profiles(inst, config, result.theta)
        opt = opt_welfare(inst)
        min_ratio = min(
            min_ratio,
            float(wel.sum(axis=1).min() / opt),
            float(rev.sum(axis=1).min() / opt),
        )
    report(
        6, "first-price uniform undominated profiles are optimal",
        min_ratio >= 1.0 - step,
        f"20 instances, min wel/rev ratio {min_ratio:.6f} >= 1 - {step}",
    )


@pytest.fixture(scope="module")
def experiment_report():
    treatments = [TreatmentSpec("baseline")]
    for g in (0.3, 0.5, 0.7):
        for kind in ("reserve", "boost", "boost_reserve"):
            treatments.append(TreatmentSpec(kind, gamma=g))
    t0 = time.perf_counter()
    rep = run_experiment(GeneratorSpec(), treatments, runs=10, master_seed=0)
    return rep, time.perf_counter() - t0


def test_criterion_7_experiment_protocol_properties(experiment_report):
    rep, elapsed = experiment_report

    # (a) converged welfare ratio clears each treatment's guarantee
    slack_a = np.inf
    for spec in rep.treatments:
        bound = treatment_bound(spec)
        if bound is None:
            continue
        for r in rep.per_run(spec.label):
            ratio = r.wel_end / rep.opt[r.run]
            slack_a = min(slack_a, ratio - (bound[1] - 0.02))
    ok_a = slack_a >= 0.0

    # (b) mean welfare lift ordering and monotonicity in gamma
    mean_lift = {
        (s.kind, s.gamma): float(rep.lift_arrays(s.label)[0].mean())
        for s in rep.treatments if s.kind != "baseline"
    }
    ok_b = True
    for g in (0.3, 0.5, 0.7):
        ok_b &= (
            mean_lift[("boost_reserve", g)] >= mean_lift[("reserve", g)]
            >= mean_lift[("boost", g)]
        )
    for kind in ("reserve", "boost", "boost_reserve"):
        ok_b &= mean_lift[(kind, 0.3)] <= mean_lift[(kind, 0.5)] <= mean_lift[(kind, 0.7)]

    # (c) average multiplier moves down under reserves, up under boosts
    ok_c = True
    for spec in rep.treatments:
        if spec.kind not in ("reserve", "boost"):
            continue
        for r in rep.per_run(spec.label):
            avg = r.trajectory.avg_multiplier()
            ok_c &= avg[-1] < avg[0] if spec.kind == "reserve" else avg[-1] > avg[0]

    # (d) no return-on-spend violations at convergence
    ok_d = not any("ros_violation" in r.flags for r in rep.results)

    report(
        7, "experiment protocol properties",
        ok_a and ok_b and ok_c and ok_d and elapsed < 600.0,
        f"a: min bound slack {slack_a:+.4f}, b: ordering+monotone {ok_b}, "
        f"c: multiplier direction {ok_c}, d: ROS {ok_d}, "
        f"10 runs x {len(rep.treatments)} treatments, {elapsed:.1f}s",
    )


def test_criterion_8_multiplier_step_closed_forms():
    def single(v, r):
        inst = ProblemInstance(1, 1, [1], [[v]], [[1.0]])
        return inst, MechanismConfig(AuctionFormat.VCG, 1, 1, reserves=[[r]])

    # wel 2, rev 1 at delta = 1, eta = 0.5: exp(0.5 ln 2) = sqrt(2)
    inst, config = single(2.0, 1.0)
    stepped = step_multipliers(inst, config, AgentState([0.0], [1.0]),
                               DynamicsConfig(eta0=0.5), t=0)
    err_sqrt2 = abs(stepped.multipliers[0] - np.sqrt(2.0))

    # wel = rev: exactly stationary
    inst, config = single(1.0, 1.0)
    fixed = step_multipliers(inst, config, AgentState([0.0], [1.0]),
                             DynamicsConfig(), t=0)
    err_fixed = abs(fixed.multipliers[0] - 1.0)

    # wel > rev: multiplier may only move up
    inst, config = single(2.0, 1.0)
    up = step_multipliers(inst, config, AgentState([0.0], [1.0]),
                          DynamicsConfig(), t=3)
    ok_dir = up.multipliers[0] >= 1.0

    report(
        8, "multiplier step closed forms",
        err_sqrt2 <= 1e-12 and err_fixed <= 1e-12 and ok_dir,
        f"sqrt2 err {err_sqrt2:.1e}, fixed point err {err_fixed:.1e}, direction {ok_dir}",
    )
