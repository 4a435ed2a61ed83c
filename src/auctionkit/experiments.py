"""End-to-end treatment experiments on synthetic instances.

A run generates an instance, pretrains value-maximizer multipliers under
plain VCG, snapshots welfare and revenue, then replays each treatment
(reserves, boosts, or both, derived from noisy value signals) from that
snapshot.  Lifts measure the fraction of the optimality gap a treatment
closes: (kappa_end - kappa_init) / (kappa_opt - kappa_init), aggregated
over runs with a normal-approximation 95% confidence interval.

Every random draw comes from a named substream of one master seed, so
results are reproducible and independent of the parallelism degree.
"""

from __future__ import annotations

import csv
import math
import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .agents import DynamicsConfig, Trajectory, run_dynamics
from .bounds import ROLES, SignalBand, lemma1_bounds
from .clearing import opt_welfare
from .types import AgentState, AuctionFormat, MechanismConfig, ProblemInstance, _is_int, _is_real

__all__ = [
    "GeneratorSpec",
    "LiftReport",
    "TreatmentResult",
    "TreatmentSpec",
    "emit_plot_data",
    "generate_instance",
    "run_experiment",
    "sample_treatment_signals",
    "treatment_bound",
]

TREATMENT_KINDS = ("baseline", "reserve", "boost", "boost_reserve")
MAX_SEED_ATTEMPTS = 16
MAX_SIGNAL_ROUNDS = 1000  # rejection rounds before a signal draw refuses


@dataclass(frozen=True)
class TreatmentSpec:
    """One intervention: which signals to apply and at what accuracy.

    band is the SignalBand the treatment draws from: reserves for
    "reserve", boosts at scale 1/(1 - gamma) for "boost", both for
    "boost_reserve", none (band None) for the baseline.  Signals are
    per-(bidder, auction) truncated Gaussians with mean (1 + gamma) / 2,
    standard deviation signal_sd and support [gamma, 1); a reserve is
    signal * v, a boost signal * v * scale.  share_draw makes the boost
    reuse the reserve's draw.
    """

    kind: str
    gamma: float = 0.0
    signal_sd: float = 0.01
    share_draw: bool = False

    def __post_init__(self) -> None:
        if self.kind not in TREATMENT_KINDS:
            raise ValueError(f"unknown treatment kind {self.kind!r}")
        if self.kind != "baseline" and not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1) for signal treatments")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if self.signal_sd <= 0.0:
            raise ValueError("signal_sd must be positive")

    @property
    def label(self) -> str:
        if self.kind == "baseline":
            return "baseline"
        return f"{self.kind}_g{self.gamma:g}"

    @property
    def band(self) -> Optional[SignalBand]:
        if self.kind == "baseline":
            return None
        boost = "1/(1-gamma)" if self.kind != "reserve" else None
        return SignalBand(self.gamma, reserve=self.kind != "boost", boost=boost)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "gamma": self.gamma,
            "signal_sd": self.signal_sd,
            "share_draw": self.share_draw,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreatmentSpec":
        extra = set(d) - set(cls("baseline").to_dict())
        if extra:
            raise ValueError(f"unknown treatment keys: {sorted(extra)}")
        gamma, signal_sd = d.get("gamma", 0.0), d.get("signal_sd", 0.01)
        if not (_is_real(gamma) and _is_real(signal_sd)):
            raise ValueError("treatment 'gamma' and 'signal_sd' must be finite numbers")
        share_draw = d.get("share_draw", False)
        if not isinstance(share_draw, bool):
            raise ValueError("treatment 'share_draw' must be true or false")
        return cls(d["kind"], float(gamma), float(signal_sd), share_draw)


def treatment_bound(spec: TreatmentSpec) -> Optional[tuple[float, float]]:
    """(revenue, welfare) guarantee for the signal band a treatment
    draws from; None for the baseline.  Ordered like lemma1_bounds."""
    band = spec.band
    return None if band is None else lemma1_bounds(band.params())


@dataclass(frozen=True)
class GeneratorSpec:
    """Synthetic instance family: asymmetric bidders via per-bidder
    quality scalars times per-auction lognormal draws, sparsified by
    zeroing values, with geometric slot weight decay."""

    n: int = 20
    m: int = 1000
    s_max: int = 4
    quality_sigma: float = 0.5
    value_sigma: float = 1.0
    zero_prob: float = 0.3
    pos_decay: float = 0.5

    def __post_init__(self) -> None:
        if not (_is_int(self.n) and _is_int(self.m) and _is_int(self.s_max)):
            raise ValueError("n, m and s_max must be integers")
        if not all(map(_is_real, (self.quality_sigma, self.value_sigma, self.zero_prob, self.pos_decay))):
            raise ValueError("quality_sigma, value_sigma, zero_prob and pos_decay must be finite numbers")
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be at least 1")
        if not 1 <= self.s_max <= self.n:
            raise ValueError("s_max must lie in [1, n]")
        if self.quality_sigma <= 0 or self.value_sigma <= 0:
            raise ValueError("lognormal sigmas must be positive")
        if not 0.0 <= self.zero_prob < 1.0:
            raise ValueError("zero_prob must lie in [0, 1)")
        if not 0.0 < self.pos_decay < 1.0:
            raise ValueError("pos_decay must lie in (0, 1)")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "s_max": self.s_max,
            "quality_sigma": self.quality_sigma,
            "value_sigma": self.value_sigma,
            "zero_prob": self.zero_prob,
            "pos_decay": self.pos_decay,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorSpec":
        extra = set(d) - set(cls().to_dict())
        if extra:
            raise ValueError(f"unknown generator keys: {sorted(extra)}")
        return cls(**d)


SeedLike = Union[int, Sequence[int], np.random.SeedSequence]


def _rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(seed))


def generate_instance(spec: GeneratorSpec, seed: SeedLike) -> ProblemInstance:
    """Deterministic per seed."""
    rng = _rng(seed)
    quality = rng.lognormal(0.0, spec.quality_sigma, size=spec.n)
    values = quality[:, None] * rng.lognormal(0.0, spec.value_sigma, size=(spec.n, spec.m))
    values[rng.random((spec.n, spec.m)) < spec.zero_prob] = 0.0
    slots = rng.integers(1, spec.s_max + 1, size=spec.m)
    pos = [spec.pos_decay ** np.arange(s, dtype=np.float64) for s in slots]
    return ProblemInstance(spec.n, spec.m, slots, values, pos)


def _truncated_gaussian(
    rng: np.random.Generator, mean: float, sd: float, lo: float, hi: float, size
) -> np.ndarray:
    """Rejection sampling on the half-open band [lo, hi).

    With the band wide relative to sd the acceptance rate is near 1 and a
    few rounds suffice; after MAX_SIGNAL_ROUNDS rounds it refuses.
    """
    out = np.empty(size)
    filled = 0
    flat = out.reshape(-1)
    for _ in range(MAX_SIGNAL_ROUNDS):
        if filled == flat.size:
            break
        draw = rng.normal(mean, sd, size=flat.size - filled)
        keep = draw[(draw >= lo) & (draw < hi)]
        flat[filled : filled + keep.size] = keep
        filled += keep.size
    if filled < flat.size:
        raise ValueError(
            f"signal draw N({mean:g}, {sd:g}) truncated to [{lo:g}, {hi:g}): "
            f"{flat.size - filled} of {flat.size} draws still outside the band "
            f"after {MAX_SIGNAL_ROUNDS} rounds; refusing"
        )
    return out


def sample_treatment_signals(
    instance: ProblemInstance, spec: TreatmentSpec, seed: SeedLike
) -> tuple[np.ndarray, np.ndarray]:
    """(reserves, boosts) matrices for one treatment realization.

    Independent streams per role unless share_draw reuses the reserve
    draw for the boost.  Baseline returns zeros.
    """
    n, m = instance.n, instance.m
    reserves = np.zeros((n, m))
    boosts = np.zeros((n, m))
    band = spec.band
    if band is None:
        return reserves, boosts
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    mean = (1.0 + band.gamma) / 2.0
    role_draw = {}
    for role, stream in zip(ROLES, base.spawn(2)):
        role_draw[role] = _truncated_gaussian(
            np.random.default_rng(stream), mean, spec.signal_sd, band.gamma, 1.0, (n, m)
        )
    if "reserve" in band.roles:
        reserves = role_draw["reserve"] * instance.values
    if "boost" in band.roles:
        s = role_draw["reserve"] if spec.share_draw else role_draw["boost"]
        boosts = s * instance.values * band.boost_scale
    return reserves, boosts


@dataclass(frozen=True)
class TreatmentResult:
    """One (run, treatment) cell: end-state totals, lifts, and soft
    diagnostic flags (recorded, never fatal)."""

    run: int
    treatment: TreatmentSpec
    wel_end: float
    rev_end: float
    wel_lift: float
    rev_lift: float
    converged: bool
    flags: tuple[str, ...]
    trajectory: Trajectory


@dataclass(frozen=True)
class LiftReport:
    generator: GeneratorSpec
    treatments: tuple[TreatmentSpec, ...]
    runs: int
    master_seed: int
    rejected_runs: int
    wel_init: np.ndarray  # (runs,)
    rev_init: np.ndarray
    opt: np.ndarray
    results: tuple[TreatmentResult, ...]

    def per_run(self, label: str) -> list[TreatmentResult]:
        return sorted(
            (r for r in self.results if r.treatment.label == label),
            key=lambda r: r.run,
        )

    def lift_arrays(self, label: str) -> tuple[np.ndarray, np.ndarray]:
        rows = self.per_run(label)
        return (
            np.array([r.wel_lift for r in rows]),
            np.array([r.rev_lift for r in rows]),
        )

    def summary_rows(self) -> list[dict]:
        rows = []
        for spec in self.treatments:
            wl, rl = self.lift_arrays(spec.label)
            rows.append(
                {
                    "treatment": spec.label,
                    "gamma": spec.gamma,
                    "wel_lift_mean": float(wl.mean()),
                    "wel_lift_ci": _ci_half_width(wl),
                    "rev_lift_mean": float(rl.mean()),
                    "rev_lift_ci": _ci_half_width(rl),
                }
            )
        return rows


def _ci_half_width(x: np.ndarray) -> float:
    if x.size < 2:
        return 0.0
    return float(1.96 * x.std(ddof=1) / math.sqrt(x.size))


def _pretrain_one(
    gen: GeneratorSpec, dyn: DynamicsConfig, master_seed: int, run: int
) -> tuple[ProblemInstance, Trajectory, float, int]:
    """Generate until the optimality gap is positive for both metrics;
    returns (instance, pretrain trajectory, opt welfare, rejections)."""
    for attempt in range(MAX_SEED_ATTEMPTS):
        inst = generate_instance(gen, (master_seed, run, attempt))
        cfg = MechanismConfig(AuctionFormat.VCG, inst.n, inst.m)
        state = AgentState(np.zeros(inst.n), np.ones(inst.n))
        pre = run_dynamics(inst, cfg, state, dyn, iters=dyn.pretrain_iters)
        opt = opt_welfare(inst)
        wel0, rev0 = float(pre.total_wel()[-1]), float(pre.total_rev()[-1])
        if opt > wel0 and opt > rev0:
            return inst, pre, opt, attempt
    raise RuntimeError(
        f"run {run}: no instance with a positive optimality gap after "
        f"{MAX_SEED_ATTEMPTS} seeds"
    )


def _run_treatment(
    inst: ProblemInstance,
    pre: Trajectory,
    opt: float,
    spec: TreatmentSpec,
    dyn: DynamicsConfig,
    master_seed: int,
    run: int,
) -> TreatmentResult:
    wel0, rev0 = float(pre.total_wel()[-1]), float(pre.total_rev()[-1])
    signal_seed = (master_seed, run, zlib.crc32(spec.label.encode()))
    reserves, boosts = sample_treatment_signals(inst, spec, signal_seed)
    cfg = MechanismConfig(AuctionFormat.VCG, inst.n, inst.m, reserves, boosts)
    # the baseline is the no-op control: its end state is the snapshot
    iters = 0 if spec.kind == "baseline" else dyn.treatment_iters
    traj = run_dynamics(inst, cfg, pre.final_state, dyn, iters=iters)
    wel_end, rev_end = float(traj.total_wel()[-1]), float(traj.total_rev()[-1])

    flags = []
    wel_t0 = float(traj.total_wel()[0])
    gap = opt - wel0
    if spec.kind == "reserve" and abs(wel_t0 - wel0) > 0.01 * gap:
        flags.append("reserve_initial_welfare_shift")
    boosted = spec.band is not None and "boost" in spec.band.roles
    if boosted and wel_t0 < wel0 - 1e-9 * max(1.0, wel0):
        flags.append("boost_initial_welfare_drop")
    active = traj.final_rev > 0
    if np.any(traj.final_rev[active] > 1.01 * traj.final_wel[active]):
        flags.append("ros_violation")

    return TreatmentResult(
        run=run,
        treatment=spec,
        wel_end=wel_end,
        rev_end=rev_end,
        wel_lift=(wel_end - wel0) / (opt - wel0),
        rev_lift=(rev_end - rev0) / (opt - rev0),
        converged=traj.converged,
        flags=tuple(flags),
        trajectory=traj,
    )


def run_experiment(
    generator: GeneratorSpec,
    treatments: Sequence[TreatmentSpec],
    dyn: Optional[DynamicsConfig] = None,
    runs: int = 10,
    master_seed: int = 0,
    jobs: Optional[int] = None,
    out_dir: Optional[Union[str, Path]] = None,
) -> LiftReport:
    """Pretrain each run once, replay every treatment from its snapshot,
    aggregate lifts.  Parallel across runs and (run, treatment) pairs;
    output is independent of the job count.

    Raises ValueError, before any pretraining, for no runs, no treatments
    or repeated treatment labels, and RuntimeError when a run draws no
    instance with a positive optimality gap in MAX_SEED_ATTEMPTS seeds."""
    if dyn is None:
        dyn = DynamicsConfig()
    if runs < 1:
        raise ValueError("need at least one run")
    if not treatments:
        raise ValueError("need at least one treatment")
    labels = [t.label for t in treatments]
    if len(set(labels)) != len(labels):
        raise ValueError("treatment labels must be unique")
    workers = jobs if jobs is not None else (os.cpu_count() or 1)
    workers = max(1, min(workers, runs * len(treatments)))

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pretrained = list(
            pool.map(
                lambda run: _pretrain_one(generator, dyn, master_seed, run),
                range(runs),
            )
        )
        tasks = [
            (inst, pre, opt, spec, run)
            for run, (inst, pre, opt, _) in enumerate(pretrained)
            for spec in treatments
        ]
        results = list(
            pool.map(
                lambda task: _run_treatment(
                    task[0], task[1], task[2], task[3], dyn, master_seed, task[4]
                ),
                tasks,
            )
        )

    report = LiftReport(
        generator=generator,
        treatments=tuple(treatments),
        runs=runs,
        master_seed=master_seed,
        rejected_runs=sum(rej for _, _, _, rej in pretrained),
        wel_init=np.array([float(p.total_wel()[-1]) for _, p, _, _ in pretrained]),
        rev_init=np.array([float(p.total_rev()[-1]) for _, p, _, _ in pretrained]),
        opt=np.array([opt for _, _, opt, _ in pretrained]),
        results=tuple(results),
    )
    if out_dir is not None:
        emit_plot_data(report, out_dir)
    return report


def _padded_series(trajs: list[Trajectory], column) -> np.ndarray:
    """Stack per-run series, carrying the last value forward so early
    convergence does not truncate the mean curve; returns (T_max, runs)."""
    series = [column(t) for t in trajs]
    t_max = max(s.shape[0] for s in series)
    out = np.empty((t_max, len(series)))
    for k, s in enumerate(series):
        out[: s.shape[0], k] = s
        out[s.shape[0] :, k] = s[-1]
    return out


def emit_plot_data(report: LiftReport, out_dir: Union[str, Path]) -> list[Path]:
    """summary.csv plus per-treatment mean welfare / mean average-multiplier
    series and raw per-(run, treatment) trajectories.  Pure function of the
    report: regenerating produces byte-identical files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    path = out / "summary.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=[
                "treatment", "gamma", "wel_lift_mean", "wel_lift_ci",
                "rev_lift_mean", "rev_lift_ci",
            ],
        )
        writer.writeheader()
        for row in report.summary_rows():
            writer.writerow(
                {k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()}
            )
    written.append(path)

    path = out / "runs.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["run", "treatment", "gamma", "wel_end", "rev_end",
             "wel_lift", "rev_lift", "converged", "flags"]
        )
        for r in sorted(report.results, key=lambda r: (r.run, r.treatment.label)):
            writer.writerow(
                [r.run, r.treatment.label, repr(r.treatment.gamma),
                 repr(r.wel_end), repr(r.rev_end), repr(r.wel_lift),
                 repr(r.rev_lift), int(r.converged), "|".join(r.flags)]
            )
    written.append(path)

    for spec in report.treatments:
        rows = report.per_run(spec.label)
        for r in rows:
            p = out / f"traj_{r.run}_{spec.label}.csv"
            r.trajectory.write_aggregate_csv(str(p))
            written.append(p)

    for name, column in (
        ("plot_welfare.csv", lambda t: t.total_wel()),
        ("plot_multiplier.csv", lambda t: t.avg_multiplier()),
    ):
        path = out / name
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter"] + [s.label for s in report.treatments])
            cols = [
                _padded_series([r.trajectory for r in report.per_run(s.label)], column).mean(axis=1)
                for s in report.treatments
            ]
            t_max = max(c.shape[0] for c in cols)
            for t in range(t_max):
                writer.writerow(
                    [t] + [repr(float(c[min(t, c.shape[0] - 1)])) for c in cols]
                )
        written.append(path)
    return written
