"""Command-line entry point.

Five workflows behind one parser: one-shot clearing of an instance file,
randomized end-to-end bound verification, grid-relative dominance checks,
worst-case instance generation, and the multi-run lift experiment.

Exit codes: 0 success, 1 a verification reported FAIL, 2 usage error
(bad flags, malformed files, hypothesis violations).  All randomness
flows from the --seed flag through named substreams, so identical argv
produce byte-identical outputs.  Commands with an --out directory stamp
the fully resolved configuration into <out>/config.json.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import logging
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .agents import DynamicsConfig
from .bounds import COROLLARIES, assert_corollary, sample_signals, tight_instance
from .clearing import clear, opt_welfare, revenue_per_bidder, welfare_per_bidder
from .dominance import _KIND_FORMAT, LEMMA_KINDS, run_lemma_check
from .experiments import GeneratorSpec, TreatmentSpec, run_experiment
from .types import (
    BidProfile, MechanismConfig, ProblemInstance, _indented_json, _is_int, _parse_json_file, load_json,
)

log = logging.getLogger("auctionkit.cli")

TIGHT_KINDS = ("revenue_single", "reserve_only", "boost_only", "reserve_and_boost")


@dataclasses.dataclass(frozen=True)
class CliConfig:
    """Resolved invocation: subcommand plus every flag value after
    defaults, exactly what gets stamped into the output directory."""

    subcommand: str
    flags: dict

    def to_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "flags": {k: self.flags[k] for k in sorted(self.flags)},
            "version": __version__,
        }


def _resolved_config(args: argparse.Namespace, **extra) -> CliConfig:
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    flags.update(extra)
    return CliConfig(subcommand=args.command, flags=flags)


def _write_out(args: argparse.Namespace, files: dict[str, str], **extra) -> None:
    """Stamp the resolved configuration into <out>/config.json, then write
    each named file's text there."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stamp = _indented_json(_resolved_config(args, **extra).to_dict()) + "\n"
    for name, text in {"config.json": stamp, **files}.items():
        with open(out / name, "w") as fh:
            fh.write(text)
        log.info("wrote %s", out / name)


def _jsonl(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True)


# -- clear --------------------------------------------------------------


def _cmd_clear(args: argparse.Namespace) -> int:
    instance = load_json(ProblemInstance, args.instance)
    config = load_json(MechanismConfig, args.mechanism)
    bids = load_json(BidProfile, args.bids)
    outcome = clear(instance, config, bids)
    wel = welfare_per_bidder(instance, outcome)
    rev = revenue_per_bidder(outcome)
    payload = {
        **outcome.to_dict(),
        "welfare_per_bidder": wel.tolist(),
        "revenue_per_bidder": rev.tolist(),
        "welfare": float(wel.sum()),
        "revenue": float(rev.sum()),
        "opt_welfare": opt_welfare(instance),
    }
    # encoded once: stdout and outcome.json hold the same bytes
    text = _indented_json(payload) if args.format == "json" or args.out is not None else ""
    if args.format == "json":
        print(text)
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(["auction", "slot", "winner", "payment"])
        for j, winners in enumerate(outcome.winners):
            for k, i in enumerate(winners[: outcome.slots[j]]):
                pay = repr(float(outcome.payments[i, j])) if i >= 0 else ""
                writer.writerow([j, k, int(i), pay])
    if args.out is not None:
        _write_out(args, {"outcome.json": text + "\n"})
    return 0


# -- verify-bounds ------------------------------------------------------


def _random_setting(rng: np.random.Generator) -> ProblemInstance:
    """Small random instance with positive values and strictly
    decreasing position curves."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 4))
    slots = [int(rng.integers(1, min(3, n) + 1)) for _ in range(m)]
    values = rng.uniform(0.1, 2.0, size=(n, m))
    pos = [np.cumprod(rng.uniform(0.3, 0.95, size=s)) for s in slots]
    return ProblemInstance(n, m, slots, values, pos)


def _cmd_verify_bounds(args: argparse.Namespace) -> int:
    spec = COROLLARIES[args.corollary]
    band = spec.band(args.gamma)  # reject a bad gamma before any sampling
    rows = []
    failures = 0
    for trial in range(args.trials):
        instance = _random_setting(np.random.default_rng([args.seed, trial, 0]))
        reserves, boosts = sample_signals(instance, band, [args.seed, trial])
        config = MechanismConfig(spec.format, instance.n, instance.m, reserves, boosts)
        bids = BidProfile(instance.values)  # truthful satisfies every hypothesis
        outcome = clear(instance, config, bids)
        report = assert_corollary(instance, config, outcome, args.corollary, args.gamma, bids)
        failures += 0 if report.passed else 1
        rows.append(
            {"trial": trial, "status": "PASS" if report.passed else "FAIL", **report.to_dict()}
        )

    if args.format == "json":
        for row in rows:
            print(_jsonl(row))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(
            ["trial", "status", "corollary", "gamma", "wel_ratio",
             "rev_ratio", "wel_bound", "rev_bound", "preconditions_ok"]
        )
        for row in rows:
            writer.writerow(
                [row["trial"], row["status"], row["corollary"], repr(row["gamma"]),
                 repr(row["wel_ratio"]), repr(row["rev_ratio"]), repr(row["wel_bound"]),
                 repr(row["rev_bound"]), int(all(c["ok"] for c in row["preconditions"].values()))]
            )
    if args.out is not None:
        _write_out(args, {"reports.jsonl": "".join(_jsonl(row) + "\n" for row in rows)})
    return 1 if failures else 0


# -- check-dominance ----------------------------------------------------


def _lemma_setting(
    rng: np.random.Generator, kind: str, gamma: float
) -> tuple[ProblemInstance, MechanismConfig]:
    """Two bidders, two single-slot auctions, reserves at gamma * v.
    The boosted kinds get one proportional boost factor (band width 0)."""
    values = rng.uniform(0.5, 2.0, size=(2, 2))
    instance = ProblemInstance(2, 2, [1, 1], values, [np.ones(1), np.ones(1)])
    boosts = None
    if kind in ("vcg", "gsp-uniform"):
        boosts = float(rng.uniform(0.05, 0.95)) * values
    config = MechanismConfig(_KIND_FORMAT[kind], 2, 2, gamma * values, boosts)
    return instance, config


def _cmd_check_dominance(args: argparse.Namespace) -> int:
    rows = []
    failures = 0
    for trial in range(args.trials):
        rng = np.random.default_rng([args.seed, trial])
        instance, config = _lemma_setting(rng, args.lemma, args.gamma)
        report = run_lemma_check(instance, config, args.lemma)
        failures += 0 if report.passed else 1
        rows.append(
            {"trial": trial, "status": "PASS" if report.passed else "FAIL", **report.to_dict()}
        )
    for row in rows:
        print(_jsonl(row))
    if args.out is not None:
        _write_out(args, {"reports.jsonl": "".join(_jsonl(row) + "\n" for row in rows)})
    return 1 if failures else 0


# -- tight-instances ----------------------------------------------------


def _cmd_tight_instances(args: argparse.Namespace) -> int:
    kinds = TIGHT_KINDS if args.kind == "all" else (args.kind,)
    records = []
    failures = 0
    for kind in kinds:
        ti = tight_instance(kind, args.gamma, args.eps)
        outcome = clear(ti.instance, ti.config, ti.bids)
        opt = opt_welfare(ti.instance)
        if ti.metric == "revenue":
            achieved = float(revenue_per_bidder(outcome).sum() / opt)
        else:
            achieved = float(welfare_per_bidder(ti.instance, outcome).sum() / opt)
        # the constructions approach the target from above at rate O(eps)
        ok = abs(achieved - ti.expected_ratio) <= max(4.0 * args.eps, 1e-12)
        failures += 0 if ok else 1
        records.append(
            {
                "kind": kind,
                "gamma": ti.gamma,
                "eps": ti.eps,
                "metric": ti.metric,
                "expected_ratio": ti.expected_ratio,
                "achieved_ratio": achieved,
                "achieved_ok": ok,
                "instance": ti.instance.to_dict(),
                "config": ti.config.to_dict(),
                "bids": ti.bids.to_dict(),
            }
        )
    for rec in records:
        print(_jsonl(rec))
    if args.out is not None:
        _write_out(args, {f"tight_{rec['kind']}.json": _indented_json(rec) + "\n" for rec in records})
    return 1 if failures else 0


# -- run-experiment -----------------------------------------------------


def _experiment_from_dict(raw: dict) -> dict:
    known = {"generator", "treatments", "dynamics", "runs", "master_seed"}
    extra = set(raw) - known
    if extra:
        raise ValueError(f"unknown experiment config keys: {sorted(extra)}")
    if "generator" not in raw or "treatments" not in raw:
        raise ValueError("experiment config needs 'generator' and 'treatments'")
    generator, treatments = raw["generator"], raw["treatments"]
    dynamics = raw.get("dynamics", {})
    if not isinstance(generator, dict) or not isinstance(dynamics, dict):
        raise ValueError("'generator' and 'dynamics' must be JSON objects")
    if not isinstance(treatments, list) or not all(isinstance(t, dict) for t in treatments):
        raise ValueError("'treatments' must be a list of JSON objects")
    extra = set(dynamics) - {f.name for f in dataclasses.fields(DynamicsConfig)}
    if extra:
        raise ValueError(f"unknown dynamics keys: {sorted(extra)}")
    runs, master_seed = raw.get("runs", 10), raw.get("master_seed", 0)
    if not (_is_int(runs) and _is_int(master_seed)):
        raise ValueError("'runs' and 'master_seed' must be integers")
    return {
        "generator": GeneratorSpec.from_dict(generator),
        "treatments": [TreatmentSpec.from_dict(d) for d in treatments],
        "dynamics": DynamicsConfig(**dynamics),
        "runs": runs,
        "master_seed": master_seed,
    }


def _cmd_run_experiment(args: argparse.Namespace) -> int:
    exp = _parse_json_file(args.config, _experiment_from_dict)
    out = Path(args.out)
    try:
        report = run_experiment(
            exp["generator"],
            exp["treatments"],
            dyn=exp["dynamics"],
            runs=exp["runs"],
            master_seed=exp["master_seed"],
            jobs=args.jobs,
            out_dir=out,
        )
    except (RuntimeError, ValueError) as exc:
        # a config the run refuses, e.g. one whose instances have no gap to measure
        raise ValueError(f"{args.config}: {exc}") from exc
    resolved = {
        "generator": exp["generator"].to_dict(),
        "treatments": [t.to_dict() for t in exp["treatments"]],
        "dynamics": dataclasses.asdict(exp["dynamics"]),
        "runs": exp["runs"],
        "master_seed": exp["master_seed"],
    }
    _write_out(args, {}, experiment=resolved)
    print(f"runs={report.runs} rejected={report.rejected_runs}")
    for row in report.summary_rows():
        print(
            f"{row['treatment']}: wel_lift {row['wel_lift_mean']:+.4f} "
            f"+- {row['wel_lift_ci']:.4f}, rev_lift {row['rev_lift_mean']:+.4f} "
            f"+- {row['rev_lift_ci']:.4f}"
        )
    return 0


# -- parser -------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="auctionkit",
        description="Position auctions with reserves and boosts: clearing, "
        "bound verification, dominance checks, worst cases, experiments.",
    )
    parser.add_argument("--version", action="version", version=f"auctionkit {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--verbose", action="store_true", help="log written files to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def out_flag(p: argparse.ArgumentParser, required: bool = False) -> None:
        p.add_argument(
            "--out", required=required, default=None,
            help="output directory (stamped with config.json)",
        )

    p = sub.add_parser("clear", parents=[common], help="clear one instance file")
    out_flag(p)
    p.add_argument("--instance", required=True, help="ProblemInstance JSON path")
    p.add_argument("--mechanism", required=True, help="MechanismConfig JSON path")
    p.add_argument("--bids", required=True, help="BidProfile JSON path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_clear)

    p = sub.add_parser(
        "verify-bounds", parents=[common],
        help="end-to-end welfare/revenue guarantee checks on random instances",
    )
    out_flag(p)
    p.add_argument("--corollary", type=int, required=True, choices=sorted(COROLLARIES))
    p.add_argument("--gamma", type=float, required=True, help="signal quality in [0, 1]")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_verify_bounds)

    p = sub.add_parser(
        "check-dominance", parents=[common],
        help="bid-floor checks on grid-relative undominated sets",
    )
    out_flag(p)
    p.add_argument("--lemma", required=True, choices=LEMMA_KINDS)
    p.add_argument("--gamma", type=float, default=0.5, help="reserve level as a fraction of value")
    p.add_argument("--trials", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check_dominance)

    p = sub.add_parser(
        "tight-instances", parents=[common],
        help="generate worst-case instances and confirm their ratios",
    )
    out_flag(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--kind", choices=TIGHT_KINDS + ("all",), default="all")
    p.set_defaults(func=_cmd_tight_instances)

    p = sub.add_parser(
        "run-experiment", parents=[common],
        help="multi-run treatment experiment from a JSON config",
    )
    out_flag(p, required=True)
    p.add_argument("--config", required=True, help="experiment config JSON path")
    p.add_argument("--jobs", type=int, default=None, help="worker threads (default: cores)")
    p.set_defaults(func=_cmd_run_experiment)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        return int(exc.code or 0)
    logging.basicConfig(stream=sys.stderr, format="%(message)s")
    log.setLevel(logging.INFO if getattr(args, "verbose", False) else logging.WARNING)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
