"""auctionkit benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload lift-experiment --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
The seed picks the units of one pass from the workload's recorded pool
(see workloads.py).  After set-up and one untimed warm-up unit, the run
repeats the pass, a closed loop in this one process, until the next pass
would overrun `--seconds` of timed work.  Every unit's outputs are checked
against the reference recorded from the seed commit; a unit that raises,
exits non-zero or differs counts as failed.

With `--trace 0` the last line of standard output carries the end-to-end
metrics, each a median over passes or units:

    setup_s      median of repeated set-ups, a few before the first pass
                 and more after each pass, so that the median samples the
                 machine over the whole run: fresh import of auctionkit
                 (numpy stays loaded; its one import is recorded as
                 numpy_import_s with the environment), input generation,
                 input files, reference load
    wall_s       wall time of one pass (the units only, not the checks)
    unit_p50_ms  median unit latency; its sample count and tail are printed above
    cpu_s        process user+sys time of one pass, all threads
    peak_rss_mb  peak resident memory of the process
    ok_frac      units that passed / units attempted (1 - failed_frac)

With `--trace 1` passes alternate untraced and traced, and the last line
carries the per-layer metrics of the traced passes (see tracing.py).
Everything measured, with the environment, also goes to
`.bench_out/<workload>-seed<seed>-trace<t>.json`, and the spans of the
traced passes to `.bench_out/spans-<workload>.csv.gz`.

`python3 bench/record.py` re-records the references;
`python3 -m pytest bench/tests -q` tests this code.
"""

from __future__ import annotations

import os

# Cap native thread pools before numpy loads: the program's own threads
# are the only parallelism measured.
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_CAPS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402
from typing import Optional  # noqa: E402

_t0 = time.perf_counter()
import numpy as np  # noqa: E402

NUMPY_IMPORT_S = time.perf_counter() - _t0

from reference import mismatches  # noqa: E402
from tracing import LAYERS, Tracer, layer_table, write_spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUPS_FIRST = 3
SETUPS_PER_PASS = 2


# -- the median / sample-count rule -------------------------------------


def summarize(samples: list[float]) -> dict:
    """Median and sample count, plus the highest of the standard
    percentiles that has at least ten samples beyond it (None if none has)."""
    xs = sorted(samples)
    n = len(xs)
    out = {"p50": statistics.median(xs), "n": n, "tail": None}
    for per_mille in (999, 990, 950, 900, 750):
        if n * (1000 - per_mille) >= 10 * 1000:
            out["tail"] = (per_mille / 10, xs[math.ceil(per_mille * n / 1000) - 1])
            break
    return out


# -- program import ------------------------------------------------------


def program_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "auctionkit" or n.startswith("auctionkit.")}


def import_program() -> SimpleNamespace:
    """Fresh import of auctionkit from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in program_modules():
        del sys.modules[name]
    pkg = importlib.import_module("auctionkit")
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"auctionkit imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{layer: importlib.import_module(f"auctionkit.{layer}")
                              for layer in LAYERS})


# -- one pass -------------------------------------------------------------


@dataclass
class Pass:
    traced: bool
    latencies: list[float] = field(default_factory=list)
    cpu: float = 0.0
    failures: list[tuple[int, str]] = field(default_factory=list)
    counters: collections.Counter = field(default_factory=collections.Counter)
    tracer: Optional[Tracer] = None

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_unit(workload: Workload, state, reference: dict, uid: int, record: Pass) -> None:
    """Time one unit into `record`, then check its outputs (untimed)."""
    c0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        raw = workload.run(state, uid)
        problem = None
    except Exception:  # any failure of the program is a failed unit
        raw, problem = None, traceback.format_exc(limit=3)
    record.latencies.append(time.perf_counter() - t0)
    record.cpu += _cpu_seconds() - c0
    if problem is None:
        try:
            got = workload.outputs(state, uid, raw)
            record.counters.update(workload.counters(state, uid, raw))
            bad = mismatches(workload.expected(reference, uid), got)
            problem = "; ".join(bad) or None
        except Exception:  # unreadable or missing output is a failed unit
            problem = traceback.format_exc(limit=3)
    workload.cleanup(state, uid)
    if problem is not None:
        record.failures.append((uid, problem))


def run_pass(workload: Workload, state, reference: dict, traced: bool) -> Pass:
    record = Pass(traced=traced, tracer=Tracer() if traced else None)
    with record.tracer or contextlib.nullcontext():
        for uid in state.units:
            run_unit(workload, state, reference, uid, record)
    return record


# -- metrics ---------------------------------------------------------------

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("unit_p50_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)

PER_LAYER = (
    ("clearing.clear_batch.calls", "count"),
    ("clearing.clear_batch.self_s", "s"),
    ("clearing.clear_batch.auctions", "count"),
    ("clearing.clear_batch.us_per_auction", "us"),
    ("clearing.clear.calls", "count"),
    ("clearing.clear.self_s", "s"),
    ("clearing.rank_auctions.self_s", "s"),
    ("clearing.welfare_per_bidder.self_s", "s"),
    ("clearing.revenue_per_bidder.self_s", "s"),
    ("clearing.opt_welfare.self_s", "s"),
    ("types.require_valid.calls", "count"),
    ("types.require_valid.self_s", "s"),
    ("types.load_json.self_s", "s"),
    ("agents.run_dynamics.calls", "count"),
    ("agents.run_dynamics.self_s", "s"),
    ("agents.run_dynamics.ms_per_iteration", "ms"),
    ("agents.iterations", "count"),
    ("agents.best_response_uniform.calls", "count"),
    ("agents.best_response_uniform.self_s", "s"),
    ("agents.response_grid.self_s", "s"),
    ("agents.grid_points", "count"),
    ("agents.clears_per_best_response", "count"),
    ("bounds.assert_corollary.calls", "count"),
    ("bounds.assert_corollary.self_s", "s"),
    ("bounds.check_lemma1_preconditions.self_s", "s"),
    ("bounds.sample_signals.self_s", "s"),
    ("dominance.run_lemma_check.calls", "count"),
    ("dominance.build_closure_grid.self_s", "s"),
    ("dominance.undominated_set.self_s", "s"),
    ("dominance.evaluate_profiles.self_s", "s"),
    ("dominance.payoff_cells", "count"),
    ("dominance.survivor_frac", "ratio"),
    ("experiments.run_experiment.calls", "count"),
    ("experiments.run_experiment.self_s", "s"),
    ("experiments.generate_instance.calls", "count"),
    ("experiments.generate_instance.self_s", "s"),
    ("experiments.sample_treatment_signals.self_s", "s"),
    ("experiments.emit_plot_data.self_s", "s"),
    ("experiments.bytes_written", "bytes"),
    ("experiments.rejected_seeds", "count"),
    ("experiments.pool_speedup", "ratio"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unspanned_s", "s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(record: Pass, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    tracer = record.tracer
    spans = tracer.spans
    table = layer_table(spans)
    out: dict[str, float] = {}
    for name, stats in table.items():
        out[f"{name}.calls"] = stats.calls
        out[f"{name}.self_s"] = stats.self_s
    validations = [s for n, s in table.items() if n.startswith("types.") and n.endswith(".require_valid")]
    out["types.require_valid.calls"] = sum(s.calls for s in validations)
    out["types.require_valid.self_s"] = sum(s.self_s for s in validations)
    out.update(tracer.counts)
    out.update(record.counters)

    def total(name: str) -> float:
        return table[name].total_s if name in table else 0.0

    out["clearing.clear_batch.us_per_auction"] = 1e6 * _ratio(
        out.get("clearing.clear_batch.self_s", 0.0), out.get("clearing.clear_batch.auctions", 0))
    out["agents.run_dynamics.ms_per_iteration"] = 1e3 * _ratio(
        total("agents.run_dynamics"), out.get("agents.iterations", 0))
    responders = {s.sid for s in spans if s.name == "agents.best_response_uniform"}
    out["agents.clears_per_best_response"] = _ratio(
        sum(1 for s in spans if s.name == "clearing.clear_batch" and s.parent in responders),
        len(responders))
    out["dominance.survivor_frac"] = _ratio(
        out.get("dominance.survivors", 0), out.get("dominance.candidates", 0))
    # worker-thread CPU per second of run_experiment: GIL waits do not count as work
    out["experiments.pool_speedup"] = _ratio(
        sum(s.cpu for s in spans if s.thread != tracer.home_thread), total("experiments.run_experiment"))
    out["trace.overhead_frac"] = _ratio(record.wall, untraced_wall) - 1.0
    out["trace.unspanned_s"] = record.wall - sum(
        s.end - s.start for s in spans if s.thread == tracer.home_thread and not s.parent)
    return out


# -- environment ---------------------------------------------------------


def git_sha(root: Path) -> Optional[str]:
    """HEAD commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(workload: Workload, units, passes: list[Pass], setups: list[float]) -> dict:
    return {
        "git_sha": git_sha(ROOT),
        "src_sha256": source_digest(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_caps": {var: os.environ[var] for var in THREAD_CAPS},
        "numpy_import_s": NUMPY_IMPORT_S,
        "setup_repeats": len(setups),
        "pool_units": workload.pool,
        "units_per_pass": workload.per_pass,
        "units": list(units),
        "passes": len(passes),
        "traced_passes": sum(p.traced for p in passes),
    }


# -- main ----------------------------------------------------------------


def measure(workload: Workload, state, reference: dict, seconds: float,
            trace: bool, between=lambda: None) -> tuple[Pass, list[Pass]]:
    """One untimed warm-up unit, then passes until the next one would
    overrun `seconds` of timed work, calling `between` after each pass but
    the last.  With `trace`, every second pass is traced, and at least one
    of each kind runs."""
    warmup = Pass(traced=False)
    run_unit(workload, state, reference, state.units[0], warmup)
    passes: list[Pass] = []
    timed = 0.0
    while True:
        record = run_pass(workload, state, reference, traced=trace and len(passes) % 2 == 1)
        passes.append(record)
        timed += record.wall
        if len(passes) >= 1 + trace and timed + record.wall > seconds:
            return warmup, passes
        between()


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    units = workload.plan(args.seed)
    setups: list[float] = []

    def set_up(work: Path):
        t0 = time.perf_counter()
        prog = import_program()
        state = workload.setup(prog, work, units)
        reference = workload.load_reference()
        setups.append(time.perf_counter() - t0)
        return state, reference

    def between_passes() -> None:
        # time more set-ups, in a directory of their own; the passes keep
        # the modules they started with, so the tracer wraps what they call
        kept = program_modules()
        for _ in range(SETUPS_PER_PASS):
            set_up(OUT_DIR / "work" / f"{workload.name}-setup")
        for name in program_modules():
            del sys.modules[name]
        sys.modules.update(kept)
        gc.collect()

    try:
        for _ in range(SETUPS_FIRST):
            state, reference = set_up(OUT_DIR / "work" / workload.name)
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2

    warmup, passes = measure(workload, state, reference, args.seconds, bool(args.trace),
                             between_passes)
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    failures = warmup.failures + [f for p in passes for f in p.failures]
    attempted = len(warmup.latencies) + sum(len(p.latencies) for p in passes)
    lat = summarize([1e3 * t for p in untraced for t in p.latencies])
    wall_s = statistics.median(p.wall for p in untraced)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "unit_p50_ms": lat["p50"],
        "cpu_s": statistics.median(p.cpu for p in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - len(failures)) / attempted,
    }
    end_to_end = {name: (values[name], unit) for name, unit in END_TO_END}

    per_layer = {}
    absent: set[str] = set()
    if traced:
        # compare each traced pass with the untraced passes on either side of
        # it, so that machine speed drifting over the run cancels out
        per_pass = [
            layer_metrics(p, statistics.mean(q.wall for q in passes[max(k - 1, 0) : k + 2]
                                             if not q.traced))
            for k, p in enumerate(passes) if p.traced
        ]
        for name, unit in PER_LAYER:
            per_layer[name] = (statistics.median(m.get(name, 0) for m in per_pass), unit)
        for p in traced:
            absent.update(p.tracer.absent)
            absent.update(p.tracer.hook_errors)

    env = environment(workload, units, passes, setups)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {len(units)} units, {attempted} attempted, "
          f"{len(failures)} failed")
    print("env " + json.dumps(env, sort_keys=True))
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {len(untraced)} passes",
        "cpu_s": f"median of {len(untraced)} passes",
        "unit_p50_ms": f"median of n={lat['n']} units"
        + (f", p{lat['tail'][0]:g}={_fmt(lat['tail'][1])} ms" if lat["tail"] else ""),
        "ok_frac": f"failed_frac {len(failures) / attempted:g} ({len(failures)}/{attempted})",
    }
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<14} {_fmt(value):>12} {unit:<6} {notes.get(name, '')}")
    for name, (value, unit) in per_layer.items():
        print(f"  {name:<46} {_fmt(value):>12} {unit}")
    if absent:
        print("absent (reported as 0): " + ", ".join(sorted(absent)))
    for uid, problem in failures[:5]:
        print(f"unit {uid} failed: {problem.strip().splitlines()[-1][:300]}")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if traced:
        write_spans(OUT_DIR / f"spans-{workload.name}.csv.gz",
                    (s for p in traced for s in p.tracer.spans))
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        "functions": {name: stats._asdict() for p in traced[:1]
                      for name, stats in sorted(layer_table(p.tracer.spans).items())},
        "absent": sorted(absent),
        "setup_samples_s": setups,
        "pass_walls_s": [p.wall for p in passes],
        "unit_latencies_s": [list(zip(units, p.latencies)) for p in passes],
        "pass_traced": [p.traced for p in passes],
        "unit_latency": lat,
        "failures": [{"unit": uid, "problem": problem} for uid, problem in failures],
    }
    with open(OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)

    metrics = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
