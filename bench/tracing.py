"""Span tracing installed from outside the program.

`Tracer.install` wraps the public functions of auctionkit's modules, and
the `require_valid` methods of the value types, in every module namespace
that holds them, so `auctionkit.agents.clear_batch` and
`auctionkit.dominance.clear_batch` are both traced.  Each call records one
span (id, parent, name, thread, start, end) in memory; `uninstall` puts
the original objects back.

Each thread keeps its own span stack.  The first span a worker thread
opens takes as parent the span then open on the thread that installed the
tracer, which is the span that handed it the work (`run_experiment` and its
thread pool).  A span's self time is its duration minus the part of that
interval its children cover, so overlapping children on two worker
threads are not subtracted twice.
"""

from __future__ import annotations

import collections
import csv
import functools
import gzip
import inspect
import itertools
import sys
import threading
import time
from typing import Callable, Iterable, NamedTuple, Optional

LAYERS = ("types", "clearing", "agents", "bounds", "dominance", "experiments", "cli")
METHODS = ("require_valid",)

# Names the per-layer metrics read.  One the program no longer defines is
# reported as absent and its metrics read 0.
EXPECTED = (
    "types.load_json",
    "clearing.clear",
    "clearing.clear_batch",
    "clearing.rank_auctions",
    "clearing.welfare_per_bidder",
    "clearing.revenue_per_bidder",
    "clearing.opt_welfare",
    "agents.run_dynamics",
    "agents.best_response_uniform",
    "agents.response_grid",
    "bounds.assert_corollary",
    "bounds.check_lemma1_preconditions",
    "bounds.sample_signals",
    "dominance.run_lemma_check",
    "dominance.build_closure_grid",
    "dominance.undominated_set",
    "dominance.evaluate_profiles",
    "experiments.run_experiment",
    "experiments.generate_instance",
    "experiments.sample_treatment_signals",
    "experiments.emit_plot_data",
    "cli.main",
)


class Span(NamedTuple):
    sid: int
    parent: int  # 0: no parent
    name: str
    thread: int
    start: float
    end: float
    cpu: float  # thread CPU seconds, recorded only for a worker thread's outermost spans


# -- work counts read from arguments and results -------------------------


def _count_auctions(counts, args, kwargs, result) -> None:
    counts["clearing.clear_batch.auctions"] += result.payments.shape[1]


def _count_grid(counts, args, kwargs, result) -> None:
    counts["agents.grid_points"] += len(result)


def _count_iterations(counts, args, kwargs, result) -> None:
    counts["agents.iterations"] += result.steps


def _count_payoff_cells(counts, args, kwargs, result) -> None:
    grid = result.grid
    for i, survivors in enumerate(result.per_bidder):
        # uniform mode: one candidate per ladder rung, before de-duplication
        cands = len(grid.multipliers) if result.mode == "uniform" else grid.candidate_count(i)
        counts["dominance.candidates"] += cands
        counts["dominance.survivors"] += len(survivors)
        counts["dominance.payoff_cells"] += cands * grid.opponent_profile_count(i)


def _count_rejected(counts, args, kwargs, result) -> None:
    counts["experiments.rejected_seeds"] += result.rejected_runs


HOOKS: dict[str, Callable] = {
    "clearing.clear_batch": _count_auctions,
    "agents.response_grid": _count_grid,
    "agents.run_dynamics": _count_iterations,
    "dominance.undominated_set": _count_payoff_cells,
    "experiments.run_experiment": _count_rejected,
}


class Tracer:
    """Records spans around the program's public functions while installed."""

    def __init__(self, package: str = "auctionkit", layers: Iterable[str] = LAYERS,
                 expected: Iterable[str] = EXPECTED, hooks: Optional[dict] = None):
        self.package = package
        self.layers = tuple(layers)
        self.expected = tuple(expected)
        self.hooks = HOOKS if hooks is None else hooks
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self.hook_errors: set[str] = set()
        self.wrapped: set[str] = set()
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self.home_thread = 0
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.home_thread = threading.get_ident()
        wrappers = {}
        for layer in self.layers:
            mod = sys.modules.get(f"{self.package}.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth in METHODS:
                        fn = obj.__dict__.get(meth)
                        if inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))
        for name, mod in list(sys.modules.items()):
            if name != self.package and not name.startswith(self.package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        self.absent = [name for name in self.expected if name not in self.wrapped]

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name: str, func: Callable) -> Callable:
        self.wrapped.add(name)
        hook = self.hooks.get(name)
        spans, stacks, ids, counts = self.spans, self._stacks, self._ids, self.counts
        clock, thread_clock, ident = time.perf_counter, time.thread_time, threading.get_ident

        @functools.wraps(func)
        def traced(*args, **kwargs):
            tid = ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks.setdefault(tid, [])
            cpu0 = None
            if stack:
                parent = stack[-1]
            elif tid != self.home_thread:
                outer = stacks.get(self.home_thread)
                parent = outer[-1] if outer else 0
                cpu0 = thread_clock()
            else:
                parent = 0
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                cpu = thread_clock() - cpu0 if cpu0 is not None else 0.0
                spans.append(Span(sid, parent, name, tid, start, end, cpu))
            if hook is not None:
                try:
                    hook(counts, args, kwargs, result)
                except (AttributeError, TypeError, KeyError):
                    self.hook_errors.add(name)
            return result

        return traced



def write_spans(path, spans: Iterable[Span]) -> None:
    """Write spans as gzip-compressed CSV, one row per span."""
    with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(Span._fields)
        writer.writerows(spans)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = collections.defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - _covered(children.get(s.sid, []), s.start, s.end)
        for s in spans
    }


class LayerStats(NamedTuple):
    calls: int
    total_s: float  # inclusive
    self_s: float


def layer_table(spans: Iterable[Span]) -> dict[str, LayerStats]:
    """Calls, inclusive time and self time per span name."""
    spans = list(spans)
    own = self_times(spans)
    calls: collections.Counter = collections.Counter()
    total: dict[str, float] = collections.defaultdict(float)
    self_s: dict[str, float] = collections.defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.end - s.start
        self_s[s.name] += own[s.sid]
    return {name: LayerStats(calls[name], total[name], self_s[name]) for name in calls}
