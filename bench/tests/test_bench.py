"""Tests of the benchmark's own code: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import copy
import json
import sys
import threading
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from reference import mismatches  # noqa: E402
from tracing import Span, Tracer, layer_table, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def prog():
    return run.import_program()


# -- self time -------------------------------------------------------------


def test_self_time_with_children_on_two_threads():
    spans = [
        Span(1, 0, "outer", 10, 0.0, 10.0, 0.0),
        Span(2, 1, "work", 20, 1.0, 6.0, 4.0),  # worker thread A
        Span(3, 1, "work", 30, 4.0, 8.0, 3.0),  # worker thread B, overlaps A
        Span(4, 2, "leaf", 20, 2.0, 3.0, 0.0),
        Span(5, 0, "outer", 10, 11.0, 12.0, 0.0),
    ]
    own = self_times(spans)
    # the children cover [1, 8] once, not 5 + 4 seconds
    assert own == {1: 3.0, 2: 4.0, 3: 4.0, 4: 1.0, 5: 1.0}
    table = layer_table(spans)
    assert table["outer"] == (2, 11.0, 4.0)
    assert table["work"] == (2, 9.0, 8.0)
    assert table["leaf"] == (1, 1.0, 1.0)


def test_self_time_clips_children_to_parent():
    spans = [Span(1, 0, "a", 1, 0.0, 2.0, 0.0), Span(2, 1, "b", 2, 1.0, 5.0, 0.0)]
    assert self_times(spans)[1] == 1.0


def _fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    layer = types.ModuleType("fakepkg.layer")
    exec(
        "import threading\n"
        "def inner(x):\n"
        "    return x + 1\n"
        "def outer():\n"
        "    out = []\n"
        "    t = threading.Thread(target=lambda: out.append(inner(1)))\n"
        "    t.start()\n"
        "    t.join(10)\n"
        "    return out\n",
        layer.__dict__,
    )
    user = types.ModuleType("fakepkg.user")
    user.inner = layer.inner  # a second namespace that imported the name
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.layer", layer)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)
    return layer, user


def test_worker_thread_span_takes_the_installing_threads_span_as_parent(monkeypatch):
    layer, user = _fake_package(monkeypatch)
    originals = (layer.inner, layer.outer)
    tracer = Tracer(package="fakepkg", layers=("layer",),
                    expected=("layer.inner", "layer.outer", "layer.gone"), hooks={})
    with tracer:
        assert user.inner is not originals[0] and layer.inner is user.inner
        assert layer.outer() == [2]
    assert (layer.inner, layer.outer) == originals and user.inner is originals[0]
    assert tracer.absent == ["layer.gone"]
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["layer.inner"].parent == by_name["layer.outer"].sid
    assert by_name["layer.inner"].thread != by_name["layer.outer"].thread
    assert by_name["layer.inner"].thread != threading.get_ident()


# -- tracing the program ---------------------------------------------------


def test_tracer_wraps_every_namespace_and_restores_originals(prog):
    clear_batch = prog.clearing.clear_batch
    require_valid = prog.types.ProblemInstance.__dict__["require_valid"]
    with Tracer() as tracer:
        assert prog.agents.clear_batch is not clear_batch
        assert prog.dominance.clear_batch is prog.agents.clear_batch
        assert prog.clearing.clear_batch is prog.agents.clear_batch
        assert sys.modules["auctionkit"].clear_batch is prog.agents.clear_batch
        assert prog.types.ProblemInstance.__dict__["require_valid"] is not require_valid
    for mod in (prog.clearing, prog.agents, prog.dominance, prog.bounds, sys.modules["auctionkit"]):
        assert mod.clear_batch is clear_batch
    assert prog.types.ProblemInstance.__dict__["require_valid"] is require_valid
    assert tracer.absent == []


def test_missing_wrapped_name_is_reported_absent(prog, monkeypatch):
    monkeypatch.delattr(prog.clearing, "rank_auctions")
    monkeypatch.delattr(prog.bounds, "rank_auctions")
    monkeypatch.delattr(sys.modules["auctionkit"], "rank_auctions")
    record = run.Pass(traced=True, tracer=Tracer())
    with record.tracer:
        inst = prog.types.ProblemInstance(2, 1, [1], [[1.0], [2.0]], [[1.0]])
        cfg = prog.types.MechanismConfig(prog.types.AuctionFormat.GSP, 2, 1)
        prog.clearing.clear_batch(inst, cfg, prog.types.BidProfile([[1.0], [2.0]]))
    record.latencies.append(1.0)
    assert "clearing.rank_auctions" in record.tracer.absent
    metrics = run.layer_metrics(record, untraced_wall=1.0)
    assert metrics.get("clearing.rank_auctions.self_s", 0) == 0
    assert metrics["clearing.clear_batch.calls"] == 1
    assert metrics["clearing.clear_batch.auctions"] == 1


# -- the median / sample-count rule ---------------------------------------


@pytest.mark.parametrize("n, tail", [(9, None), (39, None), (40, 75.0), (100, 90.0),
                                     (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_summarize_reports_the_highest_percentile_with_ten_samples_beyond(n, tail):
    xs = [float(k) for k in range(n, 0, -1)]
    out = run.summarize(xs)
    assert out["n"] == n
    assert out["p50"] == (n + 1) / 2
    if tail is None:
        assert out["tail"] is None
    else:
        p, value = out["tail"]
        assert p == tail
        assert sum(x > value for x in xs) >= 10


# -- the reference check ---------------------------------------------------


def test_reference_check_flags_a_lift_perturbed_by_1e_6():
    wl = WORKLOADS["lift-experiment"]
    expected = wl.expected(wl.load_reference(), 0)
    assert mismatches(expected, copy.deepcopy(expected)) == []
    got = copy.deepcopy(expected)
    got["runs"][1]["wel_lift"] += 1e-6
    assert mismatches(expected, got) == ["$.runs[1].wel_lift: expected "
                                         f"{expected['runs'][1]['wel_lift']!r}, got {got['runs'][1]['wel_lift']!r}"]
    got = copy.deepcopy(expected)
    got["summary"][2]["rev_lift_mean"] *= 1 + 5e-13  # a reassociated sum still passes
    assert mismatches(expected, got) == []


def test_reference_check_is_exact_on_structure():
    assert mismatches({"a": [1, 2]}, {"a": [1, 2, 3]}) == ["$.a: length 2 != 3"]
    assert mismatches({"rc": 0}, {"rc": 1}) == ["$.rc: expected 0, got 1"]
    assert mismatches({"ok": True}, {"ok": 1}) != []
    assert mismatches({"x": 0.0}, {"x": 1e-13}) == []


def test_perturbed_reference_fails_the_unit(prog, tmp_path):
    wl = WORKLOADS["certify"]
    state = wl.setup(prog, tmp_path / "work", (3,))
    reference = wl.load_reference()
    clean = run.Pass(traced=False)
    run.run_unit(wl, state, reference, 3, clean)
    assert clean.failures == []
    perturbed = copy.deepcopy(reference)
    perturbed["units"]["3"]["dynamics"]["GSP"]["multipliers"][0] *= 1 + 1e-6
    bad = run.Pass(traced=False)
    run.run_unit(wl, state, perturbed, 3, bad)
    assert [uid for uid, _ in bad.failures] == [3]
    assert "multipliers" in bad.failures[0][1]
    perturbed = copy.deepcopy(reference)
    perturbed["clear"]["winner_payments"][0] *= 1 + 1e-6  # the wide clear, shared by every unit
    bad = run.Pass(traced=False)
    run.run_unit(wl, state, perturbed, 3, bad)
    assert [uid for uid, _ in bad.failures] == [3]
    assert "winner_payments" in bad.failures[0][1]


# -- the contract ------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    for wl in WORKLOADS.values():
        assert wl.per_pass <= wl.pool
        reference = wl.load_reference()
        assert sorted(map(int, reference["units"])) == list(range(wl.pool))


def test_predictions_cover_every_layer_metric_and_zero_cells_read_zero():
    pred = json.loads((BENCH / "predictions.json").read_text())
    named = [m for layer in pred["layers"] for m in layer["metrics"]]
    assert sorted(named) == sorted(n for n, _ in run.PER_LAYER if not n.startswith("trace."))
    baseline = json.loads((BENCH / "baseline.json").read_text())["workloads"]
    for layer in pred["layers"]:
        assert {cell["workload"] for cell in layer["moves"]} <= set(WORKLOADS)
        for workload in layer["zero_on"]:
            for metric in layer["metrics"]:
                assert baseline[workload]["per_layer"][metric] == 0, (workload, metric)
