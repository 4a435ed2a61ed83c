"""End-to-end tests for the command-line interface.

Everything goes through main(argv) so the exit-code contract is tested
exactly as a shell would see it: 0 success, 1 verification FAIL, 2
usage error.
"""

import copy
import dataclasses
import json
import logging
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from auctionkit import (
    AuctionFormat,
    BidProfile,
    MechanismConfig,
    ProblemInstance,
    clear,
)
from auctionkit.agents import DynamicsConfig
from auctionkit.cli import TIGHT_KINDS, _build_parser, main
from auctionkit.dominance import LEMMA_KINDS
from auctionkit.experiments import GeneratorSpec, TreatmentSpec
from auctionkit.types import save_json


GOLDEN = Path(__file__).parent / "data" / "golden_clear"
GOLDEN_VERIFY = Path(__file__).parent / "data" / "golden_verify"
GOLDEN_OUT = Path(__file__).parent / "data" / "golden_out"


def read_tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture
def cleared_files(tmp_path):
    inst = ProblemInstance(
        3, 2,
        [2, 1],
        [[1.0, 0.4], [0.8, 0.9], [0.5, 0.0]],
        [np.array([1.0, 0.5]), np.array([1.0])],
    )
    config = MechanismConfig(AuctionFormat.GSP, 3, 2, reserves=0.2 * inst.values)
    bids = BidProfile(inst.values)
    paths = {}
    for name, obj in (("instance", inst), ("mechanism", config), ("bids", bids)):
        paths[name] = str(tmp_path / f"{name}.json")
        save_json(obj, paths[name])
    return inst, config, bids, paths


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        assert main(["verify-bounds", "--gamma", "0.5"]) == 2
        assert "--corollary" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_no_subcommand(self):
        assert main([]) == 2

    def test_bad_choice(self):
        assert main(["check-dominance", "--lemma", "spa"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "verify-bounds" in capsys.readouterr().out

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "auctionkit" in capsys.readouterr().out

    def test_one_parser_serves_every_call(self, capsys):
        assert _build_parser() is _build_parser()
        # a refused call leaves nothing behind for the next one
        assert main(["verify-bounds", "--corollary", "2", "--gamma", "0.3", "--trials", "0"]) == 2
        assert main(["verify-bounds", "--corollary", "2", "--gamma", "0.3", "--trials", "3",
                     "--seed", "5"]) == 0
        capsys.readouterr()
        assert main(["verify-bounds", "--corollary", "2", "--gamma", "0.3", "--trials", "3",
                     "--seed", "5", "--format", "csv"]) == 0
        expected = (GOLDEN_VERIFY / "verify_c2_g0.3.csv").read_bytes().decode()
        assert capsys.readouterr().out == expected

    def test_degenerate_gamma_rejected(self, capsys):
        # corollary 2's boost scale diverges at gamma = 1
        assert main(["verify-bounds", "--corollary", "2", "--gamma", "1.0", "--trials", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("corollary", ["1", "2", "3", "4", "5", "6"])
    def test_perfect_signal_refused_on_one_line(self, corollary, capsys):
        argv = ["verify-bounds", "--corollary", corollary, "--gamma", "1.0", "--trials", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: gamma = 1 leaves the signal band [gamma*v, v) empty\n"

    @pytest.mark.parametrize("command", [
        ["verify-bounds", "--corollary", "1", "--gamma", "0.5"],
        ["check-dominance", "--lemma", "fpa"],
    ])
    @pytest.mark.parametrize("trials", ["0", "-3", "x"])
    def test_trials_below_one_rejected_at_parse_time(self, command, trials, capsys):
        assert main(command + ["--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--trials" in captured.err

    def test_missing_input_file(self, cleared_files):
        _, _, _, paths = cleared_files
        argv = ["clear", "--instance", "/nonexistent.json",
                "--mechanism", paths["mechanism"], "--bids", paths["bids"]]
        assert main(argv) == 2


class TestVerifyBounds:
    @pytest.mark.parametrize("corollary", [1, 2, 3, 4, 5, 6])
    def test_pass_lines_per_trial(self, corollary, capsys):
        argv = ["verify-bounds", "--corollary", str(corollary),
                "--gamma", "0.5", "--trials", "8", "--seed", "2"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8
        for line in lines:
            row = json.loads(line)
            assert row["status"] == "PASS"
            assert row["passed"] is True
            assert row["corollary"] == corollary
            assert row["wel_ratio"] >= row["wel_bound"] - 1e-9
            assert row["rev_ratio"] >= row["rev_bound"] - 1e-9

    def test_csv_format(self, capsys):
        argv = ["verify-bounds", "--corollary", "3", "--gamma", "0.5",
                "--trials", "4", "--format", "csv"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("trial,status,corollary,gamma,wel_ratio")
        assert len(lines) == 5
        assert all(",PASS," in line for line in lines[1:])

    def test_out_dir_gets_stamp_and_reports(self, tmp_path, capsys):
        out = tmp_path / "vb"
        argv = ["verify-bounds", "--corollary", "1", "--gamma", "0.3",
                "--trials", "3", "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        stamp = json.loads((out / "config.json").read_text())
        assert stamp["subcommand"] == "verify-bounds"
        assert stamp["flags"]["corollary"] == 1
        assert stamp["flags"]["gamma"] == 0.3
        reports = (out / "reports.jsonl").read_text().strip().splitlines()
        assert len(reports) == 3
        assert json.loads(reports[0])["preconditions"]["signal_bands"]["ok"] is True

    def test_seed_changes_reports(self, capsys):
        argv = ["verify-bounds", "--corollary", "1", "--gamma", "0.5", "--trials", "2"]
        main(argv + ["--seed", "0"])
        first = capsys.readouterr().out
        main(argv + ["--seed", "1"])
        assert capsys.readouterr().out != first


class TestCheckDominance:
    @pytest.mark.parametrize("kind", LEMMA_KINDS)
    def test_all_kinds_pass(self, kind, capsys):
        argv = ["check-dominance", "--lemma", kind, "--gamma", "0.4",
                "--trials", "2", "--seed", "5"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            row = json.loads(line)
            assert row["status"] == "PASS"
            assert row["kind"] == kind
            assert row["scope"] == "grid-relative"
            assert row["violations"] == []

    def test_hypothesis_violation_is_usage_error(self, capsys):
        # gamma = 1 puts every reserve at the value, breaking r < v
        argv = ["check-dominance", "--lemma", "gsp", "--gamma", "1.0", "--trials", "1"]
        assert main(argv) == 2
        assert "r < v" in capsys.readouterr().err

    def test_failed_check_exits_one(self, monkeypatch, capsys):
        from auctionkit.dominance import LemmaCheckReport

        fake = LemmaCheckReport(
            kind="vcg", passed=False, floor="value-on-top",
            violations=({"bidder": 0, "auction": 0, "bid": 0.0, "floor": 1.0,
                         "vector": [0.0, 0.0]},),
            grid_description={},
        )
        monkeypatch.setattr("auctionkit.cli.run_lemma_check", lambda *a, **k: fake)
        argv = ["check-dominance", "--lemma", "vcg", "--trials", "1"]
        assert main(argv) == 1
        row = json.loads(capsys.readouterr().out.strip())
        assert row["status"] == "FAIL"
        assert row["violations"][0]["floor"] == 1.0


class TestTightInstances:
    def test_all_kinds_by_default(self, capsys):
        assert main(["tight-instances", "--gamma", "0.5", "--eps", "0.001"]) == 0
        rows = [json.loads(s) for s in capsys.readouterr().out.strip().splitlines()]
        assert [r["kind"] for r in rows] == list(TIGHT_KINDS)
        by_kind = {r["kind"]: r for r in rows}
        assert by_kind["reserve_only"]["expected_ratio"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert by_kind["revenue_single"]["achieved_ratio"] == 0.5
        for r in rows:
            assert r["achieved_ok"] is True
            assert abs(r["achieved_ratio"] - r["expected_ratio"]) <= 4e-3

    def test_single_kind_with_files(self, tmp_path, capsys):
        out = tmp_path / "ti"
        argv = ["tight-instances", "--gamma", "0.7", "--eps", "0.0005",
                "--kind", "boost_only", "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        assert sorted(p.name for p in out.iterdir()) == ["config.json", "tight_boost_only.json"]
        rec = json.loads((out / "tight_boost_only.json").read_text())
        assert rec["metric"] == "welfare"
        assert rec["expected_ratio"] == pytest.approx(1.0 / 1.3, abs=1e-12)
        # the embedded instance is loadable as-is
        inst = ProblemInstance.from_dict(rec["instance"])
        assert inst.n == 2 and inst.m == 2

    def test_gamma_out_of_range(self):
        assert main(["tight-instances", "--gamma", "1.5"]) == 2


class TestClear:
    def test_json_matches_library(self, cleared_files, capsys):
        inst, config, bids, paths = cleared_files
        argv = ["clear", "--instance", paths["instance"],
                "--mechanism", paths["mechanism"], "--bids", paths["bids"]]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        outcome = clear(inst, config, bids)
        assert payload["payments"] == outcome.payments.tolist()
        assert payload["welfare"] == pytest.approx(sum(payload["welfare_per_bidder"]))
        assert payload["opt_welfare"] >= payload["welfare"]

    def test_csv_rows_per_slot(self, cleared_files, capsys):
        _, _, _, paths = cleared_files
        argv = ["clear", "--instance", paths["instance"], "--mechanism", paths["mechanism"],
                "--bids", paths["bids"], "--format", "csv"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "auction,slot,winner,payment"
        assert len(lines) == 1 + 2 + 1  # slots: [2, 1]

    def test_out_dir(self, cleared_files, tmp_path, capsys):
        _, _, _, paths = cleared_files
        out = tmp_path / "clr"
        argv = ["clear", "--instance", paths["instance"], "--mechanism", paths["mechanism"],
                "--bids", paths["bids"], "--out", str(out), "--verbose"]
        logging.getLogger().handlers.clear()
        assert main(argv) == 0
        capsys.readouterr()
        assert (out / "outcome.json").exists()
        stamp = json.loads((out / "config.json").read_text())
        assert stamp["subcommand"] == "clear"
        assert stamp["flags"]["format"] == "json"

    def test_shape_mismatch_is_usage_error(self, cleared_files, tmp_path):
        inst, _, _, paths = cleared_files
        bad = MechanismConfig(AuctionFormat.GSP, 2, 2, reserves=np.zeros((2, 2)))
        bad_path = str(tmp_path / "bad.json")
        save_json(bad, bad_path)
        argv = ["clear", "--instance", paths["instance"],
                "--mechanism", bad_path, "--bids", paths["bids"]]
        assert main(argv) == 2


class TestGoldenClear:
    """Hand-built market with 1, 2 and 3 slots per auction, an auction with
    fewer eligible bidders than slots, and nonzero reserves and boosts.  The
    expected outputs were recorded from the CLI and must not change."""

    @pytest.mark.parametrize("fmt", ["vcg", "gsp", "fpa"])
    @pytest.mark.parametrize("kind", ["json", "csv"])
    def test_output_is_byte_identical(self, fmt, kind, capsys):
        argv = ["clear", "--instance", str(GOLDEN / "instance.json"),
                "--mechanism", str(GOLDEN / f"mechanism_{fmt}.json"),
                "--bids", str(GOLDEN / "bids.json"), "--format", kind]
        assert main(argv) == 0
        expected = (GOLDEN / f"clear_{fmt}.{kind}").read_bytes().decode()
        assert capsys.readouterr().out == expected


class TestGoldenVerifyBounds:
    """verify-bounds for every corollary at gamma 0.3 and 0.6, 3 trials,
    seed 5.  The expected outputs were recorded from the CLI and must not
    change."""

    @pytest.mark.parametrize("corollary", ["1", "2", "3", "4", "5", "6"])
    @pytest.mark.parametrize("gamma", ["0.3", "0.6"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_output_is_byte_identical(self, corollary, gamma, fmt, capsys):
        argv = ["verify-bounds", "--corollary", corollary, "--gamma", gamma,
                "--trials", "3", "--seed", "5", "--format", fmt]
        assert main(argv) == 0
        expected = (GOLDEN_VERIFY / f"verify_c{corollary}_g{gamma}.{fmt}").read_bytes().decode()
        assert capsys.readouterr().out == expected


class TestGoldenOutDirs:
    """Whole --out directories, config.json included, recorded from the CLI
    with relative paths; they must not change."""

    @pytest.mark.parametrize("fmt", ["vcg", "gsp", "fpa"])
    def test_clear_out_is_byte_identical(self, fmt, tmp_path, monkeypatch, capsys):
        for name in ("instance.json", "bids.json", f"mechanism_{fmt}.json"):
            shutil.copy(GOLDEN / name, tmp_path / name)
        monkeypatch.chdir(tmp_path)
        argv = ["clear", "--instance", "instance.json", "--mechanism", f"mechanism_{fmt}.json",
                "--bids", "bids.json", "--out", "out"]
        assert main(argv) == 0
        assert read_tree(tmp_path / "out") == read_tree(GOLDEN_OUT / f"clear_{fmt}")
        # stdout holds the same bytes as outcome.json
        assert capsys.readouterr().out.encode() == (tmp_path / "out" / "outcome.json").read_bytes()

    def test_tight_instances_out_is_byte_identical(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["tight-instances", "--gamma", "0.3", "--out", "out"]) == 0
        capsys.readouterr()
        assert read_tree(tmp_path / "out") == read_tree(GOLDEN_OUT / "tight_g0.3")


class TestMalformedInputFiles:
    @pytest.mark.parametrize("flag", ["--instance", "--mechanism", "--bids"])
    @pytest.mark.parametrize("content", ['{"unrelated": 1}', "[1, 2]"])
    def test_usage_error_on_one_line(self, flag, content, tmp_path, capsys):
        paths = {
            "--instance": GOLDEN / "instance.json",
            "--mechanism": GOLDEN / "mechanism_vcg.json",
            "--bids": GOLDEN / "bids.json",
        }
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        paths[flag] = bad
        argv = ["clear"] + [x for f, path in paths.items() for x in (f, str(path))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert str(bad) in err


class TestRunExperiment:
    def write_config(self, tmp_path, **overrides) -> str:
        cfg = {
            "generator": {"n": 5, "m": 30, "s_max": 2},
            "treatments": [
                {"kind": "baseline"},
                {"kind": "reserve", "gamma": 0.5},
            ],
            "dynamics": {"pretrain_iters": 4, "treatment_iters": 4},
            "runs": 2,
            "master_seed": 9,
        }
        cfg.update(overrides)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "exp"
        argv = ["run-experiment", "--config", self.write_config(tmp_path),
                "--out", str(out), "--jobs", "2"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert "reserve_g0.5" in stdout
        names = {p.name for p in out.iterdir()}
        assert {"config.json", "summary.csv", "runs.csv",
                "traj_0_baseline.csv", "traj_1_reserve_g0.5.csv"} <= names
        stamp = json.loads((out / "config.json").read_text())
        assert stamp["flags"]["experiment"]["runs"] == 2
        assert stamp["flags"]["experiment"]["dynamics"]["pretrain_iters"] == 4
        header = (out / "summary.csv").read_text().splitlines()[0]
        assert header == "treatment,gamma,wel_lift_mean,wel_lift_ci,rev_lift_mean,rev_lift_ci"

    def test_missing_out_flag(self, tmp_path, capsys):
        argv = ["run-experiment", "--config", self.write_config(tmp_path)]
        assert main(argv) == 2
        assert "--out" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        argv = ["run-experiment", "--config", self.write_config(tmp_path, typo=1),
                "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        assert "unknown experiment config keys" in capsys.readouterr().err

    def test_unknown_dynamics_keys_named_by_repr(self, tmp_path, capsys):
        path = self.write_config(tmp_path, dynamics={"\n": None, "eta": 0.1})
        assert main(["run-experiment", "--config", path, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: {path}: unknown dynamics keys: ['\\n', 'eta']\n"

    def test_config_without_treatments(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"generator": {}}))
        argv = ["run-experiment", "--config", str(path), "--out", str(tmp_path / "x")]
        assert main(argv) == 2

    def test_unsamplable_signal_is_usage_error(self, tmp_path, capsys):
        treatments = [{"kind": "baseline"}, {"kind": "reserve", "gamma": 0.5, "signal_sd": 1e9}]
        argv = ["run-experiment", "--config", self.write_config(tmp_path, treatments=treatments),
                "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "refusing" in err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"generator": {"n": "x"}},
            {"treatments": [{"gamma": 0.5}]},
            {"dynamics": {"pretrain_iters": 2, "unknown": 1}},
            {"dynamics": {"pretrain_iters": 1.5}},
            {"generator": {"n": 5.5, "m": 30, "s_max": 2}},
            {"treatments": "baseline"},
            {"generator": [5, 30]},
            {"runs": 2.5},
            {"runs": 1e400},
            {"treatments": []},
            # one bidder wins everything, so no seed gives a gap to measure
            {"generator": {"n": 1, "m": 2, "s_max": 1, "zero_prob": 0.0}, "runs": 1},
            # unknown keys and values of the wrong JSON type
            {"generator": {"nn": 5}},
            {"treatments": [{"kind": "reserve", "gamma": 0.5, "sd": 0.1}]},
            {"treatments": [{"kind": "boost_reserve", "gamma": 0.5, "share_draw": "false"}]},
            {"treatments": [{"kind": "boost_reserve", "gamma": 0.5, "share_draw": 1}]},
            {"treatments": [{"kind": "reserve", "gamma": "0.5"}]},
            {"treatments": [{"kind": "reserve", "gamma": 0.5, "signal_sd": "0.01"}]},
            {"treatments": [{"kind": "reserve", "gamma": 0.5, "signal_sd": True}]},
            # unknown dynamics keys, bools and non-finite floats, a baseline gamma outside [0, 1)
            {"dynamics": {"\n": None}},
            {"generator": {"n": 5, "m": 30, "s_max": 2, "quality_sigma": True}},
            {"generator": {"n": 5, "m": 30, "s_max": 2, "value_sigma": math.inf}},
            {"dynamics": {"tau": True}},
            {"dynamics": {"convergence_tol": math.nan}},
            {"dynamics": {"max_multiplier": math.inf}},
            {"treatments": [{"kind": "baseline", "gamma": 7}]},
            {"treatments": [{"kind": "baseline", "gamma": -0.5}]},
        ],
    )
    def test_malformed_config_names_file_on_one_line(self, overrides, tmp_path, capsys):
        path = self.write_config(tmp_path, **overrides)
        argv = ["run-experiment", "--config", path, "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {path}: ")
        assert not (tmp_path / "x").exists()

    def test_top_level_list(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text("[1, 2]")
        argv = ["run-experiment", "--config", str(path), "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: expected a JSON object, got list\n"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text("{not json")
        argv = ["run-experiment", "--config", str(path), "--out", str(tmp_path / "x")]
        assert main(argv) == 2


SMALL_EXPERIMENT = {
    "generator": {"n": 3, "m": 4, "s_max": 2},
    "treatments": [{"kind": "baseline"}, {"kind": "boost_reserve", "gamma": 0.5}],
    "dynamics": {"pretrain_iters": 2, "treatment_iters": 2},
    "runs": 1,
    "master_seed": 3,
}

# every place in an experiment config a value can go; () is the whole file
CONFIG_KEYS = (
    [(), ("generator",), ("treatments",), ("treatments", 1), ("dynamics",),
     ("runs",), ("master_seed",)]
    + [("generator", k) for k in GeneratorSpec().to_dict()]
    + [("treatments", 1, k) for k in TreatmentSpec("baseline").to_dict()]
    + [("dynamics", f.name) for f in dataclasses.fields(DynamicsConfig)]
)

# small integers keep every valid draw to a few tiny runs
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.floats(-5.0, 5.0)
    | st.sampled_from([math.nan, math.inf, -math.inf, 1e300])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


class TestExperimentConfigFuzz:
    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(CONFIG_KEYS), value=json_values)
    @example(key=("dynamics",), value={"\n": None})
    def test_wrong_value_exits_zero_or_two_on_one_line(self, key, value, capsys):
        cfg = copy.deepcopy(SMALL_EXPERIMENT)
        if key:
            target = cfg
            for part in key[:-1]:
                target = target[part]
            target[key[-1]] = value
        else:
            cfg = value
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "exp.json"
            path.write_text(json.dumps(cfg))
            code = main(["run-experiment", "--config", str(path), "--out", str(Path(tmp) / "out")])
        err = capsys.readouterr().err
        assert code in (0, 2), err
        if code == 2:
            assert err.count("\n") == 1 and err.startswith("error: "), err
            assert "Traceback" not in err


class TestDeterminism:
    def test_verify_bounds_rerun_is_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "vb"
        argv = ["verify-bounds", "--corollary", "4", "--gamma", "0.6",
                "--trials", "5", "--seed", "7", "--out", str(out)]
        assert main(argv) == 0
        first = read_tree(out)
        assert main(argv) == 0
        capsys.readouterr()
        assert read_tree(out) == first

    def test_tight_instances_rerun_is_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "ti"
        argv = ["tight-instances", "--gamma", "0.3", "--out", str(out)]
        assert main(argv) == 0
        first = read_tree(out)
        assert main(argv) == 0
        capsys.readouterr()
        assert read_tree(out) == first

    def test_experiment_results_independent_of_jobs(self, tmp_path, capsys):
        cfg = TestRunExperiment().write_config(tmp_path)
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        assert main(["run-experiment", "--config", cfg, "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["run-experiment", "--config", cfg, "--out", str(out2), "--jobs", "3"]) == 0
        capsys.readouterr()
        first = {k: v for k, v in read_tree(out1).items() if k.name != "config.json"}
        second = {k: v for k, v in read_tree(out2).items() if k.name != "config.json"}
        assert first == second
