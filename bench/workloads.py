"""The benchmark's two workloads.

Each workload is a pool of units whose outputs were recorded from the seed
commit (`reference/<name>.json`, written by `record.py`).  A run's seed
picks, without replacement, the units of one pass from the pool.  Units
run in a closed loop: one client in one process, each unit started after
the previous one returned.  A unit is a fixed list of calls into the
program, made through module attributes so the traced run sees it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import shutil
from pathlib import Path
from types import SimpleNamespace
from typing import Any

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
LEMMAS = ("vcg", "gsp-uniform", "gsp", "fpa")
COROLLARIES = (1, 2, 3, 4, 5, 6)


def _cli(prog: SimpleNamespace, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = prog.cli.main(argv)
    return rc, buf.getvalue()


def _cell(text: str) -> Any:
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _lognormal_market(rng: np.random.Generator, n: int, m: int, s_max: int):
    """Per-bidder quality times per-auction lognormal values, 30% zeroed,
    with 1..s_max slots of geometric weight 0.5."""
    quality = rng.lognormal(0.0, 0.5, size=n)
    values = quality[:, None] * rng.lognormal(0.0, 1.0, size=(n, m))
    values[rng.random((n, m)) < 0.3] = 0.0
    slots = rng.integers(1, s_max + 1, size=m)
    pos = [0.5 ** np.arange(s, dtype=np.float64) for s in slots]
    return values, slots, pos


class Workload:
    name = ""
    pool = 0  # units with recorded outputs
    per_pass = 0  # units in one pass

    def plan(self, seed: int) -> tuple[int, ...]:
        """The units of one pass."""
        return tuple(random.Random(f"{self.name}/{seed}").sample(range(self.pool), self.per_pass))

    def setup(self, prog: SimpleNamespace, work: Path, units: tuple[int, ...]) -> SimpleNamespace:
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        state = SimpleNamespace(prog=prog, work=work, units=units)
        self.prepare(state)
        return state

    def prepare(self, state: SimpleNamespace) -> None:
        raise NotImplementedError

    def run(self, state: SimpleNamespace, uid: int) -> Any:
        raise NotImplementedError

    def outputs(self, state: SimpleNamespace, uid: int, raw: Any) -> dict:
        """The unit's deterministic outputs, in the form the reference holds."""
        raise NotImplementedError

    def counters(self, state: SimpleNamespace, uid: int, raw: Any) -> dict:
        return {}

    def cleanup(self, state: SimpleNamespace, uid: int) -> None:
        pass

    def load_reference(self) -> dict:
        with open(REFERENCE_DIR / f"{self.name}.json") as fh:
            return json.load(fh)

    def reference(self, outputs: dict[int, dict]) -> dict:
        """The reference file's content, from every pool unit's outputs."""
        return {"units": {str(uid): out for uid, out in outputs.items()}}

    def expected(self, reference: dict, uid: int) -> dict:
        return reference["units"][str(uid)]


class LiftExperiment(Workload):
    name = "lift-experiment"
    pool = 6
    per_pass = 4

    def config(self, uid: int) -> dict:
        treatments = [{"kind": "baseline"}] + [
            {"kind": kind, "gamma": 0.5} for kind in ("reserve", "boost", "boost_reserve")
        ]
        return {
            "generator": {"n": 20, "m": 1000, "s_max": 4},
            "treatments": treatments,
            "dynamics": {"pretrain_iters": 25, "treatment_iters": 25},
            "runs": 2,
            "master_seed": 100 + uid,
        }

    def prepare(self, state):
        for uid in state.units:
            with open(state.work / f"config-{uid}.json", "w") as fh:
                json.dump(self.config(uid), fh)

    def run(self, state, uid):
        out = state.work / f"out-{uid}"
        # --jobs stays unset: the default thread count is what users get
        return _cli(state.prog, ["run-experiment", "--config", str(state.work / f"config-{uid}.json"),
                                 "--out", str(out)])

    def outputs(self, state, uid, raw):
        rc, stdout = raw
        out = state.work / f"out-{uid}"
        return {
            "rc": rc,
            "header": stdout.splitlines()[0] if stdout else "",
            "summary": _read_csv(out / "summary.csv"),
            "runs": _read_csv(out / "runs.csv"),
            "final": {p.name: _read_csv(p)[-1] for p in sorted(out.glob("traj_*.csv"))},
        }

    def counters(self, state, uid, raw):
        out = state.work / f"out-{uid}"
        return {
            "cli.bytes_out": len(raw[1].encode()),
            "experiments.bytes_written": sum(p.stat().st_size for p in out.iterdir()),
        }

    def cleanup(self, state, uid):
        shutil.rmtree(state.work / f"out-{uid}", ignore_errors=True)


class Certify(Workload):
    """Per unit: the guarantee and dominance checks of one seed and one clear
    of a wide market through the CLI, then best-response dynamics on one
    small market, one iteration under GSP and one under FPA.  Every unit
    clears the same wide market, so its outputs are recorded once."""

    name = "certify"
    pool = 32
    per_pass = 8

    def prepare(self, state):
        types, agents = state.prog.types, state.prog.agents
        rng = np.random.default_rng(3)
        n, m = 20, 1000
        values, slots, pos = _lognormal_market(rng, n, m, 4)
        instance = types.ProblemInstance(n, m, slots, values, pos)
        config = types.MechanismConfig(
            types.AuctionFormat.VCG, n, m,
            values * rng.uniform(0.2, 0.6, size=(n, m)),
            values * rng.uniform(0.0, 0.3, size=(n, m)),
        )
        bids = types.BidProfile(values * rng.uniform(0.6, 1.0, size=n)[:, None])
        state.files = {}
        for key, obj in (("instance", instance), ("mechanism", config), ("bids", bids)):
            path = state.work / f"{key}.json"
            path.write_text(json.dumps(obj.to_dict()))
            state.files[key] = str(path)

        state.markets = {}
        for uid in state.units:
            values, slots, pos = _lognormal_market(np.random.default_rng([2, uid]), 6, 30, 3)
            state.markets[uid] = types.ProblemInstance(6, 30, slots, values, pos)
        # a tolerance no move reaches, so the dynamics always run their one iteration
        state.dyn = agents.DynamicsConfig(convergence_tol=1e-300)
        state.lambdas = np.array([0.0, 1.0] * 3)  # half the bidders maximize utility

    def run(self, state, uid):
        seed = str(500 + uid)
        calls = [
            ["verify-bounds", "--corollary", str(c), "--gamma", "0.5", "--trials", "1", "--seed", seed]
            for c in COROLLARIES
        ] + [
            ["check-dominance", "--lemma", k, "--trials", "1", "--seed", seed] for k in LEMMAS
        ] + [
            ["clear", "--instance", state.files["instance"], "--mechanism", state.files["mechanism"],
             "--bids", state.files["bids"]]
        ]
        cli = [_cli(state.prog, argv) for argv in calls]

        types, agents = state.prog.types, state.prog.agents
        inst = state.markets[uid]
        dynamics = {}
        for fmt in (types.AuctionFormat.GSP, types.AuctionFormat.FPA):
            config = types.MechanismConfig(fmt, inst.n, inst.m)
            start = types.AgentState(state.lambdas, np.ones(inst.n))
            dynamics[fmt.value] = agents.run_dynamics(inst, config, start, state.dyn, iters=1)
        return cli, dynamics

    def outputs(self, state, uid, raw):
        def rows(rc, text):
            return {"rc": rc, "rows": [json.loads(line) for line in text.splitlines()]}

        cli, dynamics = raw
        clear_rc, clear_text = cli[-1]
        return {
            "verify": [rows(*r) for r in cli[: len(COROLLARIES)]],
            "dominance": [rows(*r) for r in cli[len(COROLLARIES) : -1]],
            "clear": {"rc": clear_rc, **_clear_summary(json.loads(clear_text))},
            "dynamics": {
                fmt: {
                    "multipliers": traj.multipliers[-1].tolist(),
                    "wel": traj.final_wel.tolist(),
                    "rev": traj.final_rev.tolist(),
                    "steps": traj.steps,
                    "converged": traj.converged,
                }
                for fmt, traj in dynamics.items()
            },
        }

    def counters(self, state, uid, raw):
        return {"cli.bytes_out": sum(len(text.encode()) for _, text in raw[0])}

    def reference(self, outputs):
        clears = [out.pop("clear") for out in outputs.values()]
        if any(c != clears[0] for c in clears):
            raise ValueError("the wide clear's outputs differ between units")
        return {**super().reference(outputs), "clear": clears[0]}

    def expected(self, reference, uid):
        return {**super().expected(reference, uid), "clear": reference["clear"]}


def _clear_summary(payload: dict) -> dict:
    """Allocation, each winner's payment, and whether everyone else pays 0."""
    payments = np.asarray(payload["payments"], dtype=np.float64)
    alloc = [tuple(t) for t in payload["allocation"]]
    rows = np.array([i for i, _, _ in alloc], dtype=np.int64)
    cols = np.array([j for _, j, _ in alloc], dtype=np.int64)
    losers = payments.copy()
    losers[rows, cols] = 0.0
    return {
        "allocation": [list(t) for t in alloc],
        "winner_payments": payments[rows, cols].tolist(),
        "losers_pay_zero": bool(not losers.any()),
        "welfare_per_bidder": payload["welfare_per_bidder"],
        "revenue_per_bidder": payload["revenue_per_bidder"],
        "welfare": payload["welfare"],
        "revenue": payload["revenue"],
        "opt_welfare": payload["opt_welfare"],
    }


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (LiftExperiment(), Certify())
}
