"""Record the outputs of every unit in each workload's pool as its reference.

    python3 bench/record.py [workload ...]

Run once on the commit whose outputs are the contract; it writes
`bench/reference/<workload>.json`.  It refuses to record a unit whose
program call exits non-zero, since every workload must run clean.
"""

from __future__ import annotations

import json
import sys

from run import OUT_DIR, import_program
from workloads import REFERENCE_DIR, WORKLOADS, Workload


def _exit_codes(obj) -> list:
    if isinstance(obj, dict):
        return ([obj["rc"]] if "rc" in obj else []) + [c for v in obj.values() for c in _exit_codes(v)]
    if isinstance(obj, list):
        return [c for v in obj for c in _exit_codes(v)]
    return []


def record(workload: Workload) -> dict:
    units = tuple(range(workload.pool))
    state = workload.setup(import_program(), OUT_DIR / "record" / workload.name, units)
    outputs = {}
    for uid in units:
        outputs[uid] = workload.outputs(state, uid, workload.run(state, uid))
        workload.cleanup(state, uid)
        bad = [rc for rc in _exit_codes(outputs[uid]) if rc != 0]
        if bad:
            raise SystemExit(f"{workload.name} unit {uid}: exit codes {bad}; not recording")
    return workload.reference(outputs)


def main(names: list[str]) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        reference = record(WORKLOADS[name])
        path = REFERENCE_DIR / f"{name}.json"
        with open(path, "w") as fh:
            json.dump(reference, fh, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
