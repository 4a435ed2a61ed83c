"""Comparison of a unit's outputs with the outputs recorded from the seed
commit.

Integers, strings, booleans and structure must match exactly.  Floats may
differ by 1e-9 of the larger magnitude, plus 1e-12 absolute so that values
that should be 0 may carry rounding residue: room for a reassociated sum
(about 5e-13 relative), none for a changed result.
"""

from __future__ import annotations

from typing import Any

REL_TOL = 1e-9
ABS_TOL = 1e-12
MAX_REPORTED = 5


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def mismatches(expected: Any, actual: Any) -> list[str]:
    """Paths at which actual differs from expected, the first few of them."""
    out: list[str] = []
    _walk(expected, actual, "$", out)
    return out


def _walk(exp: Any, act: Any, path: str, out: list[str]) -> None:
    if len(out) >= MAX_REPORTED:
        return
    if isinstance(exp, bool) or isinstance(act, bool):
        if exp is not act:
            out.append(f"{path}: expected {exp!r}, got {act!r}")
    elif isinstance(exp, float) or isinstance(act, float):
        if not (isinstance(exp, (int, float)) and isinstance(act, (int, float))
                and close(float(exp), float(act))):
            out.append(f"{path}: expected {exp!r}, got {act!r}")
    elif isinstance(exp, dict) and isinstance(act, dict):
        if exp.keys() != act.keys():
            out.append(f"{path}: keys {sorted(exp)} != {sorted(act)}")
            return
        for key in exp:
            _walk(exp[key], act[key], f"{path}.{key}", out)
    elif isinstance(exp, (list, tuple)) and isinstance(act, (list, tuple)):
        if len(exp) != len(act):
            out.append(f"{path}: length {len(exp)} != {len(act)}")
            return
        for k, (e, a) in enumerate(zip(exp, act)):
            _walk(e, a, f"{path}[{k}]", out)
    elif exp != act or type(exp) is not type(act):
        out.append(f"{path}: expected {exp!r}, got {act!r}")
