"""Correctness gate: compare an op's output with the reference pinned for its input.

References live in `reference/<workload>.json`, one entry per pool input,
written by `make_reference.py`.  Every number must match to a relative
tolerance of RTOL, measured against the larger of the value and the largest
finite magnitude in the same list; NaN must meet NaN and inf the same inf.
Strings, booleans (including each table's [PASS]/[FAIL] pattern) and
structure must match exactly.

An entry may name a `known_defect`.  The only one is the NaN lower bound of
the 2D verdict bracket, caused by cancellation in the summed-area tables.
For those entries the lower bound and the verdict string are not compared:
the lower bound may stay NaN, as pinned, or become finite and at most the
upper bound, which is what a fix produces.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RTOL = 1e-8
NAN_BRACKET = "NaN lower bound of the verdict bracket (summed-area table cancellation)"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    with open(reference_path(workload)) as fh:
        return json.load(fh)["entries"]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _scale(values: list) -> float:
    return max(
        (abs(v) for v in values if _is_number(v) and math.isfinite(v)), default=0.0
    )


def _diff(got, want, path: str, scale: float = 0.0) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        out = []
        for k in want:
            out += _diff(got[k], want[k], f"{path}.{k}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        s = _scale(want)
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += _diff(g, w, f"{path}[{i}]", s)
        return out
    if _is_number(want):
        if not _is_number(got):
            return [f"{path}: {got!r} is not a number"]
        if math.isnan(want):
            ok = math.isnan(got)
        elif math.isinf(want):
            ok = got == want
        else:
            ok = math.isfinite(got) and abs(got - want) <= RTOL * max(abs(want), scale)
        return [] if ok else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def normalise(record: dict) -> dict:
    """The record as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(record, default=float))


def check(got: dict, entry: dict) -> tuple[list[str], bool]:
    """(mismatches, whether the entry's known defect still shows)."""
    got = normalise(got)
    want = entry["record"]
    if entry.get("known_defect") != NAN_BRACKET:
        return _diff(got, want, "out"), False
    want = normalise(want)
    lower, upper = got["bracket"]
    problems = []
    if not (math.isnan(lower) or lower <= upper * (1 + RTOL)):
        problems.append(f"out.bracket[0]: {lower!r} exceeds the upper bound {upper!r}")
    for rec in (got, want):
        rec["bracket"] = rec["bracket"][1:]
        rec.pop("verdict")
    return problems + _diff(got, want, "out"), math.isnan(lower)
