"""Output checks for one workload's artifacts.

None of them depend on the exact noise bits: each is a statistical or
structural property that any correct realization has.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os


def digest(out_dir: str) -> str:
    """SHA-256 over every artifact's name and bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def bytes_written(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir))


def _csv_rows(out_dir: str, name: str) -> list:
    with open(os.path.join(out_dir, name), encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _json(out_dir: str, name: str):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _json_numbers(value):
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _json_numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _json_numbers(v)


def _nonfinite(out_dir: str) -> list:
    """Names of artifacts holding a number that is not finite."""
    bad = []
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name.endswith(".json"):
            numbers = _json_numbers(_json(out_dir, name))
        else:
            with open(path, encoding="utf-8", newline="") as fh:
                numbers = []
                for row in csv.reader(fh):
                    for cell in row:
                        try:
                            numbers.append(float(cell))
                        except ValueError:
                            pass  # labels such as "average"
        if not all(math.isfinite(x) for x in numbers):
            bad.append(name)
    return bad


def _checkpoints(rows, count=8) -> list:
    """``count`` evenly spaced rows after time 0, the last one included."""
    stride = (len(rows) - 1) // count
    return rows[stride::stride][:count] if stride > 0 else []


def _within_se(rows, center, k=4.0) -> bool:
    """The mean lies within k standard errors of ``center`` at every
    checkpoint. Acceptance criteria 1 and 2 of the test suite check the mean
    at a few fixed times in the same way; testing all 513 grid times at once
    raises a false alarm on about one seed in thirty."""
    points = _checkpoints(rows)
    return bool(points) and all(
        abs(float(r["mean"]) - center) <= k * float(r["se"]) for r in points)


def _sim_jumps(out_dir):
    rows = [r for r in _csv_rows(out_dir, "aggregate.csv") if r["component"] == "0"]
    yield ("mean within 4 SE of the mean ODE value 1 at 8 checkpoints",
           _within_se(rows, 1.0))


MAX_CROSSING_FRACTION = 1e-3


def _hier_refine(out_dir):
    """Level monotonicity is exact only for a deterministic hierarchy
    (acceptance criterion 6); with diffusion the explicit scheme lets levels
    cross by about 1e-4 at a few isolated points on some seeds (violating
    fractions up to about 1e-5). So the check is that levels rise at all but
    a few points, not at every point."""
    report = _json(out_dir, "approx_report.json")
    mono = _csv_rows(out_dir, "monotonicity.csv")
    levels = report["levels"]
    yield ("monotonicity.csv: one row per consecutive level pair",
           [(int(r["level_from"]), int(r["level_to"])) for r in mono]
           == [(n, n + 1) for n in range(1, levels)])
    refine = _csv_rows(out_dir, "refinements.csv")
    yield ("refinements.csv: one row per rung of the dt ladder",
           [int(r["steps"]) for r in refine]
           == [report["steps"] * 2 ** r for r in range(3)])
    rows = mono + refine
    yield ("levels rise: violations >= 0, violating fractions in [0, 1e-3]",
           all(float(r["max_violation"]) >= 0.0
               and 0.0 <= float(r["violating_fraction"]) <= MAX_CROSSING_FRACTION
               for r in rows))
    yield ("monotonicity and refinement tables match approx_report.json",
           [float(r["max_violation"]) for r in mono]
           == [m["max_violation"] for m in report["monotonicity"]]
           and [float(r["max_violation"]) for r in refine]
           == [r["max_violation"] for r in report["refinements"]])
    yield ("moment bound passes", report["moment_bound"]["passed"] is True)


def _validate(out_dir):
    for report in _json(out_dir, "validation.json"):
        for c in report["conditions"]:
            yield (f"{report['subject']}: {c['name']}: pass or unchecked",
                   c["status"] in ("pass", "unchecked"))


_WORKLOAD_CHECKS = {
    "sim-jumps": _sim_jumps,
    "hier-refine": _hier_refine,
    "validate-mf": _validate,
}


def check_outputs(workload: str, out_dir: str) -> list:
    """(check name, passed) for every content check of ``workload``."""
    bad = _nonfinite(out_dir)
    results = [("every number written is finite"
                + (f" (not in {', '.join(bad)})" if bad else ""), not bad)]
    extra = _WORKLOAD_CHECKS.get(workload)
    if extra is not None:
        results.extend(extra(out_dir))
    return results
