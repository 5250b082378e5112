"""Spans around the package's public functions, for the benchmark's traced run.

``install`` replaces each traced function with a wrapper in every ``mfjump``
module that binds it, because modules import with ``from .noise import
make_batch`` and so hold their own reference. It also wraps
``multiprocessing.pool.Pool.map``: the parent records an ``executor/map`` span,
and each task runs inside an ``executor/block`` span in the worker. Install
before any pool forks, so workers inherit the wrappers.

A span records its layer, the layer that caused it (``ctx``), its duration,
the time covered by its direct children (``child``) and exact counts. The
main process keeps its spans in memory and writes them in ``dump``. Pool
workers are terminated without exit hooks, so they append each span to a
per-process file as it closes.

``summarize`` turns the spans of every process into the per-layer metrics.
"""
from __future__ import annotations

import functools
import glob
import inspect
import json
import multiprocessing.pool
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# The tracer of this process. Forked pool workers inherit it, which is how
# executor tasks unpickled there find it.
_ACTIVE = None


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.owner = None  # layer that handed this worker its task
        self.sink = None  # per-span file, in pool workers only

    def _enter_process(self):
        pid = os.getpid()
        if pid != self.pid:  # first span in a forked pool worker
            self.pid, self.spans, self.stack = pid, [], []
            self.sink = open(os.path.join(self.out_dir, f"spans-{pid}.jsonl"),
                             "a", encoding="utf-8")

    def open(self, layer: str, name: str) -> dict:
        self._enter_process()
        parent = self.stack[-1] if self.stack else None
        if parent is None:
            ctx = self.owner
        else:
            ctx = parent["ctx"] if parent["layer"] == "executor" else parent["layer"]
        span = {"layer": layer, "name": name, "ctx": ctx,
                "parent": parent["layer"] if parent else None,
                "child": 0.0, "t0": time.perf_counter()}
        self.stack.append(span)
        return span

    def close(self, span: dict, t_end: float, counts: dict) -> None:
        """End ``span`` at ``t_end``. Time spent counting after ``t_end`` is
        charged to neither the span nor its parent's self time."""
        self.stack.pop()
        t0 = span.pop("t0")
        span["dur"] = t_end - t0
        span["counts"] = counts
        if self.stack:
            self.stack[-1]["child"] += time.perf_counter() - t0
        if self.sink is not None:
            self.sink.write(json.dumps(span) + "\n")
            self.sink.flush()
        else:
            self.spans.append(span)

    def wrap(self, layer: str, name: str, fn, count=None):
        """``fn`` inside a span; ``count(result, bound_args)`` gives its counts."""
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span, time.perf_counter(), {})
                raise
            t_end = time.perf_counter()
            counts = {}
            if count:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = count(result, bound.arguments)
            self.close(span, t_end, counts)
            return result
        return traced

    def dump(self) -> None:
        with open(os.path.join(self.out_dir, f"spans-{self.pid}.jsonl"), "a",
                  encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _Task:
    """Picklable pool task that runs ``fn`` in an ``executor/block`` span."""

    def __init__(self, fn, owner):
        self.fn, self.owner = fn, owner

    def __call__(self, item):
        tracer = _ACTIVE
        tracer._enter_process()
        tracer.owner = self.owner
        span = tracer.open("executor", "block")
        try:
            return self.fn(item)
        finally:
            tracer.close(span, time.perf_counter(), {})


# ---------------------------------------------------------------------------
# counts, computed from each call's inputs and results


def _noise_counts(batch, _args) -> dict:
    draws = sum(a.size for a in batch.brownian.values())
    draws += sum(a.size for a in batch.stable.values())
    events = sum(len(evs) for per_path in batch.jump_events
                 for evs in per_path.values())
    return {"rows": batch.n_paths, "draws": int(draws), "events": events}


def _coarsen_counts(batch, _args) -> dict:
    return {"rows": batch.n_paths, "draws": 0, "events": 0}


def _events_in_steps(components, batch, k_start, k_stop) -> int:
    """Jump events the solve applies: per component and kernel, the events of
    the kernel's measure that fall in a solved step."""
    pts = batch.grid.points
    per_measure, total = {}, 0
    for comp in components:
        for kernel in (comp.g0_finite, comp.g1):
            if kernel is None:
                continue
            mid = kernel.measure.measure_id
            if mid not in per_measure:
                t = np.array([ev.time for per_path in batch.jump_events
                              for ev in per_path.get(mid, ())], dtype=float)
                k = np.searchsorted(pts, t, side="left") - 1
                per_measure[mid] = int(np.count_nonzero(
                    (t > 0.0) & (t <= pts[-1]) & (k >= k_start) & (k < k_stop)))
            total += per_measure[mid]
    return total


def _solver_counts(_result, args) -> dict:
    batch = args["batch"]
    k_start = args["k_start"]
    k_stop = batch.grid.n_steps if args["k_stop"] is None else args["k_stop"]
    rows, comps, steps = batch.n_paths, len(args["components"]), k_stop - k_start
    return {"rows": rows, "path_steps": rows * steps * comps,
            "path_points": rows * (steps + 1) * comps,
            "events": _events_in_steps(args["components"], batch, k_start, k_stop)}


def _level_counts(_result, _args) -> dict:
    return {"levels": 1}


def _validate_counts(reports, _args) -> dict:
    conditions = [c for r in reports for c in r.conditions]
    return {"conditions": len(conditions),
            "failed": sum(1 for c in conditions if not c.ok)}


# (layer, module, attribute, count) for every traced function
_FUNCTIONS = (
    ("scenario", "mfjump.scenario", "load_scenario", None),
    ("noise", "mfjump.noise", "make_batch", _noise_counts),
    ("solver", "mfjump.solver", "solve_batch", _solver_counts),
    ("system", "mfjump.system", "run_ensemble", None),
    ("system", "mfjump.system", "solve_system", None),
    ("approx", "mfjump.approx", "run_hierarchy_ensemble", None),
    ("approx", "mfjump.approx", "hierarchy_refinement_study", None),
    ("approx", "mfjump.approx", "run_hierarchy_batch", None),
    ("approx", "mfjump.approx", "build_level_one", _level_counts),
    ("approx", "mfjump.approx", "build_next_level", _level_counts),
    ("approx", "mfjump.approx", "check_monotone", None),
    ("approx", "mfjump.approx", "moment_bound_check", None),
    ("validate", "mfjump.validate", "validate_system", _validate_counts),
    ("validate", "mfjump.validate", "validate_assum1", None),
    ("validate", "mfjump.validate", "validate_assum2", None),
    ("validate", "mfjump.validate", "validate_drift", None),
    ("validate", "mfjump.validate", "validate_assum_uniq", None),
    ("cli", "mfjump.cli", "cmd_simulate", None),
    ("cli", "mfjump.cli", "cmd_approx", None),
    ("cli", "mfjump.cli", "cmd_validate", None),
    ("cli", "mfjump.cli", "cmd_uniqueness", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every traced function, method and ``Pool.map`` for ``tracer``."""
    global _ACTIVE
    _ACTIVE = tracer
    import mfjump.cli  # noqa: F401  (imports every traced module)
    from mfjump import coeffs, noise

    modules = [m for name, m in sys.modules.items()
               if name == "mfjump" or name.startswith("mfjump.")]
    for layer, module, attr, count in _FUNCTIONS:
        original = getattr(sys.modules[module], attr)
        wrapped = tracer.wrap(layer, attr, original, count)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)

    noise.NoiseBatch.coarsen = tracer.wrap(
        "noise", "coarsen", noise.NoiseBatch.coarsen, _coarsen_counts)
    for cls in vars(coeffs).values():
        if isinstance(cls, type) and cls.__module__ == coeffs.__name__ \
                and "integrate" in vars(cls):
            cls.integrate = tracer.wrap("coeffs", "integrate", cls.integrate)

    pool_map = multiprocessing.pool.Pool.map

    def traced_map(pool, func, iterable, chunksize=None):
        owner = tracer.stack[-1]["layer"] if tracer.stack else None
        span = tracer.open("executor", "map")
        try:
            return pool_map(pool, _Task(func, owner), iterable, chunksize)
        finally:
            tracer.close(span, time.perf_counter(), {"processes": pool._processes})
    multiprocessing.pool.Pool.map = traced_map


# ---------------------------------------------------------------------------
# per-layer metrics


def load_spans(out_dir: str) -> list:
    spans = []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.jsonl"))):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def summarize(spans: list) -> dict:
    """Per-layer times (s, summed over processes) and exact counts.

    busy: spans not nested in a span of the same layer. self: a span minus
    its direct children; an executor block's own time belongs to the layer
    that mapped it.
    """
    busy, self_s, calls = defaultdict(float), defaultdict(float), Counter()
    counts = defaultdict(Counter)
    for s in spans:
        layer = s["layer"]
        calls[layer, s["name"]] += 1
        if s["parent"] != layer:
            busy[layer] += s["dur"]
        owner = s["ctx"] if (layer, s["name"]) == ("executor", "block") else layer
        self_s[owner] += s["dur"] - s["child"]
        counts[layer].update(s["counts"])
        if layer == "solver":
            counts["solver", s["ctx"]].update(s["counts"])

    noise, solver = counts["noise"], counts["solver"]
    map_capacity = sum(s["dur"] * s["counts"]["processes"] for s in spans
                       if (s["layer"], s["name"]) == ("executor", "map"))
    worker_busy = sum((s["dur"] for s in spans
                       if (s["layer"], s["name"]) == ("executor", "block")), 0.0)
    drift_points = counts["solver", "approx"]["path_points"]
    solver_calls = calls["solver", "solve_batch"]

    def per(value, base, scale=1.0):
        return value / base * scale if base else 0.0

    return {
        "noise.busy_s": busy["noise"],
        "noise.calls": calls["noise", "make_batch"] + calls["noise", "coarsen"],
        "noise.draws": noise["draws"],
        "noise.events": noise["events"],
        "noise.ns_per_draw": per(busy["noise"], noise["draws"], 1e9),
        "solver.busy_s": busy["solver"],
        "solver.calls": solver_calls,
        "solver.path_steps": solver["path_steps"],
        "solver.rows_per_call": per(solver["rows"], solver_calls),
        "solver.ns_per_path_step": per(busy["solver"], solver["path_steps"], 1e9),
        "solver.events_applied": solver["events"],
        "system.self_s": self_s["system"],
        "system.blocks": sum(1 for s in spans
                             if s["layer"] == "solver" and s["ctx"] == "system"),
        "approx.self_s": self_s["approx"],
        "approx.levels_built": counts["approx"]["levels"],
        "approx.drift_points": drift_points,
        "approx.ns_per_drift_point": per(self_s["approx"], drift_points, 1e9),
        "executor.worker_busy_s": worker_busy,
        "executor.efficiency": per(worker_busy, map_capacity),
        "validate.self_s": self_s["validate"],
        "validate.conditions": counts["validate"]["conditions"],
        "validate.failed_conditions": counts["validate"]["failed"],
        "coeffs.integrate_calls": calls["coeffs", "integrate"],
        "coeffs.integrate_s": busy["coeffs"],
        "cli.self_s": self_s["cli"],
    }


def import_times(stderr_text: str) -> dict:
    """``mfjump.cli`` and outermost ``scipy`` cumulative times (s) from
    ``-X importtime`` lines. Lines come children first, so walk them in
    reverse to see each parent before its children."""
    entries = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # header line
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    cli_s = scipy_s = 0.0
    stack = []  # (depth, name) of the ancestors of the current entry
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name == "mfjump.cli":
            cli_s += cumulative
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(n == "scipy" or n.startswith("scipy.")
                                for _d, n in stack):
            scipy_s += cumulative
        stack.append((depth, name))
    return {"setup.import_s": cli_s, "setup.scipy_import_s": scipy_s}
