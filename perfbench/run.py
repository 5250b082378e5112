"""Benchmark of the mfjump command line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Each iteration runs ``mfjump.cli.main(argv)`` in a fresh interpreter
(perfbench/child.py) from the repository's ``src``; iterations run one after
another, a closed loop of one client. After one untimed warm-up interpreter,
iterations repeat until the next one would end after ``--seconds``; at least
one runs.

With ``--trace 0`` the last line reports the end-to-end metrics, medians over
the iterations: ``setup_s`` (interpreter start, ``import mfjump.cli`` and
``load_scenario``; set-up-only interpreters at the end of the run bring it to
at least MIN_SETUPS samples), ``run_s`` (``main``, artifacts included) and
``peak_rss_mb`` (largest process of the run's tree, pool workers included,
from ``os.wait4``). With ``--trace 1`` untraced and traced iterations
alternate and the last line reports the per-layer metrics of spans.py,
medians over the traced iterations.

Every run checks its outputs (checks.py), that every iteration wrote
byte-identical artifacts, and that traced counts repeat exactly. The last
line's ``attempted``/``failed`` count those checks. ``--all`` runs every
workload both ways and prints every metric.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

import checks
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_LIMIT_S = 170.0  # one run must end within 180 s
MIN_SETUPS = 6  # set-up samples behind each untraced run's setup_s

# name -> (CLI argv without --seed/--out, why)
WORKLOADS = {
    "sim-jumps": (
        ["simulate", "--scenario", "scenarios/thinned-jumps.json",
         "--paths", "10000", "--jobs", "1"],
        "event-bound: ~160k jump events applied one call at a time, "
        "no stable draws or mean-field drift"),
    "hier-refine": (
        ["approx", "--scenario", "scenarios/correlated-intensities.json",
         "--paths", "1000", "--levels", "4", "--refinements", "3", "--jobs", "2"],
        "hierarchy drift evaluation and 256-path forced solves; the only "
        "--jobs 2 workload, so it exercises the block executor"),
    "validate-mf": (
        ["validate", "--scenario", "scenarios/correlated-intensities.json"],
        "scipy quad over the stable jump measures; the only validate workload "
        "and the only one that uses no noise, solver or hierarchy"),
}

E2E_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "setup.import_s": "s", "setup.scipy_import_s": "s", "scenario.load_s": "s",
    "noise.busy_s": "s", "noise.calls": "count", "noise.draws": "count",
    "noise.events": "count", "noise.ns_per_draw": "ns",
    "solver.busy_s": "s", "solver.calls": "count", "solver.path_steps": "count",
    "solver.rows_per_call": "rows", "solver.ns_per_path_step": "ns",
    "solver.events_applied": "count",
    "system.self_s": "s", "system.blocks": "count",
    "approx.self_s": "s", "approx.levels_built": "count",
    "approx.drift_points": "count", "approx.ns_per_drift_point": "ns",
    "executor.worker_busy_s": "s", "executor.efficiency": "ratio",
    "validate.self_s": "s", "validate.conditions": "count",
    "validate.failed_conditions": "count",
    "coeffs.integrate_calls": "count", "coeffs.integrate_s": "s",
    "cli.self_s": "s", "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}
# per-layer values that must repeat exactly across traced iterations
EXACT = ("noise.calls", "noise.draws", "noise.events", "solver.calls",
         "solver.path_steps", "solver.events_applied", "system.blocks",
         "approx.levels_built", "approx.drift_points", "validate.conditions",
         "validate.failed_conditions", "coeffs.integrate_calls",
         "cli.bytes_written")


def requested_work(argv) -> int | None:
    """Path-steps the workload's inputs request: paths x steps x components,
    and x levels x (sum of ladder steps) for ``approx``."""
    command, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    if command not in ("simulate", "approx"):
        return None
    with open(os.path.join(ROOT, opts["--scenario"]), encoding="utf-8") as fh:
        scenario = json.load(fh)
    steps = scenario["grid_steps"]
    if "--dt" in opts:
        steps = round(scenario["horizon"] / float(opts["--dt"]))
    base = int(opts["--paths"]) * scenario["preset"].get("n_components", 1)
    if command == "simulate":
        return base * steps
    ladder = sum(steps * 2 ** r for r in range(int(opts.get("--refinements", 1))))
    return base * int(opts["--levels"]) * ladder


def _kill_group(pgid: int) -> None:
    """SIGKILL what is left of a child's process group and wait until it is gone."""
    for _ in range(500):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class Runner:
    """Spawns iterations of one workload under a scratch directory."""

    def __init__(self, name: str, argv, work_dir: str, deadline: float):
        self.name, self.argv = name, argv
        self.work_dir, self.deadline = work_dir, deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def spawn(self, trace: bool = False, setup_only: bool = False) -> dict | None:
        """One fresh-interpreter iteration; None if it crashed or timed out."""
        self.count += 1
        tag = os.path.join(self.work_dir, f"it{self.count}")
        out_dir, trace_dir = tag + "-out", tag + "-trace"
        os.makedirs(out_dir)
        if trace:
            os.makedirs(trace_dir)
        cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [
            os.path.join(HERE, "child.py"), tag + ".json",
            trace_dir if trace else "-", "--setup-only" if setup_only else "--run",
            "--"] + self.argv + ["--out", out_dir]
        with open(tag + ".stdout", "wb") as fo, open(tag + ".stderr", "wb") as fe:
            spawned = time.clock_gettime(time.CLOCK_MONOTONIC)  # as child.py's ready
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=fo,
                                    stderr=fe, start_new_session=True)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                    _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                _kill_group(proc.pid)  # stray pool workers, if any
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(tag + ".stderr", encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        if proc.returncode != 0 or not os.path.exists(tag + ".json"):
            tail = "\n".join(stderr.splitlines()[-5:])
            print(f"iteration {self.count} failed (status {proc.returncode}): {tail}",
                  file=sys.stderr)
            return None
        with open(tag + ".json", encoding="utf-8") as fh:
            result = json.load(fh)
        result.update(setup_s=result["ready"] - spawned, out_dir=out_dir,
                      peak_rss_mb=usage.ru_maxrss / 1024.0)
        if trace:
            layer = spans.summarize(spans.load_spans(trace_dir))
            layer.update(spans.import_times(stderr))
            layer["scenario.load_s"] = result["load_s"]
            layer["cli.bytes_written"] = checks.bytes_written(out_dir)
            result["layers"] = layer
        return result


class Tally:
    """Named pass/fail results of one run's checks."""

    def __init__(self):
        self.results = []

    def add(self, name: str, ok: bool) -> None:
        self.results.append((name, bool(ok)))

    @property
    def failed(self) -> list:
        return [name for name, ok in self.results if not ok]


def _iterate(runner: Runner, seconds: float, trace: bool, tally: Tally):
    """Untimed warm-up, then iterations (untraced, or untraced/traced pairs)
    until the next would end after ``seconds``. Untraced runs end with
    set-up-only interpreters until there are MIN_SETUPS set-up samples, and
    leave time for them. Returns (untraced, traced, set-up samples)."""
    warm = runner.spawn(setup_only=True)
    tally.add("warm-up interpreter imports mfjump and loads the scenario",
                warm is not None)
    plain, traced, reference = [], [], None
    start = time.monotonic()
    spare = lambda n_setups: 0.0 if trace else (
        max(0, MIN_SETUPS - n_setups) * warm["setup_s"])
    while warm is not None:
        t0 = time.monotonic()
        batch = [runner.spawn()] + ([runner.spawn(trace=True)] if trace else [])
        number = len(plain) + 1
        for i, it in enumerate(batch):
            label = f"iteration {number}" + (" (traced)" if i else "")
            tally.add(f"{label}: completed", it is not None)
            if it is None:
                continue
            tally.add(f"{label}: exit code 0 (got {it['exit_code']})",
                        it["exit_code"] == 0)
            fingerprint = checks.digest(it["out_dir"])
            if reference is None:
                reference = fingerprint
                for name, ok in checks.check_outputs(runner.name, it["out_dir"]):
                    tally.add(name, ok)
            else:
                tally.add(f"{label}: artifacts byte-identical to iteration 1",
                            fingerprint == reference)
            shutil.rmtree(it["out_dir"])
            (traced if i else plain).append(it)
        if None in batch:
            break
        took = time.monotonic() - t0
        if time.monotonic() - start + took + spare(len(plain) + 1) > seconds:
            break
        if time.monotonic() + took + spare(len(plain) + 1) > runner.deadline:
            break
    setups = [it["setup_s"] for it in plain]
    while plain and not trace and len(setups) < MIN_SETUPS \
            and time.monotonic() + warm["setup_s"] < runner.deadline:
        extra = runner.spawn(setup_only=True)
        tally.add(f"set-up-only interpreter {len(setups) + 1} completed",
                  extra is not None)
        if extra is None:
            break
        setups.append(extra["setup_s"])
    return plain, traced, setups


def measure(name: str, seed, seconds: float, trace: bool, deadline: float):
    """(Tally, metrics {name: value}) for one run of one workload."""
    argv = list(WORKLOADS[name][0]) + ([] if seed is None else ["--seed", str(seed)])
    work_dir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    result = Tally()
    try:
        runner = Runner(name, argv, work_dir, deadline)
        plain, traced, setups = _iterate(runner, seconds, trace, result)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not plain or (trace and not traced):
        return result, None
    median = lambda key, its: statistics.median(it[key] for it in its)
    if not trace:
        metrics = {k: median(k, plain) for k in E2E_UNITS}
        metrics["setup_s"] = statistics.median(setups)
        work = requested_work(argv)
        if work is not None:
            metrics["path_steps_per_s"] = work / metrics["run_s"]
        return result, metrics
    layers = [it["layers"] for it in traced]
    for key in EXACT if len(layers) > 1 else ():
        result.add(f"traced {key} repeats exactly",
                   all(layer[key] == layers[0][key] for layer in layers))
    metrics = {k: (layers[0][k] if k in EXACT else
                   statistics.median(layer[k] for layer in layers))
               for k in layers[0]}
    metrics["trace.overhead_s"] = median("run_s", traced) - median("run_s", plain)
    return result, metrics


def machine_meta(seed) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    src = os.path.join(ROOT, "src", "mfjump")
    loc = 0
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname), encoding="utf-8") as fh:
                loc += sum(1 for _ in fh)
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            **versions, "commit": commit, "seed": seed, "src_mfjump_loc": loc}


def _print_metrics(name: str, metrics: dict, result: Tally) -> None:
    units = {**E2E_UNITS, **LAYER_UNITS, "path_steps_per_s": "1/s"}
    for key, value in metrics.items():
        print(f"{name:24s} {key:28s} {value!r:>24} {units[key]}")
    attempted = len(result.results)
    print(f"{name:24s} {'failed_frac':28s} "
          f"{len(result.failed) / max(attempted, 1)!r:>24} ({len(result.failed)}"
          f" of {attempted} checks)")
    for failure in result.failed:
        print(f"{name:24s} FAILED CHECK: {failure}")


def _line(result: Tally, metrics: dict, units: dict) -> dict:
    return {"correct": not result.failed, "attempted": len(result.results),
            "failed": len(result.failed),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="every workload, both ways")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed passed to the CLI (default: the scenario's)")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    needed = [os.path.join(ROOT, "src", "mfjump", "cli.py")] + sorted(
        {os.path.join(ROOT, w[0][2]) for w in WORKLOADS.values()})
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"error: run from a checkout of the repository; missing {missing}",
              file=sys.stderr)
        return 2
    meta = machine_meta(args.seed)
    print("meta " + json.dumps(meta, sort_keys=True))
    if not args.all:
        deadline = time.monotonic() + TIME_LIMIT_S
        result, metrics = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace), deadline)
        if metrics is None:
            print(f"error: no iteration of {args.workload} completed", file=sys.stderr)
            return 1
        _print_metrics(args.workload + (" traced" if args.trace else ""), metrics, result)
        units = LAYER_UNITS if args.trace else E2E_UNITS
        print(json.dumps(_line(result, metrics, units)))
        return 0
    summary = {}
    for name in WORKLOADS:
        for trace in (False, True):
            deadline = time.monotonic() + TIME_LIMIT_S
            result, metrics = measure(name, args.seed, args.seconds, trace, deadline)
            if metrics is None:
                print(f"error: no iteration of {name} completed", file=sys.stderr)
                return 1
            _print_metrics(name + (" traced" if trace else ""), metrics, result)
            entry = summary.setdefault(name, {"correct": True, "attempted": 0,
                                              "failed": 0, "metrics": {}})
            line = _line(result, metrics, LAYER_UNITS if trace else E2E_UNITS)
            entry["correct"] &= line["correct"]
            entry["attempted"] += line["attempted"]
            entry["failed"] += line["failed"]
            entry["metrics"].update(line["metrics"])
    print(json.dumps({"meta": meta, "workloads": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
