"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest -q perfbench

The last test runs every workload traced, twice (about a minute on two cores).
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import pytest

import run
import spans


def test_import_times_take_cli_and_outermost_scipy():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |        400 |   mfjump.coeffs",
        "import time:        70 |        600 | mfjump.cli",
        "import time:        10 |         20 |   scipy.integrate._quad",
        "import time:        30 |         40 | scipy.integrate",
        "some other stderr line",
    ])
    got = spans.import_times(text)
    assert got["setup.import_s"] == pytest.approx(600e-6)
    assert got["setup.scipy_import_s"] == pytest.approx(340e-6)


def _span(layer, name, dur, child=0.0, parent=None, ctx=None, **counts):
    return {"layer": layer, "name": name, "ctx": ctx, "parent": parent,
            "dur": dur, "child": child, "counts": counts}


def test_summarize_self_busy_and_worker_blocks():
    trace = [
        _span("cli", "cmd_approx", 10.0, child=9.0),
        _span("approx", "run_hierarchy_ensemble", 9.0, child=8.0, parent="cli", ctx="cli"),
        _span("executor", "map", 8.0, parent="approx", ctx="approx", processes=2),
        # one worker: a block whose own time belongs to approx
        _span("executor", "block", 7.0, child=6.0, ctx="approx"),
        _span("noise", "make_batch", 1.0, parent="executor", ctx="approx",
              rows=4, draws=100, events=3),
        _span("approx", "run_hierarchy_batch", 5.0, child=4.0, parent="executor",
              ctx="approx"),
        _span("solver", "solve_batch", 4.0, parent="approx", ctx="approx",
              rows=4, path_steps=40, path_points=44, events=2),
    ]
    m = spans.summarize(trace)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["approx.self_s"] == pytest.approx(1.0 + 1.0 + 1.0)
    assert m["noise.busy_s"] == 1.0 and m["noise.draws"] == 100
    assert m["noise.ns_per_draw"] == pytest.approx(1e7)
    assert m["solver.calls"] == 1 and m["solver.rows_per_call"] == 4.0
    assert m["approx.drift_points"] == 44
    assert m["executor.worker_busy_s"] == 7.0
    assert m["executor.efficiency"] == pytest.approx(7.0 / 16.0)
    assert m["system.self_s"] == 0.0 and m["system.blocks"] == 0


def test_tracer_charges_children_and_counting_to_nobody(tmp_path):
    tracer = spans.Tracer(str(tmp_path))

    def inner():
        time.sleep(0.02)
        return 3

    def slow_count(_result, _args):
        time.sleep(0.05)
        return {"n": 1}

    inner_t = tracer.wrap("solver", "inner", inner, slow_count)
    outer_t = tracer.wrap("cli", "outer", lambda: inner_t() + inner_t())
    assert outer_t() == 6
    tracer.dump()
    got = {s["name"]: s for s in spans.load_spans(str(tmp_path)) if s["name"] == "outer"}
    outer = got["outer"]
    assert outer["dur"] - outer["child"] < 0.01  # counting is not outer's self time
    inner_spans = [s for s in spans.load_spans(str(tmp_path)) if s["name"] == "inner"]
    assert [s["counts"] for s in inner_spans] == [{"n": 1}, {"n": 1}]
    assert all(s["ctx"] == "cli" and s["dur"] < 0.045 for s in inner_spans)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sim-jumps",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_traced_counts_repeat_exactly():
    work_dir = tempfile.mkdtemp(prefix=".work-", dir=run.HERE)
    try:
        for name, (argv, _why) in run.WORKLOADS.items():
            os.mkdir(os.path.join(work_dir, name))
            runner = run.Runner(name, argv, os.path.join(work_dir, name),
                                time.monotonic() + 170.0)
            first, second = runner.spawn(trace=True), runner.spawn(trace=True)
            assert first is not None and second is not None, name
            for key in run.EXACT:
                assert first["layers"][key] == second["layers"][key], (name, key)
            if not name.startswith("validate"):
                assert first["layers"]["solver.calls"] > 0, name
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
