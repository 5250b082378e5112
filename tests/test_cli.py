import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import mfjump
from mfjump import load_scenario, make_batch, solve_batch
from mfjump.cli import _path_lines, _quantiles, main
from mfjump.system import run_ensemble


def write_scenario(path, **overrides):
    data = {
        "schema_version": 1,
        "name": "cli-test",
        "horizon": 1.0,
        "grid_steps": 64,
        "preset": {
            "kind": "example21",
            "n_components": 1,
            "a": 1.0,
            "sigma": 0.5,
            "initial": 1.0,
        },
        "drift": {"kind": "constant", "value": 2.0},
    }
    data.update(overrides)
    path.write_text(json.dumps(data))
    return path


def read_tree(out_dir):
    return {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)}


def assert_blowup_exits_two(command, tmp_path, capsys, *flags):
    """``command`` (with ``flags``) on a blowing-up scenario exits 2 with the
    same error at --jobs 1 and --jobs 2."""
    preset = {"kind": "example21", "n_components": 1, "a": 1.0,
              "sigma": 50.0, "sigma_power": 3.0, "initial": 5.0}
    scen = write_scenario(tmp_path / "s.json", preset=preset,
                          drift={"kind": "constant", "value": 1000.0})
    # 1200 paths make several blocks, all with failing paths
    argv = [command, "--scenario", str(scen), "--paths", "1200", "--seed", "0", *flags]
    code = main(argv + ["--out", str(tmp_path / "o"), "--jobs", "1"])
    assert code == 2
    serial = capsys.readouterr().err
    assert re.search(r"component 0, path \d+$", serial.strip())
    # --jobs 2 sends the error through the pool; a subprocess with a
    # timeout turns a hang into a failure
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mfjump.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "mfjump.cli"] + argv
        + ["--out", str(tmp_path / "o2"), "--jobs", "2"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    assert proc.stderr == serial


class TestSimulate:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json")
        outs = []
        for name, jobs in (("o1", 1), ("o2", 2)):
            out = tmp_path / name
            code = main(["simulate", "--scenario", str(scen), "--paths", "150",
                         "--seed", "4", "--out", str(out), "--jobs", str(jobs),
                         "--dump-paths", "3"])
            assert code == 0
            outs.append(read_tree(out))
        assert outs[0] == outs[1]

    def test_jump_scenario_is_byte_identical_across_jobs(self, tmp_path):
        # 1100 paths make three blocks; every block carries jump events
        scen = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                            "thinned-jumps.json")
        outs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            code = main(["simulate", "--scenario", scen, "--paths", "1100",
                         "--out", str(out), "--jobs", str(jobs)])
            assert code == 0
            outs.append(read_tree(out))
        assert sorted(outs[0]) == ["aggregate.csv", "paths.csv", "summary.json"]
        assert outs[0] == outs[1]

    def test_dumped_paths_span_blocks(self, tmp_path):
        # 600 dumped paths cover two blocks; path 599 is written from the
        # second block's solve and equals the path solved alone
        scen = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                            "thinned-jumps.json")
        dumps = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            code = main(["simulate", "--scenario", scen, "--paths", "600",
                         "--dump-paths", "600", "--out", str(out),
                         "--jobs", str(jobs)])
            assert code == 0
            dumps.append((out / "paths.csv").read_text())
        assert dumps[0] == dumps[1]
        scenario = load_scenario(scen)
        spec = scenario.system
        batch = make_batch(scenario.grid(scenario.grid_steps), spec.noise_layout(),
                           scenario.seed, [599])
        lone = solve_batch(spec.components, spec.drifts, batch,
                           initial=spec.initial[:, None]).values[:, 0]
        rows = [line.split(",") for line in dumps[0].splitlines()[1:]]
        assert len(rows) == 600 * spec.n * lone.shape[1]
        for i in range(spec.n):
            dumped = [float(r[3]) for r in rows if r[0] == "599" and r[1] == str(i)]
            assert np.array_equal(dumped, lone[i])

    def test_artifacts_exist_and_summary_is_consistent(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", preset={
            "kind": "example21", "n_components": 3, "a": 1.0, "sigma": 0.4,
            "sigma_z": 0.2, "alpha": 1.8, "initial": [1.0, 1.5, 2.0]},
            drift={"kind": "mean-field-average"})
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", str(scen), "--paths", "400",
                     "--seed", "1", "--out", str(out), "--jobs", "1"])
        assert code == 0
        for name in ("paths.csv", "aggregate.csv", "summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_paths"] == 400
        # conservation of the component average, well inside noise
        assert abs(summary["average_mean_end"] - summary["average_mean_start"]) < 0.1
        assert len(summary["integral_mean"]) == 3

    def test_paths_zero_is_usage_error(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json")
        code = main(["simulate", "--scenario", str(scen), "--paths", "0",
                     "--out", str(tmp_path / "o")])
        assert code == 3

    def test_unknown_field_is_usage_error(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", mystery=1)
        code = main(["simulate", "--scenario", str(scen), "--paths", "5",
                     "--out", str(tmp_path / "o")])
        assert code == 3

    def test_numeric_blowup_is_exit_two(self, tmp_path, capsys):
        assert_blowup_exits_two("simulate", tmp_path, capsys)

    def test_env_var_sets_default_out_dir(self, tmp_path, monkeypatch):
        scen = write_scenario(tmp_path / "s.json")
        target = tmp_path / "from-env"
        monkeypatch.setenv("MFJUMP_OUT", str(target))
        monkeypatch.chdir(tmp_path)
        code = main(["simulate", "--scenario", str(scen), "--paths", "5",
                     "--seed", "0", "--jobs", "1"])
        assert code == 0
        assert (target / "summary.json").exists()

    def test_dt_flag_overrides_grid(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json")
        out = tmp_path / "o"
        code = main(["simulate", "--scenario", str(scen), "--paths", "5",
                     "--seed", "0", "--out", str(out), "--jobs", "1",
                     "--dt", "0.03125"])
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["grid_steps"] == 32

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 1000, 10000])
    def test_section_quantiles_equal_numpy_bit_for_bit(self, n):
        # values with ties, and values spread over many decades; no column
        # mixes -0.0 and 0.0, where the two may pick different zeros
        rng = np.random.default_rng(n)
        qs = (0.05, 0.25, 0.5, 0.75, 0.95)
        for values in (rng.integers(0, 4, (n, 3, 2)) * 0.5,
                       rng.standard_normal((n, 2, 3)) * 10.0 ** rng.integers(-8, 8, (n, 2, 3))):
            got, want = _quantiles(values, qs), np.quantile(values, qs, axis=0)
            assert got.shape == want.shape == (5,) + values.shape[1:]
            assert np.array_equal(got.view(np.int64), want.view(np.int64))



def fstring_paths_csv(values, times):
    """``paths.csv`` as one f-string per row, path-major: the reference the
    joined rows must equal."""
    lines = [f"{p},{i},{t},{v!r}\n"
             for p in range(values.shape[1]) for i in range(values.shape[0])
             for t, v in zip(times, values[i, p].tolist())]
    return "path_id,component,time,value\n" + "".join(lines)


class TestPathsCsv:
    """``paths.csv`` rows built from one repr per (path, component) equal
    one f-string per row, byte for byte."""

    @pytest.mark.parametrize("dump", [0, 1, 3])
    def test_dumped_paths_equal_the_fstring_rows(self, tmp_path, dump):
        scen = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                            "correlated-intensities.json")
        out = tmp_path / "o"
        code = main(["simulate", "--scenario", scen, "--paths", "5", "--out", str(out),
                     "--dump-paths", str(dump)])
        assert code == 0
        scenario = load_scenario(scen)
        assert scenario.system.n >= 2
        grid = scenario.grid(scenario.grid_steps)
        values = run_ensemble(scenario.system, grid, 5, scenario.seed,
                              keep_paths=dump).values
        assert values.shape[1] == dump
        times = [repr(t) for t in grid.points.tolist()]
        assert (out / "paths.csv").read_bytes() == \
            fstring_paths_csv(values, times).encode()

    def test_signed_zeros_and_extreme_values(self):
        values = np.array([[[0.0, -0.0, 1e-300, 1e300], [5e-324, -1.5, 0.1, 2.0 ** 60]],
                           [[1e300, 1e-300, -0.0, 0.0], [1.7976931348623157e308, 3.0,
                                                         -2.5e-8, 1e16]]])
        times = ["0.0", "0.25", "0.5", "1.0"]
        got = "path_id,component,time,value\n" + "".join(
            f"{block}\n" for block in _path_lines(values, times))
        assert got == fstring_paths_csv(values, times)
        assert "0,0,0.25,-0.0\n" in got and "1,1,0.0,1.7976931348623157e+308\n" in got


class TestValidate:
    def test_good_scenario_exits_zero(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "s.json")
        code = main(["validate", "--scenario", str(scen),
                     "--out", str(tmp_path / "o"), "--budget", "150"])
        assert code == 0
        report = json.loads((tmp_path / "o" / "validation.json").read_text())
        assert all(entry["passed"] for entry in report)

    def test_broken_sigma_exits_one_with_witness(self, tmp_path, capsys):
        preset = {"kind": "example21", "n_components": 1, "a": 1.0,
                  "sigma": 1.0, "sigma_power": 2.0, "initial": 1.0}
        scen = write_scenario(tmp_path / "s.json", preset=preset)
        code = main(["validate", "--scenario", str(scen),
                     "--out", str(tmp_path / "o"), "--budget", "400"])
        assert code == 1
        text = capsys.readouterr().out
        assert "FAIL" in text and "witness" in text
        report = json.loads((tmp_path / "o" / "validation.json").read_text())
        failing = [c for entry in report for c in entry["conditions"]
                   if c["status"] == "fail"]
        assert failing and failing[0]["witness"] is not None


    def test_thinned_jumps_scenario_passes(self, tmp_path):
        scen = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                            "thinned-jumps.json")
        code = main(["validate", "--scenario", scen, "--out", str(tmp_path / "o")])
        assert code == 0

    SIGMA = ["sigma vanishes for x <= 0", "sigma modulus |sigma(x)-sigma(y)| <= rho(|x-y|)",
             "integral dz/rho^2 diverges at 0"]
    G0 = ["g0 increasing in the state", "g0(x,u) + x >= 0 for x >= 0",
          "g0(x,u) = 0 for x <= 0", "integral |g0| ^ |g0|^2 d(mu0) locally bounded",
          "g0 truncated L2 modulus <= rho_m^2", "integral dz/rho_m^2 diverges at 0"]
    JUMPS = [SIGMA + G0 + ["g1 conditions"],
             ["sigma bounded or increasing on R+", "g0 left-continuous in x (probe)"]]
    CONSTANT = [["component 0: drift kind 'constant'"]]

    @pytest.mark.parametrize("name, reports, bounded", [
        ("cir", [SIGMA + ["g0 conditions", "g1 conditions"],
                 ["sigma bounded or increasing on R+"]] + CONSTANT, None),
        ("thinned-jumps", JUMPS + CONSTANT, "max over sampled states: 2.087"),
        ("correlated-intensities", JUMPS * 3 + [
            [f"component {i}: {cond}" for i in range(3)
             for cond in ("b_i non-negative", "b_i increasing in each state",
                          "b_i <= B + L*sum(x) (B=0.0, L=0.3333333333333333)")]],
         "max over sampled states: 1.895"),
    ])
    def test_shipped_scenario_verdicts_are_pinned(self, name, reports, bounded, tmp_path):
        # every condition of every report passes, in this order, and the
        # local-boundedness integral reads the same four digits
        scen = os.path.join(os.path.dirname(__file__), "..", "scenarios", f"{name}.json")
        assert main(["validate", "--scenario", scen, "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "validation.json").read_text())
        assert [[c["name"] for c in entry["conditions"]] for entry in report] == reports
        assert all(c["status"] == "pass" for entry in report for c in entry["conditions"])
        details = {c["detail"] for entry in report for c in entry["conditions"]
                   if c["name"] == "integral |g0| ^ |g0|^2 d(mu0) locally bounded"}
        assert details == ({bounded} if bounded else set())


class TestApprox:
    def test_deterministic_mode_is_selected_and_noted(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json")  # constant drift
        out = tmp_path / "o"
        code = main(["approx", "--scenario", str(scen), "--paths", "20",
                     "--levels", "3", "--seed", "2", "--out", str(out),
                     "--jobs", "1"])
        assert code == 0
        report = json.loads((out / "approx_report.json").read_text())
        assert report["mode_requested"] == "realized"
        assert report["mode_used"] == "deterministic"
        assert report["moment_bound"]["passed"] is True

    def test_trivial_drift_has_zero_gap(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json",
                              drift={"kind": "constant", "value": 0.0})
        out = tmp_path / "o"
        code = main(["approx", "--scenario", str(scen), "--paths", "10",
                     "--levels", "2", "--seed", "2", "--out", str(out),
                     "--jobs", "1"])
        assert code == 0
        report = json.loads((out / "approx_report.json").read_text())
        assert report["cauchy_gap"] == 0.0
        # one rung: no ladder rows, only the header
        assert report["refinements"] == []
        assert len((out / "refinements.csv").read_text().splitlines()) == 1

    def test_refinement_run_reports_decreasing_violations(self, tmp_path):
        # the pinned diffusive configuration: ordering violations shrink
        # across the dt ladder under shared noise
        preset = {"kind": "example21", "n_components": 2, "a": 4.0,
                  "sigma": 2.0, "initial": [0.4, 0.8]}
        scen = write_scenario(tmp_path / "s.json", preset=preset,
                              drift={"kind": "mean-field-average"},
                              grid_steps=64)
        out = tmp_path / "o"
        code = main(["approx", "--scenario", str(scen), "--paths", "1000",
                     "--levels", "4", "--seed", "0", "--out", str(out),
                     "--jobs", "2", "--refinements", "3"])
        assert code == 0
        rows = (out / "refinements.csv").read_text().splitlines()
        assert rows[0].split(",")[:5] == ["steps", "dt", "max_violation",
                                          "mean_sup_violation",
                                          "violating_fraction"]
        fracs = [float(r.split(",")[4]) for r in rows[1:]]
        maxima = [float(r.split(",")[2]) for r in rows[1:]]
        assert fracs[0] > fracs[-1]
        assert maxima[0] > maxima[1] > maxima[2]

    @pytest.mark.parametrize("mode", mfjump.approx.MODES)
    def test_numeric_blowup_is_exit_two(self, tmp_path, capsys, mode):
        assert_blowup_exits_two("approx", tmp_path, capsys, "--mode", mode)

    def test_staircase_mode(self, tmp_path):
        # the adapted hierarchy orders its levels exactly, and its artifacts
        # do not depend on --jobs (300 paths make two blocks)
        scen = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                            "correlated-intensities.json")
        trees = []
        for jobs in ("1", "2"):
            out = tmp_path / f"o{jobs}"
            assert main(["approx", "--scenario", scen, "--paths", "300", "--levels", "4",
                         "--refinements", "2", "--mode", "staircase", "--seed", "1",
                         "--out", str(out), "--jobs", jobs]) == 0
            trees.append(read_tree(out))
        assert trees[0] == trees[1]
        report = json.loads(trees[0]["approx_report.json"])
        assert report["mode_used"] == "staircase"
        rows = trees[0]["monotonicity.csv"].decode().splitlines()[1:]
        assert len(rows) == 3 and all(row.split(",")[3] == "0.0" for row in rows)
        assert [r["max_violation"] for r in report["refinements"]] == [0.0, 0.0]

    def test_mode_choices_are_the_library_modes(self):
        parser = mfjump.cli._build_parser()
        command = next(a for a in parser._actions if a.dest == "command")
        mode = next(a for a in command.choices["approx"]._actions if a.dest == "mode")
        assert tuple(mode.choices) == mfjump.approx.MODES

    def test_non_power_of_two_grid_rejected(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", grid_steps=48)
        code = main(["approx", "--scenario", str(scen), "--paths", "4",
                     "--out", str(tmp_path / "o"), "--jobs", "1"])
        assert code == 3

    def test_determinism_across_jobs(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", grid_steps=32,
                              drift={"kind": "mean-field-average"},
                              preset={"kind": "example21", "n_components": 2,
                                      "a": 1.0, "sigma": 0.6,
                                      "initial": [1.0, 2.0]})
        for refinements in ("1", "2"):
            trees = []
            for jobs in ("1", "3"):
                out = tmp_path / f"r{refinements}-j{jobs}"
                code = main(["approx", "--scenario", str(scen), "--paths", "300",
                             "--levels", "3", "--seed", "5", "--out", str(out),
                             "--jobs", jobs, "--refinements", refinements])
                assert code == 0
                trees.append(read_tree(out))
            assert trees[0] == trees[1]


class TestUniqueness:
    def test_ladder_report_and_ak_table(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", grid_steps=64)
        out = tmp_path / "o"
        code = main(["uniqueness", "--scenario", str(scen), "--paths", "200",
                     "--levels", "3", "--seed", "3", "--out", str(out),
                     "--jobs", "1"])
        assert code == 0
        report = json.loads((out / "uniqueness_report.json").read_text())
        assert report["ladder_steps"] == [64, 128, 256]
        assert report["strictly_decreasing"] is True
        ak = (out / "ak_table.csv").read_text().splitlines()
        assert ak[0] == "k,a_k"
        assert len(ak) == 6  # a_0 .. a_4

    def test_single_rung_self_consistency(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", grid_steps=64)
        out = tmp_path / "o"
        code = main(["uniqueness", "--scenario", str(scen), "--paths", "50",
                     "--levels", "1", "--seed", "3", "--out", str(out),
                     "--jobs", "1"])
        assert code == 0
        rows = (out / "divergence.csv").read_text().splitlines()
        assert len(rows) == 2

    def test_byte_identical_across_jobs(self, tmp_path):
        # 600 paths make two blocks
        scen = write_scenario(tmp_path / "s.json", grid_steps=64)
        trees = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            code = main(["uniqueness", "--scenario", str(scen), "--paths", "600",
                         "--seed", "3", "--out", str(out), "--jobs", str(jobs)])
            assert code == 0
            trees.append(read_tree(out))
        assert sorted(trees[0]) == ["ak_table.csv", "divergence.csv",
                                    "uniqueness_report.json"]
        assert trees[0] == trees[1]

    def test_numeric_blowup_is_exit_two(self, tmp_path, capsys):
        assert_blowup_exits_two("uniqueness", tmp_path, capsys)


def plain_field(field):
    """A fixed label, an integer, or a float written as its own repr."""
    if field == "average" or re.fullmatch(r"-?[0-9]+", field):
        return True
    try:
        return repr(float(field)) == field
    except ValueError:
        return False


class TestCsvFields:
    def test_every_field_is_a_label_an_integer_or_a_float_repr(self, tmp_path):
        # so the CSV writer can join fields with commas and never quote one
        scen = write_scenario(tmp_path / "s.json", preset={
            "kind": "example21", "n_components": 2, "a": 1.0, "sigma": 0.5,
            "sigma_z": 0.2, "initial": [1.0, 1.5]})
        common = ["--scenario", str(scen), "--seed", "3", "--jobs", "1"]
        runs = {
            "simulate": ["--paths", "20", "--dump-paths", "5"],
            "approx": ["--paths", "20", "--levels", "3", "--refinements", "2"],
            "uniqueness": ["--paths", "20", "--levels", "2", "--phi-k", "1", "2"],
        }
        names = set()
        for command, argv in runs.items():
            out = tmp_path / command
            assert main([command] + common + argv + ["--out", str(out)]) == 0
            for path in sorted(out.glob("*.csv")):
                names.add(path.name)
                header, *rows = path.read_text(encoding="utf-8").split("\n")[:-1]
                assert '"' not in header and rows, path.name
                for row in rows:
                    fields = row.split(",")
                    assert len(fields) == header.count(",") + 1, (path.name, row)
                    assert all(plain_field(f) for f in fields), (path.name, row)
        assert names == {"aggregate.csv", "paths.csv", "level_gaps.csv",
                         "monotonicity.csv", "refinements.csv", "moment_bound.csv",
                         "divergence.csv", "ak_table.csv"}


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["approx", "--paths", "0"],
        ["uniqueness", "--paths", "0"],
        ["uniqueness", "--paths", "1"],
        ["approx", "--levels", "1"],
        ["approx", "--refinements", "0"],
        ["validate", "--budget", "0"],
        ["validate", "--budget", "3"],
        ["uniqueness", "--levels", "0"],
        ["uniqueness", "--phi-k", "0"],
        ["uniqueness", "--phi-k", "-1"],
        ["simulate", "--paths", "5", "--dump-paths", "-3"],
        ["simulate", "--paths", "5", "--dt", "0"],
        ["simulate", "--paths", "5", "--dt", "-0.0"],
        ["simulate", "--paths", "5", "--dt", "nan"],
        ["simulate", "--paths", "2", "--dt", "1e-320"],
        ["approx", "--dt", "0"],
        ["approx", "--dt", "-0.0"],
        ["approx", "--dt", "nan"],
        ["approx", "--dt", "1e-320"],
        ["uniqueness", "--dt", "0"],
        ["uniqueness", "--dt", "5e-324"],
        ["simulate", "--paths", "5", "--seed", "-1"],
        ["approx", "--seed", "-1"],
        ["uniqueness", "--seed", "-1"],
        ["simulate", "--paths", "5", "--jobs", "0"],
        ["approx", "--jobs", "-3"],
        ["validate", "--jobs", "0"],
        ["uniqueness", "--jobs", "-3"],
    ], ids=lambda argv: " ".join(argv))
    def test_bad_count_is_usage_error(self, argv, tmp_path, capsys):
        scen = os.path.join(os.path.dirname(__file__), "..", "scenarios", "cir.json")
        out = tmp_path / "o"
        # the flags under test come last, so a --jobs among them wins
        code = main(argv[:1] + ["--scenario", scen, "--out", str(out), "--jobs", "1"]
                    + argv[1:])
        assert code == 3
        flag, value = argv[-2:]
        if flag != "--dt":
            rule = "must be at least"
        elif float(value) > 0:  # horizon / dt overflows a float
            rule = "is too small for the horizon"
        else:
            rule = "must be finite and positive"
        assert f"{flag} {rule}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario, argv, message", [
        ("cir", ["--levels", "12"], "--levels must be at most 11 on a 1024-step grid"),
        ("cir", ["--levels", "12", "--refinements", "2"], "--levels must be at most 11"),
        ("cir", ["--dt", "0.25", "--levels", "4"], "--levels must be at most 3"),
        ("correlated-intensities", ["--levels", "10"], "--levels must be at most 9"),
        ("correlated-intensities", ["--mode", "deterministic"],
         "invalid choice: 'deterministic'"),
        ("cir", ["--mode", "deterministic"], "invalid choice: 'deterministic'"),
        ("correlated-intensities", ["--mode", "nested-mc"], "invalid choice: 'nested-mc'"),
    ], ids=["cir --levels 12", "cir --levels 12 --refinements 2",
            "cir --dt 0.25 --levels 4", "correlated-intensities --levels 10",
            "correlated-intensities --mode deterministic", "cir --mode deterministic",
            "correlated-intensities --mode nested-mc"])
    def test_approx_flag_the_scenario_cannot_take(self, scenario, argv, message,
                                                 tmp_path, capsys):
        # level L needs 2^(L-1) steps on the base grid; deterministic is
        # the reported label of realized forcing, not a mode to ask for;
        # nested-mc is no mode either
        scen = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                            f"{scenario}.json")
        out = tmp_path / "o"
        code = main(["approx", "--scenario", scen, "--out", str(out), "--jobs", "1",
                     "--paths", "4", "--levels", "2"] + argv)
        assert code == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_approx_levels_up_to_the_grid_run(self, tmp_path):
        scen = os.path.join(os.path.dirname(__file__), "..", "scenarios", "cir.json")
        assert main(["approx", "--scenario", scen, "--out", str(tmp_path / "o"),
                     "--jobs", "1", "--paths", "4", "--dt", "0.25", "--levels", "3"]) == 0

    @pytest.mark.parametrize("k, code", [(74, 0), (75, 3), (77, 3)])
    def test_phi_k_beyond_the_modulus_is_usage_error(self, k, code, tmp_path, capsys):
        # cir's a_k = exp(-k(k+1)/8) is subnormal from k = 75 and 0 from k = 77
        scen = os.path.join(os.path.dirname(__file__), "..", "scenarios", "cir.json")
        out = tmp_path / "o"
        assert main(["uniqueness", "--scenario", scen, "--out", str(out), "--jobs", "1",
                     "--paths", "10", "--levels", "1", "--phi-k", "2", str(k)]) == code
        if code:
            err = capsys.readouterr().err
            assert f"--phi-k {k} is beyond this scenario's modulus" in err
            assert "the largest usable index is 74" in err
            assert not out.exists()
        else:
            assert (out / "uniqueness_report.json").exists()

    def test_default_phi_k_leaves_out_what_the_modulus_cannot_resolve(self, tmp_path,
                                                                   capsys):
        # rho = 50 sqrt(z) gives a_1 = exp(-2500) = 0.0, so no phi_k builds
        preset = {"kind": "example21", "n_components": 1, "a": 1.0,
                  "sigma": 50.0, "initial": 1.0}
        scen = str(write_scenario(tmp_path / "s.json", preset=preset))
        argv = ["uniqueness", "--scenario", scen, "--jobs", "1", "--paths", "4",
                "--levels", "1"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0
        with open(tmp_path / "o" / "divergence.csv", encoding="utf-8") as fh:
            assert "phi_moment" not in fh.readline()
        assert main(argv + ["--out", str(tmp_path / "o2"), "--phi-k", "2"]) == 3
        assert "the largest usable index is none" in capsys.readouterr().err
        assert not (tmp_path / "o2").exists()

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 3

    def test_validate_has_no_dt_flag(self, tmp_path):
        scen = os.path.join(os.path.dirname(__file__), "..", "scenarios", "cir.json")
        assert main(["validate", "--scenario", scen, "--dt", "0",
                     "--out", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o").exists()

    def test_missing_scenario_flag(self):
        assert main(["simulate", "--paths", "5"]) == 3

    @pytest.mark.parametrize("section", [{"preset": 5}, {"drift": [1]}],
                             ids=["preset", "drift"])
    def test_section_that_is_not_an_object_is_usage_error(self, section, tmp_path, capsys):
        scen = write_scenario(tmp_path / "s.json", **section)
        code = main(["validate", "--scenario", str(scen), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "expected an object" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_help_exits_zero(self, capsys):
        assert main(["approx", "--help"]) == 0
        assert "--refinements" in capsys.readouterr().out

    @pytest.mark.parametrize("command, code", [
        ("simulate", 3), ("uniqueness", 3), ("approx", 3), ("validate", 0)])
    def test_staircase_breakpoint_off_the_grid(self, command, code, tmp_path, capsys):
        # 0.3 is no point of the 64-step grid: a staircase drift must switch
        # on a step; validate only samples the drift and accepts it
        scen = write_scenario(tmp_path / "s.json", drift={
            "kind": "staircase", "breakpoints": [0.0, 0.3, 1.0], "levels": [1.0, 2.0]})
        for jobs in ("1", "2"):
            out = tmp_path / f"o{jobs}"
            argv = [command, "--scenario", str(scen), "--out", str(out), "--jobs", jobs]
            if command != "validate":
                argv += ["--paths", "4", "--seed", "0"]
            assert main(argv) == code
            if code:
                assert ("drift.breakpoints: 0.3 is not a point of the 64-step grid"
                        in capsys.readouterr().err)
                assert not out.exists()

    @pytest.mark.parametrize("below", [False, True], ids=["a file", "below a file"])
    @pytest.mark.parametrize("command", ["simulate", "approx", "validate", "uniqueness"])
    def test_out_that_cannot_be_created_is_usage_error(self, command, below, tmp_path,
                                                        capsys):
        # --out names an existing file, or a path below one
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = taken / "o" if below else taken
        scen = os.path.join(os.path.dirname(__file__), "..", "scenarios", "cir.json")
        argv = [command, "--scenario", scen, "--out", str(out), "--jobs", "2"]
        if command != "validate":
            argv += ["--paths", "4"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"scenario error: --out {out}: cannot create the directory")
        assert err.count("\n") == 1
        assert os.listdir(tmp_path) == ["taken"] and taken.read_text() == "kept"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command, artifact", [
        ("simulate", "summary.json"), ("approx", "approx_report.json"),
        ("validate", "validation.json"), ("uniqueness", "divergence.csv")])
    def test_artifact_held_by_a_directory_is_usage_error(self, command, artifact, jobs,
                                                         tmp_path, capsys):
        # the artifact's name in --out is taken by a directory; the error
        # comes after the work, when the command writes that artifact
        out = tmp_path / "o"
        (out / artifact).mkdir(parents=True)
        (out / artifact / "kept").write_text("kept")
        scen = os.path.join(os.path.dirname(__file__), "..", "scenarios", "cir.json")
        argv = [command, "--scenario", scen, "--out", str(out), "--jobs", jobs]
        if command != "validate":
            argv += ["--paths", "300"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == f"scenario error: --out {out}: cannot write {artifact}: Is a directory\n"
        assert os.listdir(out / artifact) == ["kept"]
        assert (out / artifact / "kept").read_text() == "kept"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command, flags, grid_steps, steps", [
        ("simulate", ["--dt", "1e-15"], None, 10 ** 15),
        ("simulate", [], 1e15, 10 ** 15),
        ("uniqueness", [], 1e15, 8 * 10 ** 15),  # twice the last of three rungs
        ("approx", ["--refinements", "34"], None, 2 ** 43),
        ("approx", ["--refinements", "54"], None, 2 ** 63),
        ("approx", ["--refinements", "60"], None, 2 ** 69),
        ("uniqueness", ["--levels", "60"], None, 2 ** 70),
        # past 24 digits a count prints as a bound: 1.0 / 1e-300 rounds to
        # 9.999999999999999e299, 1024 * 2^1099 = 2^1109 has 334 digits, and
        # 1024 * 2^14999 is past any float and too long for str()
        ("simulate", ["--dt", "1e-300"], None, "at least 9.999e+299"),
        ("approx", ["--refinements", "1100"], None, "at least 6.954e+333"),
        ("approx", ["--refinements", "15000"], None, "at least 1.442e+4518"),
    ], ids=["simulate --dt 1e-15", "simulate grid_steps 1e15",
            "uniqueness grid_steps 1e15", "approx --refinements 34",
            "approx --refinements 54", "approx --refinements 60",
            "uniqueness --levels 60", "simulate --dt 1e-300",
            "approx --refinements 1100", "approx --refinements 15000"])
    def test_grid_too_large_to_build_is_usage_error(self, command, flags, grid_steps,
                                                     steps, jobs, tmp_path, capsys):
        # the finest grid of each run takes 64 TiB or more, which numpy
        # refuses at once (MemoryError, or ValueError and IndexError past
        # its size limit), so no case allocates anything large
        if grid_steps is None:
            scen = os.path.join(os.path.dirname(__file__), "..", "scenarios", "cir.json")
        else:
            scen = str(write_scenario(tmp_path / "s.json", grid_steps=grid_steps))
        out = tmp_path / "o"
        assert main([command, "--scenario", scen, "--out", str(out), "--jobs", jobs,
                     "--paths", "4", "--seed", "0"] + flags) == 3
        assert capsys.readouterr().err == \
            f"scenario error: a grid of {steps} steps is too large to build\n"
        assert not out.exists()

    def test_validate_builds_no_grid(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", grid_steps=1e15)
        out = tmp_path / "o"
        assert main(["validate", "--scenario", str(scen), "--out", str(out),
                     "--jobs", "1"]) == 0
        assert os.listdir(out) == ["validation.json"]

    NEGATIVE_MASS = {"kind": "cbi-thinning", "a": 1.0, "initial": 1.0, "v_max": 4.0,
                     "levy": {"kind": "point", "atoms": [[0.5, -1.0]]}}

    @pytest.mark.parametrize("command, overrides, message", [
        ("simulate", {"horizon": float("nan")}, "$.horizon: must be finite"),
        ("validate", {"horizon": float("nan")}, "$.horizon: must be finite"),
        ("uniqueness", {"horizon": float("nan")}, "$.horizon: must be finite"),
        ("uniqueness", {"x_m": 0}, "$.x_m: must be positive"),
        ("uniqueness", {"x_m": float("nan")}, "$.x_m: must be finite"),
        ("simulate", {"preset": NEGATIVE_MASS}, "preset.levy.atoms[0][1]: must be >= 0"),
        ("validate", {"preset": NEGATIVE_MASS}, "preset.levy.atoms[0][1]: must be >= 0"),
    ], ids=["simulate horizon NaN", "validate horizon NaN", "uniqueness horizon NaN",
            "uniqueness x_m 0", "uniqueness x_m NaN", "simulate negative atom mass",
            "validate negative atom mass"])
    def test_malformed_scenario_number_is_usage_error(self, command, overrides, message,
                                                      tmp_path, capsys):
        scen = write_scenario(tmp_path / "s.json", **overrides)
        out = tmp_path / "o"
        argv = [command, "--scenario", str(scen), "--out", str(out), "--jobs", "1"]
        if command != "validate":
            argv += ["--paths", "4", "--seed", "0"]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"scenario error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command", ["simulate", "approx", "validate", "uniqueness"])
    @pytest.mark.parametrize("level, message", [
        (float("nan"), "must be finite"), (float("inf"), "must be finite"),
        (True, "expected a number"), (-2.0, "must be >= 0")],
        ids=["NaN", "Infinity", "true", "negative"])
    def test_malformed_staircase_level_is_usage_error(self, level, message, command, jobs,
                                                      tmp_path, capsys):
        scen = write_scenario(tmp_path / "s.json", drift={
            "kind": "staircase", "breakpoints": [0.0, 0.5, 1.0], "levels": [1.0, level]})
        out = tmp_path / "o"
        argv = [command, "--scenario", str(scen), "--out", str(out), "--jobs", jobs]
        if command != "validate":
            argv += ["--paths", "4", "--seed", "0"]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"scenario error: drift.levels[1]: {message}\n"
        assert not out.exists()

    def test_unreadable_scenario(self, tmp_path):
        code = main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                     "--paths", "5", "--out", str(tmp_path / "o")])
        assert code == 3


class TestWarnings:
    A_DT = ("warning: component 0: a*dt = 1.172 > 1 breaks the monotonicity "
            "precondition of the explicit scheme\n")

    @pytest.mark.parametrize("command, flags", [
        ("simulate", ["--paths", "2500"]),  # two 2,048-path slabs
        ("approx", ["--paths", "600", "--levels", "3"]),  # three 256-path blocks
        ("uniqueness", ["--paths", "1200", "--levels", "2"]),  # three 512-path blocks
    ])
    def test_solver_warning_is_one_stderr_line_at_any_jobs(self, command, flags, tmp_path):
        # a = 300 on 256 steps: a*dt = 1.17 > 1, so every solve of the base grid warns
        scen = write_scenario(tmp_path / "s.json", grid_steps=256, preset={
            "kind": "example21", "n_components": 1, "a": 300.0, "sigma": 0.5,
            "initial": 1.0})
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mfjump.__file__)))
        errs = []
        for jobs in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "mfjump.cli", command, "--scenario", str(scen),
                 "--seed", "0", "--out", str(tmp_path / jobs), "--jobs", jobs] + flags,
                capture_output=True, text=True, timeout=120, env=env)
            assert proc.returncode == 0
            errs.append(proc.stderr)
        assert errs[0] == errs[1] == self.A_DT
        assert read_tree(tmp_path / "1") == read_tree(tmp_path / "2")


class TestInternalError:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_budget_too_large_for_memory_is_exit_four(self, jobs, tmp_path, capsys):
        # 10**12 samples take 7.28 TiB, which numpy refuses at once
        scen = os.path.join(os.path.dirname(__file__), "..", "scenarios", "cir.json")
        out = tmp_path / "o"
        assert main(["validate", "--scenario", scen, "--out", str(out), "--jobs", jobs,
                     "--budget", str(10 ** 12)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal error: ") and "MemoryError" in err
        assert err.count("\n") == 1
        assert not (out / "validation.json").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_error_raised_in_a_block_is_exit_four(self, jobs, tmp_path, capsys,
                                                   monkeypatch):
        # 300 paths make two blocks, so --jobs 2 raises it inside a pool worker
        def broken(*args, **kwargs):
            raise RuntimeError("solver broke")
        monkeypatch.setattr(mfjump.approx, "solve_batch", broken)
        scen = os.path.join(os.path.dirname(__file__), "..", "scenarios", "cir.json")
        out = tmp_path / "o"
        assert main(["approx", "--scenario", scen, "--out", str(out), "--jobs", jobs,
                     "--paths", "300", "--levels", "2"]) == 4
        assert capsys.readouterr().err == "internal error: RuntimeError: solver broke\n"
        assert os.listdir(out) == []
