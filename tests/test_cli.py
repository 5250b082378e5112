import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import mfjump
from mfjump import load_scenario, make_batch, solve_batch
from mfjump.cli import main


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


def assert_blowup_exits_two(command, tmp_path, capsys):
    """``command`` on a blowing-up scenario exits 2 with the same error at
    --jobs 1 and --jobs 2."""
    preset = {"kind": "example21", "n_components": 1, "a": 1.0,
              "sigma": 50.0, "sigma_power": 3.0, "initial": 5.0}
    scen = write_scenario(tmp_path / "s.json", preset=preset,
                          drift={"kind": "constant", "value": 1000.0})
    # 1200 paths make three blocks, all with failing paths
    argv = [command, "--scenario", str(scen), "--paths", "1200", "--seed", "0"]
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

    def test_nested_mc_mode(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", grid_steps=16,
                              drift={"kind": "mean-field-average"},
                              preset={"kind": "example21", "n_components": 2,
                                      "a": 1.0, "sigma": 0.3,
                                      "initial": [1.0, 2.0]})
        out = tmp_path / "o"
        code = main(["approx", "--scenario", str(scen), "--paths", "4",
                     "--levels", "3", "--mode", "nested-mc", "--inner", "2",
                     "--seed", "1", "--out", str(out), "--jobs", "1"])
        assert code == 0
        report = json.loads((out / "approx_report.json").read_text())
        assert report["mode_used"] == "nested-mc"

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
        ["approx", "--mode", "nested-mc", "--inner", "0"],
        ["validate", "--budget", "0"],
        ["validate", "--budget", "3"],
        ["uniqueness", "--levels", "0"],
        ["uniqueness", "--phi-k", "0"],
        ["uniqueness", "--phi-k", "-1"],
        ["simulate", "--paths", "5", "--dump-paths", "-3"],
        ["simulate", "--paths", "5", "--dt", "0"],
        ["simulate", "--paths", "5", "--dt", "-0.0"],
        ["simulate", "--paths", "5", "--dt", "nan"],
        ["approx", "--dt", "0"],
        ["approx", "--dt", "-0.0"],
        ["approx", "--dt", "nan"],
        ["uniqueness", "--dt", "0"],
        ["simulate", "--paths", "5", "--seed", "-1"],
        ["approx", "--seed", "-1"],
        ["uniqueness", "--seed", "-1"],
    ], ids=lambda argv: " ".join(argv))
    def test_bad_count_is_usage_error(self, argv, tmp_path, capsys):
        scen = os.path.join(os.path.dirname(__file__), "..", "scenarios", "cir.json")
        out = tmp_path / "o"
        code = main(argv + ["--scenario", scen, "--out", str(out), "--jobs", "1"])
        assert code == 3
        flag = argv[-2]
        rule = "must be finite and positive" if flag == "--dt" else "must be at least"
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
    ], ids=["cir --levels 12", "cir --levels 12 --refinements 2",
            "cir --dt 0.25 --levels 4", "correlated-intensities --levels 10",
            "correlated-intensities --mode deterministic", "cir --mode deterministic"])
    def test_approx_flag_the_scenario_cannot_take(self, scenario, argv, message,
                                                 tmp_path, capsys):
        # level L needs 2^(L-1) steps on the base grid; deterministic is
        # the reported label of realized forcing, not a mode to ask for
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
        ("simulate", 3), ("uniqueness", 3), ("approx", 0), ("validate", 0)])
    def test_staircase_breakpoint_off_the_grid(self, command, code, tmp_path, capsys):
        # 0.3 is no point of the 64-step grid: a staircase drift must switch
        # on a step, approx and validate only sample the drift at grid points
        scen = write_scenario(tmp_path / "s.json", drift={
            "kind": "staircase", "breakpoints": [0.0, 0.3, 1.0], "levels": [1.0, 2.0]})
        out = tmp_path / "o"
        argv = [command, "--scenario", str(scen), "--out", str(out), "--jobs", "1"]
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

    def test_unreadable_scenario(self, tmp_path):
        code = main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                     "--paths", "5", "--out", str(tmp_path / "o")])
        assert code == 3
