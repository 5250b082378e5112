import json
import os

import numpy as np
import pytest

from mfjump import (ExponentialMeasure, ScenarioError, load_scenario, parse_scenario,
                    preset_example21, thinning_system)
from mfjump.coeffs import MeanFieldAverage


def base_scenario(**overrides):
    data = {
        "schema_version": 1,
        "name": "test",
        "horizon": 1.0,
        "grid_steps": 64,
        "preset": {
            "kind": "example21",
            "n_components": 2,
            "a": 1.0,
            "sigma": 0.5,
            "initial": [1.0, 2.0],
        },
    }
    data.update(overrides)
    return data


class TestParsing:
    def test_valid_scenario(self):
        sc = parse_scenario(base_scenario())
        assert sc.system.n == 2
        assert sc.horizon == 1.0
        assert isinstance(sc.system.drifts[0].fn, MeanFieldAverage)

    def test_unknown_top_level_field(self):
        with pytest.raises(ScenarioError, match=r"\$\.bogus"):
            parse_scenario(base_scenario(bogus=1))

    def test_unknown_preset_field(self):
        data = base_scenario()
        data["preset"]["mystery"] = 2
        with pytest.raises(ScenarioError, match="preset.mystery"):
            parse_scenario(data)

    def test_wrong_schema_version(self):
        with pytest.raises(ScenarioError, match="schema_version"):
            parse_scenario(base_scenario(schema_version=2))

    def test_missing_required_field(self):
        data = base_scenario()
        del data["horizon"]
        with pytest.raises(ScenarioError, match="horizon"):
            parse_scenario(data)

    def test_type_errors_are_pathed(self):
        data = base_scenario()
        data["preset"]["a"] = "fast"
        with pytest.raises(ScenarioError, match="preset.a"):
            parse_scenario(data)

    @pytest.mark.parametrize("section, path", [
        ({"preset": 5}, "preset"),
        ({"drift": [1]}, "drift"),
        ({"preset": {"kind": "cbi-thinning", "a": 1.0, "initial": 1.0, "v_max": 4.0,
                     "levy": "point"}}, "preset.levy"),
    ], ids=["preset", "drift", "preset.levy"])
    def test_section_that_is_not_an_object(self, section, path):
        with pytest.raises(ScenarioError, match=rf"^{path}: expected an object$"):
            parse_scenario(base_scenario(**section))

    def test_drift_kinds(self):
        for drift, kind in [
            ({"kind": "constant", "value": 2.0}, "constant"),
            ({"kind": "linear", "intercept": 1.0, "slope": 0.5}, "time"),
            ({"kind": "mean-field-average"}, "mean-field"),
            ({"kind": "staircase", "breakpoints": [0.0, 0.5, 1.0],
              "levels": [1.0, 2.0]}, "path"),
        ]:
            sc = parse_scenario(base_scenario(drift=drift))
            assert sc.system.drifts[0].kind == kind

    def test_rejects_unknown_drift_kind(self):
        with pytest.raises(ScenarioError, match="drift.kind"):
            parse_scenario(base_scenario(drift={"kind": "sinusoid"}))

    def test_rejects_negative_linear_drift(self):
        drift = {"kind": "linear", "intercept": 0.5, "slope": -1.0}
        with pytest.raises(ScenarioError, match="negative"):
            parse_scenario(base_scenario(drift=drift))

    def test_staircase_must_end_at_horizon(self):
        drift = {"kind": "staircase", "breakpoints": [0.0, 0.5], "levels": [1.0]}
        with pytest.raises(ScenarioError, match="horizon"):
            parse_scenario(base_scenario(drift=drift))

    @pytest.mark.parametrize("field, value, message", [
        ("horizon", float("nan"), r"^\$\.horizon: must be finite$"),
        ("horizon", float("inf"), r"^\$\.horizon: must be finite$"),
        ("grid_steps", float("inf"), r"^\$\.grid_steps: must be finite$"),
        ("grid_steps", 10 ** 400, r"^\$\.grid_steps: must be finite$"),
        ("x_m", float("nan"), r"^\$\.x_m: must be finite$"),
        ("x_m", 0, r"^\$\.x_m: must be positive$"),
        ("x_m", -0.5, r"^\$\.x_m: must be >= 0$"),
    ], ids=["horizon NaN", "horizon Infinity", "grid_steps Infinity",
            "grid_steps 10^400", "x_m NaN", "x_m 0", "x_m -0.5"])
    def test_top_level_numbers_must_be_finite_and_x_m_positive(self, field, value,
                                                               message):
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(base_scenario(**{field: value}))

    def test_preset_numbers_must_be_finite(self):
        data = base_scenario()
        data["preset"]["sigma"] = [0.5, float("-inf")]
        with pytest.raises(ScenarioError, match=r"^preset\.sigma\[1\]: must be finite$"):
            parse_scenario(data)

    @pytest.mark.parametrize("atoms, message", [
        ([["0.5", 3.0]], r"^preset\.levy\.atoms\[0\]\[0\]: expected a number$"),
        ([[True, 3.0]], r"^preset\.levy\.atoms\[0\]\[0\]: expected a number$"),
        ([[0.5, 3.0], [0.25, "1"]], r"^preset\.levy\.atoms\[1\]\[1\]: expected a number$"),
        ([[float("nan"), 3.0]], r"^preset\.levy\.atoms\[0\]\[0\]: must be finite$"),
        ([[0.5, float("inf")]], r"^preset\.levy\.atoms\[0\]\[1\]: must be finite$"),
        ([[0.5, -1.0]], r"^preset\.levy\.atoms\[0\]\[1\]: must be >= 0$"),
    ], ids=["string size", "bool size", "string mass", "NaN size", "Infinity mass",
            "negative mass"])
    def test_levy_atoms_are_checked_numbers(self, atoms, message):
        data = base_scenario()
        data["preset"] = {"kind": "cbi-thinning", "a": 1.0, "initial": 1.0, "v_max": 4.0,
                          "levy": {"kind": "point", "atoms": atoms}}
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(data)

    def test_thinning_preset(self):
        data = base_scenario()
        data["preset"] = {
            "kind": "cbi-thinning", "a": 1.0, "sigma": 0.2, "initial": 1.0,
            "v_max": 4.0, "levy": {"kind": "point", "atoms": [[0.5, 3.0]]},
        }
        sc = parse_scenario(data)
        assert sc.system.components[0].g0_finite is not None

    def test_exponential_levy(self):
        data = base_scenario()
        data["preset"] = {
            "kind": "cbi-thinning", "a": 1.0, "initial": 1.0,
            "v_max": 2.0, "levy": {"kind": "exponential", "mass": 2.0, "mean": 0.5},
        }
        sc = parse_scenario(data)
        layout = sc.system.noise_layout()
        assert layout.measures[0].rate == pytest.approx(4.0)

    @pytest.mark.parametrize("preset, reference", [
        ({"kind": "example21", "n_components": 2, "a": 1.0, "sigma": 0.5,
          "initial": [1.0, 2.0]},
         lambda: preset_example21(2, a=1.0, sigma=0.5, initial=[1.0, 2.0])),
        ({"kind": "cbi-thinning", "a": 1.0, "initial": 1.0, "v_max": 3.0,
          "levy": {"kind": "exponential", "mass": 2.0, "mean": 0.4}},
         lambda: thinning_system(ExponentialMeasure(mass=2.0, mean=0.4), v_max=3.0,
                                 a=1.0, initial=1.0)),
    ], ids=["example21", "cbi-thinning"])
    def test_omitted_optional_fields_take_the_preset_defaults(self, preset, reference):
        got = parse_scenario(base_scenario(preset=preset)).system
        want = reference()
        assert got.components == want.components
        assert got.drifts == want.drifts
        assert np.array_equal(got.initial, want.initial)

    def test_sigma_power_knob(self):
        data = base_scenario()
        data["preset"]["sigma_power"] = 2.0
        sc = parse_scenario(data)
        assert sc.system.components[0].sigma(4.0) == pytest.approx(0.5 * 16.0)

    def test_grid_is_dyadic_for_power_of_two(self):
        sc = parse_scenario(base_scenario())
        grid = sc.grid()
        assert grid.n_steps == 64
        assert np.array_equal(grid.points[::32], [0.0, 0.5, 1.0])

    def test_load_reports_json_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1,\n  "horizon": oops}')
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(bad)

    def test_load_round_trip(self, tmp_path):
        f = tmp_path / "scen.json"
        f.write_text(json.dumps(base_scenario()))
        sc = load_scenario(f)
        assert sc.name == "test"
        assert sc.raw["preset"]["kind"] == "example21"

    def test_bundled_scenarios_load(self):
        root = os.path.join(os.path.dirname(__file__), "..", "scenarios")
        names = sorted(os.listdir(root))
        assert names == ["cir.json", "correlated-intensities.json",
                         "thinned-jumps.json"]
        for name in names:
            sc = load_scenario(os.path.join(root, name))
            assert sc.system.n >= 1
