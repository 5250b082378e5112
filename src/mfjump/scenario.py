"""Scenario files: a strict JSON schema mapping onto the built-in presets.

Unknown fields are errors, not warnings; every message carries the JSON path
of the offending entry so runs stay reproducible from the file alone.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .coeffs import DriftSpec, ExponentialMeasure, LinearInTime, PointMassMeasure
from .noise import TimeGrid
from .paths import StaircasePath
from .presets import preset_example21, thinning_system

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Schema violation, with the JSON path of the offending field."""


def _object(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    return obj


def _require(obj: dict, path: str, known: dict, required: tuple):
    for key in _object(obj, path):
        if key not in known:
            raise ScenarioError(f"{path}.{key}: unknown field")
    for key in required:
        if key not in obj:
            raise ScenarioError(f"{path}.{key}: required field missing")
    out = {}
    for key, checker in known.items():
        if key in obj:
            out[key] = checker(obj[key], f"{path}.{key}")
    return out


def _number(lo=None, hi=None, integer=False):
    def check(value, path):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(f"{path}: expected a number")
        try:  # json reads NaN and Infinity as floats
            finite = math.isfinite(value)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ScenarioError(f"{path}: must be finite")
        if integer and int(value) != value:
            raise ScenarioError(f"{path}: expected an integer")
        if lo is not None and value < lo:
            raise ScenarioError(f"{path}: must be >= {lo}")
        if hi is not None and value > hi:
            raise ScenarioError(f"{path}: must be <= {hi}")
        return int(value) if integer else float(value)
    return check


def _number_or_list(lo=None):
    scalar = _number(lo=lo)
    def check(value, path):
        if isinstance(value, list):
            return [scalar(v, f"{path}[{i}]") for i, v in enumerate(value)]
        return scalar(value, path)
    return check


def _string(value, path):
    if not isinstance(value, str):
        raise ScenarioError(f"{path}: expected a string")
    return value


def _passthrough(value, path):
    return value


@dataclass
class Scenario:
    name: str
    horizon: float
    grid_steps: int
    system: object
    seed: int = None
    x_m: float = 1.0
    raw: dict = field(default_factory=dict)

    def grid(self, steps: int = None) -> TimeGrid:
        """Uniform simulation grid; with a power-of-two step count it is the
        dyadic partition of that many intervals, so coarser approximation
        partitions are exact subsets of it."""
        return TimeGrid.uniform(self.horizon, self.grid_steps if steps is None else steps)


def _build_drift(info: dict, path: str, n: int, horizon: float):
    kind = _object(info, path).get("kind")
    if kind == "mean-field-average":
        _require(info, path, {"kind": _string}, ("kind",))
        return DriftSpec.mean_field_average(n)
    if kind == "constant":
        got = _require(info, path, {"kind": _string, "value": _number(lo=0)},
                       ("kind", "value"))
        return DriftSpec.constant(got["value"])
    if kind == "linear":
        got = _require(info, path, {"kind": _string, "intercept": _number(lo=0),
                                    "slope": _number()}, ("kind", "intercept", "slope"))
        bound = got["intercept"] + max(0.0, got["slope"] * horizon)
        if got["intercept"] + min(0.0, got["slope"] * horizon) < 0:
            raise ScenarioError(f"{path}: drift goes negative on [0, horizon]")
        return DriftSpec.time_function(LinearInTime(got["intercept"], got["slope"]),
                                       growth_bound=bound)
    if kind == "staircase":
        got = _require(info, path, {"kind": _string, "breakpoints": _number_or_list(),
                                    "levels": _number_or_list(lo=0)},
                       ("kind", "breakpoints", "levels"))
        try:
            stair = StaircasePath(np.asarray(got["breakpoints"], dtype=float),
                                  np.asarray(got["levels"], dtype=float))
        except (ValueError, TypeError) as exc:
            raise ScenarioError(f"{path}: {exc}") from exc
        if stair.horizon != horizon:
            raise ScenarioError(f"{path}.breakpoints: must end at the horizon")
        return DriftSpec.external(stair, growth_bound=float(stair.levels.max()))
    raise ScenarioError(f"{path}.kind: unknown drift kind {kind!r}")


def _build_levy(info: dict, path: str):
    kind = _object(info, path).get("kind")
    if kind == "point":
        got = _require(info, path, {"kind": _string, "atoms": _passthrough},
                       ("kind", "atoms"))
        atoms = got["atoms"]
        if (not isinstance(atoms, list) or not atoms
                or not all(isinstance(a, list) and len(a) == 2 for a in atoms)):
            raise ScenarioError(f"{path}.atoms: expected [[size, mass], ...]")
        size, mass = _number(), _number(lo=0)
        return PointMassMeasure(atoms=tuple(
            (size(z, f"{path}.atoms[{i}][0]"), mass(m, f"{path}.atoms[{i}][1]"))
            for i, (z, m) in enumerate(atoms)))
    if kind == "exponential":
        got = _require(info, path, {"kind": _string, "mass": _number(lo=0),
                                    "mean": _number(lo=0)}, ("kind", "mass", "mean"))
        return ExponentialMeasure(mass=got["mass"], mean=got["mean"])
    raise ScenarioError(f"{path}.kind: unknown levy kind {kind!r}")


def _build_system(preset: dict, drift_info, horizon: float, path: str = "preset"):
    """The preset's system; an omitted optional field takes the preset's default."""
    kind = _object(preset, path).get("kind")
    if kind == "example21":
        fields = _require(preset, path, {
            "kind": _string,
            "n_components": _number(lo=1, integer=True),
            "a": _number_or_list(lo=0),
            "sigma": _number_or_list(lo=0),
            "sigma0": _number(lo=0),
            "sigma_z": _number_or_list(lo=0),
            "sigma_z0": _number(lo=0),
            "alpha": _number_or_list(),
            "alpha0": _number(),
            "initial": _number_or_list(lo=0),
            "sigma_power": _number(lo=0),
        }, ("kind", "n_components", "a", "sigma", "initial"))
        n = fields.pop("n_components")
        build, first = preset_example21, n
    elif kind == "cbi-thinning":
        fields = _require(preset, path, {
            "kind": _string,
            "a": _number(lo=0),
            "sigma": _number(lo=0),
            "initial": _number(lo=0),
            "v_max": _number(lo=0),
            "levy": _passthrough,
        }, ("kind", "a", "initial", "v_max", "levy"))
        n = 1
        build, first = thinning_system, _build_levy(fields.pop("levy"), f"{path}.levy")
    else:
        raise ScenarioError(f"{path}.kind: unknown preset kind {kind!r}")
    del fields["kind"]
    drift = None if drift_info is None else _build_drift(drift_info, "drift", n, horizon)
    try:
        return build(first, drift=drift, **fields)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def parse_scenario(data: dict) -> Scenario:
    got = _require(data, "$", {
        "schema_version": _number(integer=True),
        "name": _string,
        "horizon": _number(lo=0),
        "grid_steps": _number(lo=1, integer=True),
        "preset": _passthrough,
        "drift": _passthrough,
        "seed": _number(lo=0, integer=True),
        "x_m": _number(lo=0),
    }, ("schema_version", "horizon", "grid_steps", "preset"))
    if got["schema_version"] != SCHEMA_VERSION:
        raise ScenarioError(f"$.schema_version: expected {SCHEMA_VERSION}")
    for key in ("horizon", "x_m"):
        if key in got and got[key] <= 0:
            raise ScenarioError(f"$.{key}: must be positive")
    system = _build_system(got["preset"], got.get("drift"), got["horizon"])
    return Scenario(
        name=got.get("name", "scenario"),
        horizon=got["horizon"],
        grid_steps=got["grid_steps"],
        system=system,
        seed=got.get("seed"),
        x_m=got.get("x_m", 1.0),
        raw=data)


def load_scenario(filename) -> Scenario:
    try:
        with open(filename, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_scenario(data)
