"""validate_system computes the assumption reports once per distinct
coefficient law and gives every component its own report."""
import io
import json
import os
from dataclasses import dataclass

import numpy as np
import pytest

from mfjump import (CoefficientSet, DriftSpec, PointMassMeasure, PowerModulus,
                    SystemSpec, load_scenario, validate)
from mfjump.cli import main
from mfjump.coeffs import PowerDiffusion
from mfjump.validate import SamplingPlan

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
SHIPPED = ("correlated-intensities", "thinned-jumps", "cir")


def asymmetric_scenario(tmp_path):
    """correlated-intensities with component 1's sigma moved: two laws."""
    with open(os.path.join(SCENARIOS, "correlated-intensities.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["name"] = "asymmetric"
    data["preset"]["sigma"] = [0.4, 0.5, 0.4]
    path = tmp_path / "asymmetric.json"
    path.write_text(json.dumps(data))
    return str(path)


def scenario_path(name, tmp_path):
    if name == "asymmetric":
        return asymmetric_scenario(tmp_path)
    return os.path.join(SCENARIOS, f"{name}.json")


def per_component_oracle(path, budget):
    """(validation.json bytes, stdout, exit code) of ``validate`` with both
    assumption validators run on every component, serialized as the CLI does."""
    spec = load_scenario(path).system
    plan = SamplingPlan(budget=budget)
    reports = []
    for i, comp in enumerate(spec.components):
        for report in (validate.validate_assum1(comp, plan),
                       validate.validate_assum2(comp, plan)):
            report.subject = f"component {i}: {report.subject}"
            reports.append(report)
    reports.append(validate.validate_drift(spec, plan))
    payload = [{
        "subject": r.subject,
        "passed": r.passed,
        "conditions": [{
            "name": c.name, "status": c.status, "detail": c.detail,
            "witness": None if c.witness is None else repr(c.witness),
        } for c in r.conditions],
    } for r in reports]
    buf = io.StringIO()
    json.dump(payload, buf, sort_keys=True, indent=2)
    buf.write("\n")
    stdout = "".join(line + "\n" for r in reports for line in r.lines())
    return buf.getvalue().encode("utf-8"), stdout, 0 if all(r.passed for r in reports) else 1


def count_calls(monkeypatch):
    """Wrap both assumption validators on the module, as the trace harness
    does, and return the per-name call counts."""
    calls = {"validate_assum1": 0, "validate_assum2": 0}
    for name in calls:
        original = getattr(validate, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(validate, name, counted)
    return calls


@pytest.mark.parametrize("budget", [400, 100])
@pytest.mark.parametrize("name", SHIPPED + ("asymmetric",))
def test_validate_bytes_equal_the_per_component_oracle(name, budget, tmp_path, capsys):
    path = scenario_path(name, tmp_path)
    want_json, want_stdout, want_code = per_component_oracle(path, budget)
    capsys.readouterr()
    out = tmp_path / "o"
    code = main(["validate", "--scenario", path, "--budget", str(budget), "--out", str(out)])
    assert code == want_code
    assert capsys.readouterr().out == want_stdout
    assert (out / "validation.json").read_bytes() == want_json


class TestLawSharing:
    def test_exchangeable_components_validate_once(self, monkeypatch):
        calls = count_calls(monkeypatch)
        spec = load_scenario(os.path.join(SCENARIOS, "correlated-intensities.json")).system
        reports = validate.validate_system(spec, SamplingPlan(budget=100))
        assert calls == {"validate_assum1": 1, "validate_assum2": 1}
        assert [r.subject for r in reports[:6]] == [
            f"component {i}: assumption-set-{k}" for i in range(3) for k in (1, 2)]

    def test_a_second_law_validates_once_more(self, monkeypatch, tmp_path):
        calls = count_calls(monkeypatch)
        spec = load_scenario(asymmetric_scenario(tmp_path)).system
        reports = validate.validate_system(spec, SamplingPlan(budget=100))
        assert calls == {"validate_assum1": 2, "validate_assum2": 2}
        for k in (0, 1):  # assumption set 1, then 2
            r0, r1, r2 = reports[k], reports[2 + k], reports[4 + k]
            assert r0.conditions == r2.conditions
            assert all(a is b for a, b in zip(r0.conditions, r2.conditions))
            # sigma enters no detail, so component 1's own results read the
            # same; they are still a separate computation
            assert not any(a is b for a, b in zip(r0.conditions, r1.conditions))


@dataclass(frozen=True)
class ScaledSqrtJump:
    """g0(x, u) = u * sqrt(max(x, 0)), elementwise."""

    def __call__(self, x, mark):
        return np.asarray(mark, dtype=float) * np.sqrt(np.maximum(x, 0.0))


class EqualityRaises:
    """A sigma that hashes and prints alike but refuses to compare."""

    def __call__(self, x):
        return 0.5 * np.sqrt(np.maximum(x, 0.0))

    def __hash__(self):
        return 0

    def __repr__(self):
        return "EqualityRaises()"

    def __eq__(self, other):
        raise RuntimeError("not comparable")


def two_components(**fields):
    """Two components that differ only in ``fields`` (name -> (first, second))."""
    base = dict(a=1.0, sigma=PowerDiffusion(0.5, 0.5), rho=PowerModulus(0.5, 0.5))
    comps = tuple(CoefficientSet(**{**base, **{k: v[i] for k, v in fields.items()}})
                  for i in (0, 1))
    return SystemSpec(components=comps, drifts=(DriftSpec.constant(1.0),) * 2,
                      initial=np.ones(2))


def atoms():
    return PointMassMeasure(atoms=np.array([[0.5, 1.0], [2.0, 0.25]]))


class TestNoFalseSharing:
    @pytest.mark.parametrize("fields", [
        {"rho": (PowerModulus(0.5, 1), PowerModulus(0.5, 1.0))},
        {"sigma": (lambda x: 0.5 * np.sqrt(np.maximum(x, 0.0)),
                   lambda x: 0.5 * np.sqrt(np.maximum(x, 0.0)))},
        {"g0": (ScaledSqrtJump(), ScaledSqrtJump()), "mu0": (atoms(), atoms())},
        {"sigma": (EqualityRaises(), EqualityRaises())},
    ], ids=["int-and-float-exponent", "twin-lambdas", "ndarray-atoms", "eq-raises"])
    def test_each_component_is_validated(self, fields, monkeypatch):
        calls = count_calls(monkeypatch)
        reports = validate.validate_system(two_components(**fields), SamplingPlan(budget=40))
        assert calls == {"validate_assum1": 2, "validate_assum2": 2}
        assert len(reports) == 5

    def test_equal_moduli_keep_their_own_detail(self):
        spec = two_components(rho=(PowerModulus(0.5, 1), PowerModulus(0.5, 1.0)))
        reports = validate.validate_system(spec, SamplingPlan(budget=40))
        details = [c.detail for r in (reports[0], reports[2]) for c in r.conditions
                   if c.name == "integral dz/rho^2 diverges at 0"]
        assert details == ["power law exponent 1: integral dz/rho^2 diverges at 0",
                           "power law exponent 1.0: integral dz/rho^2 diverges at 0"]


def test_shared_reports_are_independent_objects():
    spec = load_scenario(os.path.join(SCENARIOS, "correlated-intensities.json")).system
    reports = validate.validate_system(spec, SamplingPlan(budget=100))
    before = [r.lines() for r in reports]
    reports[0].add("extra", "fail")
    reports[0].subject = "renamed"
    reports[3].conditions.clear()
    assert [r.lines() for k, r in enumerate(reports) if k not in (0, 3)] == \
        [lines for k, lines in enumerate(before) if k not in (0, 3)]
