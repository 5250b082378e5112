import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from mfjump import (CadlagPath, DriftSpec, ExponentialMeasure, PointMassMeasure,
                    PowerModulus, SamplingPlan, StaircasePath, TimeGrid, coeffs,
                    load_scenario, make_batch, preset_cbi_thinning, preset_cir,
                    preset_example21, thinning_system, validate_assum1, validate_assum2,
                    validate_assum_uniq, validate_drift, validate_system)
from mfjump.coeffs import (AxisSumMeasure, CoefficientSet, JumpKernel, LinearInTime,
                           MeanFieldAverage, PowerDiffusion, StableJumpMeasure, SystemSpec,
                           ThinningMarkMeasure, drift_values, panel_quadrature,
                           stable_levy_constant)
from mfjump.noise import MeasureSpec

from _helpers import permute_system


def condition(report, fragment):
    hits = [c for c in report.conditions if fragment in c.name]
    assert hits, f"no condition matching {fragment!r}"
    return hits[0]


@dataclass(frozen=True)
class QuadraticSigma:
    def __call__(self, x):
        return np.maximum(np.asarray(x, dtype=float), 0.0) ** 2


@dataclass(frozen=True)
class ClippedSine:
    def __call__(self, x):
        return 0.5 + 0.4 * np.sin(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class CappedLinearJump:
    """g1(x, u) = min(max(x,0), 1) * u: bounded in x, dominated by G(u)=u."""

    def __call__(self, x, u):
        return np.clip(x, 0.0, 1.0) * u


@dataclass(frozen=True)
class WobblyBoundedJump:
    """Non-monotone in x but always within [0, u]."""

    def __call__(self, x, u):
        return 0.5 * (1.0 + np.sin(3.0 * x)) * np.clip(x, 0.0, 1.0) * u


@dataclass(frozen=True)
class Identity:
    def __call__(self, u):
        return u


class TestSamplingPlan:
    @pytest.mark.parametrize("budget", [3, 1, 0])
    def test_budget_below_four_is_rejected(self, budget):
        # the pair checks sample budget // 4 pairs, so 1-3 would check none
        with pytest.raises(ValueError, match="at least 4"):
            SamplingPlan(budget=budget)


class TestAssum1:
    def test_sqrt_sigma_passes(self):
        c = CoefficientSet(a=1.0, sigma=PowerDiffusion(1.0, 0.5), rho=PowerModulus(1.0, 0.5))
        report = validate_assum1(c, SamplingPlan(budget=2000))
        assert report.passed

    def test_quadratic_sigma_fails_with_witness(self):
        c = CoefficientSet(a=1.0, sigma=QuadraticSigma(), rho=PowerModulus(1.0, 0.5))
        report = validate_assum1(c, SamplingPlan(budget=2000))
        bad = condition(report, "sigma modulus")
        assert bad.status == "fail"
        x, y = bad.witness
        assert abs(x ** 2 - y ** 2) > np.sqrt(abs(x - y))

    def test_stable_jump_kernel_conditions(self):
        # g0(x, u) = u * x^(1/alpha) with u >= 0 is increasing and >= -x
        spec = preset_example21(1, a=1.0, sigma=0.5, sigma_z=0.7, alpha=1.6,
                                initial=1.0, drift=DriftSpec.constant(1.0))
        report = validate_assum1(spec.components[0], SamplingPlan(budget=400))
        assert condition(report, "g0 increasing").status == "pass"
        assert condition(report, "g0(x,u) + x >= 0").status == "pass"
        assert condition(report, "g0(x,u) = 0 for x <= 0").status == "pass"
        assert condition(report, "truncated L2").status == "pass"
        assert condition(report, "locally bounded").detail != "max over sampled states: 0"
        assert report.passed

    def test_own_and_common_stable_driver_validate_alike(self):
        # kernel term j reads mark row j, where its measure puts the jumps: a
        # component with only its own stable driver and one with only the
        # common driver, of one law, get one report
        own = preset_example21(1, sigma=0.5, sigma_z=0.3, alpha=1.5).components[0]
        common = preset_example21(1, sigma=0.5, sigma_z0=0.3, alpha0=1.5).components[0]
        own_report, common_report = (validate_assum1(c, SamplingPlan(budget=400))
                                     for c in (own, common))
        assert own_report.conditions == common_report.conditions
        assert condition(own_report, "locally bounded").detail == "max over sampled states: 3.933"

    @pytest.mark.parametrize("coef", [1e-320, 5e-324])
    def test_a_crossing_beyond_every_float_warns_nothing(self, coef):
        # level / (coef * x^(1/alpha)) overflows, or divides by an underflowed 0
        comp = preset_example21(1, sigma=0.5, sigma_z=coef, alpha=1.5).components[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_assum1(comp, SamplingPlan(budget=100)).passed

    def test_stable_kinks_are_panel_edges(self, monkeypatch):
        # every kink of a stable power kernel's integrand is a panel edge, so
        # each quadrature of a correlated-intensities law accepts on its
        # second pass: 128 integrand calls over 64 quadratures, against 589
        # when the rule has to find the kinks
        calls = []

        def counting(fn, lo, hi, points=()):
            def counted(t):
                calls.append(t.size)
                return fn(t)
            return panel_quadrature(counted, lo, hi, points)
        monkeypatch.setattr(coeffs, "panel_quadrature", counting)
        spec = load_scenario(os.path.join(os.path.dirname(__file__), "..", "scenarios",
                                          "correlated-intensities.json")).system
        assert validate_assum1(spec.components[0]).passed
        assert len(calls) <= 200

    def test_divergence_unchecked_for_undeclared_callable(self):
        from mfjump.coeffs import CallableModulus
        c = CoefficientSet(a=1.0, sigma=PowerDiffusion(1.0, 0.5),
                           rho=CallableModulus(fn=lambda z: np.sqrt(z)))
        report = validate_assum1(c, SamplingPlan(budget=100))
        assert condition(report, "dz/rho^2").status == "unchecked"

    def test_divergence_declaration_is_honored(self):
        from mfjump.coeffs import CallableModulus
        for declared, expected in ((True, "pass"), (False, "fail")):
            c = CoefficientSet(a=1.0, sigma=PowerDiffusion(1.0, 0.5),
                               rho=CallableModulus(fn=lambda z: np.sqrt(z),
                                                   sq_integral_diverges=declared))
            report = validate_assum1(c, SamplingPlan(budget=100))
            assert condition(report, "dz/rho^2").status == expected

    def test_g1_growth_and_modulus(self):
        mu = ExponentialMeasure(mass=2.0, mean=0.5)
        kernel = JumpKernel(fn=CappedLinearJump(),
                            measure=MeasureSpec("g1", 2.0,
                                                lambda rng, size: rng.exponential(0.5, size)),
                            mu=mu, dominator=lambda u: u)
        # integral |g1| d(mu) = min(x,1) * 1.0 <= 1 * (1 + x): declare K = 1
        c = CoefficientSet(a=1.0, sigma=PowerDiffusion(1.0, 0.5),
                           rho=PowerModulus(1.0, 0.5), g1=kernel, growth_k=1.0,
                           r_m=lambda m: PowerModulus(mu.first_moment(), 1.0))
        report = validate_assum1(c, SamplingPlan(budget=400))
        assert report.passed

    def test_g0_vanishing_witness_is_a_sampled_violation(self):
        # g0 is non-zero only below -5: the witness must be a state the
        # check evaluated, where g0 really is non-zero
        def g0(x, u):
            return np.where(x < -5.0, u * x, 0.0)
        c = CoefficientSet(a=1.0, sigma=PowerDiffusion(1.0, 0.5), rho=PowerModulus(1.0, 0.5),
                           g0=g0, mu0=PointMassMeasure(atoms=((1.0, 1.0),)))
        cond = condition(validate_assum1(c, SamplingPlan(budget=400)),
                         "g0(x,u) = 0 for x <= 0")
        assert cond.status == "fail"
        x, u = cond.witness
        assert x <= 0.0 and g0(x, u) != 0.0


class TestAssum2:
    def test_increasing_sigma(self):
        c = CoefficientSet(a=1.0, sigma=PowerDiffusion(1.0, 0.5), rho=PowerModulus(1.0, 0.5))
        report = validate_assum2(c)
        cond = condition(report, "bounded or increasing")
        assert cond.status == "pass" and "increasing" in cond.detail

    def test_bounded_oscillating_sigma(self):
        c = CoefficientSet(a=1.0, sigma=ClippedSine(), rho=PowerModulus(1.0, 1.0))
        report = validate_assum2(c)
        cond = condition(report, "bounded or increasing")
        assert cond.status == "pass" and "bounded" in cond.detail

    def test_g1_increasing_branch(self):
        mu = ExponentialMeasure(mass=2.0, mean=0.5)
        kernel = JumpKernel(fn=CappedLinearJump(),
                            measure=MeasureSpec("g1", 2.0,
                                                lambda rng, size: rng.exponential(0.5, size)),
                            mu=mu, dominator=lambda u: u)
        c = CoefficientSet(a=1.0, sigma=PowerDiffusion(1.0, 0.5),
                           rho=PowerModulus(1.0, 0.5), g1=kernel, growth_k=1.0)
        report = validate_assum2(c)
        assert report.passed  # increasing branch already holds for this g1

    def test_g1_domination_branch_with_moment_check(self):
        # non-monotone bounded kernel: only the domination branch, with the
        # first/second moments of G integrated numerically, can pass
        mu = ExponentialMeasure(mass=2.0, mean=0.5)
        kernel = JumpKernel(fn=WobblyBoundedJump(),
                            measure=MeasureSpec("g1", 2.0,
                                                lambda rng, size: rng.exponential(0.5, size)),
                            mu=mu, dominator=Identity())
        c = CoefficientSet(a=1.0, sigma=PowerDiffusion(1.0, 0.5),
                           rho=PowerModulus(1.0, 0.5), g1=kernel, growth_k=1.0)
        report = validate_assum2(c)
        cond = condition(report, "increasing or dominated")
        assert cond.status == "pass" and "domination" in cond.detail

    def test_g1_non_monotone_without_dominator_fails(self):
        mu = ExponentialMeasure(mass=2.0, mean=0.5)
        kernel = JumpKernel(fn=WobblyBoundedJump(),
                            measure=MeasureSpec("g1", 2.0,
                                                lambda rng, size: rng.exponential(0.5, size)),
                            mu=mu)
        c = CoefficientSet(a=1.0, sigma=PowerDiffusion(1.0, 0.5),
                           rho=PowerModulus(1.0, 0.5), g1=kernel, growth_k=1.0)
        assert not validate_assum2(c).passed


@dataclass(frozen=True)
class FallingJump:
    """-2x where x * size > 8 and ``size`` where x * size < -8, else 0: it
    breaks every sampled kernel check, at states that depend on the mark.
    ``size`` is the sum of the mark ``rows``, or the mark itself for ()."""

    rows: tuple = ()

    def __call__(self, x, u):
        size = sum(u[j] for j in self.rows) if self.rows else u
        return np.where(x * size > 8.0, -2.0 * x, np.where(x * size < -8.0, size, 0.0))


class SpyKernel:
    """Calls ``fn`` and records the shapes of the state and the mark, and
    copies of both."""

    def __init__(self, fn):
        self.fn, self.calls, self.args = fn, [], []

    def __call__(self, x, u):
        self.calls.append((np.shape(x), np.shape(u)))
        self.args.append((np.array(x), np.array(u)))
        return self.fn(x, u)

    def sampled(self):
        """The calls on an array of states, as the sampled checks make them
        (a measure's ``integrate`` passes one state)."""
        return [c for c in self.calls if c[0]]

    def sampled_args(self):
        """The states and marks of the calls ``sampled`` lists."""
        return [args for c, args in zip(self.calls, self.args) if c[0]]


@dataclass(frozen=True)
class NanAbove:
    """0.1 * u * max(x, 0), NaN above ``level``."""

    level: float

    def __call__(self, x, u):
        return np.where(x > self.level, np.nan, 0.1 * u * np.maximum(x, 0.0))


@dataclass(frozen=True)
class NanAverage:
    """The component average, NaN where it exceeds 5."""

    def __call__(self, t, states):
        mean = np.mean(np.asarray(states, dtype=float), axis=0)
        return np.where(mean > 5.0, np.nan, mean)


def jump_set(g0=None, mu0=None, g1=None, mu1=None, dominator=None, **kw):
    g1 = None if g1 is None else JumpKernel(fn=g1, measure=MeasureSpec("g1", 1.0, None),
                                            mu=mu1, dominator=dominator)
    return CoefficientSet(a=1.0, sigma=PowerDiffusion(1.0, 0.5), rho=PowerModulus(1.0, 0.5),
                          g0=g0, mu0=mu0, g1=g1, **kw)


KERNEL_WITNESSES = ("g0 increasing in the state", "g0(x,u) + x >= 0 for x >= 0",
                    "g0(x,u) = 0 for x <= 0", "g1(x,u) + x >= 0")


class TestKernelWitnesses:
    """The first sampled violation, in (mark, state) order, with the mark as
    a float or a tuple of floats, as ``validation.json`` prints it."""

    @pytest.mark.parametrize("mu, rows, expected", [
        (ExponentialMeasure(mass=2.0, mean=0.5), (), [
            (0.09755332493385449, 6.396805819961065, 1.6151167923037244),
            (6.396805819961065, 1.6151167923037244),
            (-9.857998777687838, 1.6151167923037244),
            (7.360679774997896, 1.6151167923037244)]),
        (AxisSumMeasure(terms=((StableJumpMeasure(1.5), 0, 2),
                               (StableJumpMeasure(1.8), 1, 2))), (0, 1), [
            (0.09755332493385449, 6.396805819961065, (0.0, 1.6151167923037244)),
            (6.396805819961065, (0.0, 1.6151167923037244)),
            (-9.857998777687838, (0.0, 1.6151167923037244)),
            (7.360679774997896, (0.0, 1.6151167923037244))]),
        (ThinningMarkMeasure(levy=ExponentialMeasure(mass=2.0, mean=0.4), v_max=4.0), (1,), [
            (2.8249367690850136, 9.792503135945552, (0.039021329973541796, 0.8299305396666097)),
            (9.792503135945552, (0.039021329973541796, 0.8299305396666097)),
            (-9.857998777687838, (0.039021329973541796, 0.8299305396666097)),
            (9.721359549995793, (0.039021329973541796, 0.8299305396666097))]),
    ], ids=["scalar", "axis-sum", "thinning"])
    def test_witnesses_are_pinned(self, mu, rows, expected):
        c = jump_set(g0=FallingJump(rows), mu0=mu, g1=FallingJump(rows), mu1=mu)
        report = validate_assum1(c, SamplingPlan(budget=400))
        for name, witness in zip(KERNEL_WITNESSES, expected):
            cond = condition(report, name)
            assert cond.status == "fail"
            assert cond.witness == witness and repr(cond.witness) == repr(witness)
        # each pinned witness breaks its inequality
        g = FallingJump(rows)
        (x, y, u), (x0, u0), (x_neg, u_neg), (x1, u1) = expected
        assert x <= y and g(x, u) > g(y, u)
        assert g(x0, u0) + x0 < 0.0
        assert x_neg <= 0.0 and g(x_neg, u_neg) != 0.0
        assert g(x1, u1) + x1 < 0.0

    def test_sampled_checks_make_one_array_call_each(self):
        g0 = SpyKernel(lambda x, u: u * np.maximum(x, 0.0))
        g1 = SpyKernel(WobblyBoundedJump())
        c = jump_set(g0=g0, mu0=PointMassMeasure(atoms=((1.0, 1.0),)), g1=g1,
                     mu1=ExponentialMeasure(mass=2.0, mean=0.5), dominator=Identity(),
                     growth_k=1.0)
        validate_assum1(c, SamplingPlan(budget=400))
        # g0: increasing, g0 + x, vanishing; g1: g1 + x
        assert [len(k.sampled()) for k in (g0, g1)] == [3, 1]
        validate_assum2(c, SamplingPlan(budget=400))
        # g0: left continuity; g1: left continuity, increasing, domination
        assert [len(k.sampled()) for k in (g0, g1)] == [4, 4]
        for kernel in (g0, g1):
            assert all(x_shape or u_shape for x_shape, u_shape in kernel.calls)


    @pytest.mark.parametrize("validator", [validate_assum1, validate_assum2])
    def test_a_check_samples_alike_after_any_other(self, validator):
        # a check's sample depends on its own size alone: the g1 checks read
        # the same states and marks whether or not g0 checks ran before them
        mu = ExponentialMeasure(mass=2.0, mean=0.5)
        seen = []
        for g0 in (None, FallingJump()):
            g1 = SpyKernel(FallingJump())
            validator(jump_set(g0=g0, mu0=None if g0 is None else mu, g1=g1, mu1=mu),
                      SamplingPlan(budget=400))
            seen.append(g1.sampled_args())
        alone, after_g0 = seen
        assert len(alone) == len(after_g0) > 0
        for (x, u), (x_after, u_after) in zip(alone, after_g0):
            assert np.array_equal(x, x_after) and np.array_equal(u, u_after)


class TestNonFinite:
    """A NaN never passes a sampled check."""

    def test_nan_g0(self):
        c = jump_set(g0=NanAbove(5.0), mu0=PointMassMeasure(atoms=((1.0, 1.0),)))
        report = validate_assum1(c, SamplingPlan(budget=400))
        for name in KERNEL_WITNESSES[:2]:
            assert condition(report, name).status == "fail"
        assert condition(report, "g0(x,u) = 0").status == "pass"
        cond = condition(validate_assum2(c), "g0 left-continuous")
        assert cond.status == "fail" and "nan" in cond.detail

    def test_nan_g1(self):
        c = jump_set(g1=NanAbove(0.5), mu1=PointMassMeasure(atoms=((1.0, 1.0),)),
                     dominator=Identity(), growth_k=1.0,
                     r_m=lambda m: PowerModulus(1.0, 1.0))
        report = validate_assum1(c, SamplingPlan(budget=400))
        for name in ("g1(x,u) + x", "integral |g1|", "g1 truncated L1"):
            assert condition(report, name).status == "fail"
        report = validate_assum2(c)
        for name in ("g1 left-continuous", "g1 increasing or dominated"):
            assert condition(report, name).status == "fail"

    def test_nan_sigma(self):
        c = CoefficientSet(a=1.0, rho=PowerModulus(1.0, 0.5),
                           sigma=lambda x: np.where(x > 5.0, np.nan, np.sqrt(np.maximum(x, 0.0))))
        assert condition(validate_assum1(c), "sigma modulus").status == "fail"

    def test_nan_uniqueness_modulus(self):
        assert not validate_assum_uniq(PowerModulus(1.0, 0.5),
                                       lambda z: np.where(z > 0.5, np.nan, z), x_m=1.0).passed

    def test_nan_drift(self):
        c = CoefficientSet(a=1.0, sigma=PowerDiffusion(1.0, 0.5))
        drift = DriftSpec.mean_field(NanAverage(), growth_bound=0.0, growth_slope=0.5)
        spec = SystemSpec(components=(c, c), drifts=(drift, drift), initial=[1.0, 1.0])
        report = validate_drift(spec, SamplingPlan(budget=200))
        for name in ("b_i non-negative", "b_i increasing", "b_i <= B"):
            assert condition(report, f"0: {name}").status == "fail"


class TestAssumUniq:
    def test_equal_moduli_pass(self):
        rho = PowerModulus(1.0, 0.5)
        assert validate_assum_uniq(rho, rho, x_m=1.0).passed

    def test_sqrt_dominates_linear(self):
        # z <= sqrt(z) on (0, 1]
        assert validate_assum_uniq(PowerModulus(1.0, 0.5), PowerModulus(1.0, 1.0),
                                   x_m=1.0).passed

    def test_linear_does_not_dominate_sqrt(self):
        report = validate_assum_uniq(PowerModulus(1.0, 1.0), PowerModulus(1.0, 0.5),
                                     x_m=1.0)
        assert not report.passed
        witness = report.conditions[0].witness
        assert witness is not None and witness[1] > witness[2]

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            validate_assum_uniq(PowerModulus(1.0, 0.5), PowerModulus(1.0, 0.5), x_m=0.0)


class TestExamplePreset:
    def test_reduces_to_scalar_square_root_sde(self):
        # N=1 with no common factors carries exactly the scalar coefficients
        spec = preset_example21(1, a=1.3, sigma=0.7, sigma0=0.0, sigma_z=0.4,
                                sigma_z0=0.0, alpha=1.6, initial=2.0,
                                drift=DriftSpec.constant(2.5))
        comp = spec.components[0]
        assert comp.a == 1.3
        xs = np.array([0.0, 0.5, 2.0, 4.0])
        assert np.allclose(comp.sigma(xs), 0.7 * np.sqrt(xs))
        assert len(comp.brownian) == 1 and comp.brownian[0].weight == 1.0
        assert len(comp.stable_terms) == 1
        term = comp.stable_terms[0]
        assert (term.coef, term.alpha) == (0.4, 1.6)
        assert spec.drifts[0].kind == "constant" and spec.drifts[0].value == 2.5

    def test_common_factor_correlation(self):
        # sigma_i = sigma0 makes corr(dW^i, dW^j) = 1/2
        spec = preset_example21(2, a=1.0, sigma=0.5, sigma0=0.5, initial=1.0)
        grid = TimeGrid.uniform(1.0, 20000)
        batch = make_batch(grid, spec.noise_layout(), 4, [0])
        dw = []
        for comp in spec.components:
            dw.append(sum(t.weight * batch.brownian[t.factor][0] for t in comp.brownian))
        corr = np.corrcoef(dw[0], dw[1])[0, 1]
        # correlation-estimator sd at n=2e4 is about (1-rho^2)/sqrt(n) ~ 0.005
        assert abs(corr - 0.5) < 0.03

    def test_presets_pass_validators(self):
        spec = preset_example21(2, a=1.0, sigma=0.5, sigma0=0.3, sigma_z=0.4,
                                sigma_z0=0.2, alpha=1.7, alpha0=1.5,
                                initial=[1.0, 2.0])
        for report in validate_system(spec, SamplingPlan(budget=150)):
            assert report.passed, "\n".join(report.lines())

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            preset_example21(1, a=-1.0, sigma=1.0)
        with pytest.raises(ValueError):
            preset_example21(1, alpha=1.0)
        with pytest.raises(ValueError):
            preset_example21(1, alpha=2.4)
        with pytest.raises(ValueError):
            preset_example21(1, initial=-0.5)
        with pytest.raises(ValueError):
            preset_example21(0)

    def test_cir_helper(self):
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        assert spec.n == 1
        assert spec.drifts[0].value == 2.0

    def test_permute_system_moves_bindings(self):
        spec = preset_example21(3, a=[1.0, 2.0, 3.0], sigma=[0.1, 0.2, 0.3],
                                initial=[1.0, 2.0, 3.0])
        perm = permute_system(spec, [2, 0, 1])
        assert perm.components[0].a == 3.0
        assert perm.initial.tolist() == [3.0, 1.0, 2.0]


class TestDriftConditions:
    def test_mean_field_average(self):
        spec = preset_example21(3, a=1.0, sigma=0.5, initial=1.0)
        report = validate_drift(spec, SamplingPlan(budget=200))
        assert report.passed

    def test_growth_envelope_holds_with_declared_constants(self):
        spec = preset_example21(2, a=1.0, sigma=0.5, initial=1.0)
        drift = spec.drifts[0]
        rng = np.random.default_rng(0)
        states = rng.uniform(0.0, 50.0, (2, 256))
        vals = drift.fn(0.0, states)
        bound = drift.growth_bound + drift.growth_slope * states.sum(axis=0)
        assert np.all(vals <= bound + 1e-12)


@dataclass(frozen=True)
class KinkedDrift:
    """b(t, x) = x_0 + 0.1 x_1 - 2 (x_1 + 4t - 9)+ - 4t + shift. It falls in
    x_1 once x_1 + 4t > 8.05, so which sampled row is the first witness
    depends on the time; it is negative somewhere for shift = 0 and
    non-negative for shift = 13."""

    shift: float

    def __call__(self, t, states):
        x = np.asarray(states, dtype=float)
        return (x[0] + 0.1 * x[1] - 2.0 * np.maximum(x[1] + 4.0 * t - 9.0, 0.0)
                - 4.0 * t + self.shift)


class TestDriftWitnesses:
    """The first sampled violation, in (time, row, bumped component) order."""

    FALLS = (0.1180339887498949, [5.195106649867709, 7.793611639922129], 1)

    @pytest.mark.parametrize("shift, negative", [(0.0, -0.585541063975243),
                                                 (13.0, None)])
    def test_witnesses_are_pinned(self, shift, negative):
        drift = DriftSpec.mean_field(KinkedDrift(shift), growth_bound=13.0, growth_slope=1.0)
        report = validate_drift(preset_example21(2, sigma=0.5, drift=drift),
                                SamplingPlan(budget=200))
        for i in range(2):
            assert condition(report, f"{i}: b_i non-negative").witness == negative
            assert condition(report, f"{i}: b_i increasing").witness == self.FALLS
            assert condition(report, f"{i}: b_i <= B").status == "pass"
        # the pinned witnesses break their inequalities
        assert shift == 13.0 or negative < 0.0
        t, row, j = self.FALLS
        bumped = np.array(row)
        bumped[j] += 1.0
        assert KinkedDrift(shift)(t, bumped) < KinkedDrift(shift)(t, row)


class TestThinningPreset:
    def levy(self, mass=3.0, size=0.5):
        return PointMassMeasure(atoms=((size, mass),))

    def test_zero_state_rejects_all_candidates(self):
        comp = preset_cbi_thinning(self.levy(), v_max=4.0)
        rng = np.random.default_rng(1)
        marks = comp.g0_finite.measure.mark_sampler(rng, 500)
        assert marks.shape == (2, 500)
        assert np.array_equal(comp.g0_finite.fn(np.zeros(500), marks), np.zeros(500))
        assert comp.g0_finite.compensator(0.0) == 0.0

    def test_acceptance_probability_at_clamped_state(self):
        # dominating bound v ~ U(0, V): acceptance probability is x/V, so the
        # accepted-event rate at frozen state x is mass * x
        v_max, mass, x = 4.0, 3.0, 2.0
        comp = preset_cbi_thinning(self.levy(mass=mass), v_max=v_max)
        grid = TimeGrid.uniform(2.0, 4)
        total = 0
        n_rep = 3000
        spec_sys = thinning_system(self.levy(mass=mass), v_max=v_max)
        layout = spec_sys.noise_layout()
        for p in range(n_rep):
            events = make_batch(grid, layout, 23, [p]).jump_events[0]["thin:0"]
            total += sum(1 for e in events if comp.g0_finite.fn(x, e.mark) != 0.0)
        expected = mass * x * grid.horizon  # per path
        se = math.sqrt(expected / n_rep)
        assert abs(total / n_rep - expected) < 4 * se

    def test_doubling_mass_doubles_accepted_rate(self):
        v_max, x = 4.0, 1.5
        counts = {}
        for mass in (2.0, 4.0):
            comp = preset_cbi_thinning(self.levy(mass=mass), v_max=v_max,
                                       measure_id="thin:0")
            spec_sys = thinning_system(self.levy(mass=mass), v_max=v_max)
            grid = TimeGrid.uniform(2.0, 4)
            total = 0
            for p in range(3000):
                batch = make_batch(grid, spec_sys.noise_layout(), 31, [p])
                total += sum(1 for e in batch.jump_events[0]["thin:0"]
                             if comp.g0_finite.fn(x, e.mark) != 0.0)
            counts[mass] = total / 3000
        ratio = counts[4.0] / counts[2.0]
        assert abs(ratio - 2.0) < 0.15

    def test_truncated_l2_modulus_integral_is_exact(self):
        # thinned-jumps: exponential levy (mass 2, mean 0.4), v_max 4. For
        # x < y < v_max the integrand is min(zeta, m)^2 on x <= v < y and 0
        # elsewhere, so the integral is (y - x) * C2(m) with C2(m) the
        # truncated second moment. (x, y, m) is the triple the validator once
        # reported as a false FAIL, when quad ran across the jumps at v = x, y.
        from mfjump import load_scenario
        from mfjump.validate import _state_breakpoints
        root = os.path.join(os.path.dirname(__file__), "..", "scenarios")
        comp = load_scenario(os.path.join(root, "thinned-jumps.json")).system.components[0]
        x, y, m = 0.9375815743611593, 1.8990044347176243, 5.0
        mass, mean = 2.0, 0.4
        c2 = mass * (2 * mean ** 2 * (1 - math.exp(-m / mean))
                     - 2 * mean * m * math.exp(-m / mean))
        val = comp.mu0.integrate(
            lambda u: (np.minimum(comp.g0(x, u), m) - np.minimum(comp.g0(y, u), m)) ** 2,
            breakpoints=_state_breakpoints(comp.mu0, x, y))
        assert val == pytest.approx((y - x) * c2, rel=1e-9)

    def test_compensator_closed_form(self):
        comp = preset_cbi_thinning(self.levy(mass=3.0, size=0.5), v_max=4.0)
        xs = np.array([-1.0, 0.5, 2.0, 10.0])
        # min(x+, v_max) * first moment, first moment = 1.5
        assert np.allclose(comp.g0_finite.compensator(xs),
                           np.minimum(np.maximum(xs, 0.0), 4.0) * 1.5)

    def test_rejects_infinite_mass(self):
        with pytest.raises(ValueError):
            preset_cbi_thinning(StableJumpMeasure(1.5), v_max=4.0)

    def test_thinning_passes_validators(self):
        spec = thinning_system(self.levy(), v_max=4.0, a=1.0, sigma=0.3,
                               initial=1.0)
        for report in validate_system(spec, SamplingPlan(budget=120)):
            assert report.passed, "\n".join(report.lines())


class TestStableLevyConstant:
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_matches_characteristic_exponent(self, alpha):
        # integral of (cos(u) - 1) against the Levy density equals the real
        # part of the log-CF, which is -1 in the one-parametrization at theta=1;
        # the oscillatory tail is cut at A with the exact -1 tail added back
        # (the cosine remainder is below 2*c*A^(-1-alpha))
        from scipy import integrate
        c = stable_levy_constant(alpha)
        cut = 1000.0
        head, _ = integrate.quad(
            lambda u: (math.cos(u) - 1.0) * c * u ** (-1.0 - alpha), 0.0, cut,
            limit=4000)
        tail = -c * cut ** (-alpha) / alpha
        assert head + tail == pytest.approx(-1.0, rel=1e-6)


class CountingAverage:
    """Mean-field average that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, t, states):
        self.calls += 1
        return np.asarray(states, dtype=float).mean(axis=0)


class TestDriftValues:
    def _reference(self, drift, times, states):
        """Column-by-column evaluation, one call per time."""
        cols = []
        for j, t in enumerate(times):
            if drift.kind == "constant":
                col = np.full(states.shape[1], drift.value)
            elif drift.kind == "time":
                col = np.full(states.shape[1], float(drift.fn(t)))
            elif drift.kind == "path":
                col = np.full(states.shape[1], drift.path.evaluate(t))
            else:
                col = drift.fn(t, states[:, :, j])
            cols.append(col)
        return np.stack(cols, axis=-1)

    @pytest.mark.parametrize("n,p", [(3, 4), (9, 1), (9, 5)])
    def test_every_kind_matches_columnwise_evaluation(self, n, p):
        grid = TimeGrid.uniform(1.0, 16)
        times = grid.points
        rng = np.random.default_rng(n * 10 + p)
        states = rng.random((n, p, times.size)) * 10.0 ** rng.integers(-3, 4, (n, p, times.size))
        drifts = [
            DriftSpec.constant(0.7),
            DriftSpec.time_function(LinearInTime(0.2, 0.3), growth_bound=0.5),
            DriftSpec.external(StaircasePath(np.array([0.0, 0.25, 1.0]),
                                             np.array([1.0, 2.0]))),
            DriftSpec.external(CadlagPath(grid, rng.random(times.size))),
            DriftSpec.mean_field_average(n),
        ]
        out = drift_values(drifts, times, states)
        assert out.shape == (len(drifts), p, times.size)
        for i, drift in enumerate(drifts):
            assert np.array_equal(out[i], self._reference(drift, times, states)), drift.kind

    def test_shared_mean_field_fn_is_called_once(self):
        fn = CountingAverage()
        drifts = (DriftSpec.mean_field(fn, growth_bound=0.0, growth_slope=0.25),) * 4
        states = np.arange(4 * 3 * 5, dtype=float).reshape(4, 3, 5)
        out = drift_values(drifts, np.linspace(0.0, 1.0, 5), states)
        assert fn.calls == 1
        assert np.array_equal(out, np.broadcast_to(states.mean(axis=0), (4, 3, 5)))

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown drift kind"):
            drift_values([DriftSpec(kind="bogus")], np.zeros(2), np.zeros((1, 1, 2)))


def sorted_sum_average(states):
    """The mean over axis 0, summed row by row in ``np.sort`` order."""
    ordered = np.sort(states, axis=0)
    total = ordered[0].copy()
    for row in ordered[1:]:
        total += row
    return total / len(states)


class TestMeanFieldAverage:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_equals_the_sorted_sum_bit_for_bit(self, n):
        # ties and both signed zeros are common, so the compare-swaps must
        # keep every value of an equal pair: a -0.0 in place of a 0.0 would
        # turn a zero mean negative
        rng = np.random.default_rng(n)
        pool = np.array([-0.0, 0.0, 0.0, -0.0, 1.0, -1.0, 0.1, 0.2, 0.3, 1e-308, 2.0 ** 60])
        states = np.where(rng.random((n, 64, 7)) < 0.5,
                          rng.choice(pool, (n, 64, 7)), rng.standard_normal((n, 64, 7)))
        states[:, 0, :2] = -0.0
        states[n // 2, 0, 1] = 0.0
        got = MeanFieldAverage(n)(0.0, states)
        want = sorted_sum_average(states)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # the mean of -0.0s is -0.0, and one 0.0 among them makes it 0.0
        assert np.signbit(got[0, :2]).tolist() == [True, False]

    @pytest.mark.parametrize("n", range(1, 10))
    def test_a_nan_in_any_row_gives_nan(self, n):
        rng = np.random.default_rng(100 + n)
        states = rng.standard_normal((n, 3, 5))
        for row in range(n):
            bad = states.copy()
            bad[row, 1, 2] = np.nan
            got = MeanFieldAverage(n)(0.0, bad)
            assert np.isnan(got[1, 2])
            got[1, 2] = 0.0
            want = sorted_sum_average(states)
            want[1, 2] = 0.0
            assert np.array_equal(got, want)
