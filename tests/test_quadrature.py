"""Every measure's ``integrate`` against closed forms, and against scipy's
``quad`` where there is none. Integrands get arrays of marks and answer
elementwise; several have a kink that is not passed as a breakpoint, and the
stable-kernel cases also run with the validators' breakpoints."""
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate

import mfjump
from mfjump import (ExponentialMeasure, PointMassMeasure, coeffs, preset_example21,
                    yw_sequence)
from mfjump.coeffs import (CallableModulus, StableJumpMeasure, StablePowerKernel,
                           ThinningKernel, ThinningMarkMeasure, panel_quadrature,
                           stable_levy_constant)
from mfjump.uniqueness import _inv_rho_sq_integral
from mfjump.validate import _crossings, _state_breakpoints

ALPHAS = (1.2, 1.5, 1.8)


def small_or_square(g):
    return np.minimum(np.abs(g), g ** 2)


def stable_small_or_square(a, alpha):
    """Integral of min(a u, (a u)^2) against the alpha-stable Levy measure:
    the kink is at u = 1/a."""
    return stable_levy_constant(alpha) * a ** alpha * (1 / (2 - alpha) + 1 / (alpha - 1))


def stable_truncated_l2(a, b, m, alpha):
    """Integral of (min(a u, m) - min(b u, m))^2 for 0 < a < b against the
    alpha-stable Levy measure. On (m/b, m/a) it is m^(2-alpha) a^alpha times
    the integral of (1 - s)^2 s^(-1-alpha) over (a/b, 1), whose antiderivative
    terms are summed as 1 - r^p = -expm1(p log r)."""
    log_r = math.log(a / b)
    middle = (-1 / alpha * -math.expm1(-alpha * log_r)
              + 2 / (alpha - 1) * -math.expm1((1 - alpha) * log_r)
              + 1 / (2 - alpha) * -math.expm1((2 - alpha) * log_r))
    return stable_levy_constant(alpha) * ((b - a) ** 2 * (m / b) ** (2 - alpha) / (2 - alpha)
                                          + m ** (2 - alpha) * a ** alpha * middle)


def exponential_truncated_second_moment(mass, mean, m):
    return mass * (2 * mean ** 2 * -math.expm1(-m / mean) - 2 * mean * m * math.exp(-m / mean))


class TestPanelQuadrature:
    @pytest.mark.parametrize("kink", [1e-3, 5e-3, 0.3, 1.0, 1.7, 2.0 - 5e-3])
    def test_kink_anywhere_in_one_panel(self, kink):
        # [0, 2] is one first-pass panel. A Gauss-Legendre rule does not see a
        # kink between an edge and its outermost node, nor do its children
        # that share the edge: with that rule the first check accepts a
        # value off by kink^2 / 2 at the three kinks next to an edge.
        val = panel_quadrature(lambda t: np.maximum(t - kink, 0.0), 0.0, 2.0)
        assert val == pytest.approx((2.0 - kink) ** 2 / 2, rel=1e-9)

    def test_points_are_edges(self):
        # a jump passed as a point is integrated exactly
        val = panel_quadrature(lambda t: np.where(t < 0.3, 1.0, 5.0), 0.0, 3.0, points=(0.3,))
        assert val == pytest.approx(0.3 + 5.0 * 2.7, rel=1e-14)


class TestStableJumpMeasure:
    # each closed-form case runs twice: with no breakpoint (the default of
    # ``crossings``), and with the validators' ``_crossings`` as breakpoints
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("x", [0.01, 0.5, 1.25, 3.0, 10.0])
    def test_small_or_square_of_the_stable_kernel(self, alpha, x, crossings=False):
        kernel = StablePowerKernel(coefs=(0.3,), alphas=(alpha,))
        val = StableJumpMeasure(alpha).integrate(
            lambda u: small_or_square(kernel(x, (u,))),
            breakpoints=_crossings(kernel, 1.0, x) if crossings else ())
        expected = stable_small_or_square(0.3 * x ** (1 / alpha), alpha)
        assert val == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("x", [0.01, 0.5, 1.25, 3.0, 10.0])
    def test_small_or_square_at_the_crossings(self, alpha, x):
        self.test_small_or_square_of_the_stable_kernel(alpha, x, crossings=True)

    @pytest.mark.parametrize("alpha", ALPHAS + (1.95,))
    @pytest.mark.parametrize("m", [1.0, 5.0])
    @pytest.mark.parametrize("fx, fy", [(0.01, 0.3), (0.1, 0.7), (0.4, 0.95), (0.7, 1.0)])
    def test_truncated_l2_of_the_stable_kernel(self, alpha, m, fx, fy, crossings=False):
        # the two kinks, at u = m/a and m/b, are either not passed at all or
        # passed as breakpoints, as the validator's _crossings(kernel, m, x, y)
        kernel = StablePowerKernel(coefs=(0.2,), alphas=(alpha,))
        x, y = fx * m, fy * m
        val = StableJumpMeasure(alpha).integrate(
            lambda u: (np.minimum(kernel(x, (u,)), m) - np.minimum(kernel(y, (u,)), m)) ** 2,
            breakpoints=_crossings(kernel, m, x, y) if crossings else ())
        a, b = 0.2 * x ** (1 / alpha), 0.2 * y ** (1 / alpha)
        assert val == pytest.approx(stable_truncated_l2(a, b, m, alpha), rel=1e-8)

    @pytest.mark.parametrize("alpha", ALPHAS + (1.95,))
    @pytest.mark.parametrize("m", [1.0, 5.0])
    @pytest.mark.parametrize("fx, fy", [(0.01, 0.3), (0.1, 0.7), (0.4, 0.95), (0.7, 1.0)])
    def test_truncated_l2_at_the_crossings(self, alpha, m, fx, fy):
        self.test_truncated_l2_of_the_stable_kernel(alpha, m, fx, fy, crossings=True)

    def test_axis_sum_of_the_correlated_preset(self, crossings=False):
        # the measure and kernel the validators integrate for a component of
        # the correlated system: one stable term per axis
        comp = preset_example21(1, sigma=0.4, sigma0=0.2, sigma_z=0.2, sigma_z0=0.1,
                                alpha=1.8, alpha0=1.5).components[0]
        for x in (0.3, 2.5, 10.0):
            val = comp.mu0.integrate(lambda u: small_or_square(comp.g0(x, u)),
                                     breakpoints=_crossings(comp.g0, 1.0, x) if crossings else ())
            expected = sum(stable_small_or_square(coef * x ** (1 / alpha), alpha)
                           for coef, alpha in zip(comp.g0.coefs, comp.g0.alphas))
            assert val == pytest.approx(expected, rel=1e-8)

    def test_axis_sum_at_the_crossings(self):
        self.test_axis_sum_of_the_correlated_preset(crossings=True)

    def test_span_reaches_u_one_past_a_far_breakpoint(self):
        # a breakpoint at 1e100 must not move the span off the integrand,
        # whose mass lies around u = 1 / (0.3 * 2^(2/3))
        kernel = StablePowerKernel(coefs=(0.3,), alphas=(1.5,))
        measure = StableJumpMeasure(1.5)
        plain = measure.integrate(lambda u: small_or_square(kernel(2.0, (u,))))
        far = measure.integrate(lambda u: small_or_square(kernel(2.0, (u,))),
                                breakpoints=(1e100,))
        assert far == pytest.approx(plain, rel=1e-9)

    def test_crossing_of_a_state_near_zero(self, monkeypatch):
        # at x = 1e-250 the crossing lies beyond e^300, the rule's reach: the
        # span must still run upwards, and it drops only mass beyond e^300
        kernel = StablePowerKernel(coefs=(0.3,), alphas=(1.5,))
        x = 1e-250
        (crossing,) = _crossings(kernel, 1.0, x)
        assert math.isfinite(crossing) and math.log(crossing) > 300.0
        spans = []

        def recording(fn, lo, hi, points=()):
            spans.append((lo, hi))
            return panel_quadrature(fn, lo, hi, points)
        monkeypatch.setattr(coeffs, "panel_quadrature", recording)
        val = StableJumpMeasure(1.5).integrate(lambda u: small_or_square(kernel(x, (u,))),
                                               breakpoints=(crossing,))
        assert [lo < hi for lo, hi in spans] == [True]
        assert 0.0 <= val <= stable_small_or_square(0.3 * x ** (1 / 1.5), 1.5)

    def test_smooth_integrand_matches_quad(self):
        alpha = 1.5
        c = stable_levy_constant(alpha)
        oracle = sum(integrate.quad(lambda u: u * math.log1p(u) * c * u ** (-1 - alpha),
                                    lo, hi, limit=200, epsabs=0.0, epsrel=1e-12)[0]
                     for lo, hi in ((0.0, 1.0), (1.0, np.inf)))
        val = StableJumpMeasure(alpha).integrate(lambda u: u * np.log1p(u))
        assert val == pytest.approx(oracle, rel=1e-7)


class TestExponentialMeasure:
    @pytest.mark.parametrize("m", [0.1, 1.0, 5.0])
    def test_truncated_second_moment(self, m):
        # kink at z = m, not passed as a breakpoint
        val = ExponentialMeasure(mass=2.0, mean=0.4).integrate(lambda z: np.minimum(z, m) ** 2)
        assert val == pytest.approx(exponential_truncated_second_moment(2.0, 0.4, m), rel=1e-8)

    def test_smooth_integrand_matches_quad(self):
        oracle = integrate.quad(lambda u: math.log1p(u) ** 2 * 1.5 * math.exp(-u / 2.0) / 2.0,
                                0.0, np.inf, epsabs=0.0, epsrel=1e-12)[0]
        val = ExponentialMeasure(mass=1.5, mean=2.0).integrate(lambda u: np.log1p(u) ** 2)
        assert val == pytest.approx(oracle, rel=1e-7)


class TestThinningMarkMeasure:
    MASS, MEAN, V_MAX = 2.0, 0.4, 4.0

    def measure(self):
        return ThinningMarkMeasure(levy=ExponentialMeasure(self.MASS, self.MEAN),
                                   v_max=self.V_MAX)

    @pytest.mark.parametrize("x", [0.3, 1.25, 3.9, 5.0])
    def test_small_or_square_of_the_thinning_kernel(self, x):
        # min(x, v_max) times the integral of min(zeta, zeta^2), kinked at 1
        mu, g0 = self.measure(), ThinningKernel()
        val = mu.integrate(lambda u: small_or_square(g0(x, u)),
                           breakpoints=_state_breakpoints(mu, x))
        mass, mean = self.MASS, self.MEAN
        expected = min(x, self.V_MAX) * mass * (
            2 * mean ** 2 - math.exp(-1 / mean) * (mean + 2 * mean ** 2))
        assert val == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("m", [1.0, 5.0])
    @pytest.mark.parametrize("x, y", [(0.1, 0.2), (0.5, 3.5), (2.0, 4.5)])
    def test_truncated_l2_of_the_thinning_kernel(self, m, x, y):
        # min(zeta, m)^2 on min(x, v_max) <= v < min(y, v_max), 0 elsewhere
        mu, g0 = self.measure(), ThinningKernel()
        val = mu.integrate(lambda u: (np.minimum(g0(x, u), m) - np.minimum(g0(y, u), m)) ** 2,
                           breakpoints=_state_breakpoints(mu, x, y))
        width = min(y, self.V_MAX) - min(x, self.V_MAX)
        expected = width * exponential_truncated_second_moment(self.MASS, self.MEAN, m)
        assert val == pytest.approx(expected, rel=1e-8)

    def test_point_mass_levy(self):
        mu = ThinningMarkMeasure(levy=PointMassMeasure(atoms=((0.5, 3.0), (2.0, 1.0))),
                                 v_max=4.0)
        for x in (0.7, 2.0, 6.0):
            val = mu.integrate(lambda u: ThinningKernel()(x, u), breakpoints=(x,))
            assert val == pytest.approx(min(x, 4.0) * (0.5 * 3.0 + 2.0 * 1.0), rel=1e-12)


class TestInverseModulusIntegral:
    @staticmethod
    def rho(z):
        return np.sqrt(z) * (1.0 + z)

    @staticmethod
    def antiderivative(z):
        # of 1 / (z (1 + z)^2)
        return math.log(z / (1.0 + z)) + 1.0 / (1.0 + z)

    @pytest.mark.parametrize("a, b", [(1e-9, 1.0), (0.01, 0.5), (0.3, 30.0)])
    def test_closed_form(self, a, b):
        val = _inv_rho_sq_integral(self.rho, a, b)
        expected = self.antiderivative(b) - self.antiderivative(a)
        assert val == pytest.approx(expected, rel=1e-9)

    def test_bisected_thresholds_close_each_defining_integral(self):
        rho = CallableModulus(fn=self.rho, sq_integral_diverges=True)
        seq = yw_sequence(rho, x_m=1.0, k_max=5)
        assert np.all(np.diff(seq) < 0)
        for k in range(1, 6):
            got = self.antiderivative(seq[k - 1]) - self.antiderivative(seq[k])
            assert got == pytest.approx(k, rel=1e-9)


def _unwanted_imports(argv, unwanted, tmp_path):
    # run one command in a fresh interpreter, then the threshold sequence of a
    # non-power modulus, and list the loaded modules under the unwanted names
    scenario = os.path.join(os.path.dirname(__file__), "..", "scenarios", argv[2])
    argv = [*argv[:2], scenario, *argv[3:], "--out", str(tmp_path / "o")]
    prefixes = tuple(name + "." for name in unwanted)
    script = f"""
import sys
import numpy as np
import mfjump.cli
from mfjump.coeffs import CallableModulus
from mfjump.uniqueness import yw_sequence
assert mfjump.cli.main({argv!r}) == 0
yw_sequence(CallableModulus(fn=np.sqrt, sq_integral_diverges=True), x_m=1.0, k_max=3)
print(sorted(m for m in sys.modules if (m + ".").startswith({prefixes!r})))
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mfjump.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


VALIDATE = ["validate", "--scenario", "correlated-intensities.json"]


def test_runtime_path_imports_no_scipy(tmp_path):
    # scipy is a test dependency only: the validators and the threshold
    # sequence of a non-power modulus must run without it
    assert _unwanted_imports(VALIDATE, ("scipy",), tmp_path) == "[]"


def test_validate_imports_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call (about 38 ms of run time),
    # and numpy.random brings secrets, hashlib and hmac (10-13 ms) although the
    # validators draw nothing
    assert _unwanted_imports(VALIDATE, ("numpy.ma", "numpy.random"), tmp_path) == "[]"


def test_simulate_imports_no_scipy_or_numpy_ma(tmp_path):
    # np.unique's numpy.ma import costs simulate about 15 ms
    argv = ["simulate", "--scenario", "thinned-jumps.json", "--paths", "50"]
    assert _unwanted_imports(argv, ("scipy", "numpy.ma"), tmp_path) == "[]"
