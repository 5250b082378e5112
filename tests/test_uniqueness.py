import math

import numpy as np
import pytest

import mfjump.system
import mfjump.uniqueness
from mfjump import (PowerModulus, TestFunctionFamily, build_phi,
                    preset_cir, refinement_study, yw_sequence)
from mfjump.coeffs import CallableModulus
from mfjump.uniqueness import _inv_rho_sq_integral


class TestThresholdSequence:
    def test_sqrt_modulus_closed_form(self):
        # integral dz/z between a_k and a_{k-1} equals k: a_k = a_{k-1} e^{-k}
        seq = yw_sequence(PowerModulus(1.0, 0.5), x_m=1.0, k_max=5)
        assert seq[0] == 1.0
        assert seq[1] == pytest.approx(math.exp(-1.0), rel=1e-9)
        assert seq[2] == pytest.approx(math.exp(-3.0), rel=1e-9)
        assert np.all(np.diff(seq) < 0)

    def test_linear_modulus_reciprocal_recursion(self):
        # integral z^-2 dz = 1/a_k - 1/a_{k-1} = k
        seq = yw_sequence(PowerModulus(1.0, 1.0), x_m=1.0, k_max=6)
        recips = 1.0 / seq
        assert np.allclose(np.diff(recips), np.arange(1, 7), rtol=1e-12)

    @pytest.mark.parametrize("rho", [PowerModulus(1.0, 0.5),
                                     PowerModulus(2.0, 0.5),
                                     PowerModulus(1.0, 0.75),
                                     PowerModulus(0.7, 1.0)])
    def test_defining_integral_round_trip(self, rho):
        seq = yw_sequence(rho, x_m=1.0, k_max=6)
        for k in range(1, 7):
            val = _inv_rho_sq_integral(rho, seq[k], seq[k - 1])
            assert val == pytest.approx(k, rel=1e-6)

    def test_numeric_root_finding_for_declared_callable(self):
        rho = CallableModulus(fn=lambda z: np.sqrt(z), sq_integral_diverges=True)
        seq = yw_sequence(rho, x_m=1.0, k_max=3)
        oracle = yw_sequence(PowerModulus(1.0, 0.5), x_m=1.0, k_max=3)
        assert np.allclose(seq, oracle, rtol=1e-8)

    def test_rejects_convergent_modulus(self):
        with pytest.raises(ValueError):
            yw_sequence(PowerModulus(1.0, 0.25), x_m=1.0, k_max=3)

    def test_rejects_undeclared_callable(self):
        with pytest.raises(ValueError):
            yw_sequence(CallableModulus(fn=lambda z: np.sqrt(z)), x_m=1.0, k_max=3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            yw_sequence(PowerModulus(1.0, 0.5), x_m=0.0, k_max=3)
        with pytest.raises(ValueError):
            yw_sequence(PowerModulus(1.0, 0.5), x_m=1.0, k_max=0)

    def test_stops_at_the_first_threshold_that_underflows(self):
        # a_k = exp(-k(k+1)/8) is 0.0 from k = 77 on; the sequence ends there
        seq = TestFunctionFamily(rho=PowerModulus(0.5, 0.5), x_m=1.0, k_max=10**7).a_seq
        assert seq.size == 78
        assert seq[-1] == 0.0 and np.all(seq[:-1] > 0.0)


@pytest.fixture(scope="module")
def family():
    return TestFunctionFamily(rho=PowerModulus(1.0, 0.5), x_m=1.0, k_max=10)


class TestPhiFamily:
    def sample_points(self, family, k):
        a_hi = family.a_seq[k - 1]
        return np.unique(np.concatenate([
            np.linspace(0.0, 2.0, 400),
            10.0 ** np.linspace(math.log10(max(family.a_seq[k] * 0.1, 1e-300)),
                                0.0, 400),
            np.linspace(0.5 * a_hi, 2.0 * a_hi, 200),
        ]))

    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    def test_basic_properties(self, family, k):
        phi = family.phi(k)
        xs = self.sample_points(family, k)
        assert phi.phi(0.0) == 0.0
        assert np.all(phi.phi(xs) == phi.phi(-xs))  # even
        d = phi.dphi(xs)
        assert np.all((0.0 <= d) & (d <= 1.0))
        assert np.all((-1.0 <= phi.dphi(-xs)) & (phi.dphi(-xs) <= 0.0))
        assert np.all(phi.d2phi(np.concatenate([xs, -xs])) >= 0.0)

    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    def test_sandwich(self, family, k):
        phi = family.phi(k)
        xs = self.sample_points(family, k)
        vals = phi.phi(xs)
        assert np.all(vals <= xs)
        assert np.all(vals >= xs - family.a_seq[k - 1])

    @pytest.mark.parametrize("k", [1, 3, 7, 10])
    def test_curvature_bound(self, family, k):
        # psi <= (2/k) / rho^2, checked through the stored normalization
        phi = family.phi(k)
        assert phi.psi_sup_bound <= 2.0 / k
        xs = self.sample_points(family, k)
        inside = (xs > phi.a_lo) & (xs < phi.a_hi)
        assert np.all(phi.d2phi(xs[inside]) * xs[inside] <= 2.0 / k * (1 + 1e-9))

    def test_support_and_linear_tail(self, family):
        phi = family.phi(3)
        assert phi.d2phi(phi.a_lo * 0.5) == 0.0
        assert phi.d2phi(phi.a_hi * 1.5) == 0.0
        assert phi.dphi(phi.a_hi * 2.0) == 1.0
        assert 0.0 <= phi.offset <= phi.a_hi
        x = 0.9
        assert phi.phi(x) == pytest.approx(x - phi.offset, rel=1e-12)

    def test_monotone_in_k(self, family):
        xs = np.linspace(0.0, 1.5, 300)
        prev = family.phi(1).phi(xs)
        for k in range(2, 11):
            cur = family.phi(k).phi(xs)
            assert np.all(cur >= prev - 1e-12)
            prev = cur

    def test_vanishing_factor_for_sqrt_modulus(self):
        # phi''(a-b) * (sqrt(a)-sqrt(b))^2 <= (2/k): property 4(a) scale
        family = TestFunctionFamily(rho=PowerModulus(1.0, 0.5), x_m=1.0, k_max=6)
        k = 4
        phi = family.phi(k)
        rng = np.random.default_rng(2)
        a = rng.uniform(0.0, 1.0, 400)
        b = rng.uniform(0.0, 1.0, 400)
        factor = phi.d2phi(a - b) * (np.sqrt(a) - np.sqrt(b)) ** 2
        assert np.all(factor <= 2.0 / k * (1 + 1e-9))

    def test_rejects_out_of_range_k(self, family):
        with pytest.raises(ValueError):
            build_phi(family, 0)
        with pytest.raises(ValueError):
            build_phi(family, 11)

    def test_linear_modulus_family(self):
        fam = TestFunctionFamily(rho=PowerModulus(1.0, 1.0), x_m=1.0, k_max=6)
        phi = fam.phi(5)
        assert phi.psi_sup_bound <= 2.0 / 5
        xs = np.linspace(0.0, 1.5, 500)
        assert np.all(phi.phi(xs) <= xs)
        assert np.all(phi.phi(xs) >= xs - fam.a_seq[4])


class TestDivergenceDiagnostic:
    def test_refinement_ladder_strictly_decreases(self):
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        family = TestFunctionFamily(rho=spec.components[0].rho, x_m=1.0, k_max=4)
        report = refinement_study(spec, 1.0, [64, 128, 256],
                                  300, 3, family=family, phi_ks=(2, 4))
        assert report.strictly_decreasing()

    def test_phi_moment_dominated_by_mean_abs(self):
        spec = preset_cir(a=1.0, b=2.0, sigma=0.8, initial=1.0)
        family = TestFunctionFamily(rho=PowerModulus(1.0, 0.5), x_m=1.0, k_max=6)
        row = refinement_study(spec, 1.0, [32], 200, 7,
                               family=family, phi_ks=(2, 4, 6)).rows[0]
        for k, val in row.phi_moments.items():
            assert val <= row.mean_abs_terminal + 1e-15

    def test_solver_warnings_come_once(self):
        # a*dt = 1.25 on the 16-step rung only; 600 paths make two blocks
        spec = preset_cir(a=20.0, b=2.0, sigma=0.5, initial=1.0)
        report = refinement_study(spec, 1.0, [16, 32], 600, 3)
        assert report.warnings == ["component 0: a*dt = 1.25 > 1 breaks the monotonicity "
                                   "precondition of the explicit scheme"]

    def test_one_draw_and_one_solve_per_rung_per_block(self, monkeypatch):
        calls = {"make_batch": [], "solve_batch": 0}
        draw, solve = mfjump.system.make_batch, mfjump.uniqueness.solve_batch

        def counting_draw(grid, layout, seed, paths):
            calls["make_batch"].append((grid.n_steps, paths[0], paths[-1]))
            return draw(grid, layout, seed, paths)

        def counting_solve(*args, **kwargs):
            calls["solve_batch"] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(mfjump.system, "make_batch", counting_draw)
        monkeypatch.setattr(mfjump.uniqueness, "solve_batch", counting_solve)
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        ladder = [8, 16, 32]
        report = refinement_study(spec, 1.0, ladder, 600, 3)
        # two blocks, each drawn once on the finest grid (twice the last rung)
        assert calls["make_batch"] == [(64, 0, 511), (64, 512, 599)]
        assert calls["solve_batch"] == 2 * (len(ladder) + 1)
        assert [r.steps_coarse for r in report.rows] == ladder

    def test_rejects_non_doubling_ladder(self):
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        with pytest.raises(ValueError):
            refinement_study(spec, 1.0, [16, 64], 8, 0)
