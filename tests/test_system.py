import math

import numpy as np
import pytest
from scipy import stats

import mfjump.system
from mfjump import (DriftSpec, SchemeConfig, TimeGrid, make_batch, permute_system,
                    preset_cir, preset_example21, run_ensemble, solve_batch,
                    solve_onedim, solve_system)


def example_spec(n=2, **kw):
    defaults = dict(a=1.0, sigma=0.5, sigma0=0.3, sigma_z=0.3, sigma_z0=0.2,
                    alpha=1.8, alpha0=1.5, initial=np.linspace(1.0, 2.0, n))
    defaults.update(kw)
    return preset_example21(n, **defaults)


class TestSolveSystem:
    def test_n1_reduces_to_onedim_bitwise(self):
        spec = preset_example21(1, a=1.0, sigma=0.5, sigma_z=0.4, alpha=1.7,
                                initial=1.0, drift=DriftSpec.constant(2.0))
        grid = TimeGrid.uniform(1.0, 128)
        batch = make_batch(grid, spec.noise_layout(), 21, [0])
        via_system = solve_system(spec, batch, SchemeConfig())[0]
        via_onedim = solve_onedim(spec.components[0], spec.drifts[0], batch,
                                  SchemeConfig(), initial=1.0)
        assert np.array_equal(via_system.values, via_onedim.values)

    def test_rejects_multi_row_batch(self):
        spec = example_spec()
        batch = make_batch(TimeGrid.uniform(1.0, 8), spec.noise_layout(), 0, range(2))
        with pytest.raises(ValueError, match="one-row"):
            solve_system(spec, batch, SchemeConfig())

    def test_nonnegative(self):
        spec = example_spec(sigma=1.5)
        grid = TimeGrid.uniform(1.0, 128)
        res = run_ensemble(spec, SchemeConfig(), grid, 100, 5)
        batch = make_batch(grid, spec.noise_layout(), 5, range(100))
        vals = solve_batch(spec.components, spec.drifts, batch, SchemeConfig(),
                           spec.initial[:, None]).values
        assert vals.min() >= 0.0
        assert res.mean.min() >= 0.0

    def test_mean_conservation_of_component_average(self):
        # equal speeds + mean-field average: drift cancels pathwise in the
        # average and all noise is compensated, so E[avg] is flat
        spec = example_spec(n=3, initial=[1.0, 1.5, 2.0])
        grid = TimeGrid.uniform(1.0, 256)
        res = run_ensemble(spec, SchemeConfig(), grid, 2000, 17)
        start = res.avg_mean[0]
        for j in range(0, grid.points.size, 64):
            se = max(res.avg_se[j], 1e-12)
            assert abs(res.avg_mean[j] - start) <= 3 * se

    def test_exchangeable_components_have_same_marginal(self):
        spec = example_spec(n=2, initial=[1.0, 1.0])
        grid = TimeGrid.uniform(1.0, 64)
        res = run_ensemble(spec, SchemeConfig(), grid, 4000, 23, keep_paths=4000)
        terminal = res.values[:, :, -1]
        assert stats.ks_2samp(terminal[0], terminal[1]).pvalue > 0.01

    def test_permutation_equivariance_exact(self):
        spec = example_spec(n=3, a=[1.0, 2.0, 0.5], sigma=[0.2, 0.5, 0.8],
                            initial=[1.0, 2.0, 3.0])
        grid = TimeGrid.uniform(1.0, 64)
        perm = [2, 0, 1]
        batch = make_batch(grid, spec.noise_layout(), 31, range(8))
        base = solve_batch(spec.components, spec.drifts, batch, SchemeConfig(),
                           spec.initial[:, None]).values
        spec_p = permute_system(spec, perm)
        batch_p = make_batch(grid, spec_p.noise_layout(), 31, range(8))
        permuted = solve_batch(spec_p.components, spec_p.drifts, batch_p,
                               SchemeConfig(), spec_p.initial[:, None]).values
        assert np.array_equal(permuted, base[perm])

    def test_permutation_equivariance_with_a_split_group(self):
        # components 0 and 2 share every coefficient and step as one group
        # around component 1; the mean-field drift is evaluated every step
        spec = example_spec(n=3, a=[1.0, 2.0, 1.0], sigma=0.4,
                            initial=[1.0, 2.0, 3.0])
        grid = TimeGrid.uniform(1.0, 64)
        base = solve_batch(spec.components, spec.drifts,
                           make_batch(grid, spec.noise_layout(), 31, range(8)),
                           SchemeConfig(), spec.initial[:, None]).values
        for perm in ([2, 0, 1], [1, 0, 2]):
            spec_p = permute_system(spec, perm)
            batch_p = make_batch(grid, spec_p.noise_layout(), 31, range(8))
            permuted = solve_batch(spec_p.components, spec_p.drifts, batch_p,
                                   SchemeConfig(), spec_p.initial[:, None]).values
            assert np.array_equal(permuted, base[perm])

    def test_monotone_coupling_at_drift_level(self):
        # raising one component's initial raises the drift argument of all
        spec = example_spec(n=2, initial=[1.0, 2.0])
        drift = spec.drifts[0]
        lo = drift.fn(0.0, np.array([[1.0], [2.0]]))
        hi = drift.fn(0.0, np.array([[1.5], [2.0]]))
        assert hi[0] >= lo[0]


class TestEnsemble:
    def test_jobs_do_not_change_results(self):
        spec = example_spec()
        grid = TimeGrid.uniform(1.0, 64)
        a = run_ensemble(spec, SchemeConfig(), grid, 600, 3, jobs=1)
        b = run_ensemble(spec, SchemeConfig(), grid, 600, 3, jobs=3)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.se, b.se)
        assert np.array_equal(a.section_values, b.section_values)

    def test_block_boundaries_do_not_change_results(self):
        # 600 paths spans two blocks; per-path streams make the split invisible
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        grid = TimeGrid.uniform(1.0, 32)
        res = run_ensemble(spec, SchemeConfig(), grid, 600, 3, keep_paths=600)
        lone = solve_system(spec, make_batch(grid, spec.noise_layout(), 3, [599]),
                            SchemeConfig())[0]
        assert np.array_equal(res.values[0, 599], lone.values)

    def test_keep_paths_keeps_the_leading_paths(self):
        # 520 kept paths end 8 rows into the second block
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        grid = TimeGrid.uniform(1.0, 32)
        full = run_ensemble(spec, SchemeConfig(), grid, 600, 3, keep_paths=600).values
        part = run_ensemble(spec, SchemeConfig(), grid, 600, 3, keep_paths=520).values
        none = run_ensemble(spec, SchemeConfig(), grid, 600, 3).values
        assert np.array_equal(part, full[:, :520])
        assert none.shape == (1, 0, 33)

    def test_lone_path_matches_its_block_with_many_components(self):
        # nine mean-field components: the drift's component sum must not
        # depend on how many paths share the solve
        spec = example_spec(n=9, initial=np.linspace(0.5, 4.5, 9))
        grid = TimeGrid.uniform(1.0, 64)
        block = solve_batch(spec.components, spec.drifts,
                            make_batch(grid, spec.noise_layout(), 8, range(3)),
                            SchemeConfig(), spec.initial[:, None]).values
        lone = solve_batch(spec.components, spec.drifts,
                           make_batch(grid, spec.noise_layout(), 8, range(2, 3)),
                           SchemeConfig(), spec.initial[:, None]).values
        assert np.array_equal(lone[:, 0], block[:, 2])

    def test_one_draw_per_block(self, monkeypatch):
        draws, draw = [], mfjump.system.make_batch

        def counting_draw(grid, layout, seed, paths):
            draws.append((paths[0], paths[-1]))
            return draw(grid, layout, seed, paths)

        monkeypatch.setattr(mfjump.system, "make_batch", counting_draw)
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        run_ensemble(spec, SchemeConfig(), TimeGrid.uniform(1.0, 8), 1200, 0)
        assert draws == [(0, 511), (512, 1023), (1024, 1199)]

    def test_rejects_empty_ensemble(self):
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        with pytest.raises(ValueError):
            run_ensemble(spec, SchemeConfig(), TimeGrid.uniform(1.0, 8), 0, 0)


class TestRunEnsemble:
    def test_standard_error_scaling(self):
        # doubling the path count shrinks the SE by about 1/sqrt(2)
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        grid = TimeGrid.uniform(1.0, 32)
        small = run_ensemble(spec, SchemeConfig(), grid, 1500, 11)
        large = run_ensemble(spec, SchemeConfig(), grid, 3000, 11)
        ratio = large.se[0, -1] / small.se[0, -1]
        assert 0.6 <= ratio <= 0.85

    def test_quantiles_are_ordered(self):
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        grid = TimeGrid.uniform(1.0, 32)
        res = run_ensemble(spec, SchemeConfig(), grid, 400, 2)
        q = res.quantiles()
        assert np.all(np.diff(q, axis=0) >= 0)

    def test_integral_estimate_matches_mean_curve(self):
        # E[int lambda dt] for the CIR mean curve: int_0^1 (2 - e^{-t}) dt
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        grid = TimeGrid.uniform(1.0, 256)
        res = run_ensemble(spec, SchemeConfig(), grid, 4000, 13)
        target = 2.0 - (1.0 - math.exp(-1.0))
        assert abs(res.integral_mean[0] - target) < 3 * res.integral_se[0] + 2e-3

    def test_statistics_match_two_pass_reference(self):
        # states near 1e8: sumsq/n - mean^2 cancels about 2e-6 of the SE
        # away, block-order (count, mean, M2) merges keep it
        spec = preset_cir(a=1.0, b=1e8, sigma=0.5, initial=1e8)
        grid = TimeGrid.uniform(1.0, 16)
        n = 600  # two blocks
        res = run_ensemble(spec, SchemeConfig(), grid, n, 0, keep_paths=n)
        vals = res.values
        integ = np.trapezoid(vals, x=grid.points, axis=2)
        for mean, se, x, axis in ((res.mean, res.se, vals, 1),
                                  (res.avg_mean, res.avg_se, vals.mean(axis=0), 0),
                                  (res.integral_mean, res.integral_se, integ, 1)):
            np.testing.assert_allclose(mean, x.mean(axis=axis), rtol=1e-12, atol=0)
            np.testing.assert_allclose(se, x.std(axis=axis, ddof=1) / math.sqrt(n),
                                       rtol=1e-9, atol=0)
