import math
import types
import weakref

import numpy as np
import pytest
from scipy import stats

import mfjump.system
from mfjump import (DriftSpec, ExponentialMeasure, NumericsError, TimeGrid,
                    make_batch, preset_cir, preset_example21, run_ensemble, solve_batch,
                    solve_system, thinning_system)
from mfjump.coeffs import CoefficientSet, PowerDiffusion, PowerModulus, SystemSpec

from _helpers import permute_system


def slab_bytes(blocks, n_components, n_steps):
    """A slab budget of ``blocks`` 512-path blocks."""
    return blocks * 8 * n_components * n_steps * 512


def warning_block(lo, rungs):
    """A ``map_blocks`` block: its ``lo``, and a warning it repeats, one all
    blocks share and one only even blocks give."""
    warns = [f"block {lo}", "shared", f"block {lo}"]
    return lo, warns + (["even"] if lo % 8 == 0 else [])


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
        via_system = solve_system(spec, batch)
        via_onedim = solve_batch([spec.components[0]], [spec.drifts[0]], batch,
                                 np.array([[1.0]]))
        assert np.array_equal(via_system.values, via_onedim.values)

    def test_solves_every_row_of_the_batch(self):
        # the spec's solve over 600 rows, and row 599 of a 600-path ensemble
        # replayed alone on its one-row batch
        spec = example_spec(n=3, initial=[1.0, 1.5, 2.0])
        grid = TimeGrid.uniform(1.0, 32)
        batch = make_batch(grid, spec.noise_layout(), 3, range(600))
        via_system = solve_system(spec, batch).values
        via_batch = solve_batch(spec.components, spec.drifts, batch,
                                spec.initial[:, None]).values
        assert via_system.shape == (3, 600, 33)
        assert np.array_equal(via_system, via_batch)
        res = run_ensemble(spec, grid, 600, 3, keep_paths=600)
        lone = solve_system(spec, make_batch(grid, spec.noise_layout(), 3, [599]))
        assert np.array_equal(res.values[:, 599], lone.values[:, 0])

    def test_nonnegative(self):
        spec = example_spec(sigma=1.5)
        grid = TimeGrid.uniform(1.0, 128)
        res = run_ensemble(spec, grid, 100, 5)
        batch = make_batch(grid, spec.noise_layout(), 5, range(100))
        vals = solve_batch(spec.components, spec.drifts, batch,
                           spec.initial[:, None]).values
        assert vals.min() >= 0.0
        assert res.mean.min() >= 0.0

    def test_mean_conservation_of_component_average(self):
        # equal speeds + mean-field average: drift cancels pathwise in the
        # average and all noise is compensated, so E[avg] is flat
        spec = example_spec(n=3, initial=[1.0, 1.5, 2.0])
        grid = TimeGrid.uniform(1.0, 256)
        res = run_ensemble(spec, grid, 2000, 17)
        start = res.avg_mean[0]
        for j in range(0, grid.points.size, 64):
            se = max(res.avg_se[j], 1e-12)
            assert abs(res.avg_mean[j] - start) <= 3 * se

    def test_exchangeable_components_have_same_marginal(self):
        spec = example_spec(n=2, initial=[1.0, 1.0])
        grid = TimeGrid.uniform(1.0, 64)
        res = run_ensemble(spec, grid, 4000, 23, keep_paths=4000)
        terminal = res.values[:, :, -1]
        assert stats.ks_2samp(terminal[0], terminal[1]).pvalue > 0.01

    def test_permutation_equivariance_exact(self):
        spec = example_spec(n=3, a=[1.0, 2.0, 0.5], sigma=[0.2, 0.5, 0.8],
                            initial=[1.0, 2.0, 3.0])
        grid = TimeGrid.uniform(1.0, 64)
        perm = [2, 0, 1]
        batch = make_batch(grid, spec.noise_layout(), 31, range(8))
        base = solve_batch(spec.components, spec.drifts, batch,
                           spec.initial[:, None]).values
        spec_p = permute_system(spec, perm)
        batch_p = make_batch(grid, spec_p.noise_layout(), 31, range(8))
        permuted = solve_batch(spec_p.components, spec_p.drifts, batch_p,
                               spec_p.initial[:, None]).values
        assert np.array_equal(permuted, base[perm])

    def test_permutation_equivariance_with_a_split_group(self):
        # components 0 and 2 share every coefficient and step as one group
        # around component 1; the mean-field drift is evaluated every step
        spec = example_spec(n=3, a=[1.0, 2.0, 1.0], sigma=0.4,
                            initial=[1.0, 2.0, 3.0])
        grid = TimeGrid.uniform(1.0, 64)
        base = solve_batch(spec.components, spec.drifts,
                           make_batch(grid, spec.noise_layout(), 31, range(8)),
                           spec.initial[:, None]).values
        for perm in ([2, 0, 1], [1, 0, 2]):
            spec_p = permute_system(spec, perm)
            batch_p = make_batch(grid, spec_p.noise_layout(), 31, range(8))
            permuted = solve_batch(spec_p.components, spec_p.drifts, batch_p,
                                   spec_p.initial[:, None]).values
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
        a = run_ensemble(spec, grid, 600, 3, jobs=1)
        b = run_ensemble(spec, grid, 600, 3, jobs=3)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.se, b.se)
        assert np.array_equal(a.section_values, b.section_values)

    def test_block_boundaries_do_not_change_results(self):
        # 600 paths spans two blocks; per-path streams make the split invisible
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        grid = TimeGrid.uniform(1.0, 32)
        res = run_ensemble(spec, grid, 600, 3, keep_paths=600)
        lone = solve_system(spec, make_batch(grid, spec.noise_layout(), 3, [599]))
        assert np.array_equal(res.values[0, 599], lone.values[0, 0])

    def test_keep_paths_keeps_the_leading_paths(self):
        # 520 kept paths end 8 rows into the second block
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        grid = TimeGrid.uniform(1.0, 32)
        full = run_ensemble(spec, grid, 600, 3, keep_paths=600).values
        part = run_ensemble(spec, grid, 600, 3, keep_paths=520).values
        none = run_ensemble(spec, grid, 600, 3).values
        assert np.array_equal(part, full[:, :520])
        assert none.shape == (1, 0, 33)

    def test_lone_path_matches_its_block_with_many_components(self):
        # nine mean-field components: the drift's component sum must not
        # depend on how many paths share the solve
        spec = example_spec(n=9, initial=np.linspace(0.5, 4.5, 9))
        grid = TimeGrid.uniform(1.0, 64)
        block = solve_batch(spec.components, spec.drifts,
                            make_batch(grid, spec.noise_layout(), 8, range(3)),
                            spec.initial[:, None]).values
        lone = solve_batch(spec.components, spec.drifts,
                           make_batch(grid, spec.noise_layout(), 8, range(2, 3)),
                           spec.initial[:, None]).values
        assert np.array_equal(lone[:, 0], block[:, 2])

    def test_one_draw_per_block(self, monkeypatch):
        # one draw per slab: a two-block budget solves 1,200 paths in two draws
        draws, draw = [], mfjump.system.make_batch

        def counting_draw(grid, layout, seed, paths):
            draws.append((paths[0], paths[-1]))
            return draw(grid, layout, seed, paths)

        monkeypatch.setattr(mfjump.system, "make_batch", counting_draw)
        monkeypatch.setattr(mfjump.system, "_SLAB_BYTES", slab_bytes(2, 1, 8))
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        run_ensemble(spec, TimeGrid.uniform(1.0, 8), 1200, 0)
        assert draws == [(0, 1023), (1024, 1199)]

    def test_block_can_drop_its_draw_on_the_last_rung(self, monkeypatch):
        # the rungs generator lets go of the draw before its last rung, so a
        # block that drops that rung frees the noise before it reduces
        refs, draw = [], mfjump.system.make_batch

        def recording_draw(grid, layout, seed, paths):
            batch = draw(grid, layout, seed, paths)
            refs.append(weakref.ref(batch))
            return batch

        def block(_lo, rungs):
            steps = []
            for batch in rungs:
                steps.append(batch.grid.n_steps)
                del batch
            return (steps, refs[-1]() is None), []

        monkeypatch.setattr(mfjump.system, "make_batch", recording_draw)
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        out = mfjump.system.map_blocks(block, spec, TimeGrid.uniform(1.0, 8), [4, 1],
                                       10, 512, 0, 1)
        assert out == ([([2, 8], True)], [])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_warnings_merge_by_first_occurrence_in_block_order(self, jobs):
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        out = mfjump.system.map_blocks(warning_block, spec, TimeGrid.uniform(1.0, 4), [1],
                                       14, 4, 0, jobs)
        assert out == ([0, 4, 8, 12], ["block 0", "shared", "even", "block 4",
                                       "block 8", "block 12"])

    @pytest.mark.parametrize("jobs, cpus, workers", [
        (100000, 3, 3), (100000, 8, 4), (2, 8, 2), (100000, None, 1)])
    def test_pool_has_no_more_workers_than_jobs_blocks_or_cpus(self, monkeypatch, jobs,
                                                               cpus, workers):
        # a stand-in pool records its size and maps serially, so no test
        # starts a large pool
        sizes = []

        class SerialPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return list(map(fn, items))

        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        grid = TimeGrid.uniform(1.0, 4)
        serial = mfjump.system.map_blocks(warning_block, spec, grid, [1], 14, 4, 0, 1)
        monkeypatch.setattr(mfjump.system, "multiprocessing",
                            types.SimpleNamespace(Pool=SerialPool))
        monkeypatch.setattr(mfjump.system, "os", types.SimpleNamespace(cpu_count=lambda: cpus))
        assert mfjump.system.map_blocks(warning_block, spec, grid, [1], 14, 4, 0, jobs) == serial
        assert sizes == [workers]

    def test_slab_width_is_set_by_the_scenario(self):
        # 4 MiB of (N, rows, n_steps) float64, in whole 512-path blocks
        assert mfjump.system._slab_rows(1, 512) == 1024  # thinned-jumps
        assert mfjump.system._slab_rows(3, 256) == 512  # correlated-intensities
        assert mfjump.system._slab_rows(1, 1024) == 512  # cir
        assert mfjump.system._slab_rows(3, 4096) == 512  # never below one block

    @pytest.mark.parametrize("spec", [
        example_spec(a=20.0),  # a*dt = 1.25 > 1: every solve warns
        thinning_system(ExponentialMeasure(mass=2.0, mean=0.4), v_max=4.0, sigma=0.3),
    ], ids=["stable-warns", "thinned-jumps"])
    def test_slab_width_does_not_change_results(self, monkeypatch, spec):
        # 1,300 paths: two whole blocks and a partial third, solved one block
        # per slab and then all three in one slab
        grid = TimeGrid.uniform(1.0, 16)
        results = []
        for blocks in (1, 3):
            monkeypatch.setattr(mfjump.system, "_SLAB_BYTES", slab_bytes(blocks, spec.n, 16))
            results.append(run_ensemble(spec, grid, 1300, 4, keep_paths=1100))
        one, three = results
        for name in ("mean", "se", "avg_mean", "avg_se", "integral_mean", "integral_se",
                     "section_times", "section_values", "values"):
            assert np.array_equal(getattr(one, name), getattr(three, name)), name
        assert one.values.shape == (spec.n, 1100, 17)
        assert one.warnings == three.warnings

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_slab_error_names_a_path_that_fails_alone(self, monkeypatch, jobs):
        # path 858 (block 2) overflows at step 10, before path 321 (block 1)
        # at step 14; a two-block slab reports its own solve's error, and
        # path 858 replayed alone fails at the same step and component
        from mfjump.coeffs import BrownianTerm
        comp = CoefficientSet(a=1.0, sigma=PowerDiffusion(50.0, 3.0),
                              brownian=(BrownianTerm(factor=1, weight=1.0),),
                              rho=PowerModulus(1.0, 0.5))
        spec = SystemSpec(components=(comp,), drifts=(DriftSpec.constant(1.0),),
                          initial=np.array([0.2]))
        grid = TimeGrid.uniform(1.0, 64)
        with pytest.raises(NumericsError) as slab_err:
            solve_batch(spec.components, spec.drifts,
                        make_batch(grid, spec.noise_layout(), 0, range(1024)),
                        spec.initial[:, None])
        assert (slab_err.value.path_index, slab_err.value.step) == (858, 10)
        monkeypatch.setattr(mfjump.system, "_SLAB_BYTES", slab_bytes(2, 1, 64))
        with pytest.raises(NumericsError) as err:
            run_ensemble(spec, grid, 1536, 0, jobs=jobs)
        assert str(err.value) == str(slab_err.value)
        path = err.value.path_index
        with pytest.raises(NumericsError) as lone:
            solve_system(spec, make_batch(grid, spec.noise_layout(), 0, [path]))
        assert (lone.value.path_index, lone.value.step, lone.value.component) == (
            path, err.value.step, err.value.component)

    def test_rejects_empty_ensemble(self):
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        with pytest.raises(ValueError):
            run_ensemble(spec, TimeGrid.uniform(1.0, 8), 0, 0)


class TestRunEnsemble:
    def test_standard_error_scaling(self):
        # doubling the path count shrinks the SE by about 1/sqrt(2)
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        grid = TimeGrid.uniform(1.0, 32)
        small = run_ensemble(spec, grid, 1500, 11)
        large = run_ensemble(spec, grid, 3000, 11)
        ratio = large.se[0, -1] / small.se[0, -1]
        assert 0.6 <= ratio <= 0.85

    def test_integral_estimate_matches_mean_curve(self):
        # E[int lambda dt] for the CIR mean curve: int_0^1 (2 - e^{-t}) dt
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        grid = TimeGrid.uniform(1.0, 256)
        res = run_ensemble(spec, grid, 4000, 13)
        target = 2.0 - (1.0 - math.exp(-1.0))
        assert abs(res.integral_mean[0] - target) < 3 * res.integral_se[0] + 2e-3

    def test_statistics_match_two_pass_reference(self):
        # states near 1e8: sumsq/n - mean^2 cancels about 2e-6 of the SE
        # away, block-order (count, mean, M2) merges keep it
        spec = preset_cir(a=1.0, b=1e8, sigma=0.5, initial=1e8)
        grid = TimeGrid.uniform(1.0, 16)
        n = 600  # two blocks
        res = run_ensemble(spec, grid, n, 0, keep_paths=n)
        vals = res.values
        integ = np.trapezoid(vals, x=grid.points, axis=2)
        for mean, se, x, axis in ((res.mean, res.se, vals, 1),
                                  (res.avg_mean, res.avg_se, vals.mean(axis=0), 0),
                                  (res.integral_mean, res.integral_se, integ, 1)):
            np.testing.assert_allclose(mean, x.mean(axis=axis), rtol=1e-12, atol=0)
            np.testing.assert_allclose(se, x.std(axis=axis, ddof=1) / math.sqrt(n),
                                       rtol=1e-9, atol=0)

    def test_block_integrals_equal_trapezoid_bit_for_bit(self):
        # a slab of a full block and a short one, on two components and a
        # non-uniform grid: each block's integral moments are those of
        # np.trapezoid over its paths
        spec = example_spec(2)
        grid = TimeGrid(np.cumsum(np.r_[0.0, np.linspace(0.01, 0.05, 24)]))
        batch = make_batch(grid, spec.noise_layout(), 6, range(700))
        part, _warns = mfjump.system._ensemble_block(spec, np.array([0, 24]), 0, 0,
                                                     iter([batch]))
        vals = solve_system(spec, batch).values
        assert len(part["moments"]) == 2
        for b, moments in zip((0, 512), part["moments"]):
            integ = np.trapezoid(vals[:, b:b + 512], x=grid.points, axis=2)
            want = mfjump.system._moments(integ.T)
            assert moments[2][0] == want[0]
            for got, ref in zip(moments[2][1:], want[1:]):
                assert np.array_equal(got.view(np.int64), ref.view(np.int64))
