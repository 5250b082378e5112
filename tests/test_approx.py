import json
import os
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import mfjump.approx
import mfjump.solver
import mfjump.system
from mfjump import (CadlagPath, DriftSpec, TimeGrid, build_level_one,
                    build_next_level, check_monotone, dyadic_partition,
                    hierarchy_refinement_study, make_batch,
                    moment_bound_check, preset_cir, preset_example21,
                    refinement_study, run_hierarchy_batch, run_hierarchy_ensemble,
                    solve_batch)
from mfjump.approx import _SLICE, _interval_infima, _partition_indices
from mfjump.cli import main
from mfjump.coeffs import LinearInTime, drift_values
from mfjump.scenario import load_scenario
from mfjump.solver import Forcing, gather

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def mean_field_spec(n=2, sigma=0.0, **kw):
    defaults = dict(a=1.0, initial=np.linspace(1.0, 3.0, n))
    defaults.update(kw)
    return preset_example21(n, sigma=sigma, **defaults)


class TestDyadicPartition:
    def test_first_levels(self):
        assert np.array_equal(dyadic_partition(1, 1.0).points, [0.0, 1.0])
        assert np.array_equal(dyadic_partition(2, 1.0).points, [0.0, 0.5, 1.0])
        assert np.array_equal(dyadic_partition(3, 1.0).points,
                              [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_each_level_refines_the_previous_exactly(self):
        for horizon in (1.0, 0.7, 3.0):
            prev = dyadic_partition(1, horizon)
            for n in range(2, 9):
                cur = dyadic_partition(n, horizon)
                assert cur.points.size == 2 ** (n - 1) + 1
                assert np.array_equal(cur.points[::2], prev.points)
                prev = cur

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            dyadic_partition(0, 1.0)


class TestInfimumDrift:
    """The interval-infimum drifts b^{i,n}_k of one trajectory: each drift's
    minimum along the paths over the closed grid span of each interval."""

    def test_constant_paths_give_the_average(self):
        grid = dyadic_partition(4, 1.0)
        values = np.array([[np.full(grid.points.size, 1.0)], [np.full(grid.points.size, 3.0)]])
        drifts = (DriftSpec.mean_field_average(2),) * 2
        part_idx = _partition_indices(grid, dyadic_partition(2, 1.0))
        inf = _interval_infima(drifts, grid.points, values, part_idx)
        assert np.array_equal(inf, np.full((2, 1, 2), 2.0))

    def test_enumerated_two_component_example(self):
        # grid {0, .5, 1}: averages are (2, 2, 2); the infimum over [0, .5]
        # runs over both endpoints and equals 2
        grid = dyadic_partition(2, 1.0)
        values = np.array([[[1.0, 2.0, 3.0]], [[3.0, 2.0, 1.0]]])
        drifts = (DriftSpec.mean_field_average(2),) * 2
        part_idx = _partition_indices(grid, dyadic_partition(2, 1.0))
        assert np.array_equal(part_idx, [0, 1, 2])
        inf = _interval_infima(drifts, grid.points, values, part_idx)
        assert np.array_equal(inf, np.full((2, 1, 2), 2.0))

    def test_increasing_paths_attain_infimum_at_left_endpoint(self):
        grid = dyadic_partition(5, 1.0)
        values = np.stack([1.0 + grid.points, 2.0 + grid.points ** 2])[:, None]
        drifts = (DriftSpec.mean_field_average(2),) * 2
        partition = dyadic_partition(3, 1.0)
        inf = _interval_infima(drifts, grid.points, values,
                               _partition_indices(grid, partition))
        for k, s in enumerate(partition.points[:-1]):
            expected = ((1.0 + s) + (2.0 + s ** 2)) / 2
            assert inf[0, 0, k] == expected

    def test_mixed_drifts_equal_the_minima_of_drift_values(self):
        # components 0 and 3 share one mean-field fn; 1 and 2 are not mean-field
        grid = dyadic_partition(5, 1.0)
        rng = np.random.default_rng(3)
        values = np.stack([rng.uniform(0.0, 2.0, grid.points.size) for _ in range(4)])[:, None]
        shared = DriftSpec.mean_field_average(4)
        drifts = (shared, DriftSpec.constant(0.5),
                  DriftSpec.time_function(LinearInTime(0.2, 0.5), growth_bound=0.7), shared)
        partition = dyadic_partition(3, 1.0)
        inf = _interval_infima(drifts, grid.points, values,
                               _partition_indices(grid, partition))[:, 0]
        dv = drift_values(drifts, grid.points, values)
        idx = np.searchsorted(grid.points, partition.points)
        expected = np.stack([dv[:, 0, i:j + 1].min(axis=1) for i, j in zip(idx, idx[1:])],
                            axis=1)
        assert np.array_equal(inf, expected)
        assert np.array_equal(inf[0], inf[3]) and np.array_equal(inf[1], np.full(4, 0.5))

    def test_sliced_spans_equal_the_minima_of_drift_values(self):
        # spans of 71, 131 and 101 columns: several slices each, none ending
        # on a slice edge; components 3 and 4 share one mean-field fn
        grid = TimeGrid.uniform(1.0, 300)
        part_idx = np.array([0, 70, 200, 300])
        assert _SLICE < 70 and np.all((np.diff(part_idx) + 1) % _SLICE != 0)
        rng = np.random.default_rng(5)
        values = rng.uniform(0.0, 2.0, (5, 7, grid.points.size))
        shared = DriftSpec.mean_field_average(5)
        drifts = (DriftSpec.constant(0.5),
                  DriftSpec.time_function(LinearInTime(0.9, -0.5), growth_bound=0.9),
                  DriftSpec.external(CadlagPath(grid, rng.uniform(0.0, 1.0, 301))),
                  shared, shared)
        inf = _interval_infima(drifts, grid.points, values, part_idx)
        dv = drift_values(drifts, grid.points, values)
        expected = np.stack([dv[:, :, i:j + 1].min(axis=2)
                             for i, j in zip(part_idx, part_idx[1:])], axis=2)
        assert inf.shape == (5, 7, 3)
        assert np.array_equal(inf, expected)

    def test_partition_must_lie_on_grid(self):
        # 1/2 is no point of the 3-step grid, nor is 1 of a grid that ends short
        with pytest.raises(ValueError, match="partition points"):
            _partition_indices(TimeGrid.uniform(1.0, 3), dyadic_partition(2, 1.0))
        with pytest.raises(ValueError, match="partition points"):
            _partition_indices(TimeGrid.uniform(0.5, 4), dyadic_partition(2, 1.0))


class TestBuildLevels:
    def test_zero_drift_makes_levels_identical(self):
        spec = mean_field_spec(sigma=0.4, a=1.0,
                               drift=DriftSpec.constant(0.0))
        grid = dyadic_partition(7, 1.0)
        batch = make_batch(grid, spec.noise_layout(), 3, range(4))
        lvl1 = build_level_one(spec, batch)
        lvl2 = build_next_level(lvl1, spec, batch)
        assert np.array_equal(lvl1.values, lvl2.values)

    def test_deterministic_mode_uses_exact_interval_infimum(self):
        # b(s) = s on [0, 1], level-2 partition {0, .5, 1}: forcing 0 then .5
        from mfjump.coeffs import LinearInTime
        drift = DriftSpec.time_function(LinearInTime(0.0, 1.0), growth_bound=1.0)
        spec = mean_field_spec(n=1, sigma=0.0, drift=drift, initial=1.0)
        grid = dyadic_partition(7, 1.0)
        batch = make_batch(grid, spec.noise_layout(), 0, range(1))
        lvl1 = build_level_one(spec, batch)
        lvl2 = build_next_level(lvl1, spec, batch, mode="realized")
        lvl3 = build_next_level(lvl2, spec, batch, mode="realized")
        half = grid.n_steps // 2
        rows = lvl3.forcing.table[lvl3.forcing.index]
        assert np.all(rows[:half, 0, 0] == 0.0)
        assert np.all(rows[half:, 0, 0] == 0.5)

    def test_staircase_path_does_not_depend_on_its_block(self):
        # the staircase forcing of a path reads only that path's previous
        # level: a path's forcing and level equal its own, solved alone
        from mfjump import PointMassMeasure, thinning_system
        for spec in (mean_field_spec(n=2, sigma=0.4, sigma_z=0.2, alpha=1.7),
                     thinning_system(PointMassMeasure(atoms=((0.4, 3.0),)), v_max=4.0,
                                     sigma=0.3, drift=DriftSpec.mean_field_average(1))):
            grid = dyadic_partition(5, 1.0)
            levels = []
            for paths in (range(3), range(1, 2)):
                batch = make_batch(grid, spec.noise_layout(), 4, paths)
                levels.append(run_hierarchy_batch(spec, batch, 4, mode="staircase").levels)
            for block, alone in zip(*levels):
                assert np.array_equal(block.forcing.table[block.forcing.index][:, :, 1:2],
                                      alone.forcing.table[alone.forcing.index])
                assert np.array_equal(block.values[:, 1:2], alone.values)

    def test_staircase_forcing_is_one_row_per_step(self):
        spec = mean_field_spec(n=2, sigma=0.4, sigma_z=0.2, alpha=1.7)
        grid = dyadic_partition(5, 1.0)
        batch = make_batch(grid, spec.noise_layout(), 4, range(3))
        lvl2 = build_next_level(build_level_one(spec, batch), spec, batch, mode="staircase")
        assert isinstance(lvl2.forcing, Forcing)
        assert lvl2.forcing.table.shape == (grid.n_steps, 2, 3)
        assert np.array_equal(lvl2.forcing.index, np.arange(grid.n_steps))

    def test_staircase_levels_rise_below_the_solution(self):
        # correlated-intensities, 256 paths and steps: the staircase levels
        # are exactly ordered and exactly below the solve of the full system
        # on the same draw, and their mean sup distance to it falls strictly
        spec = load_scenario(os.path.join(SCENARIOS, "correlated-intensities.json")).system
        batch = make_batch(TimeGrid.uniform(1.0, 256), spec.noise_layout(), 7, range(256))
        levels = run_hierarchy_batch(spec, batch, 6, mode="staircase").levels
        x = solve_batch(spec.components, spec.drifts, batch,
                        initial=spec.initial[:, None]).values
        for prev, cur in zip(levels, levels[1:]):
            assert np.all(cur.values >= prev.values)
        assert all(np.all(lv.values <= x) for lv in levels)
        gaps = [float(np.abs(x - lv.values).max(axis=(0, 2)).mean()) for lv in levels]
        assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps

    def test_partitions_refine(self):
        spec = mean_field_spec(sigma=0.3)
        grid = dyadic_partition(6, 1.0)
        batch = make_batch(grid, spec.noise_layout(), 5, [0])
        levels = run_hierarchy_batch(spec, batch, 4).levels
        for prev, cur in zip(levels, levels[1:]):
            assert np.array_equal(grid.points[cur.part_idx[::2]], grid.points[prev.part_idx])
            assert cur.part_idx.size == 2 ** (cur.n - 1) + 1

    def test_rejects_small_nmax(self):
        spec = mean_field_spec()
        grid = dyadic_partition(4, 1.0)
        with pytest.raises(ValueError):
            run_hierarchy_batch(spec, make_batch(grid, spec.noise_layout(), 0,
                                                 range(1)), 1)


class TestReconstructionIdentity:
    def test_piecewise_solves_concatenate_bitwise(self):
        # building level n+1 interval by interval with chained initial values
        # equals the single pass with the piecewise-constant forcing
        spec = mean_field_spec(n=2, sigma=0.5, sigma_z=0.2, alpha=1.8)
        grid = dyadic_partition(6, 1.0)
        batch = make_batch(grid, spec.noise_layout(), 13, range(8))
        lvl2 = build_next_level(build_level_one(spec, batch), spec, batch)
        lvl1 = build_level_one(spec, batch)
        forcing = lvl2.forcing
        state = np.broadcast_to(spec.initial[:, None], (2, 8)).copy()
        part_idx = lvl1.part_idx
        chunks = [state[:, :, None]]
        for k in range(part_idx.size - 1):
            k0, k1 = int(part_idx[k]), int(part_idx[k + 1])
            piece = solve_batch(spec.components, spec.drifts, batch, state,
                                forcing=forcing, k_start=k0, k_stop=k1)
            state = piece.values[:, :, k1]
            chunks.append(piece.values[:, :, k0 + 1:k1 + 1])
        rebuilt = np.concatenate(chunks, axis=2)
        assert np.array_equal(rebuilt, lvl2.values)


class TestOrderingProperties:
    def test_subset_infimum_exact_when_paths_ordered(self):
        # Whenever consecutive level paths are ordered, the next level's
        # interval infima dominate the previous level's, exactly
        spec = mean_field_spec(n=2, sigma=0.9, a=2.0, initial=[0.5, 1.5])
        grid = dyadic_partition(7, 1.0)
        batch = make_batch(grid, spec.noise_layout(), 29, range(64))
        hier = run_hierarchy_batch(spec, batch, 4)
        checked = 0
        for prev, cur in zip(hier.levels, hier.levels[1:]):
            ordered = np.all(cur.values >= prev.values, axis=(0, 2))  # per path
            if not ordered.any():
                continue
            even = cur.inf_drifts[:, :, 0::2]
            odd = cur.inf_drifts[:, :, 1::2]
            assert np.all(even[:, ordered, :] >= prev.inf_drifts[:, ordered, :])
            assert np.all(odd[:, ordered, :] >= prev.inf_drifts[:, ordered, :])
            checked += int(ordered.sum())
        assert checked > 0

    def test_deterministic_levels_monotone_exact(self):
        spec = mean_field_spec(n=2, sigma=0.0, initial=[1.0, 3.0])
        grid = dyadic_partition(7, 1.0)
        batch = make_batch(grid, spec.noise_layout(), 0, range(1))
        hier = run_hierarchy_batch(spec, batch, 5)
        for row in check_monotone(hier.levels):
            assert row.max_violation == 0.0
            assert row.violating_fraction == 0.0
        # every level dominates the base level pointwise
        base = hier.levels[0].values
        for lv in hier.levels[1:]:
            assert np.all(lv.values >= base)

    def test_identical_levels_have_zero_violation(self):
        spec = mean_field_spec(sigma=0.4, drift=DriftSpec.constant(0.0))
        grid = dyadic_partition(6, 1.0)
        batch = make_batch(grid, spec.noise_layout(), 2, range(4))
        lvl1 = build_level_one(spec, batch)
        lvl2 = build_next_level(lvl1, spec, batch)
        rows = check_monotone([lvl1, lvl2])
        assert rows[0].max_violation == 0.0

    def test_gap_sequence_nonincreasing_for_deterministic_core(self):
        spec = mean_field_spec(n=2, sigma=0.0, initial=[1.0, 3.0])
        grid = dyadic_partition(8, 1.0)
        batch = make_batch(grid, spec.noise_layout(), 0, range(1))
        hier = run_hierarchy_batch(spec, batch, 6)
        # per-level sup distance to the top level shrinks monotonically
        top = hier.levels[-1].values
        dists = [np.abs(lv.values - top).max() for lv in hier.levels[:-1]]
        assert all(np.diff(dists) <= 0)

    def test_diffusive_gap_trend_beyond_first_level(self):
        # consecutive-level sup gaps shrink (monotone bounded sequence);
        # asserted for the ensemble mean and the bulk of individual paths
        spec = mean_field_spec(n=2, sigma=0.5, sigma_z=0.2, alpha=1.8,
                               initial=[1.0, 2.0])
        grid = dyadic_partition(9, 1.0)
        hier = run_hierarchy_ensemble(spec, grid, 200, 0, 6)
        mean_gaps = [float(g.mean()) for g in hier.sup_gaps]
        assert all(np.diff(mean_gaps[1:]) <= 0)
        per_path = np.stack([g.max(axis=0) for g in hier.sup_gaps[1:]])
        monotone = np.all(np.diff(per_path, axis=0) <= 1e-12, axis=0)
        assert monotone.mean() > 0.8


class TestMomentBound:
    def test_zero_system_trivially_bounded(self):
        spec = mean_field_spec(n=2, sigma=0.0, a=0.0, initial=[1.0, 2.0],
                               drift=DriftSpec.constant(0.0))
        grid = dyadic_partition(5, 1.0)
        hier = run_hierarchy_ensemble(spec, grid, 8, 1, 3)
        report = moment_bound_check(hier.levels, grid, a_bar=0.0, growth_b=0.0,
                                    growth_l=0.0, k_const=0.0)
        assert report.passed
        assert report.l_prime == 0.0

    def test_example_ensemble_respects_envelope(self):
        spec = mean_field_spec(n=2, sigma=0.5, sigma_z=0.2, alpha=1.8,
                               initial=[1.0, 2.0])
        grid = dyadic_partition(7, 1.0)
        hier = run_hierarchy_ensemble(spec, grid, 200, 7, 4)
        # average drift: B = 0, L = 1/N, K = 0, so L' = a_bar * L * N = 1
        report = moment_bound_check(hier.levels, grid, a_bar=1.0, growth_b=0.0,
                                    growth_l=0.5, k_const=0.0)
        assert report.l_prime == pytest.approx(1.0)
        assert report.passed

    def test_block_reductions_match_the_whole_batch(self):
        # three blocks, merged in order, against one batch of all 600 paths
        spec = mean_field_spec(n=2, sigma=1.0, a=2.0, initial=[0.4, 0.8])
        grid = dyadic_partition(5, 1.0)
        hier = run_hierarchy_ensemble(spec, grid, 600, 3, 3)
        whole = run_hierarchy_batch(spec, make_batch(grid, spec.noise_layout(), 3,
                                                     range(600)), 3)
        for (n, mean, m2), lv in zip(hier.levels, whole.levels):
            assert n == 600
            np.testing.assert_allclose(mean, lv.values.mean(axis=1), rtol=1e-12)
            np.testing.assert_allclose(m2 / (n - 1), lv.values.var(axis=1, ddof=1),
                                       rtol=1e-10, atol=1e-14)
        assert hier.monotonicity == check_monotone(whole.levels)
        assert hier.max_violation > 0.0
        assert np.array_equal(hier.sup_gaps, np.stack(
            [np.abs(b.values - a.values).max(axis=2)
             for a, b in zip(whole.levels, whole.levels[1:])]))

    def test_larger_k_only_loosens_the_bound(self):
        spec = mean_field_spec(n=2, sigma=0.5, initial=[1.0, 2.0])
        grid = dyadic_partition(6, 1.0)
        hier = run_hierarchy_ensemble(spec, grid, 50, 3, 3)
        small = moment_bound_check(hier.levels, grid, 1.0, 0.0, 0.5, 0.0)
        large = moment_bound_check(hier.levels, grid, 1.0, 0.0, 0.5, 0.5)
        assert np.all(large.envelope >= small.envelope)
        assert large.max_violation <= small.max_violation


class TestRefinementStudy:
    def test_rows_share_noise_and_report_statistics(self):
        spec = mean_field_spec(n=2, sigma=1.0, a=2.0, initial=[0.4, 0.8])
        rows = hierarchy_refinement_study(spec, 1.0, [16, 32, 64], 50, 3, 3)
        assert [r.steps for r in rows] == [16, 32, 64]
        assert all(r.max_violation >= r.mean_sup_violation >= 0.0 for r in rows)
        assert all(0.0 <= r.violating_fraction <= 1.0 for r in rows)

    def test_rejects_non_dyadic_ladder(self):
        spec = mean_field_spec()
        with pytest.raises(ValueError):
            hierarchy_refinement_study(spec, 1.0, [12, 24], 4, 0, 3)

    def test_ladders_solve_without_solve_system(self, monkeypatch):
        # the benchmark's tracer reads approx.drift_points off the solves
        # whose caller is approx; one routed through system.solve_system
        # would be charged to system instead
        def refuse(*_args, **_kwargs):
            raise AssertionError("solve_system called")
        for name, module in list(sys.modules.items()):
            if name.startswith("mfjump") and hasattr(module, "solve_system"):
                monkeypatch.setattr(module, "solve_system", refuse)
        spec = mean_field_spec(n=2, sigma=1.0, a=2.0, initial=[0.4, 0.8])
        rows = hierarchy_refinement_study(spec, 1.0, [16, 32], 20, 3, 3)
        assert len(rows) == 2
        for mode in mfjump.approx.MODES:
            batch = make_batch(TimeGrid.uniform(1.0, 16), spec.noise_layout(), 3, range(4))
            hier = run_hierarchy_batch(spec, batch, 3, mode=mode)
            assert len(hier.levels) == 3
        report = refinement_study(preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0),
                                  1.0, [16, 32], 20, 3)
        assert len(report.rows) == 2

    @pytest.mark.parametrize("mode", mfjump.approx.MODES)
    def test_solver_warnings_come_once_on_every_rung(self, mode):
        # a*dt = 1.25 on the 16-step rung and 0.625 on the 32-step one; 300
        # paths make two blocks, and every level of the coarse rung warns
        spec = mean_field_spec(n=1, sigma=0.3, a=20.0)
        rows = hierarchy_refinement_study(spec, 1.0, [16, 32], 300, 0, 3, mode=mode)
        assert [r.warnings for r in rows] == [[
            "component 0: a*dt = 1.25 > 1 breaks the monotonicity precondition "
            "of the explicit scheme"]] * 2

    @pytest.mark.parametrize("mode", mfjump.approx.MODES)
    def test_results_do_not_depend_on_jobs(self, mode):
        # 300 paths make two blocks, which --jobs 2 solves in two workers
        spec = mean_field_spec(n=2, sigma=0.6, a=1.0, initial=[1.0, 2.0])
        serial, pooled = (hierarchy_refinement_study(spec, 1.0, [16, 32], 300, 5, 3,
                                                     mode=mode, jobs=jobs)
                          for jobs in (1, 2))
        for a, b in zip(serial, pooled):
            for lv_a, lv_b in zip(a.levels, b.levels):
                assert all(np.array_equal(x, y) for x, y in zip(lv_a, lv_b))
            assert np.array_equal(a.sup_gaps, b.sup_gaps)
            assert (a.monotonicity, a.max_violation, a.mean_sup_violation,
                    a.violating_fraction, a.cauchy_gap, a.warnings) == \
                (b.monotonicity, b.max_violation, b.mean_sup_violation,
                 b.violating_fraction, b.cauchy_gap, b.warnings)

    def test_mean_sup_violation_typically_decreases(self):
        # the ensemble mean of per-path sup violations is the stable trend
        # statistic (the max carries a step-size-insensitive excursion tail)
        spec = mean_field_spec(n=2, sigma=1.0, a=1.0, initial=[0.3, 0.8])
        rows = hierarchy_refinement_study(spec, 1.0, [64, 128, 256], 400, 1, 5)
        means = [r.mean_sup_violation for r in rows]
        assert means[0] > means[-1]


class TestApproxCommand:
    """``approx`` serves the base-grid report and the step ladder from one pass."""

    @pytest.fixture
    def scenario(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "schema_version": 1, "name": "approx-pass", "horizon": 1.0,
            "grid_steps": 16, "drift": {"kind": "mean-field-average"},
            "preset": {"kind": "example21", "n_components": 2, "a": 4.0,
                       "sigma": 2.0, "initial": [0.4, 0.8]}}))
        return str(path)

    def run(self, scenario, out, paths):
        return main(["approx", "--scenario", scenario, "--paths", str(paths),
                     "--levels", "3", "--refinements", "3", "--seed", "0",
                     "--jobs", "1", "--out", str(out)])

    def test_one_draw_and_one_pass_per_block(self, scenario, tmp_path, monkeypatch):
        calls = {"map_blocks": 0, "make_batch": [], "solve_batch": 0}
        blocks = mfjump.approx.map_blocks
        draw, solve = mfjump.system.make_batch, mfjump.approx.solve_batch

        def counting_blocks(*args):
            calls["map_blocks"] += 1
            return blocks(*args)

        def counting_draw(grid, layout, seed, paths):
            calls["make_batch"].append((grid.n_steps, paths[0], paths[-1]))
            return draw(grid, layout, seed, paths)

        def counting_solve(*args, **kwargs):
            calls["solve_batch"] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(mfjump.approx, "map_blocks", counting_blocks)
        monkeypatch.setattr(mfjump.system, "make_batch", counting_draw)
        monkeypatch.setattr(mfjump.approx, "solve_batch", counting_solve)
        assert self.run(scenario, tmp_path / "o", 600) == 0
        # three blocks, each drawn once on the finest rung (16 * 2^2 steps)
        assert calls["map_blocks"] == 1
        assert calls["make_batch"] == [(64, 0, 255), (64, 256, 511), (64, 512, 599)]
        assert calls["solve_batch"] == 3 * 3 * 3  # blocks x levels x rungs

    def test_report_describes_one_realization(self, scenario, tmp_path):
        out = tmp_path / "o"
        assert self.run(scenario, out, 300) == 0
        report = json.loads((out / "approx_report.json").read_text())
        base = report["refinements"][0]
        assert base["steps"] == report["steps"]
        assert report["cauchy_gap"] == base["cauchy_gap"]
        worst = max(m["max_violation"] for m in report["monotonicity"])
        assert worst == base["max_violation"] > 0.0
        gaps = (out / "level_gaps.csv").read_text().splitlines()
        assert float(gaps[-1].split(",")[-1]) == report["cauchy_gap"]

    def test_coinciding_levels_have_a_positive_zero_gap(self, tmp_path):
        # a constant drift makes levels 2 and 3 equal: their sup gap is 0.0,
        # never -0.0, in the report and in both CSVs
        scenario = os.path.join(SCENARIOS, "cir.json")
        out = tmp_path / "o"
        assert main(["approx", "--scenario", scenario, "--paths", "20", "--levels", "3",
                     "--refinements", "2", "--jobs", "1", "--out", str(out)]) == 0
        report = json.loads((out / "approx_report.json").read_text())
        cauchy = [report["cauchy_gap"]] + [r["cauchy_gap"] for r in report["refinements"]]
        assert cauchy == [0.0] * 3 and not np.signbit(cauchy).any()
        gaps = (out / "level_gaps.csv").read_text().splitlines()
        assert gaps[-1].endswith(",2,3,0.0,0.0")
        rows = (out / "refinements.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 and all(row.endswith(",0.0") for row in rows)
        spec = load_scenario(scenario).system
        for rung in hierarchy_refinement_study(spec, 1.0, [64, 128], 20, 1, 3):
            assert rung.sup_gaps[0].max() > 0.0
            assert np.array_equal(rung.sup_gaps[1], np.zeros((1, 20)))
            assert not np.signbit(rung.sup_gaps).any()
            assert rung.cauchy_gap == 0.0 and not np.signbit(rung.cauchy_gap)


class TestStreamedBlock:
    """A ladder block reduces each level as it is built. Its reductions equal
    those of the list form, bit for bit, and it holds two levels at a time."""

    @staticmethod
    def spec():
        return mean_field_spec(n=3, sigma=0.5, sigma_z=0.2, alpha=1.8)

    @pytest.mark.parametrize("mode, steps, n_max, n_paths",
                             [("realized", 64, 4, 40), ("staircase", 64, 4, 40)])
    def test_streamed_reductions_equal_the_list_form(self, mode, steps, n_max, n_paths):
        spec = self.spec()
        batch = make_batch(TimeGrid.uniform(1.0, steps), spec.noise_layout(), 6,
                           range(n_paths))
        rungs = [batch.coarsen(2), batch]
        block, _warnings = mfjump.approx._ladder_block(spec, n_max, mode, 0, iter(rungs))
        assert len(block) == len(rungs)
        for (moments, pairs), rung in zip(block, rungs):
            levels = run_hierarchy_batch(spec, rung, n_max, mode=mode).levels
            assert len(moments) == n_max and len(pairs) == n_max - 1
            for (count, mean, m2), lv in zip(moments, levels):
                x = lv.values.transpose(1, 0, 2)
                assert count == n_paths
                assert np.array_equal(mean, x.mean(axis=0))
                assert np.array_equal(m2, ((x - x.mean(axis=0)) ** 2).sum(axis=0))
            for (sup_gap, sup_viol, count, total), a, b in zip(pairs, levels, levels[1:]):
                gap = a.values - b.values
                assert np.array_equal(sup_gap, np.abs(gap).max(axis=2))
                assert np.array_equal(sup_viol, np.maximum(gap, 0.0).max(axis=(0, 2)))
                assert (count, total) == (int((gap > 0.0).sum()), gap.size)

    @pytest.mark.parametrize("mode", mfjump.approx.MODES)
    def test_a_block_holds_two_levels_at_a_time(self, monkeypatch, mode):
        refs, alive = [], []

        def tracked(build):
            def wrapper(*args, **kwargs):
                level = build(*args, **kwargs)
                refs.append(weakref.ref(level))
                held = [lv for lv in (ref() for ref in refs) if lv is not None]
                alive.append(len(held))
                if mode == "realized":  # a solved realized level keeps no forcing
                    assert all(lv.forcing is None for lv in held if lv is not level)
                return level
            return wrapper

        for name in ("build_level_one", "build_next_level"):
            monkeypatch.setattr(mfjump.approx, name, tracked(getattr(mfjump.approx, name)))
        spec = self.spec()
        batch = make_batch(TimeGrid.uniform(1.0, 16), spec.noise_layout(), 2, range(3))
        mfjump.approx._ladder_block(spec, 4, mode, 0, iter([batch]))
        assert len(alive) == 4 and max(alive) <= 2

    @pytest.mark.parametrize("mode", mfjump.approx.MODES)
    def test_gathered_levels_equal_the_levels_of_the_draw(self, mode):
        # 100 steps end in a part chunk of the solver's 64; the three
        # components are one group, with Brownian and stable operands
        spec = self.spec()
        batch = make_batch(TimeGrid.uniform(1.0, 100), spec.noise_layout(), 4, range(30))
        gathered = gather(spec.components, batch)
        assert [part.ops[0].shape for part in gathered.parts] == [(100, 3, 30)]
        assert gathered.n_paths == 30 and gathered.grid is batch.grid
        drawn, held = build_level_one(spec, batch), build_level_one(spec, gathered)
        for n in (2, 3):
            for a, b in ((drawn.values, held.values), (drawn.inf_drifts, held.inf_drifts),
                         (drawn.forcing.table[drawn.forcing.index],
                          held.forcing.table[held.forcing.index])):
                assert np.array_equal(a.view(np.int64), b.view(np.int64))
            assert drawn.warnings == held.warnings
            drawn = build_next_level(drawn, spec, batch, mode=mode)
            held = build_next_level(held, spec, gathered, mode=mode)
            assert held.n == n
        assert np.array_equal(drawn.values.view(np.int64), held.values.view(np.int64))
        with pytest.raises(ValueError, match="other components"):
            solve_batch(spec.components[:2], spec.drifts[:2], gathered,
                        initial=spec.initial[:2, None])

    def test_a_rung_bins_its_events_once(self, monkeypatch):
        # thinned-jumps: the gathered draw bins every step's events once, and
        # a solve on it, of the whole grid or of a span, equals a solve on
        # the draw that bins them itself
        spec = load_scenario(os.path.join(SCENARIOS, "thinned-jumps.json")).system
        bins = mfjump.solver._bin_events
        calls = []

        def counting(components, batch):
            calls.append(batch.grid.n_steps)
            return bins(components, batch)

        monkeypatch.setattr(mfjump.solver, "_bin_events", counting)
        hierarchy_refinement_study(spec, 2.0, [32, 64], 300, 5, 3)
        # two blocks (256 + 44 paths), two rungs each, three levels per rung
        assert calls == [32, 64] * 2

        batch = make_batch(TimeGrid.uniform(2.0, 64), spec.noise_layout(), 3, range(40))
        gathered = gather(spec.components, batch)
        assert gathered.segments  # steps with events
        for span in ((0, None), (5, 50)):
            state = np.full((spec.n, 40), 0.7)
            drawn, held = (solve_batch(spec.components, spec.drifts, b, state, None, *span)
                           for b in (batch, gathered))
            assert np.array_equal(drawn.values.view(np.int64), held.values.view(np.int64))
            assert drawn.warnings == held.warnings

    @pytest.mark.parametrize("mode", mfjump.approx.MODES)
    def test_a_rung_lets_go_of_its_draw_before_its_first_level(self, monkeypatch, mode):
        spec, refs, dead = self.spec(), [], []
        build = mfjump.approx.build_level_one

        def checked(*args, **kwargs):
            dead.append([ref() is None for ref in refs])
            return build(*args, **kwargs)

        def rungs():  # like system._rungs, holds no rung it has yielded
            held = [make_batch(TimeGrid.uniform(1.0, 100), spec.noise_layout(), 2, range(5))]
            refs.extend(weakref.ref(draws.array) for draws in (held[0].brownian,
                                                               held[0].stable))
            yield held.pop()

        monkeypatch.setattr(mfjump.approx, "build_level_one", checked)
        mfjump.approx._ladder_block(spec, 3, mode, 0, rungs())
        assert dead == [[True, True]]

    def test_a_block_peaks_at_its_draws_and_two_levels(self):
        # one 256-path block of the hier-refine ladder. At the middle rung it
        # holds the finest draw and that draw coarsened by 2; beyond those
        # and two levels' values it may take 4 MiB of work arrays
        spec = load_scenario(os.path.join(SCENARIOS, "correlated-intensities.json")).system
        draw = make_batch(TimeGrid.uniform(1.0, 1024), spec.noise_layout(), 0, range(256))
        draw_bytes = sum(a.nbytes for kind in (draw.brownian, draw.stable)
                         for a in kind.values())
        level_bytes = spec.n * 256 * 1025 * 8
        del draw
        tracemalloc.start()
        try:
            hierarchy_refinement_study(spec, 1.0, [256, 512, 1024], 256, 77, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert draw_bytes == 16 << 20
        assert peak < 1.5 * draw_bytes + 2 * level_bytes + (4 << 20)
