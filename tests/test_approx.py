import json
import os
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import mfjump.approx
import mfjump.system
from mfjump import (CadlagPath, DriftSpec, SchemeConfig, TimeGrid, build_level_one,
                    build_next_level, check_monotone, dyadic_partition,
                    hierarchy_refinement_study, make_batch,
                    moment_bound_check, preset_cir, preset_example21,
                    refinement_study, run_hierarchy_batch, run_hierarchy_ensemble,
                    solve_batch)
from mfjump.approx import _SLICE, _interval_infima, _partition_indices
from mfjump.cli import main
from mfjump.coeffs import LinearInTime, drift_values
from mfjump.scenario import load_scenario

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
        assert np.all(lvl3.forcing[0, 0, :half] == 0.0)
        assert np.all(lvl3.forcing[0, 0, half:] == 0.5)

    def test_nested_mc_equals_deterministic_for_time_drift(self):
        # with a state-independent drift the inner branches are irrelevant:
        # the adapted estimate collapses to the deterministic infimum
        from mfjump.coeffs import LinearInTime
        drift = DriftSpec.time_function(LinearInTime(0.2, 0.5), growth_bound=0.7)
        spec = mean_field_spec(n=1, sigma=0.3, drift=drift, initial=1.0)
        grid = dyadic_partition(5, 1.0)
        batch = make_batch(grid, spec.noise_layout(), 1, range(2))
        lvl1 = build_level_one(spec, batch)
        nested = build_next_level(lvl1, spec, batch, mode="nested-mc", n_inner=2)
        det = build_next_level(lvl1, spec, batch, mode="realized")
        assert np.allclose(nested.forcing, det.forcing)

    def test_nested_mc_path_does_not_depend_on_its_block(self):
        # the inner branches of all paths share one solve per step; each
        # path's nested forcing equals that path's forcing solved alone
        from mfjump import PointMassMeasure, thinning_system
        for spec in (mean_field_spec(n=2, sigma=0.4, sigma_z=0.2, alpha=1.7),
                     thinning_system(PointMassMeasure(atoms=((0.4, 3.0),)), v_max=4.0,
                                     sigma=0.3, drift=DriftSpec.mean_field_average(1))):
            grid = dyadic_partition(5, 1.0)
            levels = []
            for paths in (range(3), range(1, 2)):
                batch = make_batch(grid, spec.noise_layout(), 4, paths)
                lvl1 = build_level_one(spec, batch)
                levels.append(build_next_level(lvl1, spec, batch, mode="nested-mc",
                                               n_inner=3))
            assert np.array_equal(levels[0].forcing[:, 1:2], levels[1].forcing)
            assert np.array_equal(levels[0].values[:, 1:2], levels[1].values)

    def test_branch_rows_are_lineage_major_numpy_streams(self):
        # branch row l * n_inner + m is branch m of lineage l; its Brownian
        # and stable streams are shared by the lineage's branches, its events
        # stream is its own, and all are numpy's spawn-key streams
        from mfjump.noise import MeasureSpec, NoiseLayout, _stable_standard
        sampler = lambda rng, size: rng.exponential(1.0, size)
        alpha = 1.6
        layout = NoiseLayout(brownian_factors=(0,), stable_alphas={1: alpha},
                             measures=(MeasureSpec("m0", 3.0, sampler),))
        pts = dyadic_partition(4, 1.0).points
        sub = TimeGrid(pts[4:] - pts[4])
        lineages, n_inner, span = ((3, 7), (3, 2**32)), 3, 4
        inner = make_batch(sub, layout, 3, [p for _, p in lineages],
                           branch=((2, 1, 4), n_inner))
        assert inner.grid.n_steps == span
        assert inner.lineages == tuple(lin for lin in lineages for _ in range(n_inner))
        ev = inner.events["m0"]
        assert ev.times.size > 0
        for l, (master, path) in enumerate(lineages):
            oracle = lambda *stream: np.random.default_rng(np.random.SeedSequence(
                master, spawn_key=(path, 4, 2, 1, 4) + stream))
            normals = oracle(1, 0).standard_normal((n_inner, span))
            stables = _stable_standard(alpha, (n_inner, span), oracle(2, 1))
            for m in range(n_inner):
                row = l * n_inner + m
                assert np.array_equal(inner.brownian[0][row],
                                      normals[m] * np.sqrt(inner.grid.dt))
                assert np.array_equal(inner.stable[1][row],
                                      stables[m] * inner.grid.dt ** (1.0 / alpha))
                rng = oracle(3, 0, m)
                count = rng.poisson(3.0 * inner.grid.horizon)
                times = np.sort(rng.uniform(0.0, inner.grid.horizon, count))
                assert np.array_equal(ev.times[ev.rows == row], times)
                assert np.array_equal(ev.marks[ev.rows == row], sampler(rng, count))

    def test_nested_mc_rejects_bad_branch_count(self):
        spec = mean_field_spec(sigma=0.2)
        grid = dyadic_partition(4, 1.0)
        batch = make_batch(grid, spec.noise_layout(), 1, range(1))
        lvl1 = build_level_one(spec, batch)
        with pytest.raises(ValueError):
            build_next_level(lvl1, spec, batch, mode="nested-mc", n_inner=0)

    def test_partitions_refine(self):
        spec = mean_field_spec(sigma=0.3)
        grid = dyadic_partition(6, 1.0)
        batch = make_batch(grid, spec.noise_layout(), 5, [0])
        levels = run_hierarchy_batch(spec, batch, SchemeConfig(), 4).levels
        for prev, cur in zip(levels, levels[1:]):
            assert np.array_equal(cur.partition.points[::2], prev.partition.points)
            assert cur.partition.points.size == 2 ** (cur.n - 1) + 1

    def test_rejects_small_nmax(self):
        spec = mean_field_spec()
        grid = dyadic_partition(4, 1.0)
        with pytest.raises(ValueError):
            run_hierarchy_batch(spec, make_batch(grid, spec.noise_layout(), 0,
                                                 range(1)),
                                SchemeConfig(), 1)


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
        hier = run_hierarchy_batch(spec, batch, SchemeConfig(), 4)
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
        hier = run_hierarchy_batch(spec, batch, SchemeConfig(), 5)
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
        hier = run_hierarchy_batch(spec, batch, SchemeConfig(), 6)
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
        hier = run_hierarchy_ensemble(spec, SchemeConfig(), grid, 200, 0, 6)
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
        hier = run_hierarchy_ensemble(spec, SchemeConfig(), grid, 8, 1, 3)
        report = moment_bound_check(hier.levels, grid, a_bar=0.0, growth_b=0.0,
                                    growth_l=0.0, k_const=0.0)
        assert report.passed
        assert report.l_prime == 0.0

    def test_example_ensemble_respects_envelope(self):
        spec = mean_field_spec(n=2, sigma=0.5, sigma_z=0.2, alpha=1.8,
                               initial=[1.0, 2.0])
        grid = dyadic_partition(7, 1.0)
        hier = run_hierarchy_ensemble(spec, SchemeConfig(), grid, 200, 7, 4)
        # average drift: B = 0, L = 1/N, K = 0, so L' = a_bar * L * N = 1
        report = moment_bound_check(hier.levels, grid, a_bar=1.0, growth_b=0.0,
                                    growth_l=0.5, k_const=0.0)
        assert report.l_prime == pytest.approx(1.0)
        assert report.passed

    def test_block_reductions_match_the_whole_batch(self):
        # three blocks, merged in order, against one batch of all 600 paths
        spec = mean_field_spec(n=2, sigma=1.0, a=2.0, initial=[0.4, 0.8])
        grid = dyadic_partition(5, 1.0)
        hier = run_hierarchy_ensemble(spec, SchemeConfig(), grid, 600, 3, 3)
        whole = run_hierarchy_batch(spec, make_batch(grid, spec.noise_layout(), 3,
                                                     range(600)), SchemeConfig(), 3)
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
        hier = run_hierarchy_ensemble(spec, SchemeConfig(), grid, 50, 3, 3)
        small = moment_bound_check(hier.levels, grid, 1.0, 0.0, 0.5, 0.0)
        large = moment_bound_check(hier.levels, grid, 1.0, 0.0, 0.5, 0.5)
        assert np.all(large.envelope >= small.envelope)
        assert large.max_violation <= small.max_violation


class TestRefinementStudy:
    def test_rows_share_noise_and_report_statistics(self):
        spec = mean_field_spec(n=2, sigma=1.0, a=2.0, initial=[0.4, 0.8])
        rows = hierarchy_refinement_study(spec, SchemeConfig(), 1.0,
                                          [16, 32, 64], 50, 3, 3)
        assert [r.steps for r in rows] == [16, 32, 64]
        assert all(r.max_violation >= r.mean_sup_violation >= 0.0 for r in rows)
        assert all(0.0 <= r.violating_fraction <= 1.0 for r in rows)

    def test_rejects_non_dyadic_ladder(self):
        spec = mean_field_spec()
        with pytest.raises(ValueError):
            hierarchy_refinement_study(spec, SchemeConfig(), 1.0, [12, 24], 4, 0, 3)

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
        rows = hierarchy_refinement_study(spec, SchemeConfig(), 1.0, [16, 32], 20, 3, 3)
        assert len(rows) == 2
        for mode in ("realized", "nested-mc"):
            batch = make_batch(TimeGrid.uniform(1.0, 16), spec.noise_layout(), 3, range(4))
            hier = run_hierarchy_batch(spec, batch, SchemeConfig(), 3, mode=mode)
            assert len(hier.levels) == 3
        report = refinement_study(preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0),
                                  SchemeConfig(), 1.0, [16, 32], 20, 3)
        assert len(report.rows) == 2

    def test_mean_sup_violation_typically_decreases(self):
        # the ensemble mean of per-path sup violations is the stable trend
        # statistic (the max carries a step-size-insensitive excursion tail)
        spec = mean_field_spec(n=2, sigma=1.0, a=1.0, initial=[0.3, 0.8])
        rows = hierarchy_refinement_study(spec, SchemeConfig(), 1.0,
                                          [64, 128, 256], 400, 1, 5)
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
        for rung in hierarchy_refinement_study(spec, SchemeConfig(), 1.0, [64, 128],
                                               20, 1, 3):
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
                             [("realized", 64, 4, 40), ("nested-mc", 8, 3, 4)])
    def test_streamed_reductions_equal_the_list_form(self, mode, steps, n_max, n_paths):
        spec, cfg = self.spec(), SchemeConfig()
        batch = make_batch(TimeGrid.uniform(1.0, steps), spec.noise_layout(), 6,
                           range(n_paths))
        rungs = [batch.coarsen(2), batch]
        block = mfjump.approx._ladder_block(spec, n_max, mode, 2, 0, iter(rungs))
        assert len(block) == len(rungs)
        for (moments, pairs), rung in zip(block, rungs):
            levels = run_hierarchy_batch(spec, rung, cfg, n_max, mode=mode,
                                         n_inner=2).levels
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

    @pytest.mark.parametrize("mode", ["realized", "nested-mc"])
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
        mfjump.approx._ladder_block(spec, 4, mode, 2, 0, iter([batch]))
        assert len(alive) == 4 and max(alive) <= 2

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
            hierarchy_refinement_study(spec, SchemeConfig(), 1.0, [256, 512, 1024],
                                       256, 77, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert draw_bytes == 16 << 20
        assert peak < 1.5 * draw_bytes + 2 * level_bytes + (4 << 20)
