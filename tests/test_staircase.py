import numpy as np
import pytest

from _helpers import lattice_path
from mfjump import (CadlagPath, TimeGrid, envelope, grid_modulus, lower_staircase,
                    upper_staircase)
from mfjump.staircase import envelope_rows


def dyadic_grid(steps=128, horizon=1.0):
    return TimeGrid.uniform(horizon, steps)


class TestLowerStaircase:
    def test_constant_path(self):
        # only the +1/n clause fires: breakpoints every 1/n
        g = dyadic_grid(64)
        st = lower_staircase(CadlagPath.constant(g, 5.0), 2)
        assert np.array_equal(st.breakpoints, [0.0, 0.5, 1.0])
        assert np.array_equal(st.levels, [4.5, 4.5])

    def test_increasing_path_single_interval(self):
        # b(t) = t: the inequality never fires at n=1, level stays -1
        g = dyadic_grid(64)
        b = CadlagPath(g, g.points.copy())
        st = lower_staircase(b, 1)
        assert np.array_equal(st.breakpoints, [0.0, 1.0])
        assert np.array_equal(st.levels, [-1.0])

    def test_decreasing_path(self):
        # b(t) = 1 - t at n=2: level 0.5 on [0, 0.5), 0 on [0.5, 1)
        g = dyadic_grid(64)
        b = CadlagPath(g, 1.0 - g.points)
        st = lower_staircase(b, 2)
        assert np.array_equal(st.breakpoints, [0.0, 0.5, 1.0])
        assert np.array_equal(st.levels, [0.5, 0.0])

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            lower_staircase(CadlagPath.constant(dyadic_grid(8), 1.0), 0)


class TestUpperStaircase:
    def test_constant_path(self):
        g = TimeGrid.uniform(0.5, 32)
        st = upper_staircase(CadlagPath.constant(g, 5.0))
        assert np.array_equal(st.breakpoints, [0.0, 0.5])
        assert np.array_equal(st.levels, [6.0])

    def test_ramp_advances_where_b_rises_past_level(self):
        # b(t) = 2t: the first grid point with 2t > 1 sits one mesh past 0.5
        g = dyadic_grid(64)
        b = CadlagPath(g, 2.0 * g.points)
        st = upper_staircase(b)
        mesh = float(g.dt.max())
        assert 0.5 <= st.breakpoints[1] <= 0.5 + mesh
        assert st.levels[0] == 1.0
        assert abs(st.levels[1] - 2.0) <= 2.0 * mesh

    def test_dominates_path_on_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            b = lattice_path(rng, dyadic_grid(128))
            st = upper_staircase(b)
            assert np.all(st.evaluate(b.grid.points) >= b.values)


class TestEnvelope:
    def test_zero_floor(self):
        # b(t) = t at n=1: the staircase sits at -1, the floor wins
        g = dyadic_grid(32)
        env = envelope(CadlagPath(g, g.points.copy()), 1)
        assert np.array_equal(env.evaluate(g.points), np.zeros(g.points.size))

    def test_constant_path_best_level(self):
        g = dyadic_grid(32)
        env = envelope(CadlagPath.constant(g, 5.0), 10)
        assert np.array_equal(env.evaluate(g.points),
                              np.full(g.points.size, 5.0 - 1.0 / 10))

    def test_monotone_in_level(self):
        rng = np.random.default_rng(11)
        g = dyadic_grid(128)
        for _ in range(10):
            b = lattice_path(rng, g)
            prev = envelope(b, 1).evaluate(g.points)
            for n in range(2, 6):
                cur = envelope(b, n).evaluate(g.points)
                assert np.all(cur >= prev)
                prev = cur


class TestEnvelopeRows:
    """``envelope_rows`` moves the staircases of all rows in one pass over the
    grid. It must equal ``envelope`` evaluated at the step starts, bit for bit."""

    @staticmethod
    def assert_rows_equal_envelope(grid, rows, levels):
        for n in levels:
            got = envelope_rows(rows, grid.points, n)
            for row, env in zip(rows, got):
                assert np.array_equal(
                    env, envelope(CadlagPath(grid, row), n).evaluate(grid.points[:-1]))

    def test_criterion_4_lattice_paths(self):
        # the 100 paths of acceptance criterion 4, drawn the same way
        rng = np.random.default_rng(4)
        grid = TimeGrid.uniform(1.0, 128)
        rows = np.stack([lattice_path(rng, grid, n_jumps=int(rng.integers(0, 5))).values
                         for _ in range(100)])
        self.assert_rows_equal_envelope(grid, rows, range(1, 9))

    @pytest.mark.parametrize("horizon, steps", [(8.0, 16), (3.0, 8), (1.0, 64), (0.7, 32)])
    def test_random_walks(self, horizon, steps):
        grid = TimeGrid.uniform(horizon, steps)
        rows = np.cumsum(np.random.default_rng(steps).standard_normal((30, steps + 1)),
                         axis=1)
        self.assert_rows_equal_envelope(grid, rows, (1, 3, 5, 7))

    def test_caps_fall_inside_a_step(self):
        # on 8 / 16 a 1/7 cap is shorter than the 0.5 step: a row falls more
        # than once inside one step, and the rule still matches
        grid = TimeGrid.uniform(8.0, 16)
        rows = np.full((1, 17), 2.0)
        bps = lower_staircase(CadlagPath(grid, rows[0]), 7).breakpoints
        inside = np.searchsorted(grid.points, bps[~np.isin(bps, grid.points)])
        assert np.bincount(inside).max() >= 2
        self.assert_rows_equal_envelope(grid, rows, (7,))

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            envelope_rows(np.zeros((1, 9)), dyadic_grid(8).points, 0)


class TestExactInequalities:
    def test_lattice_paths_all_exact(self):
        rng = np.random.default_rng(7)
        g = dyadic_grid(128)
        for _ in range(20):
            b = lattice_path(rng, g)
            for n in range(1, 9):
                lo = lower_staircase(b, n).evaluate(g.points)
                assert np.all(lo <= b.values)
                env = envelope(b, n).evaluate(g.points)
                assert np.all(env <= b.values)
                assert np.all(env >= 0.0)
            up = upper_staircase(b).evaluate(g.points)
            assert np.all(up >= b.values)

    def test_gap_bound_exact_for_dyadic_levels(self):
        rng = np.random.default_rng(13)
        g = dyadic_grid(128)
        for _ in range(10):
            b = lattice_path(rng, g)
            for n in (1, 2, 4, 8):
                env = envelope(b, n).evaluate(g.points)
                osc, mask = grid_modulus(b, 1.0 / n, jump_free=True)
                gaps = b.values[mask] - env[mask]
                assert np.all(gaps <= 1.0 / n + osc)


class TestDiagnostics:
    """Gap, overshoot and breakpoint-count properties of the envelope
    construction, read off the staircases and the grid modulus."""

    def test_constant_gap_formula(self):
        # envelope of b = c is max(0, c - 1/n), so the gap is min(c, 1/n)
        g = dyadic_grid(64)
        for c, n in ((5.0, 2), (0.125, 4), (0.0625, 1)):
            b = CadlagPath.constant(g, c)
            env = envelope(b, n).evaluate(g.points)
            _osc, mask = grid_modulus(b, 1.0 / n, jump_free=True)
            assert (b.values[mask] - env[mask]).max() == min(c, 1.0 / n)
            assert np.maximum(env - b.values, 0.0).max() == 0.0

    def test_continuous_path_gap_trend(self):
        # smooth path: the gap shrinks with the level, staying under the bound
        g = dyadic_grid(256)
        b = CadlagPath(g, 1.0 + 0.5 * np.sin(2 * np.pi * g.points))
        gaps = []
        for n in range(1, 9):
            env = envelope(b, n).evaluate(g.points)
            osc, mask = grid_modulus(b, 1.0 / n, jump_free=True)
            gaps.append((b.values[mask] - env[mask]).max())
            assert gaps[-1] <= 1.0 / n + osc
        assert gaps[-1] <= gaps[0]
        assert all(np.diff(gaps) <= 1e-12)

    def test_breakpoint_counts_finite(self):
        rng = np.random.default_rng(3)
        g = dyadic_grid(128)
        for _ in range(10):
            b = lattice_path(rng, g)
            for n in range(1, 7):
                # each interval advances by a grid step or by 1/n
                assert lower_staircase(b, n).breakpoints.size <= g.n_steps + n + 2
