import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfjump import CadlagPath, StaircasePath, TimeGrid, pointwise_max


def grid(steps=8, horizon=1.0):
    return TimeGrid.uniform(horizon, steps)


class TestCadlagPath:
    def test_constant_evaluate(self):
        p = CadlagPath.constant(grid(), 3.5)
        for t in (0.0, 0.37, 1.0):
            assert p.evaluate(t) == 3.5

    def test_jump_right_continuity_and_left_limit(self):
        g = grid(2)  # points 0, 0.5, 1
        p = CadlagPath(g, np.array([1.0, 3.0, 3.0]), jumps=((0.5, 1.0, 3.0),))
        assert p.evaluate(0.5) == 3.0
        assert p.evaluate(0.49) == 1.0

    def test_off_grid_jump_registry(self):
        g = grid(2)
        p = CadlagPath(g, np.array([1.0, 4.0, 4.0]), jumps=((0.3, 1.0, 4.0),))
        assert p.evaluate(0.3) == 4.0
        # between grid points the path is constant from the left grid point
        assert p.evaluate(0.2) == 1.0

    def test_rejects_out_of_range(self):
        p = CadlagPath.constant(grid(), 0.0)
        with pytest.raises(ValueError):
            p.evaluate(1.5)
        with pytest.raises(ValueError):
            p.evaluate(-0.1)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            CadlagPath(grid(4), np.zeros(3))


class TestStaircase:
    def test_evaluate_half_open(self):
        s = StaircasePath(np.array([0.0, 0.5, 1.0]), np.array([1.0, 3.0]))
        assert s.evaluate(0.0) == 1.0
        assert s.evaluate(0.49) == 1.0
        assert s.evaluate(0.5) == 3.0
        assert s.evaluate(1.0) == 3.0

    def test_rejects_bad_breakpoints(self):
        with pytest.raises(ValueError):
            StaircasePath(np.array([0.1, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            StaircasePath(np.array([0.0, 0.5, 1.0]), np.array([1.0]))

    def test_right_continuous_at_breakpoints(self):
        s = StaircasePath(np.array([0.0, 0.25, 0.5, 1.0]),
                          np.array([1.0, -2.0, 4.0]))
        for t in (0.0, 0.25, 0.5):
            for eps in (1e-3, 1e-6, 1e-9):
                assert s.evaluate(t + eps) == s.evaluate(t)

    def test_cadlag_right_continuous_on_refinements(self):
        g = grid(4)
        p = CadlagPath(g, np.array([1.0, 3.0, 3.0, 0.5, 0.5]),
                       jumps=((0.25, 1.0, 3.0),))
        for t in g.points[:-1]:
            for eps in (1e-4, 1e-7, 1e-10):
                assert p.evaluate(float(t) + eps) == p.evaluate(float(t))


class TestPointwiseMax:
    def test_zero_floor_dominates_nonpositive(self):
        zero = StaircasePath(np.array([0.0, 1.0]), np.array([0.0]))
        s = StaircasePath(np.array([0.0, 0.25, 1.0]), np.array([-1.0, -0.5]))
        out = pointwise_max([zero, s])
        ts = np.linspace(0, 1, 33)
        assert np.array_equal(out.evaluate(ts), np.zeros(33))
        # breakpoints are the union of the inputs
        assert np.array_equal(out.breakpoints, [0.0, 0.25, 1.0])

    def test_idempotent(self):
        s = StaircasePath(np.array([0.0, 0.3, 1.0]), np.array([2.0, 0.5]))
        out = pointwise_max([s, s])
        ts = np.linspace(0, 1, 33)
        assert np.array_equal(out.evaluate(ts), s.evaluate(ts))

    def test_two_staircase_example(self):
        # enumerate the intervals: max is 2 on [0, 0.5) and 3 on [0.5, 1)
        s1 = StaircasePath(np.array([0.0, 0.5, 1.0]), np.array([1.0, 3.0]))
        s2 = StaircasePath(np.array([0.0, 1.0]), np.array([2.0]))
        out = pointwise_max([s1, s2])
        assert out.evaluate(0.25) == 2.0
        assert out.evaluate(0.75) == 3.0

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            pointwise_max([])
        s1 = StaircasePath(np.array([0.0, 1.0]), np.array([1.0]))
        s2 = StaircasePath(np.array([0.0, 2.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            pointwise_max([s1, s2])

    @staticmethod
    def _staircases(draw_levels):
        # staircases on [0, 1] with dyadic breakpoints
        return st.builds(
            lambda cuts, levels: StaircasePath(
                np.array([0.0] + sorted(set(cuts)) + [1.0]),
                np.array(levels[:len(set(cuts)) + 1])),
            st.lists(st.sampled_from([0.125, 0.25, 0.375, 0.5, 0.75]),
                     min_size=0, max_size=3),
            st.lists(draw_levels, min_size=4, max_size=4))

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_algebra_properties(self, data):
        levels = st.integers(min_value=-8, max_value=8).map(float)
        s = TestPointwiseMax._staircases(levels)
        s1, s2, s3 = data.draw(s), data.draw(s), data.draw(s)
        ts = np.linspace(0, 1, 65)
        ab = pointwise_max([s1, s2]).evaluate(ts)
        ba = pointwise_max([s2, s1]).evaluate(ts)
        assert np.array_equal(ab, ba)
        abc1 = pointwise_max([pointwise_max([s1, s2]), s3]).evaluate(ts)
        abc2 = pointwise_max([s1, pointwise_max([s2, s3])]).evaluate(ts)
        assert np.array_equal(abc1, abc2)
