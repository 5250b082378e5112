"""Cadlag sample paths on a grid and piecewise-constant staircases."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import TimeGrid


@dataclass(frozen=True)
class CadlagPath:
    """Right-continuous path sampled on a grid, with a registry of jump events.

    Between grid points the path is treated as constant on [t_k, t_{k+1})
    (Euler semantics). ``jumps`` records (time, left limit, right value) for
    discontinuities, including ones that fall between grid points.
    """

    grid: TimeGrid
    values: np.ndarray
    jumps: tuple = ()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != self.grid.points.shape:
            raise ValueError("one value per grid point required")

    @property
    def horizon(self) -> float:
        return self.grid.horizon

    def evaluate(self, t: float) -> float:
        """Right-continuous value at t; consults the jump registry at exact jump times."""
        for time, _left, right in self.jumps:
            if time == t:
                return right
        return float(self.values[self.grid.index_of(t)])

    @classmethod
    def constant(cls, grid: TimeGrid, value: float) -> "CadlagPath":
        return cls(grid, np.full(grid.points.size, float(value)))


@dataclass(frozen=True)
class StaircasePath:
    """Piecewise-constant right-continuous path.

    ``levels[k]`` holds on [breakpoints[k], breakpoints[k+1]); the value at the
    final time equals the last level.
    """

    breakpoints: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        lv = np.asarray(self.levels, dtype=float)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "levels", lv)
        if bp.size < 2 or bp[0] != 0.0 or not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must strictly increase from 0 to T")
        if lv.size != bp.size - 1:
            raise ValueError("need one level per interval")

    @property
    def horizon(self) -> float:
        return float(self.breakpoints[-1])

    def evaluate(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0) or np.any(t_arr > self.horizon):
            raise ValueError("time outside [0, T]")
        idx = np.searchsorted(self.breakpoints, t_arr, side="right") - 1
        idx = np.minimum(idx, self.levels.size - 1)
        out = self.levels[idx]
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def pointwise_max(paths) -> StaircasePath:
    """Pointwise maximum of staircases; breakpoints are the union of inputs."""
    paths = list(paths)
    if not paths:
        raise ValueError("need at least one staircase")
    horizon = paths[0].horizon
    for p in paths:
        if p.horizon != horizon:
            raise ValueError("staircases must share the horizon")
    bp = paths[0].breakpoints
    for p in paths[1:]:
        bp = np.union1d(bp, p.breakpoints)
    starts = bp[:-1]
    levels = paths[0].evaluate(starts)
    for p in paths[1:]:
        levels = np.maximum(levels, p.evaluate(starts))
    return StaircasePath(bp, levels)
