"""Piecewise-constant lower/upper approximations of a cadlag drift process.

The recursion's stopping times are realized as minima over grid samples: the
infimum is attained at the first grid point satisfying the inequality, and
the 1/n cap keeps every interval shorter than 1/n.
"""
from __future__ import annotations

import numpy as np

from .paths import CadlagPath, StaircasePath, pointwise_max


def lower_staircase(b: CadlagPath, n: int) -> StaircasePath:
    """Level b(t_k) - 1/n on [t_k, t_{k+1}); breakpoints advance at the first
    grid time where the level overshoots b, capped at t_k + 1/n."""
    if n < 1:
        raise ValueError("level must be at least 1")
    step = 1.0 / n
    return _staircase(b, step_cap=step,
                      fires=lambda level, values: level - step > values,
                      level_of=lambda value: value - step)


def upper_staircase(b: CadlagPath) -> StaircasePath:
    """Level b(s_k) + 1 on [s_k, s_{k+1}); advances where b climbs past it."""
    return _staircase(b, step_cap=1.0,
                      fires=lambda level, values: level + 1.0 < values,
                      level_of=lambda value: value + 1.0)


def _staircase(b: CadlagPath, step_cap: float, fires, level_of) -> StaircasePath:
    horizon = b.horizon
    pts = b.grid.points
    breakpoints, levels = [0.0], []
    t_k = 0.0
    while t_k < horizon:
        anchor = b.evaluate(t_k)
        levels.append(level_of(anchor))
        # first grid point strictly beyond t_k where the inequality fires
        start = int(np.searchsorted(pts, t_k, side="right"))
        hit = np.flatnonzero(fires(anchor, b.values[start:]))
        t_fire = float(pts[start + hit[0]]) if hit.size else np.inf
        t_next = min(t_fire, t_k + step_cap, horizon)
        breakpoints.append(t_next)
        t_k = t_next
    return StaircasePath(np.array(breakpoints), np.array(levels))


def envelope(b: CadlagPath, n: int) -> StaircasePath:
    """Pointwise max of the zero path and the lower staircases of levels 1..n."""
    if n < 1:
        raise ValueError("level must be at least 1")
    zero = StaircasePath(np.array([0.0, b.horizon]), np.array([0.0]))
    return pointwise_max([zero] + [lower_staircase(b, m) for m in range(1, n + 1)])


def grid_modulus(b: CadlagPath, window: float, jump_free: bool = True):
    """Max |b(s) - b(s')| over grid pairs with |s - s'| <= window.

    With ``jump_free`` the max runs only over pairs whose closed span contains
    no registered jump, and the returned mask marks grid points whose trailing
    window is jump-free.
    """
    pts = b.grid.points
    vals = b.values
    jump_times = np.array(sorted(t for t, _l, _r in b.jumps))
    osc = 0.0
    mask = np.ones(pts.size, dtype=bool)
    for j in range(pts.size):
        lo = pts[j] - window
        i0 = int(np.searchsorted(pts, lo, side="left"))
        if jump_free and jump_times.size:
            k0 = np.searchsorted(jump_times, lo, side="left")
            k1 = np.searchsorted(jump_times, pts[j], side="right")
            if k1 > k0:
                mask[j] = False
                continue
        if j > i0:
            osc = max(osc, float(np.abs(vals[i0:j + 1] - vals[j]).max()))
    return osc, mask

