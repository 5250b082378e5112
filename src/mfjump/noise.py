"""Driving randomness: time grids, Brownian/stable increments, finite-activity events.

Every stream is keyed by (master_seed, path_index, stream kind, stream index)
through a ``SeedSequence`` spawn key, so generation is replayable per path and
independent of execution order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# stream-kind tags used in spawn keys
_KIND_BROWNIAN = 1
_KIND_STABLE = 2
_KIND_EVENTS = 3
_KIND_NESTED = 4


def stream_rng(master_seed: int, path_index: int, stream: Sequence[int]) -> np.random.Generator:
    """Deterministic generator for one (path, stream) pair.

    Distinct streams are statistically independent and may be drawn in any
    order; the same key always reproduces the same draws.
    """
    key = (int(path_index),) + tuple(int(s) for s in stream)
    return np.random.default_rng(np.random.SeedSequence(int(master_seed), spawn_key=key))


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sample times on [0, T], starting at 0."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least two points")
        if pts[0] != 0.0:
            raise ValueError("grid must start at 0")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")

    @classmethod
    def uniform(cls, horizon: float, steps: int) -> "TimeGrid":
        if steps < 1 or horizon <= 0:
            raise ValueError("need steps >= 1 and horizon > 0")
        return cls(np.linspace(0.0, float(horizon), steps + 1))

    @property
    def horizon(self) -> float:
        return float(self.points[-1])

    @property
    def n_steps(self) -> int:
        return self.points.size - 1

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.points)

    @property
    def mesh(self) -> float:
        return float(self.dt.max())

    def index_of(self, t: float) -> int:
        """Index of the largest grid point <= t."""
        if t < 0 or t > self.horizon:
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        return int(np.searchsorted(self.points, t, side="right")) - 1

    def refine_with(self, extra: Sequence[float]) -> "TimeGrid":
        """Grid augmented with extra sample times (e.g. staircase breakpoints)."""
        merged = np.union1d(self.points, np.asarray(extra, dtype=float))
        merged = merged[(merged >= 0.0) & (merged <= self.horizon)]
        return TimeGrid(merged)


@dataclass(frozen=True)
class JumpEvent:
    """One atom of a finite-activity random measure (single-path view)."""

    time: float
    mark: object
    measure_id: str


@dataclass(frozen=True)
class EventArrays:
    """The atoms of one finite-activity measure over a batch, as arrays.

    Event e lies on batch row ``rows[e]`` at time ``times[e]`` with mark
    ``marks[..., e]``: ``marks`` has shape ``(E,)`` for scalar marks and
    ``(d, E)`` for marks in R^d. Events are ordered by row, then by time.
    """

    rows: np.ndarray  # (E,) integer batch rows
    times: np.ndarray  # (E,)
    marks: np.ndarray  # (E,) or (d, E)

    def as_lists(self, n_rows: int, measure_id: str) -> list:
        """Per-row lists of ``JumpEvent``; marks in R^d become tuples."""
        marks = self.marks.T.tolist()
        if self.marks.ndim == 2:
            marks = [tuple(m) for m in marks]
        events = [JumpEvent(t, m, measure_id) for t, m in zip(self.times.tolist(), marks)]
        cuts = np.searchsorted(self.rows, np.arange(n_rows + 1))
        return [events[cuts[r]:cuts[r + 1]] for r in range(n_rows)]


@dataclass(frozen=True)
class MeasureSpec:
    """Finite-activity measure: total mass (event rate) plus a mark sampler.

    ``mark_sampler(rng, size)`` returns ``size`` i.i.d. marks as an array of
    shape ``(size,)``, or ``(d, size)`` for marks in R^d.
    """

    measure_id: str
    rate: float
    mark_sampler: Callable[[np.random.Generator, int], np.ndarray]


@dataclass(frozen=True)
class NoiseLayout:
    """Which factors a noise batch must carry.

    brownian_factors: sorted factor indices for B^0, B^1, ...
    stable_alphas:    {factor index: alpha} for the stable drivers Z^0, Z^1, ...
    measures:         finite-activity measures, keyed by measure_id.
    """

    brownian_factors: tuple = ()
    stable_alphas: dict = field(default_factory=dict)
    measures: tuple = ()


def _brownian_block(grid: TimeGrid, master_seed: int, paths: Sequence[int],
                    factor: int) -> np.ndarray:
    """(len(paths), n_steps) N(0, dt) increments of one factor, a stream per path."""
    out = np.empty((len(paths), grid.n_steps))
    for row, p in enumerate(paths):
        rng = stream_rng(master_seed, p, (_KIND_BROWNIAN, factor))
        out[row] = rng.standard_normal(grid.n_steps)
    out *= np.sqrt(grid.dt)
    return out


def _cms_standard(alpha: float, size, rng: np.random.Generator) -> np.ndarray:
    """Chambers-Mallows-Stuck draw of S_alpha(1, beta=1, 0), alpha in (1, 2)."""
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size)
    w = rng.standard_exponential(size)
    zeta = math.tan(math.pi * alpha / 2.0)
    b = math.atan(zeta) / alpha
    s = (1.0 + zeta * zeta) ** (1.0 / (2.0 * alpha))
    return (s * np.sin(alpha * (u + b)) / np.cos(u) ** (1.0 / alpha)
            * (np.cos(u - alpha * (u + b)) / w) ** ((1.0 - alpha) / alpha))


def _stable_standard(alpha: float, size, rng: np.random.Generator) -> np.ndarray:
    """Unscaled stable draws; ``_stable_scale`` turns them into increments."""
    if alpha == 2.0:
        return rng.standard_normal(size)
    return _cms_standard(alpha, size, rng)


def _stable_scale(alpha: float, dt: np.ndarray) -> np.ndarray:
    """Per-step factor dt^(1/alpha); at alpha = 2 the law is N(0, 2*dt)."""
    scale = dt ** (1.0 / alpha)
    return np.sqrt(2.0) * scale if alpha == 2.0 else scale


def _stable_block(grid: TimeGrid, alpha: float, master_seed: int, paths: Sequence[int],
                  factor: int) -> np.ndarray:
    """(len(paths), n_steps) stable increments of one factor, a stream per path."""
    if not 1.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (1, 2] (compensation needs alpha > 1)")
    out = np.empty((len(paths), grid.n_steps))
    for row, p in enumerate(paths):
        rng = stream_rng(master_seed, p, (_KIND_STABLE, factor))
        out[row] = _stable_standard(alpha, grid.n_steps, rng)
    out *= _stable_scale(alpha, grid.dt)
    return out


def gen_stable_increments(grid: TimeGrid, alpha: float, master_seed: int, path_index: int = 0,
                          factor: int = 0) -> np.ndarray:
    """Spectrally positive compensated stable increments, scale dt^(1/alpha) per step.

    Standard S_alpha(scale, beta=1, 0) in the one-parametrization, so the law
    is centered for alpha in (1, 2] and reduces to N(0, 2*dt) at alpha = 2.
    """
    return _stable_block(grid, alpha, master_seed, [path_index], factor)[0]


def _draw_events(rngs, rate: float, mark_sampler, horizon: float) -> EventArrays:
    """Poisson(rate * horizon) events per row, row r drawn from ``rngs[r]``:
    times uniform on [0, horizon) and sorted, marks i.i.d. from the sampler."""
    if not np.isfinite(rate) or rate < 0:
        raise ValueError("rate must be finite and non-negative")
    counts, times, marks = [], [], []
    for rng in rngs:
        count = int(rng.poisson(rate * horizon))
        counts.append(count)
        if count:
            times.append(np.sort(rng.uniform(0.0, horizon, count)))
            drawn = np.asarray(mark_sampler(rng, count))
            if drawn.ndim not in (1, 2) or drawn.shape[-1] != count:
                raise ValueError("mark_sampler(rng, size) must return an array "
                                 "of shape (size,) or (d, size)")
            marks.append(drawn)
    rows = np.repeat(np.arange(len(counts)), counts)
    if not times:
        return EventArrays(rows=rows, times=np.empty(0), marks=np.empty(0))
    return EventArrays(rows=rows, times=np.concatenate(times),
                       marks=np.concatenate(marks, axis=-1))


@dataclass(frozen=True)
class NoiseBatch:
    """The driving randomness of a block of paths, one row per path.

    Every stream of a row is keyed by the row's lineage, so a row holds the
    same draws in any block: a single path is the one-row batch
    ``make_batch(grid, layout, master_seed, [p])``, and batched and
    one-at-a-time solves agree bit for bit.
    """

    grid: TimeGrid
    brownian: dict  # factor -> (n_paths, n_steps)
    stable: dict  # factor -> (n_paths, n_steps)
    events: dict  # measure_id -> EventArrays over the rows
    lineages: tuple  # per row: (master_seed, path_index)

    @property
    def n_paths(self) -> int:
        return len(self.lineages)

    @property
    def jump_events(self) -> list:
        """Per row, ``{measure_id: [JumpEvent, ...]}``: a view built on
        demand from the event arrays, for inspection rather than hot paths."""
        per_measure = {mid: ev.as_lists(self.n_paths, mid)
                       for mid, ev in self.events.items()}
        return [{mid: lists[row] for mid, lists in per_measure.items()}
                for row in range(self.n_paths)]

    def coarsen(self, factor: int) -> "NoiseBatch":
        """Aggregate increments onto a grid that keeps every factor-th point.

        The coarse batch is driven by the same realization: Brownian and
        stable increments add pathwise, and jump events carry over unchanged.
        """
        if factor < 1 or self.grid.n_steps % factor:
            raise ValueError("coarsening factor must divide the step count")
        if factor == 1:
            return self
        agg = lambda a: a.reshape(a.shape[0], -1, factor).sum(axis=2)
        return NoiseBatch(grid=TimeGrid(self.grid.points[::factor]),
                          brownian={f: agg(v) for f, v in self.brownian.items()},
                          stable={f: agg(v) for f, v in self.stable.items()},
                          events=self.events, lineages=self.lineages)


def make_batch(grid: TimeGrid, layout: NoiseLayout, master_seed: int,
               path_indices: Sequence[int]) -> NoiseBatch:
    """Noise for the paths ``path_indices``, drawn straight into block arrays;
    every stream is keyed by its path's lineage, so a row does not depend on
    the other paths of the block."""
    paths = list(path_indices)
    if not paths:
        raise ValueError("need at least one path")
    events = {}
    for idx, ms in enumerate(layout.measures):
        rngs = (stream_rng(master_seed, p, (_KIND_EVENTS, idx)) for p in paths)
        events[ms.measure_id] = _draw_events(rngs, ms.rate, ms.mark_sampler,
                                             grid.horizon)
    return NoiseBatch(
        grid=grid,
        brownian={fac: _brownian_block(grid, master_seed, paths, fac)
                  for fac in layout.brownian_factors},
        stable={fac: _stable_block(grid, alpha, master_seed, paths, fac)
                for fac, alpha in sorted(layout.stable_alphas.items())},
        events=events,
        lineages=tuple((master_seed, p) for p in paths))
