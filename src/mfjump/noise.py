"""Driving randomness: time grids, Brownian/stable increments, finite-activity events.

Every stream is keyed by (master_seed, path_index, stream kind, stream index):
it is numpy's ``default_rng(SeedSequence(master_seed, spawn_key=(path_index,
kind, index)))`` PCG64 stream, so generation is replayable per path and
independent of execution order. ``draw_rows`` seeds a whole block of paths at
once: it hashes every path's spawn key in one vectorised pass and reseeds a
single generator per row, with the same draws as per-path ``SeedSequence``s.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# stream-kind tags used in spawn keys
_KIND_BROWNIAN = 1
_KIND_STABLE = 2
_KIND_EVENTS = 3

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's LCG
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _words(n: int) -> list:
    """The little-endian uint32 words SeedSequence splits an integer into."""
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _pcg64_states(entropy: np.ndarray) -> list:
    """PCG64 ``(state, inc)`` of ``default_rng(SeedSequence)`` for each row of
    a (P, L) uint32 assembled-entropy array: SeedSequence's pool mix and
    ``generate_state(4, np.uint64)`` on the columns, then PCG64's srandom."""
    const = _INIT_A

    def hashmix(v):
        nonlocal const
        v = v ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        v = v * np.uint32(const)
        return v ^ (v >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ (r >> np.uint32(16))

    cols = list(entropy.T)
    pool = [hashmix(c) for c in cols[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for c in cols[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(c))
    const, words = _INIT_B, []
    for i in range(8):
        v = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        v = v * np.uint32(const)
        words.append((v ^ (v >> np.uint32(16))).astype(np.uint64))
    # generate_state's uint64 words (uint32 pairs read little-endian) are the
    # high and low halves of PCG64's seed, then of its increment
    s_hi, s_lo, i_hi, i_lo = ((words[2 * i] | words[2 * i + 1] << np.uint64(32)).tolist()
                              for i in range(4))
    states = []
    for sh, sl, ih, il in zip(s_hi, s_lo, i_hi, i_lo):
        inc = ((ih << 64 | il) << 1 | 1) & _MASK128
        states.append((((inc + (sh << 64 | sl)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def draw_rows(master_seed: int, paths: Sequence[int], stream: Sequence[int],
              fn: Callable[[np.random.Generator], object]) -> list:
    """``[fn(rng) for each path]``, where for path p ``rng`` draws bit for bit
    as ``default_rng(SeedSequence(master_seed, spawn_key=(p,) + stream))``.

    One generator is reseeded in place for each row, so ``rng`` is valid only
    inside its ``fn`` call.
    """
    head = _words(master_seed)
    head += [0] * (_POOL_SIZE - len(head))  # SeedSequence pads before a spawn key
    tail = [w for s in stream for w in _words(s)]
    paths = [int(p) for p in paths]
    if paths and (min(paths) < 0 or max(paths) >> 64):
        raise ValueError("path indices must lie in [0, 2^64)")
    words = np.array(paths, dtype=np.uint64).reshape(-1, 1) >> np.uint64([0, 32])
    words = (words & np.uint64(_MASK32)).astype(np.uint32)  # (P, 2): low, high
    states = [None] * len(paths)
    # path indices of 2^32 and more take two words, so they hash a longer key
    for rows, width in ((np.flatnonzero(words[:, 1] == 0), 1),
                        (np.flatnonzero(words[:, 1]), 2)):
        if rows.size:
            entropy = np.hstack([np.tile(np.array(head, np.uint32), (rows.size, 1)),
                                 words[rows, :width],
                                 np.tile(np.array(tail, np.uint32), (rows.size, 1))])
            for row, state in zip(rows.tolist(), _pcg64_states(entropy)):
                states[row] = state
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)
    out = []
    for state, inc in states:
        bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
        out.append(fn(rng))
    return out


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

    def index_of(self, t: float) -> int:
        """Index of the largest grid point <= t."""
        if t < 0 or t > self.horizon:
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        return int(np.searchsorted(self.points, t, side="right")) - 1


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


def _event_draw(rate: float, mark_sampler, horizon: float):
    """The row draw of one measure, for ``draw_rows``: Poisson(rate * horizon)
    events with times uniform on [0, horizon) and sorted, marks i.i.d. from
    the sampler. A row yields ``(times, marks)``, or None without events.
    The times are ``horizon * u`` scaled and sorted in place, bit for bit
    ``np.sort(rng.uniform(0.0, horizon, count))``, which computes
    ``0.0 + horizon * u`` from the same stream words."""
    if not np.isfinite(rate) or rate < 0:
        raise ValueError("rate must be finite and non-negative")

    def draw(rng):
        count = int(rng.poisson(rate * horizon))
        if not count:
            return None
        times = rng.random(count)
        times *= horizon
        times.sort()
        marks = np.asarray(mark_sampler(rng, count))
        if marks.ndim not in (1, 2) or marks.shape[-1] != count:
            raise ValueError("mark_sampler(rng, size) must return an array "
                             "of shape (size,) or (d, size)")
        return times, marks
    return draw


def _event_arrays(drawn: list) -> EventArrays:
    """Row r's ``_event_draw`` result ``drawn[r]``, stacked into one EventArrays."""
    counts = [0 if d is None else d[0].size for d in drawn]
    rows = np.repeat(np.arange(len(drawn)), counts)
    hits = [d for d in drawn if d is not None]
    if not hits:
        return EventArrays(rows=rows, times=np.empty(0), marks=np.empty(0))
    return EventArrays(rows=rows, times=np.concatenate([t for t, _ in hits]),
                       marks=np.concatenate([m for _, m in hits], axis=-1))


class FactorDraws(Mapping):
    """The draws of one kind of factor: ``array`` is the (F, rows, n_steps)
    draw, and ``draws[f]`` is a view of its row ``factors.index(f)``."""

    def __init__(self, factors, array: np.ndarray):
        self.factors, self.array = tuple(factors), array
        self._row = {f: i for i, f in enumerate(self.factors)}

    def __getitem__(self, f) -> np.ndarray:
        return self.array[self._row[f]]

    def __iter__(self):
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def rows(self, fs) -> np.ndarray:
        """The draws of the factors ``fs``, one per leading index: one factor's
        own array, a slice when the factors are adjacent rows of ``array`` in
        order, or else a copy."""
        if len(fs) == 1:
            return self[fs[0]]
        idx = [self._row[f] for f in fs]
        if idx == list(range(idx[0], idx[0] + len(idx))):
            return self.array[idx[0]:idx[0] + len(idx)]
        return self.array[idx]


def _window_sums(a: np.ndarray, factor: int) -> np.ndarray:
    """The sums of consecutive ``factor``-step windows of ``a`` (..., K), bit
    for bit ``a.reshape(..., K // factor, factor).sum(-1)``, as adds of whole
    strided step columns: a sum over a tiny last axis costs a numpy loop call
    per window. numpy's sum starts at +0.0, which turns a -0.0 sum into +0.0."""
    out = _pairwise_columns(a, factor, 0, factor)
    out += 0.0
    return out


def _pairwise_columns(a: np.ndarray, factor: int, lo: int, n: int) -> np.ndarray:
    """The sum of the step columns ``a[..., j::factor]`` for j in [lo, lo + n),
    added in the order of numpy's pairwise sum of a contiguous run: term by
    term below 8 terms, 8 running sums joined as a tree up to 128, and halves
    above. A module function, not a closure: a recursive closure is a
    reference cycle, which would keep ``a`` alive until the cyclic collector
    runs."""
    if n < 8:
        out = a[..., lo::factor].copy()
        for j in range(lo + 1, lo + n):
            out += a[..., j::factor]
        return out
    if n <= 128:
        r = [a[..., lo + j::factor].copy() for j in range(8)]
        tail = lo + n - n % 8
        for i in range(lo + 8, tail, 8):
            for j in range(8):
                r[j] += a[..., i + j::factor]
        out = (r[0] + r[1]) + (r[2] + r[3])
        out += (r[4] + r[5]) + (r[6] + r[7])
        for j in range(tail, lo + n):
            out += a[..., j::factor]
        return out
    half = n // 2 - n // 2 % 8
    return (_pairwise_columns(a, factor, lo, half)
            + _pairwise_columns(a, factor, lo + half, n - half))


@dataclass(frozen=True)
class NoiseBatch:
    """The driving randomness of a block of paths, one row per path.

    Every stream of a row is keyed by the row's lineage, so a row holds the
    same draws in any block: a single path is the one-row batch
    ``make_batch(grid, layout, master_seed, [p])``, and batched and
    one-at-a-time solves agree bit for bit.
    """

    grid: TimeGrid
    brownian: FactorDraws  # factor -> (n_paths, n_steps)
    stable: FactorDraws
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
        agg = lambda d: FactorDraws(d.factors, _window_sums(d.array, factor))
        return NoiseBatch(grid=TimeGrid(self.grid.points[::factor]),
                          brownian=agg(self.brownian), stable=agg(self.stable),
                          events=self.events, lineages=self.lineages)


def make_batch(grid: TimeGrid, layout: NoiseLayout, master_seed: int,
               path_indices: Sequence[int]) -> NoiseBatch:
    """Noise for the paths ``path_indices``, drawn straight into block arrays;
    every stream is keyed by its path's lineage, so a row does not depend on
    the other paths of the block."""
    paths = list(path_indices)
    if not paths:
        raise ValueError("need at least one path")

    alphas = dict(sorted(layout.stable_alphas.items()))
    if not all(1.0 < alpha <= 2.0 for alpha in alphas.values()):
        raise ValueError("alpha must lie in (1, 2] (compensation needs alpha > 1)")

    def stacked(kind, factors, fill, scale):
        """Every factor's scaled draws in one (F, rows, n_steps) array; path
        p's draws fill its row of each factor's."""
        out = np.empty((len(factors), len(paths), grid.n_steps))
        for fac, arr in zip(factors, out):
            rows = iter(arr)
            draw_rows(master_seed, paths, (kind, fac), lambda rng: fill(rng, fac, next(rows)))
            arr *= scale(fac)
        return FactorDraws(factors, out)

    def fill_stable(rng, fac, row):
        row[...] = _stable_standard(alphas[fac], grid.n_steps, rng)

    brownian = stacked(_KIND_BROWNIAN, layout.brownian_factors,
                       lambda rng, _fac, row: rng.standard_normal(out=row),
                       lambda _fac: np.sqrt(grid.dt))
    stable = stacked(_KIND_STABLE, list(alphas), fill_stable,
                     lambda fac: _stable_scale(alphas[fac], grid.dt))
    events = {}
    for idx, ms in enumerate(layout.measures):
        draw = _event_draw(ms.rate, ms.mark_sampler, grid.horizon)
        events[ms.measure_id] = _event_arrays(
            draw_rows(master_seed, paths, (_KIND_EVENTS, idx), draw))
    return NoiseBatch(grid=grid, brownian=brownian, stable=stable, events=events,
                      lineages=tuple((master_seed, p) for p in paths))


def gen_stable_increments(grid: TimeGrid, alpha: float, master_seed: int) -> np.ndarray:
    """Spectrally positive compensated stable increments, scale dt^(1/alpha) per step.

    Standard S_alpha(scale, beta=1, 0) in the one-parametrization, so the law
    is centered for alpha in (1, 2] and reduces to N(0, 2*dt) at alpha = 2.
    """
    return make_batch(grid, NoiseLayout(stable_alphas={0: alpha}), master_seed, [0]).stable[0][0]
