"""Constructive approximation hierarchy: dyadic partitions, interval-infimum
drifts, the level recursion, and its diagnostics.

All levels of one hierarchy share a single noise realization; the infimum
drifts are minima over grid samples, so the subset inequality between
consecutive levels holds exactly whenever the level paths are ordered.

Ensembles run in one pass over fixed path blocks. ``system.map_blocks`` draws
a block's noise once, on the finest rung of a step ladder; the block solves
the hierarchy on that draw coarsened onto every rung and returns only
reductions: per-level path moments, per-pair ordering statistics and per-path
sup gaps, which the parent merges in block order. A block reduces each level
as soon as it is built and drops the one before. Of full-grid size it holds
only its noise draw and two levels' values: a ``realized`` level's forcing is
one row per partition interval, and the interval infima, the pair statistics
and the moments are taken a column slice or a component at a time. A single
grid is the one-rung ladder.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .coeffs import SystemSpec, drift_values
from .noise import NoiseBatch, TimeGrid, make_batch
from .solver import Forcing, SchemeConfig, solve_batch
from .system import _chan_merge, _mean_se, _moments, map_blocks

MODES = ("realized", "nested-mc")
_BLOCK = 256  # paths per hierarchy block; independent of --jobs
_SLICE = 64  # grid columns per drift evaluation in _interval_infima


def dyadic_partition(n: int, horizon: float) -> TimeGrid:
    """Level-n halving grid: the uniform grid of 2^(n-1) intervals. Point i of
    a power-of-two grid is i * (horizon / 2^m), and halving the step is exact,
    so coarser partitions are exact subsets of finer ones."""
    return TimeGrid.uniform(horizon, 2 ** (n - 1))


def _partition_indices(grid: TimeGrid, partition: TimeGrid) -> np.ndarray:
    idx = np.searchsorted(grid.points, partition.points)
    ok = bool(np.all(idx < grid.points.size)) and \
        np.array_equal(grid.points[np.minimum(idx, grid.points.size - 1)],
                       partition.points)
    if not ok:
        raise ValueError("partition points must coincide with grid points "
                         "(use a dyadic simulation grid)")
    return idx


def _interval_infima(drifts, points, values: np.ndarray, part_idx: np.ndarray) -> np.ndarray:
    """Min of every drift along the paths ``values`` (N, P, K+1) over the
    closed index span of each partition interval: (N, P, n_int). Drifts that
    share a mean-field fn share one evaluation and one set of minima. A span
    is evaluated ``_SLICE`` columns at a time and the slice minima folded, so
    no (P, K+1) drift array is held; a min is exact, so the slices move no bit."""
    groups = {}  # evaluation key -> the drifts it gives
    for i, drift in enumerate(drifts):
        key = ("fn", id(drift.fn)) if drift.kind == "mean-field" else ("row", i)
        groups.setdefault(key, []).append(i)
    out = np.empty(values.shape[:2] + (part_idx.size - 1,))
    for members in groups.values():
        drift = [drifts[members[0]]]
        for k in range(part_idx.size - 1):
            lo, hi = part_idx[k], part_idx[k + 1] + 1
            low = None
            for c0 in range(lo, hi, _SLICE):
                c1 = min(c0 + _SLICE, hi)
                dv = drift_values(drift, points[c0:c1], values[:, :, c0:c1])[0]
                low = dv.min(axis=1) if low is None else np.minimum(low, dv.min(axis=1))
            out[members, :, k] = low
    return out


@dataclass
class LevelBatch:
    """One approximation level over a whole path batch."""

    n: int
    partition: TimeGrid
    part_idx: np.ndarray  # indices of partition points in the simulation grid
    inf_drifts: np.ndarray  # (N, P, 2^(n-1)) interval infima along this level's paths
    values: np.ndarray  # (N, P, K+1) level paths on the simulation grid
    forcing: object  # drift forcing of this level, read as (N, P, K); None once dropped


def _nested_forcing(spec, prev: LevelBatch, batch: NoiseBatch, n_inner: int,
                    drift_vals: np.ndarray) -> np.ndarray:
    """Adapted estimate of E[b^{i,n}_k | F_s] at every step s by branching
    n_inner fresh continuations of the level-n system at s. One solve per
    step covers the branches of every path: inner row p * n_inner + m is
    branch m of path p, keyed under that path's lineage, so a path's branches
    do not depend on the others."""
    if n_inner < 1:
        raise ValueError("nested-mc needs at least one inner branch")
    grid = batch.grid
    pts = grid.points
    n_comp, n_paths, _ = prev.values.shape
    forcing = np.empty((n_comp, n_paths, grid.n_steps))
    layout = spec.noise_layout()
    (master,) = {seed for seed, _ in batch.lineages}  # a batch has one master seed
    paths = [p for _, p in batch.lineages]
    prev_forcing = np.asarray(prev.forcing)  # (N, P, K), expanded once
    for k in range(prev.part_idx.size - 1):
        j0, j1 = prev.part_idx[k], prev.part_idx[k + 1]
        past_min = None
        for j in range(j0, j1):
            current = drift_vals[:, :, j]
            past_min = current if past_min is None else np.minimum(past_min, current)
            inner = make_batch(TimeGrid(pts[j:j1 + 1] - pts[j]), layout, master, paths,
                               branch=((prev.n, k, j), n_inner))
            res = solve_batch(spec.components, spec.drifts, inner,
                              initial=np.repeat(prev.values[:, :, j], n_inner, axis=1),
                              forcing=np.repeat(prev_forcing[:, :, j:j1], n_inner, axis=1))
            dv = drift_values(spec.drifts, pts[j:j1 + 1], res.values)
            future_min = dv.min(axis=2).reshape(n_comp, n_paths, n_inner)
            forcing[:, :, j] = np.minimum(past_min[:, :, None], future_min).mean(axis=2)
    return forcing


def _solve_level(spec: SystemSpec, batch: NoiseBatch, n: int, forcing) -> LevelBatch:
    """Level n driven by ``forcing``: its paths and their interval-infimum
    drifts over the level-n partition."""
    grid = batch.grid
    res = solve_batch(spec.components, spec.drifts, batch,
                      initial=spec.initial[:, None], forcing=forcing)
    partition = dyadic_partition(n, grid.horizon)
    part_idx = _partition_indices(grid, partition)
    return LevelBatch(n=n, partition=partition, part_idx=part_idx,
                      inf_drifts=_interval_infima(spec.drifts, grid.points,
                                                  res.values, part_idx),
                      values=res.values, forcing=forcing)


def build_level_one(spec: SystemSpec, batch: NoiseBatch) -> LevelBatch:
    """Base level: zero drift target (pure decay plus noise), one zero row."""
    return _solve_level(spec, batch, 1,
                        Forcing(np.zeros((1, spec.n, batch.n_paths)),
                                np.zeros(batch.grid.n_steps, dtype=np.intp)))


def build_next_level(prev: LevelBatch, spec: SystemSpec, batch: NoiseBatch,
                     mode: str = "realized", n_inner: int = 8) -> LevelBatch:
    """Solve the next-level recursion on the shared noise realization.

    Modes realize the conditional expectation of the interval infimum as:
    ``realized`` the pathwise infimum itself, which is exact when the drift
    depends on time only, and ``nested-mc`` an adapted inner Monte Carlo
    estimate.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    grid = batch.grid
    if mode == "nested-mc":
        dv = drift_values(spec.drifts, grid.points, prev.values)
        forcing = _nested_forcing(spec, prev, batch, n_inner, dv)
    else:  # one row per interval of the previous partition
        forcing = Forcing(np.moveaxis(prev.inf_drifts, 2, 0).copy(),
                          np.repeat(np.arange(prev.part_idx.size - 1),
                                    np.diff(prev.part_idx)))
    return _solve_level(spec, batch, prev.n + 1, forcing)


@dataclass
class HierarchyBatch:
    """The levels of one hierarchy over a path batch."""

    levels: list


def _iter_levels(spec: SystemSpec, batch: NoiseBatch, n_max: int, mode: str, n_inner: int):
    """Levels 1 .. n_max of one hierarchy, each built from the one before. The
    generator holds only the last level it yielded, so a consumer that drops a
    level once the next arrives holds two at a time."""
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    level = build_level_one(spec, batch)
    yield level
    while level.n < n_max:
        level = build_next_level(level, spec, batch, mode=mode, n_inner=n_inner)
        yield level


def run_hierarchy_batch(spec: SystemSpec, batch: NoiseBatch, cfg: SchemeConfig,
                        n_max: int, mode: str = "realized",
                        n_inner: int = 8) -> HierarchyBatch:
    """Levels 1 .. n_max of one hierarchy over every row of ``batch``.
    The ``SchemeConfig`` is accepted and not passed on: there is one scheme."""
    return HierarchyBatch(levels=list(_iter_levels(spec, batch, n_max, mode, n_inner)))


@dataclass(frozen=True)
class MonotonicityRow:
    level_from: int
    level_to: int
    max_violation: float
    violating_fraction: float


def _pair_stats(a: LevelBatch, b: LevelBatch):
    """One consecutive level pair over a batch: the sup gap |b - a| per
    (component, path), the sup violation (a - b)+ per path, and how many grid
    points violate, out of how many. Taken one component at a time; the sup
    gap is the larger of |max| and |min|, never a negated zero."""
    sup_gap = np.empty(a.values.shape[:2])
    sup_viol, count = np.zeros(a.values.shape[1]), 0
    for i in range(a.values.shape[0]):
        gap = a.values[i] - b.values[i]
        count += int(np.count_nonzero(gap > 0.0))
        high, low = gap.max(axis=1), gap.min(axis=1)
        sup_gap[i] = np.maximum(np.abs(high), np.abs(low))
        np.maximum(sup_viol, high, out=sup_viol)
    return sup_gap, sup_viol, count, a.values.size


def check_monotone(levels):
    """Per consecutive level pair: worst (lambda^n - lambda^{n+1})+ and the
    fraction of grid points that violate."""
    if len(levels) < 2:
        raise ValueError("need at least two levels")
    rows = []
    for a, b in zip(levels, levels[1:]):
        _gaps, sup, count, total = _pair_stats(a, b)
        rows.append(MonotonicityRow(level_from=a.n, level_to=b.n,
                                    max_violation=float(sup.max()),
                                    violating_fraction=count / total))
    return rows


@dataclass(frozen=True)
class MomentBoundReport:
    m_const: float
    b_prime: float
    l_prime: float
    k_const: float
    k_provenance: str
    max_violation: float  # worst (mean - 3se) - envelope over levels/times
    passed: bool  # CI-adjusted
    passed_raw: bool  # every mean within the envelope, no CI adjustment
    curve_times: np.ndarray
    sup_mean: np.ndarray  # (n_levels, n_points) sup_i of the mean curves
    envelope: np.ndarray  # (n_points,) M * exp(L' t)


def moment_bound_check(levels, grid: TimeGrid, a_bar: float, growth_b: float,
                       growth_l: float, k_const: float,
                       k_provenance: str = "declared") -> MomentBoundReport:
    """Check the empirical sup-component mean curves against M*exp(L't).

    ``levels`` holds each level's (count, mean, M2) summary over an ensemble,
    as in ``HierarchyResult.levels`` (>= 100 paths for a meaningful check); M
    is calibrated from the level-1 curve plus the initial-value requirement,
    with a 3*SE margin.
    """
    means, ses = (np.stack(s) for s in zip(*(_mean_se([lv]) for lv in levels)))
    b_prime = a_bar * growth_b + k_const
    l_prime = a_bar * growth_l * means.shape[1] + k_const
    init_sup = float(means[0, :, 0].max())
    level1_sup = float(means[0].max())
    margin = 3.0 * float(ses[0].max()) + 1e-9
    m_const = max(init_sup, level1_sup, init_sup + b_prime * grid.horizon) + margin
    envelope = m_const * np.exp(l_prime * grid.points)
    sup_mean = means.max(axis=1)  # (L, K+1)
    adjusted = means - 3.0 * ses
    violation = float((adjusted.max(axis=1) - envelope[None, :]).max())
    return MomentBoundReport(
        m_const=m_const, b_prime=b_prime, l_prime=l_prime, k_const=k_const,
        k_provenance=k_provenance, max_violation=violation,
        passed=violation <= 0.0, passed_raw=bool(np.all(sup_mean <= envelope[None, :])),
        curve_times=grid.points, sup_mean=sup_mean, envelope=envelope)


@dataclass(frozen=True)
class HierarchyResult:
    """One rung of a hierarchy over an ensemble of shared-noise trajectories,
    reduced over the paths in path order."""

    steps: int
    dt: float
    levels: list  # per level: (count, mean, M2) of its values over the paths
    monotonicity: list  # MonotonicityRow per consecutive level pair
    sup_gaps: np.ndarray  # (n_levels-1, N, P) sup_t |level_{n+1} - level_n|
    max_violation: float  # ensemble max over paths, level pairs, grid points
    mean_sup_violation: float  # ensemble mean of the per-path sup violation
    violating_fraction: float  # over all level pairs and grid points
    cauchy_gap: float  # sup gap between the two highest levels (not extrapolated)


def _ladder_block(spec, n_max, mode, n_inner, _lo, rungs):
    """One block of paths: one hierarchy per rung of the block's draw, each
    reduced to its per-level path moments and its per-pair statistics as its
    levels are built. A level is dropped once the next is reduced, and a
    ``realized`` level drops its forcing once solved (the next level needs
    only its infima), so the block holds two levels at a time. The moments are
    taken one component at a time."""
    out = []
    for batch in rungs:
        moments, pairs, prev = [], [], None
        for level in _iter_levels(spec, batch, n_max, mode, n_inner):
            if mode == "realized":
                level.forcing = None
            counts, means, m2s = zip(*map(_moments, level.values))
            moments.append((counts[0], np.stack(means), np.stack(m2s)))
            if prev is not None:
                pairs.append(_pair_stats(prev, level))
            prev = level
        del batch, level, prev  # the next rung needs none of this one
        out.append((moments, pairs))
    return out


def _merge_rung(blocks, steps: int, horizon: float) -> HierarchyResult:
    """One rung's block statistics, merged in block order."""
    levels = [functools.reduce(_chan_merge, lv) for lv in zip(*(b[0] for b in blocks))]
    pairs = list(zip(*(b[1] for b in blocks)))  # per level pair, its blocks
    sup_gaps = np.stack([np.concatenate([blk[0] for blk in pair], axis=1)
                         for pair in pairs])
    sup_viol = np.stack([np.concatenate([blk[1] for blk in pair]) for pair in pairs])
    counts = [sum(blk[2] for blk in pair) for pair in pairs]
    totals = [sum(blk[3] for blk in pair) for pair in pairs]
    mono = [MonotonicityRow(level_from=i + 1, level_to=i + 2,
                            max_violation=float(sup_viol[i].max()),
                            violating_fraction=counts[i] / totals[i])
            for i in range(len(pairs))]
    return HierarchyResult(
        steps=steps, dt=horizon / steps, levels=levels, monotonicity=mono,
        sup_gaps=sup_gaps, max_violation=float(sup_viol.max()),
        mean_sup_violation=float(sup_viol.max(axis=0).mean()),
        violating_fraction=sum(counts) / sum(totals),
        cauchy_gap=float(sup_gaps[-1].max()))


def _hierarchy_ladder(spec, grid, factors, n_paths, master_seed, n_max, mode, n_inner,
                      jobs) -> list:
    """One HierarchyResult per coarsening factor of ``grid``, all from one pass
    over fixed path blocks, so the results do not depend on ``jobs``."""
    parts = map_blocks(_ladder_block, spec, grid, factors, n_paths, _BLOCK, master_seed,
                       jobs, spec, n_max, mode, n_inner)
    return [_merge_rung([p[r] for p in parts], grid.n_steps // factor, grid.horizon)
            for r, factor in enumerate(factors)]


def hierarchy_refinement_study(spec: SystemSpec, cfg: SchemeConfig, horizon: float,
                               steps_ladder, n_paths: int, master_seed: int,
                               n_max: int, mode: str = "realized",
                               n_inner: int = 8, jobs: int = 1) -> list:
    """One HierarchyResult per rung of a step ladder, coarsest first.

    Noise is generated once per path on the finest grid and aggregated onto
    the coarser rungs, so every rung sees the same realization; all ladder
    members must be powers of two dividing the finest.
    The ``SchemeConfig`` is accepted and not passed on: there is one scheme.
    """
    ladder = sorted(int(s) for s in steps_ladder)
    for s in ladder:
        if s & (s - 1) or ladder[-1] % s:
            raise ValueError("ladder entries must be powers of two dividing the finest")
    return _hierarchy_ladder(spec, TimeGrid.uniform(horizon, ladder[-1]),
                             [ladder[-1] // s for s in ladder], n_paths, master_seed,
                             n_max, mode, n_inner, jobs)


def run_hierarchy_ensemble(spec: SystemSpec, cfg: SchemeConfig, grid: TimeGrid,
                           n_paths: int, master_seed: int, n_max: int,
                           mode: str = "realized", n_inner: int = 8,
                           jobs: int = 1) -> HierarchyResult:
    """Hierarchies over an ensemble of shared-noise trajectories on ``grid``:
    the one-rung case of ``hierarchy_refinement_study``.
    The ``SchemeConfig`` is accepted and not passed on: there is one scheme."""
    return _hierarchy_ladder(spec, grid, [1], n_paths, master_seed, n_max, mode,
                             n_inner, jobs)[0]
