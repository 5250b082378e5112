"""Joint simulation of the coupled system and Monte Carlo aggregation.

All components advance simultaneously off the pre-step state vector
(Jacobi-style), so component relabeling commutes with solving. Ensembles are
processed in fixed path-index blocks, each drawing its noise once in
``map_blocks``, and reduced in block order, which makes results independent
of the parallelism degree. ``run_ensemble`` solves a slab of consecutive
``_BLOCK``-path blocks at once, as wide as the scenario's value array allows,
and still reduces each block on its own: the solve unit is the slab, the
reduction unit the block, and every path is solved row by row the same. A
slab that reaches a non-finite state raises its own solve's error, which
names a path of the slab that fails the same way solved alone.
"""
from __future__ import annotations

import functools
import multiprocessing
import os
from dataclasses import dataclass, field

import numpy as np

from .coeffs import SystemSpec
from .noise import NoiseBatch, TimeGrid, make_batch
from .solver import BatchResult, NumericsError, solve_batch

_BLOCK = 512  # fixed ensemble block size; independent of --jobs
_SLAB_BYTES = 4 << 20  # value-array budget of one simulate solve (whole blocks)


def solve_system(spec: SystemSpec, batch: NoiseBatch) -> BatchResult:
    """Solve the system from its initial state on every row of ``batch``."""
    return solve_batch(spec.components, spec.drifts, batch, initial=spec.initial[:, None])


@dataclass
class EnsembleResult:
    """Streaming Monte Carlo summary over an ensemble of trajectories."""

    mean: np.ndarray  # (n_components, n_points)
    se: np.ndarray
    avg_mean: np.ndarray  # (n_points,) statistics of the component average
    avg_se: np.ndarray
    integral_mean: np.ndarray  # (n_components,) estimate of E[int lambda dt]
    integral_se: np.ndarray
    section_times: np.ndarray
    section_values: np.ndarray  # (n_paths, n_components, n_sections)
    values: np.ndarray  # (n_components, min(keep_paths, n_paths), n_points)
    warnings: list = field(default_factory=list)


def _rungs(grid, layout, master_seed, paths, factors):
    """The draw on ``grid`` coarsened by each factor in turn. The generator
    lets go of the draw before it yields the last rung, so a block that drops
    that rung frees its noise."""
    held = [make_batch(grid, layout, master_seed, paths)]
    for factor in factors[:-1]:
        yield held[0].coarsen(factor)
    yield held.pop().coarsen(factors[-1])


def _drawn_block(fn, spec, grid, factors, master_seed, args, bounds):
    """``(fn(*args, lo, rungs), None)`` on block [lo, hi), or ``(None, error)``
    if it raised a NumericsError: ``Pool.map`` would re-raise whichever error
    arrives first, so ``map_blocks`` raises the first in block order itself.
    The block's noise is drawn once on ``grid``, and ``rungs`` yields that
    draw coarsened by each factor in turn."""
    lo, hi = bounds
    try:
        return fn(*args, lo, _rungs(grid, spec.noise_layout(), master_seed,
                                    range(lo, hi), factors)), None
    except NumericsError as exc:
        return None, exc


def map_blocks(fn, spec: SystemSpec, grid: TimeGrid, factors, n_paths: int, block: int,
               master_seed: int, jobs: int, *args) -> tuple:
    """``fn(*args, lo, rungs)``, which gives ``(result, warnings)``, for every
    block [lo, hi) of path indices: the results in block order, and the
    warnings of every block merged by first occurrence in block order. Each
    block draws its noise once, on the finest ``grid``, and every rung reuses
    that draw, coarsened by its factor; path p's noise is keyed by
    (master_seed, p) alone. With ``jobs > 1`` and several blocks the calls run
    in a process pool of at most ``jobs`` workers, and no more workers than
    blocks or CPUs; results and errors are the same."""
    task = functools.partial(_drawn_block, fn, spec, grid, tuple(factors), master_seed, args)
    bounds = [(lo, min(lo + block, n_paths)) for lo in range(0, n_paths, block)]
    if jobs < 2 or len(bounds) < 2:
        outcomes = map(task, bounds)  # lazy: a run stops at its first failing block
    else:
        with multiprocessing.Pool(min(jobs, len(bounds), os.cpu_count() or 1)) as pool:
            outcomes = pool.map(task, bounds)
    results = []
    for result, exc in outcomes:
        if exc is not None:
            raise exc
        results.append(result)
    return [r for r, _w in results], list(dict.fromkeys(w for _r, ws in results for w in ws))


def _moments(x: np.ndarray):
    """(count, mean, M2) over the leading (path) axis, by two passes."""
    mean = x.mean(axis=0)
    d = x - mean
    d *= d
    return x.shape[0], mean, d.sum(axis=0)


def _chan_merge(a, b):
    """Merge two (count, mean, M2) summaries (Chan, Golub & LeVeque 1983)."""
    (na, ma, qa), (nb, mb, qb) = a, b
    n = na + nb
    delta = mb - ma
    return n, ma + delta * (nb / n), qa + qb + delta ** 2 * (na * nb / n)


def _mean_se(summaries):
    """Mean and standard error from per-block summaries merged in block order."""
    n, mean, m2 = functools.reduce(_chan_merge, summaries)
    return mean, np.sqrt(m2 / (n * max(n - 1, 1)))


def _slab_rows(n_components: int, n_steps: int) -> int:
    """Paths per solve: the most whole blocks whose (n_components, rows,
    n_steps) float64 array fits in ``_SLAB_BYTES``, and at least one block."""
    block_bytes = 8 * n_components * n_steps * _BLOCK
    return _BLOCK * max(1, _SLAB_BYTES // block_bytes)


def _ensemble_block(spec, section_idx, keep_paths, lo, rungs):
    """One slab of paths, solved at once and reduced per ``_BLOCK``-path block."""
    (batch,) = rungs
    points = batch.grid.points
    result = solve_system(spec, batch)
    del batch  # the reductions do not need the noise
    vals = result.values  # (N, P, K+1)
    starts = range(0, vals.shape[1], _BLOCK)
    # each block's integrals, bit for bit np.trapezoid's (dt * (y[1:] +
    # y[:-1]) / 2.0).sum(), their terms in one buffer freed before the moments
    dt = np.diff(points)
    terms = np.empty((vals.shape[0], min(_BLOCK, vals.shape[1]), dt.size))
    integs = []
    for b in starts:
        block = vals[:, b:b + _BLOCK]
        buf = terms[:, :block.shape[1]]
        np.add(block[:, :, 1:], block[:, :, :-1], out=buf)
        buf *= dt
        buf /= 2.0
        integs.append(np.add.reduce(buf, axis=2))  # (N, B)
    del terms, buf
    moments = []
    for b, integ in zip(starts, integs):
        block = vals[:, b:b + _BLOCK]
        # per path-axis statistic: the components, their average, the integrals
        moments.append((_moments(block.transpose(1, 0, 2)), _moments(block.mean(axis=0)),
                        _moments(integ.T)))
    return {
        "moments": moments,
        "sections": vals[:, :, section_idx].transpose(1, 0, 2),
        # a copy, so the slab's full value array is not kept alive
        "values": vals[:, :max(0, keep_paths - lo)].copy(),
    }, result.warnings


def run_ensemble(spec: SystemSpec, grid: TimeGrid, n_paths: int, master_seed: int,
                 jobs: int = 1, keep_paths: int = 0) -> EnsembleResult:
    """Simulate n_paths independent trajectories of the system.

    Path p always uses the noise with lineage (master_seed, p). Paths are
    solved in slabs of whole ``_BLOCK``-path blocks, sized by the scenario
    alone, and reduced per block, merged in block order, so the output is
    byte-identical for any ``jobs``. The values of paths ``0 .. keep_paths-1``
    are kept in ``values``, and every ``max(1, n_steps // 8)``-th grid point is
    a section time.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    section_idx = np.arange(0, grid.n_steps + 1, max(1, grid.n_steps // 8))

    slab = _slab_rows(spec.n, grid.n_steps)
    partials, warns = map_blocks(_ensemble_block, spec, grid, [1], n_paths, slab,
                                 master_seed, jobs, spec, section_idx, keep_paths)
    blocks = [m for part in partials for m in part["moments"]]  # in block order
    (mean, se), (avg_mean, avg_se), (integ_mean, integ_se) = (
        _mean_se([block[i] for block in blocks]) for i in range(3))
    return EnsembleResult(
        mean=mean, se=se, avg_mean=avg_mean, avg_se=avg_se,
        integral_mean=integ_mean, integral_se=integ_se,
        section_times=grid.points[section_idx],
        section_values=np.concatenate([part["sections"] for part in partials]),
        values=np.concatenate([part["values"] for part in partials], axis=1),
        warnings=warns)
