"""Joint simulation of the coupled system and Monte Carlo aggregation.

All components advance simultaneously off the pre-step state vector
(Jacobi-style), so component relabeling commutes with solving. Ensembles are
processed in fixed path-index blocks and reduced in block order, which makes
results independent of the parallelism degree.
"""
from __future__ import annotations

import functools
import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from .coeffs import SystemSpec
from .noise import NoiseBatch, TimeGrid, make_batch
from .solver import NumericsError, SchemeConfig, _require_one_row, solve_batch

_BLOCK = 512  # fixed ensemble block size; independent of --jobs


def solve_system(spec: SystemSpec, noise: NoiseBatch, cfg: SchemeConfig):
    """Solve the N-dimensional system on a one-row noise batch, one path per
    component."""
    _require_one_row(noise)
    result = solve_batch(spec.components, spec.drifts, noise, cfg,
                         initial=spec.initial[:, None])
    return result.component_paths(0)


@dataclass
class EnsembleResult:
    """Streaming Monte Carlo summary over an ensemble of trajectories."""

    grid: TimeGrid
    n_paths: int
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

    def quantiles(self, qs=(0.05, 0.25, 0.5, 0.75, 0.95)) -> np.ndarray:
        """(len(qs), n_components, n_sections) quantiles at the section times."""
        return np.quantile(self.section_values, qs, axis=0)


def _pooled_block(task, bounds):
    """A block's result, or the NumericsError it raised. ``Pool.map`` would
    re-raise whichever error arrives first; returning it lets the parent
    raise the first one in block order, as a serial run does."""
    try:
        return task(bounds), None
    except NumericsError as exc:
        return None, exc


def map_blocks(fn, n_paths: int, block: int, jobs: int, *args) -> list:
    """``fn(*args, (lo, hi))`` for every block [lo, hi) of path indices, in
    block order. With ``jobs > 1`` and several blocks the calls run in a
    process pool of at most ``jobs`` workers; results and errors are the same."""
    task = functools.partial(fn, *args)
    bounds = [(lo, min(lo + block, n_paths)) for lo in range(0, n_paths, block)]
    if jobs < 2 or len(bounds) < 2:
        return [task(b) for b in bounds]
    with multiprocessing.Pool(min(jobs, len(bounds))) as pool:
        outcomes = pool.map(functools.partial(_pooled_block, task), bounds)
    for _result, exc in outcomes:
        if exc is not None:
            raise exc
    return [result for result, _exc in outcomes]


def _ensemble_block(spec, cfg, grid, master_seed, section_idx, keep_paths, bounds):
    lo, hi = bounds
    batch = make_batch(grid, spec.noise_layout(), master_seed, range(lo, hi))
    result = solve_batch(spec.components, spec.drifts, batch, cfg,
                         initial=spec.initial[:, None])
    vals = result.values  # (N, P, K+1)
    avg = vals.mean(axis=0)  # (P, K+1)
    integ = np.trapezoid(vals, x=grid.points, axis=2)  # (N, P)
    return {
        "count": hi - lo,
        "sum": vals.sum(axis=1),
        "sumsq": (vals ** 2).sum(axis=1),
        "avg_sum": avg.sum(axis=0),
        "avg_sumsq": (avg ** 2).sum(axis=0),
        "integ_sum": integ.sum(axis=1),
        "integ_sumsq": (integ ** 2).sum(axis=1),
        "sections": vals[:, :, section_idx].transpose(1, 0, 2),
        "warnings": result.warnings,
        # a copy, so the block's full value array is not kept alive
        "values": vals[:, :max(0, keep_paths - lo)].copy(),
    }


def run_ensemble(spec: SystemSpec, cfg: SchemeConfig, grid: TimeGrid, n_paths: int,
                 master_seed: int, jobs: int = 1, section_times=None,
                 keep_paths: int = 0) -> EnsembleResult:
    """Simulate n_paths independent trajectories of the system.

    Path p always uses the noise with lineage (master_seed, p); blocks are
    merged in index order, so the output is byte-identical for any ``jobs``.
    The values of paths ``0 .. keep_paths-1`` are kept in ``values``.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    if section_times is None:
        section_times = grid.points[:: max(1, grid.n_steps // 8)]
    section_idx = np.array([grid.index_of(t) for t in section_times])
    section_times = grid.points[section_idx]

    partials = map_blocks(_ensemble_block, n_paths, _BLOCK, jobs,
                          spec, cfg, grid, master_seed, section_idx, keep_paths)

    n_comp, n_pts = spec.n, grid.points.size
    total = np.zeros((n_comp, n_pts))
    total_sq = np.zeros((n_comp, n_pts))
    avg_total = np.zeros(n_pts)
    avg_total_sq = np.zeros(n_pts)
    integ_total = np.zeros(n_comp)
    integ_total_sq = np.zeros(n_comp)
    sections, values, warns = [], [], []
    for part in partials:  # fixed block order
        total += part["sum"]
        total_sq += part["sumsq"]
        avg_total += part["avg_sum"]
        avg_total_sq += part["avg_sumsq"]
        integ_total += part["integ_sum"]
        integ_total_sq += part["integ_sumsq"]
        sections.append(part["sections"])
        warns.extend(w for w in part["warnings"] if w not in warns)
        values.append(part["values"])

    def _mean_se(s, ssq):
        mean = s / n_paths
        var = np.maximum(ssq / n_paths - mean ** 2, 0.0)
        se = np.sqrt(var / max(n_paths - 1, 1))
        return mean, se

    mean, se = _mean_se(total, total_sq)
    avg_mean, avg_se = _mean_se(avg_total, avg_total_sq)
    integ_mean, integ_se = _mean_se(integ_total, integ_total_sq)
    return EnsembleResult(
        grid=grid, n_paths=n_paths, mean=mean, se=se,
        avg_mean=avg_mean, avg_se=avg_se,
        integral_mean=integ_mean, integral_se=integ_se,
        section_times=section_times,
        section_values=np.concatenate(sections, axis=0),
        values=np.concatenate(values, axis=1),
        warnings=warns)
