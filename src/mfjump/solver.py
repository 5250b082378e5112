"""The clipped explicit Euler solve of a batch of paths of the coupled system,
and the comparison-theorem check of a drift-ordered pair built on it.

The stepping kernel is written so the drift update is c1*Y + c2*b with
non-negative c1, c2 (for admissible steps): floating-point monotonicity in
both arguments then holds exactly, which the comparison and monotone-level
checks rely on.

Each step advances a group of equal-coefficient components as one (G, P)
array, with the same operations on the same scalars per element: no bit moves.

``solve_batch`` walks the grid in chunks of ``_CHUNK`` steps. Per chunk it
gathers each group's operands (c2 * b for a fixed drift table, the combined
Brownian increment, the stable increments) step-major, so that a step reads
contiguous (G, P) rows and sums into the new state in place. The chunk's
states go into ``values`` in one transposed assignment. Every element sees the
same operations in the same order as in a one-step solve, so where the chunks
end moves no bit.

Every drift table is read as a ``Forcing``: (N, P) rows and the row each step
reads, so a forcing constant on the intervals of a partition holds one row per
interval, not one per step.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .coeffs import CoefficientSet, DriftSpec, drift_values
from .noise import NoiseBatch, TimeGrid
from .paths import CadlagPath, StaircasePath

EXPLICIT = "explicit-euler-clipped"
_CHUNK = 64  # steps whose operands solve_batch gathers step-major at once


class NumericsError(RuntimeError):
    """Non-finite state reached during stepping. ``path_index`` is the path's
    global index from the batch lineage, so the path can be replayed alone."""

    def __init__(self, step: int, time: float, component: int, path_index: int):
        self.step, self.time, self.component, self.path_index = \
            step, time, component, path_index
        super().__init__(
            f"non-finite value at step {step} (t={time:.6g}), "
            f"component {component}, path {path_index}")

    def __reduce__(self):
        # pool workers pickle the error back to the parent process
        return type(self), (self.step, self.time, self.component, self.path_index)


@dataclass(frozen=True)
class SchemeConfig:
    """The scheme of a solve. Its one legal value is the clipped explicit
    Euler step, which every solve runs."""

    scheme: str = EXPLICIT

    def __post_init__(self):
        if self.scheme != EXPLICIT:
            raise ValueError(f"unknown scheme '{self.scheme}'")


def _step_major(a: np.ndarray) -> np.ndarray:
    """A compact (..., C) array as a contiguous (C, ...) one. Transposing
    straight out of a (..., K) draw would read rows K floats apart, a power
    of two on the shipped grids, which thrashes the cache; so callers pass a
    compact copy."""
    return np.moveaxis(a, -1, 0).copy()


@dataclass(frozen=True, eq=False)
class Forcing:
    """A drift forcing held as rows: step k is forced by ``table[index[k]]``,
    one (N, 1 or P) row of the (M, N, 1 or P) ``table``. A forcing constant on
    each interval of a partition keeps one row per interval; an (N, P, K)
    array is the case of K rows. It reads as its (N, P, K) array."""

    table: np.ndarray  # (M, N, 1 or P)
    index: np.ndarray  # (K,) the row of each step

    @classmethod
    def of(cls, forcing) -> "Forcing":
        """``forcing`` itself, or an (N, P, K) array as its K step rows."""
        if isinstance(forcing, cls):
            return forcing
        forcing = np.asarray(forcing)
        return cls(_step_major(forcing), np.arange(forcing.shape[-1]))

    def __array__(self, dtype=None, copy=None):
        return np.asarray(np.moveaxis(self.table[self.index], 0, -1), dtype=dtype)

    def __getitem__(self, key):
        return np.asarray(self)[key]


@dataclass
class _Part:
    """Prepared arrays for one group of equal-coefficient components. ``idx`` is a
    singleton's index or a group's member list, the leading axis of its noise;
    ``sel`` is ``idx`` as a slice when the members are consecutive, so that
    indexing the state with it gives a view."""

    idx: object
    sel: object
    c1: np.ndarray  # (n_steps,)
    c2: np.ndarray
    sigma: object = None
    brownian: list = None  # per member: ((weight, (n_paths, n_steps) draw), ...)
    stable: list = field(default_factory=list)  # (coef, exponent, ([G,] P, K) array)
    compensator: object = None

    def chunk(self, k0: int, k1: int, forcing: "Forcing" = None) -> tuple:
        """``(cb, dw, dz)``, the group's operands of steps [k0, k1) with the
        step on the leading axis, so that each step reads contiguous rows.

        ``cb`` is c2 * b, (C, [G,] 1 or P), for the drift ``forcing``, or None
        without one; ``dw`` is the combined Brownian increment, (C, [G,] P),
        or None; ``dz`` lists each stable term's increments.
        """
        cb = dw = None
        if forcing is not None:
            rows = forcing.table[forcing.index[k0:k1]][:, self.sel]
            cb = rows * self.c2[k0:k1].reshape((-1,) + (1,) * (rows.ndim - 1))
        if self.brownian is not None:
            sums = []
            for (weight, draw), *rest in self.brownian:
                row = weight * draw[:, k0:k1]
                row += 0.0  # the sum starts at 0, which turns -0.0 into 0.0
                for weight, draw in rest:
                    row += weight * draw[:, k0:k1]
                sums.append(row)
            dw = _step_major(sums[0] if isinstance(self.idx, int) else np.stack(sums))
        dz = [_step_major(draw[..., k0:k1].copy()) for _c, _e, draw in self.stable]
        return cb, dw, dz


@dataclass(frozen=True)
class JumpLog:
    """The non-zero jumps a solve applied, as arrays in application order,
    which is time order for each (row, component)."""

    rows: np.ndarray
    components: np.ndarray
    times: np.ndarray
    left: np.ndarray  # state just before the jump
    right: np.ndarray  # state just after it


@dataclass
class BatchResult:
    """Raw arrays from one batched solve."""

    values: np.ndarray  # (n_components, n_paths, n_points)
    jumps: JumpLog
    warnings: list


def _prepare_parts(components, batch: NoiseBatch):
    dts = batch.grid.dt
    groups, warns = {}, []  # coefficient key -> member indices
    for idx, comp in enumerate(components):
        if np.any(comp.a * dts > 1.0):
            warns.append(f"component {idx}: a*dt = {(comp.a * dts).max():.4g} > 1 breaks "
                         f"the monotonicity precondition of the explicit scheme")
        key = (comp.a, comp.sigma if comp.brownian else None,
               tuple((t.coef, t.alpha) for t in comp.stable_terms if t.coef != 0.0),
               comp.g0_finite.compensator if comp.g0_finite is not None else None)
        groups.setdefault(key, []).append(idx)
    parts = []
    for (a, sigma, stable, compensator), members in groups.items():
        c2 = a * dts
        c1 = 1.0 - c2
        comps = [components[i] for i in members]
        brownian = None
        if sigma is not None:
            brownian = [[(t.weight, batch.brownian[t.factor]) for t in c.brownian]
                        for c in comps]
        factors = zip(*([t.factor for t in c.stable_terms if t.coef != 0.0] for c in comps))
        # a common factor stays one (P, K) array, broadcast over the group
        dz = [(coef, 1.0 / alpha, batch.stable.rows(fs if len(set(fs)) > 1 else fs[:1]))
              for (coef, alpha), fs in zip(stable, factors)]
        idx, sel = members, members
        if len(members) == 1:
            idx = sel = members[0]
        elif members == list(range(members[0], members[-1] + 1)):
            sel = slice(members[0], members[-1] + 1)
        parts.append(_Part(idx=idx, sel=sel, c1=c1, c2=c2, sigma=sigma,
                           brownian=brownian, stable=dz, compensator=compensator))
    return parts, warns


@dataclass
class _EventPlan:
    """The events a solve applies, flattened into application order.

    ``steps[k - k_start]`` lists the segments of step k as ``(component, fn,
    rows, marks, lo, hi)``: events ``lo:hi`` share one kernel and one step and
    touch distinct rows, so one fancy-indexed call ``fn(x[rows], marks)``
    applies them.
    """

    rows: np.ndarray
    times: np.ndarray
    components: np.ndarray
    steps: list


def _bin_events(components, batch: NoiseBatch, k_start: int, k_stop: int) -> _EventPlan:
    """Bin every kernel's events into steps [k_start, k_stop) of the grid.

    An event at time t in (t_k, t_{k+1}] is applied at the end of step k;
    events outside (0, horizon] are dropped. Each (row, component) cell takes
    its events in (time, g0_finite before g1, event index) order, one round
    per event, so each sees the state its predecessor left; events of
    different cells commute.
    """
    points = batch.grid.points
    sources, cols = [], []
    for ci, comp in enumerate(components):
        for kernel in (comp.g0_finite, comp.g1):
            ev = None if kernel is None else batch.events.get(kernel.measure.measure_id)
            if ev is None:
                continue
            step = np.searchsorted(points, ev.times, side="left") - 1
            idx = np.flatnonzero((ev.times > 0.0) & (ev.times <= points[-1])
                                 & (step >= k_start) & (step < k_stop))
            cols.append((step[idx], ev.times[idx], ev.rows[idx], idx,
                         np.full(idx.size, len(sources))))
            sources.append((ci, kernel.fn, ev.marks))
    cols = cols or [(np.empty(0, dtype=np.intp),) * 5]
    step, times, rows, mark_idx, kern = (np.concatenate(c) for c in zip(*cols))
    comp = np.array([ci for ci, _fn, _marks in sources], dtype=np.intp)[kern]
    # sources are concatenated by (component, g0_finite before g1, event
    # index), so a stable sort on time gives each cell its order
    order = np.argsort(times, kind="stable")
    step, times, rows, comp, mark_idx, kern = (
        a[order] for a in (step, times, rows, comp, mark_idx, kern))
    # round of an event: how many earlier events its (step, row, component) has
    cell = (step * batch.n_paths + rows) * len(components) + comp
    by_cell = np.argsort(cell, kind="stable")
    pos = np.arange(cell.size)
    first = np.diff(cell[by_cell], prepend=-1) != 0
    rounds = np.empty_like(pos)
    rounds[by_cell] = pos - np.maximum.accumulate(np.where(first, pos, 0))
    # segments run in (step, round, kernel) order and hold distinct cells
    seg_key = (step * (rounds.max(initial=0) + 1) + rounds) * len(sources) + kern
    order = np.argsort(seg_key, kind="stable")
    seg_key, step, rows, times, comp, mark_idx, kern = (
        a[order] for a in (seg_key, step, rows, times, comp, mark_idx, kern))
    starts = np.flatnonzero(np.diff(seg_key, prepend=-1) != 0)
    steps = [[] for _ in range(k_start, k_stop)]
    for k, g, lo, hi in zip((step[starts] - k_start).tolist(), kern[starts].tolist(),
                            starts.tolist(), starts[1:].tolist() + [step.size]):
        ci, fn, marks = sources[g]
        steps[k].append((ci, fn, rows[lo:hi], marks[..., mark_idx[lo:hi]], lo, hi))
    return _EventPlan(rows=rows, times=times, components=comp, steps=steps)


def _check_drift_path(path, grid: TimeGrid) -> None:
    """Drift paths must share the grid horizon, and staircase breakpoints must
    land on grid points (refine the grid first if they do not)."""
    if not isinstance(path, (CadlagPath, StaircasePath)):
        raise TypeError("drift path must be a CadlagPath or StaircasePath")
    if path.horizon != grid.horizon:
        raise ValueError("drift path horizon differs from the grid horizon")
    if isinstance(path, StaircasePath) and not np.isin(path.breakpoints, grid.points).all():
        raise ValueError(
            "staircase breakpoints off the grid; build the grid with "
            "TimeGrid.refine_with(breakpoints) so discontinuities land on steps")


def solve_batch(components, drifts, batch: NoiseBatch, initial: np.ndarray,
                forcing=None, k_start: int = 0, k_stop: int = None) -> BatchResult:
    """Advance all paths of a batch jointly from step k_start to k_stop.

    ``initial`` has shape (n_components, n_paths) and seeds the state at
    ``k_start``; values outside the solved span are left as NaN sentinels.
    ``forcing``, a ``Forcing`` or an (n_components, n_paths, n_steps) array,
    replaces the drifts; the drifts' own table is read as a ``Forcing`` too.
    Jump kernels are called as ``fn(x, marks)`` on all the events of a step
    that touch distinct rows at once, so they must act elementwise: ``x`` has
    shape (E,) and ``marks`` (E,) or (d, E).
    """
    grid = batch.grid
    n_steps = grid.n_steps
    k_stop = n_steps if k_stop is None else k_stop
    n_comp, n_paths = len(components), batch.n_paths

    pts = grid.points
    parts, warns = _prepare_parts(components, batch)
    live = []  # indices of mean-field drifts, evaluated per step on the state
    if forcing is not None:  # overrides drifts
        forcing = Forcing.of(forcing)
        # the min over the rows that some step reads, as over the (N, P, K) array
        if forcing.table.min(axis=(1, 2))[forcing.index].min() < 0:
            warns.append("drift forcing takes negative values; the "
                         "existence theory assumes b >= 0")
    else:
        for drift in drifts:
            if drift.kind == "path":
                _check_drift_path(drift.path, grid)
        live = [i for i, d in enumerate(drifts) if not d.deterministic]
        fixed = [i for i, d in enumerate(drifts) if d.deterministic]
        table = np.zeros((n_comp, 1, n_steps))
        table[fixed] = drift_values([drifts[i] for i in fixed], pts[:-1],
                                    np.empty((0, 1, n_steps)))
        if table.min() < 0:
            warns.append("drift target takes negative values; the "
                         "existence theory assumes b >= 0")
        forcing = Forcing.of(table)
    live_drifts = [drifts[i] for i in live]
    plan = _bin_events(components, batch, k_start, k_stop)
    left = np.empty(plan.rows.size)  # per event: state before it, and its size
    size = np.empty(plan.rows.size)

    values = np.empty((n_comp, n_paths, n_steps + 1))  # the steps fill [k_start, k_stop]
    values[:, :, :k_start] = np.nan
    values[:, :, k_stop + 1:] = np.nan
    state = np.array(np.broadcast_to(np.asarray(initial, dtype=float),
                                     (n_comp, n_paths)), dtype=float)
    values[:, :, k_start] = state
    tmps = [np.empty(state[part.sel].shape) for part in parts]  # one work array per group

    dts = grid.dt
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for k0 in range(k_start, k_stop, _CHUNK):
            k1 = min(k0 + _CHUNK, k_stop)
            ops = [part.chunk(k0, k1, None if live else forcing) for part in parts]
            chunk = np.empty((k1 - k0, n_comp, n_paths))  # the new states, step-major
            for j, new in enumerate(chunk):
                k = k0 + j
                if live:
                    b = np.broadcast_to(forcing.table[forcing.index[k]],
                                        (n_comp, n_paths)).copy()
                    b[live] = drift_values(live_drifts, pts[k:k + 1],
                                           state[:, :, None])[:, :, 0]
                for part, (cb, dw, dz), tmp in zip(parts, ops, tmps):
                    # c1*y + c2*b + sigma(y)*dw + (coef*y^e)*dz - dt*comp(y),
                    # summed in place in new unless the group is a fancy index
                    y = state[part.sel]
                    fancy = isinstance(part.sel, list)
                    acc = np.multiply(y, part.c1[k], out=None if fancy else new[part.sel])
                    acc += part.c2[k] * b[part.sel] if cb is None else cb[j]
                    if dw is not None:
                        acc += np.multiply(part.sigma(y), dw[j], out=tmp)
                    for (coef, expo, _draw), inc in zip(part.stable, dz):
                        # past the first step the state is already clipped
                        np.power(np.maximum(y, 0.0, out=tmp) if k == k_start else y,
                                 expo, out=tmp)
                        tmp *= coef
                        tmp *= inc[j]
                        acc += tmp
                    if part.compensator is not None:
                        acc -= np.multiply(part.compensator(y), dts[k], out=tmp)
                    if fancy:
                        new[part.sel] = acc
                for ci, fn, rows, marks, lo, hi in plan.steps[k - k_start]:
                    y = new[ci]
                    x = y[rows]
                    jump = fn(x, marks)
                    y[rows] = x + jump
                    left[lo:hi] = x
                    size[lo:hi] = jump
                if not np.isfinite(new).all():
                    bad = np.argwhere(~np.isfinite(new))[0]
                    raise NumericsError(step=k + 1, time=float(pts[k + 1]),
                                        component=int(bad[0]),
                                        path_index=int(batch.lineages[bad[1]][1]))
                np.maximum(new, 0.0, out=new)
                state = new
            values[:, :, k0 + 1:k1 + 1] = chunk.transpose(1, 2, 0)

    for warn in warns:
        warnings.warn(warn, RuntimeWarning, stacklevel=2)
    done = np.flatnonzero(size != 0.0)
    jumps = JumpLog(rows=plan.rows[done], components=plan.components[done],
                    times=plan.times[done], left=left[done],
                    right=left[done] + size[done])
    return BatchResult(values=values, jumps=jumps, warnings=warns)


@dataclass(frozen=True)
class OrderingReport:
    """Ordering violations of a drift-ordered pair solved on shared noise."""

    max_violation: float
    violating_fraction: float
    n_points: int

    @property
    def ordered(self) -> bool:
        return self.max_violation == 0.0


def compare_ordered(coeffs: CoefficientSet, drift_low: DriftSpec, drift_high: DriftSpec,
                    batch: NoiseBatch, initial_low: float,
                    initial_high: float = None) -> OrderingReport:
    """Solve the drift-ordered pair as one two-component system on every row
    of ``batch`` and report (Y_low - Y_high)+ over all rows and grid points.
    The pair has equal coefficients, so it steps as one group on the same
    noise."""
    initial_high = initial_low if initial_high is None else initial_high
    if initial_low > initial_high:
        raise ValueError("initial_low must not exceed initial_high")
    if not (drift_low.deterministic and drift_high.deterministic):
        raise ValueError("mean-field drifts need the system solver")
    steps = batch.grid.points[:-1]
    low, high = drift_values((drift_low, drift_high), steps, np.empty((0, 1, steps.size)))
    if np.any(low > high):
        raise ValueError("drift_low must be <= drift_high pointwise on the grid")
    values = solve_batch([coeffs, coeffs], [drift_low, drift_high], batch,
                         np.array([[initial_low], [initial_high]], dtype=float)).values
    gap = values[0] - values[1]
    return OrderingReport(
        max_violation=float(np.maximum(gap, 0.0).max()),
        violating_fraction=float(np.mean(gap > 0.0)),
        n_points=gap.size)
