"""The clipped explicit Euler solve of a batch of paths of the coupled system.

The stepping kernel is written so the drift update is c1*Y + c2*b with
non-negative c1, c2 (for admissible steps): floating-point monotonicity in
both arguments then holds exactly, which the monotone-level check of
``approx`` (``monotonicity.csv``) relies on.

Each step advances a run of consecutive equal-coefficient components as one
(G, P) slice of the state, with the same operations on the same scalars per
element: no bit moves. The diffusion, stable and compensator terms read the
clipped state; the initial state is clipped once for them, and every later
state is clipped when it is made.

``solve_batch`` walks the grid in chunks of ``_CHUNK`` steps. Per chunk it
gathers each group's operands (c2 * b for a fixed drift table, the combined
Brownian increment, the stable increments) step-major, so that a step reads
contiguous (G, P) rows and sums into the new state in place. The chunk's
states go into ``values`` in one transposed assignment. Every element sees the
same operations in the same order as in a one-step solve, so where the chunks
end moves no bit. A ``GatheredBatch`` holds the Brownian and stable operands and
the binned jump events of every step, gathered once for several solves on one
draw; a solve on it gathers only the drift terms.

Every drift table is a ``Forcing``: (N, P) rows and the row each step reads,
so a forcing constant on the intervals of a partition holds one row per
interval, not one per step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .coeffs import drift_values
from .noise import NoiseBatch, TimeGrid
from .paths import CadlagPath, StaircasePath

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


@dataclass(frozen=True, eq=False)
class Forcing:
    """A drift forcing held as rows: step k is forced by ``table[index[k]]``,
    one (N, 1 or P) row of the (M, N, 1 or P) ``table``. A forcing constant on
    each interval of a partition keeps one row per interval; one that moves
    every step holds K rows, read through ``arange(K)``."""

    table: np.ndarray  # (M, N, 1 or P)
    index: np.ndarray  # (K,) the row of each step


@dataclass
class _Part:
    """Prepared arrays for one run of consecutive equal-coefficient components.
    ``sel`` is the run as a slice, of the state and of the leading axis of its
    noise, so that indexing the state with it gives a view."""

    sel: slice
    c1: np.ndarray  # (n_steps,)
    c2: np.ndarray
    sigma: object = None
    brownian: list = None  # per member: ((weight, (n_paths, n_steps) draw), ...)
    stable: list = field(default_factory=list)  # (coef, exponent, ([G,] P, K) array)
    compensator: object = None
    ops: tuple = None  # (dw, dz) over every step, step-major, once gathered

    def chunk(self, k0: int, k1: int, forcing: "Forcing" = None) -> tuple:
        """``(cb, dw, dz)``, the group's operands of steps [k0, k1) with the
        step on the leading axis, so that each step reads contiguous rows.

        ``cb`` is c2 * b, (C, G, 1 or P), for the drift ``forcing``, or None
        without one; ``(dw, dz)`` is ``noise(k0, k1)``.
        """
        cb = None
        if forcing is not None:
            cb = forcing.table[forcing.index[k0:k1], self.sel] * self.c2[k0:k1, None, None]
        return (cb,) + self.noise(k0, k1)

    def noise(self, k0: int, k1: int) -> tuple:
        """``(dw, dz)`` of steps [k0, k1), step-major: ``dw`` the combined
        Brownian increment, (C, G, P), or None, and ``dz`` each stable
        term's increments, (C, [G,] P). Slices of ``ops`` once gathered, or
        else gathered ``_CHUNK`` steps at a time through compact (..., C)
        copies: transposing straight out of a (..., K) draw would read rows
        K floats apart, a power of two on the shipped grids, which thrashes
        the cache."""
        if self.ops is not None:
            dw, dz = self.ops
            return None if dw is None else dw[k0:k1], [inc[k0:k1] for inc in dz]
        out = None
        for c0 in range(k0, k1, _CHUNK):
            c1 = min(c0 + _CHUNK, k1)
            compact = [None]  # ([G,] P, c1 - c0) each
            if self.brownian is not None:
                # each member sums into its row of one array: stacking separate
                # sums costs a copy and an allocation per chunk (~6% of sim-jumps)
                (_weight, draw), *_rest = self.brownian[0]
                sums = np.empty((len(self.brownian), draw.shape[0], c1 - c0))
                for row, ((weight, draw), *rest) in zip(sums, self.brownian):
                    np.multiply(weight, draw[:, c0:c1], out=row)
                    row += 0.0  # the sum starts at 0, which turns -0.0 into 0.0
                    for weight, draw in rest:
                        row += weight * draw[:, c0:c1]
                compact = [sums]
            compact += [draw[..., c0:c1].copy() for _c, _e, draw in self.stable]
            if out is None:
                out = [None if a is None else np.empty((k1 - k0,) + a.shape[:-1])
                       for a in compact]
            for arr, a in zip(out, compact):
                if arr is not None:
                    arr[c0 - k0:c1 - k0] = np.moveaxis(a, -1, 0)
        return out[0], out[1:]


@dataclass
class BatchResult:
    """The states and warnings of one batched solve."""

    values: np.ndarray  # (n_components, n_paths, n_points)
    warnings: list


def _prepare_parts(components, batch: NoiseBatch):
    dts = batch.grid.dt
    runs, warns = [], []  # [coefficient key, first member, end]
    for idx, comp in enumerate(components):
        if np.any(comp.a * dts > 1.0):
            warns.append(f"component {idx}: a*dt = {(comp.a * dts).max():.4g} > 1 breaks "
                         f"the monotonicity precondition of the explicit scheme")
        key = (comp.a, comp.sigma if comp.brownian else None,
               tuple((t.coef, t.alpha) for t in comp.stable_terms if t.coef != 0.0),
               comp.g0_finite.compensator if comp.g0_finite is not None else None)
        if runs and runs[-1][0] == key:
            runs[-1][2] = idx + 1
        else:
            runs.append([key, idx, idx + 1])
    parts = []
    for (a, sigma, stable, compensator), lo, hi in runs:
        c2 = a * dts
        c1 = 1.0 - c2
        comps = components[lo:hi]
        brownian = None
        if sigma is not None:
            brownian = [[(t.weight, batch.brownian[t.factor]) for t in c.brownian]
                        for c in comps]
        factors = zip(*([t.factor for t in c.stable_terms if t.coef != 0.0] for c in comps))
        # a common factor stays one (P, K) array, broadcast over the group
        dz = [(coef, 1.0 / alpha, batch.stable.rows(fs if len(set(fs)) > 1 else fs[:1]))
              for (coef, alpha), fs in zip(stable, factors)]
        parts.append(_Part(sel=slice(lo, hi), c1=c1, c2=c2, sigma=sigma,
                           brownian=brownian, stable=dz, compensator=compensator))
    return parts, warns


@dataclass(frozen=True, eq=False)
class GatheredBatch:
    """A noise batch with its Brownian and stable operands gathered step-major
    over every step, once, for the groups of ``components``, and its jump
    events binned into every step. Each solve of those components on it
    slices its operands and reads its steps' events, where every solve on a
    ``NoiseBatch`` gathers its operands again a chunk at a time and bins its
    events again; the bits are the
    same. It keeps the batch's grid, events and lineages but no draw, so it
    pays where several solves read one draw, as the levels of a hierarchy do."""

    grid: TimeGrid
    events: dict
    lineages: tuple
    components: tuple  # the components whose groups ``parts`` hold
    parts: list
    segments: dict  # ``_bin_events`` over the whole grid: step k's segments
    warnings: list  # ``_prepare_parts``' warnings, which every solve repeats

    n_paths = NoiseBatch.n_paths
    jump_events = NoiseBatch.jump_events


def gather(components, batch: NoiseBatch) -> GatheredBatch:
    """``batch`` gathered for solves of ``components``."""
    parts, warns = _prepare_parts(components, batch)
    return GatheredBatch(grid=batch.grid, events=batch.events, lineages=batch.lineages,
                         components=tuple(components), warnings=warns,
                         segments=_bin_events(components, batch),
                         parts=[replace(part, ops=part.noise(0, batch.grid.n_steps),
                                        brownian=None,  # no reference left to the draw
                                        stable=[(c, e, None) for c, e, _d in part.stable])
                                for part in parts])


def _bin_events(components, batch: NoiseBatch) -> dict:
    """Bin every kernel's events into the steps of the grid.

    An event at time t in (t_k, t_{k+1}] is applied at the end of step k;
    events outside (0, horizon] are dropped. Each (row, component) cell takes
    its events in (time, g0_finite before g1, event index) order, one round
    per event, so each sees the state its predecessor left; events of
    different cells commute.

    Returns step k's segments under key k, for the steps that have any,
    each ``(component, fn, rows, marks)``: a segment's events share one
    kernel and one step and touch distinct rows, so one fancy-indexed call
    ``fn(x[rows], marks)`` applies them. ``rows`` and ``marks`` are views
    into arrays that every segment shares. A step without events has no key,
    so binning a grid without events keeps nothing per step.
    """
    points = batch.grid.points
    sources, cols = [], []
    for ci, comp in enumerate(components):
        for kernel in (comp.g0_finite, comp.g1):
            ev = None if kernel is None else batch.events.get(kernel.measure.measure_id)
            if ev is None:
                continue
            step = np.searchsorted(points, ev.times, side="left") - 1
            idx = np.flatnonzero((ev.times > 0.0) & (ev.times <= points[-1]))
            cols.append((step[idx], ev.times[idx], ev.rows[idx], idx,
                         np.full(idx.size, len(sources))))
            sources.append((ci, kernel.fn, ev.marks))
    if not sources:
        return {}
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
    seg_key, step, rows, mark_idx, kern = (
        a[order] for a in (seg_key, step, rows, mark_idx, kern))
    starts = np.flatnonzero(np.diff(seg_key, prepend=-1) != 0)
    # each source's marks gathered once in segment order, so that a segment's
    # marks are a slice: ``at`` is an event's place among its source's events
    gathered, at = [], np.empty_like(kern)
    for g, (_ci, _fn, marks) in enumerate(sources):
        mine = np.flatnonzero(kern == g)
        at[mine] = np.arange(mine.size)
        gathered.append(marks[..., mark_idx[mine]])
    steps = {}
    for k, g, lo, hi, m in zip(step[starts].tolist(), kern[starts].tolist(),
                               starts.tolist(), starts[1:].tolist() + [step.size],
                               at[starts].tolist()):
        ci, fn, _marks = sources[g]
        steps.setdefault(k, []).append((ci, fn, rows[lo:hi], gathered[g][..., m:m + hi - lo]))
    return steps


def _evaluate(fn, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``fn(y)`` of the clipped state ``y``: in ``out`` by ``fn.into`` where
    ``fn`` has one (``into`` skips the clip ``fn`` itself makes)."""
    into = getattr(fn, "into", None)
    return fn(y) if into is None else into(y, out)


def _check_drift_path(path, grid: TimeGrid) -> None:
    """Drift paths must share the grid horizon, and staircase breakpoints must
    land on grid points."""
    if not isinstance(path, (CadlagPath, StaircasePath)):
        raise TypeError("drift path must be a CadlagPath or StaircasePath")
    if path.horizon != grid.horizon:
        raise ValueError("drift path horizon differs from the grid horizon")
    if isinstance(path, StaircasePath) and not np.isin(path.breakpoints, grid.points).all():
        raise ValueError(
            "staircase breakpoints off the grid; put them on grid points, e.g. "
            "TimeGrid(np.union1d(grid.points, breakpoints))")


def solve_batch(components, drifts, batch: NoiseBatch | GatheredBatch,
                initial: np.ndarray, forcing=None, k_start: int = 0,
                k_stop: int = None) -> BatchResult:
    """Advance all paths of a batch jointly from step k_start to k_stop.

    ``batch`` is a ``NoiseBatch``, or a ``GatheredBatch`` gathered for these
    ``components``.

    ``initial`` has shape (n_components, n_paths) and seeds the state at
    ``k_start``; values outside the solved span are left as NaN sentinels.
    ``forcing``, a ``Forcing``, replaces the drifts; the drifts' own table is
    a ``Forcing`` too. Components are advanced in runs of consecutive equal
    coefficients, each a slice of the state, and the jump events are binned
    over the whole grid, of which the solve reads its own steps.
    Jump kernels are called as ``fn(x, marks)`` on all the events of a step
    that touch distinct rows at once, so they must act elementwise: ``x`` has
    shape (E,) and ``marks`` (E,) or (d, E). ``marks`` may be a view of an
    array that later steps and solves read, so a kernel must not write to it.
    The diffusion, stable and compensator terms read the clipped state, the
    initial one included; ``c1 * y`` reads the state as it is. A diffusion or
    compensator with an ``into(x, out)`` method is evaluated in place; any
    other is called as ``fn(x)``.
    """
    grid = batch.grid
    n_steps = grid.n_steps
    k_stop = n_steps if k_stop is None else k_stop
    n_comp, n_paths = len(components), batch.n_paths

    pts = grid.points
    if isinstance(batch, GatheredBatch):
        if list(map(id, components)) != list(map(id, batch.components)):
            raise ValueError("the batch was gathered for other components")
        parts, warns = batch.parts, list(batch.warnings)
        events = batch.segments
    else:
        parts, warns = _prepare_parts(components, batch)
        events = _bin_events(components, batch)
    live = []  # indices of mean-field drifts, evaluated per step on the state
    if forcing is not None:  # overrides drifts
        if not isinstance(forcing, Forcing):
            raise TypeError(f"forcing must be a solver.Forcing, "
                            f"not {type(forcing).__name__}")
        # the min over the rows that some step reads
        if forcing.table.min(axis=(1, 2))[forcing.index].min() < 0:
            warns.append("drift forcing takes negative values; the "
                         "existence theory assumes b >= 0")
    else:
        for drift in drifts:
            if drift.kind == "path":
                _check_drift_path(drift.path, grid)
        live = [i for i, d in enumerate(drifts) if not d.deterministic]
        fixed = [i for i, d in enumerate(drifts) if d.deterministic]
        table = np.zeros((n_steps, n_comp, 1))
        table[:, fixed] = np.moveaxis(drift_values([drifts[i] for i in fixed], pts[:-1],
                                                   np.empty((0, 1, n_steps))), -1, 0)
        if table.min() < 0:
            warns.append("drift target takes negative values; the "
                         "existence theory assumes b >= 0")
        forcing = Forcing(table, np.arange(n_steps))
    live_drifts = [drifts[i] for i in live]

    values = np.empty((n_comp, n_paths, n_steps + 1))  # the steps fill [k_start, k_stop]
    values[:, :, :k_start] = np.nan
    values[:, :, k_stop + 1:] = np.nan
    state = np.array(np.broadcast_to(np.asarray(initial, dtype=float),
                                     (n_comp, n_paths)), dtype=float)
    values[:, :, k_start] = state
    clipped = np.maximum(state, 0.0)  # what the terms read; later states are clipped
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
                    # c1*y + c2*b + sigma(y+)*dw + (coef*y+^e)*dz - dt*comp(y+),
                    # summed in place in new, where y+ is the clipped state
                    y = clipped[part.sel]
                    acc = np.multiply(state[part.sel], part.c1[k], out=new[part.sel])
                    acc += part.c2[k] * b[part.sel] if cb is None else cb[j]
                    if dw is not None:
                        acc += np.multiply(_evaluate(part.sigma, y, tmp), dw[j], out=tmp)
                    for (coef, expo, _draw), inc in zip(part.stable, dz):
                        np.power(y, expo, out=tmp)
                        tmp *= coef
                        tmp *= inc[j]
                        acc += tmp
                    if part.compensator is not None:
                        acc -= np.multiply(_evaluate(part.compensator, y, tmp), dts[k],
                                           out=tmp)
                for ci, fn, rows, marks in events.get(k, ()):
                    y = new[ci]
                    x = y[rows]
                    y[rows] = x + fn(x, marks)
                # a finite sum has no inf or nan term; an overflowing one is
                # told apart by the full scan
                if not math.isfinite(np.add.reduce(new, axis=None)):
                    bad = np.argwhere(~np.isfinite(new))
                    if bad.size:
                        raise NumericsError(step=k + 1, time=float(pts[k + 1]),
                                            component=int(bad[0, 0]),
                                            path_index=int(batch.lineages[bad[0, 1]][1]))
                np.maximum(new, 0.0, out=new)
                state = clipped = new
            values[:, :, k0 + 1:k1 + 1] = chunk.transpose(1, 2, 0)
    return BatchResult(values=values, warnings=warns)

