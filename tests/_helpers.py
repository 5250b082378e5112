"""Shared test utilities."""
import numpy as np

from mfjump import CadlagPath, SystemSpec
from mfjump.solver import Forcing

LATTICE = 2.0 ** -20  # dyadic value lattice: all staircase arithmetic is exact


def lattice_path(rng, grid, n_jumps=3):
    """Nonnegative cadlag path with lattice values and registered jumps."""
    steps = grid.n_steps
    raw = np.cumsum(rng.integers(-2000, 2001, steps + 1)) * LATTICE
    values = np.abs(raw) + rng.integers(0, 2 ** 18) * LATTICE
    jumps = []
    if n_jumps:
        jump_idx = rng.choice(np.arange(1, steps), size=n_jumps, replace=False)
        for j in sorted(jump_idx):
            size = rng.integers(2 ** 16, 2 ** 19) * LATTICE
            values[j:] = values[j:] + size
            jumps.append((float(grid.points[j]), float(values[j] - size),
                          float(values[j])))
    return CadlagPath(grid, values, tuple(jumps))


def step_forcing(forcing) -> Forcing:
    """An (N, P, K) forcing array as the ``Forcing`` of its K step rows."""
    forcing = np.asarray(forcing, dtype=float)
    return Forcing(np.moveaxis(forcing, -1, 0).copy(), np.arange(forcing.shape[-1]))


def permute_system(spec, perm):
    """Relabel components by ``perm`` (drifts and initials move along)."""
    perm = list(perm)
    return SystemSpec(components=tuple(spec.components[p] for p in perm),
                      drifts=tuple(spec.drifts[p] for p in perm),
                      initial=spec.initial[perm])
