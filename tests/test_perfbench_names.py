"""The names the benchmark's tracer binds must keep resolving: ``perfbench``
wraps them by module and attribute, and a traced run fails when one is gone."""
import importlib
import importlib.util
import inspect
import os

import numpy as np

import mfjump.approx
from mfjump import SchemeConfig, coeffs, hierarchy_refinement_study, preset_example21
from mfjump.noise import MeasureSpec, NoiseBatch, NoiseLayout, TimeGrid, make_batch
from mfjump.solver import solve_batch

SPANS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    for _layer, module, attr, _count in load_spans()._FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_solve_batch_keeps_the_parameters_the_solver_counts_bind():
    params = inspect.signature(solve_batch).parameters
    for name in ("components", "batch", "k_start", "k_stop"):
        assert name in params


def test_noise_batch_keeps_coarsen_and_jump_events():
    assert callable(NoiseBatch.coarsen)
    assert isinstance(NoiseBatch.jump_events, property)


def test_every_measure_defines_its_own_integrate():
    """The tracer wraps ``integrate`` only where a class's own ``vars`` hold
    it, so a measure that inherited it would drop out of
    ``coeffs.integrate_calls``."""
    measures = [cls for cls in vars(coeffs).values()
                if isinstance(cls, type) and cls.__module__ == coeffs.__name__
                and hasattr(cls, "integrate")]
    assert {cls.__name__ for cls in measures} >= {
        "PointMassMeasure", "ExponentialMeasure", "StableJumpMeasure", "AxisSumMeasure",
        "ThinningMarkMeasure"}
    for cls in measures:
        assert "integrate" in vars(cls), cls.__name__


def test_noise_draws_count_one_array_per_factor():
    """``_noise_counts`` sums the sizes of ``.brownian.values()`` and
    ``.stable.values()`` as ``noise.draws``: one (rows, n_steps) array per
    factor, in factor order."""
    grid = TimeGrid.uniform(1.0, 8)
    layout = NoiseLayout(brownian_factors=(0, 2), stable_alphas={3: 1.5, 1: 1.8},
                         measures=(MeasureSpec("m", 2.0, lambda rng, n: rng.random(n)),))
    batch = make_batch(grid, layout, 4, [0, 5, 9])
    for draws, factors in ((batch.brownian, [0, 2]), (batch.stable, [1, 3])):
        assert list(draws) == factors
        values = list(draws.values())
        assert [v.shape for v in values] == [(3, 8)] * len(factors)
        assert all(np.array_equal(v, draws[f]) for v, f in zip(values, factors))
    counts = load_spans()._noise_counts(batch, None)
    assert counts["draws"] == 4 * 3 * 8
    assert counts["events"] == batch.events["m"].times.size


def test_every_level_of_every_block_and_rung_passes_the_level_builders(monkeypatch):
    """``approx.levels_built`` counts the calls of ``build_level_one`` and
    ``build_next_level`` by their module-global names: one hierarchy per
    block and rung, and one call per level."""
    calls = {"build_level_one": 0, "build_next_level": 0}

    def counted(name):
        build = getattr(mfjump.approx, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return build(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(mfjump.approx, name, counted(name))
    spec = preset_example21(2, sigma=0.3, a=1.0, initial=[1.0, 2.0])
    n_paths, ladder, n_max = mfjump.approx._BLOCK + 20, (8, 16, 32), 4
    results = hierarchy_refinement_study(spec, SchemeConfig(), 1.0, ladder, n_paths, 0,
                                         n_max, jobs=1)
    assert len(results) == len(ladder)
    blocks_rungs = 2 * len(ladder)
    assert calls == {"build_level_one": blocks_rungs,
                     "build_next_level": blocks_rungs * (n_max - 1)}
