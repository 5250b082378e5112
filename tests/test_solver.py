import math
import pickle
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest

from mfjump import (CadlagPath, DriftSpec, EventArrays, NumericsError,
                    PointMassMeasure, SchemeConfig, StaircasePath, TimeGrid,
                    compare_ordered, make_batch, preset_cbi_thinning, preset_cir,
                    preset_example21, solve_batch)
from mfjump.coeffs import (BrownianTerm, CoefficientSet, CompensatedKernel, JumpKernel,
                           PowerDiffusion, PowerModulus, SqrtDiffusion,
                           ThinningKernel, ThinningMarkSampler, ZeroFn)
from mfjump.noise import MeasureSpec, NoiseBatch, NoiseLayout
from mfjump.solver import EXPLICIT, Forcing, _prepare_parts


def deterministic_coeffs(a=1.0):
    return CoefficientSet(a=a, sigma=SqrtDiffusion(0.0), rho=PowerModulus(1.0, 0.5))


def empty_batch(grid):
    return NoiseBatch(grid=grid, brownian={}, stable={}, events={},
                      lineages=((0, 0),))


def solve_one(coeffs, drift, batch, initial):
    """One component from ``initial`` on every row of ``batch``."""
    return solve_batch([coeffs], [drift], batch, np.full((1, batch.n_paths), float(initial)))


def jumps_of(log, row, component):
    """``((time, left, right), ...)`` of one path of a jump log, in time order."""
    sel = (log.rows == row) & (log.components == component)
    return tuple(zip(log.times[sel].tolist(), log.left[sel].tolist(),
                     log.right[sel].tolist()))


def event_arrays(*events):
    """``EventArrays`` from ``(row, time, mark)`` triples in row, time order;
    tuple marks become the columns of a ``(d, E)`` array."""
    rows, times, marks = zip(*events)
    return EventArrays(rows=np.array(rows, dtype=np.intp),
                       times=np.array(times, dtype=float),
                       marks=np.array(marks, dtype=float).T)


class TestLinearDrift:
    def test_matches_ode_with_first_order_error(self):
        # dY = a(b - Y)dt with a=1, b=2, Y0=0: Y(1) = 2(1 - e^-1) = 1.2642411...
        target = 2.0 * (1.0 - math.exp(-1.0))
        errors = []
        for steps in (64, 128):
            grid = TimeGrid.uniform(1.0, steps)
            values = solve_one(deterministic_coeffs(), DriftSpec.constant(2.0),
                               empty_batch(grid), initial=0.0).values[0, 0]
            errors.append(abs(values[-1] - target))
        assert errors[0] < 0.02
        assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.1)


class TestPureJumpBookkeeping:
    def _single_event_batch(self, grid, tau, mark):
        return NoiseBatch(grid=grid, brownian={}, stable={},
                          events={"g1": event_arrays((0, tau, mark))},
                          lineages=((0, 0),))

    def test_single_event_adds_jump_size(self):
        kernel = JumpKernel(fn=AddMark(),
                            measure=MeasureSpec("g1", 0.0, lambda rng, n: []),
                            mu=None)
        coeffs = CoefficientSet(a=0.0, sigma=SqrtDiffusion(0.0),
                                rho=PowerModulus(1.0, 0.5), g1=kernel)
        grid = TimeGrid.uniform(1.0, 8)
        tau, jump = 0.3, 0.75
        res = solve_one(coeffs, DriftSpec.constant(0.0),
                        self._single_event_batch(grid, tau, jump), initial=2.0)
        path = CadlagPath(grid, res.values[0, 0], jumps_of(res.jumps, 0, 0))
        assert np.all(path.values[grid.points < tau] == 2.0)
        assert np.all(path.values[grid.points >= tau] == 2.75)
        assert path.evaluate(tau) == 2.75
        assert path.left_limit(tau) == 2.0
        assert (res.jumps.times.tolist(), res.jumps.left.tolist(),
                res.jumps.right.tolist()) == ([tau], [2.0], [2.75])


@dataclass(frozen=True)
class AddMark:
    def __call__(self, x, mark):
        return mark


@dataclass(frozen=True)
class ScaleByMark:
    """Jump size x * u, which depends on the state, so event order matters."""

    def __call__(self, x, mark):
        return x * mark


def pure_jump_component(g0_fn, g0_measure, g1_fn=None, g1_measure=None):
    """a = 0, no diffusion, zero compensator: only the jumps move the state."""
    g0 = CompensatedKernel(fn=g0_fn, measure=g0_measure, mu=None, compensator=ZeroFn())
    g1 = None if g1_fn is None else JumpKernel(fn=g1_fn, measure=g1_measure, mu=None)
    return CoefficientSet(a=0.0, sigma=SqrtDiffusion(0.0), rho=PowerModulus(1.0, 0.5),
                          g0_finite=g0, g1=g1)


def scalar_event_reference(components, batch, initial):
    """Values and jump records of pure-jump components, one event at a time:
    per (path, component) the events of g0_finite and g1 in (time, g0 before
    g1, event order), each applied as left + fn(left, mark) on floats."""
    pts = batch.grid.points
    values = np.empty((len(components), batch.n_paths, pts.size))
    jumps = {}
    for ci, comp in enumerate(components):
        for row, per_measure in enumerate(batch.jump_events):
            events = []
            for slot, kernel in enumerate((comp.g0_finite, comp.g1)):
                if kernel is None:
                    continue
                for j, ev in enumerate(per_measure.get(kernel.measure.measure_id, ())):
                    if 0.0 < ev.time <= pts[-1]:
                        events.append((ev.time, slot, j, ev.mark, kernel.fn))
            events.sort(key=lambda e: e[:3])
            y = float(initial[ci])
            values[ci, row, 0] = y
            for k in range(pts.size - 1):
                while events and events[0][0] <= pts[k + 1]:
                    t, _slot, _j, mark, fn = events.pop(0)
                    size = float(fn(y, mark))
                    if size != 0.0:
                        jumps.setdefault((row, ci), []).append((t, y, y + size))
                    y = y + size
                values[ci, row, k + 1] = y
    return values, jumps


class TestVectorisedEvents:
    """Events applied per step in fancy-indexed kernel calls equal a scalar
    per-event reference bit for bit."""

    def components(self):
        a = MeasureSpec("a", 30.0, lambda rng, n: rng.uniform(-0.5, 0.5, n))
        b = MeasureSpec("b", 20.0, lambda rng, n: rng.exponential(0.3, n))
        c = MeasureSpec("c", 40.0, ThinningMarkSampler(v_max=4.0, exp_mean=0.4))
        return (pure_jump_component(ScaleByMark(), a, AddMark(), b),
                pure_jump_component(AddMark(), b, ScaleByMark(), a),
                pure_jump_component(ThinningKernel(), c))

    def check(self, components, batch, initial):
        res = solve_batch(components, [DriftSpec.constant(0.0)] * len(components),
                          batch, initial[:, None])
        values, jumps = scalar_event_reference(components, batch, initial)
        assert np.array_equal(res.values, values)
        for row in range(batch.n_paths):
            for ci in range(len(components)):
                assert jumps_of(res.jumps, row, ci) == tuple(jumps.get((row, ci), ()))
        return res

    def test_hand_placed_events(self):
        # grid 0, .25, .5, .75, 1. Row 0: two "a" events and a "b" event in
        # step 0, an "a" event on the grid point 0.5, a "b" event at the
        # horizon and an "a" event at t = 0. Row 1: "a" and "b" at the same
        # time 0.3, which component 0 takes g0 ("a") first and component 1
        # takes g0 ("b") first; a "b" event at t = 0. Row 2: no events.
        grid = TimeGrid.uniform(1.0, 4)
        events = {
            "a": event_arrays((0, 0.0, 0.3), (0, 0.1, 0.5), (0, 0.2, -0.25),
                              (0, 0.5, 0.125), (1, 0.3, 0.5)),
            "b": event_arrays((0, 0.15, 1.0), (0, 1.0, 0.75), (1, 0.0, 2.0),
                              (1, 0.3, 1.0)),
            "c": event_arrays((0, 0.1, (0.5, 0.4)), (0, 0.2, (3.0, 0.4)),
                              (0, 0.22, (0.1, 0.2))),
        }
        batch = NoiseBatch(grid=grid, brownian={}, stable={}, events=events,
                           lineages=((0, 0), (0, 1), (0, 2)))
        initial = np.array([1.0, 2.0, 1.0])
        res = self.check(self.components(), batch, initial)
        assert 0.0 not in res.jumps.times.tolist()
        values, jumps = res.values[0, 0], jumps_of(res.jumps, 0, 0)
        assert [t for t, _l, _r in jumps] == [0.1, 0.15, 0.2, 0.5, 1.0]
        assert values[2] == jumps[3][2]  # the 0.5 event lands on t = 0.5
        assert values[-1] == jumps[4][2]  # the horizon event is applied
        # thinning: accepted at v < x only, two events in one step
        assert [t for t, _l, _r in jumps_of(res.jumps, 0, 2)] == [0.1, 0.22]
        assert jumps_of(res.jumps, 1, 0) == ((0.3, 1.0, 1.5), (0.3, 1.5, 2.5))
        assert jumps_of(res.jumps, 1, 1) == ((0.3, 2.0, 3.0), (0.3, 3.0, 4.5))
        assert jumps_of(res.jumps, 2, 0) == ()

    def test_dense_random_events(self):
        # about 7 events per path and measure in each of 4 steps, so most
        # (row, component) cells get several events per step
        comps = self.components()
        layout = NoiseLayout(measures=tuple(
            k.measure for k in (comps[0].g0_finite, comps[0].g1, comps[2].g0_finite)))
        grid = TimeGrid.uniform(1.0, 4)
        batch = make_batch(grid, layout, 5, range(40))
        res = self.check(comps, batch, np.array([1.0, 2.0, 1.5]))
        assert res.jumps.times.size > 1000


class TestCirMean:
    def test_monte_carlo_mean_matches_mean_ode(self):
        # compensated noise leaves the mean ODE m' = a(b - m)
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        grid = TimeGrid.uniform(1.0, 256)
        batch = make_batch(grid, spec.noise_layout(), 42, range(4000))
        res = solve_batch(spec.components, spec.drifts, batch, spec.initial[:, None])
        target = 2.0 + (1.0 - 2.0) * math.exp(-1.0)
        mean = res.values[0, :, -1].mean()
        se = res.values[0, :, -1].std(ddof=1) / math.sqrt(4000)
        assert abs(mean - target) < 3 * se

    def test_mean_ode_with_stable_jumps(self):
        # the compensated stable term does not shift the mean either
        spec = preset_example21(1, a=1.0, sigma=0.4, sigma_z=0.3, alpha=1.8,
                                initial=1.0, drift=DriftSpec.constant(2.0))
        grid = TimeGrid.uniform(1.0, 256)
        batch = make_batch(grid, spec.noise_layout(), 7, range(4000))
        res = solve_batch(spec.components, spec.drifts, batch, spec.initial[:, None])
        target = 2.0 + (1.0 - 2.0) * math.exp(-1.0)
        terminal = res.values[0, :, -1]
        se = terminal.std(ddof=1) / math.sqrt(terminal.size)
        assert abs(terminal.mean() - target) < 4 * se


class TestInvariants:
    def test_determinism(self):
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        grid = TimeGrid.uniform(1.0, 64)
        batch = make_batch(grid, spec.noise_layout(), 3, [0])
        a = solve_one(spec.components[0], spec.drifts[0], batch, initial=1.0)
        b = solve_one(spec.components[0], spec.drifts[0], batch, initial=1.0)
        assert np.array_equal(a.values, b.values)

    def test_clipping_keeps_paths_nonnegative(self):
        spec = preset_cir(a=1.0, b=0.05, sigma=2.0, initial=0.1)
        grid = TimeGrid.uniform(1.0, 128)
        batch = make_batch(grid, spec.noise_layout(), 11, range(200))
        res = solve_batch(spec.components, spec.drifts, batch, spec.initial[:, None])
        assert res.values.min() >= 0.0

    def test_nan_blowup_raises_with_step_index(self):
        from mfjump.coeffs import BrownianTerm
        # cubic diffusion with a reviving drift overflows within the horizon
        coeffs = CoefficientSet(a=1.0, sigma=PowerDiffusion(50.0, 3.0),
                                brownian=(BrownianTerm(factor=1, weight=1.0),),
                                rho=PowerModulus(1.0, 0.5))
        grid = TimeGrid.uniform(1.0, 64)
        batch = make_batch(grid, NoiseLayout(brownian_factors=(1,)), 0, [0])
        with pytest.raises(NumericsError) as err:
            solve_one(coeffs, DriftSpec.constant(1000.0), batch, initial=5.0)
        assert err.value.step == 9
        assert "step 9" in str(err.value)

    def test_blowup_names_global_path_and_replays_alone(self):
        from mfjump.coeffs import BrownianTerm
        coeffs = CoefficientSet(a=1.0, sigma=PowerDiffusion(50.0, 3.0),
                                brownian=(BrownianTerm(factor=1, weight=1.0),),
                                rho=PowerModulus(1.0, 0.5))
        grid = TimeGrid.uniform(1.0, 64)
        layout = NoiseLayout(brownian_factors=(1,))
        errors = []
        for paths in (range(700, 704), range(700, 701)):
            with pytest.raises(NumericsError) as err:
                solve_batch([coeffs], [DriftSpec.constant(1000.0)],
                            make_batch(grid, layout, 0, paths),
                            initial=np.full((1, len(paths)), 5.0))
            errors.append(err.value)
        assert [e.path_index for e in errors] == [700, 700]
        assert errors[0].step == errors[1].step
        assert "path 700" in str(errors[0])

    def test_numerics_error_pickles_with_its_fields(self):
        err = NumericsError(step=3, time=0.25, component=1, path_index=5000)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is NumericsError
        assert (back.step, back.time, back.component, back.path_index) == (3, 0.25, 1, 5000)
        assert str(back) == str(err)

    def test_explicit_step_precondition_warns(self):
        grid = TimeGrid.uniform(1.0, 2)  # dt = 0.5, a = 3 -> a*dt > 1
        with pytest.warns(RuntimeWarning, match="monotonicity precondition"):
            solve_one(deterministic_coeffs(a=3.0), DriftSpec.constant(1.0),
                      empty_batch(grid), initial=0.0)

    def test_negative_drift_warns(self):
        grid = TimeGrid.uniform(1.0, 4)
        with pytest.warns(RuntimeWarning, match="negative"):
            solve_one(deterministic_coeffs(), DriftSpec.constant(-1.0),
                      empty_batch(grid), initial=1.0)

    def test_rejects_mean_field_drift(self):
        grid = TimeGrid.uniform(1.0, 4)
        mean_field = DriftSpec.mean_field_average(2)
        with pytest.raises(ValueError, match="system solver"):
            compare_ordered(deterministic_coeffs(), mean_field, mean_field,
                            empty_batch(grid), initial_low=1.0)


class TestThinnedJumps:
    def test_compensated_thinning_follows_mean_ode(self):
        # jump flow minus compensator has zero conditional mean at any state,
        # so E[Y_t] solves m' = a(b - m) exactly: m(t) = 1 + e^{-t}
        from mfjump import PointMassMeasure, thinning_system
        spec = thinning_system(PointMassMeasure(atoms=((0.4, 3.0),)), v_max=6.0,
                               a=1.0, sigma=0.2, initial=2.0,
                               drift=DriftSpec.constant(1.0))
        grid = TimeGrid.uniform(1.0, 128)
        batch = make_batch(grid, spec.noise_layout(), 19, range(3000))
        res = solve_batch(spec.components, spec.drifts, batch, spec.initial[:, None])
        terminal = res.values[0, :, -1]
        target = 1.0 + math.exp(-1.0)
        se = terminal.std(ddof=1) / math.sqrt(terminal.size)
        assert abs(terminal.mean() - target) < 3 * se
        # accepted events were recorded with their left limits
        n_jumps = res.jumps.times.size
        assert n_jumps > 0
        assert res.jumps.right - res.jumps.left == pytest.approx(np.full(n_jumps, 0.4))


class TestStaircaseDrift:
    def test_breakpoints_must_land_on_grid(self):
        stair = StaircasePath(np.array([0.0, 0.3, 1.0]), np.array([1.0, 2.0]))
        grid = TimeGrid.uniform(1.0, 4)  # 0.3 off the grid
        with pytest.raises(ValueError, match="refine_with"):
            solve_one(deterministic_coeffs(), DriftSpec.external(stair),
                      empty_batch(grid), initial=1.0)
        aligned = grid.refine_with(stair.breakpoints)
        res = solve_one(deterministic_coeffs(), DriftSpec.external(stair),
                        empty_batch(aligned), initial=1.0)
        assert res.values[0, 0].size == aligned.points.size

    def test_cadlag_drift_on_same_grid(self):
        grid = TimeGrid.uniform(1.0, 8)
        forcing = CadlagPath.constant(grid, 2.0)
        a = solve_one(deterministic_coeffs(), DriftSpec.external(forcing),
                      empty_batch(grid), initial=0.0)
        b = solve_one(deterministic_coeffs(), DriftSpec.constant(2.0),
                      empty_batch(grid), initial=0.0)
        assert np.array_equal(a.values, b.values)

    def test_cadlag_drift_on_coarser_grid(self):
        # drift path sampled on a coarser grid is evaluated right-continuously
        coarse = TimeGrid.uniform(1.0, 4)
        fine = TimeGrid.uniform(1.0, 8)
        forcing = CadlagPath(coarse, np.array([1.0, 2.0, 3.0, 4.0, 4.0]))
        a = solve_one(deterministic_coeffs(), DriftSpec.external(forcing),
                      empty_batch(fine), initial=0.0)
        assert a.values[0, 0].size == fine.points.size

    def test_horizon_mismatch_rejected(self):
        forcing = CadlagPath.constant(TimeGrid.uniform(2.0, 4), 1.0)
        with pytest.raises(ValueError, match="horizon"):
            solve_one(deterministic_coeffs(), DriftSpec.external(forcing),
                      empty_batch(TimeGrid.uniform(1.0, 4)), initial=0.0)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            SchemeConfig(scheme="milstein")

    def test_explicit_is_the_only_scheme(self):
        assert SchemeConfig().scheme == EXPLICIT
        with pytest.raises(ValueError, match="unknown scheme"):
            SchemeConfig(scheme="drift-implicit")


class TestCompareOrdered:
    def test_identical_drifts_no_violation(self):
        spec = preset_cir(a=1.0, b=1.0, sigma=0.5, initial=1.0)
        grid = TimeGrid.uniform(1.0, 64)
        batch = make_batch(grid, spec.noise_layout(), 2, [0])
        report = compare_ordered(spec.components[0], DriftSpec.constant(1.0),
                                 DriftSpec.constant(1.0), batch, initial_low=1.0)
        assert report.max_violation == 0.0
        assert report.violating_fraction == 0.0

    def test_deterministic_monotone_recursion_exact(self):
        # sigma = 0: the recursion is monotone in the drift argument when
        # 1 - a*dt >= 0, so ordering is exact, zero tolerance
        grid = TimeGrid.uniform(1.0, 64)
        report = compare_ordered(deterministic_coeffs(), DriftSpec.constant(1.0),
                                 DriftSpec.constant(2.0), empty_batch(grid),
                                 initial_low=1.0)
        assert report.max_violation == 0.0

    def test_rejects_unordered_inputs(self):
        grid = TimeGrid.uniform(1.0, 8)
        with pytest.raises(ValueError):
            compare_ordered(deterministic_coeffs(), DriftSpec.constant(2.0),
                            DriftSpec.constant(1.0), empty_batch(grid),
                            initial_low=1.0)
        with pytest.raises(ValueError):
            compare_ordered(deterministic_coeffs(), DriftSpec.constant(1.0),
                            DriftSpec.constant(1.0), empty_batch(grid),
                            initial_low=2.0, initial_high=1.0)

    def test_diffusive_violations_shrink_under_refinement(self):
        # boundary-hugging square-root diffusion: violations exist but their
        # ensemble max shrinks as the step is refined (shared noise ladder)
        spec = preset_example21(1, a=1.0, sigma=2.0, initial=0.05,
                                drift=DriftSpec.constant(0.1))
        comp = spec.components[0]
        layout = spec.noise_layout()
        fine = TimeGrid.uniform(1.0, 256)
        batch_fine = make_batch(fine, layout, 0, range(1000))
        maxima = []
        for steps in (64, 128, 256):
            batch = batch_fine.coarsen(256 // steps)
            maxima.append(compare_ordered(comp, DriftSpec.constant(0.1),
                                          DriftSpec.constant(1.1), batch,
                                          initial_low=0.05).max_violation)
        assert maxima[0] > maxima[1] > maxima[2] > 0.0

    def test_pair_steps_as_one_group_and_equals_two_solves_alone(self):
        # Brownian, stable and thinned jumps: the pair is one group on the
        # same noise, and each member equals its one-component solve
        spec = jumping_example21(1.0)
        comp = spec.components[0]
        batch = make_batch(TimeGrid.uniform(1.0, 200), spec.noise_layout(), 3, range(16))
        parts, _warns = _prepare_parts([comp, comp], batch)
        assert [part.idx for part in parts] == [[0, 1]]
        low, high = DriftSpec.constant(0.5), DriftSpec.constant(1.5)
        pair = solve_batch([comp, comp], [low, high], batch, np.array([[1.0], [1.25]])).values
        lo = solve_one(comp, low, batch, initial=1.0).values[0]
        hi = solve_one(comp, high, batch, initial=1.25).values[0]
        assert np.array_equal(pair, np.stack([lo, hi]))
        report = compare_ordered(comp, low, high, batch,
                                 initial_low=1.0, initial_high=1.25)
        gap = lo - hi
        assert report.max_violation == float(np.maximum(gap, 0.0).max())
        assert report.violating_fraction == float(np.mean(gap > 0.0))
        assert report.n_points == gap.size == 16 * 201

    def test_one_report_pools_every_row(self):
        # one report over rows 0-199 is the max and the point-weighted mean
        # of the 200 one-row reports
        spec = preset_example21(1, a=1.0, sigma=2.0, initial=0.05,
                                drift=DriftSpec.constant(0.1))
        grid = TimeGrid.uniform(1.0, 128)
        layout = spec.noise_layout()

        def report(rows):
            batch = make_batch(grid, layout, 0, rows)
            return compare_ordered(spec.components[0], DriftSpec.constant(0.1),
                                   DriftSpec.constant(1.1), batch, initial_low=0.05)

        pooled = report(range(200))
        alone = [report([p]) for p in range(200)]
        assert pooled.n_points == sum(r.n_points for r in alone) == 25_800
        assert pooled.max_violation == max(r.max_violation for r in alone)
        violating = sum(round(r.violating_fraction * r.n_points) for r in alone)
        assert pooled.violating_fraction == violating / pooled.n_points
        assert (pooled.max_violation, pooled.violating_fraction) == \
            (0.006256189356926702, 0.009263565891472867)


class TestSubRangeSolve:
    def test_chained_intervals_reproduce_single_pass(self):
        # solving [0, T] in one pass equals concatenating per-interval solves
        # with chained initial values, bit for bit
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        comp = spec.components[0]
        grid = TimeGrid.uniform(1.0, 32)
        batch = make_batch(grid, spec.noise_layout(), 9, range(4))
        forcing = np.tile(np.repeat([0.5, 1.5, 1.0, 2.0], 8), (1, 4, 1))
        full = solve_batch([comp], spec.drifts, batch,
                           np.full((1, 4), 1.0), forcing=forcing)
        state = np.full((1, 4), 1.0)
        pieces = []
        for k0 in range(0, 32, 8):
            part = solve_batch([comp], spec.drifts, batch,
                               state, forcing=forcing, k_start=k0, k_stop=k0 + 8)
            state = part.values[:, :, k0 + 8]
            pieces.append(part.values[:, :, k0 + (0 if k0 == 0 else 1):k0 + 9])
        chained = np.concatenate(pieces, axis=2)
        assert np.array_equal(chained, full.values)

    @pytest.mark.parametrize("k_start, k_stop", [(10, 140), (0, 160), (70, 70), (0, 3)])
    def test_nan_sentinels_outside_the_solved_span_only(self, k_start, k_stop):
        # the span crosses chunk ends; columns k_start .. k_stop hold states
        spec = preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
        grid = TimeGrid.uniform(1.0, 160)
        batch = make_batch(grid, spec.noise_layout(), 4, range(3))
        res = solve_batch(spec.components, spec.drifts, batch,
                          np.full((1, 3), 1.0), k_start=k_start, k_stop=k_stop)
        inside = np.zeros(grid.n_steps + 1, dtype=bool)
        inside[k_start:k_stop + 1] = True
        assert np.isfinite(res.values[:, :, inside]).all()
        assert np.isnan(res.values[:, :, ~inside]).all()


def jumping_example21(a):
    """Three example 2.1 components (Brownian, common and own stable factors,
    mean-field drift), each also thinned by one shared compensated kernel."""
    spec = preset_example21(3, a=a, sigma=0.4, sigma0=0.2, sigma_z=0.2,
                            sigma_z0=0.1, initial=[1.0, 1.5, 2.0])
    thin = preset_cbi_thinning(PointMassMeasure(atoms=((0.4, 3.0),)), v_max=6.0)
    comps = tuple(replace(c, g0_finite=thin.g0_finite) for c in spec.components)
    return replace(spec, components=comps)


class TestChunkedSteps:
    """solve_batch gathers its operands a chunk of steps at a time; where the
    chunks end must not show in any value or jump."""

    @pytest.mark.parametrize("a", [1.0, [1.0, 2.0, 1.0]], ids=["slice", "fancy"])
    @pytest.mark.parametrize("forced", [False, True], ids=["mean-field", "forced"])
    def test_one_solve_equals_single_steps(self, a, forced):
        spec = jumping_example21(a)
        n_steps = 200  # not a multiple of the chunk length
        batch = make_batch(TimeGrid.uniform(1.0, n_steps), spec.noise_layout(), 3, range(16))
        forcing = None
        if forced:
            forcing = np.random.default_rng(4).uniform(0.5, 2.0, (3, 16, n_steps))
        full = solve_batch(spec.components, spec.drifts, batch,
                           spec.initial[:, None], forcing=forcing)
        assert full.jumps.times.size > 100
        state = np.broadcast_to(spec.initial[:, None], (3, 16))
        values, logs = [state], []
        for k in range(n_steps):
            step = solve_batch(spec.components, spec.drifts, batch, state,
                               forcing=forcing, k_start=k, k_stop=k + 1)
            state = step.values[:, :, k + 1]
            values.append(state)
            logs.append(step.jumps)
        assert np.array_equal(np.stack(values, axis=-1), full.values)
        for name in ("rows", "components", "times", "left", "right"):
            chained = np.concatenate([getattr(log, name) for log in logs])
            assert np.array_equal(chained, getattr(full.jumps, name)), name

    def test_blowup_past_the_first_chunk_names_its_step_and_path(self):
        spec = jumping_example21(1.0)
        grid = TimeGrid.uniform(1.0, 200)
        batch = make_batch(grid, spec.noise_layout(), 3, range(40, 56))
        forcing = np.ones((3, 16, 200))
        forcing[2, 5, 100] = np.inf
        forcing[1, 9, 100] = np.inf  # the first non-finite cell of step 100
        forcing[0, 0, 150] = np.inf
        with pytest.raises(NumericsError) as info:
            solve_batch(spec.components, spec.drifts, batch,
                        spec.initial[:, None], forcing=forcing)
        err = info.value
        assert (err.step, err.time, err.component, err.path_index) == \
            (101, grid.points[101], 1, 49)


class TestRowForcing:
    """A forcing held as rows and a step index solves to the same bits as its
    (N, P, K) array."""

    @staticmethod
    def rows(n_steps=200):
        # interval ends 37, 101, 150 cross no, one and two chunk edges
        lengths = np.diff([0, 37, 101, 150, n_steps])
        table = np.random.default_rng(8).uniform(0.5, 2.0, (lengths.size, 3, 16))
        return Forcing(table, np.repeat(np.arange(lengths.size), lengths))

    @pytest.mark.parametrize("a", [1.0, [1.0, 2.0, 1.0]], ids=["slice", "fancy"])
    @pytest.mark.parametrize("k_start, k_stop", [(0, None), (10, 140), (63, 65)])
    def test_rows_solve_as_the_full_table(self, a, k_start, k_stop):
        # a = [1, 2, 1] makes a fancy group {0, 2} and a singleton {1}
        spec = jumping_example21(a)
        batch = make_batch(TimeGrid.uniform(1.0, 200), spec.noise_layout(), 3, range(16))
        rows = self.rows()
        full = rows.table[rows.index].transpose(1, 2, 0)
        state = np.random.default_rng(1).uniform(0.5, 2.0, (3, 16))
        by_rows, by_table = (
            solve_batch(spec.components, spec.drifts, batch, state,
                        forcing=forcing, k_start=k_start, k_stop=k_stop)
            for forcing in (rows, full))
        assert np.array_equal(by_rows.values, by_table.values, equal_nan=True)
        assert np.array_equal(by_rows.jumps.right, by_table.jumps.right)

    def test_reads_as_its_full_table(self):
        rows = self.rows()
        full = rows.table[rows.index].transpose(1, 2, 0)
        assert np.array_equal(np.asarray(rows), full)
        assert np.array_equal(rows[:, :, 30:110], full[:, :, 30:110])
        assert np.array_equal(rows[0, 2, :40], full[0, 2, :40])
        assert np.array_equal(rows[1, :, 77], full[1, :, 77])

    @pytest.mark.parametrize("bad_row, warns", [(1, True), (4, False)])
    def test_negative_warning_reads_only_the_rows_steps_use(self, bad_row, warns):
        # row 4 is no step's row: the full table holds no negative value
        rows = self.rows()
        table = np.concatenate([rows.table, np.ones((1, 3, 16))])
        table[bad_row, 2, 5] = -0.5
        spec = preset_example21(3, a=1.0, sigma=0.4)
        batch = make_batch(TimeGrid.uniform(1.0, 200), spec.noise_layout(), 3, range(16))
        for forcing in (Forcing(table, rows.index), table[rows.index].transpose(1, 2, 0)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                solve_batch(spec.components, spec.drifts, batch,
                            spec.initial[:, None], forcing=forcing)
            assert [str(w.message) for w in caught] == (
                ["drift forcing takes negative values; the existence theory "
                 "assumes b >= 0"] if warns else [])


class TestStackedGroups:
    @pytest.mark.parametrize("a", [1.0, [1.0, 2.0, 1.0]])
    def test_group_solve_equals_each_component_alone(self, a):
        # forcing decouples the components, so a grouped solve must equal
        # each component solved on its own, bit for bit
        spec = preset_example21(3, a=a, sigma=0.4, sigma0=0.2, sigma_z=0.2,
                                sigma_z0=0.1, alpha=1.8, alpha0=1.5,
                                initial=[1.0, 1.5, 2.0])
        grid = TimeGrid.uniform(1.0, 64)
        batch = make_batch(grid, spec.noise_layout(), 5, range(16))
        forcing = np.random.default_rng(3).uniform(0.5, 2.0, (3, 16, 64))
        initial = spec.initial[:, None]
        joint = solve_batch(spec.components, spec.drifts, batch, initial,
                            forcing=forcing).values
        for i in range(3):
            alone = solve_batch([spec.components[i]], [spec.drifts[i]], batch,
                                initial[i:i + 1], forcing=forcing[i:i + 1]).values
            assert np.array_equal(joint[i:i + 1], alone)

    @pytest.mark.parametrize("a, groups", [(1.0, [[0, 1, 2]]),
                                           ([1.0, 2.0, 1.0], [[0, 2], 1])])
    def test_equal_coefficients_share_one_group(self, a, groups):
        spec = preset_example21(3, a=a, sigma=0.4, sigma0=0.2, sigma_z=0.2,
                                sigma_z0=0.1)
        batch = make_batch(TimeGrid.uniform(1.0, 8), spec.noise_layout(), 5, range(2))
        parts, _warns = _prepare_parts(spec.components, batch)
        assert [part.idx for part in parts] == groups
        # the common stable factor Z^0 is one array seen by every member
        common = parts[0].stable[0][2]
        assert np.shares_memory(common, batch.stable[0])

    @pytest.mark.parametrize("a, copied", [(1.0, False), ([1.0, 2.0, 1.0], True)])
    def test_consecutive_factors_are_a_slice_of_the_draw(self, a, copied):
        # members 0..2 take Z^1..Z^3, consecutive rows of the batch's stable
        # draw, so the group reads a slice; members 0 and 2 (Z^1, Z^3) get a copy
        spec = preset_example21(3, a=a, sigma=0.4, sigma0=0.2, sigma_z=0.2,
                                sigma_z0=0.1)
        batch = make_batch(TimeGrid.uniform(1.0, 8), spec.noise_layout(), 5, range(2))
        parts, _warns = _prepare_parts(spec.components, batch)
        own = parts[0].stable[1][2]
        members = parts[0].idx
        assert np.array_equal(own, np.stack([batch.stable[i + 1] for i in members]))
        assert np.shares_memory(own, batch.stable[1]) is not copied

    def test_pickled_batch_keeps_the_stacked_layout(self):
        # a batch sent to a worker process still reads Z^1..Z^3 as one slice
        spec = preset_example21(3, a=1.0, sigma=0.4, sigma0=0.2, sigma_z=0.2,
                                sigma_z0=0.1)
        batch = make_batch(TimeGrid.uniform(1.0, 8), spec.noise_layout(), 5, range(2))
        back = pickle.loads(pickle.dumps(batch))
        parts, _warns = _prepare_parts(spec.components, back)
        own = parts[0].stable[1][2]
        assert np.array_equal(own, np.stack([batch.stable[i + 1] for i in range(3)]))
        assert np.shares_memory(own, back.stable[1])

    def test_zero_loading_gives_a_positive_zero_increment(self):
        # dw = 0 + sum of weight * B, as sum() adds: -0.0 becomes 0.0
        comp = CoefficientSet(a=1.0, sigma=SqrtDiffusion(0.3),
                              brownian=(BrownianTerm(factor=0, weight=-0.0),),
                              rho=PowerModulus(1.0, 0.5))
        batch = make_batch(TimeGrid.uniform(1.0, 8), NoiseLayout(brownian_factors=(0,)),
                           0, range(4))
        parts, _warns = _prepare_parts([comp], batch)
        _cb, dw, _dz = parts[0].chunk(0, 8)
        assert dw.shape == (8, 4)
        assert np.all(dw == 0.0)
        assert not np.signbit(dw).any()
