import numpy as np
import pytest
from scipy import stats

from mfjump import (MeasureSpec, NoiseLayout, TimeGrid, gen_stable_increments,
                    make_batch)
from mfjump.noise import FactorDraws, draw_rows


def unit_grid(steps, horizon=1.0):
    return TimeGrid.uniform(horizon, steps)


class TestTimeGrid:
    def test_invariants(self):
        g = unit_grid(4)
        assert g.horizon == 1.0
        assert g.n_steps == 4
        assert g.mesh == pytest.approx(0.25)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.5, 1.0]))  # must start at 0
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.5, 0.5]))  # strictly increasing
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0]))

    def test_index_of(self):
        g = unit_grid(4)
        assert g.index_of(0.0) == 0
        assert g.index_of(0.25) == 1
        assert g.index_of(0.3) == 1
        assert g.index_of(1.0) == 4
        with pytest.raises(ValueError):
            g.index_of(1.5)

    def test_refine_with(self):
        g = unit_grid(2).refine_with([0.3])
        assert np.array_equal(g.points, [0.0, 0.3, 0.5, 1.0])


def brownian(grid, master_seed, paths=(0,), factors=(0,)):
    """Brownian increments of ``factors`` for ``paths``: factor -> (P, K)."""
    layout = NoiseLayout(brownian_factors=tuple(factors))
    return make_batch(grid, layout, master_seed, paths).brownian


def events(rate, sampler, grid, master_seed, paths=(0,)):
    """Events of one finite-activity measure for ``paths``, as arrays."""
    layout = NoiseLayout(measures=(MeasureSpec("m0", rate, sampler),))
    return make_batch(grid, layout, master_seed, paths).events["m0"]


class TestBrownian:
    def test_unit_step_variance(self):
        # var of N(0, dt) with dt=1 is 1; chi-square sd of the sample variance
        # at n=1e5 is ~0.0045, so [0.99, 1.01] is a ~2.2 sigma window
        grid = TimeGrid.uniform(100000.0, 100000)
        inc = brownian(grid, master_seed=101)[0][0]
        assert 0.99 <= inc.var() <= 1.01

    def test_determinism(self):
        grid = unit_grid(64)
        a = brownian(grid, master_seed=7, paths=[5], factors=(0, 1, 2))
        b = brownian(grid, master_seed=7, paths=[5], factors=(0, 1, 2))
        for f in range(3):
            assert np.array_equal(a[f], b[f])

    def test_sum_is_brownian_marginal(self):
        # sum over the grid ~ N(0, T); one-sample KS against the exact CDF
        grid = unit_grid(16, horizon=1.0)
        sums = brownian(grid, master_seed=11, paths=range(10000))[0].sum(axis=1)
        assert stats.kstest(sums, stats.norm(scale=1.0).cdf).pvalue > 0.01

    def test_cross_factor_and_cross_path_independence(self):
        n = 100000
        grid = TimeGrid.uniform(float(n), n)
        x = brownian(grid, master_seed=3, paths=[0, 1], factors=(0, 1))
        bound = 4.0 / np.sqrt(n)
        assert abs(np.corrcoef(x[0][0], x[1][0])[0, 1]) < bound
        assert abs(np.corrcoef(x[0][0], x[0][1])[0, 1]) < bound

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            brownian(unit_grid(4), master_seed=0, paths=[])


class TestStable:
    def test_alpha_two_is_gaussian_variance(self):
        # alpha=2 stable with scale dt^(1/2) is N(0, 2*dt): var = 0.02 at dt=0.01
        grid = TimeGrid.uniform(1000.0, 100000)
        inc = gen_stable_increments(grid, 2.0, master_seed=5)
        se = 0.02 * np.sqrt(2.0 / inc.size)
        assert abs(inc.var() - 0.02) < 3 * se

    def test_alpha_two_gaussian_ks(self):
        grid = TimeGrid.uniform(100000.0, 100000)
        inc = gen_stable_increments(grid, 2.0, master_seed=6)
        assert stats.kstest(inc, stats.norm(scale=np.sqrt(2.0)).cdf).pvalue > 0.01

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_characteristic_function(self, alpha):
        # closed-form stable CF in the one-parametrization as the oracle
        grid = TimeGrid.uniform(100000.0, 100000)
        inc = gen_stable_increments(grid, alpha, master_seed=8)
        for theta in (0.5, 1.0, 2.0, -0.5, -1.0, -2.0):
            ecf = np.exp(1j * theta * inc).mean()
            target = np.exp(-abs(theta) ** alpha
                            * (1 - 1j * np.tan(np.pi * alpha / 2) * np.sign(theta)))
            assert abs(ecf - target) <= 5e-2

    def test_self_similarity(self):
        # increments over c*dt match c^(1/alpha) times increments over dt
        alpha, c = 1.5, 4.0
        coarse = gen_stable_increments(TimeGrid.uniform(4.0 * 10000, 10000),
                                       alpha, master_seed=12)
        fine = gen_stable_increments(TimeGrid.uniform(10000.0, 10000),
                                     alpha, master_seed=13)
        assert stats.ks_2samp(coarse, c ** (1 / alpha) * fine).pvalue > 0.01

    def test_matches_scipy_law(self):
        # independent oracle for the whole law, not just the CF points
        grid = TimeGrid.uniform(2000.0, 2000)
        inc = gen_stable_increments(grid, 1.5, master_seed=14)
        assert stats.kstest(inc, lambda q: stats.levy_stable.cdf(q, 1.5, 1.0)).pvalue > 0.01

    @pytest.mark.parametrize("alpha,oracle", [
        # population 1%-symmetric-trimmed means of S_alpha(1, beta=1, 0),
        # frozen from quadrature of x * levy_stable.pdf between the 1% quantiles
        (1.2, -1.6757809997852364),
        (1.5, -0.31983216206014004),
        (1.8, -0.08230825322231074),
    ])
    def test_compensation_trimmed_mean(self, alpha, oracle):
        # raw means of stable samples fluctuate at n^(1/alpha - 1), so the
        # centering check compares the trimmed mean against its population
        # value, where the CLT applies
        n = 100000
        grid = TimeGrid.uniform(float(n), n)
        inc = np.sort(gen_stable_increments(grid, alpha, master_seed=21))
        k = int(round(0.01 * n))
        core = inc[k:n - k]
        bound = 4.0 * core.std(ddof=1) / np.sqrt(core.size)
        assert abs(core.mean() - oracle) < bound

    def test_rejects_bad_alpha(self):
        grid = unit_grid(4)
        for alpha in (1.0, 0.5, 2.5):
            with pytest.raises(ValueError):
                gen_stable_increments(grid, alpha, master_seed=0)


class TestFiniteActivityEvents:
    def test_zero_rate(self):
        ev = events(0.0, lambda rng, size: rng.uniform(size=size), unit_grid(8), 1)
        assert ev.times.size == 0

    def test_poisson_mean(self):
        # rate 3 over T=2: mean count 6, se = sqrt(6/1e4)
        grid = unit_grid(16, horizon=2.0)
        ev = events(3.0, lambda rng, size: rng.uniform(size=size), grid, 17,
                    paths=range(10000))
        counts = np.bincount(ev.rows, minlength=10000)
        se = np.sqrt(6.0 / len(counts))
        assert abs(np.mean(counts) - 6.0) < 3 * se

    def test_sorted_and_in_range(self):
        grid = unit_grid(8, horizon=2.0)
        times = events(20.0, lambda rng, size: rng.uniform(size=size), grid, 3).times
        assert np.array_equal(times, np.sort(times))
        assert np.all((times > 0) & (times <= 2.0))

    def test_determinism(self):
        grid = unit_grid(8)
        mk = lambda: events(5.0, lambda rng, size: list(rng.uniform(size=size)),
                            grid, 9, paths=[2])
        a, b = mk(), mk()
        for name in ("rows", "times", "marks"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_rejects_bad_rate(self):
        grid = unit_grid(4)
        for rate in (np.inf, np.nan, -1.0):
            with pytest.raises(ValueError):
                events(rate, lambda rng, size: [], grid, 0)

    def test_marks_in_rd_come_as_columns(self):
        grid = unit_grid(8)
        sampler = lambda rng, size: rng.uniform(size=(3, size))
        ev = events(20.0, sampler, grid, 4, paths=range(5))
        assert ev.marks.shape == (3, ev.times.size)
        assert np.array_equal(ev.rows, np.sort(ev.rows))
        for p in range(5):
            mine = ev.rows == p
            alone = events(20.0, sampler, grid, 4, paths=[p])
            assert np.array_equal(ev.times[mine], alone.times)
            assert np.array_equal(ev.marks[:, mine], alone.marks)
        # size rows of d marks (the transpose) break the (d, size) contract
        with pytest.raises(ValueError, match="mark_sampler"):
            events(20.0, lambda rng, size: rng.uniform(size=(size, 3)), grid, 4)


def assert_same_row(a, ra, b, rb):
    """Row ra of batch a holds bit for bit the draws of row rb of batch b:
    Brownian, stable and event arrays."""
    assert a.brownian.keys() == b.brownian.keys()
    assert a.stable.keys() == b.stable.keys()
    assert a.events.keys() == b.events.keys()
    for f in a.brownian:
        assert np.array_equal(a.brownian[f][ra], b.brownian[f][rb])
    for f in a.stable:
        assert np.array_equal(a.stable[f][ra], b.stable[f][rb])
    for mid in a.events:
        ea, eb = a.events[mid], b.events[mid]
        assert np.array_equal(ea.times[ea.rows == ra], eb.times[eb.rows == rb])
        assert np.array_equal(ea.marks[..., ea.rows == ra], eb.marks[..., eb.rows == rb])


class TestBundles:
    """A single path's noise is the one-row batch of its lineage."""

    def layout(self):
        sampler = lambda rng, size: list(rng.exponential(1.0, size))
        return NoiseLayout(
            brownian_factors=(0, 2),
            stable_alphas={0: 1.5, 1: 2.0},
            measures=(MeasureSpec(measure_id="m0", rate=2.0, mark_sampler=sampler),))

    def test_replay_bit_exact(self):
        grid = unit_grid(32)
        a = make_batch(grid, self.layout(), master_seed=99, path_indices=[4])
        b = make_batch(grid, self.layout(), master_seed=99, path_indices=[4])
        assert a.lineages == ((99, 4),)
        assert a.events["m0"].times.size > 0
        assert_same_row(a, 0, b, 0)
        assert np.array_equal(a.events["m0"].rows, b.events["m0"].rows)

    def test_batch_rows_match_bundles(self):
        # a row of a block equals the one-row batch of its path, whatever the
        # block's other paths and their order; 2**32 takes two seed words
        grid = unit_grid(16)
        for paths in ([5, 2, 9], [5, 2**32, 9]):
            batch = make_batch(grid, self.layout(), master_seed=1, path_indices=paths)
            assert batch.lineages == tuple((1, p) for p in paths)
            assert batch.events["m0"].times.size > 0
            for row, p in enumerate(paths):
                alone = make_batch(grid, self.layout(), master_seed=1, path_indices=[p])
                assert_same_row(batch, row, alone, 0)

    def test_coarsen_aggregates_increments(self):
        grid = unit_grid(16)
        batch = make_batch(grid, self.layout(), master_seed=2, path_indices=[0, 3])
        coarse = batch.coarsen(4)
        assert coarse.grid.n_steps == 4
        assert np.array_equal(coarse.grid.points, grid.points[::4])
        for key in ("brownian", "stable"):
            fine, agg = getattr(batch, key), getattr(coarse, key)
            assert fine.keys() == agg.keys()
            for f in fine:
                assert np.allclose(agg[f], fine[f].reshape(2, 4, 4).sum(axis=2))
        for mid, ev in batch.events.items():
            for name in ("rows", "times", "marks"):
                assert np.array_equal(getattr(coarse.events[mid], name), getattr(ev, name))
        assert coarse.lineages == batch.lineages
        with pytest.raises(ValueError):
            batch.coarsen(5)

    def test_factors_are_rows_of_one_array_and_coarsen_keeps_them(self):
        # every factor of a kind is a row of one (F, rows, n_steps) draw, and
        # coarsen aggregates that draw once, bit for bit as factor by factor
        grid = unit_grid(16)
        for branch in (None, ((1, 2), 3)):
            batch = make_batch(grid, self.layout(), 2, [0, 3], branch=branch)
            coarse = batch.coarsen(4)
            for key in ("brownian", "stable"):
                fine, agg = getattr(batch, key), getattr(coarse, key)
                for views in (fine, agg):
                    base = views[min(views)].base
                    assert base.shape[0] == len(views)
                    assert all(v.base is base for v in views.values())
                for f in fine:
                    assert np.array_equal(agg[f], fine[f].reshape(-1, 4, 4).sum(axis=2))

    def test_factor_draws_rows_of_a_group(self):
        draws = FactorDraws((0, 2, 3, 5), np.arange(4 * 2 * 3.0).reshape(4, 2, 3))
        assert list(draws) == [0, 2, 3, 5] and len(draws) == 4 and 1 not in draws
        assert np.shares_memory(draws[3], draws.array)
        assert draws.rows((3,)).shape == (2, 3)
        for fs, view in (((2, 3, 5), True), ((5, 5), False), ((0, 3), False),
                         ((3, 2), False)):
            rows = draws.rows(fs)
            assert np.array_equal(rows, np.stack([draws[f] for f in fs]))
            assert np.shares_memory(rows, draws.array) is view

    def test_factor_draws_do_not_depend_on_layout(self):
        # streams are keyed by factor index, so adding factors leaves the
        # existing ones untouched
        grid = unit_grid(16)
        small = make_batch(grid, NoiseLayout(brownian_factors=(1,)), 7, [0])
        big = make_batch(grid, NoiseLayout(brownian_factors=(0, 1, 2)), 7, [0])
        assert np.array_equal(small.brownian[1], big.brownian[1])


def numpy_stream(master, path, stream):
    """The oracle: numpy's own per-path spawn-key stream."""
    return np.random.default_rng(np.random.SeedSequence(master, spawn_key=(path,) + stream))


def sample(rng):
    """Normals, uniforms, exponentials and Poisson counts, plus an odd number
    of uint32 draws, which leaves half a 64-bit output buffered."""
    return (rng.standard_normal(5), rng.uniform(size=3), rng.standard_exponential(3),
            rng.poisson(4.0, 4), rng.integers(0, 1000, 3, dtype=np.uint32))


class TestBlockSeeding:
    """``draw_rows`` seeds all paths of a block in one vectorised pass and
    must reproduce numpy's per-path SeedSequence streams bit for bit."""

    MASTERS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3]
    PATHS = [0, 1, 511, 2**32 - 1, 2**32, 2**40]
    # Brownian factor 0, events of measure 2, and a nested-mc events key
    STREAMS = [(1, 0), (3, 2), (4, 3, 2, 17, 3, 1, 5)]

    @pytest.mark.parametrize("stream", STREAMS)
    @pytest.mark.parametrize("master", MASTERS)
    def test_rows_match_numpy_seed_sequence(self, master, stream):
        got = draw_rows(master, self.PATHS, stream, sample)
        assert len(got) == len(self.PATHS)
        for path, row in zip(self.PATHS, got):
            for a, b in zip(row, sample(numpy_stream(master, path, stream))):
                assert np.array_equal(a, b)

    def test_row_does_not_depend_on_block(self):
        stream = (2, 1)
        block = draw_rows(9, [2**40, 3, 2**32, 3], stream, sample)
        for path, row in zip([2**40, 3, 2**32, 3], block):
            (alone,) = draw_rows(9, [path], stream, sample)
            for a, b in zip(row, alone):
                assert np.array_equal(a, b)
        assert draw_rows(9, [], stream, sample) == []

    def test_rejects_negative_keys(self):
        with pytest.raises(ValueError):
            draw_rows(-1, [0], (1, 0), sample)
        with pytest.raises(ValueError):
            draw_rows(0, [3, -2], (1, 0), sample)
        with pytest.raises(ValueError):
            draw_rows(0, [0], (1, -1), sample)

    def test_make_batch_builds_no_seed_sequence(self, monkeypatch):
        # 512 paths and 5 streams: one generator per stream, none per path
        made = {"SeedSequence": 0, "PCG64": 0}
        for name in made:
            real = getattr(np.random, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                made[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.random, name, counted)
        batch = make_batch(unit_grid(8), TestBundles().layout(), 3, range(512))
        assert batch.n_paths == 512
        assert made == {"SeedSequence": 0, "PCG64": 5}
