"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. Monte Carlo criteria use pinned seeds so the suite is
deterministic; oracle values are frozen closed forms.
"""
import json
import math
import os
import time

import numpy as np
import pytest
from scipy import stats

import mfjump as mf
from _helpers import lattice_path


def criterion(num, description, ok, elapsed, budget):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"criterion {num:2d} {status}: {description} "
          f"[{elapsed:.1f}s / {budget:.0f}s]")
    assert ok, f"criterion {num} failed: {description}"
    assert elapsed <= budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_01_cir_mean_oracle():
    start = time.monotonic()
    spec = mf.preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
    grid = mf.dyadic_partition(11, 1.0)  # dt = 2^-10
    res = mf.run_ensemble(spec, grid, 10000, 2024)
    # frozen oracle: 2 + (1 - 2) e^{-t}
    targets = {0.25: 1.2211992169285951, 0.5: 1.3934693402873666,
               1.0: 1.6321205588285577}
    ok = True
    for t, target in targets.items():
        j = grid.index_of(t)
        ok = ok and abs(res.mean[0, j] - target) <= 3.0 * res.se[0, j]
    criterion(1, "CIR Monte Carlo mean within 3 SE of the mean ODE",
              ok, time.monotonic() - start, 60.0)


def test_criterion_02_mean_conservation():
    start = time.monotonic()
    spec = mf.preset_example21(3, a=1.0, sigma=0.4, sigma0=0.2, sigma_z=0.2,
                               sigma_z0=0.1, alpha=1.8, alpha0=1.5,
                               initial=[1.0, 1.5, 2.0])
    grid = mf.dyadic_partition(9, 1.0)
    res = mf.run_ensemble(spec, grid, 10000, 77)
    ok = True
    for j in range(32, grid.points.size, 32):
        ok = ok and abs(res.avg_mean[j] - res.avg_mean[0]) <= 3.0 * res.avg_se[j]
    criterion(2, "component average conserved within 3 SE at all checked times",
              ok, time.monotonic() - start, 120.0)


def test_criterion_03_stable_generator():
    start = time.monotonic()
    ok = True
    for alpha in (1.2, 1.5, 1.8):
        grid = mf.TimeGrid.uniform(100000.0, 100000)
        inc = mf.gen_stable_increments(grid, alpha, master_seed=8)
        for theta in (0.5, 1.0, 2.0, -0.5, -1.0, -2.0):
            ecf = np.exp(1j * theta * inc).mean()
            target = np.exp(-abs(theta) ** alpha
                            * (1 - 1j * math.tan(math.pi * alpha / 2)
                               * np.sign(theta)))
            ok = ok and abs(ecf - target) <= 5e-2
    grid = mf.TimeGrid.uniform(100000.0, 100000)
    gauss = mf.gen_stable_increments(grid, 2.0, master_seed=6)
    ok = ok and stats.kstest(gauss, stats.norm(scale=np.sqrt(2.0)).cdf).pvalue > 0.01
    criterion(3, "stable increments match the closed-form CF; alpha=2 is Gaussian",
              ok, time.monotonic() - start, 10.0)


def test_criterion_04_staircase_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(4)
    grid = mf.TimeGrid.uniform(1.0, 128)
    ok = True
    for _ in range(100):
        b = lattice_path(rng, grid, n_jumps=int(rng.integers(0, 5)))
        envs = {}
        for n in range(1, 9):
            lo = mf.lower_staircase(b, n).evaluate(grid.points)
            ok = ok and bool(np.all(lo <= b.values))
            envs[n] = mf.envelope(b, n).evaluate(grid.points)
            ok = ok and bool(np.all(envs[n] <= b.values)) \
                and bool(np.all(envs[n] >= 0.0))
            if n > 1:
                ok = ok and bool(np.all(envs[n] >= envs[n - 1]))
        up = mf.upper_staircase(b).evaluate(grid.points)
        ok = ok and bool(np.all(up >= b.values))
        for n in (1, 2, 4, 8):
            osc, mask = mf.grid_modulus(b, 1.0 / n, jump_free=True)
            gaps = b.values[mask] - envs[n][mask]
            ok = ok and bool(np.all(gaps <= 1.0 / n + osc))
    criterion(4, "staircase domination, envelope monotonicity and gap bound, "
                 "exact on 100 random paths", ok, time.monotonic() - start, 5.0)


def _ordered_paths_mask(prev, cur):
    return np.all(cur.values >= prev.values, axis=(0, 2))


def test_criterion_05_subset_infimum_ordering():
    start = time.monotonic()
    ok, coverage = True, 0
    # deterministic core: every path ordered, plus a diffusive ensemble
    runs = [
        (mf.preset_example21(2, a=1.0, sigma=0.0, initial=[1.0, 3.0]), 5, 1, 0),
        (mf.preset_example21(2, a=2.0, sigma=0.9, initial=[0.5, 1.5]), 4, 128, 29),
    ]
    for spec, n_max, n_paths, seed in runs:
        grid = mf.dyadic_partition(8, 1.0)
        batch = mf.make_batch(grid, spec.noise_layout(), seed, range(n_paths))
        hier = mf.run_hierarchy_batch(spec, batch, n_max)
        for prev, cur in zip(hier.levels, hier.levels[1:]):
            ordered = _ordered_paths_mask(prev, cur)
            if not ordered.any():
                continue
            even = cur.inf_drifts[:, ordered, 0::2]
            odd = cur.inf_drifts[:, ordered, 1::2]
            base = prev.inf_drifts[:, ordered, :]
            ok = ok and bool(np.all(even >= base)) and bool(np.all(odd >= base))
            coverage += int(ordered.sum())
    ok = ok and coverage > 0
    criterion(5, "subset-infimum inequalities exact at every (i, k) on ordered "
                 "paths", ok, time.monotonic() - start, 60.0)


def test_criterion_06_monotone_levels():
    start = time.monotonic()
    # deterministic core: sigma = 0, jump-free, realized mode, n_max = 5
    spec_det = mf.preset_example21(2, a=1.0, sigma=0.0, initial=[1.0, 3.0])
    grid = mf.dyadic_partition(8, 1.0)
    batch = mf.make_batch(grid, spec_det.noise_layout(), 1, range(4))
    hier = mf.run_hierarchy_batch(spec_det, batch, 5, mode="realized")
    rows = mf.check_monotone(hier.levels)
    ok = all(r.max_violation == 0.0 for r in rows)
    # diffusive: ensemble-max ordering violation shrinks across the dt ladder
    # (shared noise, pinned seed; see the ledger note on this statistic's tail)
    spec_dif = mf.preset_example21(2, a=4.0, sigma=2.0, initial=[0.4, 0.8])
    study = mf.hierarchy_refinement_study(spec_dif, 1.0, [64, 128, 256],
                                          1000, 0, 4)
    maxima = [r.max_violation for r in study]
    ok = ok and maxima[0] > maxima[1] > maxima[2]
    criterion(6, "level monotonicity exact for the deterministic core; "
                 "diffusive max violation strictly decreases across dt",
              ok, time.monotonic() - start, 300.0)


def test_criterion_07_moment_bound_envelope():
    start = time.monotonic()
    spec = mf.preset_example21(2, a=1.0, sigma=0.5, sigma_z=0.2, alpha=1.8,
                               initial=[1.0, 2.0])
    grid = mf.dyadic_partition(11, 1.0)  # 2^10 steps
    hier = mf.run_hierarchy_ensemble(spec, grid, 1000, 7, 4)
    # average drift: B = 0, L = 1/N; the presets carry g1 = 0, so K = 0
    report = mf.moment_bound_check(hier.levels, grid, a_bar=1.0, growth_b=0.0,
                                   growth_l=0.5, k_const=0.0)
    ok = report.passed_raw and report.l_prime == 1.0 and report.b_prime == 0.0
    criterion(7, "empirical sup-component means stay below M e^{L't} "
                 f"(M={report.m_const:.3f}, L'={report.l_prime})",
              ok, time.monotonic() - start, 300.0)


def test_criterion_08_test_function_suite():
    start = time.monotonic()
    family = mf.TestFunctionFamily(rho=mf.PowerModulus(1.0, 0.5), x_m=1.0,
                                   k_max=10)
    # frozen closed forms: a_k = a_{k-1} e^{-k}
    ok = abs(family.a_seq[1] - 0.36787944117144233) <= 1e-9 * 0.36787944117144233
    ok = ok and abs(family.a_seq[2] - 0.049787068367863944) <= 1e-9 * 0.049787068367863944
    rng = np.random.default_rng(8)
    for k in range(1, 11):
        phi = family.phi(k)
        a_hi = family.a_seq[k - 1]
        xs = np.concatenate([rng.uniform(0.0, 2.0, 500),
                             a_hi * rng.uniform(0.0, 2.0, 500)])
        vals = phi.phi(xs)
        d = phi.dphi(xs)
        ok = ok and phi.phi(0.0) == 0.0
        ok = ok and bool(np.all((0.0 <= d) & (d <= 1.0)))
        ok = ok and bool(np.all(phi.d2phi(xs) >= 0.0))
        ok = ok and bool(np.all(vals <= xs)) \
            and bool(np.all(vals >= xs - a_hi))
    criterion(8, "a_1 = e^-1, a_2 = e^-3 to 1e-9; phi family properties on "
                 "10^3 sampled x for k <= 10", ok, time.monotonic() - start, 5.0)


def test_criterion_09_uniqueness_diagnostic():
    start = time.monotonic()
    spec = mf.preset_cir(a=1.0, b=2.0, sigma=0.5, initial=1.0)
    report = mf.refinement_study(spec, 1.0, [64, 128, 256],
                                 1000, 9)
    ok = report.strictly_decreasing()
    criterion(9, "shared-noise E[sup |difference|] strictly decreases along "
                 "the {2^-6, 2^-7, 2^-8} ladder", ok, time.monotonic() - start,
              180.0)


def test_criterion_10_cli_determinism(tmp_path):
    start = time.monotonic()
    from mfjump.cli import main
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "schema_version": 1, "name": "determinism", "horizon": 1.0,
        "grid_steps": 128,
        "preset": {"kind": "example21", "n_components": 2, "a": 1.0,
                   "sigma": 0.5, "sigma_z": 0.2, "alpha": 1.8,
                   "initial": [1.0, 2.0]},
    }))

    def tree(out):
        return {name: (out / name).read_bytes() for name in os.listdir(out)}

    ok = True
    runs = []
    for name, jobs in (("s1", 1), ("s2", 4), ("s3", 1)):
        out = tmp_path / name
        code = main(["simulate", "--scenario", str(scen), "--paths", "600",
                     "--seed", "11", "--out", str(out), "--jobs", str(jobs),
                     "--dump-paths", "5"])
        ok = ok and code == 0
        runs.append(tree(out))
    ok = ok and runs[0] == runs[1] == runs[2]

    runs = []
    for name, jobs in (("a1", 1), ("a2", 3)):
        out = tmp_path / name
        code = main(["approx", "--scenario", str(scen), "--paths", "300",
                     "--levels", "3", "--seed", "11", "--out", str(out),
                     "--jobs", str(jobs)])
        ok = ok and code == 0
        runs.append(tree(out))
    ok = ok and runs[0] == runs[1]
    criterion(10, "CLI outputs byte-identical across reruns and parallelism "
                  "degrees", ok, time.monotonic() - start, 120.0)
