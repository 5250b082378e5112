"""Batch command line: simulate | approx | validate | uniqueness.

Every command is a pure function of (scenario bytes, flags, seed): outputs
carry no timestamps, JSON keys are sorted, floats are written with repr, and
ensemble reductions run in fixed path order, so reruns are byte-identical at
any parallelism degree.

Exit codes: 0 success, 1 validation failure, 2 numeric failure, 3 usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .approx import MODES, hierarchy_refinement_study, moment_bound_check
from .scenario import Scenario, ScenarioError, load_scenario
from .solver import NumericsError, SchemeConfig
from .system import run_ensemble
from .uniqueness import TestFunctionFamily, refinement_study
from .validate import SamplingPlan, validate_system

EXIT_OK, EXIT_VALIDATION, EXIT_NUMERIC, EXIT_USAGE = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mfjump", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dt=True):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--out", default=None,
                       help="output directory (default $MFJUMP_OUT or ./mfjump-out)")
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                       help="worker processes (results are jobs-independent)")
        if dt:
            p.add_argument("--dt", type=float, default=None,
                           help="override the scenario grid resolution")

    p = sub.add_parser("simulate", help="Monte Carlo ensemble of the system")
    common(p)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--dump-paths", type=int, default=100,
                   help="trajectories written to paths.csv (aggregates cover all)")

    p = sub.add_parser("approx", help="monotone approximation hierarchy")
    common(p)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--levels", type=int, default=6, help="highest level n_max")
    p.add_argument("--mode", choices=MODES, default="realized")
    p.add_argument("--inner", type=int, default=8, help="nested-mc branch count")
    p.add_argument("--refinements", type=int, default=1,
                   help="rungs in the step ladder, base included")

    p = sub.add_parser("validate", help="run the coefficient assumption validators")
    common(p, dt=False)
    p.add_argument("--budget", type=int, default=400, help="sample budget")

    p = sub.add_parser("uniqueness", help="shared-noise refinement diagnostic")
    common(p)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--levels", type=int, default=3, help="refinement rung count")
    p.add_argument("--phi-k", type=int, nargs="*", default=None,
                   help="test-function indices for the phi-moment curves "
                        "(default: 2 and 4, those the scenario's modulus resolves)")

    return parser


def _require_count(value: int, flag: str, low: int) -> None:
    """A count below ``low`` is a usage error, reported before any work."""
    if value < low:
        raise ScenarioError(f"{flag} must be at least {low}")


def _out_dir(args) -> str:
    out = args.out or os.environ.get("MFJUMP_OUT") or "mfjump-out"
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"--out {out}: cannot create the directory: "
                            f"{exc.strerror}") from exc
    return out


def _steps(scenario: Scenario, args) -> int:
    if args.dt is None:
        return scenario.grid_steps
    if not (math.isfinite(args.dt) and args.dt > 0):
        raise ScenarioError(f"--dt must be finite and positive, got {args.dt}")
    steps = round(scenario.horizon / args.dt)
    if steps < 1 or not np.isclose(steps * args.dt, scenario.horizon):
        raise ScenarioError(f"--dt {args.dt} does not tile the horizon "
                            f"{scenario.horizon}")
    return steps


def _require_breakpoints_on(grid, scenario: Scenario) -> None:
    """A staircase drift switches only at grid points, so a breakpoint off
    the simulation grid is a usage error, reported before any work."""
    for drift in scenario.system.drifts:
        if drift.kind == "path":
            off = drift.path.breakpoints[~np.isin(drift.path.breakpoints, grid.points)]
            if off.size:
                raise ScenarioError(f"drift.breakpoints: {float(off[0])!r} is not a "
                                    f"point of the {grid.n_steps}-step grid")


def _seed(scenario: Scenario, args) -> int:
    if args.seed is not None:
        _require_count(args.seed, "--seed", 0)
        return args.seed
    return scenario.seed if scenario.seed is not None else 0


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(out: str, name: str, header, lines) -> None:
    """One comma-joined line per row; no field is quoted, as every one is a
    number or a fixed label."""
    with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(f"{line}\n" for line in lines)


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    _require_count(args.paths, "--paths", 1)
    _require_count(args.dump_paths, "--dump-paths", 0)
    grid = scenario.grid(_steps(scenario, args))
    _require_breakpoints_on(grid, scenario)
    seed = _seed(scenario, args)
    out = _out_dir(args)
    spec = scenario.system

    result = run_ensemble(spec, SchemeConfig(), grid, args.paths, seed, jobs=args.jobs,
                          keep_paths=args.dump_paths)
    qs = (0.05, 0.25, 0.5, 0.75, 0.95)
    quants = result.quantiles(qs)

    times = [repr(t) for t in grid.points.tolist()]
    curves = [*zip(map(str, range(spec.n)), result.mean, result.se),
              ("average", result.avg_mean, result.avg_se)]
    _write_csv(out, "aggregate.csv", ["time", "component", "mean", "se"], (
        f"{t},{label},{m!r},{s!r}" for label, mean, se in curves
        for t, m, s in zip(times, mean.tolist(), se.tolist())))
    _write_csv(out, "paths.csv", ["path_id", "component", "time", "value"], (
        f"{p},{i},{t},{v!r}"
        for p in range(result.values.shape[1]) for i in range(spec.n)
        for t, v in zip(times, result.values[i, p].tolist())))

    summary = {
        "name": scenario.name,
        "seed": seed,
        "n_paths": args.paths,
        "grid_steps": grid.n_steps,
        "horizon": scenario.horizon,
        "integral_mean": [float(v) for v in result.integral_mean],
        "integral_se": [float(v) for v in result.integral_se],
        "section_times": [float(t) for t in result.section_times],
        "section_mean": [[float(result.section_values[:, i, s].mean())
                          for s in range(result.section_times.size)]
                         for i in range(spec.n)],
        "section_quantiles": {str(q): [[float(quants[qi, i, s])
                                        for s in range(result.section_times.size)]
                                       for i in range(spec.n)]
                              for qi, q in enumerate(qs)},
        "average_mean_start": float(result.avg_mean[0]),
        "average_mean_end": float(result.avg_mean[-1]),
        "warnings": result.warnings,
        "scenario": scenario.raw,
    }
    _write_json(os.path.join(out, "summary.json"), summary)
    print(f"simulate: {args.paths} paths, {grid.n_steps} steps -> {out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    _require_count(args.budget, "--budget", 4)
    out = _out_dir(args)
    plan = SamplingPlan(budget=args.budget)
    reports = validate_system(scenario.system, plan)
    payload = []
    failed = False
    for report in reports:
        payload.append({
            "subject": report.subject,
            "passed": report.passed,
            "conditions": [{
                "name": c.name, "status": c.status, "detail": c.detail,
                "witness": None if c.witness is None else repr(c.witness),
            } for c in report.conditions],
        })
        failed = failed or not report.passed
        for line in report.lines():
            print(line)
    _write_json(os.path.join(out, "validation.json"), payload)
    return EXIT_VALIDATION if failed else EXIT_OK


def cmd_approx(args) -> int:
    scenario = load_scenario(args.scenario)
    _require_count(args.paths, "--paths", 1)
    _require_count(args.levels, "--levels", 2)
    _require_count(args.refinements, "--refinements", 1)
    if args.mode == "nested-mc":
        _require_count(args.inner, "--inner", 1)
    base_steps = _steps(scenario, args)
    if base_steps & (base_steps - 1):
        raise ScenarioError("approx needs a power-of-two step count so dyadic "
                            "partitions land on grid points")
    if args.levels > base_steps.bit_length():  # level L needs 2^(L-1) steps
        raise ScenarioError(f"--levels must be at most {base_steps.bit_length()} "
                            f"on a {base_steps}-step grid")
    seed = _seed(scenario, args)
    out = _out_dir(args)
    spec = scenario.system

    a_bar = max(c.a for c in spec.components)
    growth_b = max(d.growth_bound for d in spec.drifts)
    growth_l = max(d.growth_slope for d in spec.drifts)
    k_const = max(c.growth_k for c in spec.components)

    grid = scenario.grid(base_steps)
    # one pass: the base-grid report is rung 0 of the ladder's shared draw
    ladder = [base_steps * 2 ** r for r in range(args.refinements)]
    rungs = hierarchy_refinement_study(
        spec, SchemeConfig(), scenario.horizon, ladder, args.paths, seed, args.levels,
        mode=args.mode, n_inner=args.inner, jobs=args.jobs)
    hier = rungs[0]
    refinement_rows = rungs if args.refinements > 1 else []
    # realized forcing of time-only drifts is the exact interval infimum
    deterministic = args.mode == "realized" and all(d.deterministic for d in spec.drifts)
    bound = moment_bound_check(hier.levels, grid, a_bar, growth_b, growth_l,
                               k_const)

    _write_csv(out, "level_gaps.csv",
               ["steps", "level_from", "level_to", "mean_sup_gap", "max_sup_gap"], (
                   f"{grid.n_steps},{li + 1},{li + 2},{float(pair_gap.mean())!r},"
                   f"{float(pair_gap.max())!r}" for li, pair_gap in enumerate(hier.sup_gaps)))
    _write_csv(out, "monotonicity.csv",
               ["steps", "level_from", "level_to", "max_violation", "violating_fraction"], (
                   f"{grid.n_steps},{row.level_from},{row.level_to},"
                   f"{row.max_violation!r},{row.violating_fraction!r}"
                   for row in hier.monotonicity))
    _write_csv(out, "refinements.csv",
               ["steps", "dt", "max_violation", "mean_sup_violation",
                "violating_fraction", "cauchy_gap"], (
                   f"{row.steps},{row.dt!r},{row.max_violation!r},"
                   f"{row.mean_sup_violation!r},{row.violating_fraction!r},"
                   f"{row.cauchy_gap!r}" for row in refinement_rows))
    _write_csv(out, "moment_bound.csv", ["time", "level", "sup_mean", "envelope"], (
        f"{t!r},{li + 1},{m!r},{e!r}" for li, sup_mean in enumerate(bound.sup_mean.tolist())
        for t, m, e in zip(bound.curve_times.tolist(), sup_mean, bound.envelope.tolist())))

    report = {
        "mode_requested": args.mode,
        "mode_used": "deterministic" if deterministic else args.mode,
        "levels": args.levels,
        "paths": args.paths,
        "seed": seed,
        "steps": grid.n_steps,
        "constants": {"a_bar": a_bar, "B": growth_b, "L": growth_l,
                      "K": k_const, "K_provenance": "declared"},
        "cauchy_gap": hier.cauchy_gap,
        "monotonicity": [{
            "level_from": m.level_from, "level_to": m.level_to,
            "max_violation": m.max_violation,
            "violating_fraction": m.violating_fraction} for m in hier.monotonicity],
        "moment_bound": {
            "M": bound.m_const, "B_prime": bound.b_prime,
            "L_prime": bound.l_prime, "K": bound.k_const,
            "passed": bound.passed, "max_violation": bound.max_violation},
        "refinements": [{
            "steps": r.steps, "dt": r.dt, "max_violation": r.max_violation,
            "mean_sup_violation": r.mean_sup_violation,
            "violating_fraction": r.violating_fraction,
            "cauchy_gap": r.cauchy_gap} for r in refinement_rows],
    }
    _write_json(os.path.join(out, "approx_report.json"), report)
    print(f"approx: mode={report['mode_used']} levels={args.levels} -> {out}")
    return EXIT_OK


def _phi_family(scenario: Scenario, asked):
    """The test-function family of the first component's modulus and the
    indices to report, with every member built. An index whose threshold a_k
    the floats cannot resolve does not build: asked for with --phi-k it is a
    usage error that names the largest index that builds, and the default
    indices 2 and 4 leave it out. An index past the end of the threshold
    sequence, which stops at its first zero, reads a_k = 0.0."""
    phi_ks = tuple(sorted(set((2, 4) if asked is None else asked)))
    if not phi_ks:
        return None, ()
    family = TestFunctionFamily(rho=scenario.system.components[0].rho,
                                x_m=scenario.x_m, k_max=max(phi_ks))

    def builds(k: int) -> bool:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                family.phi(k)
        except (RuntimeError, ValueError):
            return False
        return True
    usable = tuple(k for k in phi_ks if builds(k))
    bad = next((k for k in phi_ks if k not in usable), None)
    if bad is not None and asked is not None:
        below = min(bad, np.count_nonzero(family.a_seq))  # no a_k = 0.0 builds
        top = next((k for k in range(below - 1, 0, -1) if builds(k)), "none")
        a_bad = float(family.a_seq[bad]) if bad < family.a_seq.size else 0.0
        raise ScenarioError(f"--phi-k {bad} is beyond this scenario's modulus "
                            f"(a_{bad} = {a_bad!r}); the largest usable index is {top}")
    return family, usable


def cmd_uniqueness(args) -> int:
    scenario = load_scenario(args.scenario)
    _require_count(args.paths, "--paths", 2)
    _require_count(args.levels, "--levels", 1)
    if args.phi_k:
        _require_count(min(args.phi_k), "--phi-k", 1)
    base_steps = _steps(scenario, args)
    _require_breakpoints_on(scenario.grid(base_steps), scenario)
    seed = _seed(scenario, args)
    family, phi_ks = _phi_family(scenario, args.phi_k)
    out = _out_dir(args)
    spec = scenario.system
    ladder = [base_steps * 2 ** r for r in range(args.levels)]
    report = refinement_study(spec, SchemeConfig(), scenario.horizon, ladder, args.paths,
                              seed, family=family, phi_ks=phi_ks, jobs=args.jobs)

    _write_csv(out, "divergence.csv",
               ["steps", "dt", "mean_sup_diff", "mean_sup_diff_se", "mean_abs_terminal"]
               + [f"phi_moment_k{k}" for k in phi_ks], (
                   f"{row.steps_coarse},{row.dt_coarse!r},{row.mean_sup_diff!r},"
                   f"{row.mean_sup_diff_se!r},{row.mean_abs_terminal!r}"
                   + "".join(f",{row.phi_moments[k]!r}" for k in phi_ks)
                   for row in report.rows))
    _write_csv(out, "ak_table.csv", ["k", "a_k"],
               (f"{k},{a!r}" for k, a in enumerate(report.a_seq.tolist())))

    _write_json(os.path.join(out, "uniqueness_report.json"), {
        "seed": seed,
        "paths": args.paths,
        "ladder_steps": ladder,
        "x_m": scenario.x_m,
        "strictly_decreasing": report.strictly_decreasing(),
        "rows": [{
            "steps": r.steps_coarse, "dt": r.dt_coarse,
            "mean_sup_diff": r.mean_sup_diff,
            "mean_sup_diff_se": r.mean_sup_diff_se,
            "phi_moments": {str(k): v for k, v in r.phi_moments.items()},
        } for r in report.rows],
    })
    print(f"uniqueness: ladder={ladder} decreasing="
          f"{report.strictly_decreasing()} -> {out}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # EXIT_USAGE from _Parser.error, 0 after --help
        return exc.code
    handlers = {"simulate": cmd_simulate, "approx": cmd_approx,
                "validate": cmd_validate, "uniqueness": cmd_uniqueness}
    try:
        return handlers[args.command](args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
