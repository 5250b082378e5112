"""Sampled validators for the coefficient assumptions.

These are finite-budget falsifiers, not proofs: each condition is probed on
sampled states/pairs/marks and reported pass, fail (with a witness), or
unchecked (divergence conditions for non-power-law moduli). Kernels are called
on arrays (``coeffs.CompensatedKernel.fn``); a NaN, or an infinite kernel value, fails.

``validate_system`` runs the two assumption validators once per distinct
coefficient law, the fields in ``_LAW_FIELDS``: exchangeable components share
one computation and each gets its own report. That holds only while each
validator is a pure function of those fields and the plan. Each check samples
the first points of a fixed low-discrepancy design (``_design``), so its sample
depends on its own size alone, not on the checks run before it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coeffs import (AxisSumMeasure, CoefficientSet, PointMassMeasure, PowerModulus,
                     StablePowerKernel, SystemSpec, ThinningMarkMeasure, drift_values)

PASS, FAIL, UNCHECKED = "pass", "fail", "unchecked"

_REL_SLACK = 1e-9  # inequalities that are tight in exact arithmetic
_QUAD_SLACK = 1e-6  # checks whose sides come out of numeric quadrature
_X_MAX = 10.0  # states are sampled on [0, _X_MAX]
_TRUNCATIONS = (1.0, 5.0)  # truncation levels m of the modulus checks
_N_MARKS = 24  # marks per sampled kernel check
_UNIQ_POINTS = 512  # sample points of rho_m <= rho on (0, x_m]
# the CoefficientSet fields validate_assum1 and validate_assum2 read: a law
_LAW_FIELDS = ("sigma", "rho", "g0", "mu0", "rho_m", "g1", "r_m", "growth_k")


@dataclass(frozen=True)
class SamplingPlan:
    budget: int = 400

    def __post_init__(self):
        if self.budget < 4:  # the pair checks sample budget // 4 pairs
            raise ValueError("sample budget must be at least 4")


@dataclass(frozen=True)
class ConditionResult:
    name: str
    status: str
    detail: str = ""
    witness: object = None

    @property
    def ok(self) -> bool:
        return self.status != FAIL


@dataclass
class ValidationReport:
    subject: str
    conditions: list = field(default_factory=list)

    def add(self, name, status, detail="", witness=None):
        self.conditions.append(ConditionResult(name, status, detail, witness))

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.conditions)

    def lines(self):
        out = [f"[{self.subject}]"]
        for c in self.conditions:
            line = f"  {c.status.upper():9s} {c.name}"
            if c.detail:
                line += f" - {c.detail}"
            if c.witness is not None:
                line += f" (witness: {c.witness})"
            out.append(line)
        return out


def _design(n: int, d: int = None) -> np.ndarray:
    """The first n points of the d-dimensional R_d (Kronecker) low-discrepancy
    sequence on [0, 1)^d, shape (n, d), or (n,) without ``d``: point i is
    frac(1/2 + i * alpha) for i = 1 .. n, where alpha_j = phi^-j and phi > 1
    solves phi^(d+1) = phi + 1 (the golden ratio for d = 1). A Kronecker
    sequence covers the cube evenly at every prefix (Niederreiter 1992), and
    no seed enters it."""
    k = 1 if d is None else d
    phi = 2.0
    for _ in range(64):  # a contraction: converged well before the last pass
        phi = (1.0 + phi) ** (1.0 / (k + 1))
    points = (0.5 + np.arange(1, n + 1)[:, None] * phi ** -np.arange(1.0, k + 1)) % 1.0
    return points[:, 0] if d is None else points


def _log_marks(u):
    """Points of [0, 1) spread log-uniformly over the mark decades [1e-2, 10)."""
    return 10.0 ** (-2.0 + 3.0 * u)


def _sample_marks(mu, n):
    """Representative marks for sampled kernel checks, in the kernels' layout
    (M,) or (d, M), laid out over the measure geometry rather than drawn from
    its (possibly infinite-mass) law; atoms are taken in turn."""
    if isinstance(mu, PointMassMeasure):
        return np.array([u for u, _m in mu.atoms] * max(1, n // len(mu.atoms)), dtype=float)
    if isinstance(mu, AxisSumMeasure):
        marks = np.zeros((mu.terms[0][2], n))
        axes = [mu.terms[k % len(mu.terms)][1] for k in range(n)]
        marks[axes, np.arange(n)] = _log_marks(_design(n))
        return marks
    if isinstance(mu, ThinningMarkMeasure):
        u = _design(n, 2)
        if isinstance(mu.levy, PointMassMeasure):
            atoms = [z for z, _m in mu.levy.atoms]
            zetas = [atoms[k % len(atoms)] for k in range(n)]
        else:
            zetas = _log_marks(u[:, 1])
        return np.array((mu.v_max * u[:, 0], np.asarray(zetas, dtype=float)))
    # generic one-dimensional mark space
    return _log_marks(_design(n))


def _state_breakpoints(mu, *states) -> tuple:
    """Mark points where a kernel integrand over ``mu`` jumps with the state:
    under a thinning measure the indicator 1{v < x} switches at v = x."""
    return states if isinstance(mu, ThinningMarkMeasure) else ()


def _integrals(mu, integrand, *states, breakpoints=()):
    """``mu.integrate(lambda u: integrand(u, *x))`` at each of S sampled
    states, or state pairs, in one batched ``integrate`` call: each array of
    ``states``, shape (S,), reaches ``integrand`` as a column (S, 1), and
    ``breakpoints`` are the union of every state's. Shape (S,)."""
    columns = [np.asarray(x, dtype=float)[:, None] for x in states]
    vals = mu.integrate(lambda u: integrand(u, *columns), breakpoints=breakpoints)
    return np.broadcast_to(np.asarray(vals, dtype=float), columns[0].shape[:1])


def _crossings(kernel, level, *states) -> tuple:
    """Marks where a stable power kernel's term j reaches ``level`` at each
    state x > 0, u = level / (coef_j * x^(1/alpha_j)): there ``min(g, level)``
    and ``min(|g|, g^2)`` (level 1) switch branch. Other kernels give ().
    A crossing beyond the largest float is inf, which no quadrature reaches."""
    if not isinstance(kernel, StablePowerKernel):
        return ()
    with np.errstate(over="ignore", divide="ignore"):
        return tuple(level / (coef * np.float64(x) ** (1.0 / alpha))
                     for coef, alpha in zip(kernel.coefs, kernel.alphas) if coef > 0.0
                     for x in states if x > 0.0)


def _divergence_status(modulus, which: str):
    """(status, detail) for the divergence requirement on a modulus."""
    if isinstance(modulus, PowerModulus):
        diverges = (modulus.sq_integral_diverges if which == "sq"
                    else modulus.lin_integral_diverges)
        kind = "dz/rho^2" if which == "sq" else "dz/r"
        if diverges:
            return PASS, f"power law exponent {modulus.exponent}: integral {kind} diverges at 0"
        return FAIL, f"power law exponent {modulus.exponent}: integral {kind} converges at 0"
    declared = getattr(modulus,
                       "sq_integral_diverges" if which == "sq" else "lin_integral_diverges",
                       None)
    if declared is True:
        return PASS, "divergence declared by the supplied modulus"
    if declared is False:
        return FAIL, "supplied modulus declares a convergent integral"
    return UNCHECKED, "non-power-law modulus without a divergence declaration"


def _over_marks(fn, marks, states):
    """Kernel values g[k, i] = fn(states[i], mark k) from one call, shape
    (M,) + states.shape for marks of shape (M,) or (d, M)."""
    shape = (marks.shape[-1],) + states.shape
    g = fn(states.ravel(), marks[..., None])
    return np.broadcast_to(np.asarray(g, dtype=float), (shape[0], states.size)).reshape(shape)


def _witness(fn, marks, states, violates):
    """``(*state, u)`` for the first mark u and, under it, the first state
    that ``violates(states, g)`` flags (shape (M, n), g from ``_over_marks``),
    or None. ``states`` is (n,), or (n, 2) for ordered pairs; the mark is a
    float, or a tuple of floats for marks in R^d."""
    bad = np.argwhere(violates(states, _over_marks(fn, marks, states)))
    if not bad.size:
        return None
    k, i = bad[0]
    u = marks[..., k].tolist()
    return (*np.atleast_1d(states[i]).tolist(), tuple(u) if isinstance(u, list) else u)


def _decreasing(_pairs, g):
    """Pairs x <= y with g(x, u) > g(y, u) beyond slack, or a non-finite g."""
    return ((g[..., 0] > g[..., 1] + _REL_SLACK * (1.0 + np.abs(g[..., 1])))
            | ~np.isfinite(g).all(axis=-1))


def _below_minus_state(xs, g):
    """States at which g(x, u) + x < 0 beyond slack, or g is not finite."""
    return (g + xs < -_REL_SLACK) | ~np.isfinite(g)


def _check_truncated_modulus(report, kernel, modulus, name, power, distance):
    """The truncated L^power modulus condition distance(x, y, m) <=
    modulus(m)(|x-y|)^power on 12 sampled (x, y) in [0, m]^2 per truncation m,
    stopping at the first witness, and the divergence of the integral of
    dz / modulus(m)^power at 0. ``distance(xs, ys, m)`` answers a level's
    12 pairs at once, shape (12,)."""
    if modulus is None:
        report.add(f"{kernel} truncated L{power} modulus", UNCHECKED, f"no {name} supplied")
        return
    label = name if power == 1 else f"{name}^{power}"
    witness, checked = None, 0
    for m in _TRUNCATIONS:
        mod = modulus(m)
        pairs = m * _design(12, 2)
        # one batched integral per level, then walked in order
        for (x, y), val in zip(pairs, distance(pairs[:, 0], pairs[:, 1], m)):
            bound = float(mod(abs(x - y))) ** power
            checked += 1
            if not val <= bound * (1 + _QUAD_SLACK) + _QUAD_SLACK * _QUAD_SLACK:
                witness = (float(x), float(y), float(m), float(val), bound)
                break
        if witness:
            break
    report.add(f"{kernel} truncated L{power} modulus <= {label}", FAIL if witness else PASS,
               detail=f"{checked} sampled (x, y, m) triples", witness=witness)
    status, detail = _divergence_status(modulus(_TRUNCATIONS[0]),
                                        "sq" if power == 2 else "lin")
    report.add(f"integral dz/{label} diverges at 0", status, detail)


def validate_assum1(c: CoefficientSet, plan: SamplingPlan = SamplingPlan()) -> ValidationReport:
    """Regularity conditions on sigma, g0, g1 and their moduli."""
    report = ValidationReport("assumption-set-1")

    # sigma vanishes on the non-positive half line
    xs_neg = np.concatenate([[0.0], -(10.0 ** (-3.0 + 4.0 * _design(plan.budget)))])
    bad = np.flatnonzero(np.asarray(c.sigma(xs_neg)) != 0.0)
    report.add("sigma vanishes for x <= 0", FAIL if bad.size else PASS,
               witness=None if not bad.size else float(xs_neg[bad[0]]))

    # |sigma(x) - sigma(y)| <= rho(|x - y|)
    xs, ys = _X_MAX * _design(plan.budget, 2).T
    lhs = np.abs(np.asarray(c.sigma(xs)) - np.asarray(c.sigma(ys)))
    rhs = np.asarray(c.rho(np.abs(xs - ys)))
    slack = _REL_SLACK * (1.0 + rhs)
    bad = np.flatnonzero(~(lhs <= rhs + slack))
    report.add("sigma modulus |sigma(x)-sigma(y)| <= rho(|x-y|)",
               FAIL if bad.size else PASS,
               detail=f"{plan.budget} sampled pairs on [0, {_X_MAX}]",
               witness=None if not bad.size else (float(xs[bad[0]]), float(ys[bad[0]])))

    status, detail = _divergence_status(c.rho, "sq")
    report.add("integral dz/rho^2 diverges at 0", status, detail)

    # g0 block
    if c.g0 is not None and c.mu0 is not None:
        marks = _sample_marks(c.mu0, _N_MARKS)
        pairs = np.sort(_X_MAX * _design(plan.budget // 4, 2), axis=1)
        for name, states, violates in (
                ("g0 increasing in the state", pairs, _decreasing),
                ("g0(x,u) + x >= 0 for x >= 0", pairs[:, 1], _below_minus_state),
                ("g0(x,u) = 0 for x <= 0", xs_neg[:: max(1, xs_neg.size // 32)],
                 lambda _xs, g: g != 0.0)):
            witness = _witness(c.g0, marks, states, violates)
            report.add(name, FAIL if witness else PASS, witness=witness)

        # local boundedness of the (|g0| ^ |g0|^2)-integral
        states = np.linspace(0.0, _X_MAX, 9)[1:]

        def small_or_square(g):
            return np.minimum(np.abs(g), g ** 2)
        vals = _integrals(c.mu0, lambda u, x: small_or_square(c.g0(x, u)), states,
                          breakpoints=_state_breakpoints(c.mu0, *states)
                          + _crossings(c.g0, 1.0, *states))
        finite = np.all(np.isfinite(vals))
        report.add("integral |g0| ^ |g0|^2 d(mu0) locally bounded",
                   PASS if finite else FAIL,
                   detail=f"max over sampled states: {vals.max():.4g}" if finite else "",
                   witness=None if finite else float(states[np.argmax(~np.isfinite(vals))]))

        _check_truncated_modulus(
            report, "g0", c.rho_m, "rho_m", 2,
            lambda xs, ys, m: _integrals(
                c.mu0, lambda u, x, y: (np.minimum(c.g0(x, u), m)
                                        - np.minimum(c.g0(y, u), m)) ** 2, xs, ys,
                breakpoints=_state_breakpoints(c.mu0, *xs, *ys)
                + _crossings(c.g0, m, *xs, *ys)))
    else:
        report.add("g0 conditions", PASS, "vacuous: component has no compensated jump kernel")

    # g1 block
    if c.g1 is not None:
        marks = _sample_marks(c.g1.mu, _N_MARKS)
        states = _X_MAX * _design(plan.budget // 4)
        witness = _witness(c.g1.fn, marks, states, _below_minus_state)
        report.add("g1(x,u) + x >= 0", FAIL if witness else PASS, witness=witness)

        states = np.linspace(0.0, _X_MAX, 9)[1:]
        growth = _integrals(c.g1.mu, lambda u, x: np.abs(c.g1.fn(x, u)), states,
                            breakpoints=_state_breakpoints(c.g1.mu, *states))
        bad = [(x, float(v)) for x, v in zip(states, growth)
               if not v <= c.growth_k * (1.0 + x) + _REL_SLACK]
        report.add("integral |g1| d(mu1) <= K(1+x) (declared K)",
                   FAIL if bad else PASS,
                   detail=f"K = {c.growth_k} (declared)", witness=bad[0] if bad else None)

        report.add("mu1 remainder mass finite",
                   PASS if math.isfinite(c.g1.remainder_mass) else FAIL,
                   detail=f"mu1(U1 \\ U2) = {c.g1.remainder_mass}")

        _check_truncated_modulus(
            report, "g1", c.r_m, "r_m", 1,
            lambda xs, ys, m: _integrals(
                c.g1.mu, lambda u, x, y: np.abs(np.minimum(c.g1.fn(x, u), m)
                                                - np.minimum(c.g1.fn(y, u), m)), xs, ys,
                breakpoints=_state_breakpoints(c.g1.mu, *xs, *ys)))
    else:
        report.add("g1 conditions", PASS, "vacuous: component has no uncompensated jump kernel")

    return report


def validate_assum2(c: CoefficientSet, plan: SamplingPlan = SamplingPlan()) -> ValidationReport:
    """Monotonicity/boundedness of sigma, left continuity of the kernels,
    monotonicity-or-domination of g1."""
    report = ValidationReport("assumption-set-2")

    xs = np.sort(_X_MAX * _design(plan.budget))
    vals = np.asarray(c.sigma(xs), dtype=float)
    increasing = bool(np.all(np.diff(vals) >= -_REL_SLACK * (1.0 + np.abs(vals[:-1]))))
    if increasing:
        report.add("sigma bounded or increasing on R+", PASS, "increasing branch")
    else:
        # boundedness probe: the range on a 10x wider window must not grow
        # beyond sampling slack over the range seen on [0, x_max]
        wide = np.asarray(c.sigma(np.linspace(0.0, 10.0 * _X_MAX, 4 * plan.budget)))
        bounded = bool(np.max(np.abs(wide)) <= np.max(np.abs(vals)) * 1.05 + 1e-9)
        report.add("sigma bounded or increasing on R+",
                   PASS if bounded else FAIL,
                   "bounded branch (range stable on a 10x wider probe)" if bounded
                   else "neither increasing on samples nor bounded on a wider probe")

    def left_cont_probe(fn, mu, name):
        marks = _sample_marks(mu, _N_MARKS)
        states = 1e-3 + (_X_MAX - 1e-3) * _design(16)
        g = _over_marks(fn, marks[..., :8], np.stack((states - 1e-9, states), axis=1))
        worst = np.max(np.abs(g[..., 0] - g[..., 1]))
        report.add(name, PASS if worst <= 1e-6 else FAIL,
                   detail=f"max |g(x-1e-9,u) - g(x,u)| = {worst:.3g} over sampled points")

    if c.g0 is not None and c.mu0 is not None:
        left_cont_probe(c.g0, c.mu0, "g0 left-continuous in x (probe)")
    if c.g1 is not None:
        left_cont_probe(c.g1.fn, c.g1.mu, "g1 left-continuous in x (probe)")
        marks = _sample_marks(c.g1.mu, _N_MARKS)
        pairs = np.sort(_X_MAX * _design(plan.budget // 4, 2), axis=1)
        if _witness(c.g1.fn, marks, pairs, _decreasing) is None:
            report.add("g1 increasing or dominated", PASS, "increasing branch")
        elif c.g1.dominator is not None:
            m1 = c.g1.mu.integrate(lambda u: np.abs(c.g1.dominator(u)))
            m2 = c.g1.mu.integrate(lambda u: c.g1.dominator(u) ** 2)
            dominated = bool(np.all(
                np.abs(_over_marks(c.g1.fn, marks, pairs[:16, 1]))
                <= np.abs(c.g1.dominator(marks[..., None])) + _REL_SLACK))
            ok = dominated and math.isfinite(m1) and math.isfinite(m2)
            report.add("g1 increasing or dominated", PASS if ok else FAIL,
                       f"domination branch: |G| moment {m1:.4g}, G^2 moment {m2:.4g}")
        else:
            report.add("g1 increasing or dominated", FAIL,
                       "not increasing on samples and no dominating G supplied")
    return report


def validate_assum_uniq(rho, rho_m, x_m: float) -> ValidationReport:
    """rho_m <= rho on a dense sample of (0, x_m]."""
    if x_m <= 0:
        raise ValueError("x_m must be positive")
    report = ValidationReport("uniqueness-modulus")
    xs = np.concatenate([10.0 ** np.linspace(-9, 0, _UNIQ_POINTS // 2) * x_m,
                         np.linspace(x_m / _UNIQ_POINTS, x_m, _UNIQ_POINTS // 2)])
    lo = np.asarray(rho_m(xs), dtype=float)
    hi = np.asarray(rho(xs), dtype=float)
    bad = np.flatnonzero(~(lo <= hi * (1 + _REL_SLACK)))
    report.add(f"rho_m <= rho on (0, {x_m}]", FAIL if bad.size else PASS,
               detail=f"{xs.size} sample points",
               witness=None if not bad.size else
               (float(xs[bad[0]]), float(lo[bad[0]]), float(hi[bad[0]])))
    return report


def validate_drift(spec: SystemSpec, plan: SamplingPlan = SamplingPlan()) -> ValidationReport:
    """Mean-field drift conditions: non-negative, increasing per argument,
    within the declared linear-growth envelope B + L * sum(states)."""
    report = ValidationReport("mean-field-drift")
    n = spec.n
    times = _design(8)
    states = _X_MAX * _design(plan.budget // 4, n)
    rows = states[:32]
    bumped = np.repeat(rows[:, None, :], n, axis=1)  # [r, j]: row r with x_j + 1
    bumped[:, range(n), range(n)] += 1.0
    mean_field = [d for d in spec.drifts if d.kind == "mean-field"]

    def at(times, samples):
        """The mean-field drifts at every time on every sampled state (last
        axis: the components), from one ``drift_values`` call: shape
        (len(mean_field), len(times)) + samples.shape[:-1]."""
        flat = np.repeat(samples.reshape(-1, n).T[:, :, None], times.size, axis=2)
        values = drift_values(mean_field, times, flat).transpose(0, 2, 1)
        return values.reshape((len(mean_field), times.size) + samples.shape[:-1])

    evaluated = zip(at(times, states), at(times[:4], bumped))
    for i, drift in enumerate(spec.drifts):
        if drift.kind != "mean-field":
            report.add(f"component {i}: drift kind '{drift.kind}'", PASS,
                       "state-independent drift; mean-field conditions vacuous")
            continue
        vals, raised = next(evaluated)  # (time, row) and (time, row, bumped j)
        neg = ~(vals >= -_REL_SLACK)
        report.add(f"component {i}: b_i non-negative", FAIL if neg.any() else PASS,
                   witness=None if not neg.any() else float(vals[neg][0]))

        # the first (time, row, bumped component) at which the value falls
        base = vals[:4, :len(rows), None]
        drops = np.argwhere(~(raised >= base - _REL_SLACK * (1 + np.abs(base))))
        witness = None
        if drops.size:
            ti, ri, j = drops[0]
            witness = (float(times[ti]), rows[ri].tolist(), int(j))
        report.add(f"component {i}: b_i increasing in each state", FAIL if witness else PASS,
                   witness=witness)

        bound = drift.growth_bound + drift.growth_slope * states.sum(axis=1)
        over = ~(vals <= bound[None, :] + _REL_SLACK * (1.0 + np.abs(bound[None, :])))
        report.add(f"component {i}: b_i <= B + L*sum(x) "
                   f"(B={drift.growth_bound}, L={drift.growth_slope})",
                   FAIL if over.any() else PASS)
    return report


def validate_system(spec: SystemSpec, plan: SamplingPlan = SamplingPlan()):
    """All assumption reports for every component plus the drift conditions.

    The assumption reports are computed once per distinct law (see
    ``_LAW_FIELDS``) and copied into each component's own report, so
    ``validate_assum1`` and ``validate_assum2`` must stay pure functions of
    those fields and the plan."""
    laws, reports = {}, []
    for i, comp in enumerate(spec.components):
        # equal fields may still print differently in a detail (exponent 1
        # against 1.0), so the key holds their repr as well
        fields = tuple(getattr(comp, name) for name in _LAW_FIELDS)
        try:
            key = (fields, repr(fields))
            shared = laws.get(key)
        except Exception:  # an unhashable field, or an == that raises or is ambiguous
            key = shared = None
        if shared is None:
            shared = (validate_assum1(comp, plan), validate_assum2(comp, plan))
            if key is not None:
                laws[key] = shared
        reports.extend(ValidationReport(f"component {i}: {r.subject}", list(r.conditions))
                       for r in shared)
    reports.append(validate_drift(spec, plan))
    return reports
