"""Coefficient descriptors: diffusion/jump functions, moduli, measures, drifts.

Callables are small frozen dataclasses rather than closures so that system
specifications pickle cleanly into worker processes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .noise import MeasureSpec, NoiseLayout


# ---------------------------------------------------------------------------
# moduli


@dataclass(frozen=True)
class PowerModulus:
    """rho(z) = coef * z**exponent; divergence of the defining integrals is
    decidable symbolically for this family."""

    coef: float
    exponent: float

    def __call__(self, z):
        return self.coef * np.asarray(z, dtype=float) ** self.exponent

    @property
    def sq_integral_diverges(self) -> bool:
        """Whether the integral of 1/rho^2 over (0, x] diverges."""
        return self.exponent >= 0.5

    @property
    def lin_integral_diverges(self) -> bool:
        """Whether the integral of 1/rho over (0, x] diverges."""
        return self.exponent >= 1.0


@dataclass(frozen=True)
class CallableModulus:
    """User-supplied modulus; divergence must be declared, else 'unchecked'."""

    fn: Callable
    sq_integral_diverges: Optional[bool] = None
    lin_integral_diverges: Optional[bool] = None

    def __call__(self, z):
        return self.fn(z)


# ---------------------------------------------------------------------------
# measures (validation-side integrals; generation uses noise.MeasureSpec)


# The one kernel contract: ``fn(x, marks)``, or ``fn(marks)`` for an integrand,
# takes marks of shape (...), or (d, ...) for marks in R^d, with ``x``
# broadcast against their trailing shape, and answers elementwise
# (``np.minimum`` and ``np.abs``, not ``min`` and ``abs``). The solver, every
# measure's ``integrate(fn, breakpoints)`` and the validators all call it so.
# ``breakpoints`` are marks where ``fn`` may jump or kink; each is a panel edge.
#
# The batch axis: an integrand may answer a batch of integrands at once, values
# of shape (..., n) for the n marks it was given (flat, (n,) or (d, n)), and
# ``integrate`` then returns their integrals, shape (...). An integrand that
# answers (n,) gets a float. A column of states x of shape (S, 1) broadcasts so
# under every measure.

# The 10-point Gauss-Lobatto rule on [-1, 1], the adaptive rule per panel: both
# edges plus the roots of P'_9, exact for polynomials of degree 17. The
# literals are the values numpy.polynomial computes, to the bit.
_LOBATTO = (
    np.array([-1.0, -0.9195339081664605, -0.7387738651055052, -0.4779249498104439,
              -0.16527895766638742, 0.1652789576663872, 0.47792494981044475,
              0.7387738651055051, 0.9195339081664591, 1.0]),
    np.array([0.022222222222222185, 0.13330599085107028, 0.22488934206312652,
              0.2920426836796838, 0.32753976118389744, 0.32753976118389744,
              0.2920426836796838, 0.22488934206312663, 0.1333059908510702,
              0.022222222222222185]))
# The 8-point Gauss-Legendre rule on [-1, 1], the fixed rule over v per piece,
# exact for polynomials of degree 15; numpy.polynomial's leggauss(8), to the bit.
_GAUSS = (
    np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
              -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
              0.7966664774136267, 0.9602898564975362]),
    np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
              0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
              0.22238103445337443, 0.10122853629037706]))
_SPLIT = 4  # children of a panel that fails its check
_RTOL = 1e-11  # accepted: |children - panel| <= _RTOL * |running total|
_MAX_PASSES = 40  # the last pass accepts every panel still open
_MAX_PANELS = 4096  # active children beyond which a pass accepts every panel
_LOG_SPAN = 40.0  # log-space reach of the stable rule, in decay lengths
_EXP_SPAN = 50.0  # the exponential rule covers (0, _EXP_SPAN * mean)
_PANEL = 2.0  # widest first panel of panel_quadrature


def _integral(total):
    """A float for one integrand's integral, the array for a batch."""
    return float(total) if np.ndim(total) == 0 else total


def _values(fn, marks, n: int) -> np.ndarray:
    """``fn(marks)`` as floats of shape (..., n), for an ``fn`` that may
    answer a constant."""
    values = np.asarray(fn(marks), dtype=float)
    return np.broadcast_to(values, values.shape[:-1] + (n,))


def panel_quadrature(fn, lo: float, hi: float, points=()):
    """Integral of ``fn`` over [lo, hi] by adaptive composite Gauss-Lobatto
    quadrature, in passes; a float, or an array for a batch of integrands
    (``fn`` answers (..., n) on n nodes, the result has shape (...)).

    The first pass applies the rule to panels at most _PANEL wide, split at
    the ``points`` inside (lo, hi). Each later pass splits every open panel
    into _SPLIT children and accepts the panel, at its children's sum, when
    for every integrand of the batch that sum is within _RTOL of the
    integrand's own running total from the panel's own value; the children of
    the others stay open. A pass calls ``fn`` once, on the nodes of all its
    panels. The panel edges are nodes: an open (Gauss-Legendre) rule does not
    see a kink between a panel edge and its outermost node, and neither do the
    children that share the edge, so that check would agree to rounding on a
    wrong value.
    """
    nodes, weights = _LOBATTO
    frac = np.arange(_SPLIT + 1) / _SPLIT

    def rule(left, right):
        half = 0.5 * (right - left)
        x = (0.5 * (right + left))[:, None] + half[:, None] * nodes
        values = _values(fn, x.ravel(), x.size)
        return values.reshape(values.shape[:-1] + x.shape) @ weights * half

    edges = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / _PANEL)) + 1)
    inner = [p for p in points if lo < p < hi]
    if inner:
        # np.unique would import numpy.ma on its first call, at run time
        edges = np.sort(np.concatenate((edges, inner)))
        edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    left, right = edges[:-1], edges[1:]
    own = rule(left, right)
    done = np.zeros(own.shape[:-1])
    for n_pass in range(2, _MAX_PASSES + 1):
        if not left.size:
            break
        cuts = left[:, None] + (right - left)[:, None] * frac
        left, right = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
        children = rule(left, right)
        fine = children.reshape(children.shape[:-1] + (-1, _SPLIT)).sum(axis=-1)
        close = np.abs(fine - own) <= _RTOL * np.abs(done + fine.sum(axis=-1))[..., None]
        ok = close.reshape(-1, close.shape[-1]).all(axis=0)
        if n_pass == _MAX_PASSES or np.count_nonzero(~ok) * _SPLIT > _MAX_PANELS:
            ok[:] = True
        done += fine[..., ok].sum(axis=-1)
        still = np.repeat(~ok, _SPLIT)
        left, right, own = left[still], right[still], children[..., still]
    return _integral(done)


@dataclass(frozen=True)
class PointMassMeasure:
    atoms: tuple  # ((mark, mass), ...)

    @property
    def total_mass(self) -> float:
        return float(sum(m for _u, m in self.atoms))

    def first_moment(self) -> float:
        return float(sum(u * m for u, m in self.atoms))

    def integrate(self, fn, breakpoints: Sequence[float] = ()):
        """Sum over the atoms, from one call of ``fn`` on the array of their
        marks, over the last axis of its values (the batch axis above the
        measures); ``breakpoints`` only matter to quadrature."""
        marks = np.array([u for u, _m in self.atoms], dtype=float)
        masses = np.array([m for _u, m in self.atoms], dtype=float)
        return _integral(np.sum(_values(fn, marks, marks.size) * masses, axis=-1))


@dataclass(frozen=True)
class ExponentialMeasure:
    """Finite measure mass * Exp(mean) on (0, inf)."""

    mass: float
    mean: float

    @property
    def total_mass(self) -> float:
        return self.mass

    def first_moment(self) -> float:
        return self.mass * self.mean

    def integrate(self, fn, breakpoints: Sequence[float] = ()):
        """Over s = u / mean on (0, _EXP_SPAN), with ``fn`` called on arrays
        of marks u, and batched as ``panel_quadrature``: the dropped tail is
        below e^-_EXP_SPAN of the integral unless ``fn`` grows exponentially."""
        return self.mass * panel_quadrature(
            lambda s: fn(self.mean * s) * np.exp(-s), 0.0, _EXP_SPAN,
            [p / self.mean for p in breakpoints])


def stable_levy_constant(alpha: float) -> float:
    """Density constant c of the Levy measure c*u^(-1-alpha) du matching the
    standard one-parametrization S_alpha(1, beta=1, 0), alpha in (1, 2)."""
    return -alpha * (alpha - 1.0) / (math.gamma(2.0 - alpha) * math.cos(math.pi * alpha / 2.0))


@dataclass(frozen=True)
class StableJumpMeasure:
    """Levy measure of the spectrally positive alpha-stable driver (infinite mass)."""

    alpha: float

    @property
    def total_mass(self) -> float:
        return math.inf

    def integrate(self, fn, breakpoints: Sequence[float] = ()):
        """c * integral of fn(e^t) e^(-alpha t) dt over t = log u, with
        ``fn`` called on arrays of marks u = e^t, and batched as
        ``panel_quadrature``: each integrand gets its own head and tail.

        Near 0 an integrand with fn ~ u^2 decays like e^((2 - alpha) t), and
        far out one with fn ~ u like e^((1 - alpha) t). The rule covers
        _LOG_SPAN of those decay lengths below the smaller of 1 and the
        smallest breakpoint and above the larger of 1 and the largest, within
        |t| <= 300 where u^2 and u^-alpha are normal floats, and adds the
        head and tail beyond in closed form for those two laws. They are
        exact for the validators' stable-kernel integrands, which are
        proportional to u^2 near 0 and to u, or 0, far out, as long as their
        kinks lie within |t| <= 300. The validators pass those kinks, a
        stable power kernel's crossings of the truncation level, as
        breakpoints."""
        alpha = self.alpha
        logs = [0.0] + [math.log(p) for p in breakpoints if p > 0.0]
        lo = max(min(logs) - _LOG_SPAN / (2.0 - alpha), -300.0)
        hi = min(max(logs) + _LOG_SPAN / (alpha - 1.0), 300.0)

        def in_log_space(t):
            return fn(np.exp(t)) * np.exp(-alpha * t)
        ends = _values(in_log_space, np.array([lo, hi]), 2)
        return _integral(stable_levy_constant(alpha) * (
            ends[..., 0] / (2.0 - alpha) + panel_quadrature(in_log_space, lo, hi, logs)
            + ends[..., 1] / (alpha - 1.0)))


@dataclass(frozen=True)
class AxisSumMeasure:
    """Measure concentrated on coordinate axes of a product mark space.

    Component j contributes measure_j on marks embed_j(u); used for the jump
    measure of a vector of independent drivers (their jumps never coincide).
    """

    terms: tuple  # ((measure, axis index, mark dimension), ...)

    @property
    def total_mass(self) -> float:
        return float(sum(m.total_mass for m, _a, _d in self.terms))

    def integrate(self, fn, breakpoints: Sequence[float] = ()):
        """Sum of the axis measures' integrals, batched as theirs; ``fn``
        gets marks of shape (dim, ...), zero off the term's axis."""
        total = 0.0
        for measure, axis, dim in self.terms:
            def on_axis(u, axis=axis, dim=dim):
                marks = np.zeros((dim,) + np.shape(u))
                marks[axis] = u
                return fn(marks)
            total += measure.integrate(on_axis, breakpoints=breakpoints)
        return _integral(total)


@dataclass(frozen=True)
class ThinningMarkMeasure:
    """Product measure dv x levy(dzeta) on (0, v_max) x R+, total mass v_max * |levy|."""

    levy: object  # PointMassMeasure or ExponentialMeasure, finite mass
    v_max: float

    @property
    def total_mass(self) -> float:
        return self.v_max * self.levy.total_mass

    def integrate(self, fn, breakpoints: Sequence[float] = ()):
        """Tensor-product rule: fixed Gauss-Legendre nodes in v on each piece
        of (0, v_max) between ``breakpoints``, times the levy measure's rule
        in zeta. ``breakpoints`` are v values where ``fn`` may jump, such as
        the states x at which the thinning indicator 1{v < x} switches;
        between them ``fn`` must be smooth in v (the rule is exact for
        polynomials of degree 15). ``fn`` gets marks flat, of shape (2, n), the
        rows v and zeta, and its values (..., n) are reshaped to the (v, zeta)
        grid afterwards: a batch of integrands integrates as under every
        other measure."""
        edges = np.array([0.0, *sorted(p for p in breakpoints if 0.0 < p < self.v_max),
                          self.v_max])
        nodes, weights = _GAUSS
        half = 0.5 * np.diff(edges)[:, None]
        v = ((0.5 * (edges[1:] + edges[:-1]))[:, None] + half * nodes).ravel()
        w = (half * weights).ravel()

        def over_v(zeta):
            marks = np.array(np.broadcast_arrays(v[:, None], np.asarray(zeta, dtype=float)))
            values = _values(fn, marks.reshape(2, -1), marks[0].size)
            return w @ values.reshape(values.shape[:-1] + marks.shape[1:])
        return self.levy.integrate(over_v)


# ---------------------------------------------------------------------------
# picklable coefficient callables


@dataclass(frozen=True)
class PowerDiffusion:
    """sigma(x) = coef * max(x, 0)**power."""

    coef: float
    power: float

    def __call__(self, x):
        return self.coef * np.maximum(x, 0.0) ** self.power

    def into(self, x, out):
        """``self(x)`` in ``out`` for an ``x`` with no negative entry, bit for
        bit: numpy's ``x ** 0.5`` is ``np.sqrt(x)``."""
        if self.power == 0.5:
            np.sqrt(x, out=out)
        else:
            np.power(x, self.power, out=out)
        out *= self.coef
        return out


@dataclass(frozen=True)
class StablePowerKernel:
    """Validation form of g0 for stable drivers: sum_j coef_j * u_j * max(x,0)^(1/alpha_j)."""

    coefs: tuple
    alphas: tuple

    def __call__(self, x, mark):
        x = np.maximum(x, 0.0)
        return sum(coef * u * x ** (1.0 / alpha)
                   for coef, alpha, u in zip(self.coefs, self.alphas, mark))


@dataclass(frozen=True)
class ThinningKernel:
    """g0(x, (v, zeta)) = zeta * 1{v < x}, elementwise over x and the mark
    rows v, zeta."""

    def __call__(self, x, mark):
        return np.where(mark[0] < x, mark[1], 0.0)


@dataclass(frozen=True)
class ThinningCompensator:
    """Integral of the thinning kernel: min(max(x,0), v_max) * first_moment."""

    v_max: float
    first_moment: float

    def __call__(self, x):
        return np.minimum(np.maximum(x, 0.0), self.v_max) * self.first_moment

    def into(self, x, out):
        """``self(x)`` in ``out`` for an ``x`` with no negative entry."""
        np.minimum(x, self.v_max, out=out)
        out *= self.first_moment
        return out


@dataclass(frozen=True)
class ThinningMarkSampler:
    """(v, zeta) marks as a (2, size) array: v uniform on (0, v_max), zeta
    from the normalized levy law. v is ``v_max * u`` scaled in place, bit for
    bit ``rng.uniform(0.0, v_max, size)``, which computes ``0.0 + v_max * u``
    from the same stream words at twice the cost for a row's few events."""

    v_max: float
    atoms: tuple = ()  # point-mass levy: ((zeta, mass), ...)
    exp_mean: float = 0.0  # exponential levy with this mean, if atoms empty

    def __call__(self, rng, size):
        v = rng.random(size)
        v *= self.v_max
        if self.atoms:
            zetas = np.array([z for z, _m in self.atoms])
            probs = np.array([m for _z, m in self.atoms], dtype=float)
            z = rng.choice(zetas, size=size, p=probs / probs.sum())
        else:
            z = rng.exponential(self.exp_mean, size)
        return np.array((v, z))


# ---------------------------------------------------------------------------
# kernels and coefficient sets


@dataclass(frozen=True)
class BrownianTerm:
    """One Brownian factor loading; the component's driving W is the weighted sum."""

    factor: int
    weight: float


@dataclass(frozen=True)
class StableTerm:
    """Stable-driver contribution coef * max(Y,0)^(1/alpha) * dZ_factor per step."""

    factor: int
    coef: float
    alpha: float


@dataclass(frozen=True)
class CompensatedKernel:
    """Finite-activity compensated jump part: events plus a compensator drift.

    ``fn(x, marks)`` is the jump size under the one kernel contract (above
    the measures): the solver passes states (E,) with marks (E,) or (d, E),
    the validators' integrals a column of states (S, 1) with marks (n,) or
    (d, n), and their sampled checks states (n,) with marks (M, 1) or
    (d, M, 1).
    """

    fn: Callable  # (x, marks) -> jump sizes
    measure: MeasureSpec  # generation side
    mu: object  # validation-side measure over marks
    compensator: Callable  # vectorized x -> integral of fn(x, .) d(mu)


@dataclass(frozen=True)
class JumpKernel:
    """Uncompensated jump part g1 against a point-process measure; ``fn`` and
    the ``dominator`` G(marks) follow the contract of ``CompensatedKernel.fn``."""

    fn: Callable
    measure: MeasureSpec
    mu: object
    remainder_mass: float = 0.0  # mu1(U1 \ U2)
    dominator: Optional[Callable] = None  # G(u) bound, if g1 is not increasing


@dataclass(frozen=True)
class CoefficientSet:
    """Everything one system component needs: simulation bindings plus the
    descriptors the assumption validators check."""

    a: float
    sigma: Callable
    brownian: tuple = ()  # BrownianTerm entries
    stable_terms: tuple = ()  # StableTerm entries
    g0: Optional[Callable] = None  # validation form over the mark space
    mu0: object = None
    g0_finite: Optional[CompensatedKernel] = None
    g1: Optional[JumpKernel] = None
    rho: object = PowerModulus(1.0, 0.5)
    rho_m: Optional[Callable] = None  # m -> modulus
    r_m: Optional[Callable] = None  # m -> modulus
    growth_k: float = 0.0  # declared linear-growth constant of x -> integral |g1| d(mu1)

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("mean-reversion speed must be non-negative")


@dataclass(frozen=True)
class MeanFieldAverage:
    """b_i(s, x) = (x_1 + ... + x_N) / N, summed in sorted order so the value
    is exactly invariant under component permutations.

    The rows are sorted by an odd-even transposition network, N rounds of
    elementwise compare-swaps, then added one at a time. ``sum(axis=0)`` adds
    them pairwise when the state has a single column (one path at one time),
    which rounds differently for N >= 8 and made a path's value depend on the
    batch it was solved in. A NaN in any row gives NaN.
    """

    n: int

    def __call__(self, t, states):
        rows = list(np.asarray(states, dtype=float))
        for r in range(len(rows)):
            for i in range(r % 2, len(rows) - 1, 2):
                # minimum and maximum pick the same operand of an equal pair
                # (0.0 and -0.0), so with swapped operands it keeps both values
                a, b = rows[i], rows[i + 1]
                rows[i], rows[i + 1] = np.minimum(b, a), np.maximum(a, b)
        total = rows[0].copy()
        for row in rows[1:]:
            total += row
        return total / self.n


@dataclass(frozen=True)
class LinearInTime:
    intercept: float
    slope: float

    def __call__(self, t):
        return self.intercept + self.slope * t


@dataclass(frozen=True)
class DriftSpec:
    """Drift target process b_i: constant, deterministic in time, mean-field,
    or an externally supplied path."""

    kind: str  # "constant" | "time" | "mean-field" | "path"
    value: float = 0.0
    fn: Optional[Callable] = None
    path: object = None
    growth_bound: float = 0.0  # B with b <= B + L * sum(states)
    growth_slope: float = 0.0  # L

    @classmethod
    def constant(cls, value: float) -> "DriftSpec":
        return cls(kind="constant", value=float(value),
                   growth_bound=float(value), growth_slope=0.0)

    @classmethod
    def time_function(cls, fn, growth_bound: float) -> "DriftSpec":
        return cls(kind="time", fn=fn, growth_bound=growth_bound, growth_slope=0.0)

    @classmethod
    def mean_field(cls, fn, growth_bound: float, growth_slope: float) -> "DriftSpec":
        """Drift ``fn(t, states)`` of the whole system state.

        ``states`` has shape (N, ...) with one row per component and is
        reduced over axis 0; the result has the trailing shape. ``t`` is a
        scalar or an array that broadcasts over the trailing axis (one time
        per column). Components that share one ``fn`` object share one call.
        """
        return cls(kind="mean-field", fn=fn, growth_bound=growth_bound,
                   growth_slope=growth_slope)

    @classmethod
    def mean_field_average(cls, n: int) -> "DriftSpec":
        return cls(kind="mean-field", fn=MeanFieldAverage(n), growth_bound=0.0,
                   growth_slope=1.0 / n)

    @classmethod
    def external(cls, path, growth_bound: float = 0.0) -> "DriftSpec":
        return cls(kind="path", path=path, growth_bound=growth_bound)

    @property
    def deterministic(self) -> bool:
        return self.kind in ("constant", "time", "path")


def drift_values(drifts, times, states) -> np.ndarray:
    """Drift targets b_i(t_j, states[:, p, j]) of every drift in ``drifts``:
    shape (len(drifts), P, T) for ``times`` of shape (T,) and the system
    state ``states`` of shape (N, P, T).

    State-independent drifts ignore ``states`` beyond its shape, so a
    (0, 1, T) placeholder gives their (., 1, T) table. Each distinct
    mean-field fn is called once, on the whole state array.
    """
    times = np.asarray(times, dtype=float)
    out = np.empty((len(drifts),) + states.shape[1:])
    mean_field = {}
    for i, drift in enumerate(drifts):
        if drift.kind == "constant":
            out[i] = drift.value
        elif drift.kind == "time":
            out[i] = [float(drift.fn(t)) for t in times]
        elif drift.kind == "path":
            out[i] = [drift.path.evaluate(t) for t in times]
        elif drift.kind == "mean-field":
            key = id(drift.fn)
            if key not in mean_field:
                mean_field[key] = drift.fn(times, states)
            out[i] = mean_field[key]
        else:
            raise ValueError(f"unknown drift kind '{drift.kind}'")
    return out


@dataclass(frozen=True)
class SystemSpec:
    """N coupled components: coefficients, drifts, initial values."""

    components: tuple
    drifts: tuple
    initial: np.ndarray

    def __post_init__(self):
        init = np.asarray(self.initial, dtype=float)
        object.__setattr__(self, "initial", init)
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "drifts", tuple(self.drifts))
        if len(self.components) != len(self.drifts) or init.size != len(self.components):
            raise ValueError("components, drifts and initial values must align")
        if np.any(init < 0):
            raise ValueError("initial values must be non-negative")

    @property
    def n(self) -> int:
        return len(self.components)

    def noise_layout(self) -> NoiseLayout:
        brownian, alphas, measures, seen = set(), {}, [], set()
        for comp in self.components:
            for term in comp.brownian:
                if term.weight != 0.0:
                    brownian.add(term.factor)
            for term in comp.stable_terms:
                if term.coef == 0.0:
                    continue
                if term.factor in alphas and alphas[term.factor] != term.alpha:
                    raise ValueError(
                        f"stable factor {term.factor} declared with two alphas")
                alphas[term.factor] = term.alpha
            for kernel in (comp.g0_finite, comp.g1):
                if kernel is not None and kernel.measure.measure_id not in seen:
                    seen.add(kernel.measure.measure_id)
                    measures.append(kernel.measure)
        return NoiseLayout(brownian_factors=tuple(sorted(brownian)),
                           stable_alphas=alphas, measures=tuple(measures))

