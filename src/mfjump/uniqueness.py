"""Yamada-Watanabe test functions and the empirical pathwise-uniqueness
diagnostic.

The construction needs the defining integral of 1/rho^2 to diverge at 0; the
resulting phi_k are smooth convex approximations of |x| whose curvature is
controlled by 1/rho^2. Uniqueness itself cannot be asserted by simulation;
the diagnostic tests the necessary consequence that shared-noise solves
contract under grid refinement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coeffs import PowerModulus, SystemSpec, panel_quadrature
from .noise import TimeGrid
from .solver import solve_batch
from .system import _BLOCK, map_blocks

_PHI_NODES = 4001  # log-spaced quadrature nodes on (a_k, a_{k-1})
_FLATTEN_RETRIES = 60  # ramp halvings before build_phi gives up


def _inv_rho_sq_integral(rho, a: float, b: float) -> float:
    """Integral of 1/rho^2 over [a, b], computed in log space (the integrand
    is singular toward 0); ``rho`` must act elementwise."""
    return panel_quadrature(
        lambda s: np.exp(s) / np.asarray(rho(np.exp(s)), dtype=float) ** 2,
        math.log(a), math.log(b))


def yw_sequence(rho, x_m: float, k_max: int) -> np.ndarray:
    """The decreasing thresholds a_0 = x_m > a_1 > ... > a_{k_max} with
    integral_{a_k}^{a_{k-1}} dz / rho(z)^2 = k.

    Closed forms for power-law moduli; otherwise bisection on the monotone
    integral, to adjacent floats, which requires the modulus to declare a
    divergent integral. A power-law sequence stops at its first threshold
    that underflows to 0.0: every later one is 0.0 too.
    """
    if x_m <= 0:
        raise ValueError("x_m must be positive")
    if k_max < 1:
        raise ValueError("need k_max >= 1")
    seq = [float(x_m)]
    if isinstance(rho, PowerModulus):
        if not rho.sq_integral_diverges:
            raise ValueError("the construction needs integral dz/rho^2 = inf at 0")
        c2 = rho.coef ** 2
        gamma = rho.exponent
        for k in range(1, k_max + 1):
            prev = seq[-1]
            if gamma == 0.5:
                seq.append(prev * math.exp(-c2 * k))
            elif gamma == 1.0:
                seq.append(1.0 / (1.0 / prev + c2 * k))
            else:
                expo = 1.0 - 2.0 * gamma  # negative for gamma in (1/2, 1]
                seq.append((prev ** expo + c2 * k * (2.0 * gamma - 1.0)) ** (1.0 / expo))
            if seq[-1] == 0.0:
                break
        return np.array(seq)
    if getattr(rho, "sq_integral_diverges", None) is not True:
        raise ValueError("supply a power-law modulus or declare divergence "
                         "of integral dz/rho^2")
    for k in range(1, k_max + 1):
        prev = seq[-1]
        # the integral over [a, prev] falls as a rises: it is >= k at lo, < k at hi
        lo, hi = prev / 2.0, prev
        while _inv_rho_sq_integral(rho, lo, prev) < k:
            lo, hi = lo / 2.0, lo
            if lo < 1e-300:
                raise ValueError("failed to bracket the next threshold")
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if _inv_rho_sq_integral(rho, mid, prev) < k:
                hi = mid
            else:
                lo = mid
        seq.append(lo)
    return np.array(seq)


def _plateau_bump(u: np.ndarray, ramp: float) -> np.ndarray:
    """C-infinity bump on (0,1): smooth ramps of width ``ramp`` around a flat top."""
    def edge(t):
        t = np.clip(t, 0.0, 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            num = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
            den = num + np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
        return np.where(t <= 0, 0.0, np.where(t >= 1, 1.0, num / den))
    u = np.asarray(u, dtype=float)
    return edge(u / ramp) * edge((1.0 - u) / ramp)


@dataclass(frozen=True)
class PhiFunctions:
    """One member of the test-function family: phi, phi', phi'' as callables.

    phi is even and convex with phi(0)=0, 0 <= phi' <= 1 on R+, and
    |x| - a_{k-1} <= phi(x) <= |x| (exact at the cached nodes by construction).
    """

    a_lo: float  # a_k, support lower edge of psi
    a_hi: float  # a_{k-1}
    offset: float  # phi(x) = |x| - offset for |x| >= a_hi
    nodes: np.ndarray
    psi_nodes: np.ndarray
    prim_nodes: np.ndarray  # cumulative of psi (phi'), clamped to [0, 1]
    phi_nodes: np.ndarray
    psi_sup_bound: float  # max of psi * rho^2, must be <= 2/k

    def phi(self, z):
        z = np.abs(np.asarray(z, dtype=float))
        inside = np.interp(z, self.nodes, self.phi_nodes)
        out = np.where(z >= self.a_hi, self.phi_nodes[-1] + (z - self.a_hi), inside)
        return out if out.ndim else float(out)

    def dphi(self, z):
        z = np.asarray(z, dtype=float)
        mag = np.interp(np.abs(z), self.nodes, self.prim_nodes)
        mag = np.where(np.abs(z) >= self.a_hi, 1.0, mag)
        out = np.sign(z) * mag
        return out if out.ndim else float(out)

    def d2phi(self, z):
        z = np.abs(np.asarray(z, dtype=float))
        out = np.where((z <= self.a_lo) | (z >= self.a_hi), 0.0,
                       np.interp(z, self.nodes, self.psi_nodes))
        return out if out.ndim else float(out)


@dataclass
class TestFunctionFamily:
    """rho, x_m, the threshold sequence, and lazily built phi members."""

    __test__ = False  # not a pytest class despite the name

    rho: object
    x_m: float = 1.0
    k_max: int = 10
    a_seq: np.ndarray = field(init=False)
    _members: dict = field(init=False, default_factory=dict)

    def __post_init__(self):
        self.a_seq = yw_sequence(self.rho, self.x_m, self.k_max)

    def phi(self, k: int) -> PhiFunctions:
        if k not in self._members:
            self._members[k] = build_phi(self, k)
        return self._members[k]


def build_phi(family: TestFunctionFamily, k: int) -> PhiFunctions:
    """Construct psi_k = c*h((x-a_k)/(a_{k-1}-a_k))/rho^2(x) on (a_k, a_{k-1})
    and integrate it twice.

    The plateau bump h is flattened (ramp halved) until the normalized psi
    satisfies psi <= (2/k)/rho^2; quadrature runs in log-x space and the
    cumulative integrals are clamped so the sandwich inequalities hold exactly
    at the nodes.
    """
    if not 1 <= k <= len(family.a_seq) - 1:
        raise ValueError(f"k must lie in [1, {len(family.a_seq) - 1}]")
    a_hi, a_lo = float(family.a_seq[k - 1]), float(family.a_seq[k])
    rho = family.rho
    span = a_hi - a_lo

    s_nodes = np.linspace(math.log(a_lo), math.log(a_hi), _PHI_NODES)
    x_nodes = np.exp(s_nodes)
    x_nodes[0], x_nodes[-1] = a_lo, a_hi
    inv_rho_sq = 1.0 / np.asarray(rho(x_nodes), dtype=float) ** 2

    ramp = 0.25
    for _ in range(_FLATTEN_RETRIES):
        h = _plateau_bump((x_nodes - a_lo) / span, ramp)
        raw = h * inv_rho_sq
        # cumulative integral of raw in x = integral of raw * e^s in s
        increments = 0.5 * np.diff(s_nodes) * (raw[1:] * x_nodes[1:]
                                               + raw[:-1] * x_nodes[:-1])
        total = increments.sum()
        if total > 0:
            psi = raw / total
            sup_bound = float((psi / inv_rho_sq).max())  # = max psi * rho^2
            if sup_bound <= 2.0 / k:
                break
        ramp /= 2.0
    else:
        raise RuntimeError(f"could not flatten the bump enough for k={k}")

    prim = np.concatenate([[0.0], np.cumsum(increments)]) / total
    prim = np.clip(prim, 0.0, 1.0)
    prim[-1] = 1.0

    # extend the node set to [0, a_hi] so phi integrates from 0
    nodes = np.concatenate([[0.0], x_nodes])
    psi_nodes = np.concatenate([[0.0], psi])
    prim_nodes = np.concatenate([[0.0], prim])
    phi_increments = 0.5 * np.diff(nodes) * (prim_nodes[1:] + prim_nodes[:-1])
    phi_nodes = np.concatenate([[0.0], np.cumsum(phi_increments)])
    phi_nodes = np.minimum(phi_nodes, nodes)  # phi <= |x| exactly at nodes
    phi_nodes = np.maximum(phi_nodes, nodes - a_hi)

    return PhiFunctions(a_lo=a_lo, a_hi=a_hi,
                        offset=float(a_hi - phi_nodes[-1]),
                        nodes=nodes, psi_nodes=psi_nodes, prim_nodes=prim_nodes,
                        phi_nodes=phi_nodes, psi_sup_bound=sup_bound)


@dataclass(frozen=True)
class DivergenceRow:
    """Shared-noise divergence between one grid and its refinement."""

    steps_coarse: int
    dt_coarse: float
    mean_sup_diff: float  # E[sup_t max_i |coarse - fine|]
    mean_sup_diff_se: float
    mean_abs_terminal: float
    phi_moments: dict  # k -> E[phi_k(difference at T)]


@dataclass(frozen=True)
class DivergenceReport:
    rows: tuple
    a_seq: np.ndarray
    warnings: list  # the solver's, merged over every rung and block

    def strictly_decreasing(self) -> bool:
        return bool(np.all(np.diff([r.mean_sup_diff for r in self.rows]) < 0))


def _divergence_block(spec, _lo, rungs):
    """Per-path divergences of consecutive resolutions on one block of paths.

    ``rungs`` is the block's one draw on the finest grid, coarsened onto each
    resolution of a doubling ladder in turn, so all resolutions see the same
    Brownian/stable path and the same jump events, and each is solved once.
    Per consecutive pair this returns the sup over components and coarse grid
    points of |coarse - fine|, shape (P,), and the signed difference at T,
    shape (N, P). The solves' warnings come second.
    """
    out, warns, coarse = [], [], None  # coarse: the values of the previous resolution
    for batch in rungs:
        res = solve_batch(spec.components, spec.drifts, batch, initial=spec.initial[:, None])
        warns += res.warnings
        if coarse is not None:
            diff = coarse - res.values[:, :, ::2]
            # a copy, so the full difference array is not kept alive
            out.append((np.abs(diff).max(axis=(0, 2)), diff[:, :, -1].copy()))
        coarse = res.values
    return out, warns


def refinement_study(spec: SystemSpec, horizon: float, steps_ladder, n_paths: int,
                     master_seed: int, family: TestFunctionFamily = None,
                     phi_ks=(2, 4), jobs: int = 1) -> DivergenceReport:
    """Divergence rows for a doubling ladder of step counts, each against its
    refinement.

    Every path's noise is drawn once on the finest grid, twice the last rung,
    and shared by all rungs; paths run in fixed blocks, so the report is the
    same for any ``jobs``. A rung's row comes from the per-path divergences
    of every block concatenated in path order.
    """
    ladder = [int(s) for s in steps_ladder]
    if any(fine != 2 * coarse for coarse, fine in zip(ladder, ladder[1:])):
        raise ValueError("each ladder rung must double the previous one")
    if n_paths < 2:
        raise ValueError("need at least two paths")
    finest = 2 * ladder[-1]
    parts, warns = map_blocks(_divergence_block, spec, TimeGrid.uniform(horizon, finest),
                              [finest // s for s in ladder + [finest]], n_paths, _BLOCK,
                              master_seed, jobs, spec)
    rows = []
    for r, coarse in enumerate(ladder):
        sup = np.concatenate([part[r][0] for part in parts])
        diff_t = np.concatenate([part[r][1] for part in parts], axis=1)
        phi_moments = {} if family is None else {
            k: float(np.mean(family.phi(k).phi(diff_t))) for k in phi_ks}
        rows.append(DivergenceRow(
            steps_coarse=coarse, dt_coarse=horizon / coarse,
            mean_sup_diff=float(sup.mean()),
            mean_sup_diff_se=float(sup.std(ddof=1) / math.sqrt(n_paths)),
            mean_abs_terminal=float(np.abs(diff_t).max(axis=0).mean()),
            phi_moments=phi_moments))
    a_seq = family.a_seq if family is not None else np.array([])
    return DivergenceReport(rows=tuple(rows), a_seq=a_seq, warnings=warns)
