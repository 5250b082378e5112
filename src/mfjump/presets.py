"""Built-in scenario presets: the correlated square-root system and the
indicator-thinned finite-activity jump kernel."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import (BrownianTerm, CoefficientSet, CompensatedKernel, DriftSpec,
                     ExponentialMeasure, PointMassMeasure, PowerDiffusion,
                     PowerModulus, StableJumpMeasure, StablePowerKernel, StableTerm,
                     SystemSpec, AxisSumMeasure, ThinningCompensator, ThinningKernel,
                     ThinningMarkMeasure, ThinningMarkSampler, stable_levy_constant)
from .noise import MeasureSpec


def _broadcast(value, n: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"{name} must be a scalar or length-{n} sequence")
    return arr


def stable_trunc_sq_constant(alpha: float, coef: float, m: float) -> float:
    """K with  integral of |coef*u*x^(1/a) ^ m - coef*u*y^(1/a) ^ m|^2 d(levy)
    bounded by K * |x - y| for 0 <= x, y <= m (^ denotes truncation at m)."""
    c = stable_levy_constant(alpha)
    return c * m ** (2.0 - alpha) * coef ** alpha * (1.0 / (2.0 - alpha) + 1.0 / alpha)


@dataclass(frozen=True)
class StableTruncModulus:
    """m -> sqrt(sum_j K_j(m)) * sqrt(z) for the active stable jump terms."""

    coefs: tuple
    alphas: tuple

    def __call__(self, m: float) -> PowerModulus:
        k_total = sum(stable_trunc_sq_constant(a, c, m)
                      for c, a in zip(self.coefs, self.alphas))
        return PowerModulus(math.sqrt(k_total), 0.5)


@dataclass(frozen=True)
class LipschitzModulus:
    """m -> coef * z; the vacuous choice when g1 is absent."""

    coef: float = 1.0

    def __call__(self, m: float) -> PowerModulus:
        return PowerModulus(self.coef, 1.0)


def preset_example21(n: int, a=1.0, sigma=1.0, sigma0: float = 0.0, sigma_z=0.0,
                     sigma_z0: float = 0.0, alpha=1.8, alpha0: float = 1.5,
                     initial=1.0, drift=None, sigma_power: float = 0.5) -> SystemSpec:
    """Correlated square-root system with common and idiosyncratic factors.

    Component i reverts at speed a_i toward the drift target (mean-field
    average unless overridden), diffuses as sqrt(sigma_i^2+sigma0^2)*sqrt(x)
    against W^i built from B^i and the common B^0, and jumps through
    spectrally positive stable drivers Z^i, Z^0 with x^(1/alpha) coefficients.
    Factor 0 is the common pair (B^0, Z^0); factor i is component i's own.

    ``sigma_power`` generalizes the diffusion shape to max(x,0)**p. The
    declared modulus is the p-Holder law for p <= 1 (divergence holds iff
    p >= 1/2) and the square-root law for p > 1, so validators falsify
    shapes outside the theory (e.g. p=2) with a witness pair.
    """
    if n < 1:
        raise ValueError("need at least one component")
    a = _broadcast(a, n, "a")
    sigma = _broadcast(sigma, n, "sigma")
    sigma_z = _broadcast(sigma_z, n, "sigma_z")
    alpha = _broadcast(alpha, n, "alpha")
    initial = _broadcast(initial, n, "initial")
    for name, val in (("a", a), ("sigma", sigma), ("sigma0", sigma0),
                      ("sigma_z", sigma_z), ("sigma_z0", sigma_z0), ("initial", initial)):
        if np.any(np.asarray(val) < 0):
            raise ValueError(f"{name} must be non-negative")
    for name, val in (("alpha", alpha), ("alpha0", np.asarray(alpha0))):
        if np.any((np.asarray(val) <= 1.0) | (np.asarray(val) > 2.0)):
            raise ValueError(f"{name} must lie in (1, 2]")

    if drift is None:
        drift = DriftSpec.mean_field_average(n)
    drifts = tuple(drift) if isinstance(drift, (list, tuple)) else (drift,) * n

    if sigma_power <= 0:
        raise ValueError("sigma_power must be positive")

    components = []
    for i in range(n):
        comb = math.sqrt(sigma[i] ** 2 + sigma0 ** 2)
        brownian = []
        if comb > 0.0:
            if sigma[i] > 0.0:
                brownian.append(BrownianTerm(factor=i + 1, weight=sigma[i] / comb))
            if sigma0 > 0.0:
                brownian.append(BrownianTerm(factor=0, weight=sigma0 / comb))
        stable = []
        if sigma_z0 > 0.0:
            stable.append(StableTerm(factor=0, coef=sigma_z0, alpha=alpha0))
        if sigma_z[i] > 0.0:
            stable.append(StableTerm(factor=i + 1, coef=sigma_z[i], alpha=alpha[i]))

        # validation-side jump kernel: only alpha < 2 terms carry a Levy
        # measure, and term j's jumps lie on mark axis j, the row it reads
        jump_terms = [t for t in stable if t.alpha < 2.0]
        if jump_terms:
            coefs = tuple(t.coef for t in jump_terms)
            alphas_v = tuple(t.alpha for t in jump_terms)
            g0 = StablePowerKernel(coefs=coefs, alphas=alphas_v)
            mu0 = AxisSumMeasure(terms=tuple(
                (StableJumpMeasure(al), j, len(alphas_v)) for j, al in enumerate(alphas_v)))
            rho_m = StableTruncModulus(coefs=coefs, alphas=alphas_v)
        else:
            g0, mu0, rho_m = None, None, LipschitzModulus()

        components.append(CoefficientSet(
            a=float(a[i]),
            sigma=PowerDiffusion(comb, sigma_power),
            brownian=tuple(brownian),
            stable_terms=tuple(stable),
            g0=g0,
            mu0=mu0,
            rho=PowerModulus(comb if comb > 0.0 else 1.0,
                             sigma_power if sigma_power <= 1.0 else 0.5),
            rho_m=rho_m,
            r_m=LipschitzModulus(),
            growth_k=0.0,
        ))

    return SystemSpec(components=tuple(components), drifts=drifts, initial=initial)


def preset_cir(a: float, b: float, sigma: float, initial: float,
               sigma_z: float = 0.0, alpha: float = 1.5) -> SystemSpec:
    """One-dimensional square-root process reverting to a constant level b."""
    return preset_example21(1, a=a, sigma=sigma, sigma_z=sigma_z, alpha=alpha,
                            initial=initial, drift=DriftSpec.constant(b))


def preset_cbi_thinning(levy, v_max: float, a: float = 1.0, sigma: float = 0.0,
                        measure_id: str = "thin:0") -> CoefficientSet:
    """Indicator-thinned compensated jump kernel over a finite Levy measure.

    Candidate events arrive at rate v_max * |levy| with marks (v, zeta),
    v uniform on (0, v_max); a candidate takes effect only when v < state, so
    the accepted intensity at state x is min(x, v_max) * |levy|. The kernel is
    compensated: min(x, v_max) * first_moment is subtracted continuously.
    ``v_max`` must dominate the state for the thinning to be exact.
    """
    mass = levy.total_mass
    if not math.isfinite(mass):
        raise ValueError("thinning preset needs a finite Levy mass")
    if v_max <= 0:
        raise ValueError("v_max must be positive")
    m1 = levy.first_moment()
    if not math.isfinite(m1):
        raise ValueError("thinning preset needs a finite first moment")

    if isinstance(levy, PointMassMeasure):
        sampler = ThinningMarkSampler(v_max=v_max, atoms=levy.atoms)
    elif isinstance(levy, ExponentialMeasure):
        sampler = ThinningMarkSampler(v_max=v_max, exp_mean=levy.mean)
    else:
        raise ValueError("thinning preset supports point-mass or exponential levy measures")

    kernel = CompensatedKernel(
        fn=ThinningKernel(),
        measure=MeasureSpec(measure_id=measure_id, rate=v_max * mass, mark_sampler=sampler),
        mu=ThinningMarkMeasure(levy=levy, v_max=v_max),
        compensator=ThinningCompensator(v_max=v_max, first_moment=m1),
    )
    return CoefficientSet(
        a=float(a),
        sigma=PowerDiffusion(sigma, 0.5),
        brownian=(BrownianTerm(factor=1, weight=1.0),) if sigma > 0 else (),
        g0=ThinningKernel(),
        mu0=kernel.mu,
        g0_finite=kernel,
        rho=PowerModulus(sigma if sigma > 0 else 1.0, 0.5),
        rho_m=ThinningTruncModulus(levy=levy),
        r_m=LipschitzModulus(),
        growth_k=0.0,
    )


@dataclass(frozen=True)
class ThinningTruncModulus:
    """m -> sqrt(C2(m) * z) with C2(m) the truncated second moment of the levy law."""

    levy: object

    def __call__(self, m: float) -> PowerModulus:
        c2 = self.levy.integrate(lambda z: np.minimum(z, m) ** 2)
        return PowerModulus(math.sqrt(c2), 0.5)


def thinning_system(levy, v_max: float, a: float = 1.0, sigma: float = 0.0,
                    initial: float = 1.0, drift=None) -> SystemSpec:
    """One-component system around the thinned jump kernel."""
    comp = preset_cbi_thinning(levy, v_max, a=a, sigma=sigma)
    if drift is None:
        drift = DriftSpec.constant(initial)
    return SystemSpec(components=(comp,), drifts=(drift,),
                      initial=np.array([initial]))
