"""Centroid dynamics under Gaussian (second-cumulant) closure.

Closing the conditioned hierarchy at second order gives the centroid
SDEs

    d x_mean = (p_mean/m) dt + sqrt(8k) C_xx dW
    d p_mean = <F> dt        + sqrt(8k) C_xp dW

with <F> evaluated over the Gaussian (third central moments zero), and a
deterministic covariance flow

    dC_xx/dt = 2 C_xp / m                      - 8k C_xx^2
    dC_xp/dt = C_pp / m + <dF/dx> C_xx         - 8k C_xx C_xp
    dC_pp/dt = 2 <dF/dx> C_xp + 2 hbar^2 k     - 8k C_xp^2

(the 2 hbar^2 k backaction term vanishes with hbar, classically; its
coefficient is pinned by the exact identity d<p^2>/dt = 2 hbar^2 k of
the open evolution, and is what keeps C_xx C_pp - C_xp^2 = hbar^2/4
invariant for pure Gaussian states).  Innovation terms in the second
cumulants cancel identically under the closure, hence the deterministic
flow.

Discretely, one step mirrors the full-state stepper's sub-step order:
measurement update first (a scalar Kalman correction plus the backaction
injection), then a symplectic kick-drift-kick drift.  For quadratic
potentials the closure is exact and this stepper tracks the full
conditioned state to roundoff when both consume the same noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import QcondError, SystemSpec
from .qdyn import MeasurementSpec

__all__ = ["GaussianBelief", "centroid_step", "belief_vs_full_compare", "CompareReport"]


class ClosureBreakdownError(QcondError):
    """Belief covariance left the admissible cone (closure no longer valid)."""


@dataclass(frozen=True)
class GaussianBelief:
    """Gaussian state summary (x_mean, p_mean, covariances), quantum or classical.

    hbar > 0 is a quantum belief, with the measurement backaction and the
    hbar^2/4 uncertainty floor; at hbar = 0 it is classical and may
    collapse to a point (all C -> 0).
    """

    x_mean: float
    p_mean: float
    c_xx: float
    c_xp: float
    c_pp: float
    hbar: float = 1.0

    def uncertainty_product(self) -> float:
        return self.c_xx * self.c_pp - self.c_xp**2

    def validate(self):
        det = self.uncertainty_product()
        if self.c_xx < 0 or self.c_pp < 0 or det < -1e-10 * max(1.0, self.c_xx * self.c_pp):
            raise ClosureBreakdownError(
                f"covariance not PSD: C_xx={self.c_xx:.3e} C_pp={self.c_pp:.3e} det={det:.3e}"
            )
        if self.hbar > 0:
            floor = self.hbar**2 / 4.0 * (1.0 - 1e-6)
            if det < floor:
                raise ClosureBreakdownError(
                    f"uncertainty product {det:.6e} below quantum floor {floor:.6e}"
                )


def _mean_force(system: SystemSpec, x_mean, c_xx, t):
    """<F> over a Gaussian: F(x_mean) + (1/2) F''(x_mean) C_xx (exact, quartic cap)."""
    return system.force(x_mean, t) + 0.5 * system.force_curvature(x_mean) * c_xx


def _mean_force_gradient(system: SystemSpec, x_mean, c_xx):
    """<dF/dx> over a Gaussian; the curvature term is exact for quartic V."""
    return system.force_gradient(x_mean) + 0.5 * system.force_third_derivative() * c_xx


def centroid_step(belief: GaussianBelief, system: SystemSpec, meas: MeasurementSpec,
                  dt, dw, t=0.0) -> GaussianBelief:
    """One conditioned step of the closed centroid + covariance equations.

    Sub-step order matches the full-state stepper (measurement, then
    symplectic drift).
    """
    m = system.mass
    k = meas.strength if meas is not None else 0.0
    x, p = belief.x_mean, belief.p_mean
    cxx, cxp, cpp = belief.c_xx, belief.c_xp, belief.c_pp

    if k > 0.0:
        # Scalar Kalman update: measuring x with per-step precision 8k dt.
        denom = 1.0 + 8.0 * k * cxx * dt
        gain = meas.sqrt8k * dw / denom
        x = x + cxx * gain
        p = p + cxp * gain
        cpp = cpp - 8.0 * k * dt * cxp**2 / denom
        cxp = cxp / denom
        cxx = cxx / denom
        if belief.hbar > 0:
            cpp = cpp + 2.0 * meas.backaction_diffusion(belief.hbar) * dt

    # Symplectic kick-drift-kick on the means; covariance rides the
    # tangent map of the same composition.
    g1 = _mean_force_gradient(system, x, cxx)
    p = p + 0.5 * dt * _mean_force(system, x, cxx, t)
    cxp1 = cxp + 0.5 * dt * g1 * cxx
    cpp1 = cpp + dt * g1 * cxp + (0.5 * dt * g1) ** 2 * cxx
    x = x + dt * p / m
    cxx2 = cxx + 2.0 * dt * cxp1 / m + (dt / m) ** 2 * cpp1
    cxp2 = cxp1 + dt * cpp1 / m
    g2 = _mean_force_gradient(system, x, cxx2)
    p = p + 0.5 * dt * _mean_force(system, x, cxx2, t + dt)
    cxp3 = cxp2 + 0.5 * dt * g2 * cxx2
    cpp2 = cpp1 + dt * g2 * cxp2 + (0.5 * dt * g2) ** 2 * cxx2

    out = GaussianBelief(float(x), float(p), float(cxx2), float(cxp3), float(cpp2), belief.hbar)
    out.validate()
    return out


@dataclass(frozen=True)
class CompareReport:
    """Deviation metrics between a full-state and a belief trajectory."""

    max_abs: np.ndarray     # per moment [x_mean, p_mean, c_xx, c_xp, c_pp]
    rms: np.ndarray
    max_rel: np.ndarray     # relative to the full trajectory's max magnitude

    def worst_relative(self) -> float:
        return float(np.max(self.max_rel))


def belief_vs_full_compare(full_moments: np.ndarray, belief_moments: np.ndarray) -> CompareReport:
    """Compare (n_samples, 5) moment matrices driven by the same noise."""
    full = np.asarray(full_moments, dtype=float)
    bel = np.asarray(belief_moments, dtype=float)
    if full.shape != bel.shape:
        raise ValueError(f"trajectory shapes differ: {full.shape} vs {bel.shape}")
    diff = bel - full
    max_abs = np.max(np.abs(diff), axis=0)
    rms = np.sqrt(np.mean(diff**2, axis=0))
    scale = np.maximum(np.max(np.abs(full), axis=0), 1e-300)
    return CompareReport(max_abs, rms, max_abs / scale)
