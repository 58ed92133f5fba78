"""Classical evolution: Liouville flow, conditioned particle filtering, Newton limit.

The conditioned classical distribution obeys the same record/innovation
structure as the quantum case but with no backaction: classical
measurement is passive, so averaging the conditioned flow over all
records returns the plain Liouville flow exactly.  The continuum
equation is realized as a weighted particle filter: particles carry the
deterministic phase-space drift, weights carry the Bayesian innovation

    w_i <- w_i * (1 + sqrt(8k) (x_i - <x>) dW),   then clip at 0, renormalize,

with the record increment dy = <x> dt + dW / sqrt(8k).  The linearized
multiplicative update keeps the noise average exact (the weight set is a
martingale); clipping events are counted so runs can verify they stay
rare (< 1e-4 of updates at the default time step).

All drifts use symplectic leapfrog (kick-drift-kick), which keeps the
energy bounded over the long horizons the Lyapunov harness needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ClassicalEnsemble, DegenerateEnsembleError, SystemSpec
from .qdyn import MeasurementRecord, MeasurementSpec, MeasurementError
from .noise import NoisePath

__all__ = [
    "liouville_step",
    "ks_step",
    "ks_filter_step",
    "resample",
    "newton_trajectory",
    "run_conditioned_classical",
    "WeightClipCounter",
]

ESS_HARD_FLOOR = 10.0


def _leapfrog(x, p, system: SystemSpec, dt, t):
    """Kick-drift-kick with force evaluated at the step's endpoint times."""
    p = p + 0.5 * dt * system.force(x, t)
    x = x + dt * p / system.mass
    p = p + 0.5 * dt * system.force(x, t + dt)
    return x, p


def liouville_step(ens: ClassicalEnsemble, system: SystemSpec, dt, t=0.0) -> ClassicalEnsemble:
    """Advect every particle one symplectic step; weights untouched."""
    x, p = _leapfrog(ens.x, ens.p, system, dt, t)
    return ClassicalEnsemble(x, p, ens.w)


class WeightClipCounter:
    """Tracks how often the linearized weight update had to be clipped at 0."""

    def __init__(self):
        self.updates = 0
        self.clipped = 0

    def rate(self) -> float:
        return self.clipped / self.updates if self.updates else 0.0


def ks_step(ens: ClassicalEnsemble, system: SystemSpec, meas: MeasurementSpec,
            dt, dw, t=0.0, clip_counter: WeightClipCounter = None):
    """One conditioned classical step; returns (ensemble', dy).

    Innovation weighting happens at the pre-drift positions (Ito
    convention), then the particles are advected.
    """
    if meas.strength == 0.0:
        raise MeasurementError("conditioned classical step with k = 0 has no record")
    ess = ens.ess()
    if ess < ESS_HARD_FLOOR:
        raise DegenerateEnsembleError(
            f"effective sample size {ess:.2f} below {ESS_HARD_FLOOR}; resample first"
        )
    sqrt8k = np.sqrt(8.0 * meas.strength)
    x_mean = float(np.dot(ens.w, ens.x))
    dy = x_mean * dt + dw / sqrt8k

    w = ens.w * (1.0 + sqrt8k * (ens.x - x_mean) * dw)
    if clip_counter is not None:
        clip_counter.updates += w.size
        clip_counter.clipped += int(np.sum(w < 0.0))
    w = np.clip(w, 0.0, None)
    total = float(np.sum(w))
    if total <= 0.0:
        raise DegenerateEnsembleError("all weights clipped to zero in one update")
    w = w / total

    x, p = _leapfrog(ens.x, ens.p, system, dt, t)
    return ClassicalEnsemble(x, p, w), dy


def ks_filter_step(ens, system, meas, dt, dy, t=0.0, clip_counter=None):
    """Conditioned step driven by a known record increment instead of dW."""
    sqrt8k = np.sqrt(8.0 * meas.strength)
    x_mean = float(np.dot(ens.w, ens.x))
    dw = sqrt8k * (dy - x_mean * dt)
    return ks_step(ens, system, meas, dt, dw, t, clip_counter)


def resample(ens: ClassicalEnsemble, rng: np.random.Generator = None) -> ClassicalEnsemble:
    """Systematic resampling to equal weights.

    With no generator supplied the offset is the deterministic midpoint,
    so resampling is reproducible given only the ensemble; passing a
    trajectory-keyed generator (noise.substream_rng) randomizes the
    offset without touching the trajectory's Wiener stream.
    """
    n = ens.n_particles
    w = ens.w / np.sum(ens.w)
    u0 = 0.5 if rng is None else float(rng.uniform())
    positions = (u0 + np.arange(n)) / n
    idx = np.searchsorted(np.cumsum(w), positions)
    idx = np.clip(idx, 0, n - 1)
    return ClassicalEnsemble(ens.x[idx], ens.p[idx], np.full(n, 1.0 / n))


def newton_trajectory(x0, p0, system: SystemSpec, dt, n_steps, t0=0.0):
    """Leapfrog integration of Newton's equations; returns (times, x, p) arrays."""
    xs = np.empty(n_steps + 1)
    ps = np.empty(n_steps + 1)
    xs[0], ps[0] = x0, p0
    x, p = float(x0), float(p0)
    m = system.mass
    c0, c1, c2, c3, c4 = system.potential_coeffs
    lam = system.drive_amplitude
    omega = system.drive_frequency
    u = system.control_offset
    t = t0
    # Unrolled force avoids per-step attribute lookups on long horizons.
    f = -(c1 + x * (2.0 * c2 + x * (3.0 * c3 + x * 4.0 * c4))) + u
    if lam != 0.0:
        f -= lam * np.cos(omega * t)
    for i in range(1, n_steps + 1):
        p_half = p + 0.5 * dt * f
        x = x + dt * p_half / m
        t = t0 + i * dt
        f = -(c1 + x * (2.0 * c2 + x * (3.0 * c3 + x * 4.0 * c4))) + u
        if lam != 0.0:
            f -= lam * np.cos(omega * t)
        p = p_half + 0.5 * dt * f
        xs[i], ps[i] = x, p
    times = t0 + dt * np.arange(n_steps + 1)
    return times, xs, ps


def run_conditioned_classical(ens0: ClassicalEnsemble, system, meas, noise: NoisePath,
                              sample_every=1, t0=0.0, resample_threshold=0.5,
                              resample_rng=None, clip_counter=None):
    """Full conditioned run with automatic resampling below an ESS fraction.

    Returns (times, moment matrix (n_samples, 5), record).
    """
    from .core import ensemble_moments

    dt = noise.dt
    ens = ens0
    n_part = ens0.n_particles
    dys = np.empty(noise.n_steps)
    samples = [ensemble_moments(ens, system, t0)]
    times = [t0]
    t = t0
    for i in range(noise.n_steps):
        if ens.ess() < resample_threshold * n_part:
            ens = resample(ens, resample_rng)
        ens, dys[i] = ks_step(ens, system, meas, dt, noise.increments[i], t, clip_counter)
        t = t0 + (i + 1) * dt
        if (i + 1) % sample_every == 0:
            samples.append(ensemble_moments(ens, system, t))
            times.append(t)
    mom = np.array([m.as_array() for m in samples])
    return np.asarray(times), mom, MeasurementRecord(dt, dys)
