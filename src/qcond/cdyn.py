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

import math

import numpy as np

from .core import ClassicalEnsemble, DegenerateEnsembleError, SystemSpec, drive, ensemble_moments
from .qdyn import ConditionedTrajectory, MeasurementSpec

__all__ = [
    "liouville_step",
    "ks_step",
    "resample",
    "newton_trajectory",
    "run_conditioned_classical",
    "WeightClipCounter",
]

ESS_HARD_FLOOR = 10.0
RESAMPLE_ESS_FRACTION = 0.5


def _leapfrog(x, p, system: SystemSpec, dt, t):
    """Kick-drift-kick with force evaluated at the step's endpoint times."""
    h = 0.5 * dt
    p_half = system.force(x, t)   # a new array: the kick updates it in place
    p_half *= h
    p_half += p
    x_new = dt * p_half
    x_new /= system.mass
    x_new += x
    p_new = system.force(x_new, t + dt)
    p_new *= h
    p_new += p_half
    return x_new, p_new


def liouville_step(ens: ClassicalEnsemble, system: SystemSpec, dt, t=0.0) -> ClassicalEnsemble:
    """Advect every particle one symplectic step; weights untouched."""
    x, p = _leapfrog(ens.x, ens.p, system, dt, t)
    return ClassicalEnsemble._from_step(x, p, ens.w)


class WeightClipCounter:
    """Particle-filter events: clipped weight updates (ks_step), and the
    resamples and lowest pre-resample ESS of run_conditioned_classical."""

    def __init__(self):
        self.updates = 0
        self.clipped = 0
        self.resamples = 0
        self.min_ess = np.inf


def ks_step(ens: ClassicalEnsemble, system: SystemSpec, meas: MeasurementSpec,
            dt, dw, t=0.0, clip_counter: WeightClipCounter = None):
    """One conditioned classical step of every row; returns (ensemble', dy).

    dw and dy hold one increment per row of the (..., N) ensemble.
    Innovation weighting happens at the pre-drift positions (Ito
    convention), then the particles are advected.
    """
    ess = ens.ess()
    if not (ess >= ESS_HARD_FLOOR).all():   # a NaN ESS fails too
        row = np.flatnonzero(~(ess >= ESS_HARD_FLOOR))[0]
        raise DegenerateEnsembleError(
            f"effective sample size {np.ravel(ess)[row]:.2f} of row {row} below "
            f"{ESS_HARD_FLOOR}; resample first"
        )
    x_mean = np.vecdot(ens.w, ens.x)
    dy = meas.record(x_mean, dw, dt)

    # w (1 + sqrt(8k) (x - <x>) dW), built in the one new array
    w = ens.x - x_mean[..., None]
    w *= meas.sqrt8k
    w *= np.asarray(dw)[..., None]
    w += 1.0
    w *= ens.w
    if clip_counter is not None:
        clip_counter.updates += w.size
        clip_counter.clipped += int(np.count_nonzero(w < 0.0))
    np.maximum(w, 0.0, out=w)   # the ufunc np.clip(w, 0.0, None) calls
    total = w.sum(axis=-1, keepdims=True)
    if not np.isfinite(total).all():
        raise DegenerateEnsembleError(f"weights not finite at t={t:.6g}; "
                                      "look for a non-finite noise increment")
    if not (total > 0.0).all():
        raise DegenerateEnsembleError("all weights clipped to zero in one update")
    w /= total

    x, p = _leapfrog(ens.x, ens.p, system, dt, t)
    return ClassicalEnsemble._from_step(x, p, w), dy


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


def newton_trajectory(x0, p0, system: SystemSpec, dt, n_steps):
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
    # Unrolled force with its constants hoisted: no per-step lookups or products.
    a2, a3, h, cos = 2.0 * c2, 3.0 * c3, 0.5 * dt, math.cos
    f = -(c1 + x * (a2 + x * (a3 + x * 4.0 * c4))) + u
    if lam != 0.0:
        f -= lam * cos(omega * 0.0)
    for i in range(1, n_steps + 1):
        p_half = p + h * f
        x = x + dt * p_half / m
        f = -(c1 + x * (a2 + x * (a3 + x * 4.0 * c4))) + u
        if lam != 0.0:
            f -= lam * cos(omega * (i * dt))
        p = p_half + h * f
        xs[i] = x
        ps[i] = p
    times = dt * np.arange(n_steps + 1)
    return times, xs, ps


def run_conditioned_classical(ens0: ClassicalEnsemble, system, meas, increments, dt,
                              sample_every=1, resample_rngs=None, clip_counter=None):
    """Conditioned particle filters from ens0, one batch row per column of
    the (n_steps, R) ``increments``; each row is bit-identical to its column
    run alone.

    Before a step, each row whose ESS is below RESAMPLE_ESS_FRACTION of the
    particle count is resampled with its own generator, resample_rngs[r]
    (the deterministic midpoint offset without one).  The trajectory holds
    each row's ESS in its purity column.
    """
    n_steps, n_rows = increments.shape
    shape = (n_rows, ens0.n_particles)
    ens = ClassicalEnsemble(*(np.broadcast_to(a, shape).copy() for a in (ens0.x, ens0.p, ens0.w)))
    rngs = resample_rngs or [None] * n_rows
    floor = RESAMPLE_ESS_FRACTION * ens0.n_particles

    def step(ens, i, t):
        ess = ens.ess()
        low = np.flatnonzero(ess < floor)
        if clip_counter is not None:
            clip_counter.resamples += low.size
            clip_counter.min_ess = min(clip_counter.min_ess, float(ess.min()))
        if low.size:
            x, p, w = ens.x.copy(), ens.p.copy(), ens.w.copy()
            for r in low:
                row = resample(ClassicalEnsemble(x[r], p[r], w[r]), rngs[r])
                x[r], p[r], w[r] = row.x, row.p, row.w
            ens = ClassicalEnsemble(x, p, w)
        return ks_step(ens, system, meas, dt, increments[i], t, clip_counter)[0]

    def sample(ens, t):
        return ensemble_moments(ens, system, t).stack()

    times, rows, _ = drive(ens, n_steps, dt, sample_every, step, sample)
    # C-contiguous (R, n_samples, 7), as qdyn's runs return.
    return ConditionedTrajectory(times, np.ascontiguousarray(rows.swapaxes(0, 1)))
