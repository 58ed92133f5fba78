"""Divergence exponents of conditioned quantum trajectories.

Two trajectories share one noise realization; the perturbed one starts
displaced by delta0 in the position mean.  The divergence is

    Delta(t) = |<x(t)> - <x_fid(t)>|,    lambda(t) = ln(Delta(t)/delta0) / t

(the ratio form differs from the bare logarithm by an additive constant
that dies as 1/t, and makes the isolated-case slope test exact).
Ensemble statistics run one stream index per realization, and chunks of
realizations step together as batch rows on core.drive, so results are
independent of execution order, chunking and worker count.

Finite delta0 stands in for the vanishing-separation limit; optionally a
Benettin-style renormalization resets the perturbed state to a displaced
copy of the fiducial whenever the separation exceeds a threshold (at the
start of the next step), which makes long-horizon plateaus measurable
after the separation would otherwise saturate at the attractor size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import PositionGrid, SystemSpec, drive
from .noise import generate, map_streams
from .qdyn import MeasurementSpec, PureStepper
from . import cdyn

__all__ = [
    "PairedRunResult",
    "paired_run",
    "classical_paired_run",
    "ensemble_lyapunov",
]

MERGE_FLOOR_FACTOR = 1e-14


@dataclass(frozen=True)
class PairedRunResult:
    """Divergence series of a batch of R fiducial/perturbed pairs.

    delta and lam are (R, n_samples); merged (bool) and renormalizations
    (Benettin resets per pair) are (R,).  max_outer_mass is the largest
    outer-grid-buffer probability of any wavefunction after any step (None
    for a classical run).  n_batches counts the stream-batch jobs that ran
    the pairs.
    """

    times: np.ndarray
    delta: np.ndarray
    lam: np.ndarray
    merged: np.ndarray
    renormalizations: np.ndarray
    max_outer_mass: float = None
    n_batches: int = 1

    @property
    def n_renormalizations(self) -> int:
        """Total number of resets over the pairs, a plain int."""
        return int(self.renormalizations.sum())

    @property
    def lam_mean(self) -> np.ndarray:
        """Mean lambda(t) over the pairs that did not merge."""
        return np.nanmean(self.lam[~self.merged], axis=0)

    @property
    def lam_sd(self) -> np.ndarray:
        """Sample standard deviation of lambda(t) over the pairs that did not merge."""
        return np.nanstd(self.lam[~self.merged], axis=0, ddof=1)


def _shift_wavefunction(grid: PositionGrid, psi, delta, hbar):
    """Exact spectral translation psi(x) -> psi(x - delta)."""
    p = grid.momenta(hbar)
    return np.fft.ifft(np.exp(-1j * p * delta / hbar) * np.fft.fft(psi))


def _drive_pairs(state, n_steps, dt, stride, d0, threshold, step, centroids,
                 reset) -> PairedRunResult:
    """Delta and lambda of a batch of fiducial/perturbed pairs run on core.drive.

    step(state, i, t) returns the state after step i; centroids(state) the
    (R, 2) fiducial and perturbed position means.  reset(state, over, sign, d)
    returns the state with each pair in the mask ``over`` put back at
    separation d0 along sign from its separation d (one sign and d per
    masked pair).  A step first resets the pairs the last one left past
    threshold (None: never), so each sample reads the separation before
    any reset.
    """
    n_pairs = len(centroids(state))
    log_growth = np.zeros(n_pairs)
    n_renorm = np.zeros(n_pairs, dtype=int)

    def renormalize(state):
        xf, xp = centroids(state).T
        d = abs(xp - xf)
        over = d > threshold
        if over.any():
            log_growth[over] += np.log(d[over] / d0)
            n_renorm[over] += 1
            state = reset(state, over, np.where(xp[over] >= xf[over], 1.0, -1.0), d[over])
        return state

    def step_pairs(state, i, t):
        if threshold is not None and i > 0:
            state = renormalize(state)
        return step(state, i, t)

    def sample(state, t):
        xf, xp = centroids(state).T
        return np.concatenate([abs(xp - xf), log_growth])

    times, rows, state = drive(state, n_steps, dt, stride, step_pairs, sample)
    if threshold is not None:
        renormalize(state)   # counts a pair that crossed on the last step
    delta, growth = rows[1:, :n_pairs].T, rows[1:, n_pairs:].T   # drop the t = 0 row
    close = delta < MERGE_FLOOR_FACTOR * d0
    # A merged pair has d = 0 and its lambda stays NaN.
    with np.errstate(divide="ignore"):
        lam = np.where(close, np.nan, (growth + np.log(delta / d0)) / times[1:])
    return PairedRunResult(dt * stride * np.arange(1, len(times)),
                           delta, lam, close.any(axis=1), n_renorm)


def paired_run(grid: PositionGrid, pair0, system: SystemSpec, meas: MeasurementSpec,
               increments, dt, delta0, sample_every=1, renorm_threshold=None) -> PairedRunResult:
    """Fiducial/perturbed conditioned pairs from the (2, n) wavefunctions
    pair0, one pair per column (path) of the (n_steps, R) ``increments``.

    The perturbed member of pair0 starts delta0 from the fiducial in <x>:
    well above the <x> noise floor of the grid, and a small fraction of the
    state width.  A renorm_threshold turns on Benettin renormalization: a
    pair separated by more is reset to delta0.  The R pairs are one
    (R, 2, n) batch of a single stepper, and every pair comes out
    bit-identical to running it alone.  k = 0 degenerates to isolated
    evolution of both members (no record).
    """
    psi = np.broadcast_to(pair0, (increments.shape[1],) + pair0.shape).copy()
    stepper = PureStepper(grid, system, meas, dt)
    # The t = 0 centroids; every step leaves those of its new state in stepper.x_mean.
    stepper.x_mean = stepper.mean_x(psi)

    def step(psi, i, t):
        if stepper.k > 0:
            # One increment per pair, shared by its two members.
            return stepper.conditioned(psi, t, increments[i][:, None])[0]
        return stepper.isolated(psi, t)

    def reset(psi, over, sign, d):
        psi[over, 1] = _shift_wavefunction(grid, psi[over, 0], (sign * delta0)[:, None],
                                           system.hbar)
        # Only the replaced rows: a pair's bits must not depend on its batch-mates.
        stepper.x_mean[over, 1] = stepper.mean_x(psi[over, 1])
        return psi

    result = _drive_pairs(psi, increments.shape[0], dt, sample_every, delta0, renorm_threshold,
                          step, lambda psi: stepper.x_mean, reset)
    return replace(result, max_outer_mass=stepper.max_outer_mass)


def classical_paired_run(x0, p0, system: SystemSpec, n_steps, dt, delta0, sample_every=1,
                         renorm_threshold=None) -> PairedRunResult:
    """Newtonian twin of paired_run (the deterministic strong-QCT limit), a batch of one pair."""

    def reset(state, over, sign, d):
        x, p = state
        # Reset full phase-space offset along the current separation.
        x[over, 1] = x[over, 0] + sign * delta0
        p[over, 1] = p[over, 0] + (p[over, 1] - p[over, 0]) * (delta0 / d)
        return state

    state0 = (np.array([[x0, x0 + delta0]], dtype=float), np.array([[p0, p0]], dtype=float))
    return _drive_pairs(state0, n_steps, dt, sample_every, delta0, renorm_threshold,
                        lambda state, i, t: cdyn._leapfrog(*state, system, dt, t),
                        lambda state: state[0], reset)


def ensemble_lyapunov(grid: PositionGrid, pair0, system, meas, n_realizations, n_steps, dt,
                      delta0, master_seed: int, sample_every=1, renorm_threshold=None,
                      workers: int = 1) -> PairedRunResult:
    """Stream-indexed realizations of paired_run as one batch of R pairs.

    Consecutive stream indices run as the rows of one paired_run batch,
    in the batches of noise.map_streams.  Each row is bit-identical to its
    stream run alone, so any worker count produces identical output.
    """

    def run_chunk(streams):
        return paired_run(grid, pair0, system, meas, generate(master_seed, streams, n_steps, dt),
                          dt, delta0, sample_every, renorm_threshold)

    results = map_streams(run_chunk, n_realizations, pair0.nbytes, workers)
    columns = zip(*[(r.delta, r.lam, r.merged, r.renormalizations) for r in results])
    return PairedRunResult(results[0].times, *map(np.concatenate, columns),
                           max(r.max_outer_mass for r in results), len(results))
