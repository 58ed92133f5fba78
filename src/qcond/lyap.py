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

from .core import PositionGrid, SystemSpec, drive, gaussian_wavefunction
from .noise import generate, map_streams
from .qdyn import MeasurementSpec, PureStepper
from . import cdyn

__all__ = [
    "LyapunovConfig",
    "check_separation",
    "check_threshold",
    "PairedRunResult",
    "paired_run",
    "classical_paired_run",
    "ensemble_lyapunov",
]

MERGE_FLOOR_FACTOR = 1e-14


def check_separation(d0, sigma_x=np.inf, name="initial_separation"):
    """Refuse an initial separation d0, called name, not positive or above sigma_x / 10."""
    if not d0 > 0:   # NaN fails too
        raise ValueError(f"{name} must be positive, got {d0:g}")
    if d0 > sigma_x / 10.0:
        raise ValueError(f"{name} = {d0:g} exceeds sigma_x / 10 = {sigma_x / 10.0:g}")


def check_threshold(threshold, d0, names=("renorm_threshold", "initial_separation")):
    """Refuse a renormalization threshold (None: off), named names[0], at or
    below the separation d0, named names[1]: every step would reset every pair."""
    if threshold is not None and not threshold > d0:   # NaN fails too
        raise ValueError(f"{names[0]} = {threshold:g} must exceed {names[1]} = {d0:g}")


@dataclass(frozen=True)
class LyapunovConfig:
    """Knobs of one divergence experiment.

    initial_separation is applied as a centroid offset of the perturbed
    initial state.  It must sit well above the <x> noise floor of the
    grid but stay a small fraction of the state width: check_separation
    caps it at sigma_x / 10 where the state is known.  A renorm_threshold
    turns on Benettin renormalization: a pair separated by more is reset
    to initial_separation.  None leaves it off.
    """

    initial_separation: float
    horizon: float
    dt: float
    n_realizations: int = 32
    sample_stride: int = 20
    renorm_threshold: float = None

    def __post_init__(self):
        check_separation(self.initial_separation)
        check_threshold(self.renorm_threshold, self.initial_separation)

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


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


def _drive_pairs(cfg: LyapunovConfig, state, step, centroids, reset) -> PairedRunResult:
    """Delta and lambda of a batch of fiducial/perturbed pairs run on core.drive.

    step(state, i, t) returns the state after step i; centroids(state) the
    (R, 2) fiducial and perturbed position means.  reset(state, over, sign, d)
    returns the state with each pair in the mask ``over`` put back at
    separation d0 along sign from its separation d (one sign and d per
    masked pair).  A step first resets the pairs the last one left past
    renorm_threshold, so each sample reads the separation before any reset.
    """
    d0 = cfg.initial_separation
    n_pairs = len(centroids(state))
    log_growth = np.zeros(n_pairs)
    n_renorm = np.zeros(n_pairs, dtype=int)

    def renormalize(state):
        xf, xp = centroids(state).T
        d = abs(xp - xf)
        over = d > cfg.renorm_threshold
        if over.any():
            log_growth[over] += np.log(d[over] / d0)
            n_renorm[over] += 1
            state = reset(state, over, np.where(xp[over] >= xf[over], 1.0, -1.0), d[over])
        return state

    def step_pairs(state, i, t):
        if cfg.renorm_threshold is not None and i > 0:
            state = renormalize(state)
        return step(state, i, t)

    def sample(state, t):
        xf, xp = centroids(state).T
        return np.concatenate([abs(xp - xf), log_growth])

    times, rows, state = drive(state, cfg.n_steps, cfg.dt, cfg.sample_stride, step_pairs, sample)
    if cfg.renorm_threshold is not None:
        renormalize(state)   # counts a pair that crossed on the last step
    delta, growth = rows[1:, :n_pairs].T, rows[1:, n_pairs:].T   # drop the t = 0 row
    close = delta < MERGE_FLOOR_FACTOR * d0
    # A merged pair has d = 0 and its lambda stays NaN.
    with np.errstate(divide="ignore"):
        lam = np.where(close, np.nan, (growth + np.log(delta / d0)) / times[1:])
    return PairedRunResult(cfg.dt * cfg.sample_stride * np.arange(1, len(times)),
                           delta, lam, close.any(axis=1), n_renorm)


def paired_run(state0_params, system: SystemSpec, meas: MeasurementSpec,
               cfg: LyapunovConfig, increments) -> PairedRunResult:
    """Fiducial/perturbed conditioned pairs, one pair per column (path) of the
    (cfg.n_steps, R) ``increments``.

    state0_params = (grid, x_mean, p_mean, sigma_x) of the fiducial
    Gaussian; the perturbed twin starts at x_mean + initial_separation.
    The R pairs are one (R, 2, n) batch of a single stepper, and every
    pair comes out bit-identical to running it alone.  k = 0 degenerates
    to isolated evolution of both members (no record).
    """
    grid, x0, p0, sigma_x = state0_params
    hbar, d0 = system.hbar, cfg.initial_separation
    check_separation(d0, sigma_x)
    pair = np.stack([gaussian_wavefunction(grid, x0, p0, sigma_x, hbar),
                     gaussian_wavefunction(grid, x0 + d0, p0, sigma_x, hbar)])
    psi = np.broadcast_to(pair, (increments.shape[1],) + pair.shape).copy()
    stepper = PureStepper(grid, system, meas, cfg.dt)
    # The t = 0 centroids; every step leaves those of its new state in stepper.x_mean.
    stepper.x_mean = stepper.mean_x(psi)

    def step(psi, i, t):
        if stepper.k > 0:
            # One increment per pair, shared by its two members.
            return stepper.conditioned(psi, t, increments[i][:, None], stepper.x_mean)[0]
        return stepper.isolated(psi, t)

    def reset(psi, over, sign, d):
        psi[over, 1] = _shift_wavefunction(grid, psi[over, 0], (sign * d0)[:, None], hbar)
        # Only the replaced rows: a pair's bits must not depend on its batch-mates.
        stepper.x_mean[over, 1] = stepper.mean_x(psi[over, 1])
        return psi

    result = _drive_pairs(cfg, psi, step, lambda psi: stepper.x_mean, reset)
    return replace(result, max_outer_mass=stepper.max_outer_mass)


def classical_paired_run(x0, p0, system: SystemSpec, cfg: LyapunovConfig) -> PairedRunResult:
    """Newtonian twin of paired_run (the deterministic strong-QCT limit), a batch of one pair."""
    d0 = cfg.initial_separation

    def reset(state, over, sign, d):
        x, p = state
        # Reset full phase-space offset along the current separation.
        x[over, 1] = x[over, 0] + sign * d0
        p[over, 1] = p[over, 0] + (p[over, 1] - p[over, 0]) * (d0 / d)
        return state

    state0 = (np.array([[x0, x0 + d0]], dtype=float), np.array([[p0, p0]], dtype=float))
    return _drive_pairs(cfg, state0, lambda state, i, t: cdyn._leapfrog(*state, system, cfg.dt, t),
                        lambda state: state[0], reset)


def ensemble_lyapunov(state0_params, system, meas, cfg: LyapunovConfig,
                      master_seed: int, workers: int = 1) -> PairedRunResult:
    """Stream-indexed realizations of paired_run as one batch of R pairs.

    Consecutive stream indices run as the rows of one paired_run batch,
    in the batches of noise.map_streams.  Each row is bit-identical to its
    stream run alone, so any worker count produces identical output.
    """
    n_real = cfg.n_realizations
    if n_real < 2:
        raise ValueError(f"need at least 2 realizations for ensemble statistics, got {n_real}")

    def run_chunk(streams):
        return paired_run(state0_params, system, meas, cfg,
                          generate(master_seed, streams, cfg.n_steps, cfg.dt))

    results = map_streams(run_chunk, n_real, 2 * state0_params[0].n_points * 16, workers)
    columns = zip(*[(r.delta, r.lam, r.merged, r.renormalizations) for r in results])
    return PairedRunResult(results[0].times, *map(np.concatenate, columns),
                           max(r.max_outer_mass for r in results), len(results))

