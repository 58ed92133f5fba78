"""Divergence exponents of conditioned quantum trajectories.

Two trajectories share one noise realization; the perturbed one starts
displaced by delta0 in the position mean.  The divergence is

    Delta(t) = |<x(t)> - <x_fid(t)>|,    lambda(t) = ln(Delta(t)/delta0) / t

(the ratio form differs from the bare logarithm by an additive constant
that dies as 1/t, and makes the isolated-case slope test exact).
Ensemble statistics run one stream index per realization, and chunks of
realizations step together as batch rows, so results are independent of
execution order, chunking and worker count.

Finite delta0 stands in for the vanishing-separation limit; optionally a
Benettin-style renormalization resets the perturbed state to a displaced
copy of the fiducial whenever the separation exceeds a threshold, which
is what makes long-horizon plateaus measurable after the separation
would otherwise saturate at the attractor size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import PositionGrid, SystemSpec, gaussian_wavefunction
from .noise import generate, parallel_map, stack_increments
from .qdyn import MeasurementSpec, PureStepper, realizations_per_batch
from . import cdyn

__all__ = [
    "LyapunovConfig",
    "LyapunovSeries",
    "PairedRunResult",
    "paired_run",
    "classical_paired_run",
    "ensemble_lyapunov",
    "one_over_t_fit",
    "FitResult",
]

MERGE_FLOOR_FACTOR = 1e-14


@dataclass(frozen=True)
class LyapunovConfig:
    """Knobs of one divergence experiment.

    initial_separation is applied as a centroid offset of the perturbed
    initial state.  It must sit well above the <x> noise floor of the
    grid but stay a small fraction of the state width; both are checked
    where the state is known.
    """

    initial_separation: float
    horizon: float
    dt: float
    n_realizations: int = 32
    sample_stride: int = 20
    renormalize: bool = False
    renorm_threshold: float = None
    fit_windows: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.initial_separation > 0:
            raise ValueError("initial_separation must be positive")
        if self.renormalize and self.renorm_threshold is None:
            raise ValueError("renormalize=True requires renorm_threshold")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True)
class PairedRunResult:
    """Divergence series of one pair, or of a batch of pairs.

    delta and lam are (*batch, n_samples) and merged and renormalizations
    have the batch shape: () for one noise path, (R,) for a list of R.
    n_renormalizations is the total number of Benettin resets, a plain int.
    """

    times: np.ndarray
    delta: np.ndarray
    lam: np.ndarray
    merged: bool
    n_renormalizations: int
    renormalizations: np.ndarray    # resets per pair


@dataclass(frozen=True)
class LyapunovSeries:
    """Per-realization exponents plus the ensemble mean and spread bands."""

    times: np.ndarray
    delta: np.ndarray          # (n_realizations, n_samples)
    lam: np.ndarray            # (n_realizations, n_samples)
    lam_mean: np.ndarray
    lam_sd: np.ndarray
    merged_flags: np.ndarray
    config: LyapunovConfig
    renormalizations: np.ndarray    # Benettin resets per realization


def _shift_wavefunction(grid: PositionGrid, psi, delta, hbar):
    """Exact spectral translation psi(x) -> psi(x - delta)."""
    p = grid.momenta(hbar)
    return np.fft.ifft(np.exp(-1j * p * delta / hbar) * np.fft.fft(psi))


def _divergence_loop(cfg: LyapunovConfig, batch: tuple, step, centroids, reset) -> PairedRunResult:
    """Sample Delta and lambda of a batch of fiducial/perturbed pairs, with renormalization.

    step(i, t, x_mean) advances every pair over step i from time t; x_mean
    is the current (*batch, 2) centroids when the loop has read them since
    the last step, else None.  centroids() returns the (fiducial,
    perturbed) position means of every pair as a (*batch, 2) array;
    reset(index, sign, d) puts the perturbed member of pair ``index`` back
    at separation d0 along sign, from its current separation d.
    """
    d0 = cfg.initial_separation
    dt = cfg.dt
    stride = cfg.sample_stride
    n_samples = cfg.n_steps // stride
    times = dt * stride * (1 + np.arange(n_samples))
    delta = np.full(batch + (n_samples,), np.nan)
    lam = np.full(batch + (n_samples,), np.nan)

    log_growth = np.zeros(batch)
    n_renorm = np.zeros(batch, dtype=int)
    merged = np.zeros(batch, dtype=bool)
    known = None
    isample = 0
    for i in range(cfg.n_steps):
        step(i, i * dt, known)
        known = None
        t = (i + 1) * dt
        need_sample = (i + 1) % stride == 0
        if not (cfg.renormalize or need_sample):
            continue
        known = centroids()
        xf, xp = known[..., 0], known[..., 1]
        d = abs(xp - xf)
        if need_sample:
            delta[..., isample] = d
            close = d < MERGE_FLOOR_FACTOR * d0
            merged |= close
            # A merged pair has d = 0 and its lambda stays NaN.
            with np.errstate(divide="ignore"):
                lam[..., isample] = np.where(close, np.nan, (log_growth + np.log(d / d0)) / t)
            isample += 1
        if cfg.renormalize:
            over = d > cfg.renorm_threshold
            if over.any():
                log_growth[over] += np.log(d[over] / d0)
                sign = np.where(xp >= xf, 1.0, -1.0)
                for index in map(tuple, np.argwhere(over)):
                    reset(index, sign[index], d[index])
                n_renorm += over
                known = None
    merged = bool(merged) if merged.ndim == 0 else merged
    return PairedRunResult(times, delta, lam, merged, int(n_renorm.sum()), n_renorm)


def paired_run(state0_params, system: SystemSpec, meas: MeasurementSpec,
               cfg: LyapunovConfig, noise) -> PairedRunResult:
    """Fiducial/perturbed conditioned pairs, one pair per noise path.

    state0_params = (grid, x_mean, p_mean, sigma_x) of the fiducial
    Gaussian; the perturbed twin starts at x_mean + initial_separation.
    noise is one NoisePath or a list of them; the pairs are one (2, n) or
    (R, 2, n) batch of a single stepper, and every pair comes out
    bit-identical to running it alone.  k = 0 degenerates to isolated
    evolution of both members (no record).
    """
    grid, x0, p0, sigma_x = state0_params
    if cfg.initial_separation > sigma_x / 10.0:
        raise ValueError("initial_separation must not exceed sigma_x / 10")
    hbar = system.hbar
    d0 = cfg.initial_separation
    increments = stack_increments(noise)
    batch = increments.shape[1:]
    pair = np.stack([gaussian_wavefunction(grid, x0, p0, sigma_x, hbar),
                     gaussian_wavefunction(grid, x0 + d0, p0, sigma_x, hbar)])
    psi = np.broadcast_to(pair, batch + pair.shape).copy()
    conditioned = meas is not None and meas.strength > 0.0
    stepper = PureStepper(grid, system, meas if conditioned else None, cfg.dt)

    def step(i, t, x_mean):
        nonlocal psi
        if conditioned:
            # One increment per pair, shared by its two members.
            psi, _ = stepper.conditioned(psi, t, increments[i][..., None], x_mean)
        else:
            psi = stepper.isolated(psi, t)

    def reset(index, sign, d):
        psi[index + (1,)] = _shift_wavefunction(grid, psi[index + (0,)], sign * d0, hbar)

    return _divergence_loop(cfg, batch, step, lambda: stepper.mean_x(psi), reset)


def classical_paired_run(x0, p0, system: SystemSpec, cfg: LyapunovConfig) -> PairedRunResult:
    """Newtonian twin of paired_run (the deterministic strong-QCT limit)."""
    d0 = cfg.initial_separation
    x = np.array([x0, x0 + d0], dtype=float)
    p = np.array([p0, p0], dtype=float)

    def step(i, t, _):
        nonlocal x, p
        x, p = cdyn._leapfrog(x, p, system, cfg.dt, t)

    def reset(index, sign, d):
        # Reset full phase-space offset along the current separation.
        x[1] = x[0] + sign * d0
        p[1] = p[0] + (p[1] - p[0]) * (d0 / d)

    return _divergence_loop(cfg, (), step, lambda: x, reset)


def _realization_chunk(item):
    index, (streams, state0_params, system, meas, cfg, master_seed) = item
    noise = [generate(master_seed, k, cfg.n_steps, cfg.dt) for k in streams]
    return index, paired_run(state0_params, system, meas, cfg, noise)


def ensemble_lyapunov(state0_params, system, meas, cfg: LyapunovConfig,
                      master_seed: int, workers: int = 1) -> LyapunovSeries:
    """Stream-indexed realizations of paired_run with mean and spread bands.

    Consecutive stream indices run as the rows of one paired_run batch,
    in chunks of at most ceil(R / workers) streams that fit
    qdyn.realizations_per_batch.  Each row is bit-identical to its
    stream run alone, so any worker count produces identical output.
    """
    n_real = cfg.n_realizations
    if n_real < 2:
        raise ValueError("need at least 2 realizations for ensemble statistics")
    size = min(-(-n_real // max(1, workers)),
               realizations_per_batch(2, state0_params[0].n_points))
    jobs = [(range(start, min(start + size, n_real)), state0_params, system, meas, cfg,
             master_seed) for start in range(0, n_real, size)]
    results = parallel_map(_realization_chunk, jobs, workers)

    times = results[0].times
    delta = np.concatenate([r.delta for r in results])
    lam = np.concatenate([r.lam for r in results])
    merged = np.concatenate([r.merged for r in results])
    ok = ~merged
    lam_ok = lam[ok]
    lam_mean = np.nanmean(lam_ok, axis=0)
    lam_sd = np.nanstd(lam_ok, axis=0, ddof=1)
    renorms = np.concatenate([r.renormalizations for r in results])
    return LyapunovSeries(times, delta, lam, lam_mean, lam_sd, merged, cfg, renorms)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual: float
    n_used: int
    n_dropped: int
    window: tuple


def one_over_t_fit(times, lam, window, drop_floor=0.05) -> FitResult:
    """Least-squares fit of ln|lambda| against ln t over a time window.

    Isolated-system exponents oscillate through zero (the divergence is
    bounded), so samples with |lambda * t| below ``drop_floor`` times the
    window maximum carry no slope information and are dropped; the
    effective window is reported.  Synthetic c/t input returns slope -1
    to machine precision.
    """
    times = np.asarray(times, dtype=float)
    lam = np.asarray(lam, dtype=float)
    t_lo, t_hi = window
    sel = (times >= t_lo) & (times <= t_hi) & np.isfinite(lam)
    if not np.any(sel):
        raise ValueError(f"window {window} contains no valid samples")
    tt = times[sel]
    ll = lam[sel]
    magnitude = np.abs(ll * tt)
    keep = magnitude > drop_floor * np.max(magnitude)
    n_dropped = int(np.sum(~keep))
    tt, ll = tt[keep], ll[keep]
    if tt.size < 3:
        raise ValueError("too few usable samples after dropping degenerate points")
    x = np.log(tt)
    y = np.log(np.abs(ll))
    a = np.vstack([x, np.ones_like(x)]).T
    coef, res, _, _ = np.linalg.lstsq(a, y, rcond=None)
    residual = float(np.sqrt(res[0] / tt.size)) if res.size else 0.0
    return FitResult(float(coef[0]), float(coef[1]), residual,
                     int(tt.size), n_dropped, (float(tt[0]), float(tt[-1])))
