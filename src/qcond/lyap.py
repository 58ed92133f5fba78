"""Divergence exponents of conditioned quantum trajectories.

Two trajectories share one noise realization; the perturbed one starts
displaced by delta0 in the position mean.  The divergence is

    Delta(t) = |<x(t)> - <x_fid(t)>|,    lambda(t) = ln(Delta(t)/delta0) / t

(the ratio form differs from the bare logarithm by an additive constant
that dies as 1/t, and makes the isolated-case slope test exact).
Ensemble statistics run one stream index per realization, so results are
independent of execution order and worker count.

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
from .noise import generate, parallel_map
from .qdyn import MeasurementSpec, PureStepper
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
    times: np.ndarray
    delta: np.ndarray
    lam: np.ndarray
    merged: bool
    n_renormalizations: int = 0


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


def _divergence_loop(cfg: LyapunovConfig, step, centroids, reset) -> PairedRunResult:
    """Sample Delta and lambda of one fiducial/perturbed pair, with renormalization.

    step(i, t) advances both members over step i from time t;
    centroids() returns their (fiducial, perturbed) position means;
    reset(sign, d) puts the perturbed member back at separation d0 along
    sign, from the current separation d.
    """
    d0 = cfg.initial_separation
    dt = cfg.dt
    stride = cfg.sample_stride
    n_samples = cfg.n_steps // stride
    times = dt * stride * (1 + np.arange(n_samples))
    delta = np.full(n_samples, np.nan)
    lam = np.full(n_samples, np.nan)

    log_growth = 0.0
    n_renorm = 0
    merged = False
    isample = 0
    for i in range(cfg.n_steps):
        step(i, i * dt)
        t = (i + 1) * dt
        need_sample = (i + 1) % stride == 0
        if not (cfg.renormalize or need_sample):
            continue
        xf, xp = centroids()
        d = abs(xp - xf)
        if need_sample:
            delta[isample] = d
            if d < MERGE_FLOOR_FACTOR * d0:
                merged = True
            else:
                lam[isample] = (log_growth + np.log(d / d0)) / t
            isample += 1
        if cfg.renormalize and d > cfg.renorm_threshold:
            log_growth += np.log(d / d0)
            reset(1.0 if xp >= xf else -1.0, d)
            n_renorm += 1
    return PairedRunResult(times, delta, lam, merged, n_renorm)


def paired_run(state0_params, system: SystemSpec, meas: MeasurementSpec,
               cfg: LyapunovConfig, noise) -> PairedRunResult:
    """Fiducial/perturbed conditioned pair driven by one noise path.

    state0_params = (grid, x_mean, p_mean, sigma_x) of the fiducial
    Gaussian; the perturbed twin starts at x_mean + initial_separation.
    The pair is one (2, n) batch of a single stepper.  k = 0 degenerates
    to isolated evolution of both members (no record).
    """
    grid, x0, p0, sigma_x = state0_params
    if cfg.initial_separation > sigma_x / 10.0:
        raise ValueError("initial_separation must not exceed sigma_x / 10")
    hbar = system.hbar
    d0 = cfg.initial_separation
    psi = np.stack([gaussian_wavefunction(grid, x0, p0, sigma_x, hbar),
                    gaussian_wavefunction(grid, x0 + d0, p0, sigma_x, hbar)])
    conditioned = meas is not None and meas.strength > 0.0
    stepper = PureStepper(grid, system, meas if conditioned else None, cfg.dt)

    def step(i, t):
        nonlocal psi
        if conditioned:
            psi, _ = stepper.conditioned(psi, t, noise.increments[i])
        else:
            psi = stepper.isolated(psi, t)

    def reset(sign, d):
        psi[1] = _shift_wavefunction(grid, psi[0], sign * d0, hbar)

    return _divergence_loop(cfg, step, lambda: stepper.mean_x(psi), reset)


def classical_paired_run(x0, p0, system: SystemSpec, cfg: LyapunovConfig) -> PairedRunResult:
    """Newtonian twin of paired_run (the deterministic strong-QCT limit)."""
    d0 = cfg.initial_separation
    x = np.array([x0, x0 + d0], dtype=float)
    p = np.array([p0, p0], dtype=float)

    def step(i, t):
        nonlocal x, p
        x, p = cdyn._leapfrog(x, p, system, cfg.dt, t)

    def reset(sign, d):
        # Reset full phase-space offset along the current separation.
        x[1] = x[0] + sign * d0
        p[1] = p[0] + (p[1] - p[0]) * (d0 / d)

    return _divergence_loop(cfg, step, lambda: x, reset)


def _one_realization(item):
    index, (state0_params, system, meas, cfg, master_seed) = item
    noise = generate(master_seed, index, cfg.n_steps, cfg.dt)
    res = paired_run(state0_params, system, meas, cfg, noise)
    return index, res


def ensemble_lyapunov(state0_params, system, meas, cfg: LyapunovConfig,
                      master_seed: int, workers: int = 1) -> LyapunovSeries:
    """Stream-indexed realizations of paired_run with mean and spread bands.

    Result slots are pre-indexed by stream index, so any worker count
    produces identical output.
    """
    if cfg.n_realizations < 2:
        raise ValueError("need at least 2 realizations for ensemble statistics")
    jobs = [(state0_params, system, meas, cfg, master_seed)] * cfg.n_realizations
    results = parallel_map(_one_realization, jobs, workers)

    times = results[0].times
    delta = np.stack([r.delta for r in results])
    lam = np.stack([r.lam for r in results])
    merged = np.array([r.merged for r in results])
    ok = ~merged
    lam_ok = lam[ok]
    lam_mean = np.nanmean(lam_ok, axis=0)
    lam_sd = np.nanstd(lam_ok, axis=0, ddof=1)
    renorms = np.array([r.n_renormalizations for r in results])
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
