"""Closed-loop cooling of the continuously measured particle.

The controller output u enters the plant as the linear potential term
-u * x (a uniform control force), computed from data available through
step n and applied during step n+1 (a digital controller cannot act on
the sample it is still measuring).

Two controllers are provided besides the do-nothing baseline:

* direct: feed back the low-passed photocurrent itself, u = -g * I_s
  with I_s an exponential moving average of dy/dt (time constant tau_c).
  The smoothing lag is what turns a position-proportional force into
  effective damping, at the cost of feeding measurement noise into the
  plant.
* estimator: run the Gaussian belief filter on the record and damp the
  momentum estimate, u = -g * p_belief.

Scores are mean plant energies with the control term excluded, so
policies are compared on what they do to the particle, not on the work
the actuator performs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import PositionGrid, QcondError, SystemSpec, gaussian_wavefunction, wavefunction_moments
from .cumulant import GaussianBelief, centroid_step
from .noise import NoisePath, generate, stack_increments
from .qdyn import MeasurementSpec, PureStepper, realizations_per_batch

__all__ = [
    "FeedbackPolicy",
    "CoolingResult",
    "ClosedLoopRun",
    "direct_control",
    "estimator_control",
    "run_closed_loop",
    "cooling_experiment",
    "paired_gap",
]


class FilterDivergenceError(QcondError):
    """Estimator covariance blew past the physical scale of the problem."""


@dataclass(frozen=True)
class FeedbackPolicy:
    """Control law selector: kind in {none, direct, estimator}."""

    kind: str
    gain: float = 0.0
    smoothing_time: float = 0.0   # direct kind only
    u_max: float = np.inf

    def __post_init__(self):
        if self.kind not in ("none", "direct", "estimator"):
            raise ValueError(f"unknown feedback kind {self.kind!r}")
        if self.u_max <= 0:
            raise ValueError("u_max must be positive")

    def clamp(self, u: float) -> float:
        return float(np.clip(u, -self.u_max, self.u_max))


def _direct_update(policy: FeedbackPolicy, dt):
    """Direct controller as a step function (dy, ...) -> u = clamp(-gain * EMA of dy/dt)."""
    if policy.smoothing_time < 5.0 * dt:
        raise ValueError("smoothing_time must be at least 5*dt")
    alpha = dt / policy.smoothing_time
    smoothed = 0.0

    def update(dy, *_):
        nonlocal smoothed
        smoothed += alpha * (dy / dt - smoothed)
        return policy.clamp(-policy.gain * smoothed)

    return update


def _estimator_update(policy: FeedbackPolicy, system, meas, dt, belief, grid_span):
    """Estimator controller as a step function (dy, u applied over the step, t) -> u."""
    sqrt8k = np.sqrt(8.0 * meas.strength)

    def update(dy, u, t):
        nonlocal belief
        dw_b = sqrt8k * (dy - belief.x_mean * dt)
        belief = centroid_step(belief, system.with_control(u), meas, dt, dw_b, t - dt)
        if belief.c_xx > grid_span**2:
            raise FilterDivergenceError(
                f"belief position variance {belief.c_xx:.3e} exceeds grid scale"
            )
        return estimator_control(belief, policy)

    return update


def direct_control(record_increments, policy: FeedbackPolicy, dt) -> np.ndarray:
    """Offline form of the direct controller: u series for a record tail.

    u_n is computed from increments through n (inclusive); the closed
    loop applies it during step n+1.
    """
    update = _direct_update(policy, dt)
    return np.array([update(dy) for dy in record_increments], dtype=float)


def estimator_control(belief: GaussianBelief, policy: FeedbackPolicy) -> float:
    """Momentum-damping force from the current belief."""
    return policy.clamp(-policy.gain * belief.p_mean)


@dataclass(frozen=True)
class ClosedLoopRun:
    """Energy trace of one closed-loop realization (control term excluded)."""

    times: np.ndarray
    energy: np.ndarray
    final_control: float


def run_closed_loop(state0_params, system: SystemSpec, meas: MeasurementSpec,
                    policies, noise, sample_stride=10,
                    belief0: GaussianBelief = None) -> list:
    """Plant-measure-control loops, one batch row per (noise path, policy).

    state0_params = (grid, x_mean, p_mean, sigma_x).  Every policy drives
    its own copy of that state under each noise path.  With one NoisePath
    this returns one ClosedLoopRun per policy, in order; with a list of
    paths, one such list per path.  Every row is bit-identical to running
    its path and policy alone.  The energy score uses the control-free
    Hamiltonian at each sample time.
    """
    grid, x0, p0, sigma_x = state0_params
    hbar = system.hbar
    increments = stack_increments(noise)
    dt = noise.dt if isinstance(noise, NoisePath) else noise[0].dt
    if belief0 is None:
        belief0 = GaussianBelief(x0, p0, sigma_x**2, 0.0, hbar**2 / (4 * sigma_x**2),
                                 quantum=True, hbar=hbar)
    grid_span = grid.x_max - grid.x_min

    def policy_update(pol):
        if pol.kind == "direct":
            return _direct_update(pol, dt)
        if pol.kind == "estimator":
            return _estimator_update(pol, system, meas, dt, belief0, grid_span)
        return lambda *_: 0.0

    # Rows are (path, policy) in row-major order; updates and u_apply follow them.
    rows = increments.shape[1:] + (len(policies),)
    updates = [policy_update(pol) for _ in range(increments[0].size) for pol in policies]

    psi = np.broadcast_to(gaussian_wavefunction(grid, x0, p0, sigma_x, hbar),
                          rows + (grid.n_points,)).copy()
    stepper = PureStepper(grid, system, meas, dt)
    scoring_system = system.with_control(0.0)

    n_steps = increments.shape[0]
    n_samples = n_steps // sample_stride
    times = dt * sample_stride * (1 + np.arange(n_samples))
    energy = np.empty((len(updates), n_samples))

    u_apply = [0.0] * len(updates)     # one-step actuation delay: nothing known at t=0
    for i in range(n_steps):
        stepper.control = np.array(u_apply).reshape(rows + (1,))
        # One increment per path, shared by its policy rows.
        psi, dy = stepper.conditioned(psi, i * dt, increments[i][..., None])
        t = (i + 1) * dt
        u_apply = [update(dy_row, u, t) for update, dy_row, u in zip(updates, dy.ravel(), u_apply)]
        if (i + 1) % sample_stride == 0:
            energy[:, (i + 1) // sample_stride - 1] = [
                wavefunction_moments(grid, row, hbar, scoring_system, t).energy
                for row in psi.reshape(-1, grid.n_points)]
    runs = [ClosedLoopRun(times, e, u) for e, u in zip(energy, u_apply)]
    if isinstance(noise, NoisePath):
        return runs
    return [runs[j:j + len(policies)] for j in range(0, len(runs), len(policies))]


@dataclass(frozen=True)
class CoolingResult:
    """Ensemble energy statistics for one policy."""

    policy: FeedbackPolicy
    times: np.ndarray
    energy_mean: np.ndarray
    energy_se: np.ndarray
    steady_per_realization: np.ndarray
    steady_mean: float
    steady_se: float
    stream_indices: np.ndarray
    retried_streams: tuple


def _steady_window(n_samples: int) -> slice:
    # Steady-state scoring must exclude at least the first half-horizon.
    return slice(n_samples // 2, None)


def cooling_experiment(state0_params, system, meas, policies: dict,
                       n_realizations: int, horizon: float, dt: float,
                       master_seed: int, sample_stride=10, max_retries=3) -> dict:
    """Common-random-number comparison of feedback policies.

    Every policy sees the same per-realization noise path, so policy
    differences are paired samples.  Consecutive stream indices run as
    one closed-loop batch (qdyn.realizations_per_batch).  A realization
    on which any policy aborts is rerun for all policies under a fresh
    stream index (logged), keeping the pairing intact: an aborted batch
    reruns its streams one at a time, so the accepted and retried
    indices are those of a stream-by-stream loop.
    """
    n_steps = int(round(horizon / dt))
    chunk = realizations_per_batch(len(policies), state0_params[0].n_points)
    runs = {name: [] for name in policies}
    indices = []
    retried = []

    def closed_loops(streams):
        noise = [generate(master_seed, k, n_steps, dt) for k in streams]
        return run_closed_loop(state0_params, system, meas, list(policies.values()),
                               noise, sample_stride)

    def check_budget(index):
        if index - len(indices) > max_retries * max(1, n_realizations):
            raise QcondError("too many aborted closed-loop realizations")

    def accept(index, batch):
        for name, run in zip(policies, batch):
            runs[name].append(run)
        indices.append(index)

    next_index = 0
    while len(indices) < n_realizations:
        # Never more streams than still needed, so the serial order is kept.
        streams = range(next_index, next_index + min(chunk, n_realizations - len(indices)))
        next_index = streams.stop
        check_budget(streams[0])
        try:
            batches = closed_loops(streams)
        except QcondError:
            # Some row aborted: rerun the chunk one stream at a time.
            for index in streams:
                check_budget(index)
                try:
                    (batch,) = closed_loops([index])
                except QcondError as err:
                    warnings.warn(f"realization {index} aborted ({err}); "
                                  "retrying with fresh stream")
                    retried.append(index)
                    continue
                accept(index, batch)
        else:
            for index, batch in zip(streams, batches):
                accept(index, batch)
    accepted = len(indices)

    out = {}
    for name, pol in policies.items():
        energies = np.stack([r.energy for r in runs[name]])
        times = runs[name][0].times
        window = _steady_window(energies.shape[1])
        steady = energies[:, window].mean(axis=1)
        out[name] = CoolingResult(
            policy=pol,
            times=times,
            energy_mean=energies.mean(axis=0),
            energy_se=energies.std(axis=0, ddof=1) / np.sqrt(accepted),
            steady_per_realization=steady,
            steady_mean=float(steady.mean()),
            steady_se=float(steady.std(ddof=1) / np.sqrt(accepted)),
            stream_indices=np.array(indices),
            retried_streams=tuple(retried),
        )
    return out


def paired_gap(hot: CoolingResult, cold: CoolingResult):
    """(mean gap, standard error) of paired steady-state energy differences."""
    d = hot.steady_per_realization - cold.steady_per_realization
    return float(d.mean()), float(d.std(ddof=1) / np.sqrt(d.size))
