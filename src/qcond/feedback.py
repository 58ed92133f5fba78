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

from dataclasses import dataclass

import numpy as np

from .core import FieldValueError, QcondError, SystemSpec, drive, wavefunction_moments
from .cumulant import GaussianBelief, centroid_step
from .qdyn import MeasurementSpec, PureStepper

__all__ = [
    "FeedbackPolicy",
    "ClosedLoopRun",
    "run_closed_loop",
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
            raise FieldValueError("kind", f"names unknown feedback kind {self.kind!r}; "
                                          "known: direct, estimator, none")
        if not self.u_max > 0:   # NaN fails too
            raise FieldValueError("u_max", f"must be positive, got {self.u_max:g}")


def _control_arrays(policies: list, dt):
    """(P,) arrays (rate, gain, u_max); the EMA rate is dt / smoothing_time for direct, else 0."""
    for pol in policies:
        if pol.kind == "direct" and not pol.smoothing_time >= 5.0 * dt:
            raise FieldValueError("smoothing_time", f"must be at least 5*dt = {5.0 * dt:g}, "
                                                    f"got {pol.smoothing_time:g}")
    rate = [dt / pol.smoothing_time if pol.kind == "direct" else 0.0 for pol in policies]
    return (np.array(rate), np.array([pol.gain for pol in policies]),
            np.array([pol.u_max for pol in policies]))


def _control_law(signal, dy, dt, rate, gain, u_max):
    """Controls clip(-gain * signal, +-u_max) after the record increments dy.

    signal holds one value per (path, policy): the EMA of dy/dt in direct
    columns, which this advances in place; the belief momentum in estimator
    columns and 0 in none columns, which rate 0 leaves as they are.
    """
    signal += rate * (dy / dt - signal)
    return np.clip(-gain * signal, -u_max, u_max)


@dataclass(frozen=True)
class ClosedLoopRun:
    """Energy traces of a batch of closed loops (control term excluded).

    For R noise paths and P policies, energy is (R, P, n_samples) and
    final_control, the last control each loop computed, is (R, P).
    max_outer_mass is the largest probability any row held in the outer
    grid buffer after any step.
    """

    times: np.ndarray
    energy: np.ndarray
    final_control: np.ndarray
    max_outer_mass: float


def run_closed_loop(grid, psi0, belief0: GaussianBelief, system: SystemSpec,
                    meas: MeasurementSpec, policies: list, increments, dt,
                    sample_stride=10) -> ClosedLoopRun:
    """Plant-measure-control loops, one batch row per (noise path, policy).

    Every policy drives its own copy of the wavefunction psi0 under each
    column (path) of the (n_steps, R) ``increments``; an estimator policy
    starts its belief at belief0.  Every row is bit-identical to running
    its path and policy alone.  The energy score uses the control-free
    Hamiltonian at each sample time.
    """
    law = _control_arrays(policies, dt)
    # Rows are (path, policy) in row-major order.  The controls u act
    # during the next step (nothing is known at t = 0); the stepper reads
    # them through a view, so writing u in place sets every row's potential.
    rows = (increments.shape[1], len(policies))
    u = np.zeros(rows)
    signal = np.zeros(rows)
    beliefs = {(r, j): belief0 for r in range(rows[0])
               for j, pol in enumerate(policies) if pol.kind == "estimator"}
    psi = np.broadcast_to(psi0, rows + (grid.n_points,)).copy()
    stepper = PureStepper(grid, system, meas, dt)
    stepper.control = u[..., None]
    scoring_system = system.with_control(0.0)

    def step(psi, i, t):
        # One increment per path, shared by its policy rows.
        psi, dy = stepper.conditioned(psi, t, increments[i][:, None])
        for (r, j), belief in beliefs.items():
            dw_b = meas.innovation(dy[r, j], belief.x_mean, dt)
            # Begun at (i + 1) * dt - dt, which can differ from t = i * dt in the last bit.
            belief = centroid_step(belief, system.with_control(u[r, j]), meas, dt, dw_b,
                                   (i + 1) * dt - dt)
            if belief.c_xx > (grid.x_max - grid.x_min)**2:
                raise FilterDivergenceError(
                    f"belief position variance {belief.c_xx:.3e} exceeds grid scale")
            beliefs[r, j] = belief
            signal[r, j] = belief.p_mean
        u[...] = _control_law(signal, dy, dt, *law)
        return psi

    def sample(psi, t):
        return wavefunction_moments(grid, psi, system.hbar, scoring_system, t).energy

    _, energy, _ = drive(psi, increments.shape[0], dt, sample_stride, step, sample)
    # Drop drive's t = 0 row; one C-contiguous row of samples per (path, policy).
    energy = np.ascontiguousarray(np.moveaxis(energy[1:], 0, -1))
    times = dt * sample_stride * (1 + np.arange(energy.shape[-1]))
    return ClosedLoopRun(times, energy, u, stepper.max_outer_mass)


def paired_gap(hot: np.ndarray, cold: np.ndarray):
    """(mean gap, standard error) of paired steady-state energy differences.

    hot and cold are two policies' steady energies, one value per realization.
    """
    d = hot - cold
    return float(d.mean()), float(d.std(ddof=1) / np.sqrt(d.size))
