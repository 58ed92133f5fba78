"""Quantum evolution: isolated, unconditioned-open, and measurement-conditioned.

The operational state is the position-representation density matrix.  A
continuous ideal position measurement of strength k contributes, in Ito
form,

    d rho = -(i/hbar) [H, rho] dt
            - k [x, [x, rho]] dt                     (backaction diffusion)
            + sqrt(2k) ({x - <x>, rho}) dW           (innovation)

together with the record increment dy = <x> dt + dW / sqrt(8k).  In the
phase-space picture the double commutator is exactly the momentum
diffusion D_BA * d^2/dp^2 with D_BA = hbar^2 k, and the innovation term
is sqrt(8k) (x - <x>) W dW.

Integration scheme
------------------
Unitary part: second-order symmetric split-operator (potential half
step, spectral kinetic full step, potential half step), which is exactly
unitary on the grid.  Measurement part: one multiplicative update per
step,

    rho  <-  M rho M / Tr,   M = exp(sqrt(2k)(x - <x>) dW - 2k (x - <x>)^2 dt)

which agrees with the Euler-Maruyama step for the equation above through
O(dt) with the same driving noise, while preserving positivity and pure-
state purity exactly for any dt (M is a positive multiplier, so M rho M
is a congruence).  The naive additive Euler step fails the per-unit-time
purity budget by many orders of magnitude at practical dt, because it
truncates the pathwise dW^2 terms; the exponential form keeps them.
Averaging M rho M over dW reproduces the unconditional damping
exp(-k (x1-x2)^2 dt) identically, so conditioned-minus-averaged
comparisons are free of scheme mismatch.

Both the density-matrix stepper and a pure-state (wavefunction) stepper
are provided.  They realize the same measurement map, so a pure initial
state evolved either way gives identical trajectories up to roundoff;
the wavefunction path is the cheap one for large conditioned ensembles.

The half phase of every step is a static profile times
exp(c x), with one c per batch row.  The drive A cos(wt) x and the
control -u x are the only time-dependent terms of the potential and are
linear in x, so the half phase is the cached exp(-i V0 dt / 2hbar) times
exp(c x) with c = -i dt/2hbar (A cos(wt) - u).  On the uniform grid
exp(c x_j) is geometric in j and comes from two tables of about sqrt(n)
exponentials per row.  M is formed directly at the offsets x - <x>, so
its exponent peaks at dW^2 / 4dt and cannot overflow.  The wavefunction
step normalizes once, after the unitary.  The one |psi|^2 it forms there
gives the norm, the outer-buffer mass of the support check and the <x>
of the new state, which the caller passes back into the next step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    QcondError,
    QuantumState,
    SupportEscapeError,
    SUPPORT_TOLERANCE,
    drive,
    wavefunction_moments,
    quantum_moments,
)
from .noise import stack_increments

__all__ = [
    "MeasurementSpec",
    "MeasurementRecord",
    "DensityStepper",
    "PureStepper",
    "filter_with_record",
    "run_conditioned",
    "run_isolated",
    "ConditionedTrajectory",
]


class MeasurementError(QcondError):
    """Measurement/record bookkeeping misuse (e.g. record at k = 0)."""


@dataclass(frozen=True)
class MeasurementSpec:
    """Continuous position measurement of strength k (1/(length^2 time)).

    Owns the record law shared by the quantum state, the particle filter
    and the Gaussian belief: dy = <x> dt + dW / sqrt(8k), its inverse, and
    the multiplicative update it drives.  The backaction momentum-diffusion
    coefficient is derived, never stored: D_BA = hbar^2 k.
    """

    strength: float
    sqrt8k: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.strength < np.inf:   # NaN fails too
            raise ValueError(f"measurement strength must be finite and >= 0, got {self.strength}")
        object.__setattr__(self, "sqrt8k", np.sqrt(8.0 * self.strength))

    def backaction_diffusion(self, hbar: float) -> float:
        return hbar**2 * self.strength

    def _require_record(self):
        if self.strength == 0.0:
            raise MeasurementError("a k = 0 measurement has no record; step isolated instead")

    def record(self, x_mean, dw, dt):
        """Record increment dy = <x> dt + dW / sqrt(8k)."""
        self._require_record()
        return x_mean * dt + dw / self.sqrt8k

    def innovation(self, dy, x_mean, dt):
        """Innovation dW = sqrt(8k) (dy - <x> dt), the inverse of record()."""
        self._require_record()
        return self.sqrt8k * (dy - x_mean * dt)

    def multiplier(self, u, dw, dt):
        """exp(sqrt(2k) u dW - 2k u^2 dt) at offsets u = x - <x> from the mean."""
        # sqrt(2k) = sqrt(8k) / 2 exactly: scaling by 4 and by 1/2 is exact.
        return np.exp(0.5 * self.sqrt8k * u * dw - 2.0 * self.strength * u**2 * dt)


@dataclass(frozen=True)
class MeasurementRecord:
    """Record increments dy_n = <x>_n dt + dW_n / sqrt(8k) (units length*time), (R, n_steps)."""

    dt: float
    increments: np.ndarray


# ---------------------------------------------------------------------------
# Steppers


def _check_support(mass_outside: float, t: float):
    if not mass_outside <= SUPPORT_TOLERANCE:   # a NaN state fails too
        if not np.isfinite(mass_outside):
            raise SupportEscapeError(f"state is not finite at t={t:.6g}; look for a "
                                     "non-finite noise increment or record entry")
        raise SupportEscapeError(
            f"probability {mass_outside:.3e} in outer grid buffer at t={t:.6g} "
            f"(tolerance {SUPPORT_TOLERANCE:g}); enlarge the grid"
        )


def _phase_product(w: np.ndarray, rho: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = W * rho elementwise, in the operand order of the reference outputs."""
    # FMA rounds w*rho and rho*w apart; numpy's temp elision puts w first in rho * W from 256 KiB.
    if rho.nbytes >= 256 * 1024:
        return np.multiply(w, rho, out=out)
    return np.multiply(rho, w, out=out)


class _Stepper:
    """What both steppers hold for one (grid, system, measurement, dt).

    A negative dt runs isolated evolution backwards in time: the step
    begun at t + dt undoes, to roundoff, the forward step begun at t.
    """

    def __init__(self, grid, system, meas: MeasurementSpec = None, dt=1e-3):
        self.grid = grid
        self.system = system
        self.dt = float(dt)
        self.x = grid.x
        p = grid.momenta(system.hbar)
        self.kinetic_phase = np.exp(-1j * p**2 * self.dt / (2.0 * system.mass * system.hbar))
        # Half-step phase of the static potential; drive and control are linear
        # in x and enter per step through _linear_factor.
        c0, c1, c2, c3, c4 = system.potential_coeffs
        x = self.x
        v_static = c0 + x * (c1 + x * (c2 + x * (c3 + x * c4)))
        self.static_phase = np.exp(-0.5j * v_static * self.dt / system.hbar)
        # _linear_factor's two tables: x_j = x[a m] + dx b for j = a m + b, with
        # m ~ sqrt(n) a power of two, so it divides the power-of-two n.
        self._table_m = 1 << (grid.n_points.bit_length() // 2)
        self._table_x = np.concatenate([x[::self._table_m], grid.dx * np.arange(self._table_m)])
        self.meas = MeasurementSpec(0.0) if meas is None else meas
        self.k = self.meas.strength
        # Feedback loops override this per step; the value enters the
        # potential as the -control * x term.
        self.control = system.control_offset

    def _linear_factor(self, c) -> np.ndarray:
        """exp(c x) on the grid for a scalar c or a (..., 1) column of them.

        On the uniform grid exp(c x_j) is geometric in j, so it is the outer
        product of exp(c x[a m]) and exp(c dx b): 2 sqrt(n) exponentials per
        row instead of n.
        """
        table = np.exp(c * self._table_x)
        q = self.grid.n_points // self._table_m
        return (table[..., :q, None] * table[..., None, q:]).reshape(table.shape[:-1] + (-1,))

    def half_potential_phase(self, t_mid: float) -> np.ndarray:
        """exp(-i V(x, t_mid) dt / 2 hbar) under the current control.

        The static phase times _linear_factor(-i dt / 2 hbar (A cos(w t_mid) - u));
        without drive or control it is the static phase itself.
        """
        drive = self.system.drive_amplitude != 0.0
        # A (B, 1) control column gives each row of a batch its own potential.
        controlled = isinstance(self.control, np.ndarray) or self.control != 0.0
        if not (drive or controlled):
            return self.static_phase
        slope = -self.control
        if drive:
            slope = slope + self.system.drive_amplitude * np.cos(self.system.drive_frequency * t_mid)
        return self.static_phase * self._linear_factor(-0.5j * self.dt / self.system.hbar * slope)


class DensityStepper(_Stepper):
    """Evolves a density matrix; owns no state besides precomputed phases and damping.

    The congruence form of the measurement update keeps the state
    positive for any dt, so no eigenvalue repair is needed.
    """

    def __init__(self, grid, system, meas: MeasurementSpec = None, dt=1e-3):
        super().__init__(grid, system, meas, dt)
        # Phase matrix of a static potential, valid for the control _phase_key.
        self._phase_key = None
        self._phase = None
        self.outer_index = np.flatnonzero(grid.outer_buffer_mask)

    @cached_property
    def _decoherence(self) -> np.ndarray:
        """Backaction damping exp(-k (x1 - x2)^2 dt) of one unconditional step."""
        x = self.x
        return np.exp(-self.k * (x[:, None] - x[None, :]) ** 2 * self.dt)

    # -- elementary pieces ---------------------------------------------------

    def _phase_matrix(self, t: float) -> np.ndarray:
        """W = pv pv^*, the half-step potential phase acting on both indices of rho.

        Without a drive and with a scalar control the potential is static,
        so W is built once per control and reused.
        """
        static = self.system.drive_amplitude == 0.0 and not isinstance(self.control, np.ndarray)
        if static and self._phase_key == self.control:
            return self._phase
        pv = self.half_potential_phase(t + 0.5 * self.dt)
        w = np.outer(pv, pv.conj())
        if static:
            self._phase_key, self._phase = self.control, w
        return w

    def _unitary(self, rho: np.ndarray, t: float) -> np.ndarray:
        """One symmetric split-operator step of U rho U^dagger.

        Every pass, FFTs included, runs in place in the one array returned,
        so a step takes no fresh memory beyond the new state.
        """
        w = self._phase_matrix(t)
        a = _phase_product(w, rho, np.empty_like(w))
        # U along axis 0, conj(U) along axis 1 (i.e. rho -> U rho U^dagger).
        np.fft.fft(a, axis=0, out=a)
        np.multiply(self.kinetic_phase[:, None], a, out=a)
        np.fft.ifft(a, axis=0, out=a)
        np.fft.ifft(a, axis=1, out=a)
        np.multiply(self.kinetic_phase.conj()[None, :], a, out=a)
        np.fft.fft(a, axis=1, out=a)
        return _phase_product(w, a, a)

    def _renormalize(self, rho: np.ndarray) -> np.ndarray:
        # Divides in place: every caller passes an array it has just made.
        rho /= np.sum(rho.diagonal().real) * self.grid.dx
        return rho

    def _outer_mass(self, rho: np.ndarray) -> float:
        """Probability in the outer grid buffer."""
        return float(np.sum(rho.diagonal().real.take(self.outer_index)) * self.grid.dx)

    # -- public steps ----------------------------------------------------------

    def isolated(self, state: QuantumState, t=0.0) -> QuantumState:
        rho = self._unitary(state.rho, t)
        _check_support(self._outer_mass(rho), t)
        return QuantumState(self.grid, rho, state.hbar)

    def unconditional(self, state: QuantumState, t=0.0) -> QuantumState:
        """Linear open-system step: backaction decoherence, no conditioning."""
        rho = state.rho * self._decoherence
        rho = self._unitary(rho, t)
        rho = self._renormalize(rho)
        _check_support(self._outer_mass(rho), t)
        return QuantumState(self.grid, rho, state.hbar)

    def conditioned(self, state: QuantumState, t: float, dw: float):
        """One measurement-conditioned step; returns (state', dy)."""
        dens = state.rho.diagonal().real
        x_mean = float(np.sum(self.x * dens) / np.sum(dens))
        dy = self.meas.record(x_mean, dw, self.dt)
        m = self.meas.multiplier(self.x - x_mean, dw, self.dt)
        rho = state.rho * np.outer(m, m)
        rho = self._renormalize(rho)
        rho = self._unitary(rho, t)
        _check_support(self._outer_mass(rho), t)
        return QuantumState(self.grid, rho, state.hbar), dy


class PureStepper(_Stepper):
    """Wavefunction twin of DensityStepper for pure-state trajectories.

    Ideal (efficiency-one) measurement keeps pure states pure, and the
    multiplicative measurement map used here acts identically on
    |psi><psi| and on psi, so this path reproduces the density stepper
    to roundoff while costing O(n) instead of O(n^2) per step.

    A conditioned step multiplies by the measurement multiplier at the
    offsets x - <x>, runs the split-operator unitary with the factored half
    phase, and normalizes after the unitary.  One |psi|^2 of the new state
    gives its norm, the outer-buffer mass of the support check and its
    <x>, which the step leaves in ``x_mean`` for the caller to pass back
    into the next step.

    psi may be a batch of shape (..., n).  dW is a scalar (one increment
    for every row) or an array that broadcasts against the batch shape
    psi.shape[:-1], one increment per row; ``control`` is a scalar or an
    array broadcasting against psi, e.g. a (B, 1) column of per-row
    values.  Each row comes out bit-identical to stepping it alone.
    """

    def __init__(self, grid, system, meas: MeasurementSpec = None, dt=1e-3):
        super().__init__(grid, system, meas, dt)
        # vecdot(_weights, |psi|^2) gives each row's norm, first moment and outer-buffer mass.
        self._weights = np.stack([np.ones_like(self.x), self.x,
                                  grid.outer_buffer_mask.astype(float)])
        # <x> of every row of the state the last step returned (None before any step).
        self.x_mean = None
        # Largest outer-buffer mass of any row after any step so far.
        self.max_outer_mass = 0.0

    def _unitary(self, psi: np.ndarray, t: float) -> np.ndarray:
        pv = self.half_potential_phase(t + 0.5 * self.dt)
        phi = np.fft.fft(pv * psi)
        np.multiply(self.kinetic_phase, phi, out=phi)
        psi = np.fft.ifft(phi)
        return np.multiply(pv, psi, out=psi)

    def _density_pass(self, psi: np.ndarray, t: float):
        """Norm of every row of psi; sets x_mean, checks and records the outer-buffer mass."""
        moments = np.vecdot(self._weights, (np.abs(psi) ** 2)[..., None, :])
        norm = moments[..., 0]
        worst = float((moments[..., 2] / norm).max())
        _check_support(worst, t)
        self.max_outer_mass = max(self.max_outer_mass, worst)
        self.x_mean = moments[..., 1] / norm
        return norm

    def mean_x(self, psi: np.ndarray):
        dens = np.abs(psi) ** 2
        return (self.x * dens).sum(-1) / dens.sum(-1)

    def isolated(self, psi: np.ndarray, t=0.0) -> np.ndarray:
        psi = self._unitary(psi, t)
        self._density_pass(psi, t)
        return psi

    def conditioned(self, psi: np.ndarray, t: float, dw, x_mean=None):
        """One conditioned step of every row; returns (psi', dy per row).

        x_mean is ``mean_x(psi)``, None to compute it here; after a step
        ``self.x_mean`` holds it for psi'.
        """
        if x_mean is None:
            x_mean = self.mean_x(psi)
        dy = self.meas.record(x_mean, dw, self.dt)
        u = self.x - x_mean[..., None]
        psi = self._unitary(psi * self.meas.multiplier(u, np.asarray(dw)[..., None], self.dt), t)
        scale = np.sqrt(1.0 / (self._density_pass(psi, t) * self.grid.dx))
        return np.multiply(psi, scale[..., None], out=psi), dy


# ---------------------------------------------------------------------------
# Trajectories


@dataclass(frozen=True)
class ConditionedTrajectory:
    """Sampled moments of R trajectories plus their measurement record.

    moments is a C-contiguous (R, n_samples, 7), one row per entry of times,
    in MomentSet field order: x_mean, p_mean, c_xx, c_xp, c_pp, purity (the
    effective sample size for a classical ensemble) and energy.  An isolated
    run is a batch of one.  max_outer_mass is the largest probability any
    wavefunction row held in the outer grid buffer after any step.  An
    isolated density run also gives the largest |trace - 1| and hermiticity
    defect over its samples.
    """

    times: np.ndarray
    moments: np.ndarray
    record: MeasurementRecord = None
    max_outer_mass: float = None
    max_trace_error: float = None
    max_hermiticity_defect: float = None


def _run_measured(grid, psi0, system, meas, dt, increments, sample_every, innovation):
    """Conditioned trajectories of one batch row per column of the (n_steps, R)
    increments; innovation(increments[i], x_mean) gives step i's dW from the
    rows' current <x>."""
    n_steps, n_rows = increments.shape
    stepper = PureStepper(grid, system, meas, dt)
    psi = np.broadcast_to(psi0, (n_rows, grid.n_points)).copy()
    dys = np.empty((n_rows, n_steps))

    def step(psi, i, t):
        x_mean = stepper.x_mean
        if x_mean is None:
            x_mean = stepper.mean_x(psi)
        psi, dys[:, i] = stepper.conditioned(psi, t, innovation(increments[i], x_mean), x_mean)
        return psi

    def sample(psi, t):   # one moments call per sample, looked up then (span tracing rebinds it)
        return wavefunction_moments(grid, psi, system.hbar, system, t).stack()

    times, rows, _ = drive(psi, n_steps, dt, sample_every, step, sample)
    # C-contiguous (R, n_samples, 7): a strided view reorders the sums of a mean over R.
    return ConditionedTrajectory(times, np.ascontiguousarray(rows.swapaxes(0, 1)),
                                 MeasurementRecord(dt, dys), stepper.max_outer_mass)


def run_conditioned(grid, psi0, system, meas, noise: list,
                    sample_every=1) -> ConditionedTrajectory:
    """Conditioned trajectories from the wavefunction psi0, one batch row per
    path in the list ``noise``; each row is bit-identical to its path run alone."""
    return _run_measured(grid, psi0, system, meas, noise[0].dt, stack_increments(noise),
                         sample_every, lambda dw, x_mean: dw)


def run_isolated(state0: QuantumState, system, dt, n_steps,
                 sample_every=1) -> ConditionedTrajectory:
    """Unitary evolution of a density matrix, no measurement: a batch of one."""
    stepper = DensityStepper(state0.grid, system, None, dt)
    defects = []

    def sample(state, t):
        defects.append((abs(state.trace() - 1.0), state.hermiticity_defect()))
        return quantum_moments(state, system, t).stack()

    times, rows, _ = drive(state0, n_steps, dt, sample_every,
                           lambda state, i, t: stepper.isolated(state, t), sample)
    trace_error, hermiticity = np.max(defects, axis=0).tolist()
    return ConditionedTrajectory(times, rows[None], max_trace_error=trace_error,
                                 max_hermiticity_defect=hermiticity)


def filter_with_record(grid, psi0, system, meas, record: MeasurementRecord,
                       sample_every=1) -> ConditionedTrajectory:
    """Re-integrate the conditioned evolution of psi0 from a known (R, n_steps) record.

    The innovation is reconstructed step by step from each row's own
    running mean, dW = sqrt(8k)(dy - <x> dt), exactly inverting the
    record generation arithmetic; fed its own record from the same
    initial state this reproduces the generating trajectories.
    """
    return _run_measured(grid, psi0, system, meas, record.dt, record.increments.T, sample_every,
                         lambda dy, x_mean: meas.innovation(dy, x_mean, record.dt))
