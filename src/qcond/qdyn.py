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
is sqrt(8k) (x - <x>) W dW; `moyal_rhs` exposes that picture for
cross-representation checks.

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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ClassicalEnsemble,  # noqa: F401  (re-exported convenience)
    MomentSet,
    PositionGrid,
    QcondError,
    QuantumState,
    SupportEscapeError,
    SystemSpec,
    SUPPORT_TOLERANCE,
    wavefunction_moments,
    quantum_moments,
    WignerGrid,
)
from .noise import NoisePath

__all__ = [
    "MeasurementSpec",
    "MeasurementRecord",
    "DensityStepper",
    "PureStepper",
    "isolated_step",
    "unconditional_step",
    "sme_step",
    "filter_with_record",
    "moyal_rhs",
    "evolve_moyal",
    "run_conditioned",
    "run_isolated",
    "ConditionedTrajectory",
    "realizations_per_batch",
]

# Complex state held by one batch of independent realizations.  Stepping
# realizations as rows of one PureStepper batch pays the per-step Python
# overhead once: at n = 256 a conditioned step costs 87 us for one row and
# 14-16 us per row from 8 rows (32 KiB) up.  Larger batches gain nothing:
# a 40-realization n = 512 Lyapunov run on one core took 11-13 s with
# 64 KiB batches and 12-16 s with 128 KiB, 256 KiB or one 640 KiB batch.
BATCH_BYTES = 64 * 1024


class MeasurementError(QcondError):
    """Measurement/record bookkeeping misuse (e.g. record at k = 0)."""


@dataclass(frozen=True)
class MeasurementSpec:
    """Continuous position measurement of strength k (1/(length^2 time)).

    The backaction momentum-diffusion coefficient is derived, never
    stored: D_BA = hbar^2 k.
    """

    strength: float

    def __post_init__(self):
        if self.strength < 0:
            raise ValueError(f"measurement strength must be >= 0, got {self.strength}")

    def backaction_diffusion(self, hbar: float) -> float:
        return hbar**2 * self.strength


@dataclass(frozen=True)
class MeasurementRecord:
    """Record increments dy_n = <x>_n dt + dW_n / sqrt(8k) (units length*time)."""

    dt: float
    increments: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.increments.size


# ---------------------------------------------------------------------------
# Steppers


class _SpectralPieces:
    """Grid vectors shared by both steppers for one (grid, system, dt)."""

    def __init__(self, grid: PositionGrid, system: SystemSpec, dt: float):
        self.grid = grid
        self.system = system
        self.dt = float(dt)
        self.x = grid.x
        self.hbar = system.hbar
        p = grid.momenta(system.hbar)
        self.kinetic_phase = np.exp(-1j * p**2 * self.dt / (2.0 * system.mass * system.hbar))
        # Static part of the potential; drive/control are added per step.
        c0, c1, c2, c3, c4 = system.potential_coeffs
        x = self.x
        self.v_static = c0 + x * (c1 + x * (c2 + x * (c3 + x * c4)))
        self.outer_index = np.flatnonzero(grid.outer_buffer_mask)

    def potential_now(self, t_mid: float, control) -> np.ndarray:
        v = self.v_static
        if self.system.drive_amplitude != 0.0:
            v = v + self.system.drive_amplitude * np.cos(self.system.drive_frequency * t_mid) * self.x
        # A (B, 1) control column gives each row of a batch its own potential.
        if isinstance(control, np.ndarray) or control != 0.0:
            v = v - control * self.x
        return v

    def half_potential_phase(self, t_mid: float, control: float, sign: float) -> np.ndarray:
        return np.exp(sign * -0.5j * self.potential_now(t_mid, control) * self.dt / self.hbar)


def _check_support(mass_outside: float, t: float):
    if mass_outside > SUPPORT_TOLERANCE:
        raise SupportEscapeError(
            f"probability {mass_outside:.3e} in outer grid buffer at t={t:.6g} "
            f"(tolerance {SUPPORT_TOLERANCE:g}); enlarge the grid"
        )


class DensityStepper:
    """Evolves a density matrix; owns no state besides precomputed phases.

    The congruence form of the measurement update keeps the state
    positive for any dt, so no eigenvalue repair is needed.
    """

    def __init__(self, grid, system, meas: MeasurementSpec = None, dt=1e-3):
        self.pieces = _SpectralPieces(grid, system, dt)
        self.grid = grid
        self.system = system
        self.meas = meas
        self.dt = float(dt)
        k = 0.0 if meas is None else meas.strength
        self.sqrt8k = np.sqrt(8.0 * k)
        self.k = k
        # Feedback loops override this per step; the value enters the
        # potential as the -control * x term.
        self.control = system.control_offset

    # -- elementary pieces ---------------------------------------------------

    def _unitary(self, rho: np.ndarray, t: float, sign=1.0) -> np.ndarray:
        """One symmetric split-operator step of U rho U^dagger."""
        pieces = self.pieces
        t_mid = t + 0.5 * self.dt
        pv = pieces.half_potential_phase(t_mid, self.control, sign)
        pt = pieces.kinetic_phase if sign > 0 else pieces.kinetic_phase.conj()

        rho = rho * np.outer(pv, pv.conj())
        # U along axis 0, conj(U) along axis 1 (i.e. rho -> U rho U^dagger).
        rho = np.fft.ifft(pt[:, None] * np.fft.fft(rho, axis=0), axis=0)
        rho = np.fft.fft(pt.conj()[None, :] * np.fft.ifft(rho, axis=1), axis=1)
        rho = rho * np.outer(pv, pv.conj())
        return rho

    def _renormalize(self, rho: np.ndarray) -> np.ndarray:
        tr = np.sum(rho.diagonal().real) * self.grid.dx
        return rho / tr

    def mean_x(self, state: QuantumState) -> float:
        dens = state.rho.diagonal().real
        return float(np.sum(self.pieces.x * dens) / np.sum(dens))

    # -- public steps ----------------------------------------------------------

    def isolated(self, state: QuantumState, t=0.0) -> QuantumState:
        rho = self._unitary(state.rho, t)
        out = QuantumState(self.grid, rho, state.hbar)
        _check_support(out.outer_support_mass(), t)
        return out

    def isolated_reversed(self, state: QuantumState, t=0.0) -> QuantumState:
        """Step under the sign-flipped Hamiltonian (time reversal check)."""
        rho = self._unitary(state.rho, t, sign=-1.0)
        return QuantumState(self.grid, rho, state.hbar)

    def unconditional(self, state: QuantumState, t=0.0) -> QuantumState:
        """Linear open-system step: backaction decoherence, no conditioning."""
        x = self.pieces.x
        damp = np.exp(-self.k * (x[:, None] - x[None, :]) ** 2 * self.dt)
        rho = state.rho * damp
        rho = self._unitary(rho, t)
        rho = self._renormalize(rho)
        out = QuantumState(self.grid, rho, state.hbar)
        _check_support(out.outer_support_mass(), t)
        return out

    def conditioned(self, state: QuantumState, t: float, dw: float, x_mean=None):
        """One measurement-conditioned step; returns (state', dy).

        x_mean, if given, is ``mean_x(state)`` already computed by the caller.
        """
        if self.k == 0.0:
            raise MeasurementError(
                "conditioned step with k = 0 has no record; use isolated()"
            )
        x = self.pieces.x
        if x_mean is None:
            x_mean = self.mean_x(state)
        dy = x_mean * self.dt + dw / self.sqrt8k

        u = x - x_mean
        m = np.exp(np.sqrt(2.0 * self.k) * u * dw - 2.0 * self.k * u**2 * self.dt)
        rho = state.rho * np.outer(m, m)
        rho = self._renormalize(rho)
        rho = self._unitary(rho, t)
        out = QuantumState(self.grid, rho, state.hbar)
        _check_support(out.outer_support_mass(), t)
        return out, dy


class PureStepper:
    """Wavefunction twin of DensityStepper for pure-state trajectories.

    Ideal (efficiency-one) measurement keeps pure states pure, and the
    multiplicative measurement map used here acts identically on
    |psi><psi| and on psi, so this path reproduces the density stepper
    exactly while costing O(n) instead of O(n^2) per step.

    psi may be a batch of shape (..., n).  dW is a scalar (one increment
    for every row) or an array that broadcasts against the batch shape
    psi.shape[:-1], one increment per row; ``control`` is a scalar or an
    array broadcasting against psi, e.g. a (B, 1) column of per-row
    values.  Each row comes out bit-identical to stepping it alone.
    """

    def __init__(self, grid, system, meas: MeasurementSpec = None, dt=1e-3):
        self.pieces = _SpectralPieces(grid, system, dt)
        self.grid = grid
        self.system = system
        self.meas = meas
        self.dt = float(dt)
        k = 0.0 if meas is None else meas.strength
        self.k = k
        self.sqrt8k = np.sqrt(8.0 * k)
        self.control = system.control_offset

    def _unitary(self, psi: np.ndarray, t: float, sign=1.0) -> np.ndarray:
        pieces = self.pieces
        t_mid = t + 0.5 * self.dt
        pv = pieces.half_potential_phase(t_mid, self.control, sign)
        pt = pieces.kinetic_phase if sign > 0 else pieces.kinetic_phase.conj()
        psi = pv * psi
        psi = np.fft.ifft(pt * np.fft.fft(psi))
        return pv * psi

    def mean_x(self, psi: np.ndarray):
        dens = np.abs(psi) ** 2
        return (self.pieces.x * dens).sum(-1) / dens.sum(-1)

    def isolated(self, psi: np.ndarray, t=0.0) -> np.ndarray:
        return self._unitary(psi, t)

    def conditioned(self, psi: np.ndarray, t: float, dw, x_mean=None):
        """One conditioned step of every row; returns (psi', dy per row).

        x_mean, if given, is ``mean_x(psi)`` already computed by the caller.
        """
        if self.k == 0.0:
            raise MeasurementError(
                "conditioned step with k = 0 has no record; use isolated()"
            )
        x = self.pieces.x
        if x_mean is None:
            x_mean = self.mean_x(psi)
        dy = x_mean * self.dt + dw / self.sqrt8k
        u = x - x_mean[..., None]
        dw_row = np.asarray(dw)[..., None]
        psi = psi * np.exp(np.sqrt(2.0 * self.k) * u * dw_row - 2.0 * self.k * u**2 * self.dt)
        psi = psi / np.sqrt((np.abs(psi) ** 2).sum(-1, keepdims=True) * self.grid.dx)
        psi = self._unitary(psi, t)
        mass_out = (np.abs(psi.take(self.pieces.outer_index, axis=-1)) ** 2).sum(-1) * self.grid.dx
        _check_support(float(mass_out.max()), t)
        return psi, dy


def realizations_per_batch(rows_per_realization: int, n_points: int) -> int:
    """Realizations of rows_per_realization complex rows of n_points that fit in one batch."""
    return max(1, BATCH_BYTES // (rows_per_realization * n_points * 16))


# ---------------------------------------------------------------------------
# One-shot operations (module-level spec surface)


def isolated_step(state: QuantumState, system: SystemSpec, dt: float, t=0.0) -> QuantumState:
    """Single von Neumann step generated by H = p^2/2m + V(x, t)."""
    return DensityStepper(state.grid, system, None, dt).isolated(state, t)


def unconditional_step(state, system, meas: MeasurementSpec, dt, t=0.0) -> QuantumState:
    """Deterministic open-system step: unitary drift + backaction diffusion."""
    return DensityStepper(state.grid, system, meas, dt).unconditional(state, t)


def sme_step(state, system, meas: MeasurementSpec, dt, dw, t=0.0):
    """Single conditioned step; returns (state', dy)."""
    return DensityStepper(state.grid, system, meas, dt).conditioned(state, t, dw)


# ---------------------------------------------------------------------------
# Trajectories


@dataclass(frozen=True)
class ConditionedTrajectory:
    """Sampled moment series of one trajectory plus its measurement record."""

    times: np.ndarray
    x_mean: np.ndarray
    p_mean: np.ndarray
    c_xx: np.ndarray
    c_xp: np.ndarray
    c_pp: np.ndarray
    purity: np.ndarray
    energy: np.ndarray
    record: MeasurementRecord = None

    def moment_matrix(self) -> np.ndarray:
        """(n_samples, 5) array of [x_mean, p_mean, c_xx, c_xp, c_pp]."""
        return np.stack([self.x_mean, self.p_mean, self.c_xx, self.c_xp, self.c_pp], axis=1)


def _drive(state0, system, meas, dt, n_steps, step, sample_every, t0):
    """The one trajectory loop: step, and sample moments every sample_every steps.

    state0 is a QuantumState (density path) or a wavefunction packaged as
    (grid, psi); the stepper and the moment function follow from it.
    step(stepper, state, i, t) -> (state', dy) advances step i from time t.
    Returns the sampled trajectory (no record) and the dy of every step.
    """
    # The moment functions are looked up when called, so a rebinding of
    # the module attribute (as span tracing does) takes effect here too.
    if isinstance(state0, tuple):
        grid, state = state0
        stepper = PureStepper(grid, system, meas, dt)

        def sample(psi, t):
            return wavefunction_moments(grid, psi, system.hbar, system, t)
    else:
        state = state0
        stepper = DensityStepper(state0.grid, system, meas, dt)

        def sample(qstate, t):
            return quantum_moments(qstate, system, t)

    samples = [sample(state, t0)]
    times = [t0]
    dys = np.empty(n_steps)
    t = t0
    for i in range(n_steps):
        state, dys[i] = step(stepper, state, i, t)
        t = t0 + (i + 1) * dt
        if (i + 1) % sample_every == 0:
            samples.append(sample(state, t))
            times.append(t)
    arr = {key: np.array([getattr(m, key) for m in samples]) for key in
           ("x_mean", "p_mean", "c_xx", "c_xp", "c_pp", "purity", "energy")}
    return ConditionedTrajectory(times=np.asarray(times), **arr), dys


def run_conditioned(state0, system, meas, noise: NoisePath, sample_every=1,
                    t0=0.0) -> ConditionedTrajectory:
    """Integrate the conditioned evolution over a full noise path.

    state0 may be a QuantumState (density path) or a wavefunction array
    packaged as (grid, psi) (wavefunction path).
    """
    traj, dys = _drive(
        state0, system, meas, noise.dt, noise.n_steps,
        lambda stepper, state, i, t: stepper.conditioned(state, t, noise.increments[i]),
        sample_every, t0)
    return replace(traj, record=MeasurementRecord(noise.dt, dys))


def run_isolated(state0, system, dt, n_steps, sample_every=1, t0=0.0) -> ConditionedTrajectory:
    """Unitary evolution of a QuantumState or (grid, psi), no measurement."""
    return _drive(state0, system, None, dt, n_steps,
                  lambda stepper, state, i, t: (stepper.isolated(state, t), 0.0),
                  sample_every, t0)[0]


def filter_with_record(state0, system, meas, record: MeasurementRecord,
                       sample_every=1, t0=0.0) -> ConditionedTrajectory:
    """Re-integrate the conditioned evolution from a known record.

    The innovation is reconstructed step by step from the filter's own
    running mean, dW = sqrt(8k)(dy - <x> dt), exactly inverting the
    record generation arithmetic; fed its own record from the same
    initial state this reproduces the generating trajectory.
    """
    if meas.strength == 0.0:
        raise MeasurementError("a k = 0 record carries no information; nothing to filter")
    dt = record.dt
    sqrt8k = np.sqrt(8.0 * meas.strength)

    def step(stepper, state, i, t):
        x_mean = stepper.mean_x(state)
        dw = sqrt8k * (record.increments[i] - x_mean * dt)
        return stepper.conditioned(state, t, dw, x_mean)

    return _drive(state0, system, meas, dt, record.n_steps, step, sample_every, t0)[0]


# ---------------------------------------------------------------------------
# Phase-space (Wigner) picture


def moyal_rhs(w: WignerGrid, system: SystemSpec, t=0.0) -> np.ndarray:
    """Time derivative of the Wigner function under isolated evolution.

    Classical advection plus the single surviving quantum correction for
    quartic-capped potentials:

        dW/dt = -(p/m) dW/dx + dV/dx dW/dp - (hbar^2/24) d3V/dx3 d3W/dp3

    Derivatives are spectral in both x and p.
    """
    grid = w.grid
    n = grid.n_points
    x = grid.x
    vals = w.values  # indexed [x, p], p ascending

    kx = 2.0 * np.pi * np.fft.fftfreq(n, grid.dx)
    dp = w.dp
    kp = 2.0 * np.pi * np.fft.fftfreq(n, dp)

    d_dx = np.fft.ifft(1j * kx[:, None] * np.fft.fft(vals, axis=0), axis=0).real
    f_p = np.fft.fft(np.fft.ifftshift(vals, axes=1), axis=1)
    d_dp = np.fft.fftshift(np.fft.ifft(1j * kp * f_p, axis=1).real, axes=1)

    p_row = w.p_grid[None, :]
    dvdx = -system.force(x, t)  # dV/dx including drive and control
    rhs = -(p_row / system.mass) * d_dx + dvdx[:, None] * d_dp

    v3 = system.potential_third_derivative(x)
    if np.any(v3 != 0.0) and system.hbar != 0.0:
        d3_dp3 = np.fft.fftshift(
            np.fft.ifft((1j * kp) ** 3 * f_p, axis=1).real, axes=1
        )
        rhs = rhs - (system.hbar**2 / 24.0) * v3[:, None] * d3_dp3
    return rhs


def evolve_moyal(w: WignerGrid, system: SystemSpec, t0: float, t1: float, dt: float) -> WignerGrid:
    """Classical RK4 integration of the truncated phase-space flow (diagnostic)."""
    vals = w.values.copy()
    n_steps = int(round((t1 - t0) / dt))
    t = t0
    for _ in range(n_steps):
        cur = WignerGrid(w.grid, w.p_grid, vals, w.hbar)
        k1 = moyal_rhs(cur, system, t)
        k2 = moyal_rhs(WignerGrid(w.grid, w.p_grid, vals + 0.5 * dt * k1, w.hbar), system, t + 0.5 * dt)
        k3 = moyal_rhs(WignerGrid(w.grid, w.p_grid, vals + 0.5 * dt * k2, w.hbar), system, t + 0.5 * dt)
        k4 = moyal_rhs(WignerGrid(w.grid, w.p_grid, vals + dt * k3, w.hbar), system, t + dt)
        vals = vals + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
    return WignerGrid(w.grid, w.p_grid, vals, w.hbar)
