"""Shared domain types for the measured-particle simulator.

One spatial degree of freedom throughout.  Quantum states are density
matrices on a uniform position grid; classical states are weighted
phase-space particle ensembles.  All operations here are pure functions
over immutable value objects, so everything in this module is safe to
share across worker processes.

Unit conventions: every quantity is carried in consistent (user-chosen)
units; ``hbar`` is an explicit parameter, never assumed to be 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FieldValueError",
    "QcondError",
    "GridResolutionError",
    "SupportEscapeError",
    "DegenerateEnsembleError",
    "SystemSpec",
    "PositionGrid",
    "QuantumState",
    "ClassicalEnsemble",
    "MomentSet",
    "gaussian_state",
    "gaussian_wavefunction",
    "packet_misfit",
    "quantum_moments",
    "wavefunction_moments",
    "ensemble_moments",
    "drive",
]

# Fraction of the grid (each side) treated as the absorbing-risk buffer:
# states carrying more than SUPPORT_TOLERANCE probability out there are
# rejected, since hard-wall wrap-around would corrupt the dynamics.
SUPPORT_BUFFER_FRACTION = 0.10
SUPPORT_TOLERANCE = 1e-6


class QcondError(Exception):
    """Base class for simulator failures."""


class FieldValueError(ValueError):
    """A value-object field out of range; args are (field name, problem)."""

    def __str__(self):
        return " ".join(self.args)


class GridResolutionError(QcondError):
    """State structure too fine (or too wide in momentum) for the grid."""


class SupportEscapeError(QcondError):
    """Probability mass reached the outer buffer of the grid.

    row is the batch index of the worst state when a batch step raised it.
    """

    row = None


class DegenerateEnsembleError(QcondError):
    """Particle ensemble no longer represents a distribution (ESS too low)."""


# ---------------------------------------------------------------------------
# System definition


@dataclass(frozen=True)
class SystemSpec:
    """Mass, polynomial potential, optional sinusoidal drive and control.

    The effective potential used everywhere is

        V(x, t) = sum_n c_n x^n  +  drive_amplitude * x * cos(drive_frequency*t)
                  - control_offset * x

    The polynomial is capped at quartic order: with a quartic cap the
    quantum phase-space correction series terminates exactly (all
    derivatives of V above the fifth vanish), so grid evolution and the
    truncated phase-space form are equivalent rather than approximations
    of each other.

    Parameters
    ----------
    mass : float
        Particle mass, > 0.
    hbar : float
        Reduced Planck constant in the problem's units (>= 0; 0 is only
        meaningful for the classical modules).
    potential_coeffs : tuple of float
        (c0, c1, c2, c3, c4); trailing entries may be omitted.
    drive_amplitude, drive_frequency : float
        Spatially linear sinusoidal drive  drive_amplitude * x * cos(w t).
    control_offset : float
        Time-varying linear control term (force units); set by feedback.
    """

    mass: float
    hbar: float = 1.0
    potential_coeffs: tuple = (0.0,)
    drive_amplitude: float = 0.0
    drive_frequency: float = 0.0
    control_offset: float = 0.0

    def __post_init__(self):
        if not self.mass > 0:
            raise FieldValueError("mass", f"must be positive, got {self.mass}")
        if self.hbar < 0:
            raise FieldValueError("hbar", f"must be nonnegative, got {self.hbar}")
        # + 0.0 stores a -0.0 as 0.0, so no dropped force term below moves a zero's sign.
        coeffs = tuple(float(c) + 0.0 for c in self.potential_coeffs)
        if len(coeffs) > 5:
            raise FieldValueError("potential_coeffs", "capped at quartic order (5 coefficients), "
                                                      f"got degree {len(coeffs) - 1}")
        coeffs = coeffs + (0.0,) * (5 - len(coeffs))
        object.__setattr__(self, "potential_coeffs", coeffs)
        # Horner coefficients (c1, 2 c2, 3 c3, 4 c4) of -F up to the highest
        # nonzero one past c1: at finite x a dropped term adds an exact zero.
        terms = [n * c for n, c in enumerate(coeffs)][1:]
        while len(terms) > 2 and terms[-1] == 0.0:
            terms.pop()
        object.__setattr__(self, "_force_terms", tuple(terms))

    # -- potential and force -------------------------------------------------

    def potential(self, x, t=0.0):
        """V(x, t) including drive and control terms."""
        c0, c1, c2, c3, c4 = self.potential_coeffs
        v = c0 + x * (c1 + x * (c2 + x * (c3 + x * c4)))
        if self.drive_amplitude != 0.0:
            v = v + self.drive_amplitude * x * np.cos(self.drive_frequency * t)
        if self.control_offset != 0.0:
            v = v - self.control_offset * x
        return v

    def force(self, x, t=0.0):
        """F(x, t) = -dV/dx, at the potential's degree."""
        *lower, f = self._force_terms
        for a in reversed(lower):
            f = a + x * f
        f = -f
        if self.drive_amplitude != 0.0:
            f = f - self.drive_amplitude * np.cos(self.drive_frequency * t)
        if self.control_offset != 0.0:
            f = f + self.control_offset
        return f

    def force_gradient(self, x):
        """dF/dx (drive and control are spatially linear, so they drop out)."""
        c0, c1, c2, c3, c4 = self.potential_coeffs
        return -(2.0 * c2 + x * (6.0 * c3 + x * 12.0 * c4))

    def force_curvature(self, x):
        """d2F/dx2."""
        c0, c1, c2, c3, c4 = self.potential_coeffs
        return -(6.0 * c3 + 24.0 * c4 * x)

    def force_third_derivative(self):
        """d3F/dx3, a constant for quartic-capped potentials."""
        return -24.0 * self.potential_coeffs[4]

    def with_control(self, u) -> "SystemSpec":
        """Copy of this spec with the control force set to ``u``."""
        # The fields are validated already: copy them past __init__ and __post_init__.
        spec = object.__new__(type(self))
        spec.__dict__.update(self.__dict__, control_offset=float(u))
        return spec


# ---------------------------------------------------------------------------
# Grids


@dataclass(frozen=True)
class PositionGrid:
    """Uniform position grid with power-of-two length (spectral friendliness)."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        n = self.n_points
        if n < 16 or (n & (n - 1)) != 0:
            raise FieldValueError("n_points", f"must be a power of two >= 16, got {n}")
        if not self.x_max > self.x_min:
            raise FieldValueError("x_max", f"must exceed x_min = {self.x_min:g}, got {self.x_max:g}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def x(self) -> np.ndarray:
        """Grid nodes, endpoint excluded (periodic/spectral convention)."""
        return self.x_min + self.dx * np.arange(self.n_points)

    def momenta(self, hbar) -> np.ndarray:
        """Conjugate momentum values in FFT (wrapped) order."""
        return 2.0 * np.pi * hbar * np.fft.fftfreq(self.n_points, self.dx)

    @property
    def outer_buffer_mask(self) -> np.ndarray:
        """Boolean mask of the outer 10% of nodes on each side."""
        n_buf = max(1, int(round(SUPPORT_BUFFER_FRACTION * self.n_points / 2)))
        mask = np.zeros(self.n_points, dtype=bool)
        mask[:n_buf] = True
        mask[-n_buf:] = True
        return mask


# ---------------------------------------------------------------------------
# Quantum state


@dataclass(frozen=True)
class QuantumState:
    """Density matrix rho(x1, x2) on a position grid (units 1/length)."""

    grid: PositionGrid
    rho: np.ndarray
    hbar: float = 1.0

    def trace(self) -> float:
        return float(np.sum(self.rho.diagonal().real) * self.grid.dx)

    def normalized(self) -> "QuantumState":
        return QuantumState(self.grid, self.rho / self.trace(), self.hbar)

    def purity(self) -> float:
        return float(np.sum(np.abs(self.rho) ** 2) * self.grid.dx**2)

    def hermiticity_defect(self) -> float:
        """max |rho - rho^dagger| relative to the largest element."""
        scale = float(np.max(np.abs(self.rho)))
        if scale == 0.0:
            return 0.0
        return float(np.max(np.abs(self.rho - self.rho.conj().T))) / scale


def gaussian_wavefunction(grid: PositionGrid, x_mean, p_mean, sigma_x, hbar=1.0):
    """Normalised minimum-uncertainty wave packet on the grid."""
    misfit = packet_misfit(grid, x_mean, p_mean, sigma_x, hbar)
    if misfit:
        raise misfit[1]
    x = grid.x
    psi = np.exp(-((x - x_mean) ** 2) / (4.0 * sigma_x**2) + 1j * p_mean * (x - x_mean) / hbar)
    psi = psi.astype(np.complex128)
    norm = np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
    return psi / norm


def packet_misfit(grid: PositionGrid, x_mean, p_mean, sigma_x, hbar=1.0):
    """(field, error) of the first way the Gaussian packet does not fit the
    grid, field being "sigma_x", "x_mean" or "p_mean"; None if it fits."""
    if sigma_x <= 2.0 * grid.dx:
        return "sigma_x", GridResolutionError(
            f"sigma_x={sigma_x:.4g} must exceed 2*dx={2 * grid.dx:.4g}; "
            "refine the grid or widen the state"
        )
    lo, hi = x_mean - 5.0 * sigma_x, x_mean + 5.0 * sigma_x
    if lo < grid.x_min or hi > grid.x_max:
        return "x_mean", SupportEscapeError(
            f"support [{lo:.4g}, {hi:.4g}] (mean +/- 5 sigma) exceeds grid "
            f"[{grid.x_min:.4g}, {grid.x_max:.4g}]"
        )
    p_max = np.pi * hbar / grid.dx
    sigma_p = hbar / (2.0 * sigma_x)
    if abs(p_mean) + 5.0 * sigma_p > p_max:
        return "p_mean", GridResolutionError(
            f"momentum content |p|~{abs(p_mean) + 5 * sigma_p:.4g} exceeds grid "
            f"Nyquist momentum {p_max:.4g}"
        )
    return None


def gaussian_state(grid: PositionGrid, x_mean, p_mean, sigma_x, hbar=1.0) -> QuantumState:
    """Pure Gaussian state: <x>=x_mean, <p>=p_mean, C_xx=sigma_x^2, C_pp=hbar^2/(4 sigma_x^2)."""
    psi = gaussian_wavefunction(grid, x_mean, p_mean, sigma_x, hbar)
    rho = np.outer(psi, psi.conj())
    state = QuantumState(grid, rho, hbar)
    return state.normalized()


# ---------------------------------------------------------------------------
# Classical ensemble


@dataclass(frozen=True)
class ClassicalEnsemble:
    """Weighted phase-space particles representing f(x, p) = sum_i w_i d(x-x_i) d(p-p_i).

    x, p and w share one shape (..., N): a batch of ensembles of N particles
    each, one per row along the last axis.  The arrays are not modified
    once the ensemble is built.
    """

    x: np.ndarray
    p: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        w = np.atleast_1d(np.asarray(self.w, dtype=float))
        if not x.shape == p.shape == w.shape:
            raise ValueError("x, p, w must be arrays of one shape")
        if x.size == 0:
            raise DegenerateEnsembleError("empty ensemble")
        if not np.all(w >= 0):   # a NaN weight fails too
            raise ValueError("weights must be nonnegative numbers")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "w", w)

    @classmethod
    def _from_step(cls, x, p, w):
        """The ensemble of float arrays of one shape that a step has just made,
        built past __init__ and __post_init__: the step made them valid."""
        ens = object.__new__(cls)
        ens.__dict__.update(x=x, p=p, w=w)
        return ens

    @property
    def n_particles(self) -> int:
        return self.x.shape[-1]

    def ess(self):
        """Effective sample size 1 / sum w_i^2 of each row (weights assumed normalised).

        Computed once per ensemble and kept in the instance, out of the fields.
        """
        ess = self.__dict__.get("_ess")
        if ess is None:
            ess = self.__dict__["_ess"] = 1.0 / np.sum(self.w**2, axis=-1)
        return ess


# ---------------------------------------------------------------------------
# Moments


@dataclass(frozen=True)
class MomentSet:
    """First/second symmetrized moments plus purity and mean energy.

    ``purity`` carries Tr(rho^2) for quantum states; for classical
    ensembles the same slot reports the effective sample size instead.
    """

    x_mean: float
    p_mean: float
    c_xx: float
    c_xp: float
    c_pp: float
    purity: float
    energy: float

    def stack(self) -> np.ndarray:
        """The fields in order on a last axis of 7, without astuple's deep copy."""
        return np.stack(list(vars(self).values()), axis=-1)


def _momentum_density(grid: PositionGrid, rho_k: np.ndarray, hbar) -> np.ndarray:
    """Diagonal of rho in the momentum representation (FFT order).

    rho_k is np.fft.fft(rho, axis=0).  np.fft.fft(rho_k.conj(), axis=1) is
    then the complex conjugate of F rho F^dagger and has the same real diagonal.
    """
    b = np.fft.fft(rho_k.conj(), axis=1)
    return b.diagonal().real * grid.dx**2 / (2.0 * np.pi * hbar)


def quantum_moments(state: QuantumState, system: SystemSpec = None, time=0.0) -> MomentSet:
    grid, rho, hbar = state.grid, state.rho, state.hbar
    x, dx = grid.x, grid.dx
    dens = rho.diagonal().real
    norm = float(np.sum(dens) * dx)
    x_mean = float(np.sum(x * dens) * dx / norm)
    x2 = float(np.sum(x**2 * dens) * dx / norm)
    c_xx = x2 - x_mean**2

    p = grid.momenta(hbar)
    dp = 2.0 * np.pi * hbar / (grid.n_points * dx)
    rho_k = np.fft.fft(rho, axis=0)
    pdens = _momentum_density(grid, rho_k, hbar) / norm
    p_mean = float(np.sum(p * pdens) * dp)
    p2 = float(np.sum(p**2 * pdens) * dp)
    c_pp = p2 - p_mean**2

    # <xp + px>/2 = Re Tr(x . (p rho))  with  (p rho) spectral along axis 0.
    prho = np.fft.ifft(p[:, None] * rho_k, axis=0)
    xp_sym = float(np.real(np.sum(x * prho.diagonal()) * dx) / norm)
    c_xp = xp_sym - x_mean * p_mean

    energy = np.nan
    if system is not None:
        v_mean = float(np.sum(system.potential(x, time) * dens) * dx / norm)
        energy = p2 / (2.0 * system.mass) + v_mean
    return MomentSet(x_mean, p_mean, c_xx, c_xp, c_pp, state.purity(), energy)


def wavefunction_moments(grid: PositionGrid, psi, hbar, system: SystemSpec = None, time=0.0) -> MomentSet:
    """MomentSet of the wavefunction psi, or of a batch (..., n) of them.

    Every field has the batch shape psi.shape[:-1] (floats for one state),
    and each row equals the moments of that row alone, bit for bit.
    """
    x, dx = grid.x, grid.dx
    dens = np.abs(psi) ** 2
    norm = dens.sum(-1) * dx
    x_mean = (x * dens).sum(-1) * dx / norm
    c_xx = ((x - x_mean[..., None]) ** 2 * dens).sum(-1) * dx / norm

    p = grid.momenta(hbar)
    phi = np.fft.fft(psi)
    pdens = np.abs(phi) ** 2 * dx**2 / (2.0 * np.pi * hbar)
    dp = 2.0 * np.pi * hbar / (grid.n_points * dx)
    p_mean = (p * pdens).sum(-1) * dp / norm
    p2 = (p**2 * pdens).sum(-1) * dp / norm
    # libm pow, as a Python float square: np.square rounds some values apart.
    c_pp = p2 - np.float_power(p_mean, 2)

    ppsi = np.fft.ifft(p * phi)
    xp_sym = ((psi.conj() * x * ppsi).sum(-1) * dx).real / norm
    c_xp = xp_sym - x_mean * p_mean

    energy = np.full(norm.shape, np.nan)[()]
    if system is not None:
        v_mean = (system.potential(x, time) * dens).sum(-1) * dx / norm
        energy = p2 / (2.0 * system.mass) + v_mean
    return MomentSet(x_mean, p_mean, c_xx, c_xp, c_pp, np.ones(norm.shape)[()], energy)


def ensemble_moments(ens: ClassicalEnsemble, system: SystemSpec = None, time=0.0) -> MomentSet:
    """MomentSet of the ensemble, or of each row of a batch (..., N) of them.

    Every field has the batch shape ens.x.shape[:-1] (NumPy floats for one
    ensemble), and each row equals the moments of that row alone, bit for bit.
    """
    w = ens.w / np.sum(ens.w, axis=-1, keepdims=True)
    # vecdot reduces each row as np.dot does one; (w * x).sum(-1) rounds apart.
    x_mean = np.vecdot(w, ens.x)
    p_mean = np.vecdot(w, ens.p)
    dx = ens.x - x_mean[..., None]
    dp = ens.p - p_mean[..., None]
    c_xx = np.vecdot(w, dx**2)
    c_pp = np.vecdot(w, dp**2)
    c_xp = np.vecdot(w, dx * dp)
    energy = np.full(x_mean.shape, np.nan)[()]
    if system is not None:
        energy = np.vecdot(w, ens.p**2 / (2.0 * system.mass) + system.potential(ens.x, time))
    return MomentSet(x_mean, p_mean, c_xx, c_xp, c_pp, ens.ess(), energy)


def drive(state, n_steps, dt, stride, step, sample):
    """The one sampled-trajectory loop; returns (times, rows, final state).

    step(state, i, t) returns the state after step i, begun at t = i * dt.
    sample(state, t) returns one row of floats, taken at t = 0.0 and after
    every stride-th step at t = (i + 1) * dt; later steps run unsampled.
    """
    times, rows = [0.0], [sample(state, 0.0)]
    for i in range(n_steps):
        state = step(state, i, i * dt)
        if (i + 1) % stride == 0:
            times.append((i + 1) * dt)
            rows.append(sample(state, times[-1]))
    return np.asarray(times), np.array(rows), state
