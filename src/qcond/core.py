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

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "QcondError",
    "GridResolutionError",
    "SupportEscapeError",
    "PositivityError",
    "DegenerateEnsembleError",
    "SystemSpec",
    "PositionGrid",
    "QuantumState",
    "WignerGrid",
    "ClassicalEnsemble",
    "MomentSet",
    "gaussian_state",
    "gaussian_wavefunction",
    "wavefunction_moments",
    "wigner_transform",
    "wigner_moments",
    "moments",
    "force_moments",
]

# Fraction of the grid (each side) treated as the absorbing-risk buffer:
# states carrying more than SUPPORT_TOLERANCE probability out there are
# rejected, since hard-wall wrap-around would corrupt the dynamics.
SUPPORT_BUFFER_FRACTION = 0.10
SUPPORT_TOLERANCE = 1e-6


class QcondError(Exception):
    """Base class for simulator failures."""


class GridResolutionError(QcondError):
    """State structure too fine (or too wide in momentum) for the grid."""


class SupportEscapeError(QcondError):
    """Probability mass reached the outer buffer of the grid."""


class PositivityError(QcondError):
    """Density matrix lost positivity beyond the numerical floor."""


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
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.hbar < 0:
            raise ValueError(f"hbar must be nonnegative, got {self.hbar}")
        coeffs = tuple(float(c) for c in self.potential_coeffs)
        if len(coeffs) > 5:
            raise ValueError(
                "potential capped at quartic order (5 coefficients), "
                f"got degree {len(coeffs) - 1}"
            )
        coeffs = coeffs + (0.0,) * (5 - len(coeffs))
        object.__setattr__(self, "potential_coeffs", coeffs)

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
        """F(x, t) = -dV/dx."""
        c0, c1, c2, c3, c4 = self.potential_coeffs
        f = -(c1 + x * (2.0 * c2 + x * (3.0 * c3 + x * 4.0 * c4)))
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

    def potential_third_derivative(self, x):
        """d3V/dx3, the only surviving quantum-correction coefficient."""
        c4 = self.potential_coeffs[4]
        c3 = self.potential_coeffs[3]
        return 6.0 * c3 + 24.0 * c4 * x

    def with_control(self, u) -> "SystemSpec":
        """Copy of this spec with the control force set to ``u``."""
        return replace(self, control_offset=float(u))


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
            raise ValueError(f"n_points must be a power of two >= 16, got {n}")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")

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

    def position_density(self) -> np.ndarray:
        return self.rho.diagonal().real.copy()

    def purity(self) -> float:
        return float(np.sum(np.abs(self.rho) ** 2) * self.grid.dx**2)

    def hermiticity_defect(self) -> float:
        """max |rho - rho^dagger| relative to the largest element."""
        scale = float(np.max(np.abs(self.rho)))
        if scale == 0.0:
            return 0.0
        return float(np.max(np.abs(self.rho - self.rho.conj().T))) / scale

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the (dimensionless) trace-1 operator."""
        w = np.linalg.eigvalsh(self.rho * self.grid.dx)
        return float(w[0])

    def outer_support_mass(self) -> float:
        dens = self.position_density()
        return float(np.sum(dens[self.grid.outer_buffer_mask]) * self.grid.dx)

    def validate(self, check_eigenvalues=False):
        """Raise if the state violates its structural invariants."""
        if abs(self.trace() - 1.0) > 1e-9:
            raise PositivityError(f"trace deviates from 1 by {self.trace() - 1.0:.3e}")
        if self.hermiticity_defect() > 1e-12:
            raise PositivityError(
                f"hermiticity defect {self.hermiticity_defect():.3e} exceeds 1e-12"
            )
        if check_eigenvalues:
            lam = self.min_eigenvalue()
            if lam < -1e-8:
                raise PositivityError(f"min eigenvalue {lam:.3e} below -1e-8 floor")


def gaussian_wavefunction(grid: PositionGrid, x_mean, p_mean, sigma_x, hbar=1.0):
    """Normalised minimum-uncertainty wave packet on the grid."""
    _check_gaussian_fits(grid, x_mean, p_mean, sigma_x, hbar)
    x = grid.x
    psi = np.exp(-((x - x_mean) ** 2) / (4.0 * sigma_x**2) + 1j * p_mean * (x - x_mean) / hbar)
    psi = psi.astype(np.complex128)
    norm = np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
    return psi / norm


def _check_gaussian_fits(grid, x_mean, p_mean, sigma_x, hbar):
    if sigma_x <= 2.0 * grid.dx:
        raise GridResolutionError(
            f"sigma_x={sigma_x:.4g} must exceed 2*dx={2 * grid.dx:.4g}; "
            "refine the grid or widen the state"
        )
    lo, hi = x_mean - 5.0 * sigma_x, x_mean + 5.0 * sigma_x
    if lo < grid.x_min or hi > grid.x_max:
        raise SupportEscapeError(
            f"support [{lo:.4g}, {hi:.4g}] (mean +/- 5 sigma) exceeds grid "
            f"[{grid.x_min:.4g}, {grid.x_max:.4g}]"
        )
    p_max = np.pi * hbar / grid.dx
    sigma_p = hbar / (2.0 * sigma_x)
    if abs(p_mean) + 5.0 * sigma_p > p_max:
        raise GridResolutionError(
            f"momentum content |p|~{abs(p_mean) + 5 * sigma_p:.4g} exceeds grid "
            f"Nyquist momentum {p_max:.4g}"
        )


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
    """Weighted phase-space particles representing f(x, p) = sum_i w_i d(x-x_i) d(p-p_i)."""

    x: np.ndarray
    p: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        w = np.atleast_1d(np.asarray(self.w, dtype=float))
        if not (x.shape == p.shape == w.shape) or x.ndim != 1:
            raise ValueError("x, p, w must be equal-length 1-D arrays")
        if x.size == 0:
            raise DegenerateEnsembleError("empty ensemble")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "w", w)

    @property
    def n_particles(self) -> int:
        return self.x.size

    def ess(self) -> float:
        """Effective sample size 1 / sum w_i^2 (weights assumed normalised)."""
        return float(1.0 / np.sum(self.w**2))


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

    def uncertainty_product(self) -> float:
        return self.c_xx * self.c_pp - self.c_xp**2

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.x_mean, self.p_mean, self.c_xx, self.c_xp, self.c_pp], dtype=float
        )


def _momentum_density(grid: PositionGrid, rho: np.ndarray, hbar) -> np.ndarray:
    """Diagonal of rho in the momentum representation (FFT order)."""
    a = np.fft.fft(rho, axis=0)
    b = np.fft.fft(a.conj(), axis=1).conj()
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
    pdens = _momentum_density(grid, rho, hbar) / norm
    p_mean = float(np.sum(p * pdens) * dp)
    p2 = float(np.sum(p**2 * pdens) * dp)
    c_pp = p2 - p_mean**2

    # <xp + px>/2 = Re Tr(x . (p rho))  with  (p rho) spectral along axis 0.
    prho = np.fft.ifft(p[:, None] * np.fft.fft(rho, axis=0), axis=0)
    xp_sym = float(np.real(np.sum(x * prho.diagonal()) * dx) / norm)
    c_xp = xp_sym - x_mean * p_mean

    energy = np.nan
    if system is not None:
        v_mean = float(np.sum(system.potential(x, time) * dens) * dx / norm)
        energy = p2 / (2.0 * system.mass) + v_mean
    return MomentSet(x_mean, p_mean, c_xx, c_xp, c_pp, state.purity(), energy)


def wavefunction_moments(grid: PositionGrid, psi, hbar, system: SystemSpec = None, time=0.0) -> MomentSet:
    """MomentSet of a pure state given directly as a wavefunction."""
    x, dx = grid.x, grid.dx
    dens = np.abs(psi) ** 2
    norm = float(np.sum(dens) * dx)
    x_mean = float(np.sum(x * dens) * dx / norm)
    c_xx = float(np.sum((x - x_mean) ** 2 * dens) * dx / norm)

    p = grid.momenta(hbar)
    phi = np.fft.fft(psi)
    pdens = np.abs(phi) ** 2 * dx**2 / (2.0 * np.pi * hbar)
    dp = 2.0 * np.pi * hbar / (grid.n_points * dx)
    p_mean = float(np.sum(p * pdens) * dp / norm)
    p2 = float(np.sum(p**2 * pdens) * dp / norm)
    c_pp = p2 - p_mean**2

    ppsi = np.fft.ifft(p * phi)
    xp_sym = float(np.real(np.sum(psi.conj() * x * ppsi) * dx) / norm)
    c_xp = xp_sym - x_mean * p_mean

    energy = np.nan
    if system is not None:
        v_mean = float(np.sum(system.potential(x, time) * dens) * dx / norm)
        energy = p2 / (2.0 * system.mass) + v_mean
    return MomentSet(x_mean, p_mean, c_xx, c_xp, c_pp, 1.0, energy)


def ensemble_moments(ens: ClassicalEnsemble, system: SystemSpec = None, time=0.0) -> MomentSet:
    w = ens.w / np.sum(ens.w)
    x_mean = float(np.dot(w, ens.x))
    p_mean = float(np.dot(w, ens.p))
    c_xx = float(np.dot(w, (ens.x - x_mean) ** 2))
    c_pp = float(np.dot(w, (ens.p - p_mean) ** 2))
    c_xp = float(np.dot(w, (ens.x - x_mean) * (ens.p - p_mean)))
    energy = np.nan
    if system is not None:
        energy = float(
            np.dot(w, ens.p**2 / (2.0 * system.mass) + system.potential(ens.x, time))
        )
    return MomentSet(x_mean, p_mean, c_xx, c_xp, c_pp, ens.ess(), energy)


def moments(state, system: SystemSpec = None, time=0.0) -> MomentSet:
    """Symmetrized moments, purity/ESS and mean energy of either state kind."""
    if isinstance(state, QuantumState):
        return quantum_moments(state, system, time)
    if isinstance(state, ClassicalEnsemble):
        return ensemble_moments(state, system, time)
    if isinstance(state, WignerGrid):
        return wigner_moments(state, system, time)
    raise TypeError(f"unsupported state type {type(state).__name__}")


def force_moments(state, system: SystemSpec, time=0.0):
    """(<F(x)>, dF/dx at <x>, d2F/dx2 at <x>).

    Exact for the quartic-capped polynomial force: <F> needs raw position
    moments up to order three, which both state kinds provide exactly.
    """
    c0, c1, c2, c3, c4 = system.potential_coeffs
    if isinstance(state, QuantumState):
        x, dx = state.grid.x, state.grid.dx
        dens = state.position_density()
        norm = float(np.sum(dens) * dx)
        m1 = float(np.sum(x * dens) * dx / norm)
        m2 = float(np.sum(x**2 * dens) * dx / norm)
        m3 = float(np.sum(x**3 * dens) * dx / norm)
    elif isinstance(state, ClassicalEnsemble):
        w = state.w / np.sum(state.w)
        m1 = float(np.dot(w, state.x))
        m2 = float(np.dot(w, state.x**2))
        m3 = float(np.dot(w, state.x**3))
    else:
        raise TypeError(f"unsupported state type {type(state).__name__}")

    f_mean = -(c1 + 2.0 * c2 * m1 + 3.0 * c3 * m2 + 4.0 * c4 * m3)
    if system.drive_amplitude != 0.0:
        f_mean -= system.drive_amplitude * np.cos(system.drive_frequency * time)
    f_mean += system.control_offset
    return float(f_mean), float(system.force_gradient(m1)), float(system.force_curvature(m1))


# ---------------------------------------------------------------------------
# Wigner view


@dataclass(frozen=True)
class WignerGrid:
    """Wigner function samples on (x, p); p ascending with dp = 2 pi hbar/(n dx)."""

    grid: PositionGrid
    p_grid: np.ndarray
    values: np.ndarray
    hbar: float = 1.0

    @property
    def dp(self) -> float:
        return float(self.p_grid[1] - self.p_grid[0])

    def normalization(self) -> float:
        return float(np.sum(self.values) * self.grid.dx * self.dp)


def wigner_transform(state: QuantumState) -> WignerGrid:
    """Wigner function W(x,p) = (1/2 pi hbar) int dy e^{-ipy/hbar} rho(x+y/2, x-y/2).

    The half-offset samples rho(x+u, x-u) with u on a dx/2 lattice are
    obtained by exact spectral interpolation (the grid state is band
    limited by construction), which yields the full conjugate momentum
    span 2 pi hbar/dx rather than the aliased half-range of naive
    whole-cell sampling.
    """
    grid, hbar = state.grid, state.hbar
    n, dx = grid.n_points, grid.dx

    # Band-limited x2 upsampling of rho along both axes.
    f = np.fft.fft2(state.rho)
    fp = np.zeros((2 * n, 2 * n), dtype=complex)
    ix = np.fft.fftfreq(n, 1.0 / n).astype(int)  # frequency slot of each coefficient
    fp[np.ix_(ix, ix)] = f
    # Split the Nyquist coefficient between +n/2 and -n/2 slots so the
    # interpolant of Hermitian input stays Hermitian.
    half = n // 2
    fp[-half, :] *= 0.5
    fp[half, :] = fp[-half, :]
    fp[:, -half] *= 0.5
    fp[:, half] = fp[:, -half]
    rho_fine = np.fft.ifft2(fp) * 4.0  # (2x)^2 points, same function values

    # chi[i, j] = rho(x_i + u_j, x_i - u_j), u_j = (j - n) * dx/2, j = 0..2n-1
    j = np.arange(2 * n)
    a_idx = 2 * np.arange(n)[:, None] + (j[None, :] - n)
    b_idx = 2 * np.arange(n)[:, None] - (j[None, :] - n)
    valid = (a_idx >= 0) & (a_idx < 2 * n) & (b_idx >= 0) & (b_idx < 2 * n)
    chi = np.zeros((n, 2 * n), dtype=complex)
    chi[valid] = rho_fine[a_idx[valid], b_idx[valid]]

    # W(x, p_k) = (du / pi hbar) sum_j e^{-2 i p_k u_j / hbar} chi(x, u_j)
    du = dx / 2.0
    w_full = np.fft.fft(np.fft.ifftshift(chi, axes=1), axis=1) * du / (np.pi * hbar)
    p_fine = np.pi * hbar * np.fft.fftfreq(2 * n, du)  # = pi hbar k / (n dx)
    # Keep every other momentum sample: dp = 2 pi hbar / (n dx), n values.
    w_vals = np.fft.fftshift(w_full[:, ::2].real, axes=1)
    p_sel = np.fft.fftshift(p_fine[::2])
    return WignerGrid(grid, p_sel, np.ascontiguousarray(w_vals), hbar)


def wigner_moments(w: WignerGrid, system: SystemSpec = None, time=0.0) -> MomentSet:
    """Moments by direct phase-space quadrature (diagnostic cross-check)."""
    x = w.grid.x[:, None]
    p = w.p_grid[None, :]
    dxdp = w.grid.dx * w.dp
    norm = float(np.sum(w.values) * dxdp)
    x_mean = float(np.sum(x * w.values) * dxdp / norm)
    p_mean = float(np.sum(p * w.values) * dxdp / norm)
    c_xx = float(np.sum((x - x_mean) ** 2 * w.values) * dxdp / norm)
    c_pp = float(np.sum((p - p_mean) ** 2 * w.values) * dxdp / norm)
    c_xp = float(np.sum((x - x_mean) * (p - p_mean) * w.values) * dxdp / norm)
    energy = np.nan
    if system is not None:
        h = p**2 / (2.0 * system.mass) + system.potential(x, time)
        energy = float(np.sum(h * w.values) * dxdp / norm)
    # Phase-space purity: (2 pi hbar) int W^2 dx dp.
    purity = float(2.0 * np.pi * w.hbar * np.sum(w.values**2) * dxdp)
    return MomentSet(x_mean, p_mean, c_xx, c_xp, c_pp, purity, energy)
