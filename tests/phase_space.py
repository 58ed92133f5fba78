"""Phase-space (Wigner/Moyal) view of a grid state: an independent test oracle.

The Wigner transform of a density matrix, phase-space quadrature of its
moments, and RK4 integration of the Moyal equation, which for a
quartic-capped potential carries a single quantum correction.  The
package steps states in the position representation only; these
functions check it against a second method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qcond.core import MomentSet, PositionGrid, SystemSpec


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


def wigner_transform(grid: PositionGrid, rho: np.ndarray, hbar: float) -> WignerGrid:
    """Wigner function W(x,p) = (1/2 pi hbar) int dy e^{-ipy/hbar} rho(x+y/2, x-y/2).

    The half-offset samples rho(x+u, x-u) with u on a dx/2 lattice are
    obtained by exact spectral interpolation (the grid state is band
    limited by construction), which yields the full conjugate momentum
    span 2 pi hbar/dx rather than the aliased half-range of naive
    whole-cell sampling.
    """
    n, dx = grid.n_points, grid.dx

    # Band-limited x2 upsampling of rho along both axes.
    f = np.fft.fft2(rho)
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

    v3 = -system.force_curvature(x)  # d3V/dx3, the only surviving quantum correction
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
