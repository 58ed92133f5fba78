"""Gaussian-closure centroid stepper against full-state and closed-form oracles."""

from dataclasses import astuple

import numpy as np
import pytest

from qcond.core import PositionGrid, SystemSpec, gaussian_wavefunction, wavefunction_moments
from qcond.cumulant import ClosureBreakdownError, GaussianBelief, belief_vs_full_compare, centroid_step
from qcond.noise import generate
from qcond.qdyn import MeasurementSpec, PureStepper

HBAR = 1.0


@pytest.fixture
def harmonic():
    return SystemSpec(mass=1.0, hbar=HBAR, potential_coeffs=(0, 0, 0.5))


def _riccati_fixed_point(m, omega2, k, hbar):
    """Stationary covariances in closed form (oracle).

    The third equation is a quadratic in cxp alone; its positive root
    fixes cxx through the first and cpp through the second.
    """
    cxp = (-omega2 + np.sqrt(omega2**2 + 16 * hbar**2 * k**2)) / (8 * k)
    cxx = np.sqrt(cxp / (4 * m * k))
    cpp = m * (omega2 * cxx + 8 * k * cxx * cxp)
    residuals = [
        2 * cxp / m - 8 * k * cxx**2,
        cpp / m - omega2 * cxx - 8 * k * cxx * cxp,
        -2 * omega2 * cxp + 2 * hbar**2 * k - 8 * k * cxp**2,
    ]
    assert np.max(np.abs(residuals)) < 1e-14
    return cxx, cxp, cpp


def test_riccati_fixed_point_reached(harmonic):
    """Stationary covariance = independent root-finder solution.

    The linearized flow at the fixed point has complex eigenvalues for
    every k (damped spiral), so the approach from a rescaled start can
    only be monotone in envelope, not pointwise; block maxima of the
    deviation must decay.
    """
    k = 1.0
    meas = MeasurementSpec(k)
    cxx_s, cxp_s, cpp_s = _riccati_fixed_point(1.0, 1.0, k, HBAR)
    # start from twice the stationary position variance (pure-state slope)
    bel = GaussianBelief(0.0, 0.0, 2 * cxx_s, 0.0, HBAR**2 / (4 * 2 * cxx_s) + 0.5, hbar=HBAR)
    dt = 2e-5   # discrete-update bias is O(8k C dt); keep it under the 1e-4 check
    deviations = []
    t = 0.0
    for i in range(300_000):
        bel = centroid_step(bel, harmonic, meas, dt, 0.0, t)  # dW=0: pure covariance flow
        t += dt
        deviations.append(abs(bel.c_xx - cxx_s))
    blocks = np.array_split(np.array(deviations), 10)
    peaks = np.array([b.max() for b in blocks])
    # envelope decays monotonically until it reaches the tolerance floor
    floor = 1e-4 * cxx_s
    assert np.all((np.diff(peaks) < 1e-12) | (peaks[1:] < floor))
    assert bel.c_xx == pytest.approx(cxx_s, rel=1e-4)
    assert bel.c_xp == pytest.approx(cxp_s, rel=1e-4)
    assert bel.c_pp == pytest.approx(cpp_s, rel=1e-4)


def test_zero_measurement_classical_reduces_to_newton(harmonic):
    bel = GaussianBelief(1.0, 0.0, 0.04, 0.0, 0.04, hbar=0.0)
    dt = 1e-3
    t = 0.0
    for _ in range(1571):
        bel = centroid_step(bel, harmonic, None, dt, 0.0, t)
        t += dt
    assert bel.x_mean == pytest.approx(np.cos(t), abs=1e-6)
    assert bel.p_mean == pytest.approx(-np.sin(t), abs=1e-6)
    # covariance follows the linearized (rotation) flow: invariants preserved
    assert bel.c_xx + bel.c_pp == pytest.approx(0.08, rel=1e-9)


def test_delta_belief_drifts_ballistically(harmonic):
    bel = GaussianBelief(0.0, 2.0, 0.0, 0.0, 0.0, hbar=0.0)
    out = centroid_step(bel, SystemSpec(mass=1.0, hbar=0.0, potential_coeffs=(0.0,)),
                        MeasurementSpec(1.0), 1e-3, 0.37, 0.0)
    # C_xx = C_xp = 0: no innovation response in x, pure drift
    assert out.x_mean == pytest.approx(2.0 * 1e-3, rel=1e-12)
    assert out.p_mean == pytest.approx(2.0, rel=1e-12)


def test_quantum_flavor_keeps_uncertainty_floor(harmonic):
    meas = MeasurementSpec(2.0)
    bel = GaussianBelief(0.5, 0.0, 0.5, 0.0, 0.5, hbar=HBAR)
    noise = generate(3, [1], 5000, 1e-3)[:, 0]
    t = 0.0
    for i in range(5000):
        bel = centroid_step(bel, harmonic, meas, 1e-3, noise[i], t)
        t += 1e-3
    assert bel.uncertainty_product() >= HBAR**2 / 4 * (1 - 1e-6)


def test_classical_flavor_admits_collapse(harmonic):
    meas = MeasurementSpec(5.0)
    bel = GaussianBelief(0.0, 0.0, 0.3, 0.0, 0.3, hbar=0.0)
    t = 0.0
    for _ in range(20000):
        bel = centroid_step(bel, harmonic, meas, 1e-3, 0.0, t)
        t += 1e-3
    assert bel.c_xx < 5e-3  # information gain with no backaction: collapse


def test_closure_exact_for_harmonic_shared_noise(harmonic):
    """Primary oracle: belief tracks the full conditioned state for quadratic V."""
    grid = PositionGrid(-16.0, 16.0, 256)
    meas = MeasurementSpec(0.25)
    dt = 1e-3
    n = int(round(10 * 2 * np.pi / dt))
    noise = generate(11, [0], n, dt)[:, 0]
    psi = gaussian_wavefunction(grid, 1.0, 0.0, 1 / np.sqrt(2), HBAR)
    stepper = PureStepper(grid, harmonic, meas, dt)
    bel = GaussianBelief(1.0, 0.0, 0.5, 0.0, 0.5, hbar=HBAR)
    full_rows, bel_rows = [], []
    t = 0.0
    for i in range(n):
        psi, _ = stepper.conditioned(psi, t, noise[i])
        bel = centroid_step(bel, harmonic, meas, dt, noise[i], t)
        t += dt
        if (i + 1) % 250 == 0:
            m = wavefunction_moments(grid, psi, HBAR, harmonic, t)
            full_rows.append(astuple(m)[:5])
            bel_rows.append([bel.x_mean, bel.p_mean, bel.c_xx, bel.c_xp, bel.c_pp])
    report = belief_vs_full_compare(np.array(full_rows), np.array(bel_rows))
    assert report.worst_relative() < 1e-3  # closure exact; residue = integrator roundoff
    assert report.worst_relative() < 1e-9


def test_duffing_localized_regime_tracks_envelope():
    """Anharmonic well, strong measurement: belief follows the full state closely."""
    system = SystemSpec(mass=1.0, hbar=0.1, potential_coeffs=(0, 0, -10, 0, 0.5))
    grid = PositionGrid(-6.0, 6.0, 512)
    meas = MeasurementSpec(50.0)
    dt = 2e-4
    n = 20_000
    noise = generate(29, [0], n, dt)[:, 0]
    x0, sigma0 = 3.0, 0.12
    psi = gaussian_wavefunction(grid, x0, 0.0, sigma0, 0.1)
    stepper = PureStepper(grid, system, meas, dt)
    bel = GaussianBelief(x0, 0.0, sigma0**2, 0.0, 0.1**2 / (4 * sigma0**2), hbar=0.1)
    full_rows, bel_rows = [], []
    t = 0.0
    for i in range(n):
        psi, _ = stepper.conditioned(psi, t, noise[i])
        bel = centroid_step(bel, system, meas, dt, noise[i], t)
        t += dt
        if (i + 1) % 200 == 0:
            m = wavefunction_moments(grid, psi, 0.1, system, t)
            full_rows.append(astuple(m)[:5])
            bel_rows.append([bel.x_mean, bel.p_mean, bel.c_xx, bel.c_xp, bel.c_pp])
    full = np.array(full_rows)
    bel_m = np.array(bel_rows)
    # x envelope deviation under 5% of the oscillation amplitude
    amp = 0.5 * (full[:, 0].max() - full[:, 0].min())
    assert np.max(np.abs(full[:, 0] - bel_m[:, 0])) < 0.05 * amp


def test_compare_report_shape_mismatch():
    with pytest.raises(ValueError):
        belief_vs_full_compare(np.zeros((5, 5)), np.zeros((4, 5)))


def test_covariance_breakdown_raises(harmonic):
    bel = GaussianBelief(0.0, 0.0, 1e-9, 0.0, 1e-9, hbar=1.0)
    with pytest.raises(ClosureBreakdownError):
        bel.validate()
