"""Quantum steppers: isolated/unconditional/conditioned, filtering, Moyal view."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcond.core import (
    PositionGrid,
    QuantumState,
    SupportEscapeError,
    SystemSpec,
    gaussian_state,
    gaussian_wavefunction,
    quantum_moments,
    wavefunction_moments,
    wigner_transform,
)
from qcond.noise import generate
from qcond.qdyn import (
    DensityStepper,
    MeasurementError,
    MeasurementSpec,
    PureStepper,
    evolve_moyal,
    filter_with_record,
    isolated_step,
    moyal_rhs,
    run_conditioned,
    run_isolated,
    sme_step,
    unconditional_step,
)

HBAR = 1.0


@pytest.fixture
def grid():
    return PositionGrid(-12.0, 12.0, 128)


@pytest.fixture
def harmonic():
    return SystemSpec(mass=1.0, hbar=HBAR, potential_coeffs=(0, 0, 0.5))


@pytest.fixture
def free():
    return SystemSpec(mass=1.0, hbar=HBAR, potential_coeffs=(0.0,))


# --- isolated -------------------------------------------------------------------


def test_isolated_harmonic_tracks_analytic_solution(grid, harmonic):
    x0, p0 = 1.0, 0.5
    dt = 1e-3
    state = gaussian_state(grid, x0, p0, 1 / np.sqrt(2), HBAR)
    stepper = DensityStepper(grid, harmonic, None, dt)
    n = int(round(10 * 2 * np.pi / dt))
    t = 0.0
    for _ in range(n):
        state = stepper.isolated(state, t)
        t += dt
    m = quantum_moments(state, harmonic, t)
    assert m.x_mean == pytest.approx(x0 * np.cos(t) + p0 * np.sin(t), abs=1e-4)
    assert m.p_mean == pytest.approx(-x0 * np.sin(t) + p0 * np.cos(t), abs=1e-4)


def test_isolated_conserves_trace_purity_energy(grid, harmonic):
    dt = 1e-3
    state = gaussian_state(grid, 1.0, 0.5, 1 / np.sqrt(2), HBAR)
    e0 = quantum_moments(state, harmonic, 0.0).energy
    stepper = DensityStepper(grid, harmonic, None, dt)
    t = 0.0
    for _ in range(200):
        prev_tr, prev_pur = state.trace(), state.purity()
        state = stepper.isolated(state, t)
        t += dt
        assert abs(state.trace() - prev_tr) < 1e-8
        assert abs(state.purity() - prev_pur) < 1e-8
    e1 = quantum_moments(state, harmonic, t).energy
    assert abs(e1 - e0) < 1e-8 * max(1.0, abs(e0)) * 200


def test_free_particle_spreading_identity(grid, free):
    # C_xx(t) = C_xx(0) + C_pp(0) t^2/m^2 + 2 C_xp(0) t / m
    dt = 1e-3
    state = gaussian_state(grid, 0.0, 0.0, 1.0, HBAR)
    stepper = DensityStepper(grid, free, None, dt)
    t = 0.0
    for _ in range(1000):
        state = stepper.isolated(state, t)
        t += dt
    m = quantum_moments(state, free, t)
    assert m.c_xx == pytest.approx(1.0 + 0.25 * t**2, abs=1e-5)


def test_isolated_reversibility(grid, harmonic):
    dt = 1e-3
    state0 = gaussian_state(grid, 1.0, -0.5, 0.8, HBAR)
    stepper = DensityStepper(grid, harmonic, None, dt)
    state = state0
    ts = []
    t = 0.0
    for _ in range(300):
        state = stepper.isolated(state, t)
        ts.append(t)
        t += dt
    for t_back in reversed(ts):
        state = stepper.isolated_reversed(state, t_back)
    fidelity = float(np.real(np.sum(state0.rho.conj() * state.rho)) * grid.dx**2)
    assert fidelity > 1 - 1e-8


def test_isolated_unitary_matches_dense_propagator_oracle():
    # small-grid cross-check against an eigendecomposition propagator
    grid = PositionGrid(-6.0, 6.0, 32)
    sys_ = SystemSpec(mass=1.0, hbar=1.0, potential_coeffs=(0, 0, 0.5))
    dt = 1e-4
    state = gaussian_state(grid, 0.5, 0.3, 0.9, 1.0)
    # dense H with spectral kinetic term
    n, dx = grid.n_points, grid.dx
    p = grid.momenta(1.0)
    f = np.fft.fft(np.eye(n), axis=0)
    kin = np.fft.ifft((p**2)[:, None] / 2.0 * f, axis=0)
    h = kin + np.diag(sys_.potential(grid.x, 0.0))
    h = (h + h.conj().T) / 2
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * dt)) @ v.conj().T
    rho_exact = u @ state.rho @ u.conj().T
    stepped = DensityStepper(grid, sys_, None, dt).isolated(state, 0.0)
    assert np.max(np.abs(stepped.rho - rho_exact)) * dx < 1e-8


# --- conditioned ----------------------------------------------------------------


def test_record_arithmetic_unit_gain(grid, free):
    # <x>=0, k=1/8 makes sqrt(8k)=1, so dy = dW exactly
    meas = MeasurementSpec(0.125)
    state = gaussian_state(grid, 0.0, 0.0, 1.0, HBAR)
    _, dy = sme_step(state, free, meas, 1e-3, 0.01, 0.0)
    assert dy == pytest.approx(0.01, abs=1e-12)


def test_backaction_diffusion_derived(grid):
    meas = MeasurementSpec(10.0)
    assert meas.backaction_diffusion(1.0) == pytest.approx(10.0)
    assert meas.backaction_diffusion(2.0) == pytest.approx(40.0)


def test_conditioned_preserves_purity(grid, harmonic):
    dt = 1e-3
    meas = MeasurementSpec(1.0)
    stepper = DensityStepper(grid, harmonic, meas, dt)
    state = gaussian_state(grid, 1.0, 0.0, 1 / np.sqrt(2), HBAR)
    noise = generate(21, 0, 1000, dt)
    t = 0.0
    for i in range(1000):
        state, _ = stepper.conditioned(state, t, noise.increments[i])
        t += dt
    assert state.purity() == pytest.approx(1.0, abs=1e-6)
    assert state.trace() == pytest.approx(1.0, abs=1e-9)
    m = quantum_moments(state, harmonic, t)
    assert m.uncertainty_product() >= 0.25 * (1 - 1e-6)


def test_conditioned_rejects_zero_strength(grid, harmonic):
    stepper = DensityStepper(grid, harmonic, MeasurementSpec(0.0), 1e-3)
    state = gaussian_state(grid, 0.0, 0.0, 1.0, HBAR)
    with pytest.raises(MeasurementError):
        stepper.conditioned(state, 0.0, 0.01)


def test_pure_and_density_paths_agree(grid, harmonic):
    dt = 1e-3
    meas = MeasurementSpec(1.0)
    dstep = DensityStepper(grid, harmonic, meas, dt)
    pstep = PureStepper(grid, harmonic, meas, dt)
    state = gaussian_state(grid, 1.0, 0.5, 1 / np.sqrt(2), HBAR)
    psi = gaussian_wavefunction(grid, 1.0, 0.5, 1 / np.sqrt(2), HBAR)
    noise = generate(4, 2, 1500, dt)
    t = 0.0
    for i in range(1500):
        state, dy_d = dstep.conditioned(state, t, noise.increments[i])
        psi, dy_p = pstep.conditioned(psi, t, noise.increments[i])
        t += dt
        assert dy_d == pytest.approx(dy_p, abs=1e-12)
    md = quantum_moments(state, harmonic, t)
    mp = wavefunction_moments(grid, psi, HBAR, harmonic, t)
    np.testing.assert_allclose(md.as_array(), mp.as_array(), atol=1e-9)


def test_batched_rows_step_exactly_like_single_rows(grid):
    """A (3, n) stack with per-row controls (0, +u, -u) and one shared dW:
    every row's psi and dy equal that row stepped alone, bit for bit, in
    the conditioned and in the isolated step."""
    driven = SystemSpec(mass=1.0, hbar=HBAR, potential_coeffs=(0, 0, 0.5, 0, 0.02),
                        drive_amplitude=0.4, drive_frequency=1.3)
    dt, n = 1e-3, 150
    stepper = PureStepper(grid, driven, MeasurementSpec(1.0), dt)
    controls = (0.0, 0.7, -0.7)
    rows = np.stack([gaussian_wavefunction(grid, x0, p0, s, HBAR)
                     for x0, p0, s in ((-1.0, 0.0, 0.7), (0.5, 0.4, 0.9), (1.5, -0.3, 0.6))])
    singles = list(rows)
    noise = generate(8, 0, n, dt)
    for i in range(2 * n):
        t = i * dt
        stepper.control = np.array(controls)[:, None]
        if i < n:
            rows, dy = stepper.conditioned(rows, t, noise.increments[i])
        else:
            rows = stepper.isolated(rows, t)
        for j, u in enumerate(controls):
            stepper.control = u
            if i < n:
                singles[j], dy_j = stepper.conditioned(singles[j], t, noise.increments[i])
                assert dy[j] == dy_j
            else:
                singles[j] = stepper.isolated(singles[j], t)
            assert np.array_equal(rows[j], singles[j])


def test_per_row_increments_step_like_single_rows(grid, harmonic):
    """A (2, 3, n) batch whose dW has one increment per leading row (a (2, 1)
    column) steps every row exactly as that row alone under its own scalar
    dW; passing the caller's mean_x changes no bit."""
    dt, n = 1e-3, 100
    stepper = PureStepper(grid, harmonic, MeasurementSpec(1.0), dt)
    rows = np.stack([[gaussian_wavefunction(grid, x0, 0.1 * r, 0.8, HBAR)
                      for x0 in (-1.0, 0.0, 1.2)] for r in range(2)])
    singles = [[row for row in block] for block in rows]
    noises = [generate(4, r, n, dt) for r in range(2)]
    for i in range(n):
        dw = np.array([[noises[0].increments[i]], [noises[1].increments[i]]])
        x_mean = stepper.mean_x(rows) if i % 2 else None
        rows, dy = stepper.conditioned(rows, i * dt, dw, x_mean)
        for r in range(2):
            for j in range(3):
                singles[r][j], dy_rj = stepper.conditioned(singles[r][j], i * dt,
                                                           noises[r].increments[i])
                assert dy[r, j] == dy_rj
    for r in range(2):
        for j in range(3):
            assert np.array_equal(rows[r, j], singles[r][j])


def test_batched_support_check_sees_any_row(grid, harmonic):
    stepper = PureStepper(grid, harmonic, MeasurementSpec(1.0), 1e-3)
    inside = gaussian_wavefunction(grid, 0.0, 0.0, 0.7, HBAR)
    edge = gaussian_wavefunction(grid, 9.0, 0.0, 0.5, HBAR)   # tail in the outer buffer
    stepper.conditioned(np.stack([inside, inside]), 0.0, 0.0)
    with pytest.raises(SupportEscapeError):
        stepper.conditioned(np.stack([inside, edge, inside]), 0.0, 0.0)


def test_trajectory_loop_density_twin(harmonic):
    """run_conditioned, filter_with_record and run_isolated from (grid, psi)
    and from the density matrix of the same packet, on the same noise, give
    the same moment series.  The two paths apply the same maps through
    differently shaped FFTs, so they differ by roundoff only: about 6e-13
    on moments of order 1 here, checked at 1e-10.
    """
    g64 = PositionGrid(-12.0, 12.0, 64)
    dt, n_steps, stride = 2e-3, 500, 25
    meas = MeasurementSpec(1.0)
    psi0 = gaussian_wavefunction(g64, 1.0, 0.3, 0.8, HBAR)
    rho0 = gaussian_state(g64, 1.0, 0.3, 0.8, HBAR)
    noise = generate(13, 0, n_steps, dt)

    pure = run_conditioned((g64, psi0), harmonic, meas, noise, sample_every=stride)
    dens = run_conditioned(rho0, harmonic, meas, noise, sample_every=stride)
    assert pure.times.size == n_steps // stride + 1
    np.testing.assert_array_equal(pure.times, dens.times)
    np.testing.assert_allclose(dens.moment_matrix(), pure.moment_matrix(), rtol=0, atol=1e-10)
    np.testing.assert_allclose(dens.energy, pure.energy, rtol=0, atol=1e-10)
    np.testing.assert_allclose(dens.purity, 1.0, rtol=0, atol=1e-10)
    np.testing.assert_allclose(dens.record.increments, pure.record.increments, rtol=0, atol=1e-12)

    f_pure = filter_with_record((g64, psi0), harmonic, meas, pure.record, sample_every=stride)
    f_dens = filter_with_record(rho0, harmonic, meas, pure.record, sample_every=stride)
    np.testing.assert_allclose(f_dens.moment_matrix(), f_pure.moment_matrix(), rtol=0, atol=1e-10)
    np.testing.assert_allclose(f_dens.moment_matrix(), dens.moment_matrix(), rtol=0, atol=1e-10)

    i_pure = run_isolated((g64, psi0), harmonic, dt, n_steps, sample_every=stride)
    i_dens = run_isolated(rho0, harmonic, dt, n_steps, sample_every=stride)
    np.testing.assert_allclose(i_dens.moment_matrix(), i_pure.moment_matrix(), rtol=0, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(dt=st.floats(1e-4, 1e-2), k=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1))
def test_conditioned_density_stays_positive(dt, k, seed):
    """The congruence form M rho M keeps trace, hermiticity and positivity
    for any dt, with no eigenvalue repair (Rouchon & Ralph, PRA 91, 012118).

    A mixed two-packet state takes 300 conditioned steps.  The heavy,
    stiff trap (m = 4, omega = 2) keeps the backaction-heated state
    inside the 64-point grid up to k = 10 at dt = 1e-2 (no escape in 100
    probe seeds there); should one still reach the support buffer, the
    stepper aborts with SupportEscapeError, which is not a positivity
    failure, and the last state it returned is checked.  Observed worst
    cases: trace error 4e-16, hermiticity defect 1e-13, minimum eigenvalue
    -1.2e-13, against the validate() floors 1e-9, 1e-12 and -1e-8.
    """
    g64 = PositionGrid(-4.0, 4.0, 64)
    trap = SystemSpec(mass=4.0, hbar=HBAR, potential_coeffs=(0, 0, 8.0))
    rho0 = 0.5 * (gaussian_state(g64, 0.8, 0.0, 0.4, HBAR).rho
                  + gaussian_state(g64, -0.8, 0.0, 0.4, HBAR).rho)
    state = QuantumState(g64, rho0, HBAR)
    stepper = DensityStepper(g64, trap, MeasurementSpec(k), dt)
    noise = generate(seed, 0, 300, dt)
    try:
        for i in range(300):
            state, _ = stepper.conditioned(state, i * dt, noise.increments[i])
    except SupportEscapeError:
        pass
    state.validate(check_eigenvalues=True)


def test_unconditional_free_particle_momentum_heating(grid, free):
    # d<p^2>/dt = 2 hbar^2 k exactly for the backaction channel
    dt = 1e-3
    meas = MeasurementSpec(1.0)
    state = gaussian_state(grid, 0.0, 0.0, 1.0, HBAR)
    c0 = quantum_moments(state, free, 0.0).c_pp
    stepper = DensityStepper(grid, free, meas, dt)
    t = 0.0
    for _ in range(1000):
        state = stepper.unconditional(state, t)
        t += dt
    c1 = quantum_moments(state, free, t).c_pp
    assert (c1 - c0) / t == pytest.approx(2.0 * HBAR**2 * 1.0, rel=1e-2)


def test_unconditional_k0_equals_isolated(grid, harmonic):
    state = gaussian_state(grid, 1.0, 0.0, 1.0, HBAR)
    a = unconditional_step(state, harmonic, MeasurementSpec(0.0), 1e-3, 0.0)
    b = isolated_step(state, harmonic, 1e-3, 0.0)
    assert np.max(np.abs(a.rho - b.rho)) < 1e-12


def _raw_moments(moment_row):
    """[x, p, xx, xp_sym, pp] raw moments from a centered moment row."""
    x, p, cxx, cxp, cpp = moment_row
    return np.array([x, p, cxx + x**2, cxp + x * p, cpp + p**2])


def test_noise_average_recovers_unconditional(grid, harmonic):
    """Mixture over conditioned realizations = linear master equation.

    The average of conditioned states is the unconditional state, so the
    comparison must aggregate raw moments (law of total variance), not
    per-trajectory centered covariances.
    """
    dt = 2e-3
    n_steps = 400
    n_real = 160
    meas = MeasurementSpec(1.0)
    psi0 = gaussian_wavefunction(grid, 1.0, 0.0, 1 / np.sqrt(2), HBAR)
    finals = np.empty((n_real, 5))
    for r in range(n_real):
        noise = generate(31, r, n_steps, dt)
        traj = run_conditioned((grid, psi0), harmonic, meas, noise, sample_every=n_steps)
        finals[r] = _raw_moments(traj.moment_matrix()[-1])
    state = gaussian_state(grid, 1.0, 0.0, 1 / np.sqrt(2), HBAR)
    stepper = DensityStepper(grid, harmonic, meas, dt)
    t = 0.0
    for _ in range(n_steps):
        state = stepper.unconditional(state, t)
        t += dt
    ref = _raw_moments(quantum_moments(state, harmonic, t).as_array())
    mean = finals.mean(axis=0)
    se = finals.std(axis=0, ddof=1) / np.sqrt(n_real)
    z = np.abs(mean - ref) / np.maximum(se, 1e-12)
    assert np.all(z < 3.0), f"z-scores {z}"


def test_mixed_state_mean_purity_nondecreasing(grid, harmonic):
    """Conditioning purifies mixed states on average (no-drive harmonic)."""
    dt = 2e-3
    meas = MeasurementSpec(1.0)
    g64 = PositionGrid(-12.0, 12.0, 64)
    sa = gaussian_state(g64, 1.5, 0.0, 0.8, HBAR)
    sb = gaussian_state(g64, -1.5, 0.0, 0.8, HBAR)
    rho0 = 0.5 * sa.rho + 0.5 * sb.rho
    from qcond.core import QuantumState

    n_real, n_steps, n_checks = 40, 500, 10
    purities = np.empty((n_real, n_checks))
    for r in range(n_real):
        noise = generate(8, r, n_steps, dt)
        state = QuantumState(g64, rho0.copy(), HBAR)
        stepper = DensityStepper(g64, harmonic, meas, dt)
        t = 0.0
        c = 0
        for i in range(n_steps):
            state, _ = stepper.conditioned(state, t, noise.increments[i])
            t += dt
            if (i + 1) % (n_steps // n_checks) == 0:
                purities[r, c] = state.purity()
                c += 1
    mean_p = purities.mean(axis=0)
    se_p = purities.std(axis=0, ddof=1) / np.sqrt(n_real)
    diffs = np.diff(mean_p)
    tol = 3 * np.sqrt(se_p[1:] ** 2 + se_p[:-1] ** 2)
    assert np.all(diffs > -tol)
    assert mean_p[-1] > mean_p[0]  # strictly purified overall


# --- filtering ------------------------------------------------------------------


def test_filter_self_consistency(grid, harmonic):
    dt = 1e-3
    meas = MeasurementSpec(1.0)
    psi0 = gaussian_wavefunction(grid, 1.0, 0.0, 1 / np.sqrt(2), HBAR)
    noise = generate(7, 3, 1500, dt)
    traj = run_conditioned((grid, psi0), harmonic, meas, noise, sample_every=10)
    refiltered = filter_with_record((grid, psi0), harmonic, meas, traj.record, sample_every=10)
    assert np.max(np.abs(traj.x_mean - refiltered.x_mean)) < 1e-10


def test_filter_converges_from_wrong_start(grid, harmonic):
    dt = 1e-3
    meas = MeasurementSpec(1.0)
    sigma = 1 / np.sqrt(2)
    psi_true = gaussian_wavefunction(grid, 1.0, 0.0, sigma, HBAR)
    noise = generate(7, 5, 4000, dt)
    traj = run_conditioned((grid, psi_true), harmonic, meas, noise, sample_every=40)
    psi_off = gaussian_wavefunction(grid, 1.0 + 0.5 * sigma, 0.0, sigma, HBAR)
    est = filter_with_record((grid, psi_off), harmonic, meas, traj.record, sample_every=40)
    err = np.abs(est.x_mean - traj.x_mean)
    # envelope decreases: compare block maxima
    blocks = np.array_split(err, 5)
    peaks = [b.max() for b in blocks]
    assert all(peaks[i + 1] < peaks[i] * 1.05 for i in range(4))
    assert err[-1] < 0.1 * err[0]


def test_filter_requires_nonzero_strength(grid, harmonic):
    from qcond.qdyn import MeasurementRecord

    rec = MeasurementRecord(1e-3, np.zeros(10))
    state = gaussian_state(grid, 0.0, 0.0, 1.0, HBAR)
    with pytest.raises(MeasurementError):
        filter_with_record(state, harmonic, MeasurementSpec(0.0), rec)


# --- Moyal / Wigner picture -------------------------------------------------------


def test_moyal_quadratic_potential_is_classical_advection(grid, harmonic):
    st_ = gaussian_state(grid, 1.0, 0.3, 0.8, HBAR)
    w = wigner_transform(st_)
    rhs = moyal_rhs(w, harmonic, 0.0)
    # quantum correction vanishes: rates of <x>, <p> purely classical
    dxdp = grid.dx * w.dp
    x = grid.x[:, None]
    p = w.p_grid[None, :]
    assert np.sum(x * rhs) * dxdp == pytest.approx(0.3, abs=1e-6)
    assert np.sum(p * rhs) * dxdp == pytest.approx(-1.0, abs=1e-5)


def test_moyal_quartic_correction_term():
    # V = x^4/4: correction must equal -(hbar^2/24)(6x) d3W/dp3
    grid = PositionGrid(-8.0, 8.0, 64)
    sys_q = SystemSpec(mass=1.0, hbar=1.0, potential_coeffs=(0, 0, 0, 0, 0.25))
    sys_c = SystemSpec(mass=1.0, hbar=0.0, potential_coeffs=(0, 0, 0, 0, 0.25))
    st_ = gaussian_state(grid, 1.0, 0.0, 0.7, 1.0)
    w = wigner_transform(st_)
    quantum = moyal_rhs(w, sys_q, 0.0)
    classical = moyal_rhs(w, sys_c, 0.0)
    correction = quantum - classical
    # independent spectral d3/dp3
    n = grid.n_points
    kp = 2 * np.pi * np.fft.fftfreq(n, w.dp)
    f_p = np.fft.fft(np.fft.ifftshift(w.values, axes=1), axis=1)
    d3 = np.fft.fftshift(np.fft.ifft((1j * kp) ** 3 * f_p, axis=1).real, axes=1)
    expected = -(1.0 / 24.0) * (6.0 * grid.x)[:, None] * d3
    assert np.max(np.abs(correction - expected)) < 1e-10


def test_cross_representation_oracle_quartic():
    """Moyal-evolved Wigner vs Wigner of density evolution, t = 0.1."""
    grid = PositionGrid(-8.0, 8.0, 64)
    sys_q = SystemSpec(mass=1.0, hbar=1.0, potential_coeffs=(0, 0, 0, 0, 0.25))
    st_ = gaussian_state(grid, 1.0, 0.0, 0.7, 1.0)
    w_moyal = evolve_moyal(wigner_transform(st_), sys_q, 0.0, 0.1, 5e-5)
    stepper = DensityStepper(grid, sys_q, None, 1e-4)
    state = st_
    t = 0.0
    for _ in range(1000):
        state = stepper.isolated(state, t)
        t += 1e-4
    w_rho = wigner_transform(state)
    assert np.max(np.abs(w_moyal.values - w_rho.values)) < 1e-4
