"""Quantum steppers: isolated/unconditional/conditioned, Moyal view."""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcond.core import (
    PositionGrid,
    QuantumState,
    SupportEscapeError,
    SystemSpec,
    drive,
    gaussian_state,
    gaussian_wavefunction,
    quantum_moments,
    wavefunction_moments,
)
from qcond.noise import generate
from qcond.qdyn import (
    DensityStepper,
    MeasurementError,
    MeasurementSpec,
    PureStepper,
    _check_support,
    run_conditioned,
    run_isolated,
)

from phase_space import evolve_moyal, moyal_rhs, wigner_transform

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
    # A -dt stepper begun at t + dt undoes the forward step begun at t.
    back = DensityStepper(grid, harmonic, None, -dt)
    for t_back in reversed(ts):
        state = back.isolated(state, t_back + dt)
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


def _allocating_unitary(stepper, rho, t):
    """The split-operator step written with temporaries, operand order left to numpy."""
    pv = stepper.half_potential_phase(t + 0.5 * stepper.dt)
    pt = stepper.kinetic_phase
    rho = rho * np.outer(pv, pv.conj())
    rho = np.fft.ifft(pt[:, None] * np.fft.fft(rho, axis=0), axis=0)
    rho = np.fft.fft(pt.conj()[None, :] * np.fft.ifft(rho, axis=1), axis=1)
    return rho * np.outer(pv, pv.conj())


# n = 64 and 128 sit on either side of numpy's 256 KiB temporary-elision
# threshold, where the operand order of the phase products flips.
@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("drive", [0.0, 0.7])
def test_unitary_bitwise_matches_allocating_form(n, drive):
    grid = PositionGrid(-12.0, 12.0, n)
    sys_ = SystemSpec(mass=1.0, hbar=HBAR, potential_coeffs=(0, 0, 0.5),
                      drive_amplitude=drive, drive_frequency=1.3)
    forward, backward = (DensityStepper(grid, sys_, None, dt) for dt in (1e-3, -1e-3))
    rho = gaussian_state(grid, 1.0, 0.5, 1.0, HBAR).rho
    for stepper in (forward, backward, forward):
        got = want = rho
        for i in range(3):
            got = stepper._unitary(got, i * 1e-3)
            want = _allocating_unitary(stepper, want, i * 1e-3)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [64, 128])
def test_unitary_phase_follows_reassigned_control(n):
    grid = PositionGrid(-12.0, 12.0, n)
    sys_ = SystemSpec(mass=1.0, hbar=HBAR, potential_coeffs=(0, 0, 0.5))
    rho = gaussian_state(grid, 1.0, 0.5, 1.0, HBAR).rho
    for dt in (1e-3, -1e-3):
        stepper = DensityStepper(grid, sys_, None, dt)
        for u in (0.0, 0.4, -0.4, 0.0):
            stepper.control = u
            want = _allocating_unitary(stepper, rho, 0.0)
            assert np.array_equal(stepper._unitary(rho, 0.0), want)


# --- conditioned ----------------------------------------------------------------


def density_conditioned(stepper: DensityStepper, state: QuantumState, t: float, dw: float):
    """The density twin of PureStepper.conditioned, built from the density
    stepper's pieces: one conditioned step of rho; returns (state', dy)."""
    dens = state.rho.diagonal().real
    x_mean = float(np.sum(stepper.x * dens) / np.sum(dens))
    dy = stepper.meas.record(x_mean, dw, stepper.dt)
    m = stepper.meas.multiplier(stepper.x - x_mean, dw, stepper.dt)
    rho = stepper._renormalize(state.rho * np.outer(m, m))
    rho = stepper._unitary(rho, t)
    _check_support(stepper._outer_mass(rho), t)
    return QuantumState(stepper.grid, rho, state.hbar), dy


def test_record_arithmetic_unit_gain(grid, free):
    # <x>=0, k=1/8 makes sqrt(8k)=1, so dy = dW exactly
    meas = MeasurementSpec(0.125)
    state = gaussian_state(grid, 0.0, 0.0, 1.0, HBAR)
    _, dy = density_conditioned(DensityStepper(grid, free, meas, 1e-3), state, 0.0, 0.01)
    assert dy == pytest.approx(0.01, abs=1e-12)
    # innovation inverts record: dW = dy - <x> dt at unit gain
    assert meas.innovation(dy, 0.0, 1e-3) == pytest.approx(0.01, abs=1e-12)


def test_backaction_diffusion_derived(grid):
    meas = MeasurementSpec(10.0)
    assert meas.backaction_diffusion(1.0) == pytest.approx(10.0)
    assert meas.backaction_diffusion(2.0) == pytest.approx(40.0)


def test_conditioned_preserves_purity(grid, harmonic):
    dt = 1e-3
    meas = MeasurementSpec(1.0)
    stepper = DensityStepper(grid, harmonic, meas, dt)
    state = gaussian_state(grid, 1.0, 0.0, 1 / np.sqrt(2), HBAR)
    noise = generate(21, [0], 1000, dt)[:, 0]
    t = 0.0
    for i in range(1000):
        state, _ = density_conditioned(stepper, state, t, noise[i])
        t += dt
    assert state.purity() == pytest.approx(1.0, abs=1e-6)
    assert state.trace() == pytest.approx(1.0, abs=1e-9)
    m = quantum_moments(state, harmonic, t)
    assert m.c_xx * m.c_pp - m.c_xp**2 >= 0.25 * (1 - 1e-6)


def test_conditioned_rejects_zero_strength(grid, harmonic):
    stepper = DensityStepper(grid, harmonic, MeasurementSpec(0.0), 1e-3)
    state = gaussian_state(grid, 0.0, 0.0, 1.0, HBAR)
    with pytest.raises(MeasurementError):
        density_conditioned(stepper, state, 0.0, 0.01)
    with pytest.raises(MeasurementError):
        MeasurementSpec(0.0).innovation(0.01, 0.0, 1e-3)


def test_pure_and_density_paths_agree(grid, harmonic):
    dt = 1e-3
    meas = MeasurementSpec(1.0)
    dstep = DensityStepper(grid, harmonic, meas, dt)
    pstep = PureStepper(grid, harmonic, meas, dt)
    state = gaussian_state(grid, 1.0, 0.5, 1 / np.sqrt(2), HBAR)
    psi = gaussian_wavefunction(grid, 1.0, 0.5, 1 / np.sqrt(2), HBAR)
    noise = generate(4, [2], 1500, dt)[:, 0]
    t = 0.0
    for i in range(1500):
        state, dy_d = density_conditioned(dstep, state, t, noise[i])
        psi, dy_p = pstep.conditioned(psi, t, noise[i])
        t += dt
        assert dy_d == pytest.approx(dy_p, abs=1e-12)
    md = quantum_moments(state, harmonic, t)
    mp = wavefunction_moments(grid, psi, HBAR, harmonic, t)
    np.testing.assert_allclose(astuple(md)[:5], astuple(mp)[:5], atol=1e-9)


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
    noise = generate(8, [0], n, dt)[:, 0]
    for i in range(2 * n):
        t = i * dt
        stepper.control = np.array(controls)[:, None]
        # One stepper steps the batch and each row: none reads a carried <x>.
        stepper.x_mean = None
        if i < n:
            rows, dy = stepper.conditioned(rows, t, noise[i])
        else:
            rows = stepper.isolated(rows, t)
        for j, u in enumerate(controls):
            stepper.control = u
            stepper.x_mean = None
            if i < n:
                singles[j], dy_j = stepper.conditioned(singles[j], t, noise[i])
                assert dy[j] == dy_j
            else:
                singles[j] = stepper.isolated(singles[j], t)
            assert np.array_equal(rows[j], singles[j])


def test_per_row_increments_step_like_single_rows(grid, harmonic):
    """A (2, 3, n) batch whose dW has one increment per leading row (a (2, 1)
    column) steps every row exactly as that row alone under its own scalar
    dW; setting the caller's mean_x as the carried <x> changes no bit."""
    dt, n = 1e-3, 100
    stepper = PureStepper(grid, harmonic, MeasurementSpec(1.0), dt)
    rows = np.stack([[gaussian_wavefunction(grid, x0, 0.1 * r, 0.8, HBAR)
                      for x0 in (-1.0, 0.0, 1.2)] for r in range(2)])
    singles = [[row for row in block] for block in rows]
    noises = generate(4, range(2), n, dt)
    for i in range(n):
        dw = noises[i][:, None]
        stepper.x_mean = stepper.mean_x(rows) if i % 2 else None
        rows, dy = stepper.conditioned(rows, i * dt, dw)
        for r in range(2):
            for j in range(3):
                stepper.x_mean = None
                singles[r][j], dy_rj = stepper.conditioned(singles[r][j], i * dt, noises[i, r])
                assert dy[r, j] == dy_rj
    for r in range(2):
        for j in range(3):
            assert np.array_equal(rows[r, j], singles[r][j])


def test_batched_support_check_sees_any_row(grid, harmonic):
    """A failing check names the batch index of the worst row: row 1 of a
    (3, n) batch starts in the outer buffer, row (1, 0) of a (2, 2, n) one."""
    stepper = PureStepper(grid, harmonic, MeasurementSpec(1.0), 1e-3)
    inside = gaussian_wavefunction(grid, 0.0, 0.0, 0.7, HBAR)
    edge = gaussian_wavefunction(grid, 9.0, 0.0, 0.5, HBAR)   # tail in the outer buffer
    # The isolated step checks the buffer too: at k = 0 nothing else stops a wrap-around.
    def conditioned(psi):
        stepper.x_mean = None   # batches of several shapes: no carried <x>
        return stepper.conditioned(psi, 0.0, 0.0)

    for step in (conditioned, lambda psi: stepper.isolated(psi, 0.0)):
        step(np.stack([inside, inside]))
        for batch, row in ((np.stack([inside, edge, inside]), (1,)),
                           (np.stack([[inside, inside], [edge, inside]]), (1, 0))):
            with pytest.raises(SupportEscapeError, match="grid.x_min, grid.x_max, grid.n_points") as err:
                step(batch)
            assert err.value.row == row


def test_nan_state_fails_the_support_check(grid, harmonic):
    """A NaN increment makes a NaN state with a NaN outer-buffer mass; the
    check refuses it instead of stepping on, and names the non-finite input
    rather than the grid."""
    meas = MeasurementSpec(1.0)
    psi = gaussian_wavefunction(grid, 0.0, 0.0, 0.7, HBAR)
    with pytest.raises(SupportEscapeError, match="state is not finite at t=0; .* noise increment"):
        PureStepper(grid, harmonic, meas, 1e-3).conditioned(psi, 0.0, np.nan)


# --- factored diagonal factors and the carried mean --------------------------


@pytest.mark.parametrize("n", [128, 256, 512, 1024])
@pytest.mark.parametrize("drive", [0.0, 7.155])
@pytest.mark.parametrize("control", [0.0, 0.9, "column"])
def test_factored_factors_match_direct_formulas(n, drive, control):
    """The half phase, a static profile times exp(c x) from two tables, is
    exp(-i V dt / 2 hbar) with V formed in full, to 1e-13.  One conditioned
    step, with the norm taken after the unitary, matches the multiplier
    exp(sqrt(2k) u dW - 2k u^2 dt), u = x - <x>, normalized before the
    unitary, to 1e-13 relative."""
    grid = PositionGrid(-20.0, 20.0, n)
    sys_ = SystemSpec(mass=1.0, hbar=HBAR, potential_coeffs=(0, 0, -1.6, 0, 0.004),
                      drive_amplitude=drive, drive_frequency=2.428)
    meas = MeasurementSpec(0.5)
    dt, t = 2e-3, 0.37
    stepper = PureStepper(grid, sys_, meas, dt)
    stepper.control = np.array([[-4.0], [0.0], [4.5]]) if control == "column" else control
    psi = np.stack([gaussian_wavefunction(grid, x0, 0.3, 1.5, HBAR) for x0 in (-3.0, 0.5, 4.0)])
    t_mid = t + 0.5 * dt
    phase = np.exp(-0.5j * (sys_.potential(grid.x, t_mid) - stepper.control * grid.x) * dt / HBAR)
    assert np.max(np.abs(stepper.half_potential_phase(t_mid) - phase)) <= 1e-13

    dw = np.array([0.05, -0.03, 0.02])
    x_mean = stepper.x_mean = stepper.mean_x(psi)
    got, dy = stepper.conditioned(psi, t, dw)
    want = psi * meas.multiplier(grid.x - x_mean[:, None], dw[:, None], dt)
    want /= np.sqrt((np.abs(want) ** 2).sum(-1, keepdims=True) * grid.dx)
    want = phase * np.fft.ifft(stepper.kinetic_phase * np.fft.fft(phase * want))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(dy, meas.record(x_mean, dw, dt))


def test_static_phase_is_the_direct_exponential(grid, harmonic):
    """Without drive or control the half phase is exp(-0.5j V dt / hbar)
    itself, no factor multiplied in, so the density stepper's static phase
    matrix keeps its bits."""
    stepper = DensityStepper(grid, harmonic, None, 1e-3)
    p0 = np.exp(-0.5j * harmonic.potential(grid.x) * 1e-3 / HBAR)
    assert np.array_equal(stepper.half_potential_phase(0.3), p0)
    assert np.array_equal(stepper._phase_matrix(0.3), np.outer(p0, p0.conj()))


def test_step_carries_mean_and_outer_mass_of_new_state(grid, harmonic):
    """The <x> a step leaves in x_mean is mean_x of the state it returned, to
    1e-14 relative, for conditioned and isolated steps; max_outer_mass is the
    largest outer-buffer probability of any row after any step."""
    dt = 1e-3
    stepper = PureStepper(grid, harmonic, MeasurementSpec(1.0), dt)
    psi = np.stack([gaussian_wavefunction(grid, x0, 0.4, 0.8, HBAR) for x0 in (-2.0, 1.0, 6.0)])
    noise = generate(5, [0], 200, dt)[:, 0]
    outer = grid.outer_buffer_mask
    worst = 0.0
    for i in range(201):
        if i < 200:
            psi, _ = stepper.conditioned(psi, i * dt, noise[i])
        else:
            psi = stepper.isolated(psi, i * dt)
        np.testing.assert_allclose(stepper.x_mean, stepper.mean_x(psi), rtol=1e-14, atol=0)
        mass = (np.abs(psi[:, outer]) ** 2).sum(-1) / (np.abs(psi) ** 2).sum(-1)
        worst = max(worst, mass.max())
    assert 0.0 < worst < 1e-6
    assert stepper.max_outer_mass == pytest.approx(worst, rel=1e-12)


def test_off_centre_packet_steps_under_strong_measurement():
    """A packet far from x = 0 under a strong measurement (the Duffing
    Lyapunov grid, packet at x0 = 11, k = 300) steps as the multiplier
    normalized before the unitary does: M is formed at the offsets
    x - <x>, so its exponent stays small wherever the packet sits."""
    grid = PositionGrid(-40.0, 40.0, 512)
    sys_ = SystemSpec(mass=1.0, hbar=2.0, potential_coeffs=(0, 0, -1.6, 0, 0.004),
                      drive_amplitude=7.155, drive_frequency=2.428)
    meas, dt = MeasurementSpec(300.0), 6.25e-4
    stepper = PureStepper(grid, sys_, meas, dt)
    psi = want = gaussian_wavefunction(grid, 11.0, 0.0, 2.0, 2.0)
    noise = generate(3, [0], 40, dt)[:, 0]
    for i, dw in enumerate(noise):
        t = i * dt
        psi, _ = stepper.conditioned(psi, t, dw)
        want = want * meas.multiplier(grid.x - stepper.mean_x(want), dw, dt)
        want /= np.sqrt((np.abs(want) ** 2).sum() * grid.dx)
        phase = stepper.half_potential_phase(t + 0.5 * dt)
        want = phase * np.fft.ifft(stepper.kinetic_phase * np.fft.fft(phase * want))
    assert np.max(np.abs(psi - want)) <= 1e-12 * np.max(np.abs(want))
    assert abs(stepper.x_mean - 11.0) < 1.0


def test_trajectory_loop_density_twin(harmonic):
    """The pure and the density stepper, driven through core.drive from the
    same packet on the same noise, give the same moment series, conditioned
    and isolated.  The two paths apply the same maps through differently
    shaped FFTs, so they differ by roundoff only: about 6e-13 on moments of
    order 1 here, checked at 1e-10.
    """
    g64 = PositionGrid(-12.0, 12.0, 64)
    dt, n_steps, stride = 2e-3, 500, 25
    meas = MeasurementSpec(1.0)
    psi0 = gaussian_wavefunction(g64, 1.0, 0.3, 0.8, HBAR)
    rho0 = gaussian_state(g64, 1.0, 0.3, 0.8, HBAR)
    noise = generate(13, [0], n_steps, dt)[:, 0]
    pstep = PureStepper(g64, harmonic, meas, dt)
    dstep = DensityStepper(g64, harmonic, meas, dt)

    def pure_sample(psi, t):
        return astuple(wavefunction_moments(g64, psi, HBAR, harmonic, t))

    def dens_sample(state, t):
        return astuple(quantum_moments(state, harmonic, t))

    dys = {"pure": [], "dens": []}

    def conditioned(stepper, key):
        def step(state, i, t):
            # The wavefunction stepper reads the <x> its last step left, as in run_conditioned.
            if key == "pure":
                state, dy = stepper.conditioned(state, t, noise[i])
            else:
                state, dy = density_conditioned(stepper, state, t, noise[i])
            dys[key].append(dy)
            return state
        return step

    p_times, pure, _ = drive(psi0, n_steps, dt, stride, conditioned(pstep, "pure"), pure_sample)
    d_times, dens, _ = drive(rho0, n_steps, dt, stride, conditioned(dstep, "dens"), dens_sample)
    assert p_times.size == n_steps // stride + 1
    np.testing.assert_array_equal(p_times, d_times)
    np.testing.assert_allclose(dens[:, :5], pure[:, :5], rtol=0, atol=1e-10)
    np.testing.assert_allclose(dens[:, 6], pure[:, 6], rtol=0, atol=1e-10)
    np.testing.assert_allclose(dens[:, 5], 1.0, rtol=0, atol=1e-10)
    np.testing.assert_allclose(dys["dens"], dys["pure"], rtol=0, atol=1e-12)

    traj = run_conditioned(g64, psi0, harmonic, meas, generate(13, [0], n_steps, dt), dt,
                           sample_every=stride)
    np.testing.assert_array_equal(traj.moments[0], pure)

    _, i_pure, _ = drive(psi0, n_steps, dt, stride, lambda psi, i, t: pstep.isolated(psi, t),
                         pure_sample)
    _, i_dens, _ = drive(rho0, n_steps, dt, stride, lambda st, i, t: dstep.isolated(st, t),
                         dens_sample)
    np.testing.assert_allclose(i_dens[:, :5], i_pure[:, :5], rtol=0, atol=1e-10)
    i_run = run_isolated(rho0, harmonic, dt, n_steps, sample_every=stride)
    np.testing.assert_array_equal(i_run.moments[0], i_dens)


def test_batch_runs_equal_one_path_runs(grid):
    """run_conditioned over R paths gives row for row the moments of R
    one-path runs, bit for bit, under a driven quartic potential."""
    driven = SystemSpec(mass=1.0, hbar=HBAR, potential_coeffs=(0, 0, 0.5, 0, 0.02),
                        drive_amplitude=0.4, drive_frequency=1.3)
    meas = MeasurementSpec(1.0)
    dt, n_steps, stride = 1e-3, 120, 20
    psi0 = gaussian_wavefunction(grid, 1.0, 0.2, 0.8, HBAR)
    noise = generate(21, range(4), n_steps, dt)
    batch = run_conditioned(grid, psi0, driven, meas, noise, dt, sample_every=stride)
    assert batch.moments.shape == (4, n_steps // stride + 1, 7)
    assert batch.moments.flags.c_contiguous
    for r in range(4):
        alone = run_conditioned(grid, psi0, driven, meas, noise[:, [r]], dt, sample_every=stride)
        assert np.array_equal(batch.moments[r], alone.moments[0])


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
    -1.2e-13 (of rho dx, the trace-1 operator), against floors of 1e-9,
    1e-12 and -1e-8.
    """
    g64 = PositionGrid(-4.0, 4.0, 64)
    trap = SystemSpec(mass=4.0, hbar=HBAR, potential_coeffs=(0, 0, 8.0))
    rho0 = 0.5 * (gaussian_state(g64, 0.8, 0.0, 0.4, HBAR).rho
                  + gaussian_state(g64, -0.8, 0.0, 0.4, HBAR).rho)
    state = QuantumState(g64, rho0, HBAR)
    stepper = DensityStepper(g64, trap, MeasurementSpec(k), dt)
    noise = generate(seed, [0], 300, dt)[:, 0]
    try:
        for i in range(300):
            state, _ = density_conditioned(stepper, state, i * dt, noise[i])
    except SupportEscapeError:
        pass
    assert abs(state.trace() - 1.0) <= 1e-9
    assert state.hermiticity_defect() <= 1e-12
    assert np.linalg.eigvalsh(state.rho * g64.dx)[0] >= -1e-8


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
    a = DensityStepper(grid, harmonic, MeasurementSpec(0.0), 1e-3).unconditional(state, 0.0)
    b = DensityStepper(grid, harmonic, None, 1e-3).isolated(state, 0.0)
    assert np.max(np.abs(a.rho - b.rho)) < 1e-12


def test_unconditional_bitwise_matches_per_step_damping(grid, harmonic):
    dt, k = 1e-3, 0.7
    stepper = DensityStepper(grid, harmonic, MeasurementSpec(k), dt)
    state = gaussian_state(grid, 1.0, 0.5, 1.0, HBAR)
    x = grid.x
    want = state.rho
    for i in range(3):
        state = stepper.unconditional(state, i * dt)
        damp = np.exp(-k * (x[:, None] - x[None, :]) ** 2 * dt)
        want = stepper._renormalize(stepper._unitary(want * damp, i * dt))
    assert np.array_equal(state.rho, want)


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
    noise = generate(31, range(n_real), n_steps, dt)
    traj = run_conditioned(grid, psi0, harmonic, meas, noise, dt, sample_every=n_steps)
    finals = np.array([_raw_moments(row[-1, :5]) for row in traj.moments])
    state = gaussian_state(grid, 1.0, 0.0, 1 / np.sqrt(2), HBAR)
    stepper = DensityStepper(grid, harmonic, meas, dt)
    t = 0.0
    for _ in range(n_steps):
        state = stepper.unconditional(state, t)
        t += dt
    ref = _raw_moments(astuple(quantum_moments(state, harmonic, t))[:5])
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
        noise = generate(8, [r], n_steps, dt)[:, 0]
        state = QuantumState(g64, rho0.copy(), HBAR)
        stepper = DensityStepper(g64, harmonic, meas, dt)
        t = 0.0
        c = 0
        for i in range(n_steps):
            state, _ = density_conditioned(stepper, state, t, noise[i])
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
