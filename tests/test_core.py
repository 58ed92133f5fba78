"""Core types: construction, moments, transforms."""

import importlib
import pkgutil
from dataclasses import FrozenInstanceError, astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qcond
from qcond.core import (
    ClassicalEnsemble,
    DegenerateEnsembleError,
    GridResolutionError,
    PositionGrid,
    SupportEscapeError,
    SystemSpec,
    drive,
    ensemble_moments,
    gaussian_state,
    gaussian_wavefunction,
    quantum_moments,
    wavefunction_moments,
)

from phase_space import wigner_moments, wigner_transform


@pytest.fixture
def grid():
    return PositionGrid(-10.0, 10.0, 128)


def test_grid_requires_power_of_two():
    with pytest.raises(ValueError):
        PositionGrid(-1, 1, 100)
    with pytest.raises(ValueError):
        PositionGrid(-1, 1, 8)


def test_quartic_cap_enforced():
    with pytest.raises(ValueError):
        SystemSpec(mass=1.0, potential_coeffs=(0, 0, 0, 0, 0, 1.0))


def test_effective_potential_includes_drive_and_control():
    spec = SystemSpec(mass=1.0, potential_coeffs=(0, 0, 0.5),
                      drive_amplitude=2.0, drive_frequency=3.0, control_offset=0.7)
    x, t = 1.5, 0.4
    expected = 0.5 * x**2 + 2.0 * x * np.cos(3.0 * t) - 0.7 * x
    assert spec.potential(x, t) == pytest.approx(expected, rel=1e-14)
    # force is the exact negative gradient
    expected_f = -(x + 2.0 * np.cos(3.0 * t) - 0.7)
    assert spec.force(x, t) == pytest.approx(expected_f, rel=1e-14)


def test_with_control_equals_a_validated_copy():
    """with_control skips re-validation but builds the spec replace() builds."""
    spec = SystemSpec(mass=2.0, hbar=0.5, potential_coeffs=(0, 0.1, 0.5),
                      drive_amplitude=2.0, drive_frequency=3.0)
    for u in (0.7, np.float64(-1.5), 0):
        copy = spec.with_control(u)
        assert copy == replace(spec, control_offset=float(u))
        assert type(copy.control_offset) is float
        assert spec.control_offset == 0.0
    with pytest.raises(FrozenInstanceError):
        copy.mass = 1.0


def _quartic_horner_force(spec, x, t):
    """The full quartic Horner form of -dV/dx, trailing zero terms included."""
    c0, c1, c2, c3, c4 = spec.potential_coeffs
    f = -(c1 + x * (2.0 * c2 + x * (3.0 * c3 + x * 4.0 * c4)))
    if spec.drive_amplitude != 0.0:
        f = f - spec.drive_amplitude * np.cos(spec.drive_frequency * t)
    if spec.control_offset != 0.0:
        f = f + spec.control_offset
    return f


@pytest.mark.parametrize("driven", [False, True], ids=["plain", "driven-controlled"])
@pytest.mark.parametrize("coeffs", [(0, 0, 0.5), (0, 1.5), (0,), (1.0, -2.0, 0.0, 0.3),
                                    (0, -0.0, -0.0), (0, 0, -1.6, 0, 0.004)],
                         ids=["harmonic", "linear", "free", "cubic", "signed-zeros", "quartic"])
def test_force_at_the_plant_degree_equals_the_quartic_form(coeffs, driven):
    """force skips the zero terms past the potential's degree, and stays bit
    for bit the full quartic Horner form at every finite x, signed zeros and
    |x| = 1e150 included, with or without a drive and a control."""
    x = np.concatenate([[0.0, -0.0, 1e150, -1e150, 5e-324, -1e-300],
                        np.random.default_rng(4).normal(0.0, 10.0, 200)])
    spec = SystemSpec(mass=1.0, potential_coeffs=coeffs)
    if driven:
        spec = replace(spec, drive_amplitude=7.155, drive_frequency=2.428).with_control(-0.3)
    with np.errstate(over="ignore", invalid="ignore"):   # the quartic's x**3 at 1e150
        got, want = spec.force(x, 0.9), _quartic_horner_force(spec, x, 0.9)
        assert got.shape == x.shape and np.array_equal(got.view(np.int64), want.view(np.int64))
        for xs in x[:6]:   # scalars too, as the Gaussian belief passes them
            assert np.float64(spec.force(xs, 0.9)).view(np.int64) == \
                np.float64(_quartic_horner_force(spec, xs, 0.9)).view(np.int64)


def test_with_control_keeps_the_force_at_the_plant_degree():
    harmonic = SystemSpec(mass=1.0, potential_coeffs=(0, 0, 0.5, 0, 0))
    assert harmonic._force_terms == (0.0, 1.0)
    assert SystemSpec(mass=1.0, potential_coeffs=(0, 0, 1, 0, 2))._force_terms == (0, 2, 0, 8)
    assert harmonic.with_control(0.4)._force_terms == (0.0, 1.0)


# --- gaussian_state -----------------------------------------------------------


def test_gaussian_state_minimum_uncertainty(grid):
    st_ = gaussian_state(grid, 0.0, 0.0, 1.0, hbar=1.0)
    m = quantum_moments(st_)
    assert m.x_mean == pytest.approx(0.0, abs=1e-9)
    assert m.p_mean == pytest.approx(0.0, abs=1e-9)
    assert m.c_xx == pytest.approx(1.0, rel=1e-7)
    assert m.c_pp == pytest.approx(0.25, rel=1e-7)
    assert m.c_xp == pytest.approx(0.0, abs=1e-9)
    assert m.purity == pytest.approx(1.0, abs=1e-9)


def test_gaussian_state_translation(grid):
    m = quantum_moments(gaussian_state(grid, 2.0, -1.0, 0.5, hbar=1.0))
    assert m.x_mean == pytest.approx(2.0, abs=1e-6)
    assert m.p_mean == pytest.approx(-1.0, abs=1e-6)


def test_gaussian_state_cpp_scales_with_hbar(grid):
    # analytic: C_pp = hbar^2 / (4 sigma_x^2)
    m = quantum_moments(gaussian_state(grid, 0.0, 0.0, 1.0, hbar=2.0))
    assert m.c_pp == pytest.approx(1.0, rel=1e-7)


def test_gaussian_state_rejects_coarse_grid():
    coarse = PositionGrid(-10, 10, 16)
    with pytest.raises(GridResolutionError):
        gaussian_state(coarse, 0.0, 0.0, 0.5, hbar=1.0)


def test_gaussian_state_rejects_support_escape(grid):
    with pytest.raises(SupportEscapeError):
        gaussian_state(grid, 9.0, 0.0, 1.0, hbar=1.0)


@settings(max_examples=25, deadline=None)
@given(
    x0=st.floats(-3.0, 3.0),
    p0=st.floats(-3.0, 3.0),
    sigma=st.floats(0.4, 1.4),
)
def test_gaussian_state_roundtrip_property(x0, p0, sigma):
    grid = PositionGrid(-12.0, 12.0, 128)
    m = quantum_moments(gaussian_state(grid, x0, p0, sigma, hbar=1.0))
    assert m.x_mean == pytest.approx(x0, abs=2e-6 * max(1, abs(x0)))
    assert m.p_mean == pytest.approx(p0, abs=2e-6 * max(1, abs(p0)))
    assert m.c_xx == pytest.approx(sigma**2, rel=2e-6)
    assert m.c_pp == pytest.approx(1.0 / (4 * sigma**2), rel=2e-6)
    # uncertainty floor for every constructed state
    assert m.c_xx * m.c_pp - m.c_xp**2 >= 0.25 * (1 - 1e-6)


# --- moments ------------------------------------------------------------------


def test_moments_energy_gaussian_harmonic(grid):
    # <H> = C_pp/2m + (C_xx + x^2)/2 * mw^2 ... for x0=0: 0.5*(C_pp + C_xx) here
    sys_ = SystemSpec(mass=1.0, hbar=1.0, potential_coeffs=(0, 0, 0.5))
    m = quantum_moments(gaussian_state(grid, 0.0, 0.0, 1.0, hbar=1.0), sys_, 0.0)
    assert m.energy == pytest.approx(0.625, rel=1e-6)


@pytest.mark.parametrize("n_points", [128, 256, 512])
def test_batched_wavefunction_moments_equal_per_row_calls(n_points):
    """wavefunction_moments of an (R, P, n) batch equals the call on each row
    alone, bit for bit, energy included under a driven quartic potential.
    At n = 128 the packets at x0 = 0.3, sigma_x = 1.5 with p0 = 2.508 and
    2.569 have p_mean values whose libm square and np.square give c_pp
    values one ulp apart, so c_pp checks which square the batch takes.
    One row gives floats."""
    grid = PositionGrid(-10.0, 10.0, n_points)
    driven = SystemSpec(mass=1.3, hbar=1.0, potential_coeffs=(0, 0.1, -1.0, 0.05, 0.25),
                        drive_amplitude=0.4, drive_frequency=1.3)
    rng = np.random.default_rng(n_points)
    psi = np.array([[gaussian_wavefunction(grid, x0, p0, 0.8)
                     * np.exp(1j * rng.normal(0.0, 0.3, n_points))
                     for x0, p0 in rng.uniform(-1.0, 1.0, (3, 2)) * (2.0, 1.0)]
                    for _ in range(7)])
    psi[0, :2] = [gaussian_wavefunction(grid, 0.3, p0, 1.5) for p0 in (2.508, 2.569)]
    for system in (driven, None):
        batch = wavefunction_moments(grid, psi, 1.0, system, 0.37)
        for field in astuple(batch):
            assert field.shape == (7, 3)
        for r in range(7):
            for j in range(3):
                alone = astuple(wavefunction_moments(grid, psi[r, j], 1.0, system, 0.37))
                assert all(isinstance(value, float) for value in alone)
                assert np.array_equal([f[r, j] for f in astuple(batch)], alone, equal_nan=True)


def test_moments_two_point_ensemble():
    ens = ClassicalEnsemble([1.0, -1.0], [0.0, 0.0], [0.5, 0.5])
    m = ensemble_moments(ens)
    assert m.x_mean == pytest.approx(0.0)
    assert m.c_xx == pytest.approx(1.0)


def test_moments_single_particle():
    m = ensemble_moments(ClassicalEnsemble([3.0], [2.0], [1.0]))
    assert (m.x_mean, m.p_mean) == (3.0, 2.0)
    assert m.c_xx == m.c_pp == m.c_xp == 0.0


def test_empty_ensemble_rejected():
    with pytest.raises(DegenerateEnsembleError):
        ClassicalEnsemble(np.array([]), np.array([]), np.array([]))


@pytest.mark.parametrize("x, p, w", [
    ([0.0, 1.0], [0.0, 1.0], [0.5]),                 # shapes differ
    ([0.0, 1.0], [0.0, 1.0], [1.5, -0.5]),           # a negative weight
    ([0.0, 1.0], [0.0, 1.0], [0.5, np.nan]),         # a NaN weight
])
def test_public_ensemble_constructor_checks_its_arrays(x, p, w):
    with pytest.raises(ValueError):
        ClassicalEnsemble(x, p, w)


# --- wigner -------------------------------------------------------------------


def test_wigner_gaussian_positive_and_normalized(grid):
    st_ = gaussian_state(grid, 0.0, 0.0, 1.0, hbar=1.0)
    w = wigner_transform(st_)
    assert w.normalization() == pytest.approx(1.0, abs=1e-6)
    assert w.values.min() > -1e-9  # gaussian wigner is positive
    # peak consistent with normalization: 1/(2 pi sigma_x sigma_p)
    peak = w.values.max()
    assert peak == pytest.approx(1.0 / (2 * np.pi * 1.0 * 0.5), rel=1e-3)


def test_wigner_grid_spacing_matches_conjugate_convention(grid):
    st_ = gaussian_state(grid, 0.0, 0.0, 1.0, hbar=1.0)
    w = wigner_transform(st_)
    assert w.p_grid.size == grid.n_points
    assert w.dp == pytest.approx(2 * np.pi * 1.0 / (grid.n_points * grid.dx), rel=1e-12)


def test_wigner_cat_state_negative_fringes():
    # superposition of displaced gaussians shows interference with W < 0
    grid = PositionGrid(-12.0, 12.0, 128)
    from qcond.core import QuantumState, gaussian_wavefunction

    psi = gaussian_wavefunction(grid, 3.0, 0.0, 0.8, 1.0) + gaussian_wavefunction(
        grid, -3.0, 0.0, 0.8, 1.0
    )
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
    state = QuantumState(grid, np.outer(psi, psi.conj()), 1.0).normalized()
    w = wigner_transform(state)
    assert w.values.min() < -0.01  # fringes
    # brute-force quadrature oracle on the fringe region
    w_slow = _brute_force_wigner(state)
    assert np.max(np.abs(w.values - w_slow)) < 1e-8


def _brute_force_wigner(state):
    """O(n^3) direct quadrature of the transform on the upsampled density."""
    grid = state.grid
    n, dx, hbar = grid.n_points, grid.dx, state.hbar
    # same spectral interpolation trick, independent summation path
    f = np.fft.fft2(state.rho)
    fp = np.zeros((2 * n, 2 * n), dtype=complex)
    ix = np.fft.fftfreq(n, 1.0 / n).astype(int)
    fp[np.ix_(ix, ix)] = f
    half = n // 2
    fp[-half, :] *= 0.5
    fp[half, :] = fp[-half, :]
    fp[:, -half] *= 0.5
    fp[:, half] = fp[:, -half]
    rho_fine = np.fft.ifft2(fp) * 4.0
    du = dx / 2.0
    p_sel = np.fft.fftshift(np.pi * hbar * np.fft.fftfreq(2 * n, du))[::2]
    w = np.zeros((n, n))
    js = np.arange(2 * n) - n
    for i in range(n):
        a = 2 * i + js
        b = 2 * i - js
        ok = (a >= 0) & (a < 2 * n) & (b >= 0) & (b < 2 * n)
        chi = np.zeros(2 * n, dtype=complex)
        chi[ok] = rho_fine[a[ok], b[ok]]
        u = js * du
        for m_idx, p in enumerate(p_sel):
            w[i, m_idx] = (np.sum(np.exp(-2j * p * u / hbar) * chi) * du / (np.pi * hbar)).real
    return w


def test_wigner_moments_match_state_moments(grid):
    sys_ = SystemSpec(mass=1.0, hbar=1.0, potential_coeffs=(0, 0, 0.5))
    st_ = gaussian_state(grid, 1.3, -0.7, 0.8, hbar=1.0)
    m_rho = quantum_moments(st_, sys_, 0.0)
    m_w = wigner_moments(wigner_transform(st_), sys_, 0.0)
    assert m_w.x_mean == pytest.approx(m_rho.x_mean, abs=1e-6)
    assert m_w.p_mean == pytest.approx(m_rho.p_mean, abs=1e-6)
    assert m_w.c_xx == pytest.approx(m_rho.c_xx, rel=1e-6)
    assert m_w.c_pp == pytest.approx(m_rho.c_pp, rel=1e-6)
    assert m_w.c_xp == pytest.approx(m_rho.c_xp, abs=1e-6)
    assert m_w.energy == pytest.approx(m_rho.energy, rel=1e-6)


def test_drive_samples_every_stride_and_returns_final_state():
    """7 steps at stride 3: samples at t = 0, after step 3 and after step 6;
    step 7 runs unsampled, and its result is the returned state."""
    dt = 0.1
    steps = []

    def step(state, i, t):
        steps.append((i, t))
        return state + 1

    times, rows, final = drive(0, 7, dt, 3, step, lambda state, t: [state, t])
    # Bitwise: (i + 1) * dt, not a sum of dt's nor dt * stride * k.
    assert times.tolist() == [0.0, 3 * dt, 6 * dt]
    assert steps == [(i, i * dt) for i in range(7)]
    assert rows.tolist() == [[0, 0.0], [3, 3 * dt], [6, 6 * dt]]
    assert final == 7


def test_drive_callers_look_up_traced_names(monkeypatch):
    """The trajectory runners look the stepping and moment functions up when
    they call them, so a rebinding of the module or class attribute (as the
    benchmark's span tracer does) sees every call.  A wavefunction batch
    takes one moment call per sample, whatever its number of rows."""
    from qcond import cdyn, experiments, feedback, lyap, qdyn
    from qcond.cumulant import GaussianBelief
    from qcond.noise import generate

    calls = {}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((qdyn, "quantum_moments"), (qdyn, "wavefunction_moments"),
                        (feedback, "wavefunction_moments"),
                        (qdyn.DensityStepper, "isolated"), (qdyn.PureStepper, "conditioned"),
                        (cdyn, "ks_step"), (cdyn, "ensemble_moments"),
                        (experiments, "liouville_step")):
        count(owner, name)

    harmonic = SystemSpec(mass=1.0, hbar=1.0, potential_coeffs=(0, 0, 0.5))
    grid = PositionGrid(-8.0, 8.0, 64)
    meas = qdyn.MeasurementSpec(1.0)
    dt, n_steps, stride = 1e-3, 7, 3
    paths = generate(3, range(2), n_steps, dt)
    qdyn.run_isolated(gaussian_state(grid, 0.5, 0.0, 1.0), harmonic, dt, n_steps, stride)
    assert calls == {"isolated": 7, "quantum_moments": 3}
    calls.clear()
    psi0 = gaussian_wavefunction(grid, 0.5, 0.0, 1.0)
    qdyn.run_conditioned(grid, psi0, harmonic, meas, paths, dt, stride)
    assert calls == {"conditioned": 7, "wavefunction_moments": 3}
    calls.clear()
    policies = [feedback.FeedbackPolicy("none"), feedback.FeedbackPolicy("direct", gain=-1.0,
                                                                         smoothing_time=0.8)]
    belief0 = GaussianBelief(0.5, 0.0, 1.0, 0.0, 0.25, quantum=True)
    feedback.run_closed_loop(grid, psi0, belief0, harmonic, meas, policies, paths, dt, stride)
    # Its t = 0 sample is taken, then dropped.
    assert calls == {"conditioned": 7, "wavefunction_moments": 3}
    calls.clear()
    rng = np.random.default_rng(0)
    ens = ClassicalEnsemble(rng.normal(0, 1, 64), rng.normal(0, 1, 64), np.full(64, 1 / 64))
    cdyn.run_conditioned_classical(ens, harmonic, meas, paths[:, :1], dt, stride)
    assert calls == {"ks_step": 7, "ensemble_moments": 3}
    calls.clear()
    cfg = {"experiment": {"name": "passivity"},
           "system": {"mass": 1.0, "hbar": 0.0, "potential_coeffs": (0, 0, 0.5),
                      "drive_amplitude": 0.0, "drive_frequency": 0.0},
           "measurement": {"k": 1.0},
           "run": {"dt": dt, "horizon": n_steps * dt, "sample_stride": stride,
                   "n_realizations": 2},
           "passivity": {"n_particles": 64, "x0": 0.5, "p0": 0.0, "sigma_x": 1.0,
                         "sigma_p": 1.0}}
    experiments.run_passivity_experiment(cfg, 5, workers=1)
    # Two filtered realizations as one batch, and one Liouville reference;
    # the reference's moments go through experiments' own ensemble_moments.
    assert calls == {"ks_step": 7, "ensemble_moments": 3, "liouville_step": 7}
    calls.clear()
    # A measured pair batch reads its t = 0 centroids once and steps on drive.
    count(qdyn.PureStepper, "mean_x")
    pair0 = np.stack([psi0, gaussian_wavefunction(grid, 0.55, 0.0, 1.0)])
    lyap.paired_run(grid, pair0, harmonic, meas, paths, dt, 0.05, stride)
    assert calls == {"conditioned": 7, "mean_x": 1}


@pytest.mark.parametrize("n_steps", [50, 200])
def test_runs_step_every_increment_row(monkeypatch, n_steps):
    """paired_run and run_closed_loop take one conditioned step per row of
    the increments they are given, and sample up to the last."""
    from qcond import feedback, lyap, qdyn
    from qcond.cumulant import GaussianBelief
    from qcond.noise import generate

    calls = []
    conditioned = qdyn.PureStepper.conditioned

    def counted(self, *args):
        calls.append(args[0].shape[:-1])
        return conditioned(self, *args)

    monkeypatch.setattr(qdyn.PureStepper, "conditioned", counted)
    harmonic = SystemSpec(mass=1.0, hbar=1.0, potential_coeffs=(0, 0, 0.5))
    grid = PositionGrid(-8.0, 8.0, 64)
    meas = qdyn.MeasurementSpec(1.0)
    dt, stride = 1e-3, 10
    paths = generate(3, range(2), n_steps, dt)
    psi0 = gaussian_wavefunction(grid, 0.5, 0.0, 1.0)
    pair0 = np.stack([psi0, gaussian_wavefunction(grid, 0.55, 0.0, 1.0)])
    pairs = lyap.paired_run(grid, pair0, harmonic, meas, paths, dt, 0.05, stride)
    assert calls == [(2, 2)] * n_steps
    calls.clear()
    belief0 = GaussianBelief(0.5, 0.0, 1.0, 0.0, 0.25, quantum=True)
    loops = feedback.run_closed_loop(grid, psi0, belief0, harmonic, meas,
                                     [feedback.FeedbackPolicy("none")], paths, dt, stride)
    assert calls == [(2, 1)] * n_steps
    for run in (pairs, loops):
        assert run.times == pytest.approx(dt * stride * np.arange(1, n_steps // stride + 1))


def test_every_export_resolves():
    """Every name in the __all__ of qcond and of each qcond module is an
    attribute of it, so `from qcond.<module> import *` cannot fail on a stale
    name."""
    modules = ["qcond"] + [f"qcond.{info.name}" for info in pkgutil.iter_modules(qcond.__path__)]
    assert "qcond.noise" in modules
    for name in modules:
        module = importlib.import_module(name)
        missing = [key for key in getattr(module, "__all__", ()) if not hasattr(module, key)]
        assert not missing, f"{name}.__all__ names {missing}"
