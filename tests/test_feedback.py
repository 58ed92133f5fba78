"""Feedback controllers and the cooling comparison."""

import numpy as np
import pytest

from qcond import experiments, feedback
from qcond.core import PositionGrid, SystemSpec, gaussian_wavefunction
from qcond.cumulant import GaussianBelief, centroid_step
from qcond.feedback import FeedbackPolicy, run_closed_loop
from qcond.noise import generate
from qcond.qdyn import MeasurementSpec, PureStepper

# Quartic-well plant with a soft harmonic floor; gains fixed by grid search
# (see configs in qcond.experiments): the direct law u = -g * I_smooth damps
# with g < 0 because a one-pole lag of the position record approximates
# x - (sin phi / omega) * xdot.
PLANT = SystemSpec(mass=1.0, hbar=1.0, potential_coeffs=(0, 0, 0.25, 0, 0.25))
GRID = PositionGrid(-10.0, 10.0, 256)
MEAS = MeasurementSpec(0.5)
PSI0 = gaussian_wavefunction(GRID, 1.5, 0.0, 0.5)
BELIEF0 = GaussianBelief(1.5, 0.0, 0.5**2, 0.0, 1.0 / (4 * 0.5**2), quantum=True)
# The start packet and its belief, as the CLI builds them for the cooling section.
START = (GRID, PSI0, BELIEF0)
DIRECT = FeedbackPolicy("direct", gain=-1.0, smoothing_time=0.8, u_max=5.0)
ESTIMATOR = FeedbackPolicy("estimator", gain=3.0, u_max=5.0)


def test_policy_validation():
    with pytest.raises(ValueError):
        FeedbackPolicy("pid")
    with pytest.raises(ValueError):
        FeedbackPolicy("direct", u_max=0.0)


def _direct_controls(record_increments, policy, dt):
    """u series of the direct law over a record; u_n uses increments through n."""
    law = feedback._control_arrays([policy], dt)
    smoothed = np.zeros(1)
    return np.array([feedback._control_law(smoothed, dy, dt, *law)[0]
                     for dy in record_increments])


def test_direct_control_zero_record():
    u = _direct_controls(np.zeros(200), FeedbackPolicy("direct", gain=2.0, smoothing_time=0.1), 1e-3)
    np.testing.assert_array_equal(u, 0.0)


def test_direct_control_constant_current_steady_state():
    dt = 1e-3
    tau = 0.05
    c = 0.7  # constant dy/dt
    pol = FeedbackPolicy("direct", gain=2.0, smoothing_time=tau)
    u = _direct_controls(np.full(1000, c * dt), pol, dt)
    # after ~3 tau the smoothed current reaches c, so u -> -g c
    settle = int(3 * tau / dt)
    assert u[settle] == pytest.approx(-2.0 * c, rel=0.06)
    assert u[-1] == pytest.approx(-2.0 * c, rel=1e-3)


def test_direct_control_clamps():
    pol = FeedbackPolicy("direct", gain=100.0, smoothing_time=0.05, u_max=0.3)
    u = _direct_controls(np.full(500, 1e-3), pol, 1e-3)
    assert np.max(np.abs(u)) <= 0.3


def test_direct_control_requires_smoothing():
    with pytest.raises(ValueError, match="smoothing_time must be at least 5"):
        feedback._control_arrays([FeedbackPolicy("none"),
                                  FeedbackPolicy("direct", smoothing_time=1e-3)], 1e-3)


def test_estimator_law_sets_final_control():
    """After one step an estimator row's control is -gain * p of its belief,
    clamped at +-u_max, and 0 at zero gain.  The first step runs under zero
    control, so every row sees the record of one uncontrolled step."""
    dt = 1e-3
    noise = generate(3, [0], 1, dt)
    _, dy = PureStepper(GRID, PLANT, MEAS, dt).conditioned(PSI0[None], 0.0, noise[0])
    p = centroid_step(BELIEF0, PLANT, MEAS, dt, MEAS.innovation(dy[0], 1.5, dt)).p_mean
    assert p < -1e-3   # the quartic well's force pushes the packet back
    policies = [FeedbackPolicy("estimator", gain=g, u_max=u_max)
                for g, u_max in ((1.5, 10.0), (1.5, 1e-3), (-1.5, 1e-3), (0.0, 10.0))]
    run = run_closed_loop(*START, PLANT, MEAS, policies, noise, dt, sample_stride=1)
    assert run.final_control[0].tolist() == [-1.5 * p, 1e-3, -1e-3, 0.0]


def test_zero_gain_identical_to_none():
    dt = 1e-3
    noise = generate(3, [0], 2000, dt)
    base = run_closed_loop(*START, PLANT, MEAS, [FeedbackPolicy("none")], noise, dt)
    zero = run_closed_loop(*START, PLANT, MEAS,
                           [FeedbackPolicy("direct", gain=0.0, smoothing_time=0.8)], noise, dt)
    np.testing.assert_allclose(zero.energy, base.energy, atol=1e-12)


def test_policy_rows_match_one_policy_runs():
    """Each policy row of one batched closed loop equals that policy run alone."""
    noise = generate(5, [0], 1500, 1e-3)
    policies = [FeedbackPolicy("none"), DIRECT, ESTIMATOR]
    batch = run_closed_loop(*START, PLANT, MEAS, policies, noise, 1e-3, sample_stride=50)
    assert batch.energy.shape == (1, 3, 30) and batch.final_control.shape == (1, 3)
    for j, pol in enumerate(policies):
        alone = run_closed_loop(*START, PLANT, MEAS, [pol], noise, 1e-3, sample_stride=50)
        assert np.array_equal(batch.energy[0, j], alone.energy[0, 0])
        assert batch.final_control[0, j] == alone.final_control[0, 0]


def _cooling(n_real, horizon, stride, seed, workers=1):
    """CSV tables by name and metadata of a cooling experiment on this
    module's plant, grid, measurement, start packet and policies."""
    cfg = {"experiment": {"name": "cooling"},
           "system": {"mass": 1.0, "hbar": 1.0, "potential_coeffs": [0.0, 0.0, 0.25, 0.0, 0.25],
                      "drive_amplitude": 0.0, "drive_frequency": 0.0},
           "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 256},
           "measurement": {"k": 0.5},
           "run": {"dt": 1e-3, "horizon": horizon, "n_realizations": n_real,
                   "master_seed": seed, "sample_stride": stride},
           "cooling": {"x0": 1.5, "p0": 0.0, "sigma_x": 0.5, "policies": "none,direct,estimator",
                       "direct_gain": -1.0, "direct_smoothing": 0.8, "estimator_gain": 3.0,
                       "u_max": 5.0}}
    res = experiments.run_cooling_experiment(cfg, seed, workers)
    return {series.name: series.rows for series in res.series}, res.metadata


def test_chunked_cooling_matches_per_stream_runs(monkeypatch):
    """Seven realizations of three policies at n = 256 run as chunks of 5 and
    2 streams; the energy tables and steady values equal those of per-stream runs."""
    calls = []

    def record_streams(master_seed, streams, *args):
        calls.append(list(streams))
        return generate(master_seed, streams, *args)

    monkeypatch.setattr(experiments, "generate", record_streams)
    policies = [FeedbackPolicy("none"), DIRECT, ESTIMATOR]
    n_real, n_steps, dt, stride = 7, 200, 1e-3, 20
    tables, meta = _cooling(n_real, n_steps * dt, stride, seed=3)
    assert calls == [[0, 1, 2, 3, 4], [5, 6]]
    assert meta["n_realizations"] == n_real and meta["n_batches"] == 2
    alone = [run_closed_loop(*START, PLANT, MEAS, policies, generate(3, [k], n_steps, dt), dt,
                             stride)
             for k in range(n_real)]
    root_n = np.sqrt(n_real)
    for j, name in enumerate(meta["policies"]):
        energies = np.stack([run.energy[0, j] for run in alone])
        steady = energies[:, energies.shape[1] // 2:].mean(axis=1)
        table = tables[f"cooling_{name}"]
        assert np.array_equal(table[:, 0], alone[0].times)
        assert np.array_equal(table[:, 1], energies.mean(axis=0))
        assert np.array_equal(table[:, 2], energies.std(axis=0, ddof=1) / root_n)
        assert np.array_equal(tables["cooling_summary"][j],
                              [j, steady.mean(), steady.std(ddof=1) / root_n])


def test_vanishing_actuation_limit_collapses_policies():
    dt = 1e-3
    noise = generate(3, [1], 2000, dt)
    base = run_closed_loop(*START, PLANT, MEAS, [FeedbackPolicy("none")], noise, dt)
    for pol in (FeedbackPolicy("direct", gain=-1.0, smoothing_time=0.8, u_max=1e-300),
                FeedbackPolicy("estimator", gain=3.0, u_max=1e-300)):
        run = run_closed_loop(*START, PLANT, MEAS, [pol], noise, dt)
        np.testing.assert_allclose(run.energy, base.energy, rtol=1e-9)


def test_no_feedback_heating_rate_is_backaction():
    """Baseline: d<H0>/dt = D_BA / m for the harmonic plant.

    The identity is exact for the averaged (unconditional) evolution, so
    the reference curve pins the slope; the no-feedback conditioned
    ensemble must agree with that curve within Monte-Carlo error.
    """
    from qcond.qdyn import DensityStepper
    from qcond.core import gaussian_state, quantum_moments

    harmonic = SystemSpec(mass=1.0, hbar=1.0, potential_coeffs=(0, 0, 0.5))
    k = 0.5
    meas = MeasurementSpec(k)
    dt, horizon = 2e-3, 8.0
    n = int(round(horizon / dt))
    big = PositionGrid(-16.0, 16.0, 128)

    state = gaussian_state(big, 1.0, 0.0, 1 / np.sqrt(2), 1.0)
    stepper = DensityStepper(big, harmonic, meas, dt)
    t = 0.0
    ref = []
    for i in range(n):
        state = stepper.unconditional(state, t)
        t = (i + 1) * dt
        if (i + 1) % 100 == 0:
            ref.append(quantum_moments(state, harmonic, t).energy)
    ref = np.array(ref)
    times = dt * 100 * (1 + np.arange(ref.size))
    slope_ref = np.polyfit(times, ref, 1)[0]
    assert slope_ref == pytest.approx(k * 1.0**2 / 1.0, rel=1e-4)  # D_BA/m exactly

    n_real = 96
    paths = generate(17, range(n_real), n, dt)
    belief0 = GaussianBelief(1.0, 0.0, 0.5, 0.0, 0.5, quantum=True)
    runs = run_closed_loop(big, gaussian_wavefunction(big, 1.0, 0.0, 1 / np.sqrt(2)), belief0,
                           harmonic, meas, [FeedbackPolicy("none")], paths, dt,
                           sample_stride=100)
    energies = runs.energy[:, 0]
    mean_e = energies.mean(axis=0)
    se_e = energies.std(axis=0, ddof=1) / np.sqrt(n_real)
    z = np.abs(mean_e - ref) / se_e
    # checkpoints, not the max over the whole correlated series
    for idx in np.linspace(0, ref.size - 1, 5).astype(int):
        assert z[idx] < 3.0, f"z={z[idx]:.2f} at t={times[idx]:.2f}"


COOLING_REALIZATIONS = 40


def test_cooling_ordering_paired():
    """none > direct > estimator on steady energy, by paired gaps.

    Each gap must exceed z_alpha = 3 standard errors, so with per-realization
    gap mean mu and sd sigma the test passes with power about
    Phi(sqrt(N) * mu / sigma - 3), and N = ceil(((3 + z_beta) * sigma / mu)**2)
    realizations reach power Phi(z_beta).  mu and sigma come from a pilot of
    this test's plant, grid, policies, horizon, dt and stride at master seeds
    7 and 11, streams 0-39 each (80 realizations, none aborted), steady
    window the second half of the horizon:

    - direct - estimator: mu = 0.649, sigma = 0.658 (sigma/mu = 1.01;
      1.08 and 0.92 per seed), skewness 1.8.  Power 0.99 needs N = 30.
    - none - direct: mu = 12.6, sigma = 10.9 (sigma/mu = 0.86; 1.01 and
      0.73 per seed), skewness 1.3.  Power 0.99 needs N = 22.

    COOLING_REALIZATIONS = 40 adds margin for the skewed, seed-dependent
    ratio: it keeps power at 0.97 up to sigma/mu = 1.27.  At N = 40 the
    normal-approximation power is 0.9994 for direct - estimator and above
    0.9999 for none - direct; in 20,000 bootstrap resamples of the 80
    pilot rows both gaps pass every time (at N = 12: 80%).  A change
    to the plant, gains or horizon should re-run the pilot and re-derive
    N; the seed and the 3-sigma bound stay fixed.
    """
    horizon = 25.0
    tables, meta = _cooling(COOLING_REALIZATIONS, horizon, 100, seed=2024, workers=2)
    # The gaps are of the alphabetically first policy minus the second.
    gap_dn, se_nd = meta["paired_gap_direct_minus_none"]
    gap_de, se_de = meta["paired_gap_direct_minus_estimator"]
    assert -gap_dn > 3 * se_nd
    assert gap_de > 3 * se_de
    # steady window is the second half of the horizon
    times = tables["cooling_none"][:, 0]
    half = times.size // 2
    assert times[half] >= horizon / 2
    for j, name in enumerate(meta["policies"]):
        assert tables["cooling_summary"][j, 1] == pytest.approx(
            tables[f"cooling_{name}"][half:, 1].mean(), rel=1e-12)


def test_estimator_gain_sweep_u_shaped():
    """Too little gain under-damps, too much feeds noise back."""
    gains = (0.15, 3.0, 80.0)
    policies = [FeedbackPolicy("estimator", gain=g, u_max=50.0) for g in gains]
    paths = generate(31, range(6), 20_000, 1e-3)
    runs = run_closed_loop(*START, PLANT, MEAS, policies, paths, 1e-3, sample_stride=100)
    # steadies[j]: steady energy under gain j, averaged over the paths
    steadies = runs.energy[:, :, runs.times.size // 2:].mean(axis=2).mean(axis=0)
    assert steadies[1] < steadies[0]
    assert steadies[1] < steadies[2]


def test_estimator_robust_to_belief_offset():
    """Offset initial belief converges; steady state unchanged within error."""
    dt, n = 1e-3, 20_000
    paths = generate(41, range(8), n, dt)
    bel0 = GaussianBelief(1.5 + 0.25, 0.0, 0.5**2, 0.0, 1.0 / (4 * 0.5**2),
                          quantum=True, hbar=1.0)
    good = run_closed_loop(*START, PLANT, MEAS, [ESTIMATOR], paths, dt, sample_stride=100)
    off = run_closed_loop(GRID, PSI0, bel0, PLANT, MEAS, [ESTIMATOR], paths, dt,
                          sample_stride=100)
    half = good.times.size // 2
    d = off.energy[:, 0, half:].mean(axis=1) - good.energy[:, 0, half:].mean(axis=1)
    se = d.std(ddof=1) / np.sqrt(d.size)
    assert abs(d.mean()) < 3 * max(se, 1e-3)
