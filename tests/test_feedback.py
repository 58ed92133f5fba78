"""Feedback controllers and the cooling comparison."""

import numpy as np
import pytest

from qcond import feedback
from qcond.core import PositionGrid, QcondError, SystemSpec
from qcond.cumulant import GaussianBelief
from qcond.feedback import (
    FeedbackPolicy,
    cooling_experiment,
    direct_control,
    estimator_control,
    paired_gap,
    run_closed_loop,
)
from qcond.noise import generate
from qcond.qdyn import MeasurementSpec

# Quartic-well plant with a soft harmonic floor; gains fixed by grid search
# (see configs in qcond.experiments): the direct law u = -g * I_smooth damps
# with g < 0 because a one-pole lag of the position record approximates
# x - (sin phi / omega) * xdot.
PLANT = SystemSpec(mass=1.0, hbar=1.0, potential_coeffs=(0, 0, 0.25, 0, 0.25))
GRID = PositionGrid(-10.0, 10.0, 256)
MEAS = MeasurementSpec(0.5)
STATE0 = (GRID, 1.5, 0.0, 0.5)
DIRECT = FeedbackPolicy("direct", gain=-1.0, smoothing_time=0.8, u_max=5.0)
ESTIMATOR = FeedbackPolicy("estimator", gain=3.0, u_max=5.0)


def test_policy_validation():
    with pytest.raises(ValueError):
        FeedbackPolicy("pid")
    with pytest.raises(ValueError):
        FeedbackPolicy("direct", u_max=0.0)


def test_direct_control_zero_record():
    u = direct_control(np.zeros(200), FeedbackPolicy("direct", gain=2.0, smoothing_time=0.1), 1e-3)
    np.testing.assert_array_equal(u, 0.0)


def test_direct_control_constant_current_steady_state():
    dt = 1e-3
    tau = 0.05
    c = 0.7  # constant dy/dt
    pol = FeedbackPolicy("direct", gain=2.0, smoothing_time=tau)
    u = direct_control(np.full(1000, c * dt), pol, dt)
    # after ~3 tau the smoothed current reaches c, so u -> -g c
    settle = int(3 * tau / dt)
    assert u[settle] == pytest.approx(-2.0 * c, rel=0.06)
    assert u[-1] == pytest.approx(-2.0 * c, rel=1e-3)


def test_direct_control_clamps():
    pol = FeedbackPolicy("direct", gain=100.0, smoothing_time=0.05, u_max=0.3)
    u = direct_control(np.full(500, 1e-3), pol, 1e-3)
    assert np.max(np.abs(u)) <= 0.3


def test_direct_control_requires_smoothing():
    with pytest.raises(ValueError):
        direct_control(np.zeros(10), FeedbackPolicy("direct", smoothing_time=1e-3), 1e-3)


def test_estimator_control_arithmetic():
    bel = GaussianBelief(0.0, 2.0, 0.1, 0.0, 0.1, quantum=True)
    assert estimator_control(bel, FeedbackPolicy("estimator", gain=1.5, u_max=10)) == -3.0
    assert estimator_control(bel, FeedbackPolicy("estimator", gain=1.5, u_max=1.0)) == -1.0
    bel0 = GaussianBelief(1.0, 0.0, 0.1, 0.0, 0.1, quantum=True)
    assert estimator_control(bel0, FeedbackPolicy("estimator", gain=1.5, u_max=10)) == 0.0


def test_zero_gain_identical_to_none():
    dt = 1e-3
    noise = generate(3, 0, 2000, dt)
    base = run_closed_loop(STATE0, PLANT, MEAS, [FeedbackPolicy("none")], noise)[0]
    zero = run_closed_loop(STATE0, PLANT, MEAS,
                           [FeedbackPolicy("direct", gain=0.0, smoothing_time=0.8)], noise)[0]
    np.testing.assert_allclose(zero.energy, base.energy, atol=1e-12)


def test_policy_rows_match_one_policy_runs():
    """Each policy row of one batched closed loop equals that policy run alone."""
    noise = generate(5, 0, 1500, 1e-3)
    policies = [FeedbackPolicy("none"), DIRECT, ESTIMATOR]
    batch = run_closed_loop(STATE0, PLANT, MEAS, policies, noise, sample_stride=50)
    assert len(batch) == 3
    for pol, row in zip(policies, batch):
        alone = run_closed_loop(STATE0, PLANT, MEAS, [pol], noise, sample_stride=50)[0]
        assert np.array_equal(row.energy, alone.energy)
        assert row.final_control == alone.final_control


def test_aborted_realization_is_retried_and_recorded(monkeypatch):
    """An abort in any policy row reruns the realization for every policy
    under the next stream index, and the result names the retried stream.
    The aborted chunk is rerun one stream at a time, so the indices are those
    of a stream-by-stream loop."""
    calls = []

    def abort_stream_0(*args, **kwargs):
        streams = [path.stream_index for path in args[4]]
        calls.append(streams)
        if 0 in streams:
            raise QcondError("forced abort")
        return run_closed_loop(*args, **kwargs)

    monkeypatch.setattr(feedback, "run_closed_loop", abort_stream_0)
    policies = {"none": FeedbackPolicy("none"), "estimator": ESTIMATOR}
    with pytest.warns(UserWarning, match="realization 0 aborted"):
        results = cooling_experiment(STATE0, PLANT, MEAS, policies, n_realizations=2,
                                     horizon=0.2, dt=1e-3, master_seed=3, sample_stride=50)
    assert calls == [[0, 1], [0], [1], [2]]
    for res in results.values():
        assert res.stream_indices.tolist() == [1, 2]
        assert res.retried_streams == (0,)


def test_chunked_cooling_matches_per_stream_runs(monkeypatch):
    """Seven realizations of three policies at n = 256 run as chunks of 5 and
    2 streams; every statistic equals the one built from per-stream runs."""
    calls = []

    def record_streams(*args, **kwargs):
        calls.append([path.stream_index for path in args[4]])
        return run_closed_loop(*args, **kwargs)

    monkeypatch.setattr(feedback, "run_closed_loop", record_streams)
    policies = {"none": FeedbackPolicy("none"), "direct": DIRECT, "estimator": ESTIMATOR}
    n_real, horizon, dt, stride = 7, 0.2, 1e-3, 20
    results = cooling_experiment(STATE0, PLANT, MEAS, policies, n_realizations=n_real,
                                 horizon=horizon, dt=dt, master_seed=3, sample_stride=stride)
    assert calls == [[0, 1, 2, 3, 4], [5, 6]]
    alone = [run_closed_loop(STATE0, PLANT, MEAS, list(policies.values()),
                             generate(3, k, int(round(horizon / dt)), dt), stride)
             for k in range(n_real)]
    for j, name in enumerate(policies):
        energies = np.stack([runs[j].energy for runs in alone])
        res = results[name]
        assert res.stream_indices.tolist() == list(range(n_real))
        assert np.array_equal(res.energy_mean, energies.mean(axis=0))
        assert np.array_equal(res.energy_se, energies.std(axis=0, ddof=1) / np.sqrt(n_real))
        assert np.array_equal(res.steady_per_realization,
                              energies[:, energies.shape[1] // 2:].mean(axis=1))


def test_vanishing_actuation_limit_collapses_policies():
    dt = 1e-3
    noise = generate(3, 1, 2000, dt)
    base = run_closed_loop(STATE0, PLANT, MEAS, [FeedbackPolicy("none")], noise)[0]
    for pol in (FeedbackPolicy("direct", gain=-1.0, smoothing_time=0.8, u_max=1e-300),
                FeedbackPolicy("estimator", gain=3.0, u_max=1e-300)):
        run = run_closed_loop(STATE0, PLANT, MEAS, [pol], noise)[0]
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
    energies = np.empty((n_real, ref.size))
    for r in range(n_real):
        noise = generate(17, r, n, dt)
        run = run_closed_loop((big, 1.0, 0.0, 1 / np.sqrt(2)), harmonic, meas,
                              [FeedbackPolicy("none")], noise, sample_stride=100)[0]
        energies[r] = run.energy
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
    policies = {"none": FeedbackPolicy("none"), "direct": DIRECT, "estimator": ESTIMATOR}
    results = cooling_experiment(STATE0, PLANT, MEAS, policies,
                                 n_realizations=COOLING_REALIZATIONS, horizon=horizon,
                                 dt=1e-3, master_seed=2024, sample_stride=100)
    gap_nd, se_nd = paired_gap(results["none"], results["direct"])
    gap_de, se_de = paired_gap(results["direct"], results["estimator"])
    assert gap_nd > 3 * se_nd
    assert gap_de > 3 * se_de
    # steady window is the second half of the horizon
    for res in results.values():
        half = res.times.size // 2
        assert res.times[half] >= horizon / 2
        assert res.steady_mean == pytest.approx(res.energy_mean[half:].mean(), rel=1e-12)


def test_estimator_gain_sweep_u_shaped():
    """Too little gain under-damps, too much feeds noise back."""
    gains = (0.15, 3.0, 80.0)
    steadies = []
    for g in gains:
        pol = FeedbackPolicy("estimator", gain=g, u_max=50.0)
        vals = []
        for r in range(6):
            noise = generate(31, r, 20_000, 1e-3)
            run = run_closed_loop(STATE0, PLANT, MEAS, [pol], noise, sample_stride=100)[0]
            vals.append(run.energy[run.energy.size // 2:].mean())
        steadies.append(np.mean(vals))
    assert steadies[1] < steadies[0]
    assert steadies[1] < steadies[2]


def test_estimator_robust_to_belief_offset():
    """Offset initial belief converges; steady state unchanged within error."""
    dt, n = 1e-3, 20_000
    vals_good, vals_off = [], []
    for r in range(8):
        noise = generate(41, r, n, dt)
        good = run_closed_loop(STATE0, PLANT, MEAS, [ESTIMATOR], noise, sample_stride=100)[0]
        bel0 = GaussianBelief(1.5 + 0.25, 0.0, 0.5**2, 0.0, 1.0 / (4 * 0.5**2),
                              quantum=True, hbar=1.0)
        off = run_closed_loop(STATE0, PLANT, MEAS, [ESTIMATOR], noise,
                              sample_stride=100, belief0=bel0)[0]
        vals_good.append(good.energy[good.energy.size // 2:].mean())
        vals_off.append(off.energy[off.energy.size // 2:].mean())
    d = np.array(vals_off) - np.array(vals_good)
    se = d.std(ddof=1) / np.sqrt(d.size)
    assert abs(d.mean()) < 3 * max(se, 1e-3)
