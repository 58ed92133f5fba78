"""Classical evolution: Liouville drift, conditioned weighting, resampling."""

import math
from dataclasses import astuple, fields

import numpy as np
import pytest

from qcond.core import ClassicalEnsemble, DegenerateEnsembleError, SystemSpec, ensemble_moments
from qcond.cdyn import (
    ESS_HARD_FLOOR,
    RESAMPLE_ESS_FRACTION,
    WeightClipCounter,
    ks_step,
    liouville_step,
    newton_trajectory,
    resample,
    run_conditioned_classical,
)
from qcond.noise import generate, substream_rng
from qcond.qdyn import MeasurementSpec


@pytest.fixture
def harmonic():
    return SystemSpec(mass=1.0, hbar=0.0, potential_coeffs=(0, 0, 0.5))


def test_liouville_harmonic_quarter_period(harmonic):
    ens = ClassicalEnsemble([1.0], [0.0], [1.0])
    dt = 1e-3
    n = int(round(np.pi / 2 / dt))
    t = 0.0
    for _ in range(n):
        ens = liouville_step(ens, harmonic, dt, t)
        t += dt
    # compare at the actually integrated time
    assert ens.x[0] == pytest.approx(np.cos(t), abs=1e-6)
    assert ens.p[0] == pytest.approx(-np.sin(t), abs=1e-6)


def test_liouville_weights_conserved(harmonic):
    ens = ClassicalEnsemble([0.5, -0.3], [0.1, 0.2], [0.3, 0.7])
    t = 0.0
    for _ in range(500):
        ens = liouville_step(ens, harmonic, 1e-3, t)
        t += 1e-3
    np.testing.assert_array_equal(ens.w, [0.3, 0.7])


def test_liouville_time_reversal(harmonic):
    rng = np.random.default_rng(1)
    ens0 = ClassicalEnsemble(rng.normal(0, 1, 50), rng.normal(0, 1, 50), np.full(50, 0.02))
    ens = ens0
    dt = 1e-3
    ts = []
    t = 0.0
    for _ in range(700):
        ens = liouville_step(ens, harmonic, dt, t)
        ts.append(t)
        t += dt
    # flip momenta, run forward, flip back == time reversal for V(x)
    ens = ClassicalEnsemble(ens.x, -ens.p, ens.w)
    for t_back in reversed(ts):
        # reversed drive phase: harmonic has none, so plain steps suffice
        ens = liouville_step(ens, harmonic, dt, t_back)
    ens = ClassicalEnsemble(ens.x, -ens.p, ens.w)
    np.testing.assert_allclose(ens.x, ens0.x, atol=1e-9)
    np.testing.assert_allclose(ens.p, ens0.p, atol=1e-9)


# --- ks_step ------------------------------------------------------------------


def test_ks_zero_innovation_when_collocated(harmonic):
    n = 16
    rng = np.random.default_rng(2)
    w = rng.random(n)
    w /= w.sum()
    ens = ClassicalEnsemble(np.ones(n), rng.normal(0, 1, n), w)
    out, _ = ks_step(ens, harmonic, MeasurementSpec(1.0), 1e-3, 0.05, 0.0)
    np.testing.assert_allclose(out.w, ens.w, atol=1e-15)


def test_ks_two_cluster_weight_shift(harmonic):
    # 2x8 identical particles at +-1 behave as the two-point formula
    k = 0.5
    dw = 0.02
    n_half = 8
    xs = np.concatenate([np.ones(n_half), -np.ones(n_half)])
    ens = ClassicalEnsemble(xs, np.zeros(16), np.full(16, 1 / 16))
    out, dy = ks_step(ens, harmonic, MeasurementSpec(k), 1e-3, dw, 0.0)
    factor = np.sqrt(8 * k) * dw
    w_plus = float(np.sum(out.w[:n_half]))
    w_minus = float(np.sum(out.w[n_half:]))
    assert w_plus == pytest.approx((1 + factor) / 2, rel=1e-12)
    assert w_minus == pytest.approx((1 - factor) / 2, rel=1e-12)
    assert dy == pytest.approx(dw / np.sqrt(8 * k), abs=1e-15)


def test_ks_requires_healthy_ess(harmonic):
    w = np.zeros(64)
    w[0] = 0.97
    w[1:] = 0.03 / 63
    ens = ClassicalEnsemble(np.linspace(-1, 1, 64), np.zeros(64), w)
    assert ens.ess() < 10
    with pytest.raises(DegenerateEnsembleError):
        ks_step(ens, harmonic, MeasurementSpec(1.0), 1e-3, 0.01, 0.0)


def test_ks_passivity_noise_average(harmonic):
    """Averaged conditioned moments = Liouville moments (classical passivity)."""
    rng = np.random.default_rng(0)
    n_part = 400
    ens0 = ClassicalEnsemble(
        rng.normal(1.0, 0.7, n_part), rng.normal(0.0, 0.7, n_part), np.full(n_part, 1 / n_part)
    )
    meas = MeasurementSpec(1.0)
    n_real, n_steps, dt = 120, 400, 1e-3
    noise = generate(5, range(n_real), n_steps, dt)
    traj = run_conditioned_classical(ens0, harmonic, meas, noise, dt, sample_every=n_steps)
    x, p, c_xx, c_xp, c_pp = traj.moments[:, -1, :5].T
    finals = np.column_stack([x, p, c_xx + x**2, c_xp + x * p, c_pp + p**2])
    ens = ens0
    t = 0.0
    for _ in range(n_steps):
        ens = liouville_step(ens, harmonic, dt, t)
        t += dt
    m = ensemble_moments(ens, harmonic, t)
    ref = np.array([m.x_mean, m.p_mean, m.c_xx + m.x_mean**2,
                    m.c_xp + m.x_mean * m.p_mean, m.c_pp + m.p_mean**2])
    mean = finals.mean(axis=0)
    se = finals.std(axis=0, ddof=1) / np.sqrt(n_real)
    z = np.abs(mean - ref) / np.maximum(se, 1e-12)
    assert np.all(z < 3.0), f"z = {z}"


def test_classical_trajectory_rows_are_ensemble_moments(harmonic):
    """Each row of a conditioned classical trajectory is the MomentSet of the
    filtered ensemble at that sample time: the purity column carries the ESS
    and the energy column the ensemble's mean energy.
    """
    rng = np.random.default_rng(4)
    n_part, n_steps, stride, dt = 200, 60, 20, 1e-3
    ens = ClassicalEnsemble(rng.normal(0.5, 0.5, n_part), rng.normal(0.0, 0.5, n_part),
                            np.full(n_part, 1 / n_part))
    meas = MeasurementSpec(1.0)
    noise = generate(9, [0], n_steps, dt)
    traj = run_conditioned_classical(ens, harmonic, meas, noise, dt, sample_every=stride)
    assert traj.moments.shape == (1, n_steps // stride + 1, 7)

    samples = [(0.0, ens)]
    for i in range(n_steps):
        if ens.ess() < RESAMPLE_ESS_FRACTION * n_part:
            ens = resample(ens)
        ens, _ = ks_step(ens, harmonic, meas, dt, noise[i, 0], i * dt)
        if (i + 1) % stride == 0:
            samples.append(((i + 1) * dt, ens))
    np.testing.assert_array_equal(traj.times, [t for t, _ in samples])
    for row, (t, e) in zip(traj.moments[0], samples):
        np.testing.assert_array_equal(row, astuple(ensemble_moments(e, harmonic, t)))
        assert row[5] == e.ess()
        w = e.w / np.sum(e.w)
        energy = np.dot(w, e.p**2 / (2.0 * harmonic.mass) + harmonic.potential(e.x, t))
        assert row[6] == pytest.approx(energy, rel=1e-12)
    assert traj.moments[0, 0, 5] == pytest.approx(n_part)


def test_ks_clip_rate_small_at_default_dt(harmonic):
    rng = np.random.default_rng(3)
    n_part = 256
    ens = ClassicalEnsemble(
        rng.normal(0.0, 1.0, n_part), rng.normal(0.0, 1.0, n_part), np.full(n_part, 1 / n_part)
    )
    meas = MeasurementSpec(1.0)
    counter = WeightClipCounter()
    noise = generate(17, [0], 2000, 1e-3)
    run_conditioned_classical(ens, harmonic, meas, noise, 1e-3, sample_every=2000,
                              clip_counter=counter)
    assert counter.clipped / counter.updates < 1e-4


def test_batched_filter_rows_match_each_path_alone(harmonic):
    """Each row of a batched particle filter is bit-identical to its path
    run alone, with rows that resample on different steps, each with its
    own generator; the counters add up over the rows."""
    rng = np.random.default_rng(6)
    n_part, n_steps, stride, dt = 100, 300, 50, 1e-3
    ens0 = ClassicalEnsemble(rng.normal(1.0, 0.7, n_part), rng.normal(0.0, 0.7, n_part),
                             np.full(n_part, 1 / n_part))
    meas = MeasurementSpec(4.0)
    streams = range(3)
    noise = generate(13, streams, n_steps, dt)
    counter = WeightClipCounter()
    batch = run_conditioned_classical(ens0, harmonic, meas, noise, dt, stride,
                                      [substream_rng(13, k, "resample") for k in streams], counter)
    assert batch.moments.shape == (3, n_steps // stride + 1, 7)
    assert batch.moments.flags.c_contiguous
    alone_counters = []
    for k in streams:
        alone_counters.append(WeightClipCounter())
        alone = run_conditioned_classical(ens0, harmonic, meas, noise[:, [k]], dt, stride,
                                          [substream_rng(13, k, "resample")], alone_counters[-1])
        np.testing.assert_array_equal(batch.times, alone.times)
        np.testing.assert_array_equal(batch.moments[k], alone.moments[0])
    assert counter.resamples == sum(c.resamples for c in alone_counters)
    assert counter.clipped == sum(c.clipped for c in alone_counters)
    assert counter.min_ess == min(c.min_ess for c in alone_counters)
    # Rows that resample a different number of times: on some step one row
    # resamples and another does not.
    assert len({c.resamples for c in alone_counters}) > 1


def _batch(rng, shape):
    return ClassicalEnsemble(rng.normal(0, 1, shape), rng.normal(0, 1, shape),
                             np.full(shape, 1 / shape[-1]))


@pytest.mark.parametrize("shape", [(64,), (3, 64)])
def test_step_outputs_equal_their_validated_construction(harmonic, shape):
    """ks_step and liouville_step build their outputs past the constructor's
    checks; the validated construction of the same arrays is the same ensemble."""
    rng = np.random.default_rng(12)
    ens = _batch(rng, shape)
    dw = rng.normal(0, 0.03, shape[:-1])
    stepped, _ = ks_step(ens, harmonic, MeasurementSpec(1.0), 1e-3, dw, 0.2)
    advected = liouville_step(ens, harmonic, 1e-3, 0.2)
    for out in (stepped, advected):
        checked = ClassicalEnsemble(out.x, out.p, out.w)
        assert type(out) is ClassicalEnsemble
        for a, b in zip(astuple(out), astuple(checked)):
            assert a.dtype == b.dtype == float
            np.testing.assert_array_equal(a, b, strict=True)
        np.testing.assert_array_equal(out.ess(), 1.0 / np.sum(out.w**2, axis=-1), strict=True)


def test_ess_is_computed_once_per_ensemble(harmonic):
    rng = np.random.default_rng(14)
    ens = _batch(rng, (2, 32))
    stepped, _ = ks_step(ens, harmonic, MeasurementSpec(1.0), 1e-3, [0.01, -0.02])
    assert stepped.ess() is stepped.ess()
    assert [f.name for f in fields(ClassicalEnsemble)] == ["x", "p", "w"]


def test_resampled_row_gets_a_fresh_ess(harmonic):
    """A start below the hard ESS floor is resampled before the first step:
    the step reads the resampled rows' ESS, not the start's, and runs."""
    n_part, dt = 64, 1e-3
    w = np.full(n_part, 0.03 / (n_part - 1))
    w[0] = 0.97
    ens0 = ClassicalEnsemble(np.linspace(-1, 1, n_part), np.zeros(n_part), w)
    assert ens0.ess() < ESS_HARD_FLOOR
    counter = WeightClipCounter()
    noise = generate(3, range(2), 2, dt)
    traj = run_conditioned_classical(ens0, harmonic, MeasurementSpec(1.0), noise, dt, 1,
                                     clip_counter=counter)
    assert counter.resamples == 2
    assert counter.min_ess == ens0.ess()
    np.testing.assert_array_equal(traj.moments[:, 0, 5], ens0.ess())
    assert np.all(traj.moments[:, 1:, 5] > ESS_HARD_FLOOR)


def test_nan_increment_is_refused(harmonic):
    """A NaN weight fails every comparison: the filter must still refuse it."""
    rng = np.random.default_rng(15)
    meas, dt = MeasurementSpec(1.0), 1e-3
    ens = _batch(rng, (2, 64))
    with pytest.raises(DegenerateEnsembleError, match="non-finite noise increment"):
        ks_step(ens, harmonic, meas, dt, [0.01, np.nan])
    increments = generate(4, [0, 0], 20, dt)
    increments[7, 1] = np.nan
    with pytest.raises(DegenerateEnsembleError, match="non-finite noise increment"):
        run_conditioned_classical(_batch(rng, (64,)), harmonic, meas, increments, dt)


# --- resample -----------------------------------------------------------------


def test_resample_equal_weights_identity():
    ens = ClassicalEnsemble([1.0, 2.0, 3.0, 4.0], [0.0] * 4, [0.25] * 4)
    out = resample(ens)
    assert sorted(out.x.tolist()) == [1.0, 2.0, 3.0, 4.0]


def test_resample_degenerate_pair():
    ens = ClassicalEnsemble([1.0, 5.0], [0.5, -0.5], [1.0, 0.0])
    out = resample(ens)
    np.testing.assert_array_equal(out.x, [1.0, 1.0])
    np.testing.assert_array_equal(out.w, [0.5, 0.5])


def test_resample_preserves_mean_within_sampling_bound():
    rng = np.random.default_rng(42)
    n = 10_000
    x = rng.normal(0.7, 1.3, n)
    w = rng.random(n)
    w /= w.sum()
    ens = ClassicalEnsemble(x, np.zeros(n), w)
    out = resample(ens, substream_rng(1, 2, "resample"))
    mean_before = np.dot(w, x)
    mean_after = out.x.mean()
    # systematic resampling variance is below multinomial; 4 sigma of the latter
    sigma = np.sqrt(np.dot(w, (x - mean_before) ** 2) / n)
    assert abs(mean_after - mean_before) < 4 * sigma


# --- newton -------------------------------------------------------------------


def test_newton_harmonic(harmonic):
    times, xs, ps = newton_trajectory(1.0, 0.0, harmonic, 1e-3, 1571)
    assert xs[-1] == pytest.approx(np.cos(times[-1]), abs=1e-6)
    assert ps[-1] == pytest.approx(-np.sin(times[-1]), abs=1e-6)


def test_newton_energy_drift_long_run(harmonic):
    times, xs, ps = newton_trajectory(1.0, 0.0, harmonic, 1e-3, 1_000_000)
    e = ps**2 / 2 + 0.5 * xs**2
    assert np.max(np.abs(e - e[0])) / e[0] < 1e-6


def test_newton_driven_deterministic():
    duff = SystemSpec(mass=1.0, hbar=0.0, potential_coeffs=(0, 0, -10, 0, 0.5),
                      drive_amplitude=10.0, drive_frequency=6.07)
    a = newton_trajectory(2.5, 0.0, duff, 1e-3, 5000)
    b = newton_trajectory(2.5, 0.0, duff, 1e-3, 5000)
    np.testing.assert_array_equal(a[1], b[1])
    np.testing.assert_array_equal(a[2], b[2])


def _newton_reference(x0, p0, system, dt, n_steps):
    """The leapfrog orbit written out one step at a time."""
    c0, c1, c2, c3, c4 = system.potential_coeffs

    def force(x, t):
        f = -(c1 + x * (2.0 * c2 + x * (3.0 * c3 + x * 4.0 * c4))) + system.control_offset
        if system.drive_amplitude != 0.0:
            f -= system.drive_amplitude * math.cos(system.drive_frequency * t)
        return f

    xs, ps = [x0], [p0]
    for i in range(1, n_steps + 1):
        p_half = ps[-1] + 0.5 * dt * force(xs[-1], (i - 1) * dt)
        xs.append(xs[-1] + dt * p_half / system.mass)
        ps.append(p_half + 0.5 * dt * force(xs[-1], i * dt))
    return dt * np.arange(n_steps + 1), np.array(xs), np.array(ps)


@pytest.mark.parametrize("system", [
    SystemSpec(mass=1.0, hbar=0.0, potential_coeffs=(0, 0, -10, 0, 0.5),
               drive_amplitude=10.0, drive_frequency=6.07),
    SystemSpec(mass=1.0, hbar=0.0, potential_coeffs=(0, 0.3, -10, 0.2, 0.5)),
    SystemSpec(mass=1.0, hbar=0.0, potential_coeffs=(0, 0, 0.5), control_offset=-0.7),
    SystemSpec(mass=2.5, hbar=0.0, potential_coeffs=(0, 0, -1.0, 0, 0.25),
               drive_amplitude=0.4, drive_frequency=1.3),
], ids=["driven", "undriven", "control", "mass"])
def test_newton_trajectory_is_the_per_step_formula(system):
    got = newton_trajectory(2.5, -0.3, system, 1e-3, 3000)
    for a, b in zip(got, _newton_reference(2.5, -0.3, system, 1e-3, 3000)):
        assert np.array_equal(a, b)
