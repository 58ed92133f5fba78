"""Divergence-exponent harness: shared noise, fits, determinism."""

import json

import numpy as np
import pytest

from qcond import lyap
from qcond.core import PositionGrid, SystemSpec
from qcond.lyap import (
    LyapunovConfig,
    classical_paired_run,
    ensemble_lyapunov,
    one_over_t_fit,
    paired_run,
)
from qcond.noise import generate
from qcond.qdyn import MeasurementSpec

HARMONIC = SystemSpec(mass=1.0, hbar=1.0, potential_coeffs=(0, 0, 0.5))
# Driven double well: under k = 0.5 and a 0.1 reset threshold, master seed 11
# streams 0 and 2 are renormalized within a horizon of 2 and stream 1 is not.
DOUBLE_WELL = SystemSpec(mass=1.0, hbar=1.0, potential_coeffs=(0, 0, -1.0, 0, 0.1),
                         drive_amplitude=1.0, drive_frequency=1.3)
DUFFING_CL = SystemSpec(mass=1.0, hbar=0.0, potential_coeffs=(0, 0, -10, 0, 0.5),
                        drive_amplitude=10.0, drive_frequency=6.07)


def test_config_validation():
    with pytest.raises(ValueError):
        LyapunovConfig(initial_separation=-1.0, horizon=1.0, dt=1e-3)
    with pytest.raises(ValueError):
        LyapunovConfig(initial_separation=0.1, horizon=1.0, dt=1e-3, renormalize=True)


def test_separation_capped_by_state_width():
    grid = PositionGrid(-10, 10, 128)
    cfg = LyapunovConfig(initial_separation=0.2, horizon=0.1, dt=1e-3)
    noise = generate(1, 0, cfg.n_steps, cfg.dt)
    with pytest.raises(ValueError):
        paired_run((grid, 0.0, 0.0, 1.0), HARMONIC, MeasurementSpec(1.0), cfg, noise)


def test_one_over_t_fit_synthetic_exact():
    t = np.linspace(2.0, 200.0, 400)
    lam = 3.7 / t
    fit = one_over_t_fit(t, lam, (2.0, 200.0))
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.7), abs=1e-12)
    assert fit.n_dropped == 0


def test_one_over_t_fit_plateau_slope_zero():
    t = np.linspace(5.0, 50.0, 200)
    lam = 0.4 * np.ones_like(t)
    fit = one_over_t_fit(t, lam, (5.0, 50.0))
    assert abs(fit.slope) < 1e-12


def test_one_over_t_fit_drops_degenerate_samples():
    t = np.linspace(1.0, 100.0, 500)
    lam = (1.0 / t) * np.cos(3 * t)  # oscillating sign, 1/t envelope
    fit = one_over_t_fit(t, lam, (1.0, 100.0))
    assert fit.n_dropped > 0
    assert fit.slope == pytest.approx(-1.0, abs=0.06)


def test_isolated_harmonic_exponent_decays_one_over_t():
    """k = 0: divergence of a displaced pair is bounded -> 1/t exponent."""
    grid = PositionGrid(-12, 12, 128)
    cfg = LyapunovConfig(initial_separation=0.05, horizon=120.0, dt=1e-3,
                         sample_stride=50)
    noise = generate(5, 0, cfg.n_steps, cfg.dt)
    res = paired_run((grid, 1.0, 0.0, 0.8), HARMONIC, None, cfg, noise)
    assert not res.merged
    # lambda * t bounded (the testable statement of zero exponent)
    lam_t = res.lam * res.times
    assert np.nanmax(np.abs(lam_t)) < 10.0
    fit = one_over_t_fit(res.times, res.lam, (10.0, 110.0))
    assert fit.slope == pytest.approx(-1.0, abs=0.05)


def test_identical_initial_states_flagged_as_merged():
    grid = PositionGrid(-12, 12, 128)
    cfg = LyapunovConfig(initial_separation=1e-30, horizon=0.5, dt=1e-3,
                         sample_stride=10)
    noise = generate(5, 1, cfg.n_steps, cfg.dt)
    # delta0 ~ 1e-30 is below double resolution of the identical construction:
    # the two states coincide and the pair must be flagged, not crash
    res = paired_run((grid, 1.0, 0.0, 0.8), HARMONIC, MeasurementSpec(0.5), cfg, noise)
    assert res.merged


def test_classical_duffing_matches_benettin_oracle():
    cfg = LyapunovConfig(initial_separation=1e-7, horizon=300.0, dt=1e-3,
                         renormalize=True, renorm_threshold=1e-4, sample_stride=100)
    res = classical_paired_run(2.5, 0.0, DUFFING_CL, cfg)
    lam_paired = res.lam[-1]
    lam_tangent = _benettin_tangent(2.5, 0.0, DUFFING_CL, 1e-3, 300.0)
    assert lam_paired == pytest.approx(lam_tangent, rel=0.10)
    assert lam_paired > 0.3


def _benettin_tangent(x0, p0, system, dt, horizon, renorm_every=100):
    """Independent tangent-space exponent (kick-drift-kick variational flow)."""
    n = int(round(horizon / dt))
    x, p = x0, p0
    dx, dp = 1.0, 0.0
    logsum = 0.0
    t = 0.0
    m = system.mass
    for i in range(n):
        g1 = system.force_gradient(x)
        ph = p + 0.5 * dt * system.force(x, t)
        dph = dp + 0.5 * dt * g1 * dx
        x = x + dt * ph / m
        dx = dx + dt * dph / m
        t = (i + 1) * dt
        g2 = system.force_gradient(x)
        p = ph + 0.5 * dt * system.force(x, t)
        dp = dph + 0.5 * dt * g2 * dx
        if (i + 1) % renorm_every == 0:
            nrm = np.hypot(dx, dp)
            logsum += np.log(nrm)
            dx, dp = dx / nrm, dp / nrm
    logsum += np.log(np.hypot(dx, dp))
    return logsum / t


def test_shared_noise_swap_symmetry():
    """Relabeling fiducial/perturbed changes nothing: |delta| is symmetric."""
    grid = PositionGrid(-12, 12, 128)
    cfg = LyapunovConfig(initial_separation=0.05, horizon=2.0, dt=1e-3,
                         sample_stride=20)
    meas = MeasurementSpec(0.5)
    noise = generate(9, 0, cfg.n_steps, cfg.dt)
    a = paired_run((grid, 1.0, 0.0, 0.8), HARMONIC, meas, cfg, noise)
    b = paired_run((grid, 1.0 + cfg.initial_separation, 0.0, 0.8),
                   HARMONIC, meas, cfg, noise)
    # b starts where a's perturbed member starts and is perturbed by +delta0;
    # the two runs bracket the same pair only in the linear regime, so compare
    # a against itself re-run (exact determinism) and delta positivity instead
    a2 = paired_run((grid, 1.0, 0.0, 0.8), HARMONIC, meas, cfg, noise)
    np.testing.assert_array_equal(a.delta, a2.delta)
    assert np.all(a.delta[np.isfinite(a.delta)] >= 0)


def _assert_rows_equal(times, delta, lam, merged, renormalizations, singles):
    """Row r of the batched fields equals singles[r], a single-path run, bit for bit."""
    for r, alone in enumerate(singles):
        assert np.array_equal(times, alone.times)
        assert np.array_equal(delta[r], alone.delta, equal_nan=True)
        assert np.array_equal(lam[r], alone.lam, equal_nan=True)
        assert merged[r] == alone.merged
        assert renormalizations[r] == alone.n_renormalizations


@pytest.mark.parametrize("n_points", [128, 4096])
def test_paired_run_batch_matches_single_paths(n_points):
    """Three noise paths as one (3, 2, n) batch give each pair's single-path
    run bit for bit, with resets firing in some rows only.  At n = 4096 the
    batch holds 384 KiB, past numpy's 256 KiB temporary-elision threshold."""
    grid = PositionGrid(-12, 12, n_points)
    cfg = LyapunovConfig(initial_separation=0.05, horizon=2.0, dt=1e-3, sample_stride=20,
                         renormalize=True, renorm_threshold=0.1)
    state0 = (grid, 1.0, 0.0, 0.8)
    noises = [generate(11, k, cfg.n_steps, cfg.dt) for k in range(3)]
    batch = paired_run(state0, DOUBLE_WELL, MeasurementSpec(0.5), cfg, noises)
    singles = [paired_run(state0, DOUBLE_WELL, MeasurementSpec(0.5), cfg, noise)
               for noise in noises]
    _assert_rows_equal(batch.times, batch.delta, batch.lam, batch.merged,
                       batch.renormalizations, singles)
    fired = batch.renormalizations > 0
    assert fired.any() and not fired.all()


def test_paired_run_batch_reset_total_is_plain_int():
    grid = PositionGrid(-12, 12, 128)
    cfg = LyapunovConfig(initial_separation=0.05, horizon=0.5, dt=1e-3, sample_stride=20,
                         renormalize=True, renorm_threshold=0.06)
    noises = [generate(11, k, cfg.n_steps, cfg.dt) for k in range(2)]
    res = paired_run((grid, 1.0, 0.0, 0.8), DOUBLE_WELL, MeasurementSpec(0.5), cfg, noises)
    assert type(res.n_renormalizations) is int
    assert res.n_renormalizations == res.renormalizations.sum() > 0
    json.dumps({"resets": res.n_renormalizations})


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_ensemble_chunks_match_per_stream_runs(workers, monkeypatch):
    """At n = 1024 two pairs fill a batch, so five realizations run in
    chunks of 2, 2, 1 at every worker count; each row equals its stream's
    paired_run alone."""
    chunks = []

    def counting_paired_run(*args):
        chunks.append([path.stream_index for path in args[4]])
        return paired_run(*args)

    monkeypatch.setattr(lyap, "paired_run", counting_paired_run)
    grid = PositionGrid(-12, 12, 1024)
    cfg = LyapunovConfig(initial_separation=0.05, horizon=0.3, dt=1e-3, sample_stride=20,
                         n_realizations=5, renormalize=True, renorm_threshold=0.06)
    state0 = (grid, 1.0, 0.0, 0.8)
    meas = MeasurementSpec(0.5)
    series = ensemble_lyapunov(state0, DOUBLE_WELL, meas, cfg, 11, workers=workers)
    if workers == 1:    # pool workers append to their own copy of the list
        assert chunks == [[0, 1], [2, 3], [4]]
    singles = [paired_run(state0, DOUBLE_WELL, meas, cfg, generate(11, k, cfg.n_steps, cfg.dt))
               for k in range(cfg.n_realizations)]
    _assert_rows_equal(series.times, series.delta, series.lam, series.merged_flags,
                       series.renormalizations, singles)


def test_ensemble_deterministic_and_workers_invariant():
    grid = PositionGrid(-12, 12, 64)
    cfg = LyapunovConfig(initial_separation=0.05, horizon=1.0, dt=1e-3,
                         n_realizations=4, sample_stride=20)
    meas = MeasurementSpec(0.5)
    s1 = ensemble_lyapunov((grid, 1.0, 0.0, 0.8), HARMONIC, meas, cfg, 42, workers=1)
    s2 = ensemble_lyapunov((grid, 1.0, 0.0, 0.8), HARMONIC, meas, cfg, 42, workers=2)
    np.testing.assert_array_equal(s1.lam, s2.lam)
    np.testing.assert_array_equal(s1.lam_mean, s2.lam_mean)
    assert s1.lam.shape[0] == 4


def test_ensemble_band_shrinks_with_realizations():
    grid = PositionGrid(-12, 12, 64)
    meas = MeasurementSpec(0.5)
    lam_end_se = []
    for n_real in (8, 32):
        cfg = LyapunovConfig(initial_separation=0.05, horizon=2.0, dt=2e-3,
                             n_realizations=n_real, sample_stride=50)
        series = ensemble_lyapunov((grid, 1.0, 0.0, 0.8), HARMONIC, meas, cfg, 7, workers=2)
        lam_end_se.append(series.lam_sd[-1] / np.sqrt(n_real))
    ratio = lam_end_se[0] / lam_end_se[1]
    # standard error of the plateau mean shrinks ~ sqrt(4) = 2
    assert ratio == pytest.approx(2.0, rel=0.5)
