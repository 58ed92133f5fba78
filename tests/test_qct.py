"""Regime-classifier arithmetic and orbit action."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcond.core import SystemSpec
from qcond.cdyn import newton_trajectory
from qcond.qct import (
    NonRecurrentOrbitError,
    _pow2,
    action_scale,
    evaluate_along_trajectory,
    localization_margin,
    lownoise_margin_classical,
    quantum_window,
)


@pytest.fixture
def quartic():
    return SystemSpec(mass=1.0, hbar=1.0, potential_coeffs=(0, 0, 0, 0, 0.25))


# F(x, t) = -x^3 - cos(1.3 t) / 8: F(-0.5, 0) = 0 and dF/dx(0) = 0 exactly.
DRIVEN_QUARTIC = SystemSpec(mass=1.0, hbar=1.0, potential_coeffs=(0, 0, 0, 0, 0.25),
                            drive_amplitude=0.125, drive_frequency=1.3)


@pytest.fixture
def harmonic():
    return SystemSpec(mass=1.0, hbar=1.0, potential_coeffs=(0, 0, 0.5))


def test_localization_margin_harmonic_always_satisfied(harmonic):
    assert localization_margin(harmonic, 1.3, 0.01) == np.inf


def test_localization_margin_quartic_arithmetic(quartic):
    # x=1, m=1: F=-1, dF=-3, d2F=-6 -> threshold sqrt(36*3/2) = sqrt(54)
    k = 1.0
    margin = localization_margin(quartic, 1.0, k)
    # independent evaluation through the generic formula
    f, df, d2f = -1.0, -3.0, -6.0
    rhs = np.sqrt(d2f**2 * abs(df) / (2.0 * 1.0 * f**2))
    assert rhs == pytest.approx(np.sqrt(54.0), rel=1e-14)
    assert margin == pytest.approx(8.0 * k / np.sqrt(54.0), rel=1e-12)


def test_localization_margin_singular_at_turning_point(quartic):
    assert np.isnan(localization_margin(quartic, 0.0, 1.0))


def test_lownoise_classical_arithmetic(harmonic):
    # |dF| = m w^2 = 1; k S/(2|dF|) = 100/2
    assert lownoise_margin_classical(harmonic, 0.5, 1.0, 100.0) == pytest.approx(50.0)


def test_lownoise_classical_inflection_infinite(quartic):
    assert lownoise_margin_classical(quartic, 0.0, 1.0, 10.0) == np.inf


@settings(max_examples=30, deadline=None)
@given(s_scale=st.floats(1.0, 1e4), k=st.floats(1e-4, 1e3))
def test_lownoise_margin_linear_in_action(s_scale, k):
    sys_ = SystemSpec(mass=1.0, potential_coeffs=(0, 0, 0.5))
    m1 = lownoise_margin_classical(sys_, 0.3, k, s_scale)
    m2 = lownoise_margin_classical(sys_, 0.3, k, 2 * s_scale)
    assert m2 == pytest.approx(2 * m1, rel=1e-12)


def test_quantum_window_product_identity(quartic):
    # left*right = s^2/8 independent of k
    s = 200.0
    for k in (0.01, 1.0, 50.0):
        left, right = quantum_window(quartic, 1.3, k, s, hbar=1.0)
        assert left * right == pytest.approx(s**2 / 8.0, rel=1e-12)


def test_quantum_window_threshold_scale(quartic):
    # both ratios = 10 simultaneously requires s = sqrt(800)
    s = np.sqrt(800.0)
    df = abs(quartic.force_gradient(1.0))
    k = np.sqrt(df**2 * s / (8.0 * s)) / 1.0  # hbar k at the geometric mean
    hk = np.sqrt((2 * df / s) * (df * s / 4))
    left, right = quantum_window(quartic, 1.0, hk, s, hbar=1.0)
    assert left == pytest.approx(10.0, rel=1e-9)
    assert right == pytest.approx(10.0, rel=1e-9)


def test_quantum_window_widens_with_action(quartic):
    l1, r1 = quantum_window(quartic, 1.0, 1.0, 100.0, hbar=1.0)
    l2, r2 = quantum_window(quartic, 1.0, 1.0, 1000.0, hbar=1.0)
    assert l2 > l1 and r2 > r1


def test_quantum_window_inflection_open(quartic):
    left, right = quantum_window(quartic, 0.0, 1.0, 100.0, hbar=1.0)
    assert left == np.inf and right == np.inf


def test_margins_scalar_in_scalar_out_and_validated_for_arrays(quartic):
    assert isinstance(localization_margin(quartic, 1.0, 1.0), float)
    assert isinstance(lownoise_margin_classical(quartic, 1.0, 1.0, 10.0), float)
    assert all(isinstance(r, float) for r in quantum_window(quartic, 1.0, 1.0, 10.0, 1.0))
    xs = np.array([0.0, 1.0, -1.3])
    with pytest.raises(ValueError):
        lownoise_margin_classical(quartic, xs, 1.0, 0.0)
    with pytest.raises(ValueError):
        quantum_window(quartic, xs, 1.0, -1.0, hbar=1.0)


# --- action -------------------------------------------------------------------


def test_action_harmonic_orbit(harmonic):
    # S = 2 pi E / omega; E = 1/2 for amplitude 1
    _, xs, ps = newton_trajectory(1.0, 0.0, harmonic, 1e-3, 7000)
    s = action_scale(xs, ps)
    assert s == pytest.approx(2 * np.pi * 0.5 / 1.0, rel=1e-2)


def test_action_scales_quadratically(harmonic):
    _, xs, ps = newton_trajectory(1.0, 0.0, harmonic, 1e-3, 7000)
    s1 = action_scale(xs, ps)
    s2 = action_scale(2 * xs, 2 * ps)
    assert s2 == pytest.approx(4 * s1, rel=1e-9)


def test_action_nonrecurrent_rejected():
    free = SystemSpec(mass=1.0, potential_coeffs=(0.0,))
    _, xs, ps = newton_trajectory(0.0, 1.0, free, 1e-3, 3000)
    with pytest.raises(NonRecurrentOrbitError):
        action_scale(xs, ps)


def test_report_action_override_honored(harmonic):
    _, xs, ps = newton_trajectory(1.0, 0.0, harmonic, 1e-3, 4000)
    rep = evaluate_along_trajectory(harmonic, xs[:100], k=1.0, action=123.0)
    assert rep.action == 123.0
    assert rep.s == pytest.approx(123.0, rel=1e-12)  # hbar = 1


def test_report_margins_reparametrization_invariant(harmonic):
    _, xs, ps = newton_trajectory(1.0, 0.0, harmonic, 1e-3, 7000)
    rep_dense = evaluate_along_trajectory(harmonic, xs, k=0.5, action=action_scale(xs, ps))
    rep_sparse = evaluate_along_trajectory(harmonic, xs[::7], k=0.5, action=rep_dense.action)
    # margins are pointwise in x: subsampling the same orbit leaves values on the curve
    assert np.allclose(
        sorted(set(np.round(rep_sparse.lownoise_classical, 9))),
        sorted(set(np.round(rep_dense.lownoise_classical[::7], 9))),
    )


def test_margin_squares_are_python_float_squares():
    # Python's float ** calls C pow, which may round x*x apart from np.square.
    values = np.random.default_rng(1).standard_normal(20_000) * 7.0
    assert np.array_equal(_pow2(values), [v**2 for v in values.tolist()])
    assert _pow2(3.0) == 9.0 and _pow2(values.reshape(100, 200)).shape == (100, 200)
    with np.errstate(over="ignore"):
        assert _pow2(1e200) == np.inf


def _assert_matches(got, want):
    """Same nan and +-inf positions; finite values within 1 ulp."""
    for pattern in (np.isnan, np.isposinf, np.isneginf):
        np.testing.assert_array_equal(pattern(got), pattern(want))
    finite = np.isfinite(want)
    np.testing.assert_array_max_ulp(got[finite], want[finite], maxulp=1)


@pytest.mark.parametrize("hbar", [0.5, 0.0])
def test_report_matches_pointwise_margins(hbar):
    sys_, k, action = dataclasses.replace(DRIVEN_QUARTIC, hbar=hbar), 0.7, 2.5
    times, xs, _ = newton_trajectory(0.9, 0.0, sys_, 1e-2, 1500)
    # samples where F = 0 (singular) and dF = 0 (trivially satisfied)
    times = np.append(times, [0.0, 0.4])
    xs = np.append(xs, [-0.5, 0.0])
    rep = evaluate_along_trajectory(sys_, xs, k=k, action=action, times=times)

    loc = np.array([localization_margin(sys_, x, k, t) for x, t in zip(xs, times)])
    low = np.array([lownoise_margin_classical(sys_, x, k, action) for x in xs])
    if hbar > 0:
        left, right = np.array([quantum_window(sys_, x, k, action / hbar, hbar) for x in xs]).T
    else:
        left = right = np.full(xs.size, np.inf)
    assert np.isnan(loc[-2]) and loc[-1] == np.inf and low[-1] == np.inf
    _assert_matches(rep.localization, loc)
    _assert_matches(rep.lownoise_classical, low)
    _assert_matches(rep.window_left, left)
    _assert_matches(rep.window_right, right)
    np.testing.assert_array_equal(rep.singular_mask, np.isnan(loc))
    assert rep.s == (action / hbar if hbar > 0 else np.inf)


def test_report_percentiles_and_window(quartic):
    sys_ = quartic
    _, xs, ps = newton_trajectory(1.5, 0.0, sys_, 1e-3, 9000)
    rep = evaluate_along_trajectory(sys_, xs, k=2.0, action=action_scale(xs, ps))
    p10, p50, p90 = rep.percentiles["localization"]
    assert p10 <= p50 <= p90
    assert rep.singular_mask.dtype == bool
    assert isinstance(rep.window_open(), bool)
