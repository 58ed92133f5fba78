"""Measurement-strength regime diagnostics for the classical-trajectory limit.

Three local inequalities decide whether conditioning localizes the state
onto an effectively Newtonian trajectory:

  localization          8k  >>  sqrt( (d2F)^2 |dF| / (2 m F^2) )
  low noise (classical)  k  >>  2 |dF| / S
  low noise (quantum)    2|dF|/s  <<  hbar k  <<  |dF| s / 4

with S the action scale of the motion and s = S/hbar.  All are local in
the centroid position, so a trajectory-level verdict aggregates the
pointwise margins; ">>" is operationalized as a ratio above 10 by
default (an order of magnitude), surfaced in the report rather than
hidden.  Samples where the reference force vanishes make the
localization ratio singular and are flagged and excluded from the
percentile summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import QcondError, SystemSpec

__all__ = [
    "DOMINANCE_THRESHOLD",
    "RegimeReport",
    "localization_margin",
    "lownoise_margin_classical",
    "quantum_window",
    "action_scale",
    "evaluate_along_trajectory",
]

DOMINANCE_THRESHOLD = 10.0


class NonRecurrentOrbitError(QcondError):
    """Reference trajectory never returns near its start: no orbit action."""


def _pow2(values):
    """Elementwise ``values**2`` through C ``pow``, as float scalars square.

    ``np.square`` rounds x*x correctly and ``pow`` need not (86 of the bench
    qct orbit's 95,201 margins differed by 1-2 ulp); ``np.float_power`` calls
    ``pow`` per element and keeps them bit-identical to the formula evaluated
    one sample at a time.  Overflow gives inf, as for any numpy scalar.
    """
    return np.float_power(np.asarray(values, dtype=float), 2)


def localization_margin(system: SystemSpec, x_mean, k, t=0.0):
    """Ratio of 8k to the localization scale; > 1 satisfied, inf for linear force.

    Singular where F(x_mean) = 0 (returns nan there; callers flag it).
    ``x_mean`` and ``t`` may be scalars or arrays; a scalar in gives a
    scalar out (``[()]`` unwraps a 0-d result), here and below.
    """
    f = system.force(x_mean, t)
    df = system.force_gradient(x_mean)
    d2f = system.force_curvature(x_mean)
    with np.errstate(divide="ignore", invalid="ignore"):
        rhs = np.sqrt(_pow2(d2f) * np.abs(df) / (2.0 * system.mass * _pow2(f)))
        margin = np.where(rhs == 0.0, np.inf, 8.0 * k / rhs)
    return np.where(f == 0.0, np.nan, margin)[()]


def lownoise_margin_classical(system: SystemSpec, x_mean, k, action_scale):
    """k S / (2 |dF/dx|); infinite at inflection points of the force."""
    if not action_scale > 0:
        raise ValueError("action scale must be positive")
    df = np.abs(system.force_gradient(x_mean))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(df == 0.0, np.inf, k * action_scale / (2.0 * df))[()]


def quantum_window(system: SystemSpec, x_mean, k, s, hbar) -> tuple:
    """(left_ratio, right_ratio) of the double-sided quantum low-noise window.

    left_ratio  = hbar k s / (2 |dF|)   (how far above the lower edge)
    right_ratio = |dF| s / (4 hbar k)   (how far below the backaction edge)

    The window is open at a sample when both exceed the dominance
    threshold.  Note left*right = s^2/8 independent of k.
    """
    if not s > 0:
        raise ValueError("dimensionless action s must be positive")
    df = np.abs(system.force_gradient(x_mean))
    hk = hbar * k
    with np.errstate(divide="ignore", invalid="ignore"):
        left = np.where(df == 0.0, np.inf, hk * s / (2.0 * df))
        right = np.where(df == 0.0, np.inf, df * s / (4.0 * hk))
    return left[()], right[()]


def action_scale(xs, ps):
    """Phase-space loop area of one quasi-period of a reference orbit.

    The first return of (x, p) to the neighbourhood of its starting
    point (after leaving it) closes the loop; the enclosed area is the
    shoelace sum, i.e. the loop integral of p dx.  Raises
    NonRecurrentOrbitError when no return is found; callers may then
    supply the action scale by hand.
    """
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if xs.size < 8:
        raise NonRecurrentOrbitError("trajectory too short to contain a period")
    scale2 = (np.ptp(xs)) ** 2 + (np.ptp(ps)) ** 2
    if scale2 == 0.0:
        raise NonRecurrentOrbitError("trajectory is a fixed point")
    d2 = (xs - xs[0]) ** 2 + (ps - ps[0]) ** 2
    # Ignore the initial departure: wait until the point has moved away.
    away = np.nonzero(d2 > 0.04 * scale2)[0]
    if away.size == 0:
        raise NonRecurrentOrbitError("orbit never leaves its starting neighbourhood")
    start = away[0]
    back = np.nonzero(d2[start:] < 1e-4 * scale2)[0]
    if back.size == 0:
        # Relax once: accept the closest return if it is genuinely close.
        rel = np.argmin(d2[start:])
        if d2[start:][rel] > 1e-2 * scale2:
            raise NonRecurrentOrbitError("no recurrence found")
        iend = start + int(rel)
    else:
        iend = start + int(back[0])
    x_loop = xs[: iend + 1]
    p_loop = ps[: iend + 1]
    area = 0.5 * abs(
        float(np.sum(x_loop * np.roll(p_loop, -1) - np.roll(x_loop, -1) * p_loop))
    )
    return area


@dataclass(frozen=True)
class RegimeReport:
    """Pointwise margins along a trajectory plus percentile summaries.

    quantum_window_left/right > 1 means the respective inequality holds
    at a sample; both above the dominance threshold means the trajectory
    point sits inside the Newtonian window.
    """

    threshold: float
    action: float
    s: float
    localization: np.ndarray
    lownoise_classical: np.ndarray
    window_left: np.ndarray
    window_right: np.ndarray
    singular_mask: np.ndarray
    percentiles: dict = field(default_factory=dict)

    def window_open(self) -> bool:
        return (
            self.percentiles["window_left"][0] > self.threshold
            and self.percentiles["window_right"][0] > self.threshold
        )


def _pcts(values, mask):
    ok = values[~mask]
    if ok.size == 0:
        return (float("inf"),) * 3
    # Order statistics (no interpolation): robust to +inf entries, which
    # are legitimate "trivially satisfied" margins.
    return tuple(float(np.percentile(ok, q, method="lower")) for q in (10, 50, 90))


def evaluate_along_trajectory(system: SystemSpec, xs, k, action, times=None,
                              threshold=DOMINANCE_THRESHOLD) -> RegimeReport:
    """Margins of all three inequalities along a reference orbit.

    ``action`` is the orbit's action scale, e.g. ``action_scale(xs, ps)``
    of a recurrent orbit.
    """
    xs = np.asarray(xs, dtype=float)
    hbar = system.hbar
    s = action / hbar if hbar > 0 else float("inf")

    ts = 0.0 if times is None else np.asarray(times, dtype=float)
    loc = localization_margin(system, xs, k, ts)
    low = lownoise_margin_classical(system, xs, k, action)
    if hbar > 0:
        wl, wr = quantum_window(system, xs, k, s, hbar)
    else:
        wl = np.full_like(xs, np.inf)
        wr = np.full_like(xs, np.inf)
    singular = np.isnan(loc)  # F = 0 turning/fixed points

    pct = {
        "localization": _pcts(loc, singular),
        "lownoise_classical": _pcts(low, singular),
        "window_left": _pcts(wl, singular),
        "window_right": _pcts(wr, singular),
    }
    return RegimeReport(
        threshold=threshold,
        action=float(action),
        s=float(s),
        localization=loc,
        lownoise_classical=low,
        window_left=wl,
        window_right=wr,
        singular_mask=singular,
        percentiles=pct,
    )
