"""Named experiments behind the command-line runner.

Each experiment consumes a validated, fully-resolved configuration
mapping (see qcond.cli for the file format), runs the corresponding
simulation, and returns CSV-ready series plus a metadata summary.
Trajectory realizations run on a worker pool that returns results in
job order, each on the noise stream of its own index, so the emitted
bytes never depend on worker count, batch chunking or scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    ClassicalEnsemble,
    PositionGrid,
    SystemSpec,
    drive,
    ensemble_moments,
    gaussian_state,
    gaussian_wavefunction,
)
from .cdyn import (ESS_HARD_FLOOR, RESAMPLE_ESS_FRACTION, WeightClipCounter, liouville_step,
                   newton_trajectory, run_conditioned_classical)
from .cumulant import GaussianBelief, belief_vs_full_compare, centroid_step
from .feedback import FeedbackPolicy, PolicyValueError, cooling_experiment, paired_gap
from .lyap import LyapunovConfig, check_separation, check_threshold, ensemble_lyapunov
from .noise import generate, map_streams, substream_rng
from .qct import evaluate_along_trajectory, action_scale
from .qdyn import MeasurementSpec, run_conditioned, run_isolated

__all__ = ["EXPERIMENTS", "CsvSeries", "ExperimentResult", "run_experiment"]

TRAJECTORY_COLUMNS = (
    "t [time]",
    "x_mean [length]",
    "p_mean [momentum]",
    "c_xx [length^2]",
    "c_xp [length*momentum]",
    "c_pp [momentum^2]",
    "purity [1]",
    "energy [energy]",
)


@dataclass(frozen=True)
class CsvSeries:
    """One output table: column names carry units in brackets."""

    name: str
    columns: tuple
    rows: np.ndarray


@dataclass(frozen=True)
class ExperimentResult:
    series: list
    metadata: dict = field(default_factory=dict)


# Experiments that condition on the measurement record, which k = 0 does not carry.
RECORD_EXPERIMENTS = {"conditioned", "passivity", "cumulant-compare", "cooling"}


def _setup(cfg):
    """(system, grid, meas, dt, n_steps, stride) of a resolved config.

    grid is None without a [grid] section and meas None without a
    [measurement] section; n_steps = round(horizon / dt).  stride is 1
    without run.sample_stride: qct-scan writes every orbit step.
    """
    s, g, run = cfg["system"], cfg.get("grid"), cfg["run"]
    system = SystemSpec(
        mass=s["mass"],
        hbar=s["hbar"],
        potential_coeffs=tuple(s["potential_coeffs"]),
        drive_amplitude=s["drive_amplitude"],
        drive_frequency=s["drive_frequency"],
    )
    grid = PositionGrid(g["x_min"], g["x_max"], int(g["n_points"])) if g else None
    try:
        meas = MeasurementSpec(cfg["measurement"]["k"]) if "measurement" in cfg else None
    except ValueError as err:
        raise ValueError(f"measurement.k: {err}") from err
    name = cfg["experiment"]["name"]
    if name in RECORD_EXPERIMENTS and meas.strength == 0.0:
        raise ValueError(f"measurement.k must be positive for {name}, which conditions "
                         "on the measurement record")
    dt = run["dt"]
    # A measurement narrower than the grid spacing collapses the state onto one node.
    if grid is not None and meas is not None and 4.0 * meas.strength * dt * grid.dx**2 > 1.0:
        raise ValueError(f"measurement.k = {meas.strength:g} with run.dt = {dt:g} resolves "
                         f"1/sqrt(4 k dt) = {(4.0 * meas.strength * dt) ** -0.5:.3g}, below the "
                         f"grid spacing {grid.dx:.3g}; lower measurement.k or run.dt")
    stride = int(run.get("sample_stride", 1))
    return system, grid, meas, dt, int(round(run["horizon"] / dt)), stride


def _n_realizations(run, least) -> int:
    n_real = int(run["n_realizations"])
    if n_real < least:
        raise ValueError(f"run.n_realizations must be at least {least}, got {n_real}")
    return n_real


# --- isolated -----------------------------------------------------------------


def run_isolated_experiment(cfg, seed, workers):
    system, grid, _, dt, n_steps, stride = _setup(cfg)
    exp = cfg["isolated"]
    state = gaussian_state(grid, exp["x0"], exp["p0"], exp["sigma_x"], system.hbar)
    traj = run_isolated(state, system, dt, n_steps, sample_every=stride)
    table = np.column_stack([traj.times, traj.moments[0]])
    series = [CsvSeries("isolated_moments", TRAJECTORY_COLUMNS, table)]
    return ExperimentResult(series, {"n_steps": n_steps, "max_trace_error": traj.max_trace_error,
                                     "max_hermiticity_defect": traj.max_hermiticity_defect})


# --- conditioned --------------------------------------------------------------


def run_conditioned_experiment(cfg, seed, workers):
    system, grid, meas, dt, n_steps, stride = _setup(cfg)
    exp = cfg["conditioned"]
    n_real = _n_realizations(cfg["run"], 1)
    psi0 = gaussian_wavefunction(grid, exp["x0"], exp["p0"], exp["sigma_x"], system.hbar)

    def run_chunk(streams):
        noise = [generate(seed, k, n_steps, dt) for k in streams]
        return run_conditioned(grid, psi0, system, meas, noise, sample_every=stride)

    trajs = map_streams(run_chunk, n_real, psi0.nbytes, workers)
    times = trajs[0].times
    moments = np.concatenate([traj.moments for traj in trajs])
    series = [CsvSeries("conditioned_mean", TRAJECTORY_COLUMNS,
                        np.column_stack([times, moments.mean(axis=0)]))]
    series += [CsvSeries(f"conditioned_traj_{idx:03d}", TRAJECTORY_COLUMNS,
                         np.column_stack([times, rows]))
               for idx, rows in enumerate(moments)]
    return ExperimentResult(series, {"n_realizations": n_real, "n_batches": len(trajs),
                                     "max_outer_mass": max(t.max_outer_mass for t in trajs)})


# --- passivity ------------------------------------------------------------------


def _raw_moment_row(m):
    # Python-float squares (libm pow); the array squares of the filtered rows differ by ulps.
    return [m.x_mean, m.p_mean, m.c_xx + m.x_mean**2,
            m.c_xp + m.x_mean * m.p_mean, m.c_pp + m.p_mean**2]


def run_passivity_experiment(cfg, seed, workers):
    system, _, meas, dt, n_steps, stride = _setup(cfg)
    exp = cfg["passivity"]
    # Two realizations at least: the z-scores divide by their standard error.
    n_real = _n_realizations(cfg["run"], 2)

    rng = substream_rng(seed, 0, "passivity-init")
    n_part = int(exp["n_particles"])
    # Fewer particles reach the ESS floor before the filter first resamples.
    least = ESS_HARD_FLOOR / RESAMPLE_ESS_FRACTION
    if n_part < least:
        raise ValueError(f"passivity.n_particles must be at least {least:g}, got {n_part}")
    ens0 = ClassicalEnsemble(
        rng.normal(exp["x0"], exp["sigma_x"], n_part),
        rng.normal(exp["p0"], exp["sigma_p"], n_part),
        np.full(n_part, 1.0 / n_part),
    )

    def run_chunk(streams):
        counter = WeightClipCounter()
        traj = run_conditioned_classical(
            ens0, system, meas, [generate(seed, k, n_steps, dt) for k in streams],
            sample_every=stride,
            resample_rngs=[substream_rng(seed, k, "resample") for k in streams],
            clip_counter=counter)
        return traj, counter

    trajs, counters = zip(*map_streams(run_chunk, n_real, ens0.x.nbytes, workers))
    times = trajs[0].times
    # raw moments so realizations average like the underlying distribution
    mom = np.concatenate([traj.moments for traj in trajs])
    x, p = mom[..., 0], mom[..., 1]
    raws = np.stack([x, p, mom[..., 2] + x**2, mom[..., 3] + x * p, mom[..., 4] + p**2], axis=-1)
    mean = raws.mean(axis=0)
    se = raws.std(axis=0, ddof=1) / np.sqrt(n_real)

    _, ref, _ = drive(ens0, n_steps, dt, stride,
                      lambda ens, i, t: liouville_step(ens, system, dt, t),
                      lambda ens, t: _raw_moment_row(ensemble_moments(ens, system, t)))
    z = np.abs(mean - ref) / np.maximum(se, 1e-300)
    # A standard error at roundoff level (the t = 0 row, where every
    # realization starts from ens0) has no sampling noise to compare with.
    z_sampled = np.where(se > 1e-12 * np.maximum(np.abs(mean), np.abs(ref)), z, 0.0)
    worst = np.unravel_index(np.argmax(z_sampled), z.shape)
    cols = ("t [time]",
            "x_cond [length]", "p_cond [momentum]", "xx_cond [length^2]",
            "xp_cond [length*momentum]", "pp_cond [momentum^2]",
            "x_liouville [length]", "p_liouville [momentum]", "xx_liouville [length^2]",
            "xp_liouville [length*momentum]", "pp_liouville [momentum^2]",
            "z_x [1]", "z_p [1]", "z_xx [1]", "z_xp [1]", "z_pp [1]")
    table = np.column_stack([times, mean, ref, z])
    meta = {"max_z": float(z_sampled[worst]), "max_z_time": float(times[worst[0]]),
            "n_realizations": n_real, "n_batches": len(trajs),
            "weight_clip_rate": sum(c.clipped for c in counters) / sum(c.updates for c in counters),
            "n_resamples": sum(c.resamples for c in counters),
            "min_ess": min(c.min_ess for c in counters)}
    return ExperimentResult([CsvSeries("passivity_moments", cols, table)], meta)


# --- cumulant-compare -----------------------------------------------------------


def run_cumulant_compare_experiment(cfg, seed, workers):
    system, grid, meas, dt, n_steps, stride = _setup(cfg)
    exp = cfg["cumulant-compare"]
    hbar = system.hbar
    x0, p0, sx = exp["x0"], exp["p0"], exp["sigma_x"]
    noise = generate(seed, 0, n_steps, dt)
    psi0 = gaussian_wavefunction(grid, x0, p0, sx, hbar)
    traj = run_conditioned(grid, psi0, system, meas, [noise], sample_every=stride)

    belief = GaussianBelief(x0, p0, sx**2, 0.0, hbar**2 / (4 * sx**2),
                            quantum=True, hbar=hbar)
    _, bel_rows, _ = drive(
        belief, n_steps, dt, stride,
        lambda b, i, t: centroid_step(b, system, meas, dt, noise.increments[i], t),
        lambda b, t: [b.x_mean, b.p_mean, b.c_xx, b.c_xp, b.c_pp])
    # Both series start one stride in: the t = 0 rows are the shared start.
    full_rows, bel_rows = traj.moments[0, 1:, :5], bel_rows[1:]
    rows = np.column_stack([traj.times[1:], full_rows, bel_rows])
    report = belief_vs_full_compare(full_rows, bel_rows)
    cols = ("t [time]",
            "x_full [length]", "p_full [momentum]", "cxx_full [length^2]",
            "cxp_full [length*momentum]", "cpp_full [momentum^2]",
            "x_belief [length]", "p_belief [momentum]", "cxx_belief [length^2]",
            "cxp_belief [length*momentum]", "cpp_belief [momentum^2]")
    meta = {
        "max_abs_deviation": report.max_abs.tolist(),
        "rms_deviation": report.rms.tolist(),
        "max_relative_deviation": float(report.worst_relative()),
    }
    return ExperimentResult([CsvSeries("cumulant_compare", cols, rows)], meta)


# --- qct-scan -------------------------------------------------------------------


def run_qct_scan_experiment(cfg, seed, workers):
    system, _, meas, dt, n_steps, _ = _setup(cfg)
    exp = cfg["qct-scan"]
    times, xs, ps = newton_trajectory(exp["x0"], exp["p0"], system, dt, n_steps)
    action = exp["action"] if exp["action"] > 0 else None
    if action is None:
        undriven = SystemSpec(mass=system.mass, hbar=system.hbar,
                              potential_coeffs=system.potential_coeffs)
        _, xs_u, ps_u = newton_trajectory(exp["x0"], exp["p0"], undriven, dt, n_steps)
        action = action_scale(xs_u, ps_u)
    rep = evaluate_along_trajectory(system, xs, k=meas.strength, action=action, times=times,
                                    threshold=exp["threshold"])
    cols = ("t [time]", "x [length]",
            "localization_margin [1]", "lownoise_classical [1]",
            "window_left [1]", "window_right [1]", "singular [1]")
    table = np.column_stack([times, xs, rep.localization, rep.lownoise_classical,
                             rep.window_left, rep.window_right,
                             rep.singular_mask.astype(float)])
    meta = {
        "action": rep.action,
        "s_dimensionless": rep.s,
        "threshold": rep.threshold,
        "n_samples": int(rep.singular_mask.size),
        "n_singular": int(np.count_nonzero(rep.singular_mask)),
        "percentiles": {key: list(val) for key, val in rep.percentiles.items()},
        "window_open": bool(rep.window_open()),
    }
    return ExperimentResult([CsvSeries("qct_margins", cols, table)], meta)


# --- lyapunov -------------------------------------------------------------------


def run_lyapunov_experiment(cfg, seed, workers):
    system, grid, meas, dt, _, stride = _setup(cfg)
    run = cfg["run"]
    exp = cfg["lyapunov"]
    # Before any pool job, in the config's keys.
    check_separation(exp["delta0"], exp["sigma_x"], "lyapunov.delta0")
    threshold = exp["renorm_threshold"] if exp["renormalize"] else None
    check_threshold(threshold, exp["delta0"], ("lyapunov.renorm_threshold", "lyapunov.delta0"))
    lcfg = LyapunovConfig(
        initial_separation=exp["delta0"],
        horizon=run["horizon"],
        dt=dt,
        n_realizations=_n_realizations(run, 2),
        sample_stride=stride,
        renorm_threshold=threshold,
    )
    state0 = (grid, exp["x0"], exp["p0"], exp["sigma_x"])
    series_out = ensemble_lyapunov(state0, system, meas, lcfg, seed, workers=workers)

    out = [CsvSeries(
        "lyap_mean",
        ("t [time]", "lambda_mean [1/time]", "lambda_sd [1/time]"),
        np.column_stack([series_out.times, series_out.lam_mean, series_out.lam_sd]),
    )]
    for r in range(lcfg.n_realizations):
        out.append(CsvSeries(
            f"lyap_real_{r:03d}",
            ("t [time]", "delta [length]", "lambda [1/time]"),
            np.column_stack([series_out.times, series_out.delta[r], series_out.lam[r]]),
        ))
    meta = {
        "merged_realizations": [int(i) for i in np.nonzero(series_out.merged)[0]],
        "renormalizations": series_out.renormalizations.tolist(),
        "band_definition": "stddev over per-realization lambda(t), merged excluded",
        "max_outer_mass": series_out.max_outer_mass,
        "n_batches": series_out.n_batches,
    }
    return ExperimentResult(out, meta)


# --- cooling --------------------------------------------------------------------


def run_cooling_experiment(cfg, seed, workers):
    system, grid, meas, dt, _, stride = _setup(cfg)
    run = cfg["run"]
    exp = cfg["cooling"]
    # A policy named twice runs once.
    names = list(dict.fromkeys(p.strip() for p in exp["policies"].split(",")))
    gains = {"direct": exp["direct_gain"], "estimator": exp["estimator_gain"]}
    state0 = (grid, exp["x0"], exp["p0"], exp["sigma_x"])
    try:
        policies = [FeedbackPolicy(kind, gain=gains.get(kind, 0.0),
                                   smoothing_time=exp["direct_smoothing"], u_max=exp["u_max"])
                    for kind in names]
        res = cooling_experiment(state0, system, meas, policies,
                                 n_realizations=_n_realizations(run, 2),
                                 horizon=run["horizon"], dt=dt, master_seed=seed,
                                 sample_stride=stride, workers=workers)
    except PolicyValueError as err:   # name the key that set the policy field
        field, problem = err.args
        key = {"u_max": "u_max", "smoothing_time": "direct_smoothing"}[field]
        raise ValueError(f"cooling.{key} {problem}") from err
    root_n = np.sqrt(res.stream_indices.size)
    # Realizations add in order along axis 0, and each steady column reduces
    # as a 1-D array: steady.mean(axis=0) sums in another order and differs
    # in the last bit from 8 realizations on.
    mean = res.energy.mean(axis=0)
    se = res.energy.std(axis=0, ddof=1) / root_n
    steady = res.steady
    series = [CsvSeries(f"cooling_{name}",
                        ("t [time]", "energy_mean [energy]", "energy_se [energy]"),
                        np.column_stack([res.times, mean[j], se[j]]))
              for j, name in enumerate(names)]
    series.append(CsvSeries(
        "cooling_summary",
        ("policy_index [1]", "steady_energy_mean [energy]", "steady_energy_se [energy]"),
        np.array([[j, col.mean(), col.std(ddof=1) / root_n] for j, col in enumerate(steady.T)]),
    ))
    meta = {"policies": names, "stream_indices": res.stream_indices.tolist(),
            "retried_streams": list(res.retried_streams), "max_outer_mass": res.max_outer_mass,
            "n_batches": res.n_batches}
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if a < b:
                meta[f"paired_gap_{a}_minus_{b}"] = list(paired_gap(steady[:, i], steady[:, j]))
    return ExperimentResult(series, meta)


EXPERIMENTS = {
    "isolated": (run_isolated_experiment,
                 "von Neumann evolution of a Gaussian packet; moment series",
                 ("system", "grid", "run", "isolated")),
    "conditioned": (run_conditioned_experiment,
                    "measurement-conditioned trajectories plus ensemble mean",
                    ("system", "grid", "measurement", "run", "conditioned")),
    "passivity": (run_passivity_experiment,
                  "noise-averaged conditioned classical filter vs Liouville flow",
                  ("system", "measurement", "run", "passivity")),
    "cumulant-compare": (run_cumulant_compare_experiment,
                         "full conditioned state vs Gaussian-closure belief, shared noise",
                         ("system", "grid", "measurement", "run", "cumulant-compare")),
    "qct-scan": (run_qct_scan_experiment,
                 "trajectory-limit inequality margins along a reference orbit",
                 ("system", "measurement", "run", "qct-scan")),
    "lyapunov": (run_lyapunov_experiment,
                 "paired-trajectory divergence exponents over a noise ensemble",
                 ("system", "grid", "measurement", "run", "lyapunov")),
    "cooling": (run_cooling_experiment,
                "feedback cooling comparison under common random numbers",
                ("system", "grid", "measurement", "run", "cooling")),
}


def run_experiment(name, cfg, seed, workers):
    fn, _, _ = EXPERIMENTS[name]
    return fn(cfg, seed, workers)
