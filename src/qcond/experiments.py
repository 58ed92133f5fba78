"""Named experiments behind the command-line runner.

Each experiment consumes a validated, fully-resolved configuration
mapping (see qcond.cli for the file format), runs the corresponding
simulation, and returns CSV-ready series plus a metadata summary.
Trajectory realizations are distributed over a worker pool with
pre-indexed result slots, so the emitted bytes never depend on worker
count or scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    ClassicalEnsemble,
    PositionGrid,
    SystemSpec,
    ensemble_moments,
    gaussian_state,
    gaussian_wavefunction,
)
from .cdyn import liouville_step, run_conditioned_classical
from .cumulant import GaussianBelief, belief_vs_full_compare, centroid_step
from .feedback import FeedbackPolicy, cooling_experiment, paired_gap
from .lyap import LyapunovConfig, ensemble_lyapunov
from .noise import generate, parallel_map, substream_rng
from .qct import evaluate_along_trajectory, action_scale, NonRecurrentOrbitError
from .qdyn import MeasurementSpec, run_conditioned, run_isolated
from .cdyn import newton_trajectory

__all__ = ["EXPERIMENTS", "CsvSeries", "ExperimentResult", "run_experiment"]

MOMENT_COLUMNS = (
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


def _system(cfg) -> SystemSpec:
    s = cfg["system"]
    return SystemSpec(
        mass=s["mass"],
        hbar=s["hbar"],
        potential_coeffs=tuple(s["potential_coeffs"]),
        drive_amplitude=s["drive_amplitude"],
        drive_frequency=s["drive_frequency"],
    )


def _grid(cfg) -> PositionGrid:
    g = cfg["grid"]
    return PositionGrid(g["x_min"], g["x_max"], int(g["n_points"]))


def _traj_table(traj) -> np.ndarray:
    return np.column_stack([
        traj.times, traj.x_mean, traj.p_mean, traj.c_xx, traj.c_xp,
        traj.c_pp, traj.purity, traj.energy,
    ])


# --- isolated -----------------------------------------------------------------


def run_isolated_experiment(cfg, seed, workers):
    system = _system(cfg)
    grid = _grid(cfg)
    run = cfg["run"]
    exp = cfg["isolated"]
    dt = run["dt"]
    n_steps = int(round(run["horizon"] / dt))
    stride = int(run["sample_stride"])

    state = gaussian_state(grid, exp["x0"], exp["p0"], exp["sigma_x"], system.hbar)
    table = _traj_table(run_isolated(state, system, dt, n_steps, sample_every=stride))
    series = [CsvSeries("isolated_moments", ("t [time]",) + MOMENT_COLUMNS, table)]
    return ExperimentResult(series, {"n_steps": n_steps})


# --- conditioned --------------------------------------------------------------


def _conditioned_one(item):
    idx, job = item
    (grid, system, meas, exp, dt, n_steps, stride, seed) = job
    psi0 = gaussian_wavefunction(grid, exp["x0"], exp["p0"], exp["sigma_x"], system.hbar)
    noise = generate(seed, idx, n_steps, dt)
    traj = run_conditioned((grid, psi0), system, meas, noise, sample_every=stride)
    return idx, traj


def run_conditioned_experiment(cfg, seed, workers):
    system = _system(cfg)
    grid = _grid(cfg)
    meas = MeasurementSpec(cfg["measurement"]["k"])
    run = cfg["run"]
    exp = cfg["conditioned"]
    dt = run["dt"]
    n_steps = int(round(run["horizon"] / dt))
    stride = int(run["sample_stride"])
    n_real = int(run["n_realizations"])

    jobs = [(grid, system, meas, exp, dt, n_steps, stride, seed)] * n_real
    trajs = parallel_map(_conditioned_one, jobs, workers)

    series = []
    stacks = []
    for idx, traj in enumerate(trajs):
        table = _traj_table(traj)
        series.append(CsvSeries(f"conditioned_traj_{idx:03d}",
                                ("t [time]",) + MOMENT_COLUMNS, table))
        stacks.append(table[:, 1:])
    mean = np.mean(np.stack(stacks), axis=0)
    mean_table = np.column_stack([trajs[0].times, mean])
    series.insert(0, CsvSeries("conditioned_mean", ("t [time]",) + MOMENT_COLUMNS, mean_table))
    return ExperimentResult(series, {"n_realizations": n_real})


# --- passivity ------------------------------------------------------------------


def _passivity_one(item):
    idx, job = item
    (system, meas, ens0, dt, n_steps, stride, seed) = job
    noise = generate(seed, idx, n_steps, dt)
    rng = substream_rng(seed, idx, "resample")
    times, mom, _ = run_conditioned_classical(ens0, system, meas, noise,
                                              sample_every=stride, resample_rng=rng)
    # raw moments so realizations average like the underlying distribution
    x, p = mom[:, 0], mom[:, 1]
    raw = np.column_stack([x, p, mom[:, 2] + x**2, mom[:, 3] + x * p, mom[:, 4] + p**2])
    return idx, (times, raw)


def run_passivity_experiment(cfg, seed, workers):
    system = _system(cfg)
    meas = MeasurementSpec(cfg["measurement"]["k"])
    run = cfg["run"]
    exp = cfg["passivity"]
    dt = run["dt"]
    n_steps = int(round(run["horizon"] / dt))
    stride = int(run["sample_stride"])
    n_real = int(run["n_realizations"])

    rng = substream_rng(seed, 0, "passivity-init")
    n_part = int(exp["n_particles"])
    ens0 = ClassicalEnsemble(
        rng.normal(exp["x0"], exp["sigma_x"], n_part),
        rng.normal(exp["p0"], exp["sigma_p"], n_part),
        np.full(n_part, 1.0 / n_part),
    )
    jobs = [(system, meas, ens0, dt, n_steps, stride, seed)] * n_real
    outs = parallel_map(_passivity_one, jobs, workers)
    times = outs[0][0]
    raws = np.stack([o[1] for o in outs])
    mean = raws.mean(axis=0)
    se = raws.std(axis=0, ddof=1) / np.sqrt(n_real)

    ens = ens0
    ref_rows = []
    t = 0.0
    for i in range(n_steps):
        ens = liouville_step(ens, system, dt, t)
        t = (i + 1) * dt
        if (i + 1) % stride == 0:
            m = ensemble_moments(ens, system, t)
            ref_rows.append([m.x_mean, m.p_mean, m.c_xx + m.x_mean**2,
                             m.c_xp + m.x_mean * m.p_mean, m.c_pp + m.p_mean**2])
    m0 = ensemble_moments(ens0, system, 0.0)
    ref = np.vstack([[m0.x_mean, m0.p_mean, m0.c_xx + m0.x_mean**2,
                      m0.c_xp + m0.x_mean * m0.p_mean, m0.c_pp + m0.p_mean**2], ref_rows])
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
            "n_realizations": n_real}
    return ExperimentResult([CsvSeries("passivity_moments", cols, table)], meta)


# --- cumulant-compare -----------------------------------------------------------


def run_cumulant_compare_experiment(cfg, seed, workers):
    system = _system(cfg)
    grid = _grid(cfg)
    meas = MeasurementSpec(cfg["measurement"]["k"])
    run = cfg["run"]
    exp = cfg["cumulant-compare"]
    dt = run["dt"]
    n_steps = int(round(run["horizon"] / dt))
    stride = int(run["sample_stride"])

    hbar = system.hbar
    x0, p0, sx = exp["x0"], exp["p0"], exp["sigma_x"]
    include_curv = bool(exp["include_force_curvature"])
    noise = generate(seed, 0, n_steps, dt)
    psi0 = gaussian_wavefunction(grid, x0, p0, sx, hbar)
    traj = run_conditioned((grid, psi0), system, meas, noise, sample_every=stride)

    belief = GaussianBelief(x0, p0, sx**2, 0.0, hbar**2 / (4 * sx**2),
                            quantum=True, hbar=hbar)
    bel_rows = []
    t = 0.0
    for i in range(n_steps):
        belief = centroid_step(belief, system, meas, dt, noise.increments[i], t,
                               include_force_curvature=include_curv)
        t = (i + 1) * dt
        if (i + 1) % stride == 0:
            bel_rows.append([belief.x_mean, belief.p_mean, belief.c_xx, belief.c_xp, belief.c_pp])
    # Drop the full state's t0 sample: the belief series starts one stride in.
    full_rows, bel_rows = traj.moment_matrix()[1:], np.array(bel_rows)
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
    system = _system(cfg)
    run = cfg["run"]
    exp = cfg["qct-scan"]
    k = cfg["measurement"]["k"]
    dt = run["dt"]
    n_steps = int(round(run["horizon"] / dt))

    times, xs, ps = newton_trajectory(exp["x0"], exp["p0"], system, dt, n_steps)
    action = exp["action"] if exp["action"] > 0 else None
    if action is None:
        undriven = SystemSpec(mass=system.mass, hbar=system.hbar,
                              potential_coeffs=system.potential_coeffs)
        _, xs_u, ps_u = newton_trajectory(exp["x0"], exp["p0"], undriven, dt, n_steps)
        action = action_scale(xs_u, ps_u)
    rep = evaluate_along_trajectory(system, xs, k=k, action=action, times=times,
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
        "percentiles": {key: list(val) for key, val in rep.percentiles.items()},
        "window_open": bool(rep.window_open()),
    }
    return ExperimentResult([CsvSeries("qct_margins", cols, table)], meta)


# --- lyapunov -------------------------------------------------------------------


def run_lyapunov_experiment(cfg, seed, workers):
    system = _system(cfg)
    grid = _grid(cfg)
    k = cfg["measurement"]["k"]
    meas = MeasurementSpec(k) if k > 0 else None
    run = cfg["run"]
    exp = cfg["lyapunov"]
    lcfg = LyapunovConfig(
        initial_separation=exp["delta0"],
        horizon=run["horizon"],
        dt=run["dt"],
        n_realizations=int(run["n_realizations"]),
        sample_stride=int(run["sample_stride"]),
        renormalize=bool(exp["renormalize"]),
        renorm_threshold=exp["renorm_threshold"] if exp["renormalize"] else None,
    )
    state0 = (grid, exp["x0"], exp["p0"], exp["sigma_x"])
    series_out = ensemble_lyapunov(state0, system, meas, lcfg, seed, workers=workers or 1)

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
        "merged_realizations": [int(i) for i in np.nonzero(series_out.merged_flags)[0]],
        "renormalizations": series_out.renormalizations.tolist(),
        "band_definition": "stddev over per-realization lambda(t), merged excluded",
    }
    return ExperimentResult(out, meta)


# --- cooling --------------------------------------------------------------------


def run_cooling_experiment(cfg, seed, workers):
    system = _system(cfg)
    grid = _grid(cfg)
    meas = MeasurementSpec(cfg["measurement"]["k"])
    run = cfg["run"]
    exp = cfg["cooling"]
    policies = {}
    for kind in [p.strip() for p in exp["policies"].split(",")]:
        if kind == "none":
            policies[kind] = FeedbackPolicy("none")
        elif kind == "direct":
            policies[kind] = FeedbackPolicy("direct", gain=exp["direct_gain"],
                                            smoothing_time=exp["direct_smoothing"],
                                            u_max=exp["u_max"])
        elif kind == "estimator":
            policies[kind] = FeedbackPolicy("estimator", gain=exp["estimator_gain"],
                                            u_max=exp["u_max"])
        else:
            raise ValueError(f"unknown policy kind {kind!r}")
    state0 = (grid, exp["x0"], exp["p0"], exp["sigma_x"])
    results = cooling_experiment(state0, system, meas, policies,
                                 n_realizations=int(run["n_realizations"]),
                                 horizon=run["horizon"], dt=run["dt"],
                                 master_seed=seed,
                                 sample_stride=int(run["sample_stride"]))
    series = []
    summary_rows = []
    names = list(results)
    for idx, name in enumerate(names):
        res = results[name]
        series.append(CsvSeries(
            f"cooling_{name}",
            ("t [time]", "energy_mean [energy]", "energy_se [energy]"),
            np.column_stack([res.times, res.energy_mean, res.energy_se]),
        ))
        summary_rows.append([float(idx), res.steady_mean, res.steady_se])
    series.append(CsvSeries(
        "cooling_summary",
        ("policy_index [1]", "steady_energy_mean [energy]", "steady_energy_se [energy]"),
        np.array(summary_rows),
    ))
    first = results[names[0]]
    meta = {"policies": names, "stream_indices": first.stream_indices.tolist(),
            "retried_streams": list(first.retried_streams)}
    for a in names:
        for b in names:
            if a < b:
                gap, se = paired_gap(results[a], results[b])
                meta[f"paired_gap_{a}_minus_{b}"] = [gap, se]
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
