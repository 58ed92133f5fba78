"""The benchmark's workloads and how one CLI invocation is run and measured.

Each workload is one or more ``qcond`` CLI invocations on INI files kept
in ``bench/configs`` (bench-scale copies of the shipped configs).  Each
layer a later change may optimise does most of its work in one workload
and none in another, so a claimed gain always has a workload that shows
it and one that must stay unchanged (see ``Workload.called``).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(BENCH, "configs")

# Master seeds with stored reference outputs.  ``--seed n`` starts at slot
# n of this ring and each further invocation takes the next slot, so every
# timed run is checked against outputs of the seed commit.  The first slot
# is the CLI's default seed.
SEED_POOL = tuple(20240601 + i for i in range(8))


def cli_seed(bench_seed: int, invocation: int) -> int:
    return SEED_POOL[(bench_seed + invocation) % len(SEED_POOL)]


def _steps(run) -> int:
    return int(round(run["horizon"] / run["dt"]))


def _work_cooling(cfg):
    policies = [p for p in cfg["cooling"]["policies"].split(",") if p.strip()]
    return cfg["run"]["n_realizations"] * len(policies) * _steps(cfg["run"])


def _work_lyapunov(cfg):
    return cfg["run"]["n_realizations"] * 2 * _steps(cfg["run"])


def _work_isolated(cfg):
    return _steps(cfg["run"])


def _work_passivity(cfg):
    return cfg["run"]["n_realizations"] * _steps(cfg["run"])


def _work_qct(cfg):
    # A zero action is derived from a second, undriven Newton orbit.
    orbits = 2 if cfg["qct-scan"]["action"] <= 0 else 1
    return orbits * _steps(cfg["run"])


# Trajectory steps of one CLI invocation, by experiment, from its resolved config.
WORK = {
    "cooling": _work_cooling,
    "lyapunov": _work_lyapunov,
    "isolated": _work_isolated,
    "passivity": _work_passivity,
    "qct-scan": _work_qct,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: tuple      # INI files under bench/configs, run in order
    workers: int        # --workers of the untraced runs (at most 2)
    called: frozenset   # traced calls (and "fft") expected to be nonzero


_CLI = {"experiments.run_experiment", "cli.load_config", "cli.write_outputs"}

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "cooling",
            "pure-state stepper under a per-step control, Gaussian belief and "
            "feedback loop at n=256; serial, so per-core gains show with no pool",
            ("cooling.ini",), 1,
            frozenset(_CLI | {"qdyn.PureStepper.conditioned", "qdyn.PureStepper.mean_x",
                              "core.wavefunction_moments", "core.SystemSpec.with_control",
                              "cumulant.centroid_step", "feedback.run_closed_loop",
                              "noise.generate", "fft"})),
        Workload(
            "lyapunov",
            "shared-noise stepper pairs at n=512 with a mean read every step "
            "for renormalization, on the 2-worker lyap fork pool",
            ("lyapunov.ini",), 2,
            frozenset(_CLI | {"qdyn.PureStepper.conditioned", "qdyn.PureStepper.mean_x",
                              "lyap.paired_run", "lyap.ensemble_lyapunov",
                              "noise.generate", "fft"})),
        Workload(
            "density",
            "the only CLI user of the O(n^2) density path (DensityStepper, "
            "quantum_moments); no noise, measurement or pure stepper",
            ("density.ini",), 1,
            frozenset(_CLI | {"qdyn.DensityStepper.isolated", "core.quantum_moments",
                              "fft"})),
        Workload(
            "classical",
            "no FFT or wavefunction: particle filter on the 2-worker experiments "
            "pool, then regime margins with an 11 MB CSV",
            ("passivity.ini", "qct_scan.ini"), 2,
            frozenset(_CLI | {"cdyn.run_conditioned_classical", "cdyn.ks_step",
                              "cdyn.resample", "cdyn.liouville_step",
                              "cdyn.newton_trajectory", "core.ensemble_moments",
                              "qct.evaluate_along_trajectory", "qct.action_scale",
                              "noise.generate"})),
    )
}


def child_env(root: str) -> dict:
    """Environment of a CLI process: qcond from ``src/``, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("QCOND_SEED", None)
    return env


@dataclass
class Invocation:
    """One CLI process, measured from spawn to written outputs."""

    config: str
    seed: int
    workers: int
    outdir: str
    rc: int
    log: str
    wall_s: float = float("nan")
    setup_s: float = float("nan")
    cpu_s: float = float("nan")
    peak_rss_mb: float = float("nan")
    work: int = 0
    cli_wall_s: float = float("nan")   # the CLI's own wall_time_seconds
    bytes_written: int = 0
    cal_wall_s: float = float("nan")   # calibrate() around the process, wall
    cal_cpu_s: float = float("nan")    # and CPU time, mean of before and after


CAL_STEPS = 1200
CAL_WARM_STEPS = 300


def calibrate():
    """Wall and CPU seconds of a fixed reference computation, in this process.

    It has the shape of qcond's hot loops: per-step Python around small
    FFTs (256 points) and, every 16th step, a column FFT of a 128 x 128
    matrix.  The host's speed swings by up to 2x over seconds to minutes
    (other tenants share its cores and caches); timed next to a CLI
    process, this computation slows with it, so a time divided by its
    time is steadier than the time itself.  It runs nothing from
    ``src/``, so no change to qcond moves it.  Its first steps, which
    refill the caches the CLI process just used, are not timed.
    """
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    rho = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    phase = np.exp(1j * np.linspace(0.0, 3.0, 256))
    columns = np.exp(1j * np.linspace(0.0, 2.0, 128))[:, None]
    for step in range(CAL_WARM_STEPS + CAL_STEPS):
        if step == CAL_WARM_STEPS:
            t0, c0 = time.perf_counter(), time.process_time()
        psi = np.fft.ifft(np.fft.fft(psi) * phase)
        psi /= np.sqrt(np.vdot(psi, psi).real)
        if step % 16 == 0:
            rho = np.fft.ifft(np.fft.fft(rho, axis=0) * columns, axis=0)
    return time.perf_counter() - t0, time.process_time() - c0


def invoke(root: str, config: str, seed: int, workers: int, outdir: str,
           timeout: float, spans_path: str = None) -> Invocation:
    """Run one CLI invocation in a fresh process and wait for it to end.

    ``wait4`` returns the user+sys time of the process and of every
    descendant it reaped, so fork-pool workers are included; the process
    stamps its own peak RSS (launch.py).  ``calibrate()`` runs before and
    after the process.  After ``timeout`` seconds the process group is
    killed and the run fails.
    """
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(os.path.dirname(outdir), exist_ok=True)
    stamps_path = outdir + ".stamps.json"
    log_path = outdir + ".log"
    for path in (stamps_path, spans_path):
        if path and os.path.exists(path):
            os.remove(path)
    cmd = [sys.executable, os.path.join(BENCH, "launch.py"), stamps_path]
    if spans_path:
        cmd += ["--spans", spans_path]
    cmd += ["--", "--config", os.path.join(CONFIGS, config), "--seed", str(seed),
            "--workers", str(workers), "--out", outdir]
    env = child_env(root)
    cal_before = calibrate()
    with open(log_path, "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() - t_spawn > timeout:
                    os.killpg(proc.pid, signal.SIGKILL)
                    _, status, usage = os.wait4(proc.pid, 0)
                    print(f"killed after {timeout:.0f} s", file=log)
                    break
                time.sleep(0.02)
        except BaseException:
            # Interrupted (Ctrl-C, SIGTERM): end the CLI and its pool first.
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    cal_after = calibrate()
    with open(log_path) as fh:
        log_text = fh.read()
    inv = Invocation(config, seed, workers, outdir, rc, log_text)
    inv.cal_wall_s = (cal_before[0] + cal_after[0]) / 2
    inv.cal_cpu_s = (cal_before[1] + cal_after[1]) / 2
    if rc != 0 or not os.path.exists(stamps_path):
        inv.rc = rc or 1
        return inv
    with open(stamps_path) as fh:
        stamps = json.load(fh)
    with open(os.path.join(outdir, "metadata.json")) as fh:
        meta = json.load(fh)
    inv.wall_s = stamps["t_done"] - t_spawn
    inv.setup_s = stamps["t_run"] - t_spawn
    inv.cpu_s = usage.ru_utime + usage.ru_stime
    inv.peak_rss_mb = stamps["peak_rss_kb"] / 1024.0
    inv.work = WORK[meta["experiment"]](meta["resolved_config"])
    inv.cli_wall_s = meta["wall_time_seconds"]
    inv.bytes_written = sum(entry.stat().st_size for entry in os.scandir(outdir))
    return inv


def warm_up(root: str):
    """Import qcond once untimed, so .pyc files and the page cache are warm,
    and run the calibration once, so numpy's FFT plans are cached."""
    subprocess.run([sys.executable, "-c", "import qcond.cli"], cwd=root,
                   env=child_env(root), check=True)
    calibrate()
