"""qcond benchmark: CLI workloads timed end to end, or traced per layer.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cooling, lyapunov, density, classical (see workloads.py),
or ``all`` to run each in turn.  One client runs in a closed loop: each
workload execution is a fresh ``qcond`` CLI process per config (through
``qcond.cli.main``), started when the previous one has ended, until S
seconds are used (at least three executions).  Every execution's CSVs
are checked against the seed commit's reference outputs (reference.py).

``--trace 0`` reports, as medians over the executions (see ``end_to_end``):

* ``wall_cal``: spawn until the outputs are written, summed over configs,
  in units of ``workloads.calibrate()`` timed around each CLI process;
* ``cpu_cal``: user+sys time of the CLI processes, pool workers included,
  in units of the calibration's CPU time;
* ``steps_per_cal``: trajectory steps (from the resolved config) / wall_cal;
* ``setup_s``: spawn until the first ``run_experiment`` call (interpreter
  start, ``import qcond``, config load and validation), per process;
* ``peak_rss_mb``: peak RSS over the run's processes;

and prints the raw ``wall_s``, ``cpu_s`` and ``steps_per_s`` beside them.

``--trace 1`` alternates a traced execution at ``--workers 1`` (spans.py),
an untraced one at ``--workers 1`` and, for pool workloads, an untraced
one at the workload's worker count; all three must write byte-identical
CSVs.  It reports per traced call ``<f>.calls``, ``<f>.self_s`` (span
time minus the time of its child spans) and ``<f>.us_per_call`` (span
time per call, children included), plus the FFT counts and the tracing
overhead against the untraced ``--workers 1`` executions.

Both modes print ``failed_frac``: executions that exited nonzero or wrote
CSVs outside the reference tolerance, over executions attempted.  The
last stdout line is one JSON object: correct, attempted, failed and
metrics.  A run record (machine, versions, source line count) and every
sample are saved under ``.bench_out/results``.  The benchmark's own checks
run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import reference
from spans import SPAN_NAMES
from workloads import SEED_POOL, WORKLOADS, cli_seed, invoke, warm_up

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
MIN_EXECUTIONS = 3           # timed executions per run, whatever --seconds says
MIN_TRACED_CYCLES = 2
HARD_STOP_S = 150.0          # start nothing that would end past this
FFT_BYTES_PER_POINT = 16 * 2  # complex128, read once and written once


@dataclass
class Execution:
    """One pass of a workload: its CLI invocations and their output check."""

    invocations: list
    check: reference.Check

    @property
    def ran(self) -> bool:
        return all(inv.rc == 0 for inv in self.invocations)

    @property
    def ok(self) -> bool:
        return self.ran and self.check.ok

    @property
    def wall_s(self) -> float:
        return sum(inv.wall_s for inv in self.invocations)

    @property
    def cpu_s(self) -> float:
        return sum(inv.cpu_s for inv in self.invocations)

    @property
    def steps_per_s(self) -> float:
        return sum(inv.work for inv in self.invocations) / self.wall_s

    @property
    def peak_rss_mb(self) -> float:
        return max(inv.peak_rss_mb for inv in self.invocations)

    def summary(self) -> dict:
        return {
            "seed": self.invocations[0].seed,
            "workers": self.invocations[0].workers,
            "ok": self.ok,
            "identical": self.check.identical,
            "wall_s": [inv.wall_s for inv in self.invocations] if self.ran else None,
            "cpu_s": [inv.cpu_s for inv in self.invocations] if self.ran else None,
            "setup_s": [inv.setup_s for inv in self.invocations] if self.ran else None,
            "peak_rss_mb": self.peak_rss_mb if self.ran else None,
            "cal_wall_s": [inv.cal_wall_s for inv in self.invocations],
            "cal_cpu_s": [inv.cal_cpu_s for inv in self.invocations],
        }


def execute(wl, ref, seed: int, workers: int, tag: str, deadline: float,
            traced=False) -> Execution:
    """Run every config of ``wl`` once and check the outputs.

    A CLI process still running at the monotonic ``deadline`` is killed.
    """
    invocations, outdirs = [], {}
    for config in wl.configs:
        outdir = os.path.join(OUT, "runs", wl.name, tag, config[:-len(".ini")])
        spans_path = outdir + ".spans.npz" if traced else None
        inv = invoke(ROOT, config, seed, workers, outdir, deadline - time.monotonic(),
                     spans_path)
        invocations.append(inv)
        outdirs[config] = outdir
        if inv.rc != 0:
            tail = "\n".join(inv.log.splitlines()[-15:])
            check = reference.Check(False, [f"{wl.name} {config} seed {seed} exited with "
                                            f"code {inv.rc}:\n{tail}"])
            break
    else:
        check = reference.check(outdirs, wl.name, seed, ref)
    for problem in check.problems:
        print(f"FAILED: {problem}", flush=True)
    return Execution(invocations, check)


def closed_loop(seconds: float, one, at_least: int):
    """Call ``one(i, deadline)`` for i = 0, 1, ... until ``seconds`` are used.

    Nothing starts that would likely end after HARD_STOP_S, and nothing
    runs past it.
    """
    start = time.monotonic()
    deadline = start + HARD_STOP_S
    durations = []
    while True:
        t0 = time.monotonic()
        one(len(durations), deadline)
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if len(durations) >= at_least and elapsed + statistics.median(durations) > seconds:
            return
        if elapsed + max(durations) > HARD_STOP_S:
            return


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(executions) -> dict:
    """End-to-end metrics of the run: medians over its executions.

    Times are reported in units of ``workloads.calibrate()``, the
    reference computation timed before and after each CLI process: the
    host's speed swings by up to 2x over seconds to minutes, which moves
    a time in seconds but much less its ratio to the reference.  A
    workload of several configs takes each config's median: times add up
    over the configs and peak RSS is the largest.  The medians and
    quartiles of the raw seconds are printed alongside.
    """
    ran = [e for e in executions if e.ran]
    if not ran:
        return {}
    by_config = list(zip(*(e.invocations for e in ran)))
    work = sum(inv.work for inv in ran[0].invocations)

    def median(value):
        return [statistics.median(value(inv) for inv in runs) for runs in by_config]

    wall_cal = sum(median(lambda inv: inv.wall_s / inv.cal_wall_s))
    metrics = {
        "wall_cal": (wall_cal, "cal"),
        "cpu_cal": (sum(median(lambda inv: inv.cpu_s / inv.cal_cpu_s)), "cal"),
        "steps_per_cal": (work / wall_cal, "steps/cal"),
        "setup_s": (statistics.mean(median(lambda inv: inv.setup_s)), "s"),
        "peak_rss_mb": (max(median(lambda inv: inv.peak_rss_mb)), "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:>14.6g} {unit:<9} median of {len(ran)} executions")
    raw = {
        "wall_s": ("s", [e.wall_s for e in ran]),
        "cpu_s": ("s", [e.cpu_s for e in ran]),
        "steps_per_s": ("steps/s", [e.steps_per_s for e in ran]),
        "cal_s": ("s", [inv.cal_wall_s for e in ran for inv in e.invocations]),
    }
    for name, (unit, values) in raw.items():
        q1, q3 = _quartiles(values)
        print(f"  {name:<12} {statistics.median(values):>14.6g} {unit:<9} median of "
              f"{len(values)}, quartiles {q1:.6g} .. {q3:.6g}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def span_totals(paths) -> dict:
    """calls, self ns, span ns per traced call and summed counters."""
    totals = {name: [0, 0, 0] for name in SPAN_NAMES}
    counters = {}
    for path in paths:
        with np.load(path) as data:
            spans = data["spans"]
            header = json.loads(str(data["header"]))
        names, (index, parent, start, end) = header["names"], spans.T
        duration = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=len(spans))
        k = len(names)
        calls = np.bincount(index, minlength=k)
        self_ns = np.bincount(index, weights=duration - child, minlength=k)
        span_ns = np.bincount(index, weights=duration, minlength=k)
        for i, name in enumerate(names):
            totals[name][0] += int(calls[i])
            totals[name][1] += float(self_ns[i])
            totals[name][2] += float(span_ns[i])
        for key, value in header["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"spans": totals, "counters": counters}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(traced: Execution, plain: Execution, pooled: Execution) -> dict:
    """Per-layer values of one traced execution.

    ``plain`` and ``pooled`` are its untraced twins at ``--workers 1`` and
    at the workload's worker count; pool efficiency is the serial time of
    the one over the worker-seconds of the other, both as the CLI's own
    ``wall_time_seconds``, so tracing overhead does not enter it.
    """
    t = span_totals([inv.outdir + ".spans.npz" for inv in traced.invocations])
    spans, counters = t["spans"], t["counters"]
    out = {}
    for name, (calls, self_ns, span_ns) in spans.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_ns * 1e-9
        out[f"{name}.us_per_call"] = _ratio(span_ns * 1e-3, calls)
    steps = spans["qdyn.PureStepper.conditioned"][0]
    out["qdyn.mean_x_per_step"] = _ratio(spans["qdyn.PureStepper.mean_x"][0], steps)
    out["core.with_control_per_step"] = _ratio(spans["core.SystemSpec.with_control"][0], steps)
    out["feedback.retried_streams"] = counters.get("feedback.retried_streams", 0)
    out["lyap.renormalizations"] = counters.get("lyap.renormalizations", 0)
    out["cdyn.resample_per_step"] = _ratio(spans["cdyn.resample"][0], spans["cdyn.ks_step"][0])
    out["experiments.pool_efficiency"] = _ratio(
        sum(inv.cli_wall_s for inv in plain.invocations),
        sum(inv.workers * inv.cli_wall_s for inv in pooled.invocations))
    out["cli.bytes_written"] = sum(inv.bytes_written for inv in traced.invocations)
    out["fft.calls"] = counters.get("fft.calls", 0)
    out["fft.points"] = counters.get("fft.points", 0)
    out["fft.bytes_computed"] = out["fft.points"] * FFT_BYTES_PER_POINT
    return out


PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us"}
EXTRA_UNITS = {
    "qdyn.mean_x_per_step": "1", "core.with_control_per_step": "1",
    "feedback.retried_streams": "count", "lyap.renormalizations": "count",
    "cdyn.resample_per_step": "1", "experiments.pool_efficiency": "1",
    "cli.bytes_written": "B", "fft.calls": "count", "fft.points": "count",
    "fft.bytes_computed": "B", "trace.overhead_frac": "1",
}


def unit_of(metric: str) -> str:
    return EXTRA_UNITS.get(metric) or PER_LAYER_UNITS[metric.rsplit(".", 1)[1]]


def called_layers(values: dict) -> set:
    """Traced calls (and "fft") that one workload's per-layer values show called."""
    called = {name for name in SPAN_NAMES if values[f"{name}.calls"] > 0}
    return called | {"fft"} if values["fft.calls"] > 0 else called


def per_layer(wl, cycles) -> dict:
    ok = [c for c in cycles if all(e.ran for e in c)]
    if not ok:
        return {}
    samples = [layer_metrics(*cycle) for cycle in ok]
    values = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    values["trace.overhead_frac"] = (statistics.median(c[0].wall_s for c in ok)
                                     / statistics.median(c[1].wall_s for c in ok) - 1.0)
    called = called_layers(values)
    if called == wl.called:
        print("  coverage: called and bypassed layers as expected")
    else:
        print(f"COVERAGE MISMATCH on {wl.name}: called but expected bypassed "
              f"{sorted(called - wl.called)}; expected but not called "
              f"{sorted(wl.called - called)}")
    total_self = sum(values[f"{n}.self_s"] for n in SPAN_NAMES) or 1.0
    print(f"  {'traced call':<36} {'calls':>9} {'self_s':>9} {'share':>6} {'us/call':>9}")
    for name in sorted(SPAN_NAMES, key=lambda n: -values[f"{n}.self_s"]):
        if values[f"{name}.calls"]:
            print(f"  {name:<36} {values[f'{name}.calls']:>9.0f} "
                  f"{values[f'{name}.self_s']:>9.4f} "
                  f"{values[f'{name}.self_s'] / total_self:>6.1%} "
                  f"{values[f'{name}.us_per_call']:>9.2f}")
    for key in EXTRA_UNITS:
        print(f"  {key:<36} {values[key]:>14.6g} {unit_of(key)}")
    print(f"  traced executions: {len(ok)}")
    return {key: {"value": value, "unit": unit_of(key)} for key, value in values.items()}


def traced_cycles(wl, ref, bench_seed: int, seconds: float):
    cycles = []

    def one(i, deadline):
        seed = cli_seed(bench_seed, i)
        traced = execute(wl, ref, seed, 1, "traced", deadline, traced=True)
        plain = execute(wl, ref, seed, 1, "w1", deadline)
        pooled = execute(wl, ref, seed, wl.workers, f"w{wl.workers}", deadline) \
            if wl.workers > 1 else plain
        # Tracing and worker count must not change a single output byte.
        if all(e.ran for e in (traced, plain, pooled)) and not (
                traced.check.hashes == plain.check.hashes == pooled.check.hashes):
            problem = (f"{wl.name} seed {seed}: outputs differ between traced --workers 1, "
                       f"untraced --workers 1 and untraced --workers {wl.workers}")
            print(f"FAILED: {problem}", flush=True)
            traced.check.problems.append(problem)
        cycles.append((traced, plain, pooled))

    closed_loop(seconds, one, MIN_TRACED_CYCLES)
    # Serial workloads reuse the --workers 1 execution as the pooled one.
    return cycles, list({id(e): e for c in cycles for e in c}.values())


def _machine() -> dict:
    """CPU model and per-level cache sizes, as the kernel reports them."""
    info = {"cpu_model": None, "l2_cache": None, "l3_cache": None}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                      if line.startswith("model name")), None)
        cache = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(cache)):
            if index.startswith("index"):
                with open(os.path.join(cache, index, "level")) as fh:
                    level = fh.read().strip()
                with open(os.path.join(cache, index, "size")) as fh:
                    info[f"l{level}_cache"] = fh.read().strip()
    except OSError:
        pass
    return {key: info[key] for key in ("cpu_model", "l2_cache", "l3_cache")}


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def run_record(wl, bench_seed: int, seconds: float, trace: int) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True).stdout.strip() or None
        except OSError:
            pass
    src_hash, src_lines = hashlib.sha256(), 0
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    text = fh.read()
                src_hash.update(name.encode() + b"\0" + text)
                src_lines += text.count(b"\n")
    return {
        "workload": wl.name, "seed": bench_seed, "seconds": seconds, "trace": trace,
        "workers": 1 if trace else wl.workers, "cli_seeds": list(SEED_POOL),
        "nproc": os.cpu_count(), **_machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": _version("scipy"), "commit": commit,
        "src_sha256": src_hash.hexdigest(), "src_lines": src_lines,
    }


def run_workload(wl, bench_seed: int, seconds: float, trace: int) -> dict:
    ref = reference.load(wl.name)
    warm_up(ROOT)
    print(f"workload {wl.name} (seed {bench_seed}, {seconds:g} s, trace {trace}, "
          f"--workers {1 if trace else wl.workers}): {wl.why}", flush=True)
    if trace:
        cycles, executions = traced_cycles(wl, ref, bench_seed, seconds)
        metrics = per_layer(wl, cycles)
    else:
        executions = []
        closed_loop(seconds, lambda i, deadline: executions.append(
            execute(wl, ref, cli_seed(bench_seed, i), wl.workers, "timed", deadline)),
            MIN_EXECUTIONS)
        metrics = end_to_end(executions)
    failed = sum(not e.ok for e in executions)
    identical = sum(e.check.identical for e in executions)
    print(f"  failed_frac  {failed / len(executions):>14.6g} 1        "
          f"{failed} of {len(executions)} executions; outputs identical to the "
          f"reference in {identical}, identical or within tolerance in "
          f"{len(executions) - failed}")
    record = run_record(wl, bench_seed, seconds, trace)
    print(f"  run record: {json.dumps(record)}")
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    result = {"attempted": len(executions), "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, "results", f"{wl.name}-seed{bench_seed}-trace{trace}.json"),
              "w") as fh:
        json.dump({"record": record, "result": result,
                   "executions": [e.summary() for e in executions]}, fh, indent=1)
    shutil.rmtree(os.path.join(OUT, "runs", wl.name), ignore_errors=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind as on Ctrl-C, so a running CLI process is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "qcond", "cli.py")):
        print(f"error: no qcond sources under {os.path.join(ROOT, 'src')}; the benchmark "
              "runs in a checkout of the repository", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
               for name in names}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{key}": value for name, r in results.items()
                   for key, value in r["metrics"].items()}
    if not metrics:
        print("error: no execution completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
