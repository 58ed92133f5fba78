"""Experiment runner: strict INI configs in, CSV series + metadata out.

Usage:
    qcond --config run.ini [--seed N] [--out DIR] [--workers N]
          [--set SECTION.KEY=VALUE ...]
    qcond --list

Seed precedence: --seed flag, then the QCOND_SEED environment variable,
then [run] master_seed from the config, then a fixed default.  Every
run writes the fully resolved configuration, the seed actually used,
the package version, and the wall time into metadata.json next to the
CSVs, which is enough to reproduce the output byte for byte.

Exit codes: 0 success, 2 configuration error, 3 numerical abort,
4 output I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .core import QcondError
from .experiments import EXPERIMENTS, run_experiment

DEFAULT_SEED = 20240601
ENV_SEED = "QCOND_SEED"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class ConfigError(Exception):
    pass


def _number(raw: str):
    """float(raw), refusing NaN: it would pass every range check written as a comparison."""
    if np.isnan(value := float(raw)):
        raise ValueError(f"{raw.strip()!r} is not a number")
    return value


def _floats_list(raw: str):
    return [_number(tok) for tok in raw.replace(",", " ").split()]


def _boolean(raw: str):
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# Section schemas: key -> (parser, default); REQUIRED means no default.
REQUIRED = object()

# The Gaussian start packet of the wavefunction, density and particle runs.
PACKET = {"x0": (_number, 0.0), "p0": (_number, 0.0), "sigma_x": (_number, REQUIRED)}

SCHEMA = {
    "experiment": {"name": (str.strip, REQUIRED)},
    "system": {
        "mass": (_number, REQUIRED),
        "hbar": (_number, 1.0),
        "potential_coeffs": (_floats_list, REQUIRED),
        "drive_amplitude": (_number, 0.0),
        "drive_frequency": (_number, 0.0),
    },
    "grid": {
        "x_min": (_number, REQUIRED),
        "x_max": (_number, REQUIRED),
        "n_points": (int, 128),
    },
    "measurement": {"k": (_number, REQUIRED)},
    "run": {
        "dt": (_number, REQUIRED),
        "horizon": (_number, REQUIRED),
        "n_realizations": (int, 1),
        "master_seed": (int, DEFAULT_SEED),
        "sample_stride": (int, 10),
    },
    "isolated": PACKET,
    "conditioned": PACKET,
    "passivity": {**PACKET, "n_particles": (int, 512), "sigma_p": (_number, REQUIRED)},
    "cumulant-compare": PACKET,
    "qct-scan": {
        "x0": (_number, REQUIRED),
        "p0": (_number, 0.0),
        "action": (_number, 0.0),   # 0 = derive from the undriven orbit
        "threshold": (_number, 10.0),
    },
    "lyapunov": {
        **PACKET,
        "delta0": (_number, REQUIRED),
        "renormalize": (_boolean, False),
        "renorm_threshold": (_number, 0.0),
    },
    "cooling": {
        **PACKET,
        "policies": (str.strip, "none,direct,estimator"),
        "direct_gain": (_number, -1.0),
        "direct_smoothing": (_number, 0.8),
        "estimator_gain": (_number, 3.0),
        "u_max": (_number, 5.0),
    },
}


def load_config(path, overrides=()):
    """Parse and validate; unknown sections or keys are fatal."""
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not SECTION.KEY=VALUE")
        dotted, value = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override {item!r} is not SECTION.KEY=VALUE")
        section, key = dotted.split(".", 1)
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section.strip(), key.strip(), value.strip())

    if not parser.has_section("experiment"):
        raise ConfigError("missing [experiment] section")
    name = parser.get("experiment", "name", fallback=None)
    if name is None:
        raise ConfigError("missing experiment.name")
    name = name.strip()
    if name not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r}; known: {', '.join(sorted(EXPERIMENTS))}"
        )
    _, _, required_sections = EXPERIMENTS[name]
    allowed_sections = {"experiment", *required_sections}

    for section in parser.sections():
        if section not in allowed_sections:
            raise ConfigError(f"unknown section [{section}] for experiment {name!r}")
        schema = SCHEMA[section]
        for key in parser[section]:
            if key not in schema:
                raise ConfigError(f"unknown key {section}.{key}")

    resolved = {"experiment": {"name": name}}
    for section in required_sections:
        schema = SCHEMA[section]
        out = {}
        for key, (convert, default) in schema.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    out[key] = convert(raw)
                except ValueError as err:
                    raise ConfigError(f"bad value for {section}.{key}: {err}") from err
            elif default is REQUIRED:
                raise ConfigError(f"missing required key {section}.{key}")
            else:
                out[key] = default
        resolved[section] = out

    # Every run must take a sample after t = 0.  qct-scan writes every
    # orbit step, so it needs one step and takes no stride.
    run = resolved["run"]
    try:
        n_steps = round(run["horizon"] / run["dt"])
    except (ArithmeticError, ValueError):   # dt = 0, or a nan or inf step count
        n_steps = 0
    if name == "qct-scan":
        if parser.has_option("run", "sample_stride"):
            raise ConfigError("run.sample_stride is not read by qct-scan, "
                              "which writes every orbit step")
        del run["sample_stride"]
        if n_steps < 1:
            raise ConfigError(f"run.horizon must cover at least one run.dt step, "
                              f"got round(run.horizon / run.dt) = {n_steps}")
    elif not 1 <= run["sample_stride"] <= n_steps:
        raise ConfigError(f"run.sample_stride must be at least 1 and at most the "
                          f"round(run.horizon / run.dt) = {n_steps} steps, "
                          f"got {run['sample_stride']}")
    return name, resolved


def resolve_seed(args_seed, resolved):
    if args_seed is not None:
        return int(args_seed)
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError as err:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {env!r}") from err
    return int(resolved.get("run", {}).get("master_seed", DEFAULT_SEED))


# Rows formatted by one %-operation: large enough to amortize the call,
# small enough that the block's text stays far below the table's size.
CSV_BLOCK_ROWS = 1024


def write_outputs(result, outdir, name, resolved, seed, wall_time, workers):
    os.makedirs(outdir, exist_ok=True)
    written = []
    for series in result.series:
        path = os.path.join(outdir, series.name + ".csv")
        rows = np.atleast_2d(series.rows)
        line = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(series.columns) + "\r\n")
            for start in range(0, len(rows), CSV_BLOCK_ROWS):
                block = rows[start:start + CSV_BLOCK_ROWS]
                fh.write(line * len(block) % tuple(block.ravel().tolist()))
        written.append(os.path.basename(path))
    meta = {
        "experiment": name,
        "seed": seed,
        "version": __version__,
        "wall_time_seconds": wall_time,
        "workers": workers,
        "resolved_config": resolved,
        "outputs": written,
        "result": result.metadata,
    }
    with open(os.path.join(outdir, "metadata.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def list_experiments() -> str:
    lines = ["available experiments:"]
    for name in sorted(EXPERIMENTS):
        _, blurb, sections = EXPERIMENTS[name]
        lines.append(f"  {name:17s} {blurb}")
        lines.append(f"  {'':17s} config sections: {', '.join(sections)}")
    return "\n".join(lines)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qcond", description="measured-particle simulation experiments"
    )
    parser.add_argument("--config", help="INI experiment configuration")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", default="qcond-out", help="output directory")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: machine parallelism)")
    parser.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="override a config value (repeatable)")
    parser.add_argument("--list", action="store_true", help="list experiments and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        print(list_experiments())
        return EXIT_OK
    if not args.config:
        print("error: --config is required (or --list)", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.workers is not None and args.workers < 1:
            raise ConfigError(f"--workers must be at least 1, got {args.workers}")
        name, resolved = load_config(args.config, args.set)
        seed = resolve_seed(args.seed, resolved)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    workers = args.workers or os.cpu_count() or 1
    start = time.perf_counter()
    try:
        result = run_experiment(name, resolved, seed, workers)
    except QcondError as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as err:
        # A value the parser accepted but the experiment rejects (e.g. a grid size).
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    wall = time.perf_counter() - start
    try:
        write_outputs(result, args.out, name, resolved, seed, wall, workers)
    except OSError as err:
        print(f"output error: {err}", file=sys.stderr)
        return EXIT_IO
    print(f"{name}: wrote {len(result.series)} series to {args.out} "
          f"(seed {seed}, {wall:.2f}s)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
