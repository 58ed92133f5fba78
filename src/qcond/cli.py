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

Each CSV is a header line of the column names, then one line per row,
every line ended by CRLF.  A value is written as `"%.17g" % float(v)`
would write it (`-0`, `nan`, `inf`, `1e-05`, `2.5`, ...).  The writer
formats a block of rows at once with numpy and falls back to `%` for the
few values its exact arithmetic cannot decide (see `_csv_block`).

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


# The [run] keys an experiment does not read, each with what it does
# instead; every experiment reads run.dt, run.horizon and run.master_seed.
UNREAD_RUN_KEYS = {
    "isolated": {"n_realizations": "evolves one state"},
    "cumulant-compare": {"n_realizations": "runs one noise path"},
    "qct-scan": {"n_realizations": "runs one orbit", "sample_stride": "writes every orbit step"},
}


def load_config(path, overrides=()):
    """Parse and validate; unknown sections or keys are fatal."""
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    # A missing header or a duplicate raises configparser.Error, undecodable bytes a ValueError.
    try:
        read = parser.read(path)
    except (configparser.Error, ValueError) as err:
        raise ConfigError(f"cannot parse config file {path!r}: {err}") from err
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not SECTION.KEY=VALUE")
        dotted, value = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override {item!r} is not SECTION.KEY=VALUE")
        section, key = (part.strip() for part in dotted.split(".", 1))
        if not parser.has_section(section):
            try:
                parser.add_section(section)
            except ValueError as err:   # [DEFAULT] is not a section
                raise ConfigError(f"override {item!r}: {err}") from err
        parser.set(section, key, value.strip())

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

    # A key the experiment does not read would change nothing it writes.
    run = resolved["run"]
    for key, instead in UNREAD_RUN_KEYS.get(name, {}).items():
        if parser.has_option("run", key):
            raise ConfigError(f"run.{key} is not read by {name}, which {instead}")
        del run[key]
    if name == "lyapunov" and not resolved["lyapunov"]["renormalize"]:
        if parser.has_option("lyapunov", "renorm_threshold"):
            raise ConfigError("lyapunov.renorm_threshold is not read unless "
                              "lyapunov.renormalize is true")
        del resolved["lyapunov"]["renorm_threshold"]
    # Every run must take a step and a sample after t = 0.
    if not 0 < run["dt"] < np.inf:
        raise ConfigError(f"run.dt must be positive and finite, got {run['dt']:g}")
    try:
        n_steps = round(run["horizon"] / run["dt"])
    except OverflowError:   # an infinite run.horizon
        n_steps = 0
    if n_steps < 1:
        raise ConfigError(f"run.horizon must cover at least one run.dt step, "
                          f"got round(run.horizon / run.dt) = {n_steps}")
    if "sample_stride" in run and not 1 <= run["sample_stride"] <= n_steps:
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


# --- CSV numbers -------------------------------------------------------------
# `_csv_block` writes the bytes of "%.17g" for a block of float64 values.
# Digits: with X = floor(log10|v|), |v| * 10^(16-X) is formed as a
# double-double (Dekker's split and two-product, Numer. Math. 18, 224,
# 1971, with 10^(16-X) held as hi + lo) and rounded to the 17-digit
# integer N (fixed-precision digit generation as in Adams, "Ryu revisited",
# OOPSLA 2019).  A value falls back to "%" when its fraction lies within
# 1e-9 of 1/2 (the double-double error is about 1e-14), when its integer
# part before rounding is outside [10^16, 10^17) (log10 misjudged X), when
# it is not finite, or when X is outside [-280, 280].  Bytes: each value
# gets a 32-byte record of four little-endian uint64 words.  Byte 0 holds
# the sign, 3 a "0", 4-23 N as 20 digits (3 leading zeros), 25-29 the
# exponent and 30-31 the separator; pad bytes are 0 and are deleted once
# per block.  In the 21 digits "0000" + N the point follows digit
# p = 4 + X in fixed notation (-4 <= X < 17) and p = 4 in exponent
# notation.  So bytes 3 + min(p, 4) .. 3 + p come from the record (A),
# the point goes at byte 4 + p, and the fraction digits up to the last
# nonzero one come from the record moved up one byte (B, whose byte 24
# holds the last digit).  Mask tables indexed by (p, last nonzero digit)
# pick those bytes.
_GROUP = np.arange(10_000, dtype=np.int32)
_DIGITS_LOW = sum((_GROUP // 10 ** (3 - j) % 10 + 48) << 8 * j for j in range(4)).astype(np.uint64)
_DIGITS_HIGH = _DIGITS_LOW << np.uint64(32)
_DIGITS_FIRST = _DIGITS_HIGH | np.uint64(ord("0") << 24)
_TRAILING_ZEROS = sum(_GROUP % 10 ** j == 0 for j in range(1, 5)).astype(np.int8)


def _byte_masks():
    p = np.arange(21)[:, None, None]
    last = np.arange(21)[None, :, None]
    byte = np.arange(32)
    fraction = last > p
    keep_a = (byte >= 3 + np.minimum(p, 4)) & (byte <= 3 + p)
    keep_b = fraction & (byte >= 5 + p) & (byte <= 4 + last)
    point = fraction & (byte == 4 + p)
    masks = np.stack(np.broadcast_arrays(keep_a.astype(np.uint8) * 255, keep_b.astype(np.uint8) * 255,
                                         point.astype(np.uint8) * ord(".")))
    # (3, 21 * 21, 32) bytes -> three (4 words, class) tables
    return np.ascontiguousarray(masks.view(np.uint64).reshape(3, 21 * 21, 4).transpose(0, 2, 1))


_KEEP_A, _KEEP_B, _POINT = _byte_masks()

# Tables indexed by X + _E_OFFSET.  X = -300 (the slot |v| clipped to 2e-300
# lands in) formats zero; a slot with X outside [-280, 280] holds no power
# of ten (hi = lo = 0), so N = 0 is out of range and the value falls back.
_E_OFFSET = 300
_EXPONENT = np.arange(-_E_OFFSET, _E_OFFSET + 2)
_FIXED = (_EXPONENT >= -4) & (_EXPONENT < 17)
_CLASS = np.where(_FIXED, 4 + _EXPONENT, 4) * 21 + 20
_EXPONENT_BYTES = np.array(
    [0 if fixed or x == -_E_OFFSET else int.from_bytes(b"e%+03d" % x, "little") << 8
     for x, fixed in zip(_EXPONENT.tolist(), _FIXED.tolist())], dtype=np.uint64)
_SPLIT = 134217729.0   # 2^27 + 1
# 10^(16-X) as hi (with its split halves) + lo, filled in as blocks first
# meet X; a filled slot never changes.
_POWERS = np.zeros((4, _EXPONENT.size))
_MISSING = np.zeros(_EXPONENT.size, bool)
_MISSING[_E_OFFSET - 280:_E_OFFSET + 281] = True


def _fill_powers(slots):
    for j in slots:
        k = 16 + _E_OFFSET - j
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den                 # int / int rounds correctly
        m, b = hi.as_integer_ratio()
        t = _SPLIT * hi
        head = t - (t - hi)
        _POWERS[:, j] = hi, head, hi - head, (num * b - m * den) / (den * b)
        _MISSING[j] = False


def _csv_block(block, separators):
    """The bytes "%.17g" writes for a (rows, cols) float64 block, each value
    followed by its column's separator word."""
    v = block.ravel()
    n = v.size
    a = np.fmin(np.fmax(np.abs(v), 2e-300), 2e299)
    j = np.floor(np.log10(a), out=np.empty(n)).astype(np.intp)
    j += _E_OFFSET
    missing = _MISSING[j]
    if missing.any():
        _fill_powers(set(j[missing].tolist()))
    hi, head, tail, lo = _POWERS[0][j], _POWERS[1][j], _POWERS[2][j], _POWERS[3][j]
    # product + frac is a * 10^(16-X) to within about 1e-14
    product = a * hi
    t = a * _SPLIT
    a_head = t - (t - a)
    a_tail = a - a_head
    frac = ((a_head * head - product) + a_head * tail + a_tail * head) + a_tail * tail + a * lo
    whole = np.floor(frac)
    frac -= whole
    digits = product.astype(np.int64)
    digits += whole.astype(np.int64)
    exact = ((digits - 10 ** 16).view(np.uint64) < 9 * 10 ** 16) & (np.abs(frac - 0.5) >= 1e-9)
    digits += frac > 0.5
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    j += carry
    # N = g0 g1 g2 g3 g4 in groups of 1, 4, 4, 4, 4 digits: high = [g1, g3], low = [g2, g4]
    low = np.empty((2, n), np.int64)
    np.floor_divide(digits, 10 ** 8, out=low[0])
    np.multiply(low[0], -10 ** 8, out=low[1])
    low[1] += digits
    high = low // 10_000
    low -= high * 10_000
    g0 = high[0] // 10_000
    high[0] -= g0 * 10_000
    a_words = np.empty((4, n), np.uint64)
    np.take(_DIGITS_FIRST, g0, out=a_words[0])
    np.bitwise_or(_DIGITS_LOW[high], _DIGITS_HIGH[low], out=a_words[1:3])
    a_words[3] = 0
    b_words = a_words << np.uint64(8)
    b_words[1:] |= a_words[:3] >> np.uint64(56)
    zeros = _TRAILING_ZEROS[low]
    zeros += (low == 0) * _TRAILING_ZEROS[high]
    cls = _CLASS[j] - (zeros[1] + (zeros[1] == 8) * zeros[0])
    words = a_words & np.take(_KEEP_A, cls, axis=1)
    b_words &= np.take(_KEEP_B, cls, axis=1)
    words |= b_words
    words |= np.take(_POINT, cls, axis=1)
    words[0] |= np.signbit(v) * np.uint64(ord("-"))
    words[3] |= _EXPONENT_BYTES[j]
    words[3].reshape(block.shape)[:] |= separators
    records = np.ascontiguousarray(words.T).view(np.uint8)
    for i in np.flatnonzero(~exact & (v != 0)).tolist():
        text = b"%.17g" % v[i]
        records[i, :30] = 0
        records[i, :len(text)] = np.frombuffer(text, np.uint8)
    return records.tobytes().translate(None, b"\0")


# Rows formatted per block: a few hundred rows keep every work array of
# `_csv_block` under 128 KiB, where it stays in cache and the allocator
# reuses it.
CSV_BLOCK_ROWS = 256


def write_outputs(result, outdir, name, resolved, seed, wall_time, workers):
    os.makedirs(outdir, exist_ok=True)
    written = []
    for series in result.series:
        path = os.path.join(outdir, series.name + ".csv")
        rows = np.atleast_2d(np.asarray(series.rows, dtype=np.float64))
        separators = np.full(rows.shape[1], ord(",") << 48, np.uint64)
        separators[-1] = int.from_bytes(b"\r\n", "little") << 48
        with open(path, "wb") as fh:
            fh.write((",".join(series.columns) + "\r\n").encode())
            for start in range(0, len(rows), CSV_BLOCK_ROWS):
                fh.write(_csv_block(rows[start:start + CSV_BLOCK_ROWS], separators))
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
