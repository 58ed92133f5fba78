"""Reference outputs of the seed commit and the check of every timed run.

A reference holds, for each workload and each master seed of
``workloads.SEED_POOL``, the SHA-256 of every CSV the CLI wrote.  Each
distinct CSV also keeps its header, its row count, full-precision values
of up to ``MAX_ROWS`` evenly spaced rows (every row of smaller files), and
per-column scale and sums over all rows.

A produced CSV is *identical* when its hash matches.  Otherwise it is
*within tolerance* when header and row count match and every stored value
and column sum satisfies

    |got - ref| <= RTOL * |ref| + ATOL * max(1, scale)

with ``scale`` the column's largest finite magnitude (NaNs must sit where
the reference has them).  The ATOL term admits the roundoff of columns
that are differences of O(1) terms, such as a covariance near zero.
This admits a later change that legitimately reorders floating-point
sums (reversing the order of the normalization sums in the steppers and
the particle filter stays within it); anything else fails and is
reported with the file, the column and the worst deviation.

Regenerate (only when the outputs are meant to change, with the reason in
the change):

    python3 bench/reference.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

RTOL = 1e-9
ATOL = 1e-12
MAX_ROWS = 400

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _read(path: str):
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _finite_max(a, axis=0):
    return np.max(np.where(np.isfinite(a), np.abs(a), 0.0), axis=axis)


def digest(path: str) -> dict:
    """Everything the tolerance check needs from one reference CSV."""
    header, data = _read(path)
    n = data.shape[0]
    rows = np.arange(n) if n <= MAX_ROWS else np.unique(
        np.linspace(0, n - 1, MAX_ROWS).round().astype(int))
    return {
        "header": header,
        "n_rows": n,
        "row_index": rows.tolist(),
        "values": data[rows].tolist(),
        "scale": _finite_max(data).tolist(),
        "sums": np.nansum(data, axis=0).tolist(),
        "abs_sums": np.nansum(np.abs(data), axis=0).tolist(),
    }


def load(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, workload + ".json")) as fh:
        return json.load(fh)


@dataclass
class Check:
    """Outcome of comparing one workload invocation's CSVs with a reference."""

    identical: bool = True
    problems: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def _worst(got, ref, allowed, names, what, rows=None):
    """Problem text for the worst value outside ``allowed``, or None.

    ``got``/``ref`` are (rows, columns) values or, with ``rows`` None,
    per-column sums.  NaNs must sit where the reference has them.
    """
    excess = np.where(np.isnan(got) != np.isnan(ref), np.inf,
                      np.nan_to_num(np.abs(got - ref) - allowed, nan=0.0))
    if not np.any(excess > 0):
        return None
    at = np.unravel_index(int(np.argmax(excess)), excess.shape)
    col = at[-1]
    where = "the column sum" if rows is None else f"row {rows[at[0]]}"
    return (f"{what} column {names[col]!r}: worst deviation {abs(got[at] - ref[at]):.3e} "
            f"at {where} (got {float(got[at])!r}, reference {float(ref[at])!r}, "
            f"tolerance {allowed[at]:.3e})")


def compare_csv(path: str, ref: dict, what: str):
    """Problem text if ``path`` falls outside ``ref``'s tolerance, else None."""
    header, data = _read(path)
    if header != ref["header"]:
        return f"{what}: header {header!r} differs from reference {ref['header']!r}"
    if data.shape[0] != ref["n_rows"]:
        return f"{what}: {data.shape[0]} rows, reference has {ref['n_rows']}"
    names = header.split(",")
    rows = ref["row_index"]
    values = np.array(ref["values"], dtype=float).reshape(len(rows), len(names))
    scale = np.maximum(1.0, ref["scale"])
    allowed = RTOL * np.abs(np.nan_to_num(values)) + ATOL * scale
    problem = _worst(data[rows], values, allowed, names, what, rows)
    if problem is None:
        # Column sums cover the rows the reference does not store.
        allowed = RTOL * np.array(ref["abs_sums"]) + ATOL * scale * data.shape[0]
        problem = _worst(np.nansum(data, axis=0), np.array(ref["sums"]), allowed, names, what)
    return problem


def check(outdirs: dict, workload: str, seed: int, reference: dict) -> Check:
    """Compare the CSVs in each config's output directory with the reference."""
    result = Check()
    expected = reference["seeds"][str(seed)]
    produced = set()
    for config, outdir in outdirs.items():
        for name in sorted(os.listdir(outdir)):
            if name.endswith(".csv"):
                key = f"{config}/{name}"
                produced.add(key)
                result.hashes[key] = sha256(os.path.join(outdir, name))
    for key in sorted(set(expected) - produced):
        result.problems.append(f"{workload} seed {seed}: missing output {key}")
    for key in sorted(produced - set(expected)):
        result.problems.append(f"{workload} seed {seed}: unexpected output {key}")
    for key in sorted(produced & set(expected)):
        if result.hashes[key] == expected[key]:
            continue
        result.identical = False
        config, name = key.split("/")
        problem = compare_csv(os.path.join(outdirs[config], name),
                              reference["files"][expected[key]],
                              f"{workload} seed {seed} {key}")
        if problem:
            result.problems.append(problem)
    result.identical = result.identical and result.ok
    return result


def regenerate(root: str):
    """Run every workload at every pool seed and store its outputs."""
    from workloads import SEED_POOL, WORKLOADS, invoke

    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for wl in WORKLOADS.values():
        seeds, files = {}, {}
        for seed in SEED_POOL:
            seeds[str(seed)] = {}
            for config in wl.configs:
                outdir = os.path.join(root, ".bench_out", "reference", wl.name, config)
                inv = invoke(root, config, seed, wl.workers, outdir, timeout=120)
                if inv.rc != 0:
                    sys.exit(f"{wl.name} {config} seed {seed} failed:\n{inv.log}")
                for name in sorted(os.listdir(outdir)):
                    if name.endswith(".csv"):
                        path = os.path.join(outdir, name)
                        digest_sha = sha256(path)
                        seeds[str(seed)][f"{config}/{name}"] = digest_sha
                        if digest_sha not in files:
                            files[digest_sha] = digest(path)
            print(f"{wl.name} seed {seed}: {len(seeds[str(seed)])} CSVs", flush=True)
        with open(os.path.join(REFERENCE_DIR, wl.name + ".json"), "w") as fh:
            json.dump({"seeds": seeds, "files": files}, fh)
            fh.write("\n")


if __name__ == "__main__":
    regenerate(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
