"""Command-line runner: strict parsing, outputs, determinism."""

import json
import os

import numpy as np
import pytest

from qcond.cli import EXIT_CONFIG, EXIT_OK, list_experiments, main

HARMONIC_LYAP = """
[experiment]
name = lyapunov

[system]
mass = 1.0
hbar = 1.0
potential_coeffs = 0, 0, 0.5

[grid]
x_min = -12
x_max = 12
n_points = 64

[measurement]
k = 0.5

[run]
dt = 2e-3
horizon = 1.0
n_realizations = 3
master_seed = 77
sample_stride = 25

[lyapunov]
x0 = 1.0
p0 = 0.0
sigma_x = 0.8
delta0 = 0.05
"""

ISOLATED = """
[experiment]
name = isolated

[system]
mass = 1.0
hbar = 1.0
potential_coeffs = 0, 0, 0.5

[grid]
x_min = -10
x_max = 10
n_points = 64

[run]
dt = 1e-3
horizon = 0.5
sample_stride = 50

[isolated]
x0 = 0.5
sigma_x = 0.9
"""

COOLING = """
[experiment]
name = cooling

[system]
mass = 1.0
hbar = 1.0
potential_coeffs = 0, 0, 0.25, 0, 0.25

[grid]
x_min = -10
x_max = 10
n_points = 128

[measurement]
k = 0.5

[run]
dt = 1e-3
horizon = 0.2
n_realizations = 2
master_seed = 9
sample_stride = 50

[cooling]
x0 = 1.5
sigma_x = 0.5
"""

PASSIVITY = """
[experiment]
name = passivity

[system]
mass = 1.0
hbar = 0.0
potential_coeffs = 0, 0, 0.5

[measurement]
k = 1.0

[run]
dt = 1e-3
horizon = 0.2
n_realizations = 8
master_seed = 5
sample_stride = 50

[passivity]
n_particles = 100
x0 = 1.0
p0 = 0.0
sigma_x = 0.7
sigma_p = 0.7
"""


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_list_contains_all_experiments(capsys):
    assert main(["--list"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("isolated", "conditioned", "passivity", "cumulant-compare",
                 "qct-scan", "lyapunov", "cooling"):
        assert name in out
    assert len([l for l in list_experiments().splitlines() if "config sections" in l]) == 7


def test_lyapunov_run_produces_expected_files(tmp_path):
    cfg = _write(tmp_path, HARMONIC_LYAP)
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "--workers", "1"]) == EXIT_OK
    files = sorted(os.listdir(out))
    assert "lyap_mean.csv" in files
    assert "lyap_real_000.csv" in files and "lyap_real_002.csv" in files
    assert "metadata.json" in files
    header = open(os.path.join(out, "lyap_mean.csv")).readline().strip()
    assert header == "t [time],lambda_mean [1/time],lambda_sd [1/time]"
    meta = json.load(open(os.path.join(out, "metadata.json")))
    assert meta["seed"] == 77
    assert meta["resolved_config"]["system"]["mass"] == 1.0
    assert meta["version"]
    # Benettin resets per realization (renormalization is off here)
    assert meta["result"]["renormalizations"] == [0, 0, 0]


def test_cooling_metadata_names_streams(tmp_path):
    out = str(tmp_path / "out")
    assert main(["--config", _write(tmp_path, COOLING), "--out", out, "--workers", "1"]) == EXIT_OK
    result = json.load(open(os.path.join(out, "metadata.json")))["result"]
    assert result["policies"] == ["none", "direct", "estimator"]
    assert result["stream_indices"] == [0, 1]
    assert result["retried_streams"] == []


def _ini_from_resolved(resolved) -> str:
    """INI text that loads back to ``resolved`` (floats by repr, lists comma-joined)."""
    lines = []
    for section, values in resolved.items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            if isinstance(value, list):
                value = ", ".join(repr(v) for v in value)
            elif isinstance(value, (bool, float)):
                value = repr(value)
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text", [HARMONIC_LYAP, COOLING])
def test_metadata_reruns_bit_identically(tmp_path, text):
    """metadata.json alone (resolved config and seed) reproduces every CSV byte."""
    first = str(tmp_path / "first")
    args = ["--config", _write(tmp_path, text), "--out", first, "--workers", "1",
            "--seed", "31337", "--set", "run.dt=0.0025", "--set", "grid.x_max=10.5"]
    assert main(args) == EXIT_OK
    meta = json.load(open(os.path.join(first, "metadata.json")))
    rebuilt = _write(tmp_path, _ini_from_resolved(meta["resolved_config"]), "rebuilt.ini")
    second = str(tmp_path / "second")
    assert main(["--config", rebuilt, "--out", second, "--workers", "1",
                 "--seed", str(meta["seed"])]) == EXIT_OK
    again = json.load(open(os.path.join(second, "metadata.json")))
    assert again["resolved_config"] == meta["resolved_config"]
    assert again["outputs"] == meta["outputs"]
    for fname in meta["outputs"]:
        assert open(os.path.join(second, fname), "rb").read() == \
            open(os.path.join(first, fname), "rb").read()


def test_determinism_across_workers_and_reruns(tmp_path):
    cfg = _write(tmp_path, HARMONIC_LYAP)
    outs = []
    for tag, workers in (("a", "1"), ("b", "2"), ("c", "1")):
        out = str(tmp_path / tag)
        assert main(["--config", cfg, "--out", out, "--workers", workers]) == EXIT_OK
        outs.append(out)
    ref = {f: open(os.path.join(outs[0], f), "rb").read()
           for f in os.listdir(outs[0]) if f.endswith(".csv")}
    for out in outs[1:]:
        for fname, blob in ref.items():
            assert open(os.path.join(out, fname), "rb").read() == blob


def test_unknown_key_rejected_with_name(tmp_path, capsys):
    bad = HARMONIC_LYAP.replace("[measurement]\nk = 0.5", "[measurement]\nk = 0.5\nmeasurment_k = 1")
    cfg = _write(tmp_path, bad)
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "measurment_k" in err


def test_unknown_experiment_rejected(tmp_path):
    cfg = _write(tmp_path, HARMONIC_LYAP.replace("name = lyapunov", "name = wibble"))
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_missing_required_key_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, HARMONIC_LYAP.replace("delta0 = 0.05", ""))
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "delta0" in capsys.readouterr().err


def test_seed_precedence(tmp_path, monkeypatch):
    cfg = _write(tmp_path, ISOLATED)
    out1 = str(tmp_path / "o1")
    assert main(["--config", cfg, "--out", out1]) == EXIT_OK
    meta = json.load(open(os.path.join(out1, "metadata.json")))
    default_seed = meta["seed"]

    monkeypatch.setenv("QCOND_SEED", "4242")
    out2 = str(tmp_path / "o2")
    assert main(["--config", cfg, "--out", out2]) == EXIT_OK
    assert json.load(open(os.path.join(out2, "metadata.json")))["seed"] == 4242

    out3 = str(tmp_path / "o3")
    assert main(["--config", cfg, "--out", out3, "--seed", "99"]) == EXIT_OK
    assert json.load(open(os.path.join(out3, "metadata.json")))["seed"] == 99
    assert default_seed != 4242


def test_override_flag_applies_and_validates(tmp_path):
    cfg = _write(tmp_path, ISOLATED)
    out = str(tmp_path / "o")
    assert main(["--config", cfg, "--out", out, "--set", "isolated.x0=1.5"]) == EXIT_OK
    meta = json.load(open(os.path.join(out, "metadata.json")))
    assert meta["resolved_config"]["isolated"]["x0"] == 1.5
    assert main(["--config", cfg, "--out", out, "--set", "isolated.bogus=1"]) == EXIT_CONFIG


def test_csv_full_precision(tmp_path):
    cfg = _write(tmp_path, ISOLATED)
    out = str(tmp_path / "o")
    assert main(["--config", cfg, "--out", out]) == EXIT_OK
    lines = open(os.path.join(out, "isolated_moments.csv")).read().splitlines()
    # 17 significant digits survive a parse round-trip
    values = [float(tok) for tok in lines[1].split(",")]
    rendered = [f"{v:.17g}" for v in values]
    assert lines[1].split(",") == rendered


def test_numerical_abort_exit_code(tmp_path):
    # support escape: initial packet too close to the wall
    bad = ISOLATED.replace("x0 = 0.5", "x0 = 6.5")
    cfg = _write(tmp_path, bad)
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_passivity_max_z_skips_roundoff_rows(tmp_path):
    # Every realization starts from one ensemble, so the t = 0 row has a
    # standard error at roundoff level and its z-score is a ratio of
    # roundoffs.  max_z and max_z_time must come from the sampled rows.
    out = str(tmp_path / "o")
    assert main(["--config", _write(tmp_path, PASSIVITY), "--out", out]) == EXIT_OK
    table = np.loadtxt(os.path.join(out, "passivity_moments.csv"), delimiter=",", skiprows=1)
    times, z = table[:, 0], table[:, 11:16]
    result = json.load(open(os.path.join(out, "metadata.json")))["result"]
    assert times[0] == 0.0 and times.size == 5
    assert result["max_z"] == np.max(z[1:])
    assert result["max_z_time"] == times[1 + np.argmax(np.max(z[1:], axis=1))] > 0.0
