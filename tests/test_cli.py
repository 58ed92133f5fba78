"""Command-line runner: strict parsing, outputs, determinism."""

import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qcond
from qcond.cli import CSV_BLOCK_ROWS, EXIT_CONFIG, EXIT_OK, list_experiments, main, write_outputs
from qcond.core import PositionGrid, SystemSpec
from qcond.experiments import CsvSeries, ExperimentResult
from qcond.feedback import FeedbackPolicy, run_closed_loop
from qcond.noise import generate
from qcond.qdyn import MeasurementSpec

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

CONDITIONED = """
[experiment]
name = conditioned

[system]
mass = 1.0
potential_coeffs = 0, 0, 0.5

[grid]
x_min = -10
x_max = 10
n_points = 64

[measurement]
k = 0.5

[run]
dt = 1e-3
horizon = 0.05

[conditioned]
sigma_x = 0.9
"""

CUMULANT = """
[experiment]
name = cumulant-compare

[system]
mass = 1.0
potential_coeffs = 0, 0, 0.5

[grid]
x_min = -10
x_max = 10
n_points = 64

[measurement]
k = 0.25

[run]
dt = 1e-3
horizon = 0.5
sample_stride = 250

[cumulant-compare]
sigma_x = 0.9
"""

QCT_SCAN = """
[experiment]
name = qct-scan

[system]
mass = 1.0
hbar = 1e-3
potential_coeffs = 0, 0, 0.5

[measurement]
k = 2.0

[run]
dt = 1e-2
horizon = 8.0

[qct-scan]
x0 = 0.0
p0 = 1.0
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


def test_cooling_outputs_match_per_stream_runs(tmp_path):
    """Every cooling CSV value and paired gap equals its formula applied to the
    energies of per-stream closed loops.  Nine realizations: from eight on, a
    sum over realizations in another order differs in the last bit."""
    n_real = 9
    out = str(tmp_path / "out")
    assert main(["--config", _write(tmp_path, COOLING), "--out", out, "--workers", "1",
                 "--set", f"run.n_realizations={n_real}"]) == EXIT_OK
    result = json.load(open(os.path.join(out, "metadata.json")))["result"]
    assert result["stream_indices"] == list(range(n_real))

    # COOLING's plant, grid, measurement, run and default policies.
    state0 = (PositionGrid(-10.0, 10.0, 128), 1.5, 0.0, 0.5)
    plant = SystemSpec(mass=1.0, hbar=1.0, potential_coeffs=(0, 0, 0.25, 0, 0.25))
    policies = [FeedbackPolicy("none"),
                FeedbackPolicy("direct", gain=-1.0, smoothing_time=0.8, u_max=5.0),
                FeedbackPolicy("estimator", gain=3.0, u_max=5.0)]
    runs = [run_closed_loop(state0, plant, MeasurementSpec(0.5), policies,
                            [generate(9, k, 200, 1e-3)], 50) for k in range(n_real)]
    root_n = np.sqrt(n_real)

    def table(name):
        return np.loadtxt(os.path.join(out, name + ".csv"), delimiter=",", skiprows=1, ndmin=2)

    names = result["policies"]
    steady = []     # per policy: the mean energy of each realization over the second half
    for j, name in enumerate(names):
        got = table(f"cooling_{name}")
        energies = np.stack([run.energy[0, j] for run in runs])
        steady.append(energies[:, energies.shape[1] // 2:].mean(axis=1))
        assert np.array_equal(got[:, 0], runs[0].times)
        assert np.array_equal(got[:, 1], energies.mean(axis=0))
        assert np.array_equal(got[:, 2], energies.std(axis=0, ddof=1) / root_n)
        assert np.array_equal(table("cooling_summary")[j], [
            j, steady[j].mean(), steady[j].std(ddof=1) / root_n])
    gaps = {key: value for key, value in result.items() if key.startswith("paired_gap_")}
    assert len(gaps) == 3
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if a < b:
                d = steady[i] - steady[j]
                assert gaps[f"paired_gap_{a}_minus_{b}"] == [d.mean(), d.std(ddof=1) / root_n]


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


@pytest.mark.parametrize("text", [HARMONIC_LYAP, COOLING, QCT_SCAN])
def test_metadata_reruns_bit_identically(tmp_path, text):
    """metadata.json alone (resolved config and seed) reproduces every CSV byte."""
    first = str(tmp_path / "first")
    args = ["--config", _write(tmp_path, text), "--out", first, "--workers", "1",
            "--seed", "31337", "--set", "run.dt=0.0025"]
    if "[grid]" in text:
        args += ["--set", "grid.x_max=10.5"]
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
    # Grids wide enough that a 64 KiB batch holds two realizations: the
    # streams run as the batches 2 + 1 (lyapunov) and 2 + 2 + 1 at every
    # worker count, so each count above 1 runs the pool.
    lyapunov = HARMONIC_LYAP.replace("n_points = 64", "n_points = 1024")
    conditioned = CONDITIONED.replace("horizon = 0.05", "horizon = 0.05\nn_realizations = 5")
    conditioned = conditioned.replace("n_points = 64", "n_points = 2048")
    cooling = COOLING.replace("n_realizations = 2", "n_realizations = 5")
    cooling = cooling.replace("n_points = 128", "n_points = 512")
    for name, text, workers, batches in (("lyapunov", lyapunov, ("1", "2", "1"), 2),
                                         ("conditioned", conditioned, ("1", "2", "3", "1"), 3),
                                         ("cooling", cooling, ("1", "2", "3"), 3)):
        cfg = _write(tmp_path, text, f"{name}.ini")
        outs = []
        for run, count in enumerate(workers):
            out = str(tmp_path / f"{name}-{run}")
            assert main(["--config", cfg, "--out", out, "--workers", count]) == EXIT_OK
            meta = json.load(open(os.path.join(out, "metadata.json")))
            assert meta["result"]["n_batches"] == batches
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


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_rejected(tmp_path, capsys, workers):
    cfg = _write(tmp_path, HARMONIC_LYAP)
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "--workers", workers]) == EXIT_CONFIG
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_experiment_rejected(tmp_path):
    cfg = _write(tmp_path, HARMONIC_LYAP.replace("name = lyapunov", "name = wibble"))
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_missing_required_key_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, HARMONIC_LYAP.replace("delta0 = 0.05", ""))
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "delta0" in capsys.readouterr().err


@pytest.mark.parametrize("text, override, named", [
    (ISOLATED, "grid.n_points=100", "100"),
    (HARMONIC_LYAP, "run.n_realizations=1", "run.n_realizations"),
    (COOLING, "cooling.direct_smoothing=0.00001", "1e-05"),
    # Realization counts the statistics cannot use: none, or one where a standard error needs two.
    (PASSIVITY, "run.n_realizations=1", "run.n_realizations"),
    (COOLING, "run.n_realizations=0", "run.n_realizations"),
    (COOLING, "run.n_realizations=1", "run.n_realizations"),
    (CONDITIONED, "run.n_realizations=0", "run.n_realizations"),
    # renorm_threshold defaults to 0, below delta0: every step would reset.
    (HARMONIC_LYAP, "lyapunov.renormalize=true", "renorm_threshold"),
    (HARMONIC_LYAP.replace("delta0 = 0.05", "delta0 = 0.05\nrenormalize = true"),
     "lyapunov.renorm_threshold=0.05", "renorm_threshold"),
    (HARMONIC_LYAP.replace("delta0 = 0.05", "delta0 = 0.05\nrenormalize = true"),
     "lyapunov.renorm_threshold=0.01",
     "lyapunov.renorm_threshold = 0.01 must exceed lyapunov.delta0 = 0.05"),
    # delta0 must be positive and at most sigma_x / 10 = 0.08.
    (HARMONIC_LYAP, "lyapunov.delta0=-1", "lyapunov.delta0 must be positive"),
    (HARMONIC_LYAP, "lyapunov.delta0=0.5", "lyapunov.delta0 = 0.5 exceeds sigma_x / 10"),
    # A stride of 0, or a horizon shorter than one stride, samples nothing after t = 0.
    (ISOLATED, "run.sample_stride=0", "run.sample_stride"),
    (HARMONIC_LYAP, "run.sample_stride=0", "run.sample_stride"),
    (CUMULANT, "run.horizon=0.01", "run.horizon"),
    # qct-scan writes every orbit step: it takes no stride, and needs one step.
    (QCT_SCAN, "run.sample_stride=10", "run.sample_stride"),
    (QCT_SCAN, "run.horizon=0.001", "run.horizon"),
    (QCT_SCAN, "measurement.k=-1", "-1.0"),
    # A k = 0 measurement has no record to condition on.
    (CONDITIONED, "measurement.k=0", "measurement.k"),
    (PASSIVITY, "measurement.k=0", "measurement.k"),
    (CUMULANT, "measurement.k=0", "measurement.k"),
    (COOLING, "measurement.k=0", "measurement.k"),
    # Fewer particles than ESS floor / resample fraction = 20 reach the floor unresampled.
    (PASSIVITY, "passivity.n_particles=0", "passivity.n_particles"),
    (PASSIVITY, "passivity.n_particles=19", "passivity.n_particles"),
    # NaN fails every comparison, so the bounds are written to reject it.
    (COOLING, "cooling.u_max=nan", "nan"),
    (COOLING, "cooling.direct_smoothing=nan", "nan"),
    (COOLING, "measurement.k=nan", "measurement.k"),
    # An infinite strength makes every multiplier NaN.
    (COOLING, "measurement.k=inf", "measurement.k"),
    (PASSIVITY, "measurement.k=inf", "measurement.k"),
    (COOLING, "cooling.x0=nan", "cooling.x0"),
    (COOLING, "cooling.direct_gain=nan", "cooling.direct_gain"),
    # The policy checks report the cooling key that set the field.
    (COOLING, "cooling.u_max=0", "cooling.u_max"),
    (COOLING, "cooling.direct_smoothing=0.001", "cooling.direct_smoothing"),
    # A measurement narrower than the grid spacing would collapse the state onto one node.
    (COOLING, "measurement.k=1e8", "measurement.k = 1e+08 with run.dt = 0.001"),
    (HARMONIC_LYAP, "measurement.k=1e6", "measurement.k = 1e+06 with run.dt = 0.002"),
], ids=["grid", "realizations", "smoothing", "passivity-1", "cooling-0", "cooling-1",
        "conditioned-0", "renorm-default", "renorm-at-delta0", "renorm-below-delta0",
        "delta0-negative",
        "delta0-above-width", "isolated-stride-0",
        "lyapunov-stride-0", "cumulant-short-horizon", "qct-scan-stride",
        "qct-scan-no-step", "qct-scan-negative-k", "conditioned-k0", "passivity-k0",
        "cumulant-k0", "cooling-k0", "passivity-particles-0", "passivity-particles-19",
        "cooling-umax-nan", "cooling-smoothing-nan", "measurement-k-nan", "cooling-k-inf",
        "passivity-k-inf", "cooling-x0-nan", "cooling-direct-gain-nan", "cooling-umax-0",
        "cooling-smoothing-key", "cooling-k-below-grid", "lyapunov-k-below-grid"])
def test_out_of_range_value_is_config_error(tmp_path, capsys, text, override, named):
    """A value the parser accepts but the experiment rejects exits 2 and names the value."""
    cfg = _write(tmp_path, text)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--set", override]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err


def test_infinite_u_max_runs_unclamped(tmp_path):
    """u_max = inf is the unclamped control law, not a non-finite value to reject."""
    cfg = _write(tmp_path, COOLING)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--workers", "1",
                 "--set", "cooling.u_max=inf"]) == EXIT_OK


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


def test_isolated_metadata_reports_density_invariants(tmp_path):
    out = str(tmp_path / "o")
    assert main(["--config", _write(tmp_path, ISOLATED), "--out", out]) == EXIT_OK
    result = json.load(open(os.path.join(out, "metadata.json")))["result"]
    assert 0.0 <= result["max_trace_error"] < 1e-9
    assert 0.0 <= result["max_hermiticity_defect"] < 1e-12


def test_numerical_abort_exit_code(tmp_path):
    # support escape: initial packet too close to the wall
    bad = ISOLATED.replace("x0 = 0.5", "x0 = 6.5")
    cfg = _write(tmp_path, bad)
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("override, message", [
    ("cooling.x0=9.5", "exceeds grid"),
    ("cooling.sigma_x=0.1", "must exceed 2*dx"),
    ("cooling.sigma_x=0", "must exceed 2*dx"),
], ids=["x0-off-grid", "sigma-below-2dx", "sigma-zero"])
def test_misfit_cooling_packet_aborts_unretried(tmp_path, capsys, recwarn, override, message):
    """Every stream starts from one packet, so a packet that does not fit the
    grid aborts once, with no retried stream."""
    cfg = _write(tmp_path, COOLING)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--set", override]) == 3
    assert message in capsys.readouterr().err
    assert not [w for w in recwarn if "aborted" in str(w.message)]


def test_strong_measurement_of_an_off_centre_packet_runs(tmp_path):
    """The shipped Duffing Lyapunov run, its packet at x0 = 11, steps at
    k = 300: the measurement update does not depend on where the packet is."""
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "lyapunov_duffing.ini")
    args = ["--config", cfg, "--out", str(tmp_path / "o"), "--workers", "1"]
    for item in ("measurement.k=300", "run.horizon=0.05", "run.sample_stride=40",
                 "run.n_realizations=2"):
        args += ["--set", item]
    assert main(args) == EXIT_OK


@pytest.mark.parametrize("text, n_points", [(CONDITIONED, 2048), (HARMONIC_LYAP, 1024),
                                            (COOLING, 512)],
                         ids=["conditioned", "lyapunov", "cooling"])
def test_max_outer_mass_reported_for_any_worker_count(tmp_path, text, n_points):
    """conditioned, lyapunov and cooling report the largest outer-buffer
    mass of the run, a maximum over pool chunks that no chunking moves.  At
    these grid sizes a batch holds two realizations, so the three run as
    2 + 1 and every worker count above 1 runs the pool."""
    cfg = _write(tmp_path, text)
    seen = []
    for workers in ("1", "2", "3"):
        out = str(tmp_path / workers)
        assert main(["--config", cfg, "--out", out, "--workers", workers,
                     "--set", "run.n_realizations=3",
                     "--set", f"grid.n_points={n_points}"]) == EXIT_OK
        result = json.load(open(os.path.join(out, "metadata.json")))["result"]
        assert result["n_batches"] == 2
        seen.append(result["max_outer_mass"])
    assert 0.0 < seen[0] < 1e-6
    assert seen == [seen[0]] * 3


def test_isolated_lyapunov_pairs_abort_in_the_outer_buffer(tmp_path, capsys):
    """At k = 0 the pairs step isolated; a packet with mass in the outer grid
    buffer aborts there as it does at k > 0, instead of wrapping around."""
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "lyapunov_duffing.ini")
    narrow = ["grid.x_min=-22", "grid.x_max=22", "grid.n_points=256",
              "run.horizon=0.5", "run.n_realizations=2"]
    for k in ("0", "1e-9"):
        args = ["--config", cfg, "--out", str(tmp_path / k), "--workers", "1"]
        for item in narrow + [f"measurement.k={k}"]:
            args += ["--set", item]
        assert main(args) == 3
        assert "outer grid buffer at t=0" in capsys.readouterr().err


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


def test_write_outputs_matches_per_value_rendering(tmp_path):
    """Block formatting writes the bytes of per-value f"{v:.17g}" rendering."""
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 3.0, -7.0, 1e17, 0.1, 2.0 / 3.0]
    rng = np.random.default_rng(0)
    long = rng.standard_normal((2 * CSV_BLOCK_ROWS + 5, len(special))) * 10.0 ** rng.integers(
        -20, 20, size=(2 * CSV_BLOCK_ROWS + 5, len(special)))
    long[CSV_BLOCK_ROWS - 1] = special
    long[CSV_BLOCK_ROWS] = special[::-1]
    series = [
        CsvSeries("long", tuple(f"c{j} [1]" for j in range(len(special))), long),
        CsvSeries("flat", ("a [1]", "b [1]", "c [1]"), np.array([np.nan, -0.0, 1e-300])),
        CsvSeries("empty", ("a [1]",), np.empty((0, 1))),
    ]
    out = str(tmp_path / "o")
    write_outputs(ExperimentResult(series, {}), out, "test", {}, 1, 0.0, 1)
    for s in series:
        expected = ",".join(s.columns) + "\r\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\r\n" for row in np.atleast_2d(s.rows))
        assert open(os.path.join(out, s.name + ".csv"), "rb").read() == expected.encode()


def _written_table(rows, outdir):
    """The bytes write_outputs puts in a one-series CSV of rows."""
    columns = tuple(f"c{j} [1]" for j in range(np.atleast_2d(rows).shape[1]))
    write_outputs(ExperimentResult([CsvSeries("t", columns, rows)], {}), outdir, "test", {}, 1, 0.0, 1)
    with open(os.path.join(outdir, "t.csv"), "rb") as fh:
        return fh.read()


def _percent_rendering(rows):
    rows = np.atleast_2d(rows)
    return (",".join(f"c{j} [1]" for j in range(rows.shape[1])) + "\r\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\r\n" for row in rows.tolist())).encode()


@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=48),
       cols=st.integers(1, 4))
def test_csv_writer_matches_percent_format_property(values, cols):
    cols = min(cols, len(values))
    rows = np.array(values[:len(values) // cols * cols]).reshape(-1, cols)
    with tempfile.TemporaryDirectory() as outdir:
        assert _written_table(rows, outdir) == _percent_rendering(rows)


def test_csv_writer_matches_percent_format_on_a_battery(tmp_path):
    """A fixed battery of 2.6e5 values, the cases where a vectorized %.17g
    is most likely to slip: raw bit patterns (subnormals and both signs),
    the neighbours of powers of ten (where log10 misjudges the exponent and
    rounding carries into a new digit, as just below 1e-06, 1e-07, 1e-12),
    integers around 2^53, the switches between fixed and exponent notation,
    three-digit exponents, signed zeros and non-finite values, and int and
    bool arrays, which % converts to float."""
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2 ** 64, 150_000, dtype=np.uint64, endpoint=False)
    subnormal = rng.integers(1, 2 ** 52, 4_000, dtype=np.uint64) | (
        rng.integers(0, 2, 4_000, dtype=np.uint64) << np.uint64(63))
    powers = 10.0 ** np.arange(-30, 31)
    near = [powers]
    for direction in (np.inf, 0.0):
        step = powers
        for _ in range(8):
            step = np.nextafter(step, direction)
            near.append(step)
    switches = np.array([1e-5, 1e-4, 1e16, 1e17, 1e-6, 1e-7, 1e-12])
    switches = np.concatenate([switches] + [np.nextafter(switches, d) for d in (np.inf, 0.0)])
    floats = np.concatenate([
        bits.view(np.float64), subnormal.view(np.float64), *near, switches,
        2.0 ** 53 + np.arange(-20_000.0, 20_000.0),
        rng.standard_normal(40_000) * 10.0 ** rng.integers(-310, 308, 40_000),
        rng.integers(-10 ** 6, 10 ** 6, 20_000) / 2.0 ** rng.integers(0, 40, 20_000),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308, 1e-280, 1e280],
    ])
    floats = np.concatenate([floats, -floats])
    floats = np.concatenate([floats, np.zeros(-floats.size % 7)]).reshape(-1, 7)
    assert floats.size >= 2e5
    ints = np.concatenate([rng.integers(-2 ** 63, 2 ** 63 - 1, 995, endpoint=True),
                           [0, 2 ** 53 + 1, -2 ** 53 - 1, 2 ** 63 - 1, -2 ** 63]]).reshape(-1, 5)
    flags = rng.integers(0, 2, (50, 3)).astype(bool)
    for k, rows in enumerate([floats, ints, flags]):
        assert _written_table(rows, str(tmp_path / str(k))) == _percent_rendering(rows)


def test_csv_writer_memory_and_warnings(tmp_path):
    """Writing the bench qct-scan table's shape (95,201 x 7) keeps the
    writer's own allocations at or under 2 MB, and NaN, inf, zeros and
    subnormals raise no RuntimeWarning."""
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((95_201, 7)) * 10.0 ** rng.integers(-8, 8, (95_201, 7))
    rows[::97] = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracemalloc.start()
        try:
            write_outputs(ExperimentResult([CsvSeries("t", tuple("abcdefg"), rows)], {}),
                          str(tmp_path / "o"), "test", {}, 1, 0.0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 2e6


def test_cli_import_leaves_fractions_and_decimal_unloaded():
    """The number tables are built from ints at import, inside the timed
    setup of every run."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qcond.__file__)))
    code = "import sys, qcond.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_qct_scan_metadata_counts_singular_samples(tmp_path):
    # The orbit starts at x = 0, where the harmonic force vanishes exactly.
    out = str(tmp_path / "o")
    assert main(["--config", _write(tmp_path, QCT_SCAN), "--out", out]) == EXIT_OK
    table = np.loadtxt(os.path.join(out, "qct_margins.csv"), delimiter=",", skiprows=1)
    result = json.load(open(os.path.join(out, "metadata.json")))["result"]
    assert result["n_samples"] == table.shape[0] == 801
    assert result["n_singular"] == int(table[:, 6].sum()) >= 1
    assert np.isnan(table[0, 2])


def test_qct_scan_shorter_than_a_stride_runs(tmp_path):
    # Five steps, fewer than the default sample stride the scan never reads.
    # The action is given: five steps are too few to derive it from the orbit.
    out = str(tmp_path / "o")
    assert main(["--config", _write(tmp_path, QCT_SCAN), "--out", out,
                 "--set", "run.horizon=0.05", "--set", "qct-scan.action=1.0"]) == EXIT_OK
    table = np.loadtxt(os.path.join(out, "qct_margins.csv"), delimiter=",", skiprows=1)
    assert table.shape == (6, 7)


def test_passivity_batches_of_twenty_filters_match_at_any_worker_count(tmp_path):
    """Filters of 400 particles run 20 to a 64 KiB batch: 25 realizations map
    the batches 20 + 5, and the CSV bytes do not depend on the pool."""
    cfg = _write(tmp_path, PASSIVITY)
    blobs = []
    for workers in ("1", "2"):
        out = str(tmp_path / workers)
        assert main(["--config", cfg, "--out", out, "--workers", workers,
                     "--set", "run.n_realizations=25", "--set", "passivity.n_particles=400",
                     "--set", "run.horizon=0.1"]) == EXIT_OK
        assert json.load(open(os.path.join(out, "metadata.json")))["result"]["n_batches"] == 2
        blobs.append(open(os.path.join(out, "passivity_moments.csv"), "rb").read())
    assert blobs[0] == blobs[1]

