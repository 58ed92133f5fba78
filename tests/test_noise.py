"""Seeded Wiener streams: determinism and statistics."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import qcond
from qcond.core import SupportEscapeError
from qcond.noise import BATCH_BYTES, _keyed_generator, generate, map_streams, substream_rng


def test_same_key_bit_identical():
    a = generate(12345, [7], 5000, 1e-3)[:, 0]
    b = generate(12345, [7], 5000, 1e-3)[:, 0]
    assert np.array_equal(a, b)


def test_different_stream_independent():
    n = 200_000
    a = generate(12345, [0], n, 1e-3)[:, 0]
    b = generate(12345, [1], n, 1e-3)[:, 0]
    corr = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    assert abs(corr) < 4.0 / np.sqrt(n)


def test_different_master_seed_differs():
    a = generate(1, [0], 100, 1e-3)[:, 0]
    b = generate(2, [0], 100, 1e-3)[:, 0]
    assert not np.array_equal(a, b)


def test_variance_matches_dt():
    # CLT bound: var estimator sd ~ dt sqrt(2/n); stated window is ~20 sigma
    n, dt = 1_000_000, 1e-3
    dw = generate(2024, [3], n, dt)[:, 0]
    var = dw.var()
    assert 0.00097 < var < 0.00103
    assert abs(dw.mean()) < 4 * np.sqrt(dt / n)


def test_normality_large_sample():
    dw = generate(77, [11], 200_000, 1e-3)[:, 0]
    _, pvalue = stats.normaltest(dw)
    assert pvalue > 1e-3


def test_invalid_args_rejected():
    with pytest.raises(ValueError):
        generate(1, [0], 0, 1e-3)
    with pytest.raises(ValueError):
        generate(1, [0], 10, 0.0)


def test_substream_decoupled_from_main_stream():
    main = generate(9, [4], 1000, 1e-3)[:, 0]
    aux = substream_rng(9, 4, "resample").standard_normal(1000) * np.sqrt(1e-3)
    corr = np.dot(main, aux) / (np.linalg.norm(main) * np.linalg.norm(aux))
    assert abs(corr) < 4.0 / np.sqrt(1000)
    # and deterministic
    aux2 = substream_rng(9, 4, "resample").standard_normal(1000) * np.sqrt(1e-3)
    assert np.array_equal(aux, aux2)



def test_numpy_integer_keys_match_plain_int_keys():
    # Stream indices may come as numpy integers (an index array of a caller's
    # own), and a stream must be regenerable from them bit for bit.
    for seed, index, as_np in [(2024, 3, np.int64), (-7, 12, np.int32),
                               (2**63 + 5, 2**64 - 1, np.uint64)]:
        np_seed, np_index = as_np(seed), as_np(index)
        assert np.array_equal(generate(np_seed, [np_index], 64, 1e-3)[:, 0],
                              generate(seed, [index], 64, 1e-3)[:, 0])
        assert np.array_equal(substream_rng(np_seed, np_index, "resample").standard_normal(8),
                              substream_rng(seed, index, "resample").standard_normal(8))


@pytest.mark.parametrize("streams", [range(5, 9), [7, 2, 7], np.array([3, 12, 2**40], np.int64),
                                     [np.uint64(2**64 - 1), np.int32(4)]],
                         ids=["range-past-0", "out-of-order", "int64-array", "numpy-scalars"])
def test_batch_column_is_its_stream_alone(streams):
    """Column r of a batch draw is stream streams[r] drawn alone, bit for bit:
    every map_streams batch after the first is a range that starts past 0."""
    n, dt = 300, 1e-3
    dw = generate(21, streams, n, dt)
    assert dw.shape == (n, len(streams)) and dw.dtype == np.float64
    assert dw.flags.c_contiguous
    for r, index in enumerate(streams):
        alone = generate(21, [index], n, dt)[:, 0]
        assert np.array_equal(dw[:, r], alone)
        assert np.array_equal(alone, generate(21, [int(index)], n, dt)[:, 0])
        assert np.array_equal(alone, _keyed_generator(21, int(index)).standard_normal(n)
                              * np.sqrt(dt))


def _slow_stream_sum(streams):
    # Lower stream indices sleep longer, so later batches finish first.
    time.sleep(0.1 * (4 - streams.start))
    return [float(np.sum(generate(5, [k], 100, 1e-3)[:, 0])) for k in streams], time.monotonic()


def test_map_streams_slots_results_by_batch():
    # One stream per batch: each stream fills the whole budget.
    serial = map_streams(_slow_stream_sum, 4, BATCH_BYTES, 1)
    pooled = map_streams(_slow_stream_sum, 4, BATCH_BYTES, 2)
    assert [sums for sums, _ in pooled] == [sums for sums, _ in serial]
    finished = [stamp for _, stamp in pooled]
    assert finished != sorted(finished), "no later batch finished first; the test shows nothing"
    # A closure: the pool's children inherit it, and it never goes through pickle.
    dw = generate(5, range(4), 100, 1e-3)
    sums = map_streams(lambda batch: [float(np.sum(dw[:, k])) for k in batch],
                       4, BATCH_BYTES // 2, 2)
    assert sums == [serial[0][0] + serial[1][0], serial[2][0] + serial[3][0]]


@pytest.mark.parametrize("workers", [1, 2])
def test_map_streams_batches_depend_on_the_streams_alone(workers):
    """Batches of BATCH_BYTES // bytes_per_stream consecutive streams, whatever
    the pool; a stream larger than the budget gets a batch of its own."""
    def batches(n_streams, most):
        return map_streams(lambda streams: streams, n_streams, BATCH_BYTES // most, workers)

    assert batches(25, 20) == [range(0, 20), range(20, 25)]
    assert batches(5, 2) == [range(0, 2), range(2, 4), range(4, 5)]
    assert batches(6, 20) == [range(0, 6)]
    assert batches(20, 20) == [range(0, 20)]
    assert map_streams(lambda streams: streams, 3, 2 * BATCH_BYTES, workers) == \
        [range(0, 1), range(1, 2), range(2, 3)]


def _escape_in_row_1(streams):
    if 5 in streams:
        err = SupportEscapeError("probability 1e-05 in outer grid buffer at t=2")
        err.row = (1, 0)
        raise err
    return list(streams)


@pytest.mark.parametrize("workers", [1, 2])
def test_map_streams_names_the_stream_of_an_escaping_row(workers):
    """Batch axis 0 runs the streams in order, so an escape from row 1 of the
    batch range(4, 6) names stream 5, in-process and from a pool child."""
    with pytest.raises(SupportEscapeError, match="^stream 5: probability 1e-05 in outer"):
        map_streams(_escape_in_row_1, 6, BATCH_BYTES // 2, workers)


def test_one_batch_ensemble_forks_no_pool():
    """An ensemble whose streams fit one batch runs in-process at any worker count."""
    code = ("import sys\n"
            "import numpy as np\n"
            "from qcond.core import PositionGrid, SystemSpec, gaussian_wavefunction\n"
            "from qcond.lyap import ensemble_lyapunov\n"
            "from qcond.qdyn import MeasurementSpec\n"
            "grid = PositionGrid(-12, 12, 64)\n"
            "pair0 = np.stack([gaussian_wavefunction(grid, x0, 0.0, 0.8) for x0 in (1.0, 1.05)])\n"
            "system = SystemSpec(mass=1.0, hbar=1.0, potential_coeffs=(0, 0, 0.5))\n"
            "series = ensemble_lyapunov(grid, pair0, system, MeasurementSpec(0.5), 3, 100, 1e-3,\n"
            "                           0.05, 42, sample_every=20, workers=2)\n"
            "print(series.n_batches, series.lam.shape[0], 'multiprocessing' in sys.modules)")
    assert _run_python(code) == "1 3 False"


def _run_python(code):
    """Stdout of code run in a fresh interpreter that imports this qcond."""
    src = str(Path(qcond.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip()


def test_cli_import_leaves_hashing_and_the_pool_unloaded():
    """hashlib (which loads libcrypto) and multiprocessing are imported on
    first use, by substream_rng and by map_streams' pool, not by the CLI."""
    code = ("import sys, qcond.cli; "
            "print(sorted({'hashlib', '_hashlib', 'multiprocessing'} & set(sys.modules)))")
    assert _run_python(code) == "[]"
