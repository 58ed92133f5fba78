"""Seeded Wiener streams: determinism and statistics."""

import time

import numpy as np
import pytest
from scipy import stats

from qcond.noise import generate, parallel_map, substream_rng


def test_same_key_bit_identical():
    a = generate(12345, 7, 5000, 1e-3)
    b = generate(12345, 7, 5000, 1e-3)
    assert np.array_equal(a.increments, b.increments)


def test_different_stream_independent():
    n = 200_000
    a = generate(12345, 0, n, 1e-3).increments
    b = generate(12345, 1, n, 1e-3).increments
    corr = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    assert abs(corr) < 4.0 / np.sqrt(n)


def test_different_master_seed_differs():
    a = generate(1, 0, 100, 1e-3).increments
    b = generate(2, 0, 100, 1e-3).increments
    assert not np.array_equal(a, b)


def test_variance_matches_dt():
    # CLT bound: var estimator sd ~ dt sqrt(2/n); stated window is ~20 sigma
    n, dt = 1_000_000, 1e-3
    dw = generate(2024, 3, n, dt).increments
    var = dw.var()
    assert 0.00097 < var < 0.00103
    assert abs(dw.mean()) < 4 * np.sqrt(dt / n)


def test_normality_large_sample():
    dw = generate(77, 11, 200_000, 1e-3).increments
    _, pvalue = stats.normaltest(dw)
    assert pvalue > 1e-3


def test_invalid_args_rejected():
    with pytest.raises(ValueError):
        generate(1, 0, 0, 1e-3)
    with pytest.raises(ValueError):
        generate(1, 0, 10, 0.0)


def test_substream_decoupled_from_main_stream():
    main = generate(9, 4, 1000, 1e-3).increments
    aux = substream_rng(9, 4, "resample").standard_normal(1000) * np.sqrt(1e-3)
    corr = np.dot(main, aux) / (np.linalg.norm(main) * np.linalg.norm(aux))
    assert abs(corr) < 4.0 / np.sqrt(1000)
    # and deterministic
    aux2 = substream_rng(9, 4, "resample").standard_normal(1000) * np.sqrt(1e-3)
    assert np.array_equal(aux, aux2)



def test_numpy_integer_keys_match_plain_int_keys():
    # Stream indices come back as numpy integers (CoolingResult.stream_indices),
    # and a stream must be regenerable from them bit for bit.
    for seed, index, as_np in [(2024, 3, np.int64), (-7, 12, np.int32),
                               (2**63 + 5, 2**64 - 1, np.uint64)]:
        np_seed, np_index = as_np(seed), as_np(index)
        assert np.array_equal(generate(np_seed, np_index, 64, 1e-3).increments,
                              generate(seed, index, 64, 1e-3).increments)
        assert np.array_equal(substream_rng(np_seed, np_index, "resample").standard_normal(8),
                              substream_rng(seed, index, "resample").standard_normal(8))


def _slow_stream_sum(item):
    # Lower job indices sleep longer, so later jobs finish first.
    idx, (seed, n_jobs) = item
    time.sleep(0.1 * (n_jobs - idx))
    return idx, (float(np.sum(generate(seed, idx, 100, 1e-3).increments)), time.monotonic())


def test_parallel_map_slots_results_by_job_index():
    jobs = [(5, 4)] * 4
    serial = parallel_map(_slow_stream_sum, jobs, 1)
    pooled = parallel_map(_slow_stream_sum, jobs, 2)
    assert [value for value, _ in pooled] == [value for value, _ in serial]
    finished = [stamp for _, stamp in pooled]
    assert finished != sorted(finished), "no later job finished first; the test shows nothing"
