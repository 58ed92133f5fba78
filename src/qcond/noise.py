"""Deterministic, seedable Wiener-increment streams.

Streams are produced by the counter-based Philox generator keyed on
(master_seed, stream_index), so a trajectory's noise depends only on its
key, never on scheduling or how many other streams were drawn first.
Paired-trajectory experiments (shared noise realization) and
bit-reproducible reruns both hang off this property.

All stochastic update rules in this package are written in Ito form;
each dW is i.i.d. Gaussian with mean 0 and variance dt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NoisePath", "generate", "parallel_map", "stack_increments", "stream_chunks",
           "substream_rng"]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class NoisePath:
    """One trajectory's Wiener increments dW_n ~ N(0, dt)."""

    master_seed: int
    stream_index: int
    dt: float
    increments: np.ndarray


def _keyed_generator(master_seed: int, stream_index: int) -> np.random.Generator:
    # int(): a numpy integer key would overflow int64 under the mask.
    key = np.array([int(master_seed) & _MASK64, int(stream_index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def generate(master_seed: int, stream_index: int, n_steps: int, dt: float) -> NoisePath:
    """Wiener increments for one trajectory.

    Identical (master_seed, stream_index, n_steps, dt) always yields a
    bit-identical sequence; different stream indices under one master
    seed are statistically independent.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    rng = _keyed_generator(master_seed, stream_index)
    dw = rng.standard_normal(n_steps) * np.sqrt(dt)
    return NoisePath(master_seed, stream_index, float(dt), dw)


def stack_increments(noise: list) -> np.ndarray:
    """(n_steps, R) increments of a list of R NoisePaths.

    Step i of a batch of realizations reads the contiguous row [i].
    """
    return np.stack([path.increments for path in noise], axis=1)


def substream_rng(master_seed: int, stream_index: int, purpose: str) -> np.random.Generator:
    """Auxiliary generator tied to a trajectory but decoupled from its dW draw.

    Used for e.g. particle-filter resampling, which must be deterministic
    per trajectory without consuming (or correlating with) the Wiener
    stream itself.  The purpose tag is hashed into the key.
    """
    import hashlib   # here, not at the top: it loads libcrypto, which most runs never use

    tag = int.from_bytes(hashlib.blake2s(purpose.encode()).digest()[:8], "little")
    key = np.array(
        [(int(master_seed) ^ tag) & _MASK64, (int(stream_index) + 0x9E3779B97F4A7C15) & _MASK64],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def stream_chunks(n_streams: int, most: int, first: int = 0) -> list:
    """Consecutive ranges of n_streams stream indices from ``first``, one batch
    job each, of ``most`` streams (qdyn.realizations_per_batch) but the last.

    The ranges depend on the streams alone, never on the pool size: a run
    whose streams fit one batch maps one job, which parallel_map runs
    in-process."""
    stop = first + n_streams
    return [range(start, min(start + most, stop)) for start in range(first, stop, most)]


_pool_fn = None   # parallel_map's fn while its pool is open; the children inherit it


def _call_pool_fn(job):
    return _pool_fn(job)


def parallel_map(fn, jobs, workers):
    """[fn(job) for job in jobs], on a fork pool of ``workers`` processes (one per
    job at most) when there are several of each.

    The children inherit fn at the fork, so it may be a closure.  The pool
    hands out one job at a time and returns the results in job order.
    """
    global _pool_fn
    if not (workers and workers > 1 and len(jobs) > 1):
        return [fn(job) for job in jobs]
    from multiprocessing import get_context   # only runs that fork a pool pay for it

    _pool_fn = fn
    try:
        with get_context("fork").Pool(min(workers, len(jobs))) as pool:
            return pool.map(_call_pool_fn, jobs, chunksize=1)
    finally:
        _pool_fn = None
