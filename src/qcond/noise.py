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

import hashlib
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

__all__ = ["NoisePath", "generate", "parallel_map", "stack_increments", "substream_rng"]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class NoisePath:
    """One trajectory's Wiener increments dW_n ~ N(0, dt)."""

    master_seed: int
    stream_index: int
    dt: float
    increments: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.increments.size


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


def stack_increments(noise) -> np.ndarray:
    """(n_steps,) increments of one NoisePath, or (n_steps, R) of a list of R paths.

    Step i of a batch of realizations reads the contiguous row [i].
    """
    if isinstance(noise, NoisePath):
        return noise.increments
    return np.stack([path.increments for path in noise], axis=1)


def substream_rng(master_seed: int, stream_index: int, purpose: str) -> np.random.Generator:
    """Auxiliary generator tied to a trajectory but decoupled from its dW draw.

    Used for e.g. particle-filter resampling, which must be deterministic
    per trajectory without consuming (or correlating with) the Wiener
    stream itself.  The purpose tag is hashed into the key.
    """
    tag = int.from_bytes(hashlib.blake2s(purpose.encode()).digest()[:8], "little")
    key = np.array(
        [(int(master_seed) ^ tag) & _MASK64, (int(stream_index) + 0x9E3779B97F4A7C15) & _MASK64],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def parallel_map(fn, jobs, workers):
    """Order-preserving parallel map (results slotted by job index)."""
    results = [None] * len(jobs)
    if workers and workers > 1 and len(jobs) > 1:
        with get_context("fork").Pool(workers) as pool:
            for idx, value in pool.imap_unordered(fn, list(enumerate(jobs))):
                results[idx] = value
    else:
        for item in enumerate(jobs):
            idx, value = fn(item)
            results[idx] = value
    return results
