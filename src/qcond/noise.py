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

import numpy as np

from .core import SupportEscapeError

__all__ = ["BATCH_BYTES", "generate", "map_streams", "substream_rng"]

_MASK64 = (1 << 64) - 1


def _keyed_generator(master_seed: int, stream_index: int) -> np.random.Generator:
    # int(): a numpy integer key would overflow int64 under the mask.
    key = np.array([int(master_seed) & _MASK64, int(stream_index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def generate(master_seed: int, streams, n_steps: int, dt: float) -> np.ndarray:
    """(n_steps, R) Wiener increments of the R stream indices ``streams``.

    Column r is the stream streams[r] alone: identical (master_seed,
    streams[r], n_steps, dt) always yields a bit-identical column, whatever
    the other streams are, and different stream indices under one master
    seed are statistically independent.  Step i of a batch of realizations
    reads the contiguous row [i].
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    dw = np.empty((n_steps, len(streams)))
    for r, index in enumerate(streams):
        dw[:, r] = _keyed_generator(master_seed, index).standard_normal(n_steps)
    dw *= np.sqrt(dt)
    return dw


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


# Bytes of state one batch of streams holds.  Stepping realizations as rows of
# one batch pays the per-step Python overhead once: at n = 256 a conditioned
# PureStepper step costs 43 us for one row, 11 us per row at 8 rows (32 KiB)
# and 7-8 us per row at 16 and 32 rows (best of 9 runs of 300 steps, one
# core).  Larger batches gain nothing: a 40-realization n = 512 Lyapunov run
# on one core took 11-13 s with 64 KiB batches and 12-16 s with 128 KiB,
# 256 KiB or one 640 KiB batch.  Particle filters follow the same rule,
# counted by their positions: at N = 400 a cdyn.ks_step costs per row
# 22-24 us at 3 rows, 13 at 6, 9 at 12, 7-8 at 20 (64 KiB), 6.5-7 at 25, 6 at
# 50 and 7 at 100 (best of 15 runs of 300 steps, one core).
BATCH_BYTES = 64 * 1024

_pool_fn = None   # map_streams' fn while its pool is open; the children inherit it


def _named_batch(fn, streams):
    """fn(streams), whose batch axis 0 runs the streams in order; a support
    escape is named by the stream of its row."""
    try:
        return fn(streams)
    except SupportEscapeError as err:
        if not err.row:
            raise
        raise SupportEscapeError(f"stream {streams[err.row[0]]}: {err}") from err


def _call_pool_fn(streams):
    return _named_batch(_pool_fn, streams)


def map_streams(fn, n_streams, bytes_per_stream, workers):
    """[fn(streams) for each batch], in stream order.

    The batches are consecutive ranges of the stream indices 0 to
    n_streams - 1, each of max(1, BATCH_BYTES // bytes_per_stream) streams but
    the last; they depend on the streams alone, never on ``workers``.  One
    batch runs in-process; several run on a fork pool of ``workers``
    processes (one per batch at most), which hands out one batch at a time.
    The children inherit fn at the fork, so it may be a closure.  fn steps
    its streams as axis 0 of one batch, so a SupportEscapeError from row r
    is raised again naming stream streams[r].
    """
    global _pool_fn
    most = max(1, BATCH_BYTES // bytes_per_stream)
    batches = [range(start, min(start + most, n_streams)) for start in range(0, n_streams, most)]
    if workers < 2 or len(batches) < 2:
        return [_named_batch(fn, streams) for streams in batches]
    from multiprocessing import get_context   # only runs that fork a pool pay for it

    _pool_fn = fn
    try:
        with get_context("fork").Pool(min(workers, len(batches))) as pool:
            return pool.map(_call_pool_fn, batches, chunksize=1)
    finally:
        _pool_fn = None
