"""Keyed RNG streams for reproducible parallel Monte Carlo.

Paths are processed in fixed-size chunks of CHUNK_SIZE paths; each
(seed, chunk, stream) triple keys an independent SFC64 stream through the
spawn key of a SeedSequence, so results are bit-identical for any
worker-thread count: worker threads only change *when* a stream's values
are drawn, never which values a chunk consumes.  A run of n paths is one
chunk, and draws the same values, under any CHUNK_SIZE >= n; 0.5.0 raised
CHUNK_SIZE from 8,192 to 32,768, which changed the draws of larger runs.
"""

from __future__ import annotations

import numpy as np

CHUNK_SIZE = 32768

# stream ids within a chunk
W0, W1, W2 = 0, 1, 2
N_COUNT, N_JUMP = 3, 4
M_COUNT, M_JUMP = 5, 6
D_W, DM_COUNT, DM_JUMP = 7, 8, 9
N_USED = 10  # ids 0..9 above


def stream(seed: int, chunk: int, stream_id: int) -> np.random.Generator:
    key = np.random.SeedSequence(int(seed), spawn_key=(int(chunk), int(stream_id)))
    return np.random.Generator(np.random.SFC64(key))


def derive_seed(seed: int, tag: int) -> int:
    """Independent top-level seed for auxiliary ensembles (e.g. the
    stationary proxy), splitmix-style."""
    x = (int(seed) ^ (0x9E3779B97F4A7C15 * (tag + 1))) & ((1 << 64) - 1)
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
    x ^= x >> 27
    return x
