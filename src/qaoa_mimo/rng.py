"""Seeded counter-based random streams.

All randomness in the package flows through Philox-keyed generators so
that every artifact is a pure function of a 64-bit seed.  A (seed,
stream) pair selects an independent substream; stream ids are small
constants owned by the calling module.  Normal variates are produced by
an explicit Box-Muller transform on the uniform stream, which keeps the
variate recipe documented rather than tied to numpy's ziggurat tables.
"""

import math

import numpy as np

# Stream ids.  Each consumer of randomness owns one id so streams never
# alias across modules for the same seed.
STREAM_CHANNEL = 1
STREAM_SYMBOLS = 2
STREAM_NOISE = 3
STREAM_BAYESOPT = 5
STREAM_INSTANCE_SEEDS = 10
STREAM_ANTENNA_CHOICE = 11
STREAM_RANDOM_INIT = 12

# The largest |variate| standard_normals draws: its uniforms are multiples of
# 2^-53 below 1, so the Box-Muller radius is at most sqrt(-2 ln 2^-53) = 8.57.
MAX_ABS_NORMAL = math.sqrt(-2.0 * math.log(2.0**-53))


def substream(seed, stream):
    """Return a ``numpy.random.Generator`` keyed by (seed, stream).

    The Philox-4x64 key is the pair itself, so equal pairs reproduce the
    exact same stream and distinct pairs are statistically independent.
    """
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def standard_normals(gen, count):
    """Draw ``count`` N(0,1) variates via Box-Muller on ``gen``'s uniforms.

    Consumes exactly ``2 * ceil(count / 2)`` uniforms.  ``log1p(-u)`` maps
    u in [0,1) to a strictly positive argument, so the transform never
    sees log(0).
    """
    pairs = (count + 1) // 2
    u1 = gen.random(pairs)
    u2 = gen.random(pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:count]


def random_spins(gen, count):
    """Draw ``count`` symbols uniform over {-1, +1} (u < 0.5 maps to -1)."""
    return np.where(gen.random(count) < 0.5, -1, 1).astype(np.int64)
