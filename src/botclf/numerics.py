"""Dense-array numerics: the softmax, weight initializers, seeded RNG streams.

Everything operates on plain numpy arrays in row-major layout. Default
element precision is float64 ("double"); float32 ("single") is selectable
per run. The PRNG is numpy's PCG64 (documented 128-bit state, 64-bit
seeded), and independent per-purpose streams are derived by hashing a
stream name together with the run seed, so the order in which layers are
initialized never perturbs another layer's draws.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ShapeError

DOUBLE = np.float64
SINGLE = np.float32

# The precision names a run accepts and the dtype of each.
PRECISIONS = {"double": DOUBLE, "single": SINGLE}


def make_rng(seed: int) -> np.random.Generator:
    """A PCG64 generator seeded with `seed`; same seed, same draw sequence."""
    return np.random.Generator(np.random.PCG64(seed))


def substream(seed: int, name: str) -> np.random.Generator:
    """An independent generator for (seed, name).

    The child seed is the first 8 bytes of SHA-256(f"{seed}:{name}"),
    which is platform-independent (unlike Python's built-in hash).
    """
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return make_rng(int.from_bytes(digest[:8], "little"))


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for stability.

    Works on a single vector or on the last axis of a batch; each output
    row is positive and sums to 1.
    """
    x = np.asarray(x)
    if x.shape[-1] < 1:
        raise ShapeError(f"softmax needs at least one element, got shape {x.shape}")
    # the reduce methods are .max and .sum without their Python-level wrappers
    e = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def init_truncated_normal(shape, stddev: float, rng: np.random.Generator,
                          dtype=DOUBLE) -> np.ndarray:
    """N(0, stddev^2) samples with anything beyond +/- 2*stddev redrawn."""
    if stddev <= 0:
        raise ValueError(f"stddev must be positive, got {stddev}")
    out = rng.normal(0.0, stddev, size=shape)
    bad = np.abs(out) > 2.0 * stddev
    while bad.any():
        out[bad] = rng.normal(0.0, stddev, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * stddev
    return np.ascontiguousarray(out, dtype=dtype)


def init_he_uniform(shape, fan_in: int, rng: np.random.Generator,
                    dtype=DOUBLE) -> np.ndarray:
    """Uniform on [-L, L] with L = sqrt(6 / fan_in)."""
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    limit = np.sqrt(6.0 / fan_in)
    return np.ascontiguousarray(rng.uniform(-limit, limit, size=shape), dtype=dtype)
