"""Deterministic random-stream derivation.

All randomness in the package flows from one integer master seed. The
substream of key ``(k_1, ..., k_n)`` is the PCG64 generator that
``numpy.random.default_rng(numpy.random.SeedSequence(master_seed,
spawn_key=key))`` returns (stream-stable under NEP 19), so any consumer (a
stream block of Monte Carlo trials or of their Gram-Schmidt spares, a user
drop, a codebook training run) can reconstruct its own stream from
``(master_seed, labels...)`` without coordinating with other consumers.
Results are therefore independent of execution order and worker count.
Stream block i of an orthogonalized run draws its spares from (REDRAW, i)
in one ``complex_normal`` call of shape (STREAM_TRIALS, n_bs, n_users - 1,
n_tx): row t for the block's trial t, in (BS, user) order.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

# Stream labels; first element of every spawn key.
TRIAL = 0
DROP = 1
TRAINING = 2
ERROR_ESTIMATE = 3
APPENDIX = 4
REDRAW = 5

# Trials a fixed placement draws at once, from one TRIAL substream: part of
# the random-stream contract.
STREAM_TRIALS = 256


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Return the generator for substream ``key`` (nonempty) of ``master_seed``."""
    if master_seed < 0:
        raise ConfigurationError("master seed must be nonnegative")
    if any(k < 0 for k in key):
        raise ConfigurationError("substream keys must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def complex_normal(gen: np.random.Generator, shape: tuple) -> np.ndarray:
    """Complex Gaussians of ``shape`` with independent standard normal real
    and imaginary parts, so E{|z|^2} = 2.

    Entry i takes the i-th (re, im) pair of one ``standard_normal`` draw of
    ``shape + (2,)``. That layout is part of the random-stream contract, and
    every complex draw of the package goes through here.
    """
    return gen.standard_normal(tuple(shape) + (2,)).view(np.complex128)[..., 0]


# The most bytes a draw may take: 2^57, the virtual address space of x86-64
# with five-level paging, the largest of any 64-bit platform numpy runs on.
# numpy shapes larger arrays, up to np.intp's maximum, that no machine holds.
MAX_DRAW_BYTES = 2**57


def unshapeable(count: int, dtype) -> bool:
    """Whether no machine can hold an array of ``count`` items of ``dtype``:
    it would take more than ``MAX_DRAW_BYTES``."""
    return count * np.dtype(dtype).itemsize > MAX_DRAW_BYTES
