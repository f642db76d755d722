"""Deterministic random-stream derivation.

All randomness in the package flows from one integer master seed. Substreams
are derived through ``numpy.random.SeedSequence`` spawn keys, so any consumer
(a Monte Carlo trial, a user drop, a codebook training run) can reconstruct
its own stream from ``(master_seed, labels...)`` without coordinating with
other consumers. Results are therefore independent of execution order and
worker count.
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


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Return the generator for substream ``key`` of ``master_seed``."""
    if master_seed < 0:
        raise ConfigurationError("master seed must be nonnegative")
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def complex_normal(gen: np.random.Generator, shape: tuple) -> np.ndarray:
    """Complex Gaussians of ``shape`` with independent standard normal real
    and imaginary parts, so E{|z|^2} = 2.

    Entry i takes the i-th (re, im) pair of one ``standard_normal`` draw of
    ``shape + (2,)``. That layout is part of the random-stream contract, and
    every complex draw of the package goes through here or through
    ``complex_normal_each``.
    """
    return _pairs(gen.standard_normal(tuple(shape) + (2,)))


def complex_normal_each(gens, shape: tuple) -> np.ndarray:
    """One ``complex_normal`` draw of ``shape`` from each generator of
    ``gens``, stacked along a new leading axis. A generator listed more than
    once draws once per listing, in order."""
    shape = tuple(shape) + (2,)
    return _pairs(np.stack([gen.standard_normal(shape) for gen in gens]))


def _pairs(z: np.ndarray) -> np.ndarray:
    """The trailing (re, im) pairs of C-contiguous float64 ``z`` as complex entries."""
    return z.view(np.complex128)[..., 0]
