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
