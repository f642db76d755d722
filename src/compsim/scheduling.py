"""User pairing over quantized composite channels.

The correlation statistic between two reconstructed channels is
|g_hat_k g_hat_j^H| / (||g_hat_k|| ||g_hat_j||). Each cell schedules one
user; the semi-orthogonal mode serves the users together only while every
pairwise correlation stays below the threshold, and the always-pair mode
serves them unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rows
from .errors import ConfigurationError, DomainError, raise_problems

PAIRING_MODES = ("sus_threshold", "always_pair")


@dataclass
class PairingPolicy:
    mode: str = "always_pair"
    threshold: float = 1.0  # used by sus_threshold only

    def problems(self) -> list:
        """(field, message) pairs for every invalid field."""
        out = []
        if self.mode not in PAIRING_MODES:
            out.append(("mode", f"must be one of {PAIRING_MODES}"))
        if not 0.0 <= self.threshold <= 1.0:
            out.append(("threshold", "must lie in [0, 1]"))
        return out

    def __post_init__(self):
        raise_problems(self.problems())


def quantized_correlation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normalized absolute inner product of each pair of reconstructed
    channels, row by row over the last axis."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    na, nb = rows.norms(a), rows.norms(b)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise DomainError("correlation is undefined for a zero vector")
    return rows.magnitude(rows.inner(b, a)) / (na * nb)


def select_pairing(vectors, policy: PairingPolicy) -> np.ndarray:
    """Per trial, whether the policy serves the scheduled users together.

    ``vectors`` is a (trials, n_users, dims) stack holding one reconstructed
    channel per cell, in cell order. always_pair always pairs; sus_threshold
    rejects a trial when the correlation of any later user with an earlier
    one is not below the threshold.
    """
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 3 or v.shape[1] == 0:
        raise ConfigurationError("pairing needs a (trials, users, dims) stack of "
                                 "at least one scheduled user")
    paired = np.ones(v.shape[0], dtype=bool)
    if policy.mode != "sus_threshold":
        return paired
    for i in range(1, v.shape[1]):
        for j in range(i):
            paired &= quantized_correlation(v[:, i], v[:, j]) < policy.threshold
    return paired
