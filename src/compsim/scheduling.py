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


def quantized_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized absolute inner product of two reconstructed channels."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DomainError("correlation is undefined for a zero vector")
    return float(np.abs(np.vdot(b, a)) / (na * nb))


def select_pairing(vectors, policy: PairingPolicy) -> bool:
    """Whether the policy serves the scheduled users together.

    ``vectors`` holds one reconstructed channel per cell, in cell order.
    always_pair always pairs; sus_threshold rejects when the correlation
    of any later user with an earlier one is not below the threshold.
    """
    if len(vectors) == 0:
        raise ConfigurationError("pairing needs at least one scheduled user")
    if policy.mode != "sus_threshold":
        return True
    return all(
        quantized_correlation(vectors[i], vectors[j]) < policy.threshold
        for i in range(1, len(vectors))
        for j in range(i)
    )
