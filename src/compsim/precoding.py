"""Multicell zero-forcing beamforming, SINR, and per-realization rates over
a block of trials.

The precoder is the pseudo-inverse of the stacked (reconstructed) channel
matrix with each column renormalized to unit norm (per-user power
constraint). SINR is always evaluated against the true channels:
SINR_k = P |g_k v_k|^2 / (sigma^2 + P sum_{j != k} |g_k v_j|^2).
Every function takes a leading trial axis.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

MAX_CONDITION_NUMBER = 1e8
REJECTION_REASONS = ("ok", "rank", "condition cap")


def zf_precoder(reconstructed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing precoders of a block of stacked reconstructed channels.

    ``reconstructed`` is (trials, n_users, n_bs * n_tx). Returns the unit-norm
    beamforming columns, one per user, as a complex (trials, n_bs * n_tx,
    n_users) array, and one reason per trial from ``REJECTION_REASONS``:
    "ok", "rank" for a numerically rank-deficient matrix (more users than
    dimensions, or a smallest singular value within rounding of zero, as
    ``np.linalg.matrix_rank`` counts it) or "condition cap" for any other
    condition number above ``MAX_CONDITION_NUMBER``. A rejected trial's
    columns are NaN: the caller rejects the pairing, and nothing is
    regularized.

    Computed through the SVD pseudo-inverse, not by inverting the Gram matrix
    G = H H^H: cond(G) = cond(H)^2, so at the condition cap of 1e8 the Gram
    matrix is past double precision, and the rank and cap decisions must stay
    on the singular values of H.
    """
    H = np.asarray(reconstructed, dtype=complex)
    if H.ndim != 3:
        raise DomainError("reconstructed channels must be a (trials, users, dims) stack")
    u, s, vh = np.linalg.svd(H, full_matrices=False)
    smallest = s[:, -1] if H.shape[1] <= H.shape[2] else np.zeros(H.shape[0])
    # numerical rank as np.linalg.matrix_rank counts it
    rank = ~(smallest > s[:, 0] * max(H.shape[1:]) * np.finfo(float).eps)
    condition = s[:, 0] / np.where(rank, 1.0, smallest)
    capped = ~rank & (condition > MAX_CONDITION_NUMBER)
    reason = np.array(REJECTION_REASONS)[rank + 2 * capped]  # rank and capped are disjoint
    ok = reason == "ok"
    s = np.where(ok[:, None], s, 1.0)
    pinv = np.swapaxes(vh.conj(), 1, 2) @ (np.swapaxes(u.conj(), 1, 2) / s[:, :, None])
    precoder = pinv / np.linalg.norm(pinv, axis=1, keepdims=True)
    precoder[~ok] = np.nan
    return precoder, reason


def cross_gains(true_channels: np.ndarray, precoder: np.ndarray) -> np.ndarray:
    """Complex gains g_k v_j of every trial; entry (t, k, j)."""
    g = np.asarray(true_channels, dtype=complex)
    if g.ndim != 3 or g.shape[2] != precoder.shape[1]:
        raise DomainError("true channel dimensions inconsistent with precoder")
    return g @ precoder


def interference_power(
    true_channels: np.ndarray, precoder: np.ndarray, tx_power: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial, per-user signal power P |g_k v_k|^2 and residual inter-user
    interference P * sum_{j != k} |g_k v_j|^2, from one gain matrix each."""
    power = tx_power * np.abs(cross_gains(true_channels, precoder)) ** 2
    signal = np.diagonal(power, axis1=1, axis2=2).copy()
    return signal, power.sum(axis=2) - signal


def sinr(
    true_channels: np.ndarray,
    precoder: np.ndarray,
    tx_power: float = 1.0,
    noise_power: float = 1.0,
) -> np.ndarray:
    """(trials, n_users) SINR of the precoded transmission over the true channels."""
    signal, interference = interference_power(true_channels, precoder, tx_power)
    return signal / (noise_power + interference)


def instantaneous_rate(sinr_values) -> np.ndarray:
    """Per-realization spectral efficiency log2(1 + SINR) in bits/s/Hz."""
    s = np.asarray(sinr_values, dtype=float)
    if np.any(s < 0):
        raise DomainError("SINR must be nonnegative")
    return np.log2(1.0 + s)
