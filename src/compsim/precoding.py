"""Multicell zero-forcing beamforming, SINR, and per-realization rates.

The precoder is the pseudo-inverse of the stacked (reconstructed) channel
matrix with each column renormalized to unit norm (per-user power
constraint). SINR is always evaluated against the true channels:
SINR_k = P |g_k v_k|^2 / (sigma^2 + P sum_{j != k} |g_k v_j|^2).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, PrecodingError

MAX_CONDITION_NUMBER = 1e8


def zf_precoder(reconstructed: np.ndarray) -> np.ndarray:
    """Zero-forcing precoder from the stacked reconstructed channels.

    Returns the unit-norm beamforming columns, one per user: a complex
    (n_bs * n_tx, n_users) array.

    Computed through the SVD pseudo-inverse rather than an explicit Gram
    inversion; rank-deficient or ill-conditioned inputs (condition number
    above ``MAX_CONDITION_NUMBER``) raise PrecodingError so the caller can reject the
    pairing instead of silently regularizing.
    """
    H = np.asarray(reconstructed, dtype=complex)
    if H.ndim != 2:
        raise DomainError("reconstructed channels must be a 2-D matrix (users x dims)")
    n_users, dim = H.shape
    if n_users > dim:
        raise PrecodingError(f"{n_users} users cannot be zero-forced in {dim} dimensions")
    u, s, vh = np.linalg.svd(H, full_matrices=False)
    if s[-1] <= 0.0 or not np.isfinite(s[0] / s[-1]) or s[0] / s[-1] > MAX_CONDITION_NUMBER:
        raise PrecodingError(
            f"channel matrix is rank-deficient or ill-conditioned "
            f"(condition number {s[0] / max(s[-1], np.finfo(float).tiny):.3e})"
        )
    pinv = vh.conj().T @ (u.conj().T / s[:, None])  # (dim, n_users)
    return pinv / np.linalg.norm(pinv, axis=0, keepdims=True)


def cross_gains(true_channels: np.ndarray, precoder: np.ndarray) -> np.ndarray:
    """Matrix of complex gains g_k v_j; entry (k, j)."""
    g = np.asarray(true_channels, dtype=complex)
    if g.ndim != 2 or g.shape[1] != precoder.shape[0]:
        raise DomainError("true channel dimensions inconsistent with precoder")
    return g @ precoder


def interference_power(
    true_channels: np.ndarray, precoder: np.ndarray, tx_power: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Per-user signal power P |g_k v_k|^2 and residual inter-user
    interference P * sum_{j != k} |g_k v_j|^2, from one gain matrix."""
    power = tx_power * np.abs(cross_gains(true_channels, precoder)) ** 2
    signal = np.diagonal(power).copy()
    return signal, power.sum(axis=1) - signal


def sinr(
    true_channels: np.ndarray,
    precoder: np.ndarray,
    tx_power: float = 1.0,
    noise_power: float = 1.0,
) -> np.ndarray:
    """Per-user SINR of the precoded transmission over the true channels."""
    signal, interference = interference_power(true_channels, precoder, tx_power)
    return signal / (noise_power + interference)


def instantaneous_rate(sinr_values) -> np.ndarray:
    """Per-realization spectral efficiency log2(1 + SINR) in bits/s/Hz."""
    s = np.asarray(sinr_values, dtype=float)
    if np.any(s < 0):
        raise DomainError("SINR must be nonnegative")
    return np.log2(1.0 + s)
