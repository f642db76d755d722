"""Multicell zero-forcing beamforming, SINR, and per-realization rates over
a block of trials.

The precoder is the pseudo-inverse of the stacked (reconstructed) channel
matrix with each column renormalized to unit norm (per-user power
constraint). A well-conditioned trial takes it from the Gram matrix: in
closed form for two users, by eigenvalues and an LU inverse for any other
count; every other trial takes it from the SVD, which alone rejects. SINR
is always evaluated against the true channels:
SINR_k = P |g_k v_k|^2 / (sigma^2 + P sum_{j != k} |g_k v_j|^2).
Every function takes a leading trial axis.
"""

from __future__ import annotations

import numpy as np

from . import rows
from .errors import DomainError

MAX_CONDITION_NUMBER = 1e8
REJECTION_REASONS = ("ok", "rank", "condition cap")
_REASONS = np.array(REJECTION_REASONS)
# Smallest eigenvalue ratio lambda_min / lambda_max of G = H H^H that takes the
# Gram path: cond(G) < 1e6, so cond(H) < 1e3. See zf_precoder for the bound.
GRAM_EIGENVALUE_RATIO = 1e-6


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

    Each trial takes one of two paths, chosen from its own matrix alone, so a
    trial gets the same bits in a stack of any size:

    - **Gram path.** P = H^H G^-1 with G = H H^H, for every trial whose
      eigenvalues satisfy lambda_min > GRAM_EIGENVALUE_RATIO * lambda_max,
      that is cond(G) < 1e6 and cond(H) < 1e3. Such a trial is "ok". A
      two-user stack, as in every preset, takes it in closed form (below);
      any other user count by ``eigvalsh`` and an LU ``inv``. Both error
      bounds are derived below.
    - **SVD tail** (``_svd_path``), the pseudo-inverse from the singular
      values of H, for every other trial, among them any with more users
      than dimensions: a singular G has lambda_min at rounding level, far
      below the ratio. It alone decides "rank" and "condition cap": cond(G)
      = cond(H)^2 is 1e16 at the cap, past double precision, so those
      decisions must stay on the singular values of H. A Gram-path trial,
      with cond(H) < 1e3, is five orders inside the cap, so the SVD would
      call it "ok" too.

    **Gram-path error bound (LU).** Each unit column is within c u kappa^2 of
    the exact unit column of H^+ = H^H G^-1, to first order in u = eps / 2,
    where H has n = n_users rows, m = n_bs * n_tx columns, singular values
    sigma_1 >= ... >= sigma_n and kappa = cond(H) = sigma_1 / sigma_n, and

        c = n (m + 2) + 3 (n + 11) nu + (n + 2) sqrt(n) + (m + 7) / 2.

    The steps (standard bounds from Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sections 3.6, 8 and 9):

    1. Forming G. A complex inner product of length N errs by at most
       (N + 2) u |x|^T |y|, so the computed G is G + E1 with
       ||E1|| <= (m + 2) u || |H| ||^2 <= (m + 2) u ||H||_F^2
       <= n (m + 2) u sigma_1^2.
    2. The LU inverse. ``inv`` factors G with partial pivoting and solves
       for each column of the identity, so column k is x = (G + E1 + E2)^-1
       e_k with |E2| <= 3 (n + 11) u |L||U|. Real arithmetic gives 3n u
       (Higham's theorem 9.4); in complex arithmetic each of the factoring
       and the two triangular solves runs recurrences of at most n terms,
       (n + 2) u as an inner product, and at most one complex division, or a
       reciprocal and a product, 9 u. With nu = || |L||U| || / ||G||, the
       growth of the LU factors, ||E2|| <= 3 (n + 11) nu u sigma_1^2. To
       first order x moves by -G^-1 (E1 + E2) x, so the column H^H x moves
       by -H^+ (E1 + E2) x, at most ||E1 + E2|| ||x|| / sigma_n; and
       ||H^H x|| >= sigma_n ||x||, so relative to the column it moves by at
       most (n (m + 2) + 3 (n + 11) nu) u kappa^2.
    3. The product H^H x errs by at most (n + 2) u |H^H| |x|, that is by
       (n + 2) sqrt(n) u kappa <= (n + 2) sqrt(n) u kappa^2 of the column.
    4. The column normalization. Normalizing does not enlarge a column's
       relative error, to first order. Its own rounding: the squared norm
       sums m products |z|^2, (m + 1) u; the square root halves that and
       adds u; each entry's division rounds twice, 2 u. In all (m + 7) u / 2.

    With pivots chosen by |re| + |im|, as LAPACK chooses them, an entry of L
    is at most sqrt(2) and nu at most sqrt(2) rho sqrt(n (n + 1) (n^2 + n +
    1) / 6), rho <= (1 + sqrt(2))^(n - 1) the growth factor of partial
    pivoting. That worst case is far above the growth of a Gram matrix in
    practice, so ``tests/test_precoding.py`` computes nu for each matrix it
    checks. At the threshold, kappa^2 u = 1.1e-10.

    **Two-user closed form.** For n = 2, G = [[a0, b], [conj(b), a1]] with
    a_k = ||h_k||^2 and b = sum conj(h_1) h_0, each one row reduction rounded
    as for a single vector (``rows``). Its eigenvalues are mid -+ q, with
    mid = (a0 + a1) / 2 and q = hypot((a0 - a1) / 2, |b|), and they take the
    same ratio test. Its columns are H^H adj(G) / lambda_max, formed
    elementwise, with adj(G) = [[a1, -b], [-conj(b), a0]] = det(G) G^-1: the
    directions of H^H G^-1, with no matmul and no division by det(G).
    Dividing by lambda_max = mid + q keeps each coefficient of adj(G) /
    lambda_max within [0, 1] in size (|b| <= sqrt(a0 a1) <= lambda_max), so
    the columns stay in the range of H's entries wherever G is finite; a
    trial on the path has a_k >= lambda_min > GRAM_EIGENVALUE_RATIO
    lambda_max, so none underflows either. Each unit column is within
    c2 u kappa^2 of the exact one, with

        c2 = 2 (m + 2) + 1 + 4 sqrt(2) + (m + 7) / 2.

    1. Forming G: a0 and a1 sum 2 m real products and b is a complex inner
       product of length m, so step 1's bound holds: ||E1|| <= 2 (m + 2) u
       sigma_1^2.
    2. The adjugate. Forming it is linear in G and exact: adj(G + E1) =
       adj(G) + adj(E1) = det(G + E1) (G + E1)^-1, and ||adj(E1)|| = ||E1||
       (for 2 x 2, adj(E) = J^T E^T J with J = [[0, 1], [-1, 0]]). On the
       path lambda_min > 1e-6 lambda_max, far above ||E1||, so det(G + E1) >
       0 and column k has the direction of (G + E1)^-1 e_k: step 2's
       argument with E2 = 0, that is 2 (m + 2) u kappa^2 and no LU-growth
       term. Dividing by the computed lambda_max rounds each entry of the
       coefficients y = adj(G) e_k / lambda_max by at most u relative; an
       error in lambda_max itself scales every column alike and drops out in
       the normalization. That moves H^H y by at most u ||H|| ||y||, against
       ||H^H y|| >= sigma_2 ||y||: u kappa <= u kappa^2.
    3. Each entry of a column is a complex inner product of length n = 2 of
       a row of H^H with y: step 3's (n + 2) sqrt(n) u kappa = 4 sqrt(2) u
       kappa <= 4 sqrt(2) u kappa^2.
    4. The normalization (``rows.norms``) sums the 2 m squares with the
       depth of step 4's, (m + 7) u / 2.

    At m = 8 and the threshold, c2 u kappa^2 = 3.8e-9.
    """
    H = np.ascontiguousarray(reconstructed, dtype=complex)
    if H.ndim != 3:
        raise DomainError("reconstructed channels must be a (trials, users, dims) stack")
    trials, users, dims = H.shape
    gram, pinv = (_two_user_gram_path if users == 2 else _lu_gram_path)(H)
    reason = np.full(trials, "ok", dtype=_REASONS.dtype)
    if gram.all():
        return pinv, reason
    precoder = np.empty((trials, dims, users), dtype=complex)
    precoder[gram] = pinv
    precoder[~gram], reason[~gram] = _svd_path(H[~gram])
    return precoder, reason


def _passing(gram: np.ndarray):
    """The index of the trials that take the Gram path: a slice, which
    copies nothing, when every trial does."""
    return slice(None) if gram.all() else gram


def _lu_gram_path(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gram test of every matrix of the stack ``H`` by ``eigvalsh``, and
    the unit columns H^H G^-1 of those that pass it by an LU inverse."""
    G = H @ np.swapaxes(H.conj(), 1, 2)
    eig = np.linalg.eigvalsh(G)
    gram = eig[:, 0] > GRAM_EIGENVALUE_RATIO * eig[:, -1]
    passing = _passing(gram)
    pinv = np.swapaxes(H[passing].conj(), 1, 2) @ np.linalg.inv(G[passing])
    pinv /= np.linalg.norm(pinv, axis=1, keepdims=True)
    return gram, pinv


def _two_user_gram_path(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gram test of every matrix of the two-user stack ``H`` and the unit
    columns H^H adj(G) / lambda_max of those that pass it, in closed form."""
    a = rows.squared_norms(H)  # the diagonal of G
    b = rows.inner(H[:, 1], H[:, 0])  # G[0, 1]
    mid = (a[:, 0] + a[:, 1]) / 2
    q = np.hypot((a[:, 0] - a[:, 1]) / 2, rows.magnitude(b))
    largest = mid + q
    gram = mid - q > GRAM_EIGENVALUE_RATIO * largest
    passing = _passing(gram)
    H, largest = H[passing], largest[passing]
    off = b[passing] / largest
    # row k of adj(G) H / lambda_max: the conjugate of column k, G being Hermitian
    columns = H * (a[passing, ::-1] / largest[:, None])[:, :, None]
    columns[:, 0] -= H[:, 1] * off[:, None]
    columns[:, 1] -= H[:, 0] * off.conj()[:, None]
    columns /= rows.norms(columns)[:, :, None]
    return gram, np.swapaxes(columns, 1, 2).conj()


def _svd_path(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``zf_precoder``'s precoders and reasons from the SVD of every matrix
    of the stack ``H``, deciding rank and the condition cap."""
    u, s, vh = np.linalg.svd(H, full_matrices=False)
    smallest = s[:, -1] if H.shape[1] <= H.shape[2] else np.zeros(H.shape[0])
    # numerical rank as np.linalg.matrix_rank counts it
    deficient = ~(smallest > s[:, 0] * max(H.shape[1:]) * np.finfo(float).eps)
    condition = s[:, 0] / np.where(deficient, 1.0, smallest)
    capped = ~deficient & (condition > MAX_CONDITION_NUMBER)
    reason = _REASONS[deficient + 2 * capped]  # deficient and capped are disjoint
    ok = reason == "ok"
    s = np.where(ok[:, None], s, 1.0)
    pinv = np.swapaxes(vh.conj(), 1, 2) @ (np.swapaxes(u.conj(), 1, 2) / s[:, :, None])
    precoder = pinv / np.linalg.norm(pinv, axis=1, keepdims=True)
    precoder[~ok] = np.nan
    return precoder, reason


def interference_power(
    true_channels: np.ndarray, precoder: np.ndarray, tx_power: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial, per-user signal power P |g_k v_k|^2 and residual inter-user
    interference P * sum_{j != k} |g_k v_j|^2, from one gain matrix g_k v_j
    each."""
    g = np.asarray(true_channels, dtype=complex)
    if g.ndim != 3 or g.shape[2] != precoder.shape[1]:
        raise DomainError("true channel dimensions inconsistent with precoder")
    power = tx_power * np.abs(g @ precoder) ** 2
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
