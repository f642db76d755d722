"""Closed-form rate-loss bounds and their numerical verification.

For user k paired with users j whose quantized directions are mutually
orthogonal (the orthogonal-selection assumption), the per-user rate loss of
quantized-feedback zero-forcing is stated to be bounded by

    delta_R_k < log2[1 + n_t/(n_t - 1) * sum_{j != k} I_j],
    I_j = sum_b beta_{j,b} * gamma_sq_{k,b} * err_{k,b},

with beta_{j,b} = alpha_sq_{j,b} / sum_b alpha_sq_{j,b} (the paired user's
energy split), gamma_sq the receive SNRs and err the per-link quantization
errors of user k. The closed form descends from the standard limited-feedback
argument (Jindal, IEEE Trans. IT 2006), which bounds the interference part
of the loss by log2(1 + E{I}/sigma^2), with I the residual interference
power; n_t/(n_t - 1) sum_j I_j stands in for E{I}/sigma^2. It is not a
proven bound on that term: the inverse-norm step
E{1/||g_hat||^2} ~ 1/(n_t sum_b alpha_sq_b) is an approximation whose stated
direction Jensen reverses (``check_inverse_norm``). Nor does it model the
own-signal degradation, of order -log2(1 - E{sin^2 theta}).

This module evaluates the bound, builds the orthogonal pairing it assumes
(``orthogonalize_report``), and checks each step of the derivation
numerically. The measured loss and the interference term are the
``delta_r`` and ``interference_log_bound`` of ``montecarlo.RunResult``;
``rate_loss_montecarlo`` runs one fixed placement for them. Each Monte Carlo
check ends in ``_check``, the one home of its mean, standard error and
verdict. The 100k-draw checks take their substream one chunk of
``STREAM_ROWS`` draws at a time, each chunk's draws after all of the chunk
before it: their memory is a chunk's plus a few scalars per draw. The
inverse-norm check reads nothing of a channel h_b ~ CN(0, I_{n_t}) but its
energy ||h_b||^2, so it draws that alone, one Gamma(n_t, 1) variate per
(draw, BS) link. The nullspace and interference checks evaluate a chunk,
the interference check in blocks of ``EVAL_ROWS`` rows, from its codebook
products: one product C^* X^T of the rows X with each codebook C. Each
row's nearest codeword, its sin^2 error and its coefficient <h_hat, h> are
read from that product (``_nearest``), and the interference check's paired
directions from a table over the codeword pairs (``_pair_table``), so no row
is normalized. Here <a, b> = sum conj(a) b.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import channel, montecarlo, quantization, rows
from . import rng as rngmod
from . import scenario as scenariomod
from .errors import ConfigurationError, DomainError

# draws an appendix check takes from its substream at once: part of the
# random-stream contract, separate from the evaluation sizes
STREAM_ROWS = 8192
# rows of a chunk the interference check evaluates at once, which bounds the
# memory of its codebook products
EVAL_ROWS = 2048


@dataclass
class RateLossParams:
    """Inputs of the closed-form bound for one large-scale configuration."""

    beta: np.ndarray  # (n_users, n_bs), rows sum to 1
    gamma_sq: np.ndarray  # (n_users, n_bs) linear receive SNRs
    n_tx: int
    expected_error: np.ndarray  # (n_users, n_bs) E{sin^2 theta} per link

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        self.gamma_sq = np.asarray(self.gamma_sq, dtype=float)
        self.expected_error = np.asarray(self.expected_error, dtype=float)
        if self.n_tx < 2:
            raise ConfigurationError("n_tx must be >= 2")
        if self.beta.shape != self.gamma_sq.shape or self.beta.shape != self.expected_error.shape:
            raise ConfigurationError("beta, gamma_sq, expected_error must share one shape")
        if np.any(self.beta < 0) or np.any(self.beta > 1):
            raise ConfigurationError("beta entries must lie in [0, 1]")
        if np.any(np.abs(self.beta.sum(axis=1) - 1.0) > 1e-12):
            raise ConfigurationError("each beta row must sum to 1 (within 1e-12)")
        if np.any(self.expected_error < 0) or np.any(self.expected_error > 1):
            raise ConfigurationError("expected_error entries must lie in [0, 1]")
        if np.any(self.gamma_sq < 0):
            raise ConfigurationError("gamma_sq entries must be nonnegative")

    @classmethod
    def from_large_scale(
        cls,
        large_scale: channel.LargeScaleMap,
        n_tx: int,
        expected_error: np.ndarray,
    ) -> "RateLossParams":
        return cls(
            beta=large_scale.energy_split(),
            gamma_sq=large_scale.snr_gamma_sq,
            n_tx=n_tx,
            expected_error=expected_error,
        )


def rate_loss_bound_general(params: RateLossParams, k: int) -> tuple[float, dict]:
    """Closed-form bound on user k's rate loss, plus the per-pair terms.

    It stands in for log2(1 + E{I}/sigma^2) under the orthogonal-selection
    assumption; the inverse-norm step it uses is an approximation that
    Jensen reverses, and the own-signal degradation is not modelled (see the
    module docstring and ``check_inverse_norm``).
    """
    n_users = params.beta.shape[0]
    if n_users < 2:
        raise DomainError("the bound needs at least two users")
    if not 0 <= k < n_users:
        raise DomainError(f"user index {k} out of range")
    i_terms = {}
    for j in range(n_users):
        if j == k:
            continue
        i_terms[j] = float(
            np.sum(params.beta[j] * params.gamma_sq[k] * params.expected_error[k])
        )
    factor = params.n_tx / (params.n_tx - 1)
    bound = float(np.log2(1.0 + factor * sum(i_terms.values())))
    return bound, i_terms


# ---------------------------------------------------------------------------
# Synthetic orthogonal pairing
# ---------------------------------------------------------------------------

def orthogonalize_report(
    report: quantization.FeedbackReport, n_tx: int, spares: np.ndarray
) -> np.ndarray:
    """Rebuild a block's per-cell reconstructions with per-block mutually
    orthogonal directions.

    Sequential Gram-Schmidt over users within each per-BS block: user k's
    quantized block direction is projected out of every later user's, keeping
    the fed-back norms. Where two users picked the same codeword the residual
    vanishes, and trial t projects its spare ``spares[t, b, k - 1]`` (of a
    (trials, n_bs, n_users - 1, n_tx) array) instead: an isotropic direction
    in the remaining nullspace, fixed by the trial alone. Should the spare
    degenerate too (probability zero), the user's reconstruction in that
    trial is left at zero, which ``zf_precoder`` rejects as "rank". This
    realizes, by construction, the orthogonal-selection assumption the
    closed-form bound relies on.
    """
    norms = report.norms
    trials, n_users, n_bs = norms.shape
    directions = report.reconstructed.reshape(trials, n_users, n_bs, n_tx) / norms[..., None]
    dead = np.zeros((trials, n_users), dtype=bool)

    def residual(v, t, k, b):
        """Rows ``v`` minus their projections on users 0..k-1 of trials ``t``,
        and their norms."""
        for m in range(k):
            d = directions[t, m, b]
            v = v - rows.inner(d, v)[..., None] * d
        return v, rows.norms(v)

    for b in range(n_bs):
        for k in range(1, n_users):
            v, vn = residual(directions[:, k, b], slice(None), k, b)
            redraw = np.flatnonzero(vn < 1e-9)
            v[redraw], vn[redraw] = residual(spares[redraw, b, k - 1], redraw, k, b)
            dead[:, k] |= vn < 1e-9
            directions[:, k, b] = v / np.where(dead[:, k], np.inf, vn)[:, None]
    directions[dead] = 0.0
    return (norms[..., None] * directions).reshape(trials, n_users, n_bs * n_tx)


# ---------------------------------------------------------------------------
# Monte Carlo rate-loss estimation
# ---------------------------------------------------------------------------

def rate_loss_montecarlo(
    scn: scenariomod.Scenario,
    trials: int | None = None,
    master_seed: int | None = None,
    orthogonalize: bool = False,
    workers: int = 1,
) -> montecarlo.RunResult:
    """Measure the rate loss of a fixed-placement scenario, with ``trials``
    and ``master_seed`` overriding the scenario's.

    With ``orthogonalize`` the quantized directions are made per-block
    orthogonal before precoding (the regime the closed-form bound covers);
    otherwise the realistic always-pair zero-forcing arm is measured.
    """
    scn = replace(scn, trials=scn.trials if trials is None else trials,
                  master_seed=scn.master_seed if master_seed is None else master_seed)
    return montecarlo.run(scn, workers=workers, orthogonalize=orthogonalize)


# ---------------------------------------------------------------------------
# Derivation verification: one numerical check per inequality step
# ---------------------------------------------------------------------------

@dataclass
class AppendixCheck:
    step: str
    lhs: float
    rhs: float
    se: float
    passed: bool
    draws: int  # the samples behind lhs and se


def _check(step: str, samples: np.ndarray, rhs: float, passes) -> AppendixCheck:
    """Check ``step``: lhs the mean of ``samples``, se its SE, verdict passes(lhs, rhs, se)."""
    n = samples.shape[0]
    if n < 2:
        raise ConfigurationError(f"{step}: a standard error needs at least 2 draws, got {n}")
    lhs = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(n))
    return AppendixCheck(step, lhs, rhs, se, passes(lhs, rhs, se), n)


def _chunks(count: int, size: int) -> list[slice]:
    """Consecutive ``size``-row slices of ``range(count)``, the last shorter.
    A check draws ``STREAM_ROWS`` chunks in turn: their boundaries fall at
    multiples of ``STREAM_ROWS``, so a run of n draws uses the first n draws
    of any longer run."""
    return [slice(a, min(a + size, count)) for a in range(0, count, size)]


def _project_out(v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Each row of ``v`` minus its component along the unit row of ``d``."""
    return v - ((v * d.conj()).sum(axis=1))[:, None] * d


def _nearest(products: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per column x of the codebook products ``products = C^* @ X^T`` (one
    row <c, x> per codeword c), the index of the codeword maximizing
    |<c, x>|^2, ties to the lowest as in ``quantization.quantize_many``, with
    the product and its squared magnitude there."""
    size, count = products.shape
    sq = products.real**2
    sq += products.imag**2
    best = sq.max(axis=0)
    # the largest weight size - i over the codewords i attaining the max, in
    # the narrowest integer type: a bool times int64 casts at many times the cost
    weights = np.arange(size, 0, -1, dtype=np.min_scalar_type(size))[:, None]
    idx = size - ((sq == best) * weights).max(axis=0).astype(np.intp)
    return idx, _pick(products, idx), best


def _pick(products: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Entry ``idx[t]`` of each column t of the C-contiguous ``products``."""
    count = products.shape[1]
    return products.ravel().take(idx * count + np.arange(count))


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """||x||^2 of each row (last axis) of complex ``x``."""
    pairs = x.view(float)
    return np.einsum("...i,...i->...", pairs, pairs)


def check_inverse_norm(
    large_scale: channel.LargeScaleMap,
    n_tx: int,
    user: int,
    trials: int,
    master_seed: int,
) -> AppendixCheck:
    """Stated inequality: E{1 / ||g_hat||^2} < 1 / (n_t * sum_b alpha_sq).

    ||g_hat||^2 = sum_b alpha_sq_b ||h_b||^2 exactly (unit-norm codewords and
    unquantized norms), so no quantizer is involved. Each link energy
    ||h_b||^2 of h_b ~ CN(0, I_{n_t}) is Gamma(n_t, 1), the law
    ``inverse_norm_moment`` integrates: a chunk draws one gamma variate per
    (draw, BS) link, and each sample reduces its own row, so its bits do not
    depend on the chunk. Note 1/x is convex, so Jensen gives E{1/X} >=
    1/E{X}: the stated direction cannot hold for a nondegenerate channel, so
    lhs > rhs (a FAIL) is the expected outcome.
    """
    alpha_sq = large_scale.alpha_sq[user]
    rng = rngmod.substream(master_seed, rngmod.APPENDIX, 1, user)
    samples = []
    for chunk in _chunks(trials, STREAM_ROWS):
        energy = rng.standard_gamma(n_tx, size=(chunk.stop - chunk.start, large_scale.n_bs))
        samples.append(1.0 / np.vecdot(energy, alpha_sq))
    return _check(f"inverse_norm:user{user}", np.concatenate(samples),
                  float(1.0 / (n_tx * alpha_sq.sum())),
                  lambda lhs, rhs, se: lhs < rhs and (rhs - lhs) > 3.0 * se)


def inverse_norm_moment(alpha_sq_row, n_tx: int) -> float:
    """Exact E{1/X} for X = sum_b alpha_sq_b * Gamma(n_tx, 1), the moment
    ``check_inverse_norm`` estimates, by quadrature.

    E{1/X} = int_0^inf prod_b (1 + alpha_sq_b s)^(-n_tx) ds. With
    t = 1/(1 + max(alpha_sq) s) the integral runs over [0, 1] with a smooth
    integrand, evaluated by Gauss-Legendre (200 nodes reach ~1e-14 relative
    accuracy on two-cell geometries).
    """
    a = np.asarray(alpha_sq_row, dtype=float)
    peak = a.max()
    r = a / peak
    x, w = np.polynomial.legendre.leggauss(200)
    t = 0.5 * (x + 1.0)
    # 1 + alpha_sq_b s = (t + r_b (1 - t)) / t and ds = dt / (peak t^2)
    denom = np.prod((t[:, None] + r * (1.0 - t[:, None])) ** n_tx, axis=1)
    integrand = t ** (n_tx * a.size - 2) / denom
    return 0.5 * float(w @ integrand) / peak


def check_decomposition(
    cb: quantization.Codebook, trials: int, master_seed: int
) -> AppendixCheck:
    """Direction split h_bar = c * h_hat + sin(theta) * s with unit s | h_hat.

    Deterministic (se 0): lhs is the largest of the recomposition error,
    ||s|| - 1, |s h_hat^H| and |sin^2 - err| over the draws, with s taken
    on the rows where sin(theta) > 1e-12.
    """
    rng = rngmod.substream(master_seed, rngmod.APPENDIX, 2)
    h = quantization.isotropic_directions(min(trials, 2000), cb.dimension, rng)
    idx, err = quantization.quantize_many(h, cb)
    hq = cb.codewords[idx]
    coeff = (h * hq.conj()).sum(axis=1)
    resid = h - coeff[:, None] * hq
    sin = np.linalg.norm(resid, axis=1)
    live = sin > 1e-12
    s = resid[live] / sin[live, None]
    recomposed = coeff[live, None] * hq[live] + sin[live, None] * s
    lhs = float(max(np.abs(dev).max(initial=0.0) for dev in (
        recomposed - h[live], np.linalg.norm(s, axis=1) - 1.0,
        (s * hq[live].conj()).sum(axis=1), sin**2 - err)))
    return AppendixCheck("decomposition", lhs, 1e-12, 0.0, lhs < 1e-12, len(h))


def check_nullspace_moment(
    cb: quantization.Codebook, trials: int, master_seed: int
) -> AppendixCheck:
    """E{|s u^H|^2} = 1/(n_t - 1) for u isotropic in the nullspace of h_hat.

    s is the quantization error direction (inside that same nullspace); u
    plays the paired user's orthogonal quantized direction, independent of s.
    With r = h - <h_hat, h> h_hat the residual, sin^2 theta = ||r||^2 / ||h||^2,
    and u = g - <h_hat, g> h_hat for an isotropic draw g, each sample is
    |<u, r>|^2 / (||r||^2 ||u||^2), both coefficients read from the products
    of h and g with the codebook.
    """
    rng = rngmod.substream(master_seed, rngmod.APPENDIX, 3)
    d, conj = cb.dimension, cb.codewords.conj()
    samples = []
    for chunk in _chunks(trials, STREAM_ROWS):
        # the draws of quantization.isotropic_directions, whose scale no sample sees
        h = rngmod.complex_normal(rng, (chunk.stop - chunk.start, d))
        idx, coeff, _ = _nearest(conj @ h.T)
        hq = cb.codewords.take(idx, axis=0)
        r = h - coeff[:, None] * hq
        sin_sq = _squared_norms(r)
        live = np.flatnonzero(sin_sq > 1e-24 * _squared_norms(h))  # sin(theta) > 1e-12
        # one u per live row, after all of the chunk's h
        g = rngmod.complex_normal(rng, (live.size, d))
        u = g - _pick(conj @ g.T, idx[live])[:, None] * hq[live]
        ur = np.einsum("ij,ij->i", u.conj(), r[live])
        samples.append((ur.real**2 + ur.imag**2) / (sin_sq[live] * _squared_norms(u)))
    return _check("nullspace_moment", np.concatenate(samples), 1.0 / (d - 1),
                  lambda lhs, rhs, se: abs(lhs - rhs) <= 3.0 * se)


def _pair_table(ck: np.ndarray, cj: np.ndarray) -> tuple:
    """For the codeword pair (c_j, c_k) = (cj[i_j], ck[i_k]) at i_j * len(ck) + i_k,
    the paired direction v = c_j - <c_k, c_j> c_k orthogonal to c_k: its
    coefficient <c_j, c_k>, 1 / ||v||, 0 where v degenerates (||v|| < 1e-9),
    and the mask of those pairs."""
    ck, cj = np.tile(ck, (len(cj), 1)), np.repeat(cj, len(ck), axis=0)
    vn = rows.norms(_project_out(cj, ck))
    degenerate = vn < 1e-9
    inv_vn = np.divide(1.0, vn, out=np.zeros_like(vn), where=~degenerate)
    return rows.inner(cj, ck), inv_vn, degenerate


def check_interference_moment(
    large_scale: channel.LargeScaleMap,
    n_tx: int,
    codebooks: list,
    trials: int,
    master_seed: int,
) -> AppendixCheck:
    """E{|g_k g_hat_j^H|^2} for users k = 0 and j = 1 under per-block
    orthogonal quantized directions, with ``codebooks`` the n_users x n_bs grid.

    The derivation factors the second moment as
    sum_b E{rho_k^2 sin^2 theta_k} E{rho_j^2} E{|s h_hat_j^H|^2}
      = (n_t^2 / (n_t - 1)) sum_b alpha_sq_k alpha_sq_j E{sin^2 theta_k},
    using E{rho^2} = n_t alpha^2. The check asserts lhs <= rhs within noise,
    with E{sin^2 theta} taken from the same draws.

    User j's quantized direction on each block is its codeword c_j made
    orthogonal to user k's c_k, v = c_j - <c_k, c_j> c_k, or an isotropic
    redraw orthogonal to c_k where v degenerates. With <c, z_k> read from
    the products of z_k with both codebooks, <v, z_k> = <c_j, z_k> -
    <c_j, c_k> <c_k, z_k> and sin^2 theta_k = 1 - |<c_k, z_k>|^2 / ||z_k||^2.
    """
    rng = rngmod.substream(master_seed, rngmod.APPENDIX, 4)
    n_bs, alpha_sq = large_scale.n_bs, large_scale.alpha_sq
    # rho_k rho_j = alpha_k alpha_j ||z_k|| ||z_j|| / 2
    scale = 0.5 * np.sqrt(alpha_sq[0] * alpha_sq[1])
    codewords = [(codebooks[0][b].codewords, codebooks[1][b].codewords) for b in range(n_bs)]
    tables = [(ck, np.concatenate([ck, cj]).conj(), cj.conj(), *_pair_table(ck, cj))
              for ck, cj in codewords]
    q = np.zeros(trials, dtype=complex)
    errors = np.empty((n_bs, trials))  # sin^2 theta_k per BS and draw
    for chunk in _chunks(trials, STREAM_ROWS):
        # the draws of channel.sample_small_scale for users k and j,
        # h = z / sqrt(2), then the chunk's redraws: BS b's in row order
        # after all of z_j, and before those of BS b + 1
        zk = rngmod.complex_normal(rng, (chunk.stop - chunk.start, n_bs, n_tx))
        zj = rngmod.complex_normal(rng, zk.shape)
        # rho_k rho_j / ||z_k|| per BS
        weight = scale * np.sqrt(_squared_norms(zj))
        nk_sq = _squared_norms(zk)
        q_chunk, err_chunk = q[chunk], errors[:, chunk]
        for b, (ck, both_conj, cj_conj, coeff, inv_vn, degenerate) in enumerate(tables):
            size_k = len(ck)
            for block in _chunks(len(zk), EVAL_ROWS):
                z, w, q_block = zk[block, b], weight[block, b], q_chunk[block]
                ij, _, _ = _nearest(cj_conj @ zj[block, b].T)
                products = both_conj @ z.T  # <c_k, z_k> for each c_k, then <c_j, z_k>
                ik, pk, pk_sq = _nearest(products[:size_k])
                err = 1.0 - pk_sq / nk_sq[block, b]
                err_chunk[b, block] = np.maximum(err, 0.0, out=err)
                pair = ij * size_k + ik
                q_block += w * inv_vn[pair] * (_pick(products[size_k:], ij) - coeff[pair] * pk)
                redraw = np.flatnonzero(degenerate[pair])
                if redraw.size:
                    u = _project_out(rngmod.complex_normal(rng, (redraw.size, n_tx)),
                                     ck.take(ik[redraw], axis=0))
                    q_block[redraw] += w[redraw] / np.sqrt(_squared_norms(u)) * np.einsum(
                        "ij,ij->i", u.conj(), z[redraw])

    err_mean = errors.mean(axis=1)
    rhs = float((n_tx**2 / (n_tx - 1)) * np.sum(alpha_sq[0] * alpha_sq[1] * err_mean))
    return _check("interference_moment", q.real**2 + q.imag**2, rhs,
                  lambda lhs, rhs, se: lhs <= rhs + 3.0 * se)


def verify_appendix(
    n_tx: int,
    large_scale: channel.LargeScaleMap,
    codebooks: list,
    trials: int,
    master_seed: int,
) -> list:
    """Run every derivation-step check, with ``codebooks`` the n_users x n_bs
    grid of per-cell codebooks, and return the report list."""
    checks = [check_inverse_norm(large_scale, n_tx, user, trials, master_seed)
              for user in range(large_scale.n_users)]
    checks += [check(codebooks[0][0], trials, master_seed)
               for check in (check_decomposition, check_nullspace_moment)]
    if large_scale.n_users >= 2:
        checks.append(check_interference_moment(large_scale, n_tx, codebooks, trials,
                                                master_seed))
    return checks
