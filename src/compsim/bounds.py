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
verdict; the checks of the error split h_bar = cos(theta) h_hat +
sin(theta) s share one decomposition (``_error_directions``). The
100k-draw checks take their substream one chunk of ``STREAM_ROWS`` draws
at a time, each chunk's draws after all of the chunk before it, and
evaluate a chunk in ``quantization.row_blocks``: their memory is a chunk's
plus a few scalars per draw.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import channel, montecarlo, quantization, rows
from . import rng as rngmod
from . import scenario as scenariomod
from .errors import ConfigurationError, DomainError

# draws an appendix check takes from its substream at once: part of the
# random-stream contract, separate from the evaluation size quantization.BLOCK_ROWS
STREAM_ROWS = 8192


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
    report: quantization.FeedbackReport, n_tx: int, master_seed: int, first_trial: int
) -> np.ndarray:
    """Rebuild a block's reconstructions with per-block mutually orthogonal
    directions; the block's row t is trial ``first_trial + t``.

    Sequential Gram-Schmidt over users within each per-BS block: user k's
    quantized block direction is projected out of every later user's, keeping
    the fed-back norms. When two users picked the same codeword the residual
    vanishes and the replacement direction is drawn isotropically from the
    remaining nullspace. Trial t draws its redraws, in (block, user) order,
    from its own substream (REDRAW, t) of ``master_seed``, created on its
    first redraw, so a trial's result does not depend on the block around it.
    This realizes, by construction, the orthogonal-selection assumption the
    closed-form bound relies on (a zero threshold has probability zero for
    continuous channels).
    """
    if report.mode != "per_cell":
        raise ConfigurationError("orthogonal construction requires per-cell feedback")
    norms = report.norms
    trials, n_users, n_bs = norms.shape
    if n_users - 1 >= n_tx:
        raise ConfigurationError("per-block orthogonalization needs n_tx > n_users - 1")
    directions = report.reconstructed.reshape(trials, n_users, n_bs, n_tx) / norms[..., None]
    redraw_rngs = {}

    def fresh(t):
        """One isotropic draw from trial t's redraw substream."""
        if t not in redraw_rngs:
            redraw_rngs[t] = rngmod.substream(master_seed, rngmod.REDRAW, first_trial + int(t))
        return rngmod.complex_normal(redraw_rngs[t], (n_tx,))

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
            while redraw.size:
                fresh_rows = np.stack([fresh(t) for t in redraw])
                v[redraw], vn[redraw] = residual(fresh_rows, redraw, k, b)
                redraw = redraw[vn[redraw] < 1e-9]
            directions[:, k, b] = v / vn[:, None]
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


def _stream_chunks(count: int) -> list[slice]:
    """The ``STREAM_ROWS`` chunks of ``range(count)`` a check draws in turn.
    Boundaries fall at multiples of ``STREAM_ROWS``, so a run of n draws
    uses the first n draws of any longer run."""
    return [slice(a, min(a + STREAM_ROWS, count)) for a in range(0, count, STREAM_ROWS)]


def _project_out(v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Each row of ``v`` minus its component along the unit row of ``d``."""
    return v - ((v * d.conj()).sum(axis=1))[:, None] * d


def _random_orthogonal(rng: np.random.Generator, d: np.ndarray) -> np.ndarray:
    """Per unit row of ``d``, an isotropic unit row orthogonal to it."""
    u = _project_out(rngmod.complex_normal(rng, d.shape), d)
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def check_inverse_norm(
    large_scale: channel.LargeScaleMap,
    n_tx: int,
    user: int,
    trials: int,
    master_seed: int,
) -> AppendixCheck:
    """Stated inequality: E{1 / ||g_hat||^2} < 1 / (n_t * sum_b alpha_sq).

    ||g_hat||^2 = sum_b alpha_sq_b ||h_b||^2 exactly (unit-norm codewords and
    unquantized norms), so no quantizer is involved. Note 1/x is convex, so
    Jensen gives E{1/X} >= 1/E{X}: the stated direction cannot hold for a
    nondegenerate channel, so lhs > rhs (a FAIL) is the expected outcome.
    """
    alpha_sq = large_scale.alpha_sq[user]
    rng = rngmod.substream(master_seed, rngmod.APPENDIX, 1, user)
    samples = []
    for block in quantization.row_blocks(trials):
        # the draws of channel.sample_small_scale, h = z / sqrt(2): each
        # link's ||z_b||^2 sums the (re, im) pairs of its row
        z = rngmod.complex_normal(rng, (block.stop - block.start, alpha_sq.shape[0], n_tx))
        pairs = z.view(float)
        samples.append(2.0 / np.vecdot(np.vecdot(pairs, pairs), alpha_sq))
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


def _error_directions(h: np.ndarray, cb: quantization.Codebook) -> tuple:
    """Split each unit row of ``h`` as c * h_hat + sin(theta) * s, with h_hat
    its codeword in ``cb`` and s a unit direction orthogonal to h_hat.

    Returns (h_hat, c, sin(theta), sin^2 error) per row, the mask ``live`` of
    rows with sin(theta) > 1e-12, and s for those rows.
    """
    idx, err = quantization.quantize_many(h, cb)
    hq = cb.codewords[idx]
    coeff = (h * hq.conj()).sum(axis=1)
    resid = h - coeff[:, None] * hq
    sin = np.linalg.norm(resid, axis=1)
    live = sin > 1e-12
    return hq, coeff, sin, err, live, resid[live] / sin[live, None]


def check_decomposition(
    cb: quantization.Codebook, trials: int, master_seed: int
) -> AppendixCheck:
    """Direction split h_bar = c * h_hat + sin(theta) * s with unit s | h_hat.

    Deterministic (se 0): lhs is the largest of the recomposition error,
    ||s|| - 1, |s h_hat^H| and |sin^2 - err| over the draws.
    """
    rng = rngmod.substream(master_seed, rngmod.APPENDIX, 2)
    h = quantization.isotropic_directions(min(trials, 2000), cb.dimension, rng)
    hq, coeff, sin, err, live, s = _error_directions(h, cb)
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
    """
    rng = rngmod.substream(master_seed, rngmod.APPENDIX, 3)
    d = cb.dimension
    samples = []
    for chunk in _stream_chunks(trials):
        h = quantization.isotropic_directions(chunk.stop - chunk.start, d, rng)
        for block in quantization.row_blocks(len(h)):
            # each block's u follow the u of the blocks before it in the
            # stream, as one draw for every live row after all of the chunk's h
            hq, _, _, _, live, s = _error_directions(h[block], cb)
            u = _random_orthogonal(rng, hq[live])
            samples.append(np.abs((s * u.conj()).sum(axis=1)) ** 2)
    return _check("nullspace_moment", np.concatenate(samples), 1.0 / (d - 1),
                  lambda lhs, rhs, se: abs(lhs - rhs) <= 3.0 * se)


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
    """
    rng = rngmod.substream(master_seed, rngmod.APPENDIX, 4)
    n_bs, alpha_sq = large_scale.n_bs, large_scale.alpha_sq
    # rho_k rho_j = alpha_k alpha_j ||z_k|| ||z_j|| / 2
    scale = 0.5 * np.sqrt(alpha_sq[0] * alpha_sq[1])
    q = np.zeros(trials, dtype=complex)
    errors = np.empty((n_bs, trials))  # sin^2 theta_k per BS and draw
    for chunk in _stream_chunks(trials):
        # the draws of channel.sample_small_scale for users k and j,
        # h = z / sqrt(2), then the chunk's redraws: BS b's in row order
        # after all of z_j, and before those of BS b + 1
        zk = rngmod.complex_normal(rng, (chunk.stop - chunk.start, n_bs, n_tx))
        zj = rngmod.complex_normal(rng, zk.shape)
        q_chunk, err_chunk = q[chunk], errors[:, chunk]
        for b in range(n_bs):
            cb_k, cb_j = codebooks[0][b], codebooks[1][b]
            for block in quantization.row_blocks(len(zk)):
                nk, nj = rows.norms(zk[block, b]), rows.norms(zj[block, b])
                hk_bar = zk[block, b] / nk[:, None]
                ik, err_chunk[b, block] = quantization.quantize_many(hk_bar, cb_k)
                ij, _ = quantization.quantize_many(zj[block, b] / nj[:, None], cb_j)
                ck = cb_k.codewords[ik]
                v = _project_out(cb_j.codewords[ij], ck)  # the paired direction, orthogonal to c_k
                vn = rows.norms(v)
                degenerate = vn < 1e-9
                if degenerate.any():
                    v[degenerate] = _random_orthogonal(rng, ck[degenerate])
                    vn[degenerate] = 1.0
                q_chunk[block] += (scale[b] * nk * nj / vn) * rows.inner(v, hk_bar)

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
