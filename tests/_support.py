"""Shared helpers for the test suite."""

from types import SimpleNamespace

import numpy as np

from compsim import bounds, channel, quantization, rows, scenario
from compsim import rng as rngmod


def two_cell_map(d1_m: float, d2_m: float, **geom_kwargs) -> channel.LargeScaleMap:
    """Large-scale map for MS1 at d1 from BS1 and MS2 at d2 from BS2, on the axis."""
    geom = channel.two_cell_line(**geom_kwargs)
    ms1 = [d1_m, 0.0]
    ms2 = [2.0 * geom.cell_radius_m - d2_m, 0.0]
    return channel.build_large_scale([ms1, ms2], geom)


def realize(large_scale: channel.LargeScaleMap, n_tx: int, gens) -> SimpleNamespace:
    """A block of one trial per generator of ``gens``, each trial's channels
    ``sample_small_scale`` from its generator: the draws ``small_scale``, the
    map's amplitudes ``alpha`` in every trial and the composite channels
    ``global_channels`` that ``realize_channels`` forms from them."""
    h = np.stack([channel.sample_small_scale(large_scale.n_users, large_scale.n_bs, n_tx, gen)
                  for gen in gens])
    alpha = np.broadcast_to(large_scale.alpha, h.shape[:3])
    return SimpleNamespace(small_scale=h, alpha=alpha,
                           global_channels=channel.realize_channels(alpha, h))


def shared(cb: quantization.Codebook, n_users: int, n_blocks: int) -> list:
    """The n_users x n_blocks codebook grid that quantizes every block with ``cb``."""
    return [[cb] * n_blocks for _ in range(n_users)]


def row_blocks_of(draw: np.ndarray) -> list:
    """The ``quantization.row_blocks`` blocks of the rows of ``draw``, the
    form in which ``quantization.expected_error`` reads one draw."""
    return [draw[block] for block in quantization.row_blocks(len(draw))]


def fig3_fixed(ms2_distance_m: float, ms1_distance_m: float, **overrides) -> scenario.Scenario:
    """The position study with MS2 at ``ms2_distance_m`` from BS2 and MS1 at
    ``ms1_distance_m`` from BS1; at fig3's MS2 distances, one cell of its grid."""
    from dataclasses import replace

    swept = scenario.preset("fig3").arms[0].scenario
    ms2 = scenario._line_position(swept.geometry, 1, ms2_distance_m)
    swept = replace(swept, placement=replace(swept.placement, positions=[None, ms2]))
    fixed = scenario.at_sweep_point(swept, ms1_distance_m)
    if overrides:
        fixed = replace(fixed, **overrides)
    return fixed


def twocell_params(b21, b22, g11, g12, e11, e12, nt) -> bounds.RateLossParams:
    """Bound inputs of two users, user 0 paired with a user whose energy splits
    (b21, b22) between the BSs; user 0 sees SNRs (g11, g12) and errors
    (e11, e12). User 0's bound is then the two-cell closed form."""
    return bounds.RateLossParams(
        beta=np.array([[0.5, 0.5], [b21, b22]]),
        gamma_sq=np.array([[g11, g12], [1.0, 1.0]]),
        n_tx=nt,
        expected_error=np.array([[e11, e12], [0.0, 0.0]]),
    )


def twocell_bound(*args) -> float:
    """User 0's bound for ``twocell_params(*args)``."""
    return bounds.rate_loss_bound_general(twocell_params(*args), 0)[0]


def perfect_codebook_for(h: np.ndarray) -> quantization.Codebook:
    """Codebook whose codewords are exactly the block directions of every
    trial of the (trials, n_users, n_bs, n_tx) draws ``h``.

    With trials * n_users * n_bs a power of two, quantizing any block yields
    zero error.
    """
    dirs = h.reshape(-1, h.shape[-1])
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    bits = int(np.log2(dirs.shape[0]))
    if 2**bits != dirs.shape[0]:
        raise ValueError("need a power-of-two number of blocks")
    return quantization.Codebook(codewords=dirs, bits=bits, kind="random")


# Per-row references for the appendix checks that bounds reads from codebook
# products: each row is normalized, quantized by quantization.quantize_many,
# and its paired direction projected and normalized row by row.

def _random_orthogonal(rng, d):
    """Per unit row of ``d``, an isotropic unit row orthogonal to it."""
    u = bounds._project_out(rngmod.complex_normal(rng, d.shape), d)
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def nullspace_moment_per_row(cb, trials, master_seed):
    """``bounds.check_nullspace_moment`` through unit rows s and u."""
    rng = rngmod.substream(master_seed, rngmod.APPENDIX, 3)
    samples = []
    for chunk in bounds._chunks(trials, bounds.STREAM_ROWS):
        h = quantization.isotropic_directions(chunk.stop - chunk.start, cb.dimension, rng)
        idx, _ = quantization.quantize_many(h, cb)
        hq = cb.codewords[idx]
        resid = h - (h * hq.conj()).sum(axis=1)[:, None] * hq
        sin = np.linalg.norm(resid, axis=1)
        live = sin > 1e-12
        s = resid[live] / sin[live, None]
        u = _random_orthogonal(rng, hq[live])
        samples.append(np.abs((s * u.conj()).sum(axis=1)) ** 2)
    return bounds._check("nullspace_moment", np.concatenate(samples), 1.0 / (cb.dimension - 1),
                         lambda lhs, rhs, se: abs(lhs - rhs) <= 3.0 * se)


def interference_moment_per_row(large_scale, n_tx, codebooks, trials, master_seed):
    """``bounds.check_interference_moment`` through unit rows h_bar and each
    row's paired direction v projected off its c_k."""
    rng = rngmod.substream(master_seed, rngmod.APPENDIX, 4)
    n_bs, alpha_sq = large_scale.n_bs, large_scale.alpha_sq
    scale = 0.5 * np.sqrt(alpha_sq[0] * alpha_sq[1])
    q = np.zeros(trials, dtype=complex)
    errors = np.empty((n_bs, trials))
    for chunk in bounds._chunks(trials, bounds.STREAM_ROWS):
        zk = rngmod.complex_normal(rng, (chunk.stop - chunk.start, n_bs, n_tx))
        zj = rngmod.complex_normal(rng, zk.shape)
        for b in range(n_bs):
            cb_k, cb_j = codebooks[0][b], codebooks[1][b]
            nk, nj = rows.norms(zk[:, b]), rows.norms(zj[:, b])
            hk_bar = zk[:, b] / nk[:, None]
            ik, errors[b, chunk] = quantization.quantize_many(hk_bar, cb_k)
            ij, _ = quantization.quantize_many(zj[:, b] / nj[:, None], cb_j)
            ck = cb_k.codewords[ik]
            v = bounds._project_out(cb_j.codewords[ij], ck)
            vn = rows.norms(v)
            degenerate = vn < 1e-9
            if degenerate.any():
                v[degenerate] = _random_orthogonal(rng, ck[degenerate])
                vn[degenerate] = 1.0
            q[chunk] += (scale[b] * nk * nj / vn) * rows.inner(v, hk_bar)
    rhs = float((n_tx**2 / (n_tx - 1)) * np.sum(alpha_sq[0] * alpha_sq[1] * errors.mean(axis=1)))
    return bounds._check("interference_moment", q.real**2 + q.imag**2, rhs,
                         lambda lhs, rhs, se: lhs <= rhs + 3.0 * se)
