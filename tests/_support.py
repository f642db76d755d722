"""Shared helpers for the test suite."""

import numpy as np

from compsim import bounds, channel, quantization, scenario


def two_cell_map(d1_m: float, d2_m: float, **geom_kwargs) -> channel.LargeScaleMap:
    """Large-scale map for MS1 at d1 from BS1 and MS2 at d2 from BS2, on the axis."""
    geom = channel.two_cell_line(**geom_kwargs)
    ms1 = [d1_m, 0.0]
    ms2 = [2.0 * geom.cell_radius_m - d2_m, 0.0]
    return channel.build_large_scale([ms1, ms2], geom)


def realize(large_scale: channel.LargeScaleMap, n_tx: int, gens) -> channel.ChannelRealization:
    """A block of one trial per generator of ``gens``, each trial's channels
    ``sample_small_scale`` from its generator."""
    return channel.realize_channels(large_scale, n_tx, np.stack(
        [channel.sample_small_scale(large_scale.n_users, large_scale.n_bs, n_tx, gen)
         for gen in gens]))


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


def perfect_codebook_for(realization: channel.ChannelRealization) -> quantization.Codebook:
    """Codebook whose codewords are exactly the block directions of every
    trial of the realization.

    With trials * n_users * n_bs a power of two, quantizing any block yields
    zero error.
    """
    h = realization.small_scale
    dirs = h.reshape(-1, h.shape[-1])
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    bits = int(np.log2(dirs.shape[0]))
    if 2**bits != dirs.shape[0]:
        raise ValueError("need a power-of-two number of blocks")
    return quantization.Codebook(codewords=dirs, bits=bits, kind="random")
