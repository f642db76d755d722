"""Shared helpers for the test suite."""

import numpy as np

from compsim import channel, quantization, scenario


def two_cell_map(d1_m: float, d2_m: float, **geom_kwargs) -> channel.LargeScaleMap:
    """Large-scale map for MS1 at d1 from BS1 and MS2 at d2 from BS2, on the axis."""
    geom = channel.two_cell_line(**geom_kwargs)
    ms1 = [d1_m, 0.0]
    ms2 = [2.0 * geom.cell_radius_m - d2_m, 0.0]
    return channel.build_large_scale([ms1, ms2], geom)


def fig3_fixed(ms2_distance_m: float, ms1_distance_m: float, **overrides) -> scenario.Scenario:
    """One fixed-placement cell of the position-study grid."""
    from dataclasses import replace

    exp = scenario.preset("fig3")
    label = f"ms2_{ms2_distance_m:g}m"
    arm = next(a for a in exp.arms if a.label == label)
    fixed = scenario.at_sweep_point(arm.scenario, ms1_distance_m)
    if overrides:
        fixed = replace(fixed, **overrides)
    return fixed


def inverse_norm_moment(alpha_sq_row, n_tx: int) -> float:
    """Exact E{1/X} for X = sum_b alpha_sq_b * Gamma(n_tx, 1), by quadrature.

    E{1/X} = int_0^inf prod_b (1 + alpha_sq_b s)^(-n_tx) ds. With
    t = 1/(1 + max(alpha_sq) s) the integral runs over [0, 1] with a smooth
    integrand, evaluated by Gauss-Legendre (200 nodes reach ~1e-14 relative
    accuracy on the two-cell geometries of the acceptance suite).
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


def perfect_codebook_for(realization: channel.ChannelRealization) -> quantization.Codebook:
    """Codebook whose codewords are exactly the realization's block directions.

    With n_users * n_bs a power of two, quantizing any block yields zero error.
    """
    h = realization.small_scale
    dirs = h.reshape(-1, h.shape[2])
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    bits = int(np.log2(dirs.shape[0]))
    if 2**bits != dirs.shape[0]:
        raise ValueError("need a power-of-two number of blocks")
    return quantization.Codebook(codewords=dirs, bits=bits, kind="random")
