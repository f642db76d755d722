"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line. Trial
counts and tolerances are fixed here, not calibrated. Two criteria check a
derivation step of the closed-form bound:

- criterion 3: the inverse-norm step E{1/||g_hat||^2} < 1/(n_t sum alpha^2)
  runs the wrong way, since 1/x is convex and Jensen gives E{1/X} >= 1/E{X}
  (1/7 against 1/8 at equal energy). The test asserts the Jensen direction
  and the exact moment E{1/X} from quadrature.
- criterion 4: the closed-form bound should contain log2(1 + E{I}/sigma^2),
  the interference term it descends from. It fails by measurement: the
  bound sits within about 1 SE of that term in ten of the 15 grid cells, so
  the 99% bootstrap cannot confirm it, and falls below it by 2.7 to 15 SE in
  the other five. The assertion message carries the numbers.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from compsim import cli, montecarlo, quantization, scenario
from compsim.bounds import (
    RateLossParams,
    check_inverse_norm,
    check_nullspace_moment,
    inverse_norm_moment,
    rate_loss_bound_general,
)
from compsim.precoding import zf_precoder
from compsim.quantization import (
    isotropic_directions,
    quantize_many,
    random_codebook,
    train_lloyd,
)
from compsim.rng import substream

import _support


def report(criterion: int, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion:02d} {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def fig3_grid_cells():
    exp = scenario.preset("fig3")
    for arm in exp.arms:
        for d1, fixed in scenario.resolved_points(arm.scenario):
            yield arm.label, d1, fixed


def test_criterion_01_closed_form_bound_correctness():
    rng = substream(1001, 0, 0)
    worst = 0.0
    for _ in range(10):
        b21 = float(rng.uniform(0.05, 0.95))
        b22 = 1.0 - b21
        g11, g12 = (float(x) for x in rng.uniform(0.1, 500.0, size=2))
        e11, e12 = (float(x) for x in rng.uniform(0.0, 1.0, size=2))
        nt = int(rng.integers(2, 9))
        ours = _support.twocell_bound(b21, b22, g11, g12, e11, e12, nt)
        # independent transcription with scalar math only
        ref = math.log2(1.0 + nt / (nt - 1.0) * (b21 * g11 * e11 + b22 * g12 * e12))
        worst = max(worst, abs(ours - ref) / abs(ref))
    hand = _support.twocell_bound(0.5, 0.5, 10.0, 10.0, 0.1, 0.1, 4)
    assert abs(hand - 1.222392421336448) < 1e-12
    report(1, worst < 1e-12,
           f"closed forms match independent evaluation (worst rel err {worst:.2e})")


def test_criterion_02_appendix_nullspace_identity():
    ls = _support.two_cell_map(150.0, 250.0)
    ctx = montecarlo.build_context(
        _support.fig3_fixed(250.0, 150.0)
    )
    cb = ctx.feedback.codebooks[0][0]
    chk = check_nullspace_moment(cb, 100_000, 1002)
    detail = (f"E{{|s u^H|^2}} = {chk.lhs:.6f} vs 1/(n_t-1) = {chk.rhs:.6f} "
              f"(|diff| = {abs(chk.lhs - chk.rhs):.2e}, 3SE = {3 * chk.se:.2e})")
    report(2, abs(chk.lhs - chk.rhs) <= 3 * chk.se, detail)


def test_criterion_03_jensen_inverse_norm_direction():
    geometries = [(250.0, 250.0), (150.0, 250.0), (50.0, 250.0),
                  (125.0, 125.0), (50.0, 50.0)]
    n_tx = 4
    # the oracle against the equal-energy closed form 1/(alpha^2 (2 n_t - 1))
    equal = _support.two_cell_map(250.0, 250.0).alpha_sq[0]
    closed = 1.0 / (equal[0] * (2 * n_tx - 1))
    oracle_ok = math.isclose(inverse_norm_moment(equal, n_tx), closed,
                             rel_tol=1e-12)
    lines = []
    all_pass = oracle_ok
    for i, (d1, d2) in enumerate(geometries):
        ls = _support.two_cell_map(d1, d2)
        chk = check_inverse_norm(ls, n_tx, 0, 100_000, 1003 + i)
        exact = inverse_norm_moment(ls.alpha_sq[0], n_tx)
        jensen = chk.lhs - chk.rhs > 3 * chk.se
        matches = abs(chk.lhs - exact) <= 3 * chk.se
        ok = jensen and matches
        all_pass &= ok
        lines.append(f"({d1:g},{d2:g}): lhs={chk.lhs:.6g} exact={exact:.6g} "
                     f"rhs={chk.rhs:.6g} se={chk.se:.2g} "
                     f"(lhs-rhs)/se={(chk.lhs - chk.rhs) / chk.se:.0f} "
                     f"|lhs-exact|/se={abs(chk.lhs - exact) / chk.se:.2f} "
                     f"{'pass' if ok else 'fail'}")
    detail = (
        "1/x is convex, so Jensen gives E{1/||g_hat||^2} > 1/(n_t sum alpha^2), the "
        "reverse of the stated step: lhs exceeds rhs by >3SE and matches the exact "
        "E{1/X}, X = sum_b alpha_b^2 Gamma(n_t, 1), within 3SE (equal-energy oracle "
        f"= 1/(7 alpha^2): {'ok' if oracle_ok else 'off'}) -- " + "; ".join(lines)
    )
    report(3, all_pass, detail)


def test_criterion_04_bound_containment_on_grid():
    trials = 10_000
    resamples = 500
    lines = []
    all_pass = True
    boot_rng = substream(1004, 0, 0)
    for label, d1, fixed in fig3_grid_cells():
        ctx = montecarlo.build_context(fixed, orthogonalize=True)
        log = montecarlo.run_trials(ctx, trials)
        noise_power = ctx.large_scale.noise_power
        interf = log.interference[log.ok][:, 0]
        full = (log.ideal[log.ok] - log.quantized[log.ok])[:, 0]
        params = RateLossParams.from_large_scale(
            ctx.large_scale, fixed.n_tx, ctx.feedback.expected_error_matrix()
        )
        bound, _ = rate_loss_bound_general(params, 0)
        n = len(interf)
        wins = 0
        for _ in range(resamples):
            idx = boot_rng.integers(0, n, size=n)
            if np.log2(1.0 + interf[idx].mean() / noise_power) <= bound:
                wins += 1
        frac = wins / resamples
        ok = frac >= 0.99
        all_pass &= ok
        mean = interf.mean()
        log_bound = np.log2(1.0 + mean / noise_power)
        # delta-method standard error of log2(1 + mean/sigma^2)
        se = interf.std(ddof=1) / np.sqrt(n) / ((noise_power + mean) * np.log(2.0))
        lines.append(f"{label}/d1={d1:g}: log2(1+E{{I}}/s2)={log_bound:.4f}±{se:.4f} "
                     f"bound={bound:.4f} ({(bound - log_bound) / se:+.1f} SE) "
                     f"boot={frac:.3f} dR={full.mean():.4f} {'pass' if ok else 'fail'}")
    detail = (
        "closed-form bound >= log2(1 + E{I}/sigma^2), the interference term it "
        "descends from (RunResult.interference_log_bound), in >=99% of "
        "bootstrap resamples per grid cell (orthogonalized pairing); dR is the full "
        "measured loss, printed for reference -- " + "; ".join(lines)
    )
    report(4, all_pass, detail)


def test_criterion_05_position_trends():
    trials = 10_000
    # paired user at the cell edge: loss grows monotonically edge -> center
    edge_stats = []
    exp = scenario.preset("fig3")
    for d1, fixed in scenario.resolved_points(exp.arms[0].scenario):
        res = montecarlo.run(replace(fixed, trials=trials))
        edge_stats.append((d1, res.delta_r[0], res.delta_r_se[0]))
    monotone = True
    for (d_a, m_a, s_a), (d_b, m_b, s_b) in zip(edge_stats, edge_stats[1:]):
        if not (m_b - 2 * s_b > m_a + 2 * s_a):
            monotone = False
    # paired user at the cell center: loss at the center-most point is below
    # the edge-most point
    center_stats = {}
    for d1 in (250.0, 50.0):
        fixed = _support.fig3_fixed(50.0, d1, trials=trials)
        res = montecarlo.run(fixed)
        center_stats[d1] = (res.delta_r[0], res.delta_r_se[0])
    (m_edge, s_edge), (m_center, s_center) = center_stats[250.0], center_stats[50.0]
    decreases = m_center + 2 * s_center < m_edge - 2 * s_edge
    seq = " -> ".join(f"{m:.3f}±{s:.3f}" for _, m, s in edge_stats)
    detail = (f"paired-at-edge sweep nondecreasing with 2SE separation [{seq}]; "
              f"paired-at-center: center-most {m_center:.3f}±{s_center:.3f} < "
              f"edge-most {m_edge:.3f}±{s_edge:.3f}")
    report(5, monotone and decreases, detail)


def test_criterion_06_quantizer_ordering_at_matched_budget():
    trials = 10_000
    exp = scenario.preset("fig4")
    samples = {}
    for arm in exp.arms:
        ctx = montecarlo.build_context(scenario.at_sweep_point(arm.scenario, 125.0))
        log = montecarlo.run_trials(ctx, trials)
        samples[arm.label] = log.quantized[log.ok, 0]
    verdicts = []
    ordered = True
    for hi, lo in (("global_6bit", "per_cell_4_2"), ("per_cell_4_2", "per_cell_3_3")):
        diff = samples[hi] - samples[lo]  # common random numbers: paired
        se = diff.std(ddof=1) / np.sqrt(len(diff))
        if diff.mean() > 2 * se:
            verdicts.append(f"{hi} > {lo} ({diff.mean():.4f}±{se:.4f})")
        elif diff.mean() >= -2 * se:
            verdicts.append(f"{hi} ~ {lo} (tie, {diff.mean():.4f}±{se:.4f})")
        else:
            verdicts.append(f"{hi} < {lo} VIOLATION ({diff.mean():.4f}±{se:.4f})")
            ordered = False
    report(6, ordered, "; ".join(verdicts))


def test_criterion_07_random_drop_gap_comparison():
    exp = scenario.preset("fig5")
    gaps = {}
    for arm in exp.arms:
        res = montecarlo.run_cdf(arm.scenario)
        per_drop = res.ideal[:, 0] - res.quantized[:, 0]
        gaps[arm.label] = per_drop[np.isfinite(per_drop)]
    g_single = gaps["single_cell_global_6bit"]
    g_comp = gaps["comp_per_cell_3_3"]
    rng = substream(1007, 0, 0)
    resamples = 500
    wins = 0
    for _ in range(resamples):
        ms = np.median(g_single[rng.integers(0, len(g_single), size=len(g_single))])
        mc = np.median(g_comp[rng.integers(0, len(g_comp), size=len(g_comp))])
        if ms > mc:
            wins += 1
    frac = wins / resamples
    detail = (f"median gap single-cell {np.median(g_single):.3f} vs cooperative "
              f"{np.median(g_comp):.3f}; bootstrap P(gap_single > gap_comp) = {frac:.3f}")
    report(7, frac >= 0.95, detail)


def test_criterion_08_zero_forcing_invariants():
    fixed = _support.fig3_fixed(250.0, 150.0)
    ctx = montecarlo.build_context(fixed)
    real = _support.realize(ctx.large_scale, 4, [substream(1008, 0, t) for t in range(1000)])
    recon = ctx.feedback.apply(real.small_scale, real.alpha, real.global_channels).reconstructed
    pre, reason = zf_precoder(recon)
    ok = reason == "ok"
    successes = int(ok.sum())
    cross = recon[ok] @ pre[ok]
    off = np.abs(cross * (1.0 - np.eye(2)))
    worst_off = float(off.max(initial=0.0))
    worst_norm = float(np.abs(np.linalg.norm(pre[ok], axis=1) - 1.0).max(initial=0.0))
    # orthogonal special case: the precoder reduces to the matched filter
    worst_mf = 0.0
    for t in range(100):
        raw = substream(1008, 1, t).standard_normal((2, 8, 2))
        g = raw[..., 0] + 1j * raw[..., 1]
        q, _ = np.linalg.qr(g.conj().T)
        g_orth = q[:, :2].conj().T * np.linalg.norm(g, axis=1)[:, None]
        pre_orth, reason_orth = zf_precoder(g_orth[None])
        if reason_orth[0] != "ok":
            worst_mf = np.inf
            continue
        for k in range(2):
            ref = g_orth[k].conj() / np.linalg.norm(g_orth[k])
            worst_mf = max(worst_mf, float(np.abs(pre_orth[0, :, k] - ref).max()))
    ok = (successes >= 990 and worst_off <= 1e-9 and worst_norm <= 1e-12
          and worst_mf <= 1e-12)
    report(8, ok,
           f"{successes}/1000 instances, worst residual {worst_off:.2e}, worst "
           f"column-norm dev {worst_norm:.2e}, matched-filter dev {worst_mf:.2e}")


def test_criterion_09_quantizer_oracle_and_lloyd_monotonicity():
    cb = random_codebook(4, 3, substream(1009, 0, 0))
    draws = isotropic_directions(100_000, 4, substream(1009, 0, 1))
    idx, _ = quantize_many(draws, cb)
    mismatches = 0
    for i in range(draws.shape[0]):
        best_j, best_sim = -1, -1.0
        for j in range(cb.size):
            sim = abs(np.vdot(cb.codewords[j], draws[i])) ** 2
            if sim > best_sim:
                best_j, best_sim = j, sim
        if best_j != idx[i]:
            mismatches += 1
    monotone = True
    for dim, bits, seed in ((4, 2, 21), (4, 3, 22), (4, 4, 23), (8, 6, 24)):
        samples = isotropic_directions(200 * 2**bits, dim, substream(1009, 1, seed))
        trained = train_lloyd(dim, bits, samples, rng=substream(1009, 2, seed))
        hist = trained.training_meta["distortion_history"]
        if not all(b <= a + 1e-12 for a, b in zip(hist, hist[1:])):
            monotone = False
    report(9, mismatches == 0 and monotone,
           f"{mismatches} index mismatches over 100000 draws; Lloyd distortion "
           f"non-increasing on every training run: {monotone}")


def test_criterion_10_reproducible_csv_across_workers(tmp_path):
    out1 = tmp_path / "w1.csv"
    out8 = tmp_path / "w8.csv"
    assert cli.main(["simulate", "--preset", "fig3", "--trials", "40", "--workers", "1",
                     "--out", str(out1)]) == 0
    quantization.clear_codebook_cache()
    assert cli.main(["simulate", "--preset", "fig3", "--trials", "40", "--workers", "8",
                     "--out", str(out8)]) == 0
    identical = out1.read_bytes() == out8.read_bytes()
    report(10, identical, "preset CSV byte-identical for 1 and 8 workers")
