import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from compsim import channel, montecarlo, quantization, scenario
from compsim import rng as rngmod
from compsim.errors import ConfigurationError, DomainError
from compsim.quantization import (
    Codebook,
    FeedbackConfig,
    error_estimate,
    expected_error,
    global_feedback,
    isotropic_directions,
    per_cell_feedback,
    quantize_many,
    random_codebook,
    resolve_codebooks,
    train_lloyd,
)
from compsim.precoding import zf_precoder
from compsim.rng import substream

import _support


def oracle_quantize(v, cb):
    """Independent exhaustive search: plain loop over codewords."""
    v = np.asarray(v) / np.linalg.norm(v)
    best_idx, best_sim = -1, -1.0
    for j in range(cb.codewords.shape[0]):
        sim = abs(np.vdot(cb.codewords[j], v)) ** 2
        if sim > best_sim:
            best_idx, best_sim = j, sim
    return best_idx, 1.0 - best_sim


class TestQuantizeDirection:
    def test_codeword_is_exactly_representable_incl_phase(self):
        cb = random_codebook(4, 3, substream(11, 0, 0))
        idx, err = quantize_many(np.exp(1j * 0.7) * 3.5 * cb.codewords[[0, 5]], cb)
        assert list(idx) == [0, 5]
        assert np.all(err <= 1e-12)

    def test_orthogonal_to_every_codeword_gives_error_one(self):
        # 2^B < dimension leaves room for a direction outside the span
        cw = np.zeros((2, 4), dtype=complex)
        cw[0, 0] = 1.0
        cw[1, 1] = 1.0
        cb = Codebook(codewords=cw, bits=1, kind="random")
        _, err = quantize_many(np.array([[0, 0, 1.0, 0], [0, 0, 0, 2.0]]), cb)
        assert list(err) == [1.0, 1.0]

    def test_zero_vector_rejected(self):
        cb = random_codebook(4, 2, substream(11, 0, 1))
        vs = isotropic_directions(3, 4, substream(11, 0, 11))
        vs[1] = 0.0
        with pytest.raises(DomainError):
            quantize_many(vs, cb)

    def test_dimension_mismatch_rejected(self):
        cb = random_codebook(4, 2, substream(11, 0, 2))
        for shape in ((2, 5), (2, 3), (4,), (1, 2, 4)):
            with pytest.raises(DomainError):
                quantize_many(np.ones(shape, dtype=complex), cb)

    def test_phase_invariance(self):
        cb = random_codebook(4, 3, substream(11, 0, 3))
        vs = isotropic_directions(50, 4, substream(11, 0, 4))
        idx0, err0 = quantize_many(vs, cb)
        for phi in (0.3, 1.9, 4.4):
            idx, err = quantize_many(np.exp(1j * phi) * vs, cb)
            assert np.array_equal(idx, idx0)
            assert np.allclose(err, err0, rtol=0.0, atol=1e-12)

    def test_matches_exhaustive_oracle(self):
        cb = random_codebook(4, 3, substream(11, 0, 5))
        vs = isotropic_directions(20_000, 4, substream(11, 0, 6))
        idx, err = quantize_many(vs, cb)
        for i in range(0, vs.shape[0], 97):
            oi, oe = oracle_quantize(vs[i], cb)
            assert idx[i] == oi
            assert err[i] == pytest.approx(oe, abs=1e-12)
        # full index-stream equality for a contiguous slice
        ref = np.array([oracle_quantize(v, cb)[0] for v in vs[:2000]])
        assert np.array_equal(idx[:2000], ref)

    def test_mean_error_matches_oracle_mean(self):
        cb = random_codebook(4, 3, substream(11, 0, 7))
        vs = isotropic_directions(20_000, 4, substream(11, 0, 8))
        _, err = quantize_many(vs, cb)
        oracle = np.array([oracle_quantize(v, cb)[1] for v in vs])
        se = oracle.std(ddof=1) / np.sqrt(len(oracle))
        assert abs(err.mean() - oracle.mean()) <= 3 * se

    def test_nested_codebooks_never_increase_error(self):
        rng = substream(11, 0, 9)
        small = random_codebook(4, 3, rng)
        extra = isotropic_directions(8, 4, rng)
        big = Codebook(
            codewords=np.vstack([small.codewords, extra]), bits=4, kind="random"
        )
        vs = isotropic_directions(5_000, 4, substream(11, 0, 10))
        _, err_small = quantize_many(vs, small)
        _, err_big = quantize_many(vs, big)
        assert np.all(err_big <= err_small + 1e-15)


class TestCodebookValidation:
    def test_wrong_codeword_count(self):
        with pytest.raises(ConfigurationError):
            Codebook(codewords=isotropic_directions(3, 4, substream(1, 0, 0)),
                     bits=2, kind="random")

    def test_non_unit_norm(self):
        cw = isotropic_directions(4, 4, substream(1, 0, 1)) * 1.001
        with pytest.raises(ConfigurationError):
            Codebook(codewords=cw, bits=2, kind="random")

    def test_non_finite_codeword_rejected(self):
        cw = isotropic_directions(4, 4, substream(1, 0, 4))
        cw[2, 1] = np.nan
        with pytest.raises(ConfigurationError, match="codeword 2 is not finite"):
            Codebook(codewords=cw, bits=2, kind="random")

    def test_construction_memory_is_linear_in_the_codewords(self):
        # The norms of a complex array hold it, its conjugate, their product
        # and the product's real part at once: about 3.5 times the codewords'
        # bytes, the most any step of the draw or the checks takes (3.66
        # measured). A check over pairs of these 2^12 codewords would take
        # 2^24 entries: 256 MiB as a complex Gram matrix, against 0.5 MiB.
        tracemalloc.start()
        try:
            cb = random_codebook(8, 12, substream(1, 0, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * cb.codewords.nbytes, peak / cb.codewords.nbytes


class TestLloyd:
    def test_zero_bits_matches_eigen_oracle(self):
        rng = substream(12, 0, 0)
        samples = isotropic_directions(400, 4, rng)
        cb = train_lloyd(4, 0, samples, rng=substream(12, 0, 1))
        # independent oracle: dominant eigenvector of the sample correlation
        corr = samples.conj().T @ samples
        eigvals, eigvecs = np.linalg.eigh(corr)
        expected_distortion = 1.0 - eigvals[-1] / samples.shape[0]
        assert cb.training_meta["final_distortion"] == pytest.approx(
            expected_distortion, rel=1e-9
        )
        top = eigvecs[:, -1].conj()
        overlap = abs(np.vdot(cb.codewords[0], top / np.linalg.norm(top))) ** 2
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_beats_random_codebook_on_held_out_set(self):
        train_rng = substream(12, 0, 2)
        samples = isotropic_directions(1600, 4, train_rng)
        lloyd = train_lloyd(4, 3, samples, rng=substream(12, 0, 3))
        rvq = random_codebook(4, 3, substream(12, 0, 4))
        held_out = isotropic_directions(100_000, 4, substream(12, 0, 5))
        _, err_lloyd = quantize_many(held_out, lloyd)
        _, err_rvq = quantize_many(held_out, rvq)
        diff = err_rvq - err_lloyd
        se = diff.std(ddof=1) / np.sqrt(len(diff))
        assert diff.mean() > 3 * se  # strictly better, resolved

    def test_perfectly_clusterable_data_reaches_zero_distortion(self):
        # 2^bits mutually orthogonal directions, each repeated
        base = np.eye(4, dtype=complex)
        samples = np.repeat(base, 100, axis=0)
        cb = train_lloyd(4, 2, samples, rng=substream(12, 0, 6))
        assert cb.training_meta["final_distortion"] <= 1e-12
        _, err = quantize_many(base, cb)
        assert np.all(err <= 1e-12)

    def test_distortion_history_non_increasing(self):
        samples = isotropic_directions(1600, 4, substream(12, 0, 7))
        cb = train_lloyd(4, 3, samples, rng=substream(12, 0, 8))
        hist = cb.training_meta["distortion_history"]
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
        assert cb.training_meta["final_distortion"] <= cb.training_meta["initial_distortion"]

    def test_empty_clusters_are_reseeded(self):
        # two point masses with four codewords force empty clusters
        u = np.zeros(4, dtype=complex); u[0] = 1.0
        v = np.zeros(4, dtype=complex); v[1] = 1.0
        samples = np.vstack([np.tile(u, (200, 1)), np.tile(v, (200, 1))])
        cb = train_lloyd(4, 2, samples, rng=substream(12, 0, 9))
        assert cb.training_meta["reseeded_clusters"] >= 1
        assert cb.training_meta["final_distortion"] <= 1e-12

    def test_insufficient_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            train_lloyd(4, 3, isotropic_directions(300, 4, substream(12, 0, 10)),
                        rng=substream(12, 0, 11))

    @pytest.mark.parametrize("scale", [2.0, np.nan])
    def test_non_unit_samples_rejected(self, scale):
        samples = isotropic_directions(400, 4, substream(12, 0, 12))
        samples[7] *= scale
        with pytest.raises(ConfigurationError, match="finite and unit norm"):
            train_lloyd(4, 0, samples, rng=substream(12, 0, 13))

    def test_non_convergence_flagged(self, monkeypatch):
        monkeypatch.setattr(quantization, "DEFAULT_LLOYD_MAX_ITERS", 2)
        samples = isotropic_directions(1600, 4, substream(12, 0, 14))
        cb = train_lloyd(4, 3, samples, rng=substream(12, 0, 15))
        assert cb.training_meta["converged"] is False

    @pytest.mark.parametrize("profile", [(np.nan, 0.0), (0.0, 0.0), (np.inf, 1.0)])
    def test_global_codebook_needs_a_finite_nonzero_split(self, profile):
        for kind in ("lloyd", "random"):
            with pytest.raises(DomainError, match="finite, nonzero energy split"):
                quantization.build_codebook(8, 2, kind, 7, profile)


def _preset_lloyd_codebooks() -> dict:
    """Every Lloyd codebook the fig3, fig4 and fig5 presets build, keyed by
    (dimension, bits, training seed, the profile's first share to 4 places
    or None for a per-cell codebook)."""
    found = {}
    for name in scenario.PRESET_NAMES:
        for arm in scenario.preset(name).arms:
            scn = arm.scenario
            if scn.placement.mode == "random_uniform":
                # a drop's codebooks are those of any other drop here: per-cell
                # ones, and single-cell global ones whose split is (1.0,)
                placements = [montecarlo._draw_positions(
                    scn, substream(scn.master_seed, rngmod.DROP, 0))]
            else:
                placements = [fixed.placement.positions
                              for _, fixed in scenario.resolved_points(scn)]
            for positions in placements:
                large_scale = montecarlo.large_scale_map(scn, positions)
                for row in resolve_codebooks(scn.feedback, scn.n_tx, large_scale).codebooks:
                    for cb in row:
                        meta = cb.training_meta
                        profile = meta.get("profile")
                        found[(cb.dimension, cb.bits, meta["seed"],
                               None if profile is None else round(profile[0], 4))] = cb
    return found


class TestPresetCodebooks:
    """Did every codebook converge? Each Lloyd identity of the presets,
    trained with the library defaults."""

    # error_estimate means with DEFAULT_LLOYD_TOL at 1e-6, where two of the
    # 8-dimension codebooks stopped at DEFAULT_LLOYD_MAX_ITERS unconverged
    TOL_1E6_MEANS = {
        (4, 3, 7103, None): 0.3942265577904883,
        (8, 6, 7104, 0.5): 0.501569629193004,
        (8, 6, 7104, 0.8212): 0.3625531079772252,
        (8, 6, 7104, 0.9603): 0.23887711091642655,
        (8, 6, 7104, 0.9946): 0.20318637385795896,
        (8, 6, 7104, 0.9997): 0.1980781612632431,
        (4, 2, 7104, None): 0.48108552850757197,
        (4, 4, 7104, None): 0.3103040097015082,
        (4, 3, 7104, None): 0.3949403626934276,
        (4, 3, 7105, None): 0.3949919347965446,
        (8, 6, 7105, 1.0): 0.501442768456144,
    }

    def test_every_codebook_converges_within_two_se_of_the_tight_tolerance(self):
        codebooks = _preset_lloyd_codebooks()
        assert set(codebooks) == set(self.TOL_1E6_MEANS)
        for identity, cb in codebooks.items():
            meta = cb.training_meta
            assert meta["converged"] is True, identity
            assert meta["iterations"] < quantization.DEFAULT_LLOYD_MAX_ITERS, identity
            estimate = error_estimate(cb)
            assert abs(estimate["mean"] - self.TOL_1E6_MEANS[identity]) <= 2 * estimate["se"], \
                (identity, estimate)


class TestRandomCodebookOracle:
    """Random vector quantization against its closed forms: the ensemble
    mean of E{sin^2 theta} over isotropic codebooks of 2^B words in M complex
    dimensions is 2^B B(2^B, M/(M-1)) (Au-Yeung & Love, IEEE TWC 2007), and
    Jindal's 2^(-B/(M-1)) (IEEE Trans. IT 2006) lies above it."""

    CODEBOOKS, DRAWS = 300, 2000

    @staticmethod
    def exact(m: int, b: int) -> float:
        n, a = 2**b, m / (m - 1)
        return n * math.exp(math.lgamma(n) + math.lgamma(a) - math.lgamma(n + a))

    def ensemble(self, m: int, b: int) -> tuple[float, float]:
        """Mean and SE, over random codebooks, of each one's mean error on
        its own isotropic draws."""
        rng = substream(19, m, b)
        means = np.array([
            quantize_many(isotropic_directions(self.DRAWS, m, rng),
                          random_codebook(m, b, rng))[1].mean()
            for _ in range(self.CODEBOOKS)
        ])
        return float(means.mean()), float(means.std(ddof=1) / np.sqrt(self.CODEBOOKS))

    @pytest.mark.parametrize("m, b", [(4, 2), (4, 3), (8, 6)])
    def test_ensemble_mean_meets_the_closed_form(self, m, b):
        mean, se = self.ensemble(m, b)
        assert abs(mean - self.exact(m, b)) < 4 * se, (mean, se, self.exact(m, b))
        jindal = 2.0 ** (-b / (m - 1))
        assert self.exact(m, b) < jindal
        assert mean + 4 * se < jindal


def _two_cell_realization(seed, alpha_sq=None):
    if alpha_sq is None:
        alpha_sq = np.array([[4.0, 0.5], [0.5, 4.0]])
    ls = channel.LargeScaleMap(snr_gamma_sq=alpha_sq)
    real = _support.realize(ls, 4, [substream(seed, 0, 0)])
    return real, ls


def _one_trial(*blocks):
    """Trial 0 of each one-trial block (a realization or a feedback report):
    its arrays without the trial axis."""
    return [SimpleNamespace(**{name: value[0] if isinstance(value, np.ndarray) else value
                               for name, value in vars(block).items()})
            for block in blocks]


class TestPerCellFeedback:
    def test_perfect_codebook_reconstructs_exactly(self):
        real, ls = _two_cell_realization(21)
        cb = _support.perfect_codebook_for(real.small_scale)
        rep = per_cell_feedback(real.small_scale, real.alpha, _support.shared(cb, 2, 2))
        real, rep = _one_trial(real, rep)
        # coherent reconstruction convention: zero error recovers g itself
        assert np.allclose(rep.reconstructed, real.global_channels, atol=1e-12)
        for k in range(2):
            assert np.linalg.norm(rep.reconstructed[k]) == pytest.approx(
                np.linalg.norm(real.global_channels[k]), rel=1e-12
            )

    def test_reconstruction_invariants(self):
        real, ls = _two_cell_realization(24)
        cb = random_codebook(4, 3, substream(24, 1, 0))
        rep = per_cell_feedback(real.small_scale, real.alpha, _support.shared(cb, 2, 2))
        real, rep = _one_trial(real, rep)
        for k in range(2):
            # norms pass through unquantized
            for b in range(2):
                rho = ls.alpha[k, b] * np.linalg.norm(real.small_scale[k, b])
                assert rep.norms[k, b] == pytest.approx(rho, rel=1e-12)
                block = rep.reconstructed[k, b * 4 : (b + 1) * 4]
                assert np.linalg.norm(block) == pytest.approx(rho, rel=1e-12)
                # block direction is the nearest codeword up to phase
                nearest = oracle_quantize(real.small_scale[k, b], cb)[0]
                overlap = abs(np.vdot(cb.codewords[nearest], block / rho))
                assert overlap == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(rep.reconstructed[k]) ** 2 == pytest.approx(
                float((rep.norms[k] ** 2).sum()), rel=1e-12
            )

    def test_reconstruction_blocks_are_phase_coherent(self):
        # the complex projection of each true block on its reconstructed block
        # is real and nonnegative
        real, ls = _two_cell_realization(25)
        cb = random_codebook(4, 3, substream(25, 1, 0))
        rep = per_cell_feedback(real.small_scale, real.alpha, _support.shared(cb, 2, 2))
        real, rep = _one_trial(real, rep)
        for k in range(2):
            for b in range(2):
                block = rep.reconstructed[k, b * 4 : (b + 1) * 4]
                proj = np.vdot(block, real.small_scale[k, b])
                assert abs(proj.imag) <= 1e-12 * abs(proj)
                assert proj.real >= 0.0

    def test_mismatched_codebook_dimension_rejected(self):
        real, ls = _two_cell_realization(26)
        cb = random_codebook(5, 3, substream(26, 1, 0))
        with pytest.raises(ConfigurationError):
            per_cell_feedback(real.small_scale, real.alpha, _support.shared(cb, 2, 2))


class TestGlobalFeedback:
    def test_perfect_codebook_reconstructs_exactly(self):
        real, _ = _two_cell_realization(31)
        g = real.global_channels[0]
        dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
        cb = Codebook(codewords=dirs, bits=1, kind="random")
        rep = global_feedback(real.global_channels, _support.shared(cb, 2, 1))
        real, rep = _one_trial(real, rep)
        assert np.allclose(rep.reconstructed, g, atol=1e-12)

    def test_norm_passthrough(self):
        real, _ = _two_cell_realization(32)
        cb = random_codebook(8, 6, substream(32, 1, 0))
        rep = global_feedback(real.global_channels, _support.shared(cb, 2, 1))
        real, rep = _one_trial(real, rep)
        for k in range(2):
            assert np.linalg.norm(rep.reconstructed[k]) == pytest.approx(
                np.linalg.norm(real.global_channels[k]), rel=1e-12
            )

    def test_report_holds_one_block_per_user(self):
        real, _ = _two_cell_realization(33)
        grid = [[random_codebook(8, 6, substream(33, 1, k))] for k in range(2)]
        rep = global_feedback(real.global_channels, grid)
        real, rep = _one_trial(real, rep)
        assert rep.norms.shape == (2, 1)
        for k in range(2):
            g = real.global_channels[k]
            assert rep.norms[k, 0] == np.linalg.norm(g)
            # the reconstruction is the nearest codeword of the user's own
            # codebook, up to phase
            nearest = grid[k][0].codewords[oracle_quantize(g, grid[k][0])[0]]
            assert abs(np.vdot(nearest, rep.reconstructed[k])) == pytest.approx(
                rep.norms[k, 0], rel=1e-12)

    def test_global_beats_percell_on_chordal_error_at_matched_budget(self):
        # 6-bit global vs 3+3 per-cell, identical channel draws, lloyd books
        # trained on the scenario's distributions
        alpha_sq = _support.two_cell_map(125.0, 250.0).alpha_sq
        ls = channel.LargeScaleMap(snr_gamma_sq=alpha_sq)
        res_global = resolve_codebooks(
            FeedbackConfig(mode="global", global_bits=6, training_seed=501), 4, ls
        )
        res_percell = resolve_codebooks(
            FeedbackConfig(mode="per_cell", bits=[[3, 3], [3, 3]], training_seed=501),
            4, ls,
        )
        draws = 2000
        real = _support.realize(ls, 4, [substream(611, 0, t) for t in range(draws)])
        g = real.global_channels[:, 0]
        gbar = g / np.linalg.norm(g, axis=1, keepdims=True)
        err = []
        for res in (res_global, res_percell):
            ghat = res.apply(real.small_scale, real.alpha, real.global_channels).reconstructed[:, 0]
            ghat = ghat / np.linalg.norm(ghat, axis=1, keepdims=True)
            err.append(1.0 - np.abs((ghat.conj() * gbar).sum(axis=1)) ** 2)
        err_g, err_p = err
        diff = err_p - err_g
        se = diff.std(ddof=1) / np.sqrt(draws)
        assert diff.mean() >= -2 * se  # lower or equal within resolution


@st.composite
def feedback_cases(draw):
    """A two-cell realization, a feedback mode, and a codebook grid holding
    either one codebook shared by every block or a distinct one per block."""
    seed = draw(st.integers(0, 2**32 - 1))
    alpha_sq = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=4, max_size=4)))
    real, ls = _two_cell_realization(seed, alpha_sq.reshape(2, 2))
    mode = draw(st.sampled_from(("per_cell", "global")))
    dim, n_blocks = (4, 2) if mode == "per_cell" else (8, 1)
    if draw(st.booleans()):
        codebooks = _support.shared(random_codebook(dim, draw(st.integers(0, 4)),
                                                    substream(seed, 1, 0)), 2, n_blocks)
    else:
        codebooks = [[random_codebook(dim, draw(st.integers(0, 4)),
                                      substream(seed, 1, 1 + n_blocks * k + b))
                      for b in range(n_blocks)] for k in range(2)]
    return mode, real, ls, codebooks


@settings(max_examples=60, deadline=None)
@given(feedback_cases())
def test_block_feedback_properties(case):
    mode, real, ls, codebooks = case
    if mode == "per_cell":
        rep = per_cell_feedback(real.small_scale, real.alpha, codebooks)
        real, rep = _one_trial(real, rep)
        blocks, scale = real.small_scale, ls.alpha
    else:
        rep = global_feedback(real.global_channels, codebooks)
        real, rep = _one_trial(real, rep)
        blocks, scale = real.global_channels[:, None, :], np.ones((2, 1))
    n_blocks, dim = blocks.shape[1:]
    for k in range(2):
        for b in range(n_blocks):
            cb = codebooks[k][b]
            block = blocks[k, b]
            recon = rep.reconstructed[k, b * dim:(b + 1) * dim]
            # the norm, times the block's scale, passes through
            rho = scale[k, b] * np.linalg.norm(block)
            # the direction is the exhaustive nearest codeword, up to phase
            nearest = cb.codewords[oracle_quantize(block, cb)[0]]
            assert abs(np.vdot(nearest, recon)) == pytest.approx(rho, rel=1e-12)
            assert rep.norms[k, b] == pytest.approx(rho, rel=1e-12)
            assert np.linalg.norm(recon) == pytest.approx(rho, rel=1e-12)
            # the projection on the true block is real and nonnegative
            proj = np.vdot(recon, block)
            assert abs(proj.imag) <= 1e-12 * abs(proj)
            assert proj.real >= 0.0
    # zero-forcing on the reconstruction leaves no residual between users
    precoder, reason = zf_precoder(rep.reconstructed[None])
    assume(reason[0] == "ok")  # a rank-deficient or ill-conditioned pairing is rejected
    gains = rep.reconstructed @ precoder[0]
    off_diagonal = gains[~np.eye(2, dtype=bool)]
    assert np.all(np.abs(off_diagonal) <= 1e-9 * np.abs(np.diagonal(gains)).max())


class TestExpectedError:
    def test_estimate_reproducible_and_in_range(self):
        cb = random_codebook(4, 3, substream(41, 0, 0))
        m1, se1 = expected_error(cb, _support.row_blocks_of(
            isotropic_directions(20_000, 4, substream(41, 0, 1))))
        m2, _ = expected_error(cb, _support.row_blocks_of(
            isotropic_directions(20_000, 4, substream(41, 0, 1))))
        assert m1 == m2
        assert 0.0 < m1 < 1.0 and se1 > 0.0

    def test_only_a_built_codebook_has_an_estimate(self):
        with pytest.raises(ConfigurationError, match="identity"):
            error_estimate(random_codebook(4, 3, substream(41, 0, 2)))

    @pytest.mark.parametrize("identity", [(4, 3, "lloyd", 7001, None),
                                          (8, 6, "lloyd", 7104, (0.7, 0.3))])
    def test_streamed_estimate_equals_the_whole_draw(self, identity):
        """``error_estimate`` draws its directions a row block at a time: the
        same bits as ``expected_error`` over the whole draw."""
        dimension, bits, _, seed, profile = identity
        cb = quantization.build_codebook(*identity)
        rng = substream(seed, rngmod.ERROR_ESTIMATE,
                        *quantization._labels(dimension, bits, profile))
        whole = quantization._directions(quantization.DEFAULT_ERROR_ESTIMATE_DRAWS,
                                         dimension, profile, rng)
        mean, se = expected_error(cb, _support.row_blocks_of(whole))
        assert error_estimate(cb) == {"mean": mean, "se": se, "draws": len(whole)}


class TestResolveCodebooks:
    def test_per_cell_shares_codebooks_by_bits(self):
        ls = _support.two_cell_map(125.0, 250.0)
        res = resolve_codebooks(
            FeedbackConfig(mode="per_cell", bits=[[4, 2], [2, 4]], training_seed=502),
            4, ls,
        )
        grid = res.codebooks
        assert grid[0][0] is grid[1][1]  # both 4-bit
        assert grid[0][1] is grid[1][0]  # both 2-bit
        assert grid[0][0].bits == 4 and grid[0][1].bits == 2
        for cb in (grid[0][0], grid[0][1]):
            assert 0.0 < error_estimate(cb)["mean"] < 1.0

    def test_global_codebooks_keyed_by_energy_profile(self):
        ls = _support.two_cell_map(250.0, 250.0)  # both users symmetric
        res = resolve_codebooks(
            FeedbackConfig(mode="global", global_bits=4, training_seed=503), 4, ls
        )
        # identical normalized profiles share one trained codebook
        assert res.codebooks[0][0] is res.codebooks[1][0]
        assert res.codebooks[0][0].dimension == 8
        assert res.codebooks[0][0].training_meta["profile"] == ls.energy_split()[0].tolist()


class TestCodebookCache:
    """The cache keeps the ``CODEBOOK_CACHE_SIZE`` codebooks used last."""

    @pytest.fixture
    def built(self, monkeypatch):
        """An empty cache, and the identity of every codebook built."""
        monkeypatch.setattr(quantization, "_codebook_cache", {})
        keys = []
        build = quantization.build_codebook

        def counted(*key):
            keys.append(key)
            return build(*key)

        monkeypatch.setattr(quantization, "build_codebook", counted)
        return keys

    def test_cooperative_drops_with_random_global_codebooks_leave_a_bounded_cache(
            self, built, monkeypatch):
        # every drop splits the users' energy its own way: two codebooks a drop
        coop = scenario.preset("fig5").arms[0].scenario
        scn = replace(coop, drops=30, trials_per_drop=3, feedback=FeedbackConfig(
            mode="global", global_bits=2, codebook_kind="random", training_seed=7))
        bounded = montecarlo.run_cdf(scn)
        assert len(built) == 60
        assert len(quantization._codebook_cache) == quantization.CODEBOOK_CACHE_SIZE < 60
        monkeypatch.setattr(quantization, "_codebook_cache", {})
        monkeypatch.setattr(quantization, "CODEBOOK_CACHE_SIZE", 1000)
        unbounded = montecarlo.run_cdf(scn)
        assert len(quantization._codebook_cache) == 60
        for field in ("quantized", "ideal"):
            np.testing.assert_array_equal(getattr(bounded, field), getattr(unbounded, field))

    def test_preset_setups_train_each_lloyd_codebook_once(self, built, monkeypatch):
        # a random codebook stands in for each training: only the count matters
        monkeypatch.setattr(quantization, "train_lloyd",
                            lambda dim, bits, samples, rng: random_codebook(dim, bits, rng))
        for _ in range(2):
            for arm in scenario.preset("fig4").arms:
                for _, fixed in scenario.resolved_points(arm.scenario):
                    montecarlo.build_context(fixed)
            for arm in scenario.preset("fig5").arms:
                montecarlo.run_cdf(replace(arm.scenario, drops=40, trials_per_drop=2))
        lloyd = Counter(key for key in built if key[2] == "lloyd")
        assert len(lloyd) == 10 and set(lloyd.values()) == {1}

    def test_shared_codebooks_stay_the_same_objects(self, built):
        ls = _support.two_cell_map(125.0, 250.0)
        config = FeedbackConfig(mode="per_cell", bits=[[2, 2], [2, 2]],
                                codebook_kind="random", training_seed=9)
        first = resolve_codebooks(config, 4, ls)
        for seed in range(quantization.CODEBOOK_CACHE_SIZE):
            # more codebooks than the cache keeps, each used between two
            # uses of the shared one
            resolve_codebooks(replace(config, training_seed=10 + seed), 4, ls)
            assert resolve_codebooks(config, 4, ls).shares_codebooks(first)
