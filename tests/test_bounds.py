import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from compsim import bounds, channel, montecarlo, quantization, scenario
from compsim import rng as rngmod
from compsim.bounds import (
    RateLossParams,
    check_decomposition,
    check_interference_moment,
    check_inverse_norm,
    check_nullspace_moment,
    orthogonalize_report,
    rate_loss_bound_general,
    rate_loss_montecarlo,
    verify_appendix,
)
from compsim.errors import ConfigurationError
from compsim.quantization import FeedbackConfig, per_cell_feedback, random_codebook
from compsim.rng import substream

import _support


def hand_bound_twocell(b21, b22, g11, g12, e11, e12, nt):
    """Independent transcription using scalar math ops only."""
    return math.log2(1.0 + nt / (nt - 1.0) * (b21 * g11 * e11 + b22 * g12 * e12))


class TestClosedForms:
    def test_hand_example_equal_split(self):
        value = _support.twocell_bound(0.5, 0.5, 10.0, 10.0, 0.1, 0.1, 4)
        # log2[1 + (4/3) * 0.5 * (10*0.1 + 10*0.1)] = log2(7/3)
        assert value == pytest.approx(1.222392421336448, rel=1e-12)

    def test_matches_independent_transcription_on_random_sets(self):
        rng = substream(131, 0, 0)
        for _ in range(10):
            b21 = float(rng.uniform(0.05, 0.95))
            b22 = 1.0 - b21
            g11, g12 = rng.uniform(0.1, 500.0, size=2)
            e11, e12 = rng.uniform(0.0, 1.0, size=2)
            nt = int(rng.integers(2, 9))
            ours = _support.twocell_bound(b21, b22, g11, g12, e11, e12, nt)
            assert ours == pytest.approx(
                hand_bound_twocell(b21, b22, g11, g12, e11, e12, nt), rel=1e-12
            )

    def test_general_specializes_to_twocell(self):
        rng = substream(131, 0, 1)
        for _ in range(10):
            beta2 = float(rng.uniform(0.05, 0.95))
            beta = np.array([[0.4, 0.6], [beta2, 1.0 - beta2]])
            gamma = rng.uniform(0.1, 300.0, size=(2, 2))
            err = rng.uniform(0.0, 1.0, size=(2, 2))
            params = RateLossParams(beta=beta, gamma_sq=gamma, n_tx=4, expected_error=err)
            general, terms = rate_loss_bound_general(params, 0)
            twocell = hand_bound_twocell(
                beta[1, 0], beta[1, 1], gamma[0, 0], gamma[0, 1],
                err[0, 0], err[0, 1], 4,
            )
            assert general == pytest.approx(twocell, rel=1e-12)
            assert set(terms) == {1}

    def test_cell_edge_split_reduces_to_half_weight_form(self):
        g11, g12, e11, e12, nt = 135.0, 2.2, 0.39, 0.41, 4
        value = _support.twocell_bound(0.5, 0.5, g11, g12, e11, e12, nt)
        closed = math.log2(1.0 + nt / (2.0 * (nt - 1.0)) * (g11 * e11 + g12 * e12))
        assert value == pytest.approx(closed, rel=1e-12)

    def test_vanishing_interference_limit(self):
        # paired user at its cell center and own cross link negligible
        value = _support.twocell_bound(1e-9, 1.0 - 1e-9, 100.0, 1e-9, 0.4, 0.4, 4)
        assert value < 1e-6

    def test_beta_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            _support.twocell_params(0.5, 0.6, 10.0, 10.0, 0.1, 0.1, 4)

    def test_zero_errors_give_zero_bound(self):
        params = RateLossParams(
            beta=np.full((2, 2), 0.5),
            gamma_sq=np.full((2, 2), 50.0),
            n_tx=4,
            expected_error=np.zeros((2, 2)),
        )
        value, terms = rate_loss_bound_general(params, 0)
        assert value == 0.0 and terms[1] == 0.0

    def test_monotone_in_errors_and_snr(self):
        base = dict(
            beta=np.full((2, 2), 0.5), gamma_sq=np.full((2, 2), 20.0), n_tx=4,
            expected_error=np.full((2, 2), 0.3),
        )
        v0, _ = rate_loss_bound_general(RateLossParams(**base), 0)
        for field, bump in (("expected_error", 0.1), ("gamma_sq", 5.0)):
            for idx in ((0, 0), (0, 1)):
                mod = {k: np.array(v, dtype=float) if isinstance(v, np.ndarray) else v
                       for k, v in base.items()}
                mod[field] = np.array(base[field], dtype=float)
                mod[field][idx] += bump
                v1, _ = rate_loss_bound_general(RateLossParams(**mod), 0)
                assert v1 >= v0

    def test_monotone_in_paired_user_weight_toward_strong_link(self):
        # shifting the paired user's energy toward the victim's strong link
        # increases the bound
        lo = _support.twocell_bound(0.2, 0.8, 100.0, 1.0, 0.3, 0.3, 4)
        hi = _support.twocell_bound(0.4, 0.6, 100.0, 1.0, 0.3, 0.3, 4)
        assert hi > lo

    def test_from_large_scale_betas(self):
        ls = _support.two_cell_map(125.0, 250.0)
        params = RateLossParams.from_large_scale(ls, 4, np.zeros((2, 2)))
        assert np.allclose(params.beta.sum(axis=1), 1.0, atol=1e-12)
        assert np.array_equal(params.gamma_sq, ls.snr_gamma_sq)


class TestOrthogonalization:
    # one-trial blocks: index 0 is the trial
    def _report(self, seed, bits=3):
        ls = _support.two_cell_map(150.0, 250.0)
        real = _support.realize(ls, 4, [substream(seed, 0, 0)])
        cb = random_codebook(4, bits, substream(seed, 1, 0))
        return real, ls, per_cell_feedback(real, ls, cb)

    def test_blocks_become_orthogonal_and_norms_survive(self):
        real, ls, rep = self._report(141)
        out = orthogonalize_report(rep, 4, 141, 0)[0]
        for b in range(2):
            blk0 = out[0, b * 4 : (b + 1) * 4]
            blk1 = out[1, b * 4 : (b + 1) * 4]
            assert abs(np.vdot(blk0, blk1)) <= 1e-9 * np.linalg.norm(blk0) * np.linalg.norm(blk1)
            assert np.linalg.norm(blk1) == pytest.approx(rep.norms[0, 1, b], rel=1e-12)
        # first user untouched
        assert np.array_equal(out[0], rep.reconstructed[0, 0])

    def test_identical_codewords_fall_back_to_random_direction(self):
        # a 0-bit codebook forces both users onto the same codeword
        real, ls, rep = self._report(142, bits=0)
        out = orthogonalize_report(rep, 4, 142, 0)[0]
        for b in range(2):
            blk0 = out[0, b * 4 : (b + 1) * 4]
            blk1 = out[1, b * 4 : (b + 1) * 4]
            assert abs(np.vdot(blk0, blk1)) <= 1e-9 * np.linalg.norm(blk0) * np.linalg.norm(blk1)

    def test_redraws_come_from_each_trials_own_generator(self):
        # with 0 bits every trial redraws; a trial's result must not depend
        # on the block around it, only on its index
        ls = _support.two_cell_map(150.0, 250.0)
        cb = random_codebook(4, 0, substream(145, 1, 0))
        gens = [substream(145, 0, t) for t in range(6)]
        block = orthogonalize_report(per_cell_feedback(_support.realize(ls, 4, gens), ls, cb),
                                     4, 145, 300)
        for t in range(6):
            alone = _support.realize(ls, 4, [substream(145, 0, t)])
            out = orthogonalize_report(per_cell_feedback(alone, ls, cb), 4, 145, 300 + t)
            assert np.array_equal(out[0], block[t])
        # the redraws are those of substream (REDRAW, 300 + t): user 1's first
        # redraw on BS 0, minus its projection on user 0
        d = block[0, 0, :4] / np.linalg.norm(block[0, 0, :4])
        fresh = rngmod.complex_normal(substream(145, rngmod.REDRAW, 300), (4,))
        v = fresh - np.vdot(d, fresh) * d
        assert np.allclose(block[0, 1, :4] / np.linalg.norm(block[0, 1, :4]),
                           v / np.linalg.norm(v), atol=1e-12)

    def test_zero_error_quantization_kills_interference_term(self):
        # with sin(theta) = 0 the composite residual Q = g_1 ghat_2'^H vanishes
        # under per-block orthogonality
        ls = _support.two_cell_map(150.0, 250.0)
        for t in range(50):
            real = _support.realize(ls, 4, [substream(143, 0, t)])
            cb = _support.perfect_codebook_for(real)
            rep = per_cell_feedback(real, ls, cb)
            out = orthogonalize_report(rep, 4, 143, t)[0]
            q = np.dot(real.global_channels[0, 0], out[1].conj())
            assert abs(q) <= 1e-9


class TestRateLossMonteCarlo:
    @settings(max_examples=10, deadline=None)
    @given(master_seed=st.integers(0, 2**32 - 1),
           d1=st.floats(channel.DEFAULT_MIN_DISTANCE_M, channel.DEFAULT_CELL_RADIUS_M),
           d2=st.floats(channel.DEFAULT_MIN_DISTANCE_M, channel.DEFAULT_CELL_RADIUS_M))
    @example(master_seed=9301, d1=150.0, d2=250.0)
    def test_perfect_feedback_gives_exactly_zero_loss(self, master_seed, d1, d2):
        perfect = _support.fig3_fixed(d2, d1, feedback=FeedbackConfig(mode="perfect"))
        est = rate_loss_montecarlo(perfect, trials=200, master_seed=master_seed)
        assert np.all(est.delta_r == 0.0)
        assert np.all(est.interference_mean <= 1e-18)

    def test_orthogonal_mode_contained_by_bound_with_bootstrap(self):
        # a grid cell where the closed form genuinely dominates
        fixed = _support.fig3_fixed(250.0, 150.0)
        ctx = montecarlo.build_context(fixed, orthogonalize=True)
        log = montecarlo.run_trials(ctx, 2000)
        params = RateLossParams.from_large_scale(
            ctx.large_scale, 4, ctx.feedback.expected_error_matrix()
        )
        bound, _ = rate_loss_bound_general(params, 0)
        diffs = (log.ideal - log.quantized)[log.ok, 0]
        boot_rng = substream(144, 0, 0)
        wins = 0
        resamples = 300
        for _ in range(resamples):
            idx = boot_rng.integers(0, len(diffs), size=len(diffs))
            if diffs[idx].mean() <= bound:
                wins += 1
        assert wins / resamples >= 0.99

    def test_rate_loss_decreases_toward_center_when_paired_user_central(self):
        losses = []
        for d1 in (250.0, 50.0):
            fixed = _support.fig3_fixed(50.0, d1, trials=1500)
            res = montecarlo.run(fixed)
            losses.append((res.delta_r[0], res.delta_r_se[0]))
        (edge, edge_se), (center, center_se) = losses
        assert center + 2 * center_se < edge - 2 * edge_se


class TestAppendixChecks:
    def test_inverse_norm_estimator_matches_gamma_closed_form(self):
        # equal energies: ||ghat||^2 = a * Gamma(N*nt, 1), E{1/X} = 1/(a*(N*nt-1))
        a = 2.5
        alpha_sq = np.full((2, 2), a)
        ls = channel.LargeScaleMap(snr_gamma_sq=alpha_sq)
        chk = check_inverse_norm(ls, 4, 0, 100_000, 151)
        exact = 1.0 / (a * 7.0)
        assert bounds.inverse_norm_moment(alpha_sq[0], 4) == pytest.approx(exact, rel=1e-12)
        assert chk.lhs == pytest.approx(exact, abs=3 * chk.se)
        # the stated direction is reversed: lhs sits strictly above 1/E{X}
        assert chk.rhs == pytest.approx(1.0 / (a * 8.0), rel=1e-12)
        assert chk.lhs > chk.rhs
        assert chk.passed is False

    def test_decomposition_is_exact(self):
        cb = random_codebook(4, 3, substream(152, 0, 0))
        chk = check_decomposition(cb, 2000, 152)
        assert chk.passed and chk.lhs < 1e-12

    def test_nullspace_moment_hits_one_third(self):
        cb = random_codebook(4, 3, substream(153, 0, 0))
        chk = check_nullspace_moment(cb, 100_000, 153)
        assert chk.rhs == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert abs(chk.lhs - chk.rhs) <= 3 * chk.se
        assert chk.passed

    def test_interference_moment_bounded(self):
        ls = _support.two_cell_map(150.0, 250.0)
        cb = random_codebook(4, 3, substream(154, 0, 0))
        chk = check_interference_moment(ls, 4, [[cb, cb], [cb, cb]], 100_000, 154)
        assert chk.lhs <= chk.rhs + 3 * chk.se
        assert chk.passed

    def test_verify_appendix_report_shape(self):
        ls = _support.two_cell_map(125.0, 250.0)
        cb = random_codebook(4, 3, substream(155, 0, 0))
        checks = verify_appendix(4, ls, [[cb, cb], [cb, cb]], 20_000, 155)
        steps = [c.step for c in checks]
        assert steps == [
            "inverse_norm:user0",
            "inverse_norm:user1",
            "decomposition",
            "nullspace_moment",
            "interference_moment",
        ]
        by_step = {c.step: c for c in checks}
        assert by_step["decomposition"].passed
        assert by_step["nullspace_moment"].passed

    # the verdict rule each step documents, as a function of (lhs, rhs, se)
    RULES = {
        "inverse_norm": lambda lhs, rhs, se: lhs < rhs and (rhs - lhs) > 3.0 * se,
        "decomposition": lambda lhs, rhs, se: lhs < rhs,
        "nullspace_moment": lambda lhs, rhs, se: abs(lhs - rhs) <= 3.0 * se,
        "interference_moment": lambda lhs, rhs, se: lhs <= rhs + 3.0 * se,
    }

    def test_each_verdict_follows_its_rule(self):
        cases = []
        for name, label, at in (("fig3", None, 50.0), ("fig4", "per_cell_4_2", 100.0)):
            arm = next(a for a in scenario.preset(name).arms if label in (None, a.label))
            ctx = montecarlo.build_context(scenario.at_sweep_point(arm.scenario, at))
            for draws, seed in itertools.product((5, 20, 100, 400), range(20)):
                for c in verify_appendix(arm.scenario.n_tx, ctx.large_scale,
                                         ctx.feedback.codebooks, draws, seed):
                    assert c.passed == self.RULES[c.step.split(":")[0]](c.lhs, c.rhs, c.se), c
                    cases.append((c.lhs, c.rhs, c.se))
        # few draws make noisy verdicts: for every pair of Monte Carlo rules,
        # some check gets a verdict the other rule would flip
        for a, b in itertools.combinations(("inverse_norm", "nullspace_moment",
                                            "interference_moment"), 2):
            assert any(self.RULES[a](*c) != self.RULES[b](*c) for c in cases), (a, b)


def _appendix(name, label, at, draws, seed):
    """``verify_appendix`` of one preset arm at one sweep point."""
    arm = next(a for a in scenario.preset(name).arms if label in (None, a.label))
    ctx = montecarlo.build_context(scenario.at_sweep_point(arm.scenario, at))
    return verify_appendix(arm.scenario.n_tx, ctx.large_scale, ctx.feedback.codebooks,
                           draws, seed)


def _printed(checks):
    """The check lines ``bound --verify-appendix`` prints."""
    return [f"{c.step}: lhs={c.lhs:.6g} rhs={c.rhs:.6g} se={c.se:.3g} {c.passed}"
            for c in checks]


class TestStreamedChecks:
    """The 100k-draw checks draw their substreams in chunks of
    ``bounds.STREAM_ROWS`` and evaluate them in row blocks of
    ``quantization.BLOCK_ROWS``."""

    # (step, lhs, rhs, se, passed) of 100k draws at seed 3, as float.hex:
    # recorded from the whole-array evaluation the blocks replaced, and for
    # nullspace_moment and interference_moment from the stream in chunks
    WHOLE = {
        ("fig3", None, 50.0): [
            ("inverse_norm:user0", "0x1.482d230567a9ap-14", "0x1.ed9e14828935ap-15",
             "0x1.7c0d701f7b3b0p-23", False),
            ("inverse_norm:user1", "0x1.d3f61a000342fp-7", "0x1.999999999999ap-7",
             "0x1.35de12d05d420p-16", False),
            ("decomposition", "0x1.2f0f34d89d064p-49", "0x1.19799812dea11p-40", "0x0.0p+0", True),
            ("nullspace_moment", "0x1.557d9752dd70fp-2", "0x1.5555555555555p-2",
             "0x1.877bf85f94a35p-11", True),
            ("interference_moment", "0x1.58ad167fd29fbp+16", "0x1.5ce8c6deb361ap+16",
             "0x1.58611c0c3ad5cp+8", True),
        ],
        ("fig4", "per_cell_4_2", 100.0): [
            ("inverse_norm:user0", "0x1.130f6a3093fbfp-10", "0x1.9fcf91d76a275p-11",
             "0x1.366c8c7327c87p-19", False),
            ("inverse_norm:user1", "0x1.d3f61a000342fp-7", "0x1.999999999999ap-7",
             "0x1.35de12d05d420p-16", False),
            ("decomposition", "0x1.0d6dd4a4462d9p-49", "0x1.19799812dea11p-40", "0x0.0p+0", True),
            ("nullspace_moment", "0x1.5649a7c217eb3p-2", "0x1.5555555555555p-2",
             "0x1.880c1a37c049ep-11", True),
            ("interference_moment", "0x1.478c5d818bf61p+12", "0x1.46b3806e14ecbp+12",
             "0x1.4883e632d32efp+4", True),
        ],
    }

    @pytest.mark.parametrize("arm", list(WHOLE))
    def test_checks_match_the_whole_array_values(self, arm):
        checks = _appendix(*arm, 100_000, 3)
        assert [c.step for c in checks] == [w[0] for w in self.WHOLE[arm]]
        for c, (_, lhs, rhs, se, passed) in zip(checks, self.WHOLE[arm]):
            for new, old in ((c.lhs, lhs), (c.rhs, rhs), (c.se, se)):
                assert math.isclose(new, float.fromhex(old), rel_tol=1e-13), (c, old)
            assert c.passed is passed

    # (lhs, rhs, se) as float.hex at seed 3, recorded when each check drew
    # its whole run at once: a run of at most STREAM_ROWS draws is one chunk
    ONE_CHUNK = {
        ("fig3", None, 50.0, 2000): {
            "nullspace_moment": ("0x1.54c0b82f5a7f8p-2", "0x1.5555555555555p-2",
                                 "0x1.5b361675499c2p-8"),
            "interference_moment": ("0x1.4134a45e3dcc5p+16", "0x1.591e418fbafaep+16",
                                    "0x1.034dccbe90a92p+11"),
        },
        ("fig3", None, 50.0, 8192): {
            "nullspace_moment": ("0x1.57dca7a84fbbfp-2", "0x1.5555555555555p-2",
                                 "0x1.598f820b5033ap-9"),
            "interference_moment": ("0x1.57b875481ea06p+16", "0x1.5bf3bbb55e72ep+16",
                                    "0x1.2cc16d51326fcp+10"),
        },
        ("fig4", "per_cell_4_2", 100.0, 2000): {
            "nullspace_moment": ("0x1.5c9c332db5256p-2", "0x1.5555555555555p-2",
                                 "0x1.5a3c1d0868445p-8"),
            "interference_moment": ("0x1.474a1fae086c3p+12", "0x1.4536b157a53b1p+12",
                                    "0x1.16784b41f2c6fp+7"),
        },
        ("fig4", "per_cell_4_2", 100.0, 8192): {
            "nullspace_moment": ("0x1.580d10d131a02p-2", "0x1.5555555555555p-2",
                                 "0x1.5814a1d9082f2p-9"),
            "interference_moment": ("0x1.45529edc7ddf2p+12", "0x1.4618931b307eap+12",
                                    "0x1.279e7d4448242p+6"),
        },
    }

    @pytest.mark.parametrize("run", list(ONE_CHUNK))
    def test_one_chunk_keeps_the_whole_draw_stream(self, run):
        assert run[-1] <= bounds.STREAM_ROWS
        checks = {c.step: c for c in _appendix(*run, 3)}
        for step, values in self.ONE_CHUNK[run].items():
            c = checks[step]
            assert (c.lhs.hex(), c.rhs.hex(), c.se.hex()) == values, step

    def test_stream_chunks_end_at_multiples_of_stream_rows(self, monkeypatch):
        monkeypatch.setattr(bounds, "STREAM_ROWS", 4)
        sizes = {n: [(c.start, c.stop) for c in bounds._stream_chunks(n)] for n in (1, 4, 5, 9)}
        assert sizes == {1: [(0, 1)], 4: [(0, 4)], 5: [(0, 4), (4, 5)],
                         9: [(0, 4), (4, 8), (8, 9)]}

    @pytest.mark.parametrize("block", [7, 64, 8192])
    def test_block_size_changes_no_printed_line_nor_estimate(self, block, monkeypatch):
        whole = 1 << 40
        cb = quantization.build_codebook(8, 6, "random", 7104, (0.7, 0.3))
        directions = quantization.isotropic_directions(2 * block + 7, 8, substream(5, 0))
        for draws in (2, block - 1, block, block + 1, 2 * block + 7):
            results = []
            for size in (block, whole):
                monkeypatch.setattr(quantization, "BLOCK_ROWS", size)
                results.append((_printed(_appendix("fig3", None, 50.0, draws, 3)),
                                quantization.expected_error(cb, directions[:draws])))
            assert results[0] == results[1], draws
        estimates = []
        for size in (block, whole):
            monkeypatch.setattr(quantization, "BLOCK_ROWS", size)
            cb.training_meta.pop("expected_error", None)
            estimates.append(quantization.error_estimate(cb))
        assert estimates[0] == estimates[1]

    def test_row_blocks_keep_each_rows_whole_array_bits(self, monkeypatch):
        monkeypatch.setattr(quantization, "BLOCK_ROWS", 4)
        sizes = {n: [b.stop - b.start for b in quantization.row_blocks(n)]
                 for n in (1, 3, 4, 5, 8, 9, 10)}
        assert sizes == {1: [1], 3: [3], 4: [4], 5: [5], 8: [4, 4], 9: [4, 5], 10: [4, 4, 2]}
        # a one-row search takes numpy's vector path, whose last bits differ
        cb = random_codebook(4, 3, substream(156, 0, 0))
        x = quantization.isotropic_directions(41, 4, substream(156, 0, 1))
        whole = quantization.quantize_many(x, cb)[1]
        for n in range(1, 42, 4):  # each leaves a one-row remainder
            blocked = [quantization.quantize_many(x[b], cb)[1]
                       for b in quantization.row_blocks(n)]
            np.testing.assert_array_equal(np.concatenate(blocked), whole[:n])

    def test_traced_memory_stays_a_few_blocks(self):
        cb = quantization.build_codebook(8, 6, "random", 7104, (0.7, 0.3))
        per_cell = quantization.build_codebook(4, 3, "lloyd", 7001)
        directions = quantization.isotropic_directions(100_000, 8, substream(5, 1))

        def estimate(codebook):
            codebook.training_meta.pop("expected_error", None)
            return quantization.error_estimate(codebook)

        runs = {
            "verify_appendix": lambda: _appendix("fig3", None, 50.0, 100_000, 3),
            "verify_appendix 400k": lambda: _appendix("fig3", None, 50.0, 400_000, 3),
            "expected_error": lambda: quantization.expected_error(cb, directions),
            "error_estimate per-cell": lambda: estimate(per_cell),
            "error_estimate global": lambda: estimate(cb),
        }
        _appendix("fig3", None, 50.0, 2, 3)  # codebooks built and cached outside the trace
        peaks = {}
        for name, run in runs.items():
            tracemalloc.start()
            try:
                run()
                peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        # measured peaks (MiB) plus a 25% margin, below what whole draws take:
        # 30.6 MiB for the appendix, 13.7 and 25.9 MiB for the two estimates
        measured = {"verify_appendix": 9.0, "expected_error": 12.75,
                    "error_estimate per-cell": 2.76, "error_estimate global": 13.75}
        assert all(peaks[name] <= 1.25 * peak for name, peak in measured.items()), peaks
        # past the chunks, a draw keeps only its scalars: the interference
        # check's complex sample (16 B), its sin^2 per BS (2 x 8 B) and the
        # squared magnitudes and deviations its mean and SE take (2 x 8 B)
        retained = 300_000 * 48 / 2**20
        assert peaks["verify_appendix 400k"] - peaks["verify_appendix"] <= retained, peaks
