import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from compsim import bounds, channel, montecarlo, precoding, quantization, scenario
from compsim import rng as rngmod
from compsim.errors import ConfigurationError, EstimationError
from compsim.quantization import FeedbackConfig
from compsim.rng import substream
from compsim.scheduling import PairingPolicy

import _support


def small_fixed(trials=200, **overrides):
    return _support.fig3_fixed(250.0, 150.0, trials=trials, **overrides)


def trial_log(scn, workers=1):
    return montecarlo.run_trials(montecarlo.build_context(scn), scn.trials, workers)


distances = st.floats(channel.DEFAULT_MIN_DISTANCE_M, channel.DEFAULT_CELL_RADIUS_M)


class TestRun:
    def test_quantized_arm_shares_channel_draws_with_perfect_arm(self):
        # common-random-numbers contract: the ideal arm of a quantized run is
        # bit-identical to a perfect-CSI run on the same seed
        scn = small_fixed()
        quantized = trial_log(scn)
        perfect = trial_log(replace(scn, feedback=FeedbackConfig(mode="perfect")))
        assert np.array_equal(quantized.ideal[quantized.ok], perfect.quantized[perfect.ok])

    @settings(max_examples=10, deadline=None)
    @given(master_seed=st.integers(0, 2**32 - 1), d1=distances, d2=distances)
    @example(master_seed=9301, d1=150.0, d2=250.0)
    def test_perfect_mode_has_identical_arms_trial_by_trial(self, master_seed, d1, d2):
        perfect = FeedbackConfig(mode="perfect")
        scn = _support.fig3_fixed(d2, d1, trials=200, master_seed=master_seed, feedback=perfect)
        log = trial_log(scn)
        assert log.ok.any()
        assert np.array_equal(log.ideal[log.ok], log.quantized[log.ok])
        assert np.all(montecarlo.aggregate(scn, log).delta_r == 0.0)
        for arm in scenario.preset("fig5").arms:
            cdf = montecarlo.run_cdf(replace(arm.scenario, feedback=perfect, drops=3,
                                             trials_per_drop=2, master_seed=master_seed))
            assert np.array_equal(cdf.ideal, cdf.quantized, equal_nan=True)

    def test_same_seed_same_result_different_worker_count(self):
        scn = small_fixed(trials=120)
        one = trial_log(scn, workers=1)
        quantization.clear_codebook_cache()
        eight = trial_log(scn, workers=8)
        for name in ("ideal", "quantized", "interference", "ok"):
            assert np.array_equal(getattr(one, name), getattr(eight, name), equal_nan=True)

    @pytest.mark.parametrize("orthogonalize", [False, True])
    def test_a_shorter_run_is_the_start_of_a_longer_one(self, orthogonalize):
        # 300 trials end inside the second stream block, which a 600-trial
        # run draws whole as well: trial t is the same trial in both runs
        ctx = montecarlo.build_context(small_fixed(), orthogonalize=orthogonalize)
        short = montecarlo.run_trials(ctx, 300)
        long = montecarlo.run_trials(ctx, 600)
        for name in ("ideal", "quantized", "interference", "ok"):
            assert np.array_equal(getattr(short, name), getattr(long, name)[:300],
                                  equal_nan=True), name

    def test_different_seed_changes_result(self):
        scn = small_fixed(trials=60)
        a = trial_log(scn)
        b = trial_log(replace(scn, master_seed=scn.master_seed + 1))
        assert not np.array_equal(a.quantized, b.quantized)

    def test_mean_equals_mean_of_retained_samples(self):
        scn = small_fixed()
        log = trial_log(scn)
        res = montecarlo.aggregate(scn, log)
        quant, ideal = log.quantized[log.ok], log.ideal[log.ok]
        assert np.array_equal(res.throughput_mean, quant.mean(axis=0))
        assert np.array_equal(res.delta_r, (ideal - quant).mean(axis=0))
        interference = log.interference[log.ok].mean(axis=0)
        assert np.array_equal(res.interference_mean, interference)
        assert np.array_equal(res.interference_log_bound,
                              np.log2(1.0 + interference / scn.noise_power))

    def test_rate_loss_nonnegative_within_two_se(self):
        scn = small_fixed(trials=800)
        log = trial_log(scn)
        res = montecarlo.aggregate(scn, log)
        assert np.all(res.delta_r >= -2.0 * res.delta_r_se)
        assert np.all(log.quantized[log.ok] >= 0.0)

    def test_all_trials_failing_raises(self):
        # a single-codeword global codebook maps both users of the single-cell
        # baseline onto one direction: rank deficient in every trial
        geom = channel.single_cell()
        scn = scenario.Scenario(
            geometry=geom,
            n_tx=8,
            n_users=2,
            placement=scenario.Placement(
                mode="fixed", positions=[[50.0, 0.0], [0.0, 120.0]]
            ),
            feedback=FeedbackConfig(mode="global", global_bits=0,
                                    codebook_kind="random", training_seed=42),
            pairing=PairingPolicy(mode="always_pair"),
            trials=50,
            master_seed=76,
        )
        with pytest.raises(EstimationError):
            montecarlo.run(scn)

    def test_partial_failures_accounting(self):
        # 1-bit global codebook on the single-cell baseline: codeword
        # collisions reject a large fraction of trials but not all
        geom = channel.single_cell()
        scn = scenario.Scenario(
            geometry=geom,
            n_tx=8,
            n_users=2,
            placement=scenario.Placement(
                mode="fixed", positions=[[50.0, 0.0], [0.0, 120.0]]
            ),
            feedback=FeedbackConfig(mode="global", global_bits=1,
                                    codebook_kind="random", training_seed=43),
            pairing=PairingPolicy(mode="always_pair"),
            trials=300,
            master_seed=77,
        )
        log = trial_log(scn)
        res = montecarlo.aggregate(scn, log)
        assert 0 < res.failures < res.trials
        assert res.trials - res.failures == np.count_nonzero(log.ok)
        assert np.all(np.isnan(log.quantized[~log.ok]))

    def test_failures_count_the_trials_zero_forcing_rejects(self):
        # the partial-failure scenario above, its rejections recounted from
        # zf_precoder's reasons on the same draws
        scn = scenario.Scenario(
            geometry=channel.single_cell(),
            n_tx=8,
            n_users=2,
            placement=scenario.Placement(
                mode="fixed", positions=[[50.0, 0.0], [0.0, 120.0]]
            ),
            feedback=FeedbackConfig(mode="global", global_bits=1,
                                    codebook_kind="random", training_seed=43),
            pairing=PairingPolicy(mode="always_pair"),
            trials=300,
            master_seed=77,
        )
        ctx = montecarlo.build_context(scn)
        # the run's draws: stream blocks 0 and 1, each drawn whole, cut at 300
        ls = ctx.large_scale
        small_scale = np.concatenate([
            channel.sample_small_scale(ls.n_users, ls.n_bs, scn.n_tx,
                                       substream(scn.master_seed, rngmod.TRIAL, i),
                                       trials=rngmod.STREAM_TRIALS)
            for i in range(2)])[:scn.trials]
        alpha = np.broadcast_to(ls.alpha, small_scale.shape[:3])
        g = channel.realize_channels(alpha, small_scale)
        _, ideal_reason = precoding.zf_precoder(g)
        _, quant_reason = precoding.zf_precoder(
            ctx.feedback.apply(small_scale, alpha, g).reconstructed)
        rejected = (ideal_reason != "ok") | (quant_reason != "ok")
        assert set(quant_reason.tolist()) >= {"ok", "rank"}
        assert montecarlo.run(scn).failures == np.count_nonzero(rejected) > 0

    def test_sus_pairing_rejects_correlated_quantized_channels(self):
        # an (effectively) zero threshold rejects every continuous draw
        scn = replace(
            small_fixed(trials=150),
            pairing=PairingPolicy(mode="sus_threshold", threshold=1e-9),
        )
        with pytest.raises(EstimationError):
            montecarlo.run(scn)
        relaxed = replace(
            small_fixed(trials=150),
            pairing=PairingPolicy(mode="sus_threshold", threshold=1.0),
        )
        res = montecarlo.run(relaxed)
        assert res.failures == 0
        # a moderate threshold rejects some trials but not all
        partial = replace(
            small_fixed(trials=150),
            pairing=PairingPolicy(mode="sus_threshold", threshold=0.3),
        )
        res = montecarlo.run(partial)
        assert 0 < res.failures < res.trials

    def test_sweep_placement_rejected_by_run(self):
        exp = scenario.preset("fig3")
        with pytest.raises(ConfigurationError):
            montecarlo.run(exp.arms[0].scenario)

    def test_fingerprint_tracks_configuration(self):
        # a run's provenance is its scenario's fingerprint: equal scenarios
        # share it, and another seed or trial count changes it
        a = small_fixed()
        assert scenario.fingerprint(a) == scenario.fingerprint(small_fixed())
        for other in (replace(a, master_seed=a.master_seed + 1), small_fixed(trials=a.trials + 1)):
            assert scenario.fingerprint(other) != scenario.fingerprint(a)


def zero_bit(trials):
    """``small_fixed`` with 0-bit per-cell codebooks: both users feed back the
    one codeword on each BS, so every orthogonalized trial takes its spares."""
    feedback = FeedbackConfig(mode="per_cell", codebook_kind="random", training_seed=62,
                              bits=[[0, 0], [0, 0]])
    return small_fixed(trials=trials, feedback=feedback)


class TestOrthogonalizedRuns:
    @pytest.mark.parametrize("block", [7, montecarlo.BLOCK_TRIALS])
    def test_trial_257_redraws_from_row_1_of_stream_block_1(self, block, monkeypatch):
        scn = zero_bit(300)
        ctx = montecarlo.build_context(scn, orthogonalize=True)
        outputs = []
        orthogonalize_report = bounds.orthogonalize_report

        def recorder(report, n_tx, spares):
            outputs.append(orthogonalize_report(report, n_tx, spares))
            return outputs[-1]

        monkeypatch.setattr(bounds, "orthogonalize_report", recorder)
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", block)
        montecarlo.run_trials(ctx, scn.trials)
        trial = np.concatenate(outputs)[257]  # row 1 of stream block 1
        spares = rngmod.complex_normal(substream(scn.master_seed, rngmod.REDRAW, 1),
                                       (rngmod.STREAM_TRIALS, 2, 1, 4))
        for b in range(2):
            c = ctx.feedback.codebooks[0][b].codewords[0]
            v = spares[1, b, 0] - np.vdot(c, spares[1, b, 0]) * c
            got = trial[1, 4 * b:4 * b + 4]
            assert np.allclose(got / np.linalg.norm(got), v / np.linalg.norm(v), atol=1e-12)

    def test_a_run_counts_degenerate_spares_as_failures(self, monkeypatch):
        scn = zero_bit(20)
        ctx = montecarlo.build_context(scn, orthogonalize=True)
        codewords = np.array([ctx.feedback.codebooks[0][b].codewords[0] for b in range(2)])
        trial_runs = montecarlo._trial_runs

        def collinear(ctx, start, stop):
            """Every other trial's spares along user 0's codewords."""
            for ctx, alpha, draws, spares in trial_runs(ctx, start, stop):
                spares = spares.copy()
                spares[::2, :, 0] = 2.0 * codewords
                yield ctx, alpha, draws, spares

        monkeypatch.setattr(montecarlo, "_trial_runs", collinear)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            log = montecarlo.run_trials(ctx, scn.trials)
        assert not log.ok[::2].any() and log.ok[1::2].all()
        assert montecarlo.aggregate(scn, log).failures == 10

    def test_global_feedback_is_rejected_before_any_draw(self):
        scn = small_fixed(feedback=FeedbackConfig(mode="global", global_bits=2,
                                                  codebook_kind="random", training_seed=61))
        with pytest.raises(ConfigurationError, match="requires per-cell feedback"):
            montecarlo.build_context(scn, orthogonalize=True)

    def test_per_cell_feedback_needs_room_for_the_other_users(self):
        # three cooperating cells of one user each and 2 antennas: a user's
        # direction on a BS cannot be orthogonal to the other two users'
        geom = channel.Geometry(n_cells=3, bs_positions=[[0.0, 0.0], [500.0, 0.0],
                                                         [1000.0, 0.0]])
        scn = scenario.Scenario(
            geometry=geom, n_tx=2, n_users=3,
            placement=scenario.Placement(mode="fixed",
                                         positions=[[100.0, 0.0], [600.0, 0.0], [900.0, 0.0]]),
            feedback=FeedbackConfig(mode="per_cell", codebook_kind="random", training_seed=62,
                                    bits=[[1, 1, 1]] * 3),
            pairing=PairingPolicy(), trials=10)
        assert montecarlo.build_context(scn).orthogonalize is False
        with pytest.raises(ConfigurationError, match=r"needs n_tx > n_users - 1"):
            montecarlo.build_context(scn, orthogonalize=True)

    def test_perfect_csi_has_nothing_to_orthogonalize(self):
        scn = small_fixed(trials=50, feedback=FeedbackConfig(mode="perfect"))
        assert montecarlo.build_context(scn, orthogonalize=True).orthogonalize is False
        plain, orthogonal = trial_log(scn), montecarlo.run_trials(
            montecarlo.build_context(scn, orthogonalize=True), scn.trials)
        for name in ("ideal", "quantized", "interference", "ok"):
            assert np.array_equal(getattr(plain, name), getattr(orthogonal, name),
                                  equal_nan=True)


class TestRunCdf:
    def _cdf_scenario(self, **overrides):
        exp = scenario.preset("fig5")
        scn = exp.arms[0].scenario  # cooperative, per-cell 3+3
        return replace(scn, drops=40, trials_per_drop=4, **overrides)

    def test_shapes_and_determinism_across_workers(self):
        scn = self._cdf_scenario()
        c1 = montecarlo.run_cdf(scn, workers=1)
        quantization.clear_codebook_cache()
        c8 = montecarlo.run_cdf(scn, workers=8)
        assert c1.quantized.shape == (40, 2)
        assert np.array_equal(c1.quantized, c8.quantized, equal_nan=True)
        assert np.array_equal(c1.ideal, c8.ideal, equal_nan=True)
        assert c1.failed_draws == c8.failed_draws

    def test_drop_positions_cover_the_disc(self):
        scn = self._cdf_scenario()
        pts = np.array(
            [montecarlo._draw_positions(scn, substream(scn.master_seed, 1, d))[0]
             for d in range(300)]
        )
        radii = np.linalg.norm(pts - scn.geometry.bs_positions[0], axis=1)
        assert radii.min() >= scn.geometry.d_min_m
        assert radii.max() <= scn.geometry.cell_radius_m
        assert radii.max() > 0.9 * scn.geometry.cell_radius_m  # actually spreads out

    def test_single_cell_users_share_the_cell(self):
        exp = scenario.preset("fig5")
        scn = replace(exp.arms[1].scenario, drops=20, trials_per_drop=2)
        pts = montecarlo._draw_positions(scn, substream(scn.master_seed, 1, 0))
        assert pts.shape == (2, 2)
        for k in range(2):
            assert np.linalg.norm(pts[k]) <= scn.geometry.cell_radius_m

    @settings(max_examples=20, deadline=None)
    @given(arm=st.sampled_from(["comp_per_cell_3_3", "single_cell_global_6bit"]),
           n_users=st.integers(1, 3), master_seed=st.integers(0, 2**64),
           drop=st.integers(0, 2**32))
    def test_positions_read_a_radius_and_an_angle_uniform_per_user(self, arm, n_users,
                                                                   master_seed, drop):
        # one draw of 2 * n_users doubles: bit for bit the radius uniform()
        # and angle uniform(0, 2 pi) of each user in turn, leaving the
        # drop's generator where those calls leave it
        scn = replace(drop_scenario(arm), n_users=n_users, feedback=FeedbackConfig())
        geom = scn.geometry
        rng = substream(master_seed, rngmod.DROP, drop)
        reference = np.zeros((n_users, 2))
        for k in range(n_users):
            u = rng.uniform()
            radius = np.sqrt(geom.d_min_m**2 + (geom.cell_radius_m**2 - geom.d_min_m**2) * u)
            angle = rng.uniform(0.0, 2.0 * np.pi)
            reference[k] = (geom.bs_positions[k % geom.n_cells]
                            + radius * np.array([np.cos(angle), np.sin(angle)]))
        drawn = substream(master_seed, rngmod.DROP, drop)
        positions = montecarlo._draw_positions(scn, drawn)
        assert positions.tobytes() == reference.tobytes()
        assert drawn.random(3).tobytes() == rng.random(3).tobytes()

    def test_requires_random_placement_and_drops(self):
        fixed = small_fixed()
        with pytest.raises(ConfigurationError):
            montecarlo.run_cdf(fixed)

    def test_ideal_dominates_quantized_per_drop_on_average(self):
        c = montecarlo.run_cdf(self._cdf_scenario())
        gaps = c.ideal - c.quantized
        assert np.nanmean(gaps) > 0.0

    def test_codebooks_train_once_before_the_pool_forks(self, tmp_path, monkeypatch):
        # every drop of the single-cell global arm needs the same 6-bit codebook;
        # forked workers inherit the spy and append their pids too
        pids = tmp_path / "pids"
        train_lloyd = quantization.train_lloyd

        def spy(*args, **kwargs):
            with open(pids, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()}\n")
            return train_lloyd(*args, **kwargs)

        monkeypatch.setattr(quantization, "train_lloyd", spy)
        quantization.clear_codebook_cache()
        scn = replace(scenario.preset("fig5").arms[1].scenario, drops=4, trials_per_drop=2)
        montecarlo.run_cdf(scn, workers=2)
        assert pids.read_text(encoding="ascii").split() == [str(os.getpid())]


@pytest.fixture
def handed(monkeypatch):
    """The size of every process pool and the ranges handed to it; the
    stand-in pool runs them in this process."""
    handed = []

    class RecordingPool:
        def __init__(self, max_workers):
            handed.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            handed.append([task[1:] for task in tasks])
            return map(fn, tasks)

    monkeypatch.setattr(montecarlo.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return handed


def test_each_worker_gets_one_contiguous_range(handed):
    ctx = montecarlo.build_context(small_fixed())
    one = montecarlo.run_trials(ctx, 300)
    montecarlo.run_trials(ctx, 1, workers=2)  # one range: no pool
    assert handed == []
    two = montecarlo.run_trials(ctx, 300, workers=2)
    assert handed == [2, [(0, 150), (150, 300)]]
    for name in ("ideal", "quantized", "interference", "ok"):
        assert np.array_equal(getattr(one, name), getattr(two, name), equal_nan=True)
    handed.clear()
    montecarlo.run_trials(ctx, 3, workers=8)  # fewer trials than workers
    assert handed == [3, [(0, 1), (1, 2), (2, 3)]]
    handed.clear()
    scn = replace(scenario.preset("fig5").arms[0].scenario, drops=5, trials_per_drop=2)
    montecarlo.run_cdf(scn, workers=2)
    assert handed == [2, [(0, 3), (3, 5)]]


class TestDropRanges:
    @settings(max_examples=15, deadline=None)
    @given(arm=st.sampled_from(["comp_per_cell_3_3", "single_cell_global_6bit"]),
           master_seed=st.integers(0, 2**64), start=st.integers(0, 10**6),
           drops=st.integers(1, 12), trials_per_drop=st.integers(1, 5),
           powers=st.sampled_from([(1.0, 1.0), (2.0, 3.0), (10.0, 0.1)]))
    @example(arm="comp_per_cell_3_3", master_seed=9501, start=0, drops=12, trials_per_drop=20,
             powers=(1.0, 1.0))
    def test_a_ranges_amplitudes_and_draws_are_each_drops_own(self, arm, master_seed, start,
                                                               drops, trials_per_drop, powers):
        # the one pass over a range gives every drop the bits of its own map,
        # and each drop's substream still draws its positions, then its trials
        tx_power, noise_power = powers
        scn = replace(drop_scenario(arm), master_seed=master_seed, drops=start + drops,
                      trials_per_drop=trials_per_drop, tx_power=tx_power,
                      noise_power=noise_power)
        runs = list(montecarlo._drop_runs(scn, start, start + drops))
        assert len(runs) == drops
        for d, (ctx, alpha, small_scale) in zip(range(start, start + drops), runs):
            rng = substream(master_seed, rngmod.DROP, d)
            large_scale = channel.build_large_scale(
                montecarlo._draw_positions(scn, rng), scn.geometry, tx_power=tx_power,
                noise_power=noise_power, require_one_per_cell=scn.n_users == scn.geometry.n_cells)
            assert alpha.tobytes() == large_scale.alpha.tobytes()
            draws = channel.sample_small_scale(scn.n_users, scn.geometry.n_cells, scn.n_tx, rng,
                                               trials=trials_per_drop)
            assert small_scale.tobytes() == draws.tobytes()
            assert ctx.large_scale.tx_power == tx_power
            assert ctx.large_scale.noise_power == noise_power

    @pytest.mark.parametrize("arm, resolves", [("comp_per_cell_3_3", 1 + 2),
                                               ("single_cell_global_6bit", 1 + 2),
                                               ("comp_global_random", 1 + 5)])
    def test_codebooks_resolve_once_per_range_unless_each_drop_needs_its_own(
            self, arm, resolves, handed, monkeypatch):
        # drop 0's in the parent before the pool, then once in each of the two
        # ranges, or once per drop where the split sets the codebooks
        calls = []
        resolve_codebooks = quantization.resolve_codebooks

        def spy(*args):
            calls.append(args)
            return resolve_codebooks(*args)

        monkeypatch.setattr(quantization, "resolve_codebooks", spy)
        montecarlo.run_cdf(replace(drop_scenario(arm), drops=5, trials_per_drop=3), workers=2)
        assert handed == [2, [(0, 3), (3, 5)]]
        assert len(calls) == resolves

    def test_a_single_cell_drop_whose_user_has_no_energy_is_rejected(self):
        # the range resolves drop 0's codebooks, yet a later drop whose SNR
        # underflows to 0 at its distance is still rejected, as its own
        # map's resolution rejects it (beyond about 170 m at these values)
        single = drop_scenario("single_cell_global_6bit")
        scn = replace(single, drops=4, trials_per_drop=1, master_seed=2,
                      feedback=FeedbackConfig(mode="global", global_bits=1,
                                              codebook_kind="random", training_seed=65),
                      geometry=replace(single.geometry, edge_snr_db=-3300.0,
                                       pathloss_exponent=40.0))
        energies = [montecarlo.large_scale_map(scn, montecarlo._draw_positions(
            scn, substream(scn.master_seed, rngmod.DROP, d))).alpha_sq for d in range(4)]
        assert [e.all() for e in energies][:2] == [True, False]
        with pytest.raises(ConfigurationError, match=r"^user \d has no link energy$"):
            montecarlo.run_cdf(scn)

    @pytest.mark.parametrize("n_users", [1, 2, 3])
    def test_range_means_equal_each_drops_own_mean(self, n_users):
        # global random codebooks of n_users bits on the single cell: codeword
        # collisions fail some trials of a drop but not all
        scn = replace(drop_scenario("single_cell_global_6bit"), n_users=n_users, drops=60,
                      trials_per_drop=11, master_seed=78,
                      feedback=FeedbackConfig(mode="global", global_bits=n_users,
                                              codebook_kind="random", training_seed=43))
        start, stop = 7, 60
        log = montecarlo._run_range(((montecarlo._drop_runs, scn), start, stop))
        quant, ideal, failed = montecarlo._drop_means((scn, start, stop))
        ok = log.ok.reshape(stop - start, scn.trials_per_drop)
        assert failed == np.count_nonzero(~ok)
        if n_users > 1:
            assert ((~ok).any(axis=1) & ok.any(axis=1)).any()  # partly failed drops
        for drop in range(stop - start):
            rows = slice(drop * scn.trials_per_drop, (drop + 1) * scn.trials_per_drop)
            for got, values in ((quant, log.quantized), (ideal, log.ideal)):
                if ok[drop].any():
                    assert got[drop].tobytes() == values[rows][ok[drop]].mean(axis=0).tobytes()
                else:
                    assert np.isnan(got[drop]).all()


class TestWorkerInvariance:
    @settings(max_examples=5, deadline=None)
    @given(master_seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 40),
           drops=st.integers(1, 6))
    def test_pool_results_bit_identical_at_one_and_two_workers(self, master_seed, trials,
                                                               drops):
        ctx = montecarlo.build_context(small_fixed(master_seed=master_seed))
        one = montecarlo.run_trials(ctx, trials, workers=1)
        two = montecarlo.run_trials(ctx, trials, workers=2)
        for name in ("ideal", "quantized", "interference", "ok"):
            assert np.array_equal(getattr(one, name), getattr(two, name), equal_nan=True)

        scn = replace(scenario.preset("fig5").arms[0].scenario, drops=drops,
                      trials_per_drop=2, master_seed=master_seed)
        c1 = montecarlo.run_cdf(scn, workers=1)
        c2 = montecarlo.run_cdf(scn, workers=2)
        assert np.array_equal(c1.quantized, c2.quantized, equal_nan=True)
        assert np.array_equal(c1.ideal, c2.ideal, equal_nan=True)
        assert c1.failed_draws == c2.failed_draws


def contexts_of(per_cell_bits, global_bits: int, pairing: PairingPolicy,
                master_seed: int) -> list:
    """Per-cell, global and orthogonalized per-cell trial contexts of one
    scenario with random codebooks of the given bits."""
    per_cell = FeedbackConfig(mode="per_cell", codebook_kind="random", training_seed=62,
                              bits=per_cell_bits)
    global_ = FeedbackConfig(mode="global", global_bits=global_bits, codebook_kind="random",
                             training_seed=61)
    scn = small_fixed(master_seed=master_seed, pairing=pairing)
    return [montecarlo.build_context(replace(scn, feedback=feedback), orthogonalize=orth)
            for feedback, orth in ((per_cell, False), (global_, False), (per_cell, True))]


@st.composite
def block_contexts(draw):
    """``contexts_of`` with low bit counts, so that codeword collisions force
    Gram-Schmidt redraws and zero-forcing rejections, and always-pair or a
    threshold."""
    bits = st.integers(0, 3)
    return contexts_of(draw(st.lists(st.lists(bits, min_size=2, max_size=2),
                                     min_size=2, max_size=2)),
                       draw(bits),
                       draw(st.sampled_from((PairingPolicy(),
                                             PairingPolicy(mode="sus_threshold",
                                                           threshold=0.5)))),
                       draw(st.integers(0, 2**32 - 1)))


def drop_scenario(arm: str) -> scenario.Scenario:
    """A fig5 arm, or the cooperative arm with global random codebooks: one
    codebook per user and drop, as the profile moves with the drop."""
    if arm == "comp_global_random":
        comp = scenario.preset("fig5").arms[0].scenario
        return replace(comp, feedback=FeedbackConfig(mode="global", global_bits=2,
                                                     codebook_kind="random", training_seed=64))
    return next(a.scenario for a in scenario.preset("fig5").arms if a.label == arm)


class TestBlockInvariance:
    @settings(max_examples=4, deadline=None)
    @given(contexts=block_contexts(), trials=st.integers(1, 80), drops=st.integers(1, 3),
           trials_per_drop=st.integers(1, 20))
    # past the first stream block: the second worker's range starts inside it
    @example(contexts=contexts_of([[0, 2], [1, 0]], 1, PairingPolicy(), 9601), trials=300,
             drops=2, trials_per_drop=5)
    def test_results_do_not_depend_on_block_size_or_workers(self, contexts, trials, drops,
                                                            trials_per_drop):
        references = [montecarlo.run_trials(ctx, trials) for ctx in contexts]
        cdf_scn = replace(scenario.preset("fig5").arms[0].scenario, drops=drops,
                          trials_per_drop=trials_per_drop, master_seed=contexts[0].master_seed)
        cdf_reference = montecarlo.run_cdf(cdf_scn)
        for block in (1, 7, 64, montecarlo.BLOCK_TRIALS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(montecarlo, "BLOCK_TRIALS", block)
                for workers in (1, 2):
                    for ctx, reference in zip(contexts, references):
                        log = montecarlo.run_trials(ctx, trials, workers=workers)
                        for name in ("ideal", "quantized", "interference", "ok"):
                            assert np.array_equal(getattr(log, name), getattr(reference, name),
                                                  equal_nan=True), (block, workers, name)
                    cdf = montecarlo.run_cdf(cdf_scn, workers=workers)
                    for name in ("quantized", "ideal", "failed_draws"):
                        assert np.array_equal(getattr(cdf, name), getattr(cdf_reference, name),
                                              equal_nan=True), (block, workers, name)

    @pytest.mark.parametrize("arm", ["comp_per_cell_3_3", "single_cell_global_6bit",
                                     "comp_global_random"])
    @settings(max_examples=3, deadline=None)
    @given(master_seed=st.integers(0, 2**32 - 1), drops=st.integers(1, 4),
           trials_per_drop=st.integers(1, 30))
    @example(master_seed=9501, drops=4, trials_per_drop=20)
    def test_drop_results_do_not_depend_on_block_size_or_workers(self, arm, master_seed, drops,
                                                                 trials_per_drop):
        scn = replace(drop_scenario(arm), drops=drops, trials_per_drop=trials_per_drop,
                      master_seed=master_seed)
        reference = montecarlo.run_cdf(scn)
        for block in (1, 7, 64, montecarlo.BLOCK_TRIALS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(montecarlo, "BLOCK_TRIALS", block)
                for workers in (1, 2):
                    cdf = montecarlo.run_cdf(scn, workers=workers)
                    for name in ("quantized", "ideal", "failed_draws"):
                        assert np.array_equal(getattr(cdf, name), getattr(reference, name),
                                              equal_nan=True), (block, workers, name)

    @pytest.fixture
    def block_sizes(self, monkeypatch):
        """The number of trials of every block evaluated."""
        sizes = []
        evaluate_block = montecarlo._evaluate_block

        def recorder(ctx, alpha, small_scale, spares=None):
            sizes.append(len(small_scale))
            return evaluate_block(ctx, alpha, small_scale, spares)

        monkeypatch.setattr(montecarlo, "_evaluate_block", recorder)
        return sizes

    @pytest.mark.parametrize("arm", ["comp_per_cell_3_3", "single_cell_global_6bit",
                                     "comp_global_random"])
    def test_drop_blocks_fill_up_and_cut_where_codebooks_change(self, arm, block_sizes):
        montecarlo.run_cdf(replace(drop_scenario(arm), drops=30, trials_per_drop=20))
        if arm == "comp_global_random":  # every drop trains codebooks for its own profiles
            assert block_sizes == [20] * 30
        else:  # 600 trials fill whole blocks, whatever drop they come from
            full, rest = divmod(600, montecarlo.BLOCK_TRIALS)
            assert block_sizes == [montecarlo.BLOCK_TRIALS] * full + [rest] * (rest > 0)

    def test_fixed_placement_fills_whole_blocks(self, block_sizes):
        montecarlo.run_trials(montecarlo.build_context(small_fixed()), 600)
        assert block_sizes == [256, 256, 88]
