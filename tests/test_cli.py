import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import compsim
from compsim import cli, montecarlo, quantization, scenario
from compsim.errors import ConfigurationError
from compsim import rng as rngmod
from compsim.quantization import (build_codebook, codebook_text, expected_error,
                                  isotropic_directions)
from compsim.rng import substream

import _support


def run_cli(*argv):
    return cli.main(list(argv))


class TestTrainCodebook:
    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.cbk"
        b = tmp_path / "b.cbk"
        for out in (a, b):
            rc = run_cli("train-codebook", "--dimension", "4", "--bits", "3",
                         "--seed", "7103", "--out", str(out))
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dash_out_prints_the_file_bytes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "cb.cbk"
        argv = ["train-codebook", "--dimension", "4", "--bits", "3", "--seed", "7103"]
        assert run_cli(*argv, "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli(*argv, "--out", "-") == 0
        assert capsys.readouterr().out == out.read_text()
        assert not (tmp_path / "-").exists()

    def test_zero_bits_single_codeword(self, tmp_path):
        out = tmp_path / "zero.cbk"
        assert run_cli("train-codebook", "--dimension", "4", "--bits", "0",
                       "--seed", "5", "--out", str(out)) == 0
        cb = build_codebook(4, 0, "lloyd", 5)
        assert cb.size == 1 and cb.dimension == 4
        assert out.read_text() == codebook_text(cb)

    def test_cached_expected_error_matches_fresh_estimate(self, tmp_path):
        out = tmp_path / "cb.cbk"
        assert run_cli("train-codebook", "--dimension", "4", "--bits", "3",
                       "--seed", "7103", "--out", str(out)) == 0
        cb = build_codebook(4, 3, "lloyd", 7103)
        assert out.read_text() == codebook_text(cb)
        cached = quantization.error_estimate(cb)
        mean, se = expected_error(cb, _support.row_blocks_of(
            isotropic_directions(100_000, cb.dimension, substream(999, 3, 0))))
        assert abs(cached["mean"] - mean) <= 3 * np.hypot(se, cached["se"])

    def test_random_kind(self, tmp_path):
        out = tmp_path / "rvq.cbk"
        assert run_cli("train-codebook", "--dimension", "8", "--bits", "2",
                       "--kind", "random", "--seed", "3", "--out", str(out)) == 0
        cb = build_codebook(8, 2, "random", 3)
        assert cb.kind == "random" and out.read_text() == codebook_text(cb)

    def test_lloyd_distortion_increase_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        eigh = np.linalg.eigh

        def weakest_first(a):  # centroids on the weakest direction raise the distortion
            w, v = eigh(a)
            return w[..., ::-1], v[..., ::-1]

        monkeypatch.setattr(np.linalg, "eigh", weakest_first)
        out = tmp_path / "cb.cbk"
        assert run_cli("train-codebook", "--dimension", "4", "--bits", "3",
                       "--out", str(out)) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: Lloyd distortion increased between iterations"]
        assert not out.exists()

    def test_unwritable_path_is_runtime_error(self, tmp_path):
        rc = run_cli("train-codebook", "--dimension", "4", "--bits", "1",
                     "--out", str(tmp_path / "nodir" / "cb.cbk"))
        assert rc == 3


class TestLazyErrorEstimate:
    """A codebook's error estimate is drawn on first read, once, with the bits
    of an estimate drawn right after training. Only the per-cell bound reads
    one (``bound``, and ``simulate``'s ``rate_loss_bound`` rows) and
    ``train-codebook``'s text: ``simulate`` draws none for a global codebook
    and none on a random-drop arm."""

    @pytest.fixture
    def estimates(self, monkeypatch):
        """An empty codebook cache, and every ``expected_error`` call's codebook."""
        monkeypatch.setattr(quantization, "_codebook_cache", {})
        calls = []
        estimate = quantization.expected_error

        def counted(cb, directions):
            calls.append(cb)
            return estimate(cb, directions)

        monkeypatch.setattr(quantization, "expected_error", counted)
        return calls

    @staticmethod
    def _eager(cb):
        """The estimate ``build_codebook`` drew right after training."""
        meta = cb.training_meta
        if "profile" in meta:
            digest = hashlib.sha256(repr(tuple(meta["profile"])).encode()).digest()
            gen = substream(meta["seed"], rngmod.ERROR_ESTIMATE, cb.dimension, cb.bits,
                            int.from_bytes(digest[:4], "big"))
            directions = quantization.composite_directions(
                100_000, meta["profile"], cb.dimension // len(meta["profile"]), gen)
        else:
            gen = substream(meta["seed"], rngmod.ERROR_ESTIMATE, cb.dimension, cb.bits)
            directions = isotropic_directions(100_000, cb.dimension, gen)
        mean, se = expected_error(cb, _support.row_blocks_of(directions))
        return {"mean": mean, "se": se, "draws": 100_000}

    def test_simulate_draws_only_the_per_cell_bounds_estimates(self, estimates, tmp_path):
        assert run_cli("simulate", "--preset", "fig4", "--trials", "20",
                       "--out", str(tmp_path / "fig4.csv")) == 0
        for arm in scenario.preset("fig5").arms:
            cfg = tmp_path / f"{arm.label}.json"
            cfg.write_text(scenario.serialize(replace(arm.scenario, drops=10)))
            assert run_cli("simulate", "--config", str(cfg),
                           "--out", str(tmp_path / f"{arm.label}.csv")) == 0
        # fig4's global 6-bit arm and fig5's single-cell arm built global codebooks
        assert any("profile" in cb.training_meta for cb in quantization._codebook_cache.values())
        # fig4's per-cell 4, 3 and 2-bit codebooks, for the rate_loss_bound rows
        assert sorted((cb.dimension, cb.bits) for cb in estimates) == [(4, 2), (4, 3), (4, 4)]

    def test_bound_draws_each_estimate_once(self, estimates):
        argv = ("bound", "--preset", "fig4", "--arm", "per_cell_4_2", "--at", "100",
                "--verify-appendix", "--trials", "2000")
        for _ in range(2):
            assert run_cli(*argv) == 0
        assert sorted(cb.bits for cb in estimates) == [2, 4]
        for cb in estimates:
            assert quantization.error_estimate(cb) == self._eager(cb)
        assert len(estimates) == 2

    def test_train_codebook_draws_its_estimate_once(self, estimates, tmp_path):
        arm = scenario.preset("fig4").arms[0]
        cfg = tmp_path / "fig4.json"
        cfg.write_text(scenario.serialize(arm.scenario))
        out = tmp_path / "cb.cbk"
        assert run_cli("train-codebook", "--config", str(cfg), "--at", "100",
                       "--dimension", "8", "--bits", "2", "--seed", "7104",
                       "--out", str(out)) == 0
        (cb,) = estimates
        meta = json.loads(out.read_text().splitlines()[4].removeprefix("meta "))
        assert meta["expected_error"] == self._eager(cb)


class TestCodebookFileParity:
    """A ``train-codebook`` file is the text of exactly the codebook a run
    builds, meta line included."""

    def _check(self, tmp_path, train_args, slot_cb):
        cb_path = tmp_path / "cb.cbk"
        assert run_cli("train-codebook", *train_args, "--out", str(cb_path)) == 0
        assert cb_path.read_text() == codebook_text(slot_cb)

    def test_global_slot(self, tmp_path):
        arm = scenario.preset("fig4").arms[0]
        assert arm.label == "global_6bit"
        cfg = tmp_path / "fig4_global.json"
        cfg.write_text(scenario.serialize(arm.scenario))
        fixed = scenario.at_sweep_point(arm.scenario, 100.0)
        slot_cb = montecarlo.build_context(fixed).feedback.codebooks[0][0]
        self._check(tmp_path, ["--config", str(cfg), "--at", "100", "--user", "0",
                               "--dimension", "8", "--bits", "6", "--seed", "7104"],
                    slot_cb)

    def test_per_cell_slot(self, tmp_path):
        fixed = scenario.at_sweep_point(scenario.preset("fig3").arms[0].scenario, 100.0)
        slot_cb = montecarlo.build_context(fixed).feedback.codebooks[0][0]
        assert slot_cb.bits == 3
        self._check(tmp_path, ["--dimension", "4", "--bits", "3", "--seed", "7103"],
                    slot_cb)


class TestSimulate:
    def test_preset_csv_shape_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            assert run_cli("simulate", "--preset", "fig3", "--trials", "25",
                           "--out", str(out)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == cli.CSV_HEADER
        rows = [line.split(",") for line in lines[1:]]
        # 3 arms x 5 sweep points x (2 users x 7 metrics + 1 failures row)
        assert len(rows) == 3 * 5 * (2 * 7 + 1)
        arms = {r[1] for r in rows}
        assert arms == {"ms2_250m", "ms2_150m", "ms2_50m"}
        sweep_values = {r[3] for r in rows}
        assert sweep_values == {"250", "200", "150", "100", "50"}
        metrics = {r[5] for r in rows}
        assert "throughput_mean" in metrics and "rate_loss_bound" in metrics
        # the closed form draws nothing: it writes its error estimates' draws
        assert {(r[5] == "rate_loss_bound", r[7]) for r in rows} == {
            (False, "25"), (True, str(quantization.DEFAULT_ERROR_ESTIMATE_DRAWS))}

    def test_floats_are_full_precision(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli("simulate", "--preset", "fig3", "--trials", "10", "--out", str(out)) == 0
        for line in out.read_text().splitlines()[1:]:
            value = line.split(",")[6]
            assert float(value) == float(repr(float(value)))  # round-trips

    def test_custom_config_runs(self, tmp_path):
        scn = scenario.at_sweep_point(scenario.preset("fig3").arms[0].scenario, 150.0)
        scn = replace(scn, trials=15)
        cfg = tmp_path / "scn.json"
        cfg.write_text(scenario.serialize(scn))
        out = tmp_path / "out.csv"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
        assert out.read_text().startswith(cli.CSV_HEADER)

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        doc = json.loads(scenario.serialize(
            scenario.preset("fig3").arms[0].scenario))
        doc["n_tx"] = 1
        doc["mystery"] = True
        cfg.write_text(json.dumps(doc))
        assert run_cli("simulate", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert "n_tx" in err and "mystery" in err

    def test_cdf_rows(self, tmp_path):
        exp = scenario.preset("fig5")
        scn = replace(exp.arms[0].scenario, drops=8, trials_per_drop=2)
        cfg = tmp_path / "cdf.json"
        cfg.write_text(scenario.serialize(scn))
        out = tmp_path / "cdf.csv"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        samples = [l for l in lines if ",throughput_sample," in l]
        # 8 drops x 2 users x (quantized + ideal)
        assert len(samples) == 8 * 2 * 2
        assert any(",run:ideal," in l for l in samples)


class TestBound:
    def test_table_at_position(self, capsys):
        assert run_cli("bound", "--preset", "fig3", "--at", "50") == 0
        out = capsys.readouterr().out
        assert "user 0" in out and "interference term from user 1" in out

    def test_verify_appendix_reports_steps(self, capsys, tmp_path):
        csv_path = tmp_path / "bound.csv"
        assert run_cli("bound", "--preset", "fig3", "--at", "125",
                       "--verify-appendix", "--trials", "20000",
                       "--out", str(csv_path)) == 0
        out = capsys.readouterr().out
        assert "nullspace_moment" in out
        assert "inverse_norm:user0" in out
        rows = csv_path.read_text().splitlines()
        assert rows[0] == cli.CSV_HEADER
        # each appendix row's trials column holds the draws that check used
        draws = {f[5]: f[7] for f in (r.split(",") for r in rows[1:])
                 if f[5].startswith("appendix_check:")}
        assert draws == {"appendix_check:inverse_norm:user0": "20000",
                         "appendix_check:inverse_norm:user1": "20000",
                         "appendix_check:decomposition": "2000",
                         "appendix_check:nullspace_moment": "20000",
                         "appendix_check:interference_moment": "20000"}
        # the closed-form rows draw nothing: they write their error estimates' draws
        closed = {f[7] for f in (r.split(",") for r in rows[1:])
                  if not f[5].startswith("appendix_check:")}
        assert closed == {str(quantization.DEFAULT_ERROR_ESTIMATE_DRAWS)}

    def test_sweep_scenario_needs_at(self, capsys):
        assert run_cli("bound", "--preset", "fig3") == 2

    def test_global_feedback_arm_rejected(self):
        assert run_cli("bound", "--preset", "fig4", "--arm", "global_6bit",
                       "--at", "125") == 2

    def test_unknown_arm_rejected(self):
        assert run_cli("bound", "--preset", "fig4", "--arm", "nope", "--at", "125") == 2


class TestArgumentErrors:
    def test_unknown_preset_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--preset", "fig9")
        assert exc.value.code == 2

    def test_missing_source_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate")
        assert exc.value.code == 2


@pytest.fixture
def fig3_arm_config(tmp_path):
    path = tmp_path / "fig3_arm.json"
    path.write_text(scenario.serialize(scenario.preset("fig3").arms[0].scenario))
    return path


@pytest.fixture
def variant_configs(tmp_path):
    """Paths of the fig3 scenario fixed with MS1 at 150 m, of the fig5
    cooperative random-drop arm cut to 2 drops, and of variants with one bad
    value each: 64-bit diagonal links, a boolean coordinate, a NaN or a
    coincident base station, a core beyond the cell edge, an n_tx no numpy
    array can hold the draws of, with perfect CSI the least n_tx whose
    stream block of STREAM_TRIALS trials' channels no numpy array can hold
    (test_scenario checks that the n_tx one below it parses), a drop of
    2^60 trials, sweeps of 10^20 and 2^63 steps, a document with a key
    removed from the format, fig3's ms2_50m arm with a path-loss exponent
    or an edge SNR of 1e308, whose receive SNRs overflow, and the drops with
    a cell radius of 1e308, whose square overflows."""
    fig3 = scenario.preset("fig3").arms[0].scenario
    bits64 = json.loads(scenario.serialize(fig3))
    bits64["feedback"]["bits"] = [[64, 3], [3, 64]]  # no FeedbackConfig accepts it
    fixed = scenario.serialize(scenario.at_sweep_point(fig3, 150.0))
    bool_position = json.loads(fixed)
    bool_position["placement"]["positions"][1] = [True, 0]
    huge_n_tx = json.loads(scenario.serialize(fig3))
    huge_n_tx["n_tx"] = 10**30
    block_n_tx = json.loads(scenario.serialize(fig3))
    block_n_tx["feedback"] = {"mode": "perfect"}
    block_n_tx["n_tx"] = rngmod.MAX_DRAW_BYTES // (
        rngmod.STREAM_TRIALS * fig3.n_users * fig3.geometry.n_cells * 16) + 1
    drops = scenario.serialize(replace(scenario.preset("fig5").arms[0].scenario, drops=2))
    huge_trials_per_drop = json.loads(drops)
    huge_trials_per_drop["trials_per_drop"] = 2**60
    huge_steps = json.loads(scenario.serialize(fig3))
    huge_steps["placement"]["steps"] = 10**20
    steps_2_63 = json.loads(scenario.serialize(fig3))
    steps_2_63["placement"]["steps"] = 2**63
    removed_key = json.loads(fixed)
    removed_key["output_csv"] = None  # as every document was serialized while it was a key
    ms2_50m = scenario.serialize(scenario.preset("fig3").arms[2].scenario)
    paths = {}
    for name, text in (("{fixed}", fixed),
                       ("{bool_position}", json.dumps(bool_position)),
                       ("{drops}", drops),
                       ("{bits64}", json.dumps(bits64)),
                       ("{huge_n_tx}", json.dumps(huge_n_tx)),
                       ("{stream_block_n_tx}", json.dumps(block_n_tx)),
                       ("{huge_trials_per_drop}", json.dumps(huge_trials_per_drop)),
                       ("{huge_steps}", json.dumps(huge_steps)),
                       ("{steps_2_63}", json.dumps(steps_2_63)),
                       ("{nan_bs}", scenario.serialize(fig3).replace("500.0", "NaN")),
                       ("{same_bs}", scenario.serialize(fig3).replace("500.0", "0.0")),
                       ("{core_beyond_edge}", drops.replace('"d_min_m": 1.0', '"d_min_m": 300')),
                       ("{removed_key}", json.dumps(removed_key)),
                       ("{huge_drop_radius}", drops.replace('"cell_radius_m": 250.0',
                                                            '"cell_radius_m": 1e308')),
                       ("{overflow_exponent}", ms2_50m.replace('"pathloss_exponent": 3.76',
                                                               '"pathloss_exponent": 1e308')),
                       ("{overflow_edge_snr}", ms2_50m.replace('"edge_snr_db": 10.0',
                                                               '"edge_snr_db": 1e308'))):
        paths[name] = tmp_path / f"{name[1:-1]}.json"
        paths[name].write_text(text)
    return paths


@pytest.fixture
def codebook_files_config(fig3_arm_config, tmp_path):
    """Path of the fig3 arm as documents were serialized while a scenario
    could name codebook files: with ``"codebook_files": null``."""
    doc = json.loads(fig3_arm_config.read_text())
    doc["feedback"]["codebook_files"] = None
    path = tmp_path / "codebook_files.json"
    path.write_text(json.dumps(doc))
    return path


_SNR_OVERFLOW = ("error: receive SNRs must be finite and nonnegative: check "
                 "geometry.edge_snr_db and pathloss_exponent\n")

_TOO_FEW_DRAWS = "error: --trials: must be >= 2: a standard error needs 2 draws\n"
_UNSHAPEABLE_CODEBOOK = ("error: bits and dimension too large: the codebook's draw exceeds "
                         "the 2^57-byte draw limit\n")


# message: a line the error output must contain, where exit 2 alone does not
# tell the failure apart from another one
@pytest.mark.parametrize("argv, message", [
    (["simulate", "--preset", "fig3", "--seed", "-1"], ""),
    (["bound", "--preset", "fig3", "--at", "300"], ""),
    (["train-codebook", "--dimension", "4", "--bits", "-1"], ""),
    (["train-codebook", "--dimension", "4", "--bits", "2", "--seed", "-1"],
     "error: --seed: must be nonnegative\n"),
    (["train-codebook", "--config", "{config}", "--at", "100", "--user", "5",
      "--dimension", "8", "--bits", "2"], ""),
    (["train-codebook", "--kind", "random", "--config", "{config}", "--at", "100",
      "--dimension", "4", "--bits", "2"], ""),
    (["bound", "--config", "{fixed}", "--at", "60"],
     "error: --at: the scenario has no sweep\n"),
    (["bound", "--config", "{drops}"], "error: placement.mode: "),
    (["train-codebook", "--config", "{drops}", "--dimension", "8", "--bits", "2"],
     "error: placement.mode: "),
    (["train-codebook", "--dimension", "4", "--bits", "2", "--at", "100"],
     "error: --at: only applies with --config\n"),
    (["train-codebook", "--dimension", "4", "--bits", "2", "--user", "3"],
     "error: --user: only applies with --config\n"),
    (["simulate", "--config", "{codebook_files}"],
     "error: feedback.codebook_files: unknown key\n"),
    (["simulate", "--preset", "fig3", "--workers", "0"], "error: workers must be >= 1\n"),
    (["simulate", "--preset", "fig3", "--workers", "-3"], "error: workers must be >= 1\n"),
    (["simulate", "--config", "{drops}", "--trials", "5"], "error: --trials: "),
    (["bound", "--preset", "fig5", "--verify-appendix", "--trials", "100"],
     "error: placement.mode: "),
    (["bound", "--preset", "fig3", "--at", "50", "--verify-appendix", "--trials", "1"],
     _TOO_FEW_DRAWS),
    (["bound", "--preset", "fig3", "--at", "50", "--verify-appendix", "--trials", "0"],
     _TOO_FEW_DRAWS),
    (["bound", "--preset", "fig3", "--at", "50", "--verify-appendix", "--trials", "-3"],
     _TOO_FEW_DRAWS),
    (["bound", "--preset", "fig3", "--at", "50", "--trials", "7"],
     "error: --trials: only applies with --verify-appendix\n"),
    (["train-codebook", "--dimension", "4", "--bits", "63"],
     "error: bits must be in [0, 63)\n"),
    (["train-codebook", "--dimension", "4", "--bits", "55"], _UNSHAPEABLE_CODEBOOK),
    (["train-codebook", "--dimension", "4", "--bits", "56"], _UNSHAPEABLE_CODEBOOK),
    (["train-codebook", "--kind", "random", "--dimension", "4", "--bits", "61"],
     _UNSHAPEABLE_CODEBOOK),
    (["train-codebook", "--kind", "random", "--dimension", str(2**62), "--bits", "0"],
     _UNSHAPEABLE_CODEBOOK),
    (["simulate", "--config", "{bits64}"],
     "error: feedback.bits[0][0]: must be in [0, 63)\n"),
    (["simulate", "--config", "{nan_bs}"],
     "error: geometry.bs_positions[1]: must be finite\n"),
    (["simulate", "--config", "{bool_position}"],
     "error: placement.positions[1]: must be an [x, y] pair\n"),
    (["simulate", "--config", "{same_bs}"],
     "error: geometry.bs_positions: base stations must not coincide\n"),
    (["simulate", "--config", "{core_beyond_edge}"],
     "error: geometry.d_min_m: must not exceed cell_radius_m\n"),
    (["simulate", "--config", "{removed_key}"], "error: output_csv: unknown key\n"),
    (["simulate", "--config", "{overflow_exponent}"], _SNR_OVERFLOW),
    (["simulate", "--config", "{overflow_edge_snr}"], _SNR_OVERFLOW),
    (["simulate", "--config", "{huge_drop_radius}"],
     "error: geometry.cell_radius_m: too large: a drop's squared radius exceeds the float "
     "range\n"),
], ids=["negative-seed", "bound-outside-cell", "negative-bits",
        "negative-training-seed", "user-out-of-range", "dimension-not-composite",
        "bound-at-without-sweep", "bound-random-drops", "train-random-drops",
        "train-at-without-config", "train-user-without-config",
        "codebook-files-unknown-key", "zero-workers", "negative-workers",
        "trials-flag-random-drops", "bound-trials-random-drops", "appendix-one-draw",
        "appendix-zero-draws", "appendix-negative-draws", "bound-trials-without-appendix",
        "train-bits-63", "train-bits-55", "train-bits-56", "train-random-bits-61",
        "train-random-dimension-2^62", "scenario-bits-64",
        "scenario-nan-coordinate", "boolean-coordinate", "coincident-base-stations",
        "core-beyond-cell-edge", "output-csv-unknown-key", "pathloss-exponent-overflow",
        "edge-snr-overflow", "drop-radius-overflow"])
def test_bad_input_exits_2_with_error_line(argv, message, fig3_arm_config,
                                           codebook_files_config, variant_configs,
                                           tmp_path, capsys):
    paths = {"{config}": fig3_arm_config, "{codebook_files}": codebook_files_config,
             **variant_configs}
    argv = [str(paths.get(a, a)) for a in argv]
    if argv[0] == "train-codebook":
        argv += ["--out", str(tmp_path / "cb.cbk")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "cb.cbk").exists()
    if message == _SNR_OVERFLOW:
        # run as a program, each warning would print to stderr before the error line
        assert err == message and not caught, [str(w.message) for w in caught]


# At 1e308 dB every drop overflows. At 3070 dB only a link within about 116 m
# of its BS does, and at seed 3 that is drop 3 of 4 alone: the last drop of
# the one range must fail before any trial runs. (At 2 workers the first
# worker's drops have finite SNRs near the float range, whose zero-forcing
# Gram test overflows and warns, so that pair is not listed.)
@pytest.mark.parametrize("edge_snr_db, workers", [(3070.0, "1"), (1e308, "1"), (1e308, "2")])
def test_random_drop_snr_overflow_exits_2_with_one_error_line(edge_snr_db, workers, tmp_path):
    # run as a program, so that any warning or traceback a worker prints shows
    comp = scenario.preset("fig5").arms[0].scenario
    scn = replace(comp, drops=4, master_seed=3,
                  geometry=replace(comp.geometry, edge_snr_db=edge_snr_db))
    if edge_snr_db == 3070.0:
        for d in range(scn.drops):
            positions = montecarlo._draw_positions(scn, substream(3, rngmod.DROP, d))
            if d < 3:
                montecarlo.large_scale_map(scn, positions)
            else:
                with pytest.raises(ConfigurationError):
                    montecarlo.large_scale_map(scn, positions)
    config, out = tmp_path / "drops.json", tmp_path / "out.csv"
    config.write_text(scenario.serialize(scn))
    src = str(Path(compsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "compsim.cli", "simulate", "--config",
                           str(config), "--workers", workers, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert (proc.returncode, proc.stderr) == (2, _SNR_OVERFLOW)
    assert not out.exists()


@pytest.mark.parametrize("variant", ["{huge_n_tx}", "{stream_block_n_tx}"])
def test_n_tx_beyond_numpy_exits_2_with_one_error_line(variant, variant_configs, capsys):
    # parse rejects it before numpy is asked to shape a codebook or channel draw
    assert run_cli("simulate", "--config", str(variant_configs[variant])) == 2
    assert capsys.readouterr().err == \
        "error: n_tx: too large: a draw it sizes exceeds the 2^57-byte draw limit\n"


@pytest.mark.parametrize("variant, line", [
    ("{huge_trials_per_drop}",
     "error: trials_per_drop: too large: a drop's draw exceeds the 2^57-byte draw limit\n"),
    ("{huge_steps}", "error: placement.steps: too large: the sweep's distances exceed the "
                     "2^57-byte draw limit\n"),
    ("{steps_2_63}", "error: placement.steps: too large: the sweep's distances exceed the "
                     "2^57-byte draw limit\n"),
], ids=["trials-per-drop-2^60", "steps-10^20", "steps-2^63"])
def test_draw_sizes_beyond_numpy_exit_2_with_one_error_line(variant, line, variant_configs,
                                                            capsys):
    # numpy raised ValueError (a drop's draw, a sweep of 10^20 steps) or
    # IndexError (2^63 steps) here before parse counted these sizes
    assert run_cli("simulate", "--config", str(variant_configs[variant])) == 2
    assert capsys.readouterr().err == line


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and "
                 "data type float64"),
     "error: Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and "
     "data type float64"),
    (MemoryError(), "error: out of memory"),
], ids=["numpy-message", "no-message"])
def test_memory_error_is_a_runtime_error(exc, line, monkeypatch, capsys):
    # where a sweep of 10^12 steps failed to allocate its distances
    def fail(scn):
        raise exc

    monkeypatch.setattr(scenario, "sweep_values", fail)
    assert run_cli("simulate", "--preset", "fig3", "--trials", "2") == 3
    err = capsys.readouterr().err
    assert [e for e in err.splitlines() if e.startswith("error:")] == [line]
    assert "Traceback" not in err


def test_infinite_snr_sum_is_a_config_error(tmp_path, capsys):
    # at the cell edge both links' SNRs are 1e308, finite, but their sum is
    # infinite, which would make the split a global codebook is trained on zero
    doc = json.loads(scenario.serialize(replace(scenario.preset("fig4").arms[0].scenario,
                                                trials=4)))
    doc["geometry"]["edge_snr_db"] = 3080.0
    config = tmp_path / "nan_split.json"
    config.write_text(json.dumps(doc))
    assert run_cli("simulate", "--config", str(config),
                   "--out", str(tmp_path / "out.csv")) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: each user's receive SNRs must have a finite sum: check "
        "geometry.edge_snr_db and pathloss_exponent"]
    assert "Traceback" not in err


def test_sweep_column_names_the_swept_user(tmp_path):
    fig3 = scenario.preset("fig3").arms[0].scenario
    ms1 = scenario._line_position(fig3.geometry, 0, 150.0)
    swept = replace(fig3, trials=5, placement=replace(fig3.placement, positions=[ms1, None],
                                                      sweep_user=1))
    cfg = tmp_path / "ms2_swept.json"
    cfg.write_text(scenario.serialize(swept))
    sim_csv, bound_csv = tmp_path / "sim.csv", tmp_path / "bound.csv"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(sim_csv)) == 0
    assert run_cli("bound", "--config", str(cfg), "--at", "100", "--out", str(bound_csv)) == 0
    for path in (sim_csv, bound_csv):
        sweeps = {line.split(",")[2] for line in path.read_text().splitlines()[1:]}
        assert sweeps == {"ms2_distance_m"}


def test_out_of_range_bits_rejected_before_any_codebook_is_built(variant_configs):
    # the 3-bit links sort first, so a check at build time trains them
    quantization.clear_codebook_cache()
    assert run_cli("simulate", "--config", str(variant_configs["{bits64}"])) == 2
    assert quantization._codebook_cache == {}


def test_zero_workers_rejected_before_any_codebook_is_built():
    quantization.clear_codebook_cache()
    assert run_cli("simulate", "--preset", "fig4", "--workers", "0") == 2
    assert quantization._codebook_cache == {}


def _json(scn) -> dict:
    return json.loads(scenario.serialize(scn))


# fig3's ms2_50m arm and fig5's cooperative arm at sizes that run in a few
# milliseconds
_FUZZ_DOCS = (_json(replace(scenario.preset("fig3").arms[2].scenario, trials=4)),
              _json(replace(scenario.preset("fig5").arms[0].scenario, drops=2,
                            trials_per_drop=3)))
# JSON values of every type, sign and extreme; 2^63 is one past int64
_HOSTILE = (None, True, "x", [], {}, -1, 0, 0.5, 1e308, -1e308, 2**63)
# No ceiling bounds the work of a run, so these get no large count.
_WORK = {("trials",), ("drops",)}


def _leaves(node, path=()):
    """The path of every leaf of a JSON value: a scalar, or an empty list or object."""
    if isinstance(node, list):
        node = dict(enumerate(node))
    if not isinstance(node, dict) or not node:
        return [path]
    return [leaf for key, child in node.items() for leaf in _leaves(child, path + (key,))]


@st.composite
def _hostile_documents(draw):
    """One of the fuzz documents with one or two leaves set to hostile values."""
    doc = copy.deepcopy(draw(st.sampled_from(_FUZZ_DOCS)))
    for path in draw(st.lists(st.sampled_from(_leaves(doc)), min_size=1, max_size=2,
                              unique=True)):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(st.sampled_from(
            [v for v in _HOSTILE if not (path in _WORK and v == 2**63)]))
    return doc


_OVERFLOW_EXPONENT = copy.deepcopy(_FUZZ_DOCS[0])
_OVERFLOW_EXPONENT["geometry"]["pathloss_exponent"] = 1e308  # was an SVD traceback


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@example(doc=_OVERFLOW_EXPONENT)
@given(doc=_hostile_documents())
def test_hostile_documents_exit_with_an_error_line_not_a_traceback(doc):
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "doc.json", str(Path(tmp) / "out")
        config.write_text(json.dumps(doc))
        for argv in (["simulate", "--config", str(config), "--out", out],
                     ["bound", "--config", str(config), "--at", "50"],
                     ["train-codebook", "--config", str(config), "--at", "50",
                      "--dimension", "8", "--bits", "2", "--out", out]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    np.errstate(all="ignore"):
                rc = cli.main(argv)
            lines = err.getvalue().splitlines()
            assert rc in (0, 2, 3), (argv, lines)
            assert rc == 0 or any(line.startswith("error: ") for line in lines), (argv, lines)
            assert not any("Traceback" in line for line in lines)


# Integer flag values: tiny, or (for --bits and --dimension) so large that the
# codebook they size takes 2^55 complex elements or more, past the 2^57 bytes
# any machine addresses, never in between, since Linux may grant a mid-sized
# draw and then kill the process that fills it.
_TINY = (-2**63, -1, 0, 1, 2, 3)
_HUGE_BITS = (55, 56, 61, 62)
_HUGE_DIMENSIONS = (2**55, 2**62, 2**63)


@st.composite
def _flag_argvs(draw):
    """A ``bound``, ``train-codebook`` or ``simulate`` command line whose
    integer flags take hostile values, at a size that runs in milliseconds."""
    tiny = st.sampled_from(_TINY)
    command = draw(st.sampled_from(("bound", "train-codebook", "simulate")))
    if command == "bound":
        return ["bound", "--preset", "fig3", "--at", "50", "--verify-appendix",
                "--trials", str(draw(tiny))]
    if command == "simulate":
        return ["simulate", "--preset", "fig3", "--trials", str(draw(tiny)),
                "--seed", str(draw(tiny)),
                "--workers", str(draw(st.sampled_from([v for v in _TINY if v <= 2]))),
                "--out", "{out}"]
    argv = ["train-codebook", "--kind", draw(st.sampled_from(("lloyd", "random"))),
            "--bits", str(draw(st.sampled_from(_TINY + _HUGE_BITS))),
            "--dimension", str(draw(st.sampled_from(_TINY + _HUGE_DIMENSIONS))),
            "--seed", str(draw(tiny)), "--out", "{out}"]
    if draw(st.booleans()):
        argv += ["--user", str(draw(tiny))]
    if draw(st.booleans()):
        argv += ["--config", "{config}", "--at", "50"]
    return argv


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@example(argv=["simulate", "--preset", "fig3", "--trials", "3", "--seed", "3",
               "--workers", "2", "--out", "{out}"])
@example(argv=["simulate", "--preset", "fig3", "--trials", "1", "--seed", "0",
               "--workers", "1", "--out", "{out}"])
@example(argv=["train-codebook", "--kind", "random", "--bits", "55", "--dimension", "1",
               "--seed", "3", "--out", "{out}"])
@example(argv=["train-codebook", "--kind", "random", "--bits", "3", "--dimension", str(2**55),
               "--seed", "3", "--out", "{out}"])
@given(argv=_flag_argvs())
def test_hostile_integer_flags_exit_with_an_error_line_not_a_traceback(argv):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "doc.json"
        config.write_text(json.dumps(_FUZZ_DOCS[0]))
        paths = {"{out}": str(Path(tmp) / "out"), "{config}": str(config)}
        argv = [paths.get(a, a) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert rc in (0, 2, 3), (argv, lines)
    assert rc == 0 or any(line.startswith("error: ") for line in lines), (argv, lines)
    assert not any("Traceback" in line for line in lines)
    if argv[0] == "bound" and int(argv[-1]) < 2:
        assert rc == 2, (argv, lines)  # a check of fewer than 2 draws has no standard error
    if argv[0] == "train-codebook":
        bits, dimension = (int(argv[argv.index(flag) + 1]) for flag in ("--bits", "--dimension"))
        if bits in _HUGE_BITS or dimension in _HUGE_DIMENSIONS:
            assert rc == 2, (argv, lines)  # no machine holds the draw, so none is attempted
