"""Pinned digests of outputs that a refactor must keep byte-identical.

Each entry is the first 12 hex digits of the sha256 of one output: CLI
files and stdout at seed 3 (training seed 7103 or 7104 for the codebooks),
one run at a master seed wider than 64 bits, the fields of one
orthogonalized rate-loss run, and the codewords and meta of one Lloyd
training that re-seeds empty clusters.
The last bit of a float can depend on the numpy build, so the check skips
unless numpy's version and BLAS are the ones the digests were recorded with.
A change that alters an output on purpose declares it (a new random-stream
contract or file format) and records the new digests, printed by

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from compsim import bounds, cli, quantization, scenario
from compsim.rng import substream

RECORDED_NUMPY = "2.4.6"
RECORDED_BLAS = "scipy-openblas 0.3.31.188.0"

RECORDED = {
    "simulate fig3 --trials 20": "6ddf5b2e01ff",
    "simulate fig5 comp_per_cell_3_3 drops=10": "7c6da1f363f4",
    "simulate fig5 single_cell_global_6bit drops=10": "ae3485e66013",
    "simulate fig5 comp_per_cell_3_3 drops=30 --workers 2": "deaa046de143",
    "simulate fig5 single_cell_global_6bit drops=30 --workers 2": "6c5b71f9715d",
    "simulate fig3 --trials 20 --seed 18446744073709551617": "a41caf3675e3",
    "bound fig3 --at 50 --verify-appendix --trials 2000 csv": "0b528c1547f0",
    "bound fig3 --at 50 --verify-appendix --trials 2000 stdout": "d57cb1b4d828",
    "bound fig4 per_cell_4_2 --at 100 --verify-appendix --trials 2000 csv": "9080dc36da4a",
    "bound fig4 per_cell_4_2 --at 100 --verify-appendix --trials 2000 stdout": "e1664c047323",
    "train-codebook --dimension 4 --bits 3 --seed 7103": "c79d3291da82",
    "train-codebook --dimension 4 --bits 4 --seed 7104": "a268644eb847",
    "train-codebook fig4 global_6bit --at 100 --user 0 --bits 2 --seed 7104": "e47dd64ae393",
    "train-codebook fig4 global_6bit --at 100 --user 0 --bits 6 --seed 7104": "f89a1fe1787c",
    "simulate fig4 global_6bit global_bits=2 --trials 20": "da5ed944acd2",
    "rate_loss_montecarlo fig3 ms2_150m at 100 m": "b337d8fbd7f4",
    "train_lloyd two point masses, 4 codewords": "8c8e8e036cc0",
}

# fields of the orthogonalized rate-loss run, digested in this order
RATE_LOSS_FIELDS = ("delta_r", "delta_r_se", "interference_log_bound", "interference_mean",
                    "interference_se", "failures", "trials")


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def _cli(workdir: Path, *argv) -> tuple[bytes, bytes]:
    """The file ``compsim argv --out`` writes and the stdout it prints."""
    out = workdir / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_bytes(), stdout.getvalue().encode()


def outputs(workdir: Path) -> dict:
    """Digest of every pinned output, computed in ``workdir``."""
    got = {}
    csv, _ = _cli(workdir, "simulate", "--preset", "fig3", "--trials", "20", "--seed", "3")
    got["simulate fig3 --trials 20"] = _digest(csv)
    for arm in scenario.preset("fig5").arms:
        config = workdir / f"{arm.label}.json"
        config.write_text(scenario.serialize(replace(arm.scenario, drops=10)))
        csv, _ = _cli(workdir, "simulate", "--config", str(config), "--seed", "3")
        got[f"simulate fig5 {arm.label} drops=10"] = _digest(csv)
        # several ranges, each filling blocks with the trials of several drops
        config.write_text(scenario.serialize(replace(arm.scenario, drops=30)))
        csv, _ = _cli(workdir, "simulate", "--config", str(config), "--seed", "3",
                      "--workers", "2")
        got[f"simulate fig5 {arm.label} drops=30 --workers 2"] = _digest(csv)
    # a seed that spans three 32-bit words of the seed sequence's entropy
    csv, _ = _cli(workdir, "simulate", "--preset", "fig3", "--trials", "20",
                  "--seed", str(2**64 + 1))
    got[f"simulate fig3 --trials 20 --seed {2**64 + 1}"] = _digest(csv)
    csv, stdout = _cli(workdir, "bound", "--preset", "fig3", "--at", "50", "--verify-appendix",
                       "--trials", "2000", "--seed", "3")
    got["bound fig3 --at 50 --verify-appendix --trials 2000 csv"] = _digest(csv)
    got["bound fig3 --at 50 --verify-appendix --trials 2000 stdout"] = _digest(stdout)
    # distinct per-link codebooks: bits [[4, 2], [2, 4]], so the two users differ per BS
    csv, stdout = _cli(workdir, "bound", "--preset", "fig4", "--arm", "per_cell_4_2", "--at",
                       "100", "--verify-appendix", "--trials", "2000", "--seed", "3")
    got["bound fig4 per_cell_4_2 --at 100 --verify-appendix --trials 2000 csv"] = _digest(csv)
    got["bound fig4 per_cell_4_2 --at 100 --verify-appendix --trials 2000 stdout"] = \
        _digest(stdout)
    codebook, _ = _cli(workdir, "train-codebook", "--dimension", "4", "--bits", "3",
                       "--seed", "7103")
    got["train-codebook --dimension 4 --bits 3 --seed 7103"] = _digest(codebook)
    codebook, _ = _cli(workdir, "train-codebook", "--dimension", "4", "--bits", "4",
                       "--seed", "7104")
    got["train-codebook --dimension 4 --bits 4 --seed 7104"] = _digest(codebook)
    arm = scenario.preset("fig4").arms[0]
    config = workdir / f"{arm.label}.json"
    config.write_text(scenario.serialize(arm.scenario))
    codebook, _ = _cli(workdir, "train-codebook", "--config", str(config), "--at", "100",
                       "--user", "0", "--dimension", "8", "--bits", "2", "--seed", "7104")
    got[f"train-codebook fig4 {arm.label} --at 100 --user 0 --bits 2 --seed 7104"] = \
        _digest(codebook)
    # 64 codewords: the centroid step over many clusters at once
    codebook, _ = _cli(workdir, "train-codebook", "--config", str(config), "--at", "100",
                       "--user", "0", "--dimension", "8", "--bits", "6", "--seed", "7104")
    got[f"train-codebook fig4 {arm.label} --at 100 --user 0 --bits 6 --seed 7104"] = \
        _digest(codebook)
    config.write_text(scenario.serialize(replace(
        arm.scenario, trials=20, feedback=replace(arm.scenario.feedback, global_bits=2))))
    quantization.clear_codebook_cache()  # one lookup per sweep point and profile
    csv, _ = _cli(workdir, "simulate", "--config", str(config), "--seed", "3")
    got[f"simulate fig4 {arm.label} global_bits=2 --trials 20"] = _digest(csv)
    arm = scenario.preset("fig3").arms[1]
    result = bounds.rate_loss_montecarlo(scenario.at_sweep_point(arm.scenario, 100.0),
                                         trials=200, master_seed=3, orthogonalize=True)
    got[f"rate_loss_montecarlo fig3 {arm.label} at 100 m"] = _digest(b"".join(
        np.asarray(getattr(result, f), dtype=float).tobytes() for f in RATE_LOSS_FIELDS))
    # two point masses and four codewords: empty clusters, re-seeded
    samples = np.repeat(np.eye(4, dtype=complex)[:2], 200, axis=0)
    cb = quantization.train_lloyd(4, 2, samples, rng=substream(12, 0, 9))
    got["train_lloyd two point masses, 4 codewords"] = _digest(
        cb.codewords.tobytes() + json.dumps(cb.training_meta, sort_keys=True).encode())
    return got


@pytest.mark.skipif((np.__version__, _blas()) != (RECORDED_NUMPY, RECORDED_BLAS),
                    reason=f"digests recorded with numpy {RECORDED_NUMPY} on {RECORDED_BLAS}, "
                           f"not numpy {np.__version__} on {_blas()}")
def test_outputs_match_recorded_digests(tmp_path):
    assert outputs(tmp_path) == RECORDED


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in outputs(Path(tmp)).items():
            print(f"    {name!r}: {digest!r},")
