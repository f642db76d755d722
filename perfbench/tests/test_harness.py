"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import shutil
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import bench  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402


def _log(entries):
    log = spans.new_log()
    log["names"] = ["outer", "inner", "leaf"]
    for name, start, end, parent in entries:
        for column, value in zip(spans.COLUMNS, (name, start, end, parent, 1)):
            log[column].append(value)
    return log


def test_self_time_subtracts_direct_children_only():
    # outer [0, 100) holds inner [10, 30) and inner [40, 70); the second inner
    # holds leaf [45, 55).
    log = _log([(0, 0, 100, -1), (1, 10, 30, 0), (1, 40, 70, 0), (2, 45, 55, 2)])
    stats = spans.self_times(log)
    assert (stats["outer"].calls, stats["outer"].total_ns, stats["outer"].self_ns) == (1, 100, 50)
    assert (stats["inner"].calls, stats["inner"].total_ns, stats["inner"].self_ns) == (2, 50, 40)
    assert (stats["leaf"].total_ns, stats["leaf"].self_ns) == (10, 10)
    assert sum(s.self_ns for s in stats.values()) == 100


def test_self_time_filters_by_run():
    log = _log([(0, 0, 100, -1), (1, 10, 30, 0)])
    log["run"][1] = 2
    assert set(spans.self_times(log, runs={2})) == {"inner"}
    assert spans.self_times(log, runs={1})["outer"].self_ns == 80


def test_tracer_records_nesting_errors_and_restores():
    module = types.ModuleType("fake.layer")

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(x):
        try:
            return module.leaf(x)
        except ValueError:
            return 0

    module.leaf, module.outer = leaf, outer
    tracer = spans.Tracer([(module, "outer", None), (module, "leaf", lambda r: r * 10)])
    tracer.install(run=3)
    try:
        assert module.outer(2) == 2
        assert module.outer(-1) == 0
    finally:
        tracer.restore()
    assert module.leaf is leaf and module.outer is outer
    assert tracer.log["parent"] == [-1, 0, -1, 2]
    assert tracer.log["run"] == [3, 3, 3, 3]
    assert tracer.observed["layer.leaf"] == [(3, 20)]
    stats = tracer.stats([3])
    assert stats["layer.outer"].calls == 2 and stats["layer.leaf"].errors == 1
    assert stats["layer.outer"].self_ns + stats["layer.leaf"].total_ns == stats["layer.outer"].total_ns


CSV = "\n".join([
    checks.CSV_HEADER,
    "fig3,a,ms1_distance_m,250,0,throughput_mean,2.5,300,7",
    "fig3,a,ms1_distance_m,250,0,throughput_se,0.05,300,7",
    "fig3,a,ms1_distance_m,250,0,rate_loss_mc,1.25,300,7",
    "fig3,a,ms1_distance_m,250,0,rate_loss_mc_se,0.02,300,7",
    "fig3,a,ms1_distance_m,250,,failures,3,300,7",
]) + "\n"
REFERENCE = {"a|250|0|throughput_mean": (2.45, 0.02), "a|250|0|rate_loss_mc": (1.26, 0.01)}


def test_check_accepts_agreeing_csv():
    rows = checks.parse_csv(CSV, seed=7)
    assert checks.rejected(rows) == 3
    assert checks.compare_stats(checks.point_stats(rows), REFERENCE) == []


def test_check_rejects_perturbed_csv():
    perturbed = CSV.replace("throughput_mean,2.5,", "throughput_mean,2.9,")
    problems = checks.compare_stats(checks.point_stats(checks.parse_csv(perturbed, 7)), REFERENCE)
    assert len(problems) == 1 and problems[0].startswith("a|250|0|throughput_mean")


def test_check_rejects_missing_point():
    dropped = "".join(line + "\n" for line in CSV.splitlines() if "rate_loss" not in line)
    problems = checks.compare_stats(checks.point_stats(checks.parse_csv(dropped, 7)), REFERENCE)
    assert problems == ["missing a|250|0|rate_loss_mc"]


@pytest.mark.parametrize("bad, message", [
    (CSV.replace("experiment,", "exp,", 1), "header"),
    (CSV.replace(",2.5,", ",nan,"), "non-finite"),
    (CSV.replace(",2.5,", ",2.5,,"), "fields"),
    (CSV.replace(",300,7\n", ",300,8\n", 1), "seed"),
])
def test_parse_rejects_malformed_csv(bad, message):
    with pytest.raises(checks.CheckError, match=message):
        checks.parse_csv(bad, seed=7)


def test_appendix_pattern_must_match_except_within_noise():
    reference = {"inverse_norm:user0": False, "nullspace_moment": True}
    rows = [checks.Row("a", "50", "", "appendix_check:inverse_norm:user0", 0.0, 1, 7),
            checks.Row("a", "50", "", "appendix_check:nullspace_moment", 0.0, 1, 7)]
    near = "  nullspace_moment: lhs=0.3358 rhs=0.333333 se=0.0007 [FAIL]\n"
    far = "  nullspace_moment: lhs=0.3400 rhs=0.333333 se=0.0007 [FAIL]\n"
    assert checks.compare_appendix(checks.appendix_outcomes(rows, near), reference) == []
    assert checks.compare_appendix(checks.appendix_outcomes(rows, far), reference)
    flipped = [checks.Row("a", "50", "", "appendix_check:inverse_norm:user0", 1.0, 1, 7)]
    assert checks.compare_appendix(checks.appendix_outcomes(flipped + rows[1:], near), reference)


class FakeWorkload:
    """Workload whose iterations succeed, raise or fail the check on demand."""

    trials = 100
    setup_repeats = 1
    workers = 1

    def __init__(self, plan):
        self.plan = list(plan)  # per iteration: "ok", "raise" or "wrong"
        self.count = 0

    def setup(self):
        pass

    def iterate(self, workers):
        kind = self.plan[min(self.count, len(self.plan) - 1)]
        self.count += 1
        if kind == "raise":
            raise RuntimeError("boom")
        return SimpleNamespace(csvs=[kind], kind=kind, pool_seconds=0.0)

    def analyze(self, raw):
        mean = 1.0 if raw.kind == "ok" else 9.0
        return SimpleNamespace(rejected=4, stats={"x": (mean, 0.1)}, appendix={})


FAKE_REFERENCE = {"stats": {"x": (1.0, 0.1)}}


def test_run_that_raises_counts_all_its_trials_as_failed(capsys):
    metrics, iterations, _ = bench.end_to_end(FakeWorkload(["raise"]), 0.0, FAKE_REFERENCE)
    assert metrics["ok_frac"][0] == 0.0
    assert all(i.failed and i.attempted == 100 and i.accepted == 0 for i in iterations)
    assert "RuntimeError: boom" in capsys.readouterr().err


def test_failed_iterations_count_against_ok_frac():
    # warm-up ok (96 of 100 accepted), first timed iteration raises, the rest
    # fail the statistical check.
    metrics, iterations, _ = bench.end_to_end(
        FakeWorkload(["ok", "raise", "wrong"]), 0.0, FAKE_REFERENCE)
    assert len(iterations) == 2
    assert metrics["ok_frac"][0] == pytest.approx(96 / 200)
    workload = FakeWorkload(["wrong"])
    wrong = bench.run_once(workload, 1, FAKE_REFERENCE)
    assert wrong.failed and wrong.accepted == 0 and wrong.digest is not None


def test_clean_run_reports_rejected_trials():
    metrics, iterations, samples = bench.end_to_end(FakeWorkload(["ok"]), 0.0, FAKE_REFERENCE)
    assert metrics["ok_frac"][0] == pytest.approx(0.96)
    assert not any(i.failed for i in iterations) and len(samples["setup_samples_s"]) == 1
    assert set(metrics) == {"setup_s", "trials_per_ref_s", "peak_rss_mb", "ok_frac"}


def test_every_slot_sets_up_and_iterates_even_past_its_budget():
    workload = FakeWorkload(["ok"])
    workload.setup_repeats = 3
    metrics, iterations, samples = bench.end_to_end(workload, 0.0, FAKE_REFERENCE)
    assert len(samples["setup_samples_s"]) == 3 and len(iterations) == 1 + 3
    assert len(samples["gauge_samples_s"]) == 3


@pytest.fixture(scope="module")
def real_sweep():
    """One real sweep-bound iteration against the stored reference."""
    scratch = bench.prepare()
    import json

    import workloads

    reference = json.loads((bench.ROOT / "perfbench" / "reference.json").read_text())
    workload = workloads.SweepBound(5, scratch)
    yield workload, workload.iterate(1), reference["sweep-bound"]
    shutil.rmtree(scratch, ignore_errors=True)


def test_real_output_passes_and_perturbed_output_fails(real_sweep):
    workload, raw, reference = real_sweep
    result = workload.analyze(raw)
    assert checks.compare_stats(result.stats, reference["stats"]) == []
    lines = raw.csvs[0].splitlines()
    index = next(i for i, line in enumerate(lines) if ",throughput_mean," in line)
    fields = lines[index].split(",")
    fields[6] = repr(float(fields[6]) + 1.0)  # bits/s/Hz, many standard errors
    lines[index] = ",".join(fields)
    perturbed = workload.analyze(
        SimpleNamespace(csvs=["\n".join(lines) + "\n"] + raw.csvs[1:], table=raw.table))
    problems = checks.compare_stats(perturbed.stats, reference["stats"])
    assert len(problems) == 1 and "throughput_mean" in problems[0]
