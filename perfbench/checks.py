"""Correctness checks on compsim's CSV output.

Each run's CSV must parse under the documented 9-column header with finite
values, and its per-user means must agree with the stored reference within a
few combined standard errors. The comparison is statistical on purpose: a
declared change of the random-stream contract moves every sample but not the
population means, and must not trip it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

CSV_HEADER = "experiment,arm,sweep,sweep_value,user,metric,value,trials,seed"
Z_MAX = 6.0
# Point metrics compared against the reference, each with its standard-error row.
MEAN_METRICS = {
    "throughput_mean": "throughput_se",
    "ideal_throughput_mean": "ideal_throughput_se",
    "rate_loss_mc": "rate_loss_mc_se",
    "delta_r": "delta_r_se",
}
REJECT_METRICS = ("failures", "failed_draws")
# Appendix steps decided by a Monte Carlo test; a flipped outcome is accepted
# only while the step's own estimate stays within Z_MAX standard errors.
STATISTICAL_STEPS = ("nullspace_moment", "interference_moment")


class CheckError(Exception):
    pass


@dataclass(frozen=True)
class Row:
    arm: str
    sweep_value: str
    user: str
    metric: str
    value: float
    trials: int
    seed: int


def parse_csv(text: str, seed: int) -> list[Row]:
    """Rows of one CSV; raises CheckError on any malformed or non-finite row."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise CheckError(f"CSV header is {lines[:1]!r}, expected {CSV_HEADER!r}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 9:
            raise CheckError(f"CSV line {number} has {len(fields)} fields, expected 9")
        try:
            value = float(fields[6])
            trials = int(fields[7])
            row_seed = int(fields[8])
        except ValueError as exc:
            raise CheckError(f"CSV line {number}: {exc}") from None
        if not math.isfinite(value):
            raise CheckError(f"CSV line {number}: non-finite value {fields[6]!r}")
        if row_seed != seed:
            raise CheckError(f"CSV line {number}: seed {row_seed}, expected {seed}")
        rows.append(Row(fields[1], fields[3], fields[4], fields[5], value, trials, row_seed))
    if not rows:
        raise CheckError("CSV has no rows")
    return rows


def rejected(rows) -> int:
    return int(sum(r.value for r in rows if r.metric in REJECT_METRICS))


def point_stats(rows) -> dict[str, tuple[float, float]]:
    """(mean, se) for every per-user point metric, keyed arm|sweep|user|metric."""
    se = {(r.arm, r.sweep_value, r.user, r.metric): r.value for r in rows}
    out = {}
    for r in rows:
        if r.metric in MEAN_METRICS:
            key = (r.arm, r.sweep_value, r.user, MEAN_METRICS[r.metric])
            if key not in se:
                raise CheckError(f"no {key[3]} row for {r.arm}|{r.sweep_value}|{r.user}")
            out[f"{r.arm}|{r.sweep_value}|{r.user}|{r.metric}"] = (r.value, se[key])
    return out


def sample_stats(rows, prefix: str) -> dict[str, tuple[float, float]]:
    """(mean, se) of the per-drop throughput samples of every arm and user."""
    groups: dict[str, list[float]] = {}
    for r in rows:
        if r.metric == "throughput_sample":
            groups.setdefault(f"{prefix}{r.arm}|{r.user}|throughput_sample", []).append(r.value)
    out = {}
    for key, values in groups.items():
        n = len(values)
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else math.nan
        out[key] = (mean, math.sqrt(var / n))
    return out


def compare_stats(stats, reference) -> list[str]:
    """Problems found comparing (mean, se) pairs with the reference's."""
    problems = []
    for key in sorted(set(reference) - set(stats)):
        problems.append(f"missing {key}")
    for key in sorted(set(stats) - set(reference)):
        problems.append(f"unexpected {key}")
    for key in sorted(set(stats) & set(reference)):
        (mean, se), (ref_mean, ref_se) = stats[key], reference[key]
        scale = math.hypot(se, ref_se)
        if not math.isfinite(scale):
            problems.append(f"{key}: standard error is not finite")
        elif abs(mean - ref_mean) > Z_MAX * scale:
            problems.append(
                f"{key}: {mean:.6g} vs reference {ref_mean:.6g} "
                f"(z = {abs(mean - ref_mean) / scale if scale else math.inf:.2f} > {Z_MAX})"
            )
    return problems


_CHECK_LINE = re.compile(
    r"^\s+(?P<step>\S+): lhs=(?P<lhs>\S+) rhs=(?P<rhs>\S+) se=(?P<se>\S+) \[(?:pass|FAIL)\]$"
)


def appendix_outcomes(rows, table: str) -> dict[str, dict]:
    """Pass/fail of every derivation-step check, with lhs/rhs/se from the table."""
    numbers = {}
    for line in table.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            numbers[m["step"]] = {k: float(m[k]) for k in ("lhs", "rhs", "se")}
    out = {}
    for r in rows:
        if r.metric.startswith("appendix_check:"):
            step = r.metric.split(":", 1)[1]
            out[step] = {"passed": r.value == 1.0, **numbers.get(step, {})}
    return out


def compare_appendix(outcomes, reference: dict) -> list[str]:
    problems = []
    if set(outcomes) != set(reference):
        problems.append(f"appendix steps {sorted(outcomes)} != reference {sorted(reference)}")
    for step in sorted(set(outcomes) & set(reference)):
        got = outcomes[step]
        if got["passed"] == reference[step]:
            continue
        if step in STATISTICAL_STEPS and "se" in got and got["se"] > 0:
            z = abs(got["lhs"] - got["rhs"]) / got["se"]
            if z <= Z_MAX:
                continue
        problems.append(f"appendix {step}: passed={got['passed']}, reference {reference[step]}")
    return problems
