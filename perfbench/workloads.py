"""The benchmark workloads, the trace targets and the per-layer metrics.

Workloads drive compsim from outside: through ``compsim.cli.main`` wherever
the CLI can express them, else through the public library. Each one stresses
a different layer (see README.md in this directory for why each exists).
Import this module only after ``bench.prepare`` has pinned BLAS threads.
"""

from __future__ import annotations

import contextlib
import io
import pickle
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import checks
from compsim import bounds, channel, cli, montecarlo, precoding, quantization
from compsim import rng as rngmod
from compsim import scenario, scheduling
from spans import SpanStats, Tracer


# Bound at import, before any tracer wraps ``cli.format_rows``: the bound
# grid writes its own CSV with it, and that is no work of a compsim command,
# so it must not count in the cli.* spans.
_format_rows = cli.format_rows


class WorkloadError(Exception):
    pass


@dataclass
class Raw:
    """What one iteration produced: CSV texts in a fixed order, the printed
    bound table where there is one, and the wall time of its pooled part."""

    csvs: list
    table: str = ""
    pool_seconds: float = 0.0


@dataclass
class Analysis:
    rejected: int  # trials the program rejected (ZF guard or pairing)
    stats: dict  # reference key -> (mean, se)
    appendix: dict = field(default_factory=dict)


def _cli(argv) -> str:
    """Run ``compsim`` in-process; returns its stdout, raises on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise WorkloadError(f"compsim {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _resolve_preset(name: str) -> None:
    """Resolve every codebook of a swept preset, as ``simulate`` would."""
    for arm in scenario.preset(name).arms:
        for _, fixed in scenario.resolved_points(arm.scenario):
            montecarlo.build_context(fixed)


class Workload:
    name = ""
    setup_repeats = 3  # cold set-ups per end-to-end run
    workers = 1  # pool size of the end-to-end run
    points = 0  # fixed-placement points per iteration
    trials = 0  # channel realizations attempted per iteration
    outputs = 1  # CSVs per iteration

    def __init__(self, seed: int, workdir: Path, scale: int = 1):
        self.seed = seed
        self.workdir = workdir
        self.scale = scale

    def size(self) -> dict:
        """Trial, point and drop counts, for the provenance record."""
        raise NotImplementedError

    def setup(self) -> None:
        """Resolve every codebook the workload needs, from an empty cache."""
        quantization.clear_codebook_cache()
        self.resolve()

    def resolve(self) -> None:
        raise NotImplementedError

    def iterate(self, workers: int) -> Raw:
        raise NotImplementedError

    def analyze(self, raw: Raw) -> Analysis:
        rows = [r for text in raw.csvs for r in checks.parse_csv(text, self.seed)]
        return Analysis(checks.rejected(rows), checks.point_stats(rows))

    def task_bytes(self) -> int:
        """Pickled size of one process-pool task; 0 where no pool is used."""
        return 0


class PresetSweep(Workload):
    """``compsim simulate --preset`` over a swept preset at reduced trials."""

    trials_per_point = 300

    def __init__(self, seed, workdir, scale=1):
        super().__init__(seed, workdir, scale)
        exp = scenario.preset(self.preset)
        self.points = sum(len(scenario.resolved_points(a.scenario)) for a in exp.arms)
        self.trials = self.points * self.trials_per_point * scale

    def size(self):
        return {"points": self.points, "trials_per_point": self.trials_per_point * self.scale,
                "trials": self.trials}

    def resolve(self):
        _resolve_preset(self.preset)

    def iterate(self, workers):
        out = self.workdir / f"{self.name}.csv"
        _cli(["simulate", "--preset", self.preset,
              "--trials", str(self.trials_per_point * self.scale),
              "--seed", str(self.seed), "--workers", str(workers), "--out", str(out)])
        return Raw([out.read_text(encoding="ascii")])


class SweepPercell(PresetSweep):
    name = "sweep-percell"
    preset = "fig3"


class CodebookGlobal(PresetSweep):
    name = "codebook-global"
    preset = "fig4"


class DropsCdf(Workload):
    """Both fig5 arms, drops reduced, through ``simulate --config`` and the pool."""

    name = "drops-cdf"
    workers = 2
    drops = 200

    def __init__(self, seed, workdir, scale=1):
        super().__init__(seed, workdir, scale)
        self.arms = []
        for arm in scenario.preset("fig5").arms:
            scn = replace(arm.scenario, drops=self.drops * scale)
            path = workdir / f"{arm.label}.json"
            path.write_text(scenario.serialize(scn), encoding="utf-8")
            self.arms.append((arm.label, scn, path))
        self.trials = sum(s.drops * s.trials_per_drop for _, s, _ in self.arms)
        self.outputs = len(self.arms)

    def size(self):
        return {"arms": len(self.arms), "drops": self.drops * self.scale,
                "trials_per_drop": self.arms[0][1].trials_per_drop, "trials": self.trials}

    def resolve(self):
        for _, scn, _ in self.arms:
            # Any drop needs the same codebooks: per-cell ones depend on the
            # bits only, the single-cell global one on a profile that is [1].
            geom = scn.geometry
            positions = [geom.bs_positions[k % geom.n_cells] + [100.0, 0.0]
                         for k in range(scn.n_users)]
            large_scale = channel.build_large_scale(
                positions, geom, tx_power=scn.tx_power, noise_power=scn.noise_power,
                require_one_per_cell=False,
            )
            quantization.resolve_codebooks(scn.feedback, scn.n_tx, large_scale)

    def iterate(self, workers):
        start = perf_counter()
        texts = []
        for label, _, path in self.arms:
            out = self.workdir / f"{label}.csv"
            _cli(["simulate", "--config", str(path), "--seed", str(self.seed),
                  "--workers", str(workers), "--out", str(out)])
            texts.append(out.read_text(encoding="ascii"))
        return Raw(texts, pool_seconds=perf_counter() - start)

    def analyze(self, raw):
        rejected, stats = 0, {}
        for (label, _, _), text in zip(self.arms, raw.csvs):
            rows = checks.parse_csv(text, self.seed)
            rejected += checks.rejected(rows)
            stats.update(checks.sample_stats(rows, prefix=f"{label}|"))
        return Analysis(rejected, stats)

    def task_bytes(self):
        sizes = []
        for _, scn, path in self.arms:
            parsed = replace(scenario.parse(path.read_text(encoding="utf-8")),
                             master_seed=self.seed)
            sizes.append(len(pickle.dumps((parsed, 0, scn.drops))))
        return int(statistics.mean(sizes))


class BoundGrid(Workload):
    """Orthogonalized rate-loss Monte Carlo over the fig3 grid, then
    ``compsim bound --preset fig3 --at 50 --verify-appendix``."""

    name = "bound-grid"
    outputs = 2
    trials_per_point = 200
    at_m = 50.0

    def __init__(self, seed, workdir, scale=1):
        super().__init__(seed, workdir, scale)
        self.grid = [(arm.label, value, fixed)
                     for arm in scenario.preset("fig3").arms
                     for value, fixed in scenario.resolved_points(arm.scenario)]
        self.points = len(self.grid) + 1  # the bound command builds one more
        self.trials = len(self.grid) * self.trials_per_point * scale

    def size(self):
        return {"points": len(self.grid), "trials_per_point": self.trials_per_point * self.scale,
                "trials": self.trials, "appendix_draws": 100_000}

    def resolve(self):
        _resolve_preset("fig3")

    def iterate(self, workers):
        per_point = self.trials_per_point * self.scale
        rows = []
        for label, value, fixed in self.grid:
            est = bounds.rate_loss_montecarlo(fixed, trials=per_point, master_seed=self.seed,
                                              orthogonalize=True, workers=workers)
            for k in range(fixed.n_users):
                for metric, v in (("delta_r", est.delta_r[k]), ("delta_r_se", est.delta_r_se[k])):
                    rows.append(cli.MetricsRow("fig3", label, "ms1_distance_m", value, k,
                                               metric, float(v), per_point, self.seed))
            rows.append(cli.MetricsRow("fig3", label, "ms1_distance_m", value, None,
                                       "failures", float(est.failures), per_point, self.seed))
        grid_csv = _format_rows(rows)
        out = self.workdir / f"{self.name}.csv"
        table = _cli(["bound", "--preset", "fig3", "--at", f"{self.at_m:g}", "--verify-appendix",
                      "--seed", str(self.seed), "--out", str(out)])
        return Raw([grid_csv, out.read_text(encoding="ascii")], table)

    def analyze(self, raw):
        grid_rows = checks.parse_csv(raw.csvs[0], self.seed)
        bound_rows = checks.parse_csv(raw.csvs[1], self.seed)
        return Analysis(checks.rejected(grid_rows), checks.point_stats(grid_rows),
                        checks.appendix_outcomes(bound_rows, raw.table))


class Composite(Workload):
    """Several parts run back to back as one workload.

    Parts are grouped so that each run lasts long enough for its samples to
    average over the machine's slow drifts in speed, while ten runs of every
    workload, twice, still fit in under an hour. Each part runs at its own
    pool size, capped by the iteration's.
    """

    part_types = ()

    def __init__(self, seed, workdir, scale=1):
        super().__init__(seed, workdir, scale)
        self.parts = tuple(t(seed, workdir, scale) for t in self.part_types)
        self.workers = max(p.workers for p in self.parts)
        self.points = sum(p.points for p in self.parts)
        self.trials = sum(p.trials for p in self.parts)
        self.outputs = sum(p.outputs for p in self.parts)

    def size(self):
        return {p.name: p.size() for p in self.parts}

    def resolve(self):
        for p in self.parts:
            p.resolve()

    def iterate(self, workers):
        raws = [p.iterate(min(workers, p.workers)) for p in self.parts]
        return Raw([text for r in raws for text in r.csvs], "".join(r.table for r in raws),
                   sum(r.pool_seconds for r in raws))

    def analyze(self, raw):
        out, start = Analysis(0, {}), 0
        for p in self.parts:
            part = p.analyze(Raw(raw.csvs[start:start + p.outputs], raw.table))
            start += p.outputs
            out.rejected += part.rejected
            out.stats.update(part.stats)
            out.appendix.update(part.appendix)
        return out

    def task_bytes(self):
        return max(p.task_bytes() for p in self.parts)


class SweepBound(Composite):
    name = "sweep-bound"
    setup_repeats = 10
    part_types = (SweepPercell, BoundGrid)


class CodebookDrops(Composite):
    name = "codebook-drops"
    setup_repeats = 2  # each cold set-up trains 10 codebooks, about 11 s
    part_types = (CodebookGlobal, DropsCdf)


WORKLOADS = {w.name: w for w in (SweepBound, CodebookDrops)}


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def _lloyd_meta(cb):
    meta = cb.training_meta or {}
    return meta.get("iterations", 0), bool(meta.get("converged", False))


# Every public function whose layer metrics the benchmark reports. Each is
# looked up through its module at call time by the code that calls it.
TRACE_TARGETS = [
    (rngmod, "substream", None),
    (channel, "realize_channels", None),
    (channel, "build_large_scale", None),
    (quantization, "per_cell_feedback", None),
    (quantization, "global_feedback", None),
    (quantization, "train_lloyd", _lloyd_meta),
    (quantization, "expected_error", None),
    (quantization, "resolve_codebooks", None),
    (precoding, "zf_precoder", None),
    (precoding, "sinr", None),
    (precoding, "interference_power", None),
    (precoding, "instantaneous_rate", None),
    (scheduling, "select_pairing", None),
    (bounds, "orthogonalize_report", None),
    (bounds, "verify_appendix", None),
    (bounds, "rate_loss_montecarlo", None),
    (montecarlo, "run", None),
    (montecarlo, "run_cdf", None),
    (montecarlo, "run_trials", None),
    (montecarlo, "build_context", None),
    (cli, "main", None),
    (cli, "format_rows", None),
]


def make_tracer() -> Tracer:
    return Tracer(TRACE_TARGETS)


def layer_metrics(workload: Workload, run) -> dict:
    """Per-layer metrics of a ``bench.traced`` run: name -> (value, unit).

    Counts are per iteration, times per trial or per call over the traced
    iterations; set-up metrics come from the traced cold set-up (run 0).
    Metrics of a layer the workload never enters read 0.
    """
    n = len(run.traced)
    trials = workload.trials * n
    it = run.tracer.stats(run.traced_runs)
    setup = run.tracer.stats([0])

    def get(stats, name):
        return stats.get(name, SpanStats())

    def ratio(a, b):
        return a / b if b else 0.0

    def us_per_call(name):
        s = get(it, name)
        return ratio(s.self_ns / 1e3, s.calls), "us"

    def us_per_trial(name):
        return ratio(get(it, name).self_ns / 1e3, trials), "us"

    def calls(name):
        return ratio(get(it, name).calls, n), "count"

    def s_per_iteration(ns):
        return ratio(ns / 1e9, n), "s"

    lloyd = [v for r, v in run.tracer.observed["quantization.train_lloyd"] if r == 0]
    lloyd_setup = get(setup, "quantization.train_lloyd")
    error_setup = get(setup, "quantization.expected_error")
    montecarlo_self = sum(s.self_ns for name, s in it.items() if name.startswith("montecarlo."))
    untraced = statistics.median(i.seconds for i in run.untraced)
    traced = statistics.median(i.seconds for i in run.traced)
    if run.pooled:
        efficiency = statistics.median(i.pool_seconds for i in run.untraced) / (
            workload.workers * statistics.median(i.pool_seconds for i in run.pooled))
    else:
        efficiency = 0.0
    return {
        "rng.substream.calls_per_trial": (ratio(get(it, "rng.substream").calls, trials), "count"),
        "rng.substream.self_us_per_trial": us_per_trial("rng.substream"),
        "channel.realize_channels.self_us_per_trial": us_per_trial("channel.realize_channels"),
        "channel.build_large_scale.calls": calls("channel.build_large_scale"),
        "quantization.per_cell_feedback.self_us_per_call": us_per_call("quantization.per_cell_feedback"),
        "quantization.global_feedback.self_us_per_call": us_per_call("quantization.global_feedback"),
        "quantization.train_lloyd.calls": (lloyd_setup.calls, "count"),
        "quantization.train_lloyd.self_s_per_codebook": (
            ratio(lloyd_setup.self_ns / 1e9, lloyd_setup.calls), "s"),
        "quantization.train_lloyd.iterations_mean": (
            ratio(sum(i for i, _ in lloyd), len(lloyd)), "count"),
        "quantization.train_lloyd.converged_frac": (
            ratio(sum(c for _, c in lloyd), len(lloyd)), "fraction"),
        "quantization.expected_error.self_s_per_call": (
            ratio(error_setup.self_ns / 1e9, error_setup.calls), "s"),
        "quantization.resolve_codebooks.calls": calls("quantization.resolve_codebooks"),
        "precoding.zf_precoder.self_us_per_call": us_per_call("precoding.zf_precoder"),
        "precoding.zf_precoder.rejected": (ratio(get(it, "precoding.zf_precoder").errors, n), "count"),
        "precoding.sinr.self_us_per_call": us_per_call("precoding.sinr"),
        "precoding.interference_power.self_us_per_call": us_per_call("precoding.interference_power"),
        "precoding.instantaneous_rate.self_us_per_call": us_per_call("precoding.instantaneous_rate"),
        "scheduling.select_pairing.calls": calls("scheduling.select_pairing"),
        "bounds.orthogonalize_report.self_us_per_call": us_per_call("bounds.orthogonalize_report"),
        "bounds.verify_appendix.self_s": s_per_iteration(get(it, "bounds.verify_appendix").self_ns),
        "bounds.rate_loss_montecarlo.self_s": s_per_iteration(
            get(it, "bounds.rate_loss_montecarlo").self_ns),
        "montecarlo.self_us_per_trial": (ratio(montecarlo_self / 1e3, trials), "us"),
        "montecarlo.build_context.calls_per_point": (
            ratio(get(it, "montecarlo.build_context").calls, n * workload.points), "count"),
        "montecarlo.pool.efficiency": (efficiency, "fraction"),
        "montecarlo.pool.task_bytes": (workload.task_bytes(), "B"),
        "cli.self_s": s_per_iteration(get(it, "cli.main").self_ns),
        "cli.format_rows.self_s": s_per_iteration(get(it, "cli.format_rows").self_ns),
        "trace.overhead_frac": (traced / untraced - 1.0, "fraction"),
    }


def trace_table(run) -> dict:
    """Calls, total and self seconds and self share of traced wall time, by span name."""
    wall_ns = sum(i.seconds for i in run.traced) * 1e9
    stats = run.tracer.stats(run.traced_runs)
    return {
        name: {"calls": s.calls, "total_s": s.total_ns / 1e9, "self_s": s.self_ns / 1e9,
               "self_share": s.self_ns / wall_ns}
        for name, s in sorted(stats.items(), key=lambda kv: -kv[1].self_ns)
    }

