"""Measurement loops shared by every workload, and the process set-up.

This module imports nothing from compsim or numpy, so that ``prepare`` can
pin BLAS threads before numpy is first imported.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from checks import CheckError, compare_appendix, compare_stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# One BLAS thread per process: numpy's OpenBLAS allows 64 threads, so 2 pool
# workers on a 2-CPU machine could otherwise oversubscribe it.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class SetupError(Exception):
    pass


def prepare() -> Path:
    """Pin BLAS, keep temporary files in the checkout, import compsim from src/.

    Returns a fresh scratch directory under ``.perfbench/`` for the caller to
    remove. Raises SetupError when the checkout holds no compsim sources.
    """
    if not (SRC / "compsim" / "__init__.py").is_file():
        raise SetupError(f"no compsim sources under {SRC}")
    os.environ.update(BLAS_ENV)
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    sys.path.insert(0, str(SRC))
    import compsim

    if Path(compsim.__file__).resolve().parent != SRC / "compsim":
        raise SetupError(f"imported compsim from {compsim.__file__}, not {SRC}")
    return scratch


@dataclass
class Iteration:
    """One execution of a workload: its wall time and checked outcome."""

    seconds: float
    attempted: int  # channel realizations, rejected ones included
    accepted: int  # 0 when the iteration raised or failed a check
    problems: list = field(default_factory=list)
    digest: str | None = None  # sha256 of the CSV outputs
    pool_seconds: float = 0.0  # wall time of the parts that can use a pool

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_once(workload, workers: int, reference: dict) -> Iteration:
    """Execute and check one iteration; an exception fails all its trials."""
    start = perf_counter()
    try:
        raw = workload.iterate(workers)
    except Exception as exc:
        seconds = perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return Iteration(seconds, workload.trials, 0, [f"iteration raised {exc!r}"])
    seconds = perf_counter() - start
    digest = hashlib.sha256("".join(raw.csvs).encode()).hexdigest()
    try:
        result = workload.analyze(raw)
    except CheckError as exc:
        return Iteration(seconds, workload.trials, 0, [str(exc)], digest)
    problems = compare_stats(result.stats, reference["stats"])
    if "appendix" in reference:
        problems += compare_appendix(result.appendix, reference["appendix"])
    accepted = 0 if problems else workload.trials - result.rejected
    return Iteration(seconds, workload.trials, accepted, problems, digest, raw.pool_seconds)


def timed(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest child's.

    Pool workers run equal shares of the drops, so this is the sum of the
    peaks of the parent and its workers, up to the spread between workers.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


# The median time of ``gauge()`` on the baseline host (see README.md). A
# run's median gauge time over this is its reference second, ``ref_s``, in
# wall seconds.
GAUGE_NOMINAL_S = 0.15


def yardstick() -> float:
    """A fixed piece of work shaped like compsim's trial loop: small complex
    SVDs under a Python loop, then a vectorized nearest-codeword search.
    Returns a checksum so that nothing is optimized away."""
    import numpy as np

    rng = np.random.default_rng(12345)
    h = rng.standard_normal((200, 2, 8)) + 1j * rng.standard_normal((200, 2, 8))
    acc = 0.0
    for k in range(200):
        _, s, vh = np.linalg.svd(h[k], full_matrices=False)
        acc += float(np.abs(h[k] @ (vh.conj().T / s)).sum())
    x = rng.standard_normal((4000, 16))
    cb = rng.standard_normal((64, 16))
    for _ in range(4):
        d = (x * x).sum(1)[:, None] - 2 * x @ cb.T + (cb * cb).sum(1)
        idx = d.argmin(1)
        cb = np.array([x[idx == j].mean(0) if (idx == j).any() else cb[j] for j in range(64)])
    return acc + float(cb.sum())


def gauge() -> float:
    """Wall time of five yardsticks: the host's current pace."""
    return timed(lambda: [yardstick() for _ in range(5)])


def end_to_end(workload, seconds: float, reference: dict):
    """Cold set-ups interleaved with warm iterations, all within ``seconds``.

    The run is ``setup_repeats`` slots of equal length. Each starts with a
    set-up from an empty codebook cache and then iterates while the next
    iteration, if it lasts as long as the last one, still ends in the slot;
    every slot holds at least one. Spreading both kinds of sample over the
    whole run averages them over the machine's phases of contention instead
    of sampling one. The first iteration is a discarded warm-up. Every
    iteration, the warm-up included, is checked.

    The shared host's speed drifts by up to 2x over minutes, and the trial
    loop's speed with it, so ``trials_per_ref_s`` counts time in reference
    seconds: the timed iterations' trials over their summed time, times the
    run's median ``gauge()`` over GAUGE_NOMINAL_S. The gauge runs before
    every timed iteration. A change to compsim moves the metric; a
    change of the host's pace moves gauge and trial loop alike and mostly
    cancels. Set-up, vectorized Lloyd training, does not follow the gauge,
    so ``setup_s`` stays in wall seconds.

    Returns (metrics, iterations, samples): metrics map name to (value,
    unit); samples holds the raw set-up, gauge and iteration times and the
    wall-clock trial rate and time to CSV.
    """
    yardstick()  # the first call pays numpy's one-time costs
    start = perf_counter()
    setups, measured, warmup, gauges = [], [], None, []
    for slot in range(workload.setup_repeats):
        slot_end = seconds * (slot + 1) / workload.setup_repeats
        setups.append(timed(workload.setup))
        if warmup is None:
            warmup = run_once(workload, workload.workers, reference)
        while True:
            gauges.append(gauge())
            measured.append(run_once(workload, workload.workers, reference))
            if perf_counter() - start + measured[-1].seconds > slot_end:
                break
    iterations = [warmup] + measured
    setup_s = statistics.median(setups)
    busy_s = sum(i.seconds for i in measured)
    wall_rate = sum(i.attempted for i in measured) / busy_s
    pace = statistics.median(gauges) / GAUGE_NOMINAL_S
    metrics = {
        "setup_s": (setup_s, "s"),
        "trials_per_ref_s": (wall_rate * pace, "1/ref_s"),
        "peak_rss_mb": (peak_rss_mb(workload.workers), "MB"),
        "ok_frac": (
            sum(i.accepted for i in iterations) / sum(i.attempted for i in iterations),
            "fraction",
        ),
    }
    samples = {
        "setup_samples_s": setups,
        "gauge_samples_s": gauges,
        "iteration_seconds": [i.seconds for i in iterations],
        "wall_trials_per_s": wall_rate,
        "wall_time_to_csv_s": setup_s + busy_s / len(measured),
    }
    return metrics, iterations, samples


@dataclass
class TracedRun:
    tracer: object
    traced_runs: list  # run ids of the traced iterations; run 0 is the set-up
    traced: list  # Iterations at 1 worker with tracing on
    untraced: list  # Iterations at 1 worker, tracing off
    pooled: list  # Iterations at the workload's pool size, tracing off
    warmup: Iteration

    @property
    def iterations(self) -> list:
        return [self.warmup] + self.traced + self.untraced + self.pooled


def traced(workload, seconds: float, reference: dict, tracer) -> TracedRun:
    """One traced cold set-up, a warm-up, then rounds of 1-worker iterations
    until ``seconds`` have passed since the set-up began.

    Traced iterations use one worker, because spans recorded in forked pool
    workers would be lost. Each round pairs a traced iteration with an
    untraced one, the tracing-overhead baseline, in alternating order. Pooled
    workloads then run as many untraced iterations at their pool size; these
    come last because the parent pays page faults on memory it shared with
    forked workers, which would slow whichever iteration followed them.
    """
    start = perf_counter()
    tracer.install(run=0)
    try:
        workload.setup()
    finally:
        tracer.restore()
    out = TracedRun(tracer, [], [], [], [], run_once(workload, 1, reference))
    while not out.traced or perf_counter() - start < seconds:
        run = len(out.traced) + 1
        if run % 2:
            out.untraced.append(run_once(workload, 1, reference))
        tracer.install(run=run)
        try:
            out.traced.append(run_once(workload, 1, reference))
        finally:
            tracer.restore()
        out.traced_runs.append(run)
        if not run % 2:
            out.untraced.append(run_once(workload, 1, reference))
    if workload.workers > 1:
        out.pooled = [run_once(workload, workload.workers, reference) for _ in out.untraced]
    return out
