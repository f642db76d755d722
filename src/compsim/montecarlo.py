"""Trial orchestration: reproducible Monte Carlo runs and random-drop CDFs.

Trials come as a stream of (context, link amplitudes, small-scale draws[,
spares]) runs. A fixed placement's trials are drawn ``rng.STREAM_TRIALS`` at
a time: stream block i, trials ``i * STREAM_TRIALS`` up to the next block, is
one draw from substream (TRIAL, i), whatever range or block reads it. A
random drop is one run of its own amplitudes, whose substream (DROP, d) draws
its placement and then all its trials. A range of drops builds and checks
the receive SNRs of all its placements in one pass, before any trial, and
resolves its codebooks once, unless the codebooks follow each drop (a global
codebook follows the user's energy split, so each cooperative drop needs its
own). One loop cuts the runs into blocks of at most ``BLOCK_TRIALS`` trials,
early only where the codebooks change between runs. A block evaluates the
configured feedback arm and the perfect-CSI arm on the same stacked channel
draws (common random numbers): feedback, the optional per-block
Gram-Schmidt, both zero-forcing precoders (each through the Gram matrix, with
an SVD tail for ill-conditioned trials) and the rates. The per-trial values
live in the ``TrialLog``, which aggregation folds in trial order; a
random-drop range folds the rows of all its drops into their means at once.
A block's temporaries are bounded whatever the trial count; a log holds three
floats per user and an ``ok`` flag per trial of its range, and a range of
drops keeps each drop's generator (about 1.7 kB) from its positions to its
trials.

A trial evaluates to the same bits in a block of any size, alone or among
others, so results do not depend on the block size, the chunk layout or the
worker count:
- its channels are fixed by its stream block (or drop) alone, and so are its
  Gram-Schmidt spares: row t of stream block i's one (STREAM_TRIALS, n_bs,
  n_users - 1, n_tx) draw from (REDRAW, i), in (BS, user) order;
- row norms, inner products and phases go through ``rows``, which rounds each
  row as numpy rounds a single vector;
- each trial's zero-forcing path (Gram matrix or SVD) is chosen from its own
  matrix, and the stacked eigenvalue, inverse and SVD calls, matrix products
  and column norms round each matrix of the stack as they would round it
  alone.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import channel, precoding, quantization, scheduling
from . import rng as rngmod
from . import scenario as scenariomod
from .errors import ConfigurationError, EstimationError

BLOCK_TRIALS = 256  # trials evaluated together; bounds a block's memory


@dataclass
class TrialContext:
    """Everything a worker needs to evaluate trials; must stay picklable."""

    large_scale: channel.LargeScaleMap
    n_tx: int
    feedback: quantization.ResolvedFeedback
    pairing: scheduling.PairingPolicy
    master_seed: int
    orthogonalize: bool = False  # bounds.orthogonalize_report the per-cell feedback first


@dataclass
class TrialLog:
    """Per-trial outcomes in trial order."""

    ideal: np.ndarray  # (trials, n_users) log2(1 + SINR), NaN where failed
    quantized: np.ndarray  # (trials, n_users)
    interference: np.ndarray  # (trials, n_users) residual interference power
    ok: np.ndarray  # (trials,) bool


@dataclass
class RunResult:
    """Aggregated statistics of one fixed-placement run: throughputs, the
    rate loss and the residual interference behind it.

    ``delta_r`` is mean[log2(1+SINR_ideal) - log2(1+SINR_quantized)] over the
    same channel draws; ``interference_log_bound`` is log2(1 + E{I}/sigma^2),
    the interference term of the standard limited-feedback argument that the
    closed-form bounds stand in for.
    """

    throughput_mean: np.ndarray  # (n_users,)
    throughput_se: np.ndarray
    ideal_throughput_mean: np.ndarray
    ideal_throughput_se: np.ndarray
    delta_r: np.ndarray  # per-user mean of (ideal - quantized), paired
    delta_r_se: np.ndarray
    interference_mean: np.ndarray  # residual interference power, P included
    interference_se: np.ndarray
    interference_log_bound: np.ndarray
    failures: int
    trials: int


@dataclass
class CdfResult:
    """Per-drop average throughput for the quantized and ideal arms."""

    quantized: np.ndarray  # (drops, n_users), NaN where the whole drop failed
    ideal: np.ndarray
    failed_draws: int


def _evaluate_block(ctx: TrialContext, alpha: np.ndarray, small_scale: np.ndarray,
                    spares: np.ndarray | None = None) -> TrialLog:
    """Evaluate both arms on a block of trials with the given link amplitudes,
    small-scale draws and, for an orthogonalized context, Gram-Schmidt spares.

    A trial is rejected (``ok`` False, NaN values) when the pairing rule or
    either zero-forcing precoder rejects it.
    """
    g = channel.realize_channels(alpha, small_scale)
    report = ctx.feedback.apply(small_scale, alpha, g)
    recon = g if report is None else report.reconstructed
    if spares is not None:
        from . import bounds  # imported here: bounds imports this module

        recon = bounds.orthogonalize_report(report, ctx.n_tx, spares)

    ok = scheduling.select_pairing(recon, ctx.pairing)
    ideal_pre, ideal_reason = precoding.zf_precoder(g)
    quant_pre, quant_reason = precoding.zf_precoder(recon)
    ok &= (ideal_reason == "ok") & (quant_reason == "ok")

    tx_power, noise_power = ctx.large_scale.tx_power, ctx.large_scale.noise_power
    shape = (len(g), ctx.large_scale.n_users)
    g = g[ok]
    ideal = precoding.instantaneous_rate(precoding.sinr(g, ideal_pre[ok], tx_power, noise_power))
    signal, interference = precoding.interference_power(g, quant_pre[ok], tx_power)
    quantized = precoding.instantaneous_rate(signal / (noise_power + interference))
    log = TrialLog(np.full(shape, np.nan), np.full(shape, np.nan), np.full(shape, np.nan), ok)
    log.ideal[ok], log.quantized[ok], log.interference[ok] = ideal, quantized, interference
    return log


def _concatenate(logs) -> TrialLog:
    """One log of the given logs' trials, in order."""
    fields = zip(*(vars(log).values() for log in logs))
    return TrialLog(*(np.concatenate(field) for field in fields))


def _small_scale(ctx: TrialContext, rng, trials: int) -> np.ndarray:
    """``trials`` small-scale draws of the context's links, in turn, from ``rng``."""
    return channel.sample_small_scale(ctx.large_scale.n_users, ctx.large_scale.n_bs, ctx.n_tx,
                                      rng, trials=trials)


def _trial_runs(ctx: TrialContext, start: int, stop: int):
    """Trials ``start..stop`` as (context, link amplitudes, small-scale
    draws[, spares]) runs, one per stream block they touch: stream block i,
    trials ``i * STREAM_TRIALS`` up to the next block, is drawn whole from
    substream (TRIAL, i), and an orthogonalized context's spares from
    (REDRAW, i), each cut to the range."""
    ls, size, alpha = ctx.large_scale, rngmod.STREAM_TRIALS, ctx.large_scale.alpha
    for i in range(start // size, -(-stop // size)):
        run = [_small_scale(ctx, rngmod.substream(ctx.master_seed, rngmod.TRIAL, i), size)]
        if ctx.orthogonalize:
            run.append(rngmod.complex_normal(rngmod.substream(ctx.master_seed, rngmod.REDRAW, i),
                                             (size, ls.n_bs, ls.n_users - 1, ctx.n_tx)))
        yield ctx, alpha, *(draws[max(start - i * size, 0):stop - i * size] for draws in run)


def _blocks(runs):
    """Cut (context, amplitudes, draws...) runs, in order, into blocks of at
    most ``BLOCK_TRIALS`` trials, each a list of (context, amplitudes, draws)
    pieces cut from all of a run's draws at the same trials: a block is cut
    early only where the codebooks change between runs."""
    block, size = [], 0
    for ctx, alpha, *draws in runs:
        if block and not block[-1][0].feedback.shares_codebooks(ctx.feedback):
            yield block
            block, size = [], 0
        while len(draws[0]):
            if size == BLOCK_TRIALS:
                yield block
                block, size = [], 0
            piece = [d[:BLOCK_TRIALS - size] for d in draws]
            draws = [d[len(piece[0]):] for d in draws]
            block.append((ctx, alpha, piece))
            size += len(piece[0])
    if block:
        yield block


def _run_range(args) -> TrialLog:
    """Evaluate ``runs(payload, start, stop)`` block by block. Each trial of
    a block carries its run's link amplitudes on the block's trial axis."""
    (runs, payload), start, stop = args
    logs = []
    for block in _blocks(runs(payload, start, stop)):
        alpha = np.repeat(np.stack([a for _, a, _ in block]),
                          [len(draws[0]) for *_, draws in block], axis=0)
        draws = [np.concatenate(pieces) for pieces in zip(*(draws for *_, draws in block))]
        logs.append(_evaluate_block(block[0][0], alpha, *draws))
    return _concatenate(logs)


def check_workers(workers: int) -> None:
    """Reject a pool size below one."""
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")


def _map_ranges(fn, payload, total: int, workers: int) -> list:
    """Apply ``fn((payload, start, stop))`` over contiguous ranges of
    ``range(total)``, in range order: one range per worker, in a process pool
    when there is more than one, so each worker fills whole blocks."""
    check_workers(workers)
    size = math.ceil(total / workers)
    tasks = [(payload, a, min(a + size, total)) for a in range(0, total, size)]
    if len(tasks) == 1:
        return [fn(task) for task in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=len(tasks)) as pool:
        return list(pool.map(fn, tasks))


def run_trials(ctx: TrialContext, trials: int, workers: int = 1) -> TrialLog:
    """Evaluate ``trials`` independent trials; fold results in trial order."""
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    return _concatenate(_map_ranges(_run_range, (_trial_runs, ctx), trials, workers))


def _mean_se(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = samples.shape[0]
    mean = samples.mean(axis=0)
    if n > 1:
        se = samples.std(axis=0, ddof=1) / np.sqrt(n)
    else:
        se = np.full(samples.shape[1], np.nan)
    return mean, se


def large_scale_map(scn: scenariomod.Scenario, positions) -> channel.LargeScaleMap:
    """The large-scale map of ``scn`` with its users at ``positions``.

    A scenario with as many users as cells is cooperative and places exactly
    one user per cell; the single-cell baseline places several in one cell.
    """
    return channel.build_large_scale(
        positions,
        scn.geometry,
        tx_power=scn.tx_power,
        noise_power=scn.noise_power,
        require_one_per_cell=scn.n_users == scn.geometry.n_cells,
    )


def _context(scn: scenariomod.Scenario, large_scale: channel.LargeScaleMap,
             orthogonalize=False) -> TrialContext:
    return TrialContext(
        large_scale=large_scale,
        n_tx=scn.n_tx,
        feedback=quantization.resolve_codebooks(scn.feedback, scn.n_tx, large_scale),
        pairing=scn.pairing,
        master_seed=scn.master_seed,
        orthogonalize=orthogonalize,
    )


def build_context(scn: scenariomod.Scenario, orthogonalize: bool = False) -> TrialContext:
    """Resolve a fixed-placement scenario into a trial context; perfect CSI
    has nothing to orthogonalize."""
    if scn.placement.mode != "fixed":
        raise ConfigurationError(
            "build_context requires fixed placement; resolve sweeps with "
            "scenario.resolved_points or use run_cdf for random placement"
        )
    mode = scn.feedback.mode if orthogonalize else "perfect"
    if mode == "global":
        raise ConfigurationError("orthogonal construction requires per-cell feedback")
    if mode == "per_cell" and scn.n_users - 1 >= scn.n_tx:
        raise ConfigurationError("per-block orthogonalization needs n_tx > n_users - 1")
    return _context(scn, large_scale_map(scn, scn.placement.positions), mode == "per_cell")


def aggregate(scn: scenariomod.Scenario, log: TrialLog) -> RunResult:
    """Fold a fixed-placement scenario's trial log into its statistics."""
    ok = log.ok
    if not ok.any():
        raise EstimationError("all trials failed (precoding rejected every pairing)")
    quant_ok = log.quantized[ok]
    ideal_ok = log.ideal[ok]
    t_mean, t_se = _mean_se(quant_ok)
    i_mean, i_se = _mean_se(ideal_ok)
    loss_mean, loss_se = _mean_se(ideal_ok - quant_ok)
    interference_mean, interference_se = _mean_se(log.interference[ok])
    return RunResult(
        throughput_mean=t_mean,
        throughput_se=t_se,
        ideal_throughput_mean=i_mean,
        ideal_throughput_se=i_se,
        delta_r=loss_mean,
        delta_r_se=loss_se,
        interference_mean=interference_mean,
        interference_se=interference_se,
        interference_log_bound=np.log2(1.0 + interference_mean / scn.noise_power),
        failures=int(scn.trials - ok.sum()),
        trials=scn.trials,
    )


def run(scn: scenariomod.Scenario, workers: int = 1, orthogonalize: bool = False) -> RunResult:
    """Run a fixed-placement scenario and aggregate its statistics."""
    ctx = build_context(scn, orthogonalize=orthogonalize)
    return aggregate(scn, run_trials(ctx, scn.trials, workers=workers))


# ---------------------------------------------------------------------------
# Random drops
# ---------------------------------------------------------------------------

def _positions(scn: scenariomod.Scenario, uniforms: np.ndarray) -> np.ndarray:
    """The (..., n_users, 2) positions of drops from their (..., 2 * n_users)
    uniforms on [0, 1): user k takes its radius from ``uniforms[..., 2k]``
    and its angle from ``uniforms[..., 2k + 1]``, uniform over its cell disc
    outside the d_min core.

    User k belongs to cell k mod n_cells, so the single-cell multi-user
    baseline drops every user in the one cell.
    """
    geom = scn.geometry
    radius = np.sqrt(geom.d_min_m**2 + (geom.cell_radius_m**2 - geom.d_min_m**2)
                     * uniforms[..., 0::2])
    angle = 2.0 * np.pi * uniforms[..., 1::2]
    centers = geom.bs_positions[np.arange(scn.n_users) % geom.n_cells]
    return centers + radius[..., None] * np.stack([np.cos(angle), np.sin(angle)], axis=-1)


def _draw_positions(scn: scenariomod.Scenario, rng) -> np.ndarray:
    """One drop's (n_users, 2) positions from one draw of its 2 * n_users
    uniforms: the doubles that a ``uniform()`` radius and a ``uniform(0, 2 pi)``
    angle per user take from ``rng`` in turn, since uniform(0, 2 pi) is 2 pi u."""
    return _positions(scn, rng.random(2 * scn.n_users))


def _drop_runs(scn: scenariomod.Scenario, start: int, stop: int):
    """Drops ``start..stop`` as (context, link amplitudes, small-scale draws)
    runs, one per drop: its substream (DROP, d) draws its positions, then all
    its trials. The receive SNRs of the whole range are built and checked in
    one pass before any trial is drawn.

    Per-cell codebooks, and a single cell's global ones (each user's whole
    energy is on the one BS), are the same for every drop, so the range
    resolves them once, from its first drop's map, into one context that
    all its drops share (a block reads only the powers and the user count
    from the context's map). A cooperative global codebook follows its
    user's energy split, so each cooperative drop resolves its own through
    the cache, and ``_blocks`` cuts there.
    """
    gens = [rngmod.substream(scn.master_seed, rngmod.DROP, d) for d in range(start, stop)]
    positions = _positions(scn, np.stack([gen.random(2 * scn.n_users) for gen in gens]))
    snr = channel.link_snr(positions, scn.geometry)
    alpha_sq = channel.link_energies(snr, scn.tx_power, scn.noise_power)

    def context(snr_map):
        return _context(scn, channel.LargeScaleMap(snr_map, scn.tx_power, scn.noise_power))

    if scn.feedback.mode == "global" and scn.geometry.n_cells > 1:
        contexts = map(context, snr)
    else:
        if scn.feedback.mode == "global":
            channel.energy_split(alpha_sq)  # rejects a user with no link energy in any drop
        contexts = itertools.repeat(context(snr[0]))
    for gen, alpha, ctx in zip(gens, np.sqrt(alpha_sq), contexts):
        yield ctx, alpha, _small_scale(ctx, gen, scn.trials_per_drop)


def _drop_means(args) -> tuple:
    """Per-drop mean throughputs of drops ``start..stop`` (NaN where every
    trial failed) and their failed trials: a worker sends back only these.

    The means of the whole range fold at once over a (drops, trials_per_drop,
    n_users) view, a failed trial adding 0. These are the bits of each drop's
    own ``mean(axis=0)`` over its passed trials: numpy sums both in trial
    order, and a single user's column pairwise, which gives the same bits
    when every trial of the drop passes (a single user's trial fails only
    where its channel's energy underflows or overflows)."""
    scn, start, stop = args
    log = _run_range(((_drop_runs, scn), start, stop))
    ok = log.ok.reshape(stop - start, scn.trials_per_drop)
    count = np.count_nonzero(ok, axis=1)[:, None]

    def means(values):
        total = np.where(ok[..., None], values.reshape(*ok.shape, -1), 0.0).sum(axis=1)
        with np.errstate(invalid="ignore"):  # 0 / 0: a drop whose every trial failed
            return total / count

    return means(log.quantized), means(log.ideal), int(np.count_nonzero(~ok))


def run_cdf(scn: scenariomod.Scenario, workers: int = 1) -> CdfResult:
    """Random-drop run: per-drop throughput averaged over small-scale fading."""
    if scn.placement.mode != "random_uniform":
        raise ConfigurationError("run_cdf requires random_uniform placement")
    # The codebooks a range resolves once are the same in every range:
    # resolving drop 0's here caches them before the pool forks, so they are
    # trained once and not once per worker.
    next(_drop_runs(scn, 0, 1))
    parts = _map_ranges(_drop_means, scn, scn.drops, workers)
    quant = np.concatenate([p[0] for p in parts])
    ideal = np.concatenate([p[1] for p in parts])
    if np.isnan(quant[:, 0]).all():
        raise EstimationError("every drop failed")
    return CdfResult(quantized=quant, ideal=ideal, failed_draws=sum(p[2] for p in parts))
