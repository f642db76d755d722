"""Channel-direction quantization: codebooks, Lloyd training, feedback reports.

A codebook is a set of 2^B unit-norm complex row vectors. Quantization picks
the codeword maximizing |v_bar c^H|^2 where v_bar = v / ||v||; the error is
the squared chordal distance sin^2(theta) = 1 - |v_bar c^H|^2, invariant to
phase rotations of v.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import channel, rows, rng as rngmod
from .errors import ConfigurationError, DomainError, TrainingError, raise_problems

DEFAULT_LLOYD_OVERSAMPLING = 200  # training samples per codeword
MIN_LLOYD_OVERSAMPLING = 100
DEFAULT_LLOYD_MAX_ITERS = 100
DEFAULT_LLOYD_TOL = 1e-6  # relative mean-distortion improvement
DEFAULT_ERROR_ESTIMATE_DRAWS = 100_000
BLOCK_ROWS = 8192  # rows a Monte Carlo estimate evaluates at once; bounds its memory
CODEBOOK_CACHE_SIZE = 32  # codebooks the cache keeps, the least recently used evicted first

_UNIT_NORM_TOL = 1e-12


def _bits_problem(bits) -> str | None:
    """Why ``bits`` cannot size a codebook, or None: it must be an integer in
    [0, 63), so that the 2^bits codewords are countable by int64 indices."""
    if isinstance(bits, bool) or not isinstance(bits, int):
        return "must be an integer"
    if not 0 <= bits < 63:
        return "must be in [0, 63)"
    return None


@dataclass
class Codebook:
    """2^bits unit-norm complex row vectors of a fixed dimension."""

    codewords: np.ndarray  # (2**bits, dimension)
    bits: int
    kind: str  # "random" | "lloyd"
    training_meta: dict | None = None

    def __post_init__(self):
        self.codewords = np.asarray(self.codewords, dtype=complex)
        if problem := _bits_problem(self.bits):
            raise ConfigurationError(f"bits {problem}")
        if self.kind not in ("random", "lloyd"):
            raise ConfigurationError(f"unknown codebook kind {self.kind!r}")
        if self.codewords.ndim != 2 or self.codewords.shape[0] != 2**self.bits:
            raise ConfigurationError(
                f"codebook must hold exactly 2^{self.bits} rows, got shape "
                f"{self.codewords.shape}"
            )
        finite = np.isfinite(self.codewords).all(axis=1)
        if not finite.all():
            raise ConfigurationError(f"codeword {int(np.argmin(finite))} is not finite")
        norms = np.linalg.norm(self.codewords, axis=1)
        if np.any(np.abs(norms - 1.0) > _UNIT_NORM_TOL):
            raise ConfigurationError("codewords must be unit norm (within 1e-12)")
        n = self.codewords.shape[0]
        if n > 1:
            gram = np.abs(self.codewords @ self.codewords.conj().T)
            np.fill_diagonal(gram, 0.0)
            if np.any(
                np.all(self.codewords[:, None, :] == self.codewords[None, :, :], axis=2)
                & ~np.eye(n, dtype=bool)
            ):
                raise ConfigurationError("codebook contains two identical codewords")
            collinear = int(np.count_nonzero(np.triu(gram, 1) > 1.0 - 1e-12))
            if collinear:
                # Permitted for random codebooks, but callers should know.
                meta = dict(self.training_meta or {})
                meta["collinear_pairs"] = collinear
                self.training_meta = meta

    @property
    def dimension(self) -> int:
        return self.codewords.shape[1]

    @property
    def size(self) -> int:
        return self.codewords.shape[0]


def isotropic_directions(count: int, dimension: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` isotropic unit-norm complex row vectors."""
    v = rngmod.complex_normal(rng, (count, dimension))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def composite_directions(count: int, profile, n_tx: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` composite directions g/||g|| of a user whose link
    energies split over the BSs as ``profile``.

    The direction distribution is invariant to a common scaling of the link
    energies, so equal splits give bit-identical draws whatever the absolute
    energies.
    """
    alpha = np.sqrt(np.asarray(profile, dtype=float))
    g = (channel.sample_small_scale(count, alpha.shape[0], n_tx, rng)
         * alpha[:, None]).reshape(count, -1)
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def random_codebook(dimension: int, bits: int, rng: np.random.Generator) -> Codebook:
    """Random vector quantization codebook: independent isotropic unit rows."""
    if dimension < 1:
        raise ConfigurationError("dimension must be >= 1")
    return Codebook(
        codewords=isotropic_directions(2**bits, dimension, rng),
        bits=bits,
        kind="random",
    )


def row_blocks(count: int) -> list[slice]:
    """Consecutive slices of ``range(count)``, ``BLOCK_ROWS`` rows each but
    the last. A remainder of one row joins the block before it: numpy
    multiplies a single row by its vector path, whose last bits differ, so
    every row gets the bits it has in one whole-array call."""
    starts = list(range(0, count, BLOCK_ROWS))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [count])]


def quantize_many(vectors: np.ndarray, cb: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """Quantize the direction of each row of ``vectors``; returns (codeword
    indices, sin^2 errors).

    Each index maximizes |v_bar c_j^H|^2; ties break to the lowest index.
    """
    x = np.asarray(vectors, dtype=complex)
    if x.ndim != 2 or x.shape[1] != cb.dimension:
        raise DomainError(f"vectors must be (count, {cb.dimension}), got shape {x.shape}")
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if not norms.all():
        raise DomainError("cannot quantize a zero vector")
    sims = np.abs((x / norms) @ cb.codewords.conj().T) ** 2
    idx = sims.argmax(axis=1)
    err = 1.0 - sims[np.arange(idx.shape[0]), idx]
    # sims >= 0 keeps err <= 1; rounding can take it just below 0
    return idx, np.maximum(err, 0.0, out=err)


def train_lloyd(
    dimension: int,
    bits: int,
    training_samples: np.ndarray,
    max_iters: int = DEFAULT_LLOYD_MAX_ITERS,
    tol: float = DEFAULT_LLOYD_TOL,
    *,
    rng: np.random.Generator,
) -> Codebook:
    """Generalized Lloyd training under the chordal distance 1 - |x c^H|^2.

    Alternates nearest-codeword partition with centroid updates (dominant
    eigenvector of each cluster's sample correlation). Initialized from a
    random codebook drawn from ``rng``; mean distortion is non-increasing
    across iterations, so the result is never worse than that initialization
    on the training set. Empty clusters are re-seeded with the worst-quantized
    sample.
    """
    x = np.asarray(training_samples, dtype=complex)
    size = 2**bits
    if x.ndim != 2 or x.shape[1] != dimension:
        raise ConfigurationError("training_samples must be (count, dimension)")
    if x.shape[0] < MIN_LLOYD_OVERSAMPLING * size:
        raise ConfigurationError(
            f"need at least {MIN_LLOYD_OVERSAMPLING * size} training samples for "
            f"{size} codewords, got {x.shape[0]}"
        )
    if np.any(np.abs(np.linalg.norm(x, axis=1) - 1.0) > 1e-9):
        raise ConfigurationError("training samples must be unit norm")

    codewords = isotropic_directions(size, dimension, rng)
    # the assignment step's working arrays, allocated once
    products = np.empty((x.shape[0], size), dtype=complex)
    sims = np.empty((x.shape[0], size))
    cluster_type = np.min_scalar_type(size - 1)  # narrow keys take numpy's radix sort
    history: list[float] = []
    reseeded = 0
    converged = False
    for _ in range(max_iters):
        np.matmul(x, codewords.conj().T, out=products)
        np.square(np.abs(products, out=sims), out=sims)  # |x c^H|^2
        assign = sims.argmax(axis=1)
        best = np.take_along_axis(sims, assign[:, None], axis=1)[:, 0]
        distortion = float(1.0 - best.mean())
        if history and distortion > history[-1] + 1e-12:
            raise TrainingError("Lloyd distortion increased between iterations")
        if history and history[-1] - distortion < tol * max(history[-1], np.finfo(float).tiny):
            history.append(distortion)
            converged = True
            break
        history.append(distortion)

        # Centroids: the dominant eigenvector of each cluster's sample
        # correlation. A stable sort by cluster makes each cluster's members,
        # in sample order, one contiguous slice, so every correlation has the
        # bits of the cluster's rows taken alone; one stacked eigh solves all.
        grouped = x[np.argsort(assign.astype(cluster_type), kind="stable")]
        counts = np.bincount(assign, minlength=size)
        starts = np.concatenate(([0], np.cumsum(counts))).tolist()
        filled = np.flatnonzero(counts)
        corr = np.empty((filled.size, dimension, dimension), dtype=complex)
        for j, i in enumerate(filled.tolist()):
            members = grouped[starts[i]:starts[i + 1]]
            np.matmul(members.conj().T, members, out=corr[j])
        top = np.linalg.eigh(corr)[1][:, :, -1].conj()  # row-vector convention
        new_codewords = codewords.copy()
        new_codewords[filled] = top / rows.norms(top)[:, None]
        empty = np.flatnonzero(counts == 0).tolist()
        if empty:
            # Re-seed with the worst-quantized samples, skipping exact
            # duplicates of rows already present (repeated training samples
            # would otherwise collide with their own centroid).
            worst_order = np.argsort(best)
            cursor = 0
            for i in empty:
                placed = None
                while cursor < x.shape[0]:
                    candidate = x[worst_order[cursor]]
                    cursor += 1
                    if not np.any(np.all(new_codewords == candidate, axis=1)):
                        placed = candidate
                        break
                if placed is None:
                    placed = isotropic_directions(1, dimension, rng)[0]
                new_codewords[i] = placed
                reseeded += 1
        codewords = new_codewords

    meta = {
        "training_size": int(x.shape[0]),
        "iterations": len(history) - 1,
        "converged": converged,
        "tol": tol,
        "initial_distortion": history[0],
        "final_distortion": history[-1],
        "distortion_history": [float(d) for d in history],
        "reseeded_clusters": reseeded,
    }
    return Codebook(codewords=codewords, bits=bits, kind="lloyd", training_meta=meta)


class DrawnRows:
    """The ``count`` rows that ``draw(n)`` returns ``n`` at a time, drawn as
    they are sliced. Slices must come in row order, as ``row_blocks`` gives
    them, so a reader holds one block of the draw, never all of it."""

    def __init__(self, draw, count: int):
        self.draw, self.count, self.drawn = draw, count, 0

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(self.count)
        if start != self.drawn:
            raise DomainError(f"rows are drawn in order: row {self.drawn} is next, not {start}")
        self.drawn = stop
        return self.draw(stop - start)


def expected_error(cb: Codebook, directions) -> tuple[float, float]:
    """Monte Carlo estimate (mean, standard error) of E{sin^2 theta} over the
    rows of ``directions``, drawn from the codebook's input distribution.

    ``directions`` (an array, or ``DrawnRows`` to draw them lazily) is read
    one ``row_blocks`` block at a time, in order, so the search's
    temporaries stay a block's size, and one mean and SE are taken over all
    the errors."""
    err = np.concatenate([quantize_many(directions[block], cb)[1]
                          for block in row_blocks(len(directions))])
    n = err.shape[0]
    return float(err.mean()), float(err.std(ddof=1) / np.sqrt(n))


# ---------------------------------------------------------------------------
# Feedback reports
# ---------------------------------------------------------------------------

@dataclass
class FeedbackReport:
    """Quantized CSI of a block of trials: one index, error and norm per
    trial, user and block.

    Per-cell mode quantizes the n_bs per-BS blocks of each user, global mode
    the single composite block.
    """

    indices: np.ndarray  # (trials, n_users, n_blocks) int
    error_sq: np.ndarray  # (trials, n_users, n_blocks) float in [0, 1]
    norms: np.ndarray  # (trials, n_users, n_blocks) float
    reconstructed: np.ndarray  # (trials, n_users, n_bs * n_tx) complex
    mode: str  # "per_cell" | "global"


def _codebook_grid(codebooks, n_users: int, n_blocks: int) -> list[list[Codebook]]:
    if isinstance(codebooks, Codebook):
        return [[codebooks] * n_blocks for _ in range(n_users)]
    grid = [list(row) for row in codebooks]
    if len(grid) != n_users or any(len(row) != n_blocks for row in grid):
        raise ConfigurationError(
            f"codebook assignment must be {n_users} x {n_blocks}, "
            f"got {len(grid)} rows"
        )
    return grid


def _quantize_blocks(blocks: np.ndarray, scale: np.ndarray, grid, mode: str) -> FeedbackReport:
    """Quantize block (k, b) of every trial of ``blocks`` (trials, n_users,
    n_blocks, dim) with the codebook ``grid[k][b]``; its norm times
    ``scale[k, b]``, or ``scale[t, k, b]`` in trial t, passes through.

    Each codebook searches all of its blocks, over every trial, in one
    ``quantize_many`` call. The reconstructed block is rho e^{j phi} times
    the selected codeword, with rho the passed-through norm and phi the phase
    of <block, codeword>, so the projection coefficient on the true block is
    real and nonnegative (the cos(theta) of the error decomposition).
    Codeword phase is arbitrary under the chordal metric, but coherent joint
    transmission needs the per-BS blocks of a reconstruction phased
    consistently: with raw codeword phases the reconstructed composite vector
    loses inter-BS coherence and the transmission incurs a signal loss the
    rate-loss analysis does not model.
    """
    trials, n_users, n_blocks, dim = blocks.shape
    count = n_users * n_blocks
    flat = blocks.reshape(trials, count, dim)
    groups: dict[int, tuple] = {}
    for m, cb in enumerate(cb for row in grid for cb in row):
        groups.setdefault(id(cb), (cb, []))[1].append(m)
    indices = np.zeros((trials, count), dtype=int)
    error_sq = np.zeros((trials, count))
    codewords = np.zeros((trials, count, dim), dtype=complex)
    for cb, members in groups.values():
        if cb.dimension != dim:
            raise ConfigurationError(
                f"codebook for block {divmod(members[0], n_blocks)} has dimension "
                f"{cb.dimension}, expected {dim}"
            )
        idx, err = quantize_many(flat[:, members].reshape(-1, dim), cb)
        indices[:, members] = idx.reshape(trials, len(members))
        error_sq[:, members] = err.reshape(trials, len(members))
        codewords[:, members] = cb.codewords[idx].reshape(trials, len(members), dim)
    norms = scale.reshape(scale.shape[:-2] + (count,)) * rows.norms(flat)
    c = rows.inner(codewords, flat)  # <block, codeword> = block codeword^H
    zero = c == 0.0  # no phase to align to: the codeword as it is
    phase = c / np.where(zero, 1.0, rows.magnitude(c))
    recon = norms[..., None] * np.where(zero[..., None], codewords, phase[..., None] * codewords)
    return FeedbackReport(
        indices=indices.reshape(trials, n_users, n_blocks),
        error_sq=error_sq.reshape(trials, n_users, n_blocks),
        norms=norms.reshape(trials, n_users, n_blocks),
        reconstructed=recon.reshape(trials, n_users, n_blocks * dim),
        mode=mode,
    )


def per_cell_feedback(
    realization: channel.ChannelRealization,
    large_scale: channel.LargeScaleMap,
    codebooks,
) -> FeedbackReport:
    """Quantize each per-BS block of every trial independently; norms pass
    through unquantized.

    ``codebooks`` is one Codebook of dimension n_tx shared by every link, or
    an n_users x n_bs grid. Reconstruction per user k: g_hat_k =
    [rho_{k,1} h_hat_{k,1}, ..., rho_{k,B} h_hat_{k,B}] with rho_{k,b} =
    alpha_{k,b} ||h_{k,b}|| (from each trial's own map when ``large_scale``
    has a trial axis) and h_hat_{k,b} the phase-aligned representative of the
    selected codeword.
    """
    h = realization.small_scale
    grid = _codebook_grid(codebooks, h.shape[1], h.shape[2])
    return _quantize_blocks(h, large_scale.alpha, grid, "per_cell")


def global_feedback(
    realization: channel.ChannelRealization,
    large_scale: channel.LargeScaleMap,
    codebooks,
) -> FeedbackReport:
    """Quantize each user's whole composite vector, in every trial, with one
    codebook.

    ``codebooks`` is one Codebook of dimension n_bs * n_tx shared by all
    users, or an n_users x 1 grid. Reconstruction: g_hat_k = ||g_k|| c_i;
    the report holds one block per user. ``large_scale`` is not read: the
    composite vectors already carry the link amplitudes.
    """
    g = realization.global_channels
    grid = _codebook_grid(codebooks, g.shape[1], 1)
    return _quantize_blocks(g[:, :, None, :], np.ones((g.shape[1], 1)), grid, "global")


# ---------------------------------------------------------------------------
# Codebook text: the canonical, diffable form train-codebook writes
# ---------------------------------------------------------------------------

def codebook_text(cb: Codebook) -> str:
    """Canonical text form: header lines, then one codeword per line as
    re/im pairs printed with shortest round-trip precision. The meta line of
    a codebook built from its identity carries its ``error_estimate``."""
    meta = cb.training_meta or {}
    if "seed" in meta:
        meta = {**meta, "expected_error": error_estimate(cb)}
    lines = [
        "compsim-codebook v1",
        f"dimension {cb.dimension}",
        f"bits {cb.bits}",
        f"kind {cb.kind}",
        "meta " + json.dumps(meta, sort_keys=True, separators=(",", ":")),
        f"codewords {cb.size}",
    ]
    for row in cb.codewords:
        parts = []
        for z in row:
            parts.append(repr(float(z.real)))
            parts.append(repr(float(z.imag)))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Scenario-level feedback configuration and codebook resolution
# ---------------------------------------------------------------------------

FEEDBACK_MODES = ("perfect", "per_cell", "global")


@dataclass
class FeedbackConfig:
    """Which CSI the transmitter gets and how its codebooks are built.

    modes: "perfect" (true channels), "per_cell" (one codebook per link,
    ``bits`` is the n_users x n_bs allocation), "global" (one codebook per
    user over the concatenated vector, ``global_bits`` wide).
    Every codebook is built from its identity (see ``build_codebook``):
    ``codebook_kind`` and ``training_seed`` here, the dimension and bits
    from the mode, and for global feedback the served user's energy split.
    """

    mode: str = "perfect"
    bits: list | None = None
    global_bits: int | None = None
    codebook_kind: str = "lloyd"
    training_seed: int = 7001

    def problems(self) -> list:
        """(field, message) pairs for every invalid field. The shape of the
        per-cell bit matrix depends on the scenario and is checked there."""
        out = []
        if self.mode not in FEEDBACK_MODES:
            out.append(("mode", f"must be one of {FEEDBACK_MODES}"))
        if self.codebook_kind not in ("lloyd", "random"):
            out.append(("codebook_kind", "must be 'lloyd' or 'random'"))
        if self.training_seed < 0:
            out.append(("training_seed", "must be nonnegative"))
        if self.mode == "per_cell":
            if not isinstance(self.bits, list) or not all(isinstance(r, list) for r in self.bits):
                out.append(("bits", "must be a matrix (a list of rows) of bit counts"))
            else:
                out.extend((f"bits[{k}][{b}]", problem)
                           for k, row in enumerate(self.bits)
                           for b, entry in enumerate(row) if (problem := _bits_problem(entry)))
        elif self.mode == "global" and (problem := _bits_problem(self.global_bits)):
            out.append(("global_bits", problem))
        return out

    def __post_init__(self):
        raise_problems(self.problems())

    def largest_training_set(self) -> int:
        """Directions in the Lloyd training set of the widest valid bit
        count, ``DEFAULT_LLOYD_OVERSAMPLING * 2^bits``; 0 for perfect CSI."""
        if self.mode == "per_cell":
            counts = [b for row in self.bits or [] if isinstance(row, list) for b in row]
        else:
            counts = [self.global_bits] if self.mode == "global" else []
        return max((DEFAULT_LLOYD_OVERSAMPLING * 2**b for b in counts if not _bits_problem(b)),
                   default=0)


@dataclass
class ResolvedFeedback:
    """Feedback config with concrete codebooks attached."""

    mode: str
    # one Codebook per quantized block: n_users x n_bs for per-cell
    # feedback, n_users x 1 for global feedback, None for perfect CSI
    codebooks: list | None = None

    def apply(
        self,
        realization: channel.ChannelRealization,
        large_scale: channel.LargeScaleMap,
    ) -> FeedbackReport | None:
        """The feedback report of a block of trials; None means perfect CSI."""
        if self.mode == "perfect":
            return None
        if self.mode == "per_cell":
            return per_cell_feedback(realization, large_scale, self.codebooks)
        return global_feedback(realization, large_scale, self.codebooks)

    def shares_codebooks(self, other: "ResolvedFeedback") -> bool:
        """Whether ``other`` quantizes every block with the same codebook
        object, so that trials of both can share one feedback block."""
        if self.codebooks is None or other.codebooks is None:
            return self.codebooks is other.codebooks
        return all(a is b for row, other_row in zip(self.codebooks, other.codebooks)
                   for a, b in zip(row, other_row))

    def expected_error_matrix(self) -> np.ndarray:
        """(n_users, n_bs) per-link E{sin^2 theta}: each per-cell codebook's
        ``error_estimate``."""
        if self.mode != "per_cell":
            raise ConfigurationError("per-link expected errors need per-cell feedback")
        return np.array([[error_estimate(cb)["mean"] for cb in row] for row in self.codebooks])


# identity -> codebook, in order of last use
_codebook_cache: dict = {}


def clear_codebook_cache() -> None:
    _codebook_cache.clear()


def _directions(count: int, dimension: int, profile, rng: np.random.Generator) -> np.ndarray:
    if profile is None:
        return isotropic_directions(count, dimension, rng)
    return composite_directions(count, profile, dimension // len(profile), rng)


def _labels(dimension: int, bits: int, profile: tuple | None) -> tuple:
    """The substream labels of a codebook identity: (dimension, bits) and,
    for a global codebook, a label folded from its profile."""
    if profile is None:
        return dimension, bits
    digest = hashlib.sha256(repr(profile).encode()).digest()
    return dimension, bits, int.from_bytes(digest[:4], "big")


def build_codebook(
    dimension: int,
    bits: int,
    kind: str,
    seed: int,
    profile: tuple | None = None,
) -> Codebook:
    """Train (or draw) one codebook.

    ``(dimension, bits, kind, seed, profile)`` is the whole identity of the
    codebook. ``profile`` is None for a per-cell codebook, whose input
    directions are isotropic, and the served user's energy split over the
    BSs for a global one, whose inputs are that user's composite directions.
    Training draws from the TRAINING substream of ``seed`` keyed by
    ``_labels``. ``training_meta`` records the seed and, for a global
    codebook, the profile, so its text form carries its whole identity and
    ``error_estimate`` can draw from it.
    """
    if dimension < 1:
        raise ConfigurationError("dimension must be >= 1")
    if problem := _bits_problem(bits):
        raise ConfigurationError(f"bits {problem}")
    if profile is not None:
        profile = tuple(np.asarray(profile, dtype=float).tolist())
    train_rng = rngmod.substream(seed, rngmod.TRAINING, *_labels(dimension, bits, profile))
    if kind == "random":
        cb = random_codebook(dimension, bits, train_rng)
    else:
        samples = _directions(DEFAULT_LLOYD_OVERSAMPLING * 2**bits, dimension, profile, train_rng)
        cb = train_lloyd(dimension, bits, samples, rng=train_rng)
    meta = dict(cb.training_meta or {})
    meta["seed"] = seed
    if profile is not None:
        meta["profile"] = list(profile)
    cb.training_meta = meta
    return cb


def error_estimate(cb: Codebook) -> dict:
    """E{sin^2 theta} of a codebook ``build_codebook`` built, as ``{"mean",
    "se", "draws"}`` over ``DEFAULT_ERROR_ESTIMATE_DRAWS`` input directions
    from the ERROR_ESTIMATE substream of its identity, taken one row block
    at a time.

    Drawn on first read and kept in ``training_meta["expected_error"]``, so
    only the readers pay for it: the per-cell bound and the codebook text.
    """
    meta = cb.training_meta or {}
    if "seed" not in meta:
        raise ConfigurationError("only a codebook built from its identity has an error estimate")
    if "expected_error" not in meta:
        profile = tuple(meta["profile"]) if "profile" in meta else None
        err_rng = rngmod.substream(meta["seed"], rngmod.ERROR_ESTIMATE,
                                   *_labels(cb.dimension, cb.bits, profile))
        # each block is the next rows of the one draw, bit for bit
        mean, se = expected_error(cb, DrawnRows(
            lambda n: _directions(n, cb.dimension, profile, err_rng),
            DEFAULT_ERROR_ESTIMATE_DRAWS))
        meta["expected_error"] = {"mean": mean, "se": se, "draws": DEFAULT_ERROR_ESTIMATE_DRAWS}
    return meta["expected_error"]


def _codebook(config: FeedbackConfig, dimension: int, bits: int,
              profile: tuple | None = None) -> Codebook:
    """The cached codebook of this identity, built on first use.

    The cache keeps the ``CODEBOOK_CACHE_SIZE`` codebooks used last, so a run
    whose every random drop needs codebooks of its own leaves a bounded
    cache, while the codebooks every drop or sweep point shares stay in it
    (and stay the same objects, which ``shares_codebooks`` relies on)."""
    key = (dimension, bits, config.codebook_kind, config.training_seed, profile)
    cb = _codebook_cache.pop(key, None)
    if cb is None:
        cb = build_codebook(*key)
    _codebook_cache[key] = cb  # now the most recently used
    while len(_codebook_cache) > CODEBOOK_CACHE_SIZE:
        del _codebook_cache[next(iter(_codebook_cache))]
    return cb


def resolve_codebooks(
    config: FeedbackConfig,
    n_tx: int,
    large_scale: channel.LargeScaleMap,
) -> ResolvedFeedback:
    """Build (or take from the cache) every codebook the feedback config needs.

    Per-cell codebooks are trained on isotropic unit vectors (small-scale CDI
    is isotropic) and shared across links with equal bit counts. Global
    codebooks are trained per user on that user's composite-direction
    distribution, which is set by the user's energy split; equal splits share
    one training.
    """
    n_users, n_bs = large_scale.alpha_sq.shape
    if config.mode == "perfect":
        return ResolvedFeedback(mode="perfect")
    if config.mode == "per_cell":
        bits = np.asarray(config.bits, dtype=int)
        if bits.shape != (n_users, n_bs):
            raise ConfigurationError(
                f"per-cell bit matrix must be {n_users} x {n_bs}, got {bits.shape}"
            )
        by_bits = {b: _codebook(config, n_tx, b)
                   for b in sorted(set(bits.flatten().tolist()))}
        return ResolvedFeedback(mode="per_cell", codebooks=[
            [by_bits[int(bits[k, b])] for b in range(n_bs)] for k in range(n_users)
        ])
    return ResolvedFeedback(mode="global", codebooks=[
        [_codebook(config, n_bs * n_tx, config.global_bits, tuple(split))]
        for split in large_scale.energy_split().tolist()
    ])
