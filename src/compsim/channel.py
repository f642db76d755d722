"""Cell geometry, large-scale fading, and Rayleigh small-scale channel sampling.

The composite channel from all cooperating base stations to mobile station k
is the row vector ``g_k = [alpha_{k,1} h_{k,1}, ..., alpha_{k,B} h_{k,B}]``
where ``alpha_{k,b}`` is the large-scale amplitude of link (k, b) and
``h_{k,b}`` is a 1 x n_tx vector of i.i.d. unit-variance circularly-symmetric
complex Gaussians.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .errors import ConfigurationError, DomainError, raise_problems

DEFAULT_CELL_RADIUS_M = 250.0
DEFAULT_PATHLOSS_EXPONENT = 3.76
DEFAULT_EDGE_SNR_DB = 10.0
DEFAULT_MIN_DISTANCE_M = 1.0


@dataclass
class Geometry:
    """Static cell layout plus the distance -> receive-SNR model."""

    n_cells: int
    bs_positions: np.ndarray  # (n_cells, 2) meters
    cell_radius_m: float = DEFAULT_CELL_RADIUS_M
    pathloss_exponent: float = DEFAULT_PATHLOSS_EXPONENT
    edge_snr_db: float = DEFAULT_EDGE_SNR_DB
    d_min_m: float = DEFAULT_MIN_DISTANCE_M

    def problems(self) -> list:
        """(field, message) pairs for every invalid field."""
        out = []
        if self.n_cells < 1:
            out.append(("n_cells", "must be >= 1"))
        if self.cell_radius_m <= 0:
            out.append(("cell_radius_m", "must be positive"))
        if self.pathloss_exponent < 0:
            out.append(("pathloss_exponent", "must be nonnegative"))
        if self.d_min_m <= 0:
            out.append(("d_min_m", "must be positive"))
        elif self.d_min_m > self.cell_radius_m > 0:
            out.append(("d_min_m", "must not exceed cell_radius_m"))
        if np.shape(self.bs_positions) != (self.n_cells, 2):
            out.append(("bs_positions", f"must have shape ({self.n_cells}, 2), "
                                        f"got {np.shape(self.bs_positions)}"))
        elif len({tuple(p) for p in self.bs_positions}) < self.n_cells:
            out.append(("bs_positions", "base stations must not coincide"))
        return out

    def __post_init__(self):
        self.bs_positions = np.asarray(self.bs_positions, dtype=float)
        raise_problems(self.problems())


def two_cell_line(cell_radius_m: float = DEFAULT_CELL_RADIUS_M, **kwargs) -> Geometry:
    """Two BSs on a line, spacing 2r; MSs are placed on the connecting segment."""
    r = float(cell_radius_m)
    return Geometry(
        n_cells=2,
        bs_positions=np.array([[0.0, 0.0], [2.0 * r, 0.0]]),
        cell_radius_m=r,
        **kwargs,
    )


def single_cell(cell_radius_m: float = DEFAULT_CELL_RADIUS_M, **kwargs) -> Geometry:
    """One BS at the origin (used by the single-cell MU-MIMO baseline)."""
    return Geometry(
        n_cells=1,
        bs_positions=np.array([[0.0, 0.0]]),
        cell_radius_m=float(cell_radius_m),
        **kwargs,
    )


def receive_snr_db(distance_m, geom: Geometry):
    """Receive SNR in dB at each given BS-MS distance (an array or a scalar).

    gamma(d) = edge_snr_db - 10 * eps * log10(d / r): equals ``edge_snr_db``
    at d = r and is strictly decreasing in d for eps > 0. Distances below
    ``geom.d_min_m`` are clamped to avoid unbounded SNR.
    """
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0.0):
        raise DomainError("distance must be positive")
    d = np.maximum(d, geom.d_min_m)
    return geom.edge_snr_db - 10.0 * geom.pathloss_exponent * np.log10(d / geom.cell_radius_m)


def link_snr(ms_positions, geom: Geometry) -> np.ndarray:
    """(..., n_users, n_bs) linear receive SNRs of MSs at (..., n_users, 2)
    positions, any leading axes being drops: one placement's SNR map, or a
    whole range of random drops' in one pass."""
    pos = np.asarray(ms_positions, dtype=float)
    dist = np.linalg.norm(pos[..., :, None, :] - geom.bs_positions, axis=-1)
    if np.any(dist <= 0.0):
        raise ConfigurationError("MS positions must not coincide with a BS position")
    # an SNR past the float range is inf, or NaN where an infinite path-loss
    # exponent meets a distance of one cell radius; link_energies rejects either
    with np.errstate(over="ignore", invalid="ignore"):
        return 10.0 ** (receive_snr_db(dist, geom) / 10.0)


def link_energies(snr_gamma_sq: np.ndarray, tx_power: float, noise_power: float) -> np.ndarray:
    """The link energies ``snr_gamma_sq * noise_power / tx_power`` of
    (..., n_users, n_bs) receive SNRs, after checking that every SNR, and
    each user's sum of them, is finite and nonnegative and that both powers
    are positive: the one check of every SNR map, whatever its leading axes."""
    s = snr_gamma_sq
    if not np.all((s >= 0) & (s < np.inf)):  # written so that NaN fails too
        raise ConfigurationError("receive SNRs must be finite and nonnegative: check "
                                 "geometry.edge_snr_db and pathloss_exponent")
    with np.errstate(over="ignore"):  # a sum past the float range is inf, rejected here
        total = s.sum(axis=-1)
    if not np.all(total < np.inf):
        raise ConfigurationError("each user's receive SNRs must have a finite sum: check "
                                 "geometry.edge_snr_db and pathloss_exponent")
    if tx_power <= 0 or noise_power <= 0:
        raise ConfigurationError("tx_power and noise_power must be positive")
    return s * noise_power / tx_power


def energy_split(alpha_sq: np.ndarray) -> np.ndarray:
    """(..., n_users, n_bs) share of each user's link energy carried by each
    BS: the bound's beta and a global codebook's training profile. Rejects
    any user with no link energy."""
    total = alpha_sq.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        user = np.argwhere(total[..., 0] <= 0)[0][-1]
        raise ConfigurationError(f"user {int(user)} has no link energy")
    return alpha_sq / total


@dataclass
class LargeScaleMap:
    """Per-link linear receive SNRs, the channel energies they imply, and
    the transmit and noise powers (P, sigma^2) of the run.

    ``snr_gamma_sq[k, b]`` is the receive SNR of composite link (MS k, BS b);
    ``alpha_sq[k, b] = snr_gamma_sq[k, b] * noise_power / tx_power`` is that
    link's average energy. With the default normalization tx_power =
    noise_power = 1 the two matrices are equal. A map is one placement's:
    a block of trials carries its link amplitudes as an array of its own.
    """

    snr_gamma_sq: np.ndarray  # (n_users, n_bs)
    tx_power: float = 1.0
    noise_power: float = 1.0
    alpha_sq: np.ndarray = field(init=False)  # (n_users, n_bs)

    def __post_init__(self):
        self.snr_gamma_sq = np.asarray(self.snr_gamma_sq, dtype=float)
        if self.snr_gamma_sq.ndim != 2:
            raise ConfigurationError("snr_gamma_sq must be an (n_users, n_bs) array")
        self.alpha_sq = link_energies(self.snr_gamma_sq, self.tx_power, self.noise_power)

    @property
    def n_users(self) -> int:
        return self.alpha_sq.shape[0]

    @property
    def n_bs(self) -> int:
        return self.alpha_sq.shape[1]

    @property
    def alpha(self) -> np.ndarray:
        return np.sqrt(self.alpha_sq)

    def energy_split(self) -> np.ndarray:
        """(n_users, n_bs) ``energy_split`` of the map's link energies."""
        return energy_split(self.alpha_sq)


def build_large_scale(
    ms_positions,
    geom: Geometry,
    tx_power: float = 1.0,
    noise_power: float = 1.0,
    require_one_per_cell: bool = True,
) -> LargeScaleMap:
    """Assemble the large-scale map from pairwise MS-BS distances.

    ``require_one_per_cell`` enforces the cooperative-transmission contract of
    exactly one MS per cell; the single-cell multi-user baseline relaxes it.
    """
    pos = np.asarray(ms_positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ConfigurationError("ms_positions must be an (n_users, 2) array of coordinates")
    if require_one_per_cell and pos.shape[0] != geom.n_cells:
        raise ConfigurationError(
            f"expected {geom.n_cells} MS positions (one per cell), got {pos.shape[0]}"
        )
    return LargeScaleMap(snr_gamma_sq=link_snr(pos, geom), tx_power=tx_power,
                         noise_power=noise_power)


def _check_dimensions(n_users: int, n_bs: int, n_tx: int) -> None:
    if n_tx < 2:
        raise ConfigurationError("n_tx must be >= 2 (single-antenna BSs are unsupported)")
    if n_users < 1 or n_bs < 1:
        raise ConfigurationError("n_users and n_bs must be >= 1")


def sample_small_scale(
    n_users: int, n_bs: int, n_tx: int, rng: np.random.Generator, trials: int | None = None
) -> np.ndarray:
    """Draw i.i.d. Rayleigh channels h ~ CN(0, I_{n_tx}) for every (MS, BS) link.

    Entries have unit variance, so E{||h||^2} = n_tx. With ``trials`` the
    draw has a leading trial axis and equals ``trials`` single draws from
    ``rng`` in turn.
    """
    _check_dimensions(n_users, n_bs, n_tx)
    shape = (n_users, n_bs, n_tx) if trials is None else (trials, n_users, n_bs, n_tx)
    return rngmod.complex_normal(rng, shape) / np.sqrt(2.0)


def realize_channels(alpha: np.ndarray, small_scale: np.ndarray) -> np.ndarray:
    """The (trials, n_users, n_bs * n_tx) composite channels of a block of
    trials from its (trials, n_users, n_bs) link amplitudes and its
    (trials, n_users, n_bs, n_tx) small-scale draws, as ``sample_small_scale``
    with a trial axis draws them: g_k = [alpha_{k,1} h_{k,1}, ...,
    alpha_{k,B} h_{k,B}] in each trial, with that trial's amplitudes.
    """
    if small_scale.ndim != 4 or alpha.shape != small_scale.shape[:3]:
        raise ConfigurationError(f"small_scale shape {small_scale.shape} is not (trials, "
                                 f"n_users, n_bs, n_tx) under amplitudes of shape {alpha.shape}")
    trials, n_users, n_bs, n_tx = small_scale.shape
    _check_dimensions(n_users, n_bs, n_tx)
    return (alpha[..., None] * small_scale).reshape(trials, n_users, n_bs * n_tx)
