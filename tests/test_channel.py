import warnings

import numpy as np
import pytest

from compsim import channel
from compsim.errors import ConfigurationError, DomainError
from compsim.rng import substream


def test_receive_snr_equals_edge_value_at_radius():
    geom = channel.two_cell_line()
    assert channel.receive_snr_db(250.0, geom) == pytest.approx(10.0, abs=0.0)


def test_receive_snr_mid_cell_hand_value():
    # 10 + 37.6 * log10(2), evaluated by hand
    geom = channel.two_cell_line()
    assert channel.receive_snr_db(125.0, geom) == pytest.approx(
        21.318727836965692, abs=1e-9
    )


def test_zero_exponent_is_flat():
    geom = channel.two_cell_line(pathloss_exponent=0.0)
    for d in (1.0, 50.0, 250.0, 700.0):
        assert channel.receive_snr_db(d, geom) == pytest.approx(10.0, abs=0.0)


def test_receive_snr_strictly_decreasing_and_continuous():
    geom = channel.two_cell_line()
    grid = np.linspace(1.0, 600.0, 400)
    vals = channel.receive_snr_db(grid, geom)
    assert np.all(np.diff(vals) < 0.0)
    # continuity: small step, small change
    assert abs(channel.receive_snr_db(100.0, geom) - channel.receive_snr_db(100.001, geom)) < 1e-3


def test_distances_below_minimum_are_clamped():
    geom = channel.two_cell_line()
    assert channel.receive_snr_db(0.5, geom) == channel.receive_snr_db(1.0, geom)


def test_nonpositive_distance_rejected():
    geom = channel.two_cell_line()
    with pytest.raises(DomainError):
        channel.receive_snr_db(0.0, geom)
    with pytest.raises(DomainError):
        channel.receive_snr_db(-3.0, geom)


def test_geometry_validation():
    with pytest.raises(ConfigurationError):
        channel.Geometry(n_cells=2, bs_positions=np.zeros((3, 2)))
    with pytest.raises(ConfigurationError):
        channel.Geometry(n_cells=1, bs_positions=np.zeros((1, 2)), cell_radius_m=-1.0)


class TestBuildLargeScale:
    def test_midpoint_symmetry(self):
        geom = channel.two_cell_line()
        mid = [250.0, 0.0]
        ls = channel.build_large_scale([mid, mid], geom)
        assert np.allclose(ls.snr_gamma_sq, ls.snr_gamma_sq[0, 0])

    def test_cell_edge_gives_10db_on_both_links(self):
        geom = channel.two_cell_line()
        ls = channel.build_large_scale([[250.0, 0.0], [250.0, 0.0]], geom)
        assert ls.snr_gamma_sq[0, 0] == pytest.approx(10.0, rel=1e-12)
        assert ls.snr_gamma_sq[0, 1] == pytest.approx(10.0, rel=1e-12)

    def test_hand_evaluated_distances(self):
        # MS1 at 50 m from BS1 and 450 m from BS2
        geom = channel.two_cell_line()
        ls = channel.build_large_scale([[50.0, 0.0], [250.0, 0.0]], geom)
        assert ls.snr_gamma_sq[0, 0] == pytest.approx(4247.439644304067, rel=1e-12)
        assert ls.snr_gamma_sq[0, 1] == pytest.approx(1.0969210755201528, rel=1e-12)

    def test_wrong_position_count_rejected(self):
        geom = channel.two_cell_line()
        with pytest.raises(ConfigurationError):
            channel.build_large_scale([[100.0, 0.0]], geom)

    def test_single_cell_baseline_allows_two_users(self):
        geom = channel.single_cell()
        ls = channel.build_large_scale(
            [[50.0, 0.0], [0.0, 100.0]], geom, require_one_per_cell=False
        )
        assert ls.alpha_sq.shape == (2, 1)

    def test_normalization_links_alpha_and_snr(self):
        geom = channel.two_cell_line()
        ls = channel.build_large_scale(
            [[100.0, 0.0], [400.0, 0.0]], geom, tx_power=2.0, noise_power=0.5
        )
        assert np.allclose(ls.snr_gamma_sq, ls.alpha_sq * 4.0, rtol=1e-12)

    def test_map_is_one_placement(self):
        # a block's per-trial amplitudes are an array, not a stacked map
        with pytest.raises(ConfigurationError, match=r"\(n_users, n_bs\)"):
            channel.LargeScaleMap(snr_gamma_sq=np.ones((3, 2, 2)))

    @pytest.mark.parametrize("geom, message", [
        (channel.two_cell_line(edge_snr_db=1e308), "receive SNRs must be finite"),
        (channel.two_cell_line(pathloss_exponent=1e308), "receive SNRs must be finite"),
        (channel.two_cell_line(edge_snr_db=3080.0), "must have a finite sum"),
    ], ids=["edge-snr", "pathloss-exponent", "snr-sum"])
    def test_overflowing_snrs_are_rejected_without_a_warning(self, geom, message):
        # both MSs at the cell edge, where an infinite exponent times a zero
        # log distance is NaN and an edge SNR of 3080 dB makes each link 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=message):
                channel.build_large_scale([[250.0, 0.0], [250.0, 0.0]], geom)


class TestSmallScale:
    def test_mean_square_norm_matches_antenna_count(self):
        rng = substream(101, 0, 0)
        h = channel.sample_small_scale(2, 2, 4, rng)
        # one big batch instead: 1e5 draws of a single link
        z = substream(101, 0, 1).standard_normal((100_000, 4, 2))
        hh = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
        assert h.shape == (2, 2, 4)
        assert np.mean(np.linalg.norm(hh, axis=1) ** 2) == pytest.approx(4.0, abs=0.05)

    def test_links_are_uncorrelated(self):
        # empirical correlation between the two users' channels to one BS
        draws = 100_000
        z = substream(102, 0, 3).standard_normal((draws, 2, 4, 2))
        hs = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
        corr = np.mean(hs[:, 0, :] * np.conj(hs[:, 1, :]))
        assert abs(corr) < 0.01

    def test_same_seed_reproduces_realization(self):
        a = channel.sample_small_scale(2, 2, 4, substream(7, 0, 5))
        b = channel.sample_small_scale(2, 2, 4, substream(7, 0, 5))
        assert np.array_equal(a, b)

    def test_trial_axis_draws_the_trials_in_turn(self):
        # a drop draws all its trials at once: the same bits as one at a time
        rng = substream(7, 0, 6)
        one_by_one = [channel.sample_small_scale(2, 3, 4, rng) for _ in range(5)]
        whole = channel.sample_small_scale(2, 3, 4, substream(7, 0, 6), trials=5)
        assert whole.shape == (5, 2, 3, 4)
        assert np.array_equal(whole, np.stack(one_by_one))

    def test_single_antenna_rejected(self):
        with pytest.raises(ConfigurationError):
            channel.sample_small_scale(2, 2, 1, substream(7, 0, 0))

    def test_realization_checks_the_draws_shape(self):
        alpha = np.ones((3, 2, 2))
        h = channel.sample_small_scale(2, 2, 4, substream(7, 0, 7), trials=3)
        g = channel.realize_channels(alpha, h)
        assert g.shape == (3, 2, 8)
        for bad in (h[0], h[:, :1]):
            with pytest.raises(ConfigurationError):
                channel.realize_channels(alpha, bad)

    def test_realization_rejects_amplitudes_of_another_shape(self):
        h = channel.sample_small_scale(2, 2, 4, substream(7, 0, 8), trials=3)
        for shape in ((2, 2), (1, 2, 2), (3, 2, 1), (3, 2, 2, 1)):
            with pytest.raises(ConfigurationError):
                channel.realize_channels(np.ones(shape), h)


def _global(h, ls):
    """The composite vectors ``realize_channels`` forms from one trial's draws ``h``."""
    return channel.realize_channels(ls.alpha[None], h[None])[0]


class TestCompositeAssembly:
    def test_unit_alpha_is_plain_concatenation(self):
        rng = substream(9, 0, 0)
        h = channel.sample_small_scale(2, 2, 4, rng)
        ls = channel.LargeScaleMap(snr_gamma_sq=np.ones((2, 2)))
        g = _global(h, ls)
        assert np.array_equal(g[0], np.concatenate([h[0, 0], h[0, 1]]))

    def test_vanishing_cross_link_zeroes_block(self):
        rng = substream(9, 0, 1)
        h = channel.sample_small_scale(2, 2, 4, rng)
        alpha_sq = np.array([[1.0, 0.0], [1.0, 1.0]])
        ls = channel.LargeScaleMap(snr_gamma_sq=alpha_sq)
        g = _global(h, ls)
        assert np.all(g[0, 4:] == 0.0)

    def test_norm_identity_two_ways(self):
        rng = substream(9, 0, 2)
        h = channel.sample_small_scale(2, 2, 4, rng)
        alpha_sq = np.array([[2.0, 0.3], [0.7, 1.4]])
        ls = channel.LargeScaleMap(snr_gamma_sq=alpha_sq)
        g = _global(h, ls)
        for k in range(2):
            direct = np.linalg.norm(g[k]) ** 2
            blockwise = sum(
                alpha_sq[k, b] * np.linalg.norm(h[k, b]) ** 2 for b in range(2)
            )
            assert direct == pytest.approx(blockwise, rel=1e-12)

    def test_reconstruction_is_bit_identical(self):
        rng = substream(9, 0, 3)
        h = channel.sample_small_scale(2, 2, 4, rng)
        alpha_sq = np.array([[2.0, 0.3], [0.7, 1.4]])
        ls = channel.LargeScaleMap(snr_gamma_sq=alpha_sq)
        assert np.array_equal(_global(h, ls), _global(h, ls))

    def test_dimension_mismatch_rejected(self):
        ls = channel.LargeScaleMap(snr_gamma_sq=np.ones((2, 2)))
        with pytest.raises(ConfigurationError):
            channel.realize_channels(ls.alpha[None], np.zeros((1, 3, 2, 4), dtype=complex))
        per_trial = np.ones((3, 2, 2))
        with pytest.raises(ConfigurationError):
            channel.realize_channels(per_trial, np.zeros((2, 2, 2, 4), dtype=complex))
