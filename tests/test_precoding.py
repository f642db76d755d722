import numpy as np
import pytest

from compsim.errors import DomainError, PrecodingError
from compsim.precoding import instantaneous_rate, interference_power, sinr, zf_precoder
from compsim.rng import substream


def random_channels(n_users, dim, seed):
    z = substream(seed, 0, 0).standard_normal((n_users, dim, 2))
    return z[..., 0] + 1j * z[..., 1]


def orthogonalize_rows(mat):
    q, _ = np.linalg.qr(mat.conj().T)
    scales = np.linalg.norm(mat, axis=1)
    return (q[:, : mat.shape[0]].conj().T) * scales[:, None]


class TestZfPrecoder:
    def test_orthogonal_rows_reduce_to_matched_filter(self):
        g = orthogonalize_rows(random_channels(2, 8, 61))
        pre = zf_precoder(g)
        for k in range(2):
            expected = g[k].conj() / np.linalg.norm(g[k])
            assert np.allclose(pre[:, k], expected, atol=1e-12)

    def test_single_user_is_matched_filter(self):
        g = random_channels(1, 8, 62)
        pre = zf_precoder(g)
        assert np.allclose(pre[:, 0], g[0].conj() / np.linalg.norm(g[0]), atol=1e-12)

    def test_zero_forcing_on_random_instances(self):
        for seed in range(30):
            g = random_channels(2, 8, 100 + seed)
            pre = zf_precoder(g)
            cross = g @ pre
            off = cross - np.diag(np.diagonal(cross))
            assert np.max(np.abs(off)) <= 1e-9

    def test_unit_norm_columns(self):
        g = random_channels(3, 8, 63)
        pre = zf_precoder(g)
        norms = np.linalg.norm(pre, axis=0)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_effective_gains_are_real_positive_on_diagonal(self):
        # the pseudo-inverse puts H V proportional to the identity, so each
        # g_k v_k is real and positive after column normalization
        g = random_channels(2, 8, 64)
        pre = zf_precoder(g)
        cross = g @ pre
        diag = np.diagonal(cross)
        assert np.all(np.abs(diag.imag) <= 1e-9)
        assert np.all(diag.real > 0.0)

    def test_rank_deficient_rejected(self):
        g = random_channels(2, 8, 65)
        g[1] = g[0]
        with pytest.raises(PrecodingError):
            zf_precoder(g)

    def test_ill_conditioned_rejected(self):
        g = random_channels(2, 8, 66)
        g[1] = g[0] + 1e-12 * random_channels(1, 8, 67)[0]
        with pytest.raises(PrecodingError):
            zf_precoder(g)

    def test_more_users_than_dimensions_rejected(self):
        with pytest.raises(PrecodingError):
            zf_precoder(random_channels(9, 8, 68))


class TestSinr:
    def test_perfect_csi_has_zero_interference(self):
        g = random_channels(2, 8, 71)
        pre = zf_precoder(g)
        signal, interference = interference_power(g, pre)
        assert np.all(interference <= 1e-18)
        assert np.array_equal(signal / (1.0 + interference), sinr(g, pre))
        s = sinr(g, pre, tx_power=2.0, noise_power=0.5)
        expected = 2.0 * np.abs(np.diagonal(g @ pre)) ** 2 / 0.5
        assert np.allclose(s, expected, rtol=1e-12)

    def test_column_swap_swaps_roles(self):
        g = random_channels(2, 8, 72)
        pre = zf_precoder(g)
        swapped = pre[:, ::-1]
        s = sinr(g, swapped)
        # signal now rides the other user's beam; compute by hand
        cross = np.abs(g @ swapped) ** 2
        expected = np.array(
            [cross[0, 0] / (1.0 + cross[0, 1]), cross[1, 1] / (1.0 + cross[1, 0])]
        )
        assert np.allclose(s, expected, rtol=1e-12)

    def test_matches_scalar_reevaluation(self):
        g = random_channels(2, 8, 73)
        quantized = g + 0.3 * random_channels(2, 8, 74)
        pre = zf_precoder(quantized)
        s = sinr(g, pre, tx_power=1.7, noise_power=0.9)
        for k in range(2):
            sig = 1.7 * abs(np.dot(g[k], pre[:, k])) ** 2
            interf = sum(
                1.7 * abs(np.dot(g[k], pre[:, j])) ** 2
                for j in range(2) if j != k
            )
            assert s[k] == pytest.approx(sig / (0.9 + interf), rel=1e-12)

    def test_per_user_phase_rotation_leaves_powers_invariant(self):
        g = random_channels(2, 8, 75)
        quantized = g + 0.3 * random_channels(2, 8, 76)
        pre = zf_precoder(quantized)
        rotated = g * np.exp(1j * np.array([[0.8], [2.1]]))
        assert np.allclose(
            interference_power(g, pre), interference_power(rotated, pre), rtol=1e-12
        )
        assert np.allclose(sinr(g, pre), sinr(rotated, pre), rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        g = random_channels(2, 8, 77)
        pre = zf_precoder(g)
        with pytest.raises(DomainError):
            sinr(random_channels(2, 6, 78), pre)


class TestInstantaneousRate:
    def test_known_values(self):
        assert instantaneous_rate(0.0) == pytest.approx(0.0, abs=0.0)
        assert instantaneous_rate(1.0) == pytest.approx(1.0, abs=0.0)
        assert instantaneous_rate(3.0) == pytest.approx(2.0, abs=0.0)

    def test_vectorized(self):
        out = instantaneous_rate([0.0, 1.0, 3.0])
        assert np.allclose(out, [0.0, 1.0, 2.0])

    def test_negative_sinr_rejected(self):
        with pytest.raises(DomainError):
            instantaneous_rate(-0.1)
