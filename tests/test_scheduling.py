import numpy as np
import pytest

from compsim.errors import ConfigurationError, DomainError
from compsim.scheduling import PairingPolicy, quantized_correlation, select_pairing
from compsim.rng import substream


def random_pool(count, dim, seed):
    z = substream(seed, 0, 0).standard_normal((count, dim, 2))
    vecs = z[..., 0] + 1j * z[..., 1]
    return [vecs[i] for i in range(count)]


class TestCorrelation:
    def test_identical_vectors(self):
        v = random_pool(1, 8, 81)[0]
        assert quantized_correlation(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        a = np.zeros(4, dtype=complex); a[0] = 2.0
        b = np.zeros(4, dtype=complex); b[1] = 0.5j
        assert quantized_correlation(a, b) == pytest.approx(0.0, abs=0.0)

    def test_hand_computed_value(self):
        a = np.zeros(8, dtype=complex); a[0] = 1.0
        b = np.zeros(8, dtype=complex); b[0] = 1.0; b[1] = 1.0
        b /= np.sqrt(2.0)
        assert quantized_correlation(a, b) == pytest.approx(1 / np.sqrt(2), rel=1e-12)

    def test_symmetry(self):
        a, b = random_pool(2, 8, 82)
        assert quantized_correlation(a, b) == pytest.approx(
            quantized_correlation(b, a), abs=1e-15
        )

    def test_zero_vector_rejected(self):
        v = random_pool(1, 8, 83)[0]
        with pytest.raises(DomainError):
            quantized_correlation(v, np.zeros(8, dtype=complex))


class TestSelectPairing:
    def test_policy_validation(self):
        for mode in ("nope", "fixed"):
            with pytest.raises(ConfigurationError):
                PairingPolicy(mode=mode)
        with pytest.raises(ConfigurationError):
            PairingPolicy(mode="sus_threshold", threshold=1.5)

    def test_always_pair_returns_designated_users(self):
        users = random_pool(2, 8, 84)
        users[1] = 3.0 * users[0]  # fully correlated: still served together
        paired = select_pairing(np.stack(users)[None], PairingPolicy(mode="always_pair"))
        assert paired.tolist() == [True]

    def test_threshold_zero_rejects_generic_channels(self):
        # exact orthogonality has probability zero for continuous draws
        users = random_pool(2, 8, 88)
        policy = PairingPolicy(mode="sus_threshold", threshold=0.0)
        assert select_pairing(np.stack(users)[None], policy).tolist() == [False]

    def test_matches_brute_force_oracle(self):
        # independent oracle: every later user against every earlier one,
        # re-checked with plain loops, on three-user draws, all seeds of a
        # threshold in one stack
        draws = [random_pool(3, 4, 900 + seed) for seed in range(50)]
        for threshold in (0.0, 0.3, 1.0):
            policy = PairingPolicy(mode="sus_threshold", threshold=threshold)
            expected = []
            for users in draws:
                served = True
                for i in range(1, len(users)):
                    for j in range(i):
                        corr = abs(np.vdot(users[j], users[i])) / (
                            np.linalg.norm(users[i]) * np.linalg.norm(users[j])
                        )
                        if corr >= threshold:
                            served = False
                expected.append(served)
            assert select_pairing(np.array(draws), policy).tolist() == expected
            if threshold == 0.3:
                assert set(expected) == {True, False}  # the draws exercise both branches

    def test_selection_is_deterministic(self):
        users = np.stack(random_pool(2, 8, 92))[None]
        policy = PairingPolicy(mode="sus_threshold", threshold=0.5)
        assert np.array_equal(select_pairing(users, policy), select_pairing(users, policy))

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            select_pairing(np.zeros((1, 0, 8), dtype=complex), PairingPolicy())
