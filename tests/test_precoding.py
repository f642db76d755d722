import hashlib
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from compsim import montecarlo, precoding, scenario
from compsim.errors import DomainError
from compsim.precoding import (
    GRAM_EIGENVALUE_RATIO,
    MAX_CONDITION_NUMBER,
    _svd_path,
    instantaneous_rate,
    interference_power,
    sinr,
    zf_precoder,
)
from compsim.rng import substream

import test_golden

EPS = np.finfo(float).eps
GRAM_CONDITION = GRAM_EIGENVALUE_RATIO ** -0.5  # cond(H) below which the Gram path runs


def random_channels(n_users, dim, seed):
    z = substream(seed, 0, 0).standard_normal((n_users, dim, 2))
    return z[..., 0] + 1j * z[..., 1]


def zf_one(g):
    """The precoder of a single matrix, which zero-forcing must accept."""
    pre, reason = zf_precoder(g[None])
    assert reason.tolist() == ["ok"]
    return pre[0]


def conditioned_channels(trials, n_users, dim, condition, seed):
    """A stack of (n_users, dim) matrices U diag(s) V^H with random unitary U,
    orthonormal V and singular values s spread from 1 down to 1/condition."""
    def unitary(label, n, cols):
        z = substream(seed, 1, label).standard_normal((trials, n, n, 2))
        return np.linalg.qr(z[..., 0] + 1j * z[..., 1])[0][:, :, :cols]

    s = np.geomspace(1.0, 1.0 / condition, n_users)
    return ((unitary(0, n_users, n_users) * s)
            @ np.swapaxes(unitary(1, dim, n_users).conj(), 1, 2))


def exact_distance(h, pre) -> float:
    """Largest distance of a column of ``pre`` from the matching exact unit
    column of H^H (H H^H)^-1, for one complex matrix ``h``.

    Rational arithmetic on the float entries of the real form
    [[Re h, -Im h], [Im h, Re h]], whose pseudo-inverse holds that of ``h``
    in its first n_users columns (real parts above imaginary ones); then a
    50-digit square root and distance."""
    n, m = h.shape
    rows = [[Fraction(x) for x in row]
            for row in np.block([[h.real, -h.imag], [h.imag, h.real]]).tolist()]
    # Gauss-Jordan on [G | the first n columns of I]; G is positive definite
    gram = [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]
    solve = [g + [Fraction(int(i == j)) for j in range(n)] for i, g in enumerate(gram)]
    for k in range(2 * n):
        solve[k] = [x / solve[k][k] for x in solve[k]]
        for i in range(2 * n):
            if i != k and solve[i][k]:
                factor = solve[i][k]
                solve[i] = [a - factor * b for a, b in zip(solve[i], solve[k])]
    worst = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 50

        def dec(f):
            return Decimal(f.numerator) / Decimal(f.denominator)

        for k in range(n):
            column = [sum(rows[i][j] * solve[i][2 * n + k] for i in range(2 * n))
                      for j in range(2 * m)]
            norm = dec(sum(x * x for x in column)).sqrt()
            got = pre[:, k].real.tolist() + pre[:, k].imag.tolist()
            worst = max(worst, sum((Decimal(g) - dec(x) / norm) ** 2
                                   for g, x in zip(got, column)).sqrt())
    return float(worst)


def lu_growth(g) -> float:
    """nu = || |L||U| || / ||G|| of the LU factors of ``g`` with partial
    pivoting on |re| + |im|, LAPACK's choice of pivot."""
    upper, n = g.copy(), len(g)
    lower = np.eye(n, dtype=complex)
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(upper[k:, k].real) + np.abs(upper[k:, k].imag)))
        upper[[k, p]] = upper[[p, k]]
        lower[[k, p], :k] = lower[[p, k], :k]
        lower[k + 1:, k] = upper[k + 1:, k] / upper[k, k]
        upper[k + 1:] -= np.outer(lower[k + 1:, k], upper[k])
    return np.linalg.norm(np.abs(lower) @ np.abs(np.triu(upper)), 2) / np.linalg.norm(g, 2)


def closed_form_constant(dim) -> float:
    """c2 of zf_precoder's two-user closed form at m = ``dim``."""
    return 2 * (dim + 2) + 1 + 4 * np.sqrt(2) + (dim + 7) / 2


def gram_ratios(H) -> np.ndarray:
    """lambda_min / lambda_max of each G = H H^H, by ``eigvalsh``."""
    eig = np.linalg.eigvalsh(H @ np.swapaxes(H.conj(), 1, 2))
    return eig[:, 0] / eig[:, -1]


def two_user_straddling_stack(conditions=(1.0, 0.5 * GRAM_CONDITION, 2.0 * GRAM_CONDITION,
                                           1e6, 1e9, 1e12), seed=180):
    """Two-user matrices of the given conditions, with a rank-deficient one
    inserted fourth: by default two below the Gram threshold, two above it
    but "ok", and two past the condition cap."""
    stack = np.concatenate([conditioned_channels(1, 2, 8, c, seed + i)
                            for i, c in enumerate(conditions)])
    rank = random_channels(2, 8, seed + 8)
    rank[1] = 2.0 * rank[0]
    return np.insert(stack, 3, rank, axis=0)


def orthogonalize_rows(mat):
    q, _ = np.linalg.qr(mat.conj().T)
    scales = np.linalg.norm(mat, axis=1)
    return (q[:, : mat.shape[0]].conj().T) * scales[:, None]


class TestZfPrecoder:
    def test_orthogonal_rows_reduce_to_matched_filter(self):
        g = orthogonalize_rows(random_channels(2, 8, 61))
        pre = zf_one(g)
        for k in range(2):
            expected = g[k].conj() / np.linalg.norm(g[k])
            assert np.allclose(pre[:, k], expected, atol=1e-12)

    def test_single_user_is_matched_filter(self):
        g = random_channels(1, 8, 62)
        pre = zf_one(g)
        assert np.allclose(pre[:, 0], g[0].conj() / np.linalg.norm(g[0]), atol=1e-12)

    def test_zero_forcing_on_random_instances(self):
        for seed in range(30):
            g = random_channels(2, 8, 100 + seed)
            pre = zf_one(g)
            cross = g @ pre
            off = cross - np.diag(np.diagonal(cross))
            assert np.max(np.abs(off)) <= 1e-9

    def test_unit_norm_columns(self):
        g = random_channels(3, 8, 63)
        pre = zf_one(g)
        norms = np.linalg.norm(pre, axis=0)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_effective_gains_are_real_positive_on_diagonal(self):
        # the pseudo-inverse puts H V proportional to the identity, so each
        # g_k v_k is real and positive after column normalization
        g = random_channels(2, 8, 64)
        pre = zf_one(g)
        cross = g @ pre
        diag = np.diagonal(cross)
        assert np.all(np.abs(diag.imag) <= 1e-9)
        assert np.all(diag.real > 0.0)

    def test_rank_deficient_rejected(self):
        g = random_channels(2, 8, 65)
        g[1] = g[0]
        pre, reason = zf_precoder(g[None])
        assert reason.tolist() == ["rank"]
        assert np.isnan(pre).all()

    def test_ill_conditioned_rejected(self):
        g = random_channels(2, 8, 66)
        g[1] = g[0] + 1e-12 * random_channels(1, 8, 67)[0]
        pre, reason = zf_precoder(g[None])
        assert reason.tolist() == ["condition cap"]
        assert np.isnan(pre).all()

    def test_more_users_than_dimensions_rejected(self):
        pre, reason = zf_precoder(random_channels(9, 8, 68)[None])
        assert reason.tolist() == ["rank"]
        assert np.isnan(pre).all()
        stack = np.stack([random_channels(5, 4, 68 + t) for t in range(3)])
        pre, reason = zf_precoder(stack)
        assert pre.shape == (3, 4, 5) and reason.tolist() == ["rank"] * 3
        assert np.isnan(pre).all()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), users=st.integers(1, 4), extra=st.integers(0, 8))
    def test_gaussian_stacks_agree_with_the_svd_path(self, seed, users, extra):
        # at least twice as many dimensions as users, as in every preset, so
        # the Gaussian matrices are well conditioned
        z = substream(seed, 2, 0).standard_normal((16, users, 2 * users + extra, 2))
        H = z[..., 0] + 1j * z[..., 1]
        pre, reason = zf_precoder(H)
        svd_pre, svd_reason = _svd_path(H)
        assert np.array_equal(reason, svd_reason)
        assert np.max(np.abs(pre - svd_pre)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), users=st.integers(3, 4), extra=st.integers(0, 8),
           log_condition=st.floats(0.0, 0.99 * np.log10(GRAM_CONDITION)))
    # cond(H) = 1, where the SVD path is itself 7.9e-15 from the exact
    # columns: this once failed a bound measured against the SVD path
    @example(seed=0, users=3, extra=0, log_condition=6.2e-15)
    def test_error_grows_as_the_squared_condition_number(self, seed, users, extra,
                                                          log_condition):
        # zf_precoder's derived LU bound, c u cond(H)^2 from each exact unit
        # column, with u = eps / 2 and nu the growth of each Gram matrix's LU
        condition = 10.0 ** log_condition
        dim = users + extra
        H = conditioned_channels(8, users, dim, condition, seed)
        pre, reason = zf_precoder(H)
        assert reason.tolist() == _svd_path(H)[1].tolist() == ["ok"] * 8
        for h, columns in zip(H, pre):
            c = (users * (dim + 2) + 3 * (users + 11) * lu_growth(h @ h.conj().T)
                 + (users + 2) * np.sqrt(users) + (dim + 7) / 2)
            assert exact_distance(h, columns) <= c * EPS / 2 * condition**2

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 8),
           log_condition=st.floats(0.0, 0.99 * np.log10(GRAM_CONDITION)))
    @example(seed=0, extra=0, log_condition=6.2e-15)
    @example(seed=1, extra=6, log_condition=0.99 * np.log10(GRAM_CONDITION))
    def test_two_user_error_within_the_closed_form_bound(self, seed, extra, log_condition):
        # the closed form's derived bound, c2 u cond(H)^2 from each exact
        # unit column: no LU growth term
        condition = 10.0 ** log_condition
        dim = 2 + extra
        H = conditioned_channels(8, 2, dim, condition, seed)
        pre, reason = zf_precoder(H)
        assert reason.tolist() == _svd_path(H)[1].tolist() == ["ok"] * 8
        for h, columns in zip(H, pre):
            assert exact_distance(h, columns) <= (closed_form_constant(dim) * EPS / 2
                                                  * condition**2)

    def test_stack_straddling_the_gram_threshold_and_the_cap(self):
        # conditions below and above the Gram threshold (both "ok"), a
        # rank-deficient trial and two past the condition cap
        conditions = [1.0, 0.5 * GRAM_CONDITION, 2.0 * GRAM_CONDITION, 1e6, 1e9, 1e12]
        stack = np.concatenate([conditioned_channels(1, 3, 8, c, 80 + i)
                                for i, c in enumerate(conditions)])
        rank = random_channels(3, 8, 88)
        rank[2] = rank[0] - 2.0 * rank[1]
        stack = np.insert(stack, 3, rank, axis=0)
        pre, reason = zf_precoder(stack)
        svd_pre, svd_reason = _svd_path(stack)
        assert reason.tolist() == ["ok"] * 3 + ["rank", "ok", "condition cap", "condition cap"]
        assert np.array_equal(reason, svd_reason)
        assert np.array_equal(np.isnan(pre), np.isnan(svd_pre))
        # the trials past the threshold are the SVD's own, bit for bit
        assert np.array_equal(pre[2:], svd_pre[2:], equal_nan=True)
        for t in range(len(stack)):
            alone, alone_reason = zf_precoder(stack[t:t + 1])
            assert alone_reason[0] == reason[t]
            assert np.array_equal(alone[0], pre[t], equal_nan=True)

    def test_two_user_stack_straddling_the_gram_threshold_and_the_cap(self):
        # the closed form's twin of the stack above
        stack = two_user_straddling_stack()
        pre, reason = zf_precoder(stack)
        svd_pre, svd_reason = _svd_path(stack)
        assert reason.tolist() == ["ok"] * 3 + ["rank", "ok", "condition cap", "condition cap"]
        assert np.array_equal(reason, svd_reason)
        # the trials past the threshold are the SVD's own, bit for bit
        assert np.array_equal(pre[2:], svd_pre[2:], equal_nan=True)
        for t in range(len(stack)):
            alone, alone_reason = zf_precoder(stack[t:t + 1])
            assert alone_reason[0] == reason[t]
            assert np.array_equal(alone[0], pre[t], equal_nan=True)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 8),
           log_offsets=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=16))
    @example(seed=3, extra=6, log_offsets=[0.0, 1e-8, -1e-8, 1e-6, -1e-6, 1.0, -1.0])
    def test_two_user_path_choice_equals_the_eigvalsh_test(self, seed, extra, log_offsets):
        # the rows the closed form hands to the SVD tail are those whose
        # eigvalsh ratio is at or below GRAM_EIGENVALUE_RATIO, away from
        # rounding distance of it: cond(H) = GRAM_CONDITION 10^offset
        H = np.concatenate([conditioned_channels(1, 2, 2 + extra,
                                                 GRAM_CONDITION * 10.0**offset, seed + i)
                            for i, offset in enumerate(log_offsets)])
        ratio = gram_ratios(H)
        H = H[np.abs(ratio / GRAM_EIGENVALUE_RATIO - 1.0) > 1e-9]
        handed = []

        def spy(stack):
            handed.append(len(stack))
            return _svd_path(stack)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(precoding, "_svd_path", spy)
            zf_precoder(H)
        assert sum(handed) == np.count_nonzero(gram_ratios(H) <= GRAM_EIGENVALUE_RATIO)

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_two_user_stack_far_from_unit_scale(self, scale):
        # no under- or overflow: the same reasons, and each unit column
        # within the derived bound of the unscaled one. Both are within
        # c2 u kappa^2 of their exact columns, and rounding the scaled
        # entries moves the exact columns by at most 3 sqrt(2) u kappa^2.
        # (Trials the SVD tail calls "ok" are left out: its columns of
        # entries 1 / sigma overflow at 1e-150.)
        conditions = list(np.geomspace(1.0, 0.99 * GRAM_CONDITION, 6)) + [1e9, 1e12]
        H = two_user_straddling_stack(conditions, seed=400)
        pre, reason = zf_precoder(H)
        scaled, scaled_reason = zf_precoder(H * scale)
        assert reason.tolist() == ["ok"] * 3 + ["rank"] + ["ok"] * 3 + ["condition cap"] * 2
        assert np.array_equal(scaled_reason, reason)
        assert np.array_equal(np.isnan(scaled), np.isnan(pre))
        ok = reason == "ok"
        s = np.linalg.svd(H[ok], compute_uv=False)
        bound = (2 * closed_form_constant(8) + 3 * np.sqrt(2)) * EPS / 2 * (s[:, 0] / s[:, 1])**2
        assert (np.linalg.norm(scaled[ok] - pre[ok], axis=1) <= bound[:, None]).all()

    @pytest.mark.parametrize("edge_snr_db, throughput, ideal", [
        (-2000.0, [0.0, 0.0], [0.0, 0.0]),
        (1100.0, [4.198056529785481, 4.024055440150166],
         [368.14622198094776, 368.11038925176587]),
        (2000.0, [4.1980565297854815, 4.024055440150166], [667.11975052081, 667.0839177916282]),
    ])
    def test_fig3_at_extreme_snrs_keeps_its_numbers(self, edge_snr_db, throughput, ideal):
        # fig3's first arm at 250 m, recorded before the two-user closed form:
        # no trial fails, and the throughputs move in their last bits only
        arm = scenario.preset("fig3").arms[0].scenario
        scn = scenario.at_sweep_point(replace(arm, trials=300, geometry=replace(
            arm.geometry, edge_snr_db=edge_snr_db)), 250.0)
        with np.errstate(over="ignore"):  # the interference SE overflows at 2000 dB
            result = montecarlo.run(scn)
        assert result.failures == 0
        assert result.throughput_mean.tolist() == pytest.approx(throughput, rel=1e-12, abs=0.0)
        assert result.ideal_throughput_mean.tolist() == pytest.approx(ideal, rel=1e-12, abs=0.0)

    @pytest.mark.skipif(
        (np.__version__, test_golden._blas())
        != (test_golden.RECORDED_NUMPY, test_golden.RECORDED_BLAS),
        reason="digests recorded with the numpy and BLAS of tests/test_golden.py")
    @pytest.mark.parametrize("users, digest", [
        (1, "deb1866061eb6ceda1e58cd3253870041358d982499474259925be38e5bbd4bc"),
        (3, "bf85ea217d3bc2904aef4a48313464c2099f01c0eeebb71220244d45a5562b36"),
        (4, "24db43c1d2b23f039da3689909f8387c14a642b1ce3ba1b31278331b3c11d50a"),
    ])
    def test_other_user_counts_keep_their_bits(self, users, digest):
        # recorded before the two-user closed form: Gaussian trials, one with
        # a zero row and six conditions across the threshold and the cap
        z = substream(2024, 2, users).standard_normal((24, users, 8, 2))
        conditions = (1.0, 0.5 * GRAM_CONDITION, 2.0 * GRAM_CONDITION, 1e6, 1e9, 1e12)
        rank = random_channels(users, 8, 310 + users)
        rank[-1] = 0.0
        H = np.concatenate([z[..., 0] + 1j * z[..., 1], rank[None]]
                           + [conditioned_channels(1, users, 8, c, 300 + i)
                              for i, c in enumerate(conditions)])
        pre, reason = zf_precoder(H)
        assert hashlib.sha256(pre.tobytes() + reason.tobytes()).hexdigest() == digest

    def test_reasons_equal_the_svd_path_on_preset_runs(self, monkeypatch):
        # every trial of small fig3, fig4 global_6bit and fig5 runs, both arms
        gram_zf, trials, rejected = precoding.zf_precoder, [0], [0]

        def checked(H):
            pre, reason = gram_zf(H)
            assert np.array_equal(reason, _svd_path(np.asarray(H, dtype=complex))[1])
            trials[0] += len(reason)
            rejected[0] += np.count_nonzero(reason != "ok")
            return pre, reason

        monkeypatch.setattr(precoding, "zf_precoder", checked)
        fig4 = {a.label: a.scenario for a in scenario.preset("fig4").arms}
        fixed = [fixed for arm in scenario.preset("fig3").arms
                 for _, fixed in scenario.resolved_points(replace(arm.scenario, trials=40))]
        fixed.append(scenario.at_sweep_point(replace(fig4["global_6bit"], trials=200), 100.0))
        for scn in fixed:
            montecarlo.run(scn)
        for arm in scenario.preset("fig5").arms:
            montecarlo.run_cdf(replace(arm.scenario, drops=60))
        assert trials[0] == 2 * (15 * 40 + 200 + 2 * 60 * 20)
        assert rejected[0] > 0

    def test_each_trial_of_a_stack_gets_its_own_reason(self):
        # one well-conditioned matrix, one rank-deficient, one whose
        # condition number is finite but above the cap
        good = random_channels(2, 8, 69)
        rank = good.copy()
        rank[1] = 2.0 * rank[0]
        capped = good.copy()
        capped[1] = capped[0] + 1e-10 * random_channels(1, 8, 70)[0]
        s = np.linalg.svd(capped, compute_uv=False)
        assert MAX_CONDITION_NUMBER < s[0] / s[-1] < np.inf
        pre, reason = zf_precoder(np.stack([good, rank, capped]))
        assert reason.tolist() == ["ok", "rank", "condition cap"]
        # the cap rejects: no regularized precoder is returned for it
        assert np.isnan(pre[1:]).all()
        assert np.array_equal(pre[0], zf_one(good))
        cross = good @ pre[0]
        assert np.max(np.abs(cross - np.diag(np.diagonal(cross)))) <= 1e-9

    def test_one_trial_per_matrix_required(self):
        with pytest.raises(DomainError):
            zf_precoder(random_channels(2, 8, 71))


class TestSinr:
    # each case is a one-trial stack: g is (1, users, dims)
    def test_perfect_csi_has_zero_interference(self):
        g = random_channels(2, 8, 71)[None]
        pre = zf_one(g[0])[None]
        signal, interference = interference_power(g, pre)
        assert np.all(interference <= 1e-18)
        assert np.array_equal(signal / (1.0 + interference), sinr(g, pre))
        s = sinr(g, pre, tx_power=2.0, noise_power=0.5)
        expected = 2.0 * np.abs(np.diagonal(g[0] @ pre[0])) ** 2 / 0.5
        assert np.allclose(s[0], expected, rtol=1e-12)

    def test_column_swap_swaps_roles(self):
        g = random_channels(2, 8, 72)[None]
        swapped = zf_one(g[0])[None, :, ::-1]
        s = sinr(g, swapped)[0]
        # signal now rides the other user's beam; compute by hand
        cross = np.abs(g[0] @ swapped[0]) ** 2
        expected = np.array(
            [cross[0, 0] / (1.0 + cross[0, 1]), cross[1, 1] / (1.0 + cross[1, 0])]
        )
        assert np.allclose(s, expected, rtol=1e-12)

    def test_matches_scalar_reevaluation(self):
        g = random_channels(2, 8, 73)
        quantized = g + 0.3 * random_channels(2, 8, 74)
        pre = zf_one(quantized)
        s = sinr(g[None], pre[None], tx_power=1.7, noise_power=0.9)[0]
        for k in range(2):
            sig = 1.7 * abs(np.dot(g[k], pre[:, k])) ** 2
            interf = sum(
                1.7 * abs(np.dot(g[k], pre[:, j])) ** 2
                for j in range(2) if j != k
            )
            assert s[k] == pytest.approx(sig / (0.9 + interf), rel=1e-12)

    def test_per_user_phase_rotation_leaves_powers_invariant(self):
        g = random_channels(2, 8, 75)[None]
        quantized = g + 0.3 * random_channels(2, 8, 76)
        pre = zf_one(quantized[0])[None]
        rotated = g * np.exp(1j * np.array([[0.8], [2.1]]))
        assert np.allclose(
            interference_power(g, pre), interference_power(rotated, pre), rtol=1e-12
        )
        assert np.allclose(sinr(g, pre), sinr(rotated, pre), rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        pre = zf_one(random_channels(2, 8, 77))[None]
        with pytest.raises(DomainError):
            sinr(random_channels(2, 6, 78)[None], pre)

    def test_trials_of_a_stack_evaluate_as_alone(self):
        g = np.stack([random_channels(2, 8, 79 + t) for t in range(5)])
        pre = np.stack([zf_one(g[t] + 0.3 * random_channels(2, 8, 90 + t)) for t in range(5)])
        s = sinr(g, pre, tx_power=1.7, noise_power=0.9)
        for t in range(5):
            assert np.array_equal(s[t], sinr(g[t:t + 1], pre[t:t + 1], 1.7, 0.9)[0])


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
