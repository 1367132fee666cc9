import math

import numpy as np
import pytest

from fkmoments import (
    DomainError,
    difference_covariance,
    gaussian_product_expectation,
    heat_density,
    sample_brownian_at,
)
from fkmoments.gaussian_paths import (
    brownian_batch_nd,
    det_qsum_3,
    gaussian_product_expectation_batch,
)


def make_rng(seed=0):
    return np.random.default_rng(seed)


class TestBrownianSampling:
    def test_time_zero_returns_start_exactly(self):
        path = sample_brownian_at([0.0], (1.25,), 1, make_rng(1))
        assert path.values[0, 0] == 1.25

    def test_variance_at_time_one(self):
        rng = make_rng(2)
        w = brownian_batch_nd(np.ones((100_000, 1)), 1, rng)[:, 0, 0]
        assert abs(w.var() - 1.0) < 0.02

    def test_covariance_structure(self):
        rng = make_rng(3)
        w = brownian_batch_nd(np.tile([0.3, 0.7], (100_000, 1)), 1, rng)
        cov = np.cov(w[:, 0, 0], w[:, 1, 0])
        assert abs(cov[0, 1] - 0.3) < 0.02

    def test_unsorted_times_restore_order(self):
        rng = make_rng(4)
        times = [0.9, 0.1, 0.5]
        path = sample_brownian_at(times, (0.0,), 1, rng)
        assert path.times.tolist() == times
        # increments over sorted order have the right signs of variance:
        # resample many and check empirical increment variances
        reps = brownian_batch_nd(np.tile(times, (50_000, 1)), 1, make_rng(5))
        sorted_vals = reps[:, np.argsort(times), 0]
        incr = np.diff(sorted_vals, axis=1)
        assert abs(incr[:, 0].var() - 0.4) < 0.02  # 0.5 - 0.1
        assert abs(incr[:, 1].var() - 0.4) < 0.02  # 0.9 - 0.5

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            sample_brownian_at([-0.1], (0.0,), 1, make_rng(6))

    def test_multidimensional_start(self):
        path = sample_brownian_at([0.0, 0.4], (1.0, -2.0), 2, make_rng(7))
        assert path.values.shape == (2, 2)
        assert np.array_equal(path.values[0], [1.0, -2.0])


class TestDifferenceCovariance:
    def test_single_pair(self):
        sig = difference_covariance([0.3], [0.6])
        assert sig.matrix[0, 0] == pytest.approx(0.9)

    def test_two_by_two(self):
        sig = difference_covariance([0.5, 0.5], [0.2, 0.8])
        assert np.allclose(sig.matrix, [[0.7, 0.7], [0.7, 1.3]])

    def test_diagonal_is_sum_of_times(self):
        rng = make_rng(8)
        t = rng.uniform(0, 1, 5)
        s = rng.uniform(0, 1, 5)
        sig = difference_covariance(t, s)
        assert np.allclose(np.diag(sig.matrix), t + s)

    def test_rejects_bad_shapes(self):
        with pytest.raises(DomainError):
            difference_covariance([], [])
        with pytest.raises(DomainError):
            difference_covariance([0.1, 0.2], [0.3])

    def test_cholesky_succeeds_on_random_lists(self):
        rng = make_rng(9)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            t = rng.uniform(0, 1, n)
            s = rng.uniform(0, 1, n)
            # repeated times make Sigma singular; jitter policy must cope
            if n > 1:
                t[1] = t[0]
                s[1] = s[0]
            val = gaussian_product_expectation(
                difference_covariance(t, s), 1.0, 1, 0.0
            )
            assert math.isfinite(val) and val > 0


class TestGaussianProductExpectation:
    def test_reference_value(self):
        sig = difference_covariance([0.5], [0.5])
        val = gaussian_product_expectation(sig, 1.0, 1, 0.0)
        assert val == pytest.approx(0.28209479177387814, rel=1e-10)

    def test_heat_density_identity(self):
        # n = 1: expectation equals p_{h+sigma}(offset) in any dimension
        rng = make_rng(10)
        for _ in range(25):
            a, b = rng.uniform(0.05, 1.0, 2)
            h = rng.uniform(0.3, 2.0)
            d = int(rng.integers(1, 4))
            offset = rng.normal(size=d)
            sig = difference_covariance([a], [b])
            val = gaussian_product_expectation(sig, h, d, offset)
            assert val == pytest.approx(heat_density(h + a + b, offset), rel=1e-9)

    def test_degenerate_covariance_limit(self):
        sig = difference_covariance([5e-13], [5e-13])
        val = gaussian_product_expectation(sig, 0.7, 1, 0.4)
        assert val == pytest.approx(heat_density(0.7, 0.4), rel=1e-6)

    def test_offset_monotonicity(self):
        sig = difference_covariance([0.4, 0.6], [0.3, 0.9])
        vals = [
            gaussian_product_expectation(sig, 1.0, 1, r) for r in (0.0, 0.5, 1.0, 2.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_permutation_invariance_exact(self):
        rng = make_rng(11)
        t = rng.uniform(0, 1, 4)
        s = rng.uniform(0, 1, 4)
        base = gaussian_product_expectation(difference_covariance(t, s), 0.8, 2, 0.3)
        for _ in range(5):
            perm = rng.permutation(4)
            val = gaussian_product_expectation(
                difference_covariance(t[perm], s[perm]), 0.8, 2, 0.3
            )
            assert val == base

    def test_batch_matches_scalar(self):
        rng = make_rng(12)
        for n in (1, 2, 3, 4):
            t = rng.uniform(0, 1, (6, n))
            s = rng.uniform(0, 1, (6, n))
            batch = gaussian_product_expectation_batch(t, s, 0.9, 2, 0.25)
            scalar = [
                gaussian_product_expectation(
                    difference_covariance(t[i], s[i]), 0.9, 2, (0.5, 0.0)
                )
                for i in range(6)
            ]
            assert np.allclose(batch, scalar, rtol=1e-10)

    def test_det_qsum_3_det_only_is_bitwise_equal(self):
        # the entries of I + Sigma / h for random time triples, as the
        # order-3 contraction builds them
        rng = make_rng(13)
        t = rng.uniform(0, 1, (4096, 3))
        s = rng.uniform(0, 1, (4096, 3))
        pair = np.minimum(t[:, :, None], t[:, None, :]) + np.minimum(s[:, :, None], s[:, None, :])
        cov = np.eye(3) + pair / 0.7
        args = [cov[:, 0, 0], cov[:, 0, 1], cov[:, 0, 2], cov[:, 1, 1], cov[:, 1, 2], cov[:, 2, 2]]
        det_full, qsum_full = det_qsum_3(*args)
        buf_det, buf_q = np.empty(4096), np.empty(4096)
        det_out, qsum_out = det_qsum_3(*args, out=(buf_det, buf_q))
        only_buf = np.empty(4096)
        det_only, no_qsum = det_qsum_3(*args, out=(only_buf, None))
        assert no_qsum is None
        assert det_only is only_buf and det_out is buf_det and qsum_out is buf_q
        assert np.array_equal(det_only, det_full) and np.array_equal(det_out, det_full)
        assert np.array_equal(qsum_out, qsum_full)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_monte_carlo_consistency(self, n):
        # sample mean of prod_j p_h(B1_{t_j} - B2_{s_j}) agrees with the
        # closed form within 3 stderr
        rng = make_rng(100 + n)
        t = np.sort(rng.uniform(0.05, 1.0, n))
        s = np.sort(rng.uniform(0.05, 1.0, n))
        reps = 100_000
        w1 = brownian_batch_nd(np.tile(t, (reps, 1)), 1, rng)
        w2 = brownian_batch_nd(np.tile(s, (reps, 1)), 1, rng)
        prods = np.prod(heat_density(1.0, (w1 - w2)), axis=1)
        closed = gaussian_product_expectation(difference_covariance(t, s), 1.0, 1, 0.0)
        stderr = prods.std(ddof=1) / math.sqrt(reps)
        assert abs(prods.mean() - closed) <= 3 * stderr
