import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkmoments import (
    Constant,
    DomainError,
    HeatKernel,
    QueryPoint,
    heat_density,
    inner_product_closed_form,
)
from fkmoments.gaussian_paths import (
    block_det,
    brownian_batch_nd,
    det_qsum_3,
    gaussian_product_expectation_batch,
)


def make_rng(seed=0):
    return np.random.default_rng(seed)


def _sorted_walk(times, dim, rng):
    """The reference walk: sort each row's times, draw independent Gaussian
    increments with variance equal to each gap, cumulatively sum, and
    restore the caller's order."""
    m, k = times.shape
    order = np.argsort(times, axis=1, kind="stable")
    sorted_times = np.take_along_axis(times, order, axis=1)
    gaps = sorted_times.copy()
    gaps[:, 1:] -= sorted_times[:, :-1]
    incr = np.sqrt(gaps)[:, :, None] * rng.standard_normal((m, k, dim))
    walk = np.cumsum(incr, axis=1)
    out = np.empty_like(walk)
    np.put_along_axis(out, order[:, :, None], walk, axis=1)
    return out


class TestBrownianSampling:
    def test_time_zero_returns_start_exactly(self):
        # zero-start paths: a time 0 gives exactly 0, so start + value is
        # exactly the start
        w = brownian_batch_nd(np.tile([0.0, 0.4, 0.0], (1000, 1)), 1, make_rng(1))
        assert np.all(w[:, [0, 2], 0] == 0.0)
        assert np.all(1.25 + w[:, [0, 2], 0] == 1.25)

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
        times = [0.9, 0.1, 0.5]
        reps = brownian_batch_nd(np.tile(times, (50_000, 1)), 1, make_rng(5))
        # values come back in the caller's order: column j has variance t_j
        assert np.allclose(reps[:, :, 0].var(axis=0), times, atol=0.02)
        # increments over sorted order have the gaps as variances
        sorted_vals = reps[:, np.argsort(times), 0]
        incr = np.diff(sorted_vals, axis=1)
        assert abs(incr[:, 0].var() - 0.4) < 0.02  # 0.5 - 0.1
        assert abs(incr[:, 1].var() - 0.4) < 0.02  # 0.9 - 0.5

    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_column_draws_one_normal_per_coordinate(self, dim):
        # a single time per row consumes exactly the normals of the general
        # route, standard_normal((m, 1, dim)), and scales them by sqrt(time)
        times = np.array([[0.0], [0.3], [1.7], [0.0]])
        rng, twin = make_rng(8), make_rng(8)
        w = brownian_batch_nd(times, dim, rng)
        z = twin.standard_normal((4, 1, dim))
        assert rng.bit_generator.state == twin.bit_generator.state
        assert w.shape == (4, 1, dim)
        assert np.all(w[[0, 3]] == 0.0)
        assert np.array_equal(w, np.sqrt(times)[:, :, None] * z)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        m=st.integers(1, 200),
        dim=st.integers(1, 3),
        tie_share=st.sampled_from([0.0, 0.2, 1.0]),
        zero_share=st.sampled_from([0.0, 0.2, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_two_columns_match_sorted_route_bitwise(self, m, dim, tie_share, zero_share, seed):
        # the two-column route is the sorted route without the sort: same
        # normals, same roundings, ties kept in order, zeros exactly zero
        pick = make_rng(seed)
        times = pick.uniform(0.0, 2.0, size=(m, 2))
        tied = pick.random(m) < tie_share
        times[tied, 1] = times[tied, 0]
        zeroed = pick.random((m, 2)) < zero_share
        times[zeroed] = 0.0
        rng, twin = make_rng(seed), make_rng(seed)
        fast = brownian_batch_nd(times, dim, rng)
        ref = _sorted_walk(times, dim, twin)
        assert fast.shape == ref.shape == (m, 2, dim)
        assert np.array_equal(fast.view(np.int64), ref.view(np.int64))
        assert rng.bit_generator.state == twin.bit_generator.state

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        m=st.integers(1, 200),
        k=st.integers(3, 8),
        dim=st.integers(1, 3),
        tie_share=st.sampled_from([0.0, 0.3, 1.0]),
        zero_share=st.sampled_from([0.0, 0.3, 1.0]),
        shared_row=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rank_route_matches_sorted_route_bitwise(
        self, m, k, dim, tie_share, zero_share, shared_row, seed
    ):
        # ranks by column comparisons stand in for the stable sort: same
        # normals, same roundings, equal times kept in column order; a
        # shared row is the broadcast view the fixed-time route passes
        pick = make_rng(seed)
        times = pick.uniform(0.0, 2.0, size=(m, k))
        tied = pick.random((m, k)) < tie_share
        times[tied] = np.broadcast_to(times[:, :1], (m, k))[tied]
        times[pick.random((m, k)) < zero_share] = 0.0
        if shared_row:
            times = np.broadcast_to(times[0], (m, k))
        rng, twin = make_rng(seed), make_rng(seed)
        fast = brownian_batch_nd(times, dim, rng)
        ref = _sorted_walk(times, dim, twin)
        assert fast.shape == ref.shape == (m, k, dim)
        assert np.array_equal(fast.view(np.int64), ref.view(np.int64))
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_multidimensional_start(self):
        w = brownian_batch_nd(np.tile([0.0, 0.4], (50_000, 1)), 2, make_rng(7))
        assert w.shape == (50_000, 2, 2)
        assert np.all(w[:, 0, :] == 0.0)
        # independent coordinates, each with variance 0.4
        assert np.allclose(w[:, 1, :].var(axis=0), 0.4, atol=0.02)
        assert abs(np.corrcoef(w[:, 1, 0], w[:, 1, 1])[0, 1]) < 0.02


def closed_form(t, s, h, d, off2):
    """The batched closed form at one time-pair tuple."""
    return float(
        gaussian_product_expectation_batch(
            np.atleast_2d(t), np.atleast_2d(s), h, d, off2
        )[0]
    )


def sigma_of(t, s):
    """Sigma_{jk} = min(t_j, t_k) + min(s_j, s_k) for one time-pair tuple."""
    return np.minimum.outer(t, t) + np.minimum.outer(s, s)


def dense_closed_form(sig, h, d, off2):
    """The closed form from a dense det/solve of I + Sigma/h."""
    n = len(sig)
    mat = np.eye(n) + sig / h
    qsum = float(np.sum(np.linalg.solve(mat, np.ones(n))))
    return (
        (2.0 * math.pi * h) ** (-0.5 * n * d)
        * np.linalg.det(mat) ** (-0.5 * d)
        * math.exp(-0.5 * off2 * qsum / h)
    )


def factored_entries(t, s, h):
    """(a, b, c, e, p, q, c00) of I + Sigma/h for rows of time triples."""
    one = 1.0 + (t + s) / h

    def entry(j, k):
        return (np.minimum(t[:, j], t[:, k]) + np.minimum(s[:, j], s[:, k])) / h

    e = entry(1, 2)
    p = one[:, 2] - e
    q = one[:, 1] - e
    return one[:, 0], entry(0, 1), entry(0, 2), e, p, q, block_det(e, p, q)


class TestDifferenceCovariance:
    # Sigma_{jk} = min(t_j, t_k) + min(s_j, s_k) is read back from the
    # closed form: at n = 1 it is the heat density p_{h + Sigma_00}
    def test_single_pair(self):
        val = closed_form([0.3], [0.6], 1.0, 1, 0.0)
        assert val == pytest.approx(heat_density(1.0 + 0.9, 0.0), rel=1e-12)

    def test_two_by_two(self):
        h, off2 = 0.8, 0.3
        expected = dense_closed_form(np.array([[0.7, 0.7], [0.7, 1.3]]), h, 1, off2)
        val = closed_form([0.5, 0.5], [0.2, 0.8], h, 1, off2)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_diagonal_is_sum_of_times(self):
        rng = make_rng(8)
        t = rng.uniform(0, 1, 5)
        s = rng.uniform(0, 1, 5)
        vals = gaussian_product_expectation_batch(t[:, None], s[:, None], 0.7, 1, 0.0)
        assert np.allclose(vals, heat_density(0.7 + t + s, np.zeros((5, 1))))

    def test_rejects_bad_shapes(self):
        with pytest.raises(DomainError):
            gaussian_product_expectation_batch(np.empty((1, 0)), np.empty((1, 0)), 1.0, 1, 0.0)
        with pytest.raises(DomainError):
            gaussian_product_expectation_batch(
                np.array([[0.1, 0.2]]), np.array([[0.3]]), 1.0, 1, 0.0
            )
        q = QueryPoint(t=1.0, s=1.0, x=(0.0,), y=(0.0,))
        for t, s in (([0.1, 0.2], [0.3]), ([], [0.3])):
            with pytest.raises(DomainError):
                inner_product_closed_form(t, s, q, HeatKernel(dim=1), Constant(1.0))

    def test_closed_form_finite_on_repeated_times(self):
        rng = make_rng(9)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            t = rng.uniform(0, 1, n)
            s = rng.uniform(0, 1, n)
            # repeated times make Sigma singular; I + Sigma/h is not
            if n > 1:
                t[1] = t[0]
                s[1] = s[0]
            val = closed_form(t, s, 1.0, 1, 0.0)
            assert math.isfinite(val) and val > 0


class TestGaussianProductExpectation:
    def test_reference_value(self):
        val = closed_form([0.5], [0.5], 1.0, 1, 0.0)
        assert val == pytest.approx(0.28209479177387814, rel=1e-10)

    def test_heat_density_identity(self):
        # n = 1: expectation equals p_{h+sigma}(offset) in any dimension
        rng = make_rng(10)
        for _ in range(25):
            a, b = rng.uniform(0.05, 1.0, 2)
            h = rng.uniform(0.3, 2.0)
            d = int(rng.integers(1, 4))
            offset = rng.normal(size=d)
            val = closed_form([a], [b], h, d, float(offset @ offset))
            assert val == pytest.approx(heat_density(h + a + b, offset), rel=1e-9)

    def test_degenerate_covariance_limit(self):
        val = closed_form([5e-13], [5e-13], 0.7, 1, 0.4**2)
        assert val == pytest.approx(heat_density(0.7, 0.4), rel=1e-6)

    def test_offset_monotonicity(self):
        vals = [
            closed_form([0.4, 0.6], [0.3, 0.9], 1.0, 1, r * r) for r in (0.0, 0.5, 1.0, 2.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 2), st.floats(0.0, 1.0)), min_size=1, max_size=6
        ),
        t_pool=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        repeat=st.booleans(),
        perm_seed=st.integers(0, 2**32 - 1),
    )
    def test_permutation_invariance_exact(self, pairs, t_pool, repeat, perm_seed):
        # t is drawn from a pool of three, so equal t come with different s;
        # ``repeat`` makes the last pair a copy of the first
        if repeat and len(pairs) > 1:
            pairs[-1] = pairs[0]
        t = np.array([t_pool[i] for i, _ in pairs])
        s = np.array([v for _, v in pairs])
        q = QueryPoint(t=1.0, s=1.0, x=(0.3, 0.0), y=(0.0, 0.0))
        f = HeatKernel(dim=2, bandwidth=0.8)
        base = inner_product_closed_form(t, s, q, f, Constant(1.0))
        perm = make_rng(perm_seed).permutation(len(pairs))
        assert inner_product_closed_form(t[perm], s[perm], q, f, Constant(1.0)) == base

    def test_batch_matches_scalar(self):
        rng = make_rng(12)
        for n in range(1, 7):
            t = rng.uniform(0, 1, (6, n))
            s = rng.uniform(0, 1, (6, n))
            batch = gaussian_product_expectation_batch(t, s, 0.9, 2, 0.25)
            scalar = [dense_closed_form(sigma_of(t[i], s[i]), 0.9, 2, 0.25) for i in range(6)]
            assert np.allclose(batch, scalar, rtol=1e-10)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 6),
        t_pool=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=3, max_size=3),
        s_pool=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=3, max_size=3),
        picks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=6, max_size=6),
        h=st.floats(0.05, 2.0),
        d=st.integers(1, 3),
        off2=st.sampled_from([0.0, 0.25, 1.0]),
    )
    def test_batch_matches_dense_reference(self, n, t_pool, s_pool, picks, h, d, off2):
        # picking from pools of three repeats times; a pool entry may be 0
        t = np.array([t_pool[i] for i, _ in picks[:n]])
        s = np.array([s_pool[j] for _, j in picks[:n]])
        val = closed_form(t, s, h, d, off2)
        assert val == pytest.approx(dense_closed_form(sigma_of(t, s), h, d, off2), rel=1e-12)

    def test_det_qsum_3_det_only_is_bitwise_equal(self):
        # the factored entries of I + Sigma / h for random time triples, as
        # the order-3 contraction builds them
        rng = make_rng(13)
        args = factored_entries(rng.uniform(0, 1, (4096, 3)), rng.uniform(0, 1, (4096, 3)), 0.7)
        det_full, qsum_full, det_only = np.empty((3, 4096))
        det_qsum_3(*args, out=(det_full, qsum_full))
        det_qsum_3(*args, out=(det_only, None))
        assert np.array_equal(det_only, det_full)
        assert np.all(det_full >= 1.0) and np.all(qsum_full > 0.0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        t_pool=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=3, max_size=3),
        s_pool=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=3, max_size=3),
        t_pick=st.lists(st.integers(0, 2), min_size=3, max_size=3),
        s_pick=st.lists(st.integers(0, 2), min_size=3, max_size=3),
        h=st.floats(0.05, 2.0),
    )
    def test_det_qsum_3_matches_linalg(self, t_pool, s_pool, t_pick, s_pick, h):
        # picking from a pool of three repeats times; a pool entry may be 0
        t = np.array([t_pool[i] for i in t_pick])
        s = np.array([s_pool[i] for i in s_pick])
        det, qsum = np.empty(1), np.empty(1)
        det_qsum_3(*factored_entries(t[None, :], s[None, :], h), out=(det, qsum))
        mat = np.eye(3) + sigma_of(t, s) / h
        assert det[0] == pytest.approx(np.linalg.det(mat), rel=1e-12)
        assert qsum[0] == pytest.approx(np.sum(np.linalg.solve(mat, np.ones(3))), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
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
        closed = closed_form(t, s, 1.0, 1, 0.0)
        stderr = prods.std(ddof=1) / math.sqrt(reps)
        assert abs(prods.mean() - closed) <= 3 * stderr

