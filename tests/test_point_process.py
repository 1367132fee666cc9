import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from fkmoments import (
    Constant,
    DomainError,
    EstimatorConfig,
    HeatKernel,
    QueryPoint,
    TemporalKernel,
    ZeroKernel,
    estimate_second_moment_fractional,
    estimate_second_moment_white,
)
from fkmoments.mc_engine import _fractional_points
from fkmoments.point_process import (
    TEMPORAL_IMPORTANCE,
    UNIFORM,
    _conditional_pmf,
    fixed_count_table,
    poisson_count_table,
    sample_eta_tilted,
)
from fkmoments.verify import (
    _engine_count_table,
    _rectangle_counts,
    check_conditional_uniformity,
    check_count_table,
    check_poisson_law,
    hypercube_integrals,
)

ALPHA = 1e-3
K75 = TemporalKernel(0.75)


def make_rng(seed=7):
    return np.random.default_rng(seed)


def order_counts(t, s, seed, replicates=100_000):
    """Replicates with K = 0, 1, ... up to the largest drawn count in the
    fractional engine's count law on [0,t] x [0,s] (a zero kernel keeps
    the run cheap)."""
    q = QueryPoint(t=t, s=s, x=(0.0,), y=(0.0,))
    cfg = EstimatorConfig(replicates=replicates, seed=seed)
    est = estimate_second_moment_fractional(q, K75, ZeroKernel(dim=1), Constant(1.0), cfg)
    return np.array([est.per_order[n][2] for n in range(len(est.per_order))])


def planar_points(rng, realizations, rate):
    """All points of ``realizations`` planar Poisson realizations on
    [0,1]^2, drawn as check_poisson_law draws them, and their owners."""
    totals = rng.poisson(rate, size=realizations)
    points = rng.uniform(0.0, 1.0, size=(int(totals.sum()), 2))
    return points, np.repeat(np.arange(realizations), totals)


class TestGlobalProcess:
    def test_count_statistics(self):
        # restricted to the whole unit square, the count is the global one
        counts = order_counts(1.0, 1.0, seed=1)
        n = counts.sum()
        assert abs(np.dot(np.arange(counts.size), counts) / n - 1.0) < 0.01
        assert abs(counts[0] / n - math.exp(-1)) < 0.005

    def test_seed_reproducibility(self):
        cfg = EstimatorConfig(replicates=20_000, seed=99)
        a = estimate_second_moment_fractional(
            QueryPoint(t=1.0, s=1.0, x=(0.0,), y=(0.0,)), K75, HeatKernel(dim=1), Constant(1.0), cfg
        )
        b = estimate_second_moment_fractional(
            QueryPoint(t=1.0, s=1.0, x=(0.0,), y=(0.0,)), K75, HeatKernel(dim=1), Constant(1.0), cfg
        )
        assert a.value == b.value and a.stderr == b.stderr
        assert a.per_order == b.per_order

    def test_points_inside_unit_square(self):
        taus, rhos, _ = _fractional_points(1.0, 1.0, K75, UNIFORM)(500, 4, make_rng(3))
        assert taus.shape == rhos.shape == (500, 4)
        assert np.all((taus >= 0) & (taus <= 1) & (rhos >= 0) & (rhos <= 1))

    def test_vanishes_on_axes(self):
        assert order_counts(0.0, 0.7, seed=4, replicates=1000)[0] == 1000
        assert order_counts(0.7, 0.0, seed=4, replicates=1000)[0] == 1000


class TestCountRectangle:
    # the per-realization rectangle counts behind check_poisson_law
    def test_empty_realization(self):
        counts = _rectangle_counts(np.empty((0, 2)), np.empty(0, dtype=int), 3, 0.1, 0.9, 0.1, 0.9)
        assert counts.tolist() == [0, 0, 0]

    def test_single_point(self):
        point, owner = np.array([[0.5, 0.5]]), np.array([0])
        assert _rectangle_counts(point, owner, 1, 0.0, 1.0, 0.0, 1.0).tolist() == [1]
        # half-open: (0.5, 1] x (0.5, 1] excludes its lower corner
        assert _rectangle_counts(point, owner, 1, 0.5, 1.0, 0.5, 1.0).tolist() == [0]

    def test_additivity_over_partition(self):
        points, owner = planar_points(make_rng(5), 50, 80.0)
        whole = _rectangle_counts(points, owner, 50, 0.1, 0.9, 0.2, 0.8)
        parts = [
            _rectangle_counts(points, owner, 50, 0.1, 0.5, 0.2, 0.8),
            _rectangle_counts(points, owner, 50, 0.5, 0.9, 0.2, 0.5),
            _rectangle_counts(points, owner, 50, 0.5, 0.9, 0.5, 0.8),
        ]
        assert np.array_equal(whole, sum(parts))

    def test_matches_direct_count(self):
        points, owner = planar_points(make_rng(6), 20, 120.0)
        counts = _rectangle_counts(points, owner, 20, 0.15, 0.85, 0.3, 0.75)
        for i in range(20):
            p = points[owner == i]
            direct = np.count_nonzero(
                (p[:, 0] > 0.15) & (p[:, 0] <= 0.85) & (p[:, 1] > 0.3) & (p[:, 1] <= 0.75)
            )
            assert counts[i] == direct

    def test_poisson_law_chi_square(self):
        start = time.perf_counter()
        gof = check_poisson_law(seed=8)[0]
        # batched draws: 100k realizations well inside a second
        assert time.perf_counter() - start < 1.0
        assert gof.name == "chi-square-gof-pvalue" and gof.statistic > ALPHA and gof.passed

    def test_disjoint_rectangle_independence(self):
        corr = check_poisson_law(seed=9)[1]
        assert corr.name == "disjoint-count-correlation" and corr.statistic < 0.02 and corr.passed


def assert_is_count_table(table, sizes):
    assert table.ndim == 2 and table.shape[0] == len(sizes)
    assert np.issubdtype(table.dtype, np.integer)
    assert np.all(table >= 0)
    assert table.sum(axis=1).tolist() == list(sizes)


class TestCountTable:
    # the engine's count draw: per segment, how many replicates have K = k
    SIZES = (0, 1, 7, 31_250, 65_536)

    def test_rows_sum_to_segment_sizes(self):
        table = poisson_count_table(0.25)(make_rng(20), self.SIZES)
        assert_is_count_table(table, self.SIZES)
        # the largest count drawn is the last column
        assert table[:, -1].any()
        assert table.shape[1] >= 4

    def test_zero_rate_is_pure_k0(self):
        rng = make_rng(21)
        table = poisson_count_table(0.0)(rng, self.SIZES)
        assert table.tolist() == [[n] for n in self.SIZES]

    def test_fixed_table_is_one_column(self):
        rng = make_rng(22)
        state = rng.bit_generator.state
        table = fixed_count_table(3)(rng, self.SIZES)
        assert_is_count_table(table, self.SIZES)
        assert np.flatnonzero(table.any(axis=0)).tolist() == [3]
        assert table[:, 3].tolist() == list(self.SIZES)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("lam", [1e-12, 0.25, 1.0, 30.0])
    def test_conditional_binomials_rebuild_the_pmf(self, lam):
        # P(K = k) = q_k * prod_{j<k} (1 - q_j) is the Poisson pmf, to the
        # rounding of a q_k near 1 in 1 - q_k
        q = _conditional_pmf(lam)
        reached = np.concatenate(([1.0], np.cumprod(1.0 - q)[:-1]))
        k = np.arange(q.size)
        pmf = stats.poisson.pmf(k, lam)
        np.testing.assert_allclose(q * reached, pmf, rtol=1e-12, atol=1e-15)
        assert q[-1] == 1.0 and stats.poisson.sf(k[-1], lam) < 1e-30

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        lam=st.floats(min_value=0.0, max_value=1.0),
        sizes=st.lists(st.integers(min_value=0, max_value=65_536), min_size=1, max_size=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(lam=5e-324, sizes=[65_536], seed=0)
    @example(lam=1e-300, sizes=[1, 0], seed=1)
    @example(lam=1e-9, sizes=[65_536, 65_536, 65_536], seed=2)
    @example(lam=0.0, sizes=[0], seed=3)
    def test_any_rate_and_segments(self, lam, sizes, seed):
        table = poisson_count_table(lam)(make_rng(seed), sizes)
        assert_is_count_table(table, sizes)
        if sum(sizes) and table.shape[1] > 1:
            assert table[:, -1].any()
        if lam == 0.0:
            assert table.shape[1] == 1

    def test_engine_table_chi_square(self):
        (table_check,) = check_count_table(seed=23)
        assert table_check.name == "engine-count-table-pvalue"
        assert table_check.statistic > ALPHA and table_check.passed

    def test_engine_draws_the_checked_table(self):
        # the table the check tests is the one a fractional run at ts = 0.25 draws
        cfg = EstimatorConfig(replicates=400_000, seed=42)
        q = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
        est = estimate_second_moment_fractional(q, K75, ZeroKernel(dim=1), Constant(1.0), cfg)
        counts = _engine_count_table(42, 400_000).sum(axis=0)
        assert [c[2] for c in est.per_order.values()] == counts.tolist()


class TestRestrictedSampling:
    def test_mean_count(self):
        counts = order_counts(0.5, 0.5, seed=10)
        assert abs(np.dot(np.arange(counts.size), counts) / counts.sum() - 0.25) < 0.01

    def test_full_square_matches_global_law(self):
        n = 50_000
        restricted = order_counts(1.0, 1.0, seed=11, replicates=n)
        global_counts = make_rng(11).poisson(1.0, size=n)
        # same Poisson(1) law: two-sample chi-square on binned counts
        top = 4
        o1 = np.append(restricted[:top], restricted[top:].sum())
        o2 = np.bincount(np.minimum(global_counts, top), minlength=top + 1)
        stat, p = stats.chisquare(o1, o2 * o1.sum() / o2.sum())
        assert p > ALPHA

    def test_points_inside_rectangle(self):
        for mode in (UNIFORM, TEMPORAL_IMPORTANCE):
            taus, rhos, _ = _fractional_points(0.3, 0.8, K75, mode)(2000, 20, make_rng(12))
            assert np.all((taus >= 0.0) & (taus <= 0.3))
            assert np.all((rhos >= 0.0) & (rhos <= 0.8))

    def test_conditional_uniformity_given_count(self):
        checks = check_conditional_uniformity(seed=13, t=1.0, s=0.7, n=2)
        assert all(c.passed and c.statistic > ALPHA for c in checks)

    def test_count_identity(self):
        # empirical P(K=n) n! e^{ts} recovers (ts)^n
        t, s = 1.0, 0.7
        n_rep = 100_000
        counts = order_counts(t, s, seed=14, replicates=n_rep)
        for n in (0, 1, 2):
            p_hat = counts[n] / n_rep
            se = math.sqrt(p_hat * (1 - p_hat) / n_rep)
            scale = math.factorial(n) * math.exp(t * s)
            assert abs(p_hat * scale - (t * s) ** n) <= 3 * se * scale


class TestTemporalImportance:
    def test_points_in_rectangle(self):
        pts = sample_eta_tilted(0.8, 0.6, K75, 200, make_rng(15))
        assert np.all((pts[:, 0] >= 0.0) & (pts[:, 0] <= 0.8))
        assert np.all((pts[:, 1] >= 0.0) & (pts[:, 1] <= 0.6))

    def test_gap_distribution_matches_analytic_cdf(self):
        # for t = s = 1 the law of |u - v| under the tilted density has CDF
        # 2H z^(2H-1) - (2H-1) z^(2H)
        hurst = 0.75
        k = TemporalKernel(hurst)
        rng = make_rng(16)
        pts = sample_eta_tilted(1.0, 1.0, k, 100_000, rng)
        gaps = np.abs((1.0 - pts[:, 0]) - (1.0 - pts[:, 1]))

        def cdf(z):
            return 2 * hurst * z ** (2 * hurst - 1) - (2 * hurst - 1) * z ** (2 * hurst)

        assert stats.kstest(gaps, cdf).pvalue > ALPHA

    def test_importance_weight_identity(self):
        # E_q[1/eta] * C/(ts) = 1
        t, s = 0.9, 0.6
        k = TemporalKernel(0.65)
        rng = make_rng(17)
        n = 100_000
        pts = sample_eta_tilted(t, s, k, n, rng)
        # reciprocal of eta is continuous through the diagonal (zero there),
        # where tilted pairs can land up to floating-point resolution
        gap = np.abs((t - pts[:, 0]) - (s - pts[:, 1]))
        inv = gap ** (2 - 2 * k.hurst) / k.alpha_h
        values = inv * k.mass(t, s) / (t * s)
        stderr = values.std(ddof=1) / math.sqrt(n)
        assert abs(values.mean() - 1.0) <= 3 * stderr

    def test_high_hurst_approaches_uniform(self):
        k = TemporalKernel(0.95)
        rng = make_rng(18)
        pts = sample_eta_tilted(1.0, 1.0, k, 100_000, rng)
        for col in (0, 1):
            ks = stats.kstest(pts[:, col], "uniform").statistic
            assert ks < 0.1

    def test_restricted_importance_weight_field(self):
        # each eta factor is replaced by the constant eta_mass(t,s)/(t s)
        points = _fractional_points(0.5, 0.5, K75, TEMPORAL_IMPORTANCE)
        taus, rhos, weight = points(10, 3, make_rng(19))
        assert taus.shape == rhos.shape == (10, 3)
        assert weight == pytest.approx((K75.mass(0.5, 0.5) / 0.25) ** 3, rel=1e-15)

    def test_narrow_horizon_uses_boundary_sup(self):
        # t << s: a gap proposal is thinned only within t of either end of
        # (-s, t), so nearly every proposal is accepted
        t, s = 0.05, 1.0
        k = TemporalKernel(0.65)
        rng = make_rng(26)
        pts = sample_eta_tilted(t, s, k, 200_000, rng)
        assert np.all((pts[:, 0] >= 0) & (pts[:, 0] <= t))
        assert np.all((pts[:, 1] >= 0) & (pts[:, 1] <= s))
        gap = np.abs((t - pts[:, 0]) - (s - pts[:, 1]))
        inv = gap ** (2 - 2 * k.hurst) / k.alpha_h
        vals = inv * k.mass(t, s) / (t * s)
        stderr = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) <= 3 * stderr


class TestTiltedSamplerDigests:
    """Bit-level pins of the tilted sampler's output: any change to its
    candidate batches, its random draws or its arithmetic shows here.  The
    digests come from numpy 2.4 on x86-64 with AVX-512; numpy's vectorised
    power may round differently on other CPUs."""

    @pytest.mark.parametrize(
        "t, s, hurst, size, seed, digest",
        [
            (0.5, 0.5, 0.75, 1000, 1, "c444d1bc70341ae0251b8451faf60d649765260ca5cd9f1dc8c81a1b0b59c396"),
            (1.0, 0.6, 0.85, 777, 2, "c7e17f65f155acf8f6cf25815d59803a0c10878d49b51fefac42e8315c90a4bf"),
            (0.3, 2.0, 0.55, 4096, 3, "918f94dced5dd3fa3256de10a118a0d4438450b74187ca0402b6df5c97353657"),
            (0.7, 0.7, 0.9999, 1, 4, "ae0726a7f058f285cf0f3acf62c4e1857569a2d0947ccf3a75a4dd5b20c3b6e4"),
            (2.0, 0.01, 0.6, 50, 5, "72457a709b6011346c074d2eab05383593851f251df88ded55e790f5ac7344b0"),
        ],
    )
    def test_output_digest(self, t, s, hurst, size, seed, digest):
        pts = sample_eta_tilted(t, s, TemporalKernel(hurst), size, make_rng(seed))
        assert pts.shape == (size, 2)
        assert hashlib.sha256(pts.tobytes()).hexdigest() == digest


class TestTiltedCellLaw:
    """The tilted sampler's exact law: chi-square over a grid of cells in
    (u, v) = (t - tau, s - rho), whose probabilities follow from the mass
    of eta over rectangles [0, a] x [0, b] by inclusion-exclusion."""

    GRID = 8

    @pytest.mark.parametrize(
        "t, s, hurst",
        [(1.0, 1.0, 0.75), (0.9, 0.6, 0.65), (0.05, 1.0, 0.65), (1.0, 0.3, 0.95), (0.5, 0.5, 0.51)],
    )
    def test_cell_frequencies(self, t, s, hurst):
        k = TemporalKernel(hurst)
        n = 200_000
        pts = sample_eta_tilted(t, s, k, n, make_rng(40))
        a = np.linspace(0.0, t, self.GRID + 1)
        b = np.linspace(0.0, s, self.GRID + 1)
        observed, _, _ = np.histogram2d(t - pts[:, 0], s - pts[:, 1], bins=(a, b))
        corner = np.array([[k.mass(ai, bj) for bj in b] for ai in a])
        prob = (corner[1:, 1:] - corner[:-1, 1:] - corner[1:, :-1] + corner[:-1, :-1]) / k.mass(t, s)
        expected = n * prob
        assert observed.sum() == n and expected.min() >= 5.0
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        assert stats.chi2.sf(chi2, df=observed.size - 1) > ALPHA

    @pytest.mark.parametrize("hurst", [0.5001, 0.9999])
    @pytest.mark.parametrize("t, s", [(1.0, 1.0), (0.05, 1.0), (1.0, 0.3), (2.5, 0.7)])
    def test_extreme_hurst_points_finite_and_inside(self, t, s, hurst):
        pts = sample_eta_tilted(t, s, TemporalKernel(hurst), 50_000, make_rng(41))
        assert pts.shape == (50_000, 2) and np.all(np.isfinite(pts))
        assert np.all((pts[:, 0] >= 0.0) & (pts[:, 0] <= t))
        assert np.all((pts[:, 1] >= 0.0) & (pts[:, 1] <= s))


class TestLinearJumpTimes:
    def test_count_statistics(self):
        # the white-noise engine's jump count on [0, 1] is Poisson(1)
        cfg = EstimatorConfig(replicates=100_000, seed=21)
        est = estimate_second_moment_white(1.0, (0.0,), (0.0,), ZeroKernel(dim=1), Constant(1.0), cfg)
        counts = np.array([est.per_order[n][2] for n in range(len(est.per_order))])
        n = counts.sum()
        assert abs(np.dot(np.arange(counts.size), counts) / n - 1.0) < 0.01
        assert abs(counts[0] / n - math.exp(-1)) < 0.005


class TestHypercubeIntegral:
    """The count identity, read off the replicate engine's per-order columns."""

    def test_constant_integrand(self):
        integrals = hypercube_integrals(lambda ta, sa: np.ones(ta.shape[0]), 1.0, 1.0, 200_000, 22)
        for n in (1, 2, 3):
            est, se = integrals[n]
            assert abs(est - 1.0) <= 3 * se

    def test_separable_polynomial(self):
        integrals = hypercube_integrals(
            lambda ta, sa: np.prod(ta * sa, axis=1), 1.0, 1.0, 200_000, 23
        )
        for n in (1, 2, 3):
            est, se = integrals[n]
            assert abs(est - 4.0 ** (-n)) <= 3 * se

    def test_eta_product_recovers_mass(self):
        k = TemporalKernel(0.75)
        est, se = hypercube_integrals(
            lambda ta, sa: k.eta(1.0 - ta, 1.0 - sa)[:, 0], 1.0, 1.0, 200_000, 24
        )[1]
        assert abs(est - k.mass(1.0, 1.0)) <= 3 * se

    def test_unbiased_across_seeds(self):
        # per integrand, at least 2 of 3 independent seeds land within
        # 3 stderr of the exact value
        k = TemporalKernel(0.75)
        cases = [
            (lambda ta, sa: np.ones(ta.shape[0]), 2, 1.0),
            (lambda ta, sa: np.prod(ta * sa, axis=1), 2, 4.0**-2),
            (lambda ta, sa: k.eta(1.0 - ta, 1.0 - sa)[:, 0], 1, 1.0),
        ]
        for F, n, truth in cases:
            hits = 0
            for seed in (101, 202, 303):
                est, se = hypercube_integrals(F, 1.0, 1.0, 100_000, seed)[n]
                hits += abs(est - truth) <= 3 * se
            assert hits >= 2

    def test_replicate_floor(self):
        # the engine needs at least one replicate per stderr batch
        with pytest.raises(DomainError, match="batch_count"):
            hypercube_integrals(lambda ta, sa: np.ones(ta.shape[0]), 1.0, 1.0, 31, 0)
