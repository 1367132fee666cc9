import math
import time

import numpy as np
import pytest
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
from fkmoments.point_process import TEMPORAL_IMPORTANCE, UNIFORM, sample_eta_tilted
from fkmoments.verify import (
    _rectangle_counts,
    check_conditional_uniformity,
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
        # t < s/2 takes the m(t) envelope branch of the rejection bound
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
