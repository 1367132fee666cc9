import math
import tracemalloc

import numpy as np
import pytest

from fkmoments import mc_engine
from fkmoments import (
    Constant,
    DomainError,
    EstimatorConfig,
    GaussianBump,
    HeatKernel,
    QueryPoint,
    RieszKernel,
    TemporalKernel,
    ZeroKernel,
    alpha_n_quadrature,
    estimate_inner_product_mc,
    estimate_order_contribution,
    estimate_second_moment_fractional,
    estimate_second_moment_white,
    inner_product_closed_form,
    initial_field,
)

Q0 = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
K75 = TemporalKernel(0.75)
HEAT1 = HeatKernel(dim=1, bandwidth=1.0)
CONST1 = Constant(1.0)


class _OneKernel:
    """Constant-1 spatial kernel, only for variance diagnostics in tests."""

    dim = 1

    def values(self, x):
        return np.ones(np.asarray(x).shape[:-1])


class TestFractionalEstimator:
    def test_zero_kernel_recovers_w_product(self):
        cfg = EstimatorConfig(replicates=100_000, seed=1)
        est = estimate_second_moment_fractional(Q0, K75, ZeroKernel(dim=1), CONST1, cfg)
        assert abs(est.value - 1.0) <= 3 * est.stderr

    def test_zero_kernel_with_bump(self):
        u0 = GaussianBump(amplitude=2.0, center=(0.1,), width=0.5)
        q = QueryPoint(t=0.4, s=0.7, x=(0.0,), y=(0.3,))
        cfg = EstimatorConfig(replicates=100_000, seed=2)
        est = estimate_second_moment_fractional(q, K75, ZeroKernel(dim=1), u0, cfg)
        expected = initial_field(u0, 0.4, (0.0,)) * initial_field(u0, 0.7, (0.3,))
        assert abs(est.value - expected) <= 3 * est.stderr

    def test_constant_scaling_bit_exact(self):
        cfg = EstimatorConfig(replicates=50_000, seed=3, mode="importance")
        base = estimate_second_moment_fractional(Q0, K75, HEAT1, CONST1, cfg)
        c = 1.37
        scaled = estimate_second_moment_fractional(Q0, K75, HEAT1, Constant(c), cfg)
        assert scaled.value == c * c * base.value
        assert scaled.stderr == c * c * base.stderr
        for n in base.per_order:
            assert scaled.per_order[n][0] == c * c * base.per_order[n][0]

    def test_degenerate_time(self):
        q = QueryPoint(t=0.0, s=0.5, x=(0.2,), y=(0.4,))
        cfg = EstimatorConfig(replicates=1000, seed=4)
        est = estimate_second_moment_fractional(q, K75, HEAT1, Constant(3.0), cfg)
        assert est.value == 9.0
        assert est.stderr == 0.0

    def test_determinism_and_worker_independence(self):
        cfg1 = EstimatorConfig(replicates=200_000, seed=5, workers=1)
        cfg4 = EstimatorConfig(replicates=200_000, seed=5, workers=4)
        a = estimate_second_moment_fractional(Q0, K75, HEAT1, CONST1, cfg1)
        b = estimate_second_moment_fractional(Q0, K75, HEAT1, CONST1, cfg1)
        c = estimate_second_moment_fractional(Q0, K75, HEAT1, CONST1, cfg4)
        assert a.value == b.value == c.value
        assert a.stderr == b.stderr == c.stderr
        assert a.per_order == b.per_order == c.per_order

    def test_translation_invariance_bitwise(self):
        # constant u0: all dependence is through x - y
        cfg = EstimatorConfig(replicates=50_000, seed=6)
        qa = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(1.0,))
        qb = QueryPoint(t=0.5, s=0.5, x=(2.0,), y=(3.0,))
        a = estimate_second_moment_fractional(qa, K75, HEAT1, CONST1, cfg)
        b = estimate_second_moment_fractional(qb, K75, HEAT1, CONST1, cfg)
        assert a.value == b.value

    def test_swap_symmetry_statistical(self):
        cfg = EstimatorConfig(replicates=400_000, seed=7, mode="importance")
        q = QueryPoint(t=0.7, s=0.4, x=(0.1,), y=(-0.2,))
        a = estimate_second_moment_fractional(q, K75, HEAT1, CONST1, cfg)
        b = estimate_second_moment_fractional(q.swapped(), K75, HEAT1, CONST1, cfg)
        comb = math.hypot(a.stderr, b.stderr)
        assert abs(a.value - b.value) <= 3 * comb

    def test_mode_consistency(self):
        cfg_u = EstimatorConfig(replicates=400_000, seed=8, mode="uniform")
        cfg_i = EstimatorConfig(replicates=400_000, seed=9, mode="importance")
        a = estimate_second_moment_fractional(Q0, K75, HEAT1, CONST1, cfg_u)
        b = estimate_second_moment_fractional(Q0, K75, HEAT1, CONST1, cfg_i)
        comb = math.hypot(a.stderr, b.stderr)
        assert abs(a.value - b.value) <= 3 * comb

    def test_importance_has_zero_eta_variance(self):
        # with a constant spatial kernel the tilted per-replicate value is a
        # deterministic function of the point count
        cfg = EstimatorConfig(replicates=20_000, seed=10, mode="importance")
        est = estimate_second_moment_fractional(Q0, K75, _OneKernel(), CONST1, cfg)
        c_over_ts = K75.mass(0.5, 0.5) / 0.25
        for n, (mean, stderr, count) in est.per_order.items():
            if count == 0:
                continue
            # contribution mean = e^{ts} * (C/ts)^n * count/replicates, exactly
            expected = math.exp(0.25) * c_over_ts**n * (count / cfg.replicates)
            assert mean == pytest.approx(expected, rel=1e-12)

    def test_variance_warning_in_uniform_low_hurst(self):
        cfg = EstimatorConfig(replicates=1000, seed=11, mode="uniform")
        est = estimate_second_moment_fractional(Q0, K75, HEAT1, CONST1, cfg)
        assert est.diagnostics["variance_warning"] is not None
        cfg_i = EstimatorConfig(replicates=1000, seed=11, mode="importance")
        est_i = estimate_second_moment_fractional(Q0, K75, HEAT1, CONST1, cfg_i)
        assert est_i.diagnostics["variance_warning"] is None
        est_h = estimate_second_moment_fractional(
            Q0, TemporalKernel(0.8), HEAT1, CONST1, cfg
        )
        assert est_h.diagnostics["variance_warning"] is None

    def test_per_order_decomposition_sums_to_value(self):
        cfg = EstimatorConfig(replicates=100_000, seed=12, mode="importance")
        est = estimate_second_moment_fractional(Q0, K75, HEAT1, CONST1, cfg)
        assert list(est.per_order) == list(range(len(est.per_order)))
        orders = math.fsum(v[0] for v in est.per_order.values())
        assert orders == pytest.approx(est.value, rel=1e-12)
        assert sum(v[2] for v in est.per_order.values()) == cfg.replicates

    def test_bump_initial_condition_mode_consistency(self):
        # the bump w-factors ride along the path endpoints; uniform and
        # importance modes are independent routes to the same value
        u0 = GaussianBump(amplitude=1.5, center=(0.2,), width=0.7)
        q = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.1,))
        k = TemporalKernel(0.8)
        a = estimate_second_moment_fractional(
            q, k, HEAT1, u0, EstimatorConfig(replicates=400_000, seed=14, mode="uniform")
        )
        b = estimate_second_moment_fractional(
            q, k, HEAT1, u0, EstimatorConfig(replicates=400_000, seed=15, mode="importance")
        )
        comb = math.hypot(a.stderr, b.stderr)
        assert abs(a.value - b.value) <= 3 * comb
        # sanity bracket: below the noiseless product of sup bounds
        assert 0 < b.value < 1.5 * 1.5

    def test_cross_validation_2d_offset_points(self):
        # oracle vs estimator in d = 2 with t != s and x != y; the tail
        # estimate covers the omitted third order
        from fkmoments import second_moment_series

        q = QueryPoint(t=0.5, s=0.4, x=(0.1, 0.0), y=(-0.2, 0.3))
        k = TemporalKernel(0.7)
        f = HeatKernel(dim=2, bandwidth=0.8)
        series = second_moment_series(q, k, f, CONST1, n_max=2, tol=1e-5)
        cfg = EstimatorConfig(replicates=400_000, seed=77, mode="importance")
        est = estimate_second_moment_fractional(q, k, f, CONST1, cfg)
        assert abs(est.value - series.total) <= 3 * est.stderr + series.tail_estimate

    def test_riesz_kernel_runs_and_reports_diagnostics(self):
        q = QueryPoint(t=0.5, s=0.5, x=(0.0, 0.0), y=(0.5, 0.0))
        f = RieszKernel(dim=2, order=1.0)
        cfg = EstimatorConfig(replicates=50_000, seed=13, mode="importance")
        est = estimate_second_moment_fractional(q, K75, f, CONST1, cfg)
        assert math.isfinite(est.value)
        assert est.diagnostics["singular_hits"] >= 0
        assert est.diagnostics["abs_replicate_q999"] > 0

    def test_batch_config_validated(self):
        with pytest.raises(DomainError):
            EstimatorConfig(replicates=10, seed=0)
        with pytest.raises(DomainError):
            EstimatorConfig(replicates=100, seed=0, mode="nonsense")

    def test_seed_and_workers_ranges_validated(self):
        EstimatorConfig(replicates=100, seed=2**64 - 1)
        with pytest.raises(DomainError):
            EstimatorConfig(replicates=100, seed=0, workers=-1)
        for seed in (-1, 2**64):
            with pytest.raises(DomainError, match="seed"):
                EstimatorConfig(replicates=100, seed=seed)


class TestWhiteEstimator:
    def test_zero_kernel(self):
        cfg = EstimatorConfig(replicates=100_000, seed=20)
        est = estimate_second_moment_white(0.5, (0.0,), (0.0,), ZeroKernel(dim=1), CONST1, cfg)
        assert abs(est.value - 1.0) <= 3 * est.stderr

    def test_rejects_mismatched_point_dimensions(self):
        cfg = EstimatorConfig(replicates=100, seed=0)
        with pytest.raises(DomainError, match="dimension"):
            estimate_second_moment_white(0.5, (0.0,), (0.0, 0.3), HEAT1, CONST1, cfg)
        with pytest.raises(DomainError, match="dimension"):
            estimate_second_moment_white(0.5, (0.0, 0.0), (0.0, 0.3), HEAT1, CONST1, cfg)

    @pytest.mark.parametrize("t", [-0.1, math.nan])
    def test_rejects_negative_or_nan_time(self, t):
        cfg = EstimatorConfig(replicates=100, seed=0)
        with pytest.raises(DomainError, match="nonnegative"):
            estimate_second_moment_white(t, (0.0,), (0.0,), HEAT1, CONST1, cfg)

    def test_small_time_limit(self):
        cfg = EstimatorConfig(replicates=100_000, seed=21)
        u0 = Constant(2.0)
        est = estimate_second_moment_white(1e-6, (0.3,), (0.3,), HEAT1, u0, cfg)
        # value -> u0(x) u0(y); the surviving bias is O(t)
        assert abs(est.value - 4.0) <= 3 * est.stderr + 1e-4

    def test_matches_simplex_oracle(self):
        from fkmoments import truncation_tail, white_noise_order_term

        cfg = EstimatorConfig(replicates=400_000, seed=22)
        est = estimate_second_moment_white(0.5, (0.0,), (0.0,), HEAT1, CONST1, cfg)
        orders = [
            white_noise_order_term(n, 0.5, (0.0,), (0.0,), HEAT1, CONST1, 1e-6)
            for n in (1, 2, 3)
        ]
        oracle = 1.0 + sum(orders)
        assert abs(est.value - oracle) <= 3 * est.stderr + truncation_tail(orders)

    def test_determinism(self):
        cfg = EstimatorConfig(replicates=100_000, seed=23, workers=3)
        a = estimate_second_moment_white(0.5, (0.0,), (0.1,), HEAT1, CONST1, cfg)
        b = estimate_second_moment_white(0.5, (0.0,), (0.1,), HEAT1, CONST1, cfg)
        assert a.value == b.value

    def test_per_order_track_matches_simplex_oracle(self):
        from fkmoments import white_noise_order_term

        cfg = EstimatorConfig(replicates=400_000, seed=55)
        est = estimate_second_moment_white(0.5, (0.0,), (0.0,), HEAT1, CONST1, cfg)
        for n in (1, 2):
            oracle = white_noise_order_term(n, 0.5, (0.0,), (0.0,), HEAT1, CONST1, 1e-6)
            mean, stderr, count = est.per_order[n]
            assert count > 0
            assert abs(mean - oracle) <= 3 * stderr


class TestOrderContribution:
    def test_order_zero_exact(self):
        mean, stderr = estimate_order_contribution(
            0, Q0, K75, HEAT1, Constant(1.5), EstimatorConfig(replicates=100, seed=30)
        )
        assert mean == 1.5 * 1.5
        assert stderr == 0.0

    def test_zero_kernel_exact_zero(self):
        mean, stderr = estimate_order_contribution(
            1, Q0, K75, ZeroKernel(dim=1), CONST1, EstimatorConfig(replicates=1000, seed=31)
        )
        assert mean == 0.0
        assert stderr == 0.0

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("mode", ["uniform", "importance"])
    def test_matches_quadrature(self, n, mode):
        cfg = EstimatorConfig(replicates=100_000, seed=32, mode=mode)
        mean, stderr = estimate_order_contribution(n, Q0, K75, HEAT1, CONST1, cfg)
        oracle = alpha_n_quadrature(n, Q0, K75, HEAT1, CONST1, 1e-5, scale_floor=1.0)
        oracle /= math.factorial(n)
        assert abs(mean - oracle) <= 3 * stderr

    def test_kernel_dimension_must_match_query(self):
        with pytest.raises(DomainError, match="kernel dimension 2 != query dimension 1"):
            estimate_order_contribution(
                1, Q0, K75, HeatKernel(dim=2), CONST1, EstimatorConfig(replicates=1000, seed=34)
            )

    def test_agrees_with_fractional_per_order(self):
        # the conditioned per-order track of the full estimator targets the
        # same quantity
        cfg = EstimatorConfig(replicates=400_000, seed=33, mode="importance")
        est = estimate_second_moment_fractional(Q0, K75, HEAT1, CONST1, cfg)
        mean, stderr = estimate_order_contribution(1, Q0, K75, HEAT1, CONST1, cfg)
        comb = math.hypot(stderr, est.per_order[1][1])
        assert abs(mean - est.per_order[1][0]) <= 3 * comb


class TestInnerProductMC:
    def test_empty_lists_exact(self):
        q = QueryPoint(t=0.6, s=0.4, x=(0.1,), y=(0.2,))
        mean, stderr = estimate_inner_product_mc(
            [], [], q, HEAT1, Constant(2.0), EstimatorConfig(replicates=100, seed=40)
        )
        assert mean == 4.0
        assert stderr == 0.0

    def test_zero_kernel_exact_zero(self):
        q = QueryPoint(t=1.0, s=1.0, x=(0.0,), y=(0.0,))
        mean, stderr = estimate_inner_product_mc(
            [0.5], [0.5], q, ZeroKernel(dim=1), CONST1, EstimatorConfig(replicates=1000, seed=41)
        )
        assert mean == 0.0
        assert stderr == 0.0

    def test_kernel_dimension_must_match_query(self):
        q = QueryPoint(t=1.0, s=1.0, x=(0.0,), y=(0.0,))
        with pytest.raises(DomainError, match="kernel dimension 2 != query dimension 1"):
            estimate_inner_product_mc(
                [0.5], [0.5], q, HeatKernel(dim=2), CONST1, EstimatorConfig(replicates=1000, seed=45)
            )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_closed_form(self, n):
        rng = np.random.default_rng(42 + n)
        t_times = np.sort(rng.uniform(0.05, 1.0, n))
        s_times = np.sort(rng.uniform(0.05, 1.0, n))
        q = QueryPoint(t=1.0, s=1.0, x=(0.0,), y=(1.0,))
        closed = inner_product_closed_form(t_times, s_times, q, HEAT1, CONST1)
        mean, stderr = estimate_inner_product_mc(
            t_times, s_times, q, HEAT1, CONST1, EstimatorConfig(replicates=100_000, seed=43)
        )
        assert abs(mean - closed) <= 3 * stderr

    def test_bump_initial_condition_supported(self):
        u0 = GaussianBump(amplitude=1.0, center=(0.0,), width=1.0)
        q = QueryPoint(t=1.0, s=1.0, x=(0.0,), y=(0.0,))
        mean, stderr = estimate_inner_product_mc(
            [0.5], [0.5], q, HEAT1, u0, EstimatorConfig(replicates=50_000, seed=44)
        )
        assert math.isfinite(mean) and stderr > 0


_ESTIMATORS = {
    "fractional": lambda cfg: estimate_second_moment_fractional(
        Q0, K75, HEAT1, GaussianBump(amplitude=1.5, center=(0.2,), width=0.7), cfg
    ),
    "white": lambda cfg: estimate_second_moment_white(0.5, (0.0,), (0.1,), HEAT1, CONST1, cfg),
    "order": lambda cfg: estimate_order_contribution(2, Q0, K75, HEAT1, CONST1, cfg),
    "inner": lambda cfg: estimate_inner_product_mc(
        [0.2, 0.7], [0.4, 0.1], QueryPoint(t=1.0, s=1.0, x=(0.0,), y=(0.5,)), HEAT1, CONST1, cfg
    ),
}


@pytest.mark.parametrize("name", sorted(_ESTIMATORS))
def test_worker_invariance_bitwise(name):
    # 150_001 replicates: two full chunks and a ragged third
    results = [
        _ESTIMATORS[name](
            EstimatorConfig(replicates=150_001, seed=61, mode="importance", workers=workers)
        )
        for workers in (1, 2, 3)
    ]
    assert results[0] == results[1] == results[2]


def _dense_batch_stderr(values, batch_count):
    means = np.array([b.mean() for b in np.array_split(values, batch_count)])
    return float(np.std(means, ddof=1) / math.sqrt(batch_count))


def _dense_reference(v, counts, scale, wfac, batch_count):
    """The statistics reduced from all replicate values at once."""
    amp = 1.0 if wfac is None else wfac
    value = amp * (scale * float(np.mean(v)))
    per_order = {}
    for n in range(counts.max() + 1):
        masked = np.where(counts == n, v, 0.0)
        mean_n = amp * (scale * float(np.mean(masked)))
        stderr_n = abs(amp) * (scale * _dense_batch_stderr(masked, batch_count))
        per_order[n] = (mean_n, stderr_n, int(np.count_nonzero(counts == n)))
    abs_scaled = np.abs(v) * (abs(amp) * scale)
    sum_abs = float(np.sum(np.abs(v)))
    sum_sq = float(np.sum(np.square(v)))
    return {
        "value": value,
        "stderr": abs(amp) * (scale * _dense_batch_stderr(v, batch_count)),
        "per_order": per_order,
        "naive_stderr": abs(amp) * (scale * float(np.std(v, ddof=1) / math.sqrt(v.size))),
        "effective_sample_size": sum_abs * sum_abs / sum_sq,
        "max_abs_replicate": float(abs_scaled.max()),
        "abs_replicate_q999": float(np.quantile(abs_scaled, 0.999)),
    }


class TestStreamingSummary:
    """The chunk summaries, merged, against a reduction of the dense values."""

    @pytest.mark.parametrize("wfac", [None, 1.7])
    @pytest.mark.parametrize("batch_count", [7, 32])
    def test_matches_dense_reference(self, monkeypatch, batch_count, wfac):
        chunk = 1000
        monkeypatch.setattr(mc_engine, "CHUNK_SIZE", chunk)
        monkeypatch.setattr(mc_engine, "BATCHES", batch_count)
        n, v0 = 10_007, 0.8
        data = np.random.default_rng(batch_count)
        # K up to about 9, so chunks draw different largest counts;
        # heavy-tailed signed values
        counts = data.poisson(2.0, n)
        values = data.standard_t(2.5, n)
        values[counts == 0] = v0
        cfg = EstimatorConfig(replicates=n, seed=0, workers=2)

        def rows(rng):
            # each chunk's generator is keyed by (stream, chunk index)
            idx = rng.bit_generator.seed_seq.spawn_key[-1]
            return slice(idx * chunk, (idx + 1) * chunk)

        def evaluate(kk, g, rng):
            block = rows(rng)
            return values[block][counts[block] == kk]

        summary = mc_engine._stream(cfg, 0, lambda rng, size: counts[rows(rng)], evaluate, v0)
        est = mc_engine._estimate(summary, math.exp(0.3), wfac)
        ref = _dense_reference(values, counts, math.exp(0.3), wfac, batch_count)

        for key in ("max_abs_replicate", "abs_replicate_q999"):
            assert est.diagnostics[key] == ref[key]
        assert list(est.per_order) == list(ref["per_order"])
        assert [c[2] for c in est.per_order.values()] == [c[2] for c in ref["per_order"].values()]
        assert sum(c[2] for c in est.per_order.values()) == n
        rel = pytest.approx
        assert est.value == rel(ref["value"], rel=1e-12)
        assert est.stderr == rel(ref["stderr"], rel=1e-12)
        assert math.fsum(c[0] for c in est.per_order.values()) == rel(est.value, rel=1e-12)
        for key in ("naive_stderr", "effective_sample_size"):
            assert est.diagnostics[key] == rel(ref[key], rel=1e-12)
        for order, (mean, stderr, _) in est.per_order.items():
            assert mean == rel(ref["per_order"][order][0], rel=1e-12)
            assert stderr == rel(ref["per_order"][order][1], rel=1e-12)


def test_traced_allocation_does_not_grow_with_replicates():
    def peak(replicates):
        cfg = EstimatorConfig(replicates=replicates, seed=5, mode="importance", workers=2)
        tracemalloc.start()
        try:
            estimate_second_moment_fractional(Q0, K75, HEAT1, CONST1, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(500_000), peak(2_000_000)
    assert large < 16 * 2**20
    assert abs(large - small) < 4 * 2**20
