import math
import multiprocessing
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkmoments import mc_engine
from fkmoments import (
    Constant,
    DomainError,
    NumericError,
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
    white_noise_order_term,
)
from fkmoments.chaos_oracle import series_settings

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


# every library entry point that takes a count, as (argument name,
# call with that argument, a valid value of it)
INTEGER_ARGUMENTS = {
    "EstimatorConfig.replicates": (
        "replicates", lambda v: EstimatorConfig(replicates=v, seed=1), 64
    ),
    "EstimatorConfig.seed": ("seed", lambda v: EstimatorConfig(replicates=64, seed=v), 1),
    "EstimatorConfig.workers": (
        "workers", lambda v: EstimatorConfig(replicates=64, seed=1, workers=v), 2
    ),
    "series_settings": ("n_max", lambda v: series_settings(v, 1e-5), 2),
    "estimate_order_contribution": (
        "order",
        lambda v: estimate_order_contribution(
            v, Q0, K75, HEAT1, CONST1, EstimatorConfig(replicates=64, seed=1)
        ),
        2,
    ),
    "alpha_n_quadrature": (
        "order", lambda v: alpha_n_quadrature(v, Q0, K75, HEAT1, CONST1, 1e-3), 1
    ),
    "white_noise_order_term": (
        "order",
        lambda v: white_noise_order_term(v, 0.5, (0.0,), (0.0,), HEAT1, CONST1, 1e-3),
        1,
    ),
}


@pytest.mark.parametrize("value", [1.5, 2.0, True])
@pytest.mark.parametrize("route", sorted(INTEGER_ARGUMENTS))
def test_non_integer_counts_raise_domain_error_naming_the_argument(route, value):
    name, call, _ = INTEGER_ARGUMENTS[route]
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        call(value)


@pytest.mark.parametrize("route", sorted(INTEGER_ARGUMENTS))
def test_numpy_integer_counts_accepted(route):
    _, call, valid = INTEGER_ARGUMENTS[route]
    call(np.int64(valid))


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

    def test_shared_times_read_one_difference_path_in_two_dimensions(self):
        # with constant u0 the differences are one d-dimensional path read
        # at twice the shared times; at d = 2 with x != y a wrong offset or
        # time would move the terms (test_white_bump pins the 2d split)
        from fkmoments import white_noise_order_term

        heat2 = HeatKernel(dim=2, bandwidth=0.5)
        x, y = (0.0, 0.2), (0.3, -0.1)
        cfg = EstimatorConfig(replicates=400_000, seed=56)
        est = estimate_second_moment_white(0.5, x, y, heat2, CONST1, cfg)
        for n in (1, 2):
            oracle = white_noise_order_term(n, 0.5, x, y, heat2, CONST1, 1e-6)
            mean, stderr, _ = est.per_order[n]
            assert abs(mean - oracle) <= 3 * stderr

    def test_white_limit_check_registered_and_passes(self):
        from fkmoments import verify

        assert verify.SUITES["white-limit"] is verify.check_white_limit
        results = verify.run_suite("white-limit")
        assert [r.name for r in results] == [
            "fractional-vs-white-heat",
            "fractional-vs-white-poisson",
        ]
        assert all(r.passed and r.statistic <= 4.0 for r in results)


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


class TestDifferencePath:
    """One-point rows with constant u0 read one path at tau + rho; these
    check the identity against the closed forms at d = 2 with x != y."""

    HEAT2 = HeatKernel(dim=2, bandwidth=0.5)
    Q2 = QueryPoint(t=1.0, s=0.6, x=(0.0, 0.2), y=(0.3, -0.1))

    def test_one_point_inner_product_matches_closed_form(self):
        closed = inner_product_closed_form([0.7], [0.2], self.Q2, self.HEAT2, CONST1)
        mean, stderr = estimate_inner_product_mc(
            [0.7], [0.2], self.Q2, self.HEAT2, CONST1, EstimatorConfig(replicates=100_000, seed=71)
        )
        assert abs(mean - closed) <= 4 * stderr

    def test_order_one_matches_quadrature(self):
        cfg = EstimatorConfig(replicates=100_000, seed=72, mode="importance")
        mean, stderr = estimate_order_contribution(1, self.Q2, K75, self.HEAT2, CONST1, cfg)
        oracle = alpha_n_quadrature(1, self.Q2, K75, self.HEAT2, CONST1, 1e-6, scale_floor=1.0)
        assert abs(mean - oracle) <= 4 * stderr


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
    # 150_001 replicates: ragged batches, and groups of many slices with
    # a ragged last one
    results = [
        _ESTIMATORS[name](
            EstimatorConfig(replicates=150_001, seed=61, mode="importance", workers=workers)
        )
        for workers in (1, 2, 3)
    ]
    assert results[0] == results[1] == results[2]


def _a6_record(workers):
    cfg = EstimatorConfig(replicates=100_000, seed=17, mode="importance", workers=workers)
    return estimate_second_moment_fractional(Q0, K75, HEAT1, CONST1, cfg)


def _a6_in_child(queue):
    queue.put(_a6_record(2))


class TestSlicePool:
    """The slice pools outlive a call; they must survive forks, concurrent
    callers and failed calls."""

    def test_forked_child_gets_the_parents_record(self):
        # the child inherits the parent's pool without its threads: it must
        # start its own rather than queue slices that never run
        parent = _a6_record(2)
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_a6_in_child, args=(queue,))
        child.start()
        try:
            record = queue.get(timeout=60)
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join()
        assert record == parent

    def test_concurrent_calls_match_sequential_runs(self):
        cfg = EstimatorConfig(replicates=150_001, seed=61, mode="importance", workers=2)
        names = ("fractional", "white")
        expected = {name: _ESTIMATORS[name](cfg) for name in names}
        got = {}
        barrier = threading.Barrier(len(names))

        def run(name):
            barrier.wait()
            got[name] = _ESTIMATORS[name](cfg)

        threads = [threading.Thread(target=run, args=(name,)) for name in names]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert got == expected

    def test_failed_call_cancels_its_queued_slices(self, monkeypatch):
        q = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
        riesz = RieszKernel(dim=1, order=0.5)
        # 100k one-point replicates: 7 slices, 4 of them in flight at once
        cfg = EstimatorConfig(replicates=100_000, seed=81, workers=2)
        normal = estimate_order_contribution(1, q, K75, riesz, CONST1, cfg)

        # slice 1 fails at once; the others hold their worker first, so
        # slice 4 (and perhaps 3) is still queued when the call sees the
        # failure
        index_of, started = {}, []
        chunk_rng, with_redraw = mc_engine._chunk_rng, mc_engine._with_redraw

        def indexed_rng(seed, stream, index):
            rng = chunk_rng(seed, stream, index)
            index_of[id(rng)] = index
            return rng

        def held(evaluate, kk, g, rng):
            started.append(evaluate)
            if index_of.pop(id(rng)) > 1:
                time.sleep(1.0)
            return with_redraw(evaluate, kk, g, rng)

        monkeypatch.setattr(mc_engine, "_chunk_rng", indexed_rng)
        monkeypatch.setattr(mc_engine, "_with_redraw", held)
        monkeypatch.setattr(mc_engine, "_REDRAW_CAP", 0)
        with pytest.raises(NumericError):
            estimate_order_contribution(1, q, K75, riesz, CONST1, cfg)
        failed = started[0]
        ran = started.count(failed)
        assert ran in (2, 3)

        monkeypatch.setattr(mc_engine, "_REDRAW_CAP", 64)
        assert estimate_order_contribution(1, q, K75, riesz, CONST1, cfg) == normal
        assert started.count(failed) == ran


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


def _argmax_gather(paths, times, start):
    """The reference pick: argmax, whose ties go to the first latest
    column, then a gather of that column's path value and time."""
    idx = np.argmax(times, axis=1)
    pos = start[None, :] + np.take_along_axis(paths, idx[:, None, None], axis=1)[:, 0]
    return pos, np.take_along_axis(times, idx[:, None], axis=1)[:, 0]


class TestValueAtMax:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_argmax_gather_with_ties(self, k, dim):
        # the column-by-column pick must agree bit for bit with the argmax
        # gather, whose ties go to the first latest column
        rng = np.random.default_rng(100 + 10 * k + dim)
        m = 3000
        times = rng.choice([0.0, 0.25, 0.5, 0.7], size=(m, k))
        paths = rng.standard_normal((m, k, dim))
        paths[rng.random((m, k)) < 0.1] = -0.0
        start = rng.uniform(-1.0, 1.0, size=dim)
        pos, t_star = mc_engine._value_at_max(paths, times, start)
        ref_pos, ref_t = _argmax_gather(paths, times, start)
        if k > 1:
            assert np.any(times[:, 0] == times.max(axis=1)) and np.any(times[:, 1] == times[:, 0])
        assert np.array_equal(pos.view(np.int64), ref_pos.view(np.int64))
        assert np.array_equal(t_star.view(np.int64), ref_t.view(np.int64))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        m=st.integers(1, 300),
        k=st.integers(1, 6),
        dim=st.integers(1, 3),
        zero_share=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_argmax_gather_with_signed_zeros(self, m, k, dim, zero_share, seed):
        # times drawn from a few values tie often, and 0.0 ties -0.0; the
        # path values and the start carry signed zeros too
        rng = np.random.default_rng(seed)
        times = rng.choice([0.0, -0.0, 0.25, 0.5], size=(m, k))
        paths = rng.standard_normal((m, k, dim))
        paths[rng.random((m, k, dim)) < zero_share] = -0.0
        paths[rng.random((m, k, dim)) < zero_share] = 0.0
        start = rng.choice([0.0, -0.0, 0.3], size=dim)
        pos, t_star = mc_engine._value_at_max(paths, times, start)
        ref_pos, ref_t = _argmax_gather(paths, times, start)
        assert pos.shape == ref_pos.shape == (m, dim)
        assert np.array_equal(pos.view(np.int64), ref_pos.view(np.int64))
        assert np.array_equal(t_star.view(np.int64), ref_t.view(np.int64))


class TestColumnProduct:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        g=st.integers(1, 300),
        k=st.integers(1, 8),
        special_share=st.sampled_from([0.0, 0.1, 0.5]),
        fortran=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_numpy_prod(self, g, k, special_share, fortran, seed):
        # factors over many binades overflow and underflow; 0, -0, inf and
        # -inf make inf * 0 = nan, whose sign must come out the same too
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((g, k)) * np.exp(rng.uniform(-300.0, 300.0, (g, k)))
        special = rng.random((g, k)) < special_share
        a[special] = rng.choice([0.0, -0.0, math.inf, -math.inf], size=int(special.sum()))
        if fortran:
            a = np.asfortranarray(a)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            got, ref = mc_engine._column_product(a), np.prod(a, axis=1)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


class TestStreamingSummary:
    """The slice summaries, merged, against a reduction of the dense values."""

    @pytest.mark.parametrize("wfac", [None, 1.7])
    @pytest.mark.parametrize("batch_count", [7, 32])
    def test_matches_dense_reference(self, monkeypatch, batch_count, wfac):
        points_per_slice = 1000
        monkeypatch.setattr(mc_engine, "CHUNK_SIZE", points_per_slice)
        monkeypatch.setattr(mc_engine, "BATCHES", batch_count)
        n, v0 = 10_007, 0.8
        cfg = EstimatorConfig(replicates=n, seed=0, workers=2)
        tables, slices = [], {}

        def key_of(rng):
            # each generator is keyed by (stream, index): 0 for the table,
            # then 1, 2, ... for the slices in (K, position) order
            return rng.bit_generator.seed_seq.spawn_key[-1]

        def count_table(rng, sizes):
            assert key_of(rng) == 0
            # K up to about 9, so groups span from one slice to many
            data = np.random.default_rng(batch_count)
            counts = [data.poisson(2.0, size) for size in sizes]
            width = max(c.max() for c in counts) + 1
            tables.append(np.array([np.bincount(c, minlength=width) for c in counts]))
            return tables[-1]

        def evaluate(kk, g, rng):
            assert kk >= 1
            assert g * kk <= points_per_slice or g == 1
            # heavy-tailed signed values
            data = np.random.default_rng((batch_count, key_of(rng)))
            values = data.standard_t(2.5, g)
            slices[key_of(rng)] = kk, values
            return values.copy()

        summary = mc_engine._stream(cfg, 0, count_table, evaluate, v0)
        (table,) = tables
        assert sorted(slices) == list(range(1, len(slices) + 1))
        got = [kk for _, (kk, _) in sorted(slices.items())]
        assert got == sorted(got)
        groups = {
            kk: np.concatenate([v for _, (k, v) in sorted(slices.items()) if k == kk])
            for kk in set(got)
        }
        assert {kk: g.size for kk, g in groups.items()} == {
            kk: int(table[:, kk].sum()) for kk in range(1, table.shape[1]) if table[:, kk].any()
        }

        # the dense replicates: batch by batch, its K = 0 values, then its
        # share of each group in order
        values, counts = [], []
        starts = np.cumsum(table, axis=0) - table
        for row, start in zip(table, starts):
            for kk in np.flatnonzero(row):
                size, at = row[kk], start[kk]
                counts.append(np.full(size, kk))
                values.append(np.full(size, v0) if kk == 0 else groups[kk][at : at + size])
        values, counts = np.concatenate(values), np.concatenate(counts)
        assert values.size == n
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
