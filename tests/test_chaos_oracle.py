import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from fkmoments import (
    CapabilityError,
    Constant,
    DomainError,
    EstimatorConfig,
    GaussianBump,
    HeatKernel,
    NumericError,
    QueryPoint,
    RieszKernel,
    TemporalKernel,
    ZeroKernel,
    alpha_n_quadrature,
    estimate_inner_product_mc,
    estimate_second_moment_white,
    heat_density,
    inner_product_closed_form,
    second_moment_series,
    truncation_tail,
    white_noise_order_term,
)
from fkmoments.chaos_oracle import white_noise_series

HEAT1 = HeatKernel(dim=1, bandwidth=1.0)
CONST1 = Constant(1.0)


@pytest.fixture(scope="module")
def a6_series():
    """The A6 query: n_max = 3 at t = s = 0.5, x = y = 0, H = 0.75, tol 1e-5."""
    q = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
    return second_moment_series(q, TemporalKernel(0.75), HEAT1, CONST1, 3, 1e-5)


def alpha1_substitution_oracle(hurst, t, s, h, offset, nodes=80):
    """Independent route to the first chaos coefficient.

    a_1 = int_0^t int_0^s eta(u,v) p_{h+(t-u)+(s-v)}(offset) dv du, with the
    inner integral desingularized by z = |u - v|^(2H-1) per branch and the
    outer integral on panels graded toward the kinks at u = 0 and u = s.
    """
    p = 2 * hurst - 1
    alpha = hurst * p
    x, w = leggauss(nodes)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w

    def inner(u):
        total = 0.0
        branches = []
        if u <= s:
            branches = [(u**p, -1.0, 0.0), ((s - u) ** p, 1.0, 0.0)]
        else:
            branches = [(u**p, -1.0, (u - s) ** p)]
        for z_hi, sign, z_lo in branches:
            if z_hi <= z_lo:
                continue
            z = z_lo + (z_hi - z_lo) * x
            v = u + sign * z ** (1.0 / p)
            g = heat_density(h + (t - u) + (s - v), np.asarray(offset) + np.zeros((nodes, 1)))
            total += (z_hi - z_lo) * np.dot(w, g)
        return alpha / p * total

    knots = np.concatenate(
        [[0.0, t], [s] if s < t else [], t * 0.5 ** np.arange(1, 30)]
    )
    if s <= t:
        knots = np.concatenate([knots, s - s * 0.5 ** np.arange(1, 30), s * 0.5 ** np.arange(1, 30)])
    knots = np.unique(np.clip(knots, 0.0, t))
    value = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        u_nodes = lo + (hi - lo) * x
        value += (hi - lo) * np.dot(w, [inner(u) for u in u_nodes])
    return value


class TestQueryPoint:
    def test_validates_time_range(self):
        with pytest.raises(DomainError):
            QueryPoint(t=1.2, s=0.5, x=(0.0,), y=(0.0,))
        with pytest.raises(DomainError):
            QueryPoint(t=0.5, s=-0.1, x=(0.0,), y=(0.0,))

    def test_validates_matching_dimensions(self):
        with pytest.raises(DomainError):
            QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0, 1.0))

    def test_scalar_points_promoted(self):
        q = QueryPoint(t=0.5, s=0.5, x=0.3, y=-0.2)
        assert q.dim == 1
        assert q.offset_sq == pytest.approx(0.25)


class TestInnerProductClosedForm:
    def test_reference_value(self):
        q = QueryPoint(t=1.0, s=1.0, x=(0.0,), y=(0.0,))
        val = inner_product_closed_form([0.5], [0.5], q, HEAT1, CONST1)
        assert val == pytest.approx(0.28209479177387814, rel=1e-10)

    def test_empty_times_give_constant_squared(self):
        q = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(1.0,))
        assert inner_product_closed_form([], [], q, HEAT1, Constant(1.7)) == 1.7 * 1.7

    def test_rejects_unsupported_kernel(self):
        q = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
        with pytest.raises(CapabilityError):
            inner_product_closed_form([0.2], [0.3], q, RieszKernel(dim=1, order=0.5), CONST1)

    def test_rejects_unsupported_initial_condition(self):
        q = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
        with pytest.raises(CapabilityError):
            inner_product_closed_form([0.2], [0.3], q, HEAT1, GaussianBump())

    def test_matches_monte_carlo(self):
        from fkmoments import EstimatorConfig, estimate_inner_product_mc

        q = QueryPoint(t=1.0, s=1.0, x=(0.0,), y=(0.0,))
        rng = np.random.default_rng(5)
        t_times = np.sort(rng.uniform(0.05, 1.0, 2))
        s_times = np.sort(rng.uniform(0.05, 1.0, 2))
        closed = inner_product_closed_form(t_times, s_times, q, HEAT1, CONST1)
        mc, se = estimate_inner_product_mc(
            t_times, s_times, q, HEAT1, CONST1, EstimatorConfig(replicates=200_000, seed=11)
        )
        assert abs(mc - closed) <= 3 * se


class TestAlphaQuadrature:
    def test_alpha1_matches_substitution_oracle(self):
        q = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
        k = TemporalKernel(0.75)
        tol = 1e-5
        quad = alpha_n_quadrature(1, q, k, HEAT1, CONST1, tol)
        oracle = alpha1_substitution_oracle(0.75, 0.5, 0.5, 1.0, (0.0,))
        assert abs(quad - oracle) < 2 * tol

    def test_alpha1_offset_and_uneven_times(self):
        q = QueryPoint(t=0.8, s=0.6, x=(0.4,), y=(-0.3,))
        k = TemporalKernel(0.6)
        quad = alpha_n_quadrature(1, q, k, HEAT1, CONST1, 1e-6)
        oracle = alpha1_substitution_oracle(0.6, 0.8, 0.6, 1.0, (0.7,))
        assert quad == pytest.approx(oracle, abs=2e-6)

    def test_zero_kernel_is_exactly_zero(self):
        q = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
        k = TemporalKernel(0.75)
        for n in (1, 2, 3):
            assert alpha_n_quadrature(n, q, k, ZeroKernel(dim=1), CONST1, 1e-5) == 0.0

    def test_constant_scaling_is_exact(self):
        q = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
        k = TemporalKernel(0.75)
        base = alpha_n_quadrature(2, q, k, HEAT1, CONST1, 1e-5, scale_floor=1.0)
        scaled = alpha_n_quadrature(2, q, k, HEAT1, Constant(2.5), 1e-5, scale_floor=1.0)
        assert scaled == 2.5 * 2.5 * base

    def test_degenerate_time_is_zero(self):
        q = QueryPoint(t=0.0, s=0.5, x=(0.0,), y=(0.0,))
        assert alpha_n_quadrature(1, q, TemporalKernel(0.75), HEAT1, CONST1, 1e-5) == 0.0

    def test_order_cap(self):
        q = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
        with pytest.raises(DomainError):
            alpha_n_quadrature(4, q, TemporalKernel(0.75), HEAT1, CONST1, 1e-3)

    def test_unreachable_tolerance_raises(self):
        q = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
        with pytest.raises(NumericError):
            alpha_n_quadrature(1, q, TemporalKernel(0.75), HEAT1, CONST1, 1e-16)

    def test_exhausted_ladder_reports_two_distinct_iterates(self):
        q = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
        calls = [
            lambda: alpha_n_quadrature(1, q, TemporalKernel(0.75), HEAT1, CONST1, 1e-300),
            lambda: white_noise_order_term(1, 0.5, (0.0,), (0.0,), HEAT1, CONST1, 1e-300),
        ]
        for call in calls:
            with pytest.raises(NumericError) as info:
                call()
            last_two = str(info.value).split("last iterates ")[1].split(", ")
            assert len(last_two) == 2
            first, second = (float(v) for v in last_two)
            assert first != second

    def test_monotone_refinement(self):
        # the reported value differs from the next refinement by < tol
        from fkmoments.chaos_oracle import _PAIR_LEVELS, _contract_gaussian
        from fkmoments.quadrature import eta_pair_rule

        q = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
        k = TemporalKernel(0.75)
        tol = 1e-5
        reported = alpha_n_quadrature(1, q, k, HEAT1, CONST1, tol)
        values = []
        for depth_u, depth_r in _PAIR_LEVELS[1]:
            u, v, w = eta_pair_rule(k.hurst, 0.5, 0.5, depth_u, depth_r)
            values.append(_contract_gaussian(0.5 - u, 0.5 - v, w, 1, 1.0, 1, 0.0))
        idx = values.index(reported)
        assert idx + 1 < len(values)
        assert abs(values[idx + 1] - reported) < tol * abs(reported)


class TestSecondMomentSeries:
    def test_zero_kernel_shortcut(self):
        q = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
        res = second_moment_series(q, TemporalKernel(0.75), ZeroKernel(dim=1), Constant(2.0), 3, 1e-5)
        assert res.total == res.zeroth_term == 4.0
        assert res.tail_estimate == 0.0
        assert res.order_terms == [0.0, 0.0, 0.0]
        assert res.diagnostics["refinement"] == {}

    def test_degenerate_time_returns_initial_product(self):
        q = QueryPoint(t=0.0, s=0.0, x=(0.3,), y=(-0.4,))
        u0 = GaussianBump(amplitude=1.0, center=(0.0,), width=1.0)
        res = second_moment_series(q, TemporalKernel(0.75), HEAT1, u0, 3, 1e-5)
        expected = u0.field(0.0, (0.3,)) * u0.field(0.0, (-0.4,))
        assert res.total == pytest.approx(expected, rel=1e-14)

    def test_total_is_zeroth_plus_orders(self):
        q = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
        res = second_moment_series(q, TemporalKernel(0.75), HEAT1, CONST1, 2, 1e-4)
        assert res.total == pytest.approx(res.zeroth_term + sum(res.order_terms), abs=1e-15)
        assert res.tail_is_heuristic

    def test_order_terms_positive_at_coincident_points(self):
        q = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
        res = second_moment_series(q, TemporalKernel(0.75), HEAT1, CONST1, 2, 1e-4)
        assert all(term > 0 for term in res.order_terms)
        assert res.order_terms[1] < res.order_terms[0]

    def test_swap_symmetry_exact(self):
        k = TemporalKernel(0.7)
        q = QueryPoint(t=0.7, s=0.4, x=(0.2,), y=(-0.5,))
        a = second_moment_series(q, k, HEAT1, CONST1, 2, 1e-4)
        b = second_moment_series(q.swapped(), k, HEAT1, CONST1, 2, 1e-4)
        assert a.total == b.total
        assert a.order_terms == b.order_terms
        assert a.diagnostics["refinement"] == b.diagnostics["refinement"]

    def test_translation_invariance_exact(self):
        k = TemporalKernel(0.8)
        a = second_moment_series(
            QueryPoint(t=0.6, s=0.5, x=(0.0,), y=(1.0,)), k, HEAT1, CONST1, 2, 1e-4
        )
        b = second_moment_series(
            QueryPoint(t=0.6, s=0.5, x=(2.0,), y=(3.0,)), k, HEAT1, CONST1, 2, 1e-4
        )
        assert a.total == b.total

    def test_golden_reference_configuration(self, a6_series):
        # frozen after ladder convergence at tol 1e-5; guards regressions
        assert a6_series.total == pytest.approx(1.1235476874500951, abs=5e-5)

    def test_a6_refinement_trace(self, a6_series):
        from fkmoments.chaos_oracle import _PAIR_LEVELS

        refinement = a6_series.diagnostics["refinement"]
        assert sorted(refinement) == [1, 2, 3]
        for n, rungs in refinement.items():
            assert [r[:2] for r in rungs] == _PAIR_LEVELS[n][: len(rungs)]
            assert rungs[0][4] is None
            # every rung but the last was rejected, the last accepted
            assert all(r[4] > r[5] for r in rungs[1:-1])
            assert rungs[-1][4] <= rungs[-1][5]
            assert rungs[-1][3] / math.factorial(n) == a6_series.order_terms[n - 1]
        # order 3 is accepted on its second rung, (1, 0), with m = 768
        assert [r[:3] for r in refinement[3]] == [(0, 0, 512), (1, 0, 768)]


class TestWhiteNoiseOrderTerm:
    def test_zero_kernel(self):
        assert white_noise_order_term(2, 0.5, (0.0,), (0.0,), ZeroKernel(dim=1), CONST1, 1e-5) == 0.0

    def test_first_order_closed_form(self):
        # int_0^1 p_{1+2a}(0) da = (sqrt(3) - 1)/sqrt(2 pi)
        val = white_noise_order_term(1, 1.0, (0.0,), (0.0,), HEAT1, CONST1, 1e-8)
        assert val == pytest.approx((math.sqrt(3) - 1) / math.sqrt(2 * math.pi), rel=1e-9)

    def test_first_order_brute_quadrature(self):
        t, h, off = 0.7, 0.8, 0.5
        a = np.linspace(0.0, t, 200_001)
        target = np.trapezoid(heat_density(h + 2 * a, np.full((a.size, 1), off)), a)
        val = white_noise_order_term(1, t, (off,), (0.0,), HeatKernel(dim=1, bandwidth=h), CONST1, 1e-8)
        assert val == pytest.approx(target, abs=1e-8)

    def test_simplex_volume(self):
        from fkmoments.quadrature import simplex_rule

        for n in (1, 2, 3):
            _, w = simplex_rule(n, 0.8, 12)
            assert np.sum(w) == pytest.approx(0.8**n / math.factorial(n), rel=1e-13)


    def test_rejects_mismatched_point_dimensions(self):
        with pytest.raises(DomainError, match="dimension"):
            white_noise_order_term(1, 0.5, (0.0,), (0.0, 0.3), HEAT1, CONST1, 1e-5)

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError, match="nonnegative"):
            white_noise_order_term(1, -0.001, (0.0,), (0.0,), HEAT1, CONST1, 1e-5)

    def test_trace_records_simplex_rungs(self):
        trace = []
        val = white_noise_order_term(2, 0.5, (0.0,), (0.2,), HEAT1, CONST1, 1e-5, trace=trace)
        assert [r[:2] for r in trace] == [(p, p * p) for p in (8, 12, 16, 24, 32, 48)[: len(trace)]]
        assert trace[0][3] is None
        assert all(r[3] > r[4] for r in trace[1:-1])
        assert trace[-1][3] <= trace[-1][4] == 1e-5 * abs(val)
        assert trace[-1][2] == val


class TestWhiteNoiseSeries:
    def test_total_is_zeroth_plus_unfloored_orders(self):
        u0 = Constant(1.3)
        series = white_noise_series(0.6, (0.0,), (0.4,), HEAT1, u0, 3, 1e-5)
        orders = [white_noise_order_term(n, 0.6, (0.0,), (0.4,), HEAT1, u0, 1e-5) for n in (1, 2, 3)]
        assert series.order_terms == orders
        assert series.zeroth_term == 1.3 * 1.3
        assert series.total == 1.3 * 1.3 + math.fsum(orders)
        assert series.tail_estimate == truncation_tail(orders)

    def test_zero_time_skips_the_orders(self):
        riesz = RieszKernel(dim=2, order=1.0)
        series = white_noise_series(0.0, (0.0, 0.0), (0.0, 0.0), riesz, CONST1, 2, 1e-5)
        assert series.order_terms == [0.0, 0.0] and series.total == 1.0

    def test_refinement_trace_matches_the_order_terms(self):
        series = white_noise_series(0.6, (0.0,), (0.4,), HEAT1, CONST1, 3, 1e-5)
        refinement = series.diagnostics["refinement"]
        for n in (1, 2, 3):
            trace = []
            white_noise_order_term(n, 0.6, (0.0,), (0.4,), HEAT1, CONST1, 1e-5, trace=trace)
            assert refinement[n] == trace
            assert trace[-1][2] == series.order_terms[n - 1]

    @pytest.mark.parametrize("t, n_max", [(-0.5, 2), (0.5, -1), (0.5, 4)])
    def test_rejects_negative_time_and_order_cap(self, t, n_max):
        with pytest.raises(DomainError):
            white_noise_series(t, (0.0,), (0.0,), HEAT1, CONST1, n_max, 1e-5)


class TestSeriesSettings:
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_bad_tolerance_rejected_before_any_rule_is_built(self, tol, monkeypatch):
        from fkmoments import chaos_oracle

        def no_rule(*args):
            raise AssertionError("a quadrature rule was built")

        monkeypatch.setattr(chaos_oracle, "eta_pair_rule", no_rule)
        monkeypatch.setattr(chaos_oracle, "simplex_rule", no_rule)
        q = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
        for n_max in (1, 3):
            with pytest.raises(DomainError, match="tol"):
                second_moment_series(q, TemporalKernel(0.75), HEAT1, CONST1, n_max=n_max, tol=tol)
            with pytest.raises(DomainError, match="tol"):
                white_noise_series(0.5, (0.0,), (0.0,), HEAT1, CONST1, n_max, tol)

    @pytest.mark.parametrize("n_max", [-1, 4])
    def test_order_cap(self, n_max):
        q = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
        with pytest.raises(DomainError, match="n_max"):
            second_moment_series(q, TemporalKernel(0.75), HEAT1, CONST1, n_max=n_max, tol=1e-5)


Q1 = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))

# every closed-form entry point, called with spatial kernel f on 1-d points
ORACLE_ROUTES = {
    "second_moment_series": lambda f: second_moment_series(
        Q1, TemporalKernel(0.75), f, CONST1, 2, 1e-5
    ),
    "alpha_n_quadrature": lambda f: alpha_n_quadrature(
        1, Q1, TemporalKernel(0.75), f, CONST1, 1e-5
    ),
    "inner_product_closed_form": lambda f: inner_product_closed_form([0.2], [0.3], Q1, f, CONST1),
    "white_noise_order_term": lambda f: white_noise_order_term(
        1, 0.5, (0.0,), (0.0,), f, CONST1, 1e-5
    ),
    "white_noise_series": lambda f: white_noise_series(0.5, (0.0,), (0.0,), f, CONST1, 2, 1e-5),
}


class TestKernelDimension:
    @pytest.mark.parametrize("route", sorted(ORACLE_ROUTES))
    def test_rejects_kernel_of_another_dimension(self, route):
        with pytest.raises(DomainError, match="kernel dimension 2 != query dimension 1"):
            ORACLE_ROUTES[route](HeatKernel(dim=2))

    # a kernel without a closed form fails the dimension check first, so
    # every route raises the same error for it
    @pytest.mark.parametrize("route", sorted(ORACLE_ROUTES))
    def test_checked_before_the_closed_form_capability(self, route):
        with pytest.raises(DomainError, match="kernel dimension 2 != query dimension 1"):
            ORACLE_ROUTES[route](RieszKernel(dim=2))

    # the zero kernel is not a closed form, but the routes that accept it
    # must check its dimension before they return 0
    @pytest.mark.parametrize("route", sorted(set(ORACLE_ROUTES) - {"inner_product_closed_form"}))
    def test_checked_before_the_zero_kernel_shortcut(self, route):
        with pytest.raises(DomainError, match="kernel dimension 2 != query dimension 1"):
            ORACLE_ROUTES[route](ZeroKernel(dim=2))


# the two inner-product routes, called at Q1 with the given elapsed times
INNER_PRODUCT_ROUTES = {
    "inner_product_closed_form": lambda ts, ss: inner_product_closed_form(
        ts, ss, Q1, HEAT1, CONST1
    ),
    "estimate_inner_product_mc": lambda ts, ss: estimate_inner_product_mc(
        ts, ss, Q1, HEAT1, CONST1, EstimatorConfig(replicates=1000, seed=0)
    ),
}


@pytest.mark.parametrize("route", sorted(INNER_PRODUCT_ROUTES))
@pytest.mark.parametrize(
    "t_times, s_times",
    [([-0.1], [0.2]), ([math.nan], [0.2]), ([0.6], [0.2]), ([0.2], [0.6])],
    ids=["negative", "nan", "t-above-query", "s-above-query"],
)
def test_inner_product_rejects_elapsed_times_outside_the_query(route, t_times, s_times):
    with pytest.raises(DomainError, match="elapsed times"):
        INNER_PRODUCT_ROUTES[route](t_times, s_times)


# the three white-in-time routes, called at time t from x = 0 to y
WHITE_ROUTES = {
    "estimate_second_moment_white": lambda t, y: estimate_second_moment_white(
        t, (0.0,), y, HEAT1, CONST1, EstimatorConfig(replicates=1000, seed=0)
    ),
    "white_noise_order_term": lambda t, y: white_noise_order_term(
        1, t, (0.0,), y, HEAT1, CONST1, 1e-5
    ),
    "white_noise_series": lambda t, y: white_noise_series(t, (0.0,), y, HEAT1, CONST1, 2, 1e-5),
}


@pytest.mark.parametrize("route", sorted(WHITE_ROUTES))
@pytest.mark.parametrize("t, y", [(0.5, (math.nan,)), (1.5, (0.0,))], ids=["nan-point", "t-1.5"])
def test_white_routes_reject_nan_points_and_times_above_one(route, t, y):
    with pytest.raises(DomainError):
        WHITE_ROUTES[route](t, y)


@pytest.mark.parametrize("t, h", [(1.0, 1.0), (0.5, 0.3)])
def test_fractional_series_tends_to_white_series_as_hurst_tends_to_half(t, h):
    # the fractional noise tends to white noise in time as H -> 1/2, and
    # the gap closes linearly in H - 1/2 down to the quadrature tolerance
    f = HeatKernel(dim=1, bandwidth=h)
    white = white_noise_series(t, (0.0,), (0.0,), f, CONST1, 2, 1e-5).total
    q = QueryPoint(t=t, s=t, x=(0.0,), y=(0.0,))
    gap = {
        eps: second_moment_series(q, TemporalKernel(0.5 + eps), f, CONST1, 2, 1e-5).total - white
        for eps in (1e-2, 1e-3, 1e-4)
    }
    assert abs(gap[1e-3]) * 5 <= abs(gap[1e-2])
    assert abs(gap[1e-4]) * 5 <= abs(gap[1e-3])
    limit = (10 * gap[1e-4] - gap[1e-3]) / 9
    assert abs(limit) <= 1e-5 * abs(white)


class TestTruncationTail:
    def test_geometric_example(self):
        assert truncation_tail([0.1, 0.01]) == pytest.approx(0.01 * 0.1 / 0.9)

    def test_non_decreasing_signals_infinity(self):
        assert truncation_tail([0.1, 0.2]) == math.inf

    def test_zero_last_term(self):
        assert truncation_tail([0.3, 0.0]) == 0.0

    def test_ratio_clamp(self):
        tail = truncation_tail([1.0, 0.95])
        assert tail == pytest.approx(0.95 * 0.9 / 0.1)

    def test_single_term(self):
        assert truncation_tail([0.5]) == math.inf
        assert truncation_tail([0.0]) == 0.0
