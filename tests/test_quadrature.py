import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkmoments import TemporalKernel, chaos_oracle
from fkmoments.chaos_oracle import _PAIR_LEVELS, _contract_gaussian
from fkmoments.gaussian_paths import gaussian_product_expectation_batch
from fkmoments.quadrature import (
    eta_pair_rule,
    gauss_jacobi_01,
    gauss_legendre_01,
    simplex_rule,
)


def dense_ordered_sum(a, b, w, n, h, d, off2):
    """Sum over every ordered n-tuple of its weight product times the closed form.

    Independent of the multiset enumeration: each tuple is evaluated by the
    batched closed form, one first index at a time to bound memory.
    """
    m = w.size
    rest = np.array(list(itertools.product(range(m), repeat=n - 1)), dtype=int)
    rest = rest.reshape(m ** (n - 1), n - 1)
    total = 0.0
    for i in range(m):
        idx = np.column_stack((np.full(len(rest), i), rest))
        vals = gaussian_product_expectation_batch(a[idx], b[idx], h, d, off2)
        total += float(np.dot(np.prod(w[idx], axis=1), vals))
    return total


class TestNodes:
    def test_legendre_integrates_polynomials(self):
        x, w = gauss_legendre_01(8)
        for k in range(8):
            assert np.dot(w, x**k) == pytest.approx(1.0 / (k + 1), rel=1e-13)

    def test_jacobi_absorbs_power_weight(self):
        # int_0^1 x^beta x^k dx = 1/(beta + k + 1)
        beta = -0.5
        x, w = gauss_jacobi_01(8, beta)
        for k in range(8):
            assert np.dot(w, x**k) == pytest.approx(1.0 / (beta + k + 1), rel=1e-12)


# every Gauss-Legendre order the package builds; Gauss-Jacobi rules are
# built at the pair-rule orders only
_LEGENDRE_ORDERS = sorted({*chaos_oracle._PAIR_LEVELS, *chaos_oracle._SIMPLEX_LEVELS})
# the H -> 1 and H -> 1/2 edges and the middle of beta = 2H - 2
_JACOBI_BETAS = [-0.98, -0.5, -0.02]


class TestGolubWelsch:
    @pytest.mark.parametrize("order", _LEGENDRE_ORDERS)
    def test_legendre_exact_to_degree_2n_minus_1(self, order):
        x, w = gauss_legendre_01(order)
        for k in range(2 * order):
            assert np.dot(w, x**k) == pytest.approx(1.0 / (k + 1), rel=1e-13)

    @pytest.mark.parametrize("beta", _JACOBI_BETAS)
    @pytest.mark.parametrize("order", chaos_oracle._PAIR_LEVELS)
    def test_jacobi_exact_to_degree_2n_minus_1(self, order, beta):
        x, w = gauss_jacobi_01(order, beta)
        for k in range(2 * order):
            assert np.dot(w, x**k) == pytest.approx(1.0 / (beta + k + 1), rel=1e-13)

    @pytest.mark.parametrize("order", _LEGENDRE_ORDERS)
    def test_legendre_matches_scipy(self, order):
        from scipy.special import roots_legendre

        z, wz = roots_legendre(order)
        x, w = gauss_legendre_01(order)
        np.testing.assert_allclose(x, 0.5 * (z + 1.0), rtol=0, atol=1e-14)
        np.testing.assert_allclose(w, 0.5 * wz, rtol=5e-12, atol=0)

    @pytest.mark.parametrize("beta", _JACOBI_BETAS)
    def test_jacobi_matches_scipy(self, beta):
        from scipy.special import roots_jacobi

        # at order >= 16 and beta = -0.98 scipy's weights leave Golub-Welsch's
        # by 1.2-1.6e-11 relative, while the latter's moments stay exact
        z, wz = roots_jacobi(8, 0.0, beta)
        x, w = gauss_jacobi_01(8, beta)
        np.testing.assert_allclose(x, 0.5 * (z + 1.0), rtol=0, atol=1e-14)
        np.testing.assert_allclose(w, wz * 0.5 ** (beta + 1.0), rtol=5e-12, atol=0)


class TestPairRule:
    # t > s, t < s, and t - s so small that the u > v side needs four
    # log-r cells between the kink r = t - s and r = t
    @pytest.mark.parametrize("t, s", [(0.8, 0.6), (0.6, 0.8), (0.5, 0.5 - 1e-8)])
    def test_weights_positive_and_nodes_in_domain(self, t, s):
        u, v, w = eta_pair_rule(0.65, t, s, 12)
        assert np.all(w > 0)
        assert np.all((u >= 0) & (u <= t))
        assert np.all((v >= 0) & (v <= s))
        assert np.all(u != v)  # nodes never sit on the singular diagonal

    @pytest.mark.parametrize(
        "t, s",
        [
            (0.48426078515942567, 6.356992576849936e-16),
            (0.9998049980023462, 1.012450800011338e-15),
            (0.22675353086728375, 2.7730934541170097e-16),
        ],
    )
    def test_weights_nonnegative_when_one_time_is_tiny(self, t, s):
        # the kink r = t - s lies within a few ulp of t, so the rounded
        # t / (t - s) - 1 keeps few correct bits; log-r nodes placed from
        # it rather than from the exact t - (t - s) pass r = t here and
        # get negative segment lengths
        u, v, w = eta_pair_rule(0.75, t, s, 12)
        assert np.all(w >= 0)
        assert np.all((u >= 0) & (u <= t))
        assert np.all((v >= 0) & (v <= s))

    @pytest.mark.parametrize("t", [1.0, 0.5, 1e-3])
    def test_nearest_unequal_times_stay_within_ten_q_squared(self, t):
        # s is the double just below t, so t / (t - s) is as large as two
        # distinct doubles allow (2^53 at t = 1 and 0.5): eight log-r cells
        # past the kink, and still at most 10 q^2 nodes
        q, s = 12, float(np.nextafter(t, 0.0))
        u, v, w = eta_pair_rule(0.75, t, s, q)
        assert w.size <= 10 * q**2
        mass = TemporalKernel(0.75).mass(t, s)
        assert abs(w.sum() - mass) <= 1e-14 * mass

    @pytest.mark.parametrize("q", [6, 8])
    @pytest.mark.parametrize("t", [1.0, 0.5, 1e-3])
    def test_nearest_unequal_times_below_q12_keep_twelve_point_cells(self, t, q):
        # below q = 12 each of the eight log-r cells still takes 12 points,
        # so the rule has 2 q^2 + 96 q nodes and its mass stays exact
        s = float(np.nextafter(t, 0.0))
        u, v, w = eta_pair_rule(0.75, t, s, q)
        assert w.size == 2 * q**2 + 96 * q
        mass = TemporalKernel(0.75).mass(t, s)
        assert abs(w.sum() - mass) <= 1e-14 * mass

    @pytest.mark.parametrize("q", _PAIR_LEVELS)
    @pytest.mark.parametrize("hurst", [0.55, 0.75, 0.95])
    @pytest.mark.parametrize("t", [0.3, 0.5, 1.0])
    def test_equal_times_second_half_mirrors_first(self, q, hurst, t):
        # the order-3 contraction sums half the triples of a rule laid out
        # this way: u > v side first, then the same nodes with u, v swapped
        u, v, w = eta_pair_rule(hurst, t, t, q)
        half = w.size // 2
        assert w.size == 2 * half
        assert np.all(u[:half] > v[:half])
        np.testing.assert_array_equal(u[half:], v[:half])
        np.testing.assert_array_equal(v[half:], u[:half])
        np.testing.assert_array_equal(w[half:], w[:half])

    def test_total_weight_matches_closed_form(self):
        k = TemporalKernel(0.7)
        u, v, w = eta_pair_rule(0.7, 0.9, 0.4, 8)
        assert np.sum(w) == pytest.approx(k.mass(0.9, 0.4), abs=1e-7)

    def test_smooth_factor_integration(self):
        # weight against g(u, v) = u: int_0^t int_0^s eta(u,v) u dv du,
        # cross-checked by a dense midpoint evaluation in the distance
        # variable (independent arithmetic, slow convergence but unbiased
        # construction)
        hurst, t, s = 0.8, 1.0, 1.0
        u, v, w = eta_pair_rule(hurst, t, s, 8)
        quad = float(np.dot(w, u))
        # reference: int u * eta = alpha_H int_0^1 u [ ((u)^p + (1-u)^p)/p ] du
        p = 2 * hurst - 1
        grid = np.linspace(0, 1, 2_000_001)
        mid = 0.5 * (grid[1:] + grid[:-1])
        inner = hurst * (mid**p + (1 - mid) ** p)
        ref = float(np.mean(inner * mid))
        assert quad == pytest.approx(ref, abs=5e-7)


class TestSymmetricContraction:
    def test_matches_dense_tensor_sum_n2(self):
        rng = np.random.default_rng(1)
        m = 40
        a = rng.uniform(0, 1, m)
        b = rng.uniform(0, 1, m)
        w = rng.uniform(0.1, 1, m)
        sym = _contract_gaussian(a, b, w, 2, 0.7, 1, 0.3)
        dense = dense_ordered_sum(a, b, w, 2, 0.7, 1, 0.3)
        assert sym == pytest.approx(dense, rel=1e-12)

    def test_matches_dense_tensor_sum_n3(self):
        rng = np.random.default_rng(2)
        m = 12
        a = rng.uniform(0, 1, m)
        b = rng.uniform(0, 1, m)
        w = rng.uniform(0.1, 1, m)
        sym = _contract_gaussian(a, b, w, 3, 1.3, 2, 0.5)
        dense = dense_ordered_sum(a, b, w, 3, 1.3, 2, 0.5)
        assert sym == pytest.approx(dense, rel=1e-12)

    def test_matches_dense_tensor_sum_n3_d3(self):
        # d = 3 takes the det^(-d/2) power branch, with a nonzero offset
        rng = np.random.default_rng(3)
        m = 12
        a = rng.uniform(0, 1, m)
        b = rng.uniform(0, 1, m)
        w = rng.uniform(0.1, 1, m)
        sym = _contract_gaussian(a, b, w, 3, 0.6, 3, 0.4)
        dense = dense_ordered_sum(a, b, w, 3, 0.6, 3, 0.4)
        assert sym == pytest.approx(dense, rel=1e-12)

    def test_order3_peak_memory_at_a6(self):
        # one order-3 contraction at the A6 query with q = 20: m = 800,
        # about 320k pairs, so each per-pair array of floats takes 2.6 MB
        u, v, w = eta_pair_rule(0.75, 0.5, 0.5, 20)
        assert w.size == 800
        tracemalloc.start()
        try:
            _contract_gaussian(0.5 - u, 0.5 - v, w, 3, 1.0, 1, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 22e6

    def test_order3_peak_memory_on_mirrored_rule(self):
        # the same contraction keeps rests of the rule's first 400 nodes
        # only: each per-rest array of floats takes 0.64 MB
        u, v, w = eta_pair_rule(0.75, 0.5, 0.5, 20)
        assert w.size == 800
        tracemalloc.start()
        try:
            _contract_gaussian(0.5 - u, 0.5 - v, w, 3, 1.0, 1, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_order2_peak_memory_on_series2_rung(self):
        # one order-2 contraction of an unequal-times rule at q = 32, with
        # two log-r cells past the kink r = 0.005: m = 4096, so a table of
        # all m^2 pairs would take more than 60 MB
        u, v, w = eta_pair_rule(0.75, 1.0, 0.995, 32)
        assert w.size == 4096
        tracemalloc.start()
        try:
            _contract_gaussian(1.0 - u, 0.995 - v, w, 2, 1.0, 1, 0.09)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gaussian_fast_path_matches_generic(self, n):
        t = s = 0.5
        u, v, w = eta_pair_rule(0.75, t, s, 24)
        # a thinned rule keeps the dense check cheap at n = 3
        u, v, w = u[::9], v[::9], w[::9]
        dense = dense_ordered_sum(t - u, s - v, w, n, 1.0, 1, 0.3)
        fast = _contract_gaussian(t - u, s - v, w, n, 1.0, 1, 0.3)
        assert fast == pytest.approx(dense, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("d, off2", [(1, 0.0), (1, 0.3), (2, 0.0), (2, 0.3)])
    def test_block_size_leaves_the_sum_unchanged(self, monkeypatch, n, d, off2):
        # Two thinned rules (t, s, q, every thin-th node): the mirrored t = s
        # rule, m = 64, whose rows i >= m/2 never reach a rest with k = i
        # at n = 3, and an unequal-times rule, m = 48, where every row
        # meets its own k = i tuples and they take their share of the
        # rest's weight.  Blocks of 7: the rests up to a row's own span
        # several blocks, and the share falls in the last.  Blocks of 100:
        # panels group rows wherever their rests are short, and zero the
        # tuples past a row's own rests.  Blocks of m^3: one panel holds
        # every row.
        for t, s, q, thin in ((0.5, 0.5, 16, 8), (1.0, 0.6, 6, 3)):
            u, v, w = eta_pair_rule(0.75, t, s, q)
            u, v, w = u[::thin], v[::thin], w[::thin]
            dense = dense_ordered_sum(t - u, s - v, w, n, 1.0, d, off2)
            for block in (7, 100, w.size**3):
                monkeypatch.setattr(chaos_oracle, "_BLOCK", block)
                blocked = _contract_gaussian(t - u, s - v, w, n, 1.0, d, off2)
                assert blocked == pytest.approx(dense, rel=1e-13), (t, s, block)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("off2", [0.0, 0.3])
    def test_node_order_leaves_the_sum_unchanged(self, n, off2):
        # the rule's nodes come in no particular order; shuffled, they give
        # other panels and other masked tuples, and the same sum
        u, v, w = eta_pair_rule(0.75, 0.5, 0.5, 16)
        u, v, w = u[::8], v[::8], w[::8]
        perm = np.random.default_rng(5).permutation(w.size)
        default = _contract_gaussian(0.5 - u, 0.5 - v, w, n, 1.0, 1, off2)
        shuffled = _contract_gaussian(0.5 - u[perm], 0.5 - v[perm], w[perm], n, 1.0, 1, off2)
        assert shuffled == pytest.approx(default, rel=1e-13)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("off2", [0.0, 0.3])
    def test_mirrored_sum_matches_full_sum(self, d, off2):
        # the whole rule at t = s is its own mirror image, and its sum runs
        # over half the triples; shuffled, it takes the full sum
        u, v, w = eta_pair_rule(0.75, 0.5, 0.5, 8)
        perm = np.random.default_rng(7).permutation(w.size)
        mirrored = _contract_gaussian(0.5 - u, 0.5 - v, w, 3, 1.0, d, off2)
        full = _contract_gaussian(0.5 - u[perm], 0.5 - v[perm], w[perm], 3, 1.0, d, off2)
        assert mirrored == pytest.approx(full, rel=1e-13)

    def test_mirrored_rule_takes_half_the_triples(self, monkeypatch):
        tuples = []
        original = chaos_oracle.det_qsum_3

        def counted(*args, **kwargs):
            tuples.append(max(np.size(x) for x in args))
            return original(*args, **kwargs)

        monkeypatch.setattr(chaos_oracle, "det_qsum_3", counted)

        def count(t, s, u, v, w):
            tuples.clear()
            _contract_gaussian(t - u, s - v, w, 3, 1.0, 1, 0.3)
            return sum(tuples)

        def full_count(t, s, u, v, w):
            # a shuffled copy of the rule takes the full sum
            perm = np.random.default_rng(11).permutation(w.size)
            return count(t, s, u[perm], v[perm], w[perm])

        u, v, w = eta_pair_rule(0.75, 0.5, 0.5, 12)
        triples = math.comb(w.size + 2, 3)
        assert full_count(0.5, 0.5, u, v, w) >= triples
        assert count(0.5, 0.5, u, v, w) <= 0.51 * triples
        # one weight one ulp off breaks the mirror, and so does t != s
        nudged = w.copy()
        nudged[-1] = np.nextafter(nudged[-1], 1.0)
        assert count(0.5, 0.5, u, v, nudged) == full_count(0.5, 0.5, u, v, w)
        u, v, w = eta_pair_rule(0.75, 0.5, 0.4, 8)
        assert w.size % 2 == 0
        assert count(0.5, 0.4, u, v, w) == full_count(0.5, 0.4, u, v, w)

    def test_order2_contracts_panels_not_single_rows(self, monkeypatch):
        # a per-row loop would make about m + 1 det_qsum_2 calls here
        u, v, w = eta_pair_rule(0.75, 1.0, 0.995, 32)
        assert w.size == 4096
        calls = []
        original = chaos_oracle.det_qsum_2

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(chaos_oracle, "det_qsum_2", counted)
        _contract_gaussian(1.0 - u, 0.995 - v, w, 2, 1.0, 1, 0.09)
        assert 0 < len(calls) < w.size / 4

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 3),
        nodes=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.1, 1.0)),
            min_size=1,
            max_size=10,
        ),
        h=st.floats(0.2, 2.0),
        d=st.integers(1, 2),
        off2=st.floats(0.0, 1.0),
    )
    def test_matches_dense_sum_on_random_rules(self, n, nodes, h, d, off2):
        # nodes are (elapsed t, elapsed s, weight) with weights drawn
        # uniformly from [0.1, 1]
        a, b, w = (np.array(col) for col in zip(*nodes))
        dense = dense_ordered_sum(a, b, w, n, h, d, off2)
        assert _contract_gaussian(a, b, w, n, h, d, off2) == pytest.approx(dense, rel=1e-12)


class TestSimplexRule:
    def test_orders_ascending(self):
        tj, _ = simplex_rule(3, 1.0, 6)
        assert np.all(np.diff(tj, axis=1) >= 0)

    def test_volume(self):
        for n in (1, 2, 3):
            _, w = simplex_rule(n, 0.5, 10)
            assert np.sum(w) == pytest.approx(0.5**n / math.factorial(n), rel=1e-13)

    def test_polynomial_moment(self):
        # int_{0<t1<t2<t} t1 t2 = t^4/8
        tj, w = simplex_rule(2, 1.0, 12)
        val = float(np.dot(w, tj[:, 0] * tj[:, 1]))
        assert val == pytest.approx(1.0 / 8.0, rel=1e-12)
