import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkmoments import (
    Constant,
    DomainError,
    GaussianBump,
    HeatKernel,
    PoissonKernel,
    QueryPoint,
    RieszKernel,
    TemporalKernel,
    ZeroKernel,
    heat_density,
    initial_field,
)
from fkmoments.kernels import _sq_norm

RNG = np.random.default_rng(12345)
NAN = float("nan")


def _sum_sq_norm(x):
    """The reference squared norm: numpy's own sum over the last axis."""
    x = np.asarray(x, dtype=float)
    return x * x if x.ndim == 0 else np.sum(x * x, axis=-1)


def _bump_field_expression(u0, t, x):
    """The reference bump field, written as the closed form reads."""
    t = np.asarray(t, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    w = u0.width
    center = np.asarray(u0.center)
    out = (
        u0.amplitude
        * (w / (w + t)) ** (0.5 * x.shape[-1])
        * np.exp(-_sum_sq_norm(x - center) / (2.0 * (w + t)))
    )
    return out if np.ndim(out) else float(out)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _spread(rng, shape, zero_share, inf_share):
    """Normals, a tenth of them scaled over many binades, with shares of
    signed zeros and infinities."""
    x = rng.standard_normal(shape)
    wide = rng.random(shape) < 0.1
    x[wide] *= np.exp(rng.uniform(-40.0, 40.0, int(wide.sum())))
    x[rng.random(shape) < zero_share] = -0.0
    x[rng.random(shape) < inf_share] = -math.inf
    return x


class TestTemporalKernel:
    def test_alpha_h(self):
        k = TemporalKernel(0.75)
        assert k.alpha_h == pytest.approx(0.375)

    def test_eta_simple_value(self):
        # alpha_H = 0.375 and |1-0|^(2H-2) = 1
        assert TemporalKernel(0.75).eta(1.0, 0.0) == pytest.approx(0.375)

    def test_eta_derived_value(self):
        # 0.12 * 0.5^(-0.8), frozen from an mpmath evaluation
        assert TemporalKernel(0.6).eta(1.0, 0.5) == pytest.approx(
            0.20893213519106979, rel=1e-13
        )

    def test_eta_singular_diagonal(self):
        with pytest.raises(DomainError):
            TemporalKernel(0.8).eta(0.3, 0.3)

    @pytest.mark.parametrize("hurst", [0.55, 0.75, 0.9])
    def test_eta_symmetry(self, hurst):
        k = TemporalKernel(hurst)
        t = RNG.uniform(0, 1, 50)
        s = RNG.uniform(0, 1, 50)
        assert np.allclose(k.eta(t, s), k.eta(s, t))

    def test_hurst_range_enforced(self):
        for bad in (0.5, 1.0, 0.3, 1.2):
            with pytest.raises(DomainError):
                TemporalKernel(bad)

    def test_mass_full_square(self):
        for hurst in (0.55, 0.75, 0.9):
            assert TemporalKernel(hurst).mass(1.0, 1.0) == pytest.approx(1.0)

    def test_mass_empty_domain(self):
        assert TemporalKernel(0.75).mass(1.0, 0.0) == 0.0

    def test_mass_half(self):
        # (1 + 0.5^(2H) - 0.5^(2H)) / 2 for any H
        assert TemporalKernel(0.75).mass(1.0, 0.5) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "s, exact", [(1e-13, 7.500001581138643e-14), (2.0**-53, 8.326672743179176e-17)]
    )
    def test_mass_keeps_precision_when_one_time_is_tiny(self, s, exact):
        # (1 + s^1.5 - (1 - s)^1.5) / 2 = 0.75 s + O(s^1.5); written as a
        # difference it cancels to 5.9e-5 relative at s = 1e-13 and to
        # 50% at s = 2^-53.  The exact values are from 40-digit arithmetic
        k = TemporalKernel(0.75)
        assert abs(k.mass(1.0, s) - exact) <= 1e-12 * exact
        assert k.mass(s, 1.0) == k.mass(1.0, s)

    def test_mass_off_diagonal_matches_the_difference_form(self):
        # away from s << t the difference form rounds only to a few ulp of
        # its largest term max(t, s)^(2H), and the two forms agree to that
        rng = np.random.default_rng(7)
        for hurst, t, ratio in zip(
            rng.uniform(0.5, 1.0, 2000), rng.uniform(0.0, 1.0, 2000), 10.0 ** rng.uniform(-2, 0, 2000)
        ):
            h2, s = 2.0 * hurst, t * ratio
            difference = 0.5 * (t**h2 + s**h2 - (t - s) ** h2)
            mass = TemporalKernel(hurst).mass(t, s)
            assert abs(mass - difference) <= 1e-15 * t**h2
            assert TemporalKernel(hurst).mass(t, t) == 0.5 * (t**h2 + t**h2 - 0.0**h2)

    @pytest.mark.parametrize("hurst", [0.55, 0.75, 0.9])
    @pytest.mark.parametrize("ts", [(1.0, 1.0), (1.0, 0.5), (0.3, 0.7)])
    def test_mass_matches_graded_quadrature(self, hurst, ts):
        from fkmoments.quadrature import eta_pair_rule

        t, s = ts
        closed = TemporalKernel(hurst).mass(t, s)
        quad = eta_pair_rule(hurst, t, s, 8)[2].sum()
        assert abs(closed - quad) < 1e-6


class TestSpatialKernels:
    def test_zero_kernel(self):
        f = ZeroKernel(dim=2)
        assert f.values((0.3, -0.4)) == 0.0

    def test_heat_kernel_at_origin(self):
        f = HeatKernel(dim=1, bandwidth=1.0)
        assert f.values((0.0,)) == pytest.approx(0.3989422804014327, rel=1e-14)

    def test_riesz_kernel_value(self):
        f = RieszKernel(dim=2, order=1.0)
        assert f.values((2.0, 0.0)) == pytest.approx(0.5)

    def test_riesz_singular_at_origin(self):
        f = RieszKernel(dim=1, order=0.5)
        assert f.values((0.0,)) == math.inf

    def test_riesz_order_validated(self):
        with pytest.raises(DomainError):
            RieszKernel(dim=1, order=1.5)

    def test_poisson_kernel_is_cauchy_in_1d(self):
        f = PoissonKernel(dim=1, scale=2.0)
        x = np.linspace(-3, 3, 7)[:, None]
        expected = 2.0 / (np.pi * (4.0 + x[:, 0] ** 2))
        assert np.allclose(f.values(x), expected)

    @pytest.mark.parametrize(
        "f",
        [
            HeatKernel(dim=2, bandwidth=0.7),
            RieszKernel(dim=2, order=1.3),
            PoissonKernel(dim=2, scale=0.5),
            ZeroKernel(dim=2),
        ],
    )
    def test_symmetry_and_nonnegativity(self, f):
        x = RNG.normal(size=(40, 2))
        vals = f.values(x)
        assert np.allclose(vals, f.values(-x))
        assert np.all(vals >= 0)

    def test_heat_kernel_bounded_by_origin_value(self):
        f = HeatKernel(dim=2, bandwidth=0.8)
        x = RNG.normal(size=(100, 2))
        assert np.all(f.values(x) <= f.values((0.0, 0.0)))


class TestHeatDensity:
    def test_values(self):
        assert heat_density(1.0, 0.0) == pytest.approx(0.3989422804014327, rel=1e-14)
        assert heat_density(2.0, 0.0) == pytest.approx(0.28209479177387814, rel=1e-14)

    def test_symmetry(self):
        x = RNG.normal(size=(30, 3))
        assert np.allclose(heat_density(0.7, x), heat_density(0.7, -x))

    def test_requires_positive_time(self):
        with pytest.raises(DomainError):
            heat_density(0.0, 0.5)

    def test_normalization_1d(self):
        t = 0.37
        lim = 10 * math.sqrt(t)
        x = np.linspace(-lim, lim, 20001)
        integral = np.trapezoid(heat_density(t, x[:, None]), x)
        assert abs(integral - 1.0) < 1e-8

    def test_semigroup_property_1d(self):
        # int p_t(x - z) p_s(z) dz = p_{t+s}(x)
        t, s = 0.4, 0.9
        z = np.linspace(-12.0, 12.0, 40001)
        for x in (0.0, 0.7, -1.3):
            conv = np.trapezoid(
                heat_density(t, (x - z)[:, None]) * heat_density(s, z[:, None]), z
            )
            assert abs(conv - heat_density(t + s, x)) < 1e-6


class TestInitialField:
    def test_constant(self):
        u0 = Constant(2.5)
        assert initial_field(u0, 0.0, (1.0,)) == 2.5
        assert initial_field(u0, 0.9, (-3.0,)) == 2.5

    def test_bump_at_time_zero_recovers_u0(self):
        u0 = GaussianBump(amplitude=1.0, center=(0.0,), width=1.0)
        assert initial_field(u0, 0.0, (0.0,)) == pytest.approx(1.0)

    def test_bump_closed_form_value(self):
        u0 = GaussianBump(amplitude=1.0, center=(0.0,), width=1.0)
        assert initial_field(u0, 1.0, (0.0,)) == pytest.approx(
            0.7071067811865476, rel=1e-14
        )

    def test_bump_matches_convolution_quadrature(self):
        u0 = GaussianBump(amplitude=1.3, center=(0.4,), width=0.8)
        t = 0.6
        y = np.linspace(-14.0, 14.0, 40001)
        bump_vals = u0.amplitude * np.exp(-((y - 0.4) ** 2) / (2 * 0.8))
        for x in (0.0, 0.4, -1.1):
            conv = np.trapezoid(heat_density(t, (x - y)[:, None]) * bump_vals, y)
            assert abs(conv - initial_field(u0, t, (x,))) < 1e-6

    def test_bump_rejects_negative_time(self):
        u0 = GaussianBump()
        with pytest.raises(DomainError):
            initial_field(u0, -0.1, (0.0,))


class TestColumnwiseBitwise:
    """The column-by-column kernels against numpy's whole-axis forms."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        lead=st.sampled_from([(), (1,), (7,), (300,), (40, 3)]),
        d=st.integers(1, 8),
        zero_share=st.sampled_from([0.0, 0.3]),
        inf_share=st.sampled_from([0.0, 0.05]),
        fortran=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sq_norm_matches_numpy_sum(self, lead, d, zero_share, inf_share, fortran, seed):
        x = _spread(np.random.default_rng(seed), lead + (d,), zero_share, inf_share)
        if fortran:
            x = np.asfortranarray(x)
        assert np.array_equal(_bits(_sq_norm(x)), _bits(_sum_sq_norm(x)))

    @pytest.mark.parametrize("value", [0.0, -0.0, 1.5, -3e-170, 2e150, -math.inf])
    def test_sq_norm_of_a_scalar(self, value):
        assert _bits(_sq_norm(value)) == _bits(_sum_sq_norm(value))
        assert _bits(_sq_norm(np.array(value))) == _bits(_sum_sq_norm(value))

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        d=st.integers(1, 3),
        n=st.integers(1, 300),
        t_kind=st.sampled_from(["scalar", "array", "zero"]),
        one_point=st.booleans(),
        fortran=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bump_field_matches_expression(self, d, n, t_kind, one_point, fortran, seed):
        rng = np.random.default_rng(seed)
        u0 = GaussianBump(
            amplitude=float(rng.uniform(-2.0, 2.0)),
            center=tuple(rng.normal(size=d)),
            width=float(rng.uniform(0.05, 3.0)),
        )
        x = rng.normal(scale=3.0, size=(d,) if one_point else (n, d))
        if fortran:
            x = np.asfortranarray(x)
        t = {"scalar": float(rng.uniform(0.0, 2.0)), "zero": 0.0}.get(t_kind)
        if t is None:
            t = rng.uniform(0.0, 2.0, size=n)
            t[rng.random(n) < 0.2] = 0.0
        got, ref = u0.field(t, x), _bump_field_expression(u0, t, x)
        assert np.shape(got) == np.shape(ref) and type(got) is type(ref)
        assert np.array_equal(_bits(got), _bits(ref))


# NaN passes a check written as "x <= 0 is an error", so each field is
# checked for finiteness; the message names the field, which the config
# layer maps to its key
@pytest.mark.parametrize(
    "field, build",
    [
        pytest.param("bandwidth", lambda: HeatKernel(dim=1, bandwidth=NAN), id="heat-nan"),
        pytest.param("bandwidth", lambda: HeatKernel(dim=1, bandwidth=math.inf), id="heat-inf"),
        pytest.param("scale", lambda: PoissonKernel(dim=1, scale=NAN), id="poisson-nan"),
        pytest.param("width", lambda: GaussianBump(width=NAN), id="bump-width-nan"),
        pytest.param("amplitude", lambda: GaussianBump(amplitude=NAN), id="bump-amplitude-nan"),
        pytest.param("center", lambda: GaussianBump(center=(0.0, NAN)), id="bump-center-nan"),
        pytest.param("value", lambda: Constant(NAN), id="constant-nan"),
        pytest.param("value", lambda: Constant(-math.inf), id="constant-inf"),
        pytest.param(
            "x", lambda: QueryPoint(t=0.5, s=0.5, x=(NAN,), y=(0.0,)), id="query-x-nan"
        ),
        pytest.param(
            "y", lambda: QueryPoint(t=0.5, s=0.5, x=(0.0, 0.0), y=(0.0, math.inf)), id="query-y-inf"
        ),
    ],
)
def test_non_finite_parameters_rejected_at_construction(field, build):
    with pytest.raises(DomainError, match=rf"\b{field} must be"):
        build()
