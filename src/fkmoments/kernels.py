"""Deterministic kernel and field evaluations.

Covers the temporal covariance kernel eta(t, s) = alpha_H |t-s|^(2H-2) of
fractional Brownian motion, a small catalog of pointwise-evaluable spatial
covariance kernels f, the Gaussian heat density p_t, and the noiseless
field w(t, x) obtained by running the heat semigroup on the initial
condition.

All objects are immutable and all operations are pure functions, so they
are safe to evaluate concurrently.  Array arguments follow one convention:
the last axis of a point argument is the spatial dimension, and leading
axes are broadcast batch axes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "TemporalKernel",
    "SpatialKernel",
    "HeatKernel",
    "RieszKernel",
    "PoissonKernel",
    "ZeroKernel",
    "Constant",
    "GaussianBump",
    "heat_density",
    "initial_field",
]


def _sq_norm(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm over the last (spatial) axis.

    Below 8 coordinates the squares are summed column by column, in the
    order ((x_0^2 + x_1^2) + x_2^2) + ... that numpy's sum also takes there
    (from 8 on it sums pairwise), so each call loops over the batch."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return x * x
    if not 0 < x.shape[-1] < 8:
        return np.sum(x * x, axis=-1)
    out = x[..., 0] * x[..., 0]
    for j in range(1, x.shape[-1]):
        out += x[..., j] * x[..., j]
    return out


# ---------------------------------------------------------------------------
# temporal kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TemporalKernel:
    """Fractional covariance kernel eta(t, s) = alpha_H |t-s|^(2H-2).

    The Hurst parameter must satisfy 1/2 < H < 1 (long-range dependence
    regime), which makes alpha_H = H(2H-1) positive and the singularity on
    the diagonal t = s integrable.
    """

    hurst: float

    def __post_init__(self):
        if not 0.5 < self.hurst < 1.0:
            raise DomainError(
                f"hurst must lie in the open interval (1/2, 1), got {self.hurst}"
            )

    @property
    def alpha_h(self) -> float:
        return self.hurst * (2.0 * self.hurst - 1.0)

    def eta(self, t, s):
        """Evaluate eta(t, s) = alpha_H |t-s|^(2H-2), elementwise.

        Raises DomainError if any t == s: the kernel diverges there and the
        caller is expected to avoid or reweight the singular set.
        """
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        gap = np.abs(t - s)
        if np.any(gap == 0.0):
            raise DomainError("eta(t, s) is singular on the diagonal t = s")
        out = self.alpha_h * gap ** (2.0 * self.hurst - 2.0)
        return out if out.ndim else float(out)

    def mass(self, t: float, s: float) -> float:
        """Integral of eta over [0, t] x [0, s], in closed form.

        Equals the fractional Brownian covariance
        (t^(2H) + s^(2H) - |t-s|^(2H)) / 2, which is t^(2H) at t = s.  For
        t > s it is evaluated as (s^(2H) - t^(2H) expm1(2H log1p(-s/t))) / 2,
        which keeps full relative precision when s << t, where the
        difference cancels.
        """
        h2 = 2.0 * self.hurst
        if t == s:
            return t**h2
        t, s = max(t, s), min(t, s)
        return 0.5 * (s**h2 - t**h2 * math.expm1(h2 * math.log1p(-s / t)))


# ---------------------------------------------------------------------------
# spatial kernels
# ---------------------------------------------------------------------------


def _require_positive(name: str, value: float) -> None:
    # NaN fails the comparison, so it is rejected too
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class SpatialKernel:
    """Base for pointwise-evaluable spatial covariance kernels.

    Subclasses implement ``values(x)`` for batches of points (last axis =
    dim); every kernel is symmetric, nonnegative, and translation-free in
    the sense that it is evaluated at displacement vectors.
    """

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError(f"dim must be a positive integer, got {self.dim}")

    def values(self, x) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class HeatKernel(SpatialKernel):
    """f(x) = p_h(x), the Gaussian heat density with bandwidth h > 0."""

    bandwidth: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        _require_positive("bandwidth", self.bandwidth)

    def values(self, x):
        return heat_density(self.bandwidth, x)


@dataclass(frozen=True)
class RieszKernel(SpatialKernel):
    """f(x) = |x|^(alpha - d) with 0 < alpha < d; infinite at the origin.

    Unnormalized by convention: no multiplicative constant is applied, so
    the Monte Carlo estimators and the quadrature oracle share the same
    scale.  Evaluation at x = 0 returns +inf as the singular-value signal;
    the estimators treat such replicates as redraws.
    """

    order: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.order < self.dim:
            raise DomainError(
                f"Riesz order must satisfy 0 < order < dim, got order={self.order} dim={self.dim}"
            )

    def values(self, x):
        r2 = _sq_norm(x)
        with np.errstate(divide="ignore"):
            out = np.where(r2 > 0.0, r2 ** (0.5 * (self.order - self.dim)), np.inf)
        return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class PoissonKernel(SpatialKernel):
    """f(x) = c_d a / (a^2 + |x|^2)^((d+1)/2), the half-space Poisson kernel.

    c_d = Gamma((d+1)/2) / pi^((d+1)/2) makes f a probability density.
    """

    scale: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        _require_positive("scale", self.scale)

    @property
    def _const(self) -> float:
        return math.gamma(0.5 * (self.dim + 1)) / math.pi ** (0.5 * (self.dim + 1))

    def values(self, x):
        r2 = _sq_norm(x)
        a = self.scale
        out = self._const * a / (a * a + r2) ** (0.5 * (self.dim + 1))
        return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class ZeroKernel(SpatialKernel):
    """Identically-zero kernel; kills every chaos order n >= 1."""

    def values(self, x):
        r2 = _sq_norm(x)
        out = np.zeros_like(np.asarray(r2, dtype=float))
        return out if np.ndim(out) else 0.0


def require_kernel_dim(f, dim: int) -> None:
    """DomainError unless the kernel ``f`` acts on points of dimension
    ``dim``; every route checks this before any shortcut."""
    if f.dim != dim:
        raise DomainError(f"kernel dimension {f.dim} != query dimension {dim}")


def require_integer(name: str, value) -> None:
    """DomainError naming ``name`` unless ``value`` is an integer; numpy
    integers pass, bools and integral floats such as 2.0 do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")


# Existence of the underlying solution is only guaranteed on part of the
# (kernel, d, H) parameter space; outside it the representation formula is
# still evaluated as stated, after a warning.
def existence_regime_warning(f: SpatialKernel) -> str | None:
    """The warning for a kernel outside that regime, or None inside it."""
    if isinstance(f, RieszKernel) and f.dim > 2 + f.order:
        return (
            f"Riesz kernel with dim={f.dim} > 2 + order={f.order}: outside the "
            "surveyed existence regime; computing the representation anyway"
        )
    return None


# ---------------------------------------------------------------------------
# heat density and initial field
# ---------------------------------------------------------------------------


def heat_density(t, x):
    """Gaussian heat density p_t(x) = (2 pi t)^(-d/2) exp(-|x|^2 / (2t)).

    ``x`` carries the dimension on its last axis (a scalar is a point in
    d = 1); ``t`` broadcasts against the batch axes and must be positive.
    """
    x = np.asarray(x, dtype=float)
    d = 1 if x.ndim == 0 else x.shape[-1]
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("heat_density requires t > 0")
    out = (2.0 * math.pi * t) ** (-0.5 * d) * np.exp(-_sq_norm(x) / (2.0 * t))
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class Constant:
    """Constant initial condition u_0(x) = c."""

    value: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError(f"value must be finite, got {self.value}")

    def field(self, t, x):
        """w(t, x) for constant data is the constant itself."""
        shape = np.broadcast_shapes(np.shape(t), np.shape(x)[:-1] if np.ndim(x) else ())
        if shape == ():
            return self.value
        return np.full(shape, self.value)


@dataclass(frozen=True)
class GaussianBump:
    """u_0(x) = amplitude * exp(-|x - center|^2 / (2 width)).

    Bounded and continuous; the heat evolution has the closed form
    w(t, x) = amplitude (width / (width + t))^(d/2)
              exp(-|x - center|^2 / (2 (width + t))).
    """

    amplitude: float = 1.0
    center: tuple = (0.0,)
    width: float = 1.0
    _center_arr: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        _require_positive("width", self.width)
        if not math.isfinite(self.amplitude):
            raise DomainError(f"amplitude must be finite, got {self.amplitude}")
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        if not np.all(np.isfinite(c)):
            raise DomainError(f"center must be finite, got {self.center}")
        object.__setattr__(self, "center", tuple(float(v) for v in c))
        object.__setattr__(self, "_center_arr", c)

    def field(self, t, x):
        """Heat semigroup applied to the bump, valid for all t >= 0."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise DomainError("initial field requires t >= 0")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        d = x.shape[-1]
        if d != self._center_arr.shape[0]:
            raise DomainError(
                f"point dimension {d} does not match bump center dimension "
                f"{self._center_arr.shape[0]}"
            )
        # amplitude (w / (w + t))^(d/2) exp(-r2 / (2 (w + t))), mostly in
        # place; -r2 / c as r2 / -c and the factors' order keep the bits
        wt = self.width + t
        scale = self.width / wt
        scale **= 0.5 * d
        scale *= self.amplitude
        r2 = _sq_norm(x - self._center_arr)
        out = np.divide(r2, -2.0 * wt, out=np.empty(np.broadcast_shapes(r2.shape, wt.shape)))
        np.exp(out, out=out)
        out *= scale
        return out if out.ndim else float(out)


def initial_field(u0, t, x):
    """w(t, x): the noiseless heat evolution of the initial condition."""
    return u0.field(t, x)
