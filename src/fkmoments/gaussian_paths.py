"""Brownian path values and the Gaussian linear algebra behind the oracle.

A d-dimensional Brownian path is only ever needed at finitely many times,
so paths are sampled exactly: sort the times, draw independent Gaussian
increments with variance equal to each gap, cumulatively sum, and restore
the original order.

For two independent paths B1 (from x) and B2 (from y) evaluated at times
(t_j) and (s_j), the differences B1_{t_j} - B2_{s_j} form a Gaussian
vector with mean x - y and per-coordinate covariance

    Sigma_{jk} = min(t_j, t_k) + min(s_j, s_k),

and the expectation of a product of heat kernels of those differences has
the closed form implemented by :func:`gaussian_product_expectation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError

__all__ = [
    "PathValues",
    "DifferenceCovariance",
    "sample_brownian_at",
    "difference_covariance",
    "gaussian_product_expectation",
    "gaussian_product_expectation_batch",
]

# Relative diagonal jitter applied before factorization; repeated times make
# Sigma singular and the closed form is continuous in Sigma, so this
# perturbs results far below test tolerances.
_JITTER = 1e-12


@dataclass(frozen=True)
class PathValues:
    """Values of one d-dimensional Brownian path at a finite set of times.

    ``times`` keeps the caller's order; ``values`` has shape (n, d) aligned
    with it.  A queried time 0 returns the start point exactly.
    """

    start: np.ndarray
    times: np.ndarray
    values: np.ndarray


def sample_brownian_at(
    times, start, dim: int, rng: np.random.Generator
) -> PathValues:
    """Sample a standard d-dimensional Brownian path at the given times.

    Times may be in arbitrary order (duplicates allowed); all must be
    nonnegative.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise DomainError("times must be a one-dimensional sequence")
    if np.any(times < 0.0):
        raise DomainError("Brownian evaluation times must be nonnegative")
    start_arr = np.atleast_1d(np.asarray(start, dtype=float))
    if start_arr.shape != (dim,):
        start_arr = np.broadcast_to(start_arr, (dim,)).copy()
    n = times.size
    order = np.argsort(times, kind="stable")
    sorted_times = times[order]
    gaps = np.diff(sorted_times, prepend=0.0)
    incr = np.sqrt(gaps)[:, None] * rng.standard_normal((n, dim))
    walk = np.cumsum(incr, axis=0)
    values = np.empty((n, dim))
    values[order] = start_arr[None, :] + walk
    # exact start at time zero, untouched by roundoff
    values[times == 0.0] = start_arr
    return PathValues(start=start_arr, times=times, values=values)


def brownian_batch_nd(
    times: np.ndarray, dim: int, rng: np.random.Generator
) -> np.ndarray:
    """Zero-start Brownian values at per-row time vectors.

    ``times`` has shape (m, k); rows are independent paths evaluated at
    their own k times (any order).  Returns shape (m, k, dim).
    """
    m, k = times.shape
    order = np.argsort(times, axis=1, kind="stable")
    sorted_times = np.take_along_axis(times, order, axis=1)
    gaps = np.diff(sorted_times, axis=1, prepend=0.0)
    incr = np.sqrt(gaps)[:, :, None] * rng.standard_normal((m, k, dim))
    walk = np.cumsum(incr, axis=1)
    out = np.empty_like(walk)
    np.put_along_axis(out, order[:, :, None], walk, axis=1)
    return out


@dataclass(frozen=True)
class DifferenceCovariance:
    """Per-coordinate covariance of (B1_{t_j} - B2_{s_j})_j.

    ``matrix`` is ordered like the input time lists; the time lists are
    carried along so that downstream consumers can canonicalize ordering
    (the closed-form expectation is permutation invariant and is made
    bitwise so by sorting).
    """

    size: int
    matrix: np.ndarray
    t_times: np.ndarray
    s_times: np.ndarray


def difference_covariance(t_times, s_times) -> DifferenceCovariance:
    """Sigma_{jk} = min(t_j, t_k) + min(s_j, s_k) for equal-length lists."""
    t_times = np.asarray(t_times, dtype=float)
    s_times = np.asarray(s_times, dtype=float)
    if t_times.shape != s_times.shape or t_times.ndim != 1 or t_times.size < 1:
        raise DomainError("time lists must be one-dimensional, equal length, nonempty")
    sig = np.minimum(t_times[:, None], t_times[None, :]) + np.minimum(
        s_times[:, None], s_times[None, :]
    )
    return DifferenceCovariance(
        size=t_times.size, matrix=sig, t_times=t_times, s_times=s_times
    )


def gaussian_product_expectation(
    sigma: DifferenceCovariance, h: float, dim: int, offset
) -> float:
    """E[prod_j p_h(offset + Z_j)] for a centered Gaussian vector Z.

    Z has independent coordinates, each with covariance ``sigma.matrix``.
    The value is

        (2 pi h)^(-n d / 2) det(I + Sigma/h)^(-d/2)
            exp(-|offset|^2 ones' (h I + Sigma)^{-1} ones / 2),

    computed from one Cholesky factorization of I + Sigma/h.  For n = 1
    this reduces to the heat density p_{h+sigma}(offset), which serves as
    its independent cross-check.
    """
    if h <= 0:
        raise DomainError(f"bandwidth must be positive, got {h}")
    n = sigma.size
    # canonical simultaneous ordering of the time pairs makes the result
    # bitwise invariant under input permutations
    order = np.lexsort((sigma.s_times, sigma.t_times))
    sig = sigma.matrix[np.ix_(order, order)]
    jitter = _JITTER * np.trace(sig) / n
    m = np.eye(n) + (sig + jitter * np.eye(n)) / h
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"covariance factorization failed: {exc}") from exc
    half = np.linalg.solve(chol, np.ones(n))
    quad_form = float(half @ half) / h
    det = float(np.prod(np.diag(chol)) ** 2)
    off2 = float(np.sum(np.square(np.asarray(offset, dtype=float))))
    return (
        (2.0 * math.pi * h) ** (-0.5 * n * dim)
        * det ** (-0.5 * dim)
        * math.exp(-0.5 * off2 * quad_form)
    )


def det_qsum_2(a, b, c):
    """det and ones' M^{-1} ones for symmetric [[a, b], [b, c]]."""
    det = a * c - b * b
    return det, (a + c - 2.0 * b) / det


def det_qsum_3(a, b, c, d, e, f, out=None):
    """det and ones' M^{-1} ones for symmetric [[a,b,c],[b,d,e],[c,e,f]].

    ``out``, if given, is a pair of arrays that receive (det, qsum); when
    its second entry is None, qsum is neither computed nor returned (None
    in its place) and det is bitwise the same.  The cofactors are updated
    in place; c01 = c e - b f and c12 = b c - a e are the exact negations
    of b f - c e and a e - b c, so every result rounds as in the plain
    expression tree.
    """
    det, qsum = (None, None) if out is None else out
    c00 = d * f
    c00 -= e * e
    c01 = c * e
    c01 -= b * f
    c02 = b * e
    c02 -= c * d
    det = np.multiply(a, c00, out=det)
    det += b * c01
    det += c * c02
    if out is not None and qsum is None:
        return det, None
    c11 = a * f
    c11 -= c * c
    c22 = a * d
    c22 -= b * b
    c12 = b * c
    c12 -= a * e
    c01 += c02
    c01 += c12
    c01 *= 2.0
    c00 += c11
    c00 += c22
    c00 += c01
    qsum = np.divide(c00, det, out=qsum)
    return det, qsum


def gaussian_product_expectation_batch(
    t_mat: np.ndarray, s_mat: np.ndarray, h: float, dim: int, off_sq: float
) -> np.ndarray:
    """Vectorized closed form over a batch of time-pair tuples.

    ``t_mat`` and ``s_mat`` have shape (m, n); returns shape (m,).  Uses
    cofactor formulas for n <= 3 and batched linear algebra beyond.  The
    same diagonal jitter policy as the scalar route applies.
    """
    m_count, n = t_mat.shape
    diag = t_mat + s_mat
    jit = _JITTER * np.sum(diag, axis=1) / n
    if n == 1:
        det = 1.0 + (diag[:, 0] + jit) / h
        qsum = 1.0 / det
    elif n == 2:
        a = 1.0 + (diag[:, 0] + jit) / h
        c = 1.0 + (diag[:, 1] + jit) / h
        b = (
            np.minimum(t_mat[:, 0], t_mat[:, 1]) + np.minimum(s_mat[:, 0], s_mat[:, 1])
        ) / h
        det, qsum = det_qsum_2(a, b, c)
    elif n == 3:
        a = 1.0 + (diag[:, 0] + jit) / h
        d = 1.0 + (diag[:, 1] + jit) / h
        f = 1.0 + (diag[:, 2] + jit) / h
        b = (
            np.minimum(t_mat[:, 0], t_mat[:, 1]) + np.minimum(s_mat[:, 0], s_mat[:, 1])
        ) / h
        c = (
            np.minimum(t_mat[:, 0], t_mat[:, 2]) + np.minimum(s_mat[:, 0], s_mat[:, 2])
        ) / h
        e = (
            np.minimum(t_mat[:, 1], t_mat[:, 2]) + np.minimum(s_mat[:, 1], s_mat[:, 2])
        ) / h
        det, qsum = det_qsum_3(a, b, c, d, e, f)
    else:
        sig = np.minimum(t_mat[:, :, None], t_mat[:, None, :]) + np.minimum(
            s_mat[:, :, None], s_mat[:, None, :]
        )
        mm = sig / h
        idx = np.arange(n)
        mm[:, idx, idx] += 1.0 + jit[:, None] / h
        det = np.linalg.det(mm)
        sol = np.linalg.solve(mm, np.ones((m_count, n, 1)))[..., 0]
        qsum = np.sum(sol, axis=1)
    quad_form = qsum / h
    return (
        (2.0 * math.pi * h) ** (-0.5 * n * dim)
        * det ** (-0.5 * dim)
        * np.exp(-0.5 * off_sq * quad_form)
    )
