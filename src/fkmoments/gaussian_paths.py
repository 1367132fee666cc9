"""Brownian path values and the Gaussian linear algebra behind the oracle.

A d-dimensional Brownian path is only ever needed at finitely many times,
so :func:`brownian_batch_nd` samples a batch of paths exactly: take each
row's times in increasing order, draw independent Gaussian increments with
variance equal to each gap, cumulatively sum, and restore the original
order.  No route sorts: rows of three or more times place and gather by
stable ranks from column comparisons, and shorter rows need no ranks.
Each step loops over rows, one column or coordinate at a time, and gives
the bits of a stable argsort, cumsum and scatter.

For two independent paths B1 (from x) and B2 (from y) evaluated at times
(t_j) and (s_j), the differences B1_{t_j} - B2_{s_j} form a Gaussian
vector with mean x - y and per-coordinate covariance

    Sigma_{jk} = min(t_j, t_k) + min(s_j, s_k),

and the expectation of a product of heat kernels of those differences has
the closed form implemented by :func:`gaussian_product_expectation_batch`
through one batched elimination I + Sigma/h = L D L'.  Sigma is a
covariance, so I + Sigma/h >= I and every pivot D_k is at least 1: no
pivoting or diagonal jitter is needed, even when times repeat and Sigma
is singular.  The oracle's contraction sums the closed form over a pair
rule's tuples with its per-rest kernels :func:`det_qsum_2` and
:func:`det_qsum_3`; both finish it by :func:`closed_form_factors`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["brownian_batch_nd", "gaussian_product_expectation_batch"]


def brownian_batch_nd(
    times: np.ndarray, dim: int, rng: np.random.Generator
) -> np.ndarray:
    """Zero-start Brownian values at per-row time vectors.

    ``times`` has shape (m, k); rows are independent paths evaluated at
    their own k times (any order).  Returns shape (m, k, dim), for k >= 3
    as a transposed view; a time 0 gives exactly 0.  k = 1: the time is its
    own gap; k = 2: a min/max pair and a masked swap back; k >= 3: the
    rank route of :func:`_rank_walk`.  Every route draws
    ``standard_normal((m, k, dim))`` and rounds exactly as a sort, a
    cumulative sum and a scatter would, so the output is bit for bit
    theirs.
    """
    m, k = times.shape
    if k == 1:
        walk = rng.standard_normal((m, 1, dim))
        scale = np.sqrt(times[:, 0])
        for c in range(dim):
            walk[:, 0, c] *= scale
        return walk
    if k == 2:
        return _two_times(times, dim, rng)
    return _rank_walk(times, dim, rng)


def _two_times(times: np.ndarray, dim: int, rng: np.random.Generator) -> np.ndarray:
    """The sorted walk for k = 2.  A stable sort swaps a row only when its
    second time is strictly earlier, so ties keep their order."""
    m = len(times)
    swap = times[:, 1] < times[:, 0]
    first = np.minimum(times[:, 0], times[:, 1])
    second = np.maximum(times[:, 0], times[:, 1])
    second -= first
    np.sqrt(first, out=first)
    np.sqrt(second, out=second)
    walk = rng.standard_normal((m, 2, dim))
    for c in range(dim):
        lo, hi = walk[:, 0, c], walk[:, 1, c]
        lo *= first
        hi *= second
        hi += lo
        lo[:], hi[:] = np.where(swap, hi, lo), np.where(swap, lo, hi)
    return walk


def _rank_walk(times: np.ndarray, dim: int, rng: np.random.Generator) -> np.ndarray:
    """The sorted walk for k >= 3, without a sort.  A column's stable rank
    counts the earlier times and the equal times in earlier columns.  The
    times are placed by rank, the normals are scaled by the square roots
    of the gaps and summed in sorted order, and each column gathers its
    values back by rank.  The walk is coordinate-major, so every step
    loops over rows, and it is returned as a transposed view."""
    m, k = times.shape
    rank = np.zeros((k, m), dtype=np.intp)
    for j in range(k):
        for i in range(j):
            before = times[:, i] <= times[:, j]
            rank[j] += before
            rank[i] += ~before
    # flat index of each time in a (k, m) layout sorted within rows
    rank *= m
    rank += np.arange(m)
    gaps = np.empty((k, m))
    gaps.reshape(-1)[rank] = times.T
    for p in range(k - 1, 0, -1):
        gaps[p] -= gaps[p - 1]
    np.sqrt(gaps, out=gaps)
    walk = np.multiply(rng.standard_normal((m, k, dim)).T, gaps, out=np.empty((dim, k, m)))
    for p in range(1, k):
        walk[:, p] += walk[:, p - 1]
    return np.take(walk.reshape(dim, -1), rank, axis=1).T


def det_qsum_2(a, b, c, *, out):
    """det and ones' M^{-1} ones for symmetric M = [[a, b], [b, c]], written
    into ``out`` as in :func:`det_qsum_3`: the order-2 contraction's kernel,
    with c the rest's diagonal entry."""
    det, qsum = out
    tmp = b * b
    np.multiply(a, c, out=det)
    det -= tmp
    if qsum is None:
        return
    # numerator: a + c - 2 b
    np.add(b, b, out=tmp)
    np.add(a, c, out=qsum)
    qsum -= tmp
    qsum /= det


def block_det(e, p, q):
    """c00 = d f - e^2 of the block [[d, e], [e, f]], as p q + e (p + q).

    p = f - e and q = d - e.  For a block of I + Sigma/h, e >= 0 and
    p, q >= 1 (Sigma_jk <= Sigma_kk), so the sum has no cancellation.
    The result is built in place, with one temporary the size of ``e``.
    """
    c00 = p + q
    c00 *= e
    c00 += p * q
    return c00


def det_qsum_3(a, b, c, e, p, q, c00, *, out):
    """det and ones' M^{-1} ones for symmetric M = [[a,b,c],[b,d,e],[c,e,f]].

    The order-3 contraction's kernel.  M is passed through its first row
    (a, b, c), which varies with the tuple, and through the rest's data:
    its entry e, p = f - e, q = d - e and c00 = d f - e^2 (see
    :func:`block_det`), computed once per rest.  Then

        det  = a c00 - e (b - c)^2 - b^2 p - c^2 q,
        qsum = (c00 + a (p + q) - 2 b p - 2 c q - (b - c)^2) / det.

    For M = I + Sigma/h, with Sigma a covariance, det >= 1 and p, q >= 1,
    so neither a pivot nor a diagonal jitter is needed.

    ``out`` is a pair of arrays of the broadcast shape of the arguments,
    which receive (det, qsum).  When its second entry is None, qsum is not
    computed and det is bitwise the same.
    """
    det, qsum = out
    diff2 = b - c
    diff2 *= diff2
    bp = b * p
    cq = c * q
    np.multiply(a, c00, out=det)
    tmp = e * diff2
    det -= tmp
    np.multiply(b, bp, out=tmp)
    det -= tmp
    np.multiply(c, cq, out=tmp)
    det -= tmp
    if qsum is None:
        return
    # numerator: c00 + a (p + q) - 2 (b p + c q) - (b - c)^2
    bp += cq
    bp *= 2.0
    np.add(p, q, out=cq)
    cq *= a
    cq += c00
    cq -= bp
    cq -= diff2
    np.divide(cq, det, out=qsum)


def closed_form_factors(det, qsum, h: float, dim: int, off_sq: float, weights):
    """The factors weights det^(-dim/2) and exp(-off_sq qsum / (2 h)) of each
    closed-form term, written into ``det`` and ``qsum`` and returned.  At
    off_sq = 0 the exponential is exactly 1: ``qsum`` is not read (it may be
    None) and None is returned in its place."""
    # sqrt and a division beat the power
    if dim == 1:
        np.sqrt(det, out=det)
        np.divide(weights, det, out=det)
    else:
        np.power(det, -0.5 * dim, out=det)
        det *= weights
    if off_sq == 0.0:
        return det, None
    qsum *= -0.5 * off_sq / h
    return det, np.exp(qsum, out=qsum)


def gaussian_product_expectation_batch(
    t_mat: np.ndarray, s_mat: np.ndarray, h: float, dim: int, off_sq: float
) -> np.ndarray:
    """E[prod_j p_h(offset + Z_j)] over a batch of time-pair tuples.

    ``t_mat`` and ``s_mat`` have shape (m, n); row r describes a centred
    Gaussian vector Z with independent coordinates, each with covariance
    Sigma_{jk} = min(t_j, t_k) + min(s_j, s_k) from that row.  Returns
    shape (m,), the values

        (2 pi h)^(-n d / 2) det(I + Sigma/h)^(-d/2)
            exp(-|offset|^2 ones' (h I + Sigma)^{-1} ones / 2)

    with ``off_sq`` = |offset|^2, finished by :func:`closed_form_factors`.
    For n = 1 this is the heat density p_{h+Sigma}(offset).

    M = I + Sigma/h is eliminated column by column, M = L D L', on one
    batch vector per lower-triangle entry: det M = prod_k D_k, and
    ones' M^{-1} ones = sum_k y_k^2 / D_k with L y = ones.  Each pivot D_k
    is a diagonal entry of a Schur complement of M >= I, so D_k >= 1.
    """
    t_mat = np.asarray(t_mat, dtype=float)
    s_mat = np.asarray(s_mat, dtype=float)
    if t_mat.ndim != 2 or t_mat.shape != s_mat.shape or t_mat.shape[1] < 1:
        raise DomainError(
            "time matrices must be two-dimensional, of equal shape, with n >= 1 columns"
        )
    n = t_mat.shape[1]
    one = 1.0 + (t_mat + s_mat) / h
    # low[i][k] = M_ik for k <= i.  Eliminating column k leaves in rows and
    # columns > k the Schur complement of M's leading k + 1 block, so each
    # low[k][k] ends as the pivot D_k
    low = [
        [
            (np.minimum(t_mat[:, i], t_mat[:, k]) + np.minimum(s_mat[:, i], s_mat[:, k])) / h
            for k in range(i)
        ]
        + [one[:, i]]
        for i in range(n)
    ]
    # L y = ones by forward substitution; y_0 = 1 is never updated, so
    # qsum starts as 1 / D_0, which at n = 1 is the whole sum
    y = [1.0] * n
    for k in range(n - 1):
        for i in range(k + 1, n):
            lik = low[i][k] / low[k][k]
            for j in range(k + 1, i + 1):
                low[i][j] -= lik * low[j][k]
            y[i] -= lik * y[k]
    det = low[0][0]
    qsum = 1.0 / det
    for k in range(1, n):
        det = det * low[k][k]
        qsum += y[k] * y[k] / low[k][k]
    norm = (2.0 * math.pi * h) ** (-0.5 * n * dim)
    vals, expo = closed_form_factors(det, qsum, h, dim, off_sq, norm)
    return vals if expo is None else vals * expo
