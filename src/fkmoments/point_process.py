"""Point laws of the restricted planar Poisson process.

Restricted to [0,t] x [0,s], the rate-1 planar process has a Poisson(ts)
count K and, given K, i.i.d. locations.  The replicate engine
(:mod:`fkmoments.mc_engine`) draws both in batches.  It never draws K
replicate by replicate: one *count table* per run
(:func:`poisson_count_table`) gives, for each stderr batch, how many of
its replicates have K = 0, 1, 2, ...  Its tilted locations, with
density proportional to eta(t-a, s-b), come from
:func:`sample_eta_tilted`.  Both are pure functions of (parameters,
generator): fixed seeds give bit-reproducible output.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericError
from .kernels import TemporalKernel

__all__ = [
    "UNIFORM",
    "TEMPORAL_IMPORTANCE",
    "fixed_count_table",
    "poisson_count_table",
    "sample_eta_tilted",
]

UNIFORM = "uniform"
TEMPORAL_IMPORTANCE = "importance"

# Loop cap for the rejection sampler; acceptance probability is bounded
# away from zero so this is never reached in practice.
_REJECTION_CAP = 10**6


# ---------------------------------------------------------------------------
# count tables
# ---------------------------------------------------------------------------
#
# A count table has one row per segment of replicates and one column per
# count k = 0, 1, ..., kmax; entry (i, k) is how many replicates of
# segment i have K = k points, so row i sums to the segment's size.  For
# i.i.d. Poisson(lam) counts each row is multinomial, drawn as sequential
# conditional binomials, N_k ~ Bin(n - N_0 - ... - N_{k-1}, q_k) with
# q_k = P(K = k | K >= k) = p_k / P(K >= k), until no replicate is left.


def _conditional_pmf(lam: float) -> np.ndarray:
    """q_k = p_k / P(K >= k) of K ~ Poisson(lam) for k = 0, 1, ... up to
    the first q_k = 1, which takes every replicate still left."""
    if lam == 0.0:
        return np.ones(1)
    # P(K > top) is below 1e-30 for every lam >= 0
    top = int(lam + 12.0 * math.sqrt(lam) + 40.0)
    k = np.arange(top + 1)
    log_pmf = k * math.log(lam) - lam - np.array([math.lgamma(j + 1.0) for j in k])
    pmf = np.exp(log_pmf)
    # tails summed upward from the smallest terms, so they keep full
    # relative precision; a tail at most p_k leaves nothing beyond k
    tail = np.cumsum(pmf[::-1])[::-1]
    q = np.ones(top + 1)
    np.divide(pmf, tail, out=q, where=tail > pmf)
    q[-1] = 1.0
    return q[: int(np.argmax(q == 1.0)) + 1]


def poisson_count_table(lam: float):
    """Count table of i.i.d. Poisson(lam) counts: ``table(rng, sizes)`` gives
    an int array of shape (len(sizes), kmax + 1) whose row i sums to
    sizes[i]; kmax is the largest count drawn, and lam = 0 gives the
    single column K = 0."""
    q = _conditional_pmf(float(lam))

    def table(rng: np.random.Generator, sizes) -> np.ndarray:
        left = np.array(sizes, dtype=np.int64)
        columns = []
        for q_k in q:
            drawn = rng.binomial(left, q_k)
            columns.append(drawn)
            left -= drawn
            if not left.any():
                break
        return np.stack(columns, axis=1)

    return table


def fixed_count_table(n: int):
    """Count table in which every replicate has exactly n points: the
    only nonzero column is K = n.  It consumes no random numbers."""

    def table(rng: np.random.Generator, sizes) -> np.ndarray:
        out = np.zeros((len(sizes), n + 1), dtype=np.int64)
        out[:, n] = sizes
        return out

    return table


# ---------------------------------------------------------------------------
# temporal importance sampling
# ---------------------------------------------------------------------------
#
# Target density on [0,t] x [0,s]:  q(a, b) = eta(t-a, s-b) / C  with
# C = eta_mass(t, s).  Substituting u = t-a, v = s-b turns this into
# sampling (u, v) with density eta(u, v) / C on the same rectangle.
#
# The u-marginal (up to the factor alpha_H/(2H-1) = H) is
#     m(u) = H (u^p + (s-u)^p)        for u <  s,
#     m(u) = H (u^p - (u-s)^p)        for u >= s,
# with p = 2H - 1 in (0, 1).  On [0, s] the marginal rises to an interior
# maximum at u = s/2 (m' = H p (u^(p-1) - (s-u)^(p-1)) changes sign there)
# and is decreasing past s, so
#     sup m = m(s/2) = 2H (s/2)^p     if t >= s/2,
#     sup m = m(t)                    otherwise (m increasing on [0, s/2]).
# This analytic bound drives a uniform-proposal rejection step for u.
#
# Given u, the conditional density of v is proportional to |u - v|^(p-1)
# on [0, s]; its CDF is an explicit piecewise power function, inverted in
# closed form below.


def _u_marginal(t: float, s: float, hurst: float, u: np.ndarray) -> np.ndarray:
    p = 2.0 * hurst - 1.0
    u = np.asarray(u, dtype=float)
    out = np.where(
        u < s,
        u**p + np.maximum(s - u, 0.0) ** p,
        np.maximum(u, s) ** p - np.maximum(u - s, 0.0) ** p,
    )
    return hurst * out


def _u_marginal_sup(t: float, s: float, hurst: float) -> float:
    p = 2.0 * hurst - 1.0
    if t >= 0.5 * s:
        return 2.0 * hurst * (0.5 * s) ** p
    return float(_u_marginal(t, s, hurst, np.asarray(t)))


def _conditional_v(s: float, hurst: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Inverse CDF of the density ~ |u-v|^(2H-2) on [0, s], given u."""
    p = 2.0 * hurst - 1.0
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    left = u**p
    right = np.where(u <= s, (s - np.minimum(u, s)) ** p, 0.0)
    total = np.where(u <= s, left + right, left - np.abs(u - s) ** p)
    target = w * total
    below = target <= left
    # below the diagonal: v = u - (u^p - T)^(1/p); above: v = u + (T - u^p)^(1/p)
    v_lo = u - np.maximum(left - target, 0.0) ** (1.0 / p)
    v_hi = u + np.maximum(target - left, 0.0) ** (1.0 / p)
    v = np.where(below, v_lo, v_hi)
    return np.clip(v, 0.0, s)


def sample_eta_tilted(
    t: float, s: float, kernel: TemporalKernel, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``size`` points (tau, rho) with density eta(t-a, s-b)/eta_mass.

    Returns an array of shape (size, 2).  Internally samples (u, v) with
    density eta(u, v)/C and reflects: tau = t - u, rho = s - v.

    The density concentrates on the diagonal, so at floating-point
    resolution a returned pair can satisfy t - tau == s - rho exactly;
    consumers must not evaluate eta there (the estimators replace each
    eta factor by a constant, which is the point of the tilt).
    """
    if t <= 0 or s <= 0:
        raise DomainError(f"horizons must be positive, got t={t} s={s}")
    if size == 0:
        return np.empty((0, 2))
    sup = _u_marginal_sup(t, s, kernel.hurst) * (1.0 + 1e-12)
    accepted = np.empty(size)
    got = 0
    for _ in range(_REJECTION_CAP):
        need = size - got
        if need == 0:
            break
        batch = max(16, int(1.5 * need))
        cand = rng.uniform(0.0, t, size=batch)
        keep = rng.uniform(0.0, sup, size=batch) < _u_marginal(t, s, kernel.hurst, cand)
        kept = cand[keep][:need]
        accepted[got : got + kept.size] = kept
        got += kept.size
    else:
        raise NumericError("rejection sampler failed to accept within the cap")
    u = accepted
    v = _conditional_v(s, kernel.hurst, u, rng.uniform(0.0, 1.0, size=size))
    out = np.empty((size, 2))
    out[:, 0] = t - u
    out[:, 1] = s - v
    return out
