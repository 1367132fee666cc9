"""Point laws of the restricted planar Poisson process.

Restricted to [0,t] x [0,s], the rate-1 planar process has a Poisson(ts)
count K and, given K, i.i.d. locations.  The replicate engine
(:mod:`fkmoments.mc_engine`) draws both in batches.  It never draws K
replicate by replicate: one *count table* per run
(:func:`poisson_count_table`) gives, for each stderr batch, how many of
its replicates have K = 0, 1, 2, ...  Its tilted locations, with
density proportional to eta(t-a, s-b), come from
:func:`sample_eta_tilted`: it draws the time gap by rejection from a
power-law proposal (one power per candidate, acceptance rate at least
1/2), then the position along the diagonal uniformly.  Both are pure
functions of (parameters, generator): fixed seeds give bit-reproducible
output.
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
# eta depends on (u, v) only through the gap delta = u - v, so the law
# factors as delta with density ~ |delta|^(p-1) L(delta) on (-s, t),
# p = 2H - 1 in (0, 1), times u uniform on the L(delta)-long interval
# [max(0, delta), min(t, s + delta)] of u's compatible with delta.
# delta is drawn by rejection from the proposal ~ |delta|^(p-1) on
# (-s, t), whose CDF is a power: W ~ U(-s^p, t^p) gives
# delta = sign(W) |W|^(1/p), one power per candidate.  A candidate is
# accepted with probability L(delta) / min(t, s), through a uniform
# A ~ U(0, min(t, s)) and the test A < L(delta); given acceptance A is
# uniform on (0, L(delta)), so u = max(0, delta) + A.  The acceptance
# rate is the integral of |u - v|^(p-1) over the rectangle, C / (H p),
# over the proposal's mass (t^p + s^p) / p times min(t, s):
#     2 C / ((p + 1) min(t, s) (t^p + s^p)),
# which lies in [1/2, 1] for every t, s and H (1/(p + 1) at t = s).
# Each candidate batch is worked in place, and the accepted candidates
# are gathered once, by index: the first ``need`` of them in draw order.


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
    out = np.empty((size, 2))
    p = 2.0 * kernel.hurst - 1.0
    tp, sp, width = t**p, s**p, min(t, s)
    rate = 2.0 * kernel.mass(t, s) / ((p + 1.0) * width * (tp + sp))
    got = 0
    for _ in range(_REJECTION_CAP):
        need = size - got
        if need == 0:
            return out
        # at least two standard deviations of the accepted count to spare,
        # so one batch almost always suffices
        batch = int(need / rate + 3.0 * math.sqrt(need)) + 16
        # U(-sp, tp) and U(0, width) in place, by Generator.uniform's own
        # arithmetic (low + (high - low) * U[0, 1)), so the draws are its bits
        delta = rng.random(batch)
        delta *= tp + sp
        delta -= sp
        u = rng.random(batch)
        u *= width
        # one scratch buffer holds |delta|^(1/p), then max(delta, 0), then v
        buf = np.abs(delta)
        buf **= 1.0 / p
        np.copysign(buf, delta, out=delta)
        np.maximum(delta, 0.0, out=buf)
        u += buf
        v = np.subtract(u, delta, out=buf)
        # u < min(t, s + delta), so (t - u, s - v) lies in the rectangle
        keep = u < t
        keep &= v < s
        idx = np.flatnonzero(keep)[:need]
        kept = len(idx)
        np.subtract(t, u[idx], out=out[got : got + kept, 0])
        np.subtract(s, v[idx], out=out[got : got + kept, 1])
        got += kept
    raise NumericError("rejection sampler failed to accept within the cap")
