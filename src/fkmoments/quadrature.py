"""Singularity-aware quadrature rules for the chaos-series oracle.

Two families of rules live here.

Pair rules integrate a smooth g against the singular temporal weight,

    int_0^t int_0^s eta(u, v) g(u, v) dv du,

with eta(u, v) = alpha_H |u - v|^(2H - 2).  The exponent 2H - 2 lies in
(-1, 0), so the diagonal singularity is integrable.  The weight depends on
the gap r = |u - v| alone, so each side of the diagonal is written in the
gap r and the position p along the gap's diagonal segment, whose length
L(r) is linear in r except for one kink at r = |t - s|.  The rule is a
product of q Gauss-Jacobi points in r, which absorb the power weight
r^(2H-2) exactly on the r-piece that starts at 0, and q Gauss-Legendre
points in p.  Past the kink, where r^(2H-2) is smooth but its branch
point r = 0 may be as close as |t - s|, r is covered by at most 8 equal
cells in ln r, each spanning a factor of at most 100 in r, with
max(q, 12) Gauss-Legendre points each; so a rule has 2 q^2 nodes at
t = s, and for any two distinct times at most 2 q^2 + 96 q nodes when
q < 12 and at most 10 q^2 when q >= 12.  No weight is negative.

Tensor products of one pair rule per coordinate pair discretize the
2n-dimensional integrals behind the chaos coefficients; the integrands
are symmetric under simultaneous permutation of the pairs, so
:mod:`fkmoments.chaos_oracle` takes the tensor sum over index multisets
with multiplicity factors, which divides the work by up to n!.

Simplex rules integrate a symmetric smooth integrand over the ordered
sector 0 < t_1 < ... < t_n < t through the substitution
t_j = t prod_{k>=j} xi_k, whose Jacobian is t^n prod_k xi_k^(k-1); on the
sector the min-structure of the integrand's covariance is fixed, so plain
tensor Gauss-Legendre converges rapidly.

Every Gauss rule here comes from one construction (Golub and Welsch,
Math. Comp. 23, 1969): the n-point rule for the weight (1 + z)^beta on
[-1, 1], beta = 0 being Gauss-Legendre, has as nodes the eigenvalues of
the symmetric tridiagonal Jacobi matrix of the weight's three-term
recurrence, and as weights mu_0 v_0^2, where v_0 is the first component
of each unit eigenvector and mu_0 = 2^(beta + 1) / (beta + 1) is the
weight's total mass.  numpy's symmetric eigensolver computes both, so no
special-function library is needed.

Nodes are generated in a fixed deterministic order, so every rule is
bit-stable across runs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "gauss_legendre_01",
    "gauss_jacobi_01",
    "eta_pair_rule",
    "simplex_rule",
]

# Past the kink each cell spans at most this factor in r, a width of ln 100
# in x = ln r, where the branch point r = 0 of r^beta lies at x = -infinity.
# A full cell's total weight matches the closed-form mass to 1.3e-9 with 8
# Gauss-Legendre points in x and to rounding with 12, for H from 0.55 to
# 0.95; so a cell never takes fewer than _CELL_POINTS points, whatever q.
_CELL_FACTOR = 100.0
_CELL_POINTS = 12


def _golub_welsch(order: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights on [-1, 1] for the weight (1 + z)^beta.

    The Jacobi matrix holds the recurrence coefficients of the Jacobi
    polynomials P_k^(0, beta): diagonal beta^2 / ((2k + beta)(2k + beta + 2))
    (beta / (beta + 2) at k = 0) and off-diagonal
    2k(k + beta) / ((2k + beta) sqrt((2k + beta)^2 - 1)).
    """
    k = np.arange(1, order, dtype=float)
    two_kb = 2.0 * k + beta
    diag = np.append(beta / (beta + 2.0), beta**2 / (two_kb * (two_kb + 2.0)))
    off = 2.0 * k * (k + beta) / (two_kb * np.sqrt(two_kb**2 - 1.0))
    jacobi = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    z, v = np.linalg.eigh(jacobi)
    return z, 2.0 ** (beta + 1.0) / (beta + 1.0) * v[0] ** 2


@lru_cache(maxsize=None)
def gauss_legendre_01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = _golub_welsch(order, 0.0)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def gauss_jacobi_01(order: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] for the weight x^beta, beta > -1.

    Derived from the Jacobi weight (1 + z)^beta on [-1, 1]:
    int_0^1 x^beta g(x) dx = sum w_i g(x_i) for polynomial g.
    """
    z, w = _golub_welsch(order, beta)
    return 0.5 * (z + 1.0), w * 0.5 ** (beta + 1.0)


def _gap_side(alpha: float, beta: float, reach: float, width: float, q: int):
    """Nodes (r, p) and weights for one side of the diagonal,

        int_0^reach alpha r^beta int_0^L(r) g(r, p) dp dr,
        L(r) = min(width, reach - r),

    r being the gap and p the position along the gap's segment.  L kinks
    at r = reach - width when reach > width.  q Gauss-Jacobi points cover
    the r-piece from 0 to the kink (or to ``reach``).  Past the kink,
    r^beta is smooth but its branch point r = 0 may be as close as the
    kink; in x = ln r it sits at -infinity.  So the piece from kink to
    reach is cut into ceil(ln(reach / kink) / ln _CELL_FACTOR) equal cells
    in x, each with c = max(q, _CELL_POINTS) Gauss-Legendre points and
    r-weights alpha dx w_i r_i^(beta + 1).  For doubles,
    reach / kink <= 2^53, so there are at most 8 cells and at most
    q + 8 c values of r on this side.  Every r carries q Gauss-Legendre
    points in p, so a pair rule has at most 2 q^2 + 96 q nodes for
    q < _CELL_POINTS and at most 10 q^2 from there on.
    """
    glx, glw = gauss_legendre_01(q)
    gjx, gjw = gauss_jacobi_01(q, beta)
    kink = reach - width
    if kink <= 0.0:
        kink = reach
    r, wr = [kink * gjx], [alpha * kink ** (beta + 1.0) * gjw]
    if kink < reach:
        # ln(reach / kink) and r = kink e^x through the exact difference
        # reach - kink, so no node rounds past reach when kink is near it
        span = math.log1p((reach - kink) / kink)
        cells = math.ceil(span / math.log(_CELL_FACTOR))
        dx = span / cells
        cx, cw = gauss_legendre_01(max(q, _CELL_POINTS))
        x = dx * (np.arange(cells)[:, None] + cx).ravel()
        nodes = kink + kink * np.expm1(x)
        r.append(nodes)
        wr.append(alpha * dx * np.tile(cw, cells) * nodes ** (beta + 1.0))
    r, wr = np.concatenate(r), np.concatenate(wr)
    length = np.minimum(width, reach - r)
    p = np.outer(length, glx).ravel()
    return np.repeat(r, q), p, np.outer(wr * length, glw).ravel()


def eta_pair_rule(
    hurst: float, t: float, s: float, q: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive quadrature rule (u_i, v_i, w_i) absorbing the eta weight.

    sum_i w_i g(u_i, v_i) approximates int_0^t int_0^s eta(u, v) g dv du
    for smooth g: a product rule of order ``q`` in the gap r = |u - v|
    and the position along each gap's diagonal segment, on each side of
    the diagonal (:func:`_gap_side`).  It has 2 q^2 nodes at t = s; at
    any other pair of times it has at most 2 q^2 + 96 q for q < 12 and
    at most 10 q^2 for q >= 12.
    The u > v side comes first; at t == s the second half is the first
    with u and v swapped, bit for bit, which the order-3 contraction uses.
    """
    alpha = hurst * (2.0 * hurst - 1.0)
    beta = 2.0 * hurst - 2.0
    # u > v: v = p and u = v + r; then v > u: u = p and v = u + r
    r1, p1, w1 = _gap_side(alpha, beta, t, s, q)
    r2, p2, w2 = _gap_side(alpha, beta, s, t, q)
    u = np.clip(np.concatenate([p1 + r1, p2]), 0.0, t)
    v = np.clip(np.concatenate([p1, p2 + r2]), 0.0, s)
    return u, v, np.concatenate([w1, w2])


# ---------------------------------------------------------------------------
# simplex rules
# ---------------------------------------------------------------------------


def simplex_rule(n: int, t: float, points_per_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor rule for the ordered sector {0 < t_1 < ... < t_n < t}.

    Returns (T, w) with T of shape (M, n) holding ascending time tuples
    and w the matching weights, via t_j = t prod_{k >= j} xi_k.
    """
    x, wx = gauss_legendre_01(points_per_dim)
    grids = np.meshgrid(*([x] * n), indexing="ij")
    wgrids = np.meshgrid(*([wx] * n), indexing="ij")
    xi = np.stack([g.ravel() for g in grids], axis=1)  # (M, n)
    weight = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    # t_j = t * prod_{k=j..n} xi_k  (reverse cumulative product)
    tj = t * np.cumprod(xi[:, ::-1], axis=1)[:, ::-1]
    jac = t**n * np.prod(xi ** np.arange(n)[None, :], axis=1)
    return tj, weight * jac
