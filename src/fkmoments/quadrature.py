"""Singularity-aware quadrature rules for the chaos-series oracle.

Two families of rules live here.

Pair rules integrate a smooth g against the singular temporal weight,

    int_0^t int_0^s eta(u, v) g(u, v) dv du,

with eta(u, v) = alpha_H |u - v|^(2H - 2).  The exponent 2H - 2 lies in
(-1, 0), so the diagonal singularity is integrable.  The construction is
an iterated tensor mesh: the u-axis is partitioned into cells graded
dyadically toward the kink locations of the weight's u-marginal (u = 0,
and u = s when s lies inside [0, t]); for every Gauss-Legendre node u_i
the v-axis is split at the singular point v = u_i and each side is
covered in the distance coordinate r = |v - u_i| by dyadic cells graded
toward r = 0.  Cells away from the singularity carry plain order-8
Gauss-Legendre points with the weight evaluated in place; the innermost
cell absorbs the power weight r^(2H-2) exactly through order-8
Gauss-Jacobi points, which removes the truncation error that plain
grading would leave at the tip.  All weights are positive.

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

Cells are generated and summed in a fixed deterministic order, so every
rule is bit-stable across runs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "gauss_legendre_01",
    "gauss_jacobi_01",
    "eta_pair_rule",
    "simplex_rule",
]

GL_ORDER = 8

# Geometric subdivision caps: enough depth to push graded-cell truncation
# far below every tolerance used in the package.
_MAX_GEOMETRIC_CELLS = 60


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
def gauss_legendre_01(order: int = GL_ORDER) -> tuple[np.ndarray, np.ndarray]:
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


def _graded_cells(lo: float, hi: float, depth: int, left: bool, right: bool):
    """Dyadic cell decomposition of [lo, hi] graded toward chosen ends."""
    if hi <= lo:
        return []
    if left and right:
        mid = 0.5 * (lo + hi)
        return _graded_cells(lo, mid, depth, True, False) + _graded_cells(
            mid, hi, depth, False, True
        )
    if not left and not right:
        return [(lo, hi)]
    width = hi - lo
    bounds = [lo + width * 2.0 ** (-k) for k in range(depth + 1, 0, -1)]
    cells = [(lo, bounds[0])]
    cells += [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    cells.append((bounds[-1], hi))
    if right:
        cells = [(lo + hi - b, lo + hi - a) for (a, b) in reversed(cells)]
    return cells


def _geometric_cells_from(a: float, b: float, max_cells: int = _MAX_GEOMETRIC_CELLS):
    """Cells of [a, b] with widths growing geometrically away from a > 0.

    With growth factor 2 each cell's width stays below its distance to the
    origin, so an integrand with a branch point at 0 is analytic on a
    comfortable neighbourhood of every cell.  When doubling would need
    more than ``max_cells`` cells, the growth factor is raised instead;
    per-cell accuracy degrades gracefully (the branch point only moves
    relatively closer) while the node count stays bounded.
    """
    max_cells = min(max_cells, _MAX_GEOMETRIC_CELLS)
    growth = 2.0
    if a > 0 and b / a > growth**max_cells:
        growth = (b / a) ** (1.0 / max_cells)
    cells = []
    lo = a
    for _ in range(_MAX_GEOMETRIC_CELLS):
        if lo >= b:
            break
        hi = min(b, growth * lo)
        cells.append((lo, hi))
        lo = hi
    else:
        cells.append((lo, b))
    return cells


def _singular_segment(alpha: float, beta: float, length: float, depth: int):
    """Nodes/weights for int_0^length alpha r^beta g(r) dr on r in (0, length].

    Gauss-Jacobi on the innermost cell [0, length 2^-depth], so the power
    weight is integrated exactly there, then the ``depth`` dyadic cells
    out to ``length`` from :func:`_regular_segment`.
    """
    if length <= 0.0:
        return np.empty(0), np.empty(0)
    gjx, gjw = gauss_jacobi_01(GL_ORDER, beta)
    tip = length * 2.0 ** (-depth)
    r, w = _regular_segment(alpha, beta, tip, length, depth)
    return (
        np.concatenate([tip * gjx, r]),
        np.concatenate([alpha * tip ** (beta + 1.0) * gjw, w]),
    )


def _regular_segment(
    alpha: float, beta: float, r_lo: float, r_hi: float, max_cells: int
):
    """Nodes/weights for int alpha r^beta g(r) dr with 0 < r_lo <= r_hi,
    Gauss-Legendre order 8 on :func:`_geometric_cells_from`'s cells
    (none, so empty arrays, when r_lo = r_hi or ``max_cells`` is 0)."""
    glx, glw = gauss_legendre_01()
    nodes = [np.empty(0)]
    weights = [np.empty(0)]
    for lo, hi in _geometric_cells_from(r_lo, r_hi, max_cells):
        r = lo + (hi - lo) * glx
        nodes.append(r)
        weights.append(alpha * (hi - lo) * glw * r**beta)
    return np.concatenate(nodes), np.concatenate(weights)


def eta_pair_rule(
    hurst: float, t: float, s: float, depth_u: int, depth_r: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive quadrature rule (u_i, v_i, w_i) absorbing the eta weight.

    sum_i w_i g(u_i, v_i) approximates int_0^t int_0^s eta(u, v) g dv du
    for smooth g.  ``depth_u`` controls grading of the u-mesh toward its
    marginal kinks, ``depth_r`` the grading toward the diagonal.
    """
    alpha = hurst * (2.0 * hurst - 1.0)
    beta = 2.0 * hurst - 2.0
    glx, glw = gauss_legendre_01()
    m = min(s, t)
    u_cells = _graded_cells(0.0, m, depth_u, left=True, right=(s <= t))
    if t > s:
        u_cells += _graded_cells(s, t, depth_u, left=True, right=False)
    us, vs, ws = [], [], []
    for lo, hi in u_cells:
        u_nodes = lo + (hi - lo) * glx
        u_weights = (hi - lo) * glw
        for u, wu in zip(u_nodes, u_weights):
            if u <= s:
                segs = [
                    _singular_segment(alpha, beta, u, depth_r),  # v = u - r
                    _singular_segment(alpha, beta, s - u, depth_r),  # v = u + r
                ]
                signs = (-1.0, 1.0)
            else:
                segs = [_regular_segment(alpha, beta, u - s, u, depth_r + 6)]
                signs = (-1.0,)
            for (r, wr), sign in zip(segs, signs):
                if r.size == 0:
                    continue
                v = np.clip(u + sign * r, 0.0, s)
                us.append(np.full(r.size, u))
                vs.append(v)
                ws.append(wu * wr)
    return np.concatenate(us), np.concatenate(vs), np.concatenate(ws)


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
