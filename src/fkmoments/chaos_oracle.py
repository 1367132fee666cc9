"""Deterministic reference values for the second moment via chaos series.

The second moment of the solution field at ((t, x), (s, y)) expands as

    w(t, x) w(s, y) + sum_{n >= 1} a_n / n!,

where a_n is a 2n-dimensional time integral of a product of temporal
kernel factors against a spatial inner product of heat-propagator tensors.
For the heat spatial kernel and constant initial data that inner product
has the closed Gaussian form of
:func:`fkmoments.gaussian_paths.gaussian_product_expectation_batch`, and the
time integrals are evaluated with the singularity-absorbing pair rules of
:mod:`fkmoments.quadrature`.  Orders are capped at n = 3 (a 2n-dimensional
tensor quadrature is not a desk-scale computation beyond that); the
remainder is covered by an explicitly heuristic geometric tail estimate.

One blocked multiset contraction (:func:`_contract_gaussian`) serves
orders 2 and 3.  It sums panels of consecutive rows, as many as fit one
block of tuples, so order 2 makes one Python loop turn per panel rather
than per node.  Each row meets every rest whose largest node is at most
its own in that one pass, and a tuple whose largest node repeats takes
a share of the rest's one multiplicity weight.  Sigma is a covariance,
so det(I + Sigma/h) >= 1 and no diagonal jitter is added, repeated
nodes included.  At equal times the pair rule is its own mirror image
(u and v swapped), which leaves the integrand unchanged, so order 3
sums one triple of each mirror pair and doubles the sum.

Both series certify convergence the same way (:func:`_certify`): each
order is refined up a ladder of rules until two successive rungs differ
by at most ``tol`` relative to the larger of the current iterate and a
scale floor.  The fractional series passes the running series magnitude
as that floor, so its tolerance is relative to the quantity actually
being reported; the white-in-time series uses no floor.  The fractional
ladder of pair-rule orders starts at q = 6 for orders 1 and 2 and at
q = 4 for order 3, and one series builds each pair rule once and shares
it across its orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, DomainError, NumericError
from .gaussian_paths import (
    block_det,
    closed_form_factors,
    det_qsum_2,
    det_qsum_3,
    gaussian_product_expectation_batch,
)
from .kernels import (
    Constant,
    HeatKernel,
    TemporalKernel,
    ZeroKernel,
    initial_field,
    require_integer,
    require_kernel_dim,
)
from .quadrature import eta_pair_rule, simplex_rule

__all__ = [
    "QueryPoint",
    "SeriesResult",
    "inner_product_closed_form",
    "alpha_n_quadrature",
    "second_moment_series",
    "white_noise_order_term",
    "white_noise_series",
    "series_settings",
    "truncation_tail",
]

MAX_ORDER = 3

# tuples per block of the contraction, a whole panel of rows where their
# rests are short.  Larger blocks make fewer Python calls per tuple; order
# 3 slows down above this size, once the block's working arrays (about
# fourteen of 128 KB) outgrow a 2 MB L2 cache.
_BLOCK = 16384

# pair-rule orders q of chaos orders 1 and 2; order 3 climbs [4, *these].
# Orders 2 and 3 converge only algebraically (their integrands have
# min-kinks between nodes): at h = 1, x = y, like q^-3 at t = s = 1 and
# like q^-2.1 to q^-2.3 at t = 1, s = 0.6.  So consecutive rungs differ by
# a factor of at least 4/3: closer rungs differ by less than the error
# they leave.  Even the step 6 -> 8 leaves an error of about
# 1 / ((4/3)^p - 1) times its |delta|: up to 1.26 |delta| at t != s
# (p about 2.2), against 0.73 |delta| on a ladder from 8, whose first step
# is 8 -> 12 (measured against q = 32 for H 0.55 to 0.95 and h 0.3 to 3).
# Orders 1 and 2 start at 6 because from 4 the first step moves order 2
# at t = s = 0.5 by a third of tol, so whether a value passes it hangs on
# its scale: a value and its 2.5^2-fold copy under the same scale floor
# stop on different rungs.  Order 3's tolerance is set by the series
# magnitude, about 660 times a_3 at t = s = 0.5, where its step 4 -> 6
# moves it by a tenth of the bound.  That step's ratio 1.5 leaves
# 1 / (1.5^p - 1) of its |delta|, 0.42 at p = 3 and 0.69 at p = 2.2: less
# than the step 6 -> 8 leaves.  Order 3's cost grows like m^3 (m = 72 at
# q = 6 and 128 at q = 8 when t = s), so accepting at q = 6 saves most of
# it.
_PAIR_LEVELS = [6, 8, 12, 16, 24, 32]

_SIMPLEX_LEVELS = [8, 12, 16, 24, 32, 48]


@dataclass(frozen=True)
class QueryPoint:
    """Space-time query ((t, x), (s, y)) with 0 <= t, s <= 1."""

    t: float
    s: float
    x: tuple
    y: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", _as_point(self.x))
        object.__setattr__(self, "y", _as_point(self.y))
        if len(self.x) != len(self.y):
            raise DomainError("query points x and y must share a dimension")
        for name, point in (("x", self.x), ("y", self.y)):
            if not all(map(math.isfinite, point)):
                raise DomainError(f"query point {name} must be finite, got {point}")
        if not (0.0 <= self.t <= 1.0 and 0.0 <= self.s <= 1.0):
            raise DomainError(
                f"times must be nonnegative and at most 1, got t={self.t} s={self.s}"
            )

    @property
    def dim(self) -> int:
        return len(self.x)

    @property
    def x_arr(self) -> np.ndarray:
        return np.asarray(self.x, dtype=float)

    @property
    def y_arr(self) -> np.ndarray:
        return np.asarray(self.y, dtype=float)

    @property
    def offset_sq(self) -> float:
        d = self.x_arr - self.y_arr
        return float(np.dot(d, d))

    def swapped(self) -> "QueryPoint":
        return QueryPoint(t=self.s, s=self.t, x=self.y, y=self.x)

    def elapsed_times(self, t_times, s_times) -> tuple[np.ndarray, np.ndarray]:
        """The elapsed-time lists of an inner product at this query, as
        arrays: one-dimensional, of equal length, with every t_j in
        [0, t] and every s_j in [0, s] (so none is nan)."""
        t_times = np.asarray(t_times, dtype=float)
        s_times = np.asarray(s_times, dtype=float)
        if t_times.ndim != 1 or t_times.shape != s_times.shape:
            raise DomainError("time lists must be one-dimensional and of equal length")
        for name, times, end in (("t", t_times, self.t), ("s", s_times, self.s)):
            if not np.all((times >= 0.0) & (times <= end)):
                raise DomainError(
                    f"elapsed times must lie in [0, {name}] = [0, {end}], got {times.tolist()}"
                )
        return t_times, s_times


def _as_point(p) -> tuple:
    arr = np.atleast_1d(np.asarray(p, dtype=float))
    return tuple(float(v) for v in arr)


@dataclass
class SeriesResult:
    """Truncated chaos series for one query.

    ``total`` is the zeroth term plus the computed orders; the tail
    estimate is *not* folded in and is heuristic by construction.
    """

    zeroth_term: float
    order_terms: list
    tail_estimate: float
    total: float
    tail_is_heuristic: bool = True
    diagnostics: dict = field(default_factory=dict)


def _require_closed_form(f, u0):
    if not isinstance(f, HeatKernel):
        raise CapabilityError(
            "closed-form route requires the heat spatial kernel; "
            "use the Monte Carlo estimators for other kernels"
        )
    if not isinstance(u0, Constant):
        raise CapabilityError(
            "closed-form route requires constant initial data; "
            "use the Monte Carlo estimators for other initial conditions"
        )


def inner_product_closed_form(t_times, s_times, q: QueryPoint, f, u0) -> float:
    """Closed form of the spatial inner product at elapsed times.

    Equals the path expectation
    E[w(t-t*, B1_{t*}) w(s-s*, B2_{s*}) prod_j f(B1_{t_j} - B2_{s_j})]
    with B1 from x, B2 from y; for constant data the w factors contribute
    exactly c^2 regardless of t*, s*.
    """
    require_kernel_dim(f, q.dim)
    _require_closed_form(f, u0)
    t_times, s_times = q.elapsed_times(t_times, s_times)
    c2 = u0.value * u0.value
    if t_times.size == 0:
        return c2
    # a canonical order of the time pairs makes the value bitwise
    # invariant under permutations of the input
    order = np.lexsort((s_times, t_times))
    return c2 * float(
        gaussian_product_expectation_batch(
            t_times[None, order], s_times[None, order], f.bandwidth, q.dim, q.offset_sq
        )[0]
    )


def _contract_gaussian(
    a: np.ndarray,
    b: np.ndarray,
    w: np.ndarray,
    n: int,
    h: float,
    d: int,
    off2: float,
) -> float:
    """Symmetric tensor contraction of a pair rule against the closed form.

    ``a``, ``b`` are the elapsed-time coordinates of the rule nodes and
    ``w`` their weights.  Order 1 is one batched closed form.  At n = 2, 3
    the sum runs over tuples (i, rest) with i >= k, each (n - 1)-multiset
    rest listed once, ordered by its largest node k: the nodes k, or the
    ``np.tril_indices`` pairs (k, j) with j <= k.  The tuple's
    M = I + Sigma/h = [[a,b,c],[b,d,e],[c,e,f]] (n = 2: [[a,b],[b,d]])
    takes a, b, c from row i and the rest from data computed once per
    rung: d at n = 2; at n = 3 e = Sigma_jk/h, p = f - e, q = d - e and
    c00 = d f - e^2.  The rests with k <= i are the prefix of the table
    that ends with row i's own.  Each rest has one weight, the product of
    w over its nodes times the multiplicity n!/prod(counts!) of the tuples
    it makes with any i > k: n!, or n if it repeats k.  At k = i the
    multiset's multiplicity is a share of that: 1/2, or 1/3 if i = k = j.

    At n = 3 a mirrored rule, whose second half is exactly its first with
    a and b swapped (``eta_pair_rule`` at t = s), gives a triple and its
    mirror the same summand.  Rests then keep only nodes k < m/2, which
    picks one triple of each mirror pair, and the sum is doubled.

    Rows i are summed in panels, in one pass: as many consecutive rows as
    fit one block of ``_BLOCK`` tuples against the prefix of the panel's
    last row, or one row whose prefix is split into blocks.  Each panel
    builds its rows' Sigma_ij/h for the j of that prefix once.  Only the
    rests with k >= the panel's first row are corrected, by the factor
    i - k + share clipped to [0, 1]: 0 past row i's prefix (M is still a
    valid matrix there), the share at k = i and 1 for k < i.  Blocks run
    through four preallocated buffers of ``_BLOCK`` floats, which hold det,
    qsum and the two gathered rest columns, so a block allocates only
    det_qsum's own temporaries.  A panel's Sigma_ij/h has at most max(_BLOCK, m) entries,
    so at n = 3 the per-rest arrays set the peak memory (seven of
    r (r + 1) / 2, r = m or m/2 if mirrored, and an eighth while they are
    built), and at n = 2 the buffers and the block's temporaries do.
    """
    if n == 1:
        vals = gaussian_product_expectation_batch(a[:, None], b[:, None], h, d, off2)
        return float(np.dot(w, vals))
    if n not in (2, 3):
        raise DomainError(f"contraction implemented for n <= {MAX_ORDER}, got {n}")
    m = w.size
    # the rests' nodes lie below span: m, or m/2 at n = 3 on a mirrored rule
    half = m // 2
    mirrored = n == 3 and m == 2 * half and all(
        np.array_equal(x[:half], y[half:]) for x, y in ((a, b), (b, a), (w, w))
    )
    span = half if mirrored else m
    # entries of Sigma/h are sums of minima of a/h and of b/h
    a, b = a / h, b / h
    one = 1.0 + (a + b)
    if n == 2:
        det_qsum, rest, rest_cols = det_qsum_2, (np.arange(m),), (one,)
    else:
        det_qsum, rest = det_qsum_3, np.tril_indices(span)
        kk, jj = rest
        e = np.minimum(a[jj], a[kk]) + np.minimum(b[jj], b[kk])
        p, q = one[jj] - e, one[kk] - e
        rest_cols = (e, p, q, block_det(e, p, q))
    top = rest[0]
    # per rest, the product of w over its nodes times the multiplicity of
    # its tuples (i, rest) with i > k: n!, or n if the rest repeats k
    weights = np.take(w, top)
    for idx in rest[1:]:
        weights *= w[idx]
    weights *= math.factorial(n)
    if n == 3:
        weights[jj == kk] *= 0.5
    buffers = np.empty((4, min(_BLOCK, m * top.size)))
    # exp(-0.0 * q) is exactly 1, so at x = y qsum is not needed
    with_qsum = off2 != 0.0
    total = 0.0
    i1 = m
    while i1 > 0:
        # rows [i0, i1) against the rests up to row i1 - 1's, which hold
        # only nodes j < i1; pair[r, j] = Sigma_ij/h with i = i0 + r
        hi = np.searchsorted(top, i1 - 1, side="right")
        i0 = max(0, i1 - max(1, _BLOCK // hi))
        rows = slice(i0, i1)
        # rests from cut on have k >= i0: some row of the panel has k >= i
        cut = np.searchsorted(top, i0)
        stop = min(i1, span)
        pair = np.minimum.outer(a[rows], a[:stop])
        pair += np.minimum.outer(b[rows], b[:stop])
        for pos in range(0, hi, _BLOCK):
            blk = slice(pos, min(pos + _BLOCK, hi))
            shape = (i1 - i0, blk.stop - pos)
            det, qsum, col0, col1 = buffers[:, : math.prod(shape)].reshape(4, *shape)
            if n == 2:
                # the rests are the nodes j, so b is pair itself
                cols = [pair[:, blk]]
            else:
                # indices are in range; "clip" lets take write into out directly
                cols = [
                    pair.take(idx[blk], axis=1, out=out, mode="clip")
                    for idx, out in zip(rest, (col0, col1))
                ]
            det_qsum(
                one[rows, None], *cols, *(col[blk] for col in rest_cols),
                out=(det, qsum if with_qsum else None),
            )
            vals, expo = closed_form_factors(det, qsum, h, d, off2, weights[blk])
            if expo is not None:
                vals *= expo
            if cut < blk.stop:
                # a tuple with k > i is not summed; at k = i its multiplicity
                # is 1/(1 + c) of that with k < i, c the count of k in the
                # rest (rest[0] is k itself)
                tail = slice(max(cut, pos), blk.stop)
                k = top[tail]
                share = 1.0 / (2 + sum(idx[tail] == k for idx in rest[1:]))
                # the share is added after the exact integer difference i - k,
                # so at k = i the factor is the share itself
                factor = np.subtract.outer(np.arange(i0, i1), k) + share
                vals[:, tail.start - pos :] *= np.clip(factor, 0.0, 1.0, out=factor)
            total += float(np.dot(w[rows], vals.sum(axis=1)))
        i1 = i0
    if mirrored:
        total *= 2.0
    return float((2.0 * math.pi * h) ** (-0.5 * n * d) * total)


def series_settings(n_max: int, tol: float) -> tuple[int, float]:
    """(n_max, tol) of a truncated series, checked for both series."""
    require_integer("n_max", n_max)
    if not 0 <= n_max <= MAX_ORDER:
        raise DomainError(f"n_max must lie in 0..{MAX_ORDER}, got {n_max}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tol must be positive and finite, got {tol}")
    return n_max, tol


def _certify(label: str, rungs, evaluate, tol: float, scale_floor: float, trace):
    """Value at the first rung within tol * max(|value|, scale_floor) of
    the rung before it; ``evaluate(rung)`` gives (node count m, value).

    If ``trace`` is a list, one entry (rung, m, value, |delta|, tol *
    scale) is appended per rung tried, |delta| being None on the first.
    Raises NumericError naming the last two iterates if no rung passes.
    """
    prev = cur = None
    for rung in rungs:
        prev = cur
        m, cur = evaluate(rung)
        delta = None if prev is None else abs(cur - prev)
        bound = tol * max(abs(cur), scale_floor)
        if trace is not None:
            trace.append((rung, m, cur, delta, bound))
        if delta is not None and delta <= bound:
            return cur
    raise NumericError(
        f"{label} quadrature did not converge: last iterates {prev!r}, {cur!r}"
    )


def _series(n_max: int, tol: float, zeroth: float, horizon: float, f, order_term):
    """Zeroth term plus orders 1..n_max, which vanish exactly for the zero
    kernel or a zero horizon; otherwise ``order_term(n, scale, trace)``
    certifies order n, ``scale`` being the magnitude of the series so far.
    The tail is 0 when every order vanishes, else :func:`truncation_tail`
    of the computed orders (inf when n_max = 0).
    """
    series_settings(n_max, tol)
    terms = [0.0] * n_max
    refinement = {}
    vanishes = isinstance(f, ZeroKernel) or horizon == 0.0
    if not vanishes:
        scale = abs(zeroth)
        for n in range(1, n_max + 1):
            refinement[n] = []
            terms[n - 1] = order_term(n, scale, refinement[n])
            scale += abs(terms[n - 1])
    return SeriesResult(
        zeroth_term=zeroth,
        order_terms=terms,
        tail_estimate=0.0 if vanishes else truncation_tail(terms),
        total=zeroth + math.fsum(terms),
        diagnostics={"refinement": refinement},
    )


def _order_vanishes(n: int, q: QueryPoint, f, u0, horizon: float) -> bool:
    """Check an order-n term of either series at query ``q``: n is an
    integer in 1..MAX_ORDER, f acts on q's dimension and, unless f is the
    zero kernel, the closed form covers f and u0 (checked in that order).
    True when the term is exactly 0: a zero kernel or a zero ``horizon``."""
    require_integer("order", n)
    if not 1 <= n <= MAX_ORDER:
        raise DomainError(f"order must satisfy 1 <= n <= {MAX_ORDER}, got {n}")
    require_kernel_dim(f, q.dim)
    if isinstance(f, ZeroKernel):
        return True
    _require_closed_form(f, u0)
    return horizon == 0.0


def alpha_n_quadrature(
    n: int,
    q: QueryPoint,
    k: TemporalKernel,
    f,
    u0,
    tol: float,
    scale_floor: float = 0.0,
    trace: list | None = None,
    *,
    _rules: dict | None = None,
) -> float:
    """Chaos coefficient a_n by tensor quadrature over gap-position pair rules.

    Refines the pair-rule order q until two successive values differ by at
    most ``tol`` times max(|value|, ``scale_floor``) (:func:`_certify`); a
    ``trace`` entry is (q, m, value, |delta|, tol * scale).  Orders 1 and 2
    climb ``_PAIR_LEVELS``, order 3 starts one rung lower, at q = 4.
    ``_rules`` is internal: :func:`second_moment_series` passes one dict to
    all its orders, so each pair rule is built once per series.
    """
    t, s = q.t, q.s
    if _order_vanishes(n, q, f, u0, t * s):
        return 0.0
    # the integrand is symmetric under swapping (t, x) <-> (s, y); fix one
    # orientation so swapped queries give bit-identical values
    if t < s:
        return alpha_n_quadrature(
            n, q.swapped(), k, f, u0, tol, scale_floor, trace, _rules=_rules
        )
    c2 = u0.value * u0.value
    off2 = q.offset_sq
    h = f.bandwidth
    d = q.dim
    rules = {} if _rules is None else _rules

    def rung(order):
        key = (k.hurst, t, s, order)
        if key not in rules:
            u, v, w = eta_pair_rule(k.hurst, t, s, order)
            # elapsed times seen by the inner product are (t - u, s - v)
            rules[key] = (t - u, s - v, w)
        a, b, w = rules[key]
        return w.size, c2 * _contract_gaussian(a, b, w, n, h, d, off2)

    ladder = [4, *_PAIR_LEVELS] if n >= 3 else _PAIR_LEVELS
    return _certify(f"order-{n}", ladder, rung, tol, scale_floor, trace)


def second_moment_series(
    q: QueryPoint, k: TemporalKernel, f, u0, n_max: int, tol: float
) -> SeriesResult:
    """Zeroth term plus orders 1..n_max of the second-moment series; each
    order is certified relative to the running series magnitude."""
    require_kernel_dim(f, q.dim)
    zeroth = float(initial_field(u0, q.t, q.x_arr)) * float(
        initial_field(u0, q.s, q.y_arr)
    )

    # the pair rules of this query, keyed by (H, t, s, q), shared by its orders
    rules = {}

    def order_term(n, scale, trace):
        a_n = alpha_n_quadrature(
            n, q, k, f, u0, tol, scale_floor=scale, trace=trace, _rules=rules
        )
        return a_n / math.factorial(n)

    return _series(n_max, tol, zeroth, q.t * q.s, f, order_term)


def white_noise_order_term(
    n: int, t: float, x, y, f, u0, tol: float, trace: list | None = None
) -> float:
    """Order-n term of the white-in-time moment expansion.

    A simplex integral over 0 < t_1 < ... < t_n < t of the closed-form
    Gaussian expectation with per-coordinate covariance 2 min(t_j, t_k)
    (both paths share the same evaluation times).  Smooth integrand, so a
    plain tensor rule on the ordered sector converges rapidly.  Certified
    by :func:`_certify` with no scale floor; a ``trace`` entry is (points
    per axis, simplex node count m, value, |delta|, tol * |value|).
    """
    q = QueryPoint(t=t, s=t, x=x, y=y)
    if _order_vanishes(n, q, f, u0, t):
        return 0.0
    off2 = q.offset_sq
    c2 = u0.value * u0.value
    d = q.dim

    def rung(points):
        times, weights = simplex_rule(n, t, points)
        vals = gaussian_product_expectation_batch(times, times, f.bandwidth, d, off2)
        return weights.size, c2 * float(np.dot(weights, vals))

    return _certify(f"white-noise order-{n}", _SIMPLEX_LEVELS, rung, tol, 0.0, trace)


def white_noise_series(t: float, x, y, f, u0, n_max: int, tol: float) -> SeriesResult:
    """Zeroth term plus orders 1..n_max of the white-in-time series at
    equal times t; unlike :func:`second_moment_series`, no scale floor."""
    q = QueryPoint(t=t, s=t, x=x, y=y)
    require_kernel_dim(f, q.dim)
    zeroth = float(initial_field(u0, t, q.x_arr)) * float(initial_field(u0, t, q.y_arr))

    def order_term(n, scale, trace):
        return white_noise_order_term(n, t, q.x, q.y, f, u0, tol, trace=trace)

    return _series(n_max, tol, zeroth, t, f, order_term)


def truncation_tail(order_terms) -> float:
    """Geometric extrapolation of the uncomputed series remainder.

    r = |last| / |previous| clamped to [0, 0.9]; tail = |last| r / (1 - r).
    Returns +inf as the signal that the computed terms are not decreasing
    (no geometric extrapolation is defensible then), and so does an empty
    list: no computed order bounds the remainder.  A vanishing last term
    gives tail 0.  Heuristic by construction.
    """
    terms = [float(v) for v in order_terms]
    if not terms:
        return math.inf
    last = abs(terms[-1])
    if last == 0.0:
        return 0.0
    if len(terms) < 2:
        return math.inf
    prev = abs(terms[-2])
    if last >= prev:
        return math.inf
    r = min(last / prev, 0.9)
    return last * r / (1.0 - r)
