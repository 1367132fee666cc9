"""Feynman-Kac Monte Carlo estimators for the second moment.

Two representations are implemented.  The fractional one averages, over
restricted planar-Poisson samples with K points (tau_j, rho_j) and two
independent Brownian paths from x and y,

    V = w(t - tau*, B1_{tau*}) w(s - rho*, B2_{rho*})
        * prod_j eta(t - tau_j, s - rho_j) f(B1_{tau_j} - B2_{rho_j}),

with tau* = rho* = 0 and an empty product when K = 0, and reports
e^{ts} mean(V).  This collapsed single-expectation form follows from the
unordered reading of the index sum: conditioning on the restricted points
is exactly the sum over index sets, and the spatial inner product is
replaced by its path expectation (see docs/representation.md for the
derivation).  In importance mode the point locations are tilted by the
temporal kernel and every eta factor collapses to the constant
eta_mass(t, s)/(t s), which removes the eta-factor variance entirely.

The white-in-time representation averages over linear-Poisson jump times,
with both paths evaluated at the same times, and reports e^{t} mean(V).

One streaming engine, given a count law for K and a point law, runs all
estimators.  Replicates are processed in fixed-size chunks whose
generators are keyed by (seed, stream tag, chunk index).  Each chunk, in
its worker thread, reduces its values to a small summary (sums per batch
and per order drawn), which keeps its N - floor(0.999 (N - 1)) largest
|v| so that the 0.999 quantile and the maximum of |v| stay exact.
Summaries are merged in chunk order, so output is bit-identical for a
given config whatever the number of workers, and memory is O(chunk +
replicates/1000).  When the initial condition is constant its w-product
is factored out of the replicate average, which keeps the bilinear
scaling u0 -> c u0 exact at fixed seed.
Standard errors come from ``BATCHES`` contiguous np.array_split batch
means (robust under the heavy-tailed replicate values that uniform mode
and the Riesz kernel produce); the naive per-replicate standard error is
also reported in diagnostics.  The estimate restricted to {K = n} is the
order-n chaos term, so every order the run draws gets its own mean,
stderr and count, and these orders sum to the estimate.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .chaos_oracle import QueryPoint
from .errors import DomainError, NumericError
from .gaussian_paths import brownian_batch_nd
from .kernels import (
    Constant,
    SpatialKernel,
    TemporalKernel,
    ZeroKernel,
    initial_field,
    require_kernel_dim,
)
from .point_process import TEMPORAL_IMPORTANCE, UNIFORM, sample_eta_tilted

__all__ = [
    "EstimatorConfig",
    "MomentEstimate",
    "estimate_second_moment_fractional",
    "estimate_second_moment_white",
    "estimate_order_contribution",
    "estimate_inner_product_mc",
]

CHUNK_SIZE = 1 << 16

# batch means behind every reported stderr
BATCHES = 32

_STREAM_FRACTIONAL = 1
_STREAM_WHITE = 2
_STREAM_ORDER = 3
_STREAM_INNER = 4

# Singular kernel evaluations (Riesz exactly at the origin) have
# probability zero; affected replicates are redrawn wholesale.
_REDRAW_CAP = 64

# level of the abs_replicate_q999 diagnostic
_Q999 = 0.999


@dataclass(frozen=True)
class EstimatorConfig:
    """Replication plan for the Monte Carlo estimators.

    ``workers`` caps chunk-level parallelism (0 means machine
    parallelism); results do not depend on it.
    """

    replicates: int
    seed: int
    mode: str = UNIFORM
    workers: int = 1

    def __post_init__(self):
        if self.replicates < BATCHES:
            raise DomainError(
                f"replicates ({self.replicates}) must be >= the stderr batch_count ({BATCHES})"
            )
        if self.mode not in (UNIFORM, TEMPORAL_IMPORTANCE):
            raise DomainError(f"unknown mode {self.mode!r}")
        if self.workers < 0:
            raise DomainError(f"workers must be nonnegative, got {self.workers}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {self.seed}")

    @property
    def effective_workers(self) -> int:
        return self.workers if self.workers > 0 else (os.cpu_count() or 1)


@dataclass
class MomentEstimate:
    """Point estimate with uncertainty and per-chaos-order breakdown.

    ``per_order`` maps n to (mean contribution, stderr, replicate count
    with K = n) for every n from 0 to the largest K the run drew; the
    contributions sum to ``value`` and the counts to ``replicates_used``.
    """

    value: float
    stderr: float
    replicates_used: int
    per_order: dict
    diagnostics: dict = field(default_factory=dict)


def _chunk_rng(seed: int, stream: int, chunk_idx: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(stream, chunk_idx))
    return np.random.Generator(np.random.PCG64(ss))


def _batch_bounds(n: int, batch_count: int) -> np.ndarray:
    """Start of each np.array_split(values, batch_count) batch, then n."""
    each, extra = divmod(n, batch_count)
    return np.cumsum([0] + [each + 1] * extra + [each] * (batch_count - extra))


def _q999_position(n: int) -> tuple[int, float]:
    """Lower rank and weight of np.quantile(a, 0.999) for n >= 2 values,
    by numpy's linear-method arithmetic, operation for operation."""
    virtual = n * _Q999 + (1.0 - _Q999) - 1.0
    lower = math.floor(virtual)
    return lower, virtual - lower


def _largest(a: np.ndarray, keep: int) -> np.ndarray:
    if a.size <= keep:
        return a
    # a copy: a slice would keep the whole partitioned array alive
    return np.partition(a, a.size - keep)[a.size - keep :].copy()


@dataclass
class _Summary:
    """Reduction of n consecutive replicate values.

    Row i of ``batch_sums`` and ``order_sums`` is batch ``first_batch + i``
    of the run's np.array_split layout: ``batch_sums`` sums all its values,
    column K of ``order_sums`` those with K points, for every K up to the
    largest drawn so far.  ``m2`` sums squared deviations from the values'
    own mean; ``top`` holds as many of the largest |v| as the run's 0.999
    quantile needs.
    """

    batch_sums: np.ndarray
    order_sums: np.ndarray
    order_counts: np.ndarray
    top: np.ndarray = field(default_factory=lambda: np.empty(0))
    first_batch: int = 0
    n: int = 0
    sum_abs: float = 0.0
    m2: float = 0.0
    hits: int = 0

    def absorb(self, part: _Summary, keep: int) -> None:
        """Append the summary of the values that directly follow these."""
        n = self.n + part.n
        # pairwise update of the centred moment (Chan, Golub and LeVeque)
        delta = part.mean() - (self.mean() if self.n else 0.0)
        self.m2 += part.m2 + delta * delta * (self.n * part.n / n)
        self.n = n
        self.sum_abs += part.sum_abs
        row = part.first_batch - self.first_batch
        rows = slice(row, row + part.batch_sums.size)
        self.batch_sums[rows] += part.batch_sums
        orders = part.order_counts.size
        if orders > self.order_counts.size:
            wider = orders - self.order_counts.size
            self.order_sums = np.pad(self.order_sums, ((0, 0), (0, wider)))
            self.order_counts = np.pad(self.order_counts, (0, wider))
        self.order_sums[rows, :orders] += part.order_sums
        self.order_counts[:orders] += part.order_counts
        self.top = _largest(np.concatenate((self.top, part.top)), keep)
        self.hits += part.hits

    def _sums(self, order) -> np.ndarray:
        return self.batch_sums if order is None else self.order_sums[:, order]

    def mean(self, order=None) -> float:
        """Mean of v times [K = order], or of v for the default."""
        return float(self._sums(order).sum()) / self.n

    def batch_stderr(self, order=None) -> float:
        """Batch-means standard error of ``mean(order)``."""
        means = self._sums(order) / np.diff(_batch_bounds(self.n, self.batch_sums.size))
        return float(np.std(means, ddof=1) / math.sqrt(means.size))


def _stream(cfg: EstimatorConfig, stream: int, draw_counts, evaluate, v0=0.0) -> _Summary:
    """Summary of cfg.replicates replicate values, folded chunk by chunk.

    ``draw_counts(rng, size)`` gives each replicate's point count K.  Those
    with K = 0 take the value v0; the others are evaluated by
    ``evaluate(K, g, rng)`` in groups of equal K, in increasing K.  Chunks
    are summarised in worker threads and merged in chunk order, with at
    most two chunks per worker in flight.
    """
    total = cfg.replicates
    bounds = _batch_bounds(total, BATCHES)
    keep = total - _q999_position(total)[0]

    def summarise(idx: int, start: int) -> _Summary:
        size = min(CHUNK_SIZE, total - start)
        rng = _chunk_rng(cfg.seed, stream, idx)
        counts = draw_counts(rng, size)
        order_counts = np.bincount(counts)
        first, last = np.searchsorted(bounds, [start, start + size - 1], side="right") - 1
        cuts = np.concatenate(([0], bounds[first + 1 : last + 1] - start))
        # pairwise sums, as np.sum gives: a sequential sum (np.bincount
        # with weights) drifts enough to move the batch-means stderr
        order_sums = np.zeros((cuts.size, order_counts.size))
        v = np.empty(size)
        hits = 0
        for kk in np.flatnonzero(order_counts):
            drew = counts == kk
            if kk == 0:
                v[drew] = v0
            else:
                rest, h = _with_redraw(evaluate, int(kk), int(order_counts[kk]), rng)
                v[drew] = rest
                hits += h
            order_sums[:, kk] = np.add.reduceat(np.where(drew, v, 0.0), cuts)
        abs_v = np.abs(v)
        return _Summary(
            batch_sums=np.add.reduceat(v, cuts),
            order_sums=order_sums,
            order_counts=order_counts,
            top=_largest(abs_v, keep),
            first_batch=int(first),
            n=size,
            sum_abs=float(np.sum(abs_v)),
            m2=float(np.sum(np.square(v - np.mean(v)))),
            hits=hits,
        )

    acc = _Summary(np.zeros(BATCHES), np.zeros((BATCHES, 0)), np.zeros(0, dtype=np.intp))
    workers = cfg.effective_workers
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for idx, start in enumerate(range(0, total, CHUNK_SIZE)):
            pending.append(pool.submit(summarise, idx, start))
            if len(pending) == 2 * workers:
                acc.absorb(pending.popleft().result(), keep)
        for fut in pending:
            acc.absorb(fut.result(), keep)
    return acc


def _with_redraw(evaluate, kk: int, g: int, rng: np.random.Generator):
    """Evaluate g replicates, redrawing any that come back non-finite."""
    rest = evaluate(kk, g, rng)
    hits = 0
    for _ in range(_REDRAW_CAP):
        bad = ~np.isfinite(rest)
        n_bad = int(np.count_nonzero(bad))
        if n_bad == 0:
            return rest, hits
        hits += n_bad
        rest[bad] = evaluate(kk, n_bad, rng)
    raise NumericError("persistent singular kernel evaluations; check inputs")


def _estimate(summary: _Summary, scale, wfac, variance_warning=None) -> MomentEstimate:
    """Statistics for estimates of the form wfac * scale * mean(v).

    ``wfac`` is the factored-out constant w-product (None when the w
    factors already sit inside v); ``scale`` the exponential prefactor.
    """
    amp = 1.0 if wfac is None else wfac
    n = summary.n
    value = amp * (scale * summary.mean())
    naive = abs(amp) * (scale * (math.sqrt(summary.m2 / (n - 1)) / math.sqrt(n)))
    per_order = {
        order: (
            amp * (scale * summary.mean(order)),
            abs(amp) * (scale * summary.batch_stderr(order)),
            int(summary.order_counts[order]),
        )
        for order in range(summary.order_counts.size)
    }
    # np.quantile over the scaled |v|: scaling is monotone, so its order
    # statistics are the scaled ones; then numpy's linear interpolation
    lower, gamma = _q999_position(n)
    below, above = (float(a) for a in np.sort(summary.top)[:2] * (abs(amp) * scale))
    diff = above - below
    q999 = above - diff * (1 - gamma) if gamma >= 0.5 else below + diff * gamma
    sum_sq = summary.m2 + n * summary.mean() ** 2
    return MomentEstimate(
        value=value,
        stderr=abs(amp) * (scale * summary.batch_stderr()),
        replicates_used=n,
        per_order=per_order,
        diagnostics={
            "max_abs_replicate": float(summary.top.max() * (abs(amp) * scale)),
            "abs_replicate_q999": q999,
            "effective_sample_size": (
                summary.sum_abs * summary.sum_abs / sum_sq if sum_sq > 0.0 else float(n)
            ),
            "naive_stderr": naive,
            "singular_hits": summary.hits,
            "variance_warning": variance_warning,
        },
    )


def _degenerate_estimate(value: float, cfg: EstimatorConfig) -> MomentEstimate:
    return MomentEstimate(
        value=value,
        stderr=0.0,
        replicates_used=cfg.replicates,
        per_order={0: (value, 0.0, cfg.replicates)},
        diagnostics={
            "max_abs_replicate": abs(value),
            "abs_replicate_q999": abs(value),
            "effective_sample_size": float(cfg.replicates),
            "naive_stderr": 0.0,
            "singular_hits": 0,
            "variance_warning": None,
        },
    )


def _variance_warning(k: TemporalKernel, f, mode: str):
    # per-point eta factor has infinite second moment near the diagonal
    # when 2(2H-2) <= -1, i.e. H <= 3/4, in uniform mode
    if mode == UNIFORM and k.hurst <= 0.75 and not isinstance(f, ZeroKernel):
        return (
            "uniform mode with hurst <= 0.75: the temporal factor has "
            "infinite variance near the singular diagonal; importance mode "
            "removes it"
        )
    return None


def _value_at_max(paths: np.ndarray, times: np.ndarray, start: np.ndarray):
    """Path position at each row's latest time, plus that time."""
    idx = np.argmax(times, axis=1)
    pos = start[None, :] + np.take_along_axis(paths, idx[:, None, None], axis=1).squeeze(axis=1)
    t_star = np.take_along_axis(times, idx[:, None], axis=1)[:, 0]
    return pos, t_star


def _fractional_points(t: float, s: float, k: TemporalKernel, mode: str):
    """Point law of the fractional representation: (g, kk, rng) -> taus and
    rhos of shape (g, kk), and the eta product of each row."""
    eta_const = k.mass(t, s) / (t * s)

    def points(g, kk, rng):
        if mode == UNIFORM:
            pts = rng.uniform(0.0, 1.0, size=(g, kk, 2))
            taus, rhos = t * pts[..., 0], s * pts[..., 1]
            # eta without the diagonal guard: exact hits give inf and are redrawn
            with np.errstate(divide="ignore"):
                eta = k.alpha_h * np.abs((t - taus) - (s - rhos)) ** (2.0 * k.hurst - 2.0)
            return taus, rhos, np.prod(eta, axis=1)
        pts = sample_eta_tilted(t, s, k, g * kk, rng)
        return pts[:, 0].reshape(g, kk), pts[:, 1].reshape(g, kk), eta_const**kk

    return points


def _evaluator(t: float, s: float, x, y, f: SpatialKernel, u0, points):
    """(evaluate, wfac) for replicates whose paths start at x and y.

    ``evaluate(kk, g, rng)`` gives the values of g replicates with kk
    points each, whose elapsed times and temporal weight come from
    ``points(g, kk, rng)``.  The values leave out the w-product wfac = c*c
    when u0 is the constant c; otherwise wfac is None.
    """
    d = x.shape[0]
    offset = x - y
    wfac = u0.value * u0.value if isinstance(u0, Constant) else None

    def evaluate(kk, g, rng):
        taus, rhos, weight = points(g, kk, rng)
        w1 = brownian_batch_nd(taus, d, rng)
        w2 = brownian_batch_nd(rhos, d, rng)
        rest = weight * np.prod(f.values(offset[None, None, :] + w1 - w2), axis=1)
        if wfac is None:
            b1_star, tau_star = _value_at_max(w1, taus, x)
            b2_star, rho_star = _value_at_max(w2, rhos, y)
            rest = rest * initial_field(u0, t - tau_star, b1_star) * initial_field(
                u0, s - rho_star, b2_star
            )
        return rest

    return evaluate, wfac


def estimate_second_moment_fractional(
    q, k: TemporalKernel, f: SpatialKernel, u0, cfg: EstimatorConfig
) -> MomentEstimate:
    """Second moment E[u_{t,x} u_{s,y}] via the planar-Poisson representation."""
    t, s = q.t, q.s
    require_kernel_dim(f, q.dim)
    w_pair = float(initial_field(u0, t, q.x_arr)) * float(initial_field(u0, s, q.y_arr))
    if t * s == 0.0:
        return _degenerate_estimate(w_pair, cfg)
    points = _fractional_points(t, s, k, cfg.mode)
    evaluate, wfac = _evaluator(t, s, q.x_arr, q.y_arr, f, u0, points)
    v0 = w_pair if wfac is None else 1.0
    summary = _stream(
        cfg, _STREAM_FRACTIONAL, lambda rng, size: rng.poisson(t * s, size=size), evaluate, v0
    )
    return _estimate(summary, math.exp(t * s), wfac, _variance_warning(k, f, cfg.mode))


def estimate_second_moment_white(
    t: float, x, y, f: SpatialKernel, u0, cfg: EstimatorConfig
) -> MomentEstimate:
    """Second moment at equal times via the linear-Poisson representation."""
    q = QueryPoint(t=t, s=t, x=x, y=y)
    require_kernel_dim(f, q.dim)
    x, y = q.x_arr, q.y_arr
    w_pair = float(initial_field(u0, t, x)) * float(initial_field(u0, t, y))
    if t == 0.0:
        return _degenerate_estimate(w_pair, cfg)

    def shared_times(g, kk, rng):
        times = rng.uniform(0.0, t, size=(g, kk))
        return times, times, 1.0

    evaluate, wfac = _evaluator(t, t, x, y, f, u0, shared_times)
    v0 = w_pair if wfac is None else 1.0
    summary = _stream(
        cfg, _STREAM_WHITE, lambda rng, size: rng.poisson(t, size=size), evaluate, v0
    )
    return _estimate(summary, math.exp(t), wfac)


def estimate_order_contribution(
    n: int, q, k: TemporalKernel, f: SpatialKernel, u0, cfg: EstimatorConfig
) -> tuple[float, float]:
    """Direct estimate of a_n/n! with exactly n points per replicate.

    By conditional uniformity the order-n term equals (t s)^n / n! times
    the expectation of the fractional per-replicate integrand at n i.i.d.
    points, so no replicates are wasted on other counts.  Returns
    (mean, stderr).
    """
    if n < 0:
        raise DomainError(f"order must be nonnegative, got {n}")
    require_kernel_dim(f, q.dim)
    t, s = q.t, q.s
    w_pair = float(initial_field(u0, t, q.x_arr)) * float(initial_field(u0, s, q.y_arr))
    if n == 0:
        return w_pair, 0.0
    if t * s == 0.0:
        return 0.0, 0.0
    points = _fractional_points(t, s, k, cfg.mode)
    evaluate, wfac = _evaluator(t, s, q.x_arr, q.y_arr, f, u0, points)
    summary = _stream(cfg, _STREAM_ORDER, lambda rng, size: np.full(size, n), evaluate)
    est = _estimate(summary, (t * s) ** n / math.factorial(n), wfac)
    return est.value, est.stderr


def estimate_inner_product_mc(
    t_times, s_times, q, f: SpatialKernel, u0, cfg: EstimatorConfig
) -> tuple[float, float]:
    """Monte Carlo value of the spatial inner product at fixed elapsed times.

    Averages w(t - t*, B1_{t*}) w(s - s*, B2_{s*}) prod_j f(B1_{t_j} -
    B2_{s_j}) over path draws; the closed-form route is its oracle for the
    heat kernel with constant data.  Returns (mean, stderr).
    """
    t_times, s_times = q.elapsed_times(t_times, s_times)
    require_kernel_dim(f, q.dim)
    w_pair = float(initial_field(u0, q.t, q.x_arr)) * float(initial_field(u0, q.s, q.y_arr))
    if t_times.size == 0:
        return w_pair, 0.0
    n = t_times.size

    def fixed_times(g, kk, rng):
        return np.broadcast_to(t_times, (g, kk)), np.broadcast_to(s_times, (g, kk)), 1.0

    evaluate, wfac = _evaluator(q.t, q.s, q.x_arr, q.y_arr, f, u0, fixed_times)
    summary = _stream(cfg, _STREAM_INNER, lambda rng, size: np.full(size, n), evaluate)
    est = _estimate(summary, 1.0, wfac)
    return est.value, est.stderr
