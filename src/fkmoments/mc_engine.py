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

With constant initial data V depends on the paths only through the
differences D_j = x - y + B1_{tau_j} - B2_{rho_j}.  Their covariance,
min(tau_j, tau_k) + min(rho_j, rho_k), equals min(tau_j + rho_j, tau_k +
rho_k) whenever a row's times are co-monotone (tau_j <= tau_k exactly
when rho_j <= rho_k).  The differences then have the law of one Brownian
path from x - y read at tau + rho, and the engine draws that one path:
d normals per point instead of 2d.  It does so in the two cases where
rows are co-monotone by construction, shared times (the white
representation) and rows of one point (K = 1); every other row draws
both paths.

One streaming engine, given a count law for K and a point law, runs all
estimators.  It never draws K replicate by replicate: once per run it
draws a count table, the number of replicates of each stderr batch with
K = 0, 1, 2, ... (:func:`fkmoments.point_process.poisson_count_table`;
the fixed-order routes put every replicate in one column).  The K = 0
replicates all take one known value and are never materialised: they
enter the sums, the centred second moment and the largest |v| as counted
copies.  Each K >= 1 group is evaluated in slices of at most
``CHUNK_SIZE`` points, whose generators are keyed by (seed, stream tag,
slice index), and its values are dealt to the batches in order.  The
replicates of a batch are i.i.d., so every statistic has the law that
per-replicate counts would give it.  Each slice, in its worker thread,
reduces its values to a small summary (sums per batch and per order),
which keeps its N - floor(0.999 (N - 1)) largest |v| so that the 0.999
quantile and the maximum of |v| stay exact.  Summaries are merged in
slice order, so output is bit-identical for a given config whatever the
number of workers, and memory is O(slice + replicates/1000).  When
the initial condition is constant its w-product is factored out of the
replicate average, which keeps the bilinear scaling u0 -> c u0 exact at
fixed seed.
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
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
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
    require_integer,
    require_kernel_dim,
)
from .point_process import (
    TEMPORAL_IMPORTANCE,
    UNIFORM,
    fixed_count_table,
    poisson_count_table,
    sample_eta_tilted,
)

__all__ = [
    "EstimatorConfig",
    "MomentEstimate",
    "estimate_second_moment_fractional",
    "estimate_second_moment_white",
    "estimate_order_contribution",
    "estimate_inner_product_mc",
]

# points per slice of a K group
CHUNK_SIZE = 1 << 14

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

# one slice pool per worker count, shared by every call in the process
_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _pool(workers: int) -> ThreadPoolExecutor:
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = _POOLS[workers] = ThreadPoolExecutor(workers, "fkmoments-slice")
        return pool


def _forget_pools() -> None:
    """Drop the parent's pools in a forked child, whose copies have no
    threads: a call there builds its own."""
    global _POOLS_LOCK
    _POOLS.clear()
    _POOLS_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pools)


@dataclass(frozen=True)
class EstimatorConfig:
    """Replication plan for the Monte Carlo estimators.

    ``workers`` caps slice-level parallelism (0 means machine
    parallelism); results do not depend on it.
    """

    replicates: int
    seed: int
    mode: str = UNIFORM
    workers: int = 1

    def __post_init__(self):
        for name in ("replicates", "seed", "workers"):
            require_integer(name, getattr(self, name))
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


def _chunk_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(stream, index))
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


def _pooled_m2(n_a: int, mean_a: float, m2_a: float, n_b: int, mean_b: float, m2_b: float) -> float:
    """Centred second moment of two pooled samples (Chan, Golub and LeVeque)."""
    delta = mean_b - mean_a
    return m2_a + m2_b + delta * delta * (n_a * n_b / (n_a + n_b))


@dataclass
class _Summary:
    """Reduction of n replicate values.

    Row i, column K of ``order_sums`` sums the values with K points that
    fall in batch i of the run's np.array_split layout, and
    ``order_counts`` counts the values with each K; the run's count table
    fixes both widths.  ``m2`` sums squared deviations from the values'
    own mean; ``top`` holds as many of the largest |v| as the run's 0.999
    quantile needs.
    """

    order_sums: np.ndarray
    order_counts: np.ndarray
    top: np.ndarray
    n: int
    sum_abs: float
    m2: float
    hits: int

    def absorb(self, part: _Summary, keep: int) -> None:
        """Add the summary of further values of the run."""
        mean = self.mean() if self.n else 0.0
        self.m2 = _pooled_m2(self.n, mean, self.m2, part.n, part.mean(), part.m2)
        self.n += part.n
        self.sum_abs += part.sum_abs
        self.order_sums += part.order_sums
        self.order_counts += part.order_counts
        self.top = _largest(np.concatenate((self.top, part.top)), keep)
        self.hits += part.hits

    def _sums(self, order) -> np.ndarray:
        return self.order_sums.sum(axis=1) if order is None else self.order_sums[:, order]

    def mean(self, order=None) -> float:
        """Mean of v times [K = order], or of v for the default."""
        return float(self._sums(order).sum()) / self.n

    def batch_stderr(self, order=None) -> float:
        """Batch-means standard error of ``mean(order)``."""
        means = self._sums(order) / np.diff(_batch_bounds(self.n, self.order_sums.shape[0]))
        return float(np.std(means, ddof=1) / math.sqrt(means.size))


def _stream(cfg: EstimatorConfig, stream: int, count_table, evaluate, v0=0.0) -> _Summary:
    """Summary of cfg.replicates replicate values, folded slice by slice.

    ``count_table(rng, sizes)`` draws once, from generator 0 of the
    stream, how many replicates of each stderr batch have K = 0, 1, 2, ...
    points (see :mod:`fkmoments.point_process`).  Replicates with K = 0
    all take the value v0 and are never materialised.  Each group of
    equal K >= 1 is evaluated in slices of at most CHUNK_SIZE points (one
    replicate when K alone exceeds it) by ``evaluate(K, g, rng)``, and
    its values are dealt to the batches in order.  Slices run in
    increasing K, then position, with generators 1, 2, ...  The
    replicates of a batch are i.i.d., so every statistic has the law it
    would have with the counts drawn replicate by replicate.  Slices are
    summarised in worker threads and merged in order, with at most two
    slices per worker in flight.

    The worker threads belong to a pool per worker count that lives as
    long as the process: the first call with a given count starts it, and
    later calls, from any thread, share it, so a worker's heap stays warm
    between calls.  A forked child drops the pools it inherits, whose
    threads did not survive the fork, and starts its own.  When a slice
    raises, the call cancels its queued slices and waits for its running
    ones before it raises.
    """
    total = cfg.replicates
    keep = total - _q999_position(total)[0]
    table = count_table(_chunk_rng(cfg.seed, stream, 0), np.diff(_batch_bounds(total, BATCHES)))
    # batch i holds positions [ends[i, K] - table[i, K], ends[i, K]) of group K
    ends = np.cumsum(table, axis=0)

    def part(kk, sums, n, m2, top, sum_abs, hits=0) -> _Summary:
        order_sums = np.zeros(table.shape)
        order_sums[:, kk] = sums
        order_counts = np.zeros(table.shape[1], dtype=np.intp)
        order_counts[kk] = n
        return _Summary(order_sums, order_counts, top, n, sum_abs, m2, hits)

    def slices():
        for kk in range(1, table.shape[1]):
            size, step = int(ends[-1, kk]), max(1, CHUNK_SIZE // kk)
            for start in range(0, size, step):
                yield kk, start, min(step, size - start)

    def summarise(idx: int, kk: int, start: int, g: int) -> _Summary:
        values, hits = _with_redraw(evaluate, kk, g, _chunk_rng(cfg.seed, stream, idx))
        # each batch's share of the slice; pairwise sums, as np.sum gives:
        # a sequential sum (np.bincount with weights) drifts enough to
        # move the batch-means stderr
        cuts = np.clip(ends[:, kk] - table[:, kk] - start, 0, g)
        held = np.clip(ends[:, kk] - start, 0, g) > cuts
        sums = np.zeros(table.shape[0])
        sums[held] = np.add.reduceat(values, cuts[held])
        abs_values = np.abs(values)
        m2 = float(np.sum(np.square(values - np.mean(values))))
        return part(kk, sums, g, m2, _largest(abs_values, keep), float(np.sum(abs_values)), hits)

    # K = 0 joins as n0 copies of v0, with zero spread
    n0 = int(ends[-1, 0])
    acc = part(0, table[:, 0] * v0, n0, 0.0, np.full(min(n0, keep), abs(v0)), n0 * abs(v0))
    workers = cfg.effective_workers
    pool = _pool(workers)
    pending = deque()
    try:
        for idx, piece in enumerate(slices(), start=1):
            pending.append(pool.submit(summarise, idx, *piece))
            if len(pending) == 2 * workers:
                acc.absorb(pending.popleft().result(), keep)
        while pending:
            acc.absorb(pending.popleft().result(), keep)
    except BaseException:
        # no slice of a failed call outlives it
        for fut in pending:
            fut.cancel()
        wait(pending)
        raise
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


def _column_product(a: np.ndarray) -> np.ndarray:
    """np.prod(a, axis=1), column by column: numpy multiplies in this order."""
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        out *= a[:, j]
    return out


def _value_at_max(paths: np.ndarray, times: np.ndarray, start: np.ndarray):
    """Path position at each row's latest time, plus that time.  Ties go to
    the first such column, as ``argmax`` does.  The pick runs column by
    column on coordinate-major rows, returned as their (g, d) view."""
    t_star = times[:, 0].copy()
    pos = paths[:, 0].T.copy()
    for j in range(1, times.shape[1]):
        later = times[:, j] > t_star
        np.copyto(t_star, times[:, j], where=later)
        np.copyto(pos, paths[:, j].T, where=later)
    pos += start[:, None]
    return pos.T, t_star


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
            return taus, rhos, _column_product(eta)
        pts = sample_eta_tilted(t, s, k, g * kk, rng)
        return pts[:, 0].reshape(g, kk), pts[:, 1].reshape(g, kk), eta_const**kk

    return points


def _evaluator(t: float, s: float, x, y, f: SpatialKernel, u0, points):
    """(evaluate, wfac) for replicates whose paths start at x and y.

    ``evaluate(kk, g, rng)`` gives the values of g replicates with kk
    points each, whose elapsed times and temporal weight come from
    ``points(g, kk, rng)``.  The values leave out the w-product wfac = c*c
    when u0 is the constant c; otherwise wfac is None.  With constant u0
    and co-monotone rows, min(tau_j, tau_k) + min(rho_j, rho_k) =
    min(tau_j + rho_j, tau_k + rho_k), so B1_tau - B2_rho is drawn as one
    d-dimensional path read at tau + rho.  Two cases are co-monotone by
    construction: shared times (``rhos is taus``) and kk = 1.  Otherwise,
    shared times draw the two paths as the halves of one 2d-dimensional
    path in one call, and other times draw each path on its own.
    """
    d = x.shape[0]
    offset = x - y
    wfac = u0.value * u0.value if isinstance(u0, Constant) else None

    def evaluate(kk, g, rng):
        taus, rhos, weight = points(g, kk, rng)
        if wfac is not None and (rhos is taus or kk == 1):
            # co-monotone rows: w1 is B1_tau - B2_rho, one path at tau + rho
            w1 = brownian_batch_nd(taus + rhos, d, rng)
            w2 = None
        elif rhos is taus:
            w = brownian_batch_nd(taus, 2 * d, rng)
            w1, w2 = w[..., :d], w[..., d:]
        else:
            w1 = brownian_batch_nd(taus, d, rng)
            w2 = brownian_batch_nd(rhos, d, rng)
        # offset + w1 - w2 into coordinate-major memory, so that each numpy
        # loop, here and in the kernel, runs over rows rather than over d
        diff = np.add(w1.T, offset[:, None, None], out=np.empty(w1.T.shape))
        if w2 is not None:
            diff -= w2.T
        rest = weight * _column_product(f.values(diff.T))
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
    summary = _stream(cfg, _STREAM_FRACTIONAL, poisson_count_table(t * s), evaluate, v0)
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
    summary = _stream(cfg, _STREAM_WHITE, poisson_count_table(t), evaluate, v0)
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
    require_integer("order", n)
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
    summary = _stream(cfg, _STREAM_ORDER, fixed_count_table(n), evaluate)
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
    summary = _stream(cfg, _STREAM_INNER, fixed_count_table(n), evaluate)
    est = _estimate(summary, 1.0, wfac)
    return est.value, est.stderr
