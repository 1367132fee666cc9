"""Property-check suites surfaced by the ``verify`` CLI subcommand.

Each check draws with a pinned seed and reports a named statistic against
a fixed threshold, so the suites are deterministic and CI-safe.
Statistical significance levels are fixed at 1e-3.  The Poisson law is
checked on the engine's own count table as well as on drawn points, and
the integral identity runs the replicate engine itself, so it checks the
engine's per-order bookkeeping against exact hypercube integrals.  The
white limit checks the fractional estimator against the white-noise one
as H -> 1/2, where eta tends to the diagonal delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chaos_oracle import QueryPoint, inner_product_closed_form
from .kernels import Constant, HeatKernel, PoissonKernel, TemporalKernel, ZeroKernel
from .mc_engine import (
    _STREAM_FRACTIONAL,
    BATCHES,
    EstimatorConfig,
    _batch_bounds,
    _chunk_rng,
    _estimate,
    _fractional_points,
    _stream,
    estimate_inner_product_mc,
    estimate_second_moment_fractional,
    estimate_second_moment_white,
)
from .point_process import TEMPORAL_IMPORTANCE, UNIFORM, poisson_count_table

__all__ = ["CheckResult", "SUITES", "run_suite", "available_suites"]

ALPHA = 1e-3
DEFAULT_SEED = 42


@dataclass
class CheckResult:
    suite: str
    name: str
    statistic: float
    threshold: float
    passed: bool
    comparison: str = "<="


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _rectangle_counts(points, owner, realizations, a, b, c, d):
    """Per-realization counts of ``points`` in (a, b] x (c, d]; point i
    belongs to realization ``owner[i]``."""
    x, y = points[:, 0], points[:, 1]
    inside = (x > a) & (x <= b) & (y > c) & (y <= d)
    return np.bincount(owner[inside], minlength=realizations)


def _chi2_gof_pvalue(observed: np.ndarray, lam: float, top: int = 3) -> float:
    """Chi-square goodness of fit of count frequencies (K = 0, 1, ...) to
    Poisson(lam), with counts >= ``top`` pooled into one cell."""
    # scipy is imported only here and in check_conditional_uniformity, so
    # importing the package or its CLI does not load it
    from scipy import stats

    observed = np.append(observed[:top], observed[top:].sum())
    observed = np.pad(observed, (0, top + 1 - observed.size))
    pmf = stats.poisson.pmf(np.arange(top), lam)
    expected = np.append(pmf, 1.0 - pmf.sum()) * observed.sum()
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    return float(stats.chi2.sf(chi2, df=top))


def check_poisson_law(seed: int = DEFAULT_SEED, realizations: int = 100_000):
    """Counts over a rectangle are Poisson(area); disjoint counts decorrelate.

    The points of all rate-1 realizations on [0,1]^2 are drawn in one array.
    """
    rng = _rng(seed)
    totals = rng.poisson(1.0, size=realizations)
    points = rng.uniform(0.0, 1.0, size=(int(totals.sum()), 2))
    owner = np.repeat(np.arange(realizations), totals)
    c1 = _rectangle_counts(points, owner, realizations, 0.0, 0.5, 0.0, 0.5)
    c2 = _rectangle_counts(points, owner, realizations, 0.5, 1.0, 0.5, 1.0)
    pvalue = _chi2_gof_pvalue(np.bincount(c1), 0.25)
    corr = float(np.corrcoef(c1, c2)[0, 1])
    return [
        CheckResult("poisson-law", "chi-square-gof-pvalue", pvalue, ALPHA, pvalue > ALPHA, ">"),
        CheckResult("poisson-law", "disjoint-count-correlation", abs(corr), 0.02, abs(corr) < 0.02, "<"),
    ]


def _engine_count_table(seed: int, replicates: int) -> np.ndarray:
    """The count table a fractional run draws at ts = 0.25: one row per
    stderr batch, from the run's generator 0."""
    sizes = np.diff(_batch_bounds(replicates, BATCHES))
    return poisson_count_table(0.25)(_chunk_rng(seed, _STREAM_FRACTIONAL, 0), sizes)


def check_count_table(seed: int = DEFAULT_SEED, replicates: int = 400_000):
    """The replicate engine's count table is Poisson(ts) at the A6 query's
    ts = 0.25: the whole table a fractional run of ``replicates``
    replicates draws, one row per stderr batch."""
    pvalue = _chi2_gof_pvalue(_engine_count_table(seed, replicates).sum(axis=0), 0.25)
    return [CheckResult("poisson-law", "engine-count-table-pvalue", pvalue, ALPHA, pvalue > ALPHA, ">")]


def check_conditional_uniformity(
    seed: int = DEFAULT_SEED, samples: int = 100_000, t: float = 1.0, s: float = 0.7, n: int = 2
):
    """Given K = n restricted points, (t - tau, s - rho) are i.i.d. uniform
    under the replicate engine's uniform point law."""
    from scipy import stats

    rng = _rng(seed)
    hits = int(np.count_nonzero(rng.poisson(t * s, size=samples) == n))
    points = _fractional_points(t, s, TemporalKernel(hurst=0.75), UNIFORM)
    taus, rhos, _ = points(hits, n, rng)
    p_tau = float(stats.kstest((t - taus.ravel()) / t, "uniform").pvalue)
    p_rho = float(stats.kstest((s - rhos.ravel()) / s, "uniform").pvalue)
    return [
        CheckResult("conditional-uniformity", "ks-pvalue-first-coordinate", p_tau, ALPHA, p_tau > ALPHA, ">"),
        CheckResult("conditional-uniformity", "ks-pvalue-second-coordinate", p_rho, ALPHA, p_rho > ALPHA, ">"),
    ]


def hypercube_integrals(F, t: float, s: float, replicates: int, seed: int) -> dict:
    """n -> (value, stderr) of int_{[0,t]^n x [0,s]^n} F for n >= 1, as
    n! e^{ts} E[F(t - tau, s - rho) 1{K = n}] from one run of the replicate
    engine (Poisson(ts) counts, uniform points, batch-means stderr) with F
    as the replicate value; F maps two (g, n) arrays to g values.
    """
    cfg = EstimatorConfig(replicates=replicates, seed=seed)
    # the kernel only sets the point law's eta weight, which F replaces
    points = _fractional_points(t, s, TemporalKernel(hurst=0.75), UNIFORM)

    def evaluate(kk, g, rng):
        taus, rhos, _ = points(g, kk, rng)
        return F(t - taus, s - rhos)

    summary = _stream(cfg, _STREAM_FRACTIONAL, poisson_count_table(t * s), evaluate)
    per_order = _estimate(summary, math.exp(t * s), None).per_order
    return {
        n: (math.factorial(n) * value, math.factorial(n) * stderr)
        for n, (value, stderr, _) in per_order.items()
        if n >= 1
    }


def check_integral_identity(seed: int = DEFAULT_SEED, replicates: int = 1_000_000):
    """Hypercube integrals against their closed-form values, 3-sigma."""
    kernel = TemporalKernel(hurst=0.75)
    ones = hypercube_integrals(lambda ta, sa: np.ones(ta.shape[0]), 1.0, 1.0, replicates, seed)
    poly = hypercube_integrals(
        lambda ta, sa: np.prod(ta * sa, axis=1), 1.0, 1.0, replicates, seed + 1
    )
    eta = hypercube_integrals(
        lambda ta, sa: kernel.eta(1.0 - ta, 1.0 - sa)[:, 0], 1.0, 1.0, replicates, seed + 2
    )
    cases = [(f"constant-integrand-n{n}", ones[n], 1.0) for n in (1, 2, 3)]
    cases += [(f"separable-polynomial-n{n}", poly[n], 4.0 ** (-n)) for n in (1, 2, 3)]
    cases.append(("temporal-kernel-n1", eta[1], kernel.mass(1.0, 1.0)))
    results = []
    for name, (est, stderr), truth in cases:
        z = abs(est - truth) / stderr if stderr > 0 else math.inf
        results.append(CheckResult("integral-identity", name, z, 3.0, z <= 3.0))
    return results


def check_lemma2(seed: int = DEFAULT_SEED, replicates: int = 100_000):
    """Closed-form inner products match their Monte Carlo estimates, 3-sigma."""
    f = HeatKernel(dim=1, bandwidth=1.0)
    u0 = Constant(1.0)
    picker = _rng(seed)
    results = []
    for offset_label, xy in (("coincident", 0.0), ("offset", 1.0)):
        for n in (1, 2, 3):
            t_times = np.sort(picker.uniform(0.05, 1.0, size=n))
            s_times = np.sort(picker.uniform(0.05, 1.0, size=n))
            q = QueryPoint(t=1.0, s=1.0, x=(0.0,), y=(-xy,))
            closed = inner_product_closed_form(t_times, s_times, q, f, u0)
            cfg = EstimatorConfig(replicates=replicates, seed=seed + n)
            mc, stderr = estimate_inner_product_mc(t_times, s_times, q, f, u0, cfg)
            z = abs(mc - closed) / stderr if stderr > 0 else math.inf
            results.append(
                CheckResult("lemma2", f"inner-product-{offset_label}-n{n}", z, 3.0, z <= 3.0)
            )
    return results


def check_estimator_identities(seed: int = DEFAULT_SEED, replicates: int = 100_000):
    """Degenerate identities of the two moment estimators."""
    results = []
    q = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
    kernel = TemporalKernel(hurst=0.75)
    zero = ZeroKernel(dim=1)
    heat = HeatKernel(dim=1, bandwidth=1.0)
    cfg = EstimatorConfig(replicates=replicates, seed=seed)

    est = estimate_second_moment_fractional(q, kernel, zero, Constant(1.0), cfg)
    z = abs(est.value - 1.0) / est.stderr if est.stderr > 0 else math.inf
    results.append(CheckResult("estimator-identities", "zero-kernel-fractional", z, 3.0, z <= 3.0))

    west = estimate_second_moment_white(0.5, (0.0,), (0.0,), zero, Constant(1.0), cfg)
    z = abs(west.value - 1.0) / west.stderr if west.stderr > 0 else math.inf
    results.append(CheckResult("estimator-identities", "zero-kernel-white", z, 3.0, z <= 3.0))

    c = 1.7
    base = estimate_second_moment_fractional(q, kernel, heat, Constant(1.0), cfg)
    scaled = estimate_second_moment_fractional(q, kernel, heat, Constant(c), cfg)
    diff = abs(scaled.value - c * c * base.value)
    results.append(CheckResult("estimator-identities", "u0-scaling-bit-exact", diff, 0.0, diff == 0.0))

    q0 = QueryPoint(t=0.0, s=0.0, x=(0.3,), y=(-0.2,))
    est0 = estimate_second_moment_fractional(q0, kernel, heat, Constant(2.0), cfg)
    err = abs(est0.value - 4.0) + est0.stderr
    results.append(CheckResult("estimator-identities", "degenerate-time-exact", err, 0.0, err == 0.0))
    return results


def check_white_limit(seed: int = DEFAULT_SEED, replicates: int = 1_000_000):
    """At H = 0.5001 the importance-mode fractional estimator agrees with
    the white-noise estimator at t = s = 1, x = y = 0, within 4 sigma, for
    the heat and the Poisson kernel (the heat kernel's series gap there is
    about 3e-7).  Every estimator runs on its own seed, so the four runs
    are independent."""
    q = QueryPoint(t=1.0, s=1.0, x=(0.0,), y=(0.0,))
    kernel = TemporalKernel(hurst=0.5001)
    results = []
    for i, (label, f) in enumerate((("heat", HeatKernel(dim=1)), ("poisson", PoissonKernel(dim=1)))):
        frac_cfg = EstimatorConfig(replicates=replicates, seed=seed + 2 * i, mode=TEMPORAL_IMPORTANCE)
        white_cfg = EstimatorConfig(replicates=replicates, seed=seed + 2 * i + 1)
        frac = estimate_second_moment_fractional(q, kernel, f, Constant(1.0), frac_cfg)
        white = estimate_second_moment_white(1.0, (0.0,), (0.0,), f, Constant(1.0), white_cfg)
        z = abs(frac.value - white.value) / math.hypot(frac.stderr, white.stderr)
        results.append(CheckResult("white-limit", f"fractional-vs-white-{label}", z, 4.0, z <= 4.0))
    return results


SUITES = {
    "poisson-law": lambda seed: check_poisson_law(seed=seed) + check_count_table(seed=seed),
    "conditional-uniformity": check_conditional_uniformity,
    "integral-identity": check_integral_identity,
    "lemma2": check_lemma2,
    "estimator-identities": check_estimator_identities,
    "white-limit": check_white_limit,
}


def available_suites():
    return list(SUITES) + ["all"]


def run_suite(name: str, seed: int = DEFAULT_SEED):
    """Run one named suite, or all of them, returning CheckResults."""
    if name == "all":
        out = []
        for fn in SUITES.values():
            out.extend(fn(seed=seed))
        return out
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(available_suites())}")
    return SUITES[name](seed=seed)
