"""Acceptance criteria, one test per criterion, fixed seed 42.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line
per criterion; every tolerance is pinned here.
"""

import json
import math
import time


from click.testing import CliRunner

from fkmoments import (
    Constant,
    EstimatorConfig,
    HeatKernel,
    QueryPoint,
    TemporalKernel,
    ZeroKernel,
    alpha_n_quadrature,
    estimate_order_contribution,
    estimate_second_moment_fractional,
    estimate_second_moment_white,
    second_moment_series,
    truncation_tail,
    white_noise_order_term,
)
from fkmoments.cli import main as cli_main
from fkmoments.quadrature import eta_pair_rule
from fkmoments.verify import (
    check_conditional_uniformity,
    check_integral_identity,
    check_lemma2,
    check_poisson_law,
)

SEED = 42

# A6 configuration, shared by A6 and A9
Q6 = QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
K6 = TemporalKernel(0.75)
F6 = HeatKernel(dim=1, bandwidth=1.0)
U6 = Constant(1.0)

# oracle total for the A6 configuration, produced by the refinement-
# certified quadrature at tol 1e-5 and frozen here as the golden record
GOLDEN_A6_TOTAL = 1.1235476874500951


def report(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_a1_planar_poisson_law():
    start = time.perf_counter()
    checks = check_poisson_law(seed=SEED, realizations=100_000)
    elapsed = time.perf_counter() - start
    ok = all(c.passed for c in checks) and elapsed < 10.0
    detail = (
        f"gof pvalue={checks[0].statistic:.4g} (>1e-3), "
        f"|corr|={checks[1].statistic:.4g} (<0.02), {elapsed:.1f}s (<10s)"
    )
    report("A1 planar Poisson law", ok, detail)


def test_a2_conditional_uniformity():
    start = time.perf_counter()
    checks = check_conditional_uniformity(seed=SEED, samples=100_000, t=1.0, s=0.7, n=2)
    elapsed = time.perf_counter() - start
    ok = all(c.passed for c in checks) and elapsed < 10.0
    detail = (
        f"KS pvalues=({checks[0].statistic:.4g}, {checks[1].statistic:.4g}) "
        f"(>1e-3), {elapsed:.1f}s (<10s)"
    )
    report("A2 conditional uniformity", ok, detail)


def test_a3_integral_identity():
    start = time.perf_counter()
    checks = check_integral_identity(seed=SEED, replicates=1_000_000)
    elapsed = time.perf_counter() - start
    ok = all(c.passed for c in checks) and elapsed < 60.0
    worst = max(c.statistic for c in checks)
    report(
        "A3 hypercube integral identity",
        ok,
        f"{len(checks)} cases, worst |z|={worst:.2f} (<=3), {elapsed:.1f}s (<60s)",
    )


def test_a4_eta_mass_quadrature():
    start = time.perf_counter()
    worst = 0.0
    for hurst in (0.55, 0.75, 0.9):
        kernel = TemporalKernel(hurst)
        for t, s in ((1.0, 1.0), (1.0, 0.5), (0.3, 0.7)):
            diff = abs(kernel.mass(t, s) - eta_pair_rule(hurst, t, s, 8)[2].sum())
            worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 5.0
    report(
        "A4 eta mass closed form vs quadrature",
        ok,
        f"9 combinations, worst |diff|={worst:.3g} (<1e-6), {elapsed:.1f}s (<5s)",
    )


def test_a5_lemma2_equivalence():
    start = time.perf_counter()
    checks = check_lemma2(seed=SEED, replicates=100_000)
    elapsed = time.perf_counter() - start
    ok = all(c.passed for c in checks) and elapsed < 30.0
    worst = max(c.statistic for c in checks)
    report(
        "A5 inner-product closed form vs Monte Carlo",
        ok,
        f"n in {{1,2,3}} x two offsets, worst |z|={worst:.2f} (<=3), {elapsed:.1f}s (<30s)",
    )


def test_a6_end_to_end_fractional():
    start = time.perf_counter()
    series = second_moment_series(Q6, K6, F6, U6, n_max=3, tol=1e-5)
    cfg = EstimatorConfig(replicates=1_000_000, seed=SEED, mode="importance")
    est = estimate_second_moment_fractional(Q6, K6, F6, U6, cfg)
    elapsed = time.perf_counter() - start
    diff = abs(est.value - series.total)
    tolerance = 3.0 * est.stderr + series.tail_estimate
    golden_drift = abs(series.total - GOLDEN_A6_TOTAL)
    ok = diff <= tolerance and golden_drift < 5e-5 and elapsed < 300.0
    report(
        "A6 fractional estimator vs chaos oracle",
        ok,
        f"mc={est.value:.6f}+-{est.stderr:.2g}, oracle={series.total:.7f} "
        f"(golden {GOLDEN_A6_TOTAL:.7f}), |diff|={diff:.2e} <= {tolerance:.2e}, "
        f"{elapsed:.0f}s (<300s)",
    )


def test_a7_white_noise_representation():
    start = time.perf_counter()
    t = 0.5
    orders = [
        white_noise_order_term(n, t, (0.0,), (0.0,), F6, U6, 1e-5) for n in (1, 2, 3)
    ]
    oracle = 1.0 + sum(orders)
    tail = truncation_tail(orders)
    cfg = EstimatorConfig(replicates=1_000_000, seed=SEED)
    est = estimate_second_moment_white(t, (0.0,), (0.0,), F6, U6, cfg)
    elapsed = time.perf_counter() - start
    diff = abs(est.value - oracle)
    tolerance = 3.0 * est.stderr + tail
    ok = diff <= tolerance and elapsed < 180.0
    report(
        "A7 white-noise estimator vs simplex oracle",
        ok,
        f"mc={est.value:.6f}+-{est.stderr:.2g}, oracle={oracle:.7f}, "
        f"|diff|={diff:.2e} <= {tolerance:.2e}, {elapsed:.0f}s (<180s)",
    )


def test_a8_degenerate_identities():
    cfg = EstimatorConfig(replicates=100_000, seed=SEED)
    zero = ZeroKernel(dim=1)

    frac = estimate_second_moment_fractional(Q6, K6, zero, U6, cfg)
    ok_frac = abs(frac.value - 1.0) <= 3 * frac.stderr
    white = estimate_second_moment_white(0.5, (0.0,), (0.0,), zero, U6, cfg)
    ok_white = abs(white.value - 1.0) <= 3 * white.stderr

    c = 2.31
    base = estimate_second_moment_fractional(Q6, K6, F6, U6, cfg)
    scaled = estimate_second_moment_fractional(Q6, K6, F6, Constant(c), cfg)
    ok_scale = scaled.value == c * c * base.value

    q0 = QueryPoint(t=0.0, s=0.0, x=(0.4,), y=(-0.1,))
    degenerate = estimate_second_moment_fractional(q0, K6, F6, Constant(3.0), cfg)
    ok_zero_time = degenerate.value == 9.0 and degenerate.stderr == 0.0

    ok = ok_frac and ok_white and ok_scale and ok_zero_time
    report(
        "A8 degenerate identities",
        ok,
        f"zero-kernel frac/white z=({abs(frac.value-1)/frac.stderr:.2f}, "
        f"{abs(white.value-1)/white.stderr:.2f}), c^2 scaling exact={ok_scale}, "
        f"t=s=0 exact={ok_zero_time}",
    )


def test_a9_per_order_agreement():
    start = time.perf_counter()
    cfg = EstimatorConfig(replicates=100_000, seed=SEED, mode="importance")
    zs = []
    for n in (1, 2):
        mean, stderr = estimate_order_contribution(n, Q6, K6, F6, U6, cfg)
        oracle = alpha_n_quadrature(n, Q6, K6, F6, U6, 1e-5, scale_floor=1.0)
        oracle /= math.factorial(n)
        zs.append(abs(mean - oracle) / stderr)
    elapsed = time.perf_counter() - start
    ok = all(z <= 3.0 for z in zs) and elapsed < 60.0
    report(
        "A9 per-order agreement",
        ok,
        f"|z| = ({zs[0]:.2f}, {zs[1]:.2f}) (<=3), {elapsed:.1f}s (<60s)",
    )


def test_a10_determinism():
    runner = CliRunner()
    args = [
        "estimate",
        "--set",
        "estimator.replicates=200000",
        "--mode",
        "importance",
        "--seed",
        str(SEED),
    ]
    runs = [
        runner.invoke(cli_main, args + ["--workers", w]).stdout for w in ("1", "1", "4", "8")
    ]
    ok_estimate = len(set(runs)) == 1 and runs[0]
    oracle_runs = [
        runner.invoke(
            cli_main, ["oracle", "--set", "oracle.tol=1e-4", "--set", "oracle.n_max=2"]
        ).stdout
        for _ in range(2)
    ]
    ok_oracle = oracle_runs[0] == oracle_runs[1]
    rec = json.loads(runs[0])
    ok = bool(ok_estimate and ok_oracle and rec["seed"] == SEED)
    report(
        "A10 byte-identical records",
        ok,
        f"4 estimate runs identical across workers={ok_estimate is not False}, "
        f"oracle repeat identical={ok_oracle}",
    )
