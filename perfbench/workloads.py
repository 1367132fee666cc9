"""Workload definitions for the fkmoments benchmark.

A workload is a fixed list of library calls (one *pass*) that the
benchmark repeats as a closed loop with one client.  Every call belongs to
a *class*; per-call statistics are taken per class, because the classes of
a mixed workload differ in cost by up to 30x and a median over the mix
would land on whichever class happens to sit in the middle.

Each call is checked against a reference:

* heat kernel with constant data: the chaos-series oracle total, plus its
  heuristic tail as slack (frozen for A6 in ``reference.json``, computed at
  set-up for the white-noise call);
* the Poisson-kernel/bump call: a long importance-mode run frozen in
  ``reference.json`` together with its standard error;
* oracle calls: the frozen series totals, within the A6 drift gate.

Only the public ``fkmoments`` API is used, and entry points are looked up
on the package at call time so that the span recorder can wrap them.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import fkmoments as fk

REFERENCE_FILE = Path(__file__).with_name("reference.json")

HURST = 0.75
ORACLE_TOL = 1e-5
# estimator gate: |diff| <= SIGMAS * combined stderr + tail
SIGMAS = 5.0
# oracle gate: the A6 golden drift tolerance of the acceptance suite
ORACLE_DRIFT = 5e-5
# the smoke test shrinks every Monte Carlo call by this factor
TINY_DIVISOR = 50

A6 = fk.QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))

# the oracle query at the A6 point, whose frozen total and tail check the
# A6 estimator calls
A6_LABEL = "n3-t0.5-s0.5"

# (label, n_max, t, s, x, y): heat kernel, constant data, H = 0.75.
ORACLE_QUERIES = (
    (A6_LABEL, 3, 0.5, 0.5, 0.0, 0.0),
    ("n3-t0.4-s0.4-x0.1-y-0.1", 3, 0.4, 0.4, 0.1, -0.1),
    ("n3-t0.6-s0.6", 3, 0.6, 0.6, 0.0, 0.0),
    ("n2-t1-s0.6-y0.3", 2, 1.0, 0.6, 0.0, 0.3),
    ("n2-t0.8-s0.3-x0.2-y-0.1", 2, 0.8, 0.3, 0.2, -0.1),
    ("n2-t0.6-s0.9-y0.2", 2, 0.6, 0.9, 0.0, 0.2),
    ("n2-t0.9-s0.4-x-0.1-y0.1", 2, 0.9, 0.4, -0.1, 0.1),
    ("n2-t0.7-s0.5", 2, 0.7, 0.5, 0.0, 0.0),
)


def oracle_query(n_max, t, s, x, y) -> Callable[[], fk.SeriesResult]:
    q = fk.QueryPoint(t=t, s=s, x=(x,), y=(y,))
    k = fk.TemporalKernel(hurst=HURST)
    f = fk.HeatKernel(dim=1, bandwidth=1.0)
    u0 = fk.Constant(1.0)
    return lambda: fk.second_moment_series(q, k, f, u0, n_max=n_max, tol=ORACLE_TOL)


def poisson_bump_problem():
    """(q, k, f, u0) of the d = 2 Poisson-kernel call with a bump u0."""
    return (
        fk.QueryPoint(t=1.0, s=0.6, x=(0.0, 0.0), y=(0.3, 0.0)),
        fk.TemporalKernel(hurst=0.85),
        fk.PoissonKernel(dim=2),
        fk.GaussianBump(center=(0.1, 0.0), width=0.5),
    )


@dataclass(frozen=True)
class CallSpec:
    """One library call of a workload and the check its result must pass.

    ``replicates`` is 0 for oracle calls, whose result is a SeriesResult.
    """

    cls: str
    label: str
    invoke: Callable[[int], object]
    reference: float
    ref_stderr: float = 0.0
    tail: float = 0.0
    replicates: int = 0

    def value(self, result) -> float:
        return result.value if self.replicates else result.total

    def uncertainty(self, result) -> float:
        """The error bar the call reports: stderr, or the series tail."""
        return result.stderr if self.replicates else result.tail_estimate

    def passes(self, result, shift: float = 0.0) -> bool:
        ref = self.reference + shift
        value = self.value(result)
        if self.replicates:
            se = result.stderr
            return (
                math.isfinite(value)
                and math.isfinite(se)
                and se > 0.0
                and abs(value - ref) <= SIGMAS * math.hypot(se, self.ref_stderr) + self.tail
            )
        return math.isfinite(result.tail_estimate) and abs(value - ref) <= ORACLE_DRIFT


@dataclass(frozen=True)
class Workload:
    name: str
    plan: tuple  # CallSpec per call of one pass, in call order
    warmup: tuple  # CallSpec per warm-up call, made once at set-up
    kernels: tuple  # spatial kernel classes the calls use

    def passes(self, seed: int):
        """Endless passes over the plan, each a list of (spec, call seed).

        Call seeds come from the workload seed, so two iterations from the
        same seed make identical calls.
        """
        rng = random.Random(seed)
        while True:
            yield [(spec, rng.getrandbits(63)) for spec in self.plan]


def _estimator_spec(cls, run, cfg_kwargs, reference, ref_stderr=0.0, tail=0.0):
    def invoke(seed):
        return run(fk.EstimatorConfig(seed=seed, **cfg_kwargs))

    return CallSpec(
        cls=cls,
        label=cls,
        invoke=invoke,
        reference=reference,
        ref_stderr=ref_stderr,
        tail=tail,
        replicates=cfg_kwargs["replicates"],
    )


def _a6_spec(cls, ref, replicates, workers):
    a6 = ref["oracle"][A6_LABEL]
    k = fk.TemporalKernel(hurst=HURST)
    f = fk.HeatKernel(dim=1, bandwidth=1.0)
    u0 = fk.Constant(1.0)
    return _estimator_spec(
        cls,
        lambda cfg: fk.estimate_second_moment_fractional(A6, k, f, u0, cfg),
        {"replicates": replicates, "mode": "importance", "workers": workers},
        reference=a6["total"],
        tail=a6["tail"],
    )


def _white_reference(t, x, y, f, u0):
    """Zeroth term plus orders 1..3 of the white-noise series, and its tail."""
    zeroth = float(fk.initial_field(u0, t, x)) * float(fk.initial_field(u0, t, y))
    orders = [fk.white_noise_order_term(n, t, x, y, f, u0, ORACLE_TOL) for n in (1, 2, 3)]
    return zeroth + math.fsum(orders), fk.truncation_tail(orders)


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The named workload; ``tiny`` shrinks it for the smoke test."""
    ref = json.loads(REFERENCE_FILE.read_text())
    div = TINY_DIVISOR if tiny else 1
    if name == "frac-importance-heat":
        spec = _a6_spec("a6", ref, 1_000_000 // div, workers=1)
        return Workload(name, (spec,), (spec,), (fk.HeatKernel,))
    if name == "frac-large-threads":
        spec = _a6_spec("a6-8m", ref, 8_000_000 // div, workers=2)
        return Workload(name, (spec,), (spec,), (fk.HeatKernel,))
    if name == "frac-uniform-mix":
        q, k, f, u0 = poisson_bump_problem()
        pb = ref["poisson_bump"]
        frac = _estimator_spec(
            "poisson-bump",
            lambda cfg: fk.estimate_second_moment_fractional(q, k, f, u0, cfg),
            {"replicates": 500_000 // div, "mode": "uniform", "workers": 1},
            reference=pb["value"],
            ref_stderr=pb["stderr"],
        )
        heat = fk.HeatKernel(dim=1, bandwidth=1.0)
        const = fk.Constant(1.0)
        white_ref, white_tail = _white_reference(1.0, (0.0,), (0.3,), heat, const)
        white = _estimator_spec(
            "white-heat",
            lambda cfg: fk.estimate_second_moment_white(1.0, (0.0,), (0.3,), heat, const, cfg),
            {"replicates": 500_000 // div, "workers": 1},
            reference=white_ref,
            tail=white_tail,
        )
        return Workload(name, (frac, white), (frac, white), (fk.PoissonKernel, fk.HeatKernel))
    if name == "oracle-series":
        specs = []
        # the first n_max = 2 query is the warm-up call, fixed so that
        # set-up time does not depend on the seed
        for label, n_max, t, s, x, y in sorted(ORACLE_QUERIES, key=lambda q: q[1]):
            if tiny and n_max > 2:
                continue
            run = oracle_query(n_max, t, s, x, y)
            specs.append(
                CallSpec(
                    cls=f"series{n_max}",
                    label=label,
                    invoke=lambda _seed, run=run: run(),
                    reference=ref["oracle"][label]["total"],
                )
            )
        warm = specs[0]
        random.Random(seed).shuffle(specs)
        return Workload(name, tuple(specs), (warm,), (fk.HeatKernel,))
    raise ValueError(f"unknown workload {name!r}")


def warm_up(workload: Workload, seed: int) -> None:
    """Make the workload's warm-up calls; raise if one fails its check."""
    rng = random.Random(f"warm-up {seed}")
    for spec in workload.warmup:
        result = spec.invoke(rng.getrandbits(63))
        if not spec.passes(result):
            raise RuntimeError(f"warm-up call of class {spec.cls} failed its check")
