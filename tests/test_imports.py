import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fkmoments
from fkmoments import chaos_oracle

# Importing the package and its CLI must not load scipy; only the verify
# checks that need scipy.stats import it, when they run.
_SCRIPT = """
import json, sys
import fkmoments, fkmoments.cli
cold = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from fkmoments.verify import check_poisson_law
checks = check_poisson_law(seed=7, realizations=2000)
print(json.dumps({
    "cold": cold,
    "checks": [[c.name, c.statistic] for c in checks],
    "stats_loaded": "scipy.stats" in sys.modules,
}))
"""


def test_cold_import_loads_no_scipy():
    src = str(Path(fkmoments.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["cold"] == []
    assert out["stats_loaded"]
    assert [name for name, _ in out["checks"]] == [
        "chi-square-gof-pvalue",
        "disjoint-count-correlation",
    ]
    assert all(0.0 <= stat <= 1.0 for _, stat in out["checks"])


def _load_perfbench(monkeypatch, name):
    """perfbench/<name>.py, loaded read-only by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_module_attributes(monkeypatch):
    # the benchmark's span recorder replaces these attributes in place;
    # each must stay a name its module looks up at call time
    spans = _load_perfbench(monkeypatch, "spans")
    assert spans._FUNCTIONS
    for module_name, attr, *_ in spans._FUNCTIONS:
        assert attr in importlib.import_module(module_name).__dict__, (module_name, attr)


@pytest.mark.parametrize("n", [2, 3])
def test_contraction_calls_the_traced_det_qsum(monkeypatch, n):
    # the per-layer det_qsum metrics count the calls that go through the
    # chaos_oracle attributes; a contraction that bound the functions
    # elsewhere would read 0 there
    spans = _load_perfbench(monkeypatch, "spans")
    traced = {attr for module, attr, *_ in spans._FUNCTIONS if module == chaos_oracle.__name__}
    calls = dict.fromkeys(("det_qsum_2", "det_qsum_3"), 0)
    assert set(calls) <= traced
    for attr in calls:
        original = getattr(chaos_oracle, attr)

        def counted(*args, attr=attr, original=original, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(chaos_oracle, attr, counted)
    q = fkmoments.QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
    k, f, u0 = fkmoments.TemporalKernel(0.75), fkmoments.HeatKernel(dim=1), fkmoments.Constant()
    # tol = 1 accepts the second rung
    fkmoments.alpha_n_quadrature(n, q, k, f, u0, tol=1.0)
    assert calls[f"det_qsum_{n}"] > 0


def test_span_recorder_traces_the_live_modules(monkeypatch):
    # a traced benchmark run installs the recorder on the live modules, so
    # a renamed or rebound kernel would first fail there; the recorded
    # calls must still return exactly what the untraced ones do
    spans = _load_perfbench(monkeypatch, "spans")
    q = fkmoments.QueryPoint(t=0.5, s=0.5, x=(0.0,), y=(0.0,))
    k, f, u0 = fkmoments.TemporalKernel(0.75), fkmoments.HeatKernel(dim=1), fkmoments.Constant()
    cfg = fkmoments.EstimatorConfig(replicates=2000, seed=42, mode="importance")

    def run():
        return (
            fkmoments.second_moment_series(q, k, f, u0, 3, 1e-5),
            fkmoments.estimate_second_moment_fractional(q, k, f, u0, cfg),
        )

    untraced = run()
    owners = [importlib.import_module(module) for module, *_ in spans._FUNCTIONS]
    owners.append(fkmoments.HeatKernel)
    attrs = [attr for _, attr, *_ in spans._FUNCTIONS] + ["values"]
    originals = [owner.__dict__[attr] for owner, attr in zip(owners, attrs)]
    recorder = spans.SpanRecorder()
    recorder.install((fkmoments.HeatKernel,))
    try:
        traced = run()
    finally:
        recorder.uninstall()
    names = {span.name for span in recorder.spans}
    assert {
        "gaussian_paths.det_qsum_2",
        "gaussian_paths.det_qsum_3",
        "quadrature.eta_pair_rule",
        "point_process.sample_eta_tilted",
    } <= names
    for owner, attr, original in zip(owners, attrs, originals):
        assert owner.__dict__[attr] is original, attr
    assert repr(traced) == repr(untraced)


def test_oracle_benchmark_calls_pass_their_gate(monkeypatch):
    # the oracle-series workload checks every call against its frozen total
    # in perfbench/reference.json; a quadrature or contraction change that
    # would fail those checks fails here first
    workloads = _load_perfbench(monkeypatch, "workloads")
    specs = workloads.build("oracle-series", 0).plan
    assert len(specs) == 8
    for spec in specs:
        result = spec.invoke(0)
        assert spec.passes(result), (spec.label, result.total - spec.reference)


def test_oracle_benchmark_queries_certify_every_order_on_its_second_rung(monkeypatch):
    # every oracle-series order is accepted on its second rung.  Orders 1
    # and 2 climb from q = 6 to q = 8: m = 2 q^2 = 128 at t = s, and 224 at
    # t != s, where the u > v side adds one 12-point log-r cell past the
    # kink.  Order 3, only at t = s here, climbs from q = 4 to q = 6 (m = 72)
    workloads = _load_perfbench(monkeypatch, "workloads")
    assert len(workloads.ORACLE_QUERIES) == 8
    for label, n_max, t, s, x, y in workloads.ORACLE_QUERIES:
        refinement = workloads.oracle_query(n_max, t, s, x, y)().diagnostics["refinement"]
        assert sorted(refinement) == list(range(1, n_max + 1))
        m = 128 if t == s else 224
        for n, rungs in refinement.items():
            expected = [(4, 32), (6, 72)] if n == 3 else [(6, rungs[0][1]), (8, m)]
            assert [r[:2] for r in rungs] == expected, (label, n)
