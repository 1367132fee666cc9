"""Command-line front end.

Subcommands: ``estimate`` (Monte Carlo), ``oracle`` (chaos-series
quadrature), ``compare`` (both, with a z-score verdict), ``verify``
(property suites).  Configuration comes from an optional flat key = value
file, overlaid by repeatable ``--set`` pairs and direct flags, each flag a
shorthand for ``--set`` of one key; ``estimate``, ``oracle`` and
``compare`` records echo the fully resolved configuration.

Data records go to stdout (or ``--out``); diagnostics, warnings, wall
times, peak memory and ``estimate``'s cost figures go to stderr, so the
data stream stays parseable.  Records are byte-identical for identical
config + seed, independent of ``--workers``.

Exit codes: 0 ok, 2 config error, 3 numeric/capability error,
4 comparison failed or inconclusive, or verification failure.
"""

from __future__ import annotations

import csv
import io
import json
import math
import resource
import sys
import time

import click

from .chaos_oracle import second_moment_series, white_noise_series
from .errors import CapabilityError, ConfigError, DomainError, NumericError
from .kernels import existence_regime_warning
from .mc_engine import (
    BATCHES,
    estimate_second_moment_fractional,
    estimate_second_moment_white,
)
from .runconfig import RunConfig, format_real, parse_config_file
from .verify import available_suites, run_suite

SCHEMA_VERSION = 1


@click.group()
def main():
    """Second-moment computations for the fractional stochastic heat equation."""


# direct flags, each a shorthand for --set KEY=VALUE
_FLAGS = {
    "seed": "estimator.seed",
    "replicates": "estimator.replicates",
    "mode": "estimator.mode",
    "equation": "equation",
    "out": "output.path",
    "format": "output.format",
    "workers": "workers",
}


def _config_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                      default=None, help="Flat key = value configuration file.")(fn)
    fn = click.option("--set", "sets", multiple=True, metavar="KEY=VALUE",
                      help="Override one configuration key (repeatable).")(fn)
    for name, key in reversed(_FLAGS.items()):
        fn = click.option(f"--{name}", metavar="VALUE", help=f"Same as --set {key}=VALUE.")(fn)
    return fn


def _resolve(config_path, sets, reads=None, **flags):
    """The resolved configuration; ``reads``, if given, names the only
    keys the command reads, and any other given key is a config error."""
    file_values = parse_config_file(config_path) if config_path else {}
    # flags come last, so they override --set
    shorthands = [f"{_FLAGS[name]}={value}" for name, value in flags.items() if value is not None]
    set_layer = {}
    for item in (*sets, *shorthands):
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        set_layer[key.strip()] = value.strip()
    unread = sorted((file_values.keys() | set_layer.keys()) - set(reads)) if reads else []
    if unread:
        raise ConfigError(f"this command reads only {', '.join(reads)}; remove {', '.join(unread)}")
    return RunConfig.resolve(file_values, set_layer)


def _record_value(v):
    if isinstance(v, float):
        return format_real(v)
    if v is None:
        return ""
    return str(v)


def _json_safe(rec: dict) -> dict:
    # non-finite reals are not valid strict JSON; ship them as strings
    out = {}
    for key, value in rec.items():
        if isinstance(value, float) and not math.isfinite(value):
            value = format_real(value)
        out[key] = value
    return out


def _emit(records, rc: RunConfig):
    """Write records in the configured format to the configured sink."""
    if rc.output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(records[0].keys())
        for rec in records:
            writer.writerow(_record_value(v) for v in rec.values())
        text = buf.getvalue()
    else:
        payload = [_json_safe(r) for r in records]
        payload = payload[0] if len(payload) == 1 else payload
        text = json.dumps(payload, separators=(",", ":"), allow_nan=False) + "\n"
    if rc.output_path in ("-", ""):
        click.echo(text, nl=False)
    else:
        try:
            with open(rc.output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"output.path: cannot write {rc.output_path!r}: {exc.strerror}") from exc


def _with_config_echo(record: dict, rc: RunConfig) -> dict:
    for key, value in rc.echo().items():
        record[f"config.{key}"] = value
    return record


def _estimate_record(rc: RunConfig, est, command: str) -> dict:
    cfg = rc.estimator_config()
    rec = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "equation": rc.equation,
        "value": est.value,
        "stderr": est.stderr,
        "replicates": est.replicates_used,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "batches": BATCHES,
    }
    for n in sorted(est.per_order):
        mean, stderr, count = est.per_order[n]
        rec[f"order_{n}_value"] = mean
        rec[f"order_{n}_stderr"] = stderr
        rec[f"order_{n}_count"] = count
    diag = est.diagnostics
    rec["stderr_naive"] = diag["naive_stderr"]
    rec["max_abs_replicate"] = diag["max_abs_replicate"]
    rec["abs_replicate_q999"] = diag["abs_replicate_q999"]
    rec["effective_sample_size"] = diag["effective_sample_size"]
    rec["singular_hits"] = diag["singular_hits"]
    rec["variance_warning"] = diag["variance_warning"]
    return _with_config_echo(rec, rc)


def _oracle_record(rc: RunConfig, series) -> dict:
    rec = {
        "schema_version": SCHEMA_VERSION,
        "command": "oracle",
        "zeroth_term": series.zeroth_term,
    }
    refinement = series.diagnostics["refinement"]
    for i, term in enumerate(series.order_terms, start=1):
        rec[f"order_{i}_term"] = term
        # orders that vanish exactly have no rungs; rungs end (m, value, delta, bound)
        if i in refinement:
            rec[f"order_{i}_m"] = refinement[i][-1][-4]
            rec[f"order_{i}_rungs"] = len(refinement[i])
    rec["tail_estimate"] = series.tail_estimate
    rec["tail_is_heuristic"] = series.tail_is_heuristic
    rec["total"] = series.total
    rec["n_max"], rec["tol"] = rc.oracle_settings()
    return _with_config_echo(rec, rc)


def _run_estimator(rc: RunConfig):
    q = rc.query()
    kernel = rc.temporal_kernel()
    f = rc.spatial_kernel()
    u0 = rc.initial_condition()
    cfg = rc.estimator_config()
    msg = existence_regime_warning(f)
    if msg:
        click.echo(f"warning: {msg}", err=True)
    if rc.equation == "white":
        est = estimate_second_moment_white(q.t, q.x, q.y, f, u0, cfg)
    else:
        est = estimate_second_moment_fractional(q, kernel, f, u0, cfg)
    if est.diagnostics["variance_warning"]:
        click.echo(f"warning: {est.diagnostics['variance_warning']}", err=True)
    return est


def _run_oracle(rc: RunConfig):
    q = rc.query()
    f = rc.spatial_kernel()
    u0 = rc.initial_condition()
    n_max, tol = rc.oracle_settings()
    if rc.equation == "white":
        return white_noise_series(q.t, q.x, q.y, f, u0, n_max, tol)
    return second_moment_series(q, rc.temporal_kernel(), f, u0, n_max, tol)


def _echo_costs(**costs: float) -> None:
    """One stderr line of cost figures, ending with peak_rss_mb, the
    process's peak resident memory."""
    costs["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    click.echo(" ".join(f"{k}={format_real(v)}" for k, v in costs.items()), err=True)


def _guarded(body):
    try:
        return body()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except (CapabilityError, NumericError, DomainError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)


@main.command()
@_config_options
def estimate(**kwargs):
    """Monte Carlo estimate of the second moment.

    Prints wall_time_ms, replicates_per_second, work_norm_var and
    peak_rss_mb on stderr.
    """

    def body():
        rc = _resolve(**kwargs)
        start = time.perf_counter()
        est = _run_estimator(rc)
        elapsed = time.perf_counter() - start
        _emit([_estimate_record(rc, est, "estimate")], rc)
        # work_norm_var (stderr^2 x seconds) does not reward cheap, noisy
        # replicates
        _echo_costs(
            wall_time_ms=1000.0 * elapsed,
            replicates_per_second=est.replicates_used / elapsed,
            work_norm_var=est.stderr * est.stderr * elapsed,
        )

    _guarded(body)


@main.command()
@_config_options
def oracle(**kwargs):
    """Deterministic chaos-series value of the second moment.

    Prints wall_time_ms and peak_rss_mb on stderr.
    """

    def body():
        rc = _resolve(**kwargs)
        start = time.perf_counter()
        series = _run_oracle(rc)
        wall_ms = 1000.0 * (time.perf_counter() - start)
        _emit([_oracle_record(rc, series)], rc)
        _echo_costs(wall_time_ms=wall_ms)

    _guarded(body)


@main.command()
@_config_options
def compare(**kwargs):
    """Estimate and oracle side by side; verdict at |z| <= 3 plus tail.

    The verdict is ``inconclusive`` (exit 4) when the oracle tail is
    infinite, or the estimate has zero stderr yet differs from the oracle.
    """

    def body():
        rc = _resolve(**kwargs)
        est = _run_estimator(rc)
        series = _run_oracle(rc)
        diff = est.value - series.total
        tail = series.tail_estimate
        z = diff / est.stderr if est.stderr > 0 else (0.0 if diff == 0.0 else math.inf)
        # an unbounded tail or a zero stderr against a nonzero difference
        # leaves nothing to test the difference against
        inconclusive = math.isinf(tail) or (est.stderr == 0.0 and diff != 0.0)
        ok = not inconclusive and abs(diff) <= 3.0 * est.stderr + tail
        verdict = "inconclusive" if inconclusive else ("pass" if ok else "fail")
        rec = {
            "schema_version": SCHEMA_VERSION,
            "command": "compare",
            "value_mc": est.value,
            "stderr": est.stderr,
            "value_oracle": series.total,
            "tail_estimate": tail,
            "z_score": z,
            "verdict": verdict,
        }
        _emit([_with_config_echo(rec, rc)], rc)
        return ok

    ok = _guarded(body)
    if not ok:
        sys.exit(4)


# the suites run at fixed parameters and read only their seed
_VERIFY_KEYS = ("estimator.seed", "output.path", "output.format")


@main.command()
@click.argument("suite", type=click.Choice(available_suites()))
@_config_options
def verify(suite, **kwargs):
    """Run a property suite; one record per check.

    The suites read only estimator.seed (--seed) and the output keys;
    any other key exits 2.
    """

    def body():
        rc = _resolve(reads=_VERIFY_KEYS, **kwargs)
        seed = rc.estimator_config().seed
        checks = run_suite(suite, seed=seed)
        records = []
        for c in checks:
            records.append(
                {
                    "schema_version": SCHEMA_VERSION,
                    "command": "verify",
                    "suite": c.suite,
                    "check": c.name,
                    "statistic": c.statistic,
                    "comparison": c.comparison,
                    "threshold": c.threshold,
                    "passed": c.passed,
                }
            )
        _emit(records, rc)
        return all(c.passed for c in checks)

    ok = _guarded(body)
    if not ok:
        sys.exit(4)


if __name__ == "__main__":
    main()
