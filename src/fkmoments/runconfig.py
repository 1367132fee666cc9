"""Run configuration: flat key = value files, overrides, validation.

The configuration surface is a flat dotted-key namespace (for example
``kernel.hurst = 0.75``).  Values from a config file are overlaid by
repeatable ``--set key=value`` pairs and then by direct CLI flags; the
fully resolved mapping is echoed into every emitted record, so a record
can be replayed byte-identically by feeding its echo back in.

Each value is parsed here (type, finiteness, choice, coordinate count)
and range-checked once, by the domain object or check built from it
(``oracle.n_max`` and ``oracle.tol`` by the oracle's
``series_settings``); a ``DomainError`` is re-raised as a
``ConfigError`` that names the key.  Only the white-noise equal-time
rule has no domain object and is checked here.  Misconfigurations thus
fail fast with exit code 2 before any computation starts.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .chaos_oracle import QueryPoint, series_settings
from .errors import ConfigError, DomainError
from .kernels import (
    Constant,
    GaussianBump,
    HeatKernel,
    PoissonKernel,
    RieszKernel,
    TemporalKernel,
    ZeroKernel,
)
from .mc_engine import EstimatorConfig

__all__ = ["RunConfig", "DEFAULTS", "parse_config_file", "format_real"]

DEFAULTS = {
    "equation": "fractional",
    "query.t": "0.5",
    "query.s": "0.5",
    "query.dim": "1",
    "query.x": "0",
    "query.y": "0",
    "kernel.hurst": "0.75",
    "kernel.spatial": "heat",
    "kernel.bandwidth": "1",
    "kernel.order": "1",
    "kernel.scale": "1",
    "u0.kind": "constant",
    "u0.value": "1",
    "u0.amplitude": "1",
    "u0.center": "0",
    "u0.width": "1",
    "estimator.replicates": "100000",
    "estimator.seed": "42",
    "estimator.mode": "uniform",
    "oracle.n_max": "3",
    "oracle.tol": "1e-5",
    "output.format": "json",
    "output.path": "-",
    "workers": "1",
}

_INT_KEYS = (
    "query.dim",
    "estimator.replicates",
    "estimator.seed",
    "oracle.n_max",
    "workers",
)
_POINT_KEYS = ("query.x", "query.y", "u0.center")

_CHOICES = {
    "equation": ("fractional", "white"),
    "kernel.spatial": ("heat", "riesz", "poisson", "zero"),
    "u0.kind": ("constant", "bump"),
    "estimator.mode": ("uniform", "importance"),
    "output.format": ("json", "csv"),
}


def format_real(v: float) -> str:
    """Locale-independent decimal formatting at 17 significant digits."""
    return format(float(v), ".17g")


def parse_config_file(path: str) -> dict:
    """Read a flat ``key = value`` file; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown configuration key {key!r}")
            out[key] = value
    return out


@dataclass
class RunConfig:
    """Resolved flat configuration with typed, validated accessors."""

    raw: dict

    @classmethod
    def resolve(cls, file_values: dict | None = None, *override_layers: dict) -> "RunConfig":
        merged = dict(DEFAULTS)
        for layer in (file_values or {},) + override_layers:
            for key, value in layer.items():
                if key not in DEFAULTS:
                    raise ConfigError(f"unknown configuration key {key!r}")
                merged[key] = str(value)
        rc = cls(raw=merged)
        rc.validate()
        return rc

    # -- low-level typed getters ------------------------------------------

    def _float(self, key: str) -> float:
        try:
            value = float(self.raw[key])
        except ValueError as exc:
            raise ConfigError(f"{key} must be a real number, got {self.raw[key]!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be a finite real number, got {self.raw[key]!r}")
        return value

    def _int(self, key: str) -> int:
        try:
            return int(self.raw[key])
        except ValueError as exc:
            raise ConfigError(f"{key} must be an integer, got {self.raw[key]!r}") from exc

    def _choice(self, key: str) -> str:
        value = self.raw[key].strip().lower()
        if value not in _CHOICES[key]:
            raise ConfigError(
                f"{key} must be one of {', '.join(_CHOICES[key])}; got {self.raw[key]!r}"
            )
        return value

    def _point(self, key: str) -> tuple:
        dim = self._int("query.dim")
        text = self.raw[key]
        try:
            vals = tuple(float(part) for part in text.split(","))
        except ValueError as exc:
            raise ConfigError(
                f"{key} must be comma-separated reals, got {text!r}"
            ) from exc
        if not all(math.isfinite(v) for v in vals):
            raise ConfigError(f"{key} must be finite reals, got {text!r}")
        if len(vals) == 1 and dim > 1:
            vals = vals * dim
        if len(vals) != dim:
            raise ConfigError(
                f"{key} must have query.dim = {dim} coordinates, got {len(vals)}"
            )
        return vals

    def _value(self, key: str):
        """The typed value of one key."""
        if key in _CHOICES:
            return self._choice(key)
        if key == "output.path":
            return self.raw[key]
        if key in _POINT_KEYS:
            return self._point(key)
        if key in _INT_KEYS:
            return self._int(key)
        return self._float(key)

    def _build(self, factory, **fields):
        """factory(name=value of key, ...) for fields given as name=key; the
        object's DomainError becomes a ConfigError naming keys, not names."""
        try:
            return factory(**{name: self._value(key) for name, key in fields.items()})
        except DomainError as exc:
            text = re.sub(r"\b(" + "|".join(fields) + r")\b", lambda m: fields[m[0]], str(exc))
            raise ConfigError(text) from exc

    # -- validated views ----------------------------------------------------

    def validate(self) -> None:
        self.spatial_kernel()
        q = self.query()
        if self.equation == "white" and q.t != q.s:
            raise ConfigError("equation=white computes equal-time moments; set query.t == query.s")
        self.temporal_kernel()
        self.initial_condition()
        self.estimator_config()
        self.oracle_settings()
        # parses the keys the views above skip (e.g. kernel.order for heat)
        self.echo()

    @property
    def equation(self) -> str:
        return self._choice("equation")

    def query(self) -> QueryPoint:
        return self._build(QueryPoint, t="query.t", s="query.s", x="query.x", y="query.y")

    def temporal_kernel(self) -> TemporalKernel:
        return self._build(TemporalKernel, hurst="kernel.hurst")

    def spatial_kernel(self):
        variant = self._choice("kernel.spatial")
        if variant == "heat":
            return self._build(HeatKernel, dim="query.dim", bandwidth="kernel.bandwidth")
        if variant == "riesz":
            return self._build(RieszKernel, dim="query.dim", order="kernel.order")
        if variant == "poisson":
            return self._build(PoissonKernel, dim="query.dim", scale="kernel.scale")
        return self._build(ZeroKernel, dim="query.dim")

    def initial_condition(self):
        if self._choice("u0.kind") == "constant":
            return self._build(Constant, value="u0.value")
        return self._build(
            GaussianBump, amplitude="u0.amplitude", center="u0.center", width="u0.width"
        )

    def estimator_config(self) -> EstimatorConfig:
        return self._build(
            EstimatorConfig,
            replicates="estimator.replicates",
            seed="estimator.seed",
            mode="estimator.mode",
            workers="workers",
        )

    def oracle_settings(self) -> tuple[int, float]:
        """(n_max, tol) of the chaos-series oracle."""
        return self._build(series_settings, n_max="oracle.n_max", tol="oracle.tol")

    @property
    def output_format(self) -> str:
        return self._choice("output.format")

    @property
    def output_path(self) -> str:
        return self.raw["output.path"]

    def echo(self) -> dict:
        """Canonical string form of every effective key, in schema order.

        Numeric values are normalized through the 17-significant-digit
        formatter so the echo replays byte-identically.  ``workers`` is an
        execution detail that never affects results, so it is excluded to
        keep records byte-identical across parallelism settings.
        """
        out = {}
        for key in DEFAULTS:
            if key == "workers":
                continue
            value = self._value(key)
            if key in _POINT_KEYS:
                out[key] = ",".join(format_real(v) for v in value)
            elif isinstance(value, float):
                out[key] = format_real(value)
            else:
                out[key] = str(value)
        return out
