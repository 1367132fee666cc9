"""Run configuration: flat key = value files, overrides, validation.

The configuration surface is a flat dotted-key namespace (for example
``kernel.hurst = 0.75``).  Values from a config file are overlaid by
repeatable ``--set key=value`` pairs and then by direct CLI flags; the
fully resolved mapping is echoed into every emitted record, so a record
can be replayed byte-identically by feeding its echo back in.

All parameter-range invariants of the underlying domain objects are
re-validated here with key-precise messages, so misconfigurations fail
fast with exit code 2 before any computation starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


from .chaos_oracle import QueryPoint
from .errors import ConfigError
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
    "estimator.batches": "32",
    "estimator.max_order": "5",
    "oracle.n_max": "3",
    "oracle.tol": "1e-5",
    "output.format": "json",
    "output.path": "-",
    "workers": "1",
}

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

    def _point(self, key: str, dim: int) -> tuple:
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

    # -- validated views ----------------------------------------------------

    def validate(self) -> None:
        self.equation
        self.query()
        self.temporal_kernel()
        self.spatial_kernel()
        self.initial_condition()
        self.estimator_config()
        self.oracle_n_max
        self.oracle_tol
        self.output_format
        if self._int("workers") < 0:
            raise ConfigError("workers must be >= 0 (0 means machine parallelism)")

    @property
    def equation(self) -> str:
        return self._choice("equation")

    def query(self) -> QueryPoint:
        dim = self._int("query.dim")
        if dim < 1:
            raise ConfigError(f"query.dim must be a positive integer, got {dim}")
        t = self._float("query.t")
        s = self._float("query.s")
        if not (0.0 <= t <= 1.0 and 0.0 <= s <= 1.0):
            raise ConfigError(
                f"query.t and query.s must lie in [0, 1], got t={t} s={s}"
            )
        return QueryPoint(
            t=t, s=s, x=self._point("query.x", dim), y=self._point("query.y", dim)
        )

    def temporal_kernel(self) -> TemporalKernel:
        hurst = self._float("kernel.hurst")
        if not 0.5 < hurst < 1.0:
            raise ConfigError(
                f"kernel.hurst must lie in the open interval (1/2, 1), got {hurst}"
            )
        return TemporalKernel(hurst=hurst)

    def spatial_kernel(self):
        dim = self._int("query.dim")
        variant = self._choice("kernel.spatial")
        if variant == "heat":
            bw = self._float("kernel.bandwidth")
            if bw <= 0:
                raise ConfigError(f"kernel.bandwidth must be positive, got {bw}")
            return HeatKernel(dim=dim, bandwidth=bw)
        if variant == "riesz":
            order = self._float("kernel.order")
            if not 0 < order < dim:
                raise ConfigError(
                    f"kernel.order must satisfy 0 < order < query.dim = {dim}, got {order}"
                )
            return RieszKernel(dim=dim, order=order)
        if variant == "poisson":
            scale = self._float("kernel.scale")
            if scale <= 0:
                raise ConfigError(f"kernel.scale must be positive, got {scale}")
            return PoissonKernel(dim=dim, scale=scale)
        return ZeroKernel(dim=dim)

    def initial_condition(self):
        kind = self._choice("u0.kind")
        if kind == "constant":
            return Constant(value=self._float("u0.value"))
        width = self._float("u0.width")
        if width <= 0:
            raise ConfigError(f"u0.width must be positive, got {width}")
        dim = self._int("query.dim")
        return GaussianBump(
            amplitude=self._float("u0.amplitude"),
            center=self._point("u0.center", dim),
            width=width,
        )

    def estimator_config(self) -> EstimatorConfig:
        replicates = self._int("estimator.replicates")
        batches = self._int("estimator.batches")
        max_order = self._int("estimator.max_order")
        if batches < 2:
            raise ConfigError(f"estimator.batches must be >= 2, got {batches}")
        if replicates < batches:
            raise ConfigError(
                f"estimator.replicates ({replicates}) must be >= estimator.batches ({batches})"
            )
        if max_order < 0:
            raise ConfigError(f"estimator.max_order must be >= 0, got {max_order}")
        seed = self._int("estimator.seed")
        if not 0 <= seed < 2**64:
            raise ConfigError(f"estimator.seed must be an unsigned 64-bit integer, got {seed}")
        return EstimatorConfig(
            replicates=replicates,
            seed=seed,
            mode=self._choice("estimator.mode"),
            batch_count=batches,
            max_order_tracked=max_order,
            workers=self._int("workers"),
        )

    @property
    def oracle_n_max(self) -> int:
        n_max = self._int("oracle.n_max")
        if not 0 <= n_max <= 3:
            raise ConfigError(f"oracle.n_max must lie in 0..3, got {n_max}")
        return n_max

    @property
    def oracle_tol(self) -> float:
        tol = self._float("oracle.tol")
        if tol <= 0:
            raise ConfigError(f"oracle.tol must be positive, got {tol}")
        return tol

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
            value = self.raw[key]
            if key in _CHOICES or key in ("output.path",):
                out[key] = str(value).strip().lower() if key in _CHOICES else str(value)
            elif key in ("query.x", "query.y", "u0.center"):
                dim = self._int("query.dim")
                out[key] = ",".join(format_real(v) for v in self._point(key, dim))
            elif key in (
                "query.dim",
                "estimator.replicates",
                "estimator.seed",
                "estimator.batches",
                "estimator.max_order",
                "oracle.n_max",
                "workers",
            ):
                out[key] = str(self._int(key))
            else:
                out[key] = format_real(self._float(key))
        return out
