"""Second moments of the stochastic heat equation with fractional-in-time,
colored-in-space noise: planar-Poisson Feynman-Kac Monte Carlo estimators
cross-validated against a truncated chaos-series quadrature oracle."""

from .chaos_oracle import (
    QueryPoint,
    SeriesResult,
    alpha_n_quadrature,
    inner_product_closed_form,
    second_moment_series,
    truncation_tail,
    white_noise_order_term,
)
from .errors import CapabilityError, ConfigError, DomainError, NumericError
from .kernels import (
    Constant,
    GaussianBump,
    HeatKernel,
    PoissonKernel,
    RieszKernel,
    SpatialKernel,
    TemporalKernel,
    ZeroKernel,
    heat_density,
    initial_field,
)
from .mc_engine import (
    EstimatorConfig,
    MomentEstimate,
    estimate_inner_product_mc,
    estimate_order_contribution,
    estimate_second_moment_fractional,
    estimate_second_moment_white,
)

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "ConfigError",
    "Constant",
    "DomainError",
    "EstimatorConfig",
    "GaussianBump",
    "HeatKernel",
    "MomentEstimate",
    "NumericError",
    "PoissonKernel",
    "QueryPoint",
    "RieszKernel",
    "SeriesResult",
    "SpatialKernel",
    "TemporalKernel",
    "ZeroKernel",
    "alpha_n_quadrature",
    "estimate_inner_product_mc",
    "estimate_order_contribution",
    "estimate_second_moment_fractional",
    "estimate_second_moment_white",
    "heat_density",
    "initial_field",
    "inner_product_closed_form",
    "second_moment_series",
    "truncation_tail",
    "white_noise_order_term",
]
