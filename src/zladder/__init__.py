"""Numerical laboratory for the Hardy Z signal on generalized Gram set systems:
grid construction, Jacob's-ladder models, adaptive quadrature, and the
verification harness tying them together."""

from .gridsets import (
    GramLikePoint,
    WindowSpec,
    build_g1,
    build_g2,
    grid_range,
    sign_partition,
    solve_grid_point,
)
from .harness import ExperimentConfig, VerificationReport
from .intervals import IntervalCollection
from .ladder import (
    LadderModel,
    PrimeCounter,
    ladder_asymptotic,
    ladder_ode,
    mirror_collection,
    mirror_point,
    pi_count,
    separation_rho,
)
from .quadrature import (
    QuadSpec,
    QuadratureOutcome,
    integrate_collection,
    integrate_interval,
)
from .rscore import (
    hardy_z,
    hardy_z_many,
    hardy_z_oracle,
    theta,
    theta_deriv,
    z_tilde_sq,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
