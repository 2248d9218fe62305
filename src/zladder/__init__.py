"""Numerical laboratory for the Hardy Z signal on generalized Gram set systems:
grid construction, Jacob's-ladder models, adaptive quadrature, and the
verification harness tying them together."""

from .gridsets import (
    GramLikePoint,
    WindowSpec,
    build_g1,
    build_g2,
    grid_range,
    invert_theta,
    scan_nodes,
    sign_partition,
)
from .harness import ExperimentConfig, VerificationReport
from .intervals import IntervalCollection
from .ladder import (
    AsymptoticLadder,
    LadderModel,
    ladder_ode,
    mirror_collection,
    prime_pi,
    separation_rho,
)
from .quadrature import QuadSpec, QuadratureOutcome, integrate_collection
from .rscore import hardy_z_many, hardy_z_oracle, theta, theta_deriv

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
