"""Luttinger-Ward formalism for Euclidean lattice field theory at desk scale.

Partition functions and moments (oracle), the Legendre-dual route to the
universal functional F, the LW functional Phi and the exact self-energy
(duality), bold diagrammatic coefficients (diagrams), self-consistent Dyson
and variational solvers (solver), and executable theorem checks (verify).
"""

from .diagrams import BoldSeries, sigma1, sigma2
from .duality import LwReport, exact_self_energy, inverse_map, lw_evaluate, rho_g_logdensity
from .errors import (
    BoundaryTooClose,
    DimensionCap,
    DimensionMismatch,
    DivergentIntegral,
    IterateLeftCone,
    LwlatticeError,
    NoConvergence,
    NonFinite,
    NotPositiveDefinite,
    ParseError,
    SingularMap,
    UnsupportedInteraction,
    UnsupportedOrder,
    ValidationError,
)
from .interactions import (
    ComposedInteraction,
    DiagonalQuartic,
    GeneralQuartic,
    Growth,
    GrowthReport,
    Interaction,
    ScaledInteraction,
    ZeroInteraction,
    compose,
    restrict,
    validate_growth,
)
from .matrices import (
    LinearMap,
    SpdMatrix,
    SymMatrix,
    congruence,
    logdet_spd,
)
from .modelio import ModelFile, load_model, save_model
from .oracle import MomentReport, OracleConfig, evaluate_moments, green_of_a
from .solver import SigmaModel, SolveTrace, dyson_solve, free_energy, minimize_free_energy
from .verify import CheckReport, run_suite

__version__ = "0.1.0"
