"""Lower spectral branches of a fixed-momentum particle-boson Hamiltonian
at weak coupling, via reduction to a rank-one perturbation problem."""

from .errors import (
    DomainError,
    InputError,
    NumericError,
    PolaronError,
    ResourceError,
)
from .model import (
    CouplingSpec,
    EpsilonSpec,
    ModelParams,
    free_energy,
    threshold,
    validate_model,
)
from .quadrature import DiscreteMeasure, QuadratureSpec, grid_measure

__version__ = "0.1.0"

__all__ = [
    "CouplingSpec",
    "DiscreteMeasure",
    "DomainError",
    "EpsilonSpec",
    "InputError",
    "ModelParams",
    "NumericError",
    "PolaronError",
    "QuadratureSpec",
    "ResourceError",
    "__version__",
    "free_energy",
    "grid_measure",
    "threshold",
    "validate_model",
]
