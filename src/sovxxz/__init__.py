"""Separation-of-variables numerics for the twisted antiperiodic XXZ chain."""

from .errors import (
    AmbiguousNullspaceError,
    CertificationError,
    ConvergenceError,
    DegenerateSpectrumError,
    DimensionError,
    InversionError,
    ParameterError,
    ParityError,
    SingularEvaluationError,
    SovxxzError,
)
from .model import ModelParams
from .sov import SovBasis, separate_state
from .spectrum import Spectrum, solve_spectrum

__all__ = [
    "AmbiguousNullspaceError",
    "CertificationError",
    "ConvergenceError",
    "DegenerateSpectrumError",
    "DimensionError",
    "InversionError",
    "ModelParams",
    "ParameterError",
    "ParityError",
    "SingularEvaluationError",
    "SovBasis",
    "SovxxzError",
    "Spectrum",
    "separate_state",
    "solve_spectrum",
]

__version__ = "0.1.0"
