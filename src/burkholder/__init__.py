"""Online learning with additive statistics and pathwise potential certificates.

The library turns regret statements into properties of a single potential
function over a statistic space: start at most zero, dominate the bound
function, and shrink in conditional expectation. Prediction strategies,
potential families, and the numerical certification suite all speak that
one interface.
"""

from .errors import ConfigError, DomainError, NumericError, TagMismatchError
from .losses import Loss, make_loss
from .potential import Potential, Round, Trajectory, accumulate
from .potentials import (AdaGradPotential, CombinedPotential, MatrixPotential,
                         MetaPotential, ParamFreePotential, VawPotential,
                         combine_convex, combine_min, doubling_run,
                         standard_families)
from .statistics import ProductStat, ScalarSym, ScalarVec, ScalarVecScalar, VecSym
from .strategies import (STRATEGIES, predict_convex, predict_linearized,
                         predict_randomized, run_online, run_randomized_expected)

__version__ = "0.1.0"

__all__ = [
    "AdaGradPotential", "CombinedPotential", "ConfigError", "DomainError",
    "Loss", "MatrixPotential", "MetaPotential",
    "NumericError", "ParamFreePotential", "Potential", "ProductStat", "Round",
    "STRATEGIES", "ScalarSym", "ScalarVec", "ScalarVecScalar",
    "TagMismatchError", "Trajectory", "VawPotential", "VecSym", "accumulate",
    "combine_convex", "combine_min", "doubling_run", "make_loss",
    "predict_convex", "predict_linearized", "predict_randomized",
    "run_online", "run_randomized_expected", "standard_families",
]
