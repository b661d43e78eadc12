"""Concrete potential families and their combinations."""

from ..losses import make_loss
from .adagrad import AdaGradPotential
from .matrix import MatrixPotential, doubling_run
from .meta import CombinedPotential, MetaPotential, combine_convex, combine_min
from .param_free import ParamFreePotential, harmonic_prefix
from .vaw import VawPotential

__all__ = [
    "AdaGradPotential", "MatrixPotential", "doubling_run",
    "MetaPotential", "CombinedPotential", "combine_min", "combine_convex",
    "ParamFreePotential", "harmonic_prefix",
    "VawPotential", "matrix_meta", "standard_families",
]


def matrix_meta(matrix):
    """Softmax meta over a matrix family and an l2 AdaGrad on the same
    (d1, d2) instances, with the same L and B, each charged its increment
    bound, at meta rate 0.25."""
    ada = AdaGradPotential(d=(matrix.d1, matrix.d2), variant="l2", L=matrix.L, B=matrix.B)
    return MetaPotential([(matrix, matrix.increment_bound()),
                          (ada, ada.increment_bound())], eta=0.25)


def standard_families(B=1.0):
    """Small fixed instances of every family, used by verification sweeps."""
    matrix = MatrixPotential(d1=3, d2=2, eta=0.5, r=1.0, L=1.0, B=B)
    squared = make_loss("squared", B=B)
    return {
        "param_free_l2": ParamFreePotential(n=16, d=5, B=B),
        "param_free_l4": ParamFreePotential(n=16, d=5, p=4.0, B=B),
        "matrix": matrix,
        "adagrad_l2": AdaGradPotential(d=5, variant="l2", L=1.0, B=B),
        "adagrad_linf": AdaGradPotential(d=5, variant="linf", L=1.0, B=B),
        "vaw": VawPotential(d=3, rho=squared.rho, lam=1.0, L=squared.L, B=B),
        "meta": matrix_meta(matrix),
    }
