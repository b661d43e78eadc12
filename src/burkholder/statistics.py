"""Additive statistic containers.

Each class is a tagged point in one learner state space. Addition is
componentwise, defined only between statistics with the same tag and
shapes; the zero element is the additive identity. Instances are treated
as immutable values.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import TagMismatchError


def _require_same_tag(a, b):
    if type(a) is not type(b):
        raise TagMismatchError(
            f"cannot combine {type(a).__name__} with {type(b).__name__}")


def _require_same_shape(name, x, y):
    if np.shape(x) != np.shape(y):
        raise TagMismatchError(
            f"{name} shapes differ: {np.shape(x)} vs {np.shape(y)}")


@dataclass(frozen=True, eq=False)
class ScalarVec:
    """(b, x): scalar plus vector."""
    b: float
    x: np.ndarray

    def __add__(self, other):
        _require_same_tag(self, other)
        _require_same_shape("x", self.x, other.x)
        return ScalarVec(self.b + other.b, self.x + other.x)

    @classmethod
    def zero(cls, dim):
        return cls(0.0, np.zeros(dim))


@dataclass(frozen=True, eq=False)
class ScalarSymPsd:
    """(a, H, M): scalar, symmetric matrix, and a psd accumulator matrix."""
    a: float
    H: np.ndarray
    M: np.ndarray

    def __add__(self, other):
        _require_same_tag(self, other)
        _require_same_shape("H", self.H, other.H)
        _require_same_shape("M", self.M, other.M)
        return ScalarSymPsd(self.a + other.a, self.H + other.H, self.M + other.M)

    @classmethod
    def zero(cls, dim):
        return cls(0.0, np.zeros((dim, dim)), np.zeros((dim, dim)))


@dataclass(frozen=True, eq=False)
class VecSym:
    """(x, A): vector plus symmetric second-moment accumulator."""
    x: np.ndarray
    A: np.ndarray

    def __add__(self, other):
        _require_same_tag(self, other)
        _require_same_shape("x", self.x, other.x)
        _require_same_shape("A", self.A, other.A)
        return VecSym(self.x + other.x, self.A + other.A)

    @classmethod
    def zero(cls, dim):
        return cls(np.zeros(dim), np.zeros((dim, dim)))


@dataclass(frozen=True, eq=False)
class ScalarVecScalar:
    """(b, x, s): scalar, vector, and a nonnegative accumulator.

    s is a scalar for whole-norm accumulation and a vector when per-coordinate
    square sums are tracked.
    """
    b: float
    x: np.ndarray
    s: object

    def __add__(self, other):
        _require_same_tag(self, other)
        _require_same_shape("x", self.x, other.x)
        _require_same_shape("s", self.s, other.s)
        return ScalarVecScalar(self.b + other.b, self.x + other.x, self.s + other.s)

    @classmethod
    def zero(cls, dim, coordinatewise=False):
        s = np.zeros(dim) if coordinatewise else 0.0
        return cls(0.0, np.zeros(dim), s)


@dataclass(frozen=True, eq=False)
class ProductStat:
    """Tuple of member statistics; addition is componentwise."""
    parts: tuple

    def __add__(self, other):
        _require_same_tag(self, other)
        if len(self.parts) != len(other.parts):
            raise TagMismatchError(
                f"product arities differ: {len(self.parts)} vs {len(other.parts)}")
        return ProductStat(tuple(a + b for a, b in zip(self.parts, other.parts)))


def stats_allclose(a, b, rtol=1e-12, atol=1e-12):
    """Numeric equality between two statistics of the same tag."""
    if type(a) is not type(b):
        return False
    if isinstance(a, ProductStat):
        return len(a.parts) == len(b.parts) and all(
            stats_allclose(p, q, rtol, atol) for p, q in zip(a.parts, b.parts))
    return all(
        np.allclose(getattr(a, f.name), getattr(b, f.name), rtol=rtol, atol=atol)
        for f in fields(a))
