"""Additive statistic containers.

Each class is a tagged point in one learner state space. Addition is
componentwise, defined only between statistics with the same tag and
per-statistic shapes; the zero element is the additive identity. Instances
are treated as immutable values. A stack of k statistics carries a leading
axis of length k in every slot (the batch axes are those of the `lead`
slot beyond its own ndim), and addition broadcasts over batch axes.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import TagMismatchError


def _require_same_tag(a, b):
    if type(a) is not type(b):
        raise TagMismatchError(
            f"cannot combine {type(a).__name__} with {type(b).__name__}")


class _Slots:
    lead = ("x", 1)  # (slot name, its per-statistic ndim)

    @property
    def batch_ndim(self):
        name, ndim = self.lead
        return np.ndim(getattr(self, name)) - ndim

    def __add__(self, other):
        _require_same_tag(self, other)
        na, nb = self.batch_ndim, other.batch_ndim
        out = []
        for name in self.__dataclass_fields__:
            x, y = getattr(self, name), getattr(other, name)
            # a python float is a scalar slot
            sx, sy = getattr(x, "shape", ())[na:], getattr(y, "shape", ())[nb:]
            if sx != sy:
                raise TagMismatchError(f"{name} shapes differ: {sx} vs {sy}")
            out.append(x + y)
        return type(self)(*out)


@dataclass(frozen=True, eq=False)
class ScalarVec(_Slots):
    """(b, x): scalar plus vector."""
    b: float
    x: np.ndarray

    @classmethod
    def zero(cls, dim):
        return cls(0.0, np.zeros(dim))


@dataclass(frozen=True, eq=False)
class ScalarSym(_Slots):
    """(a, Z): scalar and symmetric matrix."""
    a: float
    Z: np.ndarray
    lead = ("Z", 2)

    @classmethod
    def zero(cls, dim):
        return cls(0.0, np.zeros((dim, dim)))


@dataclass(frozen=True, eq=False)
class VecSym(_Slots):
    """(x, A): vector plus symmetric second-moment accumulator."""
    x: np.ndarray
    A: np.ndarray

    @classmethod
    def zero(cls, dim):
        return cls(np.zeros(dim), np.zeros((dim, dim)))


@dataclass(frozen=True, eq=False)
class ScalarVecScalar(_Slots):
    """(b, x, s): scalar, vector, and a nonnegative accumulator.

    s is a scalar for whole-norm accumulation and a vector when per-coordinate
    square sums are tracked.
    """
    b: float
    x: np.ndarray
    s: object

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


def map_slots(fn, *stats):
    """The statistic whose every slot is fn of the matching slots of stats.

    With one stack, `map_slots(lambda a: a[idx], stack)` takes members;
    product statistics are mapped part by part.
    """
    first = stats[0]
    if isinstance(first, ProductStat):
        return ProductStat(tuple(map_slots(fn, *ps)
                                 for ps in zip(*(s.parts for s in stats))))
    return type(first)(*(fn(*(getattr(s, f.name) for s in stats))
                         for f in fields(first)))

