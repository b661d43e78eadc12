"""Additive statistic containers.

Each class is a tagged point in one learner state space. Addition is
componentwise, defined only between statistics with the same tag and
per-statistic shapes; the zero element is the additive identity. Instances
are treated as immutable values. A stack of k statistics carries a leading
axis of length k in every slot (the batch axes are those of the `lead`
slot beyond its own ndim), and addition broadcasts over batch axes.
BlockSym is the matrix family's (a, Z) for entry rounds, held as blocks,
with no batch axis. It and ScalarSym are two forms of one state, and an
entry run holds only the block form from its zero on: their sum raises
TagMismatchError like any other mix of tags.
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


class BlockSym:
    """(a, Z) of entry rounds, with Z held as disjoint principal blocks.

    A round on the entry e_i e_j^T adds 1 at (i, i) and at (d1 + j, d1 + j)
    and delta at (i, d1 + j) and its mirror, so Z's nonzeros join index i
    to index d1 + j. Each block is one connected component of that graph,
    a pair (rows, z): its indices and Z[rows][:, rows]. Z is zero off the
    blocks, and its diagonal is all of M, whose largest entry is `top`.
    `root` is a union-find over the indices in which every index points
    straight at its block's root, the block's first index, or holds -1
    while no round has touched it.

    Adding an entry step touches at most the two blocks that hold i and
    d1 + j, and shares every other block. A step whose off-diagonal entry
    cancels to exactly 0 splits its block again.
    """

    def __init__(self, a, d1, root, blocks, top):
        self.a, self.d1, self.root, self.blocks, self.top = a, d1, root, blocks, top

    @classmethod
    def zero(cls, d1, d2):
        """The zero statistic of d1 x d2 entries: no block, every index untouched."""
        return cls(0.0, d1, np.full(d1 + d2, -1, dtype=np.intp), {}, 0.0)

    @classmethod
    def entry(cls, entry, delta, a):
        """The statistic of one round on an Entry: (delta * y_hat, its dilation step)."""
        d1, d2 = entry.shape
        i, j = entry.i, d1 + entry.j
        out = cls(a, d1, np.full(d1 + d2, -1, dtype=np.intp), {}, 1.0)
        if delta:
            out._place([(np.array([i, j]), np.array([[1.0, delta], [delta, 1.0]]))])
        else:  # no edge: two blocks
            out._place([(np.array([k]), np.ones((1, 1))) for k in (i, j)])
        return out

    def _place(self, blocks):
        for rows, z in blocks:
            self.root[rows] = rows[0]
            self.blocks[int(rows[0])] = (rows, z)

    def gather(self, indices):
        """(roots, rows, z): the roots of the blocks that hold `indices`; their
        rows, block after block, then the untouched indices of `indices`;
        and Z on those rows."""
        owners = self.root[indices]
        roots = sorted(set(owners.tolist()) - {-1})
        parts = [self.blocks[r] for r in roots]
        rows = np.concatenate([p[0] for p in parts] + [indices[owners < 0]])
        z = np.zeros((rows.size, rows.size))
        at = 0
        for p_rows, p_z in parts:
            z[at:at + p_rows.size, at:at + p_rows.size] = p_z
            at += p_rows.size
        return roots, rows, z

    @property
    def Z(self):
        """Z as a dense array."""
        out = np.zeros((self.root.size, self.root.size))
        for rows, z in self.blocks.values():
            out[np.ix_(rows, rows)] = z
        return out

    def __add__(self, other):
        _require_same_tag(self, other)
        if (other.d1, other.root.size) != (self.d1, self.root.size):
            raise TagMismatchError(f"Z shapes differ: {self.root.size} vs {other.root.size}")
        out = BlockSym(self.a + other.a, self.d1, self.root.copy(), dict(self.blocks), self.top)
        for step_rows, step_z in other.blocks.values():
            roots, rows, z = out.gather(step_rows)
            at = positions(rows, step_rows)
            at = at[:, None], at
            z[at] += step_z
            out.top = max(out.top, float(z.diagonal().max()))
            for r in roots:
                del out.blocks[r]
            if ((z[at] == 0) & (step_z != 0)).any():  # an entry cancelled
                out._place(_components(rows, z))
            else:
                out._place([(rows, z)])
        return out


def positions(rows, indices):
    """Where each of `indices` sits in the array of distinct indices `rows`."""
    order = np.argsort(rows)
    return order[np.searchsorted(rows, indices, sorter=order)]


def _components(rows, z):
    """The connected components of z's nonzero pattern, as blocks."""
    link, left, out = z != 0, np.ones(rows.size, dtype=bool), []
    while left.any():
        comp = np.zeros_like(left)
        frontier = np.flatnonzero(left)[:1]
        while frontier.size:
            comp[frontier] = True
            frontier = np.flatnonzero(link[frontier].any(axis=0) & ~comp)
        left &= ~comp
        at = np.flatnonzero(comp)
        out.append((rows[at], z[np.ix_(at, at)]))
    return out


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

