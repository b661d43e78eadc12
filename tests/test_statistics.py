"""Statistic containers: tagged addition, zero elements, numeric equality."""

import numpy as np
import pytest

from burkholder.errors import TagMismatchError
from burkholder.statistics import (BlockSym, ProductStat, ScalarSym, ScalarVec,
                                   ScalarVecScalar, VecSym)
from burkholder.symlin import Entry, connects
from dilation_oracle import dilation, dilation_square
from stat_oracle import stats_allclose


def test_scalar_vec_adds_componentwise():
    a = ScalarVec(1.0, np.array([1.0, 2.0]))
    b = ScalarVec(0.5, np.array([3.0, -1.0]))
    out = a + b
    assert out.b == 1.5
    assert np.array_equal(out.x, [4.0, 1.0])


def test_vec_sym_adds_componentwise():
    a = VecSym(np.array([1.0, 0.0]), np.eye(2))
    b = VecSym(np.array([0.0, 2.0]), 2.0 * np.eye(2))
    out = a + b
    assert np.array_equal(out.x, [1.0, 2.0])
    assert np.array_equal(out.A, 3.0 * np.eye(2))


def test_zero_elements_are_additive_identities():
    rng = np.random.default_rng(3)
    cases = [
        (ScalarVec(rng.normal(), rng.normal(size=4)), ScalarVec.zero(4)),
        (VecSym(rng.normal(size=3), rng.normal(size=(3, 3))), VecSym.zero(3)),
        (ScalarVecScalar(rng.normal(), rng.normal(size=2), 1.5),
         ScalarVecScalar.zero(2)),
        (ScalarSym(rng.normal(), rng.normal(size=(3, 3))), ScalarSym.zero(3)),
    ]
    for stat, zero in cases:
        assert stats_allclose(stat + zero, stat)
        assert stats_allclose(zero + stat, stat)


def test_coordinatewise_zero_carries_a_vector_slot():
    z = ScalarVecScalar.zero(3, coordinatewise=True)
    assert np.shape(z.s) == (3,)
    assert np.shape(ScalarVecScalar.zero(3).s) == ()


def test_cross_tag_addition_is_rejected():
    with pytest.raises(TagMismatchError):
        ScalarVec.zero(2) + VecSym.zero(2)


def test_shape_mismatch_is_rejected():
    with pytest.raises(TagMismatchError, match="shapes differ"):
        ScalarVec.zero(2) + ScalarVec.zero(3)
    # scalar accumulator vs per-coordinate accumulator
    with pytest.raises(TagMismatchError):
        ScalarVecScalar.zero(2) + ScalarVecScalar.zero(2, coordinatewise=True)


def test_product_stat_adds_part_by_part():
    p = ProductStat((ScalarVec(1.0, np.ones(2)), ScalarVecScalar(0.0, np.ones(1), 2.0)))
    q = ProductStat((ScalarVec(2.0, np.ones(2)), ScalarVecScalar(1.0, np.ones(1), 3.0)))
    out = p + q
    assert out.parts[0].b == 3.0
    assert out.parts[1].s == 5.0


def test_product_arity_mismatch_is_rejected():
    p = ProductStat((ScalarVec.zero(2),))
    q = ProductStat((ScalarVec.zero(2), ScalarVec.zero(2)))
    with pytest.raises(TagMismatchError, match="arities differ"):
        p + q


def test_stats_allclose_discriminates():
    a = ScalarVec(1.0, np.array([1.0, 2.0]))
    assert stats_allclose(a, ScalarVec(1.0, np.array([1.0, 2.0])))
    assert not stats_allclose(a, ScalarVec(1.0, np.array([1.0, 2.1])))
    assert not stats_allclose(a, VecSym(np.array([1.0, 2.0]), np.eye(2)))
    p = ProductStat((a, VecSym.zero(2)))
    q = ProductStat((a, VecSym(np.zeros(2), np.eye(2))))
    assert not stats_allclose(p, q)
    assert stats_allclose(p, ProductStat((a, VecSym.zero(2))))


def _entry_step(i, j, shape, delta, y_hat=0.5):
    """One entry round as a BlockSym and as the dense ScalarSym of its matrix."""
    x = np.asarray(Entry(i, j, shape))
    dense = ScalarSym(delta * y_hat, delta * dilation(x) + dilation_square(x))
    return BlockSym.entry(Entry(i, j, shape), delta, delta * y_hat), dense


def test_block_statistic_sums_as_its_dense_form():
    """Entry rounds summed as a BlockSym give the dense sum's a and Z bit
    for bit, in blocks that are exactly the connected components of Z's
    nonzeros (a delta = 0 round joins nothing; cell (1, 2) is seen with
    opposite deltas, so its entry cancels and its block splits), and the
    largest diagonal entry as top. The sum starts from the zero BlockSym,
    and a BlockSym mixed with a ScalarSym raises TagMismatchError."""
    shape, rng = (5, 4), np.random.default_rng(7)
    cells = [(0, 1, 0.5), (1, 2, -0.7), (3, 3, 0.0), (1, 1, 0.2), (1, 2, 0.7),
             (4, 0, -1.0), (4, 1, 0.3), (2, 3, 0.9), (0, 1, -0.25)]
    block, dense = BlockSym.zero(*shape), ScalarSym.zero(9)
    for i, j, delta in cells:
        b, d = _entry_step(i, j, shape, delta, rng.uniform(-1, 1))
        block, dense = block + b, dense + d
        assert isinstance(block, BlockSym)
        assert block.a == dense.a and np.array_equal(block.Z, dense.Z)
        assert block.top == dense.Z.diagonal().max()
        rows = [r for r, _ in block.blocks.values()]
        assert sorted(np.concatenate(rows).tolist()) == np.flatnonzero(block.root >= 0).tolist()
        for r in rows:
            assert (block.root[r] == r[0]).all()
            assert all(connects(dense.Z, [r[0]], [k]) for k in r)
            others = np.setdiff1d(np.arange(9), r)
            assert not connects(dense.Z, r, others)
    assert block.root[1] != block.root[5 + 2]  # the cancelled cell parted
    assert block.root[3] != block.root[5 + 3]  # the delta = 0 round joined nothing
    other = ScalarSym(0.1, np.eye(9))
    with pytest.raises(TagMismatchError, match="ScalarSym with BlockSym"):
        other + block
    with pytest.raises(TagMismatchError, match="BlockSym with ScalarSym"):
        block + other
    with pytest.raises(TagMismatchError):
        block + BlockSym.entry(Entry(0, 0, (4, 5)), 1.0, 0.0)
    with pytest.raises(TagMismatchError):
        ScalarSym.zero(8) + block
