"""Statistic containers: tagged addition, zero elements, numeric equality."""

import numpy as np
import pytest

from burkholder.errors import TagMismatchError
from burkholder.statistics import (ProductStat, ScalarSym, ScalarVec,
                                   ScalarVecScalar, VecSym)
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
