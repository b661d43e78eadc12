"""Symmetric linear algebra: eigensolves, dilations, projections.

The eigensolve checks run against an independent power-iteration oracle so
a wrong convention (ascending order, unsorted singular values) cannot pass
by construction.
"""

import numpy as np
import pytest

from burkholder.errors import DomainError
from burkholder.symlin import (Entry, dilation, dilation_square, log_trace_exp,
                               logsumexp, max_asymmetry, nuclear_projection,
                               spectral_norm, sym_eig, sym_eigvals, symmetrize)


def _power_top_eig(s, iters=2000, seed=0):
    # shift to psd first so the dominant eigenvalue is the algebraic top
    shift = 1.0 + float(np.sum(np.abs(s)))
    m = s + shift * np.eye(s.shape[0])
    rng = np.random.default_rng(seed)
    v = rng.normal(size=s.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = m @ v
        v = w / np.linalg.norm(w)
    return float(v @ m @ v) - shift


def _random_sym(rng, d):
    a = rng.normal(size=(d, d))
    return 0.5 * (a + a.T)


def test_symmetrize_and_asymmetry():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = symmetrize(a)
    assert np.array_equal(s, [[1.0, 1.0], [1.0, 3.0]])
    assert max_asymmetry(a) == 2.0
    assert max_asymmetry(s) == 0.0


def test_symmetrize_rejects_rectangles():
    with pytest.raises(DomainError):
        symmetrize(np.zeros((2, 3)))


class TestEigensolve:
    def test_top_eigenvalue_matches_power_iteration(self):
        """Independent route to the same number."""
        rng = np.random.default_rng(101)
        for _ in range(20):
            s = _random_sym(rng, int(rng.integers(2, 7)))
            w = sym_eigvals(s)
            assert w[0] == pytest.approx(_power_top_eig(s), abs=1e-8)

    def test_descending_order_and_reconstruction(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = _random_sym(rng, 5)
            w, q = sym_eig(s)
            assert np.all(np.diff(w) <= 1e-12)
            assert np.allclose(q @ np.diag(w) @ q.T, s, atol=1e-10)
            assert np.allclose(q.T @ q, np.eye(5), atol=1e-10)

    def test_eigvals_agree_with_full_solve(self):
        rng = np.random.default_rng(17)
        s = _random_sym(rng, 6)
        assert np.allclose(sym_eigvals(s), sym_eig(s)[0], atol=1e-12)


def test_dilation_layout():
    x = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
    d = dilation(x)
    assert d.shape == (5, 5)
    assert np.array_equal(d[:2, 2:], x)
    assert np.array_equal(d[2:, :2], x.T)
    assert np.array_equal(d[:2, :2], np.zeros((2, 2)))
    assert max_asymmetry(d) == 0.0


def test_dilation_spectrum_is_plus_minus_singular_values():
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = rng.normal(size=(3, 2))
        sv = np.linalg.svd(x, compute_uv=False)
        w = sym_eigvals(dilation(x))
        assert np.allclose(w[:2], sv, atol=1e-10)
        assert np.allclose(w[-2:], -sv[::-1], atol=1e-10)
        assert abs(w[2]) < 1e-10


def test_dilation_square_identity():
    rng = np.random.default_rng(29)
    for _ in range(50):
        x = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 5))))
        d = dilation(x)
        assert np.allclose(dilation_square(x), d @ d, atol=1e-10)


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(31)
    for _ in range(30):
        x = rng.normal(size=(4, 3))
        assert spectral_norm(x) == pytest.approx(
            float(np.linalg.svd(x, compute_uv=False)[0]), abs=1e-10)
    assert spectral_norm(np.zeros((2, 2))) == 0.0


def test_logsumexp_matches_naive_and_survives_large_inputs():
    vals = np.array([-1.0, 0.5, 2.0])
    assert logsumexp(vals) == pytest.approx(np.log(np.sum(np.exp(vals))), abs=1e-12)
    assert logsumexp(np.array([1000.0, 1000.0])) == pytest.approx(
        1000.0 + np.log(2.0), abs=1e-12)


def test_log_trace_exp_on_a_known_spectrum():
    s = np.diag([1.0, 0.0, -1.0])
    expected = np.log(np.exp(1.0) + 1.0 + np.exp(-1.0))
    assert log_trace_exp(s) == pytest.approx(expected, abs=1e-12)


def test_log_trace_exp_is_monotone_under_psd_bumps():
    rng = np.random.default_rng(37)
    for _ in range(200):
        a = _random_sym(rng, 4)
        v = rng.normal(size=4)
        b = a + np.outer(v, v)
        assert log_trace_exp(b) >= log_trace_exp(a) - 1e-12


def test_nuclear_projection_soft_thresholds():
    out = nuclear_projection(np.diag([3.0, 1.0]), 2.0)
    assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)


def test_nuclear_projection_basics():
    w = np.array([[0.3, 0.0], [0.0, 0.2]])
    out = nuclear_projection(w, 1.0)  # already inside the ball
    assert np.array_equal(out, w)
    assert out is not w
    assert np.array_equal(nuclear_projection(w, 0.0), np.zeros((2, 2)))
    with pytest.raises(DomainError):
        nuclear_projection(w, -1.0)


def test_nuclear_projection_is_idempotent_and_feasible():
    rng = np.random.default_rng(41)
    for _ in range(100):
        w = rng.normal(size=(4, 3)) * 2.0
        radius = float(rng.uniform(0.1, 3.0))
        p1 = nuclear_projection(w, radius)
        assert float(np.linalg.svd(p1, compute_uv=False).sum()) <= radius + 1e-9
        p2 = nuclear_projection(p1, radius)
        assert np.allclose(p1, p2, atol=1e-10)


def test_nuclear_projection_is_a_euclidean_projection():
    # the projection must beat every other feasible point in distance
    rng = np.random.default_rng(43)
    w = rng.normal(size=(3, 3)) * 2.0
    radius = 1.5
    p = nuclear_projection(w, radius)
    base = np.linalg.norm(w - p)
    for _ in range(100):
        q = rng.normal(size=(3, 3))
        q = nuclear_projection(q, radius)
        assert np.linalg.norm(w - q) >= base - 1e-9


def test_entry_dilations_are_bit_identical_to_the_dense_ones():
    for i, j, shape in [(0, 0, (1, 1)), (2, 1, (3, 2)), (0, 4, (2, 5)), (6, 6, (7, 7))]:
        x = Entry(i, j, shape)
        dense = np.asarray(x)
        assert dense.shape == shape and dense[i, j] == 1.0 and dense.sum() == 1.0
        assert np.array_equal(dilation(x), dilation(dense))
        assert np.array_equal(dilation_square(x), dilation_square(dense))
    with pytest.raises(DomainError, match="outside"):
        Entry(3, 0, (3, 2))
    with pytest.raises(DomainError, match="outside"):
        Entry(0, -1, (3, 2))
