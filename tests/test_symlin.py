"""Symmetric linear algebra: eigensolves, dilation steps, projections.

The eigensolve checks run against an independent power-iteration oracle so
a wrong convention (ascending order, unsorted singular values) cannot pass
by construction.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burkholder.errors import DomainError, NumericError
from burkholder.symlin import (Entry, connects, dilation_step, live_rows,
                               logsumexp, nuclear_projection, principal_block,
                               spectral_norm, sym_eigvals)
from dilation_oracle import dilation, dilation_square, split


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


def _live_eigvals(s):
    """The spectrum of s the way MatrixPotential._block takes it: its live
    block gathered once, then sorted or factored and padded to s's size."""
    return sym_eigvals(principal_block(s, live_rows(s)), s.shape[-1])


class TestEigensolve:
    def test_top_eigenvalue_matches_power_iteration(self):
        """Independent route to the same number."""
        rng = np.random.default_rng(101)
        for _ in range(20):
            s = _random_sym(rng, int(rng.integers(2, 7)))
            w = sym_eigvals(s)
            assert w[0] == pytest.approx(_power_top_eig(s), abs=1e-8)

    def test_eigvals_agree_with_full_solve(self):
        rng = np.random.default_rng(17)
        s = _random_sym(rng, 6)
        assert np.allclose(sym_eigvals(s), np.linalg.eigvalsh(s)[::-1], atol=1e-12)


@st.composite
def _symmetric_with_dead_rows(draw):
    """A symmetric matrix with a random set of rows and columns zeroed:
    none, some or all of them, from 1 x 1 up."""
    n = draw(st.integers(1, 12))
    dead = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    s = _random_sym(np.random.default_rng(seed), n) * scale
    s[dead, :] = 0.0
    s[:, dead] = 0.0
    return s, int(n - dead.sum())


@settings(max_examples=300, deadline=None)
@given(_symmetric_with_dead_rows())
def test_live_block_spectrum_matches_the_dense_solve(case):
    s, k = case
    n = s.shape[0]
    w = _live_eigvals(s)
    dense = np.linalg.eigvalsh(s)[::-1]
    assert w.shape == (n,)
    assert np.all(np.diff(w) <= 0.0)
    tol = 1e-12 * max(1.0, float(np.linalg.norm(s)))
    assert np.max(np.abs(w - dense)) <= tol
    # the dead rows give exactly n - k zeros beyond the live block's spectrum
    live = np.any(s != 0, axis=1)
    assert int(live.sum()) == k
    assert np.array_equal(live_rows(s), np.flatnonzero(live))
    block = np.linalg.eigvalsh(s[np.ix_(live, live)])
    assert int(np.sum(w == 0.0)) == n - k + int(np.sum(block == 0.0))


def test_live_block_edge_cases():
    assert np.array_equal(_live_eigvals(np.zeros((4, 4))), np.zeros(4))
    assert _live_eigvals(np.zeros((0, 0))).shape == (0,)
    assert np.array_equal(_live_eigvals(np.array([[-2.0]])), [-2.0])
    s = np.zeros((5, 5))
    s[1, 3] = s[3, 1] = 2.0  # live rows 1 and 3: spectrum +-2 and three zeros
    assert np.array_equal(_live_eigvals(s), [2.0, 0.0, 0.0, 0.0, -2.0])
    with pytest.raises(NumericError):
        _live_eigvals(np.array([[0.0, np.nan], [np.nan, 0.0]]))
    with pytest.raises(NumericError):  # a row the live-block gather would drop
        _live_eigvals(np.diag([1.0, np.nan, 2.0]))
    with pytest.raises(NumericError):
        _live_eigvals(np.array([[np.inf]]))
    with pytest.raises(DomainError):
        sym_eigvals(np.zeros((2, 3)))
    # the live search reads columns as well as rows: the only nonzero lies
    # above the diagonal, in row 0 and column 2, and row 2 is live
    s = np.zeros((4, 4))
    s[0, 2] = 1.0
    assert np.array_equal(live_rows(s), [0, 2])
    assert np.array_equal(principal_block(s, live_rows(s)), [[0.0, 1.0], [0.0, 0.0]])
    s = np.zeros((3, 3))
    s[1, 1] = np.inf  # alone in an otherwise zero row and column
    with pytest.raises(NumericError):
        _live_eigvals(s)
    s = np.zeros((3, 3))
    s[2, 0] = -np.inf  # below the diagonal only
    with pytest.raises(NumericError):
        _live_eigvals(s)


def test_diagonal_spectrum_is_the_sorted_diagonal():
    """The eigensolve of a diagonal input returns its diagonal, sorted
    descending, bit for bit: stacks, zeros, negatives and a 1 x 1."""
    rng = np.random.default_rng(5)
    d = rng.normal(size=(3, 7))
    d[rng.random(d.shape) < 0.3] = 0.0
    cases = [np.zeros((1, 1)), np.array([[-2.5]]), np.diag([0.0, -1.0, 3.0, -1.0]),
             np.zeros((3, 3)), d[..., None] * np.eye(7), np.diag(rng.normal(size=40))]
    for s in cases:
        w = sym_eigvals(s)
        assert np.array_equal(w, np.linalg.eigvalsh(s)[..., ::-1])
        assert np.array_equal(w, np.sort(np.diagonal(s, axis1=-2, axis2=-1))[..., ::-1])


def test_one_off_diagonal_nonzero_takes_the_eigensolve(monkeypatch):
    calls = []
    solve = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or solve(a))
    s = np.diag([3.0, 1.0, 2.0, 0.0])
    s[0, 2] = s[2, 0] = 0.25
    w = _live_eigvals(s)
    assert calls == [(3, 3)]  # the live block: rows 0, 1 and 2
    assert np.allclose(w, solve(s)[::-1], atol=1e-14)


def test_dilation_layout():
    x = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
    d = split(dilation_step(x, 1.0), 2)[0]
    assert d.shape == (5, 5)
    assert np.array_equal(d[:2, 2:], x)
    assert np.array_equal(d[2:, :2], x.T)
    assert np.array_equal(d[:2, :2], np.zeros((2, 2)))
    assert np.array_equal(d, d.T)
    z = dilation_step(x, -2.0)
    assert np.array_equal(z[:2, 2:], -2.0 * x)
    assert np.array_equal(z[:2, :2], x @ x.T)
    assert np.array_equal(z[2:, 2:], x.T @ x)
    assert np.array_equal(z, z.T)


def test_dilation_spectrum_is_plus_minus_singular_values():
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = rng.normal(size=(3, 2))
        sv = np.linalg.svd(x, compute_uv=False)
        w = sym_eigvals(split(dilation_step(x, 1.0), 3)[0])
        assert np.allclose(w[:2], sv, atol=1e-10)
        assert np.allclose(w[-2:], -sv[::-1], atol=1e-10)
        assert abs(w[2]) < 1e-10


def test_dilation_square_identity():
    rng = np.random.default_rng(29)
    for _ in range(50):
        x = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 5))))
        d = dilation(x)
        assert np.allclose(dilation_square(x), d @ d, atol=1e-10)
        assert np.allclose(split(dilation_step(x, 1.0), x.shape[0])[1], d @ d, atol=1e-10)


def test_dilation_step_is_the_scaled_dilation_plus_its_square():
    """dilation_step(x, delta) = delta D + D D on dense stacks: one instance
    against a stack of deltas, a stack of instances with one delta each, and
    a stack of instances against one delta."""
    rng = np.random.default_rng(30)
    for d1, d2 in [(1, 1), (3, 2), (2, 5), (4, 4)]:
        xs = rng.normal(size=(6, d1, d2))
        deltas = rng.uniform(-2, 2, 6)
        d = dilation(xs)
        cases = [(xs[0], deltas, deltas[:, None, None] * d[0] + d[0] @ d[0]),
                 (xs, deltas, deltas[:, None, None] * d + d @ d),
                 (xs, deltas[0], deltas[0] * d + d @ d)]
        for x, delta, want in cases:
            got = dilation_step(x, delta)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12


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
    assert logsumexp(sym_eigvals(s)) == pytest.approx(expected, abs=1e-12)


def test_log_trace_exp_is_monotone_under_psd_bumps():
    rng = np.random.default_rng(37)
    for _ in range(200):
        a = _random_sym(rng, 4)
        v = rng.normal(size=4)
        b = a + np.outer(v, v)
        assert logsumexp(sym_eigvals(b)) >= logsumexp(sym_eigvals(a)) - 1e-12


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


def _full_svd_projection(w, radius):
    # the projection through a full SVD of w, zero rows and columns included
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    if s.sum() <= radius:
        return w.copy()
    css = np.cumsum(s) - radius
    k = int(np.nonzero(s - css / np.arange(1, s.size + 1) > 0)[0][-1]) + 1
    return (u * np.maximum(s - css[k - 1] / k, 0.0)) @ vt


def test_nuclear_projection_factors_the_live_block_only():
    rng = np.random.default_rng(47)
    for trial in range(60):
        d1, d2 = (int(v) for v in rng.integers(1, 9, size=2))
        w = rng.normal(size=(d1, d2)) * rng.uniform(0.1, 3.0)
        rows, cols = rng.random(d1) < 0.4, rng.random(d2) < 0.4
        w[rows, :] = 0.0
        w[:, cols] = 0.0
        radius = float(rng.uniform(0.1, 2.0))
        p = nuclear_projection(w, radius)
        assert np.max(np.abs(p - _full_svd_projection(w, radius)), initial=0.0) <= 1e-12
        assert not p[rows, :].any() and not p[:, cols].any()
    zero = np.zeros((4, 3))
    out = nuclear_projection(zero, 1.0)
    assert np.array_equal(out, zero) and out is not zero


def _projection_cases(rng):
    """(w, radius) pairs: random, rank-deficient, tall and wide, each with
    the soft threshold drawn from 1e-4 to 0.5 of the top singular value,
    and points 1e-10 relative inside and outside the ball."""
    for trial in range(200):
        d1, d2 = [(30, 8), (8, 30), (20, 20), (12, 17)][trial % 4]
        rank = min(d1, d2) if trial % 8 < 4 else int(rng.integers(1, min(d1, d2)))
        w = rng.normal(size=(d1, rank)) @ rng.normal(size=(rank, d2)) * 10 ** rng.uniform(-2, 2)
        s = np.linalg.svd(w, compute_uv=False)
        theta = s[0] * 10 ** rng.uniform(-4, math.log10(0.5))
        yield w, float(np.maximum(s - theta, 0.0).sum())
        yield w, float(s.sum() * (1 + 1e-10))
        yield w, float(s.sum() * (1 - 1e-10))


def test_nuclear_projection_matches_a_full_svd_within_its_bound():
    """The Gram route, and the SVD it falls back to where the Gram spectrum
    cannot resolve the threshold or the radius, agree with a full-SVD
    projection within 1e-12 ||w||_2."""
    rng = np.random.default_rng(59)
    for w, radius in _projection_cases(rng):
        got = nuclear_projection(w, radius)
        scale = np.linalg.svd(w, compute_uv=False)[0]
        assert np.max(np.abs(got - _full_svd_projection(w, radius))) <= 1e-12 * scale


def test_nuclear_projection_takes_the_svd_only_where_the_gram_route_is_loose(monkeypatch):
    """A soft threshold of 1e-3 s_1 is resolved by the Gram spectrum; one of
    1e-6 s_1, or a point 1e-10 relative inside or outside the ball, takes
    the SVD."""
    svd = np.linalg.svd
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    w = np.diag([3.0, 2.0, 1.0]) @ np.array([[0.6, 0.8, 0.0], [-0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
    for radius, factored in [(6.0 - 3 * 3e-3, False), (6.0 - 3 * 3e-6, True),
                             (6.0 * (1 - 1e-10), True), (6.0 * (1 + 1e-10), True)]:
        calls.clear()
        got = nuclear_projection(w, radius)
        assert bool(calls) == factored
        assert np.max(np.abs(got - _full_svd_projection(w, radius))) <= 1e-12 * 3.0


def test_connects_follows_nonzero_paths():
    s = np.zeros((6, 6))
    for a, b in [(0, 3), (3, 1), (1, 4)]:
        s[a, b] = s[b, a] = 1.0
    assert connects(s, [0], [4])  # 0 - 3 - 1 - 4
    assert connects(s, [2, 3], [3])  # a shared index
    assert not connects(s, [0], [2, 5])
    assert not connects(s, [2], [0, 1, 3, 4])
    s[2, 5] = s[5, 2] = np.nan  # a NaN entry is a nonzero
    assert connects(s, [2], [5])


def test_connects_on_a_stack_answers_member_by_member():
    """Masks of shape (k, n) against a stack of k matrices give each
    member the answer of its own call with index lists."""
    rng = np.random.default_rng(5)
    s = rng.normal(size=(60, 7, 7)) * (rng.uniform(size=(60, 7, 7)) < 0.15)
    s = s + s.swapaxes(-1, -2)
    sources, targets = rng.uniform(size=(2, 60, 7)) < 0.2
    got = connects(s, sources, targets)
    want = [connects(m, np.flatnonzero(a), np.flatnonzero(b))
            for m, a, b in zip(s, sources, targets)]
    assert got.shape == (60,) and got.tolist() == want
    assert 0 < sum(want) < 60


def test_entry_dilations_are_bit_identical_to_the_dense_ones():
    for i, j, shape in [(0, 0, (1, 1)), (2, 1, (3, 2)), (0, 4, (2, 5)), (6, 6, (7, 7))]:
        x = Entry(i, j, shape)
        dense = np.asarray(x)
        assert dense.shape == shape and dense[i, j] == 1.0 and dense.sum() == 1.0
        # values equal bit for bit, but for the sign of a zero: the dense
        # step holds -0.0 where a negative delta meets a zero of x, which
        # the statistic's sums turn into 0.0
        for delta in (0.7, -1.5, np.array([-1.0, 0.0, 0.25])):
            got, want = dilation_step(x, delta), dilation_step(dense, delta)
            assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(split(dilation_step(x, 1.0), shape[0])[0], dilation(dense))
        assert np.array_equal(split(dilation_step(x, 1.0), shape[0])[1], dilation_square(dense))
    with pytest.raises(DomainError, match="outside"):
        Entry(3, 0, (3, 2))
    with pytest.raises(DomainError, match="outside"):
        Entry(0, -1, (3, 2))
