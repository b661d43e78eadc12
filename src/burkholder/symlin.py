"""Dense symmetric linear algebra used by the matrix-valued potentials.

Everything here operates on plain numpy arrays, except `Entry`, an indicator
matrix e_i e_j^T carried as its index. The self-adjoint dilation embeds a
rectangular matrix into a symmetric one so that spectral quantities reduce
to eigenvalues.
"""

import numpy as np

from .errors import DomainError, NumericError


def symmetrize(s):
    """Return the symmetric part (s + s^T) / 2 as a new array."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {s.shape}")
    return 0.5 * (s + s.T)


def max_asymmetry(s):
    s = np.asarray(s, dtype=float)
    return float(np.max(np.abs(s - s.T))) if s.size else 0.0


class Entry:
    """The d1 x d2 indicator matrix e_i e_j^T, stored as its index (i, j).

    np.asarray(entry) gives the dense matrix, so any consumer of dense
    instances accepts an Entry; dilation, dilation_square and the comparator
    search use the index directly, with results equal to the dense ones.
    """
    __slots__ = ("i", "j", "shape")

    def __init__(self, i, j, shape):
        d1, d2 = (int(d) for d in shape)
        if not (0 <= i < d1 and 0 <= j < d2):
            raise DomainError(f"index ({i}, {j}) outside ({d1}, {d2})")
        self.i, self.j, self.shape = int(i), int(j), (d1, d2)

    @property
    def flat_index(self):
        """Position of the nonzero in the row-major flattening."""
        return self.i * self.shape[1] + self.j

    def __array__(self, dtype=None, copy=None):
        out = np.zeros(self.shape, dtype=float if dtype is None else dtype)
        out[self.i, self.j] = 1
        return out


def as_matrix(x):
    """x itself when it is an Entry, else x as a 2-D float array."""
    if isinstance(x, Entry):
        return x
    return np.atleast_2d(np.asarray(x, dtype=float))


def dilation(x):
    """Self-adjoint dilation [[0, X], [X^T, 0]] of a d1 x d2 matrix.

    Its largest eigenvalue equals the largest singular value of X, and its
    eigenvalues come in +/- pairs padded with zeros.
    """
    x = as_matrix(x)
    d1, d2 = x.shape
    out = np.zeros((d1 + d2, d1 + d2))
    if isinstance(x, Entry):
        out[x.i, d1 + x.j] = out[d1 + x.j, x.i] = 1.0
        return out
    out[:d1, d1:] = x
    out[d1:, :d1] = x.T
    return out


def dilation_square(x):
    """Block diagonal [[X X^T, 0], [0, X^T X]]; equals dilation(x) @ dilation(x)."""
    x = as_matrix(x)
    d1, d2 = x.shape
    out = np.zeros((d1 + d2, d1 + d2))
    if isinstance(x, Entry):
        # e_i e_j^T (e_i e_j^T)^T = e_i e_i^T and the transpose product is e_j e_j^T
        out[x.i, x.i] = out[d1 + x.j, d1 + x.j] = 1.0
        return out
    out[:d1, :d1] = x @ x.T
    out[d1:, d1:] = x.T @ x
    return out


def sym_eig(s):
    """Eigendecomposition of a symmetric matrix.

    Returns (w, q) with eigenvalues w in descending order and orthonormal
    columns q, so s = q @ diag(w) @ q.T up to roundoff. The input is
    symmetrized defensively before factoring.
    """
    s = symmetrize(s)
    if not np.all(np.isfinite(s)):
        raise NumericError("non-finite entries in symmetric eigensolve",
                           {"max_abs": float(np.nanmax(np.abs(s)))})
    w, q = np.linalg.eigh(s)
    return w[::-1].copy(), q[:, ::-1].copy()


def sym_eigvals(s):
    """Eigenvalues only, descending."""
    s = symmetrize(s)
    if not np.all(np.isfinite(s)):
        raise NumericError("non-finite entries in symmetric eigensolve",
                           {"max_abs": float(np.nanmax(np.abs(s)))})
    return np.linalg.eigvalsh(s)[::-1].copy()


def logsumexp(vals):
    """log(sum(exp(vals))) with the max shifted out; safe for large spreads."""
    vals = np.asarray(vals, dtype=float)
    m = float(np.max(vals))
    if not np.isfinite(m):
        raise NumericError("non-finite value in logsumexp", {"values": vals})
    return m + float(np.log(np.sum(np.exp(vals - m))))


def log_trace_exp(s):
    """log tr exp(S) for symmetric S, evaluated on the spectrum with max shift."""
    return logsumexp(sym_eigvals(s))


def spectral_norm(x):
    """Largest singular value of x, via the top eigenvalue of its dilation."""
    lam = sym_eigvals(dilation(x))
    return max(float(lam[0]), 0.0)


def _project_l1_sorted(s, radius):
    # s sorted descending, nonnegative; soft-threshold onto the l1 ball.
    css = np.cumsum(s) - radius
    ks = np.arange(1, s.size + 1)
    ok = s - css / ks > 0
    k = int(np.nonzero(ok)[0][-1]) + 1
    theta = css[k - 1] / k
    return np.maximum(s - theta, 0.0)


def nuclear_projection(w, radius):
    """Euclidean projection of w onto the nuclear-norm ball of the given radius.

    Singular values are projected onto the l1 ball and the factors reused.
    """
    if radius < 0:
        raise DomainError("nuclear projection radius must be >= 0")
    w = np.atleast_2d(np.asarray(w, dtype=float))
    if radius == 0:
        return np.zeros_like(w)
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    if float(np.sum(s)) <= radius:
        return w.copy()
    s_proj = _project_l1_sorted(s, radius)
    return (u * s_proj) @ vt
