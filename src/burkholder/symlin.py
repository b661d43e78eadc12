"""Dense symmetric linear algebra used by the matrix-valued potentials.

Everything here operates on plain numpy arrays, except `Entry`, an indicator
matrix e_i e_j^T carried as its index. The self-adjoint dilation embeds a
rectangular matrix into a symmetric one so that spectral quantities reduce
to eigenvalues. Dense arguments may carry leading batch axes.

Every spectrum of a statistic slot goes through `sym_eigvals`. A diagonal
argument (the M slot of a completion run) is its own spectrum, so it is
sorted, not factored. Otherwise only the live principal block of the
argument (the rows that are not identically zero) is factored, and the
spectrum is padded with exact zeros for the rest.
For a stack the live block is the union of the members' live rows, so one
batched eigvalsh serves all; a row dead in one member but live in another
is a zero row inside its block, still an exact zero eigenvalue. This is
exact in exact arithmetic. In floating point the padded zeros are exact where a
dense solve leaves roundoff of order 1e-16 times the norm, so results agree
with a dense eigvalsh to roundoff, not bit for bit. Completion statistics
touch only the rows and columns seen so far, so their spectra cost the cube
of the live size instead of (d1 + d2)^3.
"""

import numpy as np

from .errors import DomainError, NumericError


def symmetrize(s):
    """Return the symmetric part (s + s^T) / 2 as a new array."""
    s = np.asarray(s, dtype=float)
    if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
        raise DomainError(f"expected a square matrix, got shape {s.shape}")
    return 0.5 * (s + s.swapaxes(-1, -2))


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
    """x itself when it is an Entry, else x as a float array of at least 2-D."""
    if isinstance(x, Entry):
        return x
    return np.atleast_2d(np.asarray(x, dtype=float))


def dilation(x):
    """Self-adjoint dilation [[0, X], [X^T, 0]] of a d1 x d2 matrix.

    Its largest eigenvalue equals the largest singular value of X, and its
    eigenvalues come in +/- pairs padded with zeros.
    """
    x = as_matrix(x)
    *batch, d1, d2 = x.shape
    out = np.zeros((*batch, d1 + d2, d1 + d2))
    if isinstance(x, Entry):
        out[x.i, d1 + x.j] = out[d1 + x.j, x.i] = 1.0
        return out
    out[..., :d1, d1:] = x
    out[..., d1:, :d1] = x.swapaxes(-1, -2)
    return out


def dilation_square(x):
    """Block diagonal [[X X^T, 0], [0, X^T X]]; equals dilation(x) @ dilation(x)."""
    x = as_matrix(x)
    *batch, d1, d2 = x.shape
    out = np.zeros((*batch, d1 + d2, d1 + d2))
    if isinstance(x, Entry):
        # e_i e_j^T (e_i e_j^T)^T = e_i e_i^T and the transpose product is e_j e_j^T
        out[x.i, x.i] = out[d1 + x.j, d1 + x.j] = 1.0
        return out
    xt = x.swapaxes(-1, -2)
    out[..., :d1, :d1] = x @ xt
    out[..., d1:, d1:] = xt @ x
    return out


def _checked_symmetric(s):
    """The symmetric part of s and its largest |entry| per row over the
    stack: a row is live when that is positive, non-finite with any entry."""
    s = symmetrize(s)  # symmetric: rows = columns
    row_max = np.abs(s).max(axis=tuple(range(s.ndim - 1)), initial=0.0)
    if not np.isfinite(row_max).all():
        raise NumericError("non-finite entries in symmetric eigensolve",
                           {"max_abs": float(np.nanmax(np.abs(s)))})
    return s, row_max


def sym_eigvals(s):
    """Eigenvalues only, descending along the last axis.

    When every nonzero of the symmetrized input lies on its diagonal, the
    result is the sorted diagonal, with no eigensolve (an all-zero input
    included). Otherwise only the live principal block is factored: the
    rows that are not identically zero in some member of the stack. Each
    of the other n - k rows contributes an exact zero eigenvalue, so the
    result is the block's spectrum merged with n - k zeros. A fully live
    input is one plain eigvalsh call.
    """
    s, row_max = _checked_symmetric(s)
    diag = np.diagonal(s, axis1=-2, axis2=-1)
    if np.count_nonzero(s != 0) == np.count_nonzero(diag != 0):  # counts booleans faster
        return np.sort(diag, axis=-1)[..., ::-1].copy()
    live = np.flatnonzero(row_max > 0)
    if live.size == s.shape[-1]:
        return np.linalg.eigvalsh(s)[..., ::-1].copy()
    w = np.zeros(s.shape[:-1])
    block = s[..., live[:, None], live]
    del s, diag  # one gather, and no full matrix held in the solve: lower peak memory
    w[..., :live.size] = np.linalg.eigvalsh(block)
    return np.sort(w, axis=-1)[..., ::-1].copy()


def logsumexp(vals):
    """log(sum(exp(vals))) over the last axis with the max shifted out; safe
    for large spreads."""
    vals = np.asarray(vals, dtype=float)
    m = vals.max(axis=-1)
    if not np.isfinite(m).all():
        raise NumericError("non-finite value in logsumexp", {"values": vals})
    return m + np.log(np.exp(vals - m[..., None]).sum(axis=-1))


def log_trace_exp(s):
    """log tr exp(S) for symmetric S, evaluated on the spectrum with max shift."""
    return logsumexp(sym_eigvals(s))


def spectral_norm(x):
    """Largest singular value over the last two axes (0 if empty), one SVD."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.linalg.svd(x, compute_uv=False).max(axis=-1, initial=0.0)


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

    Only the live block is factored: the rows and columns of w that are not
    identically zero. Its singular values are those of w without exact
    zeros, so projecting them onto the l1 ball and reusing the factors
    gives the projection, exactly zero outside the block.
    """
    if radius < 0:
        raise DomainError("nuclear projection radius must be >= 0")
    w = np.atleast_2d(np.asarray(w, dtype=float))
    if radius == 0:
        return np.zeros_like(w)
    block = np.ix_(np.flatnonzero(w.any(axis=1)), np.flatnonzero(w.any(axis=0)))
    u, s, vt = np.linalg.svd(w[block], full_matrices=False)
    out = w.copy()
    if float(np.sum(s)) > radius:
        u *= _project_l1_sorted(s, radius)
        out[block] = u @ vt
    return out
