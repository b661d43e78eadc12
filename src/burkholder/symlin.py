"""Dense symmetric linear algebra used by the matrix-valued potentials.

Everything here operates on plain numpy arrays, except `Entry`, an indicator
matrix e_i e_j^T carried as its index. The self-adjoint dilation embeds a
rectangular matrix into a symmetric one so that spectral quantities reduce
to eigenvalues; `dilation_step` gives a round's dilation and its square in
one array. Dense arguments may carry leading batch axes.

Spectra follow one rule: the caller gathers the block, and `sym_eigvals`
factors it and pads it. A dense statistic slot touches only its live rows
and columns (those not identically zero, found by `live_rows`), so the
caller gathers its live principal block once (`principal_block`) and
works on the block.
`sym_eigvals` takes that symmetric block as given: a nonempty block is one
eigvalsh. Each row outside the block adds an exact zero eigenvalue, padded
up to the full size; no full-size temporary is built. For a stack the live
block is the union of the members' live rows, so one batched eigvalsh
serves all; a row dead in one member but live in another is a zero row
inside its block, still an exact zero eigenvalue. This is exact in exact
arithmetic. In floating point the padded zeros are exact where a dense
solve leaves roundoff of order 1e-16 times the norm, so results agree with
a dense eigvalsh to roundoff, not bit for bit. A completion statistic
(statistics.BlockSym) goes further: it holds Z as one block per connected
component of Z's nonzeros, and Z's spectrum is the union of the blocks'
spectra with a zero for each untouched row. Its caller factors a block
unpadded, only the block a round forms, so a round costs the cube of one
component's size instead of that of the live size or of (d1 + d2).
"""

import numpy as np

from .errors import DomainError, NumericError


class Entry:
    """The d1 x d2 indicator matrix e_i e_j^T, stored as its index (i, j).

    np.asarray(entry) gives the dense matrix, so any consumer of dense
    instances, dilation_step among them, accepts an Entry. The matrix
    family's block statistic (statistics.BlockSym) and the comparator
    search use the index directly: the matrix family plays entries without
    building the matrix.
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


def dilation_step(x, delta):
    """delta D + D^2 for the self-adjoint dilation D = [[0, X], [X^T, 0]] of
    a d1 x d2 matrix: [[X X^T, delta X], [delta X^T, X^T X]].

    D's eigenvalues are +/- the singular values of X padded with zeros, so
    the off-diagonal blocks carry delta X and the diagonal blocks D^2. A
    stack of deltas broadcasts against x's batch axes. An Entry is read as
    its dense matrix; an entry round's own step is statistics.BlockSym.entry.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    delta = np.asarray(delta, dtype=float)
    *batch, d1, d2 = x.shape
    out = np.zeros(np.broadcast_shapes(tuple(batch), delta.shape) + (d1 + d2, d1 + d2))
    xt, delta = x.swapaxes(-1, -2), delta[..., None, None]
    out[..., :d1, :d1] = x @ xt
    out[..., d1:, d1:] = xt @ x
    out[..., :d1, d1:] = delta * x
    out[..., d1:, :d1] = delta * xt
    return out


def live_rows(s):
    """Sorted indices of the rows of an n x n argument that are live: not
    identically zero in row or column in some member of a stack.

    On one matrix, `any` reductions along both axes allocate only length-n
    vectors; a stack is first folded to the n x n mask, one byte an entry,
    of the entries nonzero in some member. A NaN or inf entry counts as
    nonzero, so it makes its own row live and a finiteness check on the
    live block still sees it.
    """
    if s.ndim > 2:
        s = s.any(axis=tuple(range(s.ndim - 2)))
    return np.nonzero(s.any(axis=-1) | s.any(axis=-2))[0]


def connects(s, sources, targets):
    """Whether a path along the nonzero entries of the symmetric n x n
    matrix s leads from an index in `sources` to one in `targets` (a shared
    index counts): the sources' reach grows along the nonzeros until it
    stops. sources and targets are index lists or boolean masks over the n
    indices; on a stack s of shape (..., n, n), masks of shape (..., n)
    give each member its own, and the answer is one per member."""
    link = s != 0
    reach, target = np.zeros((2,) + s.shape[:-1], dtype=bool)
    reach[..., sources] = target[..., targets] = True
    while True:
        grown = reach | (reach[..., None] & link).any(axis=-2)
        if np.array_equal(grown, reach):
            return (reach & target).any(axis=-1)
        reach = grown


def principal_block(s, live):
    """s[..., live, live] as a new array, gathered by one flat take."""
    n, k = s.shape[-1], live.size
    if k == n:
        return s.copy()
    flat = (live[:, None] * n + live).ravel()
    return s.reshape(s.shape[:-2] + (n * n,)).take(flat, axis=-1).reshape(
        s.shape[:-2] + (k, k))


def sym_eigvals(s, n=None):
    """Eigenvalues of a symmetric block s of an n x n argument (n defaults
    to s's own size), descending along the last axis.

    A nonempty s is one eigvalsh. The rows of the argument outside the
    block add exact zero eigenvalues.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
        raise DomainError(f"expected a square matrix, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise NumericError("non-finite entries in symmetric eigensolve",
                           {"max_abs": float(np.nanmax(np.abs(s)))})
    w = np.zeros(s.shape[:-2] + (s.shape[-1] if n is None else n,))
    if s.shape[-1]:
        w[..., :s.shape[-1]] = np.linalg.eigvalsh(s)
    return np.sort(w, axis=-1)[..., ::-1].copy()


def logsumexp(vals):
    """log(sum(exp(vals))) over the last axis with the max shifted out; safe
    for large spreads."""
    vals = np.asarray(vals, dtype=float)
    m = vals.max(axis=-1)
    if not np.isfinite(m).all():
        raise NumericError("non-finite value in logsumexp", {"values": vals})
    return m + np.log(np.exp(vals - m[..., None]).sum(axis=-1))


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

    Only the live block b is factored: the rows and columns of w that are
    not identically zero. Its singular values are those of w without exact
    zeros, so soft-thresholding them at theta (the l1 projection) gives the
    projection, exactly zero outside the block. The singular triplets above
    theta come from eigh of the smaller Gram matrix, b^T b (a wide b is
    handled as b^T), and the block becomes b V_k diag(1 - theta / s_i) V_k^T.
    A Gram eigenvalue carries an absolute error of about eps s_1^2, so each
    kept s_i = sqrt(lambda_i), and the projected block, are off by about
    eps s_1^2 / theta: within about 1e-12 s_1 when theta >= 1e-4 s_1. An s_i
    near zero is off by up to sqrt(eps) s_1, so the Gram sum of the k
    singular values resolves the radius only to k sqrt(k eps) s_1. When
    theta is smaller, or the sum lies within that resolution of the radius,
    the block takes a full SVD instead.
    """
    if radius < 0:
        raise DomainError("nuclear projection radius must be >= 0")
    w = np.atleast_2d(np.asarray(w, dtype=float))
    if radius == 0:
        return np.zeros_like(w)
    block = np.ix_(np.flatnonzero(w.any(axis=1)), np.flatnonzero(w.any(axis=0)))
    b = w[block]
    c = b if b.shape[0] >= b.shape[1] else b.T  # the tall orientation
    lam, v = np.linalg.eigh(c.T @ c)  # ascending
    s = np.sqrt(np.maximum(lam[::-1], 0.0))
    s1, k = s.max(initial=0.0), s.size
    resolution = k * np.sqrt(k * np.finfo(float).eps) * s1
    if s.sum() <= radius - resolution:
        return w.copy()
    if s.sum() > radius + resolution:
        shrunk = _project_l1_sorted(s, radius)
        theta = s[0] - shrunk[0]
        if theta >= 1e-4 * s1:
            kept = np.count_nonzero(shrunk)
            v = v[:, k - kept:]  # the kept s_i, ascending like lam
            cv = c @ v
            cv *= 1.0 - theta / s[kept - 1::-1]
            out = w.copy()
            out[block] = cv @ v.T if c is b else (cv @ v.T).T
            return out
    u, s, vt = np.linalg.svd(b, full_matrices=False)
    out = w.copy()
    if float(np.sum(s)) > radius:
        u *= _project_l1_sorted(s, radius)
        out[block] = u @ vt
    return out
