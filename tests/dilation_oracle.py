"""The dilation and its square as separate dense matrices, the tests' oracle.

The package keeps one matrix Z per statistic, whose off-diagonal blocks hold
the drift H = sum delta D(X) and whose diagonal blocks hold the variance
M = sum D(X)^2. The tests build D(X) and D(X)^2 here on their own and split
a statistic back into (H, M) to compare with them.
"""

import numpy as np


def dilation(x):
    """Self-adjoint dilation [[0, X], [X^T, 0]] of a (stack of) d1 x d2 matrix.

    Its largest eigenvalue equals the largest singular value of X, and its
    eigenvalues come in +/- pairs padded with zeros.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    *batch, d1, d2 = x.shape
    out = np.zeros((*batch, d1 + d2, d1 + d2))
    out[..., :d1, d1:] = x
    out[..., d1:, :d1] = x.swapaxes(-1, -2)
    return out


def dilation_square(x):
    """Block diagonal [[X X^T, 0], [0, X^T X]]; equals dilation(x) @ dilation(x)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    *batch, d1, d2 = x.shape
    out = np.zeros((*batch, d1 + d2, d1 + d2))
    xt = x.swapaxes(-1, -2)
    out[..., :d1, :d1] = x @ xt
    out[..., d1:, d1:] = xt @ x
    return out


def split(z, d1):
    """(H, M): the off-diagonal and the diagonal blocks of Z (a statistic's
    Z slot or a dilation step), each as a full-size matrix."""
    z = np.asarray(z.Z if hasattr(z, "Z") else z, dtype=float)
    diagonal = np.zeros(z.shape[-1], dtype=bool)
    diagonal[:d1] = True
    same = diagonal[:, None] == diagonal[None, :]
    return np.where(same, 0.0, z), np.where(same, z, 0.0)
