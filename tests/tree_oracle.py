"""An independent route through predictable trees, kept as the tests' oracle.

The package folds a tree a level at a time (verify.tree_leaves). This module
instead gathers each sign path's node values and sums them with einsum, and
takes spectra with a dense SVD and eigvalsh, so the two routes share only
the bit convention of sign_paths.
"""

import math

import numpy as np

from burkholder.errors import DomainError
from burkholder.verify import MAX_DEPTH, PredictableTree


def sign_paths(n):
    """(2^n, n) array of sign paths; bit s-1 of the row index gives eps_s."""
    if n > MAX_DEPTH:
        raise DomainError(f"depth {n} exceeds the exhaustive limit {MAX_DEPTH}")
    p = np.arange(2 ** n)[:, None]
    bits = (p >> np.arange(n)[None, :]) & 1
    return 2.0 * bits - 1.0


def constant_tree(values):
    """A fixed sequence: every node at level t holds values[t-1]."""
    return PredictableTree([np.broadcast_to(np.asarray(v, dtype=float),
                                            (2 ** t,) + np.shape(v)).copy()
                            for t, v in enumerate(values)])


def prefix_codes(n):
    """(2^n, n) int array: node index at each level along every path."""
    p = np.arange(2 ** n)[:, None]
    masks = (1 << np.arange(n)[None, :]) - 1
    return p & masks


def node(tree, t, prefix_index):
    """The value at level t (1-based) for the sign prefix of that index."""
    return tree.levels[t - 1][prefix_index]


def gather_tree(tree, codes):
    """Per-path node values, shape (paths, depth, *value_shape)."""
    return np.stack([tree.levels[t][codes[:, t]] for t in range(tree.depth)], axis=1)


def khintchine_ratio(tree):
    """E ||sum eps_t X_t||_sigma / sqrt(2 E max(||sum XX^T||, ||sum X^T X||)
    log(d1+d2)) over the tree's sign paths, or 0 when the denominator is."""
    g = gather_tree(tree, prefix_codes(tree.depth))
    s = np.einsum("pt,ptij->pij", sign_paths(tree.depth), g)
    lhs = float(np.mean(np.linalg.svd(s, compute_uv=False)[:, 0]))
    row_n = np.linalg.eigvalsh(np.einsum("ptij,ptkj->pik", g, g))[:, -1]
    col_n = np.linalg.eigvalsh(np.einsum("ptij,ptik->pjk", g, g))[:, -1]
    rhs = math.sqrt(2.0 * float(np.mean(np.maximum(row_n, col_n)))
                    * math.log(g.shape[2] + g.shape[3]))
    return lhs / rhs if rhs > 0 else 0.0
