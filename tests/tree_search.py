"""Exact expectations over a predictable tree's sign paths, and a search for
the tree that maximizes E[V]: a lower estimate of the game's start value.

Unlike tree_oracle, this module walks trees through the package's own fold
(verify.tree_leaves); it is a search, not an independent route.
"""

import math

import numpy as np

from burkholder.errors import DomainError
from burkholder.verify import PredictableTree, tree_leaves


def perturbed(tree, level, index, value):
    """A copy of tree with the node at index of level set to value."""
    levels = [lv.copy() for lv in tree.levels]
    levels[level - 1][index] = value
    return PredictableTree(levels)


def tree_expectation(P, tree, value_fn):
    """Exact E over sign paths of value_fn(sum_t T(x_t(eps), 0, eps_t L));
    value_fn takes the stack of leaves, as P.bound does."""
    return float(np.mean(value_fn(tree_leaves(P, tree))))


def brute_force_sup_ev(P, n, rng=None, search="random", k=20, ascent_steps=200):
    """Search trees for large E[V(sum T)]; approximates the game start value
    from below. Returns (best value, best tree, values per candidate).

    search: "random" tries k independent trees; "coordinate_ascent" additionally
    hill-climbs single-node perturbations from the best random start.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    vals = []
    best_tree, best = None, -math.inf
    for _ in range(int(k)):
        tree = PredictableTree.random(n, P.sample_instances, rng)
        v = tree_expectation(P, tree, P.bound)
        vals.append(v)
        if v > best:
            best, best_tree = v, tree
    if search == "coordinate_ascent":
        for _ in range(int(ascent_steps)):
            level = int(rng.integers(1, n + 1))
            idx = int(rng.integers(0, 2 ** (level - 1)))
            cand = perturbed(best_tree, level, idx, P.sample_instance(rng))
            v = tree_expectation(P, cand, P.bound)
            if v > best:
                best, best_tree = v, cand
    elif search != "random":
        raise DomainError(f"unknown search {search!r}")
    return best, best_tree, vals
