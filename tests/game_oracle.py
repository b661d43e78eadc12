"""Exact one-round game values and a fixed comparator's losses, kept as the
tests' oracle: what a strategy's prediction is worth against the worst
label, and what a fixed linear predictor loses, outside the play loop."""

import numpy as np

from burkholder.harness import _design
from burkholder.strategies import sup_labels


def realized_game_value(P, zeta, x, dist, loss, *, t=None):
    """sup_y sum_i mu_i U(zeta + T(x, z_i, dloss(z_i, y))) for a grid strategy."""
    ys = sup_labels(P, loss, points=dist.points)
    table = P.round_values(zeta, x, dist.points, ys, loss, t=t)
    return float(np.max(dist.probs @ table))


def round_descent(P, zeta_prev, x, y_hat, loss, *, t=1):
    """sup over y in [-B, B] of U(zeta + T(x, y_hat, dloss)) - U(zeta) in round
    t, taken exactly on the loss's critical labels."""
    ys = sup_labels(P, loss)
    table = P.round_values(zeta_prev, x, np.array([y_hat]), ys, loss, t=t)
    return float(np.max(table)) - P.eval(zeta_prev, t=t - 1)


def comparator_losses(xs, ys, loss, w):
    """Per-round losses of the fixed linear predictor t -> <w, x_t>."""
    forward, _, _ = _design(xs)
    preds = forward(np.asarray(w, dtype=float).reshape(-1))
    return np.asarray(loss.value(preds, np.asarray(ys, dtype=float)), dtype=float)
