"""Convex Lipschitz losses on predictions in [-B, B].

Each loss carries its Lipschitz constant L on that interval and its strong
convexity modulus rho. Subgradients use the convention that 0 is returned
at kinks (it minimizes statistic motion); value and subgradient both accept
arrays and broadcast.
"""

import numpy as np

from .errors import DomainError

KINDS = ("absolute", "squared", "hinge")


class Loss:
    def __init__(self, kind, B=1.0):
        if kind not in KINDS:
            raise DomainError(f"unknown loss kind {kind!r}; expected one of {KINDS}")
        if not 0.0 < B < np.inf:
            raise DomainError(f"B = {B!r}, need 0 < B < inf")
        if kind == "hinge" and B > 1.0 + 1e-12:
            # subgradient magnitude is |y| <= B; L is pinned at 1, so the
            # margin-0 hinge is only offered on [-1, 1]
            raise DomainError("hinge loss requires B <= 1")
        self.kind = kind
        self.B = float(B)
        self.L = {"absolute": 1.0, "squared": 4.0 * B, "hinge": 1.0}[kind]
        self.rho = 2.0 if kind == "squared" else 0.0

    def __repr__(self):
        return f"Loss({self.kind!r}, B={self.B})"

    def value(self, y_hat, y):
        y_hat = np.asarray(y_hat, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "absolute":
            out = np.abs(y_hat - y)
        elif self.kind == "squared":
            out = (y_hat - y) ** 2
        else:
            out = np.maximum(0.0, -y_hat * y)
        return float(out) if out.ndim == 0 else out

    def subgradient(self, y_hat, y):
        y_hat = np.asarray(y_hat, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "absolute":
            out = np.sign(y_hat - y)
        elif self.kind == "squared":
            out = 2.0 * (y_hat - y)
        else:
            out = np.where(y_hat * y < 0, -y, 0.0)
        return float(out) if out.ndim == 0 else out

    def critical_labels(self, points):
        """Labels where the sup over y in [-B, B] of a mixture over points is
        attained, for a family convex in delta. Squared: delta is affine in y,
        so +-B. Hinge: affine on [-B, 0] and [0, B]. Absolute: the mixture is
        constant on each gap between points, and at a point at most the mean
        of its two neighbouring gaps."""
        B = self.B
        if self.kind == "squared":
            return np.array([-B, B])
        if self.kind == "hinge":
            return np.array([-B, 0.0, B])
        knots = np.unique(np.clip(np.asarray(points, dtype=float), -B, B))
        return np.concatenate([[-B, B], 0.5 * (knots[:-1] + knots[1:])])


def make_loss(kind, B=1.0):
    return Loss(kind, B=B)


def _check_support(support):
    if not support:
        raise DomainError("empty support")
    ys = np.array([float(y) for y, _ in support])
    ps = np.array([float(p) for _, p in support])
    if np.any(ps < -1e-15):
        raise DomainError("negative probability in support")
    if abs(ps.sum() - 1.0) > 1e-9:
        raise DomainError(f"probabilities sum to {ps.sum()}, not 1")
    order = np.argsort(ys)
    return ys[order], ps[order]


def argmin_over_distribution(loss, support):
    """Minimizer of y_hat -> E_{y ~ p} loss(y_hat, y) for finite support p.

    Absolute loss returns the weighted median, with an even split resolved
    to the midpoint of the minimizing interval. Squared loss returns the
    mean. Hinge (margin 0) returns 0, which is always a minimizer.
    """
    ys, ps = _check_support(support)
    if loss.kind == "squared":
        return float(np.dot(ys, ps))
    if loss.kind == "hinge":
        return 0.0
    cum = np.cumsum(ps)
    k = int(np.searchsorted(cum, 0.5 - 1e-12))
    if abs(cum[k] - 0.5) <= 1e-12 and k + 1 < ys.size:
        # mass splits evenly: any point of [ys[k], ys[k+1]] minimizes
        return float(0.5 * (ys[k] + ys[k + 1]))
    return float(ys[k])


def expected_subgradient_range(loss, r, support):
    """Expected (left, right) subderivative of the expected loss at r.

    The minimizer returned by argmin_over_distribution brackets zero:
    lo <= 0 <= hi. This is the certificate that a subgradient choice with
    zero mean exists at the minimizer, which is what turns regret residuals
    into martingale differences.
    """
    ys, ps = _check_support(support)
    if loss.kind == "squared":
        g = float(np.dot(2.0 * (r - ys), ps))
        return g, g
    if loss.kind == "absolute":
        lo = float(np.dot(np.where(ys < r, 1.0, -1.0), ps))
        hi = float(np.dot(np.where(ys <= r, 1.0, -1.0), ps))
        return lo, hi
    # hinge at margin 0
    prod = r * ys
    base = np.where(prod < 0, -ys, 0.0)
    lo = np.where(np.isclose(r, 0.0), np.minimum(0.0, -ys), base)
    hi = np.where(np.isclose(r, 0.0), np.maximum(0.0, -ys), base)
    return float(np.dot(lo, ps)), float(np.dot(hi, ps))
