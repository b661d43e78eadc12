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

