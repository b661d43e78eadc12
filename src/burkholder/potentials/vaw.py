"""Ridge-style potential for strongly convex losses.

The statistic tracks (sum delta*z, sum z z^T) over augmented instances
z = (x, -y_hat). The potential is the regularized quadratic dual minus a
log-determinant debt and coincides with its own bound evaluator whenever
c >= L^2 / rho.
"""

import math

import numpy as np

from ..errors import ConfigError, DomainError, NumericError
from ..potential import Potential
from ..statistics import VecSym


class VawPotential(Potential):
    convex_in_delta = True
    convex_in_prediction = True

    def __init__(self, d, rho=2.0, lam=1.0, c=None, L=4.0, B=1.0, strict=True):
        if d < 1:
            raise ConfigError("d >= 1")
        if rho <= 0:
            raise ConfigError("rho > 0")
        if lam <= 0:
            raise ConfigError("lambda > 0")
        if L <= 0:
            raise ConfigError("L > 0")
        self.d = int(d)
        self.dim = self.d + 1
        self.rho = float(rho)
        self.lam = float(lam)
        self.L = float(L)
        self.B = float(B)
        self.c = float(c) if c is not None else self.L ** 2 / self.rho
        if strict and self.c < self.L ** 2 / self.rho * (1 - 1e-12):
            raise ConfigError("c >= L^2/rho")

    def zero(self):
        return VecSym.zero(self.dim)

    def augment(self, x, y_hat):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise DomainError(f"instance shape {x.shape} != ({self.d},)")
        return np.concatenate([x, [-float(y_hat)]])

    def stat_map(self, x, y_hat, delta):
        z = self.augment(x, y_hat)
        return VecSym(delta * z, np.outer(z, z))

    def _gram(self, A):
        return self.rho * A + self.lam * np.eye(self.dim)

    def _logdet_debt(self, G):
        sign, logdet = np.linalg.slogdet(G)
        if sign <= 0:
            raise NumericError("gram matrix lost positivity", {"sign": sign})
        return self.c * (logdet - self.dim * math.log(self.lam))

    def eval(self, stat, t=None):
        G = self._gram(stat.A)
        try:
            sol = np.linalg.solve(G, stat.x)
        except np.linalg.LinAlgError as exc:  # unreachable for lam > 0
            raise NumericError("singular gram solve", {"lam": self.lam}) from exc
        return 0.5 * float(np.dot(stat.x, sol)) - self._logdet_debt(G)

    def bound(self, stat):
        """U and V coincide for this family."""
        return self.eval(stat)

    def round_values(self, zeta, x, y_hats, ys, loss, t=None):
        # For fixed y_hat the prediction only enters through z, and delta
        # enters the quadratic form affinely: one factorization per y_hat
        # serves the whole y grid.
        y_hats = np.asarray(y_hats, dtype=float)
        ys = np.asarray(ys, dtype=float)
        out = np.empty((y_hats.size, ys.size))
        for i, yh in enumerate(y_hats):
            z = self.augment(x, float(yh))
            A_new = zeta.A + np.outer(z, z)
            G = self._gram(A_new)
            sol = np.linalg.solve(G, np.stack([zeta.x, z], axis=1))
            q_xx = float(np.dot(zeta.x, sol[:, 0]))
            q_xz = float(np.dot(z, sol[:, 0]))
            q_zz = float(np.dot(z, sol[:, 1]))
            debt = self._logdet_debt(G)
            deltas = np.asarray(loss.subgradient(float(yh), ys), dtype=float)
            out[i, :] = 0.5 * (q_xx + 2.0 * deltas * q_xz + deltas ** 2 * q_zz) - debt
        return out

    def regret_bound(self, stat, comparator=None):
        """A_lambda(w) = (lambda/2) ||(w, 1)||^2 + log-determinant debt at stat,
        for the comparator w."""
        if comparator is None:
            raise DomainError("regret bound needs a comparator")
        aug = np.concatenate([np.asarray(comparator, dtype=float), [1.0]])
        return 0.5 * self.lam * float(np.dot(aug, aug)) + self._logdet_debt(self._gram(stat.A))

    def sample_instance(self, rng):
        v = rng.normal(size=self.d)
        return v / max(np.linalg.norm(v), 1.0)
