"""Ridge-style potential for strongly convex losses.

The statistic tracks (sum delta*z, sum z z^T) over augmented instances
z = (x, -y_hat). The potential is the regularized quadratic dual minus a
log-determinant debt at rate c = L^2 / rho, and coincides with its own
bound evaluator.
"""

import math

import numpy as np

from ..errors import ConfigError, DomainError, NumericError
from ..potential import Potential, batch_instances
from ..statistics import VecSym


class VawPotential(Potential):
    """rho is the loss's strong convexity modulus, handed over as Loss.rho.

    It must not exceed that modulus: a larger rho makes V stop bounding the
    regret, and a smaller one only raises the log-determinant debt.
    """

    convex_in_delta = True

    def __init__(self, d, rho=2.0, lam=1.0, L=4.0, B=1.0):
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
        self.c = self.L ** 2 / self.rho  # the least c that keeps U a supermartingale

    def zero(self, like=None):
        return VecSym.zero(self.dim)

    def augment(self, x, y_hat):
        x, _ = batch_instances(x, y_hat, (self.d,))
        return np.concatenate([x, -np.asarray(y_hat, dtype=float)[..., None]], axis=-1)

    def stat_map(self, x, y_hat, delta):
        z = self.augment(x, y_hat)
        delta = np.asarray(delta, dtype=float)[..., None]
        return VecSym(delta * z, z[..., :, None] * z[..., None, :])

    def _gram(self, A):
        return self.rho * A + self.lam * np.eye(self.dim)

    def _logdet_debt(self, G):
        sign, logdet = np.linalg.slogdet(G)
        if not np.all((sign > 0) & np.isfinite(logdet)):
            raise NumericError("gram matrix lost positivity or finiteness",
                               {"sign": sign, "logdet": logdet})
        return self.c * (logdet - self.dim * math.log(self.lam))

    def _solve(self, G, rhs):
        try:
            return np.linalg.solve(G, rhs)
        except np.linalg.LinAlgError as exc:  # unreachable for lam > 0
            raise NumericError("singular gram solve", {"lam": self.lam}) from exc

    def eval(self, stat, t=None):
        G = self._gram(stat.A)
        sol = self._solve(G, stat.x[..., None])[..., 0]
        return 0.5 * np.vecdot(stat.x, sol) - self._logdet_debt(G)

    def bound(self, stat):
        """U and V coincide for this family."""
        return self.eval(stat)

    def round_values(self, zeta, x, y_hats, ys, loss, t=None, known=None):
        # known is for linearizable families; this table has no residual
        # The round adds rho z z^T to G0 = rho A + lam I, with z = a - y_hat e,
        # a = (x, 0) and e = (0, ..., 0, 1). One solve of G0 against
        # [zeta.x, a, e] gives every inner product the table needs. With
        # s = z^T G0^-1 z, q = zeta.x^T G0^-1 z and den = 1 + rho s, the
        # determinant lemma gives log det G = log det G0 + log den, and
        # Sherman-Morrison gives v^T G^-1 v = p + (2 delta q + delta^2 s -
        # rho q^2) / den for v = zeta.x + delta z, p = zeta.x^T G0^-1 zeta.x.
        y_hats = np.asarray(y_hats, dtype=float)
        G0 = self._gram(zeta.A)
        cols = np.column_stack([zeta.x, self.augment(x, 0.0), np.eye(self.dim)[-1]])
        inner = cols.T @ self._solve(G0, cols)
        debt0 = self._logdet_debt(G0)
        yh = y_hats[:, None]
        q = inner[0, 1] - yh * inner[0, 2]
        s = inner[1, 1] - 2.0 * yh * inner[1, 2] + yh ** 2 * inner[2, 2]
        den = 1.0 + self.rho * s
        bad = ~(np.isfinite(den) & (den > 0))
        if bad.any():
            i = int(np.argmax(bad[:, 0]))
            raise NumericError("rank-one gram update lost positivity",
                               {"y_hat": float(y_hats[i]), "denominator": float(den[i, 0])})
        deltas = np.asarray(loss.subgradient(yh, ys), dtype=float)
        quad = inner[0, 0] + (2.0 * deltas * q + deltas ** 2 * s - self.rho * q ** 2) / den
        return 0.5 * quad - (debt0 + self.c * np.log(den))

    def regret_bound(self, stat, comparator=None):
        """A_lambda(w) = (lambda/2) ||(w, 1)||^2 + log-determinant debt at stat,
        for the comparator w."""
        if comparator is None:
            raise DomainError("regret bound needs a comparator")
        aug = np.concatenate([np.asarray(comparator, dtype=float), [1.0]])
        return 0.5 * self.lam * float(np.dot(aug, aug)) + self._logdet_debt(self._gram(stat.A))

    def sample_instances(self, rng, k):
        v = rng.normal(size=(k, self.d))
        return v / np.maximum(np.sqrt(np.vecdot(v, v)), 1.0)[:, None]
