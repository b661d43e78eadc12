"""Parameter-free linear prediction over a norm ball of every radius.

The statistic is (sum delta_t*y_hat_t, sum delta_t*x_t); the potential is a
horizon-indexed exponential of the squared norm whose time index trades the
per-round smoothness cost against a harmonic tail. At the horizon it matches
the comparator-uniform bound evaluator exactly.
"""

import math

import numpy as np

from ..errors import ConfigError, DomainError, NumericError
from ..potential import Potential, batch_instances
from ..statistics import ScalarVec

MAX_EXPONENT = 700.0


def harmonic_prefix(n):
    """H_0..H_n with H_t = sum_{s<=t} 1/s."""
    out = np.zeros(n + 1)
    out[1:] = np.cumsum(1.0 / np.arange(1, n + 1))
    return out


class ParamFreePotential(Potential):
    """Norm: l2 by default, or an lp norm with p >= 2.

    Both constants are derived, not chosen. beta is the norm's smoothness,
    1 for l2 and p - 1 for lp: a smaller beta breaks the supermartingale
    property and a larger one only loosens A(w). gamma = c * exp(-H_n / 2)
    is the largest value for which the potential starts at or below zero.
    """

    convex_in_delta = True
    linearizable = True

    def __init__(self, n, d, p=None, c=1.0, B=1.0):
        if n < 1:
            raise ConfigError("n >= 1")
        if d < 1:
            raise ConfigError("d >= 1")
        if p is not None and p < 2:
            raise ConfigError("p >= 2")
        self.horizon = int(n)
        self.d = int(d)
        self.p = p
        self.beta = 1.0 if p is None else p - 1.0
        self.c = float(c)
        if self.c <= 0:
            raise ConfigError("c > 0")
        self._H = harmonic_prefix(self.horizon)
        self.gamma = self.c * math.exp(-0.5 * self._H[self.horizon])
        self.B = float(B)
        self.L = 1.0

    def norm(self, x):
        """The norm of x over its last axis."""
        if self.p is None:
            return np.sqrt(np.vecdot(x, x))
        return np.add.reduce(np.abs(x) ** self.p, axis=-1) ** (1.0 / self.p)

    def dual_norm(self, w):
        if self.p is None:
            return float(np.linalg.norm(w))
        q = self.p / (self.p - 1.0)
        return float(np.sum(np.abs(w) ** q) ** (1.0 / q))

    def tail(self, t):
        # (1/2) * sum_{s=t+1}^{n} 1/s
        return 0.5 * (self._H[self.horizon] - self._H[t])

    def zero(self, like=None):
        return ScalarVec.zero(self.d)

    def stat_map(self, x, y_hat, delta):
        """(delta * y_hat, delta * x) for an instance x in the unit ball."""
        x, delta = batch_instances(x, delta, (self.d,))
        norms = self.norm(x)
        if np.count_nonzero(norms > 1.0 + 1e-9):
            raise DomainError(f"instance norm {norms.max():.6g} exceeds 1")
        return ScalarVec(delta * y_hat, delta[..., None] * x)

    def _exp_term(self, sq_norm, t):
        exponent = sq_norm / (2.0 * self.beta * t) + self.tail(t)
        if np.count_nonzero(exponent > MAX_EXPONENT):
            raise NumericError("potential exponent overflow",
                               {"exponent": float(exponent.max())})
        return self.gamma * np.exp(exponent)

    def eval(self, stat, t=None):
        """U after round t, one index or an integer array that reads member i
        of a stack at t[i]; a t = 0 member takes no exponential, so cannot overflow."""
        if t is None:
            raise DomainError("time-varying potential needs the round index t")
        t = np.asarray(t, dtype=int)
        bad = t[(t < 0) | (t > self.horizon)]
        if bad.size:
            raise DomainError(f"t = {bad[0]} outside 0..{self.horizon}")
        t = np.broadcast_to(t, np.shape(stat.b))
        u, live = np.full(t.shape, self.gamma * math.exp(self.tail(0))), t > 0
        u[live] = self._exp_term(self.norm(stat.x)[live] ** 2, t[live])
        return stat.b + u - self.c

    def bound(self, stat):
        """V(b, x) = b + gamma * exp(||x||^2 / (2 beta n)) - c; equals U at t = n."""
        return self.eval(stat, t=self.horizon)

    def regret_bound(self, stat, comparator=None):
        """A(w) = ||w||_* sqrt(2 beta n log(sqrt(beta n) ||w||_* / gamma + 1)) + c
        for the comparator w. The statistic does not enter, so the one value
        broadcasts against a stack of statistics."""
        if comparator is None:
            raise DomainError("regret bound needs a comparator")
        wn = self.dual_norm(np.asarray(comparator, dtype=float))
        bn = self.beta * self.horizon
        return wn * math.sqrt(2.0 * bn * math.log(math.sqrt(bn) * wn / self.gamma + 1.0)) + self.c

    def sample_instances(self, rng, k):
        v = rng.normal(size=(k, self.d))
        nv = self.norm(v)[:, None]
        return v / np.where(nv > 0, nv, 1.0) * rng.uniform(0.0, 1.0, size=(k, 1))
