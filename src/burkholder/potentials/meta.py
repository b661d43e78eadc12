"""Combinations of potentials: softmax aggregation, minimum, convex mixture.

The softmax meta-potential tracks every member's statistic side by side in
a product, plus a drift vector that grows by each member's squared one-step
increment bound per round; it certifies the best member's guarantee up to
an additive log|A| / eta.
"""

import math

import numpy as np

from ..errors import ConfigError, DomainError
from ..potential import Potential
from ..statistics import ProductStat, ScalarVec
from ..symlin import logsumexp


class MetaPotential(Potential):
    """members: list of (potential, C) with C >= sup (U(tau + T) - U(tau))^2."""

    def __init__(self, members, eta):
        if not members:
            raise ConfigError("at least one member")
        if eta <= 0:
            raise ConfigError("eta > 0")
        self.members = [m for m, _ in members]
        self.C = np.array([float(c) for _, c in members])
        if np.any(self.C < 0):
            raise ConfigError("C[a] >= 0")
        self.eta = float(eta)
        Ls = {m.L for m in self.members}
        if len(Ls) != 1:
            raise ConfigError("members must share one Lipschitz constant L")
        self.L = Ls.pop()
        self.B = self.members[0].B
        self.time_varying = any(m.time_varying for m in self.members)
        # the prediction term is a common additive shift inside the softmax,
        # so linearizability survives aggregation; so does delta-convexity
        # (increasing convex composition of convex functions)
        self.linearizable = all(m.linearizable for m in self.members)
        self.convex_in_delta = all(m.convex_in_delta for m in self.members)

    @property
    def arity(self):
        return len(self.members)

    def zero(self):
        return ProductStat(tuple(m.zero() for m in self.members) + (ScalarVec.zero(self.arity),))

    def stat_map(self, x, y_hat, delta):
        parts = tuple(m.stat_map(x, y_hat, delta) for m in self.members)
        return ProductStat(parts + (ScalarVec(0.0, self.C.copy()),))

    def _split(self, stat):
        return stat.parts[:-1], stat.parts[-1].x

    def member_values(self, stat, t=None):
        taus, _ = self._split(stat)
        return np.array([m.eval(tau, t=t) for m, tau in zip(self.members, taus)])

    def eval(self, stat, t=None):
        vals = self.member_values(stat, t=t)
        _, gamma = self._split(stat)
        ex = self.eta * vals - self.eta ** 2 * gamma
        return logsumexp(ex) / self.eta - math.log(self.arity) / self.eta

    def residual(self, zeta, x, delta, t=None):
        # after the round the drift vector has advanced by C, so the charge
        # uses gamma + C
        if not self.linearizable:
            raise DomainError("a member lacks the linear residual decomposition")
        taus, gamma = self._split(zeta)
        fs = np.array([m.residual(tau, x, delta, t=t)
                       for m, tau in zip(self.members, taus)])
        ex = self.eta * fs - self.eta ** 2 * (gamma + self.C)
        return logsumexp(ex) / self.eta - math.log(self.arity) / self.eta

    def bound(self, stat):
        taus, gamma = self._split(stat)
        vs = np.array([m.bound(tau) for m, tau in zip(self.members, taus)])
        return float(np.max(vs - self.eta * gamma)) - math.log(self.arity) / self.eta

    def regret_bound(self, stat, comparator=None):
        """Best member bound plus its accumulated stability charge plus the
        softmax entry fee log|A| / eta."""
        taus, gamma = self._split(stat)
        vals = []
        for m, tau, g in zip(self.members, taus, gamma):
            try:
                vals.append(m.regret_bound(tau, comparator) + self.eta * float(g))
            except (NotImplementedError, DomainError):
                continue
        if not vals:
            raise DomainError("no member exposes a regret bound for this comparator")
        return min(vals) + math.log(self.arity) / self.eta

    def sample_instance(self, rng):
        return self.members[0].sample_instance(rng)

    def anchor(self):
        return self.members[0].anchor()


def estimate_increment_bound(P, rng, trials=10000):
    """Sampled bound on the squared one-step potential increment, inflated 2x.

    Returns (value, estimated=True). Prefer the potential's analytic
    increment_bound when it exists.
    """
    worst = 0.0
    for _ in range(int(trials)):
        tau = P.sample_statistic(rng)
        x = P.sample_instance(rng)
        y_hat = float(rng.uniform(-P.B, P.B))
        alpha = float(rng.uniform(-P.L, P.L))
        before = P.eval(tau, t=None if not P.time_varying else 1)
        after = P.eval(tau + P.stat_map(x, y_hat, alpha),
                       t=None if not P.time_varying else 1)
        worst = max(worst, (after - before) ** 2)
    return 2.0 * worst, True


def _check_shared_map(potentials):
    if len({type(p.zero()) for p in potentials}) != 1:
        raise ConfigError("combined potentials must share one statistic space")


class CombinedPotential(Potential):
    """Pointwise minimum or convex mixture of potentials over one statistic map."""

    def __init__(self, potentials, weights=None):
        if not potentials:
            raise ConfigError("at least one member")
        _check_shared_map(potentials)
        self.potentials = list(potentials)
        if weights is None:
            self.mode = "min"
            self.weights = None
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.size != len(potentials):
                raise ConfigError("one weight per member")
            if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
                raise ConfigError("weights on the simplex")
            self.mode = "convex"
            self.weights = weights
        Ls = {p.L for p in self.potentials}
        if len(Ls) != 1:
            raise ConfigError("members must share one Lipschitz constant L")
        self.L = Ls.pop()
        self.B = self.potentials[0].B
        self.time_varying = self.potentials[0].time_varying
        all_lin = all(p.linearizable for p in self.potentials)
        self.linearizable = all_lin
        # a minimum of convex functions is not convex; a mixture is
        self.convex_in_delta = (self.mode == "convex"
                                and all(p.convex_in_delta for p in self.potentials))

    def _agg(self, vals):
        vals = np.asarray(vals, dtype=float)
        if self.mode == "min":
            return float(np.min(vals))
        return float(np.dot(self.weights, vals))

    def zero(self):
        return self.potentials[0].zero()

    def stat_map(self, x, y_hat, delta):
        return self.potentials[0].stat_map(x, y_hat, delta)

    def eval(self, stat, t=None):
        return self._agg([p.eval(stat, t=t) for p in self.potentials])

    def bound(self, stat):
        return self._agg([p.bound(stat) for p in self.potentials])

    def residual(self, zeta, x, delta, t=None):
        if not self.linearizable:
            raise DomainError("a member lacks the linear residual decomposition")
        return self._agg([p.residual(zeta, x, delta, t=t) for p in self.potentials])

    def sample_instance(self, rng):
        return self.potentials[0].sample_instance(rng)

    def anchor(self):
        return self.potentials[0].anchor()


def combine_min(potentials):
    return CombinedPotential(potentials)


def combine_convex(potentials, weights):
    return CombinedPotential(potentials, weights=weights)
