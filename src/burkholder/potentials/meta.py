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
        _share_game_constants(self, self.members)
        # the prediction term is a common additive shift inside the softmax,
        # so linearizability survives aggregation; so does delta-convexity
        # (increasing convex composition of convex functions)
        self.linearizable = all(m.linearizable for m in self.members)
        self.convex_in_delta = all(m.convex_in_delta for m in self.members)

    @property
    def arity(self):
        return len(self.members)

    def zero(self, like=None):
        return ProductStat(tuple(m.zero(like) for m in self.members)
                           + (ScalarVec.zero(self.arity),))

    def stat_map(self, x, y_hat, delta):
        parts = tuple(m.stat_map(x, y_hat, delta) for m in self.members)
        batch = np.shape(delta)
        drift = ScalarVec(np.zeros(batch), np.broadcast_to(self.C, batch + self.C.shape).copy())
        return ProductStat(parts + (drift,))

    def _split(self, stat):
        return stat.parts[:-1], stat.parts[-1].x

    def eval(self, stat, t=None):
        taus, gamma = self._split(stat)
        return self._value([m.eval(tau, t=t) for m, tau in zip(self.members, taus)], gamma)

    def residual(self, zeta, x, delta, t=None):
        """F from the members' residuals: zeta + T(x, 0, delta) adds each
        member's step to its statistic, where the member's value is its
        residual, and C to the drift."""
        if not self.linearizable:
            return super().residual(zeta, x, delta, t=t)  # raises DomainError
        taus, gamma = self._split(zeta)
        return self._value([m.residual(tau, x, delta, t=t) for m, tau in zip(self.members, taus)],
                           gamma + self.C)

    def _value(self, vals, gamma):
        """U from the members' values and the drift vector gamma."""
        ex = self.eta * np.stack(vals, axis=-1) - self.eta ** 2 * gamma
        return logsumexp(ex) / self.eta - math.log(self.arity) / self.eta

    def bound(self, stat):
        taus, gamma = self._split(stat)
        vs = np.stack([m.bound(tau) for m, tau in zip(self.members, taus)], axis=-1)
        return np.max(vs - self.eta * gamma, axis=-1) - math.log(self.arity) / self.eta

    def regret_bound(self, stat, comparator=None):
        """Best member bound plus its accumulated stability charge plus the
        softmax entry fee log|A| / eta; one per member of a stack."""
        taus, gamma = self._split(stat)
        vals = []
        for i, (m, tau) in enumerate(zip(self.members, taus)):
            try:
                vals.append(m.regret_bound(tau, comparator) + self.eta * gamma[..., i])
            except (NotImplementedError, DomainError):
                continue
        if not vals:
            raise DomainError("no member exposes a regret bound for this comparator")
        return np.min(vals, axis=0) + math.log(self.arity) / self.eta

    def sample_instances(self, rng, k):
        return self.members[0].sample_instances(rng, k)


def _check_shared_map(potentials):
    if len({type(p.zero()) for p in potentials}) != 1:
        raise ConfigError("combined potentials must share one statistic space")


def _share_game_constants(combo, members):
    """Give combo the L and B that every member holds, and the horizon of the
    members that have one (a stationary member's None puts no limit on it)."""
    for attr, what in (("L", "Lipschitz constant L"), ("B", "range B"),
                       ("horizon", "horizon")):
        values = {getattr(m, attr) for m in members}
        if attr == "horizon":
            values = (values - {None}) or {None}
        if len(values) != 1:
            raise ConfigError(f"members must share one {what}; got {sorted(values)}")
        setattr(combo, attr, values.pop())


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
        _share_game_constants(self, self.potentials)
        all_lin = all(p.linearizable for p in self.potentials)
        self.linearizable = all_lin
        # a minimum of convex functions is not convex; a mixture is
        self.convex_in_delta = (self.mode == "convex"
                                and all(p.convex_in_delta for p in self.potentials))

    def _agg(self, vals):
        vals = np.stack(vals, axis=-1)
        if self.mode == "min":
            return np.min(vals, axis=-1)
        return np.vecdot(vals, self.weights)

    def zero(self, like=None):
        return self.potentials[0].zero(like)

    def stat_map(self, x, y_hat, delta):
        return self.potentials[0].stat_map(x, y_hat, delta)

    def eval(self, stat, t=None):
        return self._agg([p.eval(stat, t=t) for p in self.potentials])

    def bound(self, stat):
        return self._agg([p.bound(stat) for p in self.potentials])

    def sample_instances(self, rng, k):
        return self.potentials[0].sample_instances(rng, k)


def combine_min(potentials):
    return CombinedPotential(potentials)


def combine_convex(potentials, weights):
    return CombinedPotential(potentials, weights=weights)
