"""Potential interface, interaction records, and statistic accumulation.

A potential bundles an additive statistic map T(x, y_hat, delta) with an
evaluation function U over accumulated statistics. Strategies only interact
with learners through this interface. A family implements zero, stat_map,
eval, bound and sample_instance, and optionally regret_bound(stat,
comparator), increment_bound and a round_values fast path.

A family that admits the linear decomposition
U(zeta + T(x, y_hat, delta)) = y_hat * delta + U(zeta + T(x, 0, delta))
declares `linearizable`. Its residual F(zeta, x, delta), the second term,
is then derived here from eval and stat_map; that unlocks the closed-form
prediction.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


class Potential:
    L = 1.0
    B = 1.0
    convex_in_delta = False
    convex_in_prediction = False
    linearizable = False
    horizon = None  # the round count n when U depends on the round index

    # --- contract surface -------------------------------------------------
    def zero(self):
        raise NotImplementedError

    def stat_map(self, x, y_hat, delta):
        raise NotImplementedError

    def eval(self, stat, t=None):
        """U at a statistic after round t (t = 0 at the start).

        Every family takes t; families without a horizon ignore it, so
        callers pass the round index without asking which kind they hold.
        """
        raise NotImplementedError

    def bound(self, stat):
        """The regret lower bound V at the given statistic (V <= U pointwise)."""
        raise NotImplementedError

    def residual(self, zeta, x, delta, t=None):
        """F(zeta, x, delta) = U(zeta + T(x, 0, delta)) in round t; the value
        after the round is y_hat * delta + F when the family is linearizable."""
        if not self.linearizable:
            raise DomainError(f"{type(self).__name__} lacks the linear residual decomposition")
        return self.eval(zeta + self.stat_map(x, 0.0, delta), t=t)

    # --- sampling hooks for verification ----------------------------------
    def sample_instance(self, rng):
        raise NotImplementedError

    def sample_statistic(self, rng, max_rounds=8):
        """A statistic reachable as a sum of statistic-map outputs."""
        zeta = self.zero()
        for _ in range(int(rng.integers(0, max_rounds + 1))):
            x = self.sample_instance(rng)
            y_hat = float(rng.uniform(-self.B, self.B))
            delta = float(rng.uniform(-self.L, self.L))
            zeta = zeta + self.stat_map(x, y_hat, delta)
        return zeta

    # --- constants for the randomized strategy and meta combination -------
    def prediction_lipschitz(self, zeta, x, loss, *, t=None, rng=None):
        """(K, estimated): Lipschitz constant of y_hat -> U(zeta + T) over y.

        Linearizable families override this with the exact constant L. The
        fallback samples finite differences on a dense grid, one value table
        per sampled label, and inflates 2x; estimated=True flags that path.
        """
        if self.linearizable:
            return self.L, False
        rng = rng or np.random.default_rng(0)
        grid = np.linspace(-self.B, self.B, 201)
        worst = 0.0
        for _ in range(8):
            y = float(rng.uniform(-self.B, self.B))
            vals = self.round_values(zeta, x, grid, [y], loss, t=t)[:, 0]
            worst = max(worst, float(np.max(np.abs(np.diff(vals)))) / (grid[1] - grid[0]))
        return 2.0 * worst, True

    def increment_bound(self):
        """Analytic bound on sup (U(tau + T) - U(tau))^2, or None if unknown."""
        return None

    def regret_bound(self, stat, comparator=None):
        """Closed-form regret bound at a statistic, when the family has one."""
        raise NotImplementedError("this family does not expose a closed regret bound")

    # --- shared helpers ----------------------------------------------------
    def round_values(self, zeta, x, y_hats, ys, loss, t=None):
        """Table of U(zeta + T(x, y_hat, dloss(y_hat, y))) over a grid pair."""
        y_hats = np.asarray(y_hats, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if self.linearizable:
            deltas = loss.subgradient(y_hats[:, None], ys[None, :])
            out = y_hats[:, None] * deltas
            for d in np.unique(deltas):
                out[deltas == d] += self.residual(zeta, x, float(d), t=t)
            return out
        out = np.empty((y_hats.size, ys.size))
        for i, yh in enumerate(y_hats):
            for j, y in enumerate(ys):
                d = float(loss.subgradient(float(yh), float(y)))
                out[i, j] = self.eval(zeta + self.stat_map(x, float(yh), d), t=t)
        return out


def accumulate(zeta, x, y_hat, delta, potential):
    """zeta + T(x, y_hat, delta), rejecting subgradients outside [-L, L]."""
    if abs(delta) > potential.L * (1 + 1e-12):
        raise DomainError(
            f"|delta| = {abs(delta)} exceeds the Lipschitz bound L = {potential.L}")
    return zeta + potential.stat_map(x, y_hat, delta)


@dataclass
class Round:
    t: int
    x: object
    y_hat: float
    y: float
    delta: float
    loss: float


@dataclass
class Trajectory:
    """One online run: per-round records, U values and the final statistic.

    potential_values[0] = U(0) and entry t is U after round t. Only the
    statistic after the last round is kept, as the one element of zetas;
    the play loops pass every statistic to their on_round hook instead.
    """
    rounds: list = field(default_factory=list)
    zetas: list = field(default_factory=list)
    potential_values: list = field(default_factory=list)

    @property
    def n(self):
        return len(self.rounds)

    @property
    def losses(self):
        return np.array([r.loss for r in self.rounds])

    @property
    def cumulative_loss(self):
        return float(np.sum(self.losses)) if self.rounds else 0.0

    @property
    def final_statistic(self):
        return self.zetas[-1]


class MappedPotential(Potential):
    """Delegate that reindexes the instance space through a featurizer.

    Used to run a vector-statistic family on matrix instances (and similar)
    when combining potentials over one shared stream.
    """

    def __init__(self, inner, feature_fn, sample_fn=None):
        self.inner = inner
        self.feature_fn = feature_fn
        self.sample_fn = sample_fn
        self.L = inner.L
        self.B = inner.B
        self.convex_in_delta = inner.convex_in_delta
        self.convex_in_prediction = inner.convex_in_prediction
        self.linearizable = inner.linearizable
        self.horizon = inner.horizon

    def zero(self):
        return self.inner.zero()

    def stat_map(self, x, y_hat, delta):
        return self.inner.stat_map(self.feature_fn(x), y_hat, delta)

    def eval(self, stat, t=None):
        return self.inner.eval(stat, t=t)

    def bound(self, stat):
        return self.inner.bound(stat)

    def sample_instance(self, rng):
        if self.sample_fn is not None:
            return self.sample_fn(rng)
        return self.inner.sample_instance(rng)

    def increment_bound(self):
        return self.inner.increment_bound()

    def regret_bound(self, stat, comparator=None):
        return self.inner.regret_bound(stat, comparator)
