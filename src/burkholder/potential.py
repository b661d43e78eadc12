"""Potential interface, interaction records, and statistic accumulation.

A potential bundles an additive statistic map T(x, y_hat, delta) with an
evaluation function U over accumulated statistics. Strategies only interact
with learners through this interface. A family implements zero, stat_map,
eval, bound and sample_instances, and optionally regret_bound(stat,
comparator), increment_bound and a round_values fast path.

A family that admits the linear decomposition
U(zeta + T(x, y_hat, delta)) = y_hat * delta + U(zeta + T(x, 0, delta))
declares `linearizable`. Its residual F(zeta, x, delta), the second term,
is then derived here from eval and stat_map (a family may override it with
a faster equal form); that unlocks the closed-form prediction.

stat_map takes k rounds at once (delta of shape (k,), instances stacked
along a leading axis, or one instance that all k rounds share) and returns
a stack of k statistics; eval and bound of a stack return k values (eval
at one round index t or one per member). The residual takes a stack of
deltas the same way.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .statistics import map_slots


class Potential:
    L = 1.0
    B = 1.0
    convex_in_delta = False
    linearizable = False
    horizon = None  # the round count n when U depends on the round index

    # --- contract surface -------------------------------------------------
    def zero(self, like=None):
        """The zero statistic, in the form that rounds on instances like
        `like` (a run's first instance) sum to; None gives the dense form."""
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
        after the round is y_hat * delta + F when the family is linearizable.
        Deltas stacked against one instance, or with statistics and instances
        stacked in line, give one value per delta."""
        if not self.linearizable:
            raise DomainError(f"{type(self).__name__} lacks the linear residual decomposition")
        return self.eval(zeta + self.stat_map(x, 0.0, delta), t=t)

    # --- sampling hooks for verification ----------------------------------
    def sample_instances(self, rng, k):
        """k instances from the family's domain, stacked on a leading axis."""
        raise NotImplementedError

    def sample_instance(self, rng):
        return self.sample_instances(rng, 1)[0]

    def sample_rounds(self, rng, m, max_rounds=8):
        """Random rounds of m trials as one block, one generator call per
        quantity: (counts, (x, y_hat, delta)). Trial i has counts[i] rounds,
        up to max_rounds (or max_rounds[i]), stacked in trial order."""
        counts = rng.integers(0, max_rounds + 1, size=m)
        total = int(counts.sum())
        return counts, (self.sample_instances(rng, total),
                        rng.uniform(-self.B, self.B, total),
                        rng.uniform(-self.L, self.L, total))

    # --- constants for the randomized strategy and meta combination -------
    def prediction_lipschitz(self, zeta, draw, loss, *, t=None):
        """(K, estimated): Lipschitz constant of y_hat -> U(zeta + T) over y.

        A linearizable family gets the exact constant L and never calls
        `draw`. Any other calls draw() once for an instance x and samples
        finite differences on a dense grid, in one value table at x over 8
        labels drawn from a fixed seed, and inflates 2x; estimated=True
        flags that path.
        """
        if self.linearizable:
            return self.L, False
        ys = np.random.default_rng(0).uniform(-self.B, self.B, size=8)
        grid = np.linspace(-self.B, self.B, 201)
        vals = self.round_values(zeta, draw(), grid, ys, loss, t=t)
        return 2.0 * (float(np.max(np.abs(np.diff(vals, axis=0)))) / (grid[1] - grid[0])), True

    def regret_bound(self, stat, comparator=None):
        """Closed-form regret bound at a statistic, when the family has one."""
        raise NotImplementedError("this family does not expose a closed regret bound")

    # --- shared helpers ----------------------------------------------------
    def round_values(self, zeta, x, y_hats, ys, loss, t=None, known=None):
        """Table of U(zeta + T(x, y_hat, dloss(y_hat, y))) over a grid pair, in
        one stacked evaluation: of the residual at each distinct delta when
        the family is linearizable, else of every entry.

        known, a dict from delta to the residual F(zeta, x, delta) that a
        caller keeps through one round, spares the deltas it holds and
        receives the others."""
        y_hats = np.asarray(y_hats, dtype=float)[:, None]
        deltas = np.asarray(loss.subgradient(y_hats, np.asarray(ys, dtype=float)[None, :]),
                            dtype=float)
        if self.linearizable:
            uniq, inv = distinct(deltas)
            known = {} if known is None else known
            new = [d for d in uniq.tolist() if d not in known]
            if new:
                known.update(zip(new, self.residual(zeta, x, np.array(new), t=t).tolist()))
            return y_hats * deltas + np.array([known[d] for d in uniq.tolist()])[inv]
        y_hats, deltas = np.broadcast_arrays(y_hats, deltas)
        steps = self.stat_map(x, y_hats.ravel(), deltas.ravel())
        return self.eval(zeta + steps, t=t).reshape(deltas.shape)


def distinct(values):
    """(sorted distinct values, inverse) of a float array, with values ==
    distinct[inverse] and inverse in values' shape, as np.unique gives them
    with return_inverse, from one sort and a binary search (np.unique on
    floats can import numpy.ma)."""
    values = np.asarray(values, dtype=float)
    ordered = np.sort(values, axis=None)
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    uniq = ordered[first]
    return uniq, np.searchsorted(uniq, values)


def stack_rounds(P, counts, rounds):
    """(taus, rest) from one stat_map call over the stacked rounds (x, y_hat,
    delta): taus[i] folds the next counts[i] rounds onto zero in round order;
    rest stacks the maps of the rounds after them (None without rounds).
    np.add.at adds the rows in index order, so each trial sums 0 + r1 + r2 +
    ...: the order and rounding of adding the rounds' statistics one by one."""
    counts = np.asarray(counts)
    taus = map_slots(lambda z: np.zeros(counts.shape + np.shape(z)), P.zero())
    if not len(rounds[2]):
        return taus, None
    used, owner = int(counts.sum()), np.repeat(np.arange(len(counts)), counts)
    steps = P.stat_map(*rounds)
    map_slots(lambda out, a: np.add.at(out, owner, a[:used]), taus, steps)
    return taus, map_slots(lambda a: a[used:], steps)


def batch_instances(x, delta, shape):
    """(x, delta) as float arrays; x stacks instances along delta's axes, or
    is one instance that every delta shares (returned as a broadcast view)."""
    x, delta = np.asarray(x, dtype=float), np.asarray(delta, dtype=float)
    if x.shape == shape and delta.ndim:
        x = np.broadcast_to(x, delta.shape + shape)
    if x.shape != delta.shape + shape:
        raise DomainError(f"instance shape {x.shape} != {delta.shape + shape}")
    return x, delta


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
    the play loop passes every statistic to its on_round hook instead.
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

