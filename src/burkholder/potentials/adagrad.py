"""Gradient-norm adaptive potentials built from the square-root function.

usq is the exact zero-debt certificate for y >= ||x||: it is nonpositive
there, upper-bounds ||x|| - 2y everywhere, and satisfies the one-step
restricted concavity that turns the pair (sum delta*x, sum ||x||^2) into a
supermartingale under the adaptive y-slot update.
"""

import math

import numpy as np

from ..errors import ConfigError
from ..potential import Potential, batch_instances
from ..statistics import ScalarVecScalar

VARIANTS = ("l2", "linf")


def _l2(x):
    return np.sqrt(np.vecdot(x, x))


def _usq(nx, y):
    """usq(x, y) = -sqrt(2 y^2 - ||x||^2) where y >= ||x||, and ||x|| - 2 y
    elsewhere (both give -||x|| on the seam), elementwise from the norms
    nx >= 0 of its first argument."""
    return np.where(y >= nx, -np.sqrt(np.maximum(2.0 * y * y - nx * nx, 0.0)),
                    nx - 2.0 * y)


class AdaGradPotential(Potential):
    """Variants: "l2" (whole-norm accumulator) or "linf" (per-coordinate sums).

    d is the instance dimension, or an instance shape such as (d1, d2):
    shaped instances are flattened in row-major order, so the statistic and
    every value are those of the flat family of dimension d1 * d2.

    The closed-form prediction relies on the residual being convex in delta,
    which holds by construction. usq(., y) is convex and nondecreasing in its
    first argument: its slope nx / sqrt(2 y^2 - nx^2) rises from 0 to 1 at
    the seam nx = y and is 1 beyond it. ||x + delta z|| is convex in delta,
    and y does not depend on delta. So every residual term (one for l2, one
    per coordinate for linf) is convex in delta.
    """

    convex_in_delta = True
    linearizable = True

    def __init__(self, d, variant="l2", L=1.0, B=1.0):
        if variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}")
        self.shape = tuple(int(k) for k in np.atleast_1d(d))
        if min(self.shape, default=0) < 1:
            raise ConfigError("d >= 1")
        if L <= 0:
            raise ConfigError("L > 0")
        self.d = math.prod(self.shape)
        self.variant = variant
        self.L = float(L)
        self.B = float(B)

    def zero(self, like=None):
        return ScalarVecScalar.zero(self.d, coordinatewise=self.variant == "linf")

    def stat_map(self, x, y_hat, delta):
        x, delta = batch_instances(x, delta, self.shape)
        x = x.reshape(delta.shape + (self.d,))
        s = np.vecdot(x, x) if self.variant == "l2" else x * x
        return ScalarVecScalar(delta * y_hat, delta[..., None] * x, s)

    def eval(self, stat, t=None):
        y = self.L * np.sqrt(np.maximum(stat.s, 0.0))
        if self.variant == "l2":
            return stat.b + _usq(_l2(stat.x), y)
        return stat.b + np.add.reduce(_usq(np.abs(stat.x), y), axis=-1)

    def _norms(self, stat):
        """(||x||, sum of sqrt(s)): the l2 norm and root for l2, the l1 norm
        and the coordinate roots summed for linf."""
        root = np.sqrt(np.maximum(stat.s, 0.0))
        if self.variant == "l2":
            return _l2(stat.x), root
        return np.add.reduce(np.abs(stat.x), axis=-1), np.add.reduce(root, axis=-1)

    def bound(self, stat):
        """V = b + ||x||_2 - 2 L sqrt(s), coordinatewise summed for linf."""
        xnorm, root = self._norms(stat)
        return stat.b + xnorm - 2.0 * self.L * root

    def regret_bound(self, stat, comparator=None):
        """2 L sqrt(s) against unit-ball comparators (euclidean ball for l2,
        box for linf), plus the excess-norm charge when the comparator leaves
        the unit ball. Valid along trajectories run with a descent strategy,
        where the potential stays nonpositive. A stack of statistics gives
        one bound per member."""
        xnorm, root = self._norms(stat)
        excess = 0.0
        if comparator is not None:
            w = np.asarray(comparator, dtype=float)
            wn = float(np.linalg.norm(w)) if self.variant == "l2" else float(np.max(np.abs(w)))
            excess = max(wn - 1.0, 0.0) * xnorm
        return 2.0 * self.L * root + excess

    def sample_instances(self, rng, k):
        v = rng.normal(size=(k, self.d))
        return (v / np.maximum(_l2(v), 1.0)[:, None]).reshape((k,) + self.shape)

    def increment_bound(self):
        # usq is 1-Lipschitz in x and 2-Lipschitz in its y slot; a round moves
        # x by at most L R and the y slot by at most L R, where R bounds the
        # instance's l2 norm: 1 on vectors, and on matrices of spectral norm
        # <= 1 the Frobenius radius sqrt(min(d1, d2)). linf moves each
        # coordinate by 3 L |x_i|, so it charges the l1 norm, <= sqrt(d) R
        R = math.sqrt(min(self.shape)) if len(self.shape) == 2 else 1.0
        if self.variant == "linf":
            R *= math.sqrt(self.d)
        step = self.L * self.B + 3.0 * self.L * R
        return step ** 2
