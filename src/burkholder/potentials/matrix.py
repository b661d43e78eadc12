"""Matrix prediction with comparators in a nuclear-norm ball.

The statistic stores (sum delta*y_hat, Z), Z the sum of the rounds'
symlin.dilation_step(X, delta) = [[X X^T, delta X], [delta X^T, X^T X]]:
the drift H = sum delta*D(X) of the self-adjoint dilations D(X) fills Z's
off-diagonal blocks and M = sum D(X)^2 its diagonal ones. The potential is
a softmax smoothing of the largest eigenvalue of eta H - (eta^2 L^2 / 2) M,
less c / eta for the constant c = r log(d1 + d2).
"""

import math

import numpy as np

from .. import symlin
from ..errors import ConfigError, DomainError, NumericError
from ..potential import Potential, distinct
from ..statistics import ScalarSym
from ..strategies import _play, predict_linearized


class MatrixPotential(Potential):
    convex_in_delta = True
    linearizable = True

    def __init__(self, d1, d2, eta, r=1.0, L=1.0, B=1.0):
        if d1 < 1 or d2 < 1:
            raise ConfigError("d1 >= 1 and d2 >= 1")
        if eta <= 0:
            raise ConfigError("eta > 0")
        if r <= 0:
            raise ConfigError("r > 0")
        if L <= 0:
            raise ConfigError("L > 0")
        self.d1, self.d2 = int(d1), int(d2)
        self.dim = self.d1 + self.d2
        self.eta = float(eta)
        self.r = float(r)
        self.L = float(L)
        self.B = float(B)
        self.c = self.r * math.log(self.dim)  # the least c with U(0) <= 0
        self._comparator = (None, 0.0)  # (a copy of the comparator, its nuclear norm)

    def zero(self):
        return ScalarSym.zero(self.dim)

    def _instance(self, x, delta):
        """(x, delta) as an instance and an array, x one instance or one per delta."""
        x, delta = symlin.as_matrix(x), np.asarray(delta, dtype=float)
        if x.shape not in ((self.d1, self.d2), delta.shape + (self.d1, self.d2)):
            raise DomainError(f"instance shape {x.shape} != {delta.shape + (self.d1, self.d2)}")
        return x, delta

    def stat_map(self, x, y_hat, delta):
        x, delta = self._instance(x, delta)
        return ScalarSym(delta * y_hat, symlin.dilation_step(x, delta))

    def _block(self, stat, drift, variance, x=None, delta=None):
        """drift H + variance M at stat, or at stat + T(x, 0, delta) for each
        delta of a stack, on Z's live block widened by x's rows: the block is
        gathered once, the steps added and its blocks scaled in place."""
        live = symlin.live_rows(stat.Z, extra=() if x is None else symlin.dilation_rows(x))
        z = symlin.principal_block(stat.Z, live)
        if x is not None:
            step = symlin.dilation_step(symlin.instance_block(x, live), delta)
            z = np.add(step, z, out=step)
        k1 = int(np.searchsorted(live, self.d1))  # block rows below k1 are rows of X
        z[..., :k1, k1:] *= drift
        z[..., k1:, :k1] *= drift
        z[..., :k1, :k1] *= variance
        z[..., k1:, k1:] *= variance
        z += 0.0  # a zero stays +0.0, as in drift H + variance M
        return z

    def _softmax(self, stat, x=None, delta=None):
        z = self._block(stat, self.eta, -0.5 * self.eta ** 2 * self.L ** 2, x, delta)
        return (stat.a + (self.r / self.eta) * symlin.logsumexp(symlin.sym_eigvals(z, self.dim))
                - self.c / self.eta)

    def eval(self, stat, t=None):
        return self._softmax(stat)

    def residual(self, zeta, x, delta, t=None):
        """F(zeta, x, delta) = U(zeta + T(x, 0, delta)) for one statistic and
        a stack of deltas, from one gather of zeta's live block.

        F is even in delta when no path along the nonzero entries of Z joins
        a nonzero row of x to a nonzero column of x (for a stack of
        instances, any member's row to any member's column): the diagonal
        sign matrix J that is -1 on the indices such paths reach from x's
        columns and +1 elsewhere leaves Z fixed and maps the step at delta
        to the step at -delta. Then every delta is evaluated at |delta|, one
        spectrum per distinct |delta| of one instance, and F(+L) - F(-L),
        the linearized prediction, is exactly 0.
        """
        x, delta = self._instance(x, delta)
        rows = symlin.dilation_rows(x)
        k1 = int(np.searchsorted(rows, self.d1))  # rows[:k1] are x's rows, the rest its columns
        if not symlin.connects(zeta.Z, rows[:k1], rows[k1:]):
            delta = np.abs(delta)
            if x.shape == (self.d1, self.d2):
                mags, inverse = distinct(delta)
                return self._softmax(zeta, x, mags)[inverse]
        return self._softmax(zeta, x, delta)

    def bound(self, stat):
        """V = a + r * lambda_1(H - (eta L^2 / 2) M) - c / eta."""
        z = self._block(stat, 1.0, -0.5 * self.eta * self.L ** 2)
        return stat.a + self.r * symlin.sym_eigvals(z, self.dim)[..., 0] - self.c / self.eta

    def variance(self, stat):
        """||M|| = lambda_1(M) for the block-diagonal M in Z's diagonal blocks;
        one per member of a stack. One scan of Z finds whether both blocks
        are diagonal (as on `Entry` runs); then ||M|| is the largest diagonal
        entry, with no sort, else the top eigenvalue of M's live block."""
        z, d1 = stat.Z, self.d1
        nonzero = z != 0  # a NaN counts, so sym_eigvals rejects it
        diag = np.diagonal(z, axis1=-2, axis2=-1)
        if (np.count_nonzero(nonzero[..., :d1, :d1]) + np.count_nonzero(nonzero[..., d1:, d1:])
                > np.count_nonzero(diag)):
            return symlin.sym_eigvals(self._block(stat, 0.0, 1.0), self.dim)[..., 0]
        top = diag.max(axis=-1)
        if not np.isfinite(top).all():
            raise NumericError("non-finite variance diagonal", {"max": top})
        return top

    def drift_norm(self, stat):
        """||sum delta X||_sigma = lambda_1(H), from Z's off-diagonal block;
        one per member of a stack."""
        return symlin.spectral_norm(stat.Z[..., :self.d1, self.d1:])

    def regret_bound(self, stat, comparator=None):
        """A = (eta L^2 r / 2) ||M|| + c / eta, plus (||W||_* - r)
        ||sum delta X||_sigma for a comparator W outside the radius-r ball:
        regret <= a + ||W||_* ||sum delta X||_sigma by convexity, and V <= 0
        covers r lambda_1(H). ||W||_* is recomputed when W's entries change;
        up to 1e-12 r over r (a projected comparator's roundoff) counts as
        inside. A stack of statistics gives one bound per member."""
        bound = (0.5 * self.eta * self.L ** 2 * self.r * np.maximum(self.variance(stat), 0.0)
                 + self.c / self.eta)
        if comparator is not None and not np.array_equal(self._comparator[0], comparator):
            w = np.array(comparator, dtype=float)
            self._comparator = (w, float(np.linalg.svd(
                w.reshape(self.d1, self.d2), compute_uv=False).sum()))
        excess = self._comparator[1] - self.r if comparator is not None else 0.0
        if excess > 1e-12 * self.r:
            bound = bound + excess * self.drift_norm(stat)
        return bound

    def sample_instances(self, rng, k):
        x = rng.normal(size=(k, self.d1, self.d2))
        return x / np.maximum(symlin.spectral_norm(x), 1.0)[:, None, None]

    def increment_bound(self):
        # |delta y_hat| <= L B, softmax moves at most r L ||X|| + (eta r L^2 / 2) ||X||^2
        step = self.L * self.B + self.r * self.L + 0.5 * self.eta * self.r * self.L ** 2
        return step ** 2


def doubling_run(d1, d2, sequence, loss, *, r=1.0, R=1.0, on_round=None):
    """Doubling trick over spectral budgets B_k = R^2 2^k.

    Starts epoch k with eta_k = sqrt(2 c / (L^2 B_k)), c = r log(d1 + d2),
    and a fresh statistic; the epoch ends after the round in which its
    accumulated squared-dilation spectral norm reaches the budget. It plays
    the linearized strategy through strategies._play, whose restart hook
    opens each new epoch. Returns (trajectory, epochs) where each epoch
    record is (start_round, eta, budget). on_round(t, zeta_prev, rnd, zeta)
    sees each round's statistics before any epoch reset; the trajectory
    keeps only the last round's statistic. L and the range B are the loss's.
    """
    if R <= 0:
        raise DomainError("R > 0")
    c = r * math.log(d1 + d2)
    epochs = []

    def epoch(start):
        budget = R ** 2 * 2 ** len(epochs)
        eta = math.sqrt(2.0 * c / (loss.L ** 2 * budget))
        epochs.append((start, eta, budget))
        return MatrixPotential(d1, d2, eta=eta, r=r, L=loss.L, B=loss.B)

    def restart(pot, zeta, t):
        return epoch(t + 1) if pot.variance(zeta) >= epochs[-1][2] * (1 - 1e-12) else None

    return _play(epoch(1), predict_linearized, sequence, loss, on_round, restart), epochs
