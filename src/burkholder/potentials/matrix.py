"""Matrix prediction with comparators in a nuclear-norm ball.

The statistic stores (sum delta*y_hat, Z), Z the sum of the rounds'
symlin.dilation_step(X, delta) = [[X X^T, delta X], [delta X^T, X^T X]]:
the drift H = sum delta*D(X) of the self-adjoint dilations D(X) fills Z's
off-diagonal blocks and M = sum D(X)^2 its diagonal ones. The potential is
a softmax smoothing of the largest eigenvalue of eta H - (eta^2 L^2 / 2) M,
less c / eta for the constant c = r log(d1 + d2). A run on Entry instances
starts from the zero BlockSym and each round maps to a BlockSym, which
keeps Z as one block per connected component, so the potential works
block by block; a run on dense instances holds a ScalarSym throughout.
"""

import math

import numpy as np

from .. import symlin
from ..errors import ConfigError, DomainError, TagMismatchError
from ..potential import Potential, distinct
from ..statistics import BlockSym, ScalarSym, positions
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
        # id(z) -> (z, log-sum-exp) for the blocks of the last BlockSym read
        self._lses = {}

    def zero(self, like=None):
        if isinstance(like, symlin.Entry):
            return BlockSym.zero(self.d1, self.d2)
        return ScalarSym.zero(self.dim)

    def _instance(self, x, delta):
        """(x, delta) as an Entry or a float array and an array, x one
        instance or one per delta."""
        if not isinstance(x, symlin.Entry):
            x = np.atleast_2d(np.asarray(x, dtype=float))
        delta = np.asarray(delta, dtype=float)
        if x.shape not in ((self.d1, self.d2), delta.shape + (self.d1, self.d2)):
            raise DomainError(f"instance shape {x.shape} != {delta.shape + (self.d1, self.d2)}")
        return x, delta

    def stat_map(self, x, y_hat, delta):
        x, delta = self._instance(x, delta)
        if isinstance(x, symlin.Entry) and delta.ndim == 0:
            return BlockSym.entry(x, float(delta), float(delta * y_hat))
        return ScalarSym(delta * y_hat, symlin.dilation_step(x, delta))

    def _block(self, stat, drift, variance):
        """drift H + variance M on the live block of a ScalarSym's Z (one
        block for a stack): the block is gathered once and its blocks
        scaled in place."""
        live = symlin.live_rows(stat.Z)
        z = symlin.principal_block(stat.Z, live)
        k1 = int(np.searchsorted(live, self.d1))  # block rows below k1 are rows of X
        z[..., :k1, k1:] *= drift
        z[..., k1:, :k1] *= drift
        z[..., :k1, :k1] *= variance
        z[..., k1:, k1:] *= variance
        z += 0.0  # a zero stays +0.0, as in drift H + variance M
        return z

    def _weights(self):
        """(drift, variance) weights of the softmax argument eta H - (eta^2
        L^2 / 2) M; they fix every spectrum the potential takes of it."""
        return self.eta, -0.5 * self.eta ** 2 * self.L ** 2

    def _value(self, a, lse):
        """U from the statistic's a and the log-sum-exp of its softmax argument's spectrum."""
        return a + (self.r / self.eta) * lse - self.c / self.eta

    @staticmethod
    def _weigh_block(z, drift, variance):
        """drift H + variance M in place on a block of a BlockSym (or a stack
        of them), whose M is its diagonal."""
        d = np.arange(z.shape[-1])
        diagonal = variance * z[..., d, d]
        z *= drift
        z[..., d, d] = diagonal
        return z

    def _rest(self, stat, roots=(), revived=0):
        """The block log-sum-exps of stat outside the blocks `roots`, and log
        n for its n dead indices less `revived`: their log-sum-exp is that of
        every eigenvalue outside those blocks, a dead index adding a zero.
        Each block's value is kept while the statistics read next share
        the block, as + shares every block a step leaves alone."""
        kept, self._lses, key = self._lses, {}, self._weights()
        for r, (_, z) in stat.blocks.items():
            if r in roots:
                continue
            if id(z) not in kept:
                w = self._weigh_block(z.copy(), *key)
                kept[id(z)] = (z, float(symlin.logsumexp(symlin.sym_eigvals(w))))
            self._lses[id(z)] = kept[id(z)]
        lses = [lse for _, lse in self._lses.values()]
        dead = int(np.count_nonzero(stat.root < 0)) - revived
        return np.array(lses + [math.log(dead)] if dead else lses)

    def eval(self, stat, t=None):
        if isinstance(stat, BlockSym):
            return self._value(stat.a, symlin.logsumexp(self._rest(stat)))
        z = self._block(stat, *self._weights())
        return self._value(stat.a, symlin.logsumexp(symlin.sym_eigvals(z, self.dim)))

    def residual(self, zeta, x, delta, t=None):
        """F(zeta, x, delta) = U(zeta + T(x, 0, delta)) for one statistic and a
        stack of deltas, or member by member for a dense stack in line with them.

        F is even in delta when no path along the nonzero entries of Z joins
        a nonzero row of x to a nonzero column of x (for a stack of
        instances, any member's row to any member's column): the diagonal
        sign matrix J that is -1 on the indices such paths reach from x's
        columns and +1 elsewhere leaves Z fixed and maps the step at delta
        to the step at -delta. Then every delta is evaluated at |delta|, so
        F(+L) - F(-L), the linearized prediction, is exactly 0.

        An Entry on a BlockSym factors only the block that the step forms
        (see _entry_residual); a dense x on a BlockSym raises
        TagMismatchError, as their sum would. On a ScalarSym an Entry is
        read as its dense matrix, symlin.connects decides the sign rule
        member by member, and the answer is Potential.residual's U of the
        summed statistic.
        """
        x, delta = self._instance(x, delta)
        if isinstance(zeta, BlockSym):
            if not isinstance(x, symlin.Entry):
                raise TagMismatchError("cannot combine BlockSym with a dense instance's ScalarSym")
            return self._entry_residual(zeta, x, delta)
        x = np.asarray(x)
        batch = tuple(range(x.ndim - 2 - zeta.batch_ndim))  # instances that share a statistic
        live = np.concatenate([x.any(axis=batch + (-1,)), x.any(axis=batch + (-2,))], axis=-1)
        side = np.arange(self.dim) < self.d1  # x's rows, then its columns
        joined = symlin.connects(zeta.Z, live & side, live & ~side)
        return super().residual(zeta, x, np.where(joined, delta, np.abs(delta)), t=t)

    def _entry_residual(self, zeta, x, delta):
        """The residual of the Entry x = e_i e_j^T on a BlockSym: the step
        touches the blocks that hold i and d1 + j, so only their union with
        the step, one block, is factored; every other block enters through
        the log-sum-exp kept for it (see _rest). No path joins i to d1 + j
        exactly when they lie in different blocks (or one is untouched):
        then the sign rule holds and each distinct |delta| takes one
        spectrum, else each distinct delta."""
        i, j = x.i, self.d1 + x.j
        ri, rj = zeta.root[i], zeta.root[j]
        even = ri < 0 or ri != rj
        mags, inverse = distinct(np.abs(delta) if even else delta)
        roots, rows, z = zeta.gather(np.array([i, j]))
        pi, pj = positions(rows, [i, j])
        z = np.repeat(z[None], mags.size, axis=0)
        z[:, pi, pi] += 1.0
        z[:, pj, pj] += 1.0
        z[:, pi, pj] += mags
        z[:, pj, pi] += mags
        lse = symlin.logsumexp(symlin.sym_eigvals(self._weigh_block(z, *self._weights())))
        rest = self._rest(zeta, roots, int(ri < 0) + int(rj < 0))
        both = np.concatenate([lse[:, None], np.broadcast_to(rest, (mags.size, rest.size))], axis=1)
        return self._value(zeta.a, symlin.logsumexp(both))[inverse]

    def bound(self, stat):
        """V = a + r * lambda_1(H - (eta L^2 / 2) M) - c / eta; on a BlockSym
        the largest top eigenvalue of its blocks, with 0 for a dead index."""
        weights = (1.0, -0.5 * self.eta * self.L ** 2)
        if isinstance(stat, BlockSym):
            tops = [symlin.sym_eigvals(self._weigh_block(z.copy(), *weights))[0]
                    for _, z in stat.blocks.values()]
            top = max(tops + [0.0] if (stat.root < 0).any() else tops)
        else:
            top = symlin.sym_eigvals(self._block(stat, *weights), self.dim)[..., 0]
        return stat.a + self.r * top - self.c / self.eta

    def variance(self, stat):
        """||M|| = lambda_1(M) for the block-diagonal M in Z's diagonal blocks;
        one per member of a stack: the top eigenvalue of M's live block, or
        the top diagonal entry of a BlockSym, whose M is diagonal."""
        if isinstance(stat, BlockSym):
            return stat.top
        return symlin.sym_eigvals(self._block(stat, 0.0, 1.0), self.dim)[..., 0]

    def drift_norm(self, stat):
        """||sum delta X||_sigma = lambda_1(H), from Z's off-diagonal block
        (block by block on a BlockSym); one per member of a stack."""
        if isinstance(stat, BlockSym):  # a block's indices below d1 are rows of X
            return max([float(symlin.spectral_norm(z[np.ix_(rows < self.d1, rows >= self.d1)]))
                        for rows, z in stat.blocks.values()], default=0.0)
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
