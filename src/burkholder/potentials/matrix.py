"""Matrix prediction with comparators in a nuclear-norm ball.

The statistic stores (sum delta*y_hat, sum delta*dilation(X), sum
dilation_square(X)); the potential is a softmax smoothing of the largest
eigenvalue of the drift-corrected dilation sum, valid once the constant c
covers the log-dimension term.
"""

import math

import numpy as np

from .. import symlin
from ..errors import ConfigError, DomainError
from ..potential import Potential, Round, Trajectory, accumulate
from ..statistics import ScalarSymPsd
from ..strategies import linearized_round, value_after


class MatrixPotential(Potential):
    convex_in_delta = True
    linearizable = True

    def __init__(self, d1, d2, eta, r=1.0, L=1.0, c=None, B=1.0, strict=True):
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
        self.c = float(c) if c is not None else self.r * math.log(self.dim)
        if strict and self.c < self.r * math.log(self.dim) * (1 - 1e-12):
            raise ConfigError("c >= r*log(d1+d2)")
        self._comparator_norm = (None, 0.0)  # (comparator, its nuclear norm)

    def zero(self):
        return ScalarSymPsd.zero(self.dim)

    def stat_map(self, x, y_hat, delta):
        """The round's statistic; one instance against a stack of deltas is
        shared by every member, and its M slot is a broadcast view."""
        x, delta = symlin.as_matrix(x), np.asarray(delta, dtype=float)
        if x.shape not in ((self.d1, self.d2), delta.shape + (self.d1, self.d2)):
            raise DomainError(f"instance shape {x.shape} != {delta.shape + (self.d1, self.d2)}")
        M = symlin.dilation_square(x)
        return ScalarSymPsd(delta * y_hat,
                            delta[..., None, None] * symlin.dilation(x),
                            np.broadcast_to(M, delta.shape + M.shape[-2:]))

    def _lte(self, H, M):
        """log tr exp(eta H - (eta^2 L^2 / 2) M) from H and M on a common
        principal block; both are new arrays, overwritten here."""
        H *= self.eta
        M *= 0.5 * self.eta ** 2 * self.L ** 2
        H -= M
        return symlin.log_trace_exp(H, self.dim)

    def _blocks(self, stat, live=None):
        """New arrays of H and M on their common live block, or on `live`."""
        live = symlin.live_rows(stat.H, stat.M) if live is None else live
        return symlin.principal_block(stat.H, live), symlin.principal_block(stat.M, live)

    def eval(self, stat, t=None):
        return stat.a + (self.r / self.eta) * self._lte(*self._blocks(stat)) - self.c / self.eta

    def residual(self, zeta, x, delta, t=None):
        """F(zeta, x, delta) = U(zeta + T(x, 0, delta)), a stack of deltas in
        one call: zeta's live block, widened by the instance's rows, is
        gathered once and each delta's step added on the block."""
        x, delta = symlin.as_matrix(x), np.asarray(delta, dtype=float)
        if x.shape[-2:] != (self.d1, self.d2):
            raise DomainError(f"instance shape {x.shape} != {delta.shape + (self.d1, self.d2)}")
        live = symlin.live_rows(zeta.H, zeta.M, extra=symlin.dilation_rows(x))
        H, M = self._blocks(zeta, live)
        xb = symlin.instance_block(x, live)
        D = symlin.dilation(xb)  # the step is built in place: one stacked block fewer at the peak
        step = np.empty(np.broadcast_shapes(H.shape, D.shape, delta.shape + (1, 1)))
        np.multiply(delta[..., None, None], D, out=step)
        step += H
        return zeta.a + (self.r / self.eta) * self._lte(
            step, M + symlin.dilation_square(xb)) - self.c / self.eta

    def bound(self, stat):
        """V = a + r * lambda_1(H - (eta L^2 / 2) M) - c / eta."""
        H, M = self._blocks(stat)
        M *= 0.5 * self.eta * self.L ** 2
        H -= M
        return stat.a + self.r * symlin.sym_eigvals(H, self.dim)[..., 0] - self.c / self.eta

    def regret_bound(self, stat, comparator=None):
        """A = (eta L^2 r / 2) ||sum dilation_square|| + c / eta, plus (||W||_*
        - r) lambda_1(H) for a comparator W outside the radius-r ball: regret
        <= a + ||W||_* ||sum delta X||_sigma by convexity, and V <= 0 covers
        r lambda_1(H). ||W||_* is computed once per comparator object; up to
        1e-12 r over r (a projected comparator's roundoff) counts as inside.
        A stack of statistics gives one bound per member."""
        mnorm = symlin.sym_eigvals(stat.M)[..., 0]
        bound = 0.5 * self.eta * self.L ** 2 * self.r * np.maximum(mnorm, 0.0) + self.c / self.eta
        if comparator is not None and self._comparator_norm[0] is not comparator:
            w = np.reshape(np.asarray(comparator, dtype=float), (self.d1, self.d2))
            self._comparator_norm = (comparator, float(np.linalg.svd(w, compute_uv=False).sum()))
        excess = self._comparator_norm[1] - self.r if comparator is not None else 0.0
        if excess > 1e-12 * self.r:
            bound = bound + excess * np.maximum(symlin.sym_eigvals(stat.H)[..., 0], 0.0)
        return bound

    def sample_instances(self, rng, k):
        x = rng.normal(size=(k, self.d1, self.d2))
        return x / np.maximum(symlin.spectral_norm(x), 1.0)[:, None, None]

    def increment_bound(self):
        # |delta y_hat| <= L B, softmax moves at most r L ||X|| + (eta r L^2 / 2) ||X||^2
        step = self.L * self.B + self.r * self.L + 0.5 * self.eta * self.r * self.L ** 2
        return step ** 2


def doubling_run(d1, d2, sequence, loss, *, r=1.0, c=None, R=1.0, on_round=None):
    """Doubling trick over spectral budgets B_k = R^2 2^k.

    Starts epoch k with eta_k = sqrt(2 c / (L^2 B_k)) and a fresh statistic;
    the epoch ends after the round in which its accumulated squared-dilation
    spectral norm reaches the budget. Returns (trajectory, epochs) where each
    epoch record is (start_round, eta, budget). on_round(t, zeta_prev, rnd,
    zeta) sees each round's statistics before any epoch reset; the
    trajectory keeps only the last round's statistic. L and the range B are
    the loss's.
    """
    if R <= 0:
        raise DomainError("R > 0")
    c_val = float(c) if c is not None else r * math.log(d1 + d2)
    traj = Trajectory()
    epochs = []
    k = 0

    def fresh(k):
        budget = R ** 2 * 2 ** k
        eta = math.sqrt(2.0 * c_val / (loss.L ** 2 * budget))
        pot = MatrixPotential(d1, d2, eta=eta, r=r, L=loss.L, c=c_val, B=loss.B)
        return pot, budget

    pot, budget = fresh(k)
    zeta = last = pot.zero()
    traj.potential_values.append(pot.eval(zeta, t=0))
    epochs.append((1, pot.eta, budget))
    for t, (x, y) in enumerate(sequence, start=1):
        y_hat, residuals = linearized_round(pot, zeta, x, t=t)
        delta = float(loss.subgradient(y_hat, y))
        last = accumulate(zeta, x, y_hat, delta, pot)
        rnd = Round(t=t, x=x, y_hat=float(y_hat), y=float(y),
                    delta=delta, loss=float(loss.value(y_hat, y)))
        traj.rounds.append(rnd)
        traj.potential_values.append(value_after(pot, last, rnd, residuals))
        if on_round is not None:
            on_round(t, zeta, rnd, last)
        zeta = last
        m_norm = float(symlin.sym_eigvals(zeta.M)[0])
        if m_norm >= budget * (1 - 1e-12):
            k += 1
            pot, budget = fresh(k)
            zeta = pot.zero()
            epochs.append((t + 1, pot.eta, budget))
    traj.zetas.append(last)
    return traj, epochs
