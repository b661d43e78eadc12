"""Matrix prediction with comparators in a nuclear-norm ball.

The statistic stores (sum delta*y_hat, sum delta*dilation(X), sum
dilation_square(X)); the potential is a softmax smoothing of the largest
eigenvalue of the drift-corrected dilation sum, valid once the constant c
covers the log-dimension term.
"""

import math

import numpy as np

from .. import symlin
from ..errors import ConfigError, DomainError, NumericError
from ..potential import Potential, Round, Trajectory, accumulate
from ..statistics import ScalarSymPsd


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

    def zero(self):
        return ScalarSymPsd.zero(self.dim)

    def anchor(self):
        return np.zeros((self.d1, self.d2)), 0.0

    def stat_map(self, x, y_hat, delta):
        x = symlin.as_matrix(x)
        if x.shape != (self.d1, self.d2):
            raise DomainError(f"instance shape {x.shape} != ({self.d1}, {self.d2})")
        return ScalarSymPsd(delta * y_hat,
                            delta * symlin.dilation(x),
                            symlin.dilation_square(x))

    def _lte(self, H, M):
        arg = self.eta * H - 0.5 * self.eta ** 2 * self.L ** 2 * M
        if not np.all(np.isfinite(arg)):
            raise NumericError("non-finite softmax argument",
                               {"max_abs": float(np.nanmax(np.abs(arg)))})
        return symlin.log_trace_exp(arg)

    def eval(self, stat, t=None):
        return stat.a + (self.r / self.eta) * self._lte(stat.H, stat.M) - self.c / self.eta

    def bound(self, stat):
        """V = a + r * lambda_1(H - (eta L^2 / 2) M) - c / eta."""
        lam1 = symlin.sym_eigvals(stat.H - 0.5 * self.eta * self.L ** 2 * stat.M)[0]
        return stat.a + self.r * float(lam1) - self.c / self.eta

    def residual(self, zeta, x, delta, t=None):
        lte = self._lte(zeta.H + delta * symlin.dilation(x),
                        zeta.M + symlin.dilation_square(x))
        return zeta.a + (self.r / self.eta) * lte - self.c / self.eta

    def predict(self, zeta, x):
        """clamp(-(r / 2 L eta) [lte(+) - lte(-)]) with the current round's
        squared dilation included inside both sign branches."""
        dil = symlin.dilation(x)
        m_new = zeta.M + symlin.dilation_square(x)
        lte_p = self._lte(zeta.H + self.L * dil, m_new)
        lte_m = self._lte(zeta.H - self.L * dil, m_new)
        raw = -(self.r / (2.0 * self.L * self.eta)) * (lte_p - lte_m)
        return min(self.B, max(-self.B, raw))

    def comparator_bound(self, stat):
        """A = (eta L^2 r / 2) ||sum dilation_square|| + c / eta, from the M slot."""
        mnorm = float(symlin.sym_eigvals(stat.M)[0]) if stat.M.size else 0.0
        return 0.5 * self.eta * self.L ** 2 * self.r * max(mnorm, 0.0) + self.c / self.eta

    def regret_bound(self, stat, comparator=None):
        # uniform over the nuclear ball; the comparator argument is accepted
        # for interface parity and ignored
        return self.comparator_bound(stat)

    def sample_instance(self, rng):
        x = rng.normal(size=(self.d1, self.d2))
        sn = symlin.spectral_norm(x)
        return x / max(sn, 1.0)

    def increment_bound(self):
        # |delta y_hat| <= L B, softmax moves at most r L ||X|| + (eta r L^2 / 2) ||X||^2
        step = self.L * self.B + self.r * self.L + 0.5 * self.eta * self.r * self.L ** 2
        return step ** 2


def doubling_run(d1, d2, sequence, loss, B=1.0, r=1.0, L=1.0, c=None, R=1.0,
                 on_round=None):
    """Doubling trick over spectral budgets B_k = R^2 2^k.

    Starts epoch k with eta_k = sqrt(2 c / (L^2 B_k)) and a fresh statistic;
    the epoch ends after the round in which its accumulated squared-dilation
    spectral norm reaches the budget. Returns (trajectory, epochs) where each
    epoch record is (start_round, eta, budget). on_round(t, zeta_prev, rnd,
    zeta) sees each round's statistics before any epoch reset; the
    trajectory keeps only the last round's statistic.
    """
    if R <= 0:
        raise DomainError("R > 0")
    c_val = float(c) if c is not None else r * math.log(d1 + d2)
    traj = Trajectory()
    epochs = []
    k = 0

    def fresh(k):
        budget = R ** 2 * 2 ** k
        eta = math.sqrt(2.0 * c_val / (L ** 2 * budget))
        pot = MatrixPotential(d1, d2, eta=eta, r=r, L=L, c=c_val, B=B)
        return pot, budget

    pot, budget = fresh(k)
    zeta = last = pot.zero()
    traj.potential_values.append(pot.eval(zeta))
    epochs.append((1, pot.eta, budget))
    for t, (x, y) in enumerate(sequence, start=1):
        y_hat = pot.predict(zeta, x)
        delta = float(loss.subgradient(y_hat, y))
        last = accumulate(zeta, x, y_hat, delta, pot)
        rnd = Round(t=t, x=x, y_hat=float(y_hat), y=float(y),
                    delta=delta, loss=float(loss.value(y_hat, y)))
        traj.rounds.append(rnd)
        traj.potential_values.append(pot.eval(last))
        if on_round is not None:
            on_round(t, zeta, rnd, last)
        zeta = last
        m_norm = float(symlin.sym_eigvals(zeta.M)[0]) if zeta.M.size else 0.0
        if m_norm >= budget * (1 - 1e-12):
            k += 1
            pot, budget = fresh(k)
            zeta = pot.zero()
            epochs.append((t + 1, pot.eta, budget))
    traj.zetas.append(last)
    return traj, epochs
