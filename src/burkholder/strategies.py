"""Generic prediction strategies driven by a potential.

Three routes to a prediction whose worst-case one-round value does not
increase the potential: a closed form for linearizable families, a grid
minimax for families convex in the prediction, and a randomized grid
strategy with a multiplicative-weights inner solver whose slack is
controlled by (eps1, eps2).
"""

import math
from collections import namedtuple

import numpy as np

from .errors import DomainError, NumericError
from .potential import Potential, Round, Trajectory, accumulate

GridDistribution = namedtuple("GridDistribution", ["points", "probs"])


def predict_linearized(P, zeta, x, *, t=None):
    """Closed-form prediction clamp(-(F(+L) - F(-L)) / (2L), [-B, B]).

    F is the potential's residual. Requires the residual to be convex in
    delta.
    """
    f_plus = P.residual(zeta, x, +P.L, t=t)
    f_minus = P.residual(zeta, x, -P.L, t=t)
    if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
        raise NumericError("non-finite residual evaluation",
                           {"f_plus": f_plus, "f_minus": f_minus})
    return min(P.B, max(-P.B, -(f_plus - f_minus) / (2.0 * P.L)))


def sup_labels(P, loss, *, points=()):
    """loss.critical_labels for a mixture over points (none: a pure prediction)."""
    if not P.convex_in_delta:
        raise DomainError("the sup over labels is exact only for a family convex in delta")
    return loss.critical_labels(points)


# The convex strategy's search: grid size, refinement stages, final spacing.
_PRED_GRID, _MAX_STAGES, _TOL = 129, 60, 1e-4


def predict_convex(P, zeta, x, loss, *, t=None):
    """Grid minimax: leftmost minimizer over y_hat of the sup over y.

    The outer search runs on a uniform y_hat grid; when the potential
    declares convexity in the prediction the bracket around the leftmost
    grid minimizer is refined until its spacing is at most _TOL.
    """
    ys = sup_labels(P, loss)
    lo, hi = -P.B, P.B
    best = None
    for _ in range(_MAX_STAGES):
        pts = np.linspace(lo, hi, _PRED_GRID)
        table = P.round_values(zeta, x, pts, ys, loss, t=t)
        sup = table.max(axis=1)
        i = int(np.argmin(sup))  # argmin takes the leftmost among ties
        best = float(pts[i])
        if not P.convex_in_prediction:
            return best
        spacing = pts[1] - pts[0]
        if spacing <= _TOL:
            return best
        lo = float(pts[max(i - 1, 0)])
        hi = float(pts[min(i + 1, pts.size - 1)])
    raise NumericError("prediction search did not converge",
                       {"bracket": (lo, hi), "last": best})


# The randomized strategy's default eps1 and eps2.
RANDOMIZED_EPS = 0.05


def predict_randomized(P, zeta, x, eps1, eps2, rng, loss, *, t=None):
    """Randomized strategy on an eps1-grid with a multiplicative-weights solver.

    Builds N = ceil(2B/eps1) + 1 control points z_i = -B + eps1*i (the top
    point clipped to B), precomputes the round's value table against the
    critical labels of that grid, and runs ceil(H^2 log N / eps2^2)
    mirror-descent iterations at step sqrt(2 log N / iters) / H, H being the
    recentered value bound. A grid size numpy cannot represent, or an
    iteration count beyond the float range, raises DomainError. Returns
    (distribution over the control points, sampled prediction).
    """
    if eps1 <= 0 or eps2 <= 0:
        raise DomainError("eps1 and eps2 must be positive")
    B = P.B
    try:
        n_pts = math.ceil(2.0 * B / eps1) + 1
        pts = np.minimum(-B + eps1 * np.arange(n_pts), B)
    except (OverflowError, ValueError) as exc:
        raise DomainError(f"eps1 = {eps1:g} with B = {B:g} asks for a grid of "
                          f"{2.0 * B / eps1:.4g} points, which numpy cannot represent") from exc
    ys = sup_labels(P, loss, points=pts)
    table = P.round_values(zeta, x, pts, ys, loss, t=t)
    if not np.all(np.isfinite(table)):
        raise NumericError("non-finite round value table",
                           {"max": np.max(table), "min": np.min(table)})
    mid = 0.5 * (table.max() + table.min())
    half_range = 0.5 * (table.max() - table.min())
    mu = np.full(n_pts, 1.0 / n_pts)
    if half_range <= 1e-12:
        dist = GridDistribution(pts, mu)
        return dist, float(rng.choice(pts, p=mu))
    table = table - mid  # shifting the payoff is neutral after normalization
    try:
        iters = math.ceil(float(half_range) ** 2 * math.log(n_pts) / eps2 ** 2)
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"eps2 = {eps2:g} with B = {B:g} asks for more solver "
                          f"iterations than a float can represent") from exc
    step = math.sqrt(2.0 * math.log(n_pts) / iters) / half_range
    factors = np.exp(-step * table.T)  # row j: the update against label j
    avg = np.zeros(n_pts)
    for _ in range(iters):
        mu *= factors[(mu @ table).argmax()]
        mu /= mu.sum()
        avg += mu
    avg /= iters
    dist = GridDistribution(pts, avg)
    return dist, float(rng.choice(pts, p=avg))


def realized_game_value(P, zeta, x, dist, loss, *, t=None):
    """sup_y sum_i mu_i U(zeta + T(x, z_i, dloss(z_i, y))) for a grid strategy."""
    ys = sup_labels(P, loss, points=dist.points)
    table = P.round_values(zeta, x, dist.points, ys, loss, t=t)
    return float(np.max(dist.probs @ table))


STRATEGIES = ("linearized", "convex", "randomized")


def _play(P, choose, sequence, loss, on_round):
    """The online protocol: choose(zeta, x, t) predicts, the statistic advances.

    Only the running statistic is held; on_round(t, zeta_prev, rnd, zeta),
    when given, sees each round's record and the statistics around it.
    """
    traj = Trajectory()
    zeta = P.zero()
    traj.potential_values.append(P.eval(zeta, t=0))
    for t, (x, y) in enumerate(sequence, start=1):
        y_hat = choose(zeta, x, t)
        delta = float(loss.subgradient(y_hat, y))
        nxt = accumulate(zeta, x, y_hat, delta, P)
        rnd = Round(t=t, x=x, y_hat=float(y_hat), y=float(y),
                    delta=delta, loss=float(loss.value(y_hat, y)))
        traj.rounds.append(rnd)
        traj.potential_values.append(P.eval(nxt, t=t))
        if on_round is not None:
            on_round(t, zeta, rnd, nxt)
        zeta = nxt
    traj.zetas.append(zeta)
    return traj


def run_online(P, strategy, sequence, loss, *, rng=None, eps1=RANDOMIZED_EPS,
               eps2=RANDOMIZED_EPS, on_round=None):
    """Play the full protocol and record the trajectory.

    sequence is an iterable of (x, y) pairs. potential_values[t] records
    U(zeta_t) (with the round index for time-varying families), so the
    per-round descent and the final certificate can be read off directly.
    on_round(t, zeta_prev, rnd, zeta) is called after every round. eps1
    and eps2 tune the randomized strategy.
    """
    if strategy not in STRATEGIES:
        raise DomainError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == "linearized":
        def choose(zeta, x, t):
            return predict_linearized(P, zeta, x, t=t)
    elif strategy == "convex":
        def choose(zeta, x, t):
            return predict_convex(P, zeta, x, loss, t=t)
    else:
        rng = rng if rng is not None else np.random.default_rng(0)

        def choose(zeta, x, t):
            return predict_randomized(P, zeta, x, eps1, eps2, rng, loss, t=t)[1]
    return _play(P, choose, sequence, loss, on_round)


def run_randomized_expected(P, sequence, loss, eps1, eps2, rng, *, on_round=None):
    """run_online for the randomized strategy, additionally recording the
    expected loss of each round's distribution (not just the sampled draw).

    The statistic still advances with the sampled prediction; the expected
    losses are what the approximation guarantee controls.
    """
    expected = []
    dist = None

    def choose(zeta, x, t):
        nonlocal dist
        dist, y_hat = predict_randomized(P, zeta, x, eps1, eps2, rng, loss, t=t)
        return y_hat

    def record(t, zeta_prev, rnd, zeta):
        expected.append(float(dist.probs @ np.asarray(
            loss.value(dist.points, rnd.y), dtype=float)))
        if on_round is not None:
            on_round(t, zeta_prev, rnd, zeta)

    traj = _play(P, choose, sequence, loss, record)
    return traj, np.array(expected)
