"""Generic prediction strategies driven by a potential.

Three routes to a prediction whose worst-case one-round value does not
increase the potential: a closed form for linearizable families, a refined
grid minimax over the prediction for families convex in delta, and a
randomized grid strategy whose slack is controlled by the grid spacing
eps1. Each of its rounds is solved exactly: by the two-label game solver,
or by a pure saddle point; any other table is refused.
"""

import itertools
import math
from collections import namedtuple

import numpy as np

from .errors import DomainError, NumericError
from .potential import Potential, Round, Trajectory, accumulate
from .statistics import map_slots

GridDistribution = namedtuple("GridDistribution", ["points", "probs"])


def predict_linearized(P, zeta, x, t=None):
    """(y_hat, (F(-L), F(+L))): the closed-form prediction
    clamp(-(F(+L) - F(-L)) / (2L), [-B, B]) and the two residuals it read,
    from one residual call on the stack [-L, +L].

    F is the potential's residual, which must be convex in delta. It is
    _play's choose for the linearized strategy. A stack of k statistics and
    k instances gives k predictions and the (k, 2) residuals of one call.
    """
    if not P.convex_in_delta:
        raise DomainError("the linearized prediction needs a family convex in delta")
    if getattr(zeta, "batch_ndim", 0):  # member i's pair at rows 2i and 2i + 1
        f = P.residual(map_slots(lambda a: np.repeat(a, 2, axis=0), zeta), np.repeat(x, 2, axis=0),
                       np.tile([-P.L, P.L], len(x)), t=t).reshape(-1, 2)
        if not np.isfinite(f).all():
            raise NumericError("non-finite residual evaluation", {"residuals": f})
        return np.minimum(P.B, np.maximum(-P.B, -(f[:, 1] - f[:, 0]) / (2.0 * P.L))), f
    f_minus, f_plus = P.residual(zeta, x, np.array([-P.L, P.L]), t=t)
    if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
        raise NumericError("non-finite residual evaluation",
                           {"f_plus": f_plus, "f_minus": f_minus})
    return min(P.B, max(-P.B, -(f_plus - f_minus) / (2.0 * P.L))), (f_minus, f_plus)


def sup_labels(P, loss, *, points=()):
    """loss.critical_labels for a mixture over points (none: a pure prediction)."""
    if not P.convex_in_delta:
        raise DomainError("the sup over labels is exact only for a family convex in delta")
    return loss.critical_labels(points)


# The convex strategy's search: grid size, refinement stages, final spacing.
_PRED_GRID, _MAX_STAGES, _TOL = 129, 60, 1e-4


def predict_convex(P, zeta, x, loss, *, t=None):
    """Grid minimax: leftmost minimizer over y_hat of the sup over y.

    A uniform y_hat grid on [-B, B] is refined around its leftmost minimizer
    until the spacing is at most _TOL. Each stage's grid holds the previous
    best point, so refining never does worse than the first grid; where the
    sup is convex in y_hat it converges to the minimax. A linearizable
    family reads its residual once per distinct delta in the round, however
    many stages read it.
    """
    ys = sup_labels(P, loss)
    lo, hi = -P.B, P.B
    best, known = None, {}  # known: the residual at each delta read this round
    for _ in range(_MAX_STAGES):
        pts = np.linspace(lo, hi, _PRED_GRID)
        table = P.round_values(zeta, x, pts, ys, loss, t=t, known=known)
        sup = table.max(axis=1)
        i = int(np.argmin(sup))  # argmin takes the leftmost among ties
        best = float(pts[i])
        spacing = pts[1] - pts[0]
        if spacing <= _TOL:
            return best
        lo = float(pts[max(i - 1, 0)])
        hi = float(pts[min(i + 1, pts.size - 1)])
    raise NumericError("prediction search did not converge",
                       {"bracket": (lo, hi), "last": best})


# The randomized strategy's default eps1.
RANDOMIZED_EPS = 0.05


def predict_randomized(P, zeta, x, eps1, rng, loss, *, t=None):
    """Randomized strategy on an eps1-grid: a distribution solving the round's game.

    Builds N = ceil(2B/eps1) + 1 control points z_i = -B + eps1*i (the top
    point clipped to B) and the round's table against their critical labels.
    A flat table gives the uniform distribution, any other the exact
    solution of _solve_game, on at most two points. A grid numpy cannot
    represent raises DomainError. Returns (distribution over the control
    points, sampled prediction).
    """
    if eps1 <= 0:
        raise DomainError("eps1 must be positive")
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
    if half_range <= 1e-12:
        mu = np.full(n_pts, 1.0 / n_pts)
        return GridDistribution(pts, mu), float(rng.choice(pts, p=mu))
    # shifting the payoff moves no optimum
    dist = _solve_game(pts, table - mid, half_range)
    return dist, float(rng.choice(dist.points, p=dist.probs))


def _solve_game(pts, table, half_range):
    """Exact minimax distribution over pts for a round table, on at most two points.

    A constant column only sets a floor under the value, and an optimum of
    the other columns stays optimal, so constant columns are dropped (the
    y = 0 column of hinge loss on a linearizable family). Two live columns
    go to _solve_two_labels. Otherwise the best pure row of the whole
    table, lowest index on ties, is returned if it is a saddle point:
    min_i max_j T equals max_j min_i T within 1e-12 max(1, half_range),
    which certifies it. Any other table raises DomainError.

    Absolute loss on a linearizable family always has that saddle point.
    Row i scores a_i (delta = -1) against labels above z_i and b_i
    (delta = +1) against labels below it, and a_i - b_i = -2 z_i + F(-1) -
    F(1) falls as i grows. So the midpoint column where that difference
    changes sign has, as its minimum over rows, some row's maximum over
    columns; by convexity no endpoint row's F(0) entry exceeds
    max(a_i, b_i).
    """
    live = table[:, np.ptp(table, axis=0) > 0]
    if live.shape[1] == 2:
        return _solve_two_labels(pts, live, half_range)
    worst = table.max(axis=1)
    r = int(np.argmin(worst))  # argmin takes the lowest index among ties
    upper, lower = float(worst[r]), float(table.min(axis=0).max())
    if upper - lower > 1e-12 * max(1.0, half_range):
        raise DomainError(f"no exact solver for a {table.shape[0]} x {table.shape[1]} "
                          f"round table without a pure saddle point: min max "
                          f"{upper:.6g} > max min {lower:.6g}")
    return GridDistribution(pts[r:r + 1], np.ones(1))


def _solve_two_labels(pts, table, half_range):
    """Exact minimax distribution over pts for an N x 2 game, certified by its
    dual: the peak over q in [0, 1] of the lower envelope of the lines
    q a_i + (1 - q) b_i, built in slope order (O(N log N) time, O(N) memory)."""
    (a, b), s = table.T.tolist(), (table[:, 0] - table[:, 1]).tolist()  # s: slopes in q
    hull, starts = [], []  # envelope lines, and the q from which each is lowest
    for i in sorted(range(len(s)), key=lambda j: (-s[j], b[j])):  # ties: lowest index
        if hull and s[hull[-1]] == s[i]:
            continue  # the same slope at a higher intercept or grid index
        while hull and (b[i] - b[hull[-1]]) / (s[hull[-1]] - s[i]) <= starts[-1]:
            del hull[-1], starts[-1]
        starts.append((b[i] - b[hull[-1]]) / (s[hull[-1]] - s[i]) if hull else -math.inf)
        hull.append(i)
    m = next((j for j, i in enumerate(hull) if s[i] <= 0), len(hull))
    q = min(1.0, max(0.0, (starts + [math.inf])[m]))
    r = int(np.argmin(np.maximum(a, b)))  # the best pure row, lowest index on ties
    i, k = (hull[m - 1], hull[m]) if 0 < q < 1 and s[hull[m]] < 0 else (r, r)
    p = s[k] / (s[k] - s[i]) if i != k else 1.0  # equalizes the two labels
    if p * a[i] + (1.0 - p) * a[k] >= max(a[r], b[r]):
        i, k, p = r, r, 1.0  # a pure optimum takes one point
    mu = np.bincount([i, k], [p, 1.0 - p], minlength=len(a))
    primal, dual = float(np.max(mu @ table)), float(np.min(table @ [q, 1.0 - q]))
    if abs(primal - dual) > 1e-12 * max(1.0, half_range):
        raise NumericError("two-label game solution fails its duality check",
                           {"primal": primal, "dual": dual, "rows": (i, k), "q": q})
    return GridDistribution(pts[mu > 0], mu[mu > 0])


STRATEGIES = ("linearized", "convex", "randomized")


def _play(P, choose, sequence, loss, on_round, restart=None):
    """The online protocol: choose(P, zeta, x, t) predicts, the statistic advances.

    choose returns (y_hat, residuals), where residuals is predict_linearized's
    pair or None. Only the running statistic is held; on_round(t, zeta_prev,
    rnd, zeta), when given, sees each round's record and the statistics
    around it. restart(P, zeta, t), when given, runs after on_round and
    returns None or the potential that plays from round t + 1, starting from
    its zero statistic; the trajectory keeps the last round's statistic from
    before any restart. Every zero takes the form of the first instance's
    rounds (P.zero(like=x)), so a run holds one statistic form throughout.
    """
    traj, pairs = Trajectory(), iter(sequence)
    first = next(pairs, None)
    zeta = nxt = P.zero(like=None if first is None else first[0])
    traj.potential_values.append(P.eval(zeta, t=0))
    for t, (x, y) in enumerate(itertools.chain([first] if first else [], pairs), start=1):
        y_hat, residuals = choose(P, zeta, x, t)
        delta = float(loss.subgradient(y_hat, y))
        nxt = accumulate(zeta, x, y_hat, delta, P)
        rnd = Round(t=t, x=x, y_hat=float(y_hat), y=float(y),
                    delta=delta, loss=float(loss.value(y_hat, y)))
        traj.rounds.append(rnd)
        # a linearizable family has U(zeta + T(x, y_hat, delta)) = y_hat delta +
        # F(delta), so at delta = +-L the residual choose read gives U(nxt)
        traj.potential_values.append(
            rnd.y_hat * delta + residuals[delta > 0]
            if residuals is not None and abs(delta) == P.L else P.eval(nxt, t=t))
        if on_round is not None:
            on_round(t, zeta, rnd, nxt)
        zeta = nxt
        if restart is not None and (fresh := restart(P, zeta, t)) is not None:
            P, zeta = fresh, fresh.zero(like=x)
    traj.zetas.append(nxt)
    return traj


def _randomized_choose(loss, eps1, rng, dists):
    """The randomized strategy's choose; it appends each round's distribution to dists."""
    def choose(P, zeta, x, t):
        dist, y_hat = predict_randomized(P, zeta, x, eps1, rng, loss, t=t)
        dists.append(dist)
        return y_hat, None
    return choose


def run_online(P, strategy, sequence, loss, *, rng=None, eps1=RANDOMIZED_EPS,
               on_round=None):
    """Play the full protocol and record the trajectory.

    sequence is an iterable of (x, y) pairs. potential_values[t] records
    U(zeta_t) (with the round index for time-varying families), so the
    per-round descent and the final certificate can be read off directly.
    on_round(t, zeta_prev, rnd, zeta) is called after every round. eps1 is
    the randomized strategy's grid spacing.
    """
    if strategy not in STRATEGIES:
        raise DomainError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == "linearized":
        choose = predict_linearized
    elif strategy == "convex":
        def choose(P, zeta, x, t):
            return predict_convex(P, zeta, x, loss, t=t), None
    else:
        rng = rng if rng is not None else np.random.default_rng(0)
        choose = _randomized_choose(loss, eps1, rng, [])
    return _play(P, choose, sequence, loss, on_round)


def run_randomized_expected(P, sequence, loss, eps1, rng, *, on_round=None):
    """run_online for the randomized strategy, additionally recording the
    expected loss of each round's distribution (not just the sampled draw).

    The statistic still advances with the sampled prediction; the expected
    losses are what the approximation guarantee controls.
    """
    dists = []
    traj = _play(P, _randomized_choose(loss, eps1, rng, dists), sequence, loss, on_round)
    expected = [dist.probs @ np.asarray(loss.value(dist.points, rnd.y), dtype=float)
                for dist, rnd in zip(dists, traj.rounds)]
    return traj, np.array(expected, dtype=float)
