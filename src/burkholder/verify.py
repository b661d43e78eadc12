"""Numerical certification of potential properties and martingale inequalities.

Deterministic properties are checked by exhaustive enumeration over sign
paths of predictable trees (exact expectations, depth <= 14); distributional
properties are sampled with seeded generators. Every check returns a
CheckReport carrying the worst violation and a witness that replays to the
same value. Every verdict holds its worst violation to the one tolerance
TOL. A sampled or searched check certifies violations only: a sup below
tolerance does not prove none exists.

p2 and p3 draw their trials in blocks of CHUNK, one generator call per
quantity (Potential.sample_rounds, draw_p3), and evaluate each block
stacked: one stat_map call, and one eval call per quantity, with p3's round
indices t an array in line with the stack. The worst trial is evaluated
again on its own, and that value is reported, so the witness replays to it
bit for bit.

A predictable tree draws each level with one sampler(rng, k) call, the
contract of sample_instances, and is walked a level at a time: one stack of
statistics per level, one stat_map call to its children. Every tree check
reads that fold: the sign-sum checks take their sums from a family's leaves
(the matrix drift_norm and variance, the param_free x slot), and check_necessity
calls its learner once per level and bounds its leaves with one stacked
regret_bound call.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import strategies, symlin
from .errors import DomainError
from .losses import make_loss
from .potential import stack_rounds
from .potentials import MatrixPotential, ParamFreePotential
from .statistics import map_slots

MAX_DEPTH = 14
# Trials per stacked evaluation in p2 and p3. It bounds their memory: peak RSS
# of `verify --suite all` read 39.0 MB at 128, 39.9 at 256, 41.8 at 512 and
# 50.8 at 2000, so a larger block buys speed with memory.
CHUNK = 128
TOL = 1e-9  # every verdict's allowance for roundoff


@dataclass
class CheckReport:
    name: str
    checks: int
    max_violation: float
    tol: float
    passed: bool
    witness: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def line(self):
        status = "pass" if self.passed else "FAIL"
        return (f"{status} {self.name}: checks={self.checks} "
                f"max_violation={self.max_violation:.3e} tol={self.tol:.1e}")


# --- potential properties ----------------------------------------------------

def _trials_and_rng(trials, rng):
    if int(trials) < 1:
        raise DomainError(f"trials = {trials}, need trials >= 1")
    return int(trials), rng if rng is not None else np.random.default_rng(0)


def check_p1(P):
    """U at the zero statistic must be <= 0 (up to TOL)."""
    u0 = P.eval(P.zero(), t=0)
    return CheckReport(name="p1_start", checks=1, max_violation=float(u0),
                       tol=TOL, passed=u0 <= TOL, witness={"value": float(u0)})


def _member(stack, i):
    return map_slots(lambda a: a[i], stack)


def _sweep(trials, block):
    """block(m) draws and evaluates m trials -> (violations, member), where
    member(j) is what the report keeps of trial j; blocks hold CHUNK trials.
    The first worst trial's index and member."""
    worst, found = -math.inf, None
    for lo in range(0, trials, CHUNK):
        viol, member = block(min(CHUNK, trials - lo))
        j = int(np.argmax(viol))
        if found is None or viol[j] > worst:
            worst, found = viol[j], (lo + j, member(j))
    return found


def check_p2(P, trials=1000, rng=None):
    """V <= U on statistics reachable by statistic-map sums."""
    trials, rng = _trials_and_rng(trials, rng)

    def block(m):
        stats, _ = stack_rounds(P, *P.sample_rounds(rng, m))
        return P.bound(stats) - P.eval(stats, t=P.horizon), lambda j: _member(stats, j)

    i, stat = _sweep(trials, block)
    u, v = float(P.eval(stat, t=P.horizon)), float(P.bound(stat))
    return CheckReport(name="p2_dominates_bound", checks=trials,
                       max_violation=v - u, tol=TOL, passed=v - u <= TOL,
                       witness={"trial": i, "stat": stat, "U": u, "V": v})


def draw_p3(P, mode, rng, m):
    """m p3 trials as one block, one generator call per quantity: (t, counts,
    rounds, x, y_hat, alphas, probs), t in 1..horizon (1 without one) and
    tau the sum of up to min(t - 1, 6) rounds. Trial i's law puts probs[i]
    on alphas[i]: 1/2 on each of +-L, or (b, a) / (a + b) on (a, -b), the
    extreme mean-zero laws of [-L, L]. The rademacher mean is exactly zero;
    the two-point weights round, so that mean is zero only to roundoff (a
    few ulp of L), not bitwise."""
    if mode not in ("two_point", "rademacher"):
        raise DomainError(f"unknown p3 mode {mode!r}")
    t = rng.integers(1, P.horizon + 1, size=m) if P.horizon else np.ones(m, dtype=int)
    counts, rounds = P.sample_rounds(rng, m, np.minimum(t - 1, 6) if P.horizon else 6)
    x, y_hat = P.sample_instances(rng, m), rng.uniform(-P.B, P.B, m)
    if mode == "rademacher":
        return t, counts, rounds, x, y_hat, np.tile([P.L, -P.L], (m, 1)), np.full((m, 2), 0.5)
    a, b = rng.uniform(1e-3, P.L, size=(2, m))
    return (t, counts, rounds, x, y_hat, np.stack([a, -b], axis=1),
            np.stack([b, a], axis=1) / (a + b)[:, None])


def check_p3(P, mode="two_point", trials=10000, rng=None):
    """Restricted concavity: E U(tau + T(z, alpha)) <= U(tau) for mean-zero alpha.

    two_point sweeps the extreme mean-zero laws on [-L, L]; rademacher is the
    sign law alone, sufficient when the potential is convex in the increment.
    """
    trials, rng = _trials_and_rng(trials, rng)

    def block(m):
        draws = t, counts, rounds, x, y_hat, alphas, probs = draw_p3(P, mode, rng, m)
        k = alphas.shape[1]
        tests = (np.repeat(x, k, axis=0), np.repeat(y_hat, k), alphas.ravel())
        taus, steps = stack_rounds(P, counts, [np.concatenate(v) for v in zip(rounds, tests)])
        u_after = P.eval(_member(taus, np.repeat(np.arange(m), k)) + steps, t=np.repeat(t, k))
        viol = (probs * u_after.reshape(m, k)).sum(axis=1) - P.eval(taus, t=t - 1)
        return viol, lambda j: (_member(taus, j),) + tuple(d[j] for d in draws[3:]) + (t[j],)

    i, (tau, x, y_hat, alphas, probs, t) = _sweep(trials, block)
    witness = {"trial": i, "tau": tau, "x": x, "y_hat": float(y_hat), "t": int(t),
               "support": [(float(a), float(p)) for a, p in zip(alphas, probs)], "mode": mode,
               **({"a": float(alphas[0]), "b": -float(alphas[1])} if mode == "two_point" else {})}
    worst = float(replay_p3(P, witness))
    return CheckReport(name=f"p3_supermartingale_{mode}", checks=trials,
                       max_violation=worst, tol=TOL,
                       passed=worst <= TOL, witness=witness)


def replay_p3(P, witness):
    """Recompute, one statistic at a time, the violation of a p3 witness."""
    tau, t = witness["tau"], witness["t"]
    return sum(p * P.eval(tau + P.stat_map(witness["x"], witness["y_hat"], alpha), t=t)
               for alpha, p in witness["support"]) - P.eval(tau, t=t - 1)


# --- predictable trees -------------------------------------------------------

def _exhaustive(depth):
    """depth, when its 2^depth sign paths are within the exhaustive limit."""
    if depth > MAX_DEPTH:
        raise DomainError(f"depth {depth} exceeds the exhaustive limit {MAX_DEPTH}")
    return depth


class PredictableTree:
    """Depth-n binary tree of instance values, 1 <= n <= MAX_DEPTH.

    levels[t-1] has one value per sign prefix of length t-1 (2^(t-1) nodes),
    so the value revealed at round t depends only on the first t-1 signs.
    Prefix index convention: bit s-1 of the index is (eps_s + 1) / 2.
    """

    def __init__(self, levels):
        self.levels = [np.asarray(lv, dtype=float) for lv in levels]
        if not self.levels:
            raise DomainError("a predictable tree needs depth >= 1")
        _exhaustive(self.depth)
        for t, lv in enumerate(self.levels, start=1):
            if lv.shape[0] != 2 ** (t - 1):
                raise DomainError(
                    f"level {t} has {lv.shape[0]} nodes, expected {2 ** (t - 1)}")

    @property
    def depth(self):
        return len(self.levels)

    @classmethod
    def random(cls, depth, sampler, rng):
        """Level t is one call sampler(rng, 2^(t-1)), the family contract of
        sample_instances: its nodes' instances stacked in prefix order."""
        return cls([sampler(rng, 2 ** t) for t in range(_exhaustive(depth))])


def _twice(a):
    """A level's stack of k (an array or a statistic) repeated for its 2k
    children: the eps = -1 child of prefix code idx is row idx, the eps = +1
    child row idx + k, so bit s-1 of a leaf's row index is (eps_s + 1) / 2."""
    if isinstance(a, np.ndarray):
        return np.concatenate([a, a])
    return map_slots(_twice, a)


def _children(P, taus, x):
    """The children of a level's stacked statistics taus, whose nodes hold
    x: taus + T(x, 0, eps L) for eps = -1 and +1."""
    k = len(x)
    return _twice(taus) + P.stat_map(_twice(x), np.zeros(2 * k), np.repeat([-P.L, P.L], k))


def _root(P):
    return map_slots(lambda z: np.zeros((1,) + np.shape(z)), P.zero())


def tree_leaves(P, tree):
    """The stack of sum_t T(x_t(eps), 0, eps_t L) over sign paths; bit s-1
    of a path's row index is (eps_s + 1) / 2."""
    taus = _root(P)
    for x in tree.levels:
        taus = _children(P, taus, x)
    return taus


# --- exhaustive martingale inequalities --------------------------------------

def check_matrix_khintchine(n=10, d1=3, d2=2, n_trees=100, rng=None, trees=None):
    """E ||sum eps_t X_t||_sigma <= sqrt(2 E max(||sum XX^T||, ||sum X^T X||) log(d1+d2)).

    Exact over all 2^n sign paths for each tree; node spectral norms are
    held at <= 1 by the random generator. Reports the worst ratio. Each tree
    folds into the leaves of the matrix family at unit L, whose `drift_norm`
    is ||sum eps_t X_t||_sigma and whose `variance` is max(||sum XX^T||,
    ||sum X^T X||).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    if trees is None:
        draw = MatrixPotential(d1, d2, eta=1.0).sample_instances
        trees = [PredictableTree.random(n, draw, rng) for _ in range(n_trees)]
    ratios = []
    for tree in trees:
        d1, d2 = tree.levels[0].shape[1:]
        P = MatrixPotential(d1, d2, eta=1.0)
        leaves = tree_leaves(P, tree)
        lhs = float(np.mean(P.drift_norm(leaves)))
        rhs = math.sqrt(2.0 * float(np.mean(P.variance(leaves))) * math.log(d1 + d2))
        ratios.append(lhs / rhs if rhs > 0 else 0.0)
    return _ratio_report("matrix_khintchine", ratios)


def _ratio_report(name, ratios, **extras):
    """Report on the worst ratio lhs / rhs <= 1 of a sign-sum inequality;
    extras["asserted"] = False reports it without a verdict."""
    if not ratios:
        raise DomainError(f"{name} checks 0 trees, need at least 1")
    i = int(np.argmax(ratios))
    viol = ratios[i] - 1.0
    return CheckReport(name=name, checks=len(ratios), max_violation=float(viol),
                       tol=TOL, passed=viol <= TOL or not extras.get("asserted", True),
                       witness={"tree_index": i, "ratio": ratios[i]},
                       extras={**extras, "ratios": ratios})


def check_mgf_bound(n, d=4, n_trees=50, rng=None):
    """E exp(||sum eps_t x_t||^2 / (2n)) <= sqrt(n), exact per tree.

    The increments are l2 vectors in the unit ball, so the smoothness
    constant is the euclidean one, beta = 1. sum eps_t x_t is the x slot of
    the param_free family's leaves. Asserted only for n >= 4; for smaller n
    the report carries the observed ratios without a pass verdict on them
    (the bound is then informational: a single unit vector at n = 1 already
    gives e^{1/2} > 1).
    """
    rng = rng if rng is not None else np.random.default_rng(0)

    def sampler(r, k):
        v = r.normal(size=(k, d))
        return v / np.maximum(np.sqrt(np.vecdot(v, v)), 1.0)[:, None]

    ratios = []
    for _ in range(int(n_trees)):
        tree = PredictableTree.random(n, sampler, rng)
        s = tree_leaves(ParamFreePotential(n, d), tree).x
        ratios.append(float(np.mean(np.exp(np.sum(s * s, axis=1) / (2.0 * n)))) / math.sqrt(n))
    return _ratio_report(f"mgf_bound_n{n}", ratios, asserted=n >= 4)


def check_supermartingale(P, tree):
    """At every internal node: the exact mean of U over the two children is
    at most U at the node. Walks the full tree a level at a time (exact, no
    sampling); a level's children are the next level's nodes, so U is
    evaluated once per level. The witness is the first worst node."""
    worst, witness = -math.inf, {}
    taus = _root(P)
    u = P.eval(taus, t=0)
    for t, x in enumerate(tree.levels, start=1):
        taus = _children(P, taus, x)
        u_node, u = u, P.eval(taus, t=t)
        viol = 0.5 * (u[:len(x)] + u[len(x):]) - u_node
        i = int(np.argmax(viol))
        if viol[i] > worst:
            worst = float(viol[i])
            witness = {"t": t, "prefix_index": i, "violation": worst}
    return CheckReport(name="supermartingale_tree", checks=2 ** tree.depth - 1,
                       max_violation=worst, tol=TOL,
                       passed=worst <= TOL, witness=witness)


# --- lower-bound construction -------------------------------------------------

def check_necessity(P, tree, learner=None, clairvoyant=False):
    """Exact lower-bound comparison for the matrix family on a sign adversary.

    The adversary draws y_t = eps_t and reveals x_t from the tree; over all
    2^n paths we compare E[sup-regret - A] against E[V_lin(sum T(x_t, 0, eps_t))]
    where V_lin(a, u, s) = a + r ||u||_sigma - A(s) is the linear-class bound
    function and A is P.regret_bound. Requires r * max ||X||_sigma <= 1 so the absolute loss of any
    comparator is exactly linear in its prediction. Also certifies
    E[V_lin] <= 0, the achievability side. learner(P, zetas, x, t) follows
    play's choose contract on a level's stack: it takes the level's k
    statistics and k instances in one call and returns (y_hat, residuals),
    y_hat k predictions or one that every node takes; the default is
    predict_linearized. A is evaluated on the stack of leaves in one call.

    clairvoyant=True replaces the learner's prediction with the label itself,
    violating predictability; the lower bound must then fail, which makes it
    the negative control for this check.
    """
    n = tree.depth
    if P.r * max(float(symlin.spectral_norm(lv).max()) for lv in tree.levels) > 1.0 + 1e-9:
        raise DomainError("necessity adversary needs r * max ||X||_sigma <= 1")
    if learner is None:
        learner = strategies.predict_linearized
    loss = make_loss("absolute", B=max(P.B, 2.0))

    # the walk carries, per path prefix, the statistic, sum eps_s x_s and the loss
    zetas, eps_sum, cum_loss = _root(P), np.zeros((1,) + tree.levels[0].shape[1:]), np.zeros(1)
    for t, x in enumerate(tree.levels, start=1):
        eps, xs = np.repeat([-1.0, 1.0], len(x)), _twice(x)
        y_hat = eps if clairvoyant else _twice(np.broadcast_to(
            np.asarray(learner(P, zetas, x, t)[0], dtype=float), (len(x),)))
        zetas = _twice(zetas) + P.stat_map(xs, y_hat, loss.subgradient(y_hat, eps))
        eps_sum = _twice(eps_sum) + eps[:, None, None] * xs
        cum_loss = _twice(cum_loss) + loss.value(y_hat, eps)

    a_bound = P.regret_bound(zetas)
    u_norm = symlin.spectral_norm(eps_sum)
    lhs = cum_loss - (n - P.r * u_norm) - a_bound
    rhs = P.r * u_norm - a_bound
    e_lhs, e_rhs = float(lhs.mean()), float(rhs.mean())
    gap = e_lhs - e_rhs
    # lower bound: E[sup-regret - A] >= E[V_lin]; achievability: E[V_lin] <= 0
    viol = max(e_rhs - e_lhs, e_rhs)
    return CheckReport(name="necessity_lower_bound", checks=len(lhs),
                       max_violation=float(viol),
                       tol=TOL, passed=viol <= TOL,
                       witness={"E_gap": gap, "E_lhs": e_lhs, "E_rhs": e_rhs},
                       extras={"max_path_excess": float(lhs.max()),
                               "E_regret_gap": gap})
