"""Numerical certification of potential properties and martingale inequalities.

Deterministic properties are checked by exhaustive enumeration over sign
paths of predictable trees (exact expectations, depth <= 14); distributional
properties are sampled with seeded generators. Every check returns a
CheckReport carrying the worst violation and a witness that replays to the
same value. A sampled or searched check certifies violations only: a sup
below tolerance does not prove none exists.

p2 and p3 draw their trials in blocks of CHUNK, one generator call per
quantity (Potential.sample_rounds, draw_p3), and evaluate each block
stacked: one stat_map call, and eval calls per round index t shared by a
group of trials. The worst trial is evaluated again on its own, and that
value is reported, so the witness replays to it bit for bit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import strategies
from .errors import DomainError
from .losses import make_loss
from .potential import stack_rounds
from .statistics import map_slots

MAX_DEPTH = 14
CHUNK = 128  # trials per stacked evaluation in p2 and p3; bounds its memory


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


@dataclass(frozen=True)
class TwoPointDist:
    """Support {a, -b} with weights (b, a) / (a + b); an exact mean-zero law.

    Two-point laws are the extreme points of the mean-zero distributions on
    [-L, L], so sweeping them covers the full restricted-concavity property
    for potentials convex in the increment.
    """
    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise DomainError("a > 0 and b > 0")

    def support(self):
        s = self.a + self.b
        return [(self.a, self.b / s), (-self.b, self.a / s)]

    def mean(self):
        # common-numerator form: exactly zero in floating point
        return (self.a * self.b - self.b * self.a) / (self.a + self.b)


# --- potential properties ----------------------------------------------------

def _trials_and_rng(trials, rng):
    if int(trials) < 1:
        raise DomainError(f"trials = {trials}, need trials >= 1")
    return int(trials), rng if rng is not None else np.random.default_rng(0)


def check_p1(P, tol=1e-8):
    """U at the zero statistic must be <= 0 (up to tol)."""
    u0 = P.eval(P.zero(), t=0)
    return CheckReport(name="p1_start", checks=1, max_violation=float(u0),
                       tol=tol, passed=u0 <= tol, witness={"value": float(u0)})


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


def check_p2(P, trials=1000, tol=1e-8, rng=None, bound_fn=None):
    """V <= U on statistics reachable by statistic-map sums. bound_fn
    (default P.bound) gets stacks of statistics, as P.bound does."""
    trials, rng = _trials_and_rng(trials, rng)
    bound_fn = bound_fn if bound_fn is not None else P.bound

    def block(m):
        stats, _ = stack_rounds(P, *P.sample_rounds(rng, m))
        return bound_fn(stats) - P.eval(stats, t=P.horizon), lambda j: _member(stats, j)

    i, stat = _sweep(trials, block)
    u, v = float(P.eval(stat, t=P.horizon)), float(bound_fn(stat))
    return CheckReport(name="p2_dominates_bound", checks=trials,
                       max_violation=v - u, tol=tol, passed=v - u <= tol,
                       witness={"trial": i, "stat": stat, "U": u, "V": v})


def draw_p3(P, mode, rng, m):
    """m p3 trials as one block, one generator call per quantity: (t, counts,
    rounds, x, y_hat, alphas, probs), t in 1..horizon (1 without one) and
    tau the sum of up to min(t - 1, 6) rounds. Trial i's law puts probs[i]
    on alphas[i]: (a, -b) weighed as by TwoPointDist, or 1/2 on each of +-L."""
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


def check_p3(P, mode="two_point", trials=10000, tol=1e-8, rng=None):
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
        after = _member(taus, np.repeat(np.arange(m), k)) + steps
        viol = np.empty(m)
        for ti in sorted(set(t.tolist())):  # np.unique imports numpy.ma: +1 MB RSS
            sel = np.flatnonzero(t == ti)
            u_after = P.eval(_member(after, (sel[:, None] * k + np.arange(k)).ravel()), t=ti)
            viol[sel] = ((probs[sel] * u_after.reshape(-1, k)).sum(axis=1)
                         - P.eval(_member(taus, sel), t=ti - 1))
        return viol, lambda j: (_member(taus, j),) + tuple(d[j] for d in draws[3:]) + (t[j],)

    i, (tau, x, y_hat, alphas, probs, t) = _sweep(trials, block)
    witness = {"trial": i, "tau": tau, "x": x, "y_hat": float(y_hat), "t": int(t),
               "support": [(float(a), float(p)) for a, p in zip(alphas, probs)], "mode": mode,
               **({"a": float(alphas[0]), "b": -float(alphas[1])} if mode == "two_point" else {})}
    worst = float(replay_p3(P, witness))
    return CheckReport(name=f"p3_supermartingale_{mode}", checks=trials,
                       max_violation=worst, tol=tol,
                       passed=worst <= tol, witness=witness)


def replay_p3(P, witness):
    """Recompute, one statistic at a time, the violation of a p3 witness."""
    tau, t = witness["tau"], witness["t"]
    return sum(p * P.eval(tau + P.stat_map(witness["x"], witness["y_hat"], alpha), t=t)
               for alpha, p in witness["support"]) - P.eval(tau, t=t - 1)


# --- predictable trees -------------------------------------------------------

class PredictableTree:
    """Depth-n binary tree of instance values.

    levels[t-1] has one value per sign prefix of length t-1 (2^(t-1) nodes),
    so the value revealed at round t depends only on the first t-1 signs.
    Prefix index convention: bit s-1 of the index is (eps_s + 1) / 2.
    """

    def __init__(self, levels):
        self.levels = [np.asarray(lv, dtype=float) for lv in levels]
        if not self.levels:
            raise DomainError("a predictable tree needs depth >= 1")
        for t, lv in enumerate(self.levels, start=1):
            if lv.shape[0] != 2 ** (t - 1):
                raise DomainError(
                    f"level {t} has {lv.shape[0]} nodes, expected {2 ** (t - 1)}")

    @property
    def depth(self):
        return len(self.levels)

    def node(self, t, prefix_index):
        return self.levels[t - 1][prefix_index]

    @classmethod
    def constant(cls, values):
        """A fixed sequence: every node at level t holds values[t-1]."""
        return cls([np.broadcast_to(np.asarray(v, dtype=float),
                                    (2 ** t,) + np.shape(v)).copy()
                    for t, v in enumerate(values)])

    @classmethod
    def random(cls, depth, sampler, rng):
        if depth > MAX_DEPTH:
            raise DomainError(f"depth {depth} exceeds the exhaustive limit {MAX_DEPTH}")
        return cls([np.stack([np.asarray(sampler(rng), dtype=float)
                              for _ in range(2 ** (t - 1))])
                    for t in range(1, depth + 1)])

    def perturbed(self, level, index, value):
        levels = [lv.copy() for lv in self.levels]
        levels[level - 1][index] = value
        return PredictableTree(levels)


def sign_paths(n):
    """(2^n, n) array of sign paths; bit s-1 of the row index gives eps_s."""
    if n > MAX_DEPTH:
        raise DomainError(f"n = {n} exceeds the exhaustive limit {MAX_DEPTH}")
    p = np.arange(2 ** n)[:, None]
    bits = (p >> np.arange(n)[None, :]) & 1
    return 2.0 * bits - 1.0


def prefix_codes(n):
    """(2^n, n) int array: node index at each level along every path."""
    p = np.arange(2 ** n)[:, None]
    masks = (1 << np.arange(n)[None, :]) - 1
    return p & masks


def gather_tree(tree, codes):
    """Per-path node values, shape (paths, depth, *value_shape)."""
    return np.stack([tree.levels[t][codes[:, t]] for t in range(tree.depth)], axis=1)


def walk_tree(tree, root, expand):
    """Visit a predictable tree level by level; return the leaf states.

    expand(t, idx, x, state) gives the child states (eps = -1, eps = +1) of
    the level-t node with prefix code idx, which holds x. They land at codes
    idx and idx + 2^(t-1), so the leaves come out in sign_paths row order.
    """
    if tree.depth > MAX_DEPTH:
        raise DomainError(f"depth {tree.depth} exceeds the exhaustive limit {MAX_DEPTH}")
    states = [root]
    for t, level in enumerate(tree.levels, start=1):
        pairs = [expand(t, idx, level[idx], s) for idx, s in enumerate(states)]
        states = [lo for lo, _ in pairs] + [hi for _, hi in pairs]
    return states


def tree_expectation(P, tree, value_fn):
    """Exact E over sign paths of value_fn(sum_t T(x_t(eps), 0, eps_t L))."""
    leaves = walk_tree(tree, P.zero(), lambda t, idx, x, tau: (
        tau + P.stat_map(x, 0.0, -P.L), tau + P.stat_map(x, 0.0, P.L)))
    return sum(value_fn(tau) for tau in leaves) / len(leaves)


def brute_force_sup_ev(P, n, rng=None, bound_fn=None, search="random",
                       k=20, ascent_steps=200):
    """Search trees for large E[V(sum T)]; approximates the game start value
    from below. Returns (best value, best tree, values per candidate).

    search: "random" tries k independent trees; "coordinate_ascent" additionally
    hill-climbs single-node perturbations from the best random start.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    bound_fn = bound_fn if bound_fn is not None else P.bound
    vals = []
    best_tree, best = None, -math.inf
    for _ in range(int(k)):
        tree = PredictableTree.random(n, P.sample_instance, rng)
        v = tree_expectation(P, tree, bound_fn)
        vals.append(v)
        if v > best:
            best, best_tree = v, tree
    if search == "coordinate_ascent":
        for _ in range(int(ascent_steps)):
            level = int(rng.integers(1, n + 1))
            idx = int(rng.integers(0, 2 ** (level - 1)))
            cand = best_tree.perturbed(level, idx, P.sample_instance(rng))
            v = tree_expectation(P, cand, bound_fn)
            if v > best:
                best, best_tree = v, cand
    elif search != "random":
        raise DomainError(f"unknown search {search!r}")
    return best, best_tree, vals


# --- exhaustive martingale inequalities --------------------------------------

def check_matrix_khintchine(n=10, d1=3, d2=2, n_trees=100, rng=None, trees=None,
                            tol=1e-9):
    """E ||sum eps_t X_t||_sigma <= sqrt(2 E max(||sum XX^T||, ||sum X^T X||) log(d1+d2)).

    Exact over all 2^n sign paths for each tree; node spectral norms are
    held at <= 1 by the random generator. Reports the worst ratio.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    if trees is None:
        def sampler(r):
            x = r.normal(size=(d1, d2))
            s = np.linalg.svd(x, compute_uv=False)[0]
            return x / max(s, 1.0)
        trees = [PredictableTree.random(n, sampler, rng) for _ in range(n_trees)]
    ratios = []
    for tree in trees:
        eps = sign_paths(tree.depth)
        g = gather_tree(tree, prefix_codes(tree.depth))
        s = np.einsum("pt,ptij->pij", eps, g)
        lhs = float(np.mean(np.linalg.svd(s, compute_uv=False)[:, 0]))
        row = np.einsum("ptij,ptkj->pik", g, g)
        col = np.einsum("ptij,ptik->pjk", g, g)
        row_n = np.linalg.eigvalsh(row)[:, -1]
        col_n = np.linalg.eigvalsh(col)[:, -1]
        rhs = math.sqrt(2.0 * float(np.mean(np.maximum(row_n, col_n)))
                        * math.log(g.shape[2] + g.shape[3]))
        ratios.append(lhs / rhs if rhs > 0 else 0.0)
    return _ratio_report("matrix_khintchine", ratios, tol)


def _ratio_report(name, ratios, tol, **extras):
    """Report on the worst ratio lhs / rhs <= 1 of a sign-sum inequality;
    extras["asserted"] = False reports it without a verdict."""
    i = int(np.argmax(ratios))
    viol = ratios[i] - 1.0
    return CheckReport(name=name, checks=len(ratios), max_violation=float(viol),
                       tol=tol, passed=viol <= tol or not extras.get("asserted", True),
                       witness={"tree_index": i, "ratio": ratios[i]},
                       extras={**extras, "ratios": ratios})


def check_mgf_bound(n, d=4, n_trees=50, rng=None, tol=1e-9):
    """E exp(||sum eps_t x_t||^2 / (2n)) <= sqrt(n), exact per tree.

    The increments are l2 vectors in the unit ball, so the smoothness
    constant is the euclidean one, beta = 1. Asserted only for n >= 4; for
    smaller n the report carries the observed ratios without a pass verdict
    on them (the bound is then informational: a single unit vector at n = 1
    already gives e^{1/2} > 1).
    """
    rng = rng if rng is not None else np.random.default_rng(0)

    def sampler(r):
        v = r.normal(size=d)
        return v / max(np.linalg.norm(v), 1.0)

    ratios = []
    for _ in range(int(n_trees)):
        tree = PredictableTree.random(n, sampler, rng)
        eps = sign_paths(tree.depth)
        g = gather_tree(tree, prefix_codes(tree.depth))
        s = np.einsum("pt,ptj->pj", eps, g)
        val = float(np.mean(np.exp(np.sum(s * s, axis=1) / (2.0 * n))))
        ratios.append(val / math.sqrt(n))
    return _ratio_report(f"mgf_bound_n{n}", ratios, tol, asserted=n >= 4)


def check_supermartingale(P, tree, tol=1e-8):
    """At every internal node: the exact mean of U over the two children is
    at most U at the node. Walks the full tree (exact, no sampling)."""
    worst, witness = -math.inf, {}

    def expand(t, idx, x, tau):
        nonlocal worst, witness
        children = (tau + P.stat_map(x, 0.0, -P.L), tau + P.stat_map(x, 0.0, P.L))
        viol = 0.5 * sum(P.eval(c, t=t) for c in children) - P.eval(tau, t=t - 1)
        if viol > worst:
            worst, witness = viol, {"t": t, "prefix_index": idx, "violation": viol}
        return children

    walk_tree(tree, P.zero(), expand)
    return CheckReport(name="supermartingale_tree", checks=2 ** tree.depth - 1,
                       max_violation=float(worst), tol=tol,
                       passed=worst <= tol, witness=witness)


# --- per-round descent and randomized value dominance ------------------------

def round_descent(P, zeta_prev, x, y_hat, loss, *, t=1):
    """sup over y in [-B, B] of U(zeta + T(x, y_hat, dloss)) - U(zeta) in round
    t, taken exactly on the loss's critical labels."""
    ys = strategies.sup_labels(P, loss)
    table = P.round_values(zeta_prev, x, np.array([y_hat]), ys, loss, t=t)
    return float(np.max(table)) - P.eval(zeta_prev, t=t - 1)


# --- lower-bound construction -------------------------------------------------

def check_necessity(P, tree, learner=None, tol=1e-8, clairvoyant=False):
    """Exact lower-bound comparison for the matrix family on a sign adversary.

    The adversary draws y_t = eps_t and reveals x_t from the tree; over all
    2^n paths we compare E[sup-regret - A] against E[V_lin(sum T(x_t, 0, eps_t))]
    where V_lin(a, u, s) = a + r ||u||_sigma - A(s) is the linear-class bound
    function and A is P.regret_bound. Requires r * max ||X||_sigma <= 1 so the absolute loss of any
    comparator is exactly linear in its prediction. Also certifies
    E[V_lin] <= 0, the achievability side. learner(P, zeta, x, t=t) predicts
    each round; the default is predict_linearized.

    clairvoyant=True replaces the learner's prediction with the label itself,
    violating predictability; the lower bound must then fail, which makes it
    the negative control for this check.
    """
    n = tree.depth
    max_node = max(float(np.linalg.svd(lv, compute_uv=False).max())
                   for lv in tree.levels)
    if P.r * max_node > 1.0 + 1e-9:
        raise DomainError("necessity adversary needs r * max ||X||_sigma <= 1")
    if learner is None:
        learner = strategies.predict_linearized
    loss = make_loss("absolute", B=max(P.B, 2.0))

    def expand(t, idx, x, state):
        zeta, eps_sum, cum_loss = state
        y_base = float(learner(P, zeta, x, t=t))
        children = []
        for eps in (-1.0, 1.0):
            y_hat = eps if clairvoyant else y_base
            delta = float(loss.subgradient(y_hat, eps))
            children.append((zeta + P.stat_map(x, y_hat, delta),
                             eps_sum + eps * x,
                             cum_loss + float(loss.value(y_hat, eps))))
        return children

    paths = []
    root = (P.zero(), np.zeros_like(tree.levels[0][0]), 0.0)
    for zeta, eps_sum, cum_loss in walk_tree(tree, root, expand):
        a_bound = P.regret_bound(zeta)
        u_norm = float(np.linalg.svd(eps_sum, compute_uv=False).max())
        comp = n - P.r * u_norm
        lhs = cum_loss - comp - a_bound
        rhs = P.r * u_norm - a_bound
        paths.append((lhs, rhs))
    arr = np.array(paths)
    e_lhs, e_rhs = float(arr[:, 0].mean()), float(arr[:, 1].mean())
    gap = e_lhs - e_rhs
    # lower bound: E[sup-regret - A] >= E[V_lin]; achievability: E[V_lin] <= 0
    viol = max(e_rhs - e_lhs, e_rhs)
    return CheckReport(name="necessity_lower_bound", checks=arr.shape[0],
                       max_violation=float(viol),
                       tol=tol, passed=viol <= tol,
                       witness={"E_gap": gap, "E_lhs": e_lhs, "E_rhs": e_rhs},
                       extras={"max_path_excess": float(arr[:, 0].max()),
                               "E_regret_gap": gap})
