"""Stacked statistics: a batch of k statistics evaluates like k single ones,
the two-phase p2/p3 checks report what a plain per-trial loop reports on the
same drawn block, every family's block sampler stays in its domain, and a
tree drawn a level at a time holds what per-node draws give."""

import math

import numpy as np
import pytest

from burkholder.potential import stack_rounds
from burkholder.potentials import (AdaGradPotential, MatrixPotential, ParamFreePotential,
                                   combine_convex, combine_min, standard_families)
from burkholder.losses import make_loss
from burkholder.statistics import BlockSym, ScalarSym, map_slots
from burkholder.symlin import Entry, spectral_norm
from burkholder.verify import (CHUNK, PredictableTree, check_matrix_khintchine,
                               check_mgf_bound, check_p2, check_p3, draw_p3, replay_p3,
                               tree_leaves)
from stat_oracle import sample_statistic, stats_allclose
from tree_oracle import gather_tree, prefix_codes, sign_paths


def _cases():
    cases = dict(standard_families(B=1.0))
    m1, m2 = MatrixPotential(3, 2, eta=0.5), MatrixPotential(3, 2, eta=0.25)
    cases["combine_min"] = combine_min([m1, m2])
    cases["combine_convex"] = combine_convex([m1, m2], [0.3, 0.7])
    # AdaGrad on (3, 2) instances, mapped to their row-major flattening
    cases["mapped_reshape"] = AdaGradPotential(d=(3, 2))
    return cases


CASES = _cases()


def _fold(P, counts, rounds, i):
    """Trial i's statistic, summed one stat_map call per round."""
    start = int(np.sum(counts[:i]))
    zeta = P.zero()
    for r in range(start, start + int(counts[i])):
        zeta = zeta + P.stat_map(rounds[0][r], float(rounds[1][r]), float(rounds[2][r]))
    return zeta


def _plain_p2(P, trials, rng):
    worst, trial = -math.inf, None
    for lo in range(0, trials, CHUNK):
        counts, rounds = P.sample_rounds(rng, min(CHUNK, trials - lo))
        for i in range(len(counts)):
            stat = _fold(P, counts, rounds, i)
            viol = P.bound(stat) - P.eval(stat, t=P.horizon)
            if viol > worst:
                worst, trial = viol, lo + i
    return worst, trial


def _plain_p3(P, mode, trials, rng):
    worst, trial = -math.inf, None
    for lo in range(0, trials, CHUNK):
        t, counts, rounds, x, y_hat, alphas, probs = draw_p3(P, mode, rng,
                                                             min(CHUNK, trials - lo))
        for i in range(len(t)):
            tau = _fold(P, counts, rounds, i)
            viol = sum(p * P.eval(tau + P.stat_map(x[i], float(y_hat[i]), a), t=int(t[i]))
                       for a, p in zip(alphas[i], probs[i])) - P.eval(tau, t=int(t[i]) - 1)
            if viol > worst:
                worst, trial = viol, lo + i
    return worst, trial


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("name", sorted(CASES))
def test_stacked_checks_agree_with_a_plain_loop(name, seed):
    P = CASES[name]
    trials = 300
    rep = check_p2(P, trials=trials, rng=np.random.default_rng(seed))
    worst, trial = _plain_p2(P, trials, np.random.default_rng(seed))
    assert abs(rep.max_violation - worst) <= 1e-12
    assert rep.witness["trial"] == trial
    for mode in ("two_point", "rademacher"):
        rep = check_p3(P, mode=mode, trials=trials, rng=np.random.default_rng(seed))
        worst, trial = _plain_p3(P, mode, trials, np.random.default_rng(seed))
        assert abs(rep.max_violation - worst) <= 1e-12, mode
        assert rep.witness["trial"] == trial, mode
        assert replay_p3(P, rep.witness) == rep.max_violation


def _same_bits(a, b):
    """Whether two statistics agree in every slot bit for bit, the sign of
    zero included."""
    same = []
    map_slots(lambda u, v: same.append(np.array_equal(u, v)
                                       and np.array_equal(np.signbit(u), np.signbit(v))), a, b)
    return all(same)


@pytest.mark.parametrize("name", sorted(standard_families()))
def test_stack_rounds_folds_like_adding_one_round_at_a_time(name):
    """stack_rounds' in-place fold gives each trial the bits of P.zero() plus
    its rounds' statistics added one at a time, and rest the rounds' own
    maps. Counts take 0 and the largest count; some deltas are 0, so that
    y_hat * delta can be -0.0."""
    P = standard_families(B=1.0)[name]
    rng = np.random.default_rng(23)
    for counts, extra in ((np.array([0, 8, 3, 0, 8, 1, 5]), 3), (np.zeros(4, dtype=int), 2)):
        rows = int(counts.sum()) + extra
        x, y_hat = P.sample_instances(rng, rows), rng.uniform(-P.B, P.B, rows)
        delta = np.where(rng.uniform(size=rows) < 0.2, 0.0, rng.uniform(-P.L, P.L, rows))
        taus, rest = stack_rounds(P, counts, (x, y_hat, delta))
        one = [P.stat_map(x[r], float(y_hat[r]), float(delta[r])) for r in range(rows)]
        start = np.cumsum(counts) - counts
        for i, c in enumerate(counts):
            zeta = P.zero()
            for r in range(start[i], start[i] + c):
                zeta = zeta + one[r]
            assert _same_bits(map_slots(lambda a: a[i], taus), zeta)
        for j in range(extra):
            assert _same_bits(map_slots(lambda a: a[j], rest), one[rows - extra + j])


def _stack(stats):
    return map_slots(lambda *slots: np.stack(slots), *stats)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stacked_add_and_eval_match_single_calls(name):
    P = CASES[name]
    rng = np.random.default_rng(5)
    k = 7
    a = [sample_statistic(P, rng) for _ in range(k)]
    b = [sample_statistic(P, rng) for _ in range(k)]
    t = P.horizon or 1
    total = _stack(a) + _stack(b)
    shifted = _stack(a) + b[0]  # a single statistic adds to every member
    u, v = P.eval(total, t=t), P.bound(total)
    assert np.shape(u) == np.shape(v) == (k,)
    for i in range(k):
        single = a[i] + b[i]
        assert stats_allclose(map_slots(lambda s: s[i], total), single, rtol=0.0, atol=1e-12)
        assert stats_allclose(map_slots(lambda s: s[i], shifted), a[i] + b[0],
                              rtol=0.0, atol=1e-12)
        assert abs(u[i] - P.eval(single, t=t)) <= 1e-12
        assert abs(v[i] - P.bound(single)) <= 1e-12


@pytest.mark.parametrize("name", sorted(CASES))
def test_stacked_stat_map_matches_single_calls(name):
    P = CASES[name]
    rng = np.random.default_rng(6)
    xs = [P.sample_instance(rng) for _ in range(5)]
    y_hats, deltas = rng.uniform(-P.B, P.B, 5), rng.uniform(-P.L, P.L, 5)
    stacked = P.stat_map(np.stack(xs), y_hats, deltas)
    for i in range(5):
        assert stats_allclose(map_slots(lambda s: s[i], stacked),
                              P.stat_map(xs[i], float(y_hats[i]), float(deltas[i])),
                              rtol=0.0, atol=0.0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_instance_against_a_delta_stack_matches_single_calls(name):
    """stat_map shares one instance across a stack of rounds, as round_values
    and the linearized round's residual pair ask for it."""
    P = CASES[name]
    rng = np.random.default_rng(8)
    x = P.sample_instance(rng)
    y_hats, deltas = rng.uniform(-P.B, P.B, 4), rng.uniform(-P.L, P.L, 4)
    shared = P.stat_map(x, y_hats, deltas)
    for i in range(4):
        assert stats_allclose(map_slots(lambda s: s[i], shared),
                              P.stat_map(x, float(y_hats[i]), float(deltas[i])),
                              rtol=0.0, atol=0.0)


def test_matrix_round_values_keep_an_entry_sparse(monkeypatch):
    """An Entry against a stack of deltas on an entry run's statistic is
    never densified: the residual factors the block the step forms, and a
    one-round stat_map is a block statistic."""
    P = MatrixPotential(4, 3, eta=0.5)
    rng = np.random.default_rng(9)
    zeta = P.zero(like=Entry(0, 0, (4, 3)))
    for i, j in [(0, 1), (2, 0), (2, 2), (3, 1)]:
        zeta = zeta + P.stat_map(Entry(i, j, (4, 3)), rng.uniform(-1, 1), rng.uniform(-1, 1))
    dense_zeta = ScalarSym(zeta.a, zeta.Z)
    x = Entry(2, 1, (4, 3))
    loss = make_loss("squared")
    want = P.round_values(dense_zeta, np.asarray(x), np.linspace(-1, 1, 5), [-1.0, 1.0], loss)
    step = P.stat_map(np.asarray(x), 0.3, -0.5)

    def densify(self, dtype=None, copy=None):
        raise AssertionError("Entry densified")

    monkeypatch.setattr(Entry, "__array__", densify)
    got = P.round_values(zeta, x, np.linspace(-1, 1, 5), [-1.0, 1.0], loss)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
    sparse = P.stat_map(x, 0.3, -0.5)
    assert isinstance(sparse, BlockSym)
    assert sparse.a == step.a and np.array_equal(sparse.Z, step.Z)


def _domain_norms(P, xs):
    """Each instance's norm in the family's domain, whose unit ball it is."""
    if xs.ndim == 3:
        return spectral_norm(xs)
    if isinstance(P, ParamFreePotential):
        return P.norm(xs)
    return np.linalg.norm(xs, axis=-1)


@pytest.mark.parametrize("name", sorted(CASES))
def test_sample_instances_stacks_k_instances_of_the_domain(name):
    P = CASES[name]
    rng = np.random.default_rng(8)
    shape = np.shape(P.sample_instance(rng))
    for k in (0, 1, 7):
        xs = P.sample_instances(rng, k)
        assert xs.shape == (k,) + shape
        assert np.all(_domain_norms(P, xs) <= 1.0 + 1e-12)
        stats = P.stat_map(xs, np.zeros(k), np.full(k, P.L))
        assert np.shape(P.eval(stats, t=P.horizon)) == (k,)


def _matrix_formula(P, rng):
    x = rng.normal(size=(P.d1, P.d2))
    return x / max(np.linalg.svd(x, compute_uv=False).max(), 1.0)


def _unit_ball_formula(P, rng):
    v = rng.normal(size=P.d)
    return v / max(np.linalg.norm(v), 1.0)


def _param_free_formula(P, rng):
    v = rng.normal(size=P.d)
    return v / P.norm(v) * rng.uniform(0.0, 1.0)


FORMULAS = {"matrix": _matrix_formula, "adagrad_l2": _unit_ball_formula,
            "adagrad_linf": _unit_ball_formula, "vaw": _unit_ball_formula,
            "param_free_l2": _param_free_formula, "param_free_l4": _param_free_formula}


@pytest.mark.parametrize("name", sorted(FORMULAS))
def test_sample_instance_draws_the_per_instance_formula(name):
    """A block of one draws what the per-instance formula draws, bit for bit.
    The l4 norm's p-th root of a stack may round differently from the scalar
    one in the last bit, so that family is held to 1e-15."""
    P, formula = CASES[name], FORMULAS[name]
    for seed in range(1000):
        got = P.sample_instance(np.random.default_rng(seed))
        want = formula(P, np.random.default_rng(seed))
        if name == "param_free_l4":
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        else:
            assert np.array_equal(got, want), seed


def _per_node_tree(depth, draw, rng):
    """A tree drawn one node at a time, level by level in prefix order."""
    return PredictableTree([np.stack([draw(rng) for _ in range(2 ** t)]) for t in range(depth)])


@pytest.mark.parametrize("name", sorted(FORMULAS) + ["meta"])
def test_level_drawn_trees_match_per_node_draws(name):
    """PredictableTree.random draws a level with one sample_instances call.
    That is what per-node sample_instance calls draw, bit for bit, except
    for param_free, which draws a level's normals before its uniforms: its
    trees agree at the one-node root level only."""
    P = CASES[name]
    for seed in range(20):
        got = PredictableTree.random(6, P.sample_instances, np.random.default_rng(seed))
        want = _per_node_tree(6, P.sample_instance, np.random.default_rng(seed))
        same = [np.array_equal(a, b) for a, b in zip(got.levels, want.levels)]
        assert same == ([True] + [False] * 5 if name.startswith("param_free") else [True] * 6)


@pytest.mark.parametrize("name", sorted(set(CASES) - {"combine_min", "combine_convex"}))
def test_regret_bound_on_tree_leaves_matches_single_calls(name):
    """regret_bound takes a stack of statistics like the rest of the
    contract: on the leaves of a tree it equals a per-leaf loop bit for bit,
    with no comparator (where the family allows it) and with one outside
    the unit ball."""
    P = CASES[name]
    rng = np.random.default_rng(7)
    leaves = tree_leaves(P, PredictableTree.random(4, P.sample_instances, rng))
    needs_comparator = name == "vaw" or name.startswith("param_free")
    for w in ([] if needs_comparator else [None]) + [3.0 * P.sample_instance(rng)]:
        stacked = np.broadcast_to(P.regret_bound(leaves, w), (2 ** 4,))
        single = [P.regret_bound(map_slots(lambda a: a[p], leaves), w) for p in range(2 ** 4)]
        assert np.array_equal(stacked, single)


def test_sign_sum_trees_match_per_node_draws():
    """The khintchine and mgf checks draw their trees a level at a time; the
    ratios equal those of trees drawn node by node with the per-instance
    formulas (spectral-norm ball, l2 unit ball)."""
    n, matrix, ball = 5, CASES["matrix"], CASES["adagrad_l2"]
    for seed in range(5):
        rng = np.random.default_rng(seed)
        trees = [_per_node_tree(n, lambda r: _matrix_formula(matrix, r), rng) for _ in range(4)]
        rep = check_matrix_khintchine(n=n, d1=matrix.d1, d2=matrix.d2, n_trees=4,
                                      rng=np.random.default_rng(seed))
        assert rep.extras["ratios"] == check_matrix_khintchine(trees=trees).extras["ratios"]
        rng = np.random.default_rng(seed)
        trees = [_per_node_tree(n, lambda r: _unit_ball_formula(ball, r), rng) for _ in range(4)]
        want = []
        for tree in trees:
            s = np.einsum("pt,ptj->pj", sign_paths(n), gather_tree(tree, prefix_codes(n)))
            want.append(float(np.mean(np.exp(np.sum(s * s, axis=1) / (2.0 * n)))) / math.sqrt(n))
        rep = check_mgf_bound(n=n, d=ball.d, n_trees=4, rng=np.random.default_rng(seed))
        assert rep.extras["ratios"] == want
