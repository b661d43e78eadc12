"""Checks for the checkers: property reports, trees, exact expectations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burkholder.errors import DomainError
from burkholder.potential import Potential
from burkholder.potentials import (AdaGradPotential, MatrixPotential, MetaPotential,
                                   ParamFreePotential, combine_min, standard_families)
from burkholder.losses import make_loss
from burkholder.statistics import ScalarVecScalar, map_slots
from burkholder.strategies import predict_linearized
from burkholder.symlin import spectral_norm
from burkholder.verify import (MAX_DEPTH, TOL, CheckReport, PredictableTree,
                               check_matrix_khintchine, check_mgf_bound,
                               check_necessity, check_p1, check_p2, check_p3,
                               check_supermartingale, draw_p3, replay_p3, tree_leaves)
from dilation_oracle import split
from game_oracle import round_descent
from stat_oracle import stats_allclose
from tree_oracle import (constant_tree, gather_tree, khintchine_ratio, node, prefix_codes,
                         sign_paths)
from tree_search import brute_force_sup_ev, perturbed, tree_expectation


class SmoothnessPair(Potential):
    """Statistic (sum delta x, sum ||x||^2) with V = ||x_slot||^2 - C * s.

    The exact-enumeration oracle for the squared-norm martingale inequality;
    for the euclidean norm and C = 1 the expectation is zero on every tree
    by orthogonality of martingale increments. Like the families, it takes
    stacked inputs: instances along a leading axis, one y_hat and delta each.
    """

    def __init__(self, d, C=1.0, L=1.0):
        self.d = int(d)
        self.C = float(C)
        self.L = float(L)

    def zero(self):
        return ScalarVecScalar.zero(self.d)

    def stat_map(self, x, y_hat, delta):
        x = np.asarray(x, dtype=float)
        delta = np.asarray(delta, dtype=float)
        return ScalarVecScalar(delta * y_hat, delta[..., None] * x, np.vecdot(x, x))

    def bound(self, stat):
        return np.vecdot(stat.x, stat.x) - self.C * stat.s

    def eval(self, stat, t=None):
        return self.bound(stat)

    def sample_instances(self, rng, k):
        v = rng.normal(size=(k, self.d))
        return v / np.maximum(np.sqrt(np.vecdot(v, v)), 1.0)[:, None]


@pytest.mark.parametrize("name", sorted(standard_families()))
def test_p3_laws_are_mean_zero_to_roundoff(name):
    """The laws draw_p3 draws are probability laws on [-L, L] with mean zero:
    exactly for rademacher, within 4 ulp of L for the two-point weights."""
    P = standard_families()[name]
    for mode in ("two_point", "rademacher"):
        *_, alphas, probs = draw_p3(P, mode, np.random.default_rng(17), 10000)
        assert np.all(probs > 0) and np.all(np.abs(alphas) <= P.L)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-15
        mean = np.abs((probs * alphas).sum(axis=1))
        assert np.max(mean) <= (4 * np.finfo(float).eps * P.L if mode == "two_point" else 0.0)


def test_report_line_format():
    ok = CheckReport(name="x", checks=3, max_violation=0.00123, tol=1e-8,
                     passed=True)
    assert ok.line() == "pass x: checks=3 max_violation=1.230e-03 tol=1.0e-08"
    bad = CheckReport(name="y", checks=10, max_violation=2.0, tol=1e-6,
                      passed=False)
    assert bad.line().startswith("FAIL y: checks=10")


def test_p1_flags_an_undercharged_potential():
    good = MatrixPotential(3, 2, eta=0.5)
    assert check_p1(good).passed
    bad = MatrixPotential(3, 2, eta=0.5)
    bad.c = 0.5 * math.log(5)  # half of the derived c = r log(d1+d2)
    report = check_p1(bad)
    assert not report.passed
    # halving c leaves exactly c/eta = log(5) of start value uncovered
    assert report.witness["value"] == pytest.approx(math.log(5), rel=1e-12)


def test_p1_flags_a_start_value_a_loose_tolerance_would_forgive():
    """c short of log(5) by 4e-7 starts U at +8e-7: below 1e-6, above TOL."""
    P = MatrixPotential(3, 2, eta=0.5)
    P.c = math.log(5) - 4e-7  # just below the derived c = r log(d1+d2)
    report = check_p1(P)
    assert report.tol == TOL and not report.passed, report.line()
    assert report.witness["value"] == float(P.eval(P.zero(), t=0))
    assert 7e-7 < report.witness["value"] < 1e-6


def test_p2_passes_and_a_shifted_bound_fails():
    P = AdaGradPotential(d=3)
    rng = np.random.default_rng(1)
    assert check_p2(P, trials=300, rng=rng).passed
    P.bound = lambda s: P.eval(s) + 1.0
    shifted = check_p2(P, trials=100, rng=np.random.default_rng(1))
    assert not shifted.passed
    assert shifted.max_violation == pytest.approx(1.0, abs=1e-12)
    assert {"trial", "stat", "U", "V"} <= set(shifted.witness)


def test_p3_witness_replays_to_the_reported_violation():
    P = AdaGradPotential(d=3)
    report = check_p3(P, mode="two_point", trials=200,
                      rng=np.random.default_rng(2))
    assert report.passed
    assert replay_p3(P, report.witness) == report.max_violation
    assert report.witness["mode"] == "two_point"
    assert report.witness["a"] > 0 and report.witness["b"] > 0


@pytest.mark.parametrize("trials", [0, -5])
def test_sampled_checks_need_at_least_one_trial(trials):
    P = AdaGradPotential(d=2)
    with pytest.raises(DomainError, match="trials >= 1"):
        check_p2(P, trials=trials)
    for mode in ("two_point", "rademacher"):
        with pytest.raises(DomainError, match="trials >= 1"):
            check_p3(P, mode=mode, trials=trials)


def test_p3_unknown_mode_is_rejected():
    with pytest.raises(DomainError, match="mode"):
        check_p3(AdaGradPotential(d=2), mode="bogus", trials=1)


def test_p3_detects_an_undersized_smoothness_constant():
    # E U grows by (E alpha^2 - C) ||x||^2 per round, so C = 1 is the
    # rademacher threshold and C = 0.5 sits strictly below it
    ok = check_p3(SmoothnessPair(d=3, C=1.0), mode="rademacher", trials=300,
                  rng=np.random.default_rng(3))
    assert ok.passed
    bad = check_p3(SmoothnessPair(d=3, C=0.5), mode="rademacher", trials=300,
                   rng=np.random.default_rng(3))
    assert not bad.passed
    assert 0.49 < bad.max_violation <= 0.5 + 1e-12
    assert replay_p3(SmoothnessPair(d=3, C=0.5), bad.witness) == bad.max_violation


def test_tree_level_shapes_are_validated():
    with pytest.raises(DomainError, match="level 1"):
        PredictableTree([np.array([1.0, 2.0])])
    with pytest.raises(DomainError, match="exhaustive limit"):
        PredictableTree.random(MAX_DEPTH + 1, lambda r, k: np.zeros(k),
                               np.random.default_rng(0))
    tree = constant_tree([1.0, 2.0, 3.0])
    assert [lv.shape[0] for lv in tree.levels] == [1, 2, 4]
    assert tree.depth == 3
    assert node(tree, 3, 2) == 3.0


def test_depth_zero_trees_are_rejected():
    with pytest.raises(DomainError, match="depth >= 1"):
        PredictableTree([])
    with pytest.raises(DomainError, match="depth >= 1"):
        constant_tree([])
    with pytest.raises(DomainError, match="depth >= 1"):
        PredictableTree.random(0, lambda r, k: np.zeros(k), np.random.default_rng(0))
    # the sign-sum checks build their trees through the same constructor
    with pytest.raises(DomainError, match="depth >= 1"):
        check_mgf_bound(n=0, n_trees=1)
    with pytest.raises(DomainError, match="depth >= 1"):
        check_matrix_khintchine(n=0, n_trees=1)


def test_perturbed_changes_one_node_only():
    rng = np.random.default_rng(4)
    tree = PredictableTree.random(3, lambda r, k: r.normal(size=k), rng)
    bumped = perturbed(tree, 2, 1, 9.0)
    assert node(bumped, 2, 1) == 9.0
    assert node(tree, 2, 1) != 9.0
    assert node(bumped, 2, 0) == node(tree, 2, 0)
    assert np.array_equal(bumped.levels[2], tree.levels[2])


def test_sign_paths_and_prefix_codes_share_the_bit_convention():
    eps = sign_paths(3)
    assert eps.shape == (8, 3)
    assert np.array_equal(eps[5], [1.0, -1.0, 1.0])  # 5 = 0b101
    codes = prefix_codes(3)
    assert np.array_equal(codes[5], [0, 1, 1])
    # the level-t code is the path index truncated to its first t-1 bits
    bits = (eps + 1) / 2
    rebuilt = np.zeros(8, dtype=int)
    for t in range(3):
        assert np.array_equal(codes[:, t], rebuilt)
        rebuilt = rebuilt + (bits[:, t].astype(int) << t)
    with pytest.raises(DomainError):
        sign_paths(MAX_DEPTH + 1)


def test_gather_tree_reads_values_along_each_path():
    tree = PredictableTree([np.array([10.0]), np.array([20.0, 30.0])])
    g = gather_tree(tree, prefix_codes(2))
    assert g.shape == (4, 2)
    assert np.array_equal(g[:, 0], [10.0] * 4)
    assert np.array_equal(g[:, 1], [20.0, 30.0, 20.0, 30.0])


@settings(max_examples=40, deadline=None)
@given(depth=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_tree_leaves_fold_the_statistic_map_along_each_sign_path(depth, seed):
    P = AdaGradPotential(d=3, L=0.75)
    tree = PredictableTree.random(depth, P.sample_instances,
                                  np.random.default_rng(seed))
    leaves = tree_leaves(P, tree)
    eps = sign_paths(depth)
    g = gather_tree(tree, prefix_codes(depth))
    assert len(leaves.b) == 2 ** depth
    for p in range(2 ** depth):
        tau = P.zero()
        for t in range(depth):
            tau = tau + P.stat_map(g[p, t], 0.0, eps[p, t] * P.L)
        assert stats_allclose(map_slots(lambda a: a[p], leaves), tau, rtol=0.0, atol=0.0)


def test_tree_construction_enforces_the_exhaustive_limit():
    with pytest.raises(DomainError, match="exhaustive limit"):
        constant_tree([0.0] * (MAX_DEPTH + 1))


def test_tree_expectation_matches_hand_computed_orthogonality():
    P = SmoothnessPair(d=1, C=0.0)
    tree = constant_tree([np.array([0.3]), np.array([0.7])])
    # E ||eps_1 x_1 + eps_2 x_2||^2 = 0.09 + 0.49 by cancellation of the cross term
    assert tree_expectation(P, tree, P.bound) == pytest.approx(0.58, abs=1e-14)
    balanced = SmoothnessPair(d=1, C=1.0)
    assert abs(tree_expectation(balanced, tree, balanced.bound)) < 1e-12


def test_tree_expectation_agrees_with_a_vectorized_route():
    P = SmoothnessPair(d=3, C=0.7)
    rng = np.random.default_rng(5)
    tree = PredictableTree.random(5, P.sample_instances, rng)
    recursive = tree_expectation(P, tree, P.bound)
    eps = sign_paths(5)
    g = gather_tree(tree, prefix_codes(5))
    s = np.einsum("pt,ptd->pd", eps, g)
    per_path = np.sum(s * s, axis=1) - 0.7 * np.sum(g * g, axis=(1, 2))
    assert recursive == pytest.approx(float(np.mean(per_path)), rel=1e-12)


def test_sup_search_respects_the_smoothness_threshold():
    rng = np.random.default_rng(6)
    flat, _, vals = brute_force_sup_ev(SmoothnessPair(d=2, C=1.0), n=5,
                                       rng=rng, k=10)
    assert flat < 1e-10
    assert max(vals) == flat
    loose = SmoothnessPair(d=2, C=0.5)
    best, tree, vals = brute_force_sup_ev(loose, n=5,
                                          rng=np.random.default_rng(6), k=10)
    assert best > 0.1
    assert tree_expectation(loose, tree, loose.bound) == best
    climbed, _, _ = brute_force_sup_ev(loose, n=5,
                                       rng=np.random.default_rng(6), k=10,
                                       search="coordinate_ascent",
                                       ascent_steps=50)
    assert climbed >= best
    with pytest.raises(DomainError, match="search"):
        brute_force_sup_ev(loose, n=3, search="gradient")


def test_supermartingale_walks_every_internal_node():
    P = MatrixPotential(3, 2, eta=0.5)
    rng = np.random.default_rng(7)
    tree = PredictableTree.random(5, P.sample_instances, rng)
    report = check_supermartingale(P, tree)
    assert report.passed
    assert report.checks == 2 ** 5 - 1
    bad = check_supermartingale(SmoothnessPair(d=2, C=0.0),
                                PredictableTree.random(4, lambda r, k: r.normal(size=(k, 2)) / 2.0,
                                                       np.random.default_rng(8)))
    assert not bad.passed
    assert bad.witness["violation"] == bad.max_violation > 0


def test_supermartingale_handles_time_varying_potentials():
    P = ParamFreePotential(n=16, d=4)
    tree = PredictableTree.random(4, P.sample_instances,
                                  np.random.default_rng(9))
    report = check_supermartingale(P, tree)
    assert report.passed
    assert report.checks == 15


@pytest.mark.parametrize("wrapper", ["meta", "min"])
def test_p2_and_p3_read_the_horizon_through_wrappers(wrapper):
    """p2 evaluates U at the horizon and p3 draws its round from 1..n, for a
    softmax meta and a pointwise minimum over param_free members too."""
    members = [ParamFreePotential(n=16, d=3), ParamFreePotential(n=16, d=3, p=4.0)]
    if wrapper == "meta":
        P = MetaPotential([(m, 1.0) for m in members], eta=0.5)
    else:
        P = combine_min(members)
    assert P.horizon == 16
    assert check_p2(P, trials=50, rng=np.random.default_rng(1)).passed
    rounds, inner_eval = set(), P.eval

    def recording_eval(stat, t=None):
        rounds.update(np.atleast_1d(t).tolist())
        return inner_eval(stat, t=t)

    P.eval = recording_eval
    check_p3(P, trials=400, rng=np.random.default_rng(2))
    assert rounds == set(range(17))  # t - 1 and t for every t in 1..16


def test_khintchine_on_random_and_fixed_sequences():
    report = check_matrix_khintchine(n=6, n_trees=20,
                                     rng=np.random.default_rng(10))
    assert report.passed
    assert report.checks == 20
    assert len(report.extras["ratios"]) == 20
    assert max(report.extras["ratios"]) <= 1.0 + 1e-9
    fixed = [np.array([[1.0, 0.0], [0.0, 0.5], [0.0, 0.0]]),
             np.array([[0.0, 1.0], [0.3, 0.0], [0.0, 0.2]]),
             np.array([[0.5, 0.5], [0.0, 0.0], [0.5, -0.5]])]
    const = check_matrix_khintchine(trees=[constant_tree(fixed)])
    assert const.passed and const.checks == 1


@pytest.mark.parametrize("seed", range(4))
def test_khintchine_ratios_match_the_einsum_oracle(seed):
    """The check folds each tree into the matrix family's H and M slots; the
    oracle sums gathered paths by einsum and takes an SVD and two eigvalsh."""
    rng = np.random.default_rng(seed)
    d1, d2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    depth = int(rng.integers(1, 8))
    P = MatrixPotential(d1, d2, eta=1.0)
    trees = [PredictableTree.random(depth, P.sample_instances, rng) for _ in range(3)]
    trees.append(constant_tree(list(P.sample_instances(rng, depth))))
    trees.append(constant_tree([np.zeros((d1, d2))] * depth))
    got = check_matrix_khintchine(trees=trees).extras["ratios"]
    want = [khintchine_ratio(tree) for tree in trees]
    assert got[-1] == want[-1] == 0.0  # a zero tree has no denominator
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_sign_sum_checks_need_at_least_one_tree():
    with pytest.raises(DomainError, match="0 trees"):
        check_matrix_khintchine(n_trees=0)
    with pytest.raises(DomainError, match="0 trees"):
        check_matrix_khintchine(trees=[])
    with pytest.raises(DomainError, match="0 trees"):
        check_mgf_bound(n=4, n_trees=0)


def test_mgf_bound_asserts_only_past_the_crossover():
    small = check_mgf_bound(n=2, n_trees=5, rng=np.random.default_rng(11))
    assert small.passed  # reported, not asserted
    assert not small.extras["asserted"]
    assert small.name == "mgf_bound_n2"
    big = check_mgf_bound(n=8, n_trees=10, rng=np.random.default_rng(12))
    assert big.passed and big.extras["asserted"]
    assert big.max_violation <= 1e-9
    assert len(big.extras["ratios"]) == 10


def test_round_descent_separates_good_and_bad_predictions():
    P = MatrixPotential(5, 5, eta=0.2)
    loss = make_loss("absolute", B=1.0)
    x = np.zeros((5, 5))
    x[1, 2] = 1.0
    zeta = P.zero()
    good = round_descent(P, zeta, x, predict_linearized(P, zeta, x)[0], loss)
    assert good <= 1e-10
    bad = round_descent(P, zeta, x, 1.0, loss)
    assert bad > 0.1


class TestNecessity:
    """Exact sign-adversary comparison on small matrix games."""

    def _tree(self, depth, rng):
        def sampler(r, k):
            x = r.normal(size=(k, 2, 2))
            return x / (spectral_norm(x) + 1e-12)[:, None, None]
        return PredictableTree.random(depth, sampler, rng)

    def test_potential_learner_matches_the_lower_bound(self):
        P = MatrixPotential(2, 2, eta=0.5)
        tree = self._tree(6, np.random.default_rng(13))
        report = check_necessity(P, tree)
        assert report.passed
        assert report.checks == 2 ** 6
        # absolute loss against sign labels has mean 1 per round whenever
        # the prediction stays in [-1, 1], so the gap telescopes to zero
        assert abs(report.witness["E_gap"]) < 1e-10

    def test_wild_learner_keeps_achievability_but_grows_the_gap(self):
        P = MatrixPotential(2, 2, eta=0.5)
        tree = self._tree(5, np.random.default_rng(14))
        report = check_necessity(P, tree, learner=lambda pot, z, x, t: (2.0, None))
        assert report.passed
        assert report.extras["E_regret_gap"] == pytest.approx(5.0, abs=1e-10)

    def test_stacked_learner_matches_per_node_calls(self):
        """Each level's one predict_linearized call on the level's stack
        gives, bit for bit, the prediction and both residuals of a call per
        node; the root, a zero statistic, predicts exactly 0."""
        P = MatrixPotential(2, 2, eta=0.5)
        tree = self._tree(6, np.random.default_rng(17))
        loss = make_loss("absolute", B=2.0)
        zetas = map_slots(lambda z: np.zeros((1,) + np.shape(z)), P.zero())
        for t, x in enumerate(tree.levels, start=1):
            y_hat, f = predict_linearized(P, zetas, x, t)
            assert y_hat.shape == (len(x),) and f.shape == (len(x), 2)
            for i in range(len(x)):
                y_i, (f_minus, f_plus) = predict_linearized(
                    P, map_slots(lambda a: a[i], zetas), x[i], t)
                assert y_hat[i] == y_i and np.signbit(y_hat[i]) == np.signbit(y_i)
                assert f[i, 0] == f_minus and f[i, 1] == f_plus
            if t == 1:
                assert y_hat[0] == 0.0
            eps, twice = np.repeat([-1.0, 1.0], len(x)), np.concatenate([y_hat, y_hat])
            zetas = (map_slots(lambda a: np.concatenate([a, a]), zetas)
                     + P.stat_map(np.concatenate([x, x]), twice, loss.subgradient(twice, eps)))

    def test_clairvoyant_learner_is_the_negative_control(self):
        P = MatrixPotential(2, 2, eta=0.5)
        tree = self._tree(5, np.random.default_rng(15))
        report = check_necessity(P, tree, clairvoyant=True)
        assert not report.passed
        assert report.max_violation == pytest.approx(5.0, abs=1e-9)

    @pytest.mark.parametrize("clairvoyant", [False, True])
    def test_matches_a_separate_replay_of_every_path(self, clairvoyant):
        P = MatrixPotential(2, 2, eta=0.5)
        depth = 5
        tree = self._tree(depth, np.random.default_rng(16))
        report = check_necessity(P, tree, clairvoyant=clairvoyant)
        loss = make_loss("absolute", B=2.0)
        eps = sign_paths(depth)
        g = gather_tree(tree, prefix_codes(depth))
        lhs, rhs = [], []
        for p in range(2 ** depth):
            zeta, eps_sum, cum = P.zero(), np.zeros((2, 2)), 0.0
            for t in range(depth):
                x, y = g[p, t], eps[p, t]
                y_hat = y if clairvoyant else predict_linearized(
                    P, zeta, x, t + 1)[0]
                zeta = zeta + P.stat_map(x, y_hat, float(loss.subgradient(y_hat, y)))
                eps_sum = eps_sum + y * x
                cum += float(loss.value(y_hat, y))
            m_norm = float(np.linalg.eigvalsh(split(zeta, 2)[1])[-1])
            a_bound = 0.5 * P.eta * P.L ** 2 * P.r * max(m_norm, 0.0) + P.c / P.eta
            u_norm = float(np.linalg.svd(eps_sum, compute_uv=False)[0])
            lhs.append(cum - (depth - P.r * u_norm) - a_bound)
            rhs.append(P.r * u_norm - a_bound)
        assert report.checks == 2 ** depth
        assert abs(report.witness["E_lhs"] - float(np.mean(lhs))) <= 1e-12
        assert abs(report.witness["E_rhs"] - float(np.mean(rhs))) <= 1e-12

    def test_oversized_class_radius_is_rejected(self):
        P = MatrixPotential(2, 2, eta=0.5, r=2.0)
        tree = constant_tree([np.eye(2)] * 3)
        with pytest.raises(DomainError, match="needs r"):
            check_necessity(P, tree)

    def test_depth_guard(self):
        with pytest.raises(DomainError, match="exhaustive limit"):
            constant_tree([np.eye(2) * 0.5] * (MAX_DEPTH + 1))
