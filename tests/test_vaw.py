"""Ridge-style family: quadratic dual potential with log-determinant debt."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burkholder.errors import ConfigError, DomainError, NumericError
from burkholder.losses import make_loss
from burkholder.potential import Potential
from burkholder.potentials import VawPotential
from burkholder.statistics import VecSym
from burkholder.strategies import predict_convex, run_online
from game_oracle import round_descent
from stat_oracle import sample_statistic


def test_scalar_closed_form():
    # one active coordinate: U = u^2 / (2 (rho s + lam)) - c log((rho s + lam)/lam)
    P = VawPotential(d=1, rho=2.0, lam=1.0)
    stat = VecSym(np.array([3.0, 0.0]), np.diag([2.0, 0.0]))
    expected = 0.5 * 9.0 / 5.0 - 8.0 * math.log(5.0)
    assert P.eval(stat) == pytest.approx(expected, rel=1e-12)


def test_starts_at_exactly_zero():
    P = VawPotential(d=3)
    assert P.eval(P.zero()) == 0.0
    assert P.bound(P.zero()) == 0.0


def test_eval_matches_an_inverse_based_recomputation():
    P = VawPotential(d=3, rho=2.0, lam=0.7)
    rng = np.random.default_rng(5)
    for _ in range(50):
        stat = sample_statistic(P, rng)
        G = 2.0 * stat.A + 0.7 * np.eye(4)
        quad = 0.5 * float(stat.x @ np.linalg.inv(G) @ stat.x)
        debt = 8.0 * (math.log(np.linalg.det(G)) - 4.0 * math.log(0.7))
        assert P.eval(stat) == pytest.approx(quad - debt, rel=1e-10)


def test_bound_coincides_with_eval():
    P = VawPotential(d=2)
    rng = np.random.default_rng(6)
    stat = sample_statistic(P, rng)
    assert P.bound(stat) == P.eval(stat)


def test_augmentation_carries_the_negated_prediction():
    P = VawPotential(d=2)
    z = P.augment(np.array([0.5, -0.5]), 0.25)
    assert np.array_equal(z, [0.5, -0.5, -0.25])
    stat = P.stat_map(np.array([1.0, 0.0]), 0.5, 2.0)
    assert np.array_equal(stat.x, 2.0 * np.array([1.0, 0.0, -0.5]))
    assert np.array_equal(stat.A, np.outer([1.0, 0.0, -0.5], [1.0, 0.0, -0.5]))
    with pytest.raises(DomainError):
        P.augment(np.zeros(3), 0.0)


def test_round_values_factorization_matches_the_naive_table():
    """The closed-form override (one Gram solve per table) must agree with
    evaluating the moved statistic entry by entry."""
    loss = make_loss("squared")
    P = VawPotential(d=2, L=loss.L)
    rng = np.random.default_rng(7)
    for _ in range(10):
        zeta = sample_statistic(P, rng, max_rounds=4)
        x = P.sample_instance(rng)
        y_hats = np.linspace(-1, 1, 7)
        ys = np.linspace(-1, 1, 5)
        fast = P.round_values(zeta, x, y_hats, ys, loss)
        naive = Potential.round_values(P, zeta, x, y_hats, ys, loss)
        assert np.allclose(fast, naive, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["squared", "absolute", "hinge"]),
       max_rounds=st.sampled_from([8, 40]),
       lam=st.floats(1e-4, 10.0),
       seed=st.integers(0, 2 ** 32 - 1),
       points=st.lists(st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
                       min_size=1, max_size=6),
       repeats=st.lists(st.integers(0, 5), max_size=2))
def test_closed_form_table_matches_the_generic_table(kind, max_rounds, lam, seed,
                                                     points, repeats):
    """Sherman-Morrison and the determinant lemma against the generic
    entry-by-entry table, at small lam, with repeated and boundary
    predictions, on the loss's critical labels."""
    loss = make_loss(kind)
    P = VawPotential(d=3, lam=lam, L=loss.L)
    rng = np.random.default_rng(seed)
    zeta = sample_statistic(P, rng, max_rounds=max_rounds)
    x = P.sample_instance(rng)
    y_hats = np.array(points + [points[i % len(points)] for i in repeats])
    ys = loss.critical_labels(y_hats)
    fast = P.round_values(zeta, x, y_hats, ys, loss)
    naive = Potential.round_values(P, zeta, x, y_hats, ys, loss)
    assert fast.shape == naive.shape
    assert np.all(np.abs(fast - naive) <= 1e-12 * np.maximum(1.0, np.abs(naive)))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gram_fails_loudly(bad):
    P = VawPotential(d=2)
    A = np.eye(3)
    A[0, 1] = A[1, 0] = bad
    stat = VecSym(np.ones(3), A)
    with pytest.raises(NumericError):
        P.eval(stat)
    with pytest.raises(NumericError):
        P.regret_bound(stat, np.zeros(2))


def test_rank_one_denominator_fails_loudly():
    # G0 = -lam I has a positive determinant in dimension 4, so only the
    # rank-one denominator 1 + rho z^T G0^-1 z can reveal the lost positivity
    loss = make_loss("squared")
    P = VawPotential(d=3, rho=2.0, lam=1.0, L=loss.L)
    zeta = VecSym(np.zeros(4), -(P.lam / P.rho) * 2.0 * np.eye(4))
    x = np.array([1.0, 0.0, 0.0])
    with pytest.raises(NumericError, match="rank-one") as info:
        P.round_values(zeta, x, np.array([-P.B, 0.0, P.B]), np.array([0.0]), loss)
    assert info.value.context["y_hat"] == -P.B
    assert info.value.context["denominator"] < 0


def test_grid_minimax_prediction_matches_a_dense_brute_force():
    """The convex strategy's bracket refinement must land on the same
    minimax value as a 2049-point sweep, although the round value is not
    globally convex in the prediction."""
    loss = make_loss("squared")
    P = VawPotential(d=2, L=loss.L)
    rng = np.random.default_rng(9)
    ys = np.unique(np.concatenate([np.linspace(-1, 1, 129), [-1, 1]]))
    for _ in range(40):
        zeta = sample_statistic(P, rng, max_rounds=4)
        x = P.sample_instance(rng)
        pred = predict_convex(P, zeta, x, loss)
        dense = np.linspace(-1, 1, 2049)
        table = P.round_values(zeta, x, dense, ys, loss)
        best = float(table.max(axis=1).min())
        at_pred = float(P.round_values(zeta, x, np.array([pred]), ys, loss).max())
        assert at_pred <= best + 1e-9


def test_comparator_bound_formula_and_interface():
    P = VawPotential(d=2, rho=2.0, lam=1.5)
    rng = np.random.default_rng(10)
    stat = sample_statistic(P, rng)
    w = np.array([0.4, -1.0])
    G = 2.0 * stat.A + 1.5 * np.eye(3)
    debt = 8.0 * (math.log(np.linalg.det(G)) - 3.0 * math.log(1.5))
    expected = 0.75 * (0.16 + 1.0 + 1.0) + debt
    assert P.regret_bound(stat, w) == pytest.approx(expected, rel=1e-10)
    with pytest.raises(DomainError):
        P.regret_bound(stat)


def test_configuration_guards():
    with pytest.raises(ConfigError):
        VawPotential(d=0)
    with pytest.raises(ConfigError):
        VawPotential(d=2, rho=0.0)
    with pytest.raises(ConfigError):
        VawPotential(d=2, lam=-1.0)
    with pytest.raises(ConfigError):
        VawPotential(d=2, L=0.0)


def test_descent_and_certificate_on_a_short_run():
    loss = make_loss("squared")
    P = VawPotential(d=2, L=loss.L)
    rng = np.random.default_rng(11)
    seq = [(P.sample_instance(rng), float(rng.uniform(-1, 1))) for _ in range(15)]
    descents = []
    traj = run_online(P, "convex", seq, loss,
                      on_round=lambda t, zeta_prev, rnd, zeta: descents.append(
                          round_descent(P, zeta_prev, rnd.x, rnd.y_hat, loss)))
    vals = traj.potential_values
    for prev, cur in zip(vals, vals[1:]):
        assert cur <= prev + 1e-3  # grid minimax tolerance
    assert vals[-1] <= 0.0
    # the grid game value never rises above the running potential either
    assert len(descents) == traj.n
    for d in descents:
        assert d <= 1e-3
