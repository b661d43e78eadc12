"""Ridge-style family: quadratic dual potential with log-determinant debt."""

import math

import numpy as np
import pytest

from burkholder.errors import ConfigError, DomainError
from burkholder.losses import make_loss
from burkholder.potential import Potential
from burkholder.potentials import VawPotential
from burkholder.statistics import VecSym
from burkholder.strategies import predict_convex, run_online
from burkholder.verify import round_descent


def test_scalar_closed_form():
    # one active coordinate: U = u^2 / (2 (rho s + lam)) - c log((rho s + lam)/lam)
    P = VawPotential(d=1, rho=2.0, lam=1.0, c=8.0)
    stat = VecSym(np.array([3.0, 0.0]), np.diag([2.0, 0.0]))
    expected = 0.5 * 9.0 / 5.0 - 8.0 * math.log(5.0)
    assert P.eval(stat) == pytest.approx(expected, rel=1e-12)


def test_starts_at_exactly_zero():
    P = VawPotential(d=3)
    assert P.eval(P.zero()) == 0.0
    assert P.bound(P.zero()) == 0.0


def test_eval_matches_an_inverse_based_recomputation():
    P = VawPotential(d=3, rho=2.0, lam=0.7, c=9.0)
    rng = np.random.default_rng(5)
    for _ in range(50):
        stat = P.sample_statistic(rng)
        G = 2.0 * stat.A + 0.7 * np.eye(4)
        quad = 0.5 * float(stat.x @ np.linalg.inv(G) @ stat.x)
        debt = 9.0 * (math.log(np.linalg.det(G)) - 4.0 * math.log(0.7))
        assert P.eval(stat) == pytest.approx(quad - debt, rel=1e-10)


def test_bound_coincides_with_eval():
    P = VawPotential(d=2)
    rng = np.random.default_rng(6)
    stat = P.sample_statistic(rng)
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
    """The one-solve-per-prediction override must agree with evaluating the
    moved statistic entry by entry."""
    loss = make_loss("squared")
    P = VawPotential(d=2, L=loss.L)
    rng = np.random.default_rng(7)
    for _ in range(10):
        zeta = P.sample_statistic(rng, max_rounds=4)
        x = P.sample_instance(rng)
        y_hats = np.linspace(-1, 1, 7)
        ys = np.linspace(-1, 1, 5)
        fast = P.round_values(zeta, x, y_hats, ys, loss)
        naive = Potential.round_values(P, zeta, x, y_hats, ys, loss)
        assert np.allclose(fast, naive, atol=1e-10)


def test_grid_minimax_prediction_matches_a_dense_brute_force():
    """The bracket refinement behind convex_in_prediction must land on the
    same minimax value as a 2049-point sweep; this is what licenses the
    flag, since the round value is not globally convex in the prediction."""
    loss = make_loss("squared")
    P = VawPotential(d=2, L=loss.L)
    assert P.convex_in_prediction
    rng = np.random.default_rng(9)
    ys = np.unique(np.concatenate([np.linspace(-1, 1, 129), [-1, 1]]))
    for _ in range(40):
        zeta = P.sample_statistic(rng, max_rounds=4)
        x = P.sample_instance(rng)
        pred = predict_convex(P, zeta, x, loss)
        dense = np.linspace(-1, 1, 2049)
        table = P.round_values(zeta, x, dense, ys, loss)
        best = float(table.max(axis=1).min())
        at_pred = float(P.round_values(zeta, x, np.array([pred]), ys, loss).max())
        assert at_pred <= best + 1e-9


def test_comparator_bound_formula_and_interface():
    P = VawPotential(d=2, rho=2.0, lam=1.5, c=8.0)
    rng = np.random.default_rng(10)
    stat = P.sample_statistic(rng)
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
    with pytest.raises(ConfigError, match="c >= L"):
        VawPotential(d=2, L=4.0, rho=2.0, c=7.0)
    assert VawPotential(d=2, L=4.0, rho=2.0, c=7.0, strict=False).c == 7.0


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
