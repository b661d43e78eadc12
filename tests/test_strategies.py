"""Prediction strategies, statistic accumulation, and trajectory records."""

import math
import weakref

import numpy as np
import pytest

from burkholder.errors import DomainError, NumericError
from burkholder.losses import make_loss
from burkholder.potential import (MappedPotential, Potential, Trajectory,
                                  accumulate)
from burkholder.harness import matrix_completion
from burkholder.potentials import AdaGradPotential, MatrixPotential, VawPotential
from burkholder.statistics import ScalarVec, stats_allclose
from burkholder.strategies import (STRATEGIES, predict_convex,
                                   predict_linearized, predict_randomized,
                                   realized_game_value, run_online,
                                   run_randomized_expected)


class _Holder:
    L = 1.0


def test_linearized_prediction_arithmetic():
    # F(+1) = 5, F(-1) = 1 gives raw = -(5 - 1)/2 = -2, clamped by B
    F = lambda d: 5.0 if d > 0 else 1.0
    assert predict_linearized(_Holder(), None, None, 3.0, residual=F) == -2.0
    assert predict_linearized(_Holder(), None, None, 1.0, residual=F) == -1.0


def test_linearized_rejects_nonfinite_residuals():
    with pytest.raises(NumericError):
        predict_linearized(_Holder(), None, None, 1.0, residual=lambda d: math.inf)


class _QuadValue(Potential):
    """Round value (y_hat - target)^2, independent of y; for search tests."""

    def __init__(self, target, convex=True):
        self.target = target
        self.convex_in_prediction = convex

    def round_values(self, zeta, x, y_hats, ys, loss, t=None):
        y_hats = np.asarray(y_hats, dtype=float)
        col = (y_hats - self.target) ** 2
        return np.repeat(col[:, None], np.asarray(ys).size, axis=1)


def test_convex_search_refines_to_the_minimizer():
    loss = make_loss("absolute")
    pred = predict_convex(_QuadValue(0.3), None, None, 1.0, loss, tol=1e-4)
    assert abs(pred - 0.3) <= 1e-4


def test_grid_search_without_convexity_stays_on_the_first_grid():
    loss = make_loss("absolute")
    pred = predict_convex(_QuadValue(0.3, convex=False), None, None, 1.0, loss)
    # nearest point of linspace(-1, 1, 129) to 0.3
    assert pred == pytest.approx(0.296875, abs=1e-12)


def test_tied_grid_minima_resolve_leftmost():
    loss = make_loss("absolute")
    pred = predict_convex(_QuadValue(0.0, convex=False), None, None, 1.0, loss)
    assert pred == 0.0
    flat = _QuadValue(0.0, convex=False)
    flat.round_values = lambda *a, **k: np.zeros((129, 129))
    assert predict_convex(flat, None, None, 1.0, loss) == -1.0


def test_randomized_grid_layout():
    rng = np.random.default_rng(0)
    loss = make_loss("absolute")
    dist, sample = predict_randomized(_QuadValue(0.5), None, None, 1.0,
                                      eps1=0.5, eps2=0.2, rng=rng, loss=loss)
    assert np.allclose(dist.points, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert sample in dist.points
    assert dist.probs.min() >= 0.0
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
    # the solver should pile mass on the minimizing point
    assert dist.points[int(np.argmax(dist.probs))] == 0.5


def test_randomized_flat_table_returns_uniform():
    flat = _QuadValue(0.0)
    flat.round_values = lambda *a, **k: np.full((5, 129), 2.5)
    dist, _ = predict_randomized(flat, None, None, 1.0, eps1=0.5, eps2=0.2,
                                 rng=np.random.default_rng(1),
                                 loss=make_loss("absolute"))
    assert np.allclose(dist.probs, 0.2)


def test_randomized_rejects_bad_tolerances_and_tables():
    loss = make_loss("absolute")
    with pytest.raises(DomainError):
        predict_randomized(_QuadValue(0.0), None, None, 1.0, eps1=0.0,
                           eps2=0.1, rng=np.random.default_rng(0), loss=loss)
    broken = _QuadValue(0.0)
    broken.round_values = lambda *a, **k: np.full((5, 129), np.nan)
    with pytest.raises(NumericError):
        predict_randomized(broken, None, None, 1.0, eps1=0.5, eps2=0.1,
                           rng=np.random.default_rng(0), loss=loss)


def test_randomized_distribution_is_deterministic_per_seed():
    loss = make_loss("absolute")
    P = AdaGradPotential(d=2)
    zeta = P.stat_map(np.array([0.6, 0.2]), 0.1, 0.5)
    outs = []
    for _ in range(2):
        rng = np.random.default_rng(42)
        dist, sample = predict_randomized(P, zeta, np.array([0.3, -0.4]), 1.0,
                                          eps1=0.1, eps2=0.1, rng=rng, loss=loss)
        outs.append((dist.probs.copy(), sample))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert outs[0][1] == outs[1][1]


def test_randomized_value_stays_within_the_declared_slack():
    """The distribution's worst-case round value may exceed the potential by
    at most K*eps1 + eps2 (grid spacing plus solver tolerance)."""
    loss = make_loss("absolute")
    P = AdaGradPotential(d=3)
    rng = np.random.default_rng(9)
    eps = 0.1
    for _ in range(25):
        zeta = P.sample_statistic(rng, max_rounds=5)
        x = P.sample_instance(rng)
        dist, _ = predict_randomized(P, zeta, x, P.B, eps1=eps, eps2=eps,
                                     rng=rng, loss=loss)
        realized = realized_game_value(P, zeta, x, dist, loss, P.B)
        budget = P.eval(zeta) + P.L * eps + eps + 1e-9
        assert realized <= budget


def test_run_online_bookkeeping():
    P = AdaGradPotential(d=2)
    loss = make_loss("absolute")
    rng = np.random.default_rng(3)
    seq = [(P.sample_instance(rng), float(rng.uniform(-1, 1))) for _ in range(10)]
    stats = [P.zero()]
    traj = run_online(P, "linearized", seq, loss, P.B,
                      on_round=lambda t, zeta_prev, rnd, zeta: stats.append(zeta))
    assert traj.n == 10
    assert len(stats) == 11
    assert len(traj.potential_values) == 11
    assert traj.potential_values[0] == P.eval(P.zero())
    assert traj.cumulative_loss == pytest.approx(float(traj.losses.sum()))
    r = traj.rounds[4]
    assert r.t == 5
    assert r.delta == loss.subgradient(r.y_hat, r.y)
    # the recorded final statistic replays from the rounds
    z = P.zero()
    for rec in traj.rounds:
        z = z + P.stat_map(rec.x, rec.y_hat, rec.delta)
    assert abs(P.eval(z) - P.eval(traj.final_statistic)) < 1e-12


def test_run_online_rejects_unknown_strategies():
    with pytest.raises(DomainError, match="unknown strategy"):
        run_online(AdaGradPotential(d=2), "greedy", [], make_loss("absolute"), 1.0)
    assert set(STRATEGIES) == {"linearized", "convex", "randomized"}


def test_randomized_runs_are_reproducible():
    P = AdaGradPotential(d=2)
    loss = make_loss("absolute")
    rng = np.random.default_rng(8)
    seq = [(P.sample_instance(rng), float(rng.uniform(-1, 1))) for _ in range(6)]
    opts = {"eps1": 0.2, "eps2": 0.2}
    t1 = run_online(P, "randomized", seq, loss, 1.0,
                    rng=np.random.default_rng(5), options=opts)
    t2 = run_online(P, "randomized", seq, loss, 1.0,
                    rng=np.random.default_rng(5), options=opts)
    assert [r.y_hat for r in t1.rounds] == [r.y_hat for r in t2.rounds]


def test_expected_loss_recording():
    P = AdaGradPotential(d=2)
    loss = make_loss("absolute")
    rng = np.random.default_rng(4)
    seq = [(P.sample_instance(rng), float(rng.uniform(-1, 1))) for _ in range(6)]
    traj, expected = run_randomized_expected(P, seq, loss, 1.0, eps1=0.2,
                                             eps2=0.2,
                                             rng=np.random.default_rng(7))
    assert expected.shape == (6,)
    assert np.all(expected >= 0.0)
    # expectations are bounded by the worst loss on the grid
    assert np.all(expected <= 2.0 + 1e-12)
    assert traj.n == 6


def test_accumulate_enforces_the_subgradient_range():
    P = AdaGradPotential(d=2)
    x = np.array([1.0, 0.0])
    with pytest.raises(DomainError, match="Lipschitz"):
        accumulate(P.zero(), x, 0.0, 1.5, P)
    out = accumulate(P.zero(), x, 0.5, 1.0, P)
    assert out.b == 0.5


def test_prediction_lipschitz_routes():
    loss = make_loss("absolute")
    P = AdaGradPotential(d=2)
    k, estimated = P.prediction_lipschitz(P.zero(), np.array([1.0, 0.0]), loss, 1.0)
    assert (k, estimated) == (1.0, False)
    loss_sq = make_loss("squared")
    V = VawPotential(d=2, L=loss_sq.L)
    k, estimated = V.prediction_lipschitz(V.zero(), np.array([1.0, 0.0]),
                                          loss_sq, 1.0)
    assert estimated
    assert k > 0.0


def test_mapped_potential_reindexes_instances():
    inner = AdaGradPotential(d=6)
    flat = lambda x: np.asarray(x, dtype=float).reshape(-1)
    mapped = MappedPotential(inner, flat)
    X = np.arange(6, dtype=float).reshape(2, 3) / 10.0
    s1 = mapped.stat_map(X, 0.3, -0.5)
    s2 = inner.stat_map(flat(X), 0.3, -0.5)
    assert np.array_equal(s1.x, s2.x)
    assert mapped.eval(s1) == inner.eval(s2)
    assert mapped.residual(mapped.zero(), X, 0.5) == inner.residual(
        inner.zero(), flat(X), 0.5)
    assert mapped.linearizable == inner.linearizable
    assert mapped.anchor()[1] == 0.0
    sampled = MappedPotential(inner, flat, sample_fn=lambda r: r.normal(size=(2, 3)))
    assert sampled.sample_instance(np.random.default_rng(0)).shape == (2, 3)
    with pytest.raises(DomainError):
        sampled.anchor()


def test_trajectory_defaults():
    t = Trajectory()
    assert t.n == 0
    assert t.cumulative_loss == 0.0
    assert t.losses.shape == (0,)
    z = ScalarVec.zero(1)
    t.zetas.append(z)
    assert t.final_statistic is z


@pytest.mark.parametrize("randomized", [False, True])
def test_on_round_sees_every_statistic_in_order(randomized):
    P = MatrixPotential(4, 3, eta=0.5)
    loss = make_loss("absolute")
    seq = matrix_completion(12, 4, 3, rank=2, rng=np.random.default_rng(6))
    calls = []

    def on_round(t, zeta_prev, rnd, zeta):
        calls.append((t, zeta_prev, rnd, zeta))

    if randomized:
        traj, _ = run_randomized_expected(P, seq, loss, P.B, 0.2, 0.2,
                                          np.random.default_rng(1), on_round=on_round)
    else:
        traj = run_online(P, "linearized", seq, loss, P.B, on_round=on_round)
    assert [c[0] for c in calls] == list(range(1, traj.n + 1))
    assert stats_allclose(calls[0][1], P.zero(), rtol=0, atol=0)
    for (_, _, _, before), (_, after_prev, _, _) in zip(calls, calls[1:]):
        assert after_prev is before
    for t, zeta_prev, rnd, zeta in calls:
        assert rnd is traj.rounds[t - 1]
        assert P.eval(zeta) == traj.potential_values[t]
    assert calls[-1][3] is traj.final_statistic


def test_a_run_holds_one_statistic():
    """Statistics the loop has moved past are freed during a 50-round run;
    afterwards only the final one is alive."""
    P = MatrixPotential(5, 5, eta=0.3)
    loss = make_loss("absolute")
    seq = matrix_completion(50, 5, 5, rank=1, rng=np.random.default_rng(8))
    refs, most_alive = [], 0

    def on_round(t, zeta_prev, rnd, zeta):
        nonlocal most_alive
        refs.append(weakref.ref(zeta))
        most_alive = max(most_alive, sum(r() is not None for r in refs))

    traj = run_online(P, "linearized", seq, loss, P.B, on_round=on_round)
    assert len(refs) == 50
    assert most_alive <= 2  # this round's statistic and the one before it
    alive = [r() for r in refs if r() is not None]
    assert len(alive) == 1 and alive[0] is traj.final_statistic
    assert len(traj.zetas) == 1
