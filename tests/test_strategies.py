"""Prediction strategies, statistic accumulation, and trajectory records."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from burkholder.errors import DomainError, NumericError
from burkholder.losses import make_loss
from burkholder.potential import (MappedPotential, Potential, Trajectory,
                                  accumulate)
from burkholder.harness import matrix_completion
from burkholder.potentials import (AdaGradPotential, MatrixPotential,
                                   ParamFreePotential, VawPotential,
                                   combine_min, matrix_meta)
from burkholder.statistics import ScalarVec, stats_allclose
from burkholder.strategies import (STRATEGIES, GridDistribution, predict_convex,
                                   predict_linearized, predict_randomized,
                                   realized_game_value, run_online,
                                   run_randomized_expected, sup_labels)
from burkholder.verify import round_descent


class _Holder:
    """A family reduced to L, B and a residual F(delta)."""
    L = 1.0
    B = 1.0
    convex_in_delta = True

    def __init__(self, F):
        self.F = F

    def residual(self, zeta, x, delta, t=None):
        return self.F(delta)


def test_linearized_prediction_arithmetic():
    # F(+1) = 5, F(-1) = 1 gives raw = -(5 - 1)/2 = -2, clamped by B
    P = _Holder(lambda d: 5.0 if d > 0 else 1.0)
    P.B = 3.0
    assert predict_linearized(P, None, None) == -2.0
    P.B = 1.0
    assert predict_linearized(P, None, None) == -1.0


def test_linearized_rejects_nonfinite_residuals():
    with pytest.raises(NumericError):
        predict_linearized(_Holder(lambda d: math.inf), None, None)


class _QuadValue(Potential):
    """Round value (y_hat - target)^2, independent of y; for search tests."""

    convex_in_delta = True  # the table does not depend on y

    def __init__(self, target, convex=True):
        self.target = target
        self.convex_in_prediction = convex

    def round_values(self, zeta, x, y_hats, ys, loss, t=None):
        y_hats = np.asarray(y_hats, dtype=float)
        col = (y_hats - self.target) ** 2
        return np.repeat(col[:, None], np.asarray(ys).size, axis=1)


def test_convex_search_refines_to_the_minimizer():
    loss = make_loss("absolute")
    pred = predict_convex(_QuadValue(0.3), None, None, loss)
    assert abs(pred - 0.3) <= 1e-4


def test_grid_search_without_convexity_stays_on_the_first_grid():
    loss = make_loss("absolute")
    pred = predict_convex(_QuadValue(0.3, convex=False), None, None, loss)
    # nearest point of linspace(-1, 1, 129) to 0.3
    assert pred == pytest.approx(0.296875, abs=1e-12)


def test_tied_grid_minima_resolve_leftmost():
    loss = make_loss("absolute")
    pred = predict_convex(_QuadValue(0.0, convex=False), None, None, loss)
    assert pred == 0.0
    flat = _QuadValue(0.0, convex=False)
    flat.round_values = lambda *a, **k: np.zeros((129, 129))
    assert predict_convex(flat, None, None, loss) == -1.0


class _RecordingGrid(_QuadValue):
    """_QuadValue that keeps the prediction grid it was asked to tabulate."""

    def round_values(self, zeta, x, y_hats, ys, loss, t=None):
        self.grid = np.asarray(y_hats)
        return super().round_values(zeta, x, y_hats, ys, loss, t=t)


def test_randomized_grid_layout():
    """The grid is -B + eps1 i with its top point clipped to B; the table
    has a pure saddle point, so all mass goes to the minimizing point."""
    for eps1, grid in ((0.5, [-1.0, -0.5, 0.0, 0.5, 1.0]),
                       (0.75, [-1.0, -0.25, 0.5, 1.0])):
        stub = _RecordingGrid(0.5)
        dist, sample = predict_randomized(stub, None, None, eps1=eps1,
                                          rng=np.random.default_rng(0),
                                          loss=make_loss("absolute"))
        assert np.allclose(stub.grid, grid, rtol=0, atol=1e-15)
        assert np.array_equal(dist.points, [0.5]) and np.array_equal(dist.probs, [1.0])
        assert sample == 0.5


def _two_label_game(table):
    """predict_randomized on a stub whose value table is the given N x 2
    table, N being 2**k + 1 so that eps1 = 2 / (N - 1) is exact."""
    stub = _QuadValue(0.0)
    stub.round_values = lambda *a, **k: table
    eps1 = 2.0 / (table.shape[0] - 1)
    return predict_randomized(stub, None, None, eps1=eps1,
                              rng=np.random.default_rng(0),
                              loss=make_loss("squared"))


def _grid_probs(dist, n_pts):
    """The distribution's probabilities on the full grid of n_pts points."""
    grid = np.linspace(-1.0, 1.0, n_pts)
    rows = np.searchsorted(grid, dist.points)
    assert np.array_equal(grid[rows], dist.points)
    probs = np.zeros(n_pts)
    probs[rows] = dist.probs
    return probs


def _pairwise_game_value(table):
    """Brute force: the least worst-case value over every pure row and every
    pair of rows mixed so that both labels get the same value."""
    a, b = table[:, 0], table[:, 1]
    values = list(np.maximum(a, b))
    for i in np.flatnonzero(a > b):
        for k in np.flatnonzero(b > a):
            p = (b[k] - a[k]) / ((a[i] - b[i]) + (b[k] - a[k]))
            values.append(p * a[i] + (1.0 - p) * a[k])
    return min(values)


@st.composite
def _two_label_tables(draw):
    n_pts = draw(st.sampled_from([2, 3, 5, 9, 17, 33]))
    # small integers make ties, parallel lines and duplicate rows likely
    entry = st.one_of(st.integers(-3, 3).map(float), st.floats(-5.0, 5.0))
    cells = draw(st.lists(entry, min_size=2 * n_pts, max_size=2 * n_pts))
    return np.array(cells).reshape(n_pts, 2)


@settings(max_examples=80, deadline=None)
@given(_two_label_tables())
def test_two_label_solver_is_the_exact_game_value(table):
    """The exact solver's worst case equals the brute-force game value."""
    assume(np.ptp(table) > 2e-12)  # a flat table takes the uniform shortcut
    dist, sample = _two_label_game(table)
    assert len(dist.points) <= 2 and sample in dist.points
    assert np.all(dist.probs > 0) and dist.probs.sum() == pytest.approx(1.0, abs=1e-15)
    value = float(np.max(_grid_probs(dist, table.shape[0]) @ table))
    assert abs(value - _pairwise_game_value(table)) <= 1e-12


@pytest.mark.parametrize("rows, support, probs", [
    ([[3, 1], [2, 0], [2.5, -1]], [1], [1.0]),           # every line increasing
    ([[0, 2], [1, 3], [-1, 0.5]], [2], [1.0]),           # every line decreasing
    ([[1, 1], [0, 2], [2, 0]], [0], [1.0]),              # a flat row ties the mixture
    ([[1.5, 1.5], [0, 2], [2, 0]], [1, 2], [0.5, 0.5]),  # the mixture beats it
    ([[0, 1], [1, 0]], [0, 1], [0.5, 0.5]),              # N = 2
    ([[0, 1], [0, 1], [1, 0], [1, 0], [2, 2]], [0, 2], [0.5, 0.5]),  # duplicate rows
    ([[0, 3], [0, 3], [3, 0], [1, 1], [1, 1]], [3], [1.0]),  # tied pure rows
])
def test_two_label_solver_on_degenerate_tables(rows, support, probs):
    """Pure optima take one point, ties the lowest grid index."""
    table = np.array(rows, dtype=float)
    dist, _ = _two_label_game(table)
    grid = np.linspace(-1.0, 1.0, table.shape[0])
    assert np.array_equal(dist.points, grid[support])
    assert np.array_equal(dist.probs, probs)


class _SkewedTable(np.ndarray):
    """A value table whose products with a label weight read 1e-6 high."""

    def __matmul__(self, other):
        return np.asarray(self) @ other + 1e-6


def test_two_label_solver_certifies_its_solution():
    table = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]).view(_SkewedTable)
    with pytest.raises(NumericError, match="duality check") as info:
        _two_label_game(table)
    ctx = info.value.context
    assert ctx["dual"] - ctx["primal"] == pytest.approx(1e-6, rel=1e-6)
    assert ctx["rows"] == (2, 2)


def test_exact_two_label_game_needs_no_eps2_slack():
    """On squared-loss VAW the round value of the exact solution exceeds the
    potential by at most K eps1, with no solver term; the distribution is
    deterministic per seed."""
    loss = make_loss("squared")
    P = VawPotential(d=3, L=loss.L)
    rng = np.random.default_rng(17)
    states = [(P.zero(), P.sample_instance(rng))]
    states += [(P.sample_statistic(rng, max_rounds=5), P.sample_instance(rng))
               for _ in range(8)]
    for zeta, x in states:
        k, _ = P.prediction_lipschitz(zeta, x, loss)
        (dist, sample), (again, again_sample) = [
            predict_randomized(P, zeta, x, eps1=0.05, rng=np.random.default_rng(3),
                               loss=loss) for _ in range(2)]
        assert len(dist.points) <= 2
        assert np.array_equal(again.points, dist.points)
        assert np.array_equal(again.probs, dist.probs)
        assert again_sample == sample
        realized = realized_game_value(P, zeta, x, dist, loss)
        assert realized <= P.eval(zeta) + k * 0.05 + 1e-9


def test_a_fine_two_label_grid_takes_linear_memory():
    """eps1 = 1e-5 is a grid of 200,001 points: an N x N intermediate would
    take 3.2e11 bytes, the solver stays within 1 kB per point."""
    loss = make_loss("squared")
    P = VawPotential(d=2, L=loss.L)
    rng = np.random.default_rng(5)
    zeta, x = P.sample_statistic(rng, max_rounds=4), P.sample_instance(rng)
    tracemalloc.start()
    try:
        dist, _ = predict_randomized(P, zeta, x, eps1=1e-5, rng=rng, loss=loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dist.points) <= 2
    assert peak < 1000 * 200_001


def test_randomized_flat_table_returns_uniform():
    flat = _QuadValue(0.0)
    flat.round_values = lambda *a, **k: np.full((5, 129), 2.5)
    dist, _ = predict_randomized(flat, None, None, eps1=0.5,
                                 rng=np.random.default_rng(1),
                                 loss=make_loss("absolute"))
    assert np.allclose(dist.probs, 0.2)


def test_randomized_rejects_bad_tolerances_and_tables():
    loss = make_loss("absolute")
    with pytest.raises(DomainError):
        predict_randomized(_QuadValue(0.0), None, None, eps1=0.0,
                           rng=np.random.default_rng(0), loss=loss)
    broken = _QuadValue(0.0)
    broken.round_values = lambda *a, **k: np.full((5, 129), np.nan)
    with pytest.raises(NumericError):
        predict_randomized(broken, None, None, eps1=0.5,
                           rng=np.random.default_rng(0), loss=loss)
    # rock-paper-scissors: three live columns and no pure saddle point
    broken.round_values = lambda *a, **k: np.array([[0.0, 1.0, -1.0],
                                                    [-1.0, 0.0, 1.0],
                                                    [1.0, -1.0, 0.0]])
    with pytest.raises(DomainError, match="3 x 3 round table without a pure saddle"):
        predict_randomized(broken, None, None, eps1=1.0,
                           rng=np.random.default_rng(0), loss=loss)


def test_unrepresentable_eps_fail_before_building():
    """A grid size numpy cannot represent raises before round_values runs."""
    loss = make_loss("absolute")
    untouched = _QuadValue(0.0)

    def no_table(*args, **kwargs):
        raise AssertionError("built a value table")

    untouched.round_values = no_table
    for eps1 in (1e-300, 5e-324):  # a grid of 2e300 points; 2 / 5e-324 is inf
        with pytest.raises(DomainError, match="^eps1 = .* with B = 1 asks for a grid"):
            predict_randomized(untouched, None, None, eps1,
                               np.random.default_rng(0), loss)


def test_randomized_distribution_is_deterministic_per_seed():
    loss = make_loss("absolute")
    P = AdaGradPotential(d=2)
    zeta = P.stat_map(np.array([0.6, 0.2]), 0.1, 0.5)
    outs = []
    for _ in range(2):
        rng = np.random.default_rng(42)
        dist, sample = predict_randomized(P, zeta, np.array([0.3, -0.4]),
                                          eps1=0.1, rng=rng, loss=loss)
        outs.append((dist.probs.copy(), sample))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert outs[0][1] == outs[1][1]


def test_randomized_value_stays_within_the_declared_slack():
    """The distribution's worst-case round value may exceed the potential by
    at most K*eps1, the grid spacing's share: the solve itself is exact."""
    loss = make_loss("absolute")
    P = AdaGradPotential(d=3)
    rng = np.random.default_rng(9)
    eps = 0.1
    for _ in range(25):
        zeta = P.sample_statistic(rng, max_rounds=5)
        x = P.sample_instance(rng)
        dist, _ = predict_randomized(P, zeta, x, eps1=eps, rng=rng, loss=loss)
        realized = realized_game_value(P, zeta, x, dist, loss)
        budget = P.eval(zeta) + P.L * eps + 1e-9
        assert realized <= budget


def test_realized_game_value_is_exact_on_a_fine_grid():
    """On the eps1 = 0.004 grid the control points are closer than any
    fixed label grid, so the sup of a mixture over all of them must come
    from every gap between them. Brute force: the mixture at +-B, at every
    control point and at every gap midpoint, built from the three
    residuals F(-1), F(0), F(1)."""
    loss = make_loss("absolute")
    P = AdaGradPotential(d=2)
    rng = np.random.default_rng(21)
    points = np.minimum(-1.0 + 0.004 * np.arange(501), 1.0)
    for _ in range(10):
        zeta = P.sample_statistic(rng, max_rounds=6)
        x = P.sample_instance(rng)
        dist = GridDistribution(points, rng.dirichlet(np.ones(points.size)))
        z = np.unique(dist.points)
        ys = np.concatenate([[-1.0, 1.0], z, 0.5 * (z[:-1] + z[1:])])
        deltas = np.sign(dist.points[:, None] - ys[None, :])
        residual = {d: P.residual(zeta, x, d) for d in (-1.0, 0.0, 1.0)}
        table = dist.points[:, None] * deltas + np.vectorize(residual.get)(deltas)
        brute = float(np.max(dist.probs @ table))
        assert abs(realized_game_value(P, zeta, x, dist, loss) - brute) <= 1e-12


def _sup_family(name, loss):
    B, L = loss.B, loss.L
    if name == "adagrad":
        return AdaGradPotential(d=3, L=L, B=B)
    if name == "matrix":
        return MatrixPotential(2, 3, eta=0.5, L=L, B=B)
    if name == "param_free":
        return ParamFreePotential(n=12, d=3, B=B)
    if name == "vaw":
        return VawPotential(d=2, L=L, B=B)
    return matrix_meta(MatrixPotential(2, 2, eta=0.5, L=L, B=B))


@st.composite
def _sup_cases(draw):
    name = draw(st.sampled_from(["adagrad", "matrix", "param_free", "vaw", "meta"]))
    kind = draw(st.sampled_from(["absolute", "hinge", "squared"]))
    # param_free has L = 1, which squared loss (L = 4B) meets at B = 1/4
    B = 0.25 if (name, kind) == ("param_free", "squared") else 1.0
    unit = st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0))
    points = draw(st.lists(unit, min_size=1, max_size=5))
    points += [points[i % len(points)]
               for i in draw(st.lists(st.integers(0, 4), max_size=2))]
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=len(points),
                            max_size=len(points)))
    probs = np.asarray(weights) + 1e-3
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return name, make_loss(kind, B=B), B * np.asarray(points), probs / probs.sum(), seed


@settings(max_examples=60, deadline=None)
@given(_sup_cases())
def test_critical_labels_dominate_a_dense_label_grid(case):
    name, loss, points, probs, seed = case
    P = _sup_family(name, loss)
    rng = np.random.default_rng(seed)
    zeta = P.sample_statistic(rng, max_rounds=5)
    x = P.sample_instance(rng)
    t = int(rng.integers(1, 13))  # only param_free reads it
    B = loss.B

    def sup(ys):
        return float(np.max(probs @ P.round_values(zeta, x, points, ys, loss, t=t)))

    exact = sup(sup_labels(P, loss, points=points))
    assert exact >= sup(np.linspace(-B, B, 2001)) - 1e-12


def test_critical_label_sets():
    assert np.array_equal(make_loss("squared").critical_labels([0.3, 0.3]),
                          [-1.0, 1.0])
    assert np.array_equal(make_loss("hinge").critical_labels([]),
                          [-1.0, 0.0, 1.0])
    absolute = make_loss("absolute", B=2.0)
    assert np.array_equal(absolute.critical_labels(()), [-2.0, 2.0])
    # one label per gap between distinct points, the endpoints among them
    assert np.array_equal(absolute.critical_labels([1.0, -2.0, 0.0, 1.0, 2.0]),
                          [-2.0, 2.0, -1.0, 0.5, 1.5])


@pytest.mark.parametrize("kind", ["hinge", "absolute"])
@pytest.mark.parametrize("name", ["param_free", "adagrad", "adagrad_linf",
                                  "matrix", "meta"])
def test_linearizable_rounds_are_solved_exactly(name, kind):
    """On a linearizable family the hinge table is a two-label game floored
    by its constant y = 0 column, and the absolute-loss table has a pure
    saddle point: the solution takes at most two points and its realized
    value is the brute-force game value of the whole grid table."""
    loss = make_loss(kind)
    P = (AdaGradPotential(d=3, variant="linf") if name == "adagrad_linf"
         else _sup_family(name, loss))
    rng = np.random.default_rng(31)
    for eps1 in (0.5, 0.13, 0.05):
        pts = np.minimum(-1.0 + eps1 * np.arange(math.ceil(2.0 / eps1) + 1), 1.0)
        for _ in range(4):
            zeta, x = P.sample_statistic(rng, max_rounds=6), P.sample_instance(rng)
            t = int(rng.integers(1, 13))  # only param_free reads it
            dist, sample = predict_randomized(P, zeta, x, eps1, rng, loss, t=t)
            assert len(dist.points) <= 2 and sample in dist.points
            table = P.round_values(zeta, x, pts, sup_labels(P, loss, points=pts), loss, t=t)
            if kind == "hinge":
                constant = np.ptp(table, axis=0) == 0
                assert constant.tolist() == [False, True, False]
                brute = max(_pairwise_game_value(table[:, ~constant]), table[0, 1])
            else:
                brute = float(table.max(axis=1).min())
            realized = realized_game_value(P, zeta, x, dist, loss, t=t)
            assert abs(realized - brute) <= 1e-12 * max(1.0, np.ptp(table))


def test_grid_strategies_need_convexity_in_delta():
    loss = make_loss("absolute")
    P = combine_min([AdaGradPotential(d=2), AdaGradPotential(d=2, variant="linf")])
    assert not P.convex_in_delta
    zeta, x = P.zero(), np.array([0.6, 0.0])
    dist = GridDistribution(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    for call in (lambda: predict_linearized(P, zeta, x),
                 lambda: predict_convex(P, zeta, x, loss),
                 lambda: predict_randomized(P, zeta, x, 0.5,
                                            np.random.default_rng(0), loss),
                 lambda: realized_game_value(P, zeta, x, dist, loss),
                 lambda: round_descent(P, zeta, x, 0.0, loss)):
        with pytest.raises(DomainError, match="convex in delta"):
            call()


def test_run_online_bookkeeping():
    P = AdaGradPotential(d=2)
    loss = make_loss("absolute")
    rng = np.random.default_rng(3)
    seq = [(P.sample_instance(rng), float(rng.uniform(-1, 1))) for _ in range(10)]
    stats = [P.zero()]
    traj = run_online(P, "linearized", seq, loss,
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
        run_online(AdaGradPotential(d=2), "greedy", [], make_loss("absolute"))
    assert set(STRATEGIES) == {"linearized", "convex", "randomized"}


def test_randomized_runs_are_reproducible():
    P = AdaGradPotential(d=2)
    loss = make_loss("absolute")
    rng = np.random.default_rng(8)
    seq = [(P.sample_instance(rng), float(rng.uniform(-1, 1))) for _ in range(6)]
    t1 = run_online(P, "randomized", seq, loss,
                    rng=np.random.default_rng(5), eps1=0.2)
    t2 = run_online(P, "randomized", seq, loss,
                    rng=np.random.default_rng(5), eps1=0.2)
    assert [r.y_hat for r in t1.rounds] == [r.y_hat for r in t2.rounds]


def test_expected_loss_recording():
    P = AdaGradPotential(d=2)
    loss = make_loss("absolute")
    rng = np.random.default_rng(4)
    seq = [(P.sample_instance(rng), float(rng.uniform(-1, 1))) for _ in range(6)]
    traj, expected = run_randomized_expected(P, seq, loss, eps1=0.2,
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
    k, estimated = P.prediction_lipschitz(P.zero(), np.array([1.0, 0.0]), loss)
    assert (k, estimated) == (1.0, False)
    loss_sq = make_loss("squared")
    V = VawPotential(d=2, L=loss_sq.L)
    k, estimated = V.prediction_lipschitz(V.zero(), np.array([1.0, 0.0]),
                                          loss_sq)
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
    sampled = MappedPotential(inner, flat, sample_fn=lambda r: r.normal(size=(2, 3)))
    assert sampled.sample_instance(np.random.default_rng(0)).shape == (2, 3)


def test_mapped_potential_forwards_the_round_table():
    """A mapped family builds the inner family's table: the VAW closed form
    unchanged, and for AdaGrad the same entries as the generic table."""
    rng = np.random.default_rng(23)
    y_hats = np.linspace(-1.0, 1.0, 129)
    ys = np.array([-1.0, 1.0])
    loss_sq = make_loss("squared")
    vaw = VawPotential(d=3, L=loss_sq.L)
    mapped_vaw = MappedPotential(vaw, lambda x: x)
    zeta = vaw.sample_statistic(rng)
    x = vaw.sample_instance(rng)
    assert np.array_equal(mapped_vaw.round_values(zeta, x, y_hats, ys, loss_sq),
                          vaw.round_values(zeta, x, y_hats, ys, loss_sq))

    flat = lambda x: np.asarray(x, dtype=float).reshape(-1)
    ada = MappedPotential(AdaGradPotential(d=6), flat)
    loss_abs = make_loss("absolute")
    zeta = ada.zero() + ada.stat_map(rng.uniform(-0.4, 0.4, size=(2, 3)), 0.2, 1.0)
    X = rng.uniform(-0.4, 0.4, size=(2, 3))
    assert np.array_equal(ada.round_values(zeta, X, y_hats, ys, loss_abs, t=2),
                          Potential.round_values(ada, zeta, X, y_hats, ys, loss_abs, t=2))


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
        traj, _ = run_randomized_expected(P, seq, loss, 0.2,
                                          np.random.default_rng(1), on_round=on_round)
    else:
        traj = run_online(P, "linearized", seq, loss, on_round=on_round)
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

    traj = run_online(P, "linearized", seq, loss, on_round=on_round)
    assert len(refs) == 50
    assert most_alive <= 2  # this round's statistic and the one before it
    alive = [r() for r in refs if r() is not None]
    assert len(alive) == 1 and alive[0] is traj.final_statistic
    assert len(traj.zetas) == 1
