"""Sequence generators, comparator search, and CSV reports."""

import tracemalloc

import numpy as np
import pytest

from burkholder.errors import DomainError
from burkholder.harness import (CSV_HEADER, adversarial_gradient,
                                best_linear_comparator, build_report, comparator_grid,
                                least_squares_comparator, load_sequence,
                                matrix_completion, random_vectors)
from burkholder.harness import _design
from burkholder.losses import make_loss
from burkholder.potentials import AdaGradPotential
from burkholder.strategies import run_online
from burkholder.symlin import Entry
from game_oracle import comparator_losses
from sequence_csv import save_sequence


def test_matrix_completion_plants_a_nuclear_ball_matrix():
    rng = np.random.default_rng(0)
    seq = matrix_completion(40, 4, 3, rank=2, nuclear_radius=1.5, rng=rng)
    planted = seq.meta["planted"]
    assert np.linalg.svd(planted, compute_uv=False).sum() == pytest.approx(
        1.5, rel=1e-12)
    assert len(seq) == 40
    for x, ((i, j), y) in zip(seq.xs, zip(seq.meta["indices"], seq.ys)):
        x = np.asarray(x)
        assert x.shape == (4, 3)
        assert x[i, j] == 1.0 and x.sum() == 1.0
        assert y == planted[i, j]  # noise = 0, |entries| <= radius <= B is moot
        assert abs(y) <= 1.0


def test_matrix_completion_skew_prefers_some_indices():
    seq = matrix_completion(500, 6, 6, skew=2.0, rng=np.random.default_rng(1))
    rows = np.array([i for i, _ in seq.meta["indices"]])
    counts = np.bincount(rows, minlength=6)
    assert counts.max() > 3 * max(counts.min(), 1)


def test_random_vectors_stay_in_the_unit_ball():
    seq = random_vectors(200, 5, radius=2.0, noise=0.3, B=1.0,
                         rng=np.random.default_rng(2))
    assert np.linalg.norm(seq.meta["w_star"]) == pytest.approx(2.0, rel=1e-12)
    for x, y in seq:
        assert np.linalg.norm(x) <= 1.0 + 1e-12
        assert abs(y) <= 1.0


def test_adversarial_gradient_cycles_the_basis_in_sign_runs():
    n, d = 100, 4
    seq = adversarial_gradient(n, d, B=0.5, rng=np.random.default_rng(3))
    assert set(np.unique(seq.ys)) == {-0.5, 0.5}
    for t, x in enumerate(seq.xs):
        assert x[t % d] == 1.0 and x.sum() == 1.0
    signs = np.sign(seq.ys)
    run, longest = 1, 1
    for a, b in zip(signs, signs[1:]):
        run = run + 1 if a == b else 1
        longest = max(longest, run)
    assert longest <= max(2, int(np.sqrt(n)) + 1)


def test_vector_sequence_roundtrips_through_csv(tmp_path):
    seq = random_vectors(25, 3, rng=np.random.default_rng(4))
    path = tmp_path / "vec.csv"
    save_sequence(seq, path)
    back = load_sequence(path)
    assert back.kind == "random_vectors"
    assert len(back) == 25
    for x0, x1 in zip(seq.xs, back.xs):
        assert np.allclose(x0, x1, atol=1e-10)  # 12 significant digits on disk
    assert np.allclose(seq.ys, back.ys, atol=1e-10)


def test_matrix_sequence_roundtrips_with_dimensions(tmp_path):
    seq = matrix_completion(30, 5, 4, rng=np.random.default_rng(5))
    path = tmp_path / "mat.csv"
    save_sequence(seq, path)
    back = load_sequence(path, d1=5, d2=4)
    assert back.meta["indices"] == seq.meta["indices"]
    for x0, x1 in zip(seq.xs, back.xs):
        assert np.array_equal(x0, x1)
    assert np.allclose(seq.ys, back.ys, atol=1e-10)
    with pytest.raises(DomainError, match="d1 and d2"):
        load_sequence(path)


def test_sequence_loading_guards(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DomainError, match="empty"):
        load_sequence(empty)
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("a,b\n1,2\n")
    with pytest.raises(DomainError, match="unrecognized"):
        load_sequence(bad_header)
    for header in ("i,j,y,w\n1,0,0.25,9\n", "i,j\n1,0\n"):  # only i,j,y is a matrix header
        extra = tmp_path / "extra.csv"
        extra.write_text(header)
        with pytest.raises(DomainError, match="unrecognized"):
            load_sequence(extra, d1=3, d2=3)
    out_of_range = tmp_path / "oor.csv"
    out_of_range.write_text("i,j,y\n5,0,0.25\n")
    with pytest.raises(DomainError, match="outside"):
        load_sequence(out_of_range, d1=3, d2=3)


def test_comparator_losses_evaluates_a_fixed_predictor():
    xs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    ys = [0.5, -0.25]
    loss = make_loss("absolute", B=1.0)
    out = comparator_losses(xs, ys, loss, np.array([0.5, 0.25]))
    assert np.allclose(out, [0.0, 0.5])


def test_least_squares_recovers_an_exact_fit():
    xs = [np.array([1.0]), np.array([2.0])]
    comp = least_squares_comparator(xs, [1.0, 2.0], make_loss("squared", B=2.0))
    assert comp.w == pytest.approx(np.array([1.0]))
    assert comp.total_loss == pytest.approx(0.0, abs=1e-20)


def test_projected_descent_beats_the_zero_predictor():
    seq = random_vectors(60, 4, noise=0.05, rng=np.random.default_rng(6))
    loss = make_loss("squared", B=1.0)
    zero_total = float(np.sum(loss.value(np.zeros(60), seq.ys)))
    for ball in ("l2", "box"):
        comp = best_linear_comparator(seq.xs, seq.ys, loss, ball=ball,
                                      radius=1.0, iters=300)
        assert comp.total_loss <= zero_total + 1e-12
        assert ball in comp.description
    with pytest.raises(DomainError):
        best_linear_comparator(seq.xs, seq.ys, loss, radius=-1.0)
    with pytest.raises(DomainError, match="ball"):
        best_linear_comparator(seq.xs, seq.ys, loss, ball="l7", iters=2)


def test_zero_radius_gives_the_zero_comparator():
    """A radius-0 ball holds only w = 0, so every ball returns the zero
    predictor and its per-round losses."""
    loss = make_loss("absolute", B=1.0)
    vectors = random_vectors(30, 4, noise=0.1, rng=np.random.default_rng(8))
    matrices = matrix_completion(30, 3, 2, rng=np.random.default_rng(9))
    for ball, seq in (("l2", vectors), ("box", vectors), ("nuclear", matrices)):
        comp = best_linear_comparator(seq.xs, seq.ys, loss, ball=ball,
                                      radius=0.0, iters=20)
        assert not comp.w.any()
        np.testing.assert_array_equal(
            comp.per_round, loss.value(np.zeros(len(seq.ys)), seq.ys))


def test_nuclear_ball_comparator_respects_the_radius():
    seq = matrix_completion(40, 3, 3, rng=np.random.default_rng(7))
    loss = make_loss("absolute", B=1.0)
    comp = best_linear_comparator(seq.xs, seq.ys, loss, ball="nuclear",
                                  radius=1.0, iters=200)
    assert comp.w.shape == (3, 3)
    assert np.linalg.svd(comp.w, compute_uv=False).sum() <= 1.0 + 1e-9


def test_comparator_grid_is_sorted_best_first():
    seq = random_vectors(50, 3, rng=np.random.default_rng(8))
    loss = make_loss("absolute", B=1.0)
    grid = comparator_grid(seq.xs, seq.ys, loss)
    assert len(grid) == 41
    totals = [c.total_loss for c in grid]
    assert totals == sorted(totals)
    assert all("grid radius" in c.description for c in grid)


def test_comparator_grid_on_zero_labels_takes_a_unit_vector():
    """All-zero labels leave the absolute-loss subgradient at 0 zero, so the
    grid runs along e_0; taking it costs a vector, not a (d1 d2)^2 identity
    (103 MB at 60x60)."""
    seq = matrix_completion(20, 60, 60, rank=2, nuclear_radius=0.0, noise=0.0,
                            rng=np.random.default_rng(0))
    assert not np.any(seq.ys)
    loss = make_loss("absolute", B=1.0)
    tracemalloc.start()
    try:
        grid = comparator_grid(seq.xs, seq.ys, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    best = grid[0].w
    assert best.shape == (60, 60) and best[0, 0] > 0 and np.count_nonzero(best) == 1


class TestRegretReport:
    def _run(self, n=6):
        P = AdaGradPotential(d=2)
        seq = random_vectors(n, 2, rng=np.random.default_rng(9))
        loss = make_loss("absolute", B=1.0)
        bounds = [P.regret_bound(P.zero())]
        traj = run_online(P, "linearized", seq, loss,
                          on_round=lambda t, zeta_prev, rnd, zeta:
                          bounds.append(P.regret_bound(zeta)))
        comp = np.full(n, 0.125)
        return traj, comp, np.array(bounds)

    def test_rows_and_arithmetic(self):
        traj, comp, bounds = self._run()
        assert len(bounds) == traj.n + 1
        report = build_report(traj, comp, bounds)
        assert len(report.rows) == traj.n + 1
        assert report.rows[0] == (0, 0.0, 0.0, 0.0, 0.0, float(bounds[0]),
                                  float(traj.potential_values[0]))
        cum = cum_comp = 0.0
        for t, row in enumerate(report.rows[1:], start=1):
            cum += traj.rounds[t - 1].loss
            cum_comp += 0.125
            assert row[2] == pytest.approx(cum, rel=1e-15)
            assert row[4] == pytest.approx(cum - cum_comp, rel=1e-12)
        assert report.final_regret == report.rows[-1][4]
        assert report.final_bound == float(bounds[-1])

    def test_csv_bytes_are_deterministic(self):
        traj, comp, bounds = self._run()
        report = build_report(traj, comp, bounds)
        text = report.to_csv()
        assert text.splitlines()[0] == ",".join(CSV_HEADER)
        assert len(text.splitlines()) == traj.n + 2
        assert text == build_report(traj, comp, bounds).to_csv()

    def test_length_mismatches_are_rejected(self):
        traj, comp, bounds = self._run()
        with pytest.raises(DomainError, match="comparator"):
            build_report(traj, comp[:-1], bounds)
        with pytest.raises(DomainError, match="bounds"):
            build_report(traj, comp, bounds[:-1])


@pytest.mark.parametrize("kind", ["absolute", "squared"])
def test_entry_comparators_match_the_dense_design(kind):
    """Index entries gather w[k] and scatter by bincount; the results equal
    the stacked indicator rows' mat @ w and mat.T @ g."""
    rng = np.random.default_rng(21)
    seq = matrix_completion(80, 5, 4, rank=2, noise=0.1, rng=rng)
    dense = [np.asarray(x) for x in seq.xs]
    mat = np.stack([x.reshape(-1) for x in dense])
    forward, adjoint, shape = _design(seq.xs)
    assert shape == (5, 4)
    w, g = rng.normal(size=20), rng.normal(size=80)
    np.testing.assert_allclose(forward(w), mat @ w, rtol=0, atol=1e-12)
    np.testing.assert_allclose(adjoint(g), mat.T @ g, rtol=0, atol=1e-12)
    loss = make_loss(kind, B=1.0)
    for ball in ("nuclear", "l2"):
        a = best_linear_comparator(seq.xs, seq.ys, loss, ball=ball, iters=60)
        b = best_linear_comparator(dense, seq.ys, loss, ball=ball, iters=60)
        np.testing.assert_allclose(a.w, b.w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.per_round, b.per_round, rtol=0, atol=1e-12)
    np.testing.assert_allclose(comparator_losses(seq.xs, seq.ys, loss, w),
                               comparator_losses(dense, seq.ys, loss, w),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose([c.total_loss for c in comparator_grid(seq.xs, seq.ys, loss)],
                               [c.total_loss for c in comparator_grid(dense, seq.ys, loss)],
                               rtol=0, atol=1e-12)


def test_entry_least_squares_is_the_per_cell_mean():
    """All-Entry designs skip the dense lstsq: the minimum-norm fit is each
    observed cell's label mean and 0 on the cells never observed."""
    rng = np.random.default_rng(33)
    cells = [(0, 0), (0, 0), (0, 0), (1, 2), (2, 1), (2, 1), (0, 2)]
    xs = [Entry(i, j, (3, 4)) for i, j in cells]
    ys = rng.uniform(-1.0, 1.0, size=len(xs))
    loss = make_loss("squared", B=1.0)
    sparse = least_squares_comparator(xs, ys, loss)
    dense = least_squares_comparator([np.asarray(x) for x in xs], ys, loss)
    assert sparse.w.shape == dense.w.shape == (3, 4)
    np.testing.assert_allclose(sparse.w, dense.w, rtol=0, atol=1e-12)
    np.testing.assert_allclose(sparse.per_round, dense.per_round, rtol=0, atol=1e-12)
    assert sparse.total_loss == pytest.approx(dense.total_loss, abs=1e-12)
    assert sparse.w[0, 0] == pytest.approx(ys[:3].mean(), abs=1e-15)
    unobserved = np.ones((3, 4), dtype=bool)
    unobserved[tuple(zip(*cells))] = False
    assert np.all(sparse.w[unobserved] == 0.0)
