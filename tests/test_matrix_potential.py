"""Matrix family: softmax potential over dilation sums, doubling restarts."""

import math
import tracemalloc

import numpy as np
import pytest

from burkholder import symlin
from burkholder.errors import ConfigError, DomainError, TagMismatchError
from burkholder.harness import matrix_completion
from burkholder.losses import make_loss
from burkholder.potential import Potential
from burkholder.potentials import MatrixPotential, doubling_run
from burkholder.statistics import BlockSym, ScalarSym, map_slots
from burkholder.strategies import predict_linearized, run_online
from dilation_oracle import dilation, dilation_square, split
from stat_oracle import dense_form, sample_statistic


def _eval_oracle(P, stat):
    # recompute U from scratch: eigenvalues, max-shifted log-sum-exp
    H, M = split(stat, P.d1)
    arg = P.eta * H - 0.5 * P.eta ** 2 * P.L ** 2 * M
    lam = np.linalg.eigvalsh(arg)
    m = float(lam.max())
    lte = m + math.log(float(np.sum(np.exp(lam - m))))
    return stat.a + (P.r / P.eta) * lte - P.c / P.eta


def test_eval_matches_an_independent_recomputation():
    P = MatrixPotential(3, 2, eta=0.4, r=1.5)
    rng = np.random.default_rng(12)
    for _ in range(50):
        stat = sample_statistic(P, rng)
        assert P.eval(stat) == pytest.approx(_eval_oracle(P, stat), rel=1e-12)


def test_starts_at_zero_with_the_default_charge():
    P = MatrixPotential(3, 2, eta=0.5)
    assert abs(P.eval(P.zero())) < 1e-12
    assert P.c == pytest.approx(math.log(5.0))


def test_entry_zero_holds_only_its_index_map():
    """zero(like=Entry) is the BlockSym with no block: at d1 = d2 = 10^5 its
    only array is root, one index per row of Z, and building it allocates
    nothing of Z's size. At small d its U(0), V(0) and regret bound equal
    the dense zero's bit for bit."""
    d = 10 ** 5
    tracemalloc.start()
    zero = MatrixPotential(d, d, eta=0.5).zero(like=symlin.Entry(0, 0, (d, d)))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert isinstance(zero, BlockSym) and zero.blocks == {} and zero.a == 0.0
    assert [k for k, v in vars(zero).items() if isinstance(v, np.ndarray)] == ["root"]
    assert zero.root.shape == (2 * d,) and (zero.root == -1).all()
    assert peak <= 2 * zero.root.nbytes
    for d1, d2 in [(1, 1), (3, 2), (6, 5)]:
        P = MatrixPotential(d1, d2, eta=0.3, r=1.5, L=1.2)
        block, dense = P.zero(like=symlin.Entry(0, 0, (d1, d2))), P.zero()
        assert isinstance(block, BlockSym) and isinstance(dense, ScalarSym)
        for value in (P.eval, P.bound, P.regret_bound):
            assert value(block) == value(dense)


def test_a_dense_instance_on_a_block_statistic_is_refused():
    """An entry run's statistic is a BlockSym; a dense instance against it
    raises TagMismatchError naming both forms, as their sum does."""
    P = MatrixPotential(3, 2, eta=0.5)
    zero = P.zero(like=symlin.Entry(0, 0, (3, 2)))
    zeta = zero + P.stat_map(symlin.Entry(1, 1, (3, 2)), 0.2, 0.5)
    x = np.asarray(symlin.Entry(2, 0, (3, 2)))
    for stat in (zero, zeta):
        with pytest.raises(TagMismatchError, match="BlockSym with .*ScalarSym"):
            P.residual(stat, x, np.array([-1.0, 1.0]))
        with pytest.raises(TagMismatchError, match="BlockSym with ScalarSym"):
            stat + P.stat_map(x, 0.0, 1.0)


def test_statistic_map_layout():
    P = MatrixPotential(2, 2, eta=0.5)
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    stat = P.stat_map(x, 0.25, -1.0)
    assert stat.a == -0.25
    H, M = split(stat, 2)
    assert np.array_equal(H, -dilation(x))
    assert np.array_equal(M, dilation_square(x))
    assert np.linalg.eigvalsh(M).min() >= 0
    with pytest.raises(DomainError):
        P.stat_map(np.zeros((3, 2)), 0.0, 0.0)


def test_bound_never_exceeds_the_potential():
    P = MatrixPotential(3, 2, eta=0.5)
    rng = np.random.default_rng(14)
    for _ in range(200):
        stat = sample_statistic(P, rng)
        assert P.bound(stat) <= P.eval(stat) + 1e-10


def test_bound_formula():
    P = MatrixPotential(2, 2, eta=0.5, r=2.0)
    rng = np.random.default_rng(15)
    stat = sample_statistic(P, rng)
    H, M = split(stat, 2)
    lam1 = float(np.linalg.eigvalsh(H - 0.25 * M).max())
    assert P.bound(stat) == pytest.approx(stat.a + 2.0 * lam1 - 2.0 * math.log(4.0) / 0.5,
                                          rel=1e-12)


def test_prediction_is_zero_at_the_start_and_tracks_observations():
    P = MatrixPotential(2, 2, eta=0.5)
    x = np.zeros((2, 2))
    x[0, 0] = 1.0
    assert abs(predict_linearized(P, P.zero(), x)[0]) < 1e-12
    # after seeing y = +1 at this cell the next prediction moves up
    zeta = P.stat_map(x, 0.0, -1.0)  # subgradient of |0 - 1|
    assert predict_linearized(P, zeta, x)[0] > 0.0
    other = np.zeros((2, 2))
    other[1, 1] = 1.0
    assert abs(predict_linearized(P, zeta, other)[0]) < 1e-12


def test_comparator_bound_reads_the_drift_slot():
    P = MatrixPotential(2, 2, eta=0.5, r=2.0)
    rng = np.random.default_rng(18)
    stat = sample_statistic(P, rng)
    mnorm = float(np.linalg.eigvalsh(split(stat, 2)[1]).max())
    expected = 0.5 * 0.5 * 2.0 * mnorm + 2.0 * math.log(4.0) / 0.5
    assert P.regret_bound(stat) == pytest.approx(expected, rel=1e-12)
    # uniform over the comparator ball: the comparator argument is ignored
    assert P.regret_bound(stat) == P.regret_bound(stat, np.ones((2, 2)))


def test_comparator_norm_follows_the_comparator_entries():
    """A comparator changed in place is a new comparator: its nuclear norm,
    and with it the charge outside the radius-r ball, must follow."""
    loss = make_loss("absolute")
    P = MatrixPotential(4, 4, eta=0.5)
    seq = matrix_completion(50, 4, 4, rank=1, rng=np.random.default_rng(5))
    zeta = run_online(P, "linearized", seq, loss).final_statistic
    w = 0.2 * np.eye(4)
    small = P.regret_bound(zeta, w)
    w *= 10.0
    fresh = MatrixPotential(4, 4, eta=0.5).regret_bound(zeta, w.copy())
    assert fresh > small
    assert P.regret_bound(zeta, w) == fresh
    assert P.regret_bound(zeta, w / 10.0) == small


def test_variance_and_drift_norm_read_the_two_block_parts():
    """variance is ||M|| and drift_norm ||sum delta X||_sigma = lambda_1(H)
    for a statistic and a stack, built from Entry or dense instances."""
    P = MatrixPotential(4, 3, eta=0.5)
    rng = np.random.default_rng(40)
    entries = [symlin.Entry(int(rng.integers(0, 4)), int(rng.integers(0, 3)), (4, 3))
               for _ in range(6)]
    stacks = [sum((P.stat_map(x, 0.0, rng.uniform(-1, 1, 5)) for x in entries),
                  map_slots(lambda z: np.zeros((5,) + np.shape(z)), P.zero())),
              P.stat_map(P.sample_instances(rng, 5), 0.0, rng.uniform(-1, 1, 5))
              + P.stat_map(P.sample_instances(rng, 5), 0.0, rng.uniform(-1, 1, 5))]
    for stack in stacks:
        H, M = split(stack, 4)
        assert np.allclose(P.variance(stack), np.linalg.eigvalsh(M)[:, -1],
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(P.drift_norm(stack), np.linalg.eigvalsh(H)[:, -1],
                           rtol=1e-12, atol=1e-12)
        one = map_slots(lambda z: z[1], stack)
        assert P.variance(one) == pytest.approx(np.linalg.eigvalsh(M[1])[-1], rel=1e-12)
        assert P.drift_norm(one) == pytest.approx(np.linalg.eigvalsh(H[1])[-1], rel=1e-12)
    assert P.variance(P.zero()) == 0.0 and P.drift_norm(P.zero()) == 0.0


def test_dense_variance_of_a_stack_is_one_eigensolve_of_the_live_block(monkeypatch):
    """Dense instances that leave row 3 and column 2 of X empty: ||M|| of a
    stack is one batched eigvalsh of M's 5 x 5 live block, within 1e-12
    relative of the larger top eigenvalue of M's two diagonal blocks."""
    P = MatrixPotential(4, 3, eta=0.5)
    rng = np.random.default_rng(41)
    x = P.sample_instances(rng, 5)
    x[:, 3, :] = x[:, :, 2] = 0.0
    stack = P.stat_map(x, 0.0, rng.uniform(-1, 1, 5)) + P.stat_map(
        x[::-1], 0.0, rng.uniform(-1, 1, 5))
    solve = np.linalg.eigvalsh
    want = np.maximum(solve(stack.Z[:, :4, :4])[:, -1], solve(stack.Z[:, 4:, 4:])[:, -1])
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or solve(a))
    got = P.variance(stack)
    assert calls == [(5, 5, 5)]
    assert got.shape == (5,)
    assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_increment_bound_dominates_sampled_moves():
    P = MatrixPotential(3, 2, eta=0.5)
    rng = np.random.default_rng(20)
    cap = P.increment_bound()
    for _ in range(300):
        tau = sample_statistic(P, rng)
        step = P.stat_map(P.sample_instance(rng),
                          float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        assert (P.eval(tau + step) - P.eval(tau)) ** 2 <= cap + 1e-12


def test_configuration_guards():
    with pytest.raises(ConfigError):
        MatrixPotential(0, 2, eta=0.5)
    with pytest.raises(ConfigError):
        MatrixPotential(2, 2, eta=0.0)
    with pytest.raises(ConfigError):
        MatrixPotential(2, 2, eta=0.5, r=-1.0)
    with pytest.raises(ConfigError):
        MatrixPotential(2, 2, eta=0.5, L=0.0)
    loose = MatrixPotential(2, 2, eta=0.5)
    loose.c = 0.5 * math.log(4.0)  # half of the derived c = r log(d1+d2)
    assert loose.eval(loose.zero()) > 0.0


def test_doubling_restarts_on_the_budget_schedule():
    """Same-cell indicators grow the drift norm by one per round, so epochs
    close exactly when the running count hits 1, 2, 4, 8."""
    loss = make_loss("absolute")
    x = np.zeros((2, 2))
    x[0, 0] = 1.0
    seq = [(x, 1.0)] * 10
    traj, epochs = doubling_run(2, 2, seq, loss)
    assert [e[0] for e in epochs] == [1, 2, 4, 8]
    assert [e[2] for e in epochs] == [1.0, 2.0, 4.0, 8.0]
    c = math.log(4.0)
    for _, eta, budget in epochs:
        assert eta == pytest.approx(math.sqrt(2.0 * c / budget), rel=1e-12)
    assert traj.n == 10
    # each epoch's potential stays nonpositive along its own rounds
    assert max(traj.potential_values) <= 1e-10
    with pytest.raises(DomainError):
        doubling_run(2, 2, seq, loss, R=0.0)


def test_doubling_entry_run_is_never_densified(monkeypatch):
    """doubling_run on Entry instances opens each epoch from the zero
    BlockSym: across its epochs no ScalarSym is built, the dense zero
    included, and no Entry is read as its matrix."""
    loss = make_loss("absolute")
    seq = matrix_completion(40, 4, 3, rank=1, rng=np.random.default_rng(9))

    def refuse(*args, **kwargs):
        raise AssertionError("entry run densified")

    monkeypatch.setattr(symlin.Entry, "__array__", refuse)
    monkeypatch.setattr(ScalarSym, "__init__", refuse)
    before = []
    traj, epochs = doubling_run(4, 3, seq, loss,
                                on_round=lambda t, zeta_prev, rnd, zeta: before.append(zeta_prev))
    assert len(epochs) >= 3
    assert all(isinstance(z, BlockSym) for z in before + [traj.final_statistic])
    assert all(before[start - 1].blocks == {} for start, _, _ in epochs)


def test_doubling_records_values_as_the_play_loop_does():
    """doubling_run takes U after a round at delta = +-L from the
    prediction's residuals, with each epoch's own potential, as run_online
    does; the value agrees with eval within 1e-12."""
    loss = make_loss("absolute")
    seq = matrix_completion(40, 3, 3, rank=1, rng=np.random.default_rng(9))
    calls = []
    traj, epochs = doubling_run(3, 3, seq, loss, R=0.5,
                                on_round=lambda t, zeta_prev, rnd, zeta:
                                calls.append((zeta_prev, rnd, zeta)))
    assert len(epochs) >= 3
    for (_, _, budget), (end, _, _) in zip(epochs, epochs[1:]):
        # the round that fills a budget reports its statistic before the
        # reset, and the next round plays from the zero statistic
        zeta = calls[end - 2][2]
        assert MatrixPotential(3, 3, eta=1.0).variance(zeta) >= budget * (1 - 1e-12)
        assert not calls[end - 1][0].Z.any()
    for zeta_prev, rnd, zeta in calls:
        eta = [e[1] for e in epochs if e[0] <= rnd.t][-1]
        pot = MatrixPotential(3, 3, eta=eta)
        value = traj.potential_values[rnd.t]
        if abs(rnd.delta) == loss.L:
            assert value == rnd.y_hat * rnd.delta + pot.residual(zeta_prev, rnd.x, rnd.delta)
        else:
            assert value == pot.eval(zeta, t=rnd.t)
        assert abs(pot.eval(zeta) - value) <= 1e-12 * max(1.0, abs(value))


def test_doubling_without_a_restart_is_run_online():
    """While no budget fills, doubling_run is the linearized run_online of
    its first epoch's potential, bit for bit."""
    loss = make_loss("absolute")
    seq = matrix_completion(30, 3, 4, rank=1, rng=np.random.default_rng(2))
    R, c = 10.0, math.log(7.0)
    traj, epochs = doubling_run(3, 4, seq, loss, R=R)
    eta = math.sqrt(2.0 * c / (loss.L ** 2 * R ** 2))
    assert epochs == [(1, eta, R ** 2)]
    ref = run_online(MatrixPotential(3, 4, eta=eta), "linearized", seq, loss)
    assert traj.potential_values == ref.potential_values
    assert traj.rounds == ref.rounds
    assert traj.final_statistic.a == ref.final_statistic.a
    assert np.array_equal(traj.final_statistic.Z, ref.final_statistic.Z)


def test_doubling_on_an_empty_sequence_keeps_the_zero_statistic():
    loss = make_loss("absolute")
    traj, epochs = doubling_run(2, 3, [], loss)
    assert traj.n == 0 and len(epochs) == 1 and epochs[0][0] == 1
    zero = MatrixPotential(2, 3, eta=1.0).zero()
    assert traj.final_statistic.a == zero.a
    assert np.array_equal(traj.final_statistic.Z, zero.Z)
    assert traj.potential_values == [MatrixPotential(2, 3, eta=epochs[0][1]).eval(zero)]


def test_full_run_certificate_and_regret():
    loss = make_loss("absolute")
    rng = np.random.default_rng(22)
    seq = matrix_completion(60, 4, 3, rank=2, rng=rng)
    P = MatrixPotential(4, 3, eta=0.25)
    traj = run_online(P, "linearized", seq, loss)
    assert P.bound(traj.final_statistic) <= 1e-10
    comp = np.asarray(loss.value(
        np.array([float(np.sum(seq.meta["planted"] * x)) for x in seq.xs]),
        seq.ys))
    regret = traj.cumulative_loss - float(comp.sum())
    assert regret <= P.regret_bound(traj.final_statistic) + 1e-9


def test_entry_statistics_match_the_dense_spectral_reference():
    """Completion statistics leave unseen rows and columns at zero, so the
    spectra come from the live block; every spectral value must still match
    a dense eigvalsh of the full (d1 + d2)^2 argument."""
    P = MatrixPotential(6, 5, eta=0.3, r=1.5, L=1.2)
    rng = np.random.default_rng(24)
    zeta = P.zero(like=symlin.Entry(0, 0, (6, 5)))
    for _ in range(12):
        x = symlin.Entry(int(rng.integers(0, 4)), int(rng.integers(0, 3)), (6, 5))
        delta = float(rng.uniform(-1.0, 1.0))
        assert P.residual(zeta, x, delta) == pytest.approx(
            _eval_oracle(P, zeta + P.stat_map(x, 0.0, delta)), rel=1e-12, abs=1e-12)
        zeta = zeta + P.stat_map(x, float(rng.uniform(-1.0, 1.0)), delta)
        assert P.eval(zeta) == pytest.approx(_eval_oracle(P, zeta), rel=1e-12, abs=1e-12)
        k = 0.5 * P.eta * P.L ** 2
        H, M = split(zeta, P.d1)
        lam1 = float(np.linalg.eigvalsh(H - k * M).max())
        assert P.bound(zeta) == pytest.approx(
            zeta.a + P.r * lam1 - P.c / P.eta, rel=1e-12, abs=1e-12)
        mnorm = float(np.linalg.eigvalsh(M).max())
        assert P.regret_bound(zeta) == pytest.approx(
            k * P.r * mnorm + P.c / P.eta, rel=1e-12, abs=1e-12)
    # rows 4, 5 and columns 3, 4 were never drawn: the block is 7 of 11 at most
    assert not np.any(zeta.Z[[4, 5, 9, 10]])


def test_block_residual_matches_the_derived_residual():
    """The override answers a stack of deltas from zeta's live block widened
    by the instance's rows; it must equal the derived U(zeta + T(x, 0,
    delta)) within 1e-12 relative for an Entry and a dense instance, an
    instance whose rows are not yet live, the zero statistic, and a
    statistic whose drift H reaches rows where diag(M) is 0 (not reachable
    by play, so the live rows must be read from the entries)."""
    P = MatrixPotential(6, 5, eta=0.3, r=1.5, L=1.2)
    rng = np.random.default_rng(31)
    seen = P.stat_map(symlin.Entry(0, 1, (6, 5)), 0.4, 1.0) + P.stat_map(
        symlin.Entry(2, 0, (6, 5)), -0.2, -0.7)
    H = np.zeros((11, 11))
    H[4, 9] = H[9, 4] = 0.8  # rows 4 and 9 have diag(M) = 0
    odd = ScalarSym(0.3, H + split(seen, 6)[1])
    dense = P.sample_instance(rng)
    dense[[1, 5], :] = 0.0
    dense[:, 2] = 0.0
    cases = [(P.zero(like=symlin.Entry(3, 4, (6, 5))), symlin.Entry(3, 4, (6, 5))),
             (P.zero(), dense),
             (seen, symlin.Entry(0, 1, (6, 5))),  # rows already live
             (seen, symlin.Entry(5, 3, (6, 5))),  # rows not yet live
             (dense_form(seen), dense),
             (sample_statistic(P, rng), dense),
             (odd, symlin.Entry(1, 1, (6, 5))),
             (odd, dense)]
    deltas = np.array([-1.2, 1.2, 0.0, 0.37])
    for zeta, x in cases:
        got = P.residual(zeta, x, deltas)
        want = Potential.residual(P, dense_form(zeta), x, deltas)
        assert got.shape == (4,)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        for d, g in zip(deltas, got):
            assert P.residual(zeta, x, d) == g  # one delta: the same block


def _entries_statistic(P, cells, rng):
    """The statistic of rounds on the given cells, with random y_hat and delta."""
    zeta = P.zero(like=symlin.Entry(0, 0, (P.d1, P.d2)))
    for i, j in cells:
        zeta = zeta + P.stat_map(symlin.Entry(i, j, (P.d1, P.d2)),
                                 float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
    return zeta


def _assert_matches_evals(P, zeta, x, deltas, got):
    for d, g in zip(deltas, got):
        want = P.eval(zeta + P.stat_map(x, 0.0, d))
        assert abs(g - want) <= 1e-12 * max(1.0, abs(want))
        assert abs(g - _eval_oracle(P, zeta + P.stat_map(x, 0.0, d))) <= 1e-12 * max(1.0, abs(want))


def test_residual_is_even_when_no_path_joins_the_cell():
    """Row 3 is live through column 0 and row 2, but no path of Z's nonzeros
    reaches column 4: F(zeta, x, delta) = F(zeta, x, -delta) bit for bit,
    each within 1e-12 of an independent eval and of the dense instance's
    residual, which is even bit for bit too, and the prediction is 0."""
    P = MatrixPotential(6, 5, eta=0.3, r=1.5, L=1.2)
    rng = np.random.default_rng(51)
    zeta = _entries_statistic(P, [(0, 1), (2, 0), (3, 0), (5, 2), (5, 3)], rng)
    x = symlin.Entry(3, 4, (6, 5))
    assert not symlin.connects(zeta.Z, [3], [6 + 4])
    deltas = np.array([-1.2, 1.2, -0.4, 0.4, 0.0])
    got = P.residual(zeta, x, deltas)
    assert got[0] == got[1] and got[2] == got[3]
    dense, dense_zeta = np.asarray(x), dense_form(zeta)
    for d in deltas:
        assert P.residual(zeta, x, d) == P.residual(zeta, x, -d)
        assert P.residual(dense_zeta, dense, d) == P.residual(dense_zeta, dense, -d)
        assert abs(P.residual(zeta, x, d) - P.residual(dense_zeta, dense, d)) <= 1e-12
    _assert_matches_evals(P, zeta, x, deltas, got)
    assert predict_linearized(P, zeta, x)[0] == 0.0


@pytest.mark.parametrize("cells", [[(0, 1), (2, 3)],  # the cell itself was observed
                                   [(0, 3), (2, 3), (2, 1)]])  # row 0 - col 3 - row 2 - col 1
def test_residual_keeps_the_sign_when_a_path_joins_the_cell(cells):
    P = MatrixPotential(6, 5, eta=0.3, r=1.5, L=1.2)
    zeta = _entries_statistic(P, cells, np.random.default_rng(52))
    x = symlin.Entry(0, 1, (6, 5))
    assert symlin.connects(zeta.Z, [0], [6 + 1])
    deltas = np.array([-1.2, 1.2])
    got = P.residual(zeta, x, deltas)
    assert abs(got[0] - got[1]) > 1e-6
    _assert_matches_evals(P, zeta, x, deltas, got)


def test_stacked_prediction_keeps_the_sign_rule_member_by_member():
    """predict_linearized on a dense stack of statistics, one one-cell
    instance each: a member that symlin.connects finds no path for predicts
    exactly 0 from two equal residuals, and every member is within 1e-12 of
    its own call (the stack's live block is the members' union, so the bits
    can differ)."""
    P = MatrixPotential(4, 3, eta=0.4)
    rng = np.random.default_rng(53)
    zetas, xs = [], np.zeros((40, 4, 3))
    for x in xs:
        zeta = P.zero()
        for _ in range(rng.integers(0, 7)):
            cell = np.zeros((4, 3))
            cell[rng.integers(4), rng.integers(3)] = rng.uniform(-1, 1)
            zeta = zeta + P.stat_map(cell, rng.uniform(-1, 1), rng.uniform(-1, 1))
        zetas.append(zeta)
        x[rng.integers(4), rng.integers(3)] = rng.uniform(0.1, 1)
    y_hat, f = predict_linearized(P, map_slots(lambda *s: np.stack(s), *zetas), xs)
    apart = [not symlin.connects(z.Z, np.flatnonzero(x.any(1)), 4 + np.flatnonzero(x.any(0)))
             for z, x in zip(zetas, xs)]
    assert 0 < sum(apart) < len(xs)
    for i, (zeta, x) in enumerate(zip(zetas, xs)):
        y_i, pair = predict_linearized(P, zeta, x)
        if apart[i]:
            assert y_hat[i] == y_i == 0.0 and f[i, 0] == f[i, 1]
        else:
            assert y_hat[i] != 0.0
        assert abs(y_hat[i] - y_i) <= 1e-12
        assert np.allclose(f[i], pair, rtol=1e-12, atol=1e-12)


def test_residual_of_a_dense_instance_across_separate_components():
    """A dense x with rows {0, 1} and columns {2, 3}: Z links rows 0, 1 to
    column 0 and columns 2, 3 to row 4, so no path joins x's rows to its
    columns and F is even in delta; one more cell joining them makes the
    sign count again."""
    P = MatrixPotential(6, 5, eta=0.3, r=1.5, L=1.2)
    rng = np.random.default_rng(53)
    x = np.zeros((6, 5))
    x[np.ix_([0, 1], [2, 3])] = rng.normal(size=(2, 2))
    x /= symlin.spectral_norm(x)
    deltas = np.array([-1.2, 1.2, 0.7])
    apart = _entries_statistic(P, [(0, 0), (1, 0), (4, 2), (4, 3)], rng)
    joined = dense_form(apart + P.stat_map(symlin.Entry(4, 0, (6, 5)), 0.2, 0.9))
    apart = dense_form(apart)
    got = P.residual(apart, x, deltas)
    assert got[0] == got[1]
    _assert_matches_evals(P, apart, x, deltas, got)
    got = P.residual(joined, x, deltas)
    assert abs(got[0] - got[1]) > 1e-6
    _assert_matches_evals(P, joined, x, deltas, got)


def test_residual_of_a_stack_of_instances_reads_the_union_of_their_cells():
    """One instance per delta: with no path joining the union of the
    members' rows to that of their columns, F is even in each delta; once
    a member's cell is joined, the signs count. Both match the derived
    residual."""
    P = MatrixPotential(6, 5, eta=0.3, r=1.5, L=1.2)
    zeta = dense_form(_entries_statistic(P, [(0, 1), (2, 0), (2, 3)], np.random.default_rng(54)))
    xs = np.zeros((3, 6, 5))
    xs[0, 0, 4] = xs[1, 5, 0] = xs[2, 3, 3] = 1.0  # no member's cell is joined
    deltas = np.array([0.8, -0.5, 1.1])
    got = P.residual(zeta, xs, deltas)
    assert np.array_equal(got, P.residual(zeta, xs, -deltas))
    assert np.allclose(got, Potential.residual(P, zeta, xs, deltas), rtol=1e-12, atol=0.0)
    xs[1, 2, 3] = 0.5  # Z joins row 2 to column 3: this member's sign counts
    got = P.residual(zeta, xs, deltas)
    assert not np.array_equal(got, P.residual(zeta, xs, -deltas))
    assert np.allclose(got, Potential.residual(P, zeta, xs, deltas), rtol=1e-12, atol=0.0)


def _entry_and_dense_play(P_of, seq, loss, doubling=False):
    """(Entry trajectory, dense trajectory, Entry run's (zeta_prev, x) per
    round): the same rounds played on Entry instances, whose statistic is a
    BlockSym, and on their dense matrices, whose statistic is a ScalarSym."""
    seen = []
    dense = [(np.asarray(x), y) for x, y in seq]
    if doubling:
        d1, d2 = seq[0][0].shape
        kw = dict(R=0.5, on_round=lambda t, zp, rnd, z: seen.append((zp, rnd.x)))
        return (doubling_run(d1, d2, seq, loss, **kw)[0],
                doubling_run(d1, d2, dense, loss, R=0.5)[0], seen)
    block = run_online(P_of(), "linearized", seq, loss,
                       on_round=lambda t, zp, rnd, z: seen.append((zp, rnd.x)))
    return block, run_online(P_of(), "linearized", dense, loss), seen


def _opposite_signs_sequence():
    """Absolute-loss rounds on a 4 x 3 grid where cell (0, 0) comes back
    with the opposite label: its off-diagonal entry cancels to 0."""
    cells = [(0, 0, 1.0), (0, 0, -1.0), (0, 1, 0.5), (1, 1, -0.3), (1, 0, 0.8),
             (0, 0, 1.0), (2, 2, -0.6), (0, 0, -1.0), (2, 1, 0.4), (1, 0, -0.9)]
    return [(symlin.Entry(i, j, (4, 3)), y) for i, j, y in cells]


@pytest.mark.parametrize("case", ["absolute", "hinge", "squared", "doubling", "opposite"])
def test_entry_play_on_blocks_equals_dense_play(case, monkeypatch):
    """Entry play keeps Z as blocks, one per connected component, and
    factors only the block a round forms; dense play factors Z's live
    block. Predictions and potential values agree within 1e-12 of
    max(1, |value|), for absolute loss (delta = +-L), hinge (its delta = 0
    rounds add diagonal entries but no edge), squared (delta off +-L, so
    eval), the doubling trick, and a cell whose entry cancels to 0, and so
    do U, V, ||M|| and ||sum delta X||_sigma at the last statistic. The
    sign rule (one spectrum, F(-L) = F(+L) bit for bit) fires exactly on
    the rounds where no path of Z joins the cell's row and column."""
    loss = make_loss("absolute" if case in ("doubling", "opposite") else case)
    if case == "opposite":
        seq, d1 = _opposite_signs_sequence(), 4
    else:
        seq, d1 = list(matrix_completion(80, 6, 5, rank=2, noise=0.05,
                                         rng=np.random.default_rng(61))), 6
    P_of = lambda: MatrixPotential(d1, seq[0][0].shape[1], eta=0.4, L=loss.L, B=loss.B)
    block, dense, seen = _entry_and_dense_play(P_of, seq, loss, doubling=case == "doubling")
    for got, want in [([r.y_hat for r in block.rounds], [r.y_hat for r in dense.rounds]),
                      ([r.delta for r in block.rounds], [r.delta for r in dense.rounds]),
                      (block.potential_values, dense.potential_values)]:
        got, want = np.array(got), np.array(want)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    assert np.allclose(block.final_statistic.Z, dense.final_statistic.Z, rtol=0, atol=1e-12)
    P = P_of()
    final = block.final_statistic
    assert isinstance(final, BlockSym)
    for value in (P.eval, P.bound, P.variance, P.drift_norm, P.regret_bound):
        want = value(ScalarSym(final.a, final.Z))
        assert abs(value(final) - want) <= 1e-12 * max(1.0, abs(want))
    fired, apart, shapes = [], [], []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    for zeta, x in seen:
        P.eval(zeta)  # every block's spectrum is cached now
        shapes.clear()
        f = P.residual(zeta, x, np.array([-1.0, 1.0]))
        (shape,) = shapes  # one spectrum under the rule, else a stacked pair
        fired.append(shape[0] == 1)
        assert f[0] == f[1] or not fired[-1]
        apart.append(not symlin.connects(zeta.Z, [x.i], [d1 + x.j]))
    assert fired == apart
    if case == "hinge":  # y_hat = 0 meets every label with delta = 0: no edge, ever
        assert all(r.delta == 0 for r in block.rounds) and all(fired)
    else:
        assert any(fired) and not all(fired)
    if case == "opposite":
        # round 2 cancels cell (0, 0): row 0 and column 0 part again
        after = seen[2][0]
        assert isinstance(after, BlockSym) and after.root[0] != after.root[4]
        assert after.Z[0, 4] == 0.0 and after.Z[0, 0] == 2.0


def test_entry_play_factors_only_new_blocks(monkeypatch):
    """On an absolute-loss entry run a round takes one spectrum for the
    block its step forms and, when it does not touch it, one for the block
    the previous round formed: a block no round has changed since the
    potential last read it keeps its log-sum-exp. Round 1 reads the zero
    BlockSym, which has no block."""
    loss = make_loss("absolute")
    seq = list(matrix_completion(80, 6, 5, rank=2, noise=0.05, rng=np.random.default_rng(61)))
    P = MatrixPotential(6, 5, eta=0.4, L=loss.L, B=loss.B)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    per_round = []
    traj = run_online(P, "linearized", seq, loss,
                      on_round=lambda t, zeta, rnd, nxt: per_round.append(len(calls)))
    assert {r.delta for r in traj.rounds} == {-1.0, 1.0}
    assert set(np.diff(per_round).tolist()) == {1, 2}
