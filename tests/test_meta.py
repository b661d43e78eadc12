"""Softmax aggregation and pointwise min/convex combinations."""

import math

import numpy as np
import pytest

from burkholder.errors import ConfigError, DomainError
from burkholder.potential import Potential
from burkholder.potentials import (AdaGradPotential, CombinedPotential,
                                   MatrixPotential, MetaPotential,
                                   ParamFreePotential, VawPotential,
                                   combine_convex, combine_min, matrix_meta)
from burkholder.statistics import BlockSym, ScalarVec
from burkholder.symlin import Entry, spectral_norm
from stat_oracle import sample_statistic


def _meta_pair(eta=0.25):
    matrix = MatrixPotential(3, 2, eta=0.5)
    ada = AdaGradPotential(d=(3, 2))
    return MetaPotential([(matrix, matrix.increment_bound()),
                          (ada, ada.increment_bound())], eta=eta)


def test_matrix_meta_charges_adagrad_for_matrix_instances():
    """162 rounds of a X / sqrt(2) with X = [[1, 0], [0, 1], [0, 0]], then the
    round x = -X, y_hat = -1, delta = 1: both instances have spectral norm
    <= 1, and the AdaGrad member moves by -4.83, past the unit-l2 charge of
    16 and within the charge C its meta family holds for it."""
    meta = matrix_meta(MatrixPotential(3, 2, eta=0.5))
    ada = meta.members[1]
    X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    n, a = 162, math.sqrt(0.05 / 162)
    xs = np.broadcast_to(a * X / math.sqrt(2.0), (n, 3, 2))
    assert spectral_norm(X) == 1.0 and np.all(spectral_norm(xs) <= 1.0)
    tau = ada.zero()
    for x in xs:
        tau = tau + ada.stat_map(x, 0.0, 1.0)
    assert float(tau.s) == pytest.approx(0.05)
    move = float(ada.eval(tau + ada.stat_map(-X, -1.0, 1.0)) - ada.eval(tau))
    assert move == pytest.approx(-4.83, abs=5e-3)
    assert 16.0 < move ** 2 <= meta.C[1]
    assert meta.C[1] == pytest.approx((1.0 + 3.0 * math.sqrt(2.0)) ** 2)


def test_single_member_reduces_to_a_drift_corrected_copy():
    inner = MatrixPotential(3, 2, eta=0.5)
    meta = MetaPotential([(inner, 2.0)], eta=0.1)
    rng = np.random.default_rng(3)
    for k in range(5):
        stat = meta.zero()
        for _ in range(k):
            stat = stat + meta.stat_map(inner.sample_instance(rng), 0.2, -0.3)
        tau, gamma = stat.parts[0], stat.parts[1].x
        # log-sum-exp of one entry is that entry, so U = U_inner - eta*gamma
        assert gamma[0] == 2.0 * k
        assert meta.eval(stat) == pytest.approx(
            inner.eval(tau) - 0.1 * gamma[0], abs=1e-12)


def test_gamma_slot_advances_by_the_increment_budget():
    meta = _meta_pair()
    stat = meta.stat_map(np.ones((3, 2)) * 0.1, 0.5, -0.5)
    assert np.array_equal(stat.parts[-1].x, meta.C)
    z = meta.zero()
    assert np.array_equal(z.parts[-1].x, np.zeros(2))


def test_eval_sandwiched_by_the_best_member():
    meta = _meta_pair()
    rng = np.random.default_rng(5)
    for _ in range(50):
        stat = sample_statistic(meta, rng)
        taus, gamma = stat.parts[:-1], stat.parts[-1].x
        vals = np.array([m.eval(tau) for m, tau in zip(meta.members, taus)])
        best = float(np.max(vals - meta.eta * gamma))
        u = meta.eval(stat)
        assert u >= best - math.log(2.0) / meta.eta - 1e-10
        assert u <= best + 1e-10


def test_bound_takes_the_best_member_bound():
    meta = _meta_pair()
    rng = np.random.default_rng(7)
    stat = sample_statistic(meta, rng)
    taus, gamma = stat.parts[:-1], stat.parts[-1].x
    vs = np.array([m.bound(tau) for m, tau in zip(meta.members, taus)])
    expected = float(np.max(vs - meta.eta * gamma)) - math.log(2.0) / meta.eta
    assert meta.bound(stat) == pytest.approx(expected, rel=1e-12)
    assert meta.bound(stat) <= meta.eval(stat) + 1e-10


def test_linearizability_survives_aggregation():
    """U(zeta + T) must split as y_hat*delta + residual, with the drift
    charge landing inside the softmax."""
    meta = _meta_pair()
    assert meta.linearizable
    assert meta.convex_in_delta
    rng = np.random.default_rng(11)
    for _ in range(50):
        zeta = sample_statistic(meta, rng, max_rounds=4)
        x = meta.sample_instance(rng)
        y_hat = float(rng.uniform(-1, 1))
        delta = float(rng.uniform(-1, 1))
        lhs = meta.eval(zeta + meta.stat_map(x, y_hat, delta))
        rhs = y_hat * delta + meta.residual(zeta, x, delta)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_residual_on_entry_rounds_reads_the_members_residuals():
    """On an entry run the matrix member keeps a block statistic, and the
    meta residual, built from the members' residuals, is U of the stacked
    sum for a stack of deltas: on a cell whose row and column lie in
    different blocks, on one inside a block and on a repeated cell."""
    meta = _meta_pair()
    rng = np.random.default_rng(5)
    zeta = meta.zero(like=Entry(0, 0, (3, 2)))
    for i, j in [(0, 1), (2, 0), (1, 1)]:
        zeta = zeta + meta.stat_map(Entry(i, j, (3, 2)), rng.uniform(-1, 1), rng.uniform(-1, 1))
    assert isinstance(zeta.parts[0], BlockSym)
    deltas = np.array([-1.0, -0.3, 0.0, 0.3, 1.0])
    for i, j in [(0, 0), (0, 1), (2, 0)]:
        x = Entry(i, j, (3, 2))
        want = [meta.eval(zeta + meta.stat_map(x, 0.0, d)) for d in deltas]
        assert np.allclose(meta.residual(zeta, x, deltas), want, rtol=1e-12, atol=1e-12)


def test_non_linearizable_members_disable_the_residual():
    vaw = VawPotential(d=6, L=1.0)
    meta = MetaPotential([(vaw, 1.0)], eta=0.5)
    assert not meta.linearizable
    with pytest.raises(DomainError):
        meta.residual(meta.zero(), np.zeros(6), 0.1)


def test_regret_bound_adds_entry_fee_and_stability_charge():
    meta = _meta_pair(eta=0.25)
    rng = np.random.default_rng(13)
    stat = sample_statistic(meta, rng)
    taus, gamma = stat.parts[:-1], stat.parts[-1].x
    per_member = [m.regret_bound(tau, None) + 0.25 * float(g)
                  for m, tau, g in zip(meta.members, taus, gamma)]
    expected = min(per_member) + math.log(2.0) / 0.25
    assert meta.regret_bound(stat) == pytest.approx(expected, rel=1e-12)


def test_regret_bound_requires_some_member_to_answer():
    vaw = VawPotential(d=2, L=1.0)
    meta = MetaPotential([(vaw, 1.0)], eta=0.5)
    with pytest.raises(DomainError):
        meta.regret_bound(meta.zero())  # vaw needs a comparator


def test_configuration_guards():
    inner = MatrixPotential(3, 2, eta=0.5)
    with pytest.raises(ConfigError):
        MetaPotential([], eta=0.5)
    with pytest.raises(ConfigError):
        MetaPotential([(inner, 1.0)], eta=0.0)
    with pytest.raises(ConfigError):
        MetaPotential([(inner, -1.0)], eta=0.5)
    with pytest.raises(ConfigError, match="Lipschitz"):
        MetaPotential([(inner, 1.0), (VawPotential(d=6, L=4.0), 1.0)], eta=0.5)


def test_members_must_share_one_horizon_and_one_range():
    short, long = ParamFreePotential(n=8, d=5), ParamFreePotential(n=16, d=5)
    with pytest.raises(ConfigError, match="horizon"):
        MetaPotential([(short, 1.0), (long, 1.0)], eta=0.5)
    with pytest.raises(ConfigError, match="horizon"):
        combine_min([short, long])
    with pytest.raises(ConfigError, match="range B"):
        combine_min([AdaGradPotential(d=5), AdaGradPotential(d=5, B=0.5)])
    with pytest.raises(ConfigError, match="range B"):
        MetaPotential([(AdaGradPotential(d=5), 1.0),
                       (AdaGradPotential(d=5, B=0.5), 1.0)], eta=0.5)
    same = ParamFreePotential(n=16, d=5, p=4.0)
    assert MetaPotential([(long, 1.0), (same, 1.0)], eta=0.5).horizon == 16
    assert combine_convex([long, same], [0.5, 0.5]).horizon == 16
    assert combine_min([AdaGradPotential(d=5)] * 2).horizon is None
    # a stationary member ignores t, so it leaves the horizon to the others
    assert MetaPotential([(long, 1.0), (AdaGradPotential(d=5), 1.0)], eta=0.5).horizon == 16


def test_min_combination_takes_the_pointwise_minimum():
    a = MatrixPotential(3, 2, eta=0.5)
    b = MatrixPotential(3, 2, eta=0.25)
    combo = combine_min([a, b])
    rng = np.random.default_rng(19)
    for _ in range(20):
        stat = sample_statistic(combo, rng)
        assert combo.eval(stat) == min(a.eval(stat), b.eval(stat))
        assert combo.bound(stat) == min(a.bound(stat), b.bound(stat))
    assert combo.linearizable
    assert not combo.convex_in_delta  # a min of convex functions is not convex
    same = combine_min([a, a])
    stat = sample_statistic(same, rng)
    assert same.eval(stat) == a.eval(stat)


def test_convex_combination_mixes_with_the_weights():
    a = MatrixPotential(3, 2, eta=0.5)
    b = MatrixPotential(3, 2, eta=0.25)
    combo = combine_convex([a, b], [0.3, 0.7])
    rng = np.random.default_rng(23)
    stat = sample_statistic(combo, rng)
    assert combo.eval(stat) == pytest.approx(
        0.3 * a.eval(stat) + 0.7 * b.eval(stat), rel=1e-12)
    assert combo.convex_in_delta
    degenerate = combine_convex([a, b], [1.0, 0.0])
    assert degenerate.eval(stat) == pytest.approx(a.eval(stat), rel=1e-12)


def test_combination_guards():
    a = MatrixPotential(3, 2, eta=0.5)
    b = MatrixPotential(3, 2, eta=0.25)
    with pytest.raises(ConfigError, match="statistic space"):
        combine_min([a, AdaGradPotential(d=5)])
    with pytest.raises(ConfigError, match="simplex"):
        combine_convex([a, b], [0.6, 0.6])
    with pytest.raises(ConfigError, match="one weight"):
        combine_convex([a, b], [1.0])
    with pytest.raises(ConfigError):
        CombinedPotential([])
    mixed_L = ParamFreePotential(n=4, d=5)
    with pytest.raises(ConfigError):
        combine_min([AdaGradPotential(d=5, L=2.0),
                     AdaGradPotential(d=5, L=1.0)])
    assert mixed_L.L == 1.0


def test_combined_residual_requires_linearizable_members():
    a = MatrixPotential(3, 2, eta=0.5)
    combo = combine_min([a, a])
    x = np.ones((3, 2)) * 0.2
    assert combo.residual(combo.zero(), x, 0.5) == a.residual(a.zero(), x, 0.5)


class _RaisingBound(Potential):
    """A member whose regret bound raises the given exception."""

    def __init__(self, exc):
        self.exc = exc

    def zero(self, like=None):
        return ScalarVec.zero(1)

    def regret_bound(self, stat, comparator=None):
        raise self.exc


def test_regret_bound_skips_only_members_without_a_bound():
    ada = AdaGradPotential(d=2)
    meta = MetaPotential([(_RaisingBound(NotImplementedError()), 1.0),
                          (_RaisingBound(DomainError("needs a comparator")), 1.0),
                          (ada, 1.0)], eta=0.5)
    assert meta.regret_bound(meta.zero()) == pytest.approx(
        ada.regret_bound(ada.zero()) + math.log(3.0) / 0.5, rel=1e-12)
    buggy = MetaPotential([(_RaisingBound(TypeError("bug in a member")), 1.0),
                           (ada, 1.0)], eta=0.5)
    with pytest.raises(TypeError, match="bug in a member"):
        buggy.regret_bound(buggy.zero())
