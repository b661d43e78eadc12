"""Gradient-norm adaptive family and its square-root certificate."""

import math

import numpy as np
import pytest

from burkholder.errors import ConfigError, DomainError
from burkholder.harness import random_vectors
from burkholder.losses import make_loss
from burkholder.potential import stack_rounds
from burkholder.potentials import AdaGradPotential
from burkholder.potentials.adagrad import _l2, _usq
from burkholder.statistics import ScalarVecScalar
from burkholder.strategies import predict_linearized, run_online
from burkholder.symlin import Entry
from game_oracle import comparator_losses
from stat_oracle import sample_statistic, stats_allclose


def usq(x, y):
    """-sqrt(2 y^2 - ||x||^2) where y >= ||x||, and ||x|| - 2 y elsewhere,
    for a vector or a scalar x, as a float."""
    return float(_usq(_l2(np.atleast_1d(np.asarray(x, dtype=float))), float(y)))


def test_usq_values():
    assert usq(np.array([3.0, 4.0]), 10.0) == pytest.approx(-math.sqrt(175.0))
    assert usq(5.0, 2.0) == 1.0
    assert usq(0.0, 0.0) == 0.0
    # both branches meet at -||x|| on the seam
    assert usq(3.0, 3.0) == -3.0


def test_usq_dominates_the_linear_certificate():
    # -sqrt(2y^2 - a^2) >= a - 2y because the squared gap is 2(y - a)^2
    rng = np.random.default_rng(8)
    for _ in range(500):
        a = float(rng.uniform(0, 3))
        y = float(rng.uniform(0, 3))
        val = usq(a, y)
        assert val >= a - 2.0 * y - 1e-12
        if y > a + 1e-6:
            assert val > a - 2.0 * y
        if y < a:
            assert val == a - 2.0 * y


def test_prediction_closed_form_in_one_dimension():
    P = AdaGradPotential(d=1)
    zeta = ScalarVecScalar(0.0, np.array([2.0]), 4.0)
    pred = predict_linearized(P, zeta, np.array([1.0]))[0]
    # residuals are usq(2 + delta, sqrt(5)): 3 - 2*sqrt(5) and -3
    assert pred == pytest.approx(math.sqrt(5.0) - 3.0, abs=1e-12)


def test_eval_and_bound_closed_forms():
    P = AdaGradPotential(d=2)
    stat = ScalarVecScalar(0.7, np.array([0.6, -0.8]), 3.0)
    assert P.eval(stat) == pytest.approx(0.7 + usq(stat.x, math.sqrt(3.0)))
    assert P.bound(stat) == pytest.approx(0.7 + 1.0 - 2.0 * math.sqrt(3.0))
    assert P.bound(stat) <= P.eval(stat)


def test_coordinatewise_variant_sums_over_axes():
    P = AdaGradPotential(d=3, variant="linf")
    z = P.zero()
    assert np.shape(z.s) == (3,)
    stat = P.stat_map(np.array([0.5, 0.0, -0.5]), 0.2, 1.0)
    assert np.allclose(stat.s, [0.25, 0.0, 0.25])
    expected = sum(usq(float(stat.x[i]), math.sqrt(float(stat.s[i])))
                   for i in range(3))
    assert P.eval(stat) == pytest.approx(stat.b + expected)


def test_single_coordinate_variants_coincide():
    a = AdaGradPotential(d=1, variant="l2")
    b = AdaGradPotential(d=1, variant="linf")
    rng = np.random.default_rng(10)
    for _ in range(50):
        x = rng.uniform(-1, 1, size=1)
        y_hat = float(rng.uniform(-1, 1))
        delta = float(rng.uniform(-1, 1))
        sa = a.stat_map(x, y_hat, delta)
        sb = b.stat_map(x, y_hat, delta)
        assert a.eval(sa) == pytest.approx(b.eval(sb), abs=1e-12)
        assert a.bound(sa) == pytest.approx(b.bound(sb), abs=1e-12)


def test_configuration_guards():
    with pytest.raises(ConfigError, match="variant"):
        AdaGradPotential(d=2, variant="l1")
    with pytest.raises(ConfigError):
        AdaGradPotential(d=0)
    with pytest.raises(ConfigError):
        AdaGradPotential(d=2, L=0.0)


@pytest.mark.parametrize("variant", ["l2", "linf"])
@pytest.mark.parametrize("d", [2, 5, (3, 2)], ids=str)
def test_residual_is_convex_in_delta(variant, d):
    """The class docstring proves the residual convex in delta; on 200
    sampled (statistic, instance, delta pair) triples the value at the
    midpoint stays under the chord."""
    P = AdaGradPotential(d=d, variant=variant)
    rng = np.random.default_rng(20240901)
    zetas, _ = stack_rounds(P, *P.sample_rounds(rng, 200, 4))
    xs = P.sample_instances(rng, 200)
    d0, d1 = np.sort(rng.uniform(-P.L, P.L, size=(200, 2)), axis=1).T
    gap = np.max(P.residual(zetas, xs, 0.5 * (d0 + d1))
                 - 0.5 * (P.residual(zetas, xs, d0) + P.residual(zetas, xs, d1)))
    assert gap <= 1e-9


def test_increment_bound_dominates_sampled_moves():
    rng = np.random.default_rng(12)
    for P in (AdaGradPotential(d=3), AdaGradPotential(d=3, variant="linf"),
              AdaGradPotential(d=(3, 2))):
        cap = P.increment_bound()
        for _ in range(300):
            tau = sample_statistic(P, rng)
            step = P.stat_map(P.sample_instance(rng),
                              float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
            assert (P.eval(tau + step) - P.eval(tau)) ** 2 <= cap + 1e-12


def test_regret_bound_along_a_descent_run():
    """Inside the unit ball the bound is 2L sqrt(s); outside it picks up the
    excess-norm charge. Both are checked against measured regret."""
    loss = make_loss("absolute")
    rng = np.random.default_rng(14)
    seq = random_vectors(80, 4, noise=0.4, rng=rng)
    P = AdaGradPotential(d=4)
    traj = run_online(P, "linearized", seq, loss)
    assert all(v <= 1e-10 for v in traj.potential_values)
    zeta = traj.final_statistic
    for _ in range(40):
        w = rng.normal(size=4) * float(rng.uniform(0.1, 2.0))
        comp = float(np.sum(comparator_losses(seq.xs, seq.ys, loss, w)))
        regret = traj.cumulative_loss - comp
        assert regret <= P.regret_bound(zeta, w) + 1e-9
    inside = P.regret_bound(zeta, np.full(4, 0.4))
    assert inside == pytest.approx(2.0 * math.sqrt(float(zeta.s)), rel=1e-12)


def test_linf_increment_bound_charges_the_l1_norm():
    """After 100 rounds of a x with x = (1, ..., 1) / sqrt(5), the round -x
    moves every coordinate across its seam: the square of the move exceeds
    the unit-l2 charge 16, and stays under (1 + 3 sqrt(5))^2."""
    P = AdaGradPotential(d=5, variant="linf")
    x = np.ones(5) / math.sqrt(5.0)
    a, n = 0.05, 100
    tau = P.zero() + ScalarVecScalar(0.0, n * a * x, np.full(5, n * a * a / 5.0))
    move = float(P.eval(tau + P.stat_map(-x, -1.0, 1.0)) - P.eval(tau))
    assert 16.0 < move ** 2 <= P.increment_bound()
    assert P.increment_bound() == pytest.approx((1.0 + 3.0 * math.sqrt(5.0)) ** 2)


@pytest.mark.parametrize("variant", ["l2", "linf"])
def test_shaped_family_is_the_flat_family_on_the_flattened_instance(variant):
    shaped = AdaGradPotential(d=(3, 2), variant=variant)
    flat = AdaGradPotential(d=6, variant=variant)
    assert shaped.d == 6 and shaped.increment_bound() >= flat.increment_bound()
    rng = np.random.default_rng(31)
    loss = make_loss("absolute")
    y_hats, ys = np.linspace(-1.0, 1.0, 33), np.array([-1.0, 0.3, 1.0])
    xs = rng.uniform(-0.4, 0.4, size=(7, 3, 2))
    y_hat, delta = rng.uniform(-1, 1, 7), rng.uniform(-1, 1, 7)
    stack = shaped.stat_map(xs, y_hat, delta)
    assert stats_allclose(stack, flat.stat_map(xs.reshape(7, 6), y_hat, delta), 0.0, 0.0)
    assert np.array_equal(shaped.eval(stack), flat.eval(stack))
    zeta = shaped.zero() + shaped.stat_map(xs[0], 0.2, 1.0)
    # a single dense matrix and an Entry, which densifies through np.asarray
    for x in (xs[1], Entry(2, 1, (3, 2))):
        dense = np.asarray(x, dtype=float).reshape(-1)
        assert stats_allclose(shaped.stat_map(x, 0.3, -0.5),
                              flat.stat_map(dense, 0.3, -0.5), 0.0, 0.0)
        assert shaped.residual(zeta, x, 0.5, t=3) == flat.residual(zeta, dense, 0.5, t=3)
        assert np.array_equal(shaped.round_values(zeta, x, y_hats, ys, loss, t=3),
                              flat.round_values(zeta, dense, y_hats, ys, loss, t=3))
    draws = shaped.sample_instances(np.random.default_rng(4), 5)
    assert draws.shape == (5, 3, 2)
    assert np.array_equal(draws.reshape(5, 6),
                          flat.sample_instances(np.random.default_rng(4), 5))


def test_shaped_family_rejects_other_instance_shapes():
    P = AdaGradPotential(d=(3, 2))
    for x in (np.zeros(6), np.zeros((2, 3)), Entry(0, 0, (2, 3))):
        with pytest.raises(DomainError, match="instance shape"):
            P.stat_map(x, 0.0, 1.0)
    with pytest.raises(DomainError, match="instance shape"):
        P.stat_map(np.zeros((4, 6)), np.zeros(4), np.ones(4))
    for d in ((0, 2), (3, 0), ()):
        with pytest.raises(ConfigError, match="d >= 1"):
            AdaGradPotential(d=d)
