"""Gradient-norm adaptive family and its square-root certificate."""

import math

import numpy as np
import pytest

from burkholder.errors import ConfigError
from burkholder.harness import comparator_losses, random_vectors
from burkholder.losses import make_loss
from burkholder.potentials import AdaGradPotential, usq
from burkholder.statistics import ScalarVecScalar
from burkholder.strategies import predict_linearized, run_online


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
    pred = predict_linearized(P, zeta, np.array([1.0]))
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


def test_construction_rejects_a_non_convex_residual():
    class Broken(AdaGradPotential):
        def residual(self, zeta, x, delta, t=None):
            return -super().residual(zeta, x, delta, t=t)

    with pytest.raises(ConfigError, match="convex"):
        Broken(d=2)
    # the check can be waived explicitly
    Broken(d=2, check_convexity=False)


def test_increment_bound_dominates_sampled_moves():
    P = AdaGradPotential(d=3)
    rng = np.random.default_rng(12)
    cap = P.increment_bound()
    for _ in range(300):
        tau = P.sample_statistic(rng)
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
