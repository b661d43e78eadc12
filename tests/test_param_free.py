"""Parameter-free family: time-indexed exponential potential."""

import math

import numpy as np
import pytest

from burkholder.errors import ConfigError, DomainError, NumericError
from burkholder.harness import comparator_grid, random_vectors
from burkholder.losses import make_loss
from burkholder.potentials import ParamFreePotential, harmonic_prefix
from burkholder.statistics import ScalarVec
from burkholder.strategies import run_online
from stat_oracle import sample_statistic


def test_harmonic_prefix_values():
    H = harmonic_prefix(4)
    assert H[0] == 0.0
    assert H[1] == 1.0
    assert H[2] == 1.5
    assert H[4] == pytest.approx(1.0 + 0.5 + 1.0 / 3.0 + 0.25, abs=1e-15)


def test_starts_at_zero_with_the_default_gamma():
    P = ParamFreePotential(n=16, d=5)
    assert P.gamma == pytest.approx(P.c * math.exp(-0.5 * harmonic_prefix(16)[16]))
    assert abs(P.eval(P.zero(), t=0)) < 1e-12


def test_eval_recomputes_from_the_closed_form():
    P = ParamFreePotential(n=12, d=4, c=2.0)
    rng = np.random.default_rng(6)
    H = harmonic_prefix(12)
    for _ in range(50):
        stat = sample_statistic(P, rng)
        t = int(rng.integers(1, 13))
        tail = 0.5 * (H[12] - H[t])
        sq = float(np.dot(stat.x, stat.x))
        expected = stat.b + P.gamma * math.exp(sq / (2.0 * t) + tail) - 2.0
        assert P.eval(stat, t=t) == pytest.approx(expected, rel=1e-12)


def test_bound_is_the_horizon_evaluation():
    P = ParamFreePotential(n=8, d=3)
    stat = P.stat_map(np.array([0.5, 0.0, -0.2]), 0.3, -1.0)
    assert P.bound(stat) == P.eval(stat, t=8)


def test_tail_telescopes_one_over_two_t():
    P = ParamFreePotential(n=10, d=2)
    for t in range(1, 11):
        assert P.tail(t - 1) - P.tail(t) == pytest.approx(0.5 / t, abs=1e-15)


def test_time_index_is_required_and_validated():
    P = ParamFreePotential(n=4, d=2)
    z = P.zero()
    with pytest.raises(DomainError):
        P.eval(z)
    with pytest.raises(DomainError):
        P.eval(z, t=5)
    with pytest.raises(DomainError):
        P.eval(z, t=-1)
    with pytest.raises(DomainError):
        P.residual(z, np.zeros(2), 0.5)


@pytest.mark.parametrize("p", [None, 4.0])
def test_eval_at_an_array_of_round_indices_matches_scalar_calls(p):
    """An integer t aligned with a stack reads member i at t[i], bit for bit
    as a call per member. A t = 0 member takes no exponential, so one whose
    exponent would overflow at t = 1 still evaluates; an index outside
    0..n is named."""
    P = ParamFreePotential(n=16, d=5, p=p)
    rng = np.random.default_rng(4)
    k = 12
    stack = P.stat_map(P.sample_instances(rng, k), rng.uniform(-1, 1, k), rng.uniform(-1, 1, k))
    stack.x[0] = 100.0  # ||x|| >= 66 in l2 and l4: t = 1 would overflow
    t = np.array([0, 0, 1, 2, 16, 0, 3, 7, 16, 5, 1, 9])
    got = P.eval(stack, t=t)
    for i in range(k):
        want = P.eval(ScalarVec(stack.b[i], stack.x[i]), t=int(t[i]))
        assert got[i] == want and np.signbit(got[i]) == np.signbit(want)
    with pytest.raises(NumericError):
        P.eval(ScalarVec(stack.b[0], stack.x[0]), t=1)
    for bad in (17, -1):
        with pytest.raises(DomainError, match=f"t = {bad} outside"):
            P.eval(stack, t=np.where(np.arange(k) == 4, bad, t))


def test_rejects_instances_outside_the_unit_ball():
    P = ParamFreePotential(n=4, d=2)
    with pytest.raises(DomainError, match="exceeds 1"):
        P.stat_map(np.array([1.2, 0.0]), 0.0, 0.0)
    # the 1e-9 slack admits rounding just past the sphere
    P.stat_map(np.array([1.0 + 1e-10, 0.0]), 0.0, 1.0)
    # the family's own norm decides: ||(0.8, 0.8)||_4 < 1 < ||(0.8, 0.8)||_2
    with pytest.raises(DomainError):
        P.stat_map(np.array([0.8, 0.8]), 0.0, 1.0)
    ParamFreePotential(n=4, d=2, p=4.0).stat_map(np.array([0.8, 0.8]), 0.0, 1.0)
    with pytest.raises(DomainError):
        P.stat_map(np.zeros(3), 0.0, 0.0)


def test_exponent_overflow_is_reported():
    P = ParamFreePotential(n=4, d=2)
    big = P.stat_map(np.array([1.0, 0.0]), 0.0, 1.0)
    for _ in range(60):
        big = big + big
    with pytest.raises(NumericError):
        P.eval(big, t=1)


def test_configuration_guards():
    with pytest.raises(ConfigError):
        ParamFreePotential(n=0, d=2)
    with pytest.raises(ConfigError, match="d >= 1"):
        ParamFreePotential(n=4, d=0)
    with pytest.raises(ConfigError):
        ParamFreePotential(n=4, d=2, p=1.5)
    with pytest.raises(ConfigError):
        ParamFreePotential(n=4, d=2, c=0.0)


def test_lp_norms_and_duality():
    P = ParamFreePotential(n=4, d=3, p=4.0)
    assert P.beta == 3.0
    rng = np.random.default_rng(19)
    for _ in range(100):
        x = rng.normal(size=3)
        w = rng.normal(size=3)
        holder = P.norm(x) * P.dual_norm(w)
        assert abs(float(np.dot(x, w))) <= holder + 1e-12
    x = np.array([1.0, 1.0, 0.0])
    assert P.norm(x) == pytest.approx(2.0 ** 0.25)
    assert P.dual_norm(x) == pytest.approx(2.0 ** 0.75)


def test_comparator_bound_formula_and_interface():
    P = ParamFreePotential(n=8, d=3, c=1.5)
    w = np.array([0.3, -0.4, 1.1])
    wn = float(np.linalg.norm(w))
    bn = 1.0 * 8
    expected = wn * math.sqrt(2.0 * bn * math.log(math.sqrt(bn) * wn / P.gamma + 1.0)) + 1.5
    assert P.regret_bound(P.zero(), w) == pytest.approx(expected, rel=1e-12)
    # the statistic does not enter
    assert P.regret_bound(P.stat_map(w / 2.0, 0.5, 1.0), w) == P.regret_bound(P.zero(), w)
    with pytest.raises(DomainError):
        P.regret_bound(P.zero())


def test_comparator_bound_grows_with_the_dual_norm():
    P = ParamFreePotential(n=16, d=2)
    radii = np.logspace(-2, 2, 9)
    vals = [P.regret_bound(P.zero(), np.array([r, 0.0])) for r in radii]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_regret_stays_under_the_comparator_bound_on_a_short_run():
    """End to end: descent keeps the potential nonpositive, and every grid
    comparator's regret sits below its bound."""
    loss = make_loss("absolute")
    seq = random_vectors(40, 3, noise=0.3, rng=np.random.default_rng(21))
    P = ParamFreePotential(n=40, d=3)
    traj = run_online(P, "linearized", seq, loss)
    assert all(v <= 1e-10 for v in traj.potential_values)
    for comp in comparator_grid(seq.xs, seq.ys, loss)[:10]:
        regret = traj.cumulative_loss - comp.total_loss
        assert regret <= P.regret_bound(traj.final_statistic, comp.w) + 1e-9
