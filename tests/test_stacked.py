"""Stacked statistics: a batch of k statistics evaluates like k single ones,
and the two-phase p2/p3 checks report what a plain per-trial loop reports."""

import math

import numpy as np
import pytest

from burkholder.potential import MappedPotential
from burkholder.potentials import (AdaGradPotential, MatrixPotential, combine_convex,
                                   combine_min, standard_families)
from burkholder.statistics import map_slots, stats_allclose
from burkholder.verify import TwoPointDist, check_p2, check_p3, replay_p3


def _cases():
    cases = dict(standard_families(B=1.0))
    m1, m2 = MatrixPotential(3, 2, eta=0.5), MatrixPotential(3, 2, eta=0.25)
    cases["combine_min"] = combine_min([m1, m2])
    cases["combine_convex"] = combine_convex([m1, m2], [0.3, 0.7])
    cases["mapped_reshape"] = MappedPotential(
        AdaGradPotential(d=6), lambda x: np.asarray(x, dtype=float).reshape(-1),
        sample_fn=m1.sample_instance)
    return cases


CASES = _cases()


def _plain_p2(P, trials, rng):
    worst, trial = -math.inf, None
    for i in range(trials):
        stat = P.sample_statistic(rng)
        viol = P.bound(stat) - P.eval(stat, t=P.horizon)
        if viol > worst:
            worst, trial = viol, i
    return worst, trial


def _plain_p3(P, mode, trials, rng):
    worst, trial = -math.inf, None
    for i in range(trials):
        t = int(rng.integers(1, P.horizon + 1)) if P.horizon else 1
        tau = P.sample_statistic(rng, max_rounds=min(t - 1, 6) if P.horizon else 6)
        x = P.sample_instance(rng)
        y_hat = float(rng.uniform(-P.B, P.B))
        if mode == "rademacher":
            support = [(P.L, 0.5), (-P.L, 0.5)]
        else:
            support = TwoPointDist(float(rng.uniform(1e-3, P.L)),
                                   float(rng.uniform(1e-3, P.L))).support()
        viol = sum(p * P.eval(tau + P.stat_map(x, y_hat, a), t=t)
                   for a, p in support) - P.eval(tau, t=t - 1)
        if viol > worst:
            worst, trial = viol, i
    return worst, trial


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("name", sorted(CASES))
def test_stacked_checks_agree_with_a_plain_loop(name, seed):
    P = CASES[name]
    trials = 300
    rep = check_p2(P, trials=trials, rng=np.random.default_rng(seed))
    worst, trial = _plain_p2(P, trials, np.random.default_rng(seed))
    assert abs(rep.max_violation - worst) <= 1e-12
    assert rep.witness["trial"] == trial
    for mode in ("two_point", "rademacher"):
        rep = check_p3(P, mode=mode, trials=trials, rng=np.random.default_rng(seed))
        worst, trial = _plain_p3(P, mode, trials, np.random.default_rng(seed))
        assert abs(rep.max_violation - worst) <= 1e-12, mode
        assert rep.witness["trial"] == trial, mode
        assert replay_p3(P, rep.witness) == rep.max_violation


def _stack(stats):
    return map_slots(lambda *slots: np.stack(slots), *stats)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stacked_add_and_eval_match_single_calls(name):
    P = CASES[name]
    rng = np.random.default_rng(5)
    k = 7
    a = [P.sample_statistic(rng) for _ in range(k)]
    b = [P.sample_statistic(rng) for _ in range(k)]
    t = P.horizon or 1
    total = _stack(a) + _stack(b)
    shifted = _stack(a) + b[0]  # a single statistic adds to every member
    u, v = P.eval(total, t=t), P.bound(total)
    assert np.shape(u) == np.shape(v) == (k,)
    for i in range(k):
        single = a[i] + b[i]
        assert stats_allclose(map_slots(lambda s: s[i], total), single, rtol=0.0, atol=1e-12)
        assert stats_allclose(map_slots(lambda s: s[i], shifted), a[i] + b[0],
                              rtol=0.0, atol=1e-12)
        assert abs(u[i] - P.eval(single, t=t)) <= 1e-12
        assert abs(v[i] - P.bound(single)) <= 1e-12


@pytest.mark.parametrize("name", sorted(CASES))
def test_stacked_stat_map_matches_single_calls(name):
    P = CASES[name]
    rng = np.random.default_rng(6)
    xs = [P.sample_instance(rng) for _ in range(5)]
    y_hats, deltas = rng.uniform(-P.B, P.B, 5), rng.uniform(-P.L, P.L, 5)
    stacked = P.stat_map(np.stack(xs), y_hats, deltas)
    for i in range(5):
        assert stats_allclose(map_slots(lambda s: s[i], stacked),
                              P.stat_map(xs[i], float(y_hats[i]), float(deltas[i])),
                              rtol=0.0, atol=0.0)
