"""Loss values, subgradient conventions, and distributional minimizers."""

import numpy as np
import pytest

from burkholder.errors import DomainError
from burkholder.losses import (Loss, argmin_over_distribution,
                               expected_subgradient_range, make_loss)


def test_values():
    assert make_loss("absolute").value(0.5, -0.25) == 0.75
    assert make_loss("squared").value(0.5, -0.25) == 0.5625
    assert make_loss("hinge").value(0.5, -1.0) == 0.5
    assert make_loss("hinge").value(0.5, 1.0) == 0.0


def test_lipschitz_and_curvature_constants():
    assert make_loss("absolute").L == 1.0
    assert make_loss("hinge").L == 1.0
    assert make_loss("squared", B=2.0).L == 8.0
    assert make_loss("squared").rho == 2.0
    assert make_loss("absolute").rho == 0.0


def test_subgradients_vanish_at_kinks():
    # returning 0 at a kink keeps the statistic still on ties
    assert make_loss("absolute").subgradient(0.7, 0.7) == 0.0
    assert make_loss("hinge").subgradient(0.0, 1.0) == 0.0
    assert make_loss("hinge").subgradient(0.5, 1.0) == 0.0


def test_subgradient_values():
    assert make_loss("absolute").subgradient(0.5, -0.25) == 1.0
    assert make_loss("squared").subgradient(0.5, -0.25) == 1.5
    assert make_loss("hinge").subgradient(-0.5, 1.0) == -1.0
    assert make_loss("hinge").subgradient(0.5, -1.0) == 1.0


def test_broadcasting():
    loss = make_loss("absolute")
    y_hats = np.array([-1.0, 0.0, 1.0])
    ys = np.array([0.5, -0.5])
    vals = loss.value(y_hats[:, None], ys[None, :])
    assert vals.shape == (3, 2)
    assert vals[2, 0] == 0.5
    subs = loss.subgradient(y_hats[:, None], ys[None, :])
    assert subs[0, 0] == -1.0 and subs[2, 1] == 1.0


def test_subgradients_stay_within_lipschitz_bound():
    rng = np.random.default_rng(11)
    for kind, B in (("absolute", 1.0), ("squared", 1.0), ("hinge", 1.0)):
        loss = make_loss(kind, B=B)
        yh = rng.uniform(-B, B, size=200)
        y = rng.uniform(-B, B, size=200)
        assert np.all(np.abs(loss.subgradient(yh, y)) <= loss.L + 1e-12)


def test_rejects_bad_configurations():
    with pytest.raises(DomainError):
        make_loss("logistic")
    with pytest.raises(DomainError):
        make_loss("absolute", B=0.0)
    for B in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(DomainError, match="0 < B < inf"):
            make_loss("absolute", B=B)
    with pytest.raises(DomainError):
        make_loss("hinge", B=1.5)
    assert make_loss("hinge", B=1.0).B == 1.0


def test_repr_names_the_kind():
    assert "squared" in repr(Loss("squared"))


def test_squared_argmin_is_the_mean():
    support = [(0.0, 0.25), (1.0, 0.75)]
    assert argmin_over_distribution(make_loss("squared"), support) == pytest.approx(0.75)


def test_absolute_argmin_is_the_weighted_median():
    loss = make_loss("absolute")
    assert argmin_over_distribution(loss, [(0.0, 0.6), (1.0, 0.4)]) == 0.0
    assert argmin_over_distribution(loss, [(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)]) == 0.0
    # an even split minimizes everywhere on the middle interval; the
    # midpoint convention keeps the choice deterministic
    assert argmin_over_distribution(loss, [(0.0, 0.5), (1.0, 0.5)]) == 0.5


def test_hinge_argmin_is_zero():
    assert argmin_over_distribution(make_loss("hinge"), [(1.0, 0.9), (-1.0, 0.1)]) == 0.0


def test_argmin_rejects_invalid_supports():
    loss = make_loss("absolute")
    with pytest.raises(DomainError):
        argmin_over_distribution(loss, [])
    with pytest.raises(DomainError):
        argmin_over_distribution(loss, [(0.0, 0.7), (1.0, 0.7)])
    with pytest.raises(DomainError):
        argmin_over_distribution(loss, [(0.0, 1.5), (1.0, -0.5)])


def test_expected_subderivatives_bracket_zero_at_the_argmin():
    """The distributional minimizer must admit a zero expected subgradient;
    lo <= 0 <= hi is exactly that certificate."""
    rng = np.random.default_rng(2024)
    for kind in ("absolute", "squared", "hinge"):
        loss = make_loss(kind)
        for _ in range(200):
            k = int(rng.integers(1, 5))
            ys = rng.uniform(-1, 1, size=k)
            ps = rng.uniform(0.1, 1.0, size=k)
            ps = ps / ps.sum()
            support = list(zip(ys, ps))
            r = argmin_over_distribution(loss, support)
            lo, hi = expected_subgradient_range(loss, r, support)
            assert lo <= 1e-9, (kind, support, lo)
            assert hi >= -1e-9, (kind, support, hi)


def test_argmin_actually_minimizes_the_expected_loss():
    rng = np.random.default_rng(7)
    grid = np.linspace(-1, 1, 401)
    for kind in ("absolute", "squared", "hinge"):
        loss = make_loss(kind)
        for _ in range(50):
            ys = rng.uniform(-1, 1, size=3)
            ps = rng.dirichlet(np.ones(3))
            support = list(zip(ys, ps))
            r = argmin_over_distribution(loss, support)
            best = float(np.min(ps @ loss.value(grid[None, :], ys[:, None])))
            at_r = float(ps @ loss.value(r, ys))
            assert at_r <= best + 1e-9
