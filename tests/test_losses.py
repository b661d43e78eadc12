"""Loss values, subgradient conventions, and critical constants."""

import numpy as np
import pytest

from burkholder.errors import DomainError
from burkholder.losses import Loss, make_loss


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


def test_hinge_subgradient_survives_a_subnormal_prediction():
    # y_hat * y underflows to 0 here; the subgradient is still -y
    ys = np.array([0.25, 0.5, 1.0])
    assert np.array_equal(make_loss("hinge").subgradient(-5e-324, ys), -ys)


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

