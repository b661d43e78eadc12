"""The Potential contract: the residual derived from eval and stat_map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burkholder.errors import DomainError
from burkholder.potentials import (AdaGradPotential, MatrixPotential,
                                   ParamFreePotential, VawPotential, matrix_meta)
from burkholder.symlin import Entry
from stat_oracle import sample_statistic

_N = 12  # param_free horizon


def _family(name):
    if name in ("matrix_dense", "matrix_entry"):
        return MatrixPotential(3, 2, eta=0.5)
    if name == "adagrad_l2":
        return AdaGradPotential(d=4, variant="l2")
    if name == "adagrad_linf":
        return AdaGradPotential(d=4, variant="linf")
    if name == "param_free_l2":
        return ParamFreePotential(n=_N, d=3)
    if name == "param_free_l4":
        return ParamFreePotential(n=_N, d=3, p=4.0)
    return matrix_meta(MatrixPotential(3, 2, eta=0.5))


def _instance(name, P, rng):
    if name == "matrix_entry":
        return Entry(int(rng.integers(0, 3)), int(rng.integers(0, 2)), (3, 2))
    return P.sample_instance(rng)


_FAMILIES = ("matrix_dense", "matrix_entry", "adagrad_l2", "adagrad_linf",
             "param_free_l2", "param_free_l4", "meta")


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_FAMILIES), st.integers(0, 2 ** 32 - 1),
       st.integers(1, _N))
def test_eval_after_a_round_is_the_prediction_term_plus_the_residual(name, seed, t):
    """U(zeta + T(x, y_hat, delta)) = y_hat delta + F(zeta, x, delta) in round t,
    with F derived from eval and stat_map."""
    P = _family(name)
    rng = np.random.default_rng(seed)
    # an entry run's statistic sums Entry rounds from the zero they take
    zeta = (P.zero(like=Entry(0, 0, (3, 2))) if name == "matrix_entry"
            else sample_statistic(P, rng, max_rounds=t - 1))
    for _ in range(int(rng.integers(0, 4))):  # Entry instances in the sum too
        zeta = zeta + P.stat_map(_instance(name, P, rng), float(rng.uniform(-1, 1)),
                                 float(rng.uniform(-P.L, P.L)))
    x = _instance(name, P, rng)
    y_hat = float(rng.uniform(-P.B, P.B))
    delta = float(rng.uniform(-P.L, P.L))
    lhs = P.eval(zeta + P.stat_map(x, y_hat, delta), t=t)
    rhs = y_hat * delta + P.residual(zeta, x, delta, t=t)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_residual_needs_the_linear_decomposition():
    P = VawPotential(d=2)
    assert not P.linearizable
    with pytest.raises(DomainError, match="linear residual decomposition"):
        P.residual(P.zero(), np.zeros(2), 0.5)
