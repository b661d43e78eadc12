"""Numeric equality of statistics, the tests' comparison of two statistics,
and a sampler of reachable statistics."""

from dataclasses import fields

import numpy as np

from burkholder.potential import stack_rounds
from burkholder.statistics import BlockSym, ProductStat, ScalarSym, map_slots


def sample_statistic(P, rng, max_rounds=8):
    """A statistic of P reachable as a sum of statistic-map outputs."""
    taus, _ = stack_rounds(P, *P.sample_rounds(rng, 1, max_rounds))
    return map_slots(lambda a: a[0], taus)


def dense_form(stat):
    """A BlockSym as the ScalarSym of its (a, Z), the form dense instances
    add to; any other statistic as it is."""
    return ScalarSym(stat.a, stat.Z) if isinstance(stat, BlockSym) else stat


def stats_allclose(a, b, rtol=1e-12, atol=1e-12):
    """Numeric equality between two statistics of the same tag."""
    if type(a) is not type(b):
        return False
    if isinstance(a, ProductStat):
        return len(a.parts) == len(b.parts) and all(
            stats_allclose(p, q, rtol, atol) for p, q in zip(a.parts, b.parts))
    if isinstance(a, BlockSym):  # compared as (a, Z)
        return all(np.allclose(x, y, rtol=rtol, atol=atol) for x, y in ((a.a, b.a), (a.Z, b.Z)))
    return all(
        np.allclose(getattr(a, f.name), getattr(b, f.name), rtol=rtol, atol=atol)
        for f in fields(a))
