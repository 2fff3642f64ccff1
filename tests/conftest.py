from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

import pytest

import fusionring as fr
from fusionring.fpengine import AlgebraicNumber, normalize_value, refine
from fusionring.poly import RationalPolynomial

Rat = Union[int, Fraction]

ALL_NAMES = list(fr.list_builtins())
FUSION_NAMES = [n for n in ALL_NAMES if fr.get_builtin(n).data.is_fusion]
RANK2_FUSION_NAMES = [n for n in FUSION_NAMES if fr.get_builtin(n).data.rank == 2]


@pytest.fixture(scope="session")
def builtins():
    return {name: fr.get_builtin(name) for name in ALL_NAMES}


def fusion_data(name):
    return fr.get_builtin(name).data


def mutate_tensor(data, i, j, k, delta):
    """Copy of the fusion data with one product multiplicity shifted; raises
    ValueError if the shift drives the entry negative."""
    tensor = [[list(row) for row in plane] for plane in data.n_tensor]
    tensor[i][j][k] += delta
    return fr.FusionData(
        labels=data.labels,
        n_tensor=tuple(tuple(tuple(row) for row in plane) for plane in tensor),
        dual=data.dual,
        eps=data.eps,
        endo_degree=data.endo_degree,
        unit=data.unit,
    )


# ---------------------------------------------------------------------------
# exact intervals (pairs of Fractions): an oracle independent of the
# number-field checks in the package

Interval = tuple[Fraction, Fraction]


def as_interval(v: Union[Rat, AlgebraicNumber], width: Fraction) -> Interval:
    v = normalize_value(v)
    if isinstance(v, Fraction):
        return (v, v)
    r = refine(v, width)
    return (r.lo, r.hi)


def iv_add(a: Interval, b: Interval) -> Interval:
    return (a[0] + b[0], a[1] + b[1])


def iv_scale(a: Interval, c: Rat) -> Interval:
    c = Fraction(c)
    return (a[0] * c, a[1] * c) if c >= 0 else (a[1] * c, a[0] * c)


def iv_mul(a: Interval, b: Interval) -> Interval:
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(products), max(products))


def iv_separation(a: Interval, b: Interval) -> Fraction:
    """Zero when the intervals overlap, else the gap between them."""
    return max(Fraction(0), a[0] - b[1], b[0] - a[1])


# ---------------------------------------------------------------------------
# Sturm chains over Fractions, evaluated by Fraction Horner: an oracle
# independent of the integer chains and integer sign evaluation in the package


def sturm_chain(p: RationalPolynomial) -> list[RationalPolynomial]:
    """Canonical Sturm chain p, p', -rem(...), ...  Intended for squarefree p."""
    if p.degree < 1:
        return [p]
    chain = [p, p.derivative()]
    while chain[-1].degree >= 1:
        rem = divmod(chain[-2], chain[-1])[1]
        if rem.is_zero:
            break
        chain.append(-rem)
    return chain


def sign_variations(chain: Sequence[RationalPolynomial], x: Rat) -> int:
    """Sign variations of the chain at x, dropping zero values.

    With this convention V(a) equals the right-limit V(a+) for squarefree
    chains, so V(a) - V(b) counts the distinct real roots in (a, b]
    regardless of whether a or b is itself a root.
    """
    signs = []
    for q in chain:
        v = q.evaluate(x)
        if v:
            signs.append(1 if v > 0 else -1)
    count = 0
    for s, t in zip(signs, signs[1:]):
        if s != t:
            count += 1
    return count
