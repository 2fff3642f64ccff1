from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

import pytest

import fusionring as fr
from fusionring.errors import NonTransitiveError
from fusionring.fpengine import (
    AlgebraicNumber,
    _field_inverse,
    char_poly,
    ensure_fpdim_ready,
    exact_cmp,
    exact_mul,
    fpdim_element,
    isolate_max_real_root,
    left_mult_matrix_from_coeffs,
    min_poly,
    normalize_value,
    refine,
)
from fusionring.poly import RationalPolynomial
from fusionring.report import ValidationReport, Violation

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


def su2(k: int) -> fr.FusionData:
    """SU(2)_k: simples j = 0..k (twice the spin), j*l = sum of c with
    |j-l| <= c <= min(j+l, 2k-j-l) and j+l+c even; FPdim(j) is the quantum
    integer [j+1] at q = exp(i pi/(k+2))."""
    r = k + 1

    def n(a: int, b: int, c: int) -> int:
        return int(abs(a - b) <= c <= min(a + b, 2 * k - a - b) and (a + b + c) % 2 == 0)

    return fr.FusionData(
        labels=tuple(f"j{a}" for a in range(r)),
        n_tensor=[[[n(a, b, c) for c in range(r)] for b in range(r)] for a in range(r)],
        dual=range(r),
        eps=(1,) * r,
        endo_degree=1,
        unit=(0,),
    )


def tensor_product(a: fr.FusionData, b: fr.FusionData) -> fr.FusionData:
    """Deligne product of fusion data: simple (x, y) is labelled "x.y"."""
    pairs = [(i, j) for i in range(a.rank) for j in range(b.rank)]
    return fr.FusionData(
        labels=tuple(f"{a.labels[i]}.{b.labels[j]}" for i, j in pairs),
        n_tensor=[
            [[a.n_tensor[i][k][m] * b.n_tensor[j][l][n] for m, n in pairs] for k, l in pairs]
            for i, j in pairs
        ],
        dual=[pairs.index((a.dual[i], b.dual[j])) for i, j in pairs],
        eps=[a.eps[i] * b.eps[j] for i, j in pairs],
        endo_degree=a.endo_degree * b.endo_degree,
        unit=[pairs.index((i, j)) for i in a.unit for j in b.unit],
    )


def fpdim_transport_oracle(f) -> list:
    """The fpdim_transport violations of f, decided per source simple and
    independently of the Perron-field test in the package: FPdim(f(x)) and
    FPdim(x) each from its own char poly, compared by exact_cmp with
    exact_mul(FPdim(D), FPdim(x)), so past MAX_PRODUCT_DEGREE it raises
    UnrepresentableError."""
    violations: list[Violation] = []
    src = f.source
    fpdim_d = fpdim_element(f.twist_element())
    for x in range(src.rank):
        expected = exact_mul(fpdim_d, fpdim_element(src.basis(x)))
        if exact_cmp(fpdim_element(f.apply(src.basis(x))), expected) != 0:
            violations.append(
                Violation(
                    "fpdim_transport",
                    (x,),
                    f"FPdim(f({src.labels[x]})) differs from FPdim(D) * "
                    f"FPdim({src.labels[x]})",
                )
            )
    return violations


# ---------------------------------------------------------------------------
# the regular element over Fractions: K = Q[t]/(m) arithmetic on
# RationalPolynomials, normalised to R_unit = 1 before every comparison; an
# oracle for the integer Perron-field kernel in the package


def perron_vector_oracle(
    data: fr.FusionData, *, waive_transitivity: bool = False
) -> tuple[RationalPolynomial, tuple[RationalPolynomial, ...]]:
    """(m, R): the regular element R as the Perron eigenvector of left
    multiplication L by t = Sum of all simples, normalised to 1 at the unit;
    R = q(L) e_unit, rescaled, for q = char_poly(L)/(t - mu) over K."""
    ensure_fpdim_ready(data, waive_transitivity)
    r = data.rank
    matrix = left_mult_matrix_from_coeffs(data, [1] * r)
    p = char_poly(matrix)
    m = min_poly(isolate_max_real_root(p))
    mu = RationalPolynomial.variable() % m
    # coefficients of q, highest degree first: q_{k-1} = p_k + mu q_k
    q = [RationalPolynomial.constant(1)]
    for c in reversed(p.coeffs[1:-1]):
        q.append(RationalPolynomial.constant(c) + (mu * q[-1]) % m)
    krylov = [int(i == data.unit_index) for i in range(r)]
    vec = [RationalPolynomial.zero()] * r
    for coeff in reversed(q):
        vec = [acc + coeff.scale(v) for acc, v in zip(vec, krylov)]
        krylov = [sum(a * v for a, v in zip(row, krylov)) for row in matrix.rows]
    at_unit = vec[data.unit_index]
    if at_unit.is_zero:
        raise NonTransitiveError("the Perron vector of the sum of all simples vanishes at the unit")
    inverse = _field_inverse(at_unit, m)
    return m, tuple((c * inverse) % m for c in vec)


def eigenproperty_oracle(
    data: fr.FusionData, *, waive_transitivity: bool = False
) -> ValidationReport:
    """(x R)_c == eps_x R_x R_c in K for every x and c, with R from
    perron_vector_oracle."""
    try:
        m, reg = perron_vector_oracle(data, waive_transitivity=waive_transitivity)
    except NonTransitiveError as exc:
        if not waive_transitivity:
            raise
        return ValidationReport.from_violations(
            [Violation("regular_eigenproperty", (data.unit_index,), str(exc))]
        )
    labels = data.labels
    r = data.rank
    violations: list[Violation] = []
    for x in range(r):
        lhs = [RationalPolynomial.zero()] * r
        for i, pairs in enumerate(data.products[x]):
            for c, n in pairs:
                lhs[c] += reg[i].scale(n)
        fpdim_x = reg[x].scale(data.eps[x])
        for c in range(r):
            rhs = (fpdim_x * reg[c]) % m
            if lhs[c] != rhs:
                violations.append(
                    Violation(
                        "regular_eigenproperty",
                        (x, c),
                        f"({labels[x]} * R)[{labels[c]}] = {lhs[c]} != "
                        f"FPdim({labels[x]}) * R[{labels[c]}] = {rhs}",
                    )
                )
    return ValidationReport.from_violations(violations)


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
