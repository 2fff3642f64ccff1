"""Regular element, category-level FPdim, and integrality certification.

The regular element has coordinate FPdim(X)/eps_X at each simple X.  The
category dimension Sum FPdim(X)^2/eps_X is never assembled as a sum of
algebraic numbers from different fields; it is the Perron root of the single
rational matrix of left multiplication by s = Sum x*dual(x)/eps_x, whose
strictly positive eigenvector is the regular element.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .core import FusionData, dual_element, is_int, multiply
from .errors import InconsistentDataError, NonTransitiveError
from .fpengine import (
    AlgebraicNumber,
    ExactValue,
    _field_inverse,
    ensure_fpdim_ready,
    exact_mul,
    field_apply,
    field_matrix,
    fpdim_element,
    left_mult_matrix_from_coeffs,
    min_poly,
    perron_data,
    perron_root,
)
from .poly import RationalPolynomial
from .report import Record, ValidationReport, Violation


class ExtendedElement(Record):
    """Element with exact real coefficients (rationals or certified algebraic
    numbers); strictly positive when it represents the regular element."""

    data: FusionData
    coeffs: tuple[ExactValue, ...]

    def __init__(self, data: FusionData, coeffs: tuple[ExactValue, ...]) -> None:
        vars(self).update(data=data, coeffs=coeffs)
        if len(self.coeffs) != self.data.rank:
            raise ValueError("coefficient vector does not match the basis")


def regular_element(data: FusionData) -> ExtendedElement:
    """The preferred normalization: coordinate of X is FPdim(X)/eps_X."""
    coeffs = tuple(
        exact_mul(Fraction(1, e), fpdim_element(x)) for e, x in zip(data.eps, data.simples())
    )
    return ExtendedElement(data, coeffs)


def _category_matrix_coeffs(data: FusionData) -> list[Union[int, Fraction]]:
    """Coefficients of s = Sum x*dual(x)/eps_x, read off the product index:
    x*dual(x) is products[x][dual(x)].  Ints unless some eps_x > 1."""
    s: list[Union[int, Fraction]] = [0] * data.rank
    for row, d, e in zip(data.products, data.dual, data.eps):
        for c, m in row[d]:
            s[c] += m if e == 1 else Fraction(m, e)
    return s


def fpdim_category(data: FusionData) -> AlgebraicNumber:
    """FPdim of the regular element, computed exactly as the Perron root of
    left multiplication by s = Sum x*dual(x)/eps_x (fpengine.perron_root,
    so constant line sums give it with no char poly)."""
    ensure_fpdim_ready(data)
    return perron_root(left_mult_matrix_from_coeffs(data, _category_matrix_coeffs(data)))


def verify_regular_eigenproperty(data: FusionData) -> ValidationReport:
    """Check x * R = FPdim(x) * R for every simple x, exactly.

    A positive common eigenvector R of all left multiplications forces
    eps_x R_x = FPdim(x), so the check is (x R)_c == eps_x R_x R_c in the
    Perron field K for every x and c.  With R = W / W_unit and W, K from
    fpengine.perron_data, that is the integer identity

        W_unit (x W)_c == eps_x W_x W_c   in Z[mu]/(m),

    decided with one multiplication matrix per x and no inverse.  Only a
    violation is normalised: its message prints both sides as elements of
    K, polynomials in t = FPdim(sum of simples) (rationals when K = Q).
    Non-transitive data raises NonTransitiveError, as in perron_data.
    """
    m, w = perron_data(data)
    labels = data.labels
    r = data.rank
    d = len(m) - 1
    at_unit = field_matrix(w[data.unit_index], m)
    scaled = [field_apply(at_unit, c) for c in w]  # W_unit W_i
    violations: list[Violation] = []
    inverse = None  # 1/W_unit^2 in K, built at the first violation
    for x in range(r):
        lhs = [[0] * d for _ in range(r)]
        for i, pairs in enumerate(data.products[x]):
            for c, n in pairs:
                acc = lhs[c]
                for k, a in enumerate(scaled[i]):
                    acc[k] += n * a
        times_x = field_matrix([data.eps[x] * a for a in w[x]], m)
        for c in range(r):
            rhs = field_apply(times_x, w[c])
            if tuple(lhs[c]) != rhs:
                if inverse is None:
                    m_poly = RationalPolynomial(m)
                    inverse = _field_inverse(RationalPolynomial(scaled[data.unit_index]), m_poly)
                lhs_k = (RationalPolynomial(lhs[c]) * inverse) % m_poly
                rhs_k = (RationalPolynomial(rhs) * inverse) % m_poly
                violations.append(
                    Violation(
                        "regular_eigenproperty",
                        (x, c),
                        f"({labels[x]} * R)[{labels[c]}] = {lhs_k} != "
                        f"FPdim({labels[x]}) * R[{labels[c]}] = {rhs_k}",
                    )
                )
    return ValidationReport.from_violations(violations)


class IntegralityCertificate(Record):
    fpdim: AlgebraicNumber
    min_poly: RationalPolynomial
    is_algebraic_integer: bool

    def __init__(
        self, fpdim: AlgebraicNumber, min_poly: RationalPolynomial, is_algebraic_integer: bool
    ) -> None:
        vars(self).update(
            fpdim=fpdim, min_poly=min_poly, is_algebraic_integer=is_algebraic_integer
        )


def certify_integrality(data: FusionData) -> IntegralityCertificate:
    """Minimal polynomial of FPdim of the category and whether it is monic
    with integer coefficients.  A false flag is a finding about abstract
    data, not an error: categorified data always certifies."""
    dim = fpdim_category(data)
    poly = min_poly(dim)
    return IntegralityCertificate(dim, poly, poly.has_integer_coeffs())


def is_invertible(data: FusionData, x: Union[int, str]) -> bool:
    """True iff x * dual(x) is exactly the unit; cross-checked against
    FPdim(x) = 1 when transitivity allows FPdim to be evaluated."""
    i = x if is_int(x) else data.index(x)
    product = multiply(data.basis(i), dual_element(data.basis(i)))
    invertible = product.coeffs == data.one().coeffs
    try:
        dim = fpdim_element(data.basis(i))
    except NonTransitiveError:
        return invertible
    if (dim.cmp_rational(1) == 0) != invertible:
        raise InconsistentDataError(
            f"FPdim({data.labels[i]}) = 1 must coincide with invertibility "
            "on valid fusion data"
        )
    return invertible
