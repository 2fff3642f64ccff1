"""Regular element, category-level FPdim, and integrality certification.

The regular element has coordinate FPdim(X)/eps_X at each simple X.  The
category dimension Sum FPdim(X)^2/eps_X is never assembled as a sum of
algebraic numbers from different fields; it is the Perron root of the single
rational matrix of left multiplication by s = Sum x*dual(x)/eps_x, whose
strictly positive eigenvector is the regular element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .core import FusionData, dual_element, multiply
from .errors import InconsistentDataError, NonTransitiveError
from .fpengine import (
    DEFAULT_WIDTH,
    AlgebraicNumber,
    ExactValue,
    as_interval,
    char_poly,
    ensure_fpdim_ready,
    exact_mul,
    fpdim_element,
    isolate_max_real_root,
    iv_add,
    iv_mul,
    iv_scale,
    iv_separation,
    left_mult_matrix_from_coeffs,
    min_poly,
)
from .poly import RationalPolynomial
from .report import ValidationReport, Violation

CHECK_WIDTH = Fraction(1, 10**12)
CHECK_TOLERANCE = Fraction(1, 10**9)


@dataclass(frozen=True)
class ExtendedElement:
    """Element with exact real coefficients (rationals or certified algebraic
    numbers); strictly positive when it represents the regular element."""

    data: FusionData
    coeffs: tuple[ExactValue, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.data.rank:
            raise ValueError("coefficient vector does not match the basis")

    @property
    def all_rational(self) -> bool:
        return all(isinstance(c, Fraction) for c in self.coeffs)


def _per_simple_fpdims(
    data: FusionData, waive_transitivity: bool, width: Fraction
) -> list[AlgebraicNumber]:
    return [
        fpdim_element(data.basis(i), waive_transitivity=waive_transitivity, width=width)
        for i in range(data.rank)
    ]


def regular_element(
    data: FusionData,
    *,
    waive_transitivity: bool = False,
    width: Fraction = DEFAULT_WIDTH,
) -> ExtendedElement:
    """The preferred normalization: coordinate of X is FPdim(X)/eps_X."""
    dims = _per_simple_fpdims(data, waive_transitivity, width)
    coeffs = tuple(
        exact_mul(Fraction(1, data.eps[i]), dims[i]) for i in range(data.rank)
    )
    return ExtendedElement(data, coeffs)


def _category_matrix_coeffs(data: FusionData) -> list[Union[int, Fraction]]:
    s: list[Union[int, Fraction]] = [0] * data.rank
    for i in range(data.rank):
        prod = multiply(data.basis(i), dual_element(data.basis(i)))
        e = data.eps[i]
        for c, m in enumerate(prod.coeffs):
            if m:
                s[c] += m if e == 1 else Fraction(m, e)
    return s


def fpdim_category(
    data: FusionData,
    *,
    waive_transitivity: bool = False,
    width: Fraction = DEFAULT_WIDTH,
) -> AlgebraicNumber:
    """FPdim of the regular element, computed exactly as the Perron root of
    left multiplication by s = Sum x*dual(x)/eps_x."""
    ensure_fpdim_ready(data, waive_transitivity)
    matrix = left_mult_matrix_from_coeffs(data, _category_matrix_coeffs(data))
    return isolate_max_real_root(char_poly(matrix), width)


def verify_regular_eigenproperty(
    data: FusionData,
    *,
    waive_transitivity: bool = False,
) -> ValidationReport:
    """Check x * R = FPdim(x) * R for every simple x.

    Exact coefficientwise equality when every FPdim is rational; otherwise a
    certified-interval comparison at width 10^-12 with pass threshold 10^-9.
    """
    dims = _per_simple_fpdims(data, waive_transitivity, CHECK_WIDTH)
    labels = data.labels
    r = data.rank
    n = data.n_tensor
    violations: list[Violation] = []

    if all(d.is_point for d in dims):
        reg = [d.value / data.eps[i] for i, d in enumerate(dims)]
        for x in range(r):
            for c in range(r):
                lhs = sum(reg[i] * n[x][i][c] for i in range(r))
                rhs = dims[x].value * reg[c]
                if lhs != rhs:
                    violations.append(
                        Violation(
                            "regular_eigenproperty",
                            (x, c),
                            f"({labels[x]} * R)[{labels[c]}] = {lhs} != "
                            f"FPdim({labels[x]}) * R[{labels[c]}] = {rhs}",
                        )
                    )
        return ValidationReport.from_violations(violations)

    dim_ivs = [as_interval(d, CHECK_WIDTH) for d in dims]
    reg_ivs = [iv_scale(dim_ivs[i], Fraction(1, data.eps[i])) for i in range(r)]
    for x in range(r):
        for c in range(r):
            lhs = (Fraction(0), Fraction(0))
            for i in range(r):
                if n[x][i][c]:
                    lhs = iv_add(lhs, iv_scale(reg_ivs[i], n[x][i][c]))
            rhs = iv_mul(dim_ivs[x], reg_ivs[c])
            gap = iv_separation(lhs, rhs)
            if gap > CHECK_TOLERANCE:
                violations.append(
                    Violation(
                        "regular_eigenproperty",
                        (x, c),
                        f"({labels[x]} * R)[{labels[c]}] and FPdim({labels[x]}) * "
                        f"R[{labels[c]}] are separated by more than {CHECK_TOLERANCE}",
                    )
                )
    return ValidationReport.from_violations(violations)


@dataclass(frozen=True)
class IntegralityCertificate:
    fpdim: AlgebraicNumber
    min_poly: RationalPolynomial
    is_algebraic_integer: bool


def certify_integrality(
    data: FusionData,
    *,
    waive_transitivity: bool = False,
    width: Fraction = DEFAULT_WIDTH,
) -> IntegralityCertificate:
    """Minimal polynomial of FPdim of the category and whether it is monic
    with integer coefficients.  A false flag is a finding about abstract
    data, not an error: categorified data always certifies."""
    dim = fpdim_category(data, waive_transitivity=waive_transitivity, width=width)
    poly = min_poly(dim)
    return IntegralityCertificate(dim, poly, poly.has_integer_coeffs())


def is_invertible(data: FusionData, x: Union[int, str]) -> bool:
    """True iff x * dual(x) is exactly the unit; cross-checked against
    FPdim(x) = 1 when transitivity allows FPdim to be evaluated."""
    i = x if isinstance(x, int) else data.index(x)
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
