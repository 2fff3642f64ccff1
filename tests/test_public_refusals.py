"""Public refusals: each call raises the named exception with this message."""

from __future__ import annotations

from fractions import Fraction

import pytest

import fusionring as fr
from fusionring.catalog import _s3_group
from fusionring.galois import center_endo_degree
from fusionring.poly import RationalPolynomial as P
from conftest import cyclic, fusion_data

SQRT2 = fr.AlgebraicNumber(P((-2, 0, 1)), 1, 2)
MINUS_SQRT2 = fr.AlgebraicNumber(P((-2, 0, 1)), -2, -1)
Z2 = fr.FiniteGroup(("1", "c"), ((0, 1), (1, 0)))
# 1 is the identity and every row holds it, but (a a) b = 1 differs from a (a b) = a
LOOP = ((0, 1, 2), (1, 1, 0), (2, 0, 2))
KLEIN = fr.FiniteGroup(
    ("1", "a", "b", "ab"), tuple(tuple(i ^ j for j in range(4)) for i in range(4))
)
Z4 = fr.FiniteGroup(
    ("1", "s", "s2", "s3"), tuple(tuple((i + j) % 4 for j in range(4)) for i in range(4))
)


def _klein_with_ab_nontrivial():
    data, _ = fr.from_galois_group(KLEIN, KLEIN.labels)
    marks = (fr.GaloisMark.trivial(),) * 3 + (fr.GaloisMark.nontrivial(),)
    return fr.galois_trivial_subring(data, fr.GaloisAnnotation(marks))


def _s3_center_degree():
    group = _s3_group()
    data, annotation = fr.from_galois_group(group, group.labels)
    return center_endo_degree(data, annotation)


def _z2_marks_on_degree_one():
    marks = (fr.GaloisMark.of("1"), fr.GaloisMark.of("c"))
    return center_endo_degree(cyclic(2), fr.GaloisAnnotation(marks, group=Z2))


def _foreign_twist():
    fib = fusion_data("fib")
    return fr.SemiringMorphism(fib, fib, ((1, 0), (0, 1)), twist=cyclic(2).one())


def _apply_to_foreign():
    fib = fusion_data("fib")
    return fr.SemiringMorphism(fib, fib, ((1, 0), (0, 1))).apply(cyclic(2).one())


#: id -> (call, exception type, message)
REFUSALS = {
    "matrix-not-square": (
        lambda: fr.RationalMatrix(((1, 2),)),
        ValueError,
        "matrix must be square and nonempty",
    ),
    "interval-lo-above-hi": (
        lambda: fr.AlgebraicNumber(P((-2, 1)), 3, 1),
        ValueError,
        "empty isolating interval",
    ),
    "interval-endpoint-on-root": (
        lambda: fr.AlgebraicNumber(P((-2, 1)), 2, 3),
        ValueError,
        "isolating interval endpoints must not be roots",
    ),
    "interval-holds-three-roots": (
        lambda: fr.AlgebraicNumber(P((0, -1, 0, 1)), -2, 2),
        ValueError,
        "interval does not isolate exactly one real root",
    ),
    "value-of-non-point": (lambda: SQRT2.value, ValueError, "not an exact rational"),
    "scaled-by-zero": (
        lambda: SQRT2.scaled(0),
        ValueError,
        "scaling an algebraic number by zero loses the field",
    ),
    "isolate-zero-poly": (
        lambda: fr.isolate_max_real_root(P(())),
        ValueError,
        "the zero polynomial has no isolated roots",
    ),
    "isolate-constant": (
        lambda: fr.isolate_max_real_root(P((3,))),
        fr.NoRealRootError,
        "constant polynomial has no real root",
    ),
    "product-of-negative": (
        lambda: fr.mul_algebraic(MINUS_SQRT2, SQRT2),
        fr.UnrepresentableError,
        "products are only formed for positive values",
    ),
    "product-with-negative": (
        lambda: fr.mul_algebraic(SQRT2, MINUS_SQRT2),
        fr.UnrepresentableError,
        "products are only formed for positive values",
    ),
    "reciprocal-of-negative": (
        lambda: fr.reciprocal(MINUS_SQRT2),
        fr.UnrepresentableError,
        "reciprocal is only formed for positive values",
    ),
    "exact-div-by-zero": (lambda: fr.exact_div(1, 0), ZeroDivisionError, "reciprocal of zero"),
    "group-duplicate-labels": (
        lambda: fr.FiniteGroup(("1", "1"), ((0, 1), (1, 0))),
        ValueError,
        "group labels must be nonempty and distinct",
    ),
    "group-not-associative": (
        lambda: fr.FiniteGroup(("1", "a", "b"), LOOP),
        ValueError,
        "multiplication table is not associative",
    ),
    "group-unknown-element": (lambda: Z2.index("x"), KeyError, "unknown group element 'x'"),
    "mark-unknown-kind": (
        lambda: fr.GaloisMark("odd"),
        ValueError,
        "unknown mark kind 'odd'",
    ),
    "mark-element-without-label": (
        lambda: fr.GaloisMark("element"),
        ValueError,
        "exactly the element marks carry a group element",
    ),
    "element-marks-without-group": (
        lambda: fr.GaloisAnnotation((fr.GaloisMark.of("c"),)),
        ValueError,
        "element marks need an attached group",
    ),
    "annotation-length": (
        lambda: fr.galois_trivial_subring(
            cyclic(2), fr.GaloisAnnotation((fr.GaloisMark.trivial(),))
        ),
        fr.InconsistentAnnotationError,
        "annotation length does not match the rank",
    ),
    "subset-duplicate-labels": (
        lambda: fr.from_galois_group(Z2, ("1", "1")),
        ValueError,
        "subset labels must be distinct",
    ),
    "subset-not-closed": (
        lambda: fr.from_galois_group(Z4, ("1", "s", "s3")),
        ValueError,
        "subset is not closed under multiplication at s*s",
    ),
    "product-leaves-trivial-simples": (
        _klein_with_ab_nontrivial,
        fr.InconsistentAnnotationError,
        "product a*b leaves the Galois-trivial simples at ab",
    ),
    "center-degree-non-abelian": (
        _s3_center_degree,
        fr.InsufficientDataError,
        "center degree for non-abelian Galois data must be supplied",
    ),
    "center-degree-group-order": (
        _z2_marks_on_degree_one,
        fr.InconsistentAnnotationError,
        "annotation group order does not match the endomorphism degree",
    ),
    "unit-index-of-multifusion": (
        lambda: fusion_data("m2_vec").unit_index,
        fr.NotFusionError,
        "the unit of this data is not simple",
    ),
    "extended-element-length": (
        lambda: fr.ExtendedElement(fusion_data("fib"), (Fraction(1),)),
        ValueError,
        "coefficient vector does not match the basis",
    ),
    "twist-from-another-ring": (
        _foreign_twist,
        ValueError,
        "twist element must live in the source",
    ),
    "apply-to-foreign-element": (
        _apply_to_foreign,
        ValueError,
        "element is not in the source",
    ),
    "emit-morphism-of-a-ring": (
        lambda: fr.emit_morphism_file(fusion_data("fib")),
        TypeError,
        "expected a SemiringMorphism, not FusionData",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS)
def test_public_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert info.value.args == (message,)
