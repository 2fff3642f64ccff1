"""Morphisms between fusion semirings.

Morphisms are extensional: a nonnegative-integer matrix sending source
simples to target elements, optionally twisted by a source element D with
f(x) f(y) = f(x D y).  The module verifies that identity, decides dominance,
certifies FPdim transport, and evaluates the adjoint / relative-tensor /
Morita formulas.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .core import FusionData, MultisetElement, is_int, multiply
from .errors import InconsistentDataError
from .fpengine import (
    AlgebraicNumber,
    ExactValue,
    algebraic_equal,
    ensure_fpdim_ready,
    exact_cmp,
    exact_mul,
    field_apply,
    field_matrix,
    field_mul,
    fpdim_element,
    left_mult_matrix_from_coeffs,
    normalize_value,
    perron_data,
    reciprocal,
)
from .regular import fpdim_category
from .report import Record, ValidationReport, Violation
from .validate import check_structural

Rat = Union[int, Fraction]
ValueLike = Union[Rat, AlgebraicNumber]


class SemiringMorphism(Record):
    """Matrix presentation of a map between fusion bases.

    matrix[t][s] is the multiplicity of target simple t in the image of
    source simple s (column s = image of source simple s).  twist is the
    element D of the source; None means untwisted (D = 1).
    """

    source: FusionData
    target: FusionData
    matrix: tuple[tuple[int, ...], ...]
    twist: Optional[MultisetElement]

    def __init__(
        self,
        source: FusionData,
        target: FusionData,
        matrix: Sequence[Sequence[int]],
        twist: Optional[MultisetElement] = None,
    ) -> None:
        vars(self).update(
            source=source, target=target, matrix=tuple(tuple(row) for row in matrix), twist=twist
        )
        if len(self.matrix) != self.target.rank or any(
            len(row) != self.source.rank for row in self.matrix
        ):
            raise ValueError("matrix must be target_rank x source_rank")
        if any(not is_int(m) or m < 0 for row in self.matrix for m in row):
            raise ValueError("matrix entries must be nonnegative integers")
        if self.twist is not None and self.twist.data != self.source:
            raise ValueError("twist element must live in the source")

    def twist_element(self) -> MultisetElement:
        return self.twist if self.twist is not None else self.source.one()

    def apply(self, x: MultisetElement) -> MultisetElement:
        if x.data != self.source:
            raise ValueError("element is not in the source")
        out = [
            sum(row[s] * x.coeffs[s] for s in range(self.source.rank)) for row in self.matrix
        ]
        return MultisetElement._certified(self.target, tuple(out))


def check_homomorphism(f: SemiringMorphism) -> ValidationReport:
    """Verify f(x) f(y) = f(x D y) on all basis pairs (bilinearity extends
    this to everything), plus the unit condition: f(1) = 1 untwisted, and
    f(1) >= 1 twisted.  Each basis image f(y) is formed once; the unit
    violation comes first, then the pair violations in (x, y) order."""
    violations: list[Violation] = []
    src, tgt = f.source, f.target
    d = f.twist_element()
    one_image = f.apply(src.one())
    if f.twist is None:
        if one_image.coeffs != tgt.one().coeffs:
            violations.append(
                Violation("unit_image", (), f"f(1) = {one_image}, expected the target unit")
            )
    else:
        if not all(a >= b for a, b in zip(one_image.coeffs, tgt.one().coeffs)):
            violations.append(
                Violation(
                    "unit_image", (), f"f(1) = {one_image} does not dominate the target unit"
                )
            )
    simples = list(src.simples())
    images = [f.apply(b) for b in simples]
    for x, bx in enumerate(simples):
        xd = multiply(bx, d)
        for y, by in enumerate(simples):
            lhs = multiply(images[x], images[y])
            rhs = f.apply(multiply(xd, by))
            if lhs.coeffs != rhs.coeffs:
                violations.append(
                    Violation(
                        "twisted_homomorphism",
                        (x, y),
                        f"f({src.labels[x]}) f({src.labels[y]}) = {lhs} but "
                        f"f({src.labels[x]} D {src.labels[y]}) = {rhs}",
                    )
                )
    return ValidationReport.from_violations(violations)


def check_dominant(f: SemiringMorphism) -> bool:
    """True iff every target simple is dominated by the image of some source
    element; it suffices to inspect the image of the sum of all simples."""
    total = [sum(row) for row in f.matrix]
    return all(c >= 1 for c in total)


def verify_fpdim_transport(f: SemiringMorphism) -> ValidationReport:
    """Certify FPdim(f(x)) = FPdim(D) FPdim(x) for all source simples, and,
    when f is dominant, f(R_A) = FPdim(D) (FPdim(A)/FPdim(B)) R_B, exactly:
    the first by _scaled_fpdim_violations (no products), the
    second by _regular_transport_violations in the source's Perron field.
    Raises InconsistentDataError unless both rings pass check_structural:
    on non-associative data the two FPdim readings need not agree."""
    hom = check_homomorphism(f)
    if not hom.passed:
        return hom
    message = "FPdim(f({0})) differs from FPdim(D) * FPdim({0})"
    scalar = partial(fpdim_element, f.twist_element())
    violations = _scaled_fpdim_violations(f, scalar, "fpdim_transport", message)
    if check_dominant(f):
        violations += _regular_transport_violations(f)
    return ValidationReport.from_violations(violations)


def _require_fpdim_rings(f: SemiringMorphism) -> None:
    """The gates of the FPdim checks on both rings: ensure_fpdim_ready, then
    check_structural (kept on the ring), whose failure raises InconsistentDataError."""
    for data in (f.source, f.target):
        ensure_fpdim_ready(data)
    for role, data in (("source", f.source), ("target", f.target)):
        report = data._fact("structural", check_structural)
        if not report.passed:
            failure = report.violations[0].message
            raise InconsistentDataError(f"the {role} fails structural checks: {failure}")


# Elements of a Perron field K = Q(mu) below are integer coefficient tuples
# in Z[mu]/(m), as in fpengine.perron_data: multiples of R-expressions by a
# power of W_unit, so every test is an equality homogeneous in W.


def _combine(vec: Sequence[tuple[int, ...]], coeffs: Iterable[int]) -> tuple[int, ...]:
    """Sum_i coeffs[i] vec[i] for elements vec[i] of Z[mu]/(m)."""
    out = [0] * len(vec[0])
    for v, c in zip(vec, coeffs):
        if c:
            for k, a in enumerate(v):
                out[k] += c * a
    return tuple(out)


def _off_eigenvector(m: Sequence[int], v: Sequence, image: Sequence, u: int) -> list[int]:
    """The i with (M v)_i v_u != (M v)_u v_i in Z[mu]/(m), for image = M v:
    none iff v, nonzero at u, is an eigenvector of M.  Homogeneous in v, so
    any nonzero multiple of v gives the same answer."""
    times_v_u, times_image_u = field_matrix(v[u], m), field_matrix(image[u], m)
    return [
        i
        for i in range(len(v))
        if field_apply(times_v_u, image[i]) != field_apply(times_image_u, v[i])
    ]


def _fpdims(data: FusionData, w: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """W_unit FPdim(y) = (y W)_unit = Sum_i N[y][i][unit] W_i; eps_y W_y would
    trust eps."""
    u = data.unit_index
    return [_combine(w, [dict(row).get(u, 0) for row in plane]) for plane in data.products]


def _scaled_fpdim_violations(
    f: SemiringMorphism, scalar: Callable[[], ValueLike], rule: str, message: str
) -> list[Violation]:
    """Violations at the source simples x where FPdim(f(x)) = scalar() FPdim(x)
    fails.  The image FPdims v (target's Perron field, scaled by the target's
    W_unit) must be an eigenvector of the source's right multiplication by
    t = Sum of simples, a positive matrix on transitive data, so
    v = v_u FPdim (else flag where off); then exact_cmp(FPdim(f(1)),
    scalar()) fixes v_u (else flag every simple)."""
    src = f.source
    _require_fpdim_rings(f)
    m, w = perron_data(f.target)
    fpdims = _fpdims(f.target, w)
    v = [_combine(fpdims, col) for col in zip(*f.matrix)]
    t = src.element([1] * src.rank)
    pv = [_combine(v, multiply(x, t).coeffs) for x in src.simples()]
    off = _off_eigenvector(m, v, pv, src.unit_index)
    if not off and exact_cmp(fpdim_element(f.apply(src.one())), scalar()) != 0:
        off = list(range(src.rank))
    return [Violation(rule, (x,), message.format(src.labels[x])) for x in off]


def _regular_transport_violations(f: SemiringMorphism) -> list[Violation]:
    """Violations of f(R_A) = FPdim(D) (FPdim(A)/FPdim(B)) R_B, decided in
    the source's Perron field on w = f(W) = W_unit f(R_A).  w must be an
    eigenvector of the target's L_t (else flag where off), and then
    Sum_t eps_t f(R_A)_t^2 = f(R_A)_u FPdim(D) FPdim(A) fixes its scale;
    multiplied by W_unit^4 that reads

        W_unit^2 Sum_t eps_t w_t^2 == w_u FPdim_D(W) FPdim_A(W)

    with FPdim_D(W) = W_unit FPdim(D) and FPdim_A(W) = Sum_x eps_x W_x^2
    (else flag every target simple)."""
    src, tgt = f.source, f.target
    m, w_src = perron_data(src)
    w = [_combine(w_src, row) for row in f.matrix]
    lw = [_combine(w, row) for row in left_mult_matrix_from_coeffs(tgt, [1] * tgt.rank).rows]
    u = tgt.unit_index
    off = _off_eigenvector(m, w, lw, u)
    message = "f(R_A) is not an eigenvector of the sum of the target simples at {}"
    if not off:
        w_unit = w_src[src.unit_index]
        fpdim_d = _combine(_fpdims(src, w_src), f.twist_element().coeffs)
        fpdim_a = _combine([field_mul(c, c, m) for c in w_src], src.eps)
        norm = _combine([field_mul(c, c, m) for c in w], tgt.eps)
        lhs = field_mul(field_mul(w_unit, w_unit, m), norm, m)
        if lhs != field_mul(field_mul(w[u], fpdim_d, m), fpdim_a, m):
            off = list(range(tgt.rank))
            message = "f(R_A)[{0}] differs from FPdim(D) (FPdim(A)/FPdim(B)) R_B[{0}]"
    return [Violation("regular_transport", (t,), message.format(tgt.labels[t])) for t in off]


def _require_positive(name: str, v: ValueLike) -> ExactValue:
    value = normalize_value(v)
    if exact_cmp(value, Fraction(0)) <= 0:
        raise ValueError(f"{name} must be positive")
    return value


def exact_div(a: ValueLike, b: ValueLike) -> ExactValue:
    """Exact quotient a / b for positive exact values."""
    a, b = normalize_value(a), normalize_value(b)
    if isinstance(a, AlgebraicNumber) and isinstance(b, AlgebraicNumber) and algebraic_equal(a, b):
        return Fraction(1)
    return exact_mul(a, reciprocal(b))


def adjoint_fpdim(
    fpdim_d: ValueLike,
    d_a: int,
    d_b: int,
    fpdim_cat_a: ValueLike,
    fpdim_cat_b: ValueLike,
    fpdim_x: ValueLike,
) -> ExactValue:
    """FPdim carried through an adjoint of a twisted dominant functor:
    FPdim(D) * (d_B/d_A) * (FPdim(A)/FPdim(B)) * FPdim(X)."""
    if d_a < 1 or d_b < 1:
        raise ValueError("endomorphism degrees must be positive integers")
    fpdim_d = _require_positive("FPdim(D)", fpdim_d)
    cat_a = _require_positive("FPdim of the source category", fpdim_cat_a)
    cat_b = _require_positive("FPdim of the target category", fpdim_cat_b)
    fpdim_x = _require_positive("FPdim(X)", fpdim_x)
    ratio = exact_div(cat_a, cat_b)
    return exact_mul(exact_mul(exact_mul(fpdim_d, Fraction(d_b, d_a)), ratio), fpdim_x)


def relative_tensor_fpdim(m: ValueLike, n: ValueLike, d_d: ValueLike) -> ExactValue:
    """FPdim of a relative tensor product of modules: m * n / FPdim(D)."""
    d_val = normalize_value(d_d)
    if isinstance(d_val, Fraction) and d_val == 0:
        raise ZeroDivisionError("FPdim(D) must be nonzero")
    d_val = _require_positive("FPdim(D)", d_val)
    return exact_div(exact_mul(normalize_value(m), normalize_value(n)), d_val)


def check_adjoint_matrix(adjoint: SemiringMorphism, fpdim_d: ValueLike) -> ValidationReport:
    """Consistency check of the adjoint formula against a concrete matrix.

    `adjoint` is the adjoint functor's semiring matrix (source = the twisted
    functor's target, where the formula's FPdim(X) lives).  For every simple
    X the FPdim of the image must be FPdim(D) (d_B/d_A) (FPdim(A)/FPdim(B))
    FPdim(X): _scaled_fpdim_violations with the scalar adjoint_fpdim(..., 1),
    whose ValueError on FPdim(D) <= 0 this check inherits, and
    InconsistentDataError unless both rings pass check_structural.
    """
    src, tgt = adjoint.source, adjoint.target

    def scalar() -> ExactValue:
        cats = (fpdim_category(tgt), fpdim_category(src))
        return adjoint_fpdim(fpdim_d, tgt.endo_degree, src.endo_degree, *cats, 1)

    message = "FPdim of the adjoint image of {} disagrees with the transport formula"
    violations = _scaled_fpdim_violations(adjoint, scalar, "adjoint_fpdim", message)
    return ValidationReport.from_violations(violations)


class MoritaComparison(NamedTuple):
    ratio_a: ExactValue
    ratio_b: ExactValue
    equal: bool


def morita_ratio_equal(a: FusionData, b: FusionData) -> MoritaComparison:
    """Compare the Morita invariant FPdim(C)/d exactly for two fusion data."""
    ratio_a = exact_mul(Fraction(1, a.endo_degree), fpdim_category(a))
    ratio_b = exact_mul(Fraction(1, b.endo_degree), fpdim_category(b))
    return MoritaComparison(ratio_a, ratio_b, exact_cmp(ratio_a, ratio_b) == 0)
