"""Real Deligne-product bookkeeping.

Over the reals, a simple object's endomorphism algebra is R, C, or H, and
products of simples split according to the tensor table of those division
algebras.  The table is specific to base field R (the only base field with a
finite classification), the one base field a description has.

Products are object-level only: distributing fusion coefficients across
split summands needs categorical data the semiring does not carry.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple

from .report import Record, ValidationReport, Violation


class DivisionType(Enum):
    REAL = "R"
    COMPLEX = "C"
    QUATERNION = "H"

    @property
    def dim(self) -> int:
        return {"R": 1, "C": 2, "H": 4}[self.value]


class SemisimpleDesc(Record):
    """Object-level description of a semisimple category over R: labelled
    simples with their division types.  No tensor structure."""

    simples: tuple[tuple[str, DivisionType], ...]

    def __init__(self, simples: Iterable[Iterable]) -> None:
        vars(self).update(simples=tuple(tuple(s) for s in simples))
        labels = [label for label, _ in self.simples]
        if len(set(labels)) != len(labels):
            raise ValueError("semisimple description labels must be distinct")


class TensorCell(NamedTuple):
    division_type: DivisionType
    multiplicity: int  # isomorphic copies of each output simple
    distinct_count: int  # pairwise non-isomorphic output simples


_R = DivisionType.REAL
_C = DivisionType.COMPLEX
_H = DivisionType.QUATERNION

# A (x)_R B by Frobenius' classification: R acts as the unit row, C (x) C
# splits into two copies of C, C (x) H is M_2(C), H (x) H is M_4(R).
_TABLE: dict[tuple[DivisionType, DivisionType], tuple[TensorCell, ...]] = {
    (_R, _R): (TensorCell(_R, 1, 1),),
    (_R, _C): (TensorCell(_C, 1, 1),),
    (_R, _H): (TensorCell(_H, 1, 1),),
    (_C, _C): (TensorCell(_C, 1, 2),),
    (_C, _H): (TensorCell(_C, 2, 1),),
    (_H, _H): (TensorCell(_R, 4, 1),),
}


def tensor_types(a: DivisionType, b: DivisionType) -> tuple[TensorCell, ...]:
    """How a product of simples with endomorphism types a and b decomposes."""
    key = (a, b) if (a, b) in _TABLE else (b, a)
    return _TABLE[key]


class ProductSimple(Record):
    label: str
    division_type: DivisionType
    multiplicity: int

    def __init__(self, label: str, division_type: DivisionType, multiplicity: int) -> None:
        vars(self).update(label=label, division_type=division_type, multiplicity=multiplicity)


def deligne_product(a: SemisimpleDesc, b: SemisimpleDesc) -> tuple[ProductSimple, ...]:
    """Object-level decomposition of the product of two descriptions, with
    generated labels; output order and labels are deterministic."""
    out: list[ProductSimple] = []
    for label_a, type_a in a.simples:
        for label_b, type_b in b.simples:
            for cell in tensor_types(type_a, type_b):
                for copy in range(1, cell.distinct_count + 1):
                    suffix = f"#{copy}" if cell.distinct_count > 1 else ""
                    out.append(
                        ProductSimple(
                            f"{label_a}*{label_b}{suffix}",
                            cell.division_type,
                            cell.multiplicity,
                        )
                    )
    return tuple(out)


# ---------------------------------------------------------------------------
# the 4-dimensional structure-constant algebra C (x)_R C

# basis order: 1(x)1, i(x)1, 1(x)i, i(x)i; entries (index, sign)
_CC_TABLE: tuple[tuple[tuple[int, int], ...], ...] = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, 1), (0, -1), (1, -1)),
    ((3, 1), (2, -1), (1, -1), (0, 1)),
)

CCVector = tuple[Fraction, Fraction, Fraction, Fraction]


def cc_multiply(x: CCVector, y: CCVector) -> CCVector:
    out = [Fraction(0)] * 4
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            k, sign = _CC_TABLE[i][j]
            out[k] += sign * xi * yj
    return tuple(out)  # type: ignore[return-value]


CC_ONE: CCVector = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
CC_P: CCVector = (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(-1, 2))
CC_Q: CCVector = (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(1, 2))


def verify_cc_idempotents() -> ValidationReport:
    """Exact check that p = (1(x)1 - i(x)i)/2 and q = (1(x)1 + i(x)i)/2 are
    orthogonal idempotents summing to the identity of C (x)_R C."""
    violations = []
    checks = (
        ("p_idempotent", cc_multiply(CC_P, CC_P), CC_P),
        ("q_idempotent", cc_multiply(CC_Q, CC_Q), CC_Q),
        ("orthogonal", cc_multiply(CC_P, CC_Q), (Fraction(0),) * 4),
        ("partition_of_unity", tuple(p + q for p, q in zip(CC_P, CC_Q)), CC_ONE),
    )
    for rule, got, expected in checks:
        if tuple(got) != tuple(expected):
            violations.append(Violation(rule, (), f"got {got}, expected {expected}"))
    return ValidationReport.from_violations(violations)
