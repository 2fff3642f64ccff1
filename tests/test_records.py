"""The package's immutable records behave as the frozen dataclasses they
replace.

Each record is compared with a `@dataclass(frozen=True)` twin of the same
name and fields, built here: construction by position, by keyword and with
defaults, equality and hashing, the repr string, and the errors of
assignment and deletion.  The package itself never imports dataclasses; a
fresh interpreter checks that importing the CLI loads neither dataclasses
nor inspect.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fusionring as fr
from fusionring import (
    CenterPrediction,
    ExtendedElement,
    FixtureEntry,
    IntegralityCertificate,
    RationalPolynomial,
    ValidationReport,
    Violation,
)
from fusionring.report import Record

SRC = Path(__file__).resolve().parents[1] / "src"

FIB = fr.get_builtin("fib").data
Z2 = fr.get_builtin("vec_z2").data
PHI_POLY = RationalPolynomial([-1, -1, 1])
PHI = fr.AlgebraicNumber(PHI_POLY, Fraction(3, 2), Fraction(2))
VIOLATION = Violation("associativity", (0, 1, 1), "(x*x)*x != x*(x*x)")
GROUP = fr.FiniteGroup(("e", "g"), ((0, 1), (1, 0)))
MARKS = (fr.GaloisMark("trivial"), fr.GaloisMark("element", "g"))
DESC = fr.SemisimpleDesc((("1", fr.DivisionType.REAL), ("c", fr.DivisionType.COMPLEX)))


class Case:
    """A record class, its fields in order with the defaults of the
    optional ones, and values for every field, in the stored form so that
    the twin holds what the record holds.  `bare` are arguments for the
    required fields alone, where `values` would not construct without the
    optional ones."""

    def __init__(self, cls, fields: str, values: tuple, bare=None, **defaults) -> None:
        self.cls, self.fields, self.values = cls, tuple(fields.split()), values
        self.defaults = defaults
        self.bare = bare or tuple(v for name, v in zip(self.fields, values) if name not in defaults)
        self.twin = dataclasses.make_dataclass(
            cls.__name__,
            [
                (name, object, dataclasses.field(default=defaults[name]))
                if name in defaults
                else (name, object)
                for name in self.fields
            ],
            frozen=True,
        )

    def __repr__(self) -> str:
        return self.cls.__name__


CASES = [
    Case(Violation, "rule witness message", (VIOLATION.rule, VIOLATION.witness, VIOLATION.message)),
    Case(ValidationReport, "passed violations", (False, (VIOLATION,)), violations=()),
    Case(
        fr.FusionData,
        "labels products dual eps endo_degree unit",
        (FIB.labels, FIB.products, FIB.dual, FIB.eps, FIB.endo_degree, FIB.unit),
    ),
    Case(fr.MultisetElement, "data coeffs", (FIB, (1, 2))),
    Case(fr.AlgebraicNumber, "poly lo hi", (PHI_POLY, Fraction(3, 2), Fraction(2))),
    Case(fr.RationalMatrix, "rows", (((1, Fraction(1, 2)), (0, 1)),)),
    Case(fr.SemisimpleDesc, "simples", (DESC.simples,)),
    Case(
        fr.ProductSimple, "label division_type multiplicity", ("c*c#1", fr.DivisionType.COMPLEX, 1)
    ),
    Case(fr.FiniteGroup, "labels table", (GROUP.labels, GROUP.table)),
    Case(fr.GaloisMark, "kind element", ("element", "g"), ("nontrivial",), element=None),
    Case(
        fr.GaloisAnnotation,
        "marks group center_degree",
        (MARKS, GROUP, 2),
        (MARKS[:1],),
        group=None,
        center_degree=None,
    ),
    Case(
        CenterPrediction,
        "predicted bound_ok equality strict consistent center_degree image",
        (PHI, True, False, True, True, 1, FIB),
    ),
    Case(
        fr.SemiringMorphism,
        "source target matrix twist",
        (Z2, Z2, ((1, 1), (1, 1)), Z2.element((1, 1))),
        twist=None,
    ),
    Case(ExtendedElement, "data coeffs", (FIB, (1, PHI))),
    Case(IntegralityCertificate, "fpdim min_poly is_algebraic_integer", (PHI, PHI_POLY, True)),
    Case(
        FixtureEntry,
        "name data annotation desc description",
        ("probe", Z2, fr.GaloisAnnotation((fr.GaloisMark("trivial"),) * 2), DESC, "a probe"),
        annotation=None,
        desc=None,
        description="",
    ),
]


def _fields(x) -> tuple:
    return tuple(getattr(x, name) for name in x.__match_args__)


def _record(case: Case):
    """The record built from case.values by position."""
    if case.cls is fr.FusionData:  # by position the tensor is the dense n_tensor
        labels, _, *rest = case.values
        return fr.FusionData(labels, fr.FusionData._certified(*case.values).n_tensor, *rest)
    return case.cls(*case.values)


def test_every_record_is_covered():
    # the package's own, not the ad-hoc classes other tests here create
    package = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("fusionring.")}
    assert {case.cls for case in CASES} == package
    assert len(CASES) == 16


@pytest.mark.parametrize("case", CASES, ids=repr)
def test_fields_and_signature_match_the_twin(case):
    assert case.cls._fields == case.fields
    assert case.cls.__match_args__ == case.twin.__match_args__
    params = [
        (p.name, p.kind, p.default) for p in inspect.signature(case.cls).parameters.values()
    ]
    if case.cls is fr.FusionData:
        # dense n_tensor by position, or the stored products by keyword
        positional = inspect.Parameter.POSITIONAL_OR_KEYWORD
        assert params == [
            ("labels", positional, inspect.Parameter.empty),
            *((name, positional, None) for name in ("n_tensor", "dual", "eps", "endo_degree")),
            ("unit", positional, None),
            ("products", inspect.Parameter.KEYWORD_ONLY, None),
        ]
        return
    twin_params = [
        (p.name, p.kind, p.default) for p in inspect.signature(case.twin).parameters.values()
    ]
    assert params == twin_params


@pytest.mark.parametrize("case", CASES, ids=repr)
def test_construction_by_position_keyword_and_defaults(case):
    x = _record(case)
    assert _fields(x) == case.values
    assert case.cls(**dict(zip(case.fields, case.values))) == x
    if case.defaults:
        assert _fields(case.cls(*case.bare)) == _fields(case.twin(*case.bare))


@pytest.mark.parametrize("case", CASES, ids=repr)
def test_equality_hash_and_repr_match_the_twin(case):
    x, y, twin = _record(case), _record(case), case.twin(*case.values)
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y) == hash(twin) == hash(case.values)
    assert x != twin and twin != x and x.__eq__(twin) is NotImplemented
    # another record class with the same fields and values
    other = object.__new__(type(case.cls.__name__, (Record,), {"__annotations__": dict.fromkeys(case.fields)}))
    vars(other).update(zip(case.fields, case.values))
    assert hash(other) == hash(x) and repr(other) == repr(x)
    assert x != other and other != x
    assert x != case.values
    assert repr(x) == repr(twin)


@pytest.mark.parametrize("case", CASES, ids=repr)
def test_assignment_and_deletion_raise_attribute_error(case):
    x = _record(case)

    def messages(target, name: str) -> tuple[str, str]:
        with pytest.raises(AttributeError) as assigned:
            setattr(target, name, 1)
        with pytest.raises(AttributeError) as deleted:
            delattr(target, name)
        return str(assigned.value), str(deleted.value)

    for name in (case.fields[0], "unknown"):
        assert messages(x, name) == messages(case.twin(*case.values), name)
    assert _fields(x) == case.values


@pytest.mark.parametrize("case", CASES, ids=repr)
def test_copies_and_pickles_are_equal(case):
    x = _record(case)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is case.cls and y == x and hash(y) == hash(x) and repr(y) == repr(x)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import fusionring.cli\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n"


def test_source_generates_no_code():
    pattern = re.compile(r"@dataclass|^\s*(import|from) dataclasses\b|\bexec\(", re.MULTILINE)
    for path in sorted(SRC.rglob("*.py")):
        assert not pattern.search(path.read_text(encoding="utf-8")), path
