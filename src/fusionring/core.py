"""Fusion-semiring data model and multiset arithmetic.

A fusion semiring is presented by a finite basis of simple elements, a
nonnegative-integer product tensor, a duality involution, and per-simple
endomorphism dimensions over the endomorphism field.  Elements are finite
multisubsets of the basis, i.e. tuples of nonnegative integers.

Everything here is immutable and pure; values can be shared freely between
threads.  Coefficients are Python ints throughout, so fusion powers may grow
without overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import ContextMismatchError, NotFusionError
from .report import ValidationReport, Violation

Tensor = tuple[tuple[tuple[int, ...], ...], ...]
SparseProducts = tuple[tuple[tuple[tuple[int, int], ...], ...], ...]


@dataclass(frozen=True)
class FusionData:
    """Basis presentation of a multifusion semiring.

    labels       distinct basis labels; index order is the canonical basis order
    n_tensor     n_tensor[i][j][k] = multiplicity of simple k in the product i*j
    dual         index map of the duality involution
    eps          eps[i] = dim of End(X_i) over the endomorphism field
    endo_degree  degree of the endomorphism field over the base field
    unit         declared unit summand indices; a well-formed unit has each
                 index once, but duplicates are representable so the checker
                 can report them

    Construction enforces shapes and nonnegativity only.  The semiring axioms
    (associativity, unit laws, duality) are checked by validate.check_structural,
    which must be able to receive broken data and report on it.
    """

    labels: tuple[str, ...]
    n_tensor: Tensor
    dual: tuple[int, ...]
    eps: tuple[int, ...]
    endo_degree: int
    unit: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(
            self, "n_tensor", tuple(tuple(tuple(row) for row in plane) for plane in self.n_tensor)
        )
        object.__setattr__(self, "dual", tuple(self.dual))
        object.__setattr__(self, "eps", tuple(self.eps))
        object.__setattr__(self, "unit", tuple(self.unit))
        r = len(self.labels)
        if r == 0:
            raise ValueError("empty basis")
        if len(set(self.labels)) != r:
            raise ValueError("duplicate basis labels")
        if len(self.n_tensor) != r or any(
            len(plane) != r or any(len(row) != r for row in plane) for plane in self.n_tensor
        ):
            raise ValueError("product tensor must be rank x rank x rank")
        for i, plane in enumerate(self.n_tensor):
            for j, row in enumerate(plane):
                for k, m in enumerate(row):
                    if not isinstance(m, int) or m < 0:
                        raise ValueError(
                            f"multiplicity N[{self.labels[i]}][{self.labels[j]}]"
                            f"[{self.labels[k]}] = {m!r} is not a nonnegative integer"
                        )
        if len(self.dual) != r or any(not (0 <= d < r) for d in self.dual):
            raise ValueError("dual map must assign a basis index to every simple")
        if len(self.eps) != r or any(not isinstance(e, int) or e < 1 for e in self.eps):
            raise ValueError("endomorphism dimensions must be positive integers")
        if not isinstance(self.endo_degree, int) or self.endo_degree < 1:
            raise ValueError("endomorphism degree must be a positive integer")
        if not self.unit or any(not (0 <= u < r) for u in self.unit):
            raise ValueError("unit summand indices must be a nonempty subset of the basis")

    @property
    def rank(self) -> int:
        return len(self.labels)

    @cached_property
    def products(self) -> SparseProducts:
        """products[i][j] lists the nonzero (k, N[i][j][k]) in ascending k.

        A sparse view of n_tensor, which stays the only source of truth;
        built on first use and kept on the instance.
        """
        # one shared tuple per distinct (k, m) keeps the index small, since
        # it lives as long as the data
        pairs: dict[tuple[int, int], tuple[int, int]] = {}
        return tuple(
            tuple(
                tuple(pairs.setdefault((k, m), (k, m)) for k, m in enumerate(row) if m)
                for row in plane
            )
            for plane in self.n_tensor
        )

    @property
    def is_fusion(self) -> bool:
        """True when the unit is simple (one declared summand, once)."""
        return len(set(self.unit)) == 1 and len(self.unit) == 1

    @property
    def unit_index(self) -> int:
        if not self.is_fusion:
            raise NotFusionError("the unit of this data is not simple")
        return self.unit[0]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown simple label {label!r}") from None

    def basis(self, key: Union[int, str]) -> "MultisetElement":
        i = key if isinstance(key, int) else self.index(key)
        coeffs = [0] * self.rank
        coeffs[i] = 1
        return MultisetElement(self, tuple(coeffs))

    def element(self, coeffs: Union[Mapping[str, int], Sequence[int]]) -> "MultisetElement":
        if isinstance(coeffs, Mapping):
            out = [0] * self.rank
            for label, c in coeffs.items():
                out[self.index(label)] += c
            return MultisetElement(self, tuple(out))
        return MultisetElement(self, tuple(coeffs))

    def zero(self) -> "MultisetElement":
        return MultisetElement(self, (0,) * self.rank)

    def one(self) -> "MultisetElement":
        coeffs = [0] * self.rank
        for u in self.unit:
            coeffs[u] += 1
        return MultisetElement(self, tuple(coeffs))

    def simples(self) -> Iterable["MultisetElement"]:
        return (self.basis(i) for i in range(self.rank))


@dataclass(frozen=True)
class MultisetElement:
    """A finite multisubset of the basis of `data`."""

    data: FusionData
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != self.data.rank:
            raise ValueError("coefficient vector does not match the basis")
        if any(not isinstance(c, int) or c < 0 for c in self.coeffs):
            raise ValueError("multiset coefficients must be nonnegative integers")

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coeffs) if c)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "MultisetElement") -> "MultisetElement":
        data = _same_context(self, other)
        return MultisetElement(data, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "MultisetElement") -> "MultisetElement":
        return multiply(self, other)

    def scaled(self, n: int) -> "MultisetElement":
        if n < 0:
            raise ValueError("multiset scalars are nonnegative")
        return MultisetElement(self.data, tuple(n * c for c in self.coeffs))

    def __le__(self, other: "MultisetElement") -> bool:
        _same_context(self, other)
        return all(a <= b for a, b in zip(self.coeffs, other.coeffs))

    def __str__(self) -> str:
        parts = [
            (f"{c}*" if c != 1 else "") + self.data.labels[i]
            for i, c in enumerate(self.coeffs)
            if c
        ]
        return " + ".join(parts) if parts else "0"


def _same_context(a: MultisetElement, b: MultisetElement) -> FusionData:
    if a.data is b.data or a.data == b.data:
        return a.data
    raise ContextMismatchError("elements belong to different fusion data")


def multiply(a: MultisetElement, b: MultisetElement) -> MultisetElement:
    """Bilinear extension of the product tensor."""
    data = _same_context(a, b)
    out = [0] * data.rank
    products = data.products
    for i, ai in enumerate(a.coeffs):
        if not ai:
            continue
        row = products[i]
        for j, bj in enumerate(b.coeffs):
            if not bj:
                continue
            w = ai * bj
            for k, m in row[j]:
                out[k] += w * m
    return MultisetElement(data, tuple(out))


class Comparison(NamedTuple):
    leq: bool
    geq: bool
    intersection: MultisetElement


def compare(a: MultisetElement, b: MultisetElement) -> Comparison:
    """Partial order a <= b (coordinatewise) and the meet min(a, b)."""
    data = _same_context(a, b)
    leq = all(x <= y for x, y in zip(a.coeffs, b.coeffs))
    geq = all(x >= y for x, y in zip(a.coeffs, b.coeffs))
    meet = MultisetElement(data, tuple(min(x, y) for x, y in zip(a.coeffs, b.coeffs)))
    return Comparison(leq, geq, meet)


def dual_element(a: MultisetElement) -> MultisetElement:
    """Apply the duality involution coefficientwise."""
    out = [0] * a.data.rank
    for i, c in enumerate(a.coeffs):
        if c:
            out[a.data.dual[i]] += c
    return MultisetElement(a.data, tuple(out))


class UnitDecomposition(NamedTuple):
    indices: tuple[int, ...]
    report: ValidationReport


def unit_decomposition(data: FusionData) -> UnitDecomposition:
    """Return the declared unit summands and verify they behave like one.

    Verifies each summand appears with multiplicity exactly one, and that the
    summands are orthogonal idempotents (a*b = delta_{a,b} a).  The two-sided
    identity law on the whole basis is part of check_structural.
    """
    violations = []
    seen: dict[int, int] = {}
    for u in data.unit:
        seen[u] = seen.get(u, 0) + 1
    for u, m in seen.items():
        if m != 1:
            violations.append(
                Violation(
                    "unit_multiplicity",
                    (u,),
                    f"unit summand {data.labels[u]} declared with multiplicity {m}, expected 1",
                )
            )
    indices = tuple(sorted(seen))
    for a in indices:
        for b in indices:
            product = data.n_tensor[a][b]
            expected = [0] * data.rank
            if a == b:
                expected[a] = 1
            if list(product) != expected:
                violations.append(
                    Violation(
                        "unit_orthogonality",
                        (a, b),
                        f"{data.labels[a]}*{data.labels[b]} should be "
                        f"{data.labels[a] if a == b else '0'}",
                    )
                )
    return UnitDecomposition(indices, ValidationReport.from_violations(violations))


def pairing(a: MultisetElement, b: MultisetElement) -> int:
    """Base-field dimension of the hom space, Sum_i a_i b_i d eps_i.

    Defined only for fusion data: the endomorphism field (and with it eps)
    only makes sense when the unit is simple.
    """
    data = _same_context(a, b)
    if not data.is_fusion:
        raise NotFusionError("hom pairing needs fusion data (simple unit)")
    d = data.endo_degree
    return sum(x * y * d * e for x, y, e in zip(a.coeffs, b.coeffs, data.eps))
