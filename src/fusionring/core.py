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

from functools import cached_property
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, TypeVar, Union

from .errors import ContextMismatchError, NotFusionError
from .report import Record, ValidationReport, Violation

Tensor = tuple[tuple[tuple[int, ...], ...], ...]
SparseProducts = tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
T = TypeVar("T")


def is_int(v: object) -> bool:
    """True for an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


class FusionData(Record):
    """Basis presentation of a multifusion semiring.

    labels       distinct basis labels; index order is the canonical basis order
    products     products[i][j] lists the nonzero (k, N[i][j][k]) of the product
                 i*j in ascending k: the one stored form of the product tensor
    dual         index map of the duality involution
    eps          eps[i] = dim of End(X_i) over the endomorphism field
    endo_degree  degree of the endomorphism field over the base field
    unit         declared unit summand indices; a well-formed unit has each
                 index once, but duplicates are representable so the checker
                 can report them

    The tensor is given either sparse, as `products`, or dense, as
    `n_tensor` (n_tensor[i][j][k] = multiplicity of simple k in i*j); the
    dense form is turned into `products` and is afterwards only a view.
    Equality and hashing read `products`.

    Construction enforces shapes and nonnegativity only.  The semiring axioms
    (associativity, unit laws, duality) are checked by validate.check_structural,
    which must be able to receive broken data and report on it.
    `FusionData._certified` skips even those checks, for fields in the
    stored form, checked as they were built (the fusion-file parser, the
    Galois-trivial subring).
    """

    labels: tuple[str, ...]
    products: SparseProducts
    dual: tuple[int, ...]
    eps: tuple[int, ...]
    endo_degree: int
    unit: tuple[int, ...]

    def __init__(
        self,
        labels: Sequence[str],
        n_tensor: Optional[Sequence[Sequence[Sequence[int]]]] = None,
        dual: Optional[Sequence[int]] = None,
        eps: Optional[Sequence[int]] = None,
        endo_degree: Optional[int] = None,
        unit: Optional[Sequence[int]] = None,
        *,
        products: Optional[SparseProducts] = None,
    ) -> None:
        given = (dual, eps, endo_degree, unit)
        if any(v is None for v in given) or (n_tensor is None) == (products is None):
            raise TypeError(
                "FusionData needs labels, dual, eps, endo_degree, unit and exactly "
                "one of n_tensor, products"
            )
        labels = tuple(labels)
        r = len(labels)
        if r == 0:
            raise ValueError("empty basis")
        if len(set(labels)) != r:
            raise ValueError("duplicate basis labels")
        if n_tensor is not None:
            if len(n_tensor) != r or any(
                len(plane) != r or any(len(row) != r for row in plane) for plane in n_tensor
            ):
                raise ValueError("product tensor must be rank x rank x rank")
            # keep whatever is nonzero or not an int, for the check below
            products = [
                [
                    [(k, m) for k, m in enumerate(row) if m or not is_int(m)]
                    for row in plane
                ]
                for plane in n_tensor
            ]
        elif len(products) != r or any(len(plane) != r for plane in products):
            raise ValueError("product tensor must be rank x rank x rank")
        # one shared tuple per distinct (k, m) keeps the index small, since
        # it lives as long as the data
        pairs: dict[tuple[int, int], tuple[int, int]] = {}
        sparse = []
        for i, plane in enumerate(products):
            rows = []
            for j, row in enumerate(plane):
                last = -1
                shared = []
                for k, m in row:
                    if not (is_int(k) and last < k < r):
                        raise ValueError(
                            f"products[{i}][{j}] must list basis indices in ascending order"
                        )
                    if not is_int(m) or m < 1:
                        raise ValueError(
                            f"multiplicity N[{labels[i]}][{labels[j]}][{labels[k]}] = {m!r} "
                            f"is not a {'positive' if n_tensor is None else 'nonnegative'} integer"
                        )
                    last = k
                    pair = (k, m)
                    shared.append(pairs.setdefault(pair, pair))
                rows.append(tuple(shared))
            sparse.append(tuple(rows))
        vars(self).update(
            labels=labels,
            products=tuple(sparse),
            dual=tuple(dual),
            eps=tuple(eps),
            endo_degree=endo_degree,
            unit=tuple(unit),
        )
        if len(self.dual) != r or any(not (is_int(d) and 0 <= d < r) for d in self.dual):
            raise ValueError("dual map must assign a basis index to every simple")
        if len(self.eps) != r or any(not (is_int(e) and e >= 1) for e in self.eps):
            raise ValueError("endomorphism dimensions must be positive integers")
        if not (is_int(self.endo_degree) and self.endo_degree >= 1):
            raise ValueError("endomorphism degree must be a positive integer")
        if not self.unit or any(not (is_int(u) and 0 <= u < r) for u in self.unit):
            raise ValueError("unit summand indices must be a nonempty subset of the basis")

    def _fact(self, name: str, build: Callable[["FusionData"], T]) -> T:
        """build(self), such as the check_structural report or the Perron data,
        made on first use and kept on the instance as n_tensor is; equality,
        hashing and repr read only the fields, and a build that raises keeps nothing."""
        facts = vars(self)
        if name not in facts:
            facts[name] = build(self)
        return facts[name]

    def _kept(self, name: str) -> Any:
        """The fact `name` if _fact has kept it, else None; never builds it."""
        return vars(self).get(name)

    @property
    def rank(self) -> int:
        return len(self.labels)

    @cached_property
    def n_tensor(self) -> Tensor:
        """The dense tensor n_tensor[i][j][k] = N[i][j][k], a view of
        `products` built on first use and kept on the instance."""
        r = self.rank
        dense = []
        for plane in self.products:
            rows = []
            for row in plane:
                out = [0] * r
                for k, m in row:
                    out[k] = m
                rows.append(tuple(out))
            dense.append(tuple(rows))
        return tuple(dense)

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
        """The simple at index `key`, or labelled `key`; any other key,
        a bool included, is looked up as a label, so it raises KeyError."""
        i = key if is_int(key) else self.index(key)
        coeffs = [0] * self.rank
        coeffs[i] = 1
        return MultisetElement._certified(self, tuple(coeffs))

    def element(self, coeffs: Union[Mapping[str, int], Sequence[int]]) -> "MultisetElement":
        if isinstance(coeffs, Mapping):
            out = [0] * self.rank
            for label, c in coeffs.items():
                out[self.index(label)] += c
            return MultisetElement(self, tuple(out))
        return MultisetElement(self, tuple(coeffs))

    def zero(self) -> "MultisetElement":
        return MultisetElement._certified(self, (0,) * self.rank)

    def one(self) -> "MultisetElement":
        coeffs = [0] * self.rank
        for u in self.unit:
            coeffs[u] += 1
        return MultisetElement._certified(self, tuple(coeffs))

    def simples(self) -> Iterable["MultisetElement"]:
        return (self.basis(i) for i in range(self.rank))


class MultisetElement(Record):
    """A finite multisubset of the basis of `data`.

    `MultisetElement._certified(data, coeffs)` skips the checks, for a tuple
    of data.rank nonnegative ints computed from inputs already checked (a
    product, dual, meet or sum of elements, a morphism image, a basis
    vector, the unit, zero)."""

    data: FusionData
    coeffs: tuple[int, ...]

    def __init__(self, data: FusionData, coeffs: tuple[int, ...]) -> None:
        vars(self).update(data=data, coeffs=tuple(coeffs))
        if len(self.coeffs) != self.data.rank:
            raise ValueError("coefficient vector does not match the basis")
        if any(not is_int(c) or c < 0 for c in self.coeffs):
            raise ValueError("multiset coefficients must be nonnegative integers")

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "MultisetElement") -> "MultisetElement":
        data = _same_context(self, other)
        return MultisetElement._certified(
            data, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

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
    return MultisetElement._certified(data, tuple(out))


class Comparison(NamedTuple):
    leq: bool
    geq: bool
    intersection: MultisetElement


def compare(a: MultisetElement, b: MultisetElement) -> Comparison:
    """Partial order a <= b (coordinatewise) and the meet min(a, b)."""
    data = _same_context(a, b)
    leq = all(x <= y for x, y in zip(a.coeffs, b.coeffs))
    geq = all(x >= y for x, y in zip(a.coeffs, b.coeffs))
    meet = MultisetElement._certified(
        data, tuple(min(x, y) for x, y in zip(a.coeffs, b.coeffs))
    )
    return Comparison(leq, geq, meet)


def dual_element(a: MultisetElement) -> MultisetElement:
    """Apply the duality involution coefficientwise."""
    out = [0] * a.data.rank
    for i, c in enumerate(a.coeffs):
        if c:
            out[a.data.dual[i]] += c
    return MultisetElement._certified(a.data, tuple(out))


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
    products = data.products
    for a in indices:
        for b in indices:
            if products[a][b] != (((a, 1),) if a == b else ()):
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
