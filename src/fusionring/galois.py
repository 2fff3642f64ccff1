"""Galois-annotated fusion data and Drinfeld-center dimension predictions.

Annotations record, per simple, whether the left and right embeddings of the
endomorphism field coincide (Galois trivial) and, for bimodule-style data,
which Galois group element twists the right action.  That is exactly the
data the center formulas consume: the Galois-trivial full subring (the image
of the forgetful functor), the center's endomorphism degree, and the
predicted FPdim of the center with its inequality and equality criterion.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .core import FusionData, is_int
from .errors import InconsistentAnnotationError, InsufficientDataError
from .fpengine import ExactValue, ensure_fpdim_ready, exact_cmp, exact_mul
from .regular import fpdim_category
from .report import Record


class FiniteGroup(Record):
    """Multiplication table presentation; the axioms are checked."""

    labels: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]

    def __init__(self, labels: Sequence[str], table: Sequence[Sequence[int]]) -> None:
        vars(self).update(labels=tuple(labels), table=tuple(tuple(row) for row in table))
        n = len(self.labels)
        if n == 0 or len(set(self.labels)) != n:
            raise ValueError("group labels must be nonempty and distinct")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("multiplication table must be order x order")
        if any(not (is_int(v) and 0 <= v < n) for row in self.table for v in row):
            raise ValueError("table entries must be element indices")
        identity = None
        for e in range(n):
            if all(self.table[e][j] == j and self.table[j][e] == j for j in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("no identity element")
        vars(self)["_identity"] = identity
        for i in range(n):
            if identity not in self.table[i]:
                raise ValueError(f"element {self.labels[i]} has no inverse")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise ValueError("multiplication table is not associative")

    @property
    def order(self) -> int:
        return len(self.labels)

    @property
    def identity(self) -> int:
        return self._identity  # type: ignore[attr-defined]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown group element {label!r}") from None

    def inverse(self, i: int) -> int:
        return self.table[i].index(self.identity)

    @property
    def is_abelian(self) -> bool:
        n = self.order
        return all(self.table[i][j] == self.table[j][i] for i in range(n) for j in range(n))

    def subgroup_generated(self, generators: Sequence[int]) -> frozenset[int]:
        """The closure under products of the identity and generators; in a
        finite group it holds each g's inverse, a power of g."""
        closure = {self.identity, *generators}
        frontier = list(closure)
        while frontier:
            g = frontier.pop()
            for h in list(closure):
                for product in (self.table[g][h], self.table[h][g]):
                    if product not in closure:
                        closure.add(product)
                        frontier.append(product)
        return frozenset(closure)


TRIVIAL = "trivial"
NONTRIVIAL = "nontrivial"


class GaloisMark(Record):
    """Per-simple Galois datum: a bare triviality flag, or the group element
    relating the right embedding to the left one (identity = trivial)."""

    kind: str  # TRIVIAL, NONTRIVIAL, or "element"
    element: Optional[str]

    def __init__(self, kind: str, element: Optional[str] = None) -> None:
        vars(self).update(kind=kind, element=element)
        if self.kind not in (TRIVIAL, NONTRIVIAL, "element"):
            raise ValueError(f"unknown mark kind {self.kind!r}")
        if (self.kind == "element") != (self.element is not None):
            raise ValueError("exactly the element marks carry a group element")

    @classmethod
    def trivial(cls) -> "GaloisMark":
        return cls(TRIVIAL)

    @classmethod
    def nontrivial(cls) -> "GaloisMark":
        return cls(NONTRIVIAL)

    @classmethod
    def of(cls, element: str) -> "GaloisMark":
        return cls("element", element)


class GaloisAnnotation(Record):
    marks: tuple[GaloisMark, ...]
    group: Optional[FiniteGroup]
    center_degree: Optional[int]

    def __init__(
        self,
        marks: Sequence[GaloisMark],
        group: Optional[FiniteGroup] = None,
        center_degree: Optional[int] = None,
    ) -> None:
        vars(self).update(marks=tuple(marks), group=group, center_degree=center_degree)
        if self.group is not None:
            for mark in self.marks:
                if mark.kind == "element":
                    self.group.index(mark.element)  # raises on unknown labels
        elif any(mark.kind == "element" for mark in self.marks):
            raise ValueError("element marks need an attached group")
        degree = self.center_degree
        if degree is not None and not (is_int(degree) and degree >= 1):
            raise ValueError(f"center degree must be a positive integer, got {degree!r}")

    def is_trivial(self, i: int) -> bool:
        mark = self.marks[i]
        if mark.kind == TRIVIAL:
            return True
        if mark.kind == "element":
            return self.group.index(mark.element) == self.group.identity
        return False

    def validate_against(self, data: FusionData) -> None:
        if len(self.marks) != data.rank:
            raise InconsistentAnnotationError("annotation length does not match the rank")
        for u in set(data.unit):
            if not self.is_trivial(u):
                raise InconsistentAnnotationError(
                    f"unit summand {data.labels[u]} must be Galois trivial"
                )


def from_galois_group(
    group: FiniteGroup, subset: Sequence[str]
) -> tuple[FusionData, GaloisAnnotation]:
    """Group-ring fusion data on a closed subset of a Galois group.

    Simples are the subset elements with product g * h = gh, duality the
    group inverse, all endomorphism dimensions 1, and endomorphism degree the
    full group order.  Each simple is annotated with its group element.
    """
    indices = [group.index(label) for label in subset]
    members = set(indices)
    if len(members) != len(indices):
        raise ValueError("subset labels must be distinct")
    if group.identity not in members:
        raise ValueError("subset must contain the identity")
    for g in indices:
        if group.inverse(g) not in members:
            raise ValueError(f"subset is not closed under inverse at {group.labels[g]}")
        for h in indices:
            if group.table[g][h] not in members:
                raise ValueError(
                    f"subset is not closed under multiplication at "
                    f"{group.labels[g]}*{group.labels[h]}"
                )
    annotation = GaloisAnnotation(
        marks=tuple(GaloisMark.of(group.labels[g]) for g in indices),
        group=group,
    )
    return group_ring(group, indices, group.order), annotation


def group_ring(group: FiniteGroup, indices: Sequence[int], endo_degree: int) -> FusionData:
    """Group-ring fusion data on `indices`, a subgroup of group, one simple per
    element in that order: product g * h = gh, duality the inverse, eps 1."""
    position = {g: i for i, g in enumerate(indices)}
    return FusionData(
        labels=tuple(group.labels[g] for g in indices),
        products=tuple(
            tuple(((position[group.table[g][h]], 1),) for h in indices) for g in indices
        ),
        dual=tuple(position[group.inverse(g)] for g in indices),
        eps=(1,) * len(indices),
        endo_degree=endo_degree,
        unit=(position[group.identity],),
    )


def galois_trivial_subring(data: FusionData, annotation: GaloisAnnotation) -> FusionData:
    """The full subring on the Galois-trivial simples: the semiring image of
    the forgetful functor from the center.  Raises if the trivial simples are
    not closed under product and duality (a bad annotation)."""
    annotation.validate_against(data)
    trivial = [i for i in range(data.rank) if annotation.is_trivial(i)]
    keep = set(trivial)
    for i in trivial:
        if data.dual[i] not in keep:
            raise InconsistentAnnotationError(
                f"dual of Galois-trivial {data.labels[i]} is not Galois trivial"
            )
        for j in trivial:
            for k, _ in data.products[i][j]:
                if k not in keep:
                    raise InconsistentAnnotationError(
                        f"product {data.labels[i]}*{data.labels[j]} leaves the "
                        f"Galois-trivial simples at {data.labels[k]}"
                    )
    position = {g: i for i, g in enumerate(trivial)}
    # every field is a restriction of data's, checked when data was built,
    # to a set closed under product and duality that holds the unit (checked
    # above); trivial is ascending, so each row stays in ascending order
    products = tuple(
        tuple(tuple((position[k], m) for k, m in data.products[i][j]) for j in trivial)
        for i in trivial
    )
    return FusionData._certified(
        tuple(data.labels[i] for i in trivial),
        products,
        tuple(position[data.dual[i]] for i in trivial),
        tuple(data.eps[i] for i in trivial),
        data.endo_degree,
        tuple(position[u] for u in data.unit),
    )


def center_endo_degree(
    data: FusionData,
    annotation: GaloisAnnotation,
    user_value: Optional[int] = None,
) -> int:
    """Endomorphism degree of the center.

    For abelian group-valued annotations this is d / |H| with H the subgroup
    generated by the assigned elements (the center's field is the fixed field
    of H).  Everything else needs a user-supplied value, which must be a
    positive integer (ValueError otherwise).
    """
    annotation.validate_against(data)
    if user_value is not None:
        if not (is_int(user_value) and user_value >= 1):
            raise ValueError(f"center degree must be a positive integer, got {user_value!r}")
        return user_value
    if annotation.center_degree is not None:
        return annotation.center_degree
    if all(mark.kind == TRIVIAL for mark in annotation.marks):
        return data.endo_degree
    group = annotation.group
    if group is not None and all(
        mark.kind in (TRIVIAL, "element") for mark in annotation.marks
    ):
        # bare trivial marks contribute the identity and nothing else
        if not group.is_abelian:
            raise InsufficientDataError(
                "center degree for non-abelian Galois data must be supplied"
            )
        if group.order != data.endo_degree:
            raise InconsistentAnnotationError(
                "annotation group order does not match the endomorphism degree"
            )
        generated = group.subgroup_generated(
            [group.index(mark.element) for mark in annotation.marks if mark.kind == "element"]
        )
        return data.endo_degree // len(generated)  # Lagrange: |H| divides |group| = d
    raise InsufficientDataError(
        "cannot determine the center's endomorphism degree; supply it explicitly"
    )


class CenterPrediction(Record):
    predicted: ExactValue
    bound_ok: bool  # predicted <= FPdim(C)^2
    equality: bool  # all simples Galois trivial (the equality criterion)
    strict: bool  # predicted < FPdim(C)^2, certified
    consistent: bool  # numeric comparison agrees with the equality criterion
    center_degree: int
    image: FusionData

    def __init__(
        self,
        predicted: ExactValue,
        bound_ok: bool,
        equality: bool,
        strict: bool,
        consistent: bool,
        center_degree: int,
        image: FusionData,
    ) -> None:
        vars(self).update(
            predicted=predicted,
            bound_ok=bound_ok,
            equality=equality,
            strict=strict,
            consistent=consistent,
            center_degree=center_degree,
            image=image,
        )


def center_fpdim_prediction(
    data: FusionData,
    annotation: GaloisAnnotation,
    *,
    user_center_degree: Optional[int] = None,
) -> CenterPrediction:
    """Evaluate (d_Z/d) FPdim(im F) FPdim(C) and certify the inequality
    against FPdim(C)^2.  No center data is constructed; this is the
    prediction the annotated fusion data determines.

    FPdim(C) > 0, so the bound is decided as ratio = (d_Z/d) FPdim(im F)
    against FPdim(C), and FPdim(C)^2 is never formed; only the predicted
    product goes through exact_mul."""
    ensure_fpdim_ready(data)
    image = galois_trivial_subring(data, annotation)
    d_z = center_endo_degree(data, annotation, user_center_degree)
    fp_cat = fpdim_category(data)
    ratio = exact_mul(Fraction(d_z, data.endo_degree), fpdim_category(image))
    cmp = exact_cmp(ratio, fp_cat)
    all_trivial = all(annotation.is_trivial(i) for i in range(data.rank))
    return CenterPrediction(
        predicted=exact_mul(ratio, fp_cat),
        bound_ok=cmp <= 0,
        equality=all_trivial,
        strict=cmp < 0,
        consistent=(cmp == 0) == all_trivial,
        center_degree=d_z,
        image=image,
    )
