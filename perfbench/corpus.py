"""Deterministic generators for the benchmark corpus.

A `Ring` is plain data (no fusionring types), so the parent process can
write it to a fusion file and a child process can rebuild it as
`fusionring.FusionData`.  Families:

    su2(k)        truncated Clebsch-Gordan ring SU(2)_k, rank k+1
    cyclic(n)     group ring of Z/n
    ty(n)         Tambara-Yamagami ring TY(Z/n), rank n+1, FPdim(m) = sqrt(n)
    product(a, b) tensor (Deligne) product of fusion data; Galois marks of
                  `a` are carried onto every product simple
    power(a, k)   a^(x)k

Nothing here is random.  `relabelled` is the only seeded step: it permutes
the basis and renames every simple, which the correctness gate undoes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Optional

Tensor = tuple[tuple[tuple[int, ...], ...], ...]


@dataclass(frozen=True)
class Ring:
    """Fusion data plus optional Galois annotation.

    marks[i] is "trivial", None (nontrivial, no group datum) or a group
    element label; group is (element labels, multiplication table).
    """

    name: str
    labels: tuple[str, ...]
    tensor: Tensor
    dual: tuple[int, ...]
    eps: tuple[int, ...]
    endo_degree: int
    unit: int
    marks: Optional[tuple[Optional[str], ...]] = None
    group: Optional[tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]] = None

    @property
    def rank(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)


def _dense(r: int, products: dict[tuple[int, int], dict[int, int]]) -> Tensor:
    return tuple(
        tuple(tuple(products.get((i, j), {}).get(k, 0) for k in range(r)) for j in range(r))
        for i in range(r)
    )


def su2(k: int) -> Ring:
    """SU(2)_k: simples j = 0..k (twice the spin), j*l = sum of c with
    |j-l| <= c <= min(j+l, 2k-j-l) and j+l+c even."""
    r = k + 1
    products = {
        (a, b): {c: 1 for c in range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2)}
        for a in range(r)
        for b in range(r)
    }
    return Ring(
        name=f"su2_{k}",
        labels=tuple(f"j{a}" for a in range(r)),
        tensor=_dense(r, products),
        dual=tuple(range(r)),
        eps=(1,) * r,
        endo_degree=1,
        unit=0,
    )


def cyclic(n: int) -> Ring:
    products = {(a, b): {(a + b) % n: 1} for a in range(n) for b in range(n)}
    return Ring(
        name=f"z{n}",
        labels=tuple(f"g{a}" for a in range(n)),
        tensor=_dense(n, products),
        dual=tuple((-a) % n for a in range(n)),
        eps=(1,) * n,
        endo_degree=1,
        unit=0,
    )


def ty(n: int) -> Ring:
    """TY(Z/n): group simples g0..g{n-1} and m with g*m = m*g = m and
    m*m = sum of all g."""
    m = n
    products: dict[tuple[int, int], dict[int, int]] = {
        (a, b): {(a + b) % n: 1} for a in range(n) for b in range(n)
    }
    for a in range(n):
        products[(a, m)] = {m: 1}
        products[(m, a)] = {m: 1}
    products[(m, m)] = {a: 1 for a in range(n)}
    return Ring(
        name=f"ty_z{n}",
        labels=tuple(f"g{a}" for a in range(n)) + ("m",),
        tensor=_dense(n + 1, products),
        dual=tuple((-a) % n for a in range(n)) + (m,),
        eps=(1,) * (n + 1),
        endo_degree=1,
        unit=0,
    )


def product(a: Ring, b: Ring) -> Ring:
    """Tensor product of fusion data.  Simple (x, y) is labelled "x.y";
    eps and endomorphism degrees multiply.  Only the left factor may carry a
    Galois annotation; its marks are copied onto every (x, y)."""
    if b.marks is not None:
        raise ValueError("only the left factor of a product may be annotated")
    rb = b.rank
    r = a.rank * rb

    def pair(i: int, j: int) -> int:
        return i * rb + j

    tensor = tuple(
        tuple(
            tuple(
                a.tensor[i][k][m] * b.tensor[j][l][n]
                for m in range(a.rank)
                for n in range(rb)
            )
            for k in range(a.rank)
            for l in range(rb)
        )
        for i in range(a.rank)
        for j in range(rb)
    )
    return Ring(
        name=f"{a.name}x{b.name}",
        labels=tuple(f"{x}.{y}" for x in a.labels for y in b.labels),
        tensor=tensor,
        dual=tuple(pair(a.dual[i], b.dual[j]) for i in range(a.rank) for j in range(rb)),
        eps=tuple(a.eps[i] * b.eps[j] for i in range(a.rank) for j in range(rb)),
        endo_degree=a.endo_degree * b.endo_degree,
        unit=pair(a.unit, b.unit),
        marks=None if a.marks is None else tuple(m for m in a.marks for _ in range(rb)),
        group=a.group,
    )


def power(a: Ring, k: int) -> Ring:
    out = a
    for _ in range(k - 1):
        out = product(out, a)
    return replace(out, name=f"{a.name}{k}")


def from_builtin(name: str) -> Ring:
    """A catalog fixture as plain data (imports fusionring)."""
    from fusionring import get_builtin

    entry = get_builtin(name)
    data, ann = entry.data, entry.annotation
    marks = group = None
    if ann is not None:
        marks = tuple(
            "trivial" if m.kind == "trivial" else m.element if m.kind == "element" else None
            for m in ann.marks
        )
        if ann.group is not None:
            group = (ann.group.labels, ann.group.table)
    return Ring(
        name=name,
        labels=data.labels,
        tensor=data.n_tensor,
        dual=data.dual,
        eps=data.eps,
        endo_degree=data.endo_degree,
        unit=data.unit_index,
        marks=marks,
        group=group,
    )


def relabelled(ring: Ring, rng: random.Random) -> tuple[Ring, dict[str, str]]:
    """Permute the basis and rename simple i to "s<NNN>".  Returns the new
    ring and the map new label -> original label."""
    r = ring.rank
    order = list(range(r))
    rng.shuffle(order)  # order[new position] = old index
    where = {old: new for new, old in enumerate(order)}
    labels = tuple(f"s{i:03d}" for i in range(r))
    t = ring.tensor
    ring2 = replace(
        ring,
        labels=labels,
        tensor=tuple(
            tuple(tuple(t[order[i]][order[j]][order[k]] for k in range(r)) for j in range(r))
            for i in range(r)
        ),
        dual=tuple(where[ring.dual[order[i]]] for i in range(r)),
        eps=tuple(ring.eps[order[i]] for i in range(r)),
        unit=where[ring.unit],
        marks=None if ring.marks is None else tuple(ring.marks[order[i]] for i in range(r)),
    )
    return ring2, {labels[i]: ring.labels[order[i]] for i in range(r)}


def fusion_file(ring: Ring) -> str:
    """The ring in the documented JSON fusion-file schema, simples in basis
    order, zero products omitted."""
    labels = ring.labels
    simples = []
    for i, label in enumerate(labels):
        mark = None if ring.marks is None else ring.marks[i]
        simples.append(
            {
                "label": label,
                "endo_dim": ring.eps[i],
                "dual": labels[ring.dual[i]],
                "galois": mark if mark in (None, "trivial") else {"group_element": mark},
            }
        )
    fusion = {}
    for i, plane in enumerate(ring.tensor):
        for j, row in enumerate(plane):
            out = {labels[k]: m for k, m in enumerate(row) if m}
            if out:
                fusion[f"{labels[i]}|{labels[j]}"] = out
    doc = {
        "name": ring.name,
        "endo_degree": ring.endo_degree,
        "unit": [labels[ring.unit]],
        "simples": simples,
        "fusion": fusion,
    }
    if ring.group is not None:
        elements, table = ring.group
        doc["group"] = {"elements": list(elements), "table": [list(row) for row in table]}
    return json.dumps(doc, indent=1) + "\n"


def to_fusion_data(ring: Ring):
    """Rebuild the ring as (FusionData, GaloisAnnotation or None)."""
    from fusionring import FiniteGroup, FusionData, GaloisAnnotation, GaloisMark

    data = FusionData(
        labels=ring.labels,
        n_tensor=ring.tensor,
        dual=ring.dual,
        eps=ring.eps,
        endo_degree=ring.endo_degree,
        unit=(ring.unit,),
    )
    if ring.marks is None:
        return data, None
    group = None if ring.group is None else FiniteGroup(*ring.group)
    marks = tuple(
        GaloisMark.trivial()
        if m == "trivial"
        else GaloisMark.nontrivial()
        if m is None
        else GaloisMark.of(m)
        for m in ring.marks
    )
    return data, GaloisAnnotation(marks, group=group)
