"""Built-in fusion data fixtures.

Each entry is frozen golden data: fusion rules entered once by hand (or
generated from a group), with eps annotations that the eps-consistency check
corroborates independently.  The descriptions say what category the data
presents; rep_f2_z3 and jj_bim deliberately share one semiring and differ
only in endomorphism degree.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Optional, Sequence

from .core import FusionData
from .deligne import DivisionType, SemisimpleDesc
from .galois import FiniteGroup, GaloisAnnotation, GaloisMark, from_galois_group, group_ring
from .report import Record

_R = DivisionType.REAL
_C = DivisionType.COMPLEX
_H = DivisionType.QUATERNION


class FixtureEntry(Record):
    name: str
    data: FusionData
    annotation: Optional[GaloisAnnotation]
    desc: Optional[SemisimpleDesc]
    description: str

    def __init__(
        self,
        name: str,
        data: FusionData,
        annotation: Optional[GaloisAnnotation] = None,
        desc: Optional[SemisimpleDesc] = None,
        description: str = "",
    ) -> None:
        vars(self).update(
            name=name, data=data, annotation=annotation, desc=desc, description=description
        )


def vec_group(labels: Sequence[str], table: Sequence[Sequence[int]]) -> FusionData:
    """Group-ring fusion data: one simple per element, product from the
    multiplication table, duality the inverse, all eps = 1, degree 1."""
    group = FiniteGroup(tuple(labels), tuple(tuple(row) for row in table))
    return group_ring(group, range(group.order), 1)


def _cyclic_table(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def _s3_group() -> FiniteGroup:
    def compose(f, g):
        return tuple(f[g[i]] for i in range(3))

    elements = {
        "1": (0, 1, 2),
        "r": (1, 2, 0),
        "r2": (2, 0, 1),
        "s": (1, 0, 2),
        "sr": compose((1, 0, 2), (1, 2, 0)),
        "sr2": compose((1, 0, 2), (2, 0, 1)),
    }
    labels = tuple(sorted(elements))
    perms = [elements[l] for l in labels]
    index = {perm: i for i, perm in enumerate(perms)}
    table = tuple(tuple(index[compose(a, b)] for b in perms) for a in perms)
    return FiniteGroup(labels, table)


def _rank2_data(top_label: str, eps_top: int, endo_degree: int) -> FusionData:
    """Rank-2 data with x*x = eps_top * 1 + x for the non-unit simple x."""
    return FusionData(
        labels=("1", top_label),
        products=(
            (((0, 1),), ((1, 1),)),
            (((1, 1),), ((0, eps_top), (1, 1))),
        ),
        dual=(0, 1),
        eps=(1, eps_top),
        endo_degree=endo_degree,
        unit=(0,),
    )


def _rep_r_q8() -> FusionData:
    # the Klein four-group on 1, a, b, c via bit xor; h*h = 4(1 + a + b + c)
    h = ((4, 1),)
    products = [[((i ^ j, 1),) for j in range(4)] + [h] for i in range(4)]
    products.append([h] * 4 + [tuple((k, 4) for k in range(4))])
    return FusionData(
        labels=("1", "a", "b", "c", "h"),
        products=products,
        dual=(0, 1, 2, 3, 4),
        eps=(1, 1, 1, 1, 4),
        endo_degree=1,
        unit=(0,),
    )


def _m2_vec() -> FusionData:
    # matrix units E11, E12, E21, E22; E_ij E_kl = delta_jk E_il
    units = ((1, 1), (1, 2), (2, 1), (2, 2))
    return FusionData(
        labels=("E11", "E12", "E21", "E22"),
        products=[
            [((units.index((i, l)), 1),) if j == k else () for k, l in units]
            for i, j in units
        ],
        dual=(0, 2, 1, 3),
        eps=(1, 1, 1, 1),
        endo_degree=1,
        unit=(0, 3),
    )


def _vec_line(endo_degree: int) -> FusionData:
    return FusionData(
        labels=("1",),
        products=((((0, 1),),),),
        dual=(0,),
        eps=(1,),
        endo_degree=endo_degree,
        unit=(0,),
    )


def _vec_s3(name: str) -> FixtureEntry:
    s3 = _s3_group()
    return FixtureEntry(
        name=name,
        data=vec_group(s3.labels, s3.table),
        description="group ring of the symmetric group S3",
    )


def _cc_bim(name: str) -> FixtureEntry:
    data, annotation = from_galois_group(
        FiniteGroup(("1", "c"), ((0, 1), (1, 0))), ("1", "c")
    )
    return FixtureEntry(
        name=name,
        data=data,
        annotation=annotation,
        desc=SemisimpleDesc((("1", _C), ("c", _C))),
        description=(
            "bimodules for the complex numbers over the reals: the trivial "
            "and the conjugating bimodule, endomorphism degree 2"
        ),
    )


def _gal7(name: str) -> FixtureEntry:
    z6 = FiniteGroup(("1", "s", "s2", "s3", "s4", "s5"), _cyclic_table(6))
    data, annotation = from_galois_group(z6, ("1", "s2", "s4"))
    return FixtureEntry(
        name=name,
        data=data,
        annotation=annotation,
        description=(
            "bimodules for the degree-6 cyclotomic field of seventh roots "
            "of unity, restricted to the index-2 subgroup of its Galois "
            "group; the center's field is the quadratic subfield"
        ),
    )


#: builtin name -> builder of its entry; get_builtin builds only the entry
#: asked for, so a CLI job on one builtin does not pay for the other eleven
_BUILDERS: dict[str, Callable[[str], FixtureEntry]] = {
    "vec_z2": lambda name: FixtureEntry(
        name=name,
        data=vec_group(("1", "g"), ((0, 1), (1, 0))),
        description="group ring of Z/2",
    ),
    "vec_z3": lambda name: FixtureEntry(
        name=name,
        data=vec_group(("1", "g", "g2"), _cyclic_table(3)),
        description="group ring of Z/3",
    ),
    "vec_s3": _vec_s3,
    "rep_r_q8": lambda name: FixtureEntry(
        name=name,
        data=_rep_r_q8(),
        desc=SemisimpleDesc((("1", _R), ("a", _R), ("b", _R), ("c", _R), ("h", _H))),
        description=(
            "real representations of the quaternion group Q8: four split "
            "lines and one quaternionic simple of dimension four"
        ),
    ),
    "rep_f2_z3": lambda name: FixtureEntry(
        name=name,
        data=_rank2_data("v", eps_top=2, endo_degree=1),
        description=(
            "representations of Z/3 over the field with two elements: the "
            "unit and a simple V with V*V = 1 + 1 + V and End(V) the field "
            "with four elements"
        ),
    ),
    "fib": lambda name: FixtureEntry(
        name=name,
        data=_rank2_data("x", eps_top=1, endo_degree=1),
        description="Fibonacci ring: x*x = 1 + x, golden-ratio dimension",
    ),
    "cc_bim": _cc_bim,
    "gal7": _gal7,
    "jj_bim": lambda name: FixtureEntry(
        name=name,
        data=_rank2_data("x", eps_top=2, endo_degree=3),
        annotation=GaloisAnnotation(
            marks=(GaloisMark.trivial(), GaloisMark.nontrivial()),
            center_degree=1,
        ),
        description=(
            "bimodules for the real cube-root field of 2 over the "
            "rationals: the unit and the splitting-field simple; the same "
            "semiring as rep_f2_z3 with endomorphism degree 3, and a "
            "non-normal extension (no Galois group element applies)"
        ),
    ),
    "m2_vec": lambda name: FixtureEntry(
        name=name,
        data=_m2_vec(),
        description="2x2 matrix units over Vec: strictly multifusion, unit E11 + E22",
    ),
    "vec_r": lambda name: FixtureEntry(
        name=name,
        data=_vec_line(1),
        desc=SemisimpleDesc((("1", _R),)),
        description="one real line: the trivial fusion ring of Vec over R",
    ),
    "vec_c": lambda name: FixtureEntry(
        name=name,
        data=_vec_line(2),
        desc=SemisimpleDesc((("1", _C),)),
        description=(
            "complex lines viewed over the reals: one simple with a "
            "degree-2 endomorphism field"
        ),
    ),
}


def list_builtins() -> tuple[str, ...]:
    """Builtin names in sorted order; builds no entry."""
    return tuple(sorted(_BUILDERS))


@cache
def get_builtin(name: str) -> FixtureEntry:
    """The named entry, built on first request; later calls return the same
    object."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown builtin {name!r}; available: {', '.join(list_builtins())}"
        ) from None
    return builder(name)
