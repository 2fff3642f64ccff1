"""The three workloads: fixed job lists over the generated corpus.

Job lists do not depend on the seed.  The seed only shuffles job order and
relabels the basis of every generated ring (builtins are passed by name).

cli-irrational  fpdim / regular / integrality on rings with irrational
                FPdims: char polys, Sturm isolation and min-poly factoring
                dominate, validation is a small share.
cli-pointed     validate / integrality on pointed (group) rings: every FPdim
                is a rational point, so the O(r^5) structural check and file
                parsing dominate; bypass workload for char-poly and Sturm work.
session-exact   one long-lived library session that keeps fusionring's caches:
                exact products, comparisons, reciprocals, center predictions,
                transport checks, refinement, min polys, idempotent search.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import corpus
from corpus import Ring

WORKLOADS = ("cli-irrational", "cli-pointed", "session-exact")


@dataclass
class Job:
    id: str
    kind: str  # "cli" or "session"
    spec: dict  # cli: {"cmd", "ring" | "builtin"}; session: the child's job dict
    family: Optional[str] = None  # scaling family the job's ring belongs to
    rank: int = 0
    oracle: Optional[dict] = None  # closed form checked besides the golden


@dataclass
class Workload:
    name: str
    rings: dict[str, Ring] = field(default_factory=dict)
    oracles: dict[str, dict] = field(default_factory=dict)  # ring key -> closed form
    families: dict[str, str] = field(default_factory=dict)  # ring key -> family
    jobs: list[Job] = field(default_factory=list)

    def add(
        self, ring: Ring, oracle: Optional[dict] = None, family: Optional[str] = None
    ) -> str:
        self.rings[ring.name] = ring
        if oracle:
            self.oracles[ring.name] = oracle
        if family:
            self.families[ring.name] = family
        return ring.name

    def cli(
        self, cmds: tuple[str, ...], key: Optional[str] = None, builtin: Optional[str] = None
    ) -> None:
        for cmd in cmds:
            spec = {"cmd": cmd, "ring": key} if key else {"cmd": cmd, "builtin": builtin}
            self.jobs.append(
                Job(
                    id=f"{cmd}:{key or builtin}",
                    kind="cli",
                    spec=spec,
                    family=self.families.get(key),
                    rank=self.rings[key].rank if key else 0,
                    oracle=self.oracles.get(key),
                )
            )

    def session(self, job_id: str, spec: dict, oracle: Optional[dict] = None) -> None:
        ring = spec.get("ring")
        self.jobs.append(
            Job(
                id=job_id,
                kind="session",
                spec={"id": job_id, **spec},
                family=self.families.get(ring),
                rank=self.rings[ring].rank if ring else 0,
                oracle=oracle,
            )
        )


IRRATIONAL_CMDS = ("fpdim", "regular", "integrality")
POINTED_CMDS = ("validate", "integrality")


def cli_irrational() -> Workload:
    w = Workload("cli-irrational")
    fib = corpus.from_builtin("fib")
    for k in range(4, 10):
        w.cli(IRRATIONAL_CMDS, w.add(corpus.su2(k), family="su2"))
    for k in (2, 3):
        w.cli(IRRATIONAL_CMDS, w.add(corpus.power(fib, k), {"kind": "fib_power", "k": k}))
    for n in (5, 7, 11):
        w.cli(IRRATIONAL_CMDS, w.add(corpus.ty(n), {"kind": "ty", "n": n}))
    rep_r_q8 = corpus.from_builtin("rep_r_q8")
    w.cli(IRRATIONAL_CMDS, w.add(corpus.product(rep_r_q8, corpus.cyclic(3))))
    w.cli(IRRATIONAL_CMDS, w.add(corpus.product(corpus.from_builtin("rep_f2_z3"), fib)))
    for name in ("fib", "rep_r_q8", "rep_f2_z3", "jj_bim"):
        w.cli(IRRATIONAL_CMDS, builtin=name)
    return w


def cli_pointed() -> Workload:
    w = Workload("cli-pointed")
    for n in (*range(8, 17), 18, 20):
        w.cli(POINTED_CMDS, w.add(corpus.cyclic(n), {"kind": "group", "order": n}, "cyclic"))
    for m, k in ((2, 4), (2, 6), (3, 4), (3, 5), (2, 8), (4, 4)):
        ring = corpus.product(corpus.cyclic(m), corpus.cyclic(k))
        w.cli(POINTED_CMDS, w.add(ring, {"kind": "group", "order": m * k}))
    s3 = corpus.from_builtin("vec_s3")
    for n in (2, 3):
        ring = corpus.product(s3, corpus.cyclic(n))
        w.cli(POINTED_CMDS, w.add(ring, {"kind": "group", "order": 6 * n}))
    for name in ("vec_z2", "vec_z3", "vec_s3", "cc_bim", "gal7", "vec_r", "vec_c"):
        w.cli(POINTED_CMDS, builtin=name)
    return w


def morphism_matrix(
    source: Ring, target: Ring, images: dict[str, dict[str, int]]
) -> list[list[int]]:
    """matrix[t][s] from source label -> {target label: multiplicity}."""
    m = [[0] * source.rank for _ in range(target.rank)]
    for s_label, image in images.items():
        for t_label, mult in image.items():
            m[target.index(t_label)][source.index(s_label)] = mult
    return m


def session_exact() -> Workload:
    w = Workload("session-exact")
    fib = corpus.from_builtin("fib")
    gal7 = corpus.from_builtin("gal7")
    fib2 = corpus.power(fib, 2)

    # gal7 (x) B: the prediction (d_Z/d) FPdim(B) FPdim(gal7 (x) B) is FPdim(B)^2,
    # strictly below FPdim(gal7 (x) B)^2 = 9 FPdim(B)^2
    bases = [(corpus.su2(k), {"rational": "144"} if k == 4 else {}) for k in range(3, 9)]
    bases += [
        (fib2, {"q5_power": 4}),
        (corpus.power(fib, 3), {"q5_power": 6}),
        (corpus.ty(5), {"rational": "100"}),
    ]
    for base, predicted in bases:
        family = "gal7_su2" if base.name.startswith("su2") else None
        key = w.add(corpus.product(gal7, base), family=family)
        w.session(f"center:{key}", {"op": "center", "ring": key},
                  {"kind": "center_strict", **predicted})

    su2_8 = w.add(corpus.su2(8))
    su2_3 = w.add(corpus.su2(3))
    w.add(fib2)
    w.add(fib)
    fib_z2 = w.add(corpus.product(fib, corpus.cyclic(2)))
    w.session("morita:su2_8~su2_8",
              {"op": "morita", "a": su2_8, "b": w.add(replace(corpus.su2(8), name="su2_8_copy"))},
              {"kind": "morita_equal"})
    # FPdim(C)/d in Q(sqrt 5) as (a, b) = a + b sqrt 5
    for a, b, dim_a, dim_b in (
        (fib2.name, su2_3, ["15/2", "5/2"], ["5", "1"]),
        (fib_z2, su2_3, ["5", "1"], ["5", "1"]),
        ("fib", su2_3, ["5/2", "1/2"], ["5", "1"]),
    ):
        w.session(f"morita:{a}~{b}", {"op": "morita", "a": a, "b": b},
                  {"kind": "morita_q5", "a": dim_a, "b": dim_b})

    # morphisms as source label -> image in target labels
    identity = {label: {label: 1} for label in w.rings[su2_8].labels}
    include = {"1": {"1.1": 1}, "x": {"x.1": 1}}
    tensor = {"1.1": {"1": 1}, "1.x": {"x": 1}, "x.1": {"x": 1}, "x.x": {"1": 1, "x": 1}}
    adjoint = {"1": {"1.1": 1, "x.x": 1}, "x": {"1.x": 1, "x.1": 1, "x.x": 1}}  # of tensor
    for op, name, source, target, images in (
        ("transport", "id_su2_8", su2_8, su2_8, identity),
        ("transport", "fib->fib2", "fib", fib2.name, include),
        ("transport", "fib2->fib", fib2.name, "fib", tensor),
        ("adjoint", "fib->fib2", "fib", fib2.name, adjoint),
        ("adjoint", "id_su2_8", su2_8, su2_8, identity),
    ):
        spec = {"op": op, "source": source, "target": target, "images": images}
        if op == "adjoint":
            spec["fpdim_d"] = 1
        w.session(f"{op}:{name}", spec, {"kind": "passed"})

    ty5 = w.add(corpus.ty(5))
    fib3 = w.add(corpus.power(fib, 3))
    for key in (su2_3, su2_8, fib2.name, fib3, ty5):
        w.session(f"refine:{key}", {"op": "refine", "ring": key, "bits": 512}, {"kind": "width"})
    z12 = w.add(corpus.cyclic(12))
    for key in (su2_3, su2_8, fib2.name, z12, ty5, "fib"):
        w.session(f"minpoly:{key}", {"op": "minpoly", "ring": key})
    for ring, bound in (
        (fib, 3),
        (corpus.su2(4), 2),
        (corpus.cyclic(6), 2),
        (corpus.from_builtin("rep_r_q8"), 2),
    ):
        key = w.add(ring)
        w.session(f"idempotents:{key}", {"op": "idempotents", "ring": key, "bound": bound},
                  {"kind": "only_unit", "unit": ring.labels[ring.unit]})
    return w


DEFINITIONS = {
    "cli-irrational": cli_irrational,
    "cli-pointed": cli_pointed,
    "session-exact": session_exact,
}
