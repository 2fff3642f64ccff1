from __future__ import annotations

import errno
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence, Union

import pytest

import fusionring as fr
from fusionring.core import unit_decomposition
from fusionring.errors import SchemaError
from fusionring.fileformat import parse_fusion_file
from fusionring.fpengine import (
    AlgebraicNumber,
    _field_inverse,
    char_poly,
    ensure_fpdim_ready,
    exact_cmp,
    exact_mul,
    fpdim_element,
    isolate_max_real_root,
    left_mult_matrix_from_coeffs,
    min_poly,
    normalize_value,
    refine,
)
from fusionring.poly import (
    RationalPolynomial,
    _negated_remainder,
    _positive_integer_multiple,
    _primitive,
    exact_quotient,
)
from fusionring.report import ValidationReport, Violation
from fusionring.validate import PRIME

Rat = Union[int, Fraction]

ALL_NAMES = list(fr.list_builtins())
FUSION_NAMES = [n for n in ALL_NAMES if fr.get_builtin(n).data.is_fusion]
RANK2_FUSION_NAMES = [n for n in FUSION_NAMES if fr.get_builtin(n).data.rank == 2]

# cc_bim with c * c = 2 * 1 (the digest's cc_bim~1): it passes
# check_structural and is transitive, but eps_c = 1 breaks eps consistency.
CC_BIM_DOUBLED = fr.FusionData(
    labels=("1", "c"),
    products=((((0, 1),), ((1, 1),)), (((1, 1),), ((0, 2),))),
    dual=(0, 1),
    eps=(1, 1),
    endo_degree=2,
    unit=(0,),
)


@pytest.fixture(scope="session")
def builtins():
    return {name: fr.get_builtin(name) for name in ALL_NAMES}


def fusion_data(name):
    return fr.get_builtin(name).data


def mutate_tensor(data, i, j, k, delta):
    """Copy of the fusion data with one product multiplicity shifted; raises
    ValueError if the shift drives the entry negative."""
    tensor = [[list(row) for row in plane] for plane in data.n_tensor]
    tensor[i][j][k] += delta
    return fr.FusionData(
        labels=data.labels,
        n_tensor=tuple(tuple(tuple(row) for row in plane) for plane in tensor),
        dual=data.dual,
        eps=data.eps,
        endo_degree=data.endo_degree,
        unit=data.unit,
    )


def cyclic(n: int) -> fr.FusionData:
    """The group ring of Z/n."""
    labels = tuple("1" if i == 0 else f"g{i}" for i in range(n))
    return fr.vec_group(labels, tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))


def su2(k: int) -> fr.FusionData:
    """SU(2)_k: simples j = 0..k (twice the spin), j*l = sum of c with
    |j-l| <= c <= min(j+l, 2k-j-l) and j+l+c even; FPdim(j) is the quantum
    integer [j+1] at q = exp(i pi/(k+2))."""
    r = k + 1

    def n(a: int, b: int, c: int) -> int:
        return int(abs(a - b) <= c <= min(a + b, 2 * k - a - b) and (a + b + c) % 2 == 0)

    return fr.FusionData(
        labels=tuple(f"j{a}" for a in range(r)),
        n_tensor=[[[n(a, b, c) for c in range(r)] for b in range(r)] for a in range(r)],
        dual=range(r),
        eps=(1,) * r,
        endo_degree=1,
        unit=(0,),
    )


def tensor_product(a: fr.FusionData, b: fr.FusionData) -> fr.FusionData:
    """Deligne product of fusion data: simple (x, y) is labelled "x.y"."""
    pairs = [(i, j) for i in range(a.rank) for j in range(b.rank)]
    return fr.FusionData(
        labels=tuple(f"{a.labels[i]}.{b.labels[j]}" for i, j in pairs),
        n_tensor=[
            [[a.n_tensor[i][k][m] * b.n_tensor[j][l][n] for m, n in pairs] for k, l in pairs]
            for i, j in pairs
        ],
        dual=[pairs.index((a.dual[i], b.dual[j])) for i, j in pairs],
        eps=[a.eps[i] * b.eps[j] for i, j in pairs],
        endo_degree=a.endo_degree * b.endo_degree,
        unit=[pairs.index((i, j)) for i in a.unit for j in b.unit],
    )


def tambara_yamagami(n: int) -> fr.FusionData:
    """TY(Z/n): group simples g0..g{n-1} and m with g*m = m*g = m and
    m*m = sum of all g; FPdim(m) = sqrt(n)."""
    r = n + 1

    def n_(a: int, b: int, c: int) -> int:
        if a < n and b < n:
            return int(c == (a + b) % n)
        if a == n and b == n:
            return int(c < n)
        return int(c == n)

    return fr.FusionData(
        labels=tuple(f"g{a}" for a in range(n)) + ("m",),
        n_tensor=[[[n_(a, b, c) for c in range(r)] for b in range(r)] for a in range(r)],
        dual=tuple((-a) % n for a in range(n)) + (n,),
        eps=(1,) * r,
        endo_degree=1,
        unit=(0,),
    )


def relabelled(data: fr.FusionData, seed: int) -> fr.FusionData:
    """The same data on a shuffled basis with fresh labels, so that the
    canonical file order (sorted labels) differs from the index order."""
    rng = random.Random(seed)
    order = list(range(data.rank))  # position p holds the old simple order[p]
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    return fr.FusionData(
        labels=tuple(f"s{rng.randrange(10**6)}.{p}" for p in range(data.rank)),
        products=tuple(
            tuple(tuple(sorted((where[k], m) for k, m in data.products[a][b])) for b in order)
            for a in order
        ),
        dual=tuple(where[data.dual[a]] for a in order),
        eps=tuple(data.eps[a] for a in order),
        endo_degree=data.endo_degree,
        unit=tuple(where[u] for u in data.unit),
    )


def category_matrix_coeffs_oracle(data: fr.FusionData) -> list[Rat]:
    """The coefficients of s = Sum x*dual(x)/eps_x by core.multiply, one
    product of two basis elements per simple."""
    s: list[Rat] = [0] * data.rank
    for i in range(data.rank):
        prod = fr.multiply(data.basis(i), fr.dual_element(data.basis(i)))
        e = data.eps[i]
        for c, m in enumerate(prod.coeffs):
            if m:
                s[c] += m if e == 1 else Fraction(m, e)
    return s


def galois_product(
    entry: fr.FixtureEntry, b: fr.FusionData
) -> tuple[fr.FusionData, fr.GaloisAnnotation]:
    """tensor_product(entry.data, b) annotated by entry's marks: simple
    (x, y) carries the mark of x, so the Galois-trivial subring is
    (trivial part of entry) x b."""
    data = tensor_product(entry.data, b)
    marks = tuple(mark for mark in entry.annotation.marks for _ in range(b.rank))
    return data, fr.GaloisAnnotation(marks, group=entry.annotation.group)


def companion_matrix(p: RationalPolynomial) -> fr.RationalMatrix:
    """Companion matrix of a monic polynomial p of degree >= 1, whose char
    poly is p."""
    n = p.degree
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        if i:
            rows[i][i - 1] = 1
        rows[i][n - 1] = -p.coeffs[i]
    return fr.RationalMatrix(tuple(map(tuple, rows)))


def kron(a: fr.RationalMatrix, b: fr.RationalMatrix) -> fr.RationalMatrix:
    """Kronecker product of two square matrices."""
    return fr.RationalMatrix(
        tuple(tuple(x * y for x in ra for y in rb) for ra in a.rows for rb in b.rows)
    )


def composed_product_oracle(pa: RationalPolynomial, pb: RationalPolynomial) -> RationalPolynomial:
    """prod (t - alpha beta) over the roots of monic pa and pb, as the char
    poly of the Kronecker product of their companion matrices, whose
    eigenvalues are the products alpha beta."""
    return char_poly(kron(companion_matrix(pa), companion_matrix(pb)))


def center_prediction_oracle(
    data: fr.FusionData, annotation: fr.GaloisAnnotation, user_center_degree=None
) -> tuple:
    """(predicted, bound_ok, strict, equality, consistent) by the square
    formula: predicted = (d_Z/d) FPdim(im F) FPdim(C) compared by exact_cmp
    with exact_square(FPdim(C)); equality iff every simple is Galois
    trivial, and consistent iff the comparison agrees with it."""
    d_z = fr.center_endo_degree(data, annotation, user_center_degree)
    fp_image = fr.fpdim_category(fr.galois_trivial_subring(data, annotation))
    fp_cat = fr.fpdim_category(data)
    predicted = exact_mul(exact_mul(Fraction(d_z, data.endo_degree), fp_image), fp_cat)
    cmp = exact_cmp(predicted, fr.exact_square(fp_cat))
    equality = all(annotation.is_trivial(i) for i in range(data.rank))
    return predicted, cmp <= 0, cmp < 0, equality, (cmp == 0) == equality


def fpdim_transport_oracle(f) -> list:
    """The fpdim_transport violations of f, decided per source simple and
    independently of the Perron-field test in the package: FPdim(f(x)) and
    FPdim(x) each from its own char poly, compared by exact_cmp with the
    product exact_mul(FPdim(D), FPdim(x)), which the package's check never
    forms."""
    violations: list[Violation] = []
    src = f.source
    fpdim_d = fpdim_element(f.twist_element())
    for x in range(src.rank):
        expected = exact_mul(fpdim_d, fpdim_element(src.basis(x)))
        if exact_cmp(fpdim_element(f.apply(src.basis(x))), expected) != 0:
            violations.append(
                Violation(
                    "fpdim_transport",
                    (x,),
                    f"FPdim(f({src.labels[x]})) differs from FPdim(D) * "
                    f"FPdim({src.labels[x]})",
                )
            )
    return violations


def morphism_file_oracle(f, name: str = "") -> str:
    """The morphism file writer that embeds each fusion document by writing
    it with emit_fusion_file and parsing the text back."""
    images: dict[str, dict[str, int]] = {}
    for s in range(f.source.rank):
        column = {
            f.target.labels[t]: f.matrix[t][s] for t in range(f.target.rank) if f.matrix[t][s]
        }
        if column:
            images[f.source.labels[s]] = dict(sorted(column.items()))
    doc = {
        "kind": "morphism",
        "name": name,
        "source": json.loads(fr.emit_fusion_file(f.source)),
        "target": json.loads(fr.emit_fusion_file(f.target)),
        "images": images,
        "twist": None
        if f.twist is None
        else {f.source.labels[i]: c for i, c in enumerate(f.twist.coeffs) if c},
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# dense references for the axiom checks: the loops over every entry of
# n_tensor that the sparse checks in the package replace


def dense_unit_law(data: fr.FusionData) -> list[Violation]:
    """1*x = x = x*1 for every simple x, with the unit 1 = Sum of the
    declared summands, through MultisetElement products."""
    out = []
    one = data.one()
    for i, x in enumerate(data.simples()):
        for term, got in ((f"1*{data.labels[i]}", one * x), (f"{data.labels[i]}*1", x * one)):
            if got.coeffs != x.coeffs:
                out.append(
                    Violation("unit_law", (i,), f"{term} = {got}, expected {data.labels[i]}")
                )
    return out


def dense_associativity(data: fr.FusionData) -> list[Violation]:
    """The O(r^5) associativity loop over (i, j, k, l)."""
    n, labels, r = data.n_tensor, data.labels, data.rank
    out = []
    for i, j, k, l in itertools.product(range(r), repeat=4):
        lhs = sum(n[i][j][m] * n[m][k][l] for m in range(r))
        rhs = sum(n[j][k][m] * n[i][m][l] for m in range(r))
        if lhs != rhs:
            out.append(
                Violation(
                    "associativity",
                    (i, j, k, l),
                    f"({labels[i]}*{labels[j]})*{labels[k]} and "
                    f"{labels[i]}*({labels[j]}*{labels[k]}) disagree at "
                    f"{labels[l]}: {lhs} vs {rhs}",
                )
            )
    return out


def dense_duality(data: fr.FusionData) -> list[Violation]:
    """A unique unit summand appears in a*b exactly when b is the dual of a."""
    n, labels, r = data.n_tensor, data.labels, data.rank
    units = sorted(set(data.unit))
    out = []
    for a, b in itertools.product(range(r), repeat=2):
        appearing = sum(1 for u in units if n[a][b][u] > 0)
        if b == data.dual[a] and appearing != 1:
            out.append(
                Violation(
                    "duality",
                    (a, b),
                    f"{labels[a]}*{labels[b]} should contain exactly one unit "
                    f"summand (dual pair), found {appearing}",
                )
            )
        if b != data.dual[a] and appearing:
            out.append(
                Violation(
                    "duality",
                    (a, b),
                    f"{labels[a]}*{labels[b]} contains a unit summand but "
                    f"{labels[b]} is not the dual of {labels[a]}",
                )
            )
    return out


def dense_unit_orthogonality(data: fr.FusionData) -> list[Violation]:
    """a*b = delta_{a,b} a for the declared unit summands a, b."""
    n, labels, r = data.n_tensor, data.labels, data.rank
    units = sorted(set(data.unit))
    return [
        Violation(
            "unit_orthogonality",
            (a, b),
            f"{labels[a]}*{labels[b]} should be {labels[a] if a == b else '0'}",
        )
        for a, b in itertools.product(units, repeat=2)
        if list(n[a][b]) != [int(a == b == k) for k in range(r)]
    ]


def dense_structural(data: fr.FusionData) -> list[Violation]:
    """check_structural's violations in its order: the dual-map and unit
    multiplicity checks, which read no product, from the package, then the
    dense references."""
    got = fr.check_structural(data).violations
    head = [v for v in got if v.rule in ("dual_involution", "unit_multiplicity")]
    return (
        head
        + dense_unit_orthogonality(data)
        + dense_unit_law(data)
        + dense_associativity(data)
        + dense_duality(data)
    )


def dense_eps_consistency(data: fr.FusionData) -> list[Violation]:
    """The cyclic and transpose relations at every triple (x, y, z), then
    N[a][a~][1] = eps_a."""
    n, labels, r, dual, eps = data.n_tensor, data.labels, data.rank, data.dual, data.eps
    out = []
    for x, y, z in itertools.product(range(r), repeat=3):
        base = eps[z] * n[x][y][dual[z]]
        cyc1 = eps[y] * n[z][x][dual[y]]
        cyc2 = eps[x] * n[y][z][dual[x]]
        where = f"({labels[x]},{labels[y]},{labels[z]})"
        if not (base == cyc1 == cyc2):
            out.append(
                Violation(
                    "eps_cyclic",
                    (x, y, z),
                    f"cyclic relation fails at {where}: {base}, {cyc1}, {cyc2}",
                )
            )
        transposed = eps[z] * n[dual[y]][dual[x]][z]
        if base != transposed:
            out.append(
                Violation(
                    "eps_transpose",
                    (x, y, z),
                    f"transpose relation fails at {where}: {base} vs {transposed}",
                )
            )
    u = data.unit_index
    for a in range(r):
        if n[a][dual[a]][u] != eps[a]:
            out.append(
                Violation(
                    "eps_unit_pairing",
                    (a,),
                    f"N[{labels[a]}][{labels[dual[a]]}][1] = {n[a][dual[a]][u]}, "
                    f"expected eps = {eps[a]}",
                )
            )
    return out


def dense_transitivity(data: fr.FusionData) -> list[Violation]:
    """Simples u, v with y <= u*x and y <= x*v, probed one by one."""
    n, labels, r = data.n_tensor, data.labels, data.rank
    out = []
    for x, y in itertools.product(range(r), repeat=2):
        if not any(n[u][x][y] for u in range(r)):
            out.append(
                Violation("transitivity", (x, y), f"no simple u with {labels[y]} <= u*{labels[x]}")
            )
        if not any(n[x][v][y] for v in range(r)):
            out.append(
                Violation("transitivity", (x, y), f"no simple v with {labels[y]} <= {labels[x]}*v")
            )
    return out


# ---------------------------------------------------------------------------
# check_structural and check_eps_consistency as they were before their fast
# checks: the sparse loops over every cell and triple, kept as oracles for
# the package's fast paths, which must give the same reports


def structural_oracle(data: fr.FusionData) -> ValidationReport:
    """check_structural with Light's test on dense rank vectors, every triple
    expanded into two dicts, and the duality axiom read cell by cell."""
    violations: list[Violation] = []
    labels = data.labels
    r = data.rank
    products = data.products

    for i, d in enumerate(data.dual):
        if data.dual[d] != i:
            violations.append(
                Violation(
                    "dual_involution",
                    (i,),
                    f"dual map is not involutive at {labels[i]}: "
                    f"dual({labels[i]}) = {labels[d]} but dual({labels[d]}) = "
                    f"{labels[data.dual[d]]}",
                )
            )

    units, unit_report = unit_decomposition(data)
    violations.extend(unit_report.violations)

    one = [(u, data.unit.count(u)) for u in units]
    unit_law = True
    for i in range(r):
        for left in (True, False):
            times_one: dict[int, int] = {}
            for u, c in one:
                for k, m in products[u][i] if left else products[i][u]:
                    times_one[k] = times_one.get(k, 0) + c * m
            if times_one != {i: 1}:
                unit_law = False
                x = data.basis(i)
                got = data.one() * x if left else x * data.one()
                term = f"1*{labels[i]}" if left else f"{labels[i]}*1"
                violations.append(
                    Violation("unit_law", (i,), f"{term} = {got}, expected {labels[i]}")
                )

    light = unit_law and all(
        _associative_triple_oracle(products, x, a, y)[0]
        for a in light_generators_oracle(data)
        for x in range(r)
        for y in range(r)
    )
    for i, j, k in () if light else itertools.product(range(r), repeat=3):
        same, lhs, rhs = _associative_triple_oracle(products, i, j, k)
        if same:
            continue
        for l in range(r):
            x, y = lhs.get(l, 0), rhs.get(l, 0)
            if x != y:
                violations.append(
                    Violation(
                        "associativity",
                        (i, j, k, l),
                        f"({labels[i]}*{labels[j]})*{labels[k]} and "
                        f"{labels[i]}*({labels[j]}*{labels[k]}) disagree at "
                        f"{labels[l]}: {x} vs {y}",
                    )
                )

    unit_set = set(units)
    for a in range(r):
        for b in range(r):
            appearing = sum(k in unit_set for k, _ in products[a][b])
            want = b == data.dual[a]
            if want and appearing != 1:
                violations.append(
                    Violation(
                        "duality",
                        (a, b),
                        f"{labels[a]}*{labels[b]} should contain exactly one unit "
                        f"summand (dual pair), found {appearing}",
                    )
                )
            if not want and appearing:
                violations.append(
                    Violation(
                        "duality",
                        (a, b),
                        f"{labels[a]}*{labels[b]} contains a unit summand but "
                        f"{labels[b]} is not the dual of {labels[a]}",
                    )
                )

    return ValidationReport.from_violations(violations)


def _associative_triple_oracle(products, i: int, j: int, k: int) -> tuple[bool, dict, dict]:
    """(equal, (i*j)*k, i*(j*k)), the two products as sparse dicts."""
    lhs: dict[int, int] = {}
    for m, a in products[i][j]:
        for l, b in products[m][k]:
            lhs[l] = lhs.get(l, 0) + a * b
    rhs: dict[int, int] = {}
    for m, a in products[j][k]:
        for l, b in products[i][m]:
            rhs[l] = rhs.get(l, 0) + a * b
    return lhs == rhs, lhs, rhs


def light_generators_oracle(data: fr.FusionData) -> list[int]:
    """Light's generator set S, with words and rows as dense vectors mod PRIME."""
    r = data.rank
    products = data.products
    rows: list[tuple[int, list[int]]] = []  # (pivot, row with 1 at the pivot)

    def reduced(v: list[int]) -> list[int]:
        for c, row in rows:
            a = v[c]
            if a:
                v = [(x - a * y) % PRIME for x, y in zip(v, row)]
        return v

    def keep(v: list[int]) -> bool:
        v = reduced(v)
        for c, x in enumerate(v):
            if x:
                inverse = pow(x, -1, PRIME)
                rows.append((c, [y * inverse % PRIME for y in v]))
                return True
        return False

    one = [0] * r
    for u in data.unit:
        one[u] += 1
    span = [one]
    keep(one)
    generators: list[int] = []
    for g in range(r):
        if len(rows) == r:
            break
        if not any(reduced([int(k == g) for k in range(r)])):
            continue
        generators.append(g)
        todo = [(g, v) for v in span]
        while todo:
            s, v = todo.pop()
            w = [0] * r
            for j, c in enumerate(v):
                if c:
                    for k, m in products[s][j]:
                        w[k] += c * m
            w = [x % PRIME for x in w]
            if keep(w):
                span.append(w)
                todo += [(t, w) for t in generators]
    return generators


def eps_consistency_oracle(data: fr.FusionData) -> ValidationReport:
    """check_eps_consistency with all four sides built and compared."""
    violations: list[Violation] = []
    labels = data.labels
    r = data.rank
    products = data.products
    dual = data.dual
    eps = data.eps
    preimage: list[list[int]] = [[] for _ in range(r)]
    for z, d in enumerate(dual):
        preimage[d].append(z)

    base: dict[tuple[int, int, int], int] = {}
    cyc1: dict[tuple[int, int, int], int] = {}
    cyc2: dict[tuple[int, int, int], int] = {}
    transposed: dict[tuple[int, int, int], int] = {}
    for i in range(r):
        for j in range(r):
            for k, m in products[i][j]:
                for w in preimage[k]:
                    base[i, j, w] = eps[w] * m
                    cyc1[j, w, i] = eps[w] * m
                    cyc2[w, i, j] = eps[w] * m
                for y in preimage[i]:
                    for x in preimage[j]:
                        transposed[x, y, k] = eps[k] * m

    if not (base == cyc1 == cyc2 == transposed):
        for t in sorted(base.keys() | cyc1.keys() | cyc2.keys() | transposed.keys()):
            x, y, z = t
            b, c1, c2, tr = (side.get(t, 0) for side in (base, cyc1, cyc2, transposed))
            if not (b == c1 == c2):
                violations.append(
                    Violation(
                        "eps_cyclic",
                        t,
                        f"cyclic relation fails at ({labels[x]},{labels[y]},{labels[z]}): "
                        f"{b}, {c1}, {c2}",
                    )
                )
            if b != tr:
                violations.append(
                    Violation(
                        "eps_transpose",
                        t,
                        f"transpose relation fails at ({labels[x]},{labels[y]},{labels[z]}): "
                        f"{b} vs {tr}",
                    )
                )

    u = data.unit_index
    for a in range(r):
        pairing = dict(products[a][dual[a]]).get(u, 0)
        if pairing != eps[a]:
            violations.append(
                Violation(
                    "eps_unit_pairing",
                    (a,),
                    f"N[{labels[a]}][{labels[dual[a]]}][1] = {pairing}, "
                    f"expected eps = {eps[a]}",
                )
            )

    return ValidationReport.from_violations(violations)


# ---------------------------------------------------------------------------
# the regular element over Fractions: K = Q[t]/(m) arithmetic on
# RationalPolynomials, normalised to R_unit = 1 before every comparison; an
# oracle for the integer Perron-field kernel in the package


def perron_vector_oracle(
    data: fr.FusionData,
) -> tuple[RationalPolynomial, tuple[RationalPolynomial, ...]]:
    """(m, R): the regular element R as the Perron eigenvector of left
    multiplication L by t = Sum of all simples, normalised to 1 at the unit;
    R = q(L) e_unit, rescaled, for q = char_poly(L)/(t - mu) over K."""
    ensure_fpdim_ready(data)
    r = data.rank
    matrix = left_mult_matrix_from_coeffs(data, [1] * r)
    p = char_poly(matrix)
    m = min_poly(isolate_max_real_root(p))
    mu = RationalPolynomial.variable() % m
    # coefficients of q, highest degree first: q_{k-1} = p_k + mu q_k
    q = [RationalPolynomial.constant(1)]
    for c in reversed(p.coeffs[1:-1]):
        q.append(RationalPolynomial.constant(c) + (mu * q[-1]) % m)
    krylov = [int(i == data.unit_index) for i in range(r)]
    vec = [RationalPolynomial.zero()] * r
    for coeff in reversed(q):
        vec = [acc + coeff.scale(v) for acc, v in zip(vec, krylov)]
        krylov = [sum(a * v for a, v in zip(row, krylov)) for row in matrix.rows]
    inverse = _field_inverse(vec[data.unit_index], m)
    return m, tuple((c * inverse) % m for c in vec)


def eigenproperty_oracle(data: fr.FusionData) -> ValidationReport:
    """(x R)_c == eps_x R_x R_c in K for every x and c, with R from
    perron_vector_oracle."""
    m, reg = perron_vector_oracle(data)
    labels = data.labels
    r = data.rank
    violations: list[Violation] = []
    for x in range(r):
        lhs = [RationalPolynomial.zero()] * r
        for i, pairs in enumerate(data.products[x]):
            for c, n in pairs:
                lhs[c] += reg[i].scale(n)
        fpdim_x = reg[x].scale(data.eps[x])
        for c in range(r):
            rhs = (fpdim_x * reg[c]) % m
            if lhs[c] != rhs:
                violations.append(
                    Violation(
                        "regular_eigenproperty",
                        (x, c),
                        f"({labels[x]} * R)[{labels[c]}] = {lhs[c]} != "
                        f"FPdim({labels[x]}) * R[{labels[c]}] = {rhs}",
                    )
                )
    return ValidationReport.from_violations(violations)


# ---------------------------------------------------------------------------
# exact intervals (pairs of Fractions): an oracle independent of the
# number-field checks in the package

Interval = tuple[Fraction, Fraction]


def as_interval(v: Union[Rat, AlgebraicNumber], width: Fraction) -> Interval:
    v = normalize_value(v)
    if isinstance(v, Fraction):
        return (v, v)
    r = refine(v, width)
    return (r.lo, r.hi)


def iv_add(a: Interval, b: Interval) -> Interval:
    return (a[0] + b[0], a[1] + b[1])


def iv_scale(a: Interval, c: Rat) -> Interval:
    c = Fraction(c)
    return (a[0] * c, a[1] * c) if c >= 0 else (a[1] * c, a[0] * c)


def iv_mul(a: Interval, b: Interval) -> Interval:
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(products), max(products))


def iv_separation(a: Interval, b: Interval) -> Fraction:
    """Zero when the intervals overlap, else the gap between them."""
    return max(Fraction(0), a[0] - b[1], b[0] - a[1])


# ---------------------------------------------------------------------------
# Sturm chains over Fractions, evaluated by Fraction Horner: an oracle
# independent of the integer chains and integer sign evaluation in the package


def sturm_chain(p: RationalPolynomial) -> list[RationalPolynomial]:
    """Canonical Sturm chain p, p', -rem(...), ...  Intended for squarefree p."""
    if p.degree < 1:
        return [p]
    chain = [p, p.derivative()]
    while chain[-1].degree >= 1:
        rem = divmod(chain[-2], chain[-1])[1]
        if rem.is_zero:
            break
        chain.append(-rem)
    return chain


def integer_gcd_oracle(f: Sequence[int], g: Sequence[int]) -> Sequence[int]:
    """The package's former _integer_gcd: a primitive integer gcd of two
    primitive integer polynomials, by its own remainder sequence."""
    while g:
        f, g = g, _negated_remainder(f, g)
    return f


def squarefree_part_oracle(p: RationalPolynomial) -> RationalPolynomial:
    """RationalPolynomial.squarefree_part as it was before it read p's Sturm
    chain: p's primitive integer form divided by integer_gcd_oracle of it
    and its derivative."""
    if p.degree < 1:
        return p.monic()
    f = _positive_integer_multiple(p.coeffs)
    g = integer_gcd_oracle(f, _primitive([i * c for i, c in enumerate(f) if i]))
    if len(g) < 2:
        return p.monic()
    return RationalPolynomial(exact_quotient(f, g)).monic()


def sign_variations(chain: Sequence[RationalPolynomial], x: Rat) -> int:
    """Sign variations of the chain at x, dropping zero values.

    With this convention V(a) equals the right-limit V(a+) for squarefree
    chains, so V(a) - V(b) counts the distinct real roots in (a, b]
    regardless of whether a or b is itself a root.
    """
    signs = []
    for q in chain:
        v = q.evaluate(x)
        if v:
            signs.append(1 if v > 0 else -1)
    count = 0
    for s, t in zip(signs, signs[1:]):
        if s != t:
            count += 1
    return count


# ---------------------------------------------------------------------------
# the plain loops that the pruned idempotent search, the hoisted
# homomorphism check, the certified subring and the single-open file
# reader replace


def idempotents_oracle(
    data: fr.FusionData, coeff_bound: int, max_candidates: int = 2_000_000
) -> list[fr.MultisetElement]:
    """Every p in the box [1, coeff_bound]^r with p*p = p, tried one by one
    in itertools.product order through validated elements and
    core.multiply; the same budget refusal before any candidate."""
    if coeff_bound < 1:
        raise ValueError("coefficient bound must be at least 1")
    one = data.one().coeffs
    ranges = [range(max(c, 0), coeff_bound + 1) if c <= coeff_bound else range(0) for c in one]
    total = 1
    for rng in ranges:
        total *= len(rng)
    if total > max_candidates:
        raise fr.ResourceLimitError(
            f"{total} candidates exceed the budget of {max_candidates}; "
            "lower the bound or raise max_candidates"
        )
    found = []
    for coeffs in itertools.product(*ranges):
        p = fr.MultisetElement(data, coeffs)
        if (p * p).coeffs == coeffs:
            found.append(p)
    return found


def homomorphism_oracle(f) -> list[Violation]:
    """The check_homomorphism violations of f with every image and product
    formed afresh for each pair (x, y) of source simples."""
    violations: list[Violation] = []
    src, tgt = f.source, f.target
    d = f.twist_element()
    one_image = f.apply(src.one())
    if f.twist is None:
        if one_image.coeffs != tgt.one().coeffs:
            violations.append(
                Violation("unit_image", (), f"f(1) = {one_image}, expected the target unit")
            )
    elif not all(a >= b for a, b in zip(one_image.coeffs, tgt.one().coeffs)):
        violations.append(
            Violation("unit_image", (), f"f(1) = {one_image} does not dominate the target unit")
        )
    for x in range(src.rank):
        bx = src.basis(x)
        fx = f.apply(bx)
        xd = fr.multiply(bx, d)
        for y in range(src.rank):
            by = src.basis(y)
            lhs = fr.multiply(fx, f.apply(by))
            rhs = f.apply(fr.multiply(xd, by))
            if lhs.coeffs != rhs.coeffs:
                violations.append(
                    Violation(
                        "twisted_homomorphism",
                        (x, y),
                        f"f({src.labels[x]}) f({src.labels[y]}) = {lhs} but "
                        f"f({src.labels[x]} D {src.labels[y]}) = {rhs}",
                    )
                )
    return violations


def galois_trivial_subring_oracle(
    data: fr.FusionData, annotation: fr.GaloisAnnotation
) -> fr.FusionData:
    """The full subring on the Galois-trivial simples through the public,
    checking FusionData constructor, from the dense tensor."""
    trivial = [i for i in range(data.rank) if annotation.is_trivial(i)]
    position = {g: i for i, g in enumerate(trivial)}
    return fr.FusionData(
        labels=[data.labels[i] for i in trivial],
        n_tensor=[[[data.n_tensor[i][j][k] for k in trivial] for j in trivial] for i in trivial],
        dual=[position[data.dual[i]] for i in trivial],
        eps=[data.eps[i] for i in trivial],
        endo_degree=data.endo_degree,
        unit=[position[u] for u in data.unit],
    )


def load_oracle(arg: str) -> fr.FixtureEntry:
    """cli._load as a stat of the path followed by a second open: standard
    input for "-", the file when Path(arg).exists(), else the builtin named
    arg, else SchemaError."""
    try:
        if arg == "-":
            text = sys.stdin.read()
        elif Path(arg).exists():
            text = Path(arg).read_text(encoding="utf-8")
        elif arg in fr.list_builtins():
            return fr.get_builtin(arg)
        else:
            raise SchemaError(f"{arg!r} is neither a file, '-', nor a builtin fixture name")
    except (UnicodeDecodeError, OSError) as exc:
        raise SchemaError(f"cannot read {arg!r}: {exc}") from None
    return parse_fusion_file(text)


def text_mode_load_oracle(arg: str) -> fr.FixtureEntry:
    """cli._load as it was before it read bytes: the file opened in text
    mode by open(Path(arg), encoding="utf-8"), which decodes UTF-8 with
    universal newlines; no file where the open fails with a NUL byte or an
    errno at which Path.exists() reads False."""
    try:
        if arg == "-":
            text = sys.stdin.read()
        else:
            try:
                handle = open(Path(arg), encoding="utf-8")
            except ValueError:
                handle = None
            except OSError as exc:
                if exc.errno not in (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP):
                    raise
                handle = None
            if handle is None:
                if arg in fr.list_builtins():
                    return fr.get_builtin(arg)
                raise SchemaError(f"{arg!r} is neither a file, '-', nor a builtin fixture name")
            with handle:
                text = handle.read()
    except (UnicodeDecodeError, OSError) as exc:
        raise SchemaError(f"cannot read {arg!r}: {exc}") from None
    return parse_fusion_file(text)
