"""Axiom and consistency checks for fusion data.

Three levels: structural semiring axioms, eps-consistency (the cyclic
relations a categorified semiring must satisfy), and transitivity.  All
checks are total and report-based; nothing aborts on the first failure.
"""

from __future__ import annotations

from itertools import product

from .core import FusionData, MultisetElement, unit_decomposition
from .errors import NotFusionError, ResourceLimitError
from .report import ValidationReport, Violation

__all__ = [
    "ValidationReport",
    "Violation",
    "check_structural",
    "check_eps_consistency",
    "check_transitivity",
    "search_idempotents_above_unit",
]


#: modulus of the rank test in _light_generators
PRIME = 2**31 - 1


def check_structural(data: FusionData) -> ValidationReport:
    """Verify the multifusion-semiring axioms.

    Covers: the dual map is an involution, the declared unit summands are
    orthogonal multiplicity-one idempotents whose sum is a two-sided identity,
    the product is associative, and the duality axiom (a unique unit summand
    appears in a*b, and in b*a, exactly when b is the dual of a).

    Associativity is decided by Light's associativity test (Clifford and
    Preston, The Algebraic Theory of Semigroups, Vol. I, section 1.2).  The
    a with (x*a)*y = x*(a*y) for all x, y form a subspace M closed under
    products, and M contains 1 once the unit law holds.  So if the words
    s1*(s2*(...*1)) over a set S of simples span the whole space, it is
    enough to check the identity for each a in S: r^2 |S| triples instead
    of r^3.  The span is measured as a rank modulo the prime PRIME: a full
    rank mod p gives an r x r minor that is nonzero mod p, so nonzero, and
    the rank over Q is full too; the test is exact.

    The unit law, associativity and duality are decided first by fast
    checks on the stored rows (for a single unit summand of multiplicity
    one, its row and column; _light_holds; one pass listing the cells with
    a unit summand).  Where one fails, its exhaustive loop over every
    simple, triple or cell runs and alone reports violations; the loop over
    triples also runs when the unit law fails.  A fusion ring that
    passes is transitive: x*.x contains the unit, so y <= (y.x*).x and
    y <= x.(x*.y); callers read that off the report.
    """
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
    # with one unit summand e of multiplicity one, 1*i = i reads off the
    # stored row: e*i == ((i, 1),); the dicts are built only where it fails
    e = one[0][0] if [c for _, c in one] == [1] else None
    unit_law = True
    for i in range(r):
        for left in (True, False):
            if e is not None and (products[e][i] if left else products[i][e]) == ((i, 1),):
                continue
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

    light = unit_law and _light_holds(products, _light_generators(data))
    for i, j, k in () if light else product(range(r), repeat=3):
        same, lhs, rhs = _associative_triple(products, i, j, k)
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
    # the cells (a, b), once per unit summand of a*b: the axiom holds iff
    # they are the cells (a, dual(a)), in order
    cells = [
        (a, b) for a, plane in enumerate(products) for b, row in enumerate(plane)
        for k, _ in row if k in unit_set
    ]
    for a, b in () if cells == list(enumerate(data.dual)) else product(range(r), repeat=2):
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


def _associative_triple(products, i: int, j: int, k: int) -> tuple[bool, dict, dict]:
    """(equal, (i*j)*k, i*(j*k)), the two products as sparse dicts."""
    lhs: dict[int, int] = {}
    for m, a in products[i][j]:
        for l, b in products[m][k]:
            lhs[l] = lhs.get(l, 0) + a * b
    rhs: dict[int, int] = {}
    left_i = products[i]
    for m, a in products[j][k]:
        for l, b in left_i[m]:
            rhs[l] = rhs.get(l, 0) + a * b
    return lhs == rhs, lhs, rhs


def _light_holds(products, generators: list[int]) -> bool:
    """Whether (x*a)*y = x*(a*y) for every a in generators and all x, y.
    Where x*a = c m and a*y = d n are single terms, the sides are c (m*y)
    and d (x*n): the stored rows of m*y and x*n, scaled.  Stored rows are
    sorted and hold positive entries, so equal vectors have equal rows.
    Every other triple is expanded by _associative_triple."""
    for a in generators:
        # per y, a*y as its one term (n, d), or None
        terms = [row[0] if len(row) == 1 else None for row in products[a]]
        for x, left in enumerate(products):
            xa = left[a]
            mc = xa[0] if len(xa) == 1 else None
            for y, nd in enumerate(terms):
                if mc and nd:
                    (m, c), (n, d) = mc, nd
                    lhs, rhs = products[m][y], left[n]
                    if c != d:
                        lhs, rhs = [(k, c * p) for k, p in lhs], [(k, d * q) for k, q in rhs]
                    if lhs != rhs:
                        return False
                elif not _associative_triple(products, x, a, y)[0]:
                    return False
    return True


def _light_generators(data: FusionData) -> list[int]:
    """Simples S whose words s1*(s2*(...*1)) span the space mod PRIME,
    given the unit law.  A simple joins S when it is not yet in the span, so
    S * 1 puts it there and the loop ends with every simple in the span.
    Words and rows are sparse dicts {index: entry mod PRIME}; a row has 1 at
    its pivot, the least index of its support."""
    r = data.rank
    products = data.products
    rows: list[tuple[int, dict[int, int]]] = []  # (pivot, row)

    def reduced(v: dict[int, int]) -> dict[int, int]:
        v = dict(v)
        for c, row in rows:
            a = v.get(c)
            if a:
                for k, y in row.items():
                    x = (v.get(k, 0) - a * y) % PRIME
                    if x:
                        v[k] = x
                    else:
                        del v[k]
        return v

    def keep(v: dict[int, int]) -> bool:
        v = reduced(v)
        if not v:
            return False
        c = min(v)
        inverse = pow(v[c], -1, PRIME)
        rows.append((c, {k: x * inverse % PRIME for k, x in v.items()}))
        return True

    one: dict[int, int] = {}
    for u in data.unit:
        one[u] = one.get(u, 0) + 1
    span = [one]
    keep(one)
    generators: list[int] = []
    for g in range(r):
        if len(rows) == r:
            break
        if not reduced({g: 1}):
            continue
        generators.append(g)
        todo = [(g, v) for v in span]
        while todo:
            s, v = todo.pop()
            left = products[s]
            w: dict[int, int] = {}
            for j, c in v.items():
                for k, m in left[j]:
                    w[k] = w.get(k, 0) + c * m
            w = {k: x % PRIME for k, x in w.items() if x % PRIME}
            if keep(w):
                span.append(w)
                todo += [(t, w) for t in generators]
    return generators


def check_eps_consistency(data: FusionData) -> ValidationReport:
    """Verify the cyclic relations between eps and the product tensor.

    For all triples (x, y, z):
        eps_z N[x][y][z~] = eps_y N[z][x][y~] = eps_x N[y][z][x~]
        eps_z N[x][y][z~] = eps_z N[y~][x~][z]
    where ~ is duality.  At z = 1 these force N[a][a~][1] = eps_a, which is
    asserted separately so a violation names the simple directly.

    Each of the four sides is read, at the triples where it is nonzero, from
    the one nonzero product N[i][j][k] that gives it, through the preimages
    under the dual map; at every other triple all four are 0.  Only when the
    sides differ somewhere are their triples walked, in (x, y, z) order.
    """
    if not data.is_fusion:
        raise NotFusionError("eps-consistency is defined for fusion data only")
    violations: list[Violation] = []
    labels = data.labels
    r = data.rank
    products = data.products
    dual = data.dual
    eps = data.eps
    preimage: list[list[int]] = [[] for _ in range(r)]
    for z, d in enumerate(dual):
        preimage[d].append(z)

    # the four sides of the relations above, at the triples (x, y, z) where
    # they are nonzero
    base: dict[tuple[int, int, int], int] = {}
    transposed: dict[tuple[int, int, int], int] = {}
    for i in range(r):
        for j in range(r):
            for k, m in products[i][j]:
                # m = N[i][j][k] is N[x][y][z~] and N[y~][x~][z] here
                for w in preimage[k]:
                    base[i, j, w] = eps[w] * m
                for y in preimage[i]:
                    for x in preimage[j]:
                        transposed[x, y, k] = eps[k] * m
    # N[z][x][y~] and N[y][z][x~] are base with its triples rotated by
    # s(x, y, z) = (y, z, x) and by s^2; base == cyc1 makes base
    # s-invariant, so base == cyc2 follows
    cyc1 = {(y, z, x): v for (x, y, z), v in base.items()}

    if not (base == cyc1 == transposed):
        cyc2 = {(z, x, y): v for (x, y, z), v in base.items()}
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


def check_transitivity(data: FusionData) -> ValidationReport:
    """For every pair of simples (x, y), find simples u, v with y <= u*x and
    y <= x*v: y must lie in the supports of t*x and x*t, where t is the sum
    of all simples."""
    violations: list[Violation] = []
    r = data.rank
    products = data.products
    labels = data.labels
    for x in range(r):
        left = {k for plane in products for k, _ in plane[x]}
        right = {k for row in products[x] for k, _ in row}
        for y in range(r):
            if y not in left:
                violations.append(
                    Violation(
                        "transitivity",
                        (x, y),
                        f"no simple u with {labels[y]} <= u*{labels[x]}",
                    )
                )
            if y not in right:
                violations.append(
                    Violation(
                        "transitivity",
                        (x, y),
                        f"no simple v with {labels[y]} <= {labels[x]}*v",
                    )
                )
    return ValidationReport.from_violations(violations)


def search_idempotents_above_unit(
    data: FusionData, coeff_bound: int, max_candidates: int = 2_000_000
) -> list[MultisetElement]:
    """Exhaustively enumerate p with 1 <= p, coefficients <= coeff_bound and
    p*p = p, in the order of itertools.product over the coefficient ranges
    (first coefficient slowest).  For a multifusion semiring the result must
    be exactly {1}.

    The search is depth first in that order, and still exhaustive.  For an
    assigned prefix p_0..p_d it keeps the part of p*p made of the terms
    p_i p_j N[i][j] with i, j <= d.  Every term is a product of nonnegative
    ints, so that part is a lower bound on p*p, and a prefix is dropped as
    soon as it exceeds an assigned p_k or coeff_bound: no completion of it
    is idempotent.  The budget is the size of the whole box, as for a plain
    enumeration, and a box above max_candidates raises ResourceLimitError
    before anything is searched.
    """
    if coeff_bound < 1:
        raise ValueError("coefficient bound must be at least 1")
    one = data.one().coeffs
    ranges = [range(max(c, 0), coeff_bound + 1) if c <= coeff_bound else range(0) for c in one]
    total = 1
    for rng in ranges:
        total *= len(rng)
    if total > max_candidates:
        raise ResourceLimitError(
            f"{total} candidates exceed the budget of {max_candidates}; "
            "lower the bound or raise max_candidates"
        )
    r = data.rank
    products = data.products
    found: list[MultisetElement] = []
    p = [0] * r

    def extend(d: int, square: list[int]) -> None:
        """Search the completions of p_0..p_{d-1}, whose own terms of p*p
        sum to `square`."""
        if d == r:
            if square == p:
                found.append(MultisetElement._certified(data, tuple(p)))
            return
        # assigning p_d = v adds v * lin + v^2 * quad to square
        lin = [0] * r
        for j in range(d):
            if p[j]:
                for k, m in products[d][j]:
                    lin[k] += p[j] * m
                for k, m in products[j][d]:
                    lin[k] += p[j] * m
        quad = [0] * r
        for k, m in products[d][d]:
            quad[k] = m
        for v in ranges[d]:
            nxt = [s + v * a + v * v * b for s, a, b in zip(square, lin, quad)]
            # each entry grows with v, so a larger v fails these tests too
            if max(nxt) > coeff_bound or any(nxt[k] > p[k] for k in range(d)):
                break
            if nxt[d] <= v:
                p[d] = v
                extend(d + 1, nxt)

    extend(0, [0] * r)
    return found
