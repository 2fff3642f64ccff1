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


def check_structural(data: FusionData) -> ValidationReport:
    """Verify the multifusion-semiring axioms.

    Covers: the dual map is an involution, the declared unit summands are
    orthogonal multiplicity-one idempotents whose sum is a two-sided identity,
    the product is associative, and the duality axiom (a unique unit summand
    appears in a*b, and in b*a, exactly when b is the dual of a).
    """
    violations: list[Violation] = []
    labels = data.labels
    r = data.rank
    n = data.n_tensor

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

    one = data.one()
    for i in range(r):
        x = data.basis(i)
        left = one * x
        right = x * one
        if left.coeffs != x.coeffs:
            violations.append(
                Violation("unit_law", (i,), f"1*{labels[i]} = {left}, expected {labels[i]}")
            )
        if right.coeffs != x.coeffs:
            violations.append(
                Violation("unit_law", (i,), f"{labels[i]}*1 = {right}, expected {labels[i]}")
            )

    # (i*j)*k and i*(j*k) as sparse vectors; only a mismatch walks l
    products = data.products
    for i in range(r):
        left_i = products[i]
        for j in range(r):
            ij = left_i[j]
            for k in range(r):
                lhs: dict[int, int] = {}
                for m, a in ij:
                    for l, b in products[m][k]:
                        lhs[l] = lhs.get(l, 0) + a * b
                rhs: dict[int, int] = {}
                for m, a in products[j][k]:
                    for l, b in left_i[m]:
                        rhs[l] = rhs.get(l, 0) + a * b
                if lhs == rhs:
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
            appearing = {u for u in unit_set if n[a][b][u] > 0}
            want = b == data.dual[a]
            if want and len(appearing) != 1:
                violations.append(
                    Violation(
                        "duality",
                        (a, b),
                        f"{labels[a]}*{labels[b]} should contain exactly one unit "
                        f"summand (dual pair), found {len(appearing)}",
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


def check_eps_consistency(data: FusionData) -> ValidationReport:
    """Verify the cyclic relations between eps and the product tensor.

    For all triples (x, y, z):
        eps_z N[x][y][z~] = eps_y N[z][x][y~] = eps_x N[y][z][x~]
        eps_z N[x][y][z~] = eps_z N[y~][x~][z]
    where ~ is duality.  At z = 1 these force N[a][a~][1] = eps_a, which is
    asserted separately so a violation names the simple directly.
    """
    if not data.is_fusion:
        raise NotFusionError("eps-consistency is defined for fusion data only")
    violations: list[Violation] = []
    labels = data.labels
    r = data.rank
    n = data.n_tensor
    dual = data.dual
    eps = data.eps

    for x in range(r):
        for y in range(r):
            for z in range(r):
                base = eps[z] * n[x][y][dual[z]]
                cyc1 = eps[y] * n[z][x][dual[y]]
                cyc2 = eps[x] * n[y][z][dual[x]]
                if not (base == cyc1 == cyc2):
                    violations.append(
                        Violation(
                            "eps_cyclic",
                            (x, y, z),
                            f"cyclic relation fails at ({labels[x]},{labels[y]},{labels[z]}): "
                            f"{base}, {cyc1}, {cyc2}",
                        )
                    )
                transposed = eps[z] * n[dual[y]][dual[x]][z]
                if base != transposed:
                    violations.append(
                        Violation(
                            "eps_transpose",
                            (x, y, z),
                            f"transpose relation fails at ({labels[x]},{labels[y]},{labels[z]}): "
                            f"{base} vs {transposed}",
                        )
                    )

    u = data.unit_index
    for a in range(r):
        if n[a][dual[a]][u] != eps[a]:
            violations.append(
                Violation(
                    "eps_unit_pairing",
                    (a,),
                    f"N[{labels[a]}][{labels[dual[a]]}][1] = {n[a][dual[a]][u]}, "
                    f"expected eps = {eps[a]}",
                )
            )

    return ValidationReport.from_violations(violations)


def check_transitivity(data: FusionData) -> ValidationReport:
    """For every pair of simples (x, y), find simples u, v with y <= u*x and
    y <= x*v.  Brute force over the basis; rank is small by design."""
    violations: list[Violation] = []
    r = data.rank
    n = data.n_tensor
    labels = data.labels
    for x in range(r):
        for y in range(r):
            if not any(n[u][x][y] for u in range(r)):
                violations.append(
                    Violation(
                        "transitivity",
                        (x, y),
                        f"no simple u with {labels[y]} <= u*{labels[x]}",
                    )
                )
            if not any(n[x][v][y] for v in range(r)):
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
    p*p = p.  For a multifusion semiring the result must be exactly {1}.
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
    found = []
    for coeffs in product(*ranges):
        p = MultisetElement(data, coeffs)
        if (p * p).coeffs == coeffs:
            found.append(p)
    return found
