from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

import fusionring as fr
from fusionring.factor import rational_roots_between
from fusionring.fpengine import companion_matrix, left_mult_matrix_from_coeffs
from fusionring.poly import RationalPolynomial as P
from fusionring.poly import cauchy_root_bound
from fusionring.regular import _category_matrix_coeffs
from conftest import ALL_NAMES, FUSION_NAMES, fusion_data, sign_variations, sturm_chain


def golden_ratio_bounds(digits: int) -> tuple[Fraction, Fraction]:
    """Independent enclosure of (1 + sqrt 5)/2 via integer square roots."""
    scale = 10**digits
    root_lo = isqrt(5 * scale * scale)  # floor(sqrt(5) * scale)
    lo = Fraction(scale + root_lo, 2 * scale)
    hi = Fraction(scale + root_lo + 1, 2 * scale)
    return lo, hi


def test_left_mult_matrix_examples():
    data = fusion_data("rep_f2_z3")
    m = fr.left_mult_matrix(data.basis("v"))
    assert m.rows == ((Fraction(0), Fraction(2)), (Fraction(1), Fraction(1)))
    identity = fr.left_mult_matrix(data.basis("1"))
    assert identity.rows == fr.RationalMatrix.identity(2).rows
    fib = fusion_data("fib")
    assert fr.left_mult_matrix(fib.basis("x")).rows == (
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1)),
    )


def test_left_mult_matrix_linear():
    data = fusion_data("rep_r_q8")
    rng = random.Random(3)
    a = data.element([rng.randint(0, 3) for _ in range(5)])
    b = data.element([rng.randint(0, 3) for _ in range(5)])
    lhs = fr.left_mult_matrix(a + b)
    ma, mb = fr.left_mult_matrix(a), fr.left_mult_matrix(b)
    rhs = tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(ma.rows, mb.rows))
    assert lhs.rows == rhs


def test_char_poly_examples():
    data = fusion_data("rep_f2_z3")
    p = fr.char_poly(fr.left_mult_matrix(data.basis("v")))
    assert p.coeffs == P((-2, -1, 1)).coeffs  # t^2 - t - 2 = (t-2)(t+1)
    assert fr.char_poly(fr.RationalMatrix.identity(2)).coeffs == P((1, -2, 1)).coeffs
    fib = fusion_data("fib")
    assert fr.char_poly(fr.left_mult_matrix(fib.basis("x"))).coeffs == P((-1, -1, 1)).coeffs


def test_char_poly_against_numpy():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        exact = fr.char_poly(fr.RationalMatrix(tuple(tuple(map(Fraction, r)) for r in rows)))
        numeric = np.poly(np.array(rows, dtype=float))  # descending coefficients
        got = [float(c) for c in reversed(exact.coeffs)]
        assert np.allclose(got, numeric, atol=1e-6)


def test_char_poly_handles_zero_pivots():
    # nilpotent permutation-like matrix forces pivoting
    rows = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    p = fr.char_poly(fr.RationalMatrix(tuple(tuple(map(Fraction, r)) for r in rows)))
    assert p.coeffs == P((-1, 0, 0, 1)).coeffs  # t^3 - 1


def _matrix(rows) -> fr.RationalMatrix:
    return fr.RationalMatrix(tuple(tuple(Fraction(v) for v in row) for row in rows))


def faddeev_leverrier(m: fr.RationalMatrix) -> tuple[Fraction, ...]:
    """Reference det(tI - M), ascending: M_k = A M_{k-1} + c_{n-k+1} I and
    c_{n-k} = -tr(A M_k)/k, over Fractions."""
    a = m.rows
    n = m.size
    c = [Fraction(0)] * n + [Fraction(1)]
    am = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        mk = [[am[i][j] + (c[n - k + 1] if i == j else 0) for j in range(n)] for i in range(n)]
        am = [[sum(a[i][l] * mk[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        c[n - k] = -sum(am[i][i] for i in range(n)) / k
    return tuple(c)


def _random_rational_rows(rng: random.Random, n: int, density: float) -> list[list[Fraction]]:
    def entry() -> Fraction:
        if rng.random() < density:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        return Fraction(0)

    return [[entry() for _ in range(n)] for _ in range(n)]


def _block_upper_triangular(rng: random.Random, sizes: list[int]) -> list[list[Fraction]]:
    """Zero below the diagonal blocks, so some subdiagonal column has no
    pivot and the Hessenberg reduction must skip it."""
    n = sum(sizes)
    rows = _random_rational_rows(rng, n, 0.8)
    start = 0
    for size in sizes:
        for i in range(start + size, n):
            for j in range(start, start + size):
                rows[i][j] = Fraction(0)
        start += size
    return rows


@pytest.fixture(scope="module")
def char_poly_cases():
    """Random rational matrices, block upper-triangular ones, every builtin's
    left-multiplication matrices, the eps > 1 category matrices and
    companion-Kronecker products as mul_algebraic builds them."""
    rng = random.Random(2024)
    cases = []
    for n in range(1, 9):
        for density in (0.3, 0.7, 1.0):
            cases.append(_matrix(_random_rational_rows(rng, n, density)))
    for sizes in ([1, 3], [2, 2, 1], [3, 1, 2, 1], [1, 1, 1, 1], [4, 4]):
        cases.append(_matrix(_block_upper_triangular(rng, sizes)))
    for name in ALL_NAMES:
        data = fusion_data(name)
        cases.extend(fr.left_mult_matrix(x) for x in data.simples())
    for name in FUSION_NAMES:
        data = fusion_data(name)
        if max(data.eps) > 1:
            cases.append(left_mult_matrix_from_coeffs(data, _category_matrix_coeffs(data)))
    fib = fusion_data("fib")
    phi = fr.fpdim_element(fib.basis("x"))
    pa = fr.min_poly(phi)
    pb = P((-2, 0, 0, 1))  # t^3 - 2
    cases.append(companion_matrix(pa).kron(companion_matrix(pb)))
    cases.append(companion_matrix(pa).kron(companion_matrix(pa)))
    return cases


def test_char_poly_matches_faddeev_leverrier(char_poly_cases):
    for m in char_poly_cases:
        assert fr.char_poly(m).coeffs == faddeev_leverrier(m)


def test_char_poly_matches_sympy(char_poly_cases):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for m in char_poly_cases:
        rows = [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in m.rows]
        expected = sympy.Matrix(rows).charpoly(t).all_coeffs()[::-1]
        got = fr.char_poly(m).coeffs
        assert got == tuple(Fraction(int(c.p), int(c.q)) for c in expected)


def test_char_poly_stays_exact_on_integer_pivots():
    # integer matrix whose Hessenberg pivots are 2, 3 and -2, each column
    # with an entry below the pivot that the pivot does not divide: int / int
    # would give inexact float multipliers here
    m = _matrix(
        (
            (3, 0, 3, 0, -3),
            (2, 2, 3, 2, -3),
            (0, -1, 1, -2, 0),
            (-1, 0, -3, 0, -1),
            (-2, 1, 0, 3, 2),
        )
    )
    assert all(type(c) is int for row in m.rows for c in row)
    p = fr.char_poly(m)
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.coeffs == faddeev_leverrier(m)


def test_integral_matrix_entries_stay_int():
    fib = fusion_data("fib")
    m = left_mult_matrix_from_coeffs(fib, [1, 1])
    assert all(type(c) is int for row in m.rows for c in row)


def test_category_matrices_keep_non_integral_fractions():
    # integral entries become ints, the others stay Fractions (values are
    # checked against the dense formula below)
    non_integral = 0
    for name in FUSION_NAMES:
        data = fusion_data(name)
        if max(data.eps) == 1:
            continue
        m = left_mult_matrix_from_coeffs(data, _category_matrix_coeffs(data))
        for c in (c for row in m.rows for c in row):
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
            non_integral += type(c) is Fraction
    assert non_integral > 0


@pytest.mark.parametrize("name", FUSION_NAMES)
def test_category_matrix_matches_dense_formula(name):
    data = fusion_data(name)
    coeffs = _category_matrix_coeffs(data)
    n, r = data.n_tensor, data.rank
    dense = tuple(
        tuple(sum(Fraction(coeffs[k]) * n[k][j][i] for k in range(r)) for j in range(r))
        for i in range(r)
    )
    assert left_mult_matrix_from_coeffs(data, coeffs).rows == dense


def test_isolate_rational_roots_collapse():
    alpha = fr.isolate_max_real_root(P((-2, -1, 1)))
    assert alpha.is_point and alpha.value == 2
    assert fr.isolate_max_real_root(P((-1, 1))).value == 1
    # repeated root: squarefree part still finds it exactly
    assert fr.isolate_max_real_root(P((1, -2, 1))).value == 1
    # non-monic integer data with fractional root
    assert fr.isolate_max_real_root(P((Fraction(3, 2), 1)).scale_root(1)).value == Fraction(-3, 2)


def test_isolate_golden_ratio():
    alpha = fr.isolate_max_real_root(P((-1, -1, 1)))
    assert not alpha.is_point
    assert alpha.width <= Fraction(1, 2**64)
    # the 30-digit independent enclosure is far narrower than the interval,
    # so overlapping it certifies the root is inside
    lo, hi = golden_ratio_bounds(30)
    assert alpha.lo <= hi and lo <= alpha.hi


def test_isolate_picks_the_maximal_root():
    # roots 1, 2, 3 and -7
    p = P((-6, 11, -6, 1)) * P((7, 1))
    assert fr.isolate_max_real_root(p).value == 3


def test_isolate_no_real_root():
    with pytest.raises(fr.NoRealRootError):
        fr.isolate_max_real_root(P((1, 0, 1)))


def test_isolate_rational_fuzz():
    rng = random.Random(13)
    for _ in range(40):
        roots = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(rng.randint(1, 4))
        ]
        p = P((1,))
        for r in roots:
            p = p * P((-r, 1))
        if rng.random() < 0.4:
            p = p * P((1, 0, 1))  # a complex pair never changes the answer
        alpha = fr.isolate_max_real_root(p)
        assert alpha.is_point and alpha.value == max(roots), (roots, alpha)


def test_refine_properties():
    phi = fr.isolate_max_real_root(P((-1, -1, 1)), width=Fraction(1, 4))
    tight = fr.refine(phi, Fraction(1, 10**12))
    assert tight.width <= Fraction(1, 10**12)
    assert phi.lo <= tight.lo and tight.hi <= phi.hi  # nesting, root never lost
    lo, hi = golden_ratio_bounds(13)
    assert tight.lo <= hi and lo <= tight.hi
    again = fr.refine(tight, Fraction(1, 10**12))
    assert again == tight  # idempotent
    point = fr.isolate_max_real_root(P((-2, 1)))
    assert fr.refine(point, Fraction(1, 10**30)) == point


def test_refinement_agreement_randomized():
    rng = random.Random(41)
    phi = fr.isolate_max_real_root(P((-1, -1, 1)), width=Fraction(1, 2))
    lo, hi = golden_ratio_bounds(40)
    for _ in range(20):
        width = Fraction(1, 2 ** rng.randint(3, 90))
        r = fr.refine(phi, width)
        assert r.lo <= hi and lo <= r.hi
        assert phi.lo <= r.lo <= r.hi <= phi.hi


def test_reisolation_agreement_randomized():
    # isolating from scratch at random widths always lands on the same root:
    # every pair of certified intervals overlaps, and refinement of one stays
    # inside any fresh isolation of the other
    rng = random.Random(97)
    polys = [P((-1, -1, 1)), P((5, -5, 1)), P((1, 0, -10, 0, 1))]
    for p in polys:
        isolations = [
            fr.isolate_max_real_root(p, width=Fraction(1, 2 ** rng.randint(2, 80)))
            for _ in range(6)
        ]
        for a in isolations:
            for b in isolations:
                assert a.lo <= b.hi and b.lo <= a.hi
        tight = fr.refine(isolations[0], Fraction(1, 2**100))
        for b in isolations:
            assert b.lo <= tight.lo and tight.hi <= b.hi


def _reference_bisect(
    q: P, lo: Fraction, hi: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Bisection over Fractions: Fraction midpoints, Fraction evaluation."""
    positive_lo = q.evaluate(lo) > 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        value = q.evaluate(mid)
        if value == 0:
            return mid, mid
        if (value > 0) == positive_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _reference_isolate(p: P, width: Fraction) -> tuple[Fraction, Fraction]:
    """isolate_max_real_root's algorithm over Fractions, with the Fraction
    Sturm chain of conftest."""
    q = p.squarefree_part()
    chain = sturm_chain(q)

    def count(a: Fraction, b: Fraction) -> int:
        return sign_variations(chain, a) - sign_variations(chain, b)

    bound = cauchy_root_bound(q) + 1
    lo, hi = -bound, bound
    while count(lo, hi) > 1:
        mid = (lo + hi) / 2
        if count(mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    if q.evaluate(hi) == 0:
        return hi, hi
    while q.evaluate(lo) == 0:
        mid = (lo + hi) / 2
        if q.evaluate(mid) == 0:
            return mid, mid
        if count(mid, hi) == 1:
            lo = mid
        else:
            hi = mid
    lo, hi = _reference_bisect(q, lo, hi, width)
    if lo < hi:
        roots = rational_roots_between(q.to_integer_coeffs(), lo, hi)
        if roots:
            return roots[0], roots[0]
    return lo, hi


BISECTION_WIDTHS = [Fraction(1), Fraction(1, 2**8), Fraction(1, 2**64), Fraction(1, 2**512)]


def test_isolation_and_refinement_match_fraction_bisection():
    polys = {
        fr.char_poly(fr.left_mult_matrix(x))
        for name in ALL_NAMES
        for x in fusion_data(name).simples()
    }
    for name in FUSION_NAMES:
        data = fusion_data(name)
        polys.add(fr.char_poly(left_mult_matrix_from_coeffs(data, _category_matrix_coeffs(data))))
    # dyadic rational roots that bisection midpoints land on
    polys.update((P((-3, 8)) * P((5, 1)), P((-5, 16)) * P((-2, 0, 1)), P((1, 4)) * P((-1, 0, 1))))
    for p in sorted(polys, key=lambda p: p.coeffs):
        for width in BISECTION_WIDTHS:
            alpha = fr.isolate_max_real_root(p, width)
            assert (alpha.lo, alpha.hi) == _reference_isolate(p, width), (p, width)
        start = fr.isolate_max_real_root(p, Fraction(1))
        for width in BISECTION_WIDTHS:
            expected = (start.lo, start.hi)
            if start.hi - start.lo > width:
                expected = _reference_bisect(start.poly, start.lo, start.hi, width)
            refined = fr.refine(start, width)
            assert (refined.lo, refined.hi) == expected, (p, width)
    # refinement that collapses onto a dyadic root: 3/8 after three halvings
    for root, lo, hi in ((Fraction(3, 8), 0, 1), (Fraction(-5, 16), -1, 0), (Fraction(1, 2), 0, 1)):
        alpha = fr.AlgebraicNumber(P((-root, 1)), Fraction(lo), Fraction(hi))
        for width in BISECTION_WIDTHS[1:]:
            refined = fr.refine(alpha, width)
            assert refined.is_point and refined.value == root
            expected = _reference_bisect(alpha.poly, alpha.lo, alpha.hi, width)
            assert (refined.lo, refined.hi) == expected


def test_min_poly_examples():
    assert fr.min_poly(fr.isolate_max_real_root(P((-2, 1)))).coeffs == P((-2, 1)).coeffs
    phi = fr.isolate_max_real_root(P((-1, -1, 1)))
    assert fr.min_poly(phi).coeffs == P((-1, -1, 1)).coeffs
    # defining polynomial with extra factors still yields the minimal one
    padded = fr.isolate_max_real_root(P((-1, -1, 1)) * P((5, 1)) * P((0, 1)))
    assert fr.min_poly(padded).coeffs == P((-1, -1, 1)).coeffs
    quartic = fr.isolate_max_real_root(P((1, 0, -10, 0, 1)))
    assert fr.min_poly(quartic).coeffs == P((1, 0, -10, 0, 1)).coeffs


def test_algebraic_equality_across_defining_polys():
    a = fr.isolate_max_real_root(P((-1, -1, 1)))
    b = fr.isolate_max_real_root(P((-1, -1, 1)) * P((5, 1)))
    assert fr.algebraic_equal(a, b)
    c = fr.isolate_max_real_root(P((5, -5, 1)))  # (5 + sqrt5)/2 instead
    assert not fr.algebraic_equal(a, c)
    assert fr.exact_cmp(a, c) < 0


def test_cmp_rational():
    phi = fr.isolate_max_real_root(P((-1, -1, 1)))
    assert phi.cmp_rational(1) == 1
    assert phi.cmp_rational(2) == -1
    assert phi.cmp_rational(Fraction(1618, 1000)) == 1
    assert phi.cmp_rational(Fraction(1619, 1000)) == -1
    two = fr.isolate_max_real_root(P((-2, 1)))
    assert two.cmp_rational(2) == 0


def test_scaled_and_reciprocal():
    phi = fr.isolate_max_real_root(P((-1, -1, 1)))
    doubled = phi.scaled(2)
    assert fr.min_poly(doubled).coeffs == P((-4, -2, 1)).coeffs  # roots 1 +- sqrt5
    inv = fr.reciprocal(phi)
    assert fr.min_poly(inv).coeffs == P((-1, 1, 1)).coeffs
    product = fr.exact_mul(phi, inv)
    assert product == Fraction(1)


def test_mul_algebraic_golden_square():
    phi = fr.isolate_max_real_root(P((-1, -1, 1)))
    square = fr.exact_square(phi)
    # phi^2 = phi + 1, minimal polynomial t^2 - 3t + 1
    assert fr.min_poly(square).coeffs == P((1, -3, 1)).coeffs
    shifted = fr.exact_cmp(square, fr.exact_mul(phi, phi))
    assert shifted == 0


def test_mul_algebraic_degree_cap():
    a = fr.isolate_max_real_root(P((1, 0, -10, 0, 1)))  # degree 4
    b = fr.isolate_max_real_root(P((-2, 0, 0, 0, 0, 0, 1)))  # degree 6 -> 24 > 16
    with pytest.raises(fr.UnrepresentableError):
        fr.mul_algebraic(a, b)


def test_fpdim_element_values():
    data = fusion_data("rep_f2_z3")
    assert fr.fpdim_element(data.basis("v")).value == 2
    assert fr.fpdim_element(data.basis("1")).value == 1
    q8 = fusion_data("rep_r_q8")
    assert fr.fpdim_element(q8.basis("h")).value == 4


def test_fpdim_rejects_multifusion():
    data = fusion_data("m2_vec")
    with pytest.raises(fr.NotFusionError):
        fr.fpdim_element(data.basis(0))


def test_fpdim_transitivity_gate():
    broken = fr.FusionData(
        labels=("1", "e"),
        n_tensor=(((1, 0), (0, 1)), ((0, 1), (0, 1))),
        dual=(0, 1),
        eps=(1, 1),
        endo_degree=1,
        unit=(0,),
    )
    with pytest.raises(fr.NonTransitiveError):
        fr.fpdim_element(broken.basis("e"))
    waived = fr.fpdim_element(broken.basis("e"), waive_transitivity=True)
    assert waived.value == 1
    # the Perron vector of 1 + e is (0, 1): it vanishes at the unit, so the
    # waived eigenproperty check fails instead of raising
    with pytest.raises(fr.NonTransitiveError):
        fr.verify_regular_eigenproperty(broken)
    assert not fr.verify_regular_eigenproperty(broken, waive_transitivity=True).passed


@pytest.mark.parametrize("name", FUSION_NAMES)
def test_conjugate_moduli_dominated(name):
    data = fusion_data(name)
    for i in range(data.rank):
        dim = fr.fpdim_element(data.basis(i), width=Fraction(1, 10**12))
        poly = fr.min_poly(dim)
        roots = np.roots(np.array([float(c) for c in reversed(poly.coeffs)]))
        assert max(abs(roots)) <= float(fr.refine(dim, Fraction(1, 10**12)).hi) + 1e-9


def test_algebraic_number_invariants_enforced():
    with pytest.raises(ValueError):
        fr.AlgebraicNumber(P((-1, -1, 1)), Fraction(-10), Fraction(10))  # two roots inside
    with pytest.raises(ValueError):
        fr.AlgebraicNumber(P((-2, 1)), Fraction(3), Fraction(3))  # point off the root
    with pytest.raises(ValueError):
        fr.AlgebraicNumber(P((-2, 2)), Fraction(1), Fraction(1))  # not monic
