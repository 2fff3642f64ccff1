from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

import fusionring as fr
from fusionring.factor import rational_roots_between
from fusionring import fpengine
from fusionring.fpengine import _composed_product, left_mult_matrix_from_coeffs
from fusionring.poly import RationalPolynomial as P
from fusionring.poly import cauchy_root_bound
from fusionring.regular import _category_matrix_coeffs
from conftest import (
    ALL_NAMES,
    FUSION_NAMES,
    companion_matrix,
    composed_product_oracle,
    cyclic,
    fusion_data,
    kron,
    sign_variations,
    sturm_chain,
    su2,
    tambara_yamagami,
    tensor_product,
)


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
    companion-Kronecker products, whose char polys are the composed products
    mul_algebraic forms."""
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
    cases.append(kron(companion_matrix(pa), companion_matrix(pb)))
    cases.append(kron(companion_matrix(pa), companion_matrix(pa)))
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
    assert all(type(c) is int for c in p.coeffs)
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
    alpha = fr.refine(fr.isolate_max_real_root(P((-1, -1, 1))), Fraction(1, 2**64))
    assert not alpha.is_point
    assert alpha.width <= Fraction(1, 2**64)
    # the 30-digit independent enclosure is far narrower than the interval,
    # so overlapping it certifies the root is inside
    lo, hi = golden_ratio_bounds(30)
    assert alpha.lo <= hi and lo <= alpha.hi


def _small_rings() -> dict[str, fr.FusionData]:
    rings = {name: fusion_data(name) for name in FUSION_NAMES}
    rings.update(
        su2_3=su2(3),
        su2_4=su2(4),
        z4=cyclic(4),
        z5=cyclic(5),
        ty_z3=tambara_yamagami(3),
        ty_z4=tambara_yamagami(4),
        fib2=tensor_product(rings["fib"], rings["fib"]),
    )
    return rings


SMALL_RINGS = _small_rings()


@pytest.mark.parametrize("name", sorted(SMALL_RINGS))
def test_default_width_values_are_exact_and_float_accurate(name):
    # a rational FPdim is a point, and float() does not depend on the width
    data = SMALL_RINGS[name]
    values = [fr.fpdim_element(x) for x in data.simples()] + [fr.fpdim_category(data)]
    for value in values:
        if fr.min_poly(value).degree == 1:
            assert value.is_point, (name, value)
        assert float(value) == float(fr.refine(value, Fraction(1, 2**64)))


def test_default_width_rational_closed_forms():
    for n in (4, 5):
        assert all(fr.fpdim_element(x).value == 1 for x in cyclic(n).simples())
    for n in (3, 4, 5):
        ty = tambara_yamagami(n)
        assert all(fr.fpdim_element(ty.basis(f"g{a}")).value == 1 for a in range(n))
    assert fr.fpdim_element(tambara_yamagami(4).basis("m")).value == 2


def test_float_is_the_nearest_double_at_default_width():
    phi = fr.fpdim_element(fusion_data("fib").basis("x"))
    assert not phi.is_point
    lo, hi = golden_ratio_bounds(30)
    assert float(phi) == float(lo) == float(hi)


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
    phi = fr.refine(fr.isolate_max_real_root(P((-1, -1, 1))), Fraction(1, 4))
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
    phi = fr.refine(fr.isolate_max_real_root(P((-1, -1, 1))), Fraction(1, 2))
    lo, hi = golden_ratio_bounds(40)
    for _ in range(20):
        width = Fraction(1, 2 ** rng.randint(3, 90))
        r = fr.refine(phi, width)
        assert r.lo <= hi and lo <= r.hi
        assert phi.lo <= r.lo <= r.hi <= phi.hi


def test_reisolation_agreement_randomized():
    # isolating and refining to random widths always lands on the same root:
    # every pair of certified intervals overlaps, and refinement of one stays
    # inside any other
    rng = random.Random(97)
    polys = [P((-1, -1, 1)), P((5, -5, 1)), P((1, 0, -10, 0, 1))]
    for p in polys:
        isolations = [
            fr.refine(fr.isolate_max_real_root(p), Fraction(1, 2 ** rng.randint(2, 80)))
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


def _assert_refines_like_bisection(alpha: fr.AlgebraicNumber, widths) -> None:
    for width in widths:
        expected = (alpha.lo, alpha.hi)
        if alpha.hi - alpha.lo > width:
            expected = _reference_bisect(alpha.poly, alpha.lo, alpha.hi, width)
        refined = fr.refine(alpha, width)
        assert (refined.lo, refined.hi) == expected, (alpha, width)


BISECTION_WIDTHS = [
    Fraction(1), Fraction(1, 2**8), Fraction(1, 2**64), Fraction(1, 2**512), Fraction(1, 2**1024)
]


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
            alpha = fr.refine(fr.isolate_max_real_root(p), width)
            assert (alpha.lo, alpha.hi) == _reference_isolate(p, width), (p, width)
        _assert_refines_like_bisection(
            fr.refine(fr.isolate_max_real_root(p), Fraction(1)), BISECTION_WIDTHS
        )
    # refinement that collapses onto a dyadic root: 3/8 after three halvings
    for root, lo, hi in ((Fraction(3, 8), 0, 1), (Fraction(-5, 16), -1, 0), (Fraction(1, 2), 0, 1)):
        alpha = fr.AlgebraicNumber(P((-root, 1)), Fraction(lo), Fraction(hi))
        for width in BISECTION_WIDTHS[1:]:
            refined = fr.refine(alpha, width)
            assert refined.is_point and refined.value == root
            expected = _reference_bisect(alpha.poly, alpha.lo, alpha.hi, width)
            assert (refined.lo, refined.hi) == expected


def test_refinement_matches_bisection_when_the_secant_misses():
    # roots clustered next to the isolated one, and a steep convex
    # polynomial, bend the secant away from the root, so some quadratic
    # steps fail and fall back to bisection
    d = Fraction(1, 2**10)
    cluster = P((-2, 0, 1)) * P((-(2 - d), 0, 1)) * P((-(2 - 2 * d), 0, 1)) * P((-(2 + d), 0, 1))
    steep = fr.AlgebraicNumber(P((-2,) + (0,) * 31 + (1,)), Fraction(0), Fraction(2))
    for alpha in (fr.refine(fr.isolate_max_real_root(cluster), Fraction(1)), steep):
        _assert_refines_like_bisection(alpha, BISECTION_WIDTHS)


def _assert_grid_refines_like_bisection(q: P, widths) -> dict:
    """_refine_on_grid on q's one sign change in [0, 1] against bisection;
    the cells by width."""
    f = fpengine.sturm_chain(q)[0]
    cells = {}
    for width in widths:
        cells[width] = fpengine._refine_on_grid(f, Fraction(0), Fraction(1), width)
        assert cells[width] == _reference_bisect(q, Fraction(0), Fraction(1), width), (q, width)
    return cells


def test_refinement_returns_a_deep_dyadic_root_as_a_point():
    # 12345/2^40 lies on the grid of [0, 1] at level 40, inside a quadratic
    # jump: coarser widths give bisection's cell, finer ones the point.  The
    # constructor stores a rational root as a point, so the grid is driven
    # directly
    root = Fraction(12345, 2**40)
    q = P((-root, 1)) * P((-2, 0, 1))
    widths = [Fraction(1, 2**e) for e in (8, 39, 40, 41, 64, 1024)]
    cells = _assert_grid_refines_like_bisection(q, widths)
    assert cells[Fraction(1, 2**39)][0] != cells[Fraction(1, 2**39)][1]
    assert cells[Fraction(1, 2**40)] == (root, root)
    assert fr.AlgebraicNumber(q, Fraction(0), Fraction(1)) == fpengine._point(root)
    below = fr.refine(fr.isolate_max_real_root(P((-root, 1)) * P((3, 1))), Fraction(1, 2**64))
    assert below.is_point and below.value == root
    # on [0, 1] the secant picks the grid point 1, and the point that
    # certifies the subcell next to it is the root 1/2
    half = Fraction(1, 2)
    curved = P((-half, 1)) * P((-Fraction(3, 2), 1)) * P((-27, 1))
    cells = _assert_grid_refines_like_bisection(curved, [Fraction(1, 2), Fraction(1, 2**64)])
    assert cells[half] == (half, half)


def test_refinement_stops_at_bisections_level_for_any_width():
    # a width that is no power of two: the last quadratic jump is cut short
    # at the level where bisection would stop
    widths = [Fraction(3, 2**70), Fraction(5, 7), Fraction(7, 2**300), Fraction(3, 10**100)]
    for p in (P((-1, -1, 1)), P((-2, 0, 0, 1)), P((1, 0, -10, 0, 1))):
        alpha = fr.refine(fr.isolate_max_real_root(p), Fraction(1))
        _assert_refines_like_bisection(alpha, widths)
        for width in widths:
            isolated = fr.refine(fr.isolate_max_real_root(p), width)
            assert (isolated.lo, isolated.hi) == _reference_isolate(p, width), (p, width)


def test_refinement_to_1024_bits_takes_few_evaluations(monkeypatch):
    # quadratic refinement doubles the correct bits per step, so refining
    # phi to 2^-1024 evaluates the polynomial a few dozen times, where
    # bisection would evaluate it once per bit
    evaluations = []
    homogeneous_value = fpengine.homogeneous_value

    def counting(f, num, den):
        evaluations.append(num)
        return homogeneous_value(f, num, den)

    phi = fr.refine(fr.isolate_max_real_root(P((-1, -1, 1))), Fraction(1))
    monkeypatch.setattr(fpengine, "homogeneous_value", counting)
    refined = fr.refine(phi, Fraction(1, 2**1024))
    assert refined.width <= Fraction(1, 2**1024)
    assert len(evaluations) <= 40


WIDTH_ENTRY_POINTS = {
    "refine": lambda w: fr.refine(fr.isolate_max_real_root(P((-1, -1, 1))), w),
}


@pytest.mark.parametrize("width", [Fraction(0), 0, Fraction(-1, 2)])
@pytest.mark.parametrize("entry", sorted(WIDTH_ENTRY_POINTS))
def test_widths_that_are_not_positive_are_refused(entry, width):
    with pytest.raises(ValueError, match="target width must be positive"):
        WIDTH_ENTRY_POINTS[entry](width)


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


def test_mul_algebraic_forms_products_past_degree_16():
    # (sqrt 2 + sqrt 3) 2^(1/6), a root of a composed product of degree 24
    pa, pb = P((1, 0, -10, 0, 1)), P((-2, 0, 0, 0, 0, 0, 1))
    a, b = fr.isolate_max_real_root(pa), fr.isolate_max_real_root(pb)
    product = fr.mul_algebraic(a, b)
    composed = _composed_product(pa, pb)
    assert composed.degree == 24
    assert composed == composed_product_oracle(pa, pb)
    assert a.lo * b.lo <= product.lo < product.hi <= a.hi * b.hi
    assert float(product) == pytest.approx((2**0.5 + 3**0.5) * 2 ** (1 / 6))
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    alpha = (sympy.sqrt(2) + sympy.sqrt(3)) * sympy.root(2, 6)
    expected = sympy.Poly(sympy.minimal_polynomial(alpha, t), t).monic().all_coeffs()[::-1]
    assert fr.min_poly(product).coeffs == tuple(Fraction(int(c.p), int(c.q)) for c in expected)


def test_mul_algebraic_with_a_point_factor_is_a_rational_scaling():
    # a point interval has no width to refine: both factors at 2, one
    # defined by t - 2 and one by t^2 + t - 6
    two, also_two = fr.AlgebraicNumber(P((-2, 1)), 2, 2), fr.AlgebraicNumber(P((-6, 1, 1)), 2, 2)
    assert fr.mul_algebraic(two, also_two) == 4
    phi = fr.isolate_max_real_root(P((-1, -1, 1)))
    assert fr.algebraic_equal(fr.mul_algebraic(also_two, phi), phi.scaled(2))
    assert fr.algebraic_equal(fr.mul_algebraic(phi, two), phi.scaled(2))


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
    with pytest.raises(fr.NonTransitiveError):
        fr.verify_regular_eigenproperty(broken)


@pytest.mark.parametrize("name", FUSION_NAMES)
def test_conjugate_moduli_dominated(name):
    data = fusion_data(name)
    for i in range(data.rank):
        dim = fr.refine(fr.fpdim_element(data.basis(i)), Fraction(1, 10**12))
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


def _sqrt(n):
    return fr.isolate_max_real_root(P((-n, 0, 1)))


@pytest.mark.parametrize(
    "a, b, product", [(200, 200, 200), (2, 8, 4), (3, 12, 6), (200, 2, 20), (5, 80, 20)]
)
def test_rational_products_are_exact_points(a, b, product):
    # the product interval of the isolated roots holds more than 17
    # numerators of the root's denominator; the search runs on a narrower cell
    for value in (fr.exact_mul(_sqrt(a), _sqrt(b)), fr.mul_algebraic(_sqrt(a), _sqrt(b))):
        assert isinstance(value, Fraction)
        assert value == product


@pytest.mark.parametrize(
    "a, b, poly, lo, hi",
    [
        (_sqrt(2), _sqrt(3), (-6, 0, 1), Fraction(5, 4), Fraction(5)),
        (_sqrt(200), _sqrt(3), (-600, 0, 1), Fraction(505, 32), Fraction(505, 8)),
        (_sqrt(200), _sqrt(201), (-40200, 0, 1), Fraction(20503, 128), Fraction(20503, 32)),
        (
            fr.isolate_max_real_root(P((-1, -1, 1))),
            _sqrt(2),
            (4, 0, -6, 0, 1),
            Fraction(3, 2),
            Fraction(6),
        ),
    ],
    ids=["sqrt2*sqrt3", "sqrt200*sqrt3", "sqrt200*sqrt201", "phi*sqrt2"],
)
def test_irrational_products_keep_the_product_interval(a, b, poly, lo, hi):
    assert fr.exact_mul(a, b) == fr.AlgebraicNumber(P(poly), lo, hi)


def test_algebraic_number_text_and_rational_comparison():
    root2 = fr.AlgebraicNumber(P((-2, 0, 1)), 1, 2)
    assert str(root2) == "root of t^2 - 2 in [1, 2]"
    assert str(fr.AlgebraicNumber(P((-3, 1)), 3, 3)) == "3"
    assert root2.cmp_rational(3) == -1  # above the interval
    assert root2.cmp_rational(2) == -1
    assert root2.cmp_rational(Fraction(3, 2)) == -1
    assert root2.cmp_rational(Fraction(7, 5)) == 1
    assert root2.cmp_rational(0) == 1  # below the interval


def test_equality_and_comparison_with_points():
    two = fr.AlgebraicNumber(P((-2, 1)), 2, 2)
    three = fr.AlgebraicNumber(P((-3, 1)), 3, 3)
    # 2 as a root of (t - 2)(t - 5), isolated by an interval
    two_isolated = fr.AlgebraicNumber(P((10, -7, 1)), 1, 3)
    root2 = _sqrt(2)
    # one point operand, on either side
    assert fr.algebraic_equal(two, two_isolated) and fr.algebraic_equal(two_isolated, two)
    assert not fr.algebraic_equal(two, root2) and not fr.algebraic_equal(root2, two)
    assert fr.exact_cmp(Fraction(1), root2) == -1 and fr.exact_cmp(root2, 1) == 1
    assert fr.exact_cmp(2, root2) == 1 and fr.exact_cmp(root2, 2) == -1
    assert fr.exact_cmp(2, two_isolated) == 0 and fr.exact_cmp(two_isolated, 2) == 0
    # both operands points
    assert fr.algebraic_equal(two, fr.AlgebraicNumber(P((-2, 1)), 2, 2))
    assert not fr.algebraic_equal(two, three)
    assert fr.exact_cmp(two, three) == -1 and fr.exact_cmp(three, two) == 1
    assert fr.exact_cmp(two, fr.AlgebraicNumber(P((-2, 1)), 2, 2)) == 0


def test_reciprocal_of_rationals():
    assert fr.reciprocal(Fraction(2, 3)) == Fraction(3, 2)
    assert fr.reciprocal(fr.AlgebraicNumber(P((-4, 1)), 4, 4)) == Fraction(1, 4)
    with pytest.raises(ZeroDivisionError):
        fr.reciprocal(0)


def test_equal_rational_fpdims_are_equal_records():
    # TY(Z/4)'s char poly of m isolates 2 as a root of t^3 - 4t; the point
    # is still defined by t - 2, as vec_z2's category FPdim is
    fpdim_m = fr.fpdim_element(tambara_yamagami(4).basis("m"))
    fpdim_vec_z2 = fr.fpdim_category(fusion_data("vec_z2"))
    assert fpdim_m == fpdim_vec_z2 == fr.AlgebraicNumber(P((-2, 1)), 2, 2)
    assert hash(fpdim_m) == hash(fpdim_vec_z2)


def test_the_constructor_stores_a_rational_root_as_t_minus_c():
    # 2 as a root of t^3 - 4t and of t - 2: one record, one hash
    cubic = fr.AlgebraicNumber(P((0, -4, 0, 1)), 2, 2)
    linear = fr.AlgebraicNumber(P((-2, 1)), 2, 2)
    assert cubic == linear and hash(cubic) == hash(linear)
    assert cubic.poly == P((-2, 1))
    # an isolating interval around a rational root collapses to its point
    isolated = fr.AlgebraicNumber(P((-4, 0, 1)), 1, 3)
    assert isolated.is_point and isolated.value == 2 and isolated.poly == P((-2, 1))
    assert isolated == linear


def test_equal_rationals_share_one_min_poly_cache_entry():
    fr.min_poly.cache_clear()
    fr.min_poly(fr.AlgebraicNumber(P((0, -4, 0, 1)), 2, 2))
    fr.min_poly(fr.AlgebraicNumber(P((-2, 1)), 2, 2))
    info = fr.min_poly.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_conjugates_are_unequal_and_ordered():
    # phi and its conjugate (1 - sqrt 5)/2: one min poly, disjoint intervals
    t2_t_1 = P((-1, -1, 1))
    phi, conjugate = fr.AlgebraicNumber(t2_t_1, 1, 2), fr.AlgebraicNumber(t2_t_1, -1, 0)
    assert fr.min_poly(phi) == fr.min_poly(conjugate)
    assert not fr.algebraic_equal(phi, conjugate) and not fr.algebraic_equal(conjugate, phi)
    assert fr.exact_cmp(phi, conjugate) == 1 and fr.exact_cmp(conjugate, phi) == -1


INVARIANT_RINGS = {**{name: fusion_data(name) for name in ALL_NAMES}, **SMALL_RINGS}


@pytest.mark.parametrize("name", sorted(INVARIANT_RINGS))
def test_every_non_point_holds_an_irrational_root(name):
    # whatever makes a value, a rational comes back as a point, so every
    # interval holds a root whose min poly has degree at least 2
    data = INVARIANT_RINGS[name]
    polys = {fr.char_poly(fr.left_mult_matrix(x)) for x in data.simples()}
    polys.add(fr.char_poly(left_mult_matrix_from_coeffs(data, [1] * data.rank)))
    isolated = [fr.isolate_max_real_root(p) for p in sorted(polys, key=lambda p: p.coeffs)]
    irrational = [v for v in isolated if not v.is_point]
    made = list(isolated)
    for v in irrational:
        made += [fr.refine(v, Fraction(1, 2**e)) for e in (1, 8, 64)]
        made += [v.scaled(Fraction(-3, 7)), v.scaled(2)]
        if v.cmp_rational(0) > 0:
            made.append(fr.reciprocal(v))
            made += [fr.mul_algebraic(v, w) for w in irrational if w.cmp_rational(0) > 0]
    for value in made:
        if isinstance(value, fr.AlgebraicNumber) and not value.is_point:
            assert fr.min_poly(value).degree >= 2, (name, value)


@pytest.mark.parametrize("name", sorted(SMALL_RINGS))
def test_every_returned_point_is_defined_by_a_linear_poly(name):
    data = SMALL_RINGS[name]
    values = [fr.fpdim_element(x) for x in data.simples()] + [fr.fpdim_category(data)]
    for value in values:
        if value.is_point:
            assert value.poly == P((-value.value, 1)), (name, value)


@pytest.mark.parametrize(
    "coeffs, root",
    [((3, -4, 1), 3), ((0, -2, 1), 2), ((0, 1, 0, 64), 0), ((0, -4, 0, 1), 2), ((-9, 0, 4), 1.5)],
    ids=["sturm-endpoint", "stranded-endpoint", "grid", "rational-search", "non-monic"],
)
def test_isolated_rational_roots_are_defined_by_t_minus_c(coeffs, root):
    # the ways isolate_max_real_root finds a rational root: on the upper end
    # of the Sturm bisection, at a midpoint while clearing a root off the
    # lower end, on the grid of the narrowing, and by the rational root search
    root = Fraction(root)
    assert fr.isolate_max_real_root(P(coeffs)) == fr.AlgebraicNumber(P((-root, 1)), root, root)


def test_refinement_landing_on_a_root_returns_t_minus_c():
    two = fr.refine(fr.AlgebraicNumber(P((0, -4, 0, 1)), 1, 3), Fraction(1, 4))
    assert two == fr.AlgebraicNumber(P((-2, 1)), 2, 2)
