"""The integer-native exact core: char_poly modulo a Mersenne prime, int
polynomial coefficients that never become floats, and isolating intervals
certified once."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionring as fr
from fusionring import fpengine
from fusionring.errors import ResourceLimitError
from fusionring.factor import factor_squarefree_rational
from fusionring.fpengine import (
    MERSENNE_PRIMES,
    _composed_product,
    _field_inverse,
    left_mult_matrix_from_coeffs,
)
from fusionring.poly import RationalPolynomial as P
from fusionring.poly import cauchy_root_bound
from fusionring.regular import _category_matrix_coeffs
from conftest import (
    companion_matrix,
    composed_product_oracle,
    galois_product,
    fusion_data,
    kron,
    su2,
    tensor_product,
)
from test_fpengine import faddeev_leverrier

try:
    import sympy
except ImportError:  # an optional oracle
    sympy = None

# ---------------------------------------------------------------------------
# char_poly modulo a Mersenne prime


def _rational_matrix(rows) -> fr.RationalMatrix:
    return fr.RationalMatrix(tuple(map(tuple, rows)))


def _square(entries: st.SearchStrategy, max_n: int = 8) -> st.SearchStrategy:
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


_INTEGER_ROWS = _square(st.one_of(st.integers(-3, 3), st.integers(-(10**9), 10**9)))
_RATIONAL_ROWS = _square(
    st.one_of(
        st.integers(-5, 5),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
    )
)


def _bound(m: fr.RationalMatrix) -> int:
    """2 (1 + rho)^n for dM, as char_poly's docstring states it."""
    d = lcm(*(c.denominator for row in m.rows for c in row))
    rho = max(sum(abs(c * d) for c in row) for row in m.rows)
    return 2 * (1 + rho) ** m.size


def _check_exact(p: P) -> None:
    for c in p.coeffs:
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)


@settings(max_examples=60, deadline=None)
@given(_INTEGER_ROWS)
def test_char_poly_of_integer_matrices_matches_faddeev_leverrier(rows):
    m = _rational_matrix(rows)
    p = fr.char_poly(m)
    assert all(type(c) is int for c in p.coeffs)
    assert p.coeffs == faddeev_leverrier(m)


@settings(max_examples=60, deadline=None)
@given(_RATIONAL_ROWS)
def test_char_poly_of_rational_matrices_matches_faddeev_leverrier(rows):
    m = _rational_matrix(rows)
    p = fr.char_poly(m)
    _check_exact(p)
    assert p.coeffs == faddeev_leverrier(m)


def _sympy_char_poly(m: fr.RationalMatrix) -> tuple[Fraction, ...]:
    rows = [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in m.rows]
    coeffs = sympy.Matrix(rows).charpoly(sympy.Symbol("t")).all_coeffs()[::-1]
    return tuple(Fraction(int(c.p), int(c.q)) for c in coeffs)


def _reference_char_poly(m: fr.RationalMatrix) -> tuple[Fraction, ...]:
    """sympy's where it is installed (milliseconds at rank 27, where
    Faddeev-LeVerrier takes seconds), else Faddeev-LeVerrier."""
    return faddeev_leverrier(m) if sympy is None else _sympy_char_poly(m)


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=25, deadline=None)
@given(st.one_of(_INTEGER_ROWS, _RATIONAL_ROWS))
def test_char_poly_matches_sympy_on_drawn_matrices(rows):
    m = _rational_matrix(rows)
    assert fr.char_poly(m).coeffs == _sympy_char_poly(m)


def test_mersenne_moduli_are_increasing_primes():
    # Lucas-Lehmer: 2^k - 1 (k an odd prime) is prime iff s_{k-2} = 0 for
    # s_0 = 4, s_{i+1} = s_i^2 - 2 mod 2^k - 1
    assert list(MERSENNE_PRIMES) == sorted(set(MERSENNE_PRIMES))
    for prime in MERSENNE_PRIMES:
        k = prime.bit_length()
        assert prime == 2**k - 1
        s = 4
        for _ in range(k - 2):
            s = s * s - 2
            for _ in range(2):  # s mod 2^k - 1, up to a multiple of it
                s = (s & prime) + (s >> k)
        assert s % prime == 0, k


@pytest.mark.parametrize("bits", [62, 100, 128, 200, 600])
def test_char_poly_with_coefficients_past_the_small_primes(bits):
    # companion matrices of polynomials with coefficients near 2^bits, and
    # dense matrices with such entries: the bound passes 2^61 - 1 (and
    # 2^127 - 1), so a larger prime runs
    big = 2**bits
    target = P((big - 3, -(big + 7), 5, -(big // 3), 1))
    m = companion_matrix(target)
    assert _bound(m) > MERSENNE_PRIMES[0]
    assert fr.char_poly(m) == target
    dense = _rational_matrix(
        [[big + 1, -big, 3], [Fraction(big, 7), 2, -(big - 5)], [1, big + 11, -big]]
    )
    assert _bound(dense) > (MERSENNE_PRIMES[3] if bits >= 128 else MERSENNE_PRIMES[0])
    assert fr.char_poly(dense).coeffs == faddeev_leverrier(dense)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("sign", [1, -1])
def test_char_poly_coefficients_at_the_bound(n, sign):
    # rho I reaches the coefficient bound: (t - rho)^n has coefficients
    # C(n, k) rho^k summing to (1 + rho)^n; rho is the largest value for
    # which the smallest prime still serves, so the symmetric residues are
    # read right up to P/2
    prime = MERSENNE_PRIMES[0]
    rho, above = 0, prime  # the largest rho with 2 (1 + rho)^n < prime
    while above - rho > 1:
        mid = (rho + above) // 2
        rho, above = (mid, above) if 2 * (1 + mid) ** n < prime else (rho, mid)
    m = _rational_matrix([[sign * rho * (i == j) for j in range(n)] for i in range(n)])
    assert _bound(m) < prime <= 2 * (2 + rho) ** n
    expected = P((-sign * rho, 1))
    p = P((1,))
    for _ in range(n):
        p = p * expected
    assert fr.char_poly(m) == p


@pytest.mark.parametrize("offset", [0, 1])
def test_char_poly_moves_to_the_next_prime_past_the_bound(offset):
    # 1x1 matrices (r): the bound 2 (1 + |r|) passes 2^61 - 1 for |r| near
    # or above it, and the entry is read back as itself only if the next
    # prime ran
    prime = MERSENNE_PRIMES[0]
    for r in (prime // 2 + offset, 3 * prime // 4, prime - offset, prime + offset, 2 * prime + 3):
        for entry in (r, -r):
            assert fr.char_poly(_rational_matrix([[entry]])) == P((-entry, 1))


def test_char_poly_refuses_a_bound_past_the_largest_prime():
    m = _rational_matrix([[2**10000 + 1, -(2**10000)], [3, 2**10000 - 7]])
    with pytest.raises(ResourceLimitError, match="may need 20004 bits"):
        fr.char_poly(m)


def test_char_poly_refuses_before_any_reduction(monkeypatch):
    # a 3x3 matrix needs one Hessenberg step, whose first act is to invert
    # the pivot modulo the prime; the bound is checked before it
    def no_inverse(*args):
        raise AssertionError("reduction started")

    monkeypatch.setattr(fpengine, "pow", no_inverse, raising=False)
    huge = 2**5000
    m = _rational_matrix([[huge, 1, 2], [3, huge, 4], [5, 6, huge]])
    with pytest.raises(ResourceLimitError):
        fr.char_poly(m)
    with pytest.raises(AssertionError, match="reduction started"):
        fr.char_poly(_rational_matrix([[1, 1, 2], [3, 1, 4], [5, 6, 1]]))


@pytest.mark.parametrize("k", range(3, 9))
def test_char_poly_of_galois_product_category_matrices(k):
    # gal7 (x) SU(2)_k as the session workload builds it (all eps = 1), and
    # jj_bim (x) SU(2)_k, whose eps = 2 simples give non-integral entries
    gal7, _ = galois_product(fr.get_builtin("gal7"), su2(k))
    jj = tensor_product(fusion_data("jj_bim"), su2(k))
    for data in (gal7, jj):
        m = left_mult_matrix_from_coeffs(data, _category_matrix_coeffs(data))
        p = fr.char_poly(m)
        _check_exact(p)
        assert p.coeffs == _reference_char_poly(m)
    if k % 2 == 0:  # for odd k the halves add up to integers
        assert any(type(c) is Fraction for row in m.rows for c in row)


def test_char_poly_of_companion_kronecker_products():
    # the composed products mul_algebraic forms, on the minimal polynomials
    # of FPdims of SU(2)_k, against the Kronecker char poly and, through it,
    # Faddeev-LeVerrier
    polys = []
    for k in range(3, 9):
        data = su2(k)
        polys.append(fr.min_poly(fr.fpdim_element(data.basis(data.rank // 2))))
    checked = 0
    for i, a in enumerate(polys):
        for b in polys[i:]:
            m = kron(companion_matrix(a), companion_matrix(b))
            assert _composed_product(a, b) == fr.char_poly(m)
            assert fr.char_poly(m).coeffs == faddeev_leverrier(m)
            checked += 1
    assert checked == 21


def test_composed_product_matches_the_kronecker_char_poly():
    # 300 random monic rational pairs of degree 1-5, zero coefficients
    # included, then a double root and a square
    rng = random.Random(20)
    pairs = [
        tuple(
            P([Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7))) for _ in range(d)] + [1])
            for d in (rng.randint(1, 5), rng.randint(1, 5))
        )
        for _ in range(300)
    ]
    pairs += [(P((4, -4, 1)), P((-2, 0, 1))), (P((-1, -1, 1)), P((-1, -1, 1)))]
    for pa, pb in pairs:
        assert _composed_product(pa, pb) == composed_product_oracle(pa, pb), (pa, pb)


# ---------------------------------------------------------------------------
# int coefficients, never floats


def _ref(p: P) -> list[Fraction]:
    return [Fraction(c) for c in p.coeffs]


def _trim(cs: list[Fraction]) -> list[Fraction]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_divmod(a: list[Fraction], b: list[Fraction]):
    rem, q = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        f = rem[i + len(b) - 1] / b[-1]
        q[i] = f
        for j, c in enumerate(b):
            rem[i + j] -= f * c
    return _trim(q), _trim(rem[: len(b) - 1])


def _ref_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_squarefree(a: list[Fraction]) -> list[Fraction]:
    f, g = a, _trim([i * c for i, c in enumerate(a) if i])
    while g:
        f, g = g, _ref_divmod(f, g)[1]
    q = _ref_divmod(a, f)[0]
    return [c / q[-1] for c in q]


def _same(p: P, ref: list[Fraction]) -> None:
    _check_exact(p)
    assert list(p.coeffs) == ref


_COEFF = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=9),
)
_POLYS = st.lists(_COEFF, min_size=1, max_size=7).map(P).filter(lambda p: p.degree >= 1)


@settings(max_examples=150, deadline=None)
@given(_POLYS, _POLYS, _COEFF.filter(bool))
def test_polynomial_arithmetic_never_yields_floats(p, q, c):
    a, b = _ref(p), _ref(q)
    _same(p, a)
    _same(p.monic(), [x / a[-1] for x in a])
    quotient, remainder = divmod(p, q)
    ref_q, ref_r = _ref_divmod(a, b)
    _same(quotient, ref_q)
    _same(remainder, ref_r)
    _same(p.scale(c), [x * Fraction(c) for x in a])
    _same(p.scale_root(c), [x * Fraction(c) ** (p.degree - i) for i, x in enumerate(a)])
    _same(p.squarefree_part(), _ref_squarefree(a))
    _same(p * q, _ref_mul(a, b))
    bound = cauchy_root_bound(p)
    assert type(bound) is Fraction
    assert bound == 1 + max(abs(x) for x in a[:-1]) / abs(a[-1])


@settings(max_examples=60, deadline=None)
@given(_POLYS, _POLYS)
def test_field_inverse_never_yields_floats(p, q):
    m = next((g for g in factor_squarefree_rational(p * q) if g.degree >= 2), P((-2, 0, 1)))
    a = q % m if not (q % m).is_zero else P((1, 1))
    inverse = _field_inverse(a, m)
    _check_exact(inverse)
    assert inverse.degree < m.degree
    assert _ref_divmod(_ref_mul(_ref(a), _ref(inverse)), _ref(m))[1] == [1]


# ---------------------------------------------------------------------------
# isolating intervals certified once


def test_even_multiplicity_root_is_refused():
    # (t - 1)^2 (t - 3): one distinct root in (1/2, 7/4), but no sign change
    p = P((-3, 7, -5, 1))
    with pytest.raises(ValueError, match="does not change sign"):
        fr.AlgebraicNumber(p, Fraction(1, 2), Fraction(7, 4))
    simple = fr.AlgebraicNumber(p, Fraction(5, 2), Fraction(7, 2))
    assert fr.refine(simple, Fraction(1, 8)).width <= Fraction(1, 8)
    assert float(simple) == 3.0


def _certified_values():
    for name in ("fib", "rep_r_q8", "jj_bim", "gal7"):
        data = fusion_data(name)
        for x in data.simples():
            yield fr.fpdim_element(x)
    for k in (3, 5, 8):
        data = su2(k)
        yield from (fr.fpdim_element(x) for x in data.simples())


def test_certified_intervals_pass_the_public_check(monkeypatch):
    values = [v for v in _certified_values() if not v.is_point]
    derived = []
    for v in values:
        derived += [
            fr.refine(v, Fraction(1, 2**70)),
            v.scaled(Fraction(-3, 7)),
            v.scaled(5),
            fpengine.reciprocal(v) if v.cmp_rational(0) > 0 else v,
        ]
    for v in values + derived:
        assert fr.AlgebraicNumber(v.poly, v.lo, v.hi) == v
    # refine, scaled and reciprocal count no roots: their intervals are
    # certified by construction
    monkeypatch.setattr(fpengine, "count_real_roots", None)
    for v in values:
        fr.refine(v, Fraction(1, 2**200))
        v.scaled(Fraction(2, 3))
        if v.cmp_rational(0) > 0:
            fpengine.reciprocal(v)


def test_scaling_by_one_returns_the_number_itself():
    phi = fr.fpdim_element(fusion_data("fib").basis("x"))
    assert phi.scaled(1) is phi
    assert fr.exact_mul(1, phi) is phi
    assert fr.exact_mul(phi, Fraction(1)) is phi
