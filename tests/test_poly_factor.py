from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from fusionring.factor import (
    factor_integer_squarefree,
    factor_squarefree_rational,
    rational_roots_between,
)
from fusionring.poly import (
    RationalPolynomial as P,
    cauchy_root_bound,
    count_real_roots,
    sign_variations,
    sturm_chain,
)
from conftest import integer_gcd_oracle, squarefree_part_oracle
from conftest import sign_variations as reference_sign_variations
from conftest import sturm_chain as reference_sturm_chain


def poly(*coeffs):
    """Ascending coefficients."""
    return P(coeffs)


def test_arithmetic_basics():
    a = poly(-2, 1)  # t - 2
    b = poly(1, 1)  # t + 1
    assert (a * b).coeffs == P((-2, -1, 1)).coeffs  # t^2 - t - 2
    assert (a + b).coeffs == P((-1, 2)).coeffs
    assert (a - a).is_zero


def test_divmod_roundtrip_random():
    rng = random.Random(11)
    for _ in range(60):
        a = P([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 7))])
        b = P([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))])
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert (q * b + r).coeffs == a.coeffs
        assert r.is_zero or r.degree < b.degree


def test_evaluate_matches_naive_sum():
    rng = random.Random(5)
    for _ in range(30):
        p = P([rng.randint(-9, 9) for _ in range(6)])
        x = Fraction(rng.randint(-10, 10), rng.randint(1, 7))
        naive = sum(c * x**i for i, c in enumerate(p.coeffs))
        assert p.evaluate(x) == naive


def test_gcd_and_squarefree():
    t1 = poly(-1, 1)
    squared = t1 * t1 * poly(3, 1)
    assert squared.squarefree_part().coeffs == (t1 * poly(3, 1)).monic().coeffs


def test_scale_root():
    p = poly(-2, -1, 1)  # roots 2 and -1
    q = p.scale_root(Fraction(3))
    assert q.evaluate(6) == 0 and q.evaluate(-3) == 0
    assert q.is_monic


def test_sturm_counts_known_roots():
    p = poly(-1, 1) * poly(-2, 1) * poly(-3, 1)  # roots 1, 2, 3
    chain = sturm_chain(p)
    assert count_real_roots(chain, 0, 4) == 3
    assert count_real_roots(chain, Fraction(3, 2), 4) == 2
    assert count_real_roots(chain, Fraction(5, 2), Fraction(11, 4)) == 0
    # half-open semantics at endpoints that are roots
    assert count_real_roots(chain, 1, 2) == 1  # (1, 2] holds only the root 2
    assert count_real_roots(chain, 1, 3) == 2
    assert count_real_roots(chain, 0, 1) == 1


def test_sturm_no_real_roots():
    chain = sturm_chain(poly(1, 0, 1))  # t^2 + 1
    assert count_real_roots(chain, -10, 10) == 0


def test_cauchy_bound_contains_roots():
    p = poly(-6, 11, -6, 1)  # roots 1, 2, 3
    bound = cauchy_root_bound(p)
    chain = sturm_chain(p)
    assert count_real_roots(chain, -bound, bound) == 3


def _random_rational_poly(rng: random.Random) -> P:
    """Non-monic: a random nonzero rational constant times known rational
    roots (some repeated) times a random rational factor of degree <= 3 or a
    sparse a t^k + b, whose chains skip degrees."""
    p = P((Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6)),))
    roots = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(rng.randint(0, 4))]
    for r in roots:
        p = p * P((-r, 1))
    if rng.random() < 0.5:
        size = rng.randint(1, 4)
        extra = P([Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(size)])
    else:
        extra = P([rng.randint(-5, 5)] + [0] * rng.randint(1, 4) + [rng.choice([-3, -1, 2])])
    return p * extra if not extra.is_zero else p


def test_integer_sturm_chain_matches_fraction_reference():
    # every member is a positive primitive integer multiple of the canonical
    # member, and counts agree with Fraction evaluation of the canonical
    # chain, also at endpoints that are roots of p or of a later member
    rng = random.Random(2718)
    member_root_endpoints = 0
    for _ in range(120):
        p = _random_rational_poly(rng)
        reference = reference_sturm_chain(p)
        chain = sturm_chain(p)
        assert len(chain) == len(reference)
        for ints, member in zip(chain, reference):
            assert len(ints) == len(member.coeffs)
            if ints:
                factor = Fraction(ints[-1], member.coeffs[-1])
                assert factor > 0
                assert all(a == factor * b for a, b in zip(ints, member.coeffs))
                assert gcd(*ints) == 1
        roots_of = [
            {-g.coeffs[0] for g in factor_squarefree_rational(member) if g.degree == 1}
            for member in reference
        ]
        points = set().union(*roots_of)
        member_root_endpoints += len(points - roots_of[0])
        points.update(Fraction(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(6))
        for a in points:
            assert sign_variations(chain, a) == reference_sign_variations(reference, a)
            for b in points:
                expected = 0
                if a < b:
                    expected = reference_sign_variations(reference, a) - reference_sign_variations(
                        reference, b
                    )
                assert count_real_roots(chain, a, b) == expected, (p, a, b)
    assert member_root_endpoints >= 100


def _fraction_euclid_gcd(a: P, b: P) -> P:
    """Monic gcd by the Euclidean algorithm over Fractions."""
    while not b.is_zero:
        a, b = b, divmod(a, b)[1]
    return a.monic() if not a.is_zero else a


def test_squarefree_part_matches_fraction_euclid():
    rng = random.Random(1618)
    for _ in range(80):
        common = _random_rational_poly(rng)
        a = common * _random_rational_poly(rng)
        quotient, rem = divmod(a, _fraction_euclid_gcd(a, a.derivative()))
        assert rem.is_zero
        assert a.squarefree_part().coeffs == quotient.monic().coeffs


def test_squarefree_part_matches_fraction_euclid_on_repeated_factors():
    # p = c f1^e1 f2^e2 ... with rational, non-monic factors: the integer
    # division by the primitive gcd must give the oracle's monic p / gcd(p, p')
    rng = random.Random(4099)
    for _ in range(60):
        p = P((Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 7)),))
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(2, 4)
            factor = P([Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(size)])
            if factor.degree < 1:
                continue
            for _ in range(rng.randint(1, 3)):
                p = p * factor
        quotient, rem = divmod(p, _fraction_euclid_gcd(p, p.derivative()))
        assert rem.is_zero
        assert p.squarefree_part().coeffs == quotient.monic().coeffs


def _product_shaped_poly(rng: random.Random) -> P:
    """Products of powers of small integer factors, as char polys of
    product rings are: repeated irreducible factors of degree <= 3."""
    p = P((rng.choice([-2, -1, 1, 3]),))
    for _ in range(rng.randint(1, 3)):
        factor = P([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [1])
        for _ in range(rng.randint(1, 3)):
            p = p * factor
    return p


def test_squarefree_part_is_the_old_remainder_sequence_and_sympy_sqf_part():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(2200)
    for n in range(300):
        p = _random_rational_poly(rng) if n % 2 else _product_shaped_poly(rng)
        q = p.squarefree_part()
        assert q == squarefree_part_oracle(p)
        if p.degree >= 1:
            f, f_prime = sturm_chain(p)[:2]
            assert sturm_chain(p)[-1] == tuple(integer_gcd_oracle(f, f_prime))
            coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
            expected = sympy.Poly(coeffs, t, domain="QQ").sqf_part().monic().all_coeffs()
            assert q == P(Fraction(int(c.p), int(c.q)) for c in reversed(expected))


def test_squarefree_part_leaves_the_chain_of_a_squarefree_poly_cached():
    p = poly(-7, 3, 5, 1)  # squarefree and monic: its own squarefree part
    sturm_chain.cache_clear()
    assert p.squarefree_part() == p
    hits = sturm_chain.cache_info().hits
    sturm_chain(p)
    assert sturm_chain.cache_info().hits == hits + 1


def test_sturm_chain_is_a_memoized_immutable_tuple():
    chain = sturm_chain(poly(-6, 11, -6, 1))
    assert type(chain) is tuple and all(type(member) is tuple for member in chain)
    assert sturm_chain(poly(-6, 11, -6, 1)) is chain
    assert sturm_chain.cache_info().maxsize is not None
    with pytest.raises(TypeError):
        chain[0] = ()  # type: ignore[index]


# ---------------------------------------------------------------------------
# factorization: expected values produced by expanding known products


def _expand(*factors):
    prod = P((1,))
    for f in factors:
        prod = prod * P(f)
    return [int(c) for c in prod.coeffs]


@pytest.mark.parametrize(
    "factors",
    [
        [(-2, 1), (1, 1)],
        [(-3, 1), (-1, -1, 1)],
        [(1, 1, 1), (-2, 0, 1)],
        [(-1, 1), (1, 1), (1, 0, 1)],
        [(5, -5, 1), (-1, -1, 1)],
        [(2, 0, 1), (3, 0, 1), (-1, 1)],
    ],
)
def test_factor_recovers_known_products(factors):
    product = _expand(*factors)
    result = factor_integer_squarefree(product)
    expected = sorted([list(f) for f in factors], key=lambda g: (len(g), g))
    assert result == expected


@pytest.mark.parametrize(
    "coeffs",
    [
        (-1, -1, 1),  # golden ratio
        (5, -5, 1),
        (1, 0, 0, 0, 1),  # t^4 + 1: reducible mod every prime, irreducible over Q
        (1, 0, -10, 0, 1),  # min poly of sqrt2 + sqrt3, the classic recombination stress
        (7, 0, 1),
    ],
)
def test_factor_certifies_irreducible(coeffs):
    assert factor_integer_squarefree(list(coeffs)) == [list(coeffs)]


def test_factor_many_factors_deep_hensel_tree():
    # six linear factors force a depth-3 lifting tree and subset recombination
    factors = [(-1, 1), (1, 1), (-2, 1), (2, 1), (-3, 1), (5, 1)]
    product = _expand(*factors)
    assert factor_integer_squarefree(product) == sorted(
        [list(f) for f in factors], key=lambda g: (len(g), g)
    )


def test_factor_mixed_degrees_near_the_rank_cap():
    # degree 12: quartic x quadratic x quadratic x linear x cubic
    factors = [(1, 0, -10, 0, 1), (-2, 0, 1), (1, 1, 1), (7, 1), (-2, 0, 0, 1)]
    product = _expand(*factors)
    assert factor_integer_squarefree(product) == sorted(
        [list(f) for f in factors], key=lambda g: (len(g), g)
    )


def test_factor_large_coefficients():
    # large coefficients push the Mignotte bound and the lifting precision
    factors = [(-997, 1), (1009, 1), (123457, -1, 1)]
    product = _expand(*factors)
    assert factor_integer_squarefree(product) == sorted(
        [list(f) for f in factors], key=lambda g: (len(g), g)
    )


def test_factor_random_roundtrip():
    rng = random.Random(23)
    for _ in range(40):
        p = P([rng.randint(-5, 5) for _ in range(rng.randint(2, 7))] + [1])
        q = p.squarefree_part()
        if q.degree < 1:
            continue
        factors = factor_squarefree_rational(p)
        prod = P((1,))
        for f in factors:
            assert f.is_monic
            prod = prod * f
            # factors of the factors are the factors themselves
            assert factor_squarefree_rational(f) == [f]
        assert prod.coeffs == q.coeffs


def test_factor_rational_coefficients():
    # 2t^2 - 9t + 9 = (2t - 3)(t - 3), handed over as a monic rational poly
    p = P((Fraction(9, 2), Fraction(-9, 2), 1))
    factors = factor_squarefree_rational(p)
    assert factors == [P((Fraction(-3), 1)), P((Fraction(-3, 2), 1))] or factors == [
        P((Fraction(-3, 2), 1)),
        P((Fraction(-3), 1)),
    ]


def test_sturm_fuzz_against_known_roots():
    # products of distinct rational linear factors; endpoints often collide
    # with roots, exercising the half-open zero-dropping convention
    rng = random.Random(7)
    for _ in range(60):
        roots = sorted(
            {
                Fraction(rng.randint(-8, 8), rng.randint(1, 3))
                for _ in range(rng.randint(1, 5))
            }
        )
        p = P((1,))
        for r in roots:
            p = p * P((-r, 1))
        chain = sturm_chain(p)
        for _ in range(12):
            a = Fraction(rng.randint(-30, 30), rng.randint(1, 4))
            b = Fraction(rng.randint(-30, 30), rng.randint(1, 4))
            if a >= b:
                continue
            expected = sum(1 for r in roots if a < r <= b)
            assert count_real_roots(chain, a, b) == expected, (roots, a, b)


def test_rational_roots_between():
    p = [-2, -1, 1]  # roots 2 and -1
    assert rational_roots_between(p, Fraction(0), Fraction(3)) == [Fraction(2)]
    assert rational_roots_between(p, Fraction(-2), Fraction(3)) == [Fraction(-1), Fraction(2)]
    assert rational_roots_between([3, -2], Fraction(0), Fraction(2)) == [Fraction(3, 2)]
    assert rational_roots_between([1, 0, 1], Fraction(-5), Fraction(5)) == []


def test_zero_and_constant_polynomials_at_the_edges():
    zero = P(())
    with pytest.raises(ValueError, match="zero polynomial has no leading coefficient"):
        zero.leading
    with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
        divmod(poly(1, 1), zero)
    with pytest.raises(ValueError, match="root scaling factor must be nonzero"):
        poly(-2, 1).scale_root(0)
    assert str(zero) == "0"
    assert cauchy_root_bound(poly(5)) == 1
    with pytest.raises(ValueError, match="constant polynomials have no factorization here"):
        factor_integer_squarefree([7])
    assert rational_roots_between([7], Fraction(-1), Fraction(1)) == []


def test_integer_coefficients_lead_with_a_positive_coefficient():
    assert poly(1, -2).to_integer_coeffs() == [-1, 2]
    assert poly(Fraction(1, 2), Fraction(-3, 4)).to_integer_coeffs() == [-2, 3]
    assert poly(Fraction(-1, 2), Fraction(3, 4)).to_integer_coeffs() == [-2, 3]
