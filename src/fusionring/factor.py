"""Factorization of squarefree integer polynomials over the rationals.

Rational roots come first: every root a/b, with b dividing the leading and
a the constant coefficient and |a/b| below Fujiwara's root bound, splits
off bt - a by exact division.  When that search is exhaustive and leaves
degree at most 3, the rest is irreducible, since a reducible polynomial of
degree at most 3 has a linear factor.  Only a larger rest, or one left
after a search that gave up on a huge coefficient, goes through the classic
Zassenhaus pipeline: pick a prime keeping the polynomial squarefree, factor
mod p with Berlekamp's algorithm (deterministic, fine for the small primes
that occur here), lift the modular factors with multifactor Hensel lifting
past the Mignotte coefficient bound, then recombine by exhaustive subset
search.  No degree is capped here: the characteristic polynomials of
left-multiplication matrices have degree up to the semiring rank, and the
products built by fpengine.mul_algebraic up to the product of their
factors' degrees.
Berlekamp and Hensel lifting are polynomial in the degree; the subset
search is exponential in the number of modular factors, and gives up with
ResourceLimitError past MAX_RECOMBINATION_SUBSETS subsets.

Integer polynomials are plain lists of ints, ascending, no trailing zeros.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import ceil, floor, gcd, isqrt
from typing import Sequence

from .errors import ResourceLimitError
from .poly import RationalPolynomial, exact_quotient, sign_at

#: subsets of lifted factors the recombination tries before it gives up;
#: 11 modular factors (SU(2)_31) need about 2^10
MAX_RECOMBINATION_SUBSETS = 1 << 16
#: trial divisions each divisor search of the rational-root step may make
#: (constant terms up to about 2^26 stay exhaustive)
ROOT_SEARCH_BUDGET = 1 << 13

# ---------------------------------------------------------------------------
# arithmetic mod p


def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _mul_mod(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _sub_mod(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] = (out[i] - y) % p
    return _trim(out)


def _add_mod(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x % p
    for i, y in enumerate(b):
        out[i] = (out[i] + y) % p
    return _trim(out)


def _divmod_mod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [x % p for x in a]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - db - 1, -1, -1):
        c = rem[i + db] * inv % p
        if not c:
            continue
        q[i] = c
        for j, y in enumerate(b):
            rem[i + j] = (rem[i + j] - c * y) % p
    return _trim(q), _trim(rem[:db])


def _monic_mod(f: list[int], p: int) -> list[int]:
    if not f:
        return f
    inv = pow(f[-1], -1, p)
    return _trim([c * inv % p for c in f])


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = [x % p for x in a], [x % p for x in b]
    _trim(a), _trim(b)
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return _monic_mod(a, p)


def _bezout_mod(g: list[int], h: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s*g + t*h = 1 mod p, deg s < deg h, deg t < deg g."""
    r0, r1 = [x % p for x in g], [x % p for x in h]
    s0, s1 = [1], []
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
    if len(r0) != 1:
        raise ArithmeticError("arguments are not coprime mod p")
    inv = pow(r0[0], -1, p)
    s = _trim([c * inv % p for c in s0])
    s = _divmod_mod(s, h, p)[1]
    # t = (1 - s*g) / h, exact by construction
    num = _sub_mod([1], _mul_mod(s, g, p), p)
    t, rem = _divmod_mod(num, h, p)
    if rem:
        raise ArithmeticError("bezout back-substitution was not exact")
    return s, t


def _derivative_int(f: list[int]) -> list[int]:
    return _trim([i * c for i, c in enumerate(f) if i])


def _pow_x_mod(e: int, f: list[int], p: int) -> list[int]:
    """x^e mod (f, p) by square and multiply."""
    result = [1]
    base = _divmod_mod([0, 1], f, p)[1]
    while e:
        if e & 1:
            result = _divmod_mod(_mul_mod(result, base, p), f, p)[1]
        base = _divmod_mod(_mul_mod(base, base, p), f, p)[1]
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# Berlekamp over F_p


def _nullspace_mod(rows: list[list[int]], p: int) -> list[list[int]]:
    n = len(rows)
    a = [row[:] for row in rows]
    pivots: dict[int, int] = {}
    rank = 0
    for col in range(n):
        sel = next((r for r in range(rank, n) if a[r][col] % p), None)
        if sel is None:
            continue
        a[rank], a[sel] = a[sel], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for r in range(n):
            if r != rank and a[r][col]:
                c = a[r][col]
                a[r] = [(x - c * y) % p for x, y in zip(a[r], a[rank])]
        pivots[col] = rank
        rank += 1
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        v = [0] * n
        v[free] = 1
        for col, r in pivots.items():
            v[col] = (-a[r][free]) % p
        basis.append(v)
    return basis


def _berlekamp(f: list[int], p: int) -> list[list[int]]:
    """Monic irreducible factors of a monic squarefree f over F_p."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    xp = _pow_x_mod(p, f, p)
    # Q[i] = coefficient vector of x^(i*p) mod f
    q_rows = [[1] + [0] * (n - 1)]
    row = [1]
    for _ in range(1, n):
        row = _divmod_mod(_mul_mod(row, xp, p), f, p)[1]
        q_rows.append(list(row) + [0] * (n - len(row)))
    # v is in the Berlekamp subalgebra iff v(Q - I) = 0, i.e. (Q^T - I) v^T = 0
    m = [[(q_rows[j][i] - (1 if i == j else 0)) % p for j in range(n)] for i in range(n)]
    basis = _nullspace_mod(m, p)
    r = len(basis)
    if r == 1:
        return [f]
    factors = [f]
    for v in basis:
        if len(factors) == r:
            break
        vec = _trim(list(v))
        if len(vec) <= 1:
            continue  # constants never split anything
        next_factors = []
        for g in factors:
            if len(g) - 1 <= 1:
                next_factors.append(g)
                continue
            pieces = []
            rest = g
            for c in range(p):
                if len(rest) - 1 < 1:
                    break
                h = _gcd_mod(rest, _sub_mod(vec, [c], p), p)
                if 0 < len(h) - 1 < len(rest) - 1:
                    pieces.append(h)
                    rest = _divmod_mod(rest, h, p)[0]
                elif len(h) - 1 == len(rest) - 1:
                    break  # v constant on all factors of rest
            if len(rest) - 1 >= 1:
                pieces.append(rest)
            next_factors.extend(pieces if pieces else [g])
        factors = next_factors
    if len(factors) != r:
        raise ArithmeticError("Berlekamp basis failed to separate the factors")
    return sorted(factors)


# ---------------------------------------------------------------------------
# Hensel lifting


def _poly_mod(f: list[int], m: int) -> list[int]:
    return _trim([c % m for c in f])


def _hensel_step(
    f: list[int],
    g: list[int],
    h: list[int],
    s: list[int],
    t: list[int],
    m_new: int,
) -> tuple[list[int], list[int], list[int], list[int]]:
    """One Hensel step: lift f = g*h and s*g + t*h = 1 from mod m to mod m_new,
    where m | m_new and m_new | m*m.  h stays monic."""
    e = _sub_mod(_poly_mod(f, m_new), _mul_mod(g, h, m_new), m_new)
    q, r = _divmod_mod(_mul_mod(s, e, m_new), h, m_new)
    g_new = _add_mod(g, _add_mod(_mul_mod(t, e, m_new), _mul_mod(q, g, m_new), m_new), m_new)
    h_new = _add_mod(h, r, m_new)
    if len(h_new) != len(h) or h_new[-1] != 1 or len(g_new) != len(g):
        raise ArithmeticError("hensel step lost the degree invariants")
    b = _sub_mod(
        _add_mod(_mul_mod(s, g_new, m_new), _mul_mod(t, h_new, m_new), m_new), [1], m_new
    )
    c, d = _divmod_mod(_mul_mod(s, b, m_new), h_new, m_new)
    s_new = _sub_mod(s, d, m_new)
    t_new = _sub_mod(t, _add_mod(_mul_mod(t, b, m_new), _mul_mod(c, g_new, m_new), m_new), m_new)
    return g_new, h_new, s_new, t_new


def _hensel_lift_factors(
    p: int, modulus: int, f: list[int], modular_factors: list[list[int]]
) -> list[list[int]]:
    """Lift monic mod-p factors of f to monic mod-`modulus` factors, where
    f = lc(f) * product(factors) mod p and p does not divide lc(f)."""
    if len(modular_factors) == 1:
        inv = pow(f[-1] % modulus, -1, modulus)
        return [_trim([c * inv % modulus for c in f])]
    mid = len(modular_factors) // 2
    g = [f[-1] % p]
    for fac in modular_factors[:mid]:
        g = _mul_mod(g, fac, p)
    h = [1]
    for fac in modular_factors[mid:]:
        h = _mul_mod(h, fac, p)
    s, t = _bezout_mod(g, h, p)
    m = p
    while m < modulus:
        m_new = min(m * m, modulus)
        g, h, s, t = _hensel_step(f, g, h, s, t, m_new)
        m = m_new
    return _hensel_lift_factors(p, modulus, g, modular_factors[:mid]) + _hensel_lift_factors(
        p, modulus, h, modular_factors[mid:]
    )


# ---------------------------------------------------------------------------
# Zassenhaus driver


def _primes():
    yield 2
    yield 3
    n = 5
    while True:
        for d in range(3, isqrt(n) + 1, 2):
            if n % d == 0:
                break
        else:
            yield n
        n += 2


def _balanced(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def _primitive(f: list[int]) -> list[int]:
    g = 0
    for c in f:
        g = gcd(g, abs(c))
    out = [c // g for c in f]
    if out[-1] < 0:
        out = [-c for c in out]
    return out


def factor_integer_squarefree(f: list[int]) -> list[list[int]]:
    """Irreducible factors (primitive, positive leading coeff) of a primitive
    squarefree integer polynomial of degree >= 1, sorted by (length,
    coefficients): the linear factors of its rational roots, then the rest
    as it is when the root search was exhaustive and left degree <= 3, else
    the rest through Zassenhaus."""
    rest = _trim(list(f))
    if len(rest) < 2:
        raise ValueError("constant polynomials have no factorization here")
    factors = []
    complete = True
    if not rest[0]:  # squarefree, so 0 is a simple root
        factors.append([0, 1])
        rest = rest[1:]
    if len(rest) > 1:
        bound = _root_bound(rest)
        roots, complete = _rational_roots(rest, -bound, bound, ROOT_SEARCH_BUDGET, True)
        for root in roots:
            factors.append([-root.numerator, root.denominator])
            rest = exact_quotient(rest, factors[-1])
    if len(rest) > 1:
        factors.extend(_zassenhaus(rest) if len(rest) > 4 or not complete else [_primitive(rest)])
    return sorted(factors, key=lambda g: (len(g), g))


def _zassenhaus(f: list[int]) -> list[list[int]]:
    """Irreducible factors of a primitive squarefree f of degree >= 1."""
    n = len(f) - 1
    if n == 1:
        return [_primitive(f)]

    for p in _primes():
        if f[-1] % p == 0:
            continue
        fbar = _poly_mod(f, p)  # of degree n: p does not divide lc(f)
        if len(_gcd_mod(fbar, _derivative_int(fbar), p)) - 1 != 0:
            continue
        break

    modular = _berlekamp(_monic_mod(_poly_mod(f, p), p), p)
    if len(modular) == 1:
        return [_primitive(f)]

    # Mignotte-style bound: any factor of f, scaled by lc(f), has coefficients
    # bounded by lc * 2^(2n) * (n+1) * ||f||_2.  Generous on purpose.
    norm2 = isqrt(sum(c * c for c in f)) + 1
    bound = abs(f[-1]) * (1 << (2 * n)) * (n + 1) * norm2
    power = 1
    modulus = p
    while modulus <= 2 * bound:
        modulus *= p
        power += 1

    lifted = _hensel_lift_factors(p, modulus, f, modular)

    result: list[list[int]] = []
    remaining = f
    active = list(range(len(lifted)))
    size = 1
    tried = 0
    while 2 * size <= len(active):
        for subset in combinations(active, size):
            tried += 1
            if tried > MAX_RECOMBINATION_SUBSETS:
                raise ResourceLimitError(
                    f"recombining {len(lifted)} modular factors takes more than "
                    f"{MAX_RECOMBINATION_SUBSETS} subsets"
                )
            candidate = [remaining[-1] % modulus]
            for i in subset:
                candidate = _mul_mod(candidate, lifted[i], modulus)
            candidate = _primitive([_balanced(c, modulus) for c in candidate])
            try:
                quotient = exact_quotient(remaining, candidate)
            except ArithmeticError:
                continue
            result.append(candidate)
            remaining = _primitive(quotient)
            active = [i for i in active if i not in subset]
            break  # retry the same subset size against the new remainder
        else:
            size += 1
    if len(remaining) - 1 >= 1:
        result.append(_primitive(remaining))
    return result


def factor_squarefree_rational(p: RationalPolynomial) -> list[RationalPolynomial]:
    """Monic irreducible factors of the squarefree part of p, sorted
    deterministically by (degree, coefficients)."""
    q = p.squarefree_part()
    if q.degree < 1:
        return []
    factors = factor_integer_squarefree(q.to_integer_coeffs())
    monics = [RationalPolynomial(f).monic() for f in factors]
    return sorted(monics, key=lambda g: (g.degree, g.coeffs))


def _divisors(n: int, budget: int = 1 << 20) -> tuple[list[int], bool]:
    """The positive divisors of n, ascending, and whether that list is all of
    them: trial division gives up past `budget`, keeping those found and n."""
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if d > budget:
            return sorted(set(out + [1, n])), False
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out), True


def _root_bound(f: list[int]) -> int:
    """A power of two at least Fujiwara's bound 2 max_k |f[n-k] / f[n]|^(1/k)
    on the modulus of every complex root of f (each term rounded up to a
    power of two)."""
    lead = abs(f[-1])
    exponent = 0
    for k, c in enumerate(reversed(f[:-1]), 1):
        bits = (-(-abs(c) // lead)).bit_length()  # |c / lead| < 2^bits
        exponent = max(exponent, -(-bits // k))
    return 2 << exponent


def _rational_roots(
    f: list[int],
    lo: Fraction | int,
    hi: Fraction | int,
    budget: int = 1 << 20,
    exhaustive: bool = False,
) -> tuple[list[Fraction], bool]:
    """Rational roots num/den of the integer polynomial f in [lo, hi], by the
    rational root theorem, and whether the search missed none.  den runs
    over the divisors of the leading coefficient; for each, every num in
    [lo den, hi den] is tried when they are at most 17, else, when
    `exhaustive` (f(0) != 0), the signed divisors of f(0) among them, else
    none.  `budget` bounds each divisor search (_divisors)."""
    dens, complete = _divisors(f[-1], budget)
    numerators = None
    roots = set()
    for den in dens:
        start = ceil(lo * den)
        stop = floor(hi * den)
        if stop - start <= 16:
            candidates = range(start, stop + 1)
        elif not exhaustive:
            complete = False
            continue
        else:
            if numerators is None:
                divisors, found_all = _divisors(f[0], budget)
                complete = complete and found_all
                numerators = [s * d for d in divisors for s in (1, -1)]
            candidates = [num for num in numerators if start <= num <= stop]
        roots.update(Fraction(num, den) for num in candidates if sign_at(f, num, den) == 0)
    return sorted(roots), complete


def rational_roots_between(f: Sequence[int], lo: Fraction, hi: Fraction) -> list[Fraction]:
    """Rational roots of an integer polynomial inside [lo, hi], via the
    rational root theorem restricted to the interval; a denominator whose
    numerators there are more than 17 is skipped."""
    f = _trim(list(f))
    if len(f) - 1 < 1:
        return []
    return _rational_roots(f, lo, hi)[0]
