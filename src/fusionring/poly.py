"""Dense univariate polynomials over the rationals, plus Sturm counting.

Coefficients are ascending, without trailing zeros, and exact: an `int` when
integral, else a `Fraction` (`rat`), never a float; the zero polynomial has
an empty coefficient tuple.  This is the substrate for the certified root
isolation in fpengine: Sturm chains built here count distinct real roots
exactly, with the zero-dropping sign convention so that counting over a
half-open interval (a, b] stays correct even when an endpoint is a root.

Sturm counting runs in integers only.  A chain is built once per polynomial
(memoized) by integer pseudo-remainders, each member a positive integer
multiple of the canonical member, and every sign is read off the integer
homogeneous form den^k f(num/den) (`homogeneous_value`, `sign_at`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]


def rat(c: Rat) -> Rat:
    """c as an int when integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class RationalPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat]):
        cs = [rat(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs: tuple[Rat, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls(())

    @classmethod
    def constant(cls, c: Rat) -> "RationalPolynomial":
        return cls((c,))

    @classmethod
    def variable(cls) -> "RationalPolynomial":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Rat:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.leading == 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(out)

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __mul__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if self.is_zero or other.is_zero:
            return RationalPolynomial.zero()
        out: list[Rat] = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return RationalPolynomial(out)

    def scale(self, c: Rat) -> "RationalPolynomial":
        c = rat(c)
        if not c:
            return RationalPolynomial.zero()
        return RationalPolynomial(tuple(c * a for a in self.coeffs))

    def __divmod__(
        self, other: "RationalPolynomial"
    ) -> tuple["RationalPolynomial", "RationalPolynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = other.degree
        lead = other.leading
        q: list[Rat] = [0] * max(len(rem) - dn, 0)
        for i in range(len(rem) - dn - 1, -1, -1):
            f = Fraction(rem[i + dn], lead)
            if not f:
                continue
            q[i] = f
            for j, b in enumerate(other.coeffs):
                rem[i + j] -= f * b
        return RationalPolynomial(q), RationalPolynomial(rem[:dn])

    def __mod__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return divmod(self, other)[1]

    def monic(self) -> "RationalPolynomial":
        if self.is_zero or self.is_monic:
            return self
        lead = self.leading
        return RationalPolynomial(tuple(Fraction(c, lead) for c in self.coeffs))

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def evaluate(self, x: Rat) -> Rat:
        acc: Rat = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def scale_root(self, c: Rat) -> "RationalPolynomial":
        """Polynomial whose roots are c times the roots of self (c != 0);
        monic input gives monic output."""
        c = rat(c)
        if not c:
            raise ValueError("root scaling factor must be nonzero")
        n = self.degree
        return RationalPolynomial(tuple(a * c ** (n - i) for i, a in enumerate(self.coeffs)))

    def squarefree_part(self) -> "RationalPolynomial":
        """Monic p / gcd(p, p'), in integers: the first member of p's
        memoized Sturm chain, p's primitive integer form, divided by its
        last, the primitive gcd of p and p', exactly over Z by Gauss's
        lemma.  A squarefree monic p is its own result, so sturm_chain on
        the result is then a cache hit."""
        if self.degree < 1:
            return self.monic()
        chain = sturm_chain(self)
        if len(chain[-1]) < 2:
            return self.monic()
        return RationalPolynomial(exact_quotient(chain[0], chain[-1])).monic()

    def to_integer_coeffs(self) -> list[int]:
        """Primitive integer multiple with positive leading coefficient."""
        ints = _positive_integer_multiple(self.coeffs)
        if ints and ints[-1] < 0:
            ints = [-v for v in ints]
        return ints

    def has_integer_coeffs(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}t" + (f"^{i}" if i > 1 else "")
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"RationalPolynomial({self})"


def exact_quotient(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """f / g for integer polynomials (ascending, no trailing zeros, g != 0)
    when the quotient lies in Z[t]: long division in which every step
    divides by the leading coefficient of g exactly.  Raises ArithmeticError
    otherwise, at the first step whose rational quotient coefficient is not
    an integer or at a nonzero remainder.  A primitive g that divides f over
    Q always qualifies (Gauss's lemma)."""
    dg = len(g) - 1
    lead = g[-1]
    r = list(f)
    q = [0] * (len(f) - dg)
    for shift in range(len(q) - 1, -1, -1):
        top = r.pop()
        if not top:
            continue
        c, rest = divmod(top, lead)
        if rest:
            raise ArithmeticError("division was expected to be exact")
        q[shift] = c
        for j in range(dg):
            r[shift + j] -= c * g[j]
    if any(r):
        raise ArithmeticError("division was expected to be exact")
    return q


def _primitive(ints: Sequence[int]) -> list[int]:
    """Divide out the positive content; keeps the sign of every value."""
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else list(ints)


def _positive_integer_multiple(coeffs: Sequence[Rat]) -> list[int]:
    """Primitive integer multiple of a rational polynomial by a positive
    factor, so every value keeps its sign."""
    den = lcm(*(c.denominator for c in coeffs))
    return _primitive([c.numerator * (den // c.denominator) for c in coeffs])


def _negated_remainder(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Primitive positive integer multiple of -rem(a, b) for a nonzero b.

    Integer pseudo-division: each step scales the running remainder by
    lead(b)/g before cancelling its top coefficient, so the result is
    P rem(a, b) for an integer P whose sign is tracked."""
    db = len(b) - 1
    lead = b[-1]
    r = list(a)
    negative = False
    for shift in range(len(a) - 1 - db, -1, -1):
        top = r.pop()
        if not top:
            continue
        g = gcd(lead, top)
        scale, top = lead // g, top // g
        if scale != 1:
            r = [scale * v for v in r]
            negative ^= scale < 0
        for j in range(db):
            r[shift + j] -= top * b[j]
    while r and not r[-1]:
        r.pop()
    if not r:
        return ()
    return tuple(_primitive(r if negative else [-v for v in r]))


@lru_cache(maxsize=256)
def sturm_chain(p: RationalPolynomial) -> tuple[tuple[int, ...], ...]:
    """Sturm chain p, p', -rem(...), ... of a polynomial, memoized per
    polynomial.  It counts roots when p is squarefree; for any p it is the
    remainder sequence of p and p', whose last member is their gcd
    (RationalPolynomial.squarefree_part reads it there).

    Each member is an ascending integer coefficient tuple: the primitive
    positive integer multiple of the canonical member, so it has the same
    sign everywhere and the same Sturm counts.
    """
    f = tuple(_positive_integer_multiple(p.coeffs))
    if p.degree < 1:
        return (f,)
    chain = [f, tuple(_primitive([i * c for i, c in enumerate(f) if i]))]
    while len(chain[-1]) > 1:
        rem = _negated_remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(rem)
    return tuple(chain)


def homogeneous_value(f: Sequence[int], num: int, den: int) -> int:
    """den^k f(num/den), k = deg f, for the integer polynomial f (ascending
    coefficients), by homogeneous Horner; for den > 0 it has the sign of
    f(num/den)."""
    acc, power = 0, 1
    for c in reversed(f):
        acc = acc * num + c * power
        power *= den
    return acc


def sign_at(f: Sequence[int], num: int, den: int) -> int:
    """Sign of the integer polynomial f at num/den, den > 0."""
    acc = homogeneous_value(f, num, den)
    return (acc > 0) - (acc < 0)


def sign_variations(chain: Sequence[Sequence[int]], x: Rat) -> int:
    """Sign variations of an integer Sturm chain at x, dropping zero values.

    With this convention V(a) equals the right-limit V(a+) for squarefree
    chains, so V(a) - V(b) counts the distinct real roots in (a, b]
    regardless of whether a or b is itself a root.
    """
    num, den = x.numerator, x.denominator
    count, last = 0, 0
    for q in chain:
        s = sign_at(q, num, den)
        if s:
            if s != last and last:
                count += 1
            last = s
    return count


def count_real_roots(chain: Sequence[Sequence[int]], a: Rat, b: Rat) -> int:
    """Number of distinct real roots in the half-open interval (a, b]."""
    if not a < b:
        return 0
    return sign_variations(chain, a) - sign_variations(chain, b)


def cauchy_root_bound(p: RationalPolynomial) -> Fraction:
    """Every real root of p has absolute value strictly below the bound."""
    if p.degree < 1:
        return Fraction(1)
    return 1 + Fraction(max(abs(c) for c in p.coeffs[:-1]), abs(p.leading))
