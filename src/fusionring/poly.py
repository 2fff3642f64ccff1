"""Dense univariate polynomials over the rationals, plus Sturm counting.

Coefficients are ascending `Fraction`s with no trailing zeros; the zero
polynomial has an empty coefficient tuple.  This is the substrate for the
certified root isolation in fpengine: Sturm chains built here count distinct
real roots exactly, with the zero-dropping sign convention so that counting
over a half-open interval (a, b] stays correct even when an endpoint is a
root.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]


class RationalPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat]):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

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
    def leading(self) -> Fraction:
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
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return RationalPolynomial(out)

    def scale(self, c: Rat) -> "RationalPolynomial":
        c = Fraction(c)
        if c == 0:
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
        q = [Fraction(0)] * max(len(rem) - dn, 0)
        for i in range(len(rem) - dn - 1, -1, -1):
            f = rem[i + dn] / lead
            if not f:
                continue
            q[i] = f
            for j, b in enumerate(other.coeffs):
                rem[i + j] -= f * b
        return RationalPolynomial(q), RationalPolynomial(rem[:dn])

    def __mod__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return divmod(self, other)[1]

    def exact_div(self, other: "RationalPolynomial") -> "RationalPolynomial":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ArithmeticError("division was expected to be exact")
        return q

    def monic(self) -> "RationalPolynomial":
        if self.is_zero or self.is_monic:
            return self
        lead = self.leading
        return RationalPolynomial(tuple(c / lead for c in self.coeffs))

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def evaluate(self, x: Rat) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def scale_root(self, c: Rat) -> "RationalPolynomial":
        """Polynomial whose roots are c times the roots of self (c != 0);
        monic input gives monic output."""
        c = Fraction(c)
        if c == 0:
            raise ValueError("root scaling factor must be nonzero")
        n = self.degree
        return RationalPolynomial(tuple(a * c ** (n - i) for i, a in enumerate(self.coeffs)))

    def squarefree_part(self) -> "RationalPolynomial":
        if self.degree < 1:
            return self.monic()
        g = poly_gcd(self, self.derivative())
        if g.degree < 1:
            return self.monic()
        return self.exact_div(g).monic()

    def to_integer_coeffs(self) -> list[int]:
        """Primitive integer multiple with positive leading coefficient."""
        if self.is_zero:
            return []
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        ints = [v // g for v in ints]
        if ints[-1] < 0:
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


def poly_gcd(a: RationalPolynomial, b: RationalPolynomial) -> RationalPolynomial:
    """Monic gcd via the Euclidean algorithm over Q."""
    while not b.is_zero:
        a, b = b, divmod(a, b)[1]
    return a.monic() if not a.is_zero else a


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


def count_real_roots(chain: Sequence[RationalPolynomial], a: Rat, b: Rat) -> int:
    """Number of distinct real roots in the half-open interval (a, b]."""
    if not Fraction(a) < Fraction(b):
        return 0
    return sign_variations(chain, a) - sign_variations(chain, b)


def cauchy_root_bound(p: RationalPolynomial) -> Fraction:
    """Every real root of p has absolute value strictly below the bound."""
    if p.degree < 1:
        return Fraction(1)
    lead = abs(p.leading)
    return 1 + max(abs(c) for c in p.coeffs[:-1]) / lead
