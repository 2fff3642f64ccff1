"""Exact Frobenius-Perron machinery.

Left-multiplication matrices read off the sparse product index,
characteristic polynomials by Hessenberg reduction over the rationals,
Sturm-certified isolation of the maximal real root, minimal polynomials, and
a deliberately small algebra of exact values (rationals and isolated
algebraic numbers).

Every FPdim produced here is an AlgebraicNumber: a monic defining polynomial
plus a rational isolating interval certified to contain exactly one real
root.  Rational roots collapse to point intervals, so statements like
"FPdim(V) = 2 exactly" are plain equalities.  perron_vector gives the whole
regular element at once, exactly, in the ring's Perron field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .core import FusionData, MultisetElement
from .errors import (
    NonTransitiveError,
    NoRealRootError,
    NotFusionError,
    UnrepresentableError,
)
from .factor import factor_squarefree_rational, rational_roots_between
from .poly import (
    RationalPolynomial,
    cauchy_root_bound,
    count_real_roots,
    sturm_chain,
)
from .validate import check_transitivity

Rat = Union[int, Fraction]

#: default certified interval width, far below any fixture's root separation
DEFAULT_WIDTH = Fraction(1, 2**64)


# ---------------------------------------------------------------------------
# exact matrices


@dataclass(frozen=True)
class RationalMatrix:
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(Fraction(c) for c in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square and nonempty")

    @property
    def size(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    def kron(self, other: "RationalMatrix") -> "RationalMatrix":
        n, m = self.size, other.size
        rows = []
        for i in range(n):
            for k in range(m):
                rows.append(
                    tuple(
                        self.rows[i][j] * other.rows[k][l] for j in range(n) for l in range(m)
                    )
                )
        return RationalMatrix(tuple(rows))


def left_mult_matrix(x: MultisetElement) -> RationalMatrix:
    """Matrix of left multiplication by x in the basis of simples; column j
    holds the coordinates of x * (basis j)."""
    return left_mult_matrix_from_coeffs(x.data, x.coeffs)


def left_mult_matrix_from_coeffs(data: FusionData, coeffs: Sequence[Rat]) -> RationalMatrix:
    """Matrix of left multiplication by sum_k coeffs[k] * (basis k), read off
    the sparse product index; entries stay Python ints unless a coefficient
    is a Fraction."""
    r = data.rank
    cols: list[list[Rat]] = [[0] * r for _ in range(r)]
    for k, c in enumerate(coeffs):
        if not c:
            continue
        for col, pairs in zip(cols, data.products[k]):
            for i, m in pairs:
                col[i] += c * m
    return RationalMatrix(tuple(zip(*cols)))


def char_poly(m: RationalMatrix) -> RationalPolynomial:
    """Monic characteristic polynomial det(tI - M).

    M is first brought to upper Hessenberg form H by similarity transforms
    over Q (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.2.9): for each column, a nonzero entry on or below the
    subdiagonal is swapped onto it and the entries below are eliminated,
    every row operation paired with the inverse column operation; a column
    that is zero from the subdiagonal down is already reduced.  The leading
    principal minors p_k = det(tI - H[:k, :k]) then satisfy

        p_k = (t - h[k-1][k-1]) p_{k-1}
              - sum_{i<k-1} h[i][k-1] * h[i+1][i] ... h[k-1][k-2] * p_i

    and p_n is the result.  O(n^3) scalar Fraction operations.
    """
    n = m.size
    h = [list(row) for row in m.rows]
    for c in range(n - 2):
        p = c + 1
        piv = next((i for i in range(p, n) if h[i][c]), None)
        if piv is None:
            continue
        if piv != p:
            h[p], h[piv] = h[piv], h[p]
            for row in h:
                row[p], row[piv] = row[piv], row[p]
        pivot_row = h[p]
        pivot = pivot_row[c]
        for i in range(p + 1, n):
            row_i = h[i]
            if not row_i[c]:
                continue
            u = row_i[c] / pivot
            for j in range(c, n):
                if pivot_row[j]:
                    row_i[j] -= u * pivot_row[j]
            for row in h:
                if row[i]:
                    row[p] += u * row[i]
    polys = [[Fraction(1)]]
    for k in range(n):
        prev = polys[k]
        nxt = [Fraction(0)] + prev
        for d, a in enumerate(prev):
            nxt[d] -= h[k][k] * a
        sub = Fraction(1)
        for i in range(k - 1, -1, -1):
            sub *= h[i + 1][i]
            if not sub:
                break
            w = sub * h[i][k]
            if w:
                for d, a in enumerate(polys[i]):
                    nxt[d] -= w * a
        polys.append(nxt)
    return RationalPolynomial(polys[n])


# ---------------------------------------------------------------------------
# algebraic numbers


@dataclass(frozen=True)
class AlgebraicNumber:
    """A real algebraic number: monic defining polynomial plus a rational
    interval certified (Sturm count 1) to contain exactly one of its real
    roots.  Point intervals (lo == hi) are exact rationals."""

    poly: RationalPolynomial
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if not self.poly.is_monic:
            raise ValueError("defining polynomial must be monic")
        if self.lo > self.hi:
            raise ValueError("empty isolating interval")
        if self.lo == self.hi:
            if self.poly.evaluate(self.lo) != 0:
                raise ValueError("point interval does not sit on a root")
        else:
            if self.poly.evaluate(self.lo) == 0 or self.poly.evaluate(self.hi) == 0:
                raise ValueError("isolating interval endpoints must not be roots")
            if count_real_roots(sturm_chain(self.poly), self.lo, self.hi) != 1:
                raise ValueError("interval does not isolate exactly one real root")

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> Fraction:
        if not self.is_point:
            raise ValueError("not an exact rational")
        return self.lo

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __float__(self) -> float:
        return float(self.midpoint())

    def scaled(self, c: Rat) -> "AlgebraicNumber":
        """Exact product with a nonzero rational."""
        c = Fraction(c)
        if c == 0:
            raise ValueError("scaling an algebraic number by zero loses the field")
        q = self.poly.scale_root(c)
        lo, hi = (c * self.lo, c * self.hi) if c > 0 else (c * self.hi, c * self.lo)
        return AlgebraicNumber(q, lo, hi)

    def cmp_rational(self, c: Rat) -> int:
        """Exact three-way comparison with a rational."""
        c = Fraction(c)
        if self.is_point:
            return (self.lo > c) - (self.lo < c)
        if c < self.lo:
            return 1
        if c > self.hi:
            return -1
        if self.poly.evaluate(c) == 0:
            return 0  # c is the unique root in the interval
        above = count_real_roots(sturm_chain(self.poly), c, self.hi)
        return 1 if above == 1 else -1

    def __str__(self) -> str:
        if self.is_point:
            return str(self.lo)
        return f"root of {self.poly} in [{self.lo}, {self.hi}]"


def _point(poly: RationalPolynomial, value: Fraction) -> AlgebraicNumber:
    return AlgebraicNumber(poly, value, value)


def _bisect(
    q: RationalPolynomial, lo: Fraction, hi: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Bisect a sign change of the monic q in (lo, hi) down to `width`; a
    midpoint that is a root comes back as the point interval (mid, mid).

    Signs come from den^n q(num/den) by homogeneous Horner over the integer
    form of q, a positive multiple, so no Fraction is built per step."""
    ints = q.to_integer_coeffs()[::-1]

    def sign(x: Fraction) -> int:
        acc, power = 0, 1
        for c in ints:
            acc = acc * x.numerator + c * power
            power *= x.denominator
        return (acc > 0) - (acc < 0)

    sign_lo = sign(lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        s = sign(mid)
        if s == 0:
            return mid, mid
        if s == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def isolate_max_real_root(
    p: RationalPolynomial, width: Fraction = DEFAULT_WIDTH
) -> AlgebraicNumber:
    """Certified isolation of the largest real root of p.

    Works on the squarefree part, narrows by Sturm counts until one root
    remains above, then bisects on the sign of the polynomial.  Rational
    roots collapse to exact point intervals (complete whenever the width is
    below 16 over the leading coefficient of the primitive integer form,
    which any default-width call satisfies).
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no isolated roots")
    q = p.squarefree_part()
    if q.degree < 1:
        raise NoRealRootError("constant polynomial has no real root")
    chain = sturm_chain(q)
    bound = cauchy_root_bound(q) + 1
    lo, hi = -bound, bound
    if count_real_roots(chain, lo, hi) == 0:
        raise NoRealRootError(f"{p} has no real root")
    # keep the maximal root in (lo, hi], shed the others
    while count_real_roots(chain, lo, hi) > 1:
        mid = (lo + hi) / 2
        if count_real_roots(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    if q.evaluate(hi) == 0:
        return _point(q, hi)
    # clear a smaller root stranded exactly on the lower endpoint
    while q.evaluate(lo) == 0:
        mid = (lo + hi) / 2
        if q.evaluate(mid) == 0:
            return _point(q, mid)
        if count_real_roots(chain, mid, hi) == 1:
            lo = mid
        else:
            hi = mid
    lo, hi = _bisect(q, lo, hi, width)
    if lo < hi:
        roots = rational_roots_between(q.to_integer_coeffs(), lo, hi)
        if roots:
            return _point(q, roots[0])
    return AlgebraicNumber(q, lo, hi)


def refine(alpha: AlgebraicNumber, width: Fraction) -> AlgebraicNumber:
    """Same root, interval width at most `width`; idempotent on points."""
    width = Fraction(width)
    if width <= 0:
        raise ValueError("target width must be positive")
    if alpha.is_point or alpha.width <= width:
        return alpha
    lo, hi = _bisect(alpha.poly, alpha.lo, alpha.hi, width)
    return AlgebraicNumber(alpha.poly, lo, hi)


@lru_cache(maxsize=512)
def min_poly(alpha: AlgebraicNumber) -> RationalPolynomial:
    """Monic irreducible rational polynomial with alpha as a root; t - v for
    a rational point v."""
    if alpha.is_point:
        return RationalPolynomial((-alpha.value, 1))
    for g in factor_squarefree_rational(alpha.poly):
        if g.degree >= 1 and count_real_roots(sturm_chain(g), alpha.lo, alpha.hi) == 1:
            return g
    raise AssertionError("defining polynomial lost its root")  # pragma: no cover


def algebraic_equal(a: AlgebraicNumber, b: AlgebraicNumber) -> bool:
    """Exact equality: equal minimal polynomials and a common isolating
    interval containing a root."""
    if a.is_point or b.is_point:
        if a.is_point and b.is_point:
            return a.value == b.value
        point, other = (a, b) if a.is_point else (b, a)
        return other.cmp_rational(point.value) == 0
    ma = min_poly(a)
    if ma != min_poly(b):
        return False
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo > hi:
        return False
    return count_real_roots(sturm_chain(ma), lo, hi) >= 1


# ---------------------------------------------------------------------------
# exact values: Fraction | AlgebraicNumber

ExactValue = Union[Fraction, AlgebraicNumber]


def normalize_value(v: Union[Rat, AlgebraicNumber]) -> ExactValue:
    if isinstance(v, AlgebraicNumber):
        return v.value if v.is_point else v
    return Fraction(v)


def exact_mul(a: Union[Rat, AlgebraicNumber], b: Union[Rat, AlgebraicNumber]) -> ExactValue:
    """Exact product.  Rational times algebraic is a root rescaling; a
    genuinely irrational product goes through the companion Kronecker
    construction in mul_algebraic."""
    a, b = normalize_value(a), normalize_value(b)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    if isinstance(a, Fraction):
        return b.scaled(a) if a else Fraction(0)
    if isinstance(b, Fraction):
        return a.scaled(b) if b else Fraction(0)
    return mul_algebraic(a, b)


def exact_cmp(a: Union[Rat, AlgebraicNumber], b: Union[Rat, AlgebraicNumber]) -> int:
    """Exact three-way comparison of exact values."""
    a, b = normalize_value(a), normalize_value(b)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return (a > b) - (a < b)
    if isinstance(a, Fraction):
        return -b.cmp_rational(a)
    if isinstance(b, Fraction):
        return a.cmp_rational(b)
    if algebraic_equal(a, b):
        return 0
    x, y = a, b
    while not (x.hi < y.lo or y.hi < x.lo):
        w = max(x.width, y.width) / 2
        if w == 0:  # both collapsed to (distinct) points
            return (x.value > y.value) - (x.value < y.value)
        x, y = refine(x, w), refine(y, w)
    return -1 if x.hi < y.lo else 1


def companion_matrix(p: RationalPolynomial) -> RationalMatrix:
    """Companion matrix of a monic polynomial; char_poly(companion(p)) = p."""
    if not p.is_monic or p.degree < 1:
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    n = p.degree
    rows = []
    for i in range(n):
        row = [Fraction(0)] * n
        if i > 0:
            row[i - 1] = Fraction(1)
        row[n - 1] = -p.coeffs[i]
        rows.append(tuple(row))
    return RationalMatrix(tuple(rows))


#: largest degree of the companion Kronecker construction in mul_algebraic
MAX_PRODUCT_DEGREE = 16


def mul_algebraic(a: AlgebraicNumber, b: AlgebraicNumber) -> ExactValue:
    """Exact product of two positive algebraic numbers.

    The product is a root of the characteristic polynomial of the Kronecker
    product of the companion matrices of the minimal polynomials; the
    isolating interval is the product interval, refined until it certifies a
    single root.  Degree of the construction is capped: sums and products of
    large unrelated fields are out of scope.
    """
    if a.cmp_rational(0) <= 0 or b.cmp_rational(0) <= 0:
        raise UnrepresentableError("products are only formed for positive values")
    pa, pb = min_poly(a), min_poly(b)
    if pa.degree * pb.degree > MAX_PRODUCT_DEGREE:
        raise UnrepresentableError(
            f"product would live in degree {pa.degree * pb.degree} > {MAX_PRODUCT_DEGREE}"
        )
    prod_poly = char_poly(companion_matrix(pa).kron(companion_matrix(pb))).squarefree_part()
    chain = sturm_chain(prod_poly)
    x, y = a, b
    while x.lo <= 0:
        x = refine(x, x.width / 2)
    while y.lo <= 0:
        y = refine(y, y.width / 2)
    while True:
        lo, hi = x.lo * y.lo, x.hi * y.hi
        if (
            prod_poly.evaluate(lo) != 0
            and prod_poly.evaluate(hi) != 0
            and count_real_roots(chain, lo, hi) == 1
        ):
            break
        x, y = refine(x, x.width / 2), refine(y, y.width / 2)
        if x.is_point or y.is_point:
            return exact_mul(x, y)
    roots = rational_roots_between(prod_poly.to_integer_coeffs(), lo, hi)
    if roots:
        return roots[0]
    return AlgebraicNumber(prod_poly, lo, hi)


def exact_square(v: Union[Rat, AlgebraicNumber]) -> ExactValue:
    v = normalize_value(v)
    if isinstance(v, Fraction):
        return v * v
    return mul_algebraic(v, v)


def reciprocal(v: Union[Rat, AlgebraicNumber]) -> ExactValue:
    """Exact 1/v for a positive exact value.  For an algebraic number the
    reversed minimal polynomial defines the reciprocal, and the reciprocal
    interval still isolates it."""
    v = normalize_value(v)
    if isinstance(v, Fraction):
        if v == 0:
            raise ZeroDivisionError("reciprocal of zero")
        return 1 / v
    if v.cmp_rational(0) <= 0:
        raise UnrepresentableError("reciprocal is only formed for positive values")
    while v.lo <= 0:
        v = refine(v, v.width / 2)
    p = min_poly(v)
    q = RationalPolynomial(tuple(reversed(p.coeffs))).monic()
    return AlgebraicNumber(q, 1 / v.hi, 1 / v.lo)


# ---------------------------------------------------------------------------
# Frobenius-Perron dimensions


@lru_cache(maxsize=128)
def _is_transitive(data: FusionData) -> bool:
    return check_transitivity(data).passed


def ensure_fpdim_ready(data: FusionData, waive_transitivity: bool = False) -> None:
    """FPdim is defined for transitive fusion data only; refuse anything else
    unless transitivity is explicitly waived."""
    if not data.is_fusion:
        raise NotFusionError("FPdim is only defined when the unit is simple")
    if not waive_transitivity and not _is_transitive(data):
        raise NonTransitiveError(
            "data is not transitive; FPdim is not well-behaved there "
            "(pass waive_transitivity=True to proceed anyway)"
        )


def fpdim_element(
    x: MultisetElement,
    *,
    waive_transitivity: bool = False,
    width: Fraction = DEFAULT_WIDTH,
) -> AlgebraicNumber:
    """Maximal nonnegative eigenvalue of the left-multiplication matrix of x.

    For basis elements the characteristic polynomial is monic with integer
    coefficients, so the result is an algebraic integer by construction.
    """
    ensure_fpdim_ready(x.data, waive_transitivity)
    return isolate_max_real_root(char_poly(left_mult_matrix(x)), width)


def perron_vector(
    data: FusionData, *, waive_transitivity: bool = False
) -> tuple[RationalPolynomial, tuple[RationalPolynomial, ...]]:
    """(m, R): the regular element R as the Perron eigenvector of left
    multiplication L by t = Sum of all simples, normalised to 1 at the unit.

    On transitive data L is strictly positive, so mu = FPdim(t) is a simple
    eigenvalue; m is its minimal polynomial and each R_X, equal to
    FPdim(X)/eps_X on valid data, is an element of K = Q[t]/(m) written as a
    polynomial in mu of degree below deg m.  R is q(L) e_unit, rescaled, for
    q = char_poly(L)/(t - mu) over K, since (L - mu) q(L) = 0; q comes from
    synthetic division and q(L) e_unit from the integer vectors L^j e_unit.
    Raises NonTransitiveError when q(L) e_unit vanishes at the unit, which
    only waived non-transitive data can do.
    """
    ensure_fpdim_ready(data, waive_transitivity)
    r = data.rank
    matrix = left_mult_matrix_from_coeffs(data, [1] * r)
    p = char_poly(matrix)
    m = min_poly(isolate_max_real_root(p))
    mu = RationalPolynomial.variable() % m
    # coefficients of q, highest degree first: q_{k-1} = p_k + mu q_k
    q = [RationalPolynomial.constant(1)]
    for c in reversed(p.coeffs[1:-1]):
        q.append(RationalPolynomial.constant(c) + (mu * q[-1]) % m)
    rows = [[int(c) for c in row] for row in matrix.rows]
    krylov = [int(i == data.unit_index) for i in range(r)]
    vec = [RationalPolynomial.zero()] * r
    for coeff in reversed(q):
        vec = [acc + coeff.scale(v) for acc, v in zip(vec, krylov)]
        krylov = [sum(a * v for a, v in zip(row, krylov)) for row in rows]
    at_unit = vec[data.unit_index]
    if at_unit.is_zero:
        raise NonTransitiveError("the Perron vector of the sum of all simples vanishes at the unit")
    inverse = _field_inverse(at_unit, m)
    return m, tuple((c * inverse) % m for c in vec)


def _field_inverse(a: RationalPolynomial, m: RationalPolynomial) -> RationalPolynomial:
    """Inverse of a nonzero a in Q[t]/(m), m irreducible, by the extended
    Euclidean algorithm (each s_i a = r_i mod m)."""
    r0, r1 = m, a
    s0, s1 = RationalPolynomial.zero(), RationalPolynomial.constant(1)
    while r1.degree > 0:
        quotient, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quotient * s1
    return s1.scale(1 / r1.coeffs[0]) % m
