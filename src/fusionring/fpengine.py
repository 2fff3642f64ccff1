"""Exact Frobenius-Perron machinery.

Left-multiplication matrices read off the sparse product index, Perron
roots certified by constant line sums (perron_root) where they can be,
characteristic polynomials by Hessenberg reduction modulo a Mersenne prime,
Sturm-certified isolation of the maximal real root, minimal polynomials, and
a deliberately small algebra of exact values (rationals and isolated
algebraic numbers).

Every FPdim produced here is an AlgebraicNumber: a monic defining polynomial
plus a rational isolating interval certified to contain exactly one real
root.  A rational is the point of t - c that _point makes, any other value
an interval around an irrational root, so "FPdim(V) = 2 exactly" is a plain
equality and no caller asks again.  _collapse, the one rational-root search
in an isolating cell, decides it where values are made, and _positive
refuses a non-positive operand of a product or reciprocal.  Sturm counts isolate a root;
quadratic interval refinement (J. Abbott, "Quadratic Interval Refinement for
Real Roots", 2006) narrows it, with secant steps certified by the signs of
the integer polynomial at grid points.  It returns the interval bisection
would, after a number of evaluations that grows with the logarithm of the
bits asked for rather than with the bits.

perron_data gives the whole regular element at once, exactly, in the ring's
Perron field K = Q(mu), mu = FPdim(sum of simples), and keeps it in
integers: mu is an algebraic integer, so its minimal polynomial m is monic
in Z[t], and the unnormalised Perron vector W has coordinates in Z[mu].
Products reduce by the monic m without division (field_matrix, field_apply;
Cohen, A Course in Computational Algebraic Number Theory, 4.2), and checks
compare R = W / W_unit through identities homogeneous in W.  The data are
built once per ring and kept on it; perron_vector is the normalised
Fraction view for messages and tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Optional, Sequence, Union

from .core import FusionData, MultisetElement
from .errors import (
    NonTransitiveError,
    NoRealRootError,
    NotFusionError,
    ResourceLimitError,
    UnrepresentableError,
)
from .factor import factor_squarefree_rational, rational_roots_between
from .poly import (
    RationalPolynomial,
    cauchy_root_bound,
    count_real_roots,
    homogeneous_value,
    rat,
    sign_at,
    sign_variations,
    sturm_chain,
)
from .report import Record
from .validate import check_transitivity

Rat = Union[int, Fraction]


# ---------------------------------------------------------------------------
# exact matrices


class RationalMatrix(Record):
    """Square matrix over Q; integral entries are stored as int, the others
    as Fraction."""

    rows: tuple[tuple[Rat, ...], ...]

    def __init__(self, rows: Sequence[Sequence[Rat]]) -> None:
        rows = tuple(tuple(map(rat, row)) for row in rows)
        vars(self).update(rows=rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square and nonempty")

    @property
    def size(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def left_mult_matrix(x: MultisetElement) -> RationalMatrix:
    """Matrix of left multiplication by x in the basis of simples; column j
    holds the coordinates of x * (basis j)."""
    return left_mult_matrix_from_coeffs(x.data, x.coeffs)


def left_mult_matrix_from_coeffs(data: FusionData, coeffs: Sequence[Rat]) -> RationalMatrix:
    """Matrix of left multiplication by sum_k coeffs[k] * (basis k), read off
    the sparse product index; entries are accumulated as Python ints unless
    a coefficient is a Fraction, and every integral entry is stored as int."""
    r = data.rank
    cols: list[list[Rat]] = [[0] * r for _ in range(r)]
    for k, c in enumerate(coeffs):
        if not c:
            continue
        for col, pairs in zip(cols, data.products[k]):
            for i, m in pairs:
                col[i] += c * m
    return RationalMatrix(tuple(zip(*cols)))


#: Mersenne primes 2^k - 1, the moduli of char_poly, smallest first
MERSENNE_PRIMES = tuple(
    2**k - 1 for k in (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941)
)


def char_poly(m: RationalMatrix) -> RationalPolynomial:
    """Monic characteristic polynomial det(tI - M), computed modulo a prime.

    With d the common denominator of M's entries and rho the largest
    absolute row sum of dM, each coefficient of det(tI - dM) is at most
    (1 + rho)^n in absolute value (that of t^(n-k) sums C(n, k) principal
    k-minors, each at most rho^k).  So det(tI - dM) is computed modulo the
    least P in MERSENNE_PRIMES above 2 (1 + rho)^n (von zur Gathen and
    Gerhard, Modern Computer Algebra, 5.5), read as symmetric residues and
    scaled back to M's roots; a larger bound raises ResourceLimitError
    before any reduction.  dM mod P is brought to upper Hessenberg form H by
    similarity transforms (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.2.9), each column's pivot swapped onto the subdiagonal
    and the entries below it eliminated.  The leading principal minors
    p_k = det(tI - H[:k, :k]) then satisfy

        p_k = (t - h[k-1][k-1]) p_{k-1}
              - sum_{i<k-1} h[i][k-1] * h[i+1][i] ... h[k-1][k-2] * p_i

    and p_n is the result: O(n^3) operations on residues.
    """
    n = m.size
    d = lcm(*{c.denominator for row in m.rows for c in row})
    h = [list(row) if d == 1 else [c.numerator * d // c.denominator for c in row] for row in m.rows]
    bound = 2 * (1 + max(sum(map(abs, row)) for row in h)) ** n
    prime = next((q for q in MERSENNE_PRIMES if q > bound), None)
    if prime is None:
        raise ResourceLimitError(f"char poly coefficients may need {bound.bit_length()} bits")
    # entries of dM lie in (-P, P), so each is 0 mod P only if 0; every
    # entry the reduction writes is reduced
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
        inverse = pow(pivot_row[c], -1, prime)
        for i in range(p + 1, n):
            row_i = h[i]
            if not row_i[c]:
                continue
            u = row_i[c] * inverse % prime
            for j in range(c, n):
                if pivot_row[j]:
                    row_i[j] = (row_i[j] - u * pivot_row[j]) % prime
            for row in h:
                if row[i]:
                    row[p] = (row[p] + u * row[i]) % prime
    polys = [[1]]
    for k in range(n):
        prev = polys[k]
        nxt = [0] + prev
        for e, a in enumerate(prev):
            nxt[e] -= h[k][k] * a
        sub = 1
        for i in range(k - 1, -1, -1):
            sub = sub * h[i + 1][i] % prime
            if not sub:
                break
            w = sub * h[i][k]
            if w:
                for e, a in enumerate(polys[i]):
                    nxt[e] -= w * a
        polys.append([a % prime for a in nxt])
    chi = RationalPolynomial([c - prime if 2 * c > prime else c for c in polys[n]])
    return chi if d == 1 else chi.scale_root(Fraction(1, d))


# ---------------------------------------------------------------------------
# algebraic numbers


class AlgebraicNumber(Record):
    """A real algebraic number: monic defining polynomial plus a rational
    interval certified to contain exactly one of its real roots (Sturm count
    1, and a sign change of the polynomial across it).  A rational is the
    point (lo == hi) of t - c, and any other interval holds an irrational
    root: the constructor checks its arguments, then stores a rational root
    as that point.  `AlgebraicNumber._certified` skips the check, for
    Fraction ends certified where they were made: by the Sturm count that
    found them, as a subcell of a certified interval or its image under
    x -> c x or x -> 1/x, or as the point of t - c."""

    poly: RationalPolynomial
    lo: Fraction
    hi: Fraction

    def __init__(self, poly: RationalPolynomial, lo: Rat, hi: Rat) -> None:
        vars(self).update(poly=poly, lo=Fraction(lo), hi=Fraction(hi))
        if not self.poly.is_monic:
            raise ValueError("defining polynomial must be monic")
        if self.lo > self.hi:
            raise ValueError("empty isolating interval")
        chain = sturm_chain(self.poly)
        s_lo, s_hi = _sign(chain[0], self.lo), _sign(chain[0], self.hi)
        if self.lo == self.hi:
            if s_lo:
                raise ValueError("point interval does not sit on a root")
        elif not s_lo or not s_hi:
            raise ValueError("isolating interval endpoints must not be roots")
        elif s_lo == s_hi:
            raise ValueError("defining polynomial does not change sign across the interval")
        elif count_real_roots(chain, self.lo, self.hi) != 1:
            raise ValueError("interval does not isolate exactly one real root")
        root = self.lo if self.is_point else _collapse(chain[0], self.lo, self.hi)[2]
        if root is not None:
            vars(self).update(vars(_point(root)))

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
        """The double nearest the root: the interval is refined until both
        ends round to the same double."""
        x = self
        while float(x.lo) != float(x.hi):
            x = refine(x, x.width / 2**64)
        return float(x.lo)

    def scaled(self, c: Rat) -> "AlgebraicNumber":
        """Exact product with a nonzero rational; self itself for c = 1."""
        c = Fraction(c)
        if c == 1:
            return self
        if c == 0:
            raise ValueError("scaling an algebraic number by zero loses the field")
        lo, hi = (c * self.lo, c * self.hi) if c > 0 else (c * self.hi, c * self.lo)
        return AlgebraicNumber._certified(self.poly.scale_root(c), lo, hi)

    def cmp_rational(self, c: Rat) -> int:
        """Exact three-way comparison with a rational."""
        c = Fraction(c)
        if self.is_point:
            return (self.lo > c) - (self.lo < c)
        if c < self.lo:
            return 1
        if c > self.hi:
            return -1
        f = sturm_chain(self.poly)[0]  # the root is where f changes sign
        return 1 if _sign(f, c) == _sign(f, self.lo) else -1

    def __str__(self) -> str:
        if self.is_point:
            return str(self.lo)
        return f"root of {self.poly} in [{self.lo}, {self.hi}]"


def _sign(f: Sequence[int], x: Fraction) -> int:
    """Sign at x of the integer polynomial f."""
    return sign_at(f, x.numerator, x.denominator)


def _refine_on_grid(
    f: tuple[int, ...], lo: Fraction, hi: Fraction, width: Rat
) -> tuple[Fraction, Fraction]:
    """The result of bisecting the one sign change of the integer polynomial
    f in (lo, hi) down to `width`, reached by quadratic interval refinement
    (J. Abbott, "Quadratic Interval Refinement for Real Roots", 2006; Kerber
    and Sagraloff, ISSAC 2011).

    Bisection would make the least n halvings with (hi - lo)/2^n <= width and
    return the cell of level n of the grid lo + j (hi - lo)/2^n that holds
    the root, or the point (x, x) when the root x is a grid point of level at
    most n (a midpoint it evaluates).  The interval here is always a cell of
    that grid, of level L: its ends are a/den and (a + g)/den, and the
    integer values den^d f at them are kept.  Each step splits the cell
    into N = 2^s subcells, s <= n - L.  The secant through the two values
    picks the grid point nearest its root; the sign there says on which
    side of it the root lies, and the sign at the neighbouring point on
    that side certifies the subcell between them.  On success the cell
    becomes that subcell and N squares; on failure the step is one plain
    bisection and N shrinks to its square root.  A tested point where f
    vanishes is the root, on the grid at level <= n, and is returned as a
    point.  Every decision is a sign, so the result is bisection's to the
    bit, after O(log n) steps once the secant converges instead of n."""
    den = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    g = hi.numerator * (den // hi.denominator) - a
    # n: the least n with 2^n >= ceil(g / (den width)), so g / (den 2^n) <= width
    n = (-(-g * width.denominator // (width.numerator * den)) - 1).bit_length()
    d = len(f) - 1
    fa, fb = homogeneous_value(f, a, den), homogeneous_value(f, a + g, den)
    positive = fa > 0
    level, s = 0, 1
    while level < n:
        s = min(s, n - level)
        subcells, shift = 1 << s, s * d
        a_s, den_s = a << s, den << s

        def value(i: int) -> int:
            if i == 0:
                return fa << shift
            if i == subcells:
                return fb << shift
            return homogeneous_value(f, a_s + i * g, den_s)

        u, v = abs(fa), abs(fb)
        m = (2 * subcells * u + u + v) // (2 * (u + v))
        fm = value(m)
        if fm == 0:
            return Fraction(a_s + m * g, den_s), Fraction(a_s + m * g, den_s)
        # f changes sign across the cell, so 0 <= j < subcells
        j = m if (fm > 0) == positive else m - 1
        k = m + 1 if j == m else j
        fk = value(k)
        if fk == 0:
            return Fraction(a_s + k * g, den_s), Fraction(a_s + k * g, den_s)
        fl, fr = (fm, fk) if j == m else (fk, fm)
        if (fl > 0) == positive and (fr > 0) != positive:
            a, den, fa, fb = a_s + j * g, den_s, fl, fr
            level += s
            s *= 2
            continue
        s = max(1, s // 2)
        mid = 2 * a + g
        a, den = 2 * a, 2 * den
        f_mid = homogeneous_value(f, mid, den)
        if f_mid == 0:
            return Fraction(mid, den), Fraction(mid, den)
        if (f_mid > 0) == positive:
            a, fa, fb = mid, f_mid, fb << d
        else:
            fa, fb = fa << d, f_mid
        level += 1
    return Fraction(a, den), Fraction(a + g, den)


def isolate_max_real_root(p: RationalPolynomial) -> AlgebraicNumber:
    """Certified isolation of the largest real root of p.

    Works on the squarefree part, narrows by Sturm counts until one root
    remains in (lo, hi], then _collapse narrows the cell on the sign of the
    polynomial and makes a rational root, on hi or inside, an exact point;
    refine narrows the result further.  The narrowing carries the sign
    variations at its endpoints, so each halving evaluates the chain once.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no isolated roots")
    q = p.squarefree_part()
    if q.degree < 1:
        raise NoRealRootError("constant polynomial has no real root")
    chain = sturm_chain(q)
    bound = cauchy_root_bound(q) + 1
    lo, hi = -bound, bound
    # hi only ever moves down across a stretch free of roots, so V(hi) stays
    v_lo, v_hi = sign_variations(chain, lo), sign_variations(chain, hi)
    if v_lo == v_hi:
        raise NoRealRootError(f"{p} has no real root")
    # keep the maximal root in (lo, hi], shed the others
    while v_lo - v_hi > 1:
        mid = (lo + hi) / 2
        v_mid = sign_variations(chain, mid)
        if v_mid > v_hi:
            lo, v_lo = mid, v_mid
        else:
            hi = mid
    # clear a smaller root stranded exactly on lo (the one kept may sit on hi)
    while _sign(chain[0], lo) == 0:
        mid = (lo + hi) / 2
        if sign_variations(chain, mid) - v_hi == 1:
            lo = mid
        else:
            hi = mid
    lo, hi, root = _collapse(chain[0], lo, hi)
    return AlgebraicNumber._certified(q, lo, hi) if root is None else _point(root)


def _point(c: Fraction) -> AlgebraicNumber:
    """The rational c as an exact point, defined by t - c: every point the
    package makes, so equal rationals are equal records."""
    return AlgebraicNumber._certified(RationalPolynomial((-c, 1)), c, c)


def _collapse(
    f: tuple[int, ...], lo: Fraction, hi: Fraction
) -> tuple[Fraction, Fraction, Optional[Fraction]]:
    """(lo', hi', root): the integer polynomial f's one sign change in
    (lo, hi) narrowed on the grid to 16 over lc(f), a cell where
    rational_roots_between tries all of the at most 17 numerators per
    denominator the rational root theorem allows, and the rational root
    there or None; a point the grid lands on is the root."""
    lo, hi = _refine_on_grid(f, lo, hi, Fraction(16, f[-1]))
    roots = [lo] if lo == hi else rational_roots_between(f, lo, hi)
    return lo, hi, roots[0] if roots else None


def _positive(v: AlgebraicNumber, refusal: str) -> AlgebraicNumber:
    """v, refined until its interval lies above 0; UnrepresentableError
    with the message `refusal` unless v > 0."""
    if v.cmp_rational(0) <= 0:
        raise UnrepresentableError(refusal)
    while v.lo <= 0:
        v = refine(v, v.width / 2)
    return v


def refine(alpha: AlgebraicNumber, width: Fraction) -> AlgebraicNumber:
    """Same root, interval width at most `width`; idempotent on points.  An
    interval holds an irrational root, which no grid point hits."""
    width = Fraction(width)
    if width <= 0:
        raise ValueError("target width must be positive")
    if alpha.is_point or alpha.width <= width:
        return alpha
    lo, hi = _refine_on_grid(sturm_chain(alpha.poly)[0], alpha.lo, alpha.hi, width)
    return AlgebraicNumber._certified(alpha.poly, lo, hi)


@lru_cache(maxsize=512)
def min_poly(alpha: AlgebraicNumber) -> RationalPolynomial:
    """Monic irreducible rational polynomial with alpha as a root; t - v for
    a rational point v."""
    if alpha.is_point:
        return alpha.poly
    for g in factor_squarefree_rational(alpha.poly):
        f = g.to_integer_coeffs()  # only the factor with the root changes sign
        if _sign(f, alpha.lo) != _sign(f, alpha.hi):
            return g
    raise AssertionError("defining polynomial lost its root")  # pragma: no cover


def algebraic_equal(a: AlgebraicNumber, b: AlgebraicNumber) -> bool:
    """Exact equality: equal minimal polynomials and a common isolating
    interval containing a root."""
    if a.is_point or b.is_point:
        return a == b
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
    genuinely irrational product goes through the composed product in
    mul_algebraic."""
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
        # never both points: two overlapping points are equal, answered above
        w = max(x.width, y.width) / 2
        x, y = refine(x, w), refine(y, w)
    return -1 if x.hi < y.lo else 1


def _power_sums(p: RationalPolynomial, n: int) -> list[Rat]:
    """s_0 .. s_n, s_k the sum of the k-th powers of the roots of monic p, by
    Newton's identities s_k = -(k a_k + sum_{0<i<k} a_i s_{k-i}), a_i the
    coefficient of t^(d-i) (0 past d)."""
    d = p.degree
    a = p.coeffs[::-1] + (0,) * n
    s: list[Rat] = [d]
    for k in range(1, n + 1):
        s.append(-(k * a[k] + sum(a[i] * s[k - i] for i in range(1, min(k, d + 1)))))
    return s


def _composed_product(pa: RationalPolynomial, pb: RationalPolynomial) -> RationalPolynomial:
    """prod (t - alpha beta) over the roots alpha of monic pa and beta of pb,
    that is char_poly of the Kronecker product of their companion matrices.
    The power sums of the products are s_k(alpha) s_k(beta), and Newton's
    identities give back the coefficients, exactly in Q (Bostan, Flajolet,
    Salvy and Schost, "Fast computation of special resultants", 2006)."""
    n = pa.degree * pb.degree
    s = list(map(mul, _power_sums(pa, n), _power_sums(pb, n)))
    c: list[Rat] = [1]  # c[k]: the coefficient of t^(n-k)
    for k in range(1, n + 1):
        c.append(rat(Fraction(-sum(c[i] * s[k - i] for i in range(k)), k)))
    return RationalPolynomial(c[::-1])


def mul_algebraic(a: AlgebraicNumber, b: AlgebraicNumber) -> ExactValue:
    """Exact product of two positive algebraic numbers; a point factor is a
    rational scaling (exact_mul).

    The product is a root of the composed product of the minimal
    polynomials; the isolating interval is the product interval, refined
    until it certifies a single root.  No degree is capped: the cost grows
    with deg(a) deg(b), the degree of the composed product.
    """
    if a.is_point or b.is_point:
        return exact_mul(a, b)
    refusal = "products are only formed for positive values"
    x, y = _positive(a, refusal), _positive(b, refusal)
    prod_poly = _composed_product(min_poly(a), min_poly(b)).squarefree_part()
    chain = sturm_chain(prod_poly)
    while True:
        lo, hi = x.lo * y.lo, x.hi * y.hi
        if _sign(chain[0], lo) and _sign(chain[0], hi) and count_real_roots(chain, lo, hi) == 1:
            break
        x, y = refine(x, x.width / 2), refine(y, y.width / 2)
    # an irrational product keeps the product interval, not the narrowed cell
    root = _collapse(chain[0], lo, hi)[2]
    return AlgebraicNumber._certified(prod_poly, lo, hi) if root is None else root


def exact_square(v: Union[Rat, AlgebraicNumber]) -> ExactValue:
    return exact_mul(v, v)


def reciprocal(v: Union[Rat, AlgebraicNumber]) -> ExactValue:
    """Exact 1/v for a positive exact value.  For an algebraic number the
    reversed defining polynomial t^d p(1/t), made monic, defines the
    reciprocal: x -> 1/x maps its one root in (lo, hi), lo > 0, to the one
    in (1/hi, 1/lo), with the sign change kept."""
    v = normalize_value(v)
    if isinstance(v, Fraction):
        if v == 0:
            raise ZeroDivisionError("reciprocal of zero")
        return 1 / v
    v = _positive(v, "reciprocal is only formed for positive values")
    q = RationalPolynomial(reversed(v.poly.coeffs)).monic()
    return AlgebraicNumber._certified(q, 1 / v.hi, 1 / v.lo)


# ---------------------------------------------------------------------------
# Frobenius-Perron dimensions


@lru_cache(maxsize=128)
def _is_transitive(data: FusionData) -> bool:
    return check_transitivity(data).passed


def ensure_fpdim_ready(data: FusionData) -> None:
    """FPdim is defined for transitive fusion data only; refuse anything else.
    Fusion data that passes check_structural is transitive (x*.x contains
    the unit, so y <= (y.x*).x and y <= x.(x*.y)).  So a passed structural
    report kept on the ring answers first; it is read, never built, and only
    data without one is checked, by _is_transitive."""
    if not data.is_fusion:
        raise NotFusionError("FPdim is only defined when the unit is simple")
    structural = data._kept("structural")
    if structural is not None and structural.passed:
        return
    if not _is_transitive(data):
        raise NonTransitiveError("data is not transitive; FPdim is not well-behaved there")


def fpdim_element(x: MultisetElement) -> AlgebraicNumber:
    """Maximal nonnegative eigenvalue of the left-multiplication matrix of x,
    by perron_root: the point c when its row or column sums all equal c
    (invertible and other integral simples, mostly), else isolated by
    isolate_max_real_root only as far as the rational-root check needs (a
    rational FPdim is still a point); refine narrows it.

    For basis elements the characteristic polynomial is monic with integer
    coefficients, so the result is an algebraic integer by construction.
    """
    ensure_fpdim_ready(x.data)
    return perron_root(left_mult_matrix(x))


def perron_root(matrix: RationalMatrix) -> AlgebraicNumber:
    """The largest real eigenvalue of a nonnegative matrix M, as
    isolate_max_real_root(char_poly(M)) gives it.

    When every row sum of M, or every column sum, is one number c, the
    all-ones vector is a positive eigenvector of M or of its transpose, so c
    is the Perron root (Collatz-Wielandt), and by Perron-Frobenius the
    largest real eigenvalue even of a reducible M.  Then the result is the
    point c, defined by t - c, with no char poly, the point the char poly
    path would collapse to.
    """
    c = _line_sum_root(matrix)
    if c is not None:
        return _point(c)
    return isolate_max_real_root(char_poly(matrix))


def _line_sum_root(matrix: RationalMatrix) -> Optional[Fraction]:
    """The Perron root c of perron_root when M is nonnegative and all its row
    sums, or all its column sums, equal c; else None."""
    rows = matrix.rows
    if all(c >= 0 for row in rows for c in row):
        for sums in (set(map(sum, rows)), set(map(sum, zip(*rows)))):
            if len(sums) == 1:
                return Fraction(sums.pop())
    return None


#: (m, W) of perron_data: ascending integer coefficients of m, and per simple
#: the deg m integer coefficients of W_x in Z[mu]
PerronData = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


def perron_data(data: FusionData) -> PerronData:
    """(m, W): the ring's Perron field and regular element, in integers,
    built once per ring and kept on it (FusionData._fact; the transitivity
    gate runs on every call).

    mu = FPdim(t), t = Sum of all simples, is an algebraic integer, so its
    minimal polynomial m is monic with integer coefficients (m[-1] == 1) and
    Z[mu] = Z[t]/(m).  When the line sums of left multiplication L by t
    certify mu as an integer, as in perron_root, m = t - mu; otherwise
    isolate_max_real_root isolates mu, which is as far as picking the factor
    m of char_poly(L) needs.  W = q(L) e_unit is the unnormalised Perron
    vector of L, each W_x a polynomial in mu of degree below deg m with
    integer coefficients.  On transitive data L is strictly
    positive, so mu is a simple eigenvalue of p = char_poly(L) with a
    strictly positive eigenvector, and q = p/(t - mu) over K: q(L) kills
    every other generalised eigenspace and acts on mu's by q(mu) = p'(mu),
    which is not 0, so W is a nonzero multiple of the Perron vector and
    nonzero at every simple, the unit included.  Only transitive data gets
    here (ensure_fpdim_ready).  q comes from synthetic division and
    q(L) e_unit from the integer vectors L^j e_unit.  The regular element is
    R = W / W_unit in K = Q(mu), so every equality of R-expressions that is
    homogeneous in R is decided on W with no inverse and no Fraction.
    """
    ensure_fpdim_ready(data)
    return data._fact("perron_data", _perron_data)


def _perron_data(data: FusionData) -> PerronData:
    r = data.rank
    matrix = left_mult_matrix_from_coeffs(data, [1] * r)
    p = char_poly(matrix)
    mu = _line_sum_root(matrix)
    if mu is not None:  # an integer, as L has integer entries
        m = (-int(mu), 1)
    else:
        m = tuple(int(c) for c in min_poly(isolate_max_real_root(p)).coeffs)
    # coefficients of q, highest degree first: q_{k-1} = p_k + mu q_k
    q = [(1,) + (0,) * (len(m) - 2)]
    for c in reversed(p.coeffs[1:-1]):
        nxt = _times_mu(q[-1], m)
        nxt[0] += int(c)
        q.append(nxt)
    krylov = [int(i == data.unit_index) for i in range(r)]
    w = [[0] * (len(m) - 1) for _ in range(r)]
    for coeff in reversed(q):
        for acc, v in zip(w, krylov):
            if v:
                for k, a in enumerate(coeff):
                    acc[k] += v * a
        krylov = [sum(map(mul, row, krylov)) for row in matrix.rows]
    return m, tuple(map(tuple, w))


def _times_mu(a: Sequence[int], m: Sequence[int]) -> list[int]:
    """mu a in Z[t]/(m), m monic: shift, then cancel the top with m."""
    top = a[-1]
    out = [0, *a[:-1]]
    if top:
        for k, c in enumerate(m[:-1]):
            out[k] -= top * c
    return out


def field_matrix(a: Sequence[int], m: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Rows of the integer matrix of multiplication by a in Z[t]/(m), m
    monic: column j holds t^j a, so the product a b is field_apply(., b)."""
    cols = [list(a)]
    for _ in range(len(m) - 2):
        cols.append(_times_mu(cols[-1], m))
    return tuple(zip(*cols))


def field_apply(matrix: Sequence[Sequence[int]], b: Sequence[int]) -> tuple[int, ...]:
    """The product a b in Z[t]/(m) for matrix = field_matrix(a, m)."""
    return tuple(sum(map(mul, row, b)) for row in matrix)


def field_mul(a: Sequence[int], b: Sequence[int], m: Sequence[int]) -> tuple[int, ...]:
    """a b in Z[t]/(m), m monic."""
    return field_apply(field_matrix(a, m), b)


def perron_vector(data: FusionData) -> tuple[RationalPolynomial, tuple[RationalPolynomial, ...]]:
    """(m, R): the regular element R = W / W_unit of perron_data, normalised
    to 1 at the unit.  Each R_X, equal to FPdim(X)/eps_X on valid data, is
    an element of K = Q[t]/(m) written as a polynomial in mu of degree below
    deg m.  A view for messages and tests; the checks read W."""
    m, w = perron_data(data)
    m_poly = RationalPolynomial(m)
    inverse = _field_inverse(RationalPolynomial(w[data.unit_index]), m_poly)
    return m_poly, tuple((RationalPolynomial(c) * inverse) % m_poly for c in w)


def _field_inverse(a: RationalPolynomial, m: RationalPolynomial) -> RationalPolynomial:
    """Inverse of a nonzero a in Q[t]/(m), m irreducible, by the extended
    Euclidean algorithm (each s_i a = r_i mod m)."""
    r0, r1 = m, a
    s0, s1 = RationalPolynomial.zero(), RationalPolynomial.constant(1)
    while r1.degree > 0:
        quotient, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quotient * s1
    return s1.scale(Fraction(1, r1.coeffs[0])) % m
