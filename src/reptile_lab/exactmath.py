"""Exact arithmetic substrate.

Rationals (stdlib Fraction), dense univariate polynomials over Q, Sturm-
sequence real root counting / isolation, the one number field every
rational-angle cosine lives in, Q(cos(pi/n)) (cos(q pi) exactly for every
rational q, signs by bisecting cos(pi/n)'s interval), and exact
determinants of small matrices via fraction-free (Bareiss) elimination.

Everything here is immutable and pure; no rounding happens anywhere
except in the explicitly numeric evaluation helpers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence, Union


class RingMismatchError(TypeError):
    """Polynomial and field entries in one matrix."""


class ZeroPolynomialError(ValueError):
    """Operation undefined for the zero polynomial."""


def frac(x) -> Fraction:
    """x as a Fraction; only an int or a Fraction is taken (else TypeError)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _sign(x) -> int:
    return (x > 0) - (x < 0)


# ---------------------------------------------------------------------------
# Polynomials over Q
# ---------------------------------------------------------------------------


class Poly:
    """Dense univariate polynomial over Q, coefficients in ascending degree.

    The zero polynomial has an empty coefficient tuple; otherwise the leading
    coefficient is nonzero.
    """

    __slots__ = ("coeffs", "_sqf")  # the second is set by `_square_free_part`

    def __init__(self, coeffs: Iterable[Union[int, Fraction]] = ()):
        cs = [frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c) -> "Poly":
        return Poly([frac(c)])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __hash__(self):
        return hash(self.coeffs)

    def __eq__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*t")
            else:
                terms.append(f"{c}*t^{i}")
        return "Poly(" + " + ".join(terms) + ")"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        d, lc = other.degree, other.leading()
        for k in reversed(range(len(q))):
            # rem[k + d] is the leading coefficient left; the step cancels it
            q[k] = f = rem[k + d] / lc
            if f:
                for i, c in enumerate(other.coeffs[:d]):
                    rem[k + i] -= f * c
        return Poly(q), Poly(rem[:d])

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ArithmeticError("inexact polynomial division")
        return q

    __truediv__ = exact_div  # the division Bareiss elimination needs

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        out = x * 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    # -- gcd / square-free -------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lc = self.leading()
        return Poly([c / lc for c in self.coeffs])

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic() if not a.is_zero() else a

    def square_free_part(self) -> "Poly":
        if self.is_zero():
            raise ZeroPolynomialError("zero polynomial")
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self.monic()
        return self.exact_div(g).monic()


def _coerce_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.constant(x)
    return None


# ---------------------------------------------------------------------------
# Sturm sequences
# ---------------------------------------------------------------------------


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm chain of the square-free part of p."""
    if p.is_zero():
        raise ZeroPolynomialError("zero polynomial")
    return _chain_of_square_free(_square_free_part(p))


def _square_free_part(p: Poly) -> Poly:
    """`p.square_free_part()`, kept on p: case-a counts and isolates roots."""
    try:
        return p._sqf
    except AttributeError:
        f = p.square_free_part()
        object.__setattr__(p, "_sqf", f)
        return f


def _chain_of_square_free(f: Poly) -> list[Poly]:
    chain = [f, f.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2].divmod(chain[-1])[1]))
    chain.pop()
    return chain


# The evaluation kernel.  A polynomial is cleared to integer coefficients
# once (a positive factor keeps every sign), and its value at a/b, b > 0,
# times b^n is the homogeneous sum  sum c_i a^i b^(n-i), all in integers
# (C. Yap, Fundamental Problems of Algorithmic Algebra, OUP 2000, ch. 7).
# The point (a, b) = (+-1, 0) gives the sign at +-infinity: c_n (+-1)^n.


def _integer_coeffs(p: Poly) -> tuple[int, ...]:
    """p times a positive rational, with coprime integer coefficients."""
    den = math.lcm(*[c.denominator for c in p.coeffs])
    cs = [c.numerator * (den // c.denominator) for c in p.coeffs]
    g = math.gcd(*cs)
    return tuple(c // g for c in cs)


def _int_value(cs: Sequence[int], a: int, b: int) -> int:
    """b^n p(a/b) for b > 0, n = deg p (p's sign at +-infinity for b = 0,
    a = +-1), p given by its integer coefficients cs in ascending degree."""
    v, bk = cs[-1], 1
    for c in reversed(cs[:-1]):
        bk *= b
        v = v * a + c * bk
    return v


def _count_variations(chain: Sequence[Sequence[int]], a: int, b: int) -> tuple[int, int]:
    """(sign variations of the integer chain at a/b, sign of chain[0] there);
    zero signs are skipped."""
    signs = [_sign(_int_value(cs, a, b)) for cs in chain]
    nonzero = [s for s in signs if s]
    return sum(s != t for s, t in zip(nonzero, nonzero[1:])), signs[0]


def sturm_count(p: Poly, lo=None, hi=None) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi).

    lo=None / hi=None mean -infinity / +infinity.  Multiplicities are
    ignored (the square-free part is taken first).  Endpoint roots are
    never counted.
    """
    if p.is_zero():
        raise ZeroPolynomialError("zero polynomial")
    if lo is not None and hi is not None and frac(lo) >= frac(hi):
        raise ValueError("empty interval")
    chain = [_integer_coeffs(q) for q in sturm_chain(p)]
    a = (-1, 0) if lo is None else frac(lo).as_integer_ratio()
    b = (1, 0) if hi is None else frac(hi).as_integer_ratio()
    vb, fb = _count_variations(chain, *b)
    # V(a) - V(b) counts the roots in (a, b]
    return _count_variations(chain, *a)[0] - vb - (fb == 0)


class RootInterval(NamedTuple):
    """Isolating interval for one distinct real root.

    For a root found exactly (rational), lo == hi == the root.
    Otherwise the open interval (lo, hi) contains exactly one root.
    """

    lo: Fraction
    hi: Fraction
    exact: bool

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def _rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots, via the rational root theorem on a cleared poly."""
    if p.is_zero():
        raise ZeroPolynomialError("zero polynomial")
    roots = []
    # strip t^k
    k = next(i for i, c in enumerate(p.coeffs) if c != 0)
    if k:
        roots.append(Fraction(0))
    cs = _integer_coeffs(Poly(p.coeffs[k:]))
    if len(cs) == 1:
        return roots

    def divisors(n):
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                out.append(n // d)
            d += 1
        return sorted(set(out))

    for num in divisors(abs(cs[0])):
        for den in divisors(abs(cs[-1])):
            if math.gcd(num, den) != 1:
                continue  # the same rational as num/g over den/g
            for a in (num, -num):
                if _int_value(cs, a, den) == 0:
                    roots.append(Fraction(a, den))
    return sorted(roots)


def isolate_roots(p: Poly, precision=Fraction(1, 10000)) -> list[RootInterval]:
    """Disjoint isolating intervals (width <= precision) for all real roots.

    Rational roots are detected by exact evaluation and reported as exact
    point intervals; the remaining roots are isolated by Sturm bisection on
    open intervals with rational non-root endpoints, each narrowed until it
    also excludes every rational root.  precision must be positive.
    """
    if p.is_zero():
        raise ZeroPolynomialError("zero polynomial")
    precision = frac(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    f = _square_free_part(p)
    rational = _rational_roots(f)
    out = [RootInterval(r, r, True) for r in rational]
    for r in rational:
        f = f.exact_div(Poly([-r, 1]))
    if f.degree >= 1:
        # Cauchy bound; f has no rational roots left, so rational endpoints
        # are never roots and open-interval Sturm counts are clean.
        lc = abs(f.leading())
        bound = 1 + max(abs(c) for c in f.coeffs) / lc
        chain = [_integer_coeffs(q) for q in _chain_of_square_free(f)]
        fi = chain[0]
        vlo, slo = _count_variations(chain, -bound.numerator, bound.denominator)
        vhi = _count_variations(chain, bound.numerator, bound.denominator)[0]
        # stack entries: lo, hi, variations at lo and hi, sign of f at lo
        stack = [(-bound, bound, vlo, vhi, slo)]
        while stack:
            lo, hi, vlo, vhi, slo = stack.pop()
            cnt = vlo - vhi
            if cnt == 0:
                continue
            if cnt == 1:
                # one simple root, so f changes sign across it: bisect on
                # the sign of f alone, the same halvings the counts would
                # take.  The rational roots were divided out of f, so its
                # sign cannot see them: keep halving while one lies inside.
                while hi - lo > precision or any(lo < r < hi for r in rational):
                    mid = (lo + hi) / 2
                    s = _sign(_int_value(fi, mid.numerator, mid.denominator))
                    lo, hi = (mid, hi) if s == slo else (lo, mid)
                out.append(RootInterval(lo, hi, False))
                continue
            mid = (lo + hi) / 2
            vmid, smid = _count_variations(chain, mid.numerator, mid.denominator)
            stack.append((lo, mid, vlo, vmid, slo))
            stack.append((mid, hi, vmid, vhi, smid))
    return sorted(out, key=lambda r: r.midpoint)


# ---------------------------------------------------------------------------
# The field Q(cos(pi/n))
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def chebyshev(r: int) -> Poly:
    """T_r, with T_r(cos x) = cos(r x)."""
    t0, t1 = Poly.constant(1), Poly.x()
    if r == 0:
        return t0
    for _ in range(r - 1):
        t0, t1 = t1, Poly([0, 2]) * t1 - t0
    return t1


@lru_cache(maxsize=None)
def minimal_polynomial(n: int) -> Poly:
    """The monic minimal polynomial of cos(pi/n) over Q.

    The roots of T_n + 1 are the cos(k pi/n) with k odd, and cos(k pi/n) is
    a conjugate of cos(pi/e) for e = n/gcd(k, n), a divisor of n with n/e
    odd.  So the square-free part of T_n + 1 is the product of the minimal
    polynomials of those cos(pi/e); dividing out every e < n leaves n's.
    """
    p = (chebyshev(n) + 1).square_free_part()
    for e in range(1, n):
        if n % e == 0 and (n // e) % 2:
            p = p.exact_div(minimal_polynomial(e))
    return p


@lru_cache(maxsize=None)
def _cos_pi_interval(n: int) -> RootInterval:
    """An isolating interval of cos(pi/n), n >= 4: a window around binary64's
    cos(pi/n), halved until it holds exactly one root of the minimal
    polynomial f and none lies above it.  cos(pi/n) is the largest of its
    conjugates cos(k pi/n), k odd, so that root is cos(pi/n); f is
    irreducible of degree >= 2, so no rational endpoint is a root."""
    f = minimal_polynomial(n)
    c, w = Fraction(math.cos(math.pi / n)), Fraction(1, 2 ** 20)
    while w >= Fraction(1, 2 ** 60):
        lo, hi = c - w, c + w
        if sturm_count(f, lo, hi) == 1 and sturm_count(f, hi) == 0:
            return RootInterval(lo, hi, False)
        w /= 2
    raise ArithmeticError(f"no isolating interval for cos(pi/{n})")


class RealCyclotomic:
    """Element p(c) of the field Q(cos(pi/n)), c = cos(pi/n).

    p is a Poly over Q in c of degree below that of f, c's minimal (so
    irreducible) polynomial, reduced modulo f when it reaches f's degree:
    p(c) = 0 only for p = 0.  Elements with different n meet in the field
    of lcm(n, n'), since cos(pi/n) = T_{m/n}(cos(pi/m)) for n dividing m.
    Equal to the Fraction of the same value; unhashable, since one value
    has a representation in every field above its own.
    """

    __slots__ = ("poly", "n", "_inverse")  # the third is set by `inverse`

    def __init__(self, poly: Poly, n: int):
        f = minimal_polynomial(n)
        if poly.degree >= f.degree:
            poly = poly.divmod(f)[1]
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "n", n)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("RealCyclotomic is immutable")

    __delattr__ = __setattr__
    __hash__ = None

    def lift(self, m: int) -> "RealCyclotomic":
        """The same number in Q(cos(pi/m)), for m a multiple of n."""
        if m == self.n:
            return self
        return RealCyclotomic(self.poly(chebyshev(m // self.n)), m)

    def _polys(self, other):
        """(n, p, q): self and other as polynomials in one cos(pi/n)."""
        if isinstance(other, RealCyclotomic):
            if other.n == self.n:
                return self.n, self.poly, other.poly
            m = math.lcm(self.n, other.n)
            return m, self.lift(m).poly, other.lift(m).poly
        if isinstance(other, (int, Fraction)):
            return self.n, self.poly, Poly.constant(other)
        raise TypeError(type(other).__name__)

    def __add__(self, other):
        n, p, q = self._polys(other)
        return RealCyclotomic(p + q, n)

    __radd__ = __add__

    def __neg__(self):
        return RealCyclotomic(-self.poly, self.n)

    def __sub__(self, other):
        n, p, q = self._polys(other)
        return RealCyclotomic(p - q, n)

    def __rsub__(self, other):
        n, p, q = self._polys(other)
        return RealCyclotomic(q - p, n)

    def __mul__(self, other):
        n, p, q = self._polys(other)
        return RealCyclotomic(p * q, n)

    __rmul__ = __mul__

    def inverse(self) -> "RealCyclotomic":
        """By the extended Euclidean algorithm on p and the minimal
        polynomial f, which is irreducible: s p = r modulo f throughout,
        and the last nonzero remainder r is a constant.  Kept on the
        element: elimination divides a whole step by one pivot."""
        try:
            return self._inverse
        except AttributeError:
            pass
        r0, r1 = minimal_polynomial(self.n), self.poly
        s0, s1 = Poly(), Poly.constant(1)
        if r1.is_zero():
            raise ZeroDivisionError("inverse of zero")
        while r1.degree > 0:
            q, r = r0.divmod(r1)
            r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
        inverse = RealCyclotomic(s1 * (1 / r1.coeffs[0]), self.n)
        object.__setattr__(self, "_inverse", inverse)
        return inverse

    def __truediv__(self, other):
        if not isinstance(other, RealCyclotomic):
            other = RealCyclotomic(Poly.constant(other), self.n)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return other * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, RealCyclotomic)):
            _, p, q = self._polys(other)
            return p == q
        return NotImplemented

    def sign(self) -> int:
        """Exact sign.  With p cleared to integer coefficients c_i, c's
        isolating interval (lo, hi) is halved on the sign of f until
        |p(mid)| > L (hi - lo) / 2, L = sum i |c_i| R^(i-1) >= |p'| on
        [-R, R], R = max(1, -lo, hi): by the mean value theorem p(c) then
        has p(mid)'s sign.  It ends, since p(c) != 0."""
        p = self.poly
        if p.degree <= 0:
            return _sign(p.coeffs[0]) if p.coeffs else 0
        cs = _integer_coeffs(p)
        f = _integer_coeffs(minimal_polynomial(self.n))
        lo, hi, _ = _cos_pi_interval(self.n)
        r = max(1, -lo, hi)
        # from i = 1: at i = 0, an int r would give the float r ** -1
        bound = sum(i * abs(c) * r ** (i - 1) for i, c in enumerate(cs[1:], 1))
        f_lo = _sign(_int_value(f, *lo.as_integer_ratio()))
        while True:
            mid = (lo + hi) / 2
            a, b = mid.as_integer_ratio()
            v = _int_value(cs, a, b)  # b^d p(mid), d = deg p
            if 2 * abs(v) > bound * (hi - lo) * b ** p.degree:
                return _sign(v)
            lo, hi = (mid, hi) if _sign(_int_value(f, a, b)) == f_lo else (lo, mid)

    def __float__(self):
        # p evaluated exactly at binary64's cos(pi/n), then rounded once
        return float(self.poly(Fraction(math.cos(math.pi / self.n))))

    def __repr__(self):
        return f"RealCyclotomic({self.poly!r}, {self.n})"


@lru_cache(maxsize=None)
def cos_pi(q: Fraction):
    """cos(q pi) exactly: a Fraction when the value is rational, else an
    element of Q(cos(pi/n)) for n the denominator of q."""
    n = q.denominator
    x = RealCyclotomic(chebyshev(abs(q.numerator) % (2 * n)), n)
    if x.poly.degree > 0:
        return x
    return x.poly.coeffs[0] if x.poly.coeffs else Fraction(0)


def sign(x) -> int:
    """Exact sign of a rational or a field element: -1, 0 or 1."""
    return x.sign() if isinstance(x, RealCyclotomic) else _sign(x)


# ---------------------------------------------------------------------------
# Exact matrices and determinants
# ---------------------------------------------------------------------------

_RING_RATIONAL = "Q"
_RING_POLY = "Q[t]"


class ExactMatrix:
    """Square matrix over Q, Q[t] or Q(cos(pi/n)); rationals are coerced
    up, and field entries of different n are lifted to their lcm."""

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        entries = [e for r in rows for e in r]
        ns = {e.n for e in entries if isinstance(e, RealCyclotomic)}
        if any(isinstance(e, Poly) for e in entries):
            if ns:
                raise RingMismatchError("polynomial and field entries mixed")
            ring = _RING_POLY
            rows = [[e if isinstance(e, Poly) else Poly.constant(e) for e in r]
                    for r in rows]
        elif ns:
            m = math.lcm(*ns)
            ring = f"Q(cos(pi/{m}))"
            rows = [[e.lift(m) if isinstance(e, RealCyclotomic)
                     else RealCyclotomic(Poly.constant(e), m) for e in r] for r in rows]
        else:
            ring = _RING_RATIONAL
            rows = [[frac(e) for e in r] for r in rows]
        self.n = n
        self.rows = tuple(tuple(r) for r in rows)
        self.ring = ring

    def det(self):
        """Exact determinant via fraction-free (Bareiss) elimination.

        All intermediate divisions are exact in the coefficient ring, so no
        fractions of polynomials ever appear and nothing is rounded.
        """
        return self._elimination[0]

    def leading_minors(self):
        """Leading principal minors of orders 1..n, the pivots of the
        elimination `det` runs (computed once per matrix).

        None when a leading minor below order n vanishes: the elimination
        then swaps rows, and its later pivots are minors of another matrix.
        """
        return self._elimination[1]

    def minor(self, rows: Sequence[int], cols: Sequence[int]):
        """Determinant of the submatrix on these row and column indices,
        by the same elimination as `det`; the empty minor is 1."""
        sub = [[self.rows[i][j] for j in cols] for i in rows]
        return _bareiss(sub)[0]

    @cached_property
    def _elimination(self):
        return _bareiss(self.rows)


def _bareiss(rows):
    """(determinant, leading principal minors or None) of a square matrix."""
    n = len(rows)
    a = [list(r) for r in rows]
    if n == 0:
        return Fraction(1), []
    zero = a[0][0] * 0
    sign = 1
    prev = None
    minors = []
    for k in range(n - 1):
        if a[k][k] == 0:
            minors = None
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return zero, None
        elif minors is not None:
            minors.append(a[k][k])
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num if prev is None else num / prev
            a[i][k] = zero
        prev = a[k][k]
    d = a[n - 1][n - 1]
    if minors is not None:
        minors.append(d)
    return (d if sign == 1 else -d), minors

