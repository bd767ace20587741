"""Exact arithmetic substrate.

Rationals (stdlib Fraction), dense univariate polynomials over Q,
quadratic field elements a + b*sqrt(m), exact determinants of small
matrices via fraction-free (Bareiss) elimination, and Sturm-sequence
real root counting / isolation.

Everything here is immutable and pure; no rounding happens anywhere
except in the explicitly numeric evaluation helpers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence, Union

Rational = Fraction


class RingMismatchError(TypeError):
    """Operands live in different coefficient rings (e.g. sqrt(2) vs sqrt(5))."""


class ZeroPolynomialError(ValueError):
    """Operation undefined for the zero polynomial."""


def _frac(x) -> Fraction:
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

    __slots__ = ("coeffs", "_square_free")  # the second is set by `_square_free_part`

    def __init__(self, coeffs: Iterable[Union[int, Fraction]] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c) -> "Poly":
        return Poly([_frac(c)])

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

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = Poly.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        d, lc = other.degree, other.leading()
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = rem[-1] / lc
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            rem.pop()
        return Poly(q), Poly(rem)

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ArithmeticError("inexact polynomial division")
        return q

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
    """`p.square_free_part()`, computed once per polynomial and kept on it:
    case-a both counts and isolates the roots of each determinant."""
    try:
        return p._square_free
    except AttributeError:
        f = p.square_free_part()
        object.__setattr__(p, "_square_free", f)
        return f


def _chain_of_square_free(f: Poly) -> list[Poly]:
    chain = [f, f.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2].divmod(chain[-1])[1]))
    chain.pop()
    return chain


# The sign kernel.  A polynomial is cleared to integer coefficients once (a
# positive factor keeps every sign), and its sign at a/b, b > 0, is the sign
# of the homogeneous sum  sum c_i a^i b^(n-i) = b^n p(a/b), all in integers
# (C. Yap, Fundamental Problems of Algorithmic Algebra, OUP 2000, ch. 7).
# The point (a, b) = (+-1, 0) gives the sign at +-infinity: c_n (+-1)^n.


def _integer_coeffs(p: Poly) -> tuple[int, ...]:
    """p times a positive rational, with coprime integer coefficients."""
    den = math.lcm(*[c.denominator for c in p.coeffs])
    cs = [c.numerator * (den // c.denominator) for c in p.coeffs]
    g = math.gcd(*cs)
    return tuple(c // g for c in cs)


def _int_sign(cs: Sequence[int], a: int, b: int) -> int:
    """Sign of p(a/b) for b > 0 (or of p at +-infinity for b = 0, a = +-1),
    p given by its integer coefficients cs in ascending degree."""
    v, bk = cs[-1], 1
    for c in reversed(cs[:-1]):
        bk *= b
        v = v * a + c * bk
    return (v > 0) - (v < 0)


def _count_variations(chain: Sequence[Sequence[int]], a: int, b: int) -> tuple[int, int]:
    """(sign variations of the integer chain at a/b, sign of chain[0] there);
    zero signs are skipped."""
    signs = [_int_sign(cs, a, b) for cs in chain]
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
    if lo is not None and hi is not None and _frac(lo) >= _frac(hi):
        raise ValueError("empty interval")
    chain = [_integer_coeffs(q) for q in sturm_chain(p)]
    a = (-1, 0) if lo is None else _frac(lo).as_integer_ratio()
    b = (1, 0) if hi is None else _frac(hi).as_integer_ratio()
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
                if _int_sign(cs, a, den) == 0:
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
    precision = _frac(precision)
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
                    if _int_sign(fi, mid.numerator, mid.denominator) == slo:
                        lo = mid
                    else:
                        hi = mid
                out.append(RootInterval(lo, hi, False))
                continue
            mid = (lo + hi) / 2
            vmid, smid = _count_variations(chain, mid.numerator, mid.denominator)
            stack.append((lo, mid, vlo, vmid, slo))
            stack.append((mid, hi, vmid, vhi, smid))
    return sorted(out, key=lambda r: r.midpoint)


# ---------------------------------------------------------------------------
# Quadratic field Q(sqrt(m))
# ---------------------------------------------------------------------------


def _square_free(m: int) -> bool:
    """m > 1 and no square above 1 divides m.  Q(sqrt 1) is Q itself,
    whose elements stay Fractions."""
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % (d * d) == 0:
            return False
        d += 1
    return True


class QuadExt:
    """Element a + b*sqrt(m) of Q(sqrt(m)), m square-free and m > 1."""

    __slots__ = ("a", "b", "m")

    def __init__(self, a: Fraction, b: Fraction, m: int):
        a, b = _frac(a), _frac(b)
        if not _square_free(m):
            raise ValueError(f"field tag {m} is not square-free and above 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "m", m)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("QuadExt is immutable")

    __delattr__ = __setattr__

    def _match(self, other) -> "QuadExt":
        if isinstance(other, (int, Fraction)):
            return QuadExt(_frac(other), Fraction(0), self.m)
        if isinstance(other, QuadExt):
            if other.m != self.m:
                raise RingMismatchError(f"sqrt({self.m}) vs sqrt({other.m})")
            return other
        raise TypeError(type(other).__name__)

    def __add__(self, other):
        o = self._match(other)
        return QuadExt(self.a + o.a, self.b + o.b, self.m)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.m)

    def __sub__(self, other):
        return self + (-self._match(other))

    def __rsub__(self, other):
        return self._match(other) - self

    def __mul__(self, other):
        o = self._match(other)
        return QuadExt(self.a * o.a + self.m * self.b * o.b,
                       self.a * o.b + self.b * o.a, self.m)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        n = self.a * self.a - self.m * self.b * self.b
        if n == 0:
            # a^2 = m b^2 with m square-free > 1 forces a = b = 0
            raise ZeroDivisionError("inverse of zero")
        return QuadExt(self.a / n, -self.b / n, self.m)

    def __truediv__(self, other):
        return self * self._match(other).inverse()

    def __rtruediv__(self, other):
        return self._match(other) * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            if other.m != self.m:
                return self.b == 0 == other.b and self.a == other.a
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.m))

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(m): -1, 0 or 1.

        With a and b of opposite signs, |a| and |b|*sqrt(m) compare as
        a^2 and m*b^2, so the sign of a^2 - m*b^2 says which term wins.
        """
        sa, sb = _sign(self.a), _sign(self.b)
        if sa == sb or sb == 0:
            return sa
        if sa == 0:
            return sb
        return sa * _sign(self.a * self.a - self.m * self.b * self.b)

    def __float__(self):
        # binary64 evaluation: two roundings (sqrt and the fma-less combine);
        # error is a few ulp, far below the 1e-9 tolerances used downstream.
        return float(self.a) + float(self.b) * math.sqrt(self.m)

    def __repr__(self):
        return f"QuadExt({self.a} + {self.b}*sqrt({self.m}))"


def sign(x) -> int:
    """Exact sign of a rational or quadratic-field element: -1, 0 or 1."""
    return x.sign() if isinstance(x, QuadExt) else _sign(x)


# ---------------------------------------------------------------------------
# Exact matrices and determinants
# ---------------------------------------------------------------------------

_RING_RATIONAL = "Q"
_RING_POLY = "Q[t]"


def _ring_of(entries) -> str:
    has_poly = any(isinstance(e, Poly) for row in entries for e in row)
    quad_ms = {e.m for row in entries for e in row if isinstance(e, QuadExt)}
    if has_poly and quad_ms:
        raise RingMismatchError("polynomial and quadratic-field entries mixed")
    if len(quad_ms) > 1:
        raise RingMismatchError(f"mixed quadratic fields {sorted(quad_ms)}")
    if has_poly:
        return _RING_POLY
    if quad_ms:
        return f"Q(sqrt({quad_ms.pop()}))"
    return _RING_RATIONAL


class ExactMatrix:
    """Square matrix over Q, Q[t] or Q(sqrt(m)); rationals are coerced up."""

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        ring = _ring_of(rows)
        if ring == _RING_POLY:
            rows = [[e if isinstance(e, Poly) else Poly.constant(e) for e in r]
                    for r in rows]
        elif ring != _RING_RATIONAL:
            m = next(e.m for r in rows for e in r if isinstance(e, QuadExt))
            rows = [[e if isinstance(e, QuadExt) else QuadExt(_frac(e), Fraction(0), m)
                     for e in r] for r in rows]
        else:
            rows = [[_frac(e) for e in r] for r in rows]
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
        return _bareiss(sub, self._zero())[0]

    @cached_property
    def _elimination(self):
        return _bareiss(self.rows, self._zero())

    def _zero(self):
        if self.ring == _RING_POLY:
            return Poly()
        if self.ring == _RING_RATIONAL:
            return Fraction(0)
        m = self.rows[0][0].m
        return QuadExt(Fraction(0), Fraction(0), m)


def _bareiss(rows, zero):
    """(determinant, leading principal minors or None) of a square matrix."""
    n = len(rows)
    a = [list(r) for r in rows]
    if n == 0:
        return Fraction(1), []
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
                a[i][j] = num if prev is None else _exact_div_entry(num, prev)
            a[i][k] = zero
        prev = a[k][k]
    d = a[n - 1][n - 1]
    if minors is not None:
        minors.append(d)
    return (d if sign == 1 else -d), minors


def _exact_div_entry(num, den):
    if isinstance(num, Poly):
        return num.exact_div(den)
    return num / den
