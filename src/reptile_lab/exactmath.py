"""Exact arithmetic substrate.

Rationals (stdlib Fraction) and one polynomial form, an integer row over a
positive denominator, for Q[t] and for the one number field every
rational-angle cosine lives in, Q(cos(pi/n)) (cos(q pi) exactly for every
rational q, as rows in x = 2cos(pi/n), signs by bisecting x's interval).
On these rows: Sturm-sequence real root counting and isolation (square-
free parts and chains by primitive pseudo-remainders), and exact
determinants of small matrices via fraction-free (Bareiss) elimination
over Z, Z[t] and Z[x]/psi_n.

Everything here is immutable and pure; no rounding happens anywhere
except in the explicitly numeric evaluation helpers.
"""

from __future__ import annotations

import itertools
import math
import operator
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
# Integer rows
# ---------------------------------------------------------------------------

# A polynomial with integer coefficients is a tuple of ints in ascending
# degree with no trailing zero, so zero is the falsy ().  An element of
# Q[t] or of Q(cos(pi/n)) is such a row over one positive denominator.


def _trim(cs) -> tuple:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def lowest_terms(row, den: int) -> tuple:
    """(row, den), den != 0, over their gcd signed so that den > 0: one
    form for each value of a row of fixed length (an `AngleForm`'s four
    coefficients)."""
    g = math.gcd(den, *row) * (1 if den > 0 else -1)
    return tuple(c // g for c in row), den // g


def _normal(row, den: int) -> tuple:
    """(row, den) trimmed and in lowest terms: one form for each value."""
    return lowest_terms(_trim(row), den)


def _primitive(row) -> tuple:
    """row over the gcd of its entries, a positive factor."""
    g = math.gcd(*row)
    return tuple(c // g for c in row)


def _add(a, da: int, b, db: int, sign: int) -> tuple:
    """(row, den) of a/da + sign b/db, not in normal form."""
    out = [x * db for x in a] + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] += sign * y * da
    return out, da * db


def _mul(a, b) -> list:
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _det2(a, b, c, e) -> list:
    """a b - c e, untrimmed."""
    out = _mul(a, b)
    out += [0] * (len(c) + len(e) - len(out))
    for i, x in enumerate(c):
        if x:
            for j, y in enumerate(e):
                out[i + j] -= x * y
    return out


def _int_value(cs: Sequence[int], a: int, b: int) -> int:
    """b^n p(a/b) for b > 0, n = deg p (p's sign at +-infinity for b = 0,
    a = +-1), p given by its integer coefficients cs in ascending degree
    (C. Yap, Fundamental Problems of Algorithmic Algebra, OUP 2000, ch. 7)."""
    v, bk = cs[-1], 1
    for c in reversed(cs[:-1]):
        bk *= b
        v = v * a + c * bk
    return v


# ---------------------------------------------------------------------------
# Polynomials over Q
# ---------------------------------------------------------------------------


class Poly:
    """Polynomial row(t)/den over Q: row holds integer coefficients in
    ascending degree, den > 0 is coprime to them (the normal form of
    `RealCyclotomic`), and the zero polynomial is the row ().
    `Poly(coeffs)` takes ints and Fractions; `coeffs` gives them back as
    Fractions.
    """

    __slots__ = ("row", "den", "_sqf")  # the last is set by `_square_free_part`

    def __init__(self, coeffs: Iterable[Union[int, Fraction]] = ()):
        cs = [frac(c) for c in coeffs]
        den = math.lcm(*[c.denominator for c in cs])
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def _of(cls, row, den: int) -> "Poly":
        p = object.__new__(cls)
        p._set(row, den)
        return p

    def _set(self, row, den: int):
        row, den = _normal(row, den)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(c, self.den) for c in self.row)

    @property
    def degree(self) -> int:
        return len(self.row) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.row

    def __hash__(self):
        if len(self.row) <= 1:  # a constant equals its rational value, so hashes as it
            return hash(Fraction(self.row[0], self.den) if self.row else 0)
        return hash((self.row, self.den))

    def __eq__(self, other):
        b = _poly_parts(other)
        if b is None:
            return NotImplemented
        return (self.row, self.den) == b

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

    def _sum(self, other, sign: int):
        b = _poly_parts(other)
        if b is None:
            return NotImplemented
        return Poly._of(*_add(self.row, self.den, *b, sign))

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of([-c for c in self.row], self.den)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        b = _poly_parts(other)
        if b is None:
            return NotImplemented
        return Poly._of(_mul(self.row, b[0]), self.den * b[1])

    __rmul__ = __mul__

    def __call__(self, x):
        out = x * 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out


def _poly_parts(x):
    """(row, den) in normal form of a Poly, an int or a Fraction, else None."""
    if isinstance(x, Poly):
        return x.row, x.den
    if isinstance(x, (int, Fraction)):
        return _trim((x.numerator,)), x.denominator
    return None


# ---------------------------------------------------------------------------
# Sturm sequences on integer rows
# ---------------------------------------------------------------------------

# Brown's primitive pseudo-remainder sequence (W. S. Brown, JACM 18, 1971;
# Yap, ch. 7): each remainder is scaled by a positive factor and divided by
# its positive content, so every sign Sturm's theorem reads is kept and no
# coefficient grows past the chain's own.


def _prem(a, b) -> tuple:
    """|lc b|^k a mod b, k = deg a - deg b + 1, for b != 0."""
    rem, db, lc, s = list(a), len(b) - 1, abs(b[-1]), _sign(b[-1])
    for i in reversed(range(db, len(rem))):
        c = s * rem[i]  # so that |lc| rem[i] - c b[db] = 0
        rem = [x * lc for x in rem[:i]]
        if c:
            for j in range(db):
                rem[i - db + j] -= c * b[j]
    return _trim(rem)


def _sturm_chain(f) -> list:
    """f, f' and the negated remainders of the primitive pseudo-remainder
    sequence, up to the last nonzero one: Sturm's chain of f up to positive
    factors, ending at gcd(f, f') up to a constant."""
    chain = [f, _primitive([i * c for i, c in enumerate(f)][1:])]
    while chain[-1]:
        chain.append(_primitive([-c for c in _prem(chain[-2], chain[-1])]))
    chain.pop()
    return chain


def _square_free_part(p: Poly) -> tuple:
    """p's square-free part, p / gcd(p, p'), as a primitive integer row,
    kept on p: case-a counts and isolates roots.  The gcd is primitive, so
    by Gauss's lemma the quotient is integral and the division exact."""
    try:
        return p._sqf
    except AttributeError:
        f = _primitive(p.row)
        g = _sturm_chain(f)[-1]
        if len(g) > 1:
            f = _INT_POLYS.div(f, g)
        object.__setattr__(p, "_sqf", f)
        return f


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
    chain = _sturm_chain(_square_free_part(p))
    # the point (+-1, 0) gives the sign at +-infinity
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


def _rational_roots(cs) -> list[Fraction]:
    """All rational roots of a nonzero integer row, via the rational root
    theorem."""
    roots = []
    # strip t^k
    k = next(i for i, c in enumerate(cs) if c)
    if k:
        roots.append(Fraction(0))
    cs = cs[k:]
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
    for r in rational:  # b t - a is primitive, so it divides f in Z[t]
        f = _INT_POLYS.div(f, (-r.numerator, r.denominator))
    if len(f) > 1:
        # Cauchy bound b/lc; f has no rational roots left, so rational
        # endpoints are never roots and open-interval Sturm counts are clean.
        lc = abs(f[-1])
        b = lc + max(map(abs, f))
        chain = _sturm_chain(f)
        vlo, slo = _count_variations(chain, -b, lc)
        vhi = _count_variations(chain, b, lc)[0]
        pn, pd = precision.as_integer_ratio()
        # stack entries: lo, hi, their denominator lc 2^k after k halvings,
        # variations at lo and hi, sign of f at lo
        stack = [(-b, b, lc, vlo, vhi, slo)]
        while stack:
            lo, hi, den, vlo, vhi, slo = stack.pop()
            cnt = vlo - vhi
            if cnt == 0:
                continue
            if cnt == 1:
                # one simple root, so f changes sign across it: bisect on
                # the sign of f alone, the same halvings the counts would
                # take.  The rational roots were divided out of f, so its
                # sign cannot see them: keep halving while one lies inside.
                while (hi - lo) * pd > pn * den or any(
                        lo * r.denominator < r.numerator * den < hi * r.denominator
                        for r in rational):
                    mid, den = lo + hi, 2 * den
                    s = _sign(_int_value(f, mid, den))
                    lo, hi = (mid, 2 * hi) if s == slo else (2 * lo, mid)
                out.append(RootInterval(Fraction(lo, den), Fraction(hi, den), False))
                continue
            mid, den = lo + hi, 2 * den
            vmid, smid = _count_variations(chain, mid, den)
            stack.append((2 * lo, mid, den, vlo, vmid, slo))
            stack.append((mid, 2 * hi, den, vmid, vhi, smid))
    return sorted(out, key=lambda r: r.midpoint)


# ---------------------------------------------------------------------------
# The rings the elimination runs in: Z, Z[t] and (below) Z[x]/psi_n
# ---------------------------------------------------------------------------

# Each ring gives `_bareiss` its zero, one and negation, the divisor it
# keeps for a pivot, and the step that sets row_i[j] to
# (a_kk a_ij - a_ik a_kj) / prev, j > k, with a remainder other than zero
# raising ArithmeticError.


def _exact(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("inexact integer division")
    return q


class _Integers:
    """Z, for `_bareiss`: ints."""

    zero, one = 0, 1
    neg = staticmethod(operator.neg)
    divisor = staticmethod(lambda p: p)

    @staticmethod
    def step(a, k, prev):
        row_k = a[k]
        p = row_k[k]
        for row_i in a[k + 1:]:
            c = row_i[k]
            for j in range(k + 1, len(row_k)):  # `_exact` inline: small ints
                q, r = divmod(p * row_i[j] - c * row_k[j], prev)
                if r:
                    raise ArithmeticError("inexact division in Bareiss elimination")
                row_i[j] = q


class _IntPolys:
    """Z[t], for `_bareiss`: int tuples."""

    zero, one = (), (1,)

    def reduce(self, cs) -> tuple:
        return _trim(cs)

    @staticmethod
    def neg(a):
        return tuple(-c for c in a)

    def step(self, a, k, prev):
        row_k = a[k]
        p = row_k[k]
        for row_i in a[k + 1:]:
            c = row_i[k]
            for j in range(k + 1, len(row_k)):
                row_i[j] = self.div(self.reduce(_det2(p, row_i[j], c, row_k[j])), prev)

    @staticmethod
    def divisor(p):
        return p

    @staticmethod
    def div(a, p):
        """a / p by long division; each quotient coefficient is the exact
        quotient of a remainder's leading coefficient by p's.  Also the
        square-free part's and the rational roots' division in Z[t]."""
        dp, lc, rem = len(p) - 1, p[-1], list(a)
        q = [0] * max(0, len(rem) - dp)
        for k in reversed(range(len(q))):
            q[k] = c = _exact(rem[k + dp], lc)
            if c:
                for i in range(dp):
                    rem[k + i] -= c * p[i]
        if any(rem[:dp]):
            raise ArithmeticError("inexact polynomial division")
        return _trim(q)


# ---------------------------------------------------------------------------
# The field Q(cos(pi/n))
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def chebyshev(r: int) -> Poly:
    """T_r, with T_r(cos x) = cos(r x): T_(k+1) = 2t T_k - T_(k-1)."""
    t0, t1 = (1,), (0, 1)
    for _ in range(r):
        t0, t1 = t1, _trim(_det2((0, 2), t1, (1,), t0))
    return Poly._of(t0, 1)


# The largest degree [Q(cos(pi/n)) : Q] the package computes in.  Each
# pivot the elimination divides by costs O(d^3) big-int steps: a 6 x 6
# cosine matrix over Q(cos(pi/257)), degree 128, takes about 13 s, and a
# 4 x 4 one of degree 179 about 34 s (README).
MAX_FIELD_DEGREE = 128


def _primes(m: int) -> list:
    """The distinct prime factors of m >= 1."""
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return out + [m] * (m > 1)


def field_degree(n: int) -> int:
    """[Q(cos(pi/n)) : Q]: phi(2n)/2, or 1 for n = 1."""
    phi = 2 * n
    for p in _primes(2 * n):
        phi = phi // p * (p - 1)
    return max(1, phi // 2)


@lru_cache(maxsize=None)
def _psi(n: int) -> tuple:
    """The minimal polynomial psi_n of x = 2cos(pi/n), monic with integer
    coefficients.  x = z + 1/z for z = exp(i pi/n), a primitive 2n-th root
    of unity, so z^-d Phi_2n(z) = psi_n(z + 1/z), d = phi(2n)/2: Phi_2n is
    palindromic, and z^k + z^-k = C_k(z + 1/z) for C_0 = 2, C_1 = x,
    C_(k+1) = x C_k - C_(k-1).  Phi_2n is the product of (z^(2n/s) - 1)^mu(s)
    over the square-free s dividing 2n.  ValueError past MAX_FIELD_DEGREE."""
    d = field_degree(n)
    if d > MAX_FIELD_DEGREE:
        raise ValueError(f"Q(cos(pi/{n})) has degree {d}; exact arithmetic "
                         f"takes degree at most {MAX_FIELD_DEGREE}")
    if n == 1:
        return (2, 1)  # 2cos(pi) = -2
    m, phi, divide = 2 * n, [1], []
    primes = _primes(m)
    for k in range(len(primes) + 1):
        for s in itertools.combinations(primes, k):
            e = m // math.prod(s)
            if k % 2:
                divide.append(e)
            else:  # times z^e - 1
                phi = [-c for c in phi] + [0] * e
                for i, c in enumerate(phi[:-e]):
                    phi[i + e] -= c
    for e in divide:  # exactly: q_i = q_(i-e) - p_i
        q = [0] * (len(phi) - e)
        for i in range(len(q)):
            q[i] = (q[i - e] if i >= e else 0) - phi[i]
        phi = q
    psi, c0, c1 = [phi[d]] + [0] * d, [2], [0, 1]
    for k in range(1, d + 1):
        for i, c in enumerate(c1):
            psi[i] += phi[d + k] * c
        c2 = [0] + c1
        for i, c in enumerate(c0):
            c2[i] -= c
        c0, c1 = c1, c2
    return tuple(psi)


class _CyclotomicInts(_IntPolys):
    """Z[x]/psi_n, x = 2cos(pi/n), for `_bareiss` and `RealCyclotomic`:
    int tuples of length below d = deg psi_n, which is monic, so
    reducing never divides."""

    def __init__(self, n: int):
        self.psi = _psi(n)
        self.d = len(self.psi) - 1

    def reduce(self, cs) -> tuple:
        cs, psi, d = list(cs), self.psi, self.d
        for i in range(len(cs) - 1, d - 1, -1):
            q = cs[i]
            if q:
                for j in range(d):
                    cs[i - d + j] -= q * psi[j]
        return _trim(cs[:d])

    def divisor(self, p):
        """(u, D) with p u = D, a nonzero int (u None for a constant p).
        D is +-N(p), the determinant of p's multiplication matrix M, and u
        solves M u = D e_0: fraction-free elimination of [M | e_0] leaves
        D on the last pivot (Bareiss 1968), and D u is then integral, so
        back substitution divides exactly."""
        if len(p) == 1:
            return None, p[0]
        d, psi = self.d, self.psi
        col, cols = list(p) + [0] * (d - len(p)), []
        for _ in range(d):  # x^j p, j = 0..d-1
            cols.append(col)
            top, col = col[-1], [0] + col[:-1]
            if top:
                col = [c - top * s for c, s in zip(col, psi)]
        a = [[c[i] for c in cols] + [int(i == 0)] for i in range(d)]
        prev = 1
        for k in range(d):
            if not a[k][k]:
                s = next(i for i in range(k + 1, d) if a[i][k])
                a[k], a[s] = a[s], a[k]
            row_k = a[k]
            pivot, tail = row_k[k], row_k[k + 1:]
            for row_i in a[k + 1:]:
                aik = row_i[k]
                row_i[k + 1:] = [(pivot * x - aik * y) // prev
                                 for x, y in zip(row_i[k + 1:], tail)]
            prev = pivot
        u = [0] * d
        for i in reversed(range(d)):  # a[i][i] u_i = D b_i - sum a[i][j] u_j
            row = a[i]
            u[i] = (prev * row[d] - sum(map(operator.mul, row[i + 1:d], u[i + 1:]))) // row[i]
        return _trim(u), prev

    def div(self, a, divisor):
        u, d = divisor
        return tuple(_exact(c, d) for c in (a if u is None else self.reduce(_mul(a, u))))


_field = lru_cache(maxsize=None)(_CyclotomicInts)


@lru_cache(maxsize=None)
def _chebyshev_row(k: int, n: int) -> tuple:
    """C_k(x) = 2cos(k pi/n) in Z[x]/psi_n."""
    f = _field(n)
    c0, c1 = f.reduce([2]), f.reduce([0, 1])
    for _ in range(k):
        c0, c1 = c1, f.reduce(_det2(c1, (0, 1), c0, (1,)))
    return c0


def _roots_above(cs, a: int, b: int) -> int:
    """The number of roots above a/b, b > 0, of a polynomial with integer
    coefficients cs whose roots are all real and none is a/b: the sign
    variations of b^deg p((a + z)/b) in z.  Descartes' rule of signs is
    exact for a polynomial with real roots only."""
    g, bk = [cs[-1]], 1
    for c in reversed(cs[:-1]):
        bk *= b
        g = [a * g[0] + c * bk] + [a * g[i] + g[i - 1] for i in range(1, len(g))] + [g[-1]]
    signs = [c > 0 for c in g if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


@lru_cache(maxsize=None)
def _cos_pi_interval(n: int) -> RootInterval:
    """An isolating interval of cos(pi/n), n >= 4: a window around binary64's
    cos(pi/n), halved until psi_n, whose roots 2cos(k pi/n), k odd, are all
    real, has exactly one root above twice its lower end and none above
    twice its upper end.  cos(pi/n) is the largest of its conjugates, so
    that root is 2cos(pi/n); psi_n is irreducible of degree >= 2, so no
    rational endpoint is a root."""
    psi = _psi(n)
    c, w = Fraction(math.cos(math.pi / n)), Fraction(1, 2 ** 20)
    while w >= Fraction(1, 2 ** 60):
        lo, hi = c - w, c + w
        if (_roots_above(psi, 2 * lo.numerator, lo.denominator) == 1
                and _roots_above(psi, 2 * hi.numerator, hi.denominator) == 0):
            return RootInterval(lo, hi, False)
        w /= 2
    raise ArithmeticError(f"no isolating interval for cos(pi/{n})")


class RealCyclotomic:
    """Element row(x)/den of the field Q(cos(pi/n)), x = 2cos(pi/n).

    row holds the integer coefficients of a polynomial of degree below d =
    deg psi_n, reduced modulo psi_n, x's minimal polynomial, and den > 0 is
    coprime to them: each value has one representation, and row(x) = 0 only
    for row = ().  `RealCyclotomic(poly, n)` takes a Poly in cos(pi/n), and
    `poly` gives that form back.  Elements with different n meet in the
    field of lcm(n, n'), since 2cos(pi/n) = C_(m/n)(2cos(pi/m)) for n
    dividing m.  Equal to the Fraction of the same value; unhashable, since
    one value has a representation in every field above its own.
    """

    __slots__ = ("row", "den", "n", "_poly")  # the last is set by `poly`

    def __init__(self, poly: Poly, n: int):
        # c^i = x^i / 2^i = 2^(k-i) x^i / 2^k, k = deg poly
        k = max(poly.degree, 0)
        self._set(_field(n).reduce([a << (k - i) for i, a in enumerate(poly.row)]),
                  poly.den << k, n)

    @classmethod
    def _of(cls, row, den: int, n: int) -> "RealCyclotomic":
        x = object.__new__(cls)
        x._set(row, den, n)
        return x

    @classmethod
    def _rational(cls, r, n: int) -> "RealCyclotomic":
        return cls._of((r.numerator,), r.denominator, n)

    def _set(self, row, den: int, n: int):
        row, den = _normal(row, den)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "n", n)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("RealCyclotomic is immutable")

    __delattr__ = __setattr__
    __hash__ = None

    @property
    def poly(self) -> Poly:
        """The element as a Poly over Q in c = cos(pi/n): x^i = 2^i c^i."""
        try:
            return self._poly
        except AttributeError:
            p = Poly._of([a << i for i, a in enumerate(self.row)], self.den)
            object.__setattr__(self, "_poly", p)
            return p

    def lift(self, m: int) -> "RealCyclotomic":
        """The same number in Q(cos(pi/m)), for m a multiple of n."""
        if m == self.n:
            return self
        f, x = _field(m), _chebyshev_row(m // self.n, m)
        acc = ()
        for a in reversed(self.row):  # Horner in Z[x]/psi_m
            acc = f.reduce(_det2(acc, x, (-a,), (1,)))
        return RealCyclotomic._of(acc, self.den, m)

    def _pair(self, other):
        """(n, (row, den) of self, (row, den) of other) in one field."""
        if isinstance(other, RealCyclotomic):
            if other.n == self.n:
                return self.n, (self.row, self.den), (other.row, other.den)
            m = math.lcm(self.n, other.n)
            a, b = self.lift(m), other.lift(m)
            return m, (a.row, a.den), (b.row, b.den)
        if isinstance(other, (int, Fraction)):
            return self.n, (self.row, self.den), ((other.numerator,), other.denominator)
        raise TypeError(type(other).__name__)

    def _sum(self, other, sign: int):
        n, (a, da), (b, db) = self._pair(other)
        return RealCyclotomic._of(*_add(a, da, b, db, sign), n)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return RealCyclotomic._of([-c for c in self.row], self.den, self.n)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return -self._sum(other, -1)

    def __mul__(self, other):
        n, (a, da), (b, db) = self._pair(other)
        return RealCyclotomic._of(_field(n).reduce(_mul(a, b)), da * db, n)

    __rmul__ = __mul__

    def inverse(self) -> "RealCyclotomic":
        """den u / D, for (u, D) the elimination's divisor of the row:
        row u = D."""
        if not self.row:
            raise ZeroDivisionError("inverse of zero")
        u, d = _field(self.n).divisor(self.row)
        return RealCyclotomic._of([self.den * c for c in (u or (1,))], d, self.n)

    def __truediv__(self, other):
        if not isinstance(other, RealCyclotomic):
            other = RealCyclotomic._rational(other, self.n)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return other * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, RealCyclotomic)):
            _, p, q = self._pair(other)
            return p == (_trim(q[0]), q[1])
        return NotImplemented

    def sign(self) -> int:
        """Exact sign.  With x's isolating interval (l, h)/B, the interval
        is halved on the sign of psi_n until |p(mid)| > L (h - l)/(2B),
        L = sum i |c_i| R^(i-1) >= |p'| on [-R, R], R = max(1, -l/B, h/B)
        rounded up: by the mean value theorem p(x) then has p(mid)'s sign.
        It ends, since p(x) != 0."""
        cs = self.row
        if len(cs) <= 1:
            return _sign(cs[0]) if cs else 0
        psi = _psi(self.n)
        lo, hi, _ = _cos_pi_interval(self.n)
        b = max(lo.denominator, hi.denominator)  # powers of two
        l, h = (2 * e.numerator * (b // e.denominator) for e in (lo, hi))
        r = max(1, -(-max(-l, h) // b))
        # from i = 1: at i = 0, an int r would give the float r ** -1
        bound = sum(i * abs(c) * r ** (i - 1) for i, c in enumerate(cs[1:], 1))
        f_lo = _sign(_int_value(psi, l, b))
        while True:
            s, b = l + h, 2 * b  # mid = s / b
            v = _int_value(cs, s, b)  # b^k p(mid), k = deg p
            if abs(v) * b > bound * (h - l) * b ** (len(cs) - 1):
                return _sign(v)
            l, h = (s, 2 * h) if _sign(_int_value(psi, s, b)) == f_lo else (2 * l, s)

    def __float__(self):
        # p evaluated exactly at twice binary64's cos(pi/n), then rounded once
        if not self.row:
            return 0.0
        a, b = math.cos(math.pi / self.n).as_integer_ratio()
        return _int_value(self.row, 2 * a, b) / (self.den * b ** (len(self.row) - 1))

    def __repr__(self):
        return f"RealCyclotomic({self.poly!r}, {self.n})"


@lru_cache(maxsize=None)
def cos_pi(q: Fraction):
    """cos(q pi) exactly: a Fraction when the value is rational, else an
    element of Q(cos(pi/n)) for n the denominator of q."""
    n = q.denominator
    k = abs(q.numerator) % (2 * n)
    x = RealCyclotomic._of(_chebyshev_row(min(k, 2 * n - k), n), 2, n)
    if len(x.row) > 1:
        return x
    return Fraction(x.row[0], x.den) if x.row else Fraction(0)


def sign(x) -> int:
    """Exact sign of a rational or a field element: -1, 0 or 1."""
    return x.sign() if isinstance(x, RealCyclotomic) else _sign(x)


# ---------------------------------------------------------------------------
# Exact matrices and determinants
# ---------------------------------------------------------------------------

_RING_RATIONAL = "Q"
_RING_POLY = "Q[t]"
_INTEGERS, _INT_POLYS = _Integers(), _IntPolys()


def _parts(e) -> tuple:
    """(integer numerators, denominator) of a rational, a Poly or a field
    element: an element of Z, Z[t] or Z[x]/psi_n over an int."""
    if isinstance(e, (Poly, RealCyclotomic)):
        return e.row, e.den
    return e.numerator, e.denominator


class ExactMatrix:
    """Square matrix over Q, Q[t] or Q(cos(pi/n)); rationals are coerced
    up, and field entries of different n are lifted to their lcm.  The
    field's degree is checked before anything is lifted (ValueError past
    MAX_FIELD_DEGREE).

    The elimination runs on L A, L the lcm of the entries' denominators,
    on ints, over Z, Z[t] or Z[x]/psi_n: a minor of order k of L A is L^k
    times A's.  For a cosine matrix L is 2, since 2cos(k pi/n) = C_k(x).
    """

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
            ring, domain = _RING_POLY, _INT_POLYS
            rows = [[e if isinstance(e, Poly) else Poly([e]) for e in r] for r in rows]
            self._element = Poly._of
        elif ns:
            m = math.lcm(*ns)
            ring, domain = f"Q(cos(pi/{m}))", _field(m)
            rows = [[e.lift(m) if isinstance(e, RealCyclotomic)
                     else RealCyclotomic._rational(e, m) for e in r] for r in rows]
            self._element = lambda a, den: RealCyclotomic._of(a, den, m)
        else:
            ring, domain = _RING_RATIONAL, _INTEGERS
            rows = [[frac(e) for e in r] for r in rows]
            self._element = Fraction
        parts = [[_parts(e) for e in r] for r in rows]
        self._den = den = math.lcm(*[q for r in parts for _, q in r])
        self._ints = [[a * (den // q) if isinstance(a, int) else tuple(c * (den // q) for c in a)
                       for a, q in r] for r in parts]
        self._domain = domain
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
        sub = [[self._ints[i][j] for j in cols] for i in rows]
        return self._element(_bareiss(sub, self._domain)[0], self._den ** len(sub))

    @cached_property
    def _elimination(self):
        det, minors = _bareiss(self._ints, self._domain)
        if minors is not None:
            minors = [self._element(d, self._den ** k) for k, d in enumerate(minors, 1)]
        return self._element(det, self._den ** self.n), minors


def int_det(rows) -> int:
    """Determinant of a square integer matrix: the elimination over Z."""
    return _bareiss(rows, _INTEGERS)[0]


def _bareiss(rows, ring):
    """(determinant, leading principal minors or None) of a square matrix
    over Z (`_INTEGERS`), Z[t] (`_INT_POLYS`) or Z[x]/psi_n (`_field(n)`).
    Each step's quotient by the previous pivot is a minor of the matrix, so
    it lies in the ring; a remainder other than zero raises
    ArithmeticError."""
    n = len(rows)
    a = [list(r) for r in rows]
    if n == 0:
        return ring.one, []
    sign = 1
    prev = ring.divisor(ring.one)
    minors = []
    for k in range(n - 1):
        if not a[k][k]:
            minors = None
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return ring.zero, None
        elif minors is not None:
            minors.append(a[k][k])
        ring.step(a, k, prev)
        if k < n - 2:  # the last step divides by nothing
            prev = ring.divisor(a[k][k])
    d = a[n - 1][n - 1]
    if minors is not None:
        minors.append(d)
    return (d if sign == 1 else ring.neg(d)), minors
