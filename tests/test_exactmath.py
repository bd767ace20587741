import math
import os
import pathlib
import random
import subprocess
import sys
from decimal import Decimal, getcontext
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (CyclotomicReference, FractionPoly, QuadExt, bareiss_reference,
                     field_sign_reference, in_field, isolate_roots_reference,
                     sturm_chain_reference, sturm_count_reference)
from reptile_lab import exactmath, fixtures
from reptile_lab.exactmath import (ExactMatrix, Poly, RealCyclotomic, RingMismatchError,
                                   RootInterval, ZeroPolynomialError, cos_pi, field_degree,
                                   isolate_roots, sign, sturm_count)
from reptile_lab.gram import gram_from_diagram


def P(*cs):
    return Poly(cs)


t = P(0, 1)


def matmul(a, b):
    """The product of two exact n x n matrices, entries summed in their ring."""
    n = a.n
    return ExactMatrix([[sum(a.rows[i][k] * b.rows[k][j] for k in range(n))
                         for j in range(n)] for i in range(n)])


class TestPoly:
    def test_arithmetic(self):
        p = P(1, 2) * P(-1, 1)  # (1+2t)(t-1) = -1 - t + 2t^2
        assert p == P(-1, -1, 2)
        assert (p - p).is_zero()
        assert p.degree == 2
        assert p(F(2)) == F(5)

    def test_constant_hashes_as_its_value(self):
        assert P(3) == 3 and len({P(3), 3}) == 1
        assert hash(P(F(1, 2))) == hash(F(1, 2))
        assert P() == 0 and len({P(), 0, P(0)}) == 1
        assert len({P(1, 2), P(1, 2), P(F(1, 2), 1)}) == 2

    def test_divmod_exact(self):
        """The division in Z[t] that the square-free part, the rational
        roots and the elimination use: exact, or ArithmeticError."""
        div = exactmath._INT_POLYS.div
        assert div((-1, 0, 1), (1, 1)) == (-1, 1)  # t^2 - 1 = (t + 1)(t - 1)
        assert div((-1, 0, 4), (-1, 2)) == (1, 2)  # the factor of the root 1/2
        for a, b in [((-1, 0, 1), (1, 0, 0, 1)), ((-1, 0, 1), (1, 2)), ((1, 1), (0, 2))]:
            with pytest.raises(ArithmeticError):
                div(a, b)

    def test_square_free(self):
        """The integer square-free part is the reference's monic one times
        a constant, with coprime integer coefficients."""
        rng = random.Random(5)
        cases = [P(-1, 1) * P(-1, 1) * P(-1, 1) * P(2, 1), P(0, 0, F(1, 3)), P(F(-7, 2)),
                 *(random_poly(rng)[0] for _ in range(60))]
        for p in cases:
            got = exactmath._square_free_part(p)
            want = FractionPoly.of(p).square_free_part()
            assert math.gcd(*got) == 1 and FractionPoly(got).monic() == want
        assert exactmath._square_free_part(cases[0]) in {(-2, 1, 1), (2, -1, -1)}


class TestSturm:
    def test_single_root_interval(self):
        p = P(-1, 2)  # 2t - 1
        assert sturm_count(p, F(0), F(1, 2)) == 0
        assert sturm_count(p, F(0), F(3, 5)) == 1

    def test_full_line_and_endpoints(self):
        p = P(-1, 0, 1)
        assert sturm_count(p) == 2
        assert sturm_count(p, F(-1), F(1)) == 0  # open interval, endpoint roots
        assert sturm_count(p, F(-2), F(1)) == 1
        # t^4 + t - 1: its chain has degrees 4, 3, 1, 0, and the remainder
        # of degree 1, 4 - 3t up to a positive factor, leads with a negative
        # coefficient, so a pseudo-remainder by it scaled by lc^3 < 0, not
        # |lc|^3, would flip the last sign and count no root
        p = P(-1, 1, 0, 0, 1)
        assert sturm_count(p) == 2
        assert sturm_count(p, F(-2), F(-1)) == sturm_count(p, F(0), F(1)) == 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            sturm_count(Poly())

    def test_against_factored_construction(self):
        # 100 random cubics/quartics with known rational roots
        rng = random.Random(7)
        for _ in range(100):
            deg = rng.choice((3, 4))
            roots = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg)]
            p = P(1)
            for r in roots:
                p = p * P(-r, 1)
            lo = F(rng.randint(-12, 0))
            hi = lo + F(rng.randint(1, 14))
            expected = len({r for r in roots if lo < r < hi})
            assert sturm_count(p, lo, hi) == expected


class TestIsolation:
    def test_double_root_at_zero(self):
        roots = isolate_roots(P(0, 0, 1))
        assert len(roots) == 1 and roots[0].exact and roots[0].midpoint == 0

    def test_disjoint_and_precise(self):
        p = P(-1, 0, 1) * P(-3, 1) * P(1, 3)  # roots -1, 1, 3, -1/3
        rs = isolate_roots(p, F(1, 1000))
        mids = [r.midpoint for r in rs]
        assert mids == sorted(mids)
        assert [round(float(m), 3) for m in mids] == [-1.0, -0.333, 1.0, 3.0]
        for a, b in zip(rs, rs[1:]):
            assert a.hi <= b.lo
        for r in rs:
            assert r.hi - r.lo <= F(1, 1000)

    def test_irrational_roots(self):
        rs = isolate_roots(P(-2, 0, 1), F(1, 10 ** 6))
        assert [round(float(r.midpoint), 5) for r in rs] == [-1.41421, 1.41421]

    def test_one_sign_change_per_interval(self):
        p = P(-1, 3) * P(1, 2) * P(-5, 1, 1)
        for r in isolate_roots(p, F(1, 1000)):
            if not r.exact:
                assert p(r.lo) * p(r.hi) < 0

    @pytest.mark.parametrize("precision", [0, F(0), F(-1, 10), -1])
    def test_precision_must_be_positive(self, precision):
        # a width <= 0 is never reached, so bisection would not stop
        with pytest.raises(ValueError):
            isolate_roots(P(-2, 0, 1), precision)


class TestQuadExt:
    def test_norm_identity(self):
        one_plus = QuadExt(F(1), F(1), 2)
        one_minus = QuadExt(F(1), F(-1), 2)
        assert one_plus * one_minus == F(-1)

    def test_square(self):
        x = QuadExt(F(1, 4), F(1, 4), 5)  # (sqrt5+1)/4
        assert x * x == QuadExt(F(3, 8), F(1, 8), 5)

    def test_inverse_division(self):
        x = QuadExt(F(2), F(3), 3)
        assert x * x.inverse() == F(1)
        with pytest.raises(ZeroDivisionError):
            QuadExt(F(0), F(0), 7).inverse()

    def test_field_mismatch(self):
        with pytest.raises(RingMismatchError):
            QuadExt(F(1), F(1), 2) + QuadExt(F(1), F(1), 3)

    def test_sqrt_one_rejected(self):
        # Q(sqrt 1) is Q: 1 - sqrt(1) would be a second, unequal form of 0
        with pytest.raises(ValueError):
            QuadExt(F(1), F(-1), 1)
        for m in (0, -2, 4, 12):
            with pytest.raises(ValueError):
                QuadExt(F(1), F(1), m)

    def test_numeric_high_precision_oracle(self):
        getcontext().prec = 50
        x = QuadExt(F(1, 4), F(1, 4), 5)
        precise = (Decimal(5).sqrt() + 1) / 4
        assert abs(float(x) - float(precise)) < 1e-12
        assert round(float(x), 4) == 0.809

    def test_sign(self):
        assert QuadExt(F(3), F(-2), 2).sign() == 1  # 3 - 2 sqrt2 = 0.17
        assert QuadExt(F(1), F(-1), 2).sign() == -1
        assert QuadExt(F(0), F(0), 5).sign() == 0
        for m in (2, 3, 5):
            for a in range(-6, 7):
                for b in range(-6, 7):
                    x = QuadExt(F(a, 2), F(b, 3), m)
                    v = float(x)
                    assert x.sign() == (v > 0) - (v < 0)
        # x - y sqrt2 with x^2 - 2y^2 = 1 is positive but about 1/(2x), far
        # below what binary64 resolves at this size
        x, y = 3, 2
        for _ in range(20):
            x, y = 3 * x + 4 * y, 2 * x + 3 * y
        assert QuadExt(F(x), F(-y), 2).sign() == 1
        assert QuadExt(F(-x), F(y), 2).sign() == -1
        assert [sign(F(-1, 3)), sign(0), sign(in_field(QuadExt(F(0), F(1), 5)))] == [-1, 0, 1]

    def test_binary64_agreement_random(self):
        rng = random.Random(3)
        for _ in range(200):
            a = F(rng.randint(-1000, 1000), rng.randint(1, 1000))
            b = F(rng.randint(-1000, 1000), rng.randint(1, 1000))
            m = rng.choice((2, 3, 5, 7))
            x = QuadExt(a, b, m)
            y = QuadExt(b, a, m)
            assert abs(float(x * y) - float(x) * float(y)) < 1e-9
            assert abs(float(x + y) - (float(x) + float(y))) < 1e-9


class TestDeterminant:
    def test_identity(self):
        assert ExactMatrix([[int(i == j) for j in range(5)] for i in range(5)]).det() == 1

    def test_singular(self):
        m = ExactMatrix([[1, 2], [2, 4]])
        assert m.det() == 0

    def test_row_swap_sign(self):
        m = ExactMatrix([[0, 1], [1, 0]])
        assert m.det() == -1

    def _random_matrix(self, rng, ring, n):
        def entry():
            if ring == "Q":
                return F(rng.randint(-4, 4), rng.randint(1, 3))
            if ring == "Qt":
                return P(rng.randint(-3, 3), rng.randint(-2, 2))
            return in_field(QuadExt(F(rng.randint(-3, 3)), F(rng.randint(-2, 2)), 2))

        return ExactMatrix([[entry() for _ in range(n)] for _ in range(n)])

    @pytest.mark.parametrize("ring", ["Q", "Qt", "Qs"])
    def test_multiplicative(self, ring):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(2, 4)
            a = self._random_matrix(rng, ring, n)
            b = self._random_matrix(rng, ring, n)
            assert matmul(a, b).det() == a.det() * b.det()

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            ExactMatrix([[Poly([1]), cos_pi(F(1, 4))],
                         [F(0), F(1)]])


# ---------------------------------------------------------------------------
# Sturm layer against the Fraction-Horner reference and sympy
# ---------------------------------------------------------------------------

PRECISIONS = (F(1, 10), F(1, 1000), F(1, 10 ** 5))


def random_poly(rng):
    """(p, its chosen rational roots): up to three rational roots of
    multiplicity 1-3 times a random integer factor of degree 1-3, whose
    roots are mostly irrational."""
    p = P(F(rng.randint(1, 5), rng.randint(1, 4)) * rng.choice((1, -1)))
    roots = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
    for r in roots:
        for _ in range(rng.randint(1, 3)):
            p = p * P(-r, 1)
    extra = [rng.randint(-6, 6) for _ in range(rng.randint(1, 3))]
    return p * P(*extra, rng.choice((-3, -2, -1, 1, 2, 3))), roots


def assert_matches_reference(p, prec):
    """isolate_roots against the reference, which stops at width <= prec
    even when its interval still holds a rational root of p: the interval
    is then narrowed past that root, so it lies inside the reference's."""
    got, want = isolate_roots(p, prec), isolate_roots_reference(p, prec)
    rational = [r.lo for r in want if r.exact]
    assert [r.lo for r in got if r.exact] == rational
    got_irr = [r for r in got if not r.exact]
    want_irr = [r for r in want if not r.exact]
    assert len(got_irr) == len(want_irr)
    for g, w in zip(got_irr, want_irr):
        if any(w.lo < r < w.hi for r in rational):
            assert w.lo <= g.lo < g.hi <= w.hi
        else:
            assert g == w
    return got


def test_isolation_matches_reference_on_case_a():
    for i in range(1, 5):
        det = gram_from_diagram(fixtures.diagram(f"case-a-{i}"),
                                as_poly_in="beta").det()
        for prec in PRECISIONS:
            assert isolate_roots(det, prec) == isolate_roots_reference(det, prec)


def test_open_intervals_exclude_rational_roots():
    # (t + 10/7)(t^2 - 2): at width 1/10 the bisection reaches (-3/2, -45/32)
    # around -sqrt 2, which holds -10/7 as well
    p = (t + F(10, 7)) * (t * t - 2)
    assert isolate_roots_reference(p, F(1, 10))[0] == RootInterval(F(-3, 2), F(-45, 32), False)
    assert isolate_roots(p, F(1, 10))[1] == RootInterval(F(-363, 256), F(-45, 32), False)
    straddled = 0
    for c in (2, 3, 5, 6, 7):
        for r in {F(a, b) for a in range(-12, 13) for b in (1, 2, 3, 4, 5, 7)}:
            p = (t - r) * (t * t - c)
            for prec in (F(1, 10), F(1, 2)):
                got = isolate_roots(p, prec)
                for a, b in zip(got, got[1:]):
                    assert a.hi <= b.lo
                for g in got:
                    if not g.exact:
                        assert sturm_count(p, g.lo, g.hi) == 1
            # the reference stops at width 1/2 with r inside 44 times
            straddled += any(w.lo < r < w.hi for w in isolate_roots_reference(p, F(1, 2)))
    assert straddled == 44


def test_isolation_matches_reference_on_random_polys():
    rng = random.Random(12)
    seen_repeated = seen_rational = seen_irrational = 0
    for _ in range(300):
        p, roots = random_poly(rng)
        for prec in PRECISIONS:
            got = assert_matches_reference(p, prec)
        seen_repeated += len(exactmath._square_free_part(p)) <= p.degree
        seen_rational += any(r.exact for r in got)
        seen_irrational += any(not r.exact for r in got)
        # interval ends: none (infinite), a root of p, or a small rational
        lo, hi = sorted((F(rng.randint(-12, 12), rng.randint(1, 3)),
                         rng.choice(roots or [F(7, 2)])))
        lo, hi = rng.choice(((None, hi), (lo, None), (lo, hi + (lo == hi)), (None, None)))
        assert sturm_count(p, lo, hi) == sturm_count_reference(p, lo, hi)
        # the integer chain is the reference's up to positive factors
        chain = exactmath._sturm_chain(exactmath._square_free_part(p))
        ref = sturm_chain_reference(p)
        assert [len(c) - 1 for c in chain] == [c.degree for c in ref]
        assert len({sign(c[-1] / r.leading()) for c, r in zip(chain, ref)}) == 1
    assert min(seen_repeated, seen_rational, seen_irrational) >= 50


SMALL_RATIONALS = st.builds(F, st.integers(-8, 8), st.integers(1, 4))


@st.composite
def polys_with_roots(draw):
    """(p, its rational roots): rational roots, some repeated, times a
    random factor of degree 0-3."""
    roots = draw(st.lists(SMALL_RATIONALS, max_size=3))
    p = P(1)
    for r in roots:
        for _ in range(draw(st.integers(1, 3))):
            p = p * P(-r, 1)
    extra = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4)
                 .filter(any).map(Poly))
    return p * extra, roots


def _sympy_poly(sympy, p):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], sympy.Symbol("t"))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(polys_with_roots(), st.sampled_from(PRECISIONS))
def test_isolation_matches_sympy(case, precision):
    sympy = pytest.importorskip("sympy")
    p, _ = case
    sp = _sympy_poly(sympy, p)
    sqf = sp.sqf_part()
    want_rational = sorted(F(int(r.p), int(r.q)) for r in set(sympy.real_roots(sp))
                           if r.is_Rational)
    got = isolate_roots(p, precision)
    assert len(got) == len(sp.intervals())
    assert [r.lo for r in got if r.exact] == want_rational
    for r in got:
        assert r.lo <= r.hi
        if not r.exact:
            lo, hi = sympy.Rational(r.lo), sympy.Rational(r.hi)
            assert r.hi - r.lo <= precision
            assert sqf.eval(lo) != 0 and sqf.eval(hi) != 0
            assert sqf.count_roots(lo, hi) == 1
    for a, b in zip(got, got[1:]):
        assert a.hi <= b.lo


@settings(max_examples=40, deadline=None, derandomize=True)
@given(polys_with_roots(), st.data())
def test_sturm_count_matches_sympy(case, data):
    sympy = pytest.importorskip("sympy")
    p, roots = case
    # interval ends: none (infinite), a root of p, or any small rational
    end = st.one_of(st.none(), st.sampled_from(roots or [F(0)]), SMALL_RATIONALS)
    lo, hi = data.draw(end), data.draw(end)
    if lo is not None and hi is not None:
        lo, hi = min(lo, hi), max(lo, hi) + (lo == hi)
    sqf = _sympy_poly(sympy, p).sqf_part()
    ends = [sympy.Rational(x) for x in (lo, hi) if x is not None]
    want = sqf.count_roots(*[None if x is None else sympy.Rational(x) for x in (lo, hi)])
    want -= sum(sqf.eval(x) == 0 for x in ends)  # the interval is open
    assert sturm_count(p, lo, hi) == want


# ---------------------------------------------------------------------------
# Bareiss det against independent oracles
# ---------------------------------------------------------------------------

# Q, Q(sqrt m) by m (in Q(cos(pi/n)) for n = 4, 6, 5), Q[t], and entries
# from Q(sqrt 2) and Q(sqrt 5) in one matrix (n = 4 and 5, lifted to 20)
MIXED = "2+5"
RINGS = ("Q", 2, 3, 5, "Q[t]", MIXED)

# zero-heavy, so that pivots need row swaps and some matrices are singular
RATIONALS = st.one_of(st.just(F(0)),
                      st.builds(F, st.integers(-6, 6), st.integers(1, 4)))


def ring_entries(ring):
    if ring == "Q":
        return RATIONALS
    if ring == "Q[t]":
        return st.lists(RATIONALS, max_size=3).map(Poly)
    if ring == MIXED:
        return st.one_of(ring_entries(2), ring_entries(5))
    return st.builds(QuadExt, RATIONALS, RATIONALS, st.just(ring)).map(in_field)


@st.composite
def square_matrices(draw):
    """(ring, rows): a random 2x2 to 5x5 matrix over one of RINGS."""
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.integers(2, 5))
    row = st.lists(ring_entries(ring), min_size=n, max_size=n)
    return ring, draw(st.lists(row, min_size=n, max_size=n))


def cofactor_det(rows):
    """Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, a in enumerate(rows[0]):
        term = a * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


@settings(max_examples=100, deadline=None, derandomize=True)
@given(square_matrices())
def test_det_matches_cofactor_expansion(case):
    _, rows = case
    assert ExactMatrix(rows).det() == cofactor_det(rows)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(square_matrices())
def test_det_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    ring, rows = case
    # sympy writes cos(pi/n) in radicals for n = 4, 5, 6, not for n = 20
    assume(ring != MIXED)
    t = sympy.Symbol("t")

    def to_sympy(e):
        if isinstance(e, Poly):
            return sum(sympy.Rational(c.numerator, c.denominator) * t ** i
                       for i, c in enumerate(e.coeffs))
        if isinstance(e, RealCyclotomic):
            c = sympy.cos(sympy.pi / e.n)
            return sum(sympy.Rational(a.numerator, a.denominator) * c ** i
                       for i, a in enumerate(e.poly.coeffs))
        return sympy.Rational(e.numerator, e.denominator)

    # Berkowitz divides by nothing, so `expand` brings both sides to the
    # canonical a + b*sqrt(m) or polynomial form
    want = sympy.Matrix([[to_sympy(e) for e in r] for r in rows]).det(method="berkowitz")
    assert sympy.expand(to_sympy(ExactMatrix(rows).det()) - want) == 0


# ---------------------------------------------------------------------------
# The field Q(cos(pi/n)) against QuadExt, mpmath and sympy
# ---------------------------------------------------------------------------

# n -> m with Q(cos(pi/n)) = Q(sqrt m)
QUADRATIC = {4: 2, 6: 3, 5: 5}


def euler_phi(k):
    return sum(math.gcd(j, k) == 1 for j in range(1, k + 1))


def mp_value(mpmath, x):
    """x at the working precision of mpmath, from its coefficients."""
    c = mpmath.cos(mpmath.pi / x.n)
    return sum(mpmath.mpf(a.numerator) / a.denominator * c ** i
               for i, a in enumerate(x.poly.coeffs))


@pytest.mark.parametrize("n", sorted(QUADRATIC))
def test_field_matches_quadratic_reference(n):
    m = QUADRATIC[n]
    rng = random.Random(n)

    def quad():
        return QuadExt(F(rng.randint(-9, 9), rng.randint(1, 6)),
                       F(rng.randint(-9, 9), rng.randint(1, 6)), m)

    seen_equal = 0
    for _ in range(200):
        x = quad()
        y = rng.choice((quad(), quad(), x, QuadExt(x.a, F(0), m)))
        fx, fy = in_field(x), in_field(y)
        assert fx.n == n
        assert fx + fy == in_field(x + y)
        assert fx - fy == in_field(x - y)
        assert fx * fy == in_field(x * y)
        assert fx.sign() == x.sign()
        assert float(fx) == pytest.approx(float(x), rel=1e-12, abs=1e-12)
        assert (fx == fy) == (x == y) and (fx != fy) == (x != y)
        assert (fx == x.a) == (x.b == 0)
        seen_equal += x == y
    assert seen_equal >= 40


def test_cosines_of_every_rational_multiple_of_pi():
    for n in range(1, 31):
        for a in range(-2 * n, 2 * n + 1):
            c = cos_pi(F(a, n))
            # cos(a pi/n) in lowest terms is rational only for denominators 1-3
            assert isinstance(c, F) == (F(a, n).denominator <= 3)
            assert float(c) == pytest.approx(math.cos(a * math.pi / n), abs=1e-12)
            assert c == cos_pi(F(-a, n)) == cos_pi(F(a, n) + 2)
    # cos(pi/4) = T_5(cos(pi/20)): elements of different n meet at the lcm
    c4, c5 = cos_pi(F(1, 4)), cos_pi(F(1, 5))
    assert c4.lift(20) == c4 and c4.lift(20).n == 20
    assert RealCyclotomic(Poly([0, 5, 0, -20, 0, 16]), 20) == c4
    assert (c4 * c4, (4 * c5 - 1) * (4 * c5 - 1)) == (F(1, 2), 5)
    assert (c4 + c5).n == 20 and (c4 + c5) - c5 == c4


def test_field_rejects_zero_divisors_and_polynomials():
    # immutability and unhashability are checked in test_records.py
    x = cos_pi(F(1, 5))
    with pytest.raises(TypeError):
        x + Poly([1, 1])


def test_minimal_polynomial_degree_and_residual():
    # a monic polynomial of degree phi(2n)/2 = [Q(cos(pi/n)) : Q] with
    # x = 2cos(pi/n) as a root is its minimal polynomial psi_n
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for n in range(1, 61):
            psi = exactmath._psi(n)
            assert len(psi) - 1 == max(1, euler_phi(2 * n) // 2) and psi[-1] == 1
            assert abs(mp_value(mpmath, RealCyclotomic._of(psi[:-1], 1, n))
                       + (2 * mpmath.cos(mpmath.pi / n)) ** (len(psi) - 1)) < mpmath.mpf(10) ** -40


@pytest.mark.parametrize("n", [5, 7, 9, 12, 15, 20])
def test_minimal_polynomial_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    want = sympy.Poly(sympy.minimal_polynomial(2 * sympy.cos(sympy.pi / n), x), x)
    assert exactmath._psi(n) == tuple(int(c) for c in reversed(want.all_coeffs()))


def near_zero_elements(rng, ns, count):
    """count seeded elements per n, half of them minus a rational within
    binary64's error of them: |x| is then about 1e-15, a sign no float
    evaluation decides."""
    for n in ns:
        d = field_degree(n)
        for _ in range(count):
            x = RealCyclotomic(Poly([F(rng.randint(-20, 20), rng.randint(1, 9))
                                     for _ in range(d)]), n)
            yield x - F(float(x)).limit_denominator(10 ** 9) if rng.random() < 0.5 else x


def test_sign_matches_sturm_reference():
    xs = list(near_zero_elements(random.Random(31), range(4, 31), 6))
    assert [x.sign() for x in xs] == [field_sign_reference(x) for x in xs]
    assert sum(abs(float(x)) < 1e-12 for x in xs) >= 70


@pytest.mark.parametrize("n", [72, 84, 90])
def test_sign_bound_stays_exact(n):
    """Degree-23 elements near zero: their midpoints a/b reach b^23 far
    beyond binary64's range, so a bound that turned float would overflow."""
    y = RealCyclotomic(Poly(range(1, 25)), n)
    assert y.poly.degree == 23
    x = y - F(float(y))
    assert x.sign() == field_sign_reference(x) == -(-x).sign() != 0


def test_cos_pi_interval_isolates_the_largest_root():
    """cos(pi/n)'s interval, doubled, holds exactly one root of psi_n and
    none lies above it; up to n = 60 it meets the largest interval of
    `isolate_roots`."""
    for n in [*range(4, 61), 113, 127]:
        f = Poly(exactmath._psi(n))
        lo, hi, exact = exactmath._cos_pi_interval(n)
        assert not exact and lo < math.cos(math.pi / n) < hi
        assert sturm_count(f, 2 * lo, 2 * hi) == 1 and sturm_count(f, 2 * hi) == 0
        if n <= 60:
            ref = isolate_roots(f)[-1]
            assert max(2 * lo, ref.lo) < min(2 * hi, ref.hi)


def test_sign_needs_no_rational_root_search(monkeypatch):
    """A sign in Q(cos(pi/127)) comes out without the rational root search,
    whose trial division of 2^62 would take minutes."""
    def refuse(p):
        raise AssertionError("rational root search")

    monkeypatch.setattr(exactmath, "_rational_roots", refuse)
    exactmath._cos_pi_interval.cache_clear()
    x = cos_pi(F(1, 127))  # 0.99969407...
    assert ((x - F(99969, 100000)).sign(), (x - F(9997, 10000)).sign()) == (1, -1)


def test_sign_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    tiny = 0
    for x in near_zero_elements(random.Random(30), [*range(4, 31), 72, 84, 90], 20):
        with mpmath.workdps(60):
            v = mp_value(mpmath, x)
            tiny += abs(v) < 1e-12
        assert x.sign() == (v > 0) - (v < 0)
    assert tiny >= 200


# ---------------------------------------------------------------------------
# Integer rows against the former Fraction-Poly field and elimination
# ---------------------------------------------------------------------------

# one field, or entries of two fields lifted to their lcm
FIELD_CHOICES = [(n,) for n in range(4, 31)] + [(4, 5), (4, 6), (5, 6), (7, 4), (9, 2), (8, 3)]


def random_entry(rng, ns):
    """A zero-heavy element of one of the fields, now and then a rational."""
    roll = rng.random()
    if roll < 0.3:
        return F(0)
    if roll < 0.4:
        return F(rng.randint(-5, 5), rng.randint(1, 4))
    n = rng.choice(ns)
    d = field_degree(n)
    return RealCyclotomic(Poly([F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                                for _ in range(rng.randint(1, d))]), n)


def as_reference(x, n):
    return CyclotomicReference.of(x, n)


def assert_same(got, want, n):
    if isinstance(want, CyclotomicReference):
        assert isinstance(got, RealCyclotomic) and got.n == n
        assert as_reference(got, n) == want
    else:
        assert got == want


def test_field_elimination_matches_reference():
    """det, leading_minors and minor over Q(cos(pi/n)), n <= 30, against the
    former elimination on `Fraction`-coefficient polynomials in cos(pi/n)."""
    rng = random.Random(40)
    swaps = singular = 0
    for case in range(160):
        ns = rng.choice(FIELD_CHOICES)
        k = rng.randint(1, 5)
        rows = [[random_entry(rng, ns) for _ in range(k)] for _ in range(k)]
        if k >= 3 and case % 4 == 0:  # a combination of two rows
            a, b = random_entry(rng, ns), random_entry(rng, ns)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        matrix = ExactMatrix(rows)
        if matrix.ring == "Q":
            continue
        n = int(matrix.ring[len("Q(cos(pi/"):-2])
        ref = [[as_reference(e, n) for e in r] for r in rows]
        det, minors = bareiss_reference(ref)
        assert_same(matrix.det(), det, n)
        got = matrix.leading_minors()
        assert (got is None) == (minors is None)
        for g, w in zip(got or [], minors or []):
            assert_same(g, w, n)
        for _ in range(3):
            size = rng.randint(0, k)
            r, c = rng.sample(range(k), size), rng.sample(range(k), size)
            want = bareiss_reference([[ref[i][j] for j in c] for i in r])[0]
            assert_same(matrix.minor(r, c), want, n)
        swaps += minors is None
        singular += det == 0
    assert swaps >= 30 and singular >= 20


def test_leading_minor_zero_only_in_the_field():
    """Twice this matrix is eliminated in Z[x], x = 2cos(pi/4), where its
    second leading minor x^2 - 2 is a nonzero pivot; it is psi_4, so the
    minor vanishes in the field, and the leading minors are None as when
    the elimination swaps rows."""
    c = cos_pi(F(1, 4))
    rows = [[c, F(1, 2), 1], [1, c, 0], [0, 1, 1]]
    matrix = ExactMatrix(rows)
    assert matrix.det() == 1
    assert matrix.leading_minors() is None
    assert matrix.minor([0, 1], [0, 1]) == 0
    det, minors = bareiss_reference([[as_reference(e, 4) for e in r] for r in rows])
    assert_same(matrix.det(), det, 4)
    assert minors is None


@pytest.mark.parametrize("p", [127, 257])
def test_high_degree_determinants_match_mpmath(p):
    """Seeded 4- and 5-vertex cosine matrices with labels k/p pi, in fields
    of degree 63 and 128, beyond `bareiss_reference`'s reach: the exact
    determinant's value is mpmath's 60-digit determinant of the same
    matrix within 1e-40.  Its row's coefficients in cos(pi/p) reach about
    1e47 and cancel, so the row is evaluated with that many more digits."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(p)
    for size in (4, 5):
        ks = [[None] * size for _ in range(size)]
        for i in range(size):
            for j in range(i):
                ks[i][j] = ks[j][i] = rng.randint(1, p - 1)
        rows = [[F(-1) if k is None else cos_pi(F(k, p)) for k in r] for r in ks]
        det = ExactMatrix(rows).det()
        assert det.n == p and len(det.row) > field_degree(p) // 2
        digits = max(len(str(abs(c.numerator))) for c in det.poly.coeffs)
        with mpmath.workdps(60 + digits):
            got = mp_value(mpmath, det)
        with mpmath.workdps(60):
            want = mpmath.det(mpmath.matrix(
                [[-1 if k is None else mpmath.cos(k * mpmath.pi / p) for k in r] for r in ks]))
            assert abs(got - want) < mpmath.mpf(10) ** -40


def test_polynomial_elimination_matches_reference():
    """The same over Q[t], with rational coefficients."""
    rng = random.Random(41)
    for _ in range(120):
        k = rng.randint(1, 5)
        rows = [[Poly([F(rng.randint(-4, 4), rng.randint(1, 6)) * (rng.random() < 0.7)
                       for _ in range(rng.randint(0, 3))]) for _ in range(k)] for _ in range(k)]
        matrix = ExactMatrix(rows)
        ref = [[FractionPoly.of(e) for e in r] for r in rows]
        det, minors = bareiss_reference(ref)
        assert matrix.det() == det
        assert matrix.leading_minors() == minors
        r, c = rng.sample(range(k), k - 1), rng.sample(range(k), k - 1)
        assert matrix.minor(r, c) == bareiss_reference([[ref[i][j] for j in c] for i in r])[0]


def test_field_arithmetic_matches_reference():
    rng = random.Random(42)
    for _ in range(300):
        ns = rng.choice(FIELD_CHOICES)
        x, y = random_entry(rng, ns), random_entry(rng, ns)
        if not isinstance(x, RealCyclotomic):
            continue
        n = math.lcm(x.n, *([y.n] if isinstance(y, RealCyclotomic) else []))
        rx, ry = as_reference(x, n), as_reference(y, n)
        assert as_reference(x + y, n) == rx + ry
        assert as_reference(x - y, n) == rx - ry and as_reference(y - x, n) == ry - rx
        assert as_reference(x * y, n) == rx * ry


def test_case_c_elimination_makes_no_fraction(monkeypatch):
    """The six case-c cosine matrices are built and eliminated, and their
    minors signed, on ints, and so are the four case-a matrices over Q[t],
    with their determinants' roots counted on (0, 1/2): no `Fraction` is
    made."""
    ids = [f"{key}-{i}" for key in ("quarter", "fifth") for i in (1, 2, 3)]
    rows = [gram_from_diagram(fixtures.diagram(i)).rows for i in ids]
    for r in rows:  # the fields' intervals are built once per process
        ExactMatrix(r).det().sign()
    case_a = [gram_from_diagram(fixtures.diagram(f"case-a-{i}"), as_poly_in="beta").rows
              for i in range(1, 5)]
    lo, hi = F(0), F(1, 2)
    made = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    assert F(1, 2) + F(1, 3) and made  # the count sees arithmetic
    made.clear()
    for r in rows:
        matrix = ExactMatrix(r)
        signs = [sign(d) for d in [matrix.det(), *(matrix.leading_minors() or [])]]
        assert signs[0] != 0
    for r in case_a:
        assert sturm_count(ExactMatrix(r).det(), lo, hi) == 0
    assert made == []


def test_inexact_division_raises_under_python_O():
    """A remainder other than zero raises ArithmeticError, also where
    `python -O` strips asserts: over Z ((2 - 1) / 2 in an elimination
    step) and Z[t] (also t^2 + 2 by 2t - 1, as the square-free part and the
    rational roots divide), the rings every elimination runs over."""
    code = ("from reptile_lab import exactmath as em\n"
            "cases = [lambda: em._INTEGERS.step([[2, 1], [1, 1]], 0, 2),\n"
            "         lambda: em._INT_POLYS.div((1, 1), (0, 2)),\n"
            "         lambda: em._INT_POLYS.div((1, 0, 1), (1, 1)),\n"
            "         lambda: em._INT_POLYS.div((2, 0, 1), (-1, 2))]\n"
            "for case in cases:\n"
            "    try:\n"
            "        case()\n"
            "        print('quiet')\n"
            "    except ArithmeticError:\n"
            "        print('raised')\n")
    src = str(pathlib.Path(exactmath.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.split("\n") == ["raised"] * 4 + [""]


# ---------------------------------------------------------------------------
# The field's degree bound
# ---------------------------------------------------------------------------

def test_field_degree_is_euler_phi_over_two():
    for n in range(1, 200):
        assert exactmath.field_degree(n) == max(1, euler_phi(2 * n) // 2)
    assert exactmath.field_degree(693) == 180 and exactmath.field_degree(2772) == 720


def test_degree_bound_is_checked_before_lifting(monkeypatch):
    # cos(pi/7), cos(3 pi/11), cos(2 pi/9) meet in Q(cos(pi/693)), of degree 180
    def refuse(self, m):
        raise AssertionError("lifted")

    monkeypatch.setattr(RealCyclotomic, "lift", refuse)
    entries = [cos_pi(F(1, 7)), cos_pi(F(3, 11)), cos_pi(F(2, 9))]
    with pytest.raises(ValueError, match=r"^Q\(cos\(pi/693\)\) has degree 180; "):
        ExactMatrix([entries, entries, entries])
    assert exactmath.MAX_FIELD_DEGREE >= field_degree(127) == 63
    with pytest.raises(ValueError, match="degree"):
        cos_pi(F(1, 1009))
