"""Float oracles for the Gram-matrix tests, the exact normal Gram matrix,
the package's former `Fraction` polynomial (division, gcd, square-free
part) with the slow references for Sturm root isolation and for the sign
of a field element built on it, the trial-factoring oracle of
`algebraic_degree` (in test_acceptance.py, beside criterion 13), the
generic permutation-group layer on vertex tuples (group test, orbit
search, Burnside count, cyclic and small subgroups) that checks
`KnTables.orbits`, richness read from a diagram's labels, the
position-tuple form of `pair_canonical`, `QuadExt`, the closed-form
quadratic fields Q(sqrt m) that check `RealCyclotomic` for n = 4, 6 and 5,
the former `Fraction`-polynomial field Q(cos(pi/n)) and its Bareiss
elimination, which check the integer rows, spherical-triangle validity in
Fraction arithmetic and its sort-free reference over a beta interval, the
mirror triangles of the reflection groups A3, B3 and H3 and the bisector
family, targets known to be tiled without asking the tiling search, the
depth of the overlap of two spherical triangles by clipping, which checks
`verify_tiling`'s separating-side test, and a triangle's (angle, opposite
side) pairs from tangents, which check the ones `verify_tiling` reads from
its side planes.

numpy is a test dependency only: these helpers recompute in binary64, by
routes independent of the package's exact arithmetic, what `gram` decides
exactly.
"""

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

import numpy as np

from reptile_lab import sphgeo
from reptile_lab.coxeter import ConsistencyError, kn_tables, orbits
from reptile_lab.exactmath import (ExactMatrix, Poly, RingMismatchError, RootInterval, chebyshev,
                                   cos_pi)
from reptile_lab.hill import EuclideanSimplex
from reptile_lab.spherical import is_valid


class DegenerateSimplexError(ValueError):
    pass


def facet_normals(simplex: EuclideanSimplex) -> np.ndarray:
    """Outward unit normal of each facet F_i (the one opposite vertex i)."""
    vs = np.array([[float(c) for c in v] for v in simplex.vertices])
    d = simplex.dim
    normals = np.zeros((d + 1, d))
    for i in range(d + 1):
        others = [j for j in range(d + 1) if j != i]
        base = vs[others[0]]
        span = np.array([vs[j] - base for j in others[1:]])
        # kernel of the span: the facet's normal direction
        _, _, vh = np.linalg.svd(span)
        n = vh[-1]
        if np.linalg.norm(span @ n) > 1e-9 * max(1.0, np.abs(span).max()):
            raise DegenerateSimplexError("facet span is rank deficient")
        if np.dot(n, vs[i] - base) > 0:
            n = -n
        normals[i] = n / np.linalg.norm(n)
    return normals


def dihedral_angles(simplex: EuclideanSimplex) -> np.ndarray:
    """Matrix of dihedral angles between facet pairs (pi on the diagonal).

    The dihedral angle between facets is pi minus the angle between their
    outward normals.
    """
    if simplex.volume() == 0:
        raise DegenerateSimplexError("affinely dependent vertices")
    normals = facet_normals(simplex)
    d1 = normals.shape[0]
    out = np.full((d1, d1), math.pi)
    for i, j in itertools.combinations(range(d1), 2):
        c = float(np.clip(np.dot(normals[i], normals[j]), -1.0, 1.0))
        out[i, j] = out[j, i] = math.pi - math.acos(c)
    return out


def gram_from_angles(angle_matrix: np.ndarray) -> np.ndarray:
    """Numeric cosine matrix from a dihedral-angle matrix (diagonal -> -1)."""
    out = np.cos(angle_matrix)
    np.fill_diagonal(out, -1.0)
    return out


def dihedral_angle_at_ridge(simplex: EuclideanSimplex, i: int, j: int) -> float:
    """Dihedral angle along the ridge shared by facets i and j, measured
    inside the simplex from vectors orthogonal to the ridge.

    Independent of the normal-based route; used as a cross-check oracle.
    """
    vs = np.array([[float(c) for c in v] for v in simplex.vertices])
    ridge = [k for k in range(simplex.dim + 1) if k not in (i, j)]
    base = vs[ridge[0]]
    ridge_span = np.array([vs[k] - base for k in ridge[1:]])

    def ortho_component(vec):
        v = vec.copy()
        if len(ridge_span):
            q, _ = np.linalg.qr(ridge_span.T)
            v = v - q @ (q.T @ v)
        return v

    # facet i contains vertex j and the ridge; direction into facet i
    u = ortho_component(vs[j] - base)
    w = ortho_component(vs[i] - base)
    c = float(np.clip(np.dot(u, w) / (np.linalg.norm(u) * np.linalg.norm(w)), -1, 1))
    return math.acos(c)


def eigh_analysis(m, tol: float = 1e-9):
    """(rank, negative semidefinite, unit kernel vector or None) of a
    symmetric float matrix from its eigenvalues at `tol`.  The kernel
    vector, given when the kernel is one-dimensional, has a nonnegative sum."""
    vals, vecs = np.linalg.eigh(np.asarray(m, dtype=float))
    rank = int(np.sum(np.abs(vals) > tol))
    neg_semi = bool(vals[-1] <= tol)
    near_zero = np.abs(vals) <= tol
    kernel = None
    if near_zero.sum() == 1:
        kernel = vecs[:, int(np.argmax(near_zero))]
        if kernel.sum() < 0:
            kernel = -kernel
    return rank, neg_semi, kernel


def normal_gram(simplex: EuclideanSimplex) -> ExactMatrix:
    """Exact Gram matrix N of outward facet normals of a rational simplex.

    With E the matrix of rows v_i - v_0 (i = 1..d), the barycentric
    coordinate of vertex i is row i of E^-T applied to x - v_0, so facet i
    has outward normal -row_i(E^-T) and facet 0 has the sum of the rows.
    The normals here are those times det E, rows of the cofactor matrix of
    E, so N is rational and scaled by det(E)^2 > 0.  The cosine matrix of
    the simplex is C = -D^-1 N D^-1 with D = diag(|n_i|), a positive-
    diagonal congruence of -N, so -N and C share rank, semidefiniteness
    and the sign pattern of their kernel vectors.
    """
    d = simplex.dim
    v0 = simplex.vertices[0]
    e = ExactMatrix([[Fraction(simplex.vertices[i + 1][k]) - Fraction(v0[k])
                      for k in range(d)] for i in range(d)])
    rest = [[k for k in range(d) if k != i] for i in range(d)]
    cof = [[(-1) ** (i + k) * e.minor(rest[i], rest[k]) for k in range(d)]
           for i in range(d)]
    normals = [[sum(col) for col in zip(*cof)]] + [[-x for x in r] for r in cof]
    return ExactMatrix([[sum(a * b for a, b in zip(p, q)) for q in normals]
                        for p in normals])


# ---------------------------------------------------------------------------
# The package's former Fraction polynomial over Q, with its division, gcd
# and square-free part, and Sturm root isolation by Fraction Horner
# evaluation on it: the reference for the integer rows of `Poly` and for
# the integer sign kernel of `sturm_count` and `isolate_roots`.
# ---------------------------------------------------------------------------


class FractionPoly:
    """Dense univariate polynomial over Q, `Fraction` coefficients in
    ascending degree; the zero polynomial has none, otherwise the leading
    coefficient is nonzero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def of(p) -> "FractionPoly":
        """A FractionPoly, a package `Poly`, an int or a Fraction as a
        FractionPoly."""
        if isinstance(p, FractionPoly):
            return p
        return FractionPoly(p.coeffs if isinstance(p, Poly) else [p])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        return self.coeffs[-1]

    def __eq__(self, other):
        return self.coeffs == FractionPoly.of(other).coeffs

    def __add__(self, other):
        a, b = self.coeffs, FractionPoly.of(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return FractionPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-FractionPoly.of(other))

    def __mul__(self, other):
        b = FractionPoly.of(other).coeffs
        out = [Fraction(0)] * (len(self.coeffs) + len(b))
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return FractionPoly(out)

    __rmul__ = __mul__

    def divmod(self, other: "FractionPoly") -> tuple:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        d, lc = other.degree, other.leading()
        for k in reversed(range(len(q))):
            q[k] = f = rem[k + d] / lc
            for i, c in enumerate(other.coeffs[:d]):
                rem[k + i] -= f * c
        return FractionPoly(q), FractionPoly(rem[:d])

    def exact_div(self, other: "FractionPoly") -> "FractionPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ArithmeticError("inexact polynomial division")
        return q

    __truediv__ = exact_div

    def derivative(self) -> "FractionPoly":
        return FractionPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        out = x * 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def monic(self) -> "FractionPoly":
        return FractionPoly([c / self.leading() for c in self.coeffs]) if self.coeffs else self

    def gcd(self, other: "FractionPoly") -> "FractionPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def square_free_part(self) -> "FractionPoly":
        return self.exact_div(self.gcd(self.derivative())).monic()


def sturm_chain_reference(p) -> list:
    """The Sturm chain of p's square-free part, by Fraction remainders."""
    chain = [FractionPoly.of(p).square_free_part()]
    chain.append(chain[0].derivative())
    while not chain[-1].is_zero():
        chain.append(-(chain[-2].divmod(chain[-1])[1]))
    chain.pop()
    return chain


def _sign_at(p: FractionPoly, x) -> int:
    # x is a Fraction, or +/- infinity encoded as the strings "+inf"/"-inf"
    if p.is_zero():
        return 0
    if x == "+inf":
        return 1 if p.leading() > 0 else -1
    if x == "-inf":
        s = 1 if p.leading() > 0 else -1
        return s if p.degree % 2 == 0 else -s
    v = p(x)
    return 0 if v == 0 else (1 if v > 0 else -1)


def _variations(chain, x) -> int:
    signs = [s for s in (_sign_at(p, x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count_reference(p, lo=None, hi=None) -> int:
    """Distinct real roots of p in the open interval (lo, hi), None = infinite."""
    chain = sturm_chain_reference(p)
    a = "-inf" if lo is None else Fraction(lo)
    b = "+inf" if hi is None else Fraction(hi)
    count = _variations(chain, a) - _variations(chain, b)
    if b != "+inf" and chain[0](b) == 0:
        count -= 1  # V(a)-V(b) counts roots in (a, b]
    return count


def _rational_roots(p: FractionPoly) -> list:
    roots = []
    cs = list(p.coeffs)
    k = 0
    while cs and cs[0] == 0:
        cs.pop(0)
        k += 1
    if k:
        roots.append(Fraction(0))
    if not cs or len(cs) == 1:
        return roots
    q = FractionPoly(cs)
    den = math.lcm(*[c.denominator for c in q.coeffs])
    ints = [int(c * den) for c in q.coeffs]
    g = math.gcd(*[abs(c) for c in ints if c != 0])
    ints = [c // g for c in ints]
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(n):
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                out.append(n // d)
            d += 1
        return sorted(set(out))

    for num in divisors(a0):
        for dnm in divisors(an):
            for cand in (Fraction(num, dnm), Fraction(-num, dnm)):
                if q(cand) == 0 and cand not in roots:
                    roots.append(cand)
    return sorted(roots)


def isolate_roots_reference(p, precision=Fraction(1, 10000)) -> list:
    """Sturm bisection recomputing every count from Fraction evaluations."""
    precision = Fraction(precision)
    f = FractionPoly.of(p).square_free_part()
    out = [RootInterval(r, r, True) for r in _rational_roots(f)]
    for r in out:
        f = f.exact_div(FractionPoly([-r.lo, 1]))
    if f.degree >= 1:
        lc = abs(f.leading())
        bound = 1 + max(abs(c) for c in f.coeffs) / lc
        chain = sturm_chain_reference(f)
        stack = [(-bound, bound, _variations(chain, -bound) - _variations(chain, bound))]
        while stack:
            lo, hi, cnt = stack.pop()
            if cnt == 0:
                continue
            if cnt == 1 and hi - lo <= precision:
                out.append(RootInterval(lo, hi, False))
                continue
            mid = (lo + hi) / 2
            if f(mid) == 0:  # cannot happen (no rational roots), keep safe
                mid += (hi - lo) / 4
            vm = _variations(chain, mid)
            vl = _variations(chain, lo)
            vh = _variations(chain, hi)
            stack.append((lo, mid, vl - vm))
            stack.append((mid, hi, vm - vh))
    return sorted(out, key=lambda r: r.midpoint)


def field_sign_reference(x) -> int:
    """The package's former `RealCyclotomic.sign`, kept as the reference
    for its bisection bound: c's isolating interval, a window around
    binary64's cos(pi/n) in which the reference chain of c's minimal
    polynomial counts one root, is halved until the Sturm chain of p counts
    no root of p in it, and p's sign at the midpoint is then its sign at c."""
    p = FractionPoly.of(x.poly)
    if p.degree <= 0:
        return _sign(p.coeffs[0]) if p.coeffs else 0
    chain = sturm_chain_reference(p)
    f = minimal_polynomial_reference(x.n)
    c, w = Fraction(math.cos(math.pi / x.n)), Fraction(1, 2 ** 30)
    lo, hi = c - w, c + w
    if sturm_count_reference(f, lo, hi) != 1:
        raise ArithmeticError(f"no isolating window for cos(pi/{x.n})")
    f_lo, v_lo, v_hi = _sign(f(lo)), _variations(chain, lo), _variations(chain, hi)
    # V(lo) - V(hi) counts the roots in (lo, hi]
    while v_lo - v_hi - (p(hi) == 0):
        mid = (lo + hi) / 2
        if _sign(f(mid)) == f_lo:
            lo, v_lo = mid, _variations(chain, mid)
        else:
            hi, v_hi = mid, _variations(chain, mid)
    return _sign(p((lo + hi) / 2))


def minimal_polynomial_degree_bruteforce(k: int, d: int) -> int:
    """Oracle: factor x^d - k over Z by trial monic integer factors.

    Only degrees up to 4 are needed; the candidate coefficient ranges come
    from the root bound |root| = k^(1/d).
    """
    if d not in (2, 3, 4):
        raise ValueError("oracle supports d in {2, 3, 4}")
    root_bound = int(math.ceil(k ** (1.0 / d))) + 1
    # degree-1 factors: rational (hence integer) roots
    lin = [r for r in range(1, root_bound + 1) if r ** d == k]
    if lin:
        return 1
    if d == 2:
        return 2
    if d == 3:
        return 3  # no linear factor of x^3 - k means irreducible (degree 3)
    # d == 4: look for quadratic factors x^2 + u x + v with integer u, v
    for u in range(-2 * root_bound, 2 * root_bound + 1):
        for v in range(-k, k + 1):
            if v == 0 or k % abs(v) != 0:
                continue
            # x^4 - k = (x^2+ux+v)(x^2-ux+(u^2-v)) + (2uv-u^3)x + (v^2-u^2v-k)
            if 2 * u * v - u ** 3 == 0 and v * v - u * u * v - k == 0:
                return 2
    return 4


def _compose(p, q):
    return tuple(p[x] for x in q)


def is_group_reference(perms) -> bool:
    """Group test composing permutation tuples directly (the former
    `coxeter.is_group`)."""
    s = set(perms)
    if not s:
        return False
    n = len(next(iter(s)))
    if tuple(range(n)) not in s:
        return False
    for p in s:
        inv = [0] * n
        for i, x in enumerate(p):
            inv[x] = i
        if tuple(inv) not in s:
            return False
        for q in s:
            if _compose(p, q) not in s:
                return False
    return True


def act_on_vertex_set(perm, xs: frozenset) -> frozenset:
    return frozenset(perm[x] for x in xs)


def orbit_partition_reference(group, elements, act) -> list:
    """Orbits of the action by closure search, as frozensets covering the
    elements, sorted by their members' reprs (the former
    `coxeter.orbit_partition`)."""
    remaining = set(elements)
    out = []
    while remaining:
        x = remaining.pop()
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for g in group:
                z = act(g, y)
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        remaining -= orbit
        out.append(frozenset(orbit))
    return sorted(out, key=lambda o: sorted(map(repr, o)))


def burnside_count_reference(group, elements, act) -> int:
    """Orbit count as the average number of fixed points (the former
    `coxeter.burnside_count`).  Permutations that are no group raise
    ValueError; an average that is no integer, ConsistencyError."""
    if not is_group_reference(group):
        raise ValueError("input permutations do not form a group")
    total = sum(sum(1 for x in elements if act(g, x) == x) for g in group)
    count = Fraction(total, len(group))
    if count.denominator != 1:
        raise ConsistencyError(f"Burnside average {count} is not an integer")
    return int(count)


def cyclic_subgroups_reference(n: int) -> list:
    """The cyclic subgroups of S_n, each the powers of one permutation,
    sorted by (size, elements) (the former `coxeter.cyclic_subgroups`)."""
    ident = tuple(range(n))
    seen = set()
    for p in itertools.permutations(ident):
        powers = [p]
        while powers[-1] != ident:
            powers.append(_compose(p, powers[-1]))
        seen.add(frozenset(powers))
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def subgroups_reference(n: int) -> list:
    """Subgroups of S_n generated by <= 2 elements (all 156 of S_5), each
    closure a full walk over a Cayley table of tuple compositions.  The
    package checks the pair-orbit bound on the cyclic subgroups alone, as
    the cycles of each edge permutation."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)
    table = [[index[_compose(perms[a], perms[b])] for b in range(size)]
             for a in range(size)]
    ident = index[tuple(range(n))]

    def closure(gens):
        els = {ident}
        frontier = [ident]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = table[x][g]
                if y not in els:
                    els.add(y)
                    frontier.append(y)
        return frozenset(els)

    cyclic = {}
    for g in range(size):
        cyclic.setdefault(closure([g]), g)
    seen = set(cyclic)
    pairs = list(cyclic.items())
    for i, (grp_a, a) in enumerate(pairs):
        for grp_b, b in pairs[i + 1:]:
            if b not in grp_a and a not in grp_b:
                seen.add(closure([a, b]))
    return sorted((frozenset(perms[i] for i in grp) for grp in seen),
                  key=lambda s: (len(s), sorted(s)))


def is_rich(diagram, ttype) -> bool:
    """At least four orbits of the diagram's triangles of the given type,
    the triangles picked by their label forms (the former `coxeter.is_rich`;
    `enumerate_diagrams` picks them by label ids)."""
    return len(orbits(diagram, ttype)) >= 4


def pair_canonical_reference(ea: frozenset, eb: frozenset, n: int) -> tuple:
    """The smallest (alpha positions, beta positions) over all images of the
    pair's coloring, read back as edges (the former `coxeter.pair_canonical`)."""
    kn = kn_tables(n)
    colors = tuple(1 if e in ea else 2 if e in eb else 0 for e in kn.edges)

    def split(image):
        return (tuple(i for i, x in enumerate(image) if x == 1),
                tuple(i for i, x in enumerate(image) if x == 2))
    ia, ib = min(split(g(colors)) for g in kn.getters)
    return (tuple(kn.edges[i] for i in ia), tuple(kn.edges[i] for i in ib))


# ---------------------------------------------------------------------------
# Quadratic fields Q(sqrt m): the reference for Q(cos(pi/n)), n = 4, 6, 5
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


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class QuadExt:
    """Element a + b*sqrt(m) of Q(sqrt(m)), m square-free and m > 1."""

    __slots__ = ("a", "b", "m")

    def __init__(self, a: Fraction, b: Fraction, m: int):
        a, b = Fraction(a), Fraction(b)
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
            return QuadExt(Fraction(other), Fraction(0), self.m)
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
        return float(self.a) + float(self.b) * math.sqrt(self.m)

    def __repr__(self):
        return f"QuadExt({self.a} + {self.b}*sqrt({self.m}))"


# sqrt m = k cos(q pi) + s; m = 2, 3, 5 are the fields of cos(pi/n) for n = 4, 6, 5
SQRT_AS_COSINE = {2: (2, Fraction(1, 4), 0), 3: (2, Fraction(1, 6), 0),
                  5: (4, Fraction(1, 5), -1)}


def in_field(x):
    """A QuadExt over m = 2, 3 or 5 as the same number in Q(cos(pi/n));
    rationals pass through."""
    if not isinstance(x, QuadExt):
        return x
    k, q, s = SQRT_AS_COSINE[x.m]
    return x.a + x.b * (k * cos_pi(q) + s)


@lru_cache(maxsize=None)
def minimal_polynomial_reference(n: int) -> FractionPoly:
    """The package's former monic minimal polynomial of cos(pi/n) over Q.

    The roots of T_n + 1 are the cos(k pi/n) with k odd, and cos(k pi/n) is
    a conjugate of cos(pi/e) for e = n/gcd(k, n), a divisor of n with n/e
    odd.  So the square-free part of T_n + 1 is the product of the minimal
    polynomials of those cos(pi/e); dividing out every e < n leaves n's.
    """
    p = (FractionPoly.of(chebyshev(n)) + 1).square_free_part()
    for e in range(1, n):
        if n % e == 0 and (n // e) % 2:
            p = p.exact_div(minimal_polynomial_reference(e))
    return p


class CyclotomicReference:
    """The package's former element p(c) of Q(cos(pi/n)), c = cos(pi/n):
    p a `FractionPoly` reduced modulo c's minimal polynomial,
    inverses by the extended Euclidean algorithm.  The reference for the
    integer rows of `RealCyclotomic`."""

    __slots__ = ("poly", "n")

    def __init__(self, poly, n: int):
        f, poly = minimal_polynomial_reference(n), FractionPoly.of(poly)
        self.poly = poly.divmod(f)[1] if poly.degree >= f.degree else poly
        self.n = n

    @staticmethod
    def of(x, n: int) -> "CyclotomicReference":
        """A rational, a `RealCyclotomic` or a reference element, lifted to n."""
        if isinstance(x, (int, Fraction)):
            return CyclotomicReference(FractionPoly.of(x), n)
        return CyclotomicReference(x.poly, x.n).lift(n)

    def lift(self, m: int) -> "CyclotomicReference":
        if m == self.n:
            return self
        return CyclotomicReference(self.poly(FractionPoly.of(chebyshev(m // self.n))), m)

    def _polys(self, other):
        if isinstance(other, CyclotomicReference):
            m = math.lcm(self.n, other.n)
            return m, self.lift(m).poly, other.lift(m).poly
        return self.n, self.poly, FractionPoly.of(other)

    def __add__(self, other):
        n, p, q = self._polys(other)
        return CyclotomicReference(p + q, n)

    def __sub__(self, other):
        n, p, q = self._polys(other)
        return CyclotomicReference(p - q, n)

    def __mul__(self, other):
        n, p, q = self._polys(other)
        return CyclotomicReference(p * q, n)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return CyclotomicReference(-self.poly, self.n)

    def inverse(self) -> "CyclotomicReference":
        r0, r1 = minimal_polynomial_reference(self.n), self.poly
        s0, s1 = FractionPoly(), FractionPoly([1])
        if r1.is_zero():
            raise ZeroDivisionError("inverse of zero")
        while r1.degree > 0:
            q, r = r0.divmod(r1)
            r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
        return CyclotomicReference(s1 * (1 / r1.coeffs[0]), self.n)

    def __truediv__(self, other):
        return self * other.inverse()

    def __eq__(self, other):
        _, p, q = self._polys(other)
        return p == q


def bareiss_reference(rows):
    """(determinant, leading principal minors or None) by the package's
    former elimination over ring elements that divide with `/`: Fractions,
    `FractionPoly`s (exact division) or `CyclotomicReference`s."""
    n = len(rows)
    a = [list(r) for r in rows]
    if n == 0:
        return Fraction(1), []
    zero = a[0][0] * 0
    sign, prev, minors = 1, None, []
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
        prev = a[k][k]
    d = a[n - 1][n - 1]
    if minors is not None:
        minors.append(d)
    return (d if sign == 1 else -d), minors


def validity_failure_reference(angles, strict: bool):
    """The reason of the first spherical-triangle validity condition the
    three angles, Fractions of pi (ints allowed), fail, or None: the
    statement of `spherical._failure` in Fraction arithmetic, which checks
    its integer form.  With `strict` false each inequality also allows
    equality."""
    fails = operator.le if strict else operator.lt
    a, b, c = sorted(angles)
    if fails(a, 0) or fails(1, c):
        return "angle outside (0, pi)"
    if fails(a + b + c, 1):
        return "angle sum not above pi"
    if fails(1 + a, b + c):
        return "spherical triangle inequality fails"
    return None


def is_valid_symbolic_reference(lines, lo: Fraction, hi: Fraction) -> bool:
    """Is the triangle with angles q_pi + q_beta*beta (units of pi), one
    (q_pi, q_beta) pair per angle, valid for every beta in (lo, hi)?

    Written without sorting: validity is that ten linear margins are
    positive, each angle x, 1 - x, the sum minus 1, and 1 + x minus the
    other two.  A linear margin is positive on the open interval iff it is
    >= 0 at both ends and not 0 at both.  With lo == hi this is strict
    validity at the point.
    """
    def margins(beta):
        a, b, c = (qp + qb * beta for qp, qb in lines)
        return (a, b, c, 1 - a, 1 - b, 1 - c, a + b + c - 1,
                1 + a - b - c, 1 + b - a - c, 1 + c - a - b)

    return all(m_lo >= 0 and m_hi >= 0 and (m_lo, m_hi) != (0, 0)
               for m_lo, m_hi in zip(margins(lo), margins(hi)))


# The chamber of each finite reflection group of rank 3, angles in
# Fractions of pi (H. S. M. Coxeter, Regular Polytopes, ch. 5).
MIRROR_CHAMBERS = {"A3": (Fraction(1, 3), Fraction(1, 3), Fraction(1, 2)),
                   "B3": (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)),
                   "H3": (Fraction(1, 5), Fraction(1, 3), Fraction(1, 2))}


def mirror_normals(group: str) -> list:
    """A float normal of each mirror of A3 (6), B3 (9) or H3 (15): the
    roots up to sign."""
    a3 = [(1, s, 0) for s in (1, -1)] + [(1, 0, s) for s in (1, -1)] + \
        [(0, 1, s) for s in (1, -1)]
    axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    if group == "A3":
        return a3
    if group == "B3":
        return a3 + axes
    phi = (1 + math.sqrt(5)) / 2
    cyclic = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            v = (phi, s1 * 1.0, s2 / phi)
            cyclic += [v, (v[2], v[0], v[1]), (v[1], v[2], v[0])]
    return axes + cyclic


def mirror_triangles(group: str) -> list:
    """Every triangle whose three sides lie on mirrors of the group, by its
    sorted angles (Fractions of pi), each once.

    The mirrors cut the sphere into copies of the chamber
    (`MIRROR_CHAMBERS`), and a triangle bounded by mirrors lies on one side
    of every mirror, so it is a union of chambers: the chamber tiles it.
    Three mirrors with independent normals n1, n2, n3 bound the eight
    triangles s_i n_i . x >= 0; the angle between sides i and j is pi minus
    the angle between s_i n_i and s_j n_j.  Each angle is snapped to the
    pi/60 grid, and one more than 1e-9 off it raises ValueError.
    """
    normals = [np.array(n, dtype=float) / np.linalg.norm(n) for n in mirror_normals(group)]
    out = set()
    for trio in itertools.combinations(normals, 3):
        if abs(np.linalg.det(np.array(trio))) < 1e-9:
            continue
        for signs in itertools.product((1, -1), repeat=3):
            ns = [s * n for s, n in zip(signs, trio)]
            angles = []
            for i, j in ((0, 1), (1, 2), (0, 2)):
                x = (math.pi - math.acos(max(-1.0, min(1.0, float(ns[i] @ ns[j]))))) / math.pi
                q = round(60 * x)
                if abs(x - q / 60) * math.pi > 1e-9:
                    raise ValueError(f"angle {x} pi is off the pi/60 grid")
                angles.append(Fraction(q, 60))
            out.add(tuple(sorted(angles)))
    return sorted(out)


def bisector_family(max_den: int) -> list:
    """Every pair (tile angles, target) of the bisector family with the
    denominators of v and x up to max_den: the right tile (v, x, 1/2) and
    the isosceles target (2v, x, x), both valid.  Two copies of the tile
    tile the target: the apex bisector meets the base at its midpoint at a
    right angle."""
    qs = sorted({Fraction(n, d) for d in range(2, max_den + 1) for n in range(1, d)})
    return [((v, x, Fraction(1, 2)), (2 * v, x, x)) for v in qs for x in qs
            if is_valid((v, x, Fraction(1, 2))) and is_valid((2 * v, x, x))]


def _clip(poly, f):
    """Sutherland-Hodgman: the part of a convex 2-D polygon (a list of
    points) where the affine function f is >= 0."""
    out = []
    for k, p in enumerate(poly):
        q = poly[(k + 1) % len(poly)]
        fp, fq = f(p), f(q)
        if fp >= 0:
            out.append(p)
        if (fp >= 0) != (fq >= 0):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _scaled(v, s):
    return (v[0] * s, v[1] * s, v[2] * s)


def tiles_overlap_reference(pts1, pts2) -> float:
    """The depth of the overlap of two spherical triangles (three unit
    vectors each): the least width of their intersection, measured on the
    sphere across each of its sides as the spread of the sines of the
    distances of its vertices from that side's great circle; 0.0 when the
    intersection has no area.

    The intersection comes from clipping, not from a search for separating
    planes: the first triangle is mapped into the gnomonic chart centred on
    the normal of the plane through its three vertices, where it is a
    straight triangle, and Sutherland-Hodgman clips it by the three
    half-spaces of the second one (each side's great circle is a line of
    the chart, and the side of it holding the opposite vertex a half-plane).
    The second triangle need not lie in the chart's hemisphere.
    """
    a, b, c = pts1
    centre = _cross([y - x for x, y in zip(a, b)], [y - x for x, y in zip(a, c)])
    centre = _scaled(centre, math.copysign(1 / math.sqrt(_dot(centre, centre)), _dot(centre, a)))
    u = _cross(centre, a)
    u = _scaled(u, 1 / math.sqrt(_dot(u, u)))
    w = _cross(centre, u)
    poly = [(_dot(p, u) / _dot(p, centre), _dot(p, w) / _dot(p, centre)) for p in pts1]
    for k in range(3):
        n = _cross(pts2[k], pts2[k - 1])
        n = _scaled(n, math.copysign(1.0, _dot(n, pts2[k - 2])))
        n0, nu, nw = _dot(n, centre), _dot(n, u), _dot(n, w)
        poly = _clip(poly, lambda p: n0 + p[0] * nu + p[1] * nw)
        if len(poly) < 3:
            return 0.0
    verts = [tuple(x + s * y + t * z for x, y, z in zip(centre, u, w)) for s, t in poly]
    depth = math.inf
    for k, p in enumerate(verts):
        n = _cross(p, verts[k - 1])
        if not any(n):
            continue
        n = _scaled(n, 1 / math.sqrt(_dot(n, n)))
        dists = [_dot(n, v) / math.sqrt(_dot(v, v)) for v in verts]
        depth = min(depth, max(dists) - min(dists))
    return 0.0 if depth == math.inf else depth


def angle_side_pairs_reference(points) -> list:
    """A spherical triangle's sorted (corner angle, opposite side) pairs:
    each angle from the unit tangents toward its two neighbours, each side
    by `sphgeo.arc_length`.  Raises ValueError when two points coincide or
    are antipodal."""
    out = []
    for i in range(3):
        p, q, r = points[i], points[(i + 1) % 3], points[(i + 2) % 3]
        ang = math.acos(max(-1.0, min(1.0, sphgeo.dot(
            sphgeo.tangent_toward(p, q), sphgeo.tangent_toward(p, r)))))
        out.append((ang, sphgeo.arc_length(q, r)))
    return sorted(out)
