"""Spherical triangle primitives on the unit 2-sphere.

Angles are the source of truth.  They enter as Fractions of pi (ints
allowed); a float raises TypeError, so no angle is ever read in two ways.
Edges are derived in radians through the law of cosines for angles,
`law_of_cosines`, or one edge alone, `opposite_edge`: the one place in the
package where exact angles become float edges, both through one formula.
Validity is the classical facts for spherical triangles, stated once
(`_failure`): each angle in (0, pi), angle sum above pi, and the spherical
triangle inequality (the two largest angles sum to less than pi plus the
smallest, equivalent to the area bound 2*min-angle).  It compares
integers: the three angles read once as numerators t_i over L, the lcm of
their denominators (`pi_numerators`), so pi is L.  It is read at a point
(`is_valid`), on numerators the caller already holds (`area_multiple`,
which also tells whether the area is a multiple of a tile's), or at the
ends and the midpoint of a beta interval (`is_valid_symbolic`).

Which multiples of pi/D are sums of some angles is one table, `angle_sums`,
read by `corner_angle_solutions` and by `realize`'s corner table and
candidate lists.  Which lengths are sums of a tile's edges is its float
counterpart, `edge_sums`, read by `realize`'s side test.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cache
from itertools import count
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

if TYPE_CHECKING:  # an annotation only: the tiling search loads no exact core
    from .angles import RelationSet


def _require_exact(angles: Sequence[Fraction]) -> None:
    for a in angles:
        if not isinstance(a, (int, Fraction)):
            raise TypeError(f"angles are Fractions of pi, not {type(a).__name__}")


class ValidityReport(NamedTuple):
    ok: bool
    reason: str = "ok"

    def __bool__(self):
        return self.ok


def pi_numerators(angles: Sequence[Fraction]) -> tuple:
    """(t, L): the angles, Fractions of pi (ints allowed), as the integers
    t_i with angle i = t_i*pi/L, over L the lcm of their denominators."""
    den = math.lcm(*(q.denominator for q in angles))
    return [q.numerator * (den // q.denominator) for q in angles], den


def _failure(t: Sequence[int], den: int, strict: bool) -> Optional[str]:
    """The reason of the first validity condition (module docstring) the
    three angles t_i*pi/den (`pi_numerators`) fail, or None.  With `strict`
    false each inequality also allows equality."""
    fails = operator.le if strict else operator.lt
    a, b, c = sorted(t)
    if fails(a, 0) or fails(den, c):
        return "angle outside (0, pi)"
    if fails(a + b + c, den):
        return "angle sum not above pi"
    if fails(den + a, b + c):
        return "spherical triangle inequality fails"
    return None


def is_valid(angles: Sequence[Fraction]) -> ValidityReport:
    """Exact strict spherical-triangle validity for three Fractions of pi."""
    _require_exact(angles)
    if len(angles) != 3:
        return ValidityReport(False, "need exactly three angles")
    reason = _failure(*pi_numerators(angles), strict=True)
    return ValidityReport(reason is None, reason or "ok")


def area_multiple(t: Sequence[int], den: int, excess: int) -> Optional[bool]:
    """Of the three angles t_i*pi/den (`pi_numerators`): None when they
    form no triangle (`is_valid`), else whether its area, the excess
    (t_1 + t_2 + t_3 - den)*pi/den, is an integer multiple of
    excess*pi/den (excess > 0, a tile's area over the same den)."""
    if _failure(t, den, True):
        return None
    return (sum(t) - den) % excess == 0


class InvalidTriangleError(ValueError):
    pass


def _edge(opp: float, l: float, r: float) -> float:
    """The edge opposite the angle `opp`, angles in radians:
    cos(edge) = (cos opp + cos l cos r) / (sin l sin r)."""
    num = math.cos(opp) + math.cos(l) * math.cos(r)
    den = math.sin(l) * math.sin(r)
    return math.acos(max(-1.0, min(1.0, num / den)))


def law_of_cosines(qa: Fraction, qb: Fraction, qc: Fraction) -> tuple:
    """Edges (a, b, c) in radians from the angles, Fractions of pi; edge x
    opposite angle x.  With `opposite_edge`, the one place exact angles
    become float edges.

    cos(c) = (cos gamma + cos alpha cos beta) / (sin alpha sin beta),
    cyclically, with each angle q taken as float(q) * pi.  The caller has
    checked that the angles form a triangle.
    """
    _require_exact((qa, qb, qc))
    va, vb, vc = (float(q) * math.pi for q in (qa, qb, qc))
    return (_edge(va, vb, vc), _edge(vb, vc, va), _edge(vc, va, vb))


def opposite_edge(q: Fraction, l: Fraction, r: Fraction) -> float:
    """The edge opposite angle q of the triangle with angles q, l and r,
    Fractions of pi: `law_of_cosines(q, l, r)[0]`, the same float,
    without the other two edges."""
    _require_exact((q, l, r))
    return _edge(float(q) * math.pi, float(l) * math.pi, float(r) * math.pi)


def edge_lengths(angles: Sequence[Fraction]) -> tuple:
    """Edges (a, b, c) in radians of the triangle with these angles
    (Fractions of pi), after `is_valid`; edge x opposite angle x."""
    report = is_valid(angles)
    if not report:
        raise InvalidTriangleError(report.reason)
    return law_of_cosines(*angles)


# ---------------------------------------------------------------------------
# Straight-angle (pi) combinations
# ---------------------------------------------------------------------------


def straight_angle_combinations(angles: Sequence[Fraction]) -> set:
    """All nonnegative integer coefficient vectors m with sum(m_i * phi_i) = pi.

    The angles are Fractions of pi and positive, so each coefficient is at
    most pi over its angle and the search is finite.
    """
    _require_exact(angles)
    if any(a <= 0 for a in angles):
        raise ValueError("angles must be positive")
    k = len(angles)
    out = set()
    coeffs = [0] * k

    def rec(i, remaining):
        if i == k:
            if remaining == 0:
                out.add(tuple(coeffs))
            return
        q = angles[i]
        for m in range(int(remaining / q) + 1):
            coeffs[i] = m
            rec(i + 1, remaining - m * q)
        coeffs[i] = 0

    rec(0, Fraction(1))
    return out


# the binary digits '0' and '1' as the bytes 0 and 1
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def angle_sums(angles: Sequence[Fraction], den: int, top: int) -> bytes:
    """Entry j (0 <= j <= top) is 1 exactly when j*pi/den is a nonnegative
    integer combination of the angles (the empty sum 0 included), else 0.
    The angles are Fractions of pi, each positive and a multiple of pi/den,
    and become integers over den here alone.

    Bit j of one integer marks the sum j.  Closing it under adding a step s
    takes log2(top/s) big-integer shifts: after the shifts by s, 2s, ...,
    2^(k-1)*s it holds every sum plus any multiple of s below 2^k*s.
    """
    _require_exact(angles)
    steps = set()
    for a in angles:
        j = a * den
        if a <= 0 or j.denominator != 1:
            raise ValueError(f"angle {a} pi is not a positive multiple of pi/{den}")
        steps.add(int(j))
    full = (1 << (top + 1)) - 1
    mask = 1
    for step in steps:
        shift = step
        while shift <= top:
            mask = (mask | mask << shift) & full
            shift *= 2
    # bit j is character j of the reversed binary string
    return format(mask, "b").zfill(top + 1)[::-1].encode().translate(_BITS)


# Largest D (the lcm of a tile's angle denominators) for which a tiling
# search builds its corner table, of 2D + 1 entries in O(D) steps; a search
# with a larger D runs without the corner test.  `edge_sums` gives up past
# the same number of entries.
CORNER_TABLE_MAX_DEN = 10 ** 5


def edge_sums(edges: Sequence[float], top: float) -> Optional[list]:
    """The sorted distinct values up to `top` of the nonnegative integer
    combinations i*a + j*b + k*c of the three edges (radians, the empty sum
    0 included), each computed as (i*a + j*b) + k*c.  None once there are
    more than 2 * CORNER_TABLE_MAX_DEN + 1 values, the longest table a
    search builds.  A non-positive edge raises ValueError.
    """
    if not all(e > 0 for e in edges):
        raise ValueError("edges must be positive")
    a, b, c = edges
    cap = 2 * CORNER_TABLE_MAX_DEN + 1
    out = set()
    for i in count():
        va = i * a
        if va > top:
            break
        for j in count():
            vb = va + j * b
            if vb > top:
                break
            for k in count():
                v = vb + k * c
                if v > top:
                    break
                out.add(v)
                if len(out) > cap:
                    return None
    return sorted(out)


def _require_corner_args(fixed: Sequence[Fraction], lo: Fraction, hi: Fraction) -> None:
    _require_exact((*fixed, lo, hi))
    if any(f <= 0 for f in fixed):
        raise ValueError("fixed angles must be positive")


def corner_angle_solutions(fixed: Sequence[Fraction], lo: Fraction,
                           hi: Fraction) -> list:
    """Solve m*q + sum(n_j * f_j) = 1 for q in (lo, hi), m >= 1, n_j >= 0.

    Everything is in units of pi.  Returns the sorted list of admissible
    rational q, i.e. the free angles q*pi that can complete a straight angle
    together with the fixed ones: each residual 1 - s, s a sum of fixed
    angles below 1 from one `angle_sums` table, divided by every m that
    lands in (lo, hi).  A float raises TypeError; a fixed angle not
    positive, or bounds outside 0 < lo < hi, raise ValueError.
    """
    _require_corner_args(fixed, lo, hi)
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    den = math.lcm(*(Fraction(f).denominator for f in fixed))
    sums = angle_sums(fixed, den, den - 1)
    sols = set()
    for s in range(den):
        if sums[s]:
            rest = Fraction(den - s, den)
            # rest/m < hi iff m > rest/hi; rest/m > lo iff m < rest/lo
            sols.update(rest / m for m in range(rest // hi + 1, -(-rest // lo)))
    return sorted(sols)


def corner_angle_solutions_rational_scan(fixed: Sequence[Fraction], lo: Fraction,
                                         hi: Fraction, max_denominator: int = 100) -> list:
    """Same solution set by scanning rationals q = s/r, r <= max_denominator.

    Independent route kept as a guard: list the positive residuals
    1 - sum(n_j * f_j) once, as integer numerators over one denominator D,
    then keep each rational q = s/r in (lo, hi), in lowest terms, of which
    some residual N/D is an integer multiple: D*s divides N*r.  Takes the
    same arguments as `corner_angle_solutions` and raises as it does, but
    also accepts lo = 0, hi above 1 and empty intervals.
    """
    _require_corner_args(fixed, lo, hi)
    den = math.lcm(*(Fraction(f).denominator for f in fixed))
    residuals = {den}
    for f in fixed:
        step = int(f * den)
        residuals = {r - n * step for r in residuals for n in range(-(-r // step))}
    found = []
    for r in range(1, max_denominator + 1):
        # the s in [1, r] with lo < s/r < hi; of s = r only q = 1/1 is in
        # lowest terms
        s_min = max(1, lo.numerator * r // lo.denominator + 1)
        s_max = min(r, -(-hi.numerator * r // hi.denominator) - 1)
        for s in range(s_min, s_max + 1):
            if math.gcd(s, r) == 1 and any(rest * r % (den * s) == 0 for rest in residuals):
                found.append(Fraction(s, r))
    return sorted(found)


# ---------------------------------------------------------------------------
# Symbolic validity on a beta-interval (for parametric diagram labels)
# ---------------------------------------------------------------------------


def is_valid_symbolic(forms, relations: RelationSet, beta_lo: Fraction,
                      beta_hi: Fraction) -> ValidityReport:
    """Validity of a triple of angle forms for every beta in the open
    interval (beta_lo, beta_hi)*pi.  Each form must reduce under the
    relations to q_pi*pi + q_beta*beta (else ValueError).

    At one beta, `_failure` asks whether ten linear functions of beta are
    positive (>= 0 with equality allowed): each angle x, pi - x, the sum
    minus pi, and pi + x minus the other two; sorting takes their minimum.
    A linear function >= 0 at both ends and > 0 at the midpoint is > 0
    inside, so reading the triple at beta_lo and beta_hi with equality
    allowed and strictly at the midpoint is exact.  Each distinct
    question is answered once per process (`_valid_on_interval`).
    """
    return _valid_on_interval(tuple(forms), relations, beta_lo, beta_hi)


@cache
def _valid_on_interval(forms: tuple, relations: RelationSet, beta_lo: Fraction,
                       beta_hi: Fraction) -> ValidityReport:
    """`is_valid_symbolic` on integers: each normalized form is the row
    (p, 0, q, 0) over d, its angle at beta = b/e is (p e + q b)/(d e), and
    the three are read over L e, L the lcm of the d."""
    rows = []
    for f in forms:
        f = relations.normalize(f)
        p, qa, q, qg = f.row
        if qa or qg:
            raise ValueError("form must be reduced to pi and beta")
        rows.append((p, q, f.den))
    lcm = math.lcm(*(d for _, _, d in rows))
    lo_b, lo_e = beta_lo.numerator, beta_lo.denominator
    hi_b, hi_e = beta_hi.numerator, beta_hi.denominator
    for b, e, strict in ((lo_b, lo_e, False), (hi_b, hi_e, False),
                         (lo_b * hi_e + hi_b * lo_e, 2 * lo_e * hi_e, True)):
        reason = _failure([(p * e + q * b) * (lcm // d) for p, q, d in rows], lcm * e, strict)
        if reason:
            return ValidityReport(False, reason)
    return ValidityReport(True)
