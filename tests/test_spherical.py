import math
import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest

from reptile_lab import angles, fixtures, spherical
from reptile_lab.angles import EMPTY_RELATIONS, AngleForm, parse_angle
from reptile_lab.realize import TileSpec, enumerate_candidates
from reptile_lab.scenarios import CASE_A_RELATIONS, final_case_analysis
from reptile_lab.spherical import (CORNER_TABLE_MAX_DEN, InvalidTriangleError, angle_sums,
                                   area_multiple, corner_angle_solutions,
                                   corner_angle_solutions_rational_scan,
                                   edge_lengths, edge_sums, is_valid, is_valid_symbolic,
                                   law_of_cosines, opposite_edge, pi_numerators,
                                   straight_angle_combinations)
from oracles import is_valid_symbolic_reference, validity_failure_reference
from test_sphgeo import radian_law_of_cosines

PI = math.pi
ENDGAME_KEYS = ("quarter", "fifth", "ninth", "case-b")


def tile_base(key):
    return TileSpec.from_pi_fractions(
        *(F(q) for q in fixtures.load("expectations")["tile_bases"][key]))


def angles_from_edges(edges):
    """Angles in radians from the edges, by the law of cosines for sides:
    the dual direction of `edge_lengths`, for a round-trip check."""
    a, b, c = edges

    def ang(opp, l, r):
        num = math.cos(opp) - math.cos(l) * math.cos(r)
        den = math.sin(l) * math.sin(r)
        return math.acos(max(-1.0, min(1.0, num / den)))

    return (ang(a, b, c), ang(b, c, a), ang(c, a, b))


class TestValidity:
    def test_octant(self):
        assert is_valid((F(1, 2), F(1, 2), F(1, 2)))

    def test_too_flat(self):
        rep = is_valid((F(1, 6), F(1, 5), F(2, 9)))
        assert not rep and "sum" in rep.reason

    def test_triangle_inequality(self):
        # two large angles against a small one
        rep = is_valid((F(1, 2), F(4, 5), F(4, 5)))
        assert not rep and "inequality" in rep.reason

    def test_supplementary_family(self):
        # (beta, alpha+beta, 2 beta) under alpha = pi - 2 beta degenerates
        for beta in (F(7, 20), F(2, 5), F(9, 20)):
            alpha = 1 - 2 * beta
            assert not is_valid((beta, alpha + beta, 2 * beta))

    def test_ints_allowed(self):
        rep = is_valid((F(1, 2), F(1, 2), 1))
        assert not rep and "outside" in rep.reason

    @pytest.mark.parametrize("angles", [(0.5, 0.5, 0.5), (F(1, 2), F(1, 2), 0.5),
                                        (PI / 2, PI / 2, PI / 2)])
    def test_float_raises(self, angles):
        # one reading of an angle: a float is neither pi-fraction nor radians
        with pytest.raises(TypeError):
            is_valid(angles)
        with pytest.raises(TypeError):
            edge_lengths(angles)

    def test_symbolic_degenerate(self):
        rel = __import__("reptile_lab.angles", fromlist=["RelationSet"])
        relations = rel.RelationSet.of(("gamma", parse_angle("1/2 pi")),
                                       ("alpha", parse_angle("pi-2*beta")))
        forms = [parse_angle("beta"), parse_angle("alpha+beta"), parse_angle("2*beta")]
        rep = is_valid_symbolic(forms, relations, F(1, 3), F(1, 2))
        assert not rep
        good = [parse_angle("alpha"), parse_angle("beta"), parse_angle("gamma")]
        assert is_valid_symbolic(good, relations, F(1, 3), F(1, 2))

    @pytest.mark.parametrize("texts", [("1/3 pi", "2*beta-1/3 pi", "1/2 pi"),
                                       ("beta", "beta", "4/3 pi-2*beta")])
    def test_symbolic_angles_cross_inside_the_interval(self, texts):
        # one angle passes another inside (1/3, 1/2), at 5/12 in the first
        # triple and at 4/9 in the second; both are valid throughout
        forms = [parse_angle(t) for t in texts]
        assert is_valid_symbolic(forms, EMPTY_RELATIONS, F(1, 3), F(1, 2))

    def test_symbolic_refuses_a_form_with_alpha_or_gamma(self):
        for text in ("alpha", "gamma"):
            forms = [parse_angle(t) for t in ("beta", "1/2 pi", text)]
            with pytest.raises(ValueError):
                is_valid_symbolic(forms, EMPTY_RELATIONS, F(1, 3), F(1, 2))

    @staticmethod
    def _random_lines(rng):
        """Three (q_pi, q_beta) pairs and an interval lo < hi in [0, 1]: half
        the draws pick each angle's value at lo from the multiples of 1/12
        in [0, 1] and move it by at most 1/4 at hi (so margins often vanish
        at an end), half pick the coefficients themselves."""
        lo, hi = sorted(rng.sample(range(25), 2))
        lo, hi = F(lo, 24), F(hi, 24)
        if rng.random() < 0.5:
            lines = []
            for _ in range(3):
                v_lo = F(rng.randint(0, 12), 12)
                qb = F(rng.randint(-3, 3), 12) / (hi - lo)
                lines.append((v_lo - qb * lo, qb))
        else:
            lines = [(F(rng.randint(-6, 12), 6), F(rng.randint(-6, 6), rng.randint(1, 3)))
                     for _ in range(3)]
        return lines, lo, hi

    def test_symbolic_matches_sort_free_reference(self):
        """12,000 draws of `_random_lines` (seed 29) against the ten-margin
        reference; both verdicts, and angles that cross inside the
        interval, must each occur often."""
        rng = random.Random(29)
        valid = crossing_valid = 0
        for _ in range(12000):
            lines, lo, hi = self._random_lines(rng)
            forms = [AngleForm.of(pi=qp, beta=qb) for qp, qb in lines]
            want = is_valid_symbolic_reference(lines, lo, hi)
            assert bool(is_valid_symbolic(forms, EMPTY_RELATIONS, lo, hi)) == want
            valid += want
            order_lo = sorted(range(3), key=lambda i: lines[i][0] + lines[i][1] * lo)
            order_hi = sorted(range(3), key=lambda i: lines[i][0] + lines[i][1] * hi)
            crossing_valid += want and order_lo != order_hi
        assert valid > 500 and crossing_valid > 200

    def test_reference_at_a_point_matches_is_valid(self):
        """At lo == hi the reference is strict validity at the point, as
        `is_valid` reads it: 3,000 draws of `_random_lines` (seed 30)."""
        rng = random.Random(30)
        for _ in range(3000):
            lines, lo, _ = self._random_lines(rng)
            want = bool(is_valid([qp + qb * lo for qp, qb in lines]))
            assert is_valid_symbolic_reference(lines, lo, lo) == want


class TestIntegerValidity:
    """`spherical._failure` compares integer numerators over the lcm of the
    denominators; `validity_failure_reference` states the same conditions
    in Fraction arithmetic."""

    @staticmethod
    def _near_boundary_triple(rng):
        """Three angles, Fractions of pi with denominators up to 60, some
        of them out of (0, 1): a fifth of the draws sum to exactly 1, a
        fifth have b + c = 1 + a, a fifth hold an angle 0 or 1; whole
        values are ints half the time, and the order is shuffled."""
        def draw():
            den = rng.randint(1, 60)
            return F(rng.randint(-1, den + 1), den)

        a, b = draw(), draw()
        kind = rng.randrange(5)
        c = (1 - a - b, 1 + a - b, F(rng.randint(0, 1)))[kind] if kind < 3 else draw()
        out = [int(q) if q.denominator == 1 and rng.random() < 0.5 else q
               for q in (a, b, c)]
        rng.shuffle(out)
        return tuple(out)

    @staticmethod
    def _report(reason):
        return (reason is None, reason or "ok")

    def test_is_valid_matches_fraction_reference(self):
        """20,000 seeded triples: the same verdict and reason; every reason,
        and each boundary reached with the strict reading failing, often."""
        rng = random.Random(38)
        seen = Counter()
        for _ in range(20000):
            angles = self._near_boundary_triple(rng)
            want = validity_failure_reference(angles, strict=True)
            assert tuple(is_valid(angles)) == self._report(want), angles
            seen[want] += 1
            seen["boundary"] += (want is not None
                                 and validity_failure_reference(angles, strict=False) is None)
        assert min(seen.values()) > 1000, seen

    def test_symbolic_non_strict_ends_match_fraction_reference(self):
        """6,000 seeded lines through two near-boundary triples P (at lo)
        and R (at hi): `is_valid_symbolic` gives the reference's first
        failure of P and of R read with equality allowed and of their
        midpoint read strictly.  Valid triples on a boundary at an end
        must occur often."""
        rng = random.Random(39)
        seen = Counter()
        for _ in range(6000):
            lo, hi = sorted(rng.sample(range(61), 2))
            lo, hi = F(lo, 60), F(hi, 60)
            p = [F(q) for q in self._near_boundary_triple(rng)]
            r = [F(q) for q in self._near_boundary_triple(rng)]
            slopes = [(y - x) / (hi - lo) for x, y in zip(p, r)]
            forms = [AngleForm.of(pi=x - k * lo, beta=k) for x, k in zip(p, slopes)]
            want = (validity_failure_reference(p, strict=False)
                    or validity_failure_reference(r, strict=False)
                    or validity_failure_reference([(x + y) / 2 for x, y in zip(p, r)],
                                                  strict=True))
            got = is_valid_symbolic(forms, EMPTY_RELATIONS, lo, hi)
            assert tuple(got) == self._report(want), (p, r, lo, hi)
            seen[want] += 1
            seen["valid on a boundary"] += want is None and (
                validity_failure_reference(p, strict=True) is not None
                or validity_failure_reference(r, strict=True) is not None)
        assert min(seen.values()) > 100, seen

    def test_case_a_validity_is_computed_once_on_ints(self, monkeypatch):
        """The case-a validity filter asks about the 50 triangles of the five
        catalog diagrams, of 12 distinct types under the half-turn
        relations: each is answered once, and neither the answers nor the
        forms' normal forms make a `Fraction`."""
        diagrams = [fixtures.diagram(f"case-a-{i}") for i in range(1, 6)]
        types = [d.triangle_type(t) for d in diagrams for t in d.triangles()]
        lo, hi = F(1, 3), F(1, 2)
        spherical._valid_on_interval.cache_clear()
        angles._normal_form.cache_clear()
        made = []
        new = F.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counting)
        assert lo + hi and made  # the count sees arithmetic
        made.clear()
        ok = [bool(is_valid_symbolic(t, CASE_A_RELATIONS, lo, hi)) for t in types]
        assert made == []
        info = spherical._valid_on_interval.cache_info()
        assert (info.misses, info.hits) == (12, 38)
        assert [all(ok[i:i + 10]) for i in range(0, 50, 10)] == [True] * 4 + [False]


class TestAreaMultiple:
    """`area_multiple` decides a label triple of the endgame on integer
    numerators over one denominator.  Its reference is the Fraction form:
    None when `is_valid` fails, else whether the triangle's area over the
    tile's, (sum - 1) / (tile sum - 1), is whole.  `is_valid` is held to
    the Fraction statement of validity on the same triples, since both it
    and `area_multiple` read `_failure`."""

    @staticmethod
    def _decisions(labels, tile):
        """(integer decision, reference, angles) for every sorted triple of
        the labels, against the tile's area."""
        excess_pi = sum(tile) - 1
        nums, den = pi_numerators(list(labels) + list(tile))
        excess = int(excess_pi * den)
        assert excess == excess_pi * den
        for i, j, k in combinations_with_replacement(range(len(labels)), 3):
            angles = (labels[i], labels[j], labels[k])
            valid = bool(is_valid(angles))
            assert valid is (validity_failure_reference(angles, strict=True) is None)
            want = ((sum(angles) - 1) / excess_pi).denominator == 1 if valid else None
            yield area_multiple((nums[i], nums[j], nums[k]), den, excess), want, angles

    @pytest.mark.parametrize("key", ENDGAME_KEYS)
    def test_endgame_label_triples(self, key):
        ana = final_case_analysis(key)
        labels = sorted({x for t in ana.alpha_list + ana.beta_list for x in t})
        seen = Counter()
        for got, want, angles in self._decisions(labels, ana.tile.angles_pi):
            assert got is want, angles
            seen[want] += 1
        assert seen[None] and seen[True], seen

    def test_seeded_label_sets(self):
        """200 seeded sets of 4 to 9 labels k/d, d up to 60 (lowest terms,
        so their denominators are the divisors of d), the tile a valid
        triple of them.  One d per set puts many triples on a boundary:
        sum exactly pi, or b + c = pi + a."""
        rng = random.Random(43)
        seen = Counter()
        sets = 0
        while sets < 200:
            d = rng.randint(3, 60)
            size = min(d - 1, rng.randint(4, 9))
            labels = sorted({F(k, d) for k in rng.sample(range(1, d), size)})
            tiles = [t for t in combinations_with_replacement(labels, 3) if is_valid(t)]
            if not tiles:
                continue
            sets += 1
            for got, want, angles in self._decisions(labels, rng.choice(tiles)):
                assert got is want, (angles, d)
                seen[want] += 1
                seen["boundary"] += (want is None
                                     and validity_failure_reference(angles, strict=False) is None)
        assert min(seen[None], seen[True], seen[False], seen["boundary"]) > 200, seen


class TestEdges:
    @pytest.mark.parametrize("alpha,abc", [
        (F(1, 4), (0.615, 0.785, 0.955)),
        (F(1, 5), (0.365, 0.554, 0.652)),
        (F(2, 9), (0.485, 0.680, 0.812)),
    ])
    def test_reference_captions(self, alpha, abc):
        got = edge_lengths((alpha, F(1, 3), F(1, 2)))
        assert tuple(round(x, 3) for x in got) == abc

    def test_invalid_raises(self):
        with pytest.raises(InvalidTriangleError):
            edge_lengths((F(1, 10), F(1, 5), F(3, 10)))

    def test_law_of_cosines_takes_fractions_of_pi(self):
        # the same floats as the radian formula at float(q) * pi, in any
        # order of the angles; a float angle is refused
        rng = random.Random(24)
        for _ in range(200):
            qs = list(self._random_valid(rng))
            rng.shuffle(qs)
            assert law_of_cosines(*qs) == radian_law_of_cosines(*(float(q) * PI for q in qs))
        with pytest.raises(TypeError):
            law_of_cosines(F(1, 4), F(1, 3), 0.5)
        with pytest.raises(TypeError):
            law_of_cosines(PI / 4, PI / 3, PI / 2)

    @staticmethod
    def _check_opposite_edges(qs):
        edges = law_of_cosines(*qs)
        for i in range(3):
            assert opposite_edge(*qs[i:], *qs[:i]) == edges[i], (qs, i)

    @pytest.mark.parametrize("key", ENDGAME_KEYS)
    def test_opposite_edge_on_every_candidate(self, key):
        # the edge a candidate walks, computed alone, is law_of_cosines' float
        tile = tile_base(key)
        qa, qb = sorted(set(tile.angles_pi))[:2]
        cands = enumerate_candidates(tile, qa, F(0)) + enumerate_candidates(tile, qb, qa)
        assert cands
        for c in cands:
            self._check_opposite_edges((c.tau, c.phi, c.psi))

    def test_opposite_edge_on_seeded_triangles(self):
        rng = random.Random(44)
        for _ in range(500):
            qs = list(self._random_valid(rng))
            rng.shuffle(qs)
            self._check_opposite_edges(qs)
        with pytest.raises(TypeError):
            opposite_edge(F(1, 4), 1 / 3, F(1, 2))

    def _random_valid(self, rng):
        while True:
            angles = sorted(F(rng.randint(50, 950), 1000) for _ in range(3))
            if is_valid(tuple(angles)):
                return tuple(angles)

    def test_round_trip_and_order(self):
        rng = random.Random(20240809)
        for _ in range(1000):
            angles = self._random_valid(rng)
            edges = edge_lengths(angles)
            back = angles_from_edges(edges)
            assert all(abs(float(a) * PI - b) < 1e-9 for a, b in zip(angles, back))
            # sorted angles sort edges identically; area below twice the
            # smallest angle; edges below pi
            assert list(edges) == sorted(edges)
            assert sum(angles) - 1 < 2 * angles[0]
            assert all(0 < e < PI for e in edges)
            a, b, c = edges
            assert a < b + c and b < a + c and c < a + b


class TestStraightAngles:
    def test_right_angle(self):
        assert straight_angle_combinations([F(1, 2)]) == {(2,)}

    def test_third_and_half(self):
        assert straight_angle_combinations([F(1, 3), F(1, 2)]) == {(3, 0), (0, 2)}

    def test_positive_required(self):
        with pytest.raises(ValueError):
            straight_angle_combinations([F(0)])

    def test_float_raises(self):
        with pytest.raises(TypeError):
            straight_angle_combinations([F(1, 3), 0.5])

    def test_coefficient_above_twenty(self):
        assert straight_angle_combinations([F(1, 25)]) == {(25,)}
        assert straight_angle_combinations([F(1, 25), F(1, 2)]) == {(25, 0), (0, 2)}


def sums_by_enumeration(angles, den, top):
    """The `angle_sums` table by listing every coefficient vector whose
    combination of the angles (Fractions of pi) is at most top*pi/den."""
    bound, found = F(top, den), set()

    def walk(i, total):
        if i == len(angles):
            found.add(total)
            return
        m = 0
        while total + m * angles[i] <= bound:
            walk(i + 1, total + m * angles[i])
            m += 1

    walk(0, F(0))
    return bytearray(F(j, den) in found for j in range(top + 1))


class TestAngleSums:
    def test_matches_enumeration(self):
        rng = random.Random(28)
        cases = [([], 1, 0), ([], 7, 9), ([F(1, 3)], 3, 0),  # no angles, top = 0
                 ([F(1, 4), F(1, 4), F(1, 2)], 4, 12),  # repeated angles
                 ([F(5, 6), F(2, 3)], 6, 3),  # every angle above top
                 ([F(3, 2), F(1, 3), 2], 6, 10)]  # one above top; an int
        while len(cases) < 200:
            den = rng.randint(1, 12)
            angles = [F(rng.randint(1, 2 * den + 3), den) for _ in range(rng.randint(0, 3))]
            if angles and rng.random() < 0.2:
                angles.append(rng.choice(angles))
            cases.append((angles, den, rng.randint(0, 3 * den)))
        marked = unmarked = 0
        for angles, den, top in cases:
            table = angle_sums(angles, den, top)
            assert table == sums_by_enumeration(angles, den, top), (angles, den, top)
            marked += sum(table)
            unmarked += len(table) - sum(table)
        assert marked > 600 and unmarked > 1500  # 684 and 1,552 entries

    @pytest.mark.parametrize("angles", [[F(1, 5)], [F(1, 3), F(1, 8)], [F(0)], [F(-1, 3)]])
    def test_off_grid_or_not_positive_raises(self, angles):
        with pytest.raises(ValueError):
            angle_sums(angles, 12, 24)

    def test_float_raises(self):
        with pytest.raises(TypeError):
            angle_sums([F(1, 3), 0.5], 6, 12)


def edge_sums_by_enumeration(edges, top):
    """Every distinct value i*a + j*b + k*c <= top, by listing the
    coefficient vectors, sorted."""
    a, b, c = edges
    return sorted({v for i in range(int(top / a) + 2) for j in range(int(top / b) + 2)
                   for k in range(int(top / c) + 2) if (v := i * a + j * b + k * c) <= top})


class TestEdgeSums:
    def test_matches_enumeration(self):
        rng = random.Random(32)
        cases = [((0.5, 0.7, 1.1), 0.0), ((0.5, 0.7, 1.1), 0.3),  # only the empty sum
                 ((0.4, 0.4, 0.9), 3.0),  # a repeated edge
                 ((1.0, 2.0, 3.0), 6.0)]  # top itself a sum
        while len(cases) < 150:
            edges = tuple(rng.uniform(0.1, 1.6) for _ in range(3))
            cases.append((edges, rng.uniform(0.0, math.pi + 1e-5)))
        while len(cases) < 250:  # tile edges, up to a search's top
            qs = [F(rng.randint(1, 9), rng.randint(2, 12)) for _ in range(3)]
            if is_valid(qs):
                cases.append((law_of_cosines(*qs), math.pi + 1e-5))
        values = 0
        for edges, top in cases:
            got = edge_sums(edges, top)
            assert got == edge_sums_by_enumeration(edges, top), (edges, top)
            values += len(got)
        assert values > 5000

    def test_top_zero_is_the_empty_sum(self):
        assert edge_sums((0.3, 0.5, 0.7), 0.0) == [0.0]

    @pytest.mark.parametrize("edges", [(0.0, 1.0, 2.0), (0.5, -1.0, 2.0),
                                       (0.5, float("nan"), 2.0)])
    def test_nonpositive_edge_rejected(self, edges):
        with pytest.raises(ValueError):
            edge_sums(edges, 1.0)

    def test_size_cap(self):
        """Up to 2 * CORNER_TABLE_MAX_DEN + 1 values come back; one more
        gives None."""
        cap = 2 * CORNER_TABLE_MAX_DEN + 1
        got = edge_sums((1.0, 1e9, 1e9), cap - 1)
        assert got == [float(j) for j in range(cap)]
        assert edge_sums((1.0, 1e9, 1e9), cap) is None


class TestCornerSolver:
    def test_reference_set(self):
        sols = corner_angle_solutions([F(1, 3), F(1, 2)], F(1, 6), F(1, 3))
        assert sols == [F(1, 5), F(2, 9), F(1, 4)]

    def test_multiplier_above_sixty_four(self):
        sols = corner_angle_solutions([F(1, 2)], F(1, 200), F(1, 100))
        assert sols == [F(1, m) for m in range(199, 100, -1)]

    def test_positive_fixed_angles_required(self):
        # the scan once divided by a zero angle and returned [] for a
        # negative one; both solvers now refuse either
        for solve in (corner_angle_solutions, corner_angle_solutions_rational_scan):
            for bad in (F(0), F(-1, 2)):
                with pytest.raises(ValueError, match="fixed angles must be positive"):
                    solve([bad, F(1, 2)], F(1, 6), F(1, 3))

    def test_float_raises(self):
        # the float 1/6 lies below 1/6, so it once let 1/6 into the open
        # interval (1/6, 1/3)
        for solve in (corner_angle_solutions, corner_angle_solutions_rational_scan):
            for args in (([F(1, 3), F(1, 2)], 1 / 6, F(1, 3)),
                         ([F(1, 3), F(1, 2)], F(1, 6), 1 / 3),
                         ([F(1, 3), 0.5], F(1, 6), F(1, 3))):
                with pytest.raises(TypeError):
                    solve(*args)

    def test_rational_scan_matches_per_q_oracle(self):
        rng = random.Random(11)
        cases = [([F(1, 3), F(1, 2)], F(1, 6), F(1, 3), 100),  # case-c's own call
                 ([], F(1, 7), F(2), 24)]  # q = 1 is a solution
        for _ in range(60):
            fixed = [F(rng.randint(1, 4), rng.randint(5, 7))
                     for _ in range(rng.randint(0, 3))]
            lo = F(rng.randint(1, 4), rng.randint(10, 20))
            hi = lo + F(rng.randint(1, 6), rng.randint(8, 20))
            cases.append((fixed, lo, hi, 24))
        # lo = 0, hi above 1, empty intervals, and bounds whose denominators
        # exceed max_denominator
        rng = random.Random(12)
        for _ in range(30):
            fixed = [F(rng.randint(1, 4), rng.randint(5, 9))
                     for _ in range(rng.randint(0, 3))]
            mden = rng.randint(2, 30)
            fine = F(rng.randint(1, 2 * mden), rng.randint(2 * mden + 1, 5 * mden))
            lo, hi = rng.choice([(F(0), fine), (fine, F(rng.randint(11, 30), 10)),
                                 (fine, fine), (fine, fine - F(1, 7)),
                                 (fine, fine + F(rng.randint(1, 997), 1009)), (F(0), F(2))])
            cases.append((fixed, lo, hi, mden))
        for fixed, lo, hi, mden in cases:
            want = _rational_scan_per_q(fixed, lo, hi, mden)
            assert corner_angle_solutions_rational_scan(fixed, lo, hi, mden) == want, \
                (fixed, lo, hi, mden)
            if 0 < lo < hi:
                assert [q for q in corner_angle_solutions(fixed, lo, hi)
                        if q.denominator <= mden] == want

    def test_rational_scan_agrees(self):
        sols = corner_angle_solutions([F(1, 3), F(1, 2)], F(1, 6), F(1, 3))
        scan = corner_angle_solutions_rational_scan([F(1, 3), F(1, 2)],
                                                    F(1, 6), F(1, 3))
        assert sols == scan


def _rational_scan_per_q(fixed, lo, hi, max_denominator):
    """The rational scan with a fresh residual search for every q."""
    found = set()
    for r in range(1, max_denominator + 1):
        for s in range(1, r + 1):
            q = F(s, r)
            if not (lo < q < hi) or q in found:
                continue

            def feasible(j, used):
                if j == len(fixed):
                    rest = 1 - used
                    return rest > 0 and (rest / q).denominator == 1
                n = 0
                while used + n * fixed[j] < 1:
                    if feasible(j + 1, used + n * fixed[j]):
                        return True
                    n += 1
                return False

            if feasible(0, F(0)):
                found.add(q)
    return sorted(found)
