"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Tolerances are pinned here, not configurable.
"""

import math
import random
from fractions import Fraction as F
from typing import NamedTuple, Optional

from reptile_lab import fixtures
from reptile_lab.angles import parse_angle
from reptile_lab.coxeter import (all_edges, coloring_automorphisms,
                                 enumerate_edge_partitions,
                                 enumerate_two_label_skeletons,
                                 pair_orbit_bound,
                                 edge_orbit_count_transitive, orbits,
                                 triangle_type_of)
from reptile_lab.exactmath import ExactMatrix, Poly, isolate_roots, sturm_count
from reptile_lab.gram import fiedler_check, gram_from_diagram
from reptile_lab.hill import (EuclideanSimplex, LatticeTile, signed_perms,
                              compatibility_graph, generate_h1_tiling,
                              generate_h2_h1_tiles, hill_simplex,
                              pair_h2_tiling, tiling_report)
from reptile_lab.realize import (EdgeMatch, TileSpec, edge_combination,
                                 search_tiling, verify_tiling)
from reptile_lab.spherical import corner_angle_solutions, edge_lengths, is_valid_symbolic

from oracles import (QuadExt, burnside_count_reference, in_field,
                     minimal_polynomial_degree_bruteforce, normal_gram, subgroups_reference)

EXP = fixtures.load("expectations")


def _report(num, name, ok):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, f"criterion {num} failed: {name}"


def _det_of(key):
    d = fixtures.diagram(key)
    return gram_from_diagram(d, as_poly_in="beta").det()


def _expected_poly(key):
    spec = EXP["det_factored"][key]
    poly = Poly([spec["scalar"]])
    for f in spec["factors"]:
        poly = poly * Poly(f)
    return poly


def test_criterion_01_determinant_identities():
    ok = all(_det_of(k) == _expected_poly(k)
             for k in ("case-a-1", "case-a-2", "case-a-3", "case-a-4"))
    _report(1, "parametric determinants equal their factored forms exactly", ok)


def test_criterion_02_root_sets():
    ok = True
    for key in ("case-a-1", "case-a-2", "case-a-3", "case-a-4"):
        det = _det_of(key)
        mids = sorted(round(float(r.midpoint), 2)
                      for r in isolate_roots(det, F(1, 10 ** 5)))
        ok &= mids == sorted(EXP["root_sets_2dp"][key])
        ok &= sturm_count(det, F(0), F(1, 2)) == 0
    _report(2, "isolated roots match to 2 decimals; none in (0, 1/2)", ok)


def test_criterion_03_concrete_determinants():
    ok = True
    for key, want in EXP["gram_dets"].items():
        det = gram_from_diagram(fixtures.diagram(key)).det()
        ok &= det == in_field(QuadExt(F(want["a"]), F(want["b"]), want["m"]))
    for key, ref in EXP["gram_dets_reference_2dp"].items():
        det = gram_from_diagram(fixtures.diagram(key)).det()
        ok &= abs(float(det) - ref) <= 0.005 + 1e-9
    _report(3, "exact quadratic-field determinants and 2-dp reference values", ok)


def test_criterion_04_edge_lengths():
    ok = True
    for qa, want in EXP["edge_lengths_3dp"].items():
        got = edge_lengths((F(qa), F(1, 3), F(1, 2)))
        ok &= [round(x, 3) for x in got] == want
    _report(4, "tile edge lengths match the reference captions to 3 decimals", ok)


def test_criterion_05_corner_angles():
    sols = corner_angle_solutions([F(1, 3), F(1, 2)], F(1, 6), F(1, 3))
    ok = sols == sorted(F(s) for s in EXP["corner_angles"])
    _report(5, "the small-angle solver returns exactly {pi/4, 2pi/9, pi/5}", ok)


def test_criterion_06_candidate_lists(case_analyses):
    ok = True
    for key in ("quarter", "fifth", "ninth"):
        ana = case_analyses[key]
        tile = ana.tile
        want_alpha = sorted(
            [tuple(sorted(F(s) for s in t)) for t in EXP["realizable"][key]["alpha"]]
            + [tuple(sorted(tile.angles_pi))])
        want_beta = sorted(tuple(sorted(F(s) for s in t))
                           for t in EXP["realizable"][key]["beta"])
        ok &= ana.alpha_list == want_alpha
        ok &= ana.beta_list == want_beta
        if key == "ninth":
            extra = tuple(sorted(F(s) for s in EXP["extra_candidate_ninth_beta"]))
            ok &= ana.extra_candidates == [extra]
            a, b, c = tile.edges
            ok &= not isinstance(edge_combination(2 * b - a, tile.edges), EdgeMatch)
            ok &= not isinstance(edge_combination(2 * b - c, tile.edges), EdgeMatch)
        else:
            ok &= ana.extra_candidates == []
    _report(6, "candidate lists reproduced with the single rejected extra", ok)


def test_criterion_07_tiling_constructions():
    ok = True
    for key, entries in EXP["found_tilings"].items():
        tile_q = [F(s) for s in EXP["tile_bases"][key]]
        tile = TileSpec.from_pi_fractions(*tile_q)
        for entry in entries:
            target = tuple(F(s) for s in entry["target"])
            res = search_tiling(target, tile, node_budget=10 ** 6)
            ok &= res.status == "found"
            ok &= res.tiling is not None and len(res.tiling.tiles) == entry["n"]
            ok &= bool(verify_tiling(res.tiling, tile))
    _report(7, "all reference tilings found and verified", ok)


def test_criterion_08_diagram_enumerations(case_analyses, case_a_diagrams):
    ok = len(case_a_diagrams) == EXP["diagram_counts"]["case-a"]
    rel = case_a_diagrams[0].relations
    survivors = []
    for d in case_a_diagrams:
        valid = all(is_valid_symbolic(d.triangle_type(t), rel, F(1, 3), F(1, 2))
                    for t in d.triangles())
        if valid:
            survivors.append(d)
    ok &= len(survivors) == EXP["diagram_counts"]["case-a-after-validity"]
    for key in ("quarter", "fifth", "ninth"):
        ok &= len(case_analyses[key].diagrams) == EXP["diagram_counts"][key]
    ok &= len(enumerate_two_label_skeletons()) == \
        EXP["diagram_counts"]["two-label-classes"]
    empty = [c for c in enumerate_edge_partitions(5, 4)
             if len(coloring_automorphisms(c, 5)) == 1]
    ok &= empty == []
    _report(8, "diagram enumerations: 5 then 4; 3/3/0; 6 classes; empty set", ok)


def test_criterion_09_symmetry_fixtures():
    ok = True
    for key, order in EXP["aut_orders"].items():
        ok &= len(fixtures.diagram(key).automorphisms()) == order
    ok &= edge_orbit_count_transitive(fixtures.diagram("k4-alpha-cycle"),
                                      parse_angle("alpha"))
    d = fixtures.diagram("case-a-4")
    abg = triangle_type_of([d.relations.normalize(parse_angle(s))
                            for s in ("alpha", "beta", "gamma")])
    ok &= len(orbits(d, abg)) == EXP["abg_orbit_counts"]["case-a-4"]
    _report(9, "automorphism orders, transitivity, and orbit counts", ok)


def test_criterion_10_pair_orbit_bound():
    pairs = [frozenset(e) for e in all_edges(5)]
    act = lambda g, s: frozenset(g[x] for x in s)
    bound = pair_orbit_bound(5)
    ok = bound == 7
    tight_by_transposition = False
    for group in subgroups_reference(5):
        if len(group) == 1:
            continue
        cnt = burnside_count_reference(sorted(group), pairs, act)
        ok &= cnt <= bound
        if cnt == bound and group == frozenset({tuple(range(5)), (1, 0, 2, 3, 4)}):
            tight_by_transposition = True
    ok &= tight_by_transposition
    _report(10, "all nontrivial subgroups give at most 7 pair orbits; "
                "a single transposition attains it", ok)


def test_criterion_11_fiedler_round_trip():
    rng = random.Random(20260809)
    checked = 0
    ok = True
    for d in (3, 4):
        count = 0
        while count < 50:
            verts = tuple(tuple(F(rng.randint(-8, 8), rng.randint(1, 4))
                                for _ in range(d)) for _ in range(d + 1))
            s = EuclideanSimplex(verts)
            if s.volume() == 0:
                continue
            count += 1
            checked += 1
            # -N, N the Gram matrix of the rational outward normals, is a
            # positive-diagonal congruence of the cosine matrix
            n = normal_gram(s)
            rep = fiedler_check(ExactMatrix([[-x for x in r] for r in n.rows]))
            ok &= rep.is_singular and rep.rank == d
            ok &= bool(rep.negative_semidefinite) and bool(rep.kernel_strictly_positive)
    ok &= checked == 100
    _report(11, "100 random rational simplices pass the exact cosine-matrix checks", ok)


def test_criterion_12_hill_tilings():
    ok = True
    for d, m in EXP["hill"]["h1_cases"]:
        tiles = generate_h1_tiling(d, m)
        base = hill_simplex(d, 1)
        rep = tiling_report(tiles, base)
        ok &= rep.tile_count == m ** d
        ok &= rep.total_volume == base.volume() * m ** d
        ok &= rep.all_congruent
    for d in (2, 3, 4):
        cube = [LatticeTile(tuple(1 for _ in range(d)), sp)
                for sp in signed_perms(d)]
        ok &= set(compatibility_graph(cube).component_sizes()) == {4}
    for d, m in EXP["hill"]["pair_cases"]:
        graph = compatibility_graph(generate_h2_h1_tiles(d, m))
        ok &= all(len(c) in (2, 4) for c in graph.components)
        ok &= len(pair_h2_tiling(d, m)) == m ** d
    _report(12, "Hill tilings: counts, volumes, congruence, four-cycles, pairing", ok)


class DegreeReport(NamedTuple):
    k: int
    d: int
    degree: int

    @property
    def min_distinct_edge_lengths(self) -> int:
        return self.degree


def _integer_root(k: int, e: int) -> Optional[int]:
    """The integer r >= 1 with r^e = k, or None; no float decides it.
    Past isqrt, integer Newton from above: r <- ((e-1) r + k // r^(e-1)) / e
    decreases to floor(k^(1/e)) and stops there."""
    if e == 1:
        return k
    if e == 2:
        r = math.isqrt(k)
    else:
        r = 1 << -(-k.bit_length() // e)  # 2^ceil(bits/e) > k^(1/e)
        while True:
            s = ((e - 1) * r + k // r ** (e - 1)) // e
            if s >= r:
                break
            r = s
    return r if r ** e == k else None


def algebraic_degree(k: int, d: int) -> DegreeReport:
    """Degree of the minimal polynomial of k^(1/d) over Q.

    Equal to d/e where e is the largest divisor of d with k a perfect e-th
    power: the residual binomial x^(d/e) - k^(1/e) is then irreducible (its
    base is not a p-th power for any prime p dividing d/e, and being
    positive it avoids the -4*b^4 exceptional factorization).
    """
    if k < 2 or d < 2:
        raise ValueError("need k >= 2 and d >= 2")
    best = 1
    for e in range(1, d + 1):
        if d % e == 0 and _integer_root(k, e) is not None:
            best = e
    return DegreeReport(k, d, d // best)


def test_criterion_13_algebraic_degree():
    ok = True
    for k in range(2, 101):
        deg = algebraic_degree(k, 4).degree
        ok &= deg == minimal_polynomial_degree_bruteforce(k, 4)
        root = round(k ** 0.25)
        if root ** 4 == k:
            ok &= deg == 1
        elif round(k ** 0.5) ** 2 == k:
            ok &= deg == 2
        else:
            ok &= deg == 4
    _report(13, "degree of k^(1/4) for k <= 100 against the factoring oracle", ok)
