import hashlib
import importlib.util
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from oracles import (MIRROR_CHAMBERS, bisector_family, minimal_polynomial_degree_bruteforce,
                     mirror_triangles)
from test_acceptance import algebraic_degree
from reptile_lab import realize, spherical, sphgeo
from reptile_lab.realize import (EDGE_TOL, VERIFY_EPS, EdgeMatch, EdgeNearest,
                                 SphTiling, TilePlacement, TileSpec,
                                 edge_combination, enumerate_candidates,
                                 search_tiling, verify_tiling)
from reptile_lab.spherical import corner_angle_solutions, is_valid, law_of_cosines


def tiling_from_json(data: dict) -> SphTiling:
    """The tiling `SphTiling.to_json` wrote, its vertices renormalized."""
    verts = [sphgeo.unit(v) for v in data["vertices"]]
    tiles = [TilePlacement([verts[i] for i in t["vertices"]],
                           tuple(t["corners"])) for t in data["tiles"]]
    return SphTiling([verts[i] for i in data["target"]],
                     tuple(data["target_angles"]), tiles)


def lune_two_tile_tiling(alpha: F) -> tuple:
    """The (alpha*pi)-lune tiled by two copies of the (alpha, 1/2, 1/2)*pi tile.

    alpha is a Fraction of pi in (0, 1).  The tile's right-angle corners
    sit on the equator, so the two mirror copies meet along the equatorial
    edge and fill the lune.  Returns the tiling (lune boundary encoded with
    its edge midpoints) and the tile.
    """
    tile = TileSpec.from_pi_fractions(alpha, F(1, 2), F(1, 2))
    a = float(alpha) * math.pi
    north = (0.0, 0.0, 1.0)
    south = (-0.0, -0.0, -1.0)
    m1 = (1.0, 0.0, 0.0)
    m2 = (math.cos(a), math.sin(a), 0.0)
    tiles = [TilePlacement([north, m1, m2], (0, 1, 2)),
             TilePlacement([south, m1, m2], (0, 1, 2))]
    tiling = SphTiling([north, m1, south, m2], (a, math.pi, a, math.pi), tiles)
    return tiling, tile


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

QUARTER = TileSpec.from_pi_fractions(F(1, 4), F(1, 3), F(1, 2))
NINTH = TileSpec.from_pi_fractions(F(2, 9), F(1, 3), F(1, 2))
CASE_B = TileSpec.from_pi_fractions(F(1, 3), F(1, 3), F(1, 2))
FIFTH = TileSpec.from_pi_fractions(F(1, 5), F(1, 3), F(1, 2))


class TestEdgeCombination:
    def test_direct_match(self):
        a, b, c = QUARTER.edges
        res = edge_combination(a + b, QUARTER.edges)
        assert isinstance(res, EdgeMatch) and res.coeffs == (1, 1, 0)

    def test_keeps_the_first_combination_within_1e_15(self):
        """On the quarter tile a + c = 2b; at x = 2a + c the walk meets
        (1, 2, 0), 4.4e-16 below x, before (2, 0, 1), which is x, and keeps
        it."""
        a, b, c = QUARTER.edges
        x = 2 * a + c
        res = edge_combination(x, QUARTER.edges)
        assert res.coeffs == (1, 2, 0) and 0 < res.gap == x - (a + 2 * b) < 1e-15

    def test_two_thirds_pi_unreachable(self):
        res = edge_combination(2 * math.pi / 3, QUARTER.edges)
        assert isinstance(res, EdgeNearest) and res.gap > EDGE_TOL

    def test_ninth_decomposition_gaps(self):
        a, b, c = NINTH.edges
        for x in (2 * b - a, 2 * b - c):
            assert isinstance(edge_combination(x, NINTH.edges), EdgeNearest)

    def test_match_iff_gap_within_tolerance(self):
        a, b, c = QUARTER.edges
        for x in (a + b, 2 * math.pi / 3, 2 * b - a, 1.0, 1.5708,
                  a + b + 0.5 * EDGE_TOL, a + b + 2 * EDGE_TOL):
            res = edge_combination(x, QUARTER.edges)
            assert isinstance(res, EdgeMatch) == (res.gap <= EDGE_TOL)

    def test_large_coefficients_found(self):
        res = edge_combination(20 * 0.1, (0.1, 5.0, 7.0))
        assert isinstance(res, EdgeMatch) and res.coeffs == (20, 0, 0)
        res = edge_combination(45 * 0.1, (0.1, 5.0, 7.0))
        assert isinstance(res, EdgeMatch) and res.coeffs == (45, 0, 0)

    @pytest.mark.parametrize("edges", [(0.0, 1.0, 2.0), (0.5, -1.0, 2.0),
                                       (0.5, float("nan"), 2.0)])
    def test_nonpositive_edge_rejected(self, edges):
        with pytest.raises(ValueError):
            edge_combination(1.0, edges)

    def test_against_brute_force(self):
        rng = random.Random(7)
        cases = [(20 * 0.1, (0.1, 5.0, 7.0)), (2.05, (0.1, 5.0, 7.0)),
                 (3.3 + 1e-7, (0.1, 0.7, 1.1)), (25 * 0.12 + 1e-3, (0.12, 0.9, 2.0))]
        for _ in range(150):
            edges = tuple(rng.uniform(0.2, 1.5) for _ in range(3))
            if rng.random() < 0.5:
                coeffs = [rng.randrange(4) for _ in range(3)]
                x = sum(n * e for n, e in zip(coeffs, edges))
                x = max(x, 0.05) + rng.choice((0.0, 3e-6, -3e-6, 2e-5, 1e-3))
            else:
                x = rng.uniform(0.05, 3.0)
            cases.append((x, edges))
        for x, edges in cases:
            res = edge_combination(x, edges)
            a, b, c = edges
            gap = min(abs(x - (i * a + j * b + k * c))
                      for i in range(int(x / a) + 2)
                      for j in range(int(x / b) + 2)
                      for k in range(int(x / c) + 2))
            assert abs(res.gap - gap) <= 1e-12, (x, edges)
            assert isinstance(res, EdgeMatch) == (gap <= EDGE_TOL), (x, edges)
            if isinstance(res, EdgeMatch):
                i, j, k = res.coeffs
                assert res.value == i * a + j * b + k * c
                assert abs(res.value - x) <= EDGE_TOL


def _candidate_scan(tile, tau, phi_min):
    """Every (n, phi, psi) of `enumerate_candidates`, by a direct scan.

    phi runs over the grid p/den (den the lcm of the denominators of the
    tile angles, tau and phi_min) and psi = n * excess + 1 - tau - phi; a
    pair is kept when phi_min < phi <= psi < 1, both are nonnegative integer
    combinations of the tile angles and the triangle inequality holds.
    Returns {(n, phi, psi): edge status of the edge opposite tau}.
    """
    qa, qb, qc = tile.angles_pi
    den = math.lcm(*(F(q).denominator for q in (qa, qb, qc, tau, phi_min)))
    sums = {i * qa + j * qb + k * qc  # every sum up to pi, by its coefficients
            for i in range(int(1 / qa) + 1)
            for j in range(int((1 - i * qa) / qb) + 1)
            for k in range(int((1 - i * qa - j * qb) / qc) + 1)}
    out = {}
    n = 2
    while n * tile.excess_pi < 2 * tau:
        total = n * tile.excess_pi + 1 - tau
        for p in range(den + 1):
            phi = F(p, den)
            psi = total - phi
            if not (phi_min < phi <= psi < 1) or phi not in sums or psi not in sums:
                continue
            lo, mid, hi = sorted((F(tau), phi, psi))
            if mid + hi >= 1 + lo:
                continue
            out[(n, phi, psi)] = edge_combination(law_of_cosines(tau, phi, psi)[0], tile.edges)
        n += 1
    return out


class TestCandidates:
    def test_matches_direct_scan(self):
        rng = random.Random(8)
        cases = []
        isosceles = TileSpec.from_pi_fractions(F(1, 3), F(1, 2), F(1, 2))
        for tile in (QUARTER, FIFTH, NINTH, CASE_B, isosceles):
            qa, qb, qc = tile.angles_pi
            cases += [(tile, qa, F(0)), (tile, qb, qa), (tile, qc, F(0)), (tile, qc, qb)]
        while len(cases) < 64:
            qs = [F(rng.randint(1, 9), rng.randint(2, 12)) for _ in range(3)]
            if is_valid(qs):
                tile = TileSpec.from_pi_fractions(*qs)
                tau = rng.choice([*tile.angles_pi, F(rng.randint(1, 11), 12)])
                cases.append((tile, tau, rng.choice([F(0), tile.angles_pi[0]])))
        found = 0
        for tile, tau, phi_min in cases:
            cands = enumerate_candidates(tile, tau, phi_min)
            want = _candidate_scan(tile, tau, phi_min)
            # each pair once, in (n, phi, psi) order
            assert [(c.n, c.phi, c.psi) for c in cands] == sorted(want)
            assert {(c.n, c.phi, c.psi): c.edge_status for c in cands} == want
            assert all(c.tau == tau for c in cands)
            found += len(cands)
        assert found > 400  # the cases are not all empty

    def test_octant_empty(self):
        octant = TileSpec.from_pi_fractions(F(1, 2), F(1, 2), F(1, 2))
        assert enumerate_candidates(octant, F(1, 2)) == []

    def test_quarter_alpha_list(self):
        cands = enumerate_candidates(QUARTER, F(1, 4))
        expr = sorted(c.angles_pi() for c in cands if c.expressible)
        assert expr == sorted([
            (F(1, 4), F(1, 4), F(2, 3)), (F(1, 4), F(1, 2), F(1, 2)),
            (F(1, 4), F(1, 3), F(3, 4)), (F(1, 4), F(1, 2), F(2, 3))])

    def test_ninth_beta_extra(self):
        cands = enumerate_candidates(NINTH, F(1, 3), F(2, 9))
        expr = {c.angles_pi() for c in cands if c.expressible}
        assert (F(1, 3), F(1, 3), F(7, 9)) in expr
        assert len(expr) == 4

    def test_exact_area_equation(self):
        for cand in enumerate_candidates(NINTH, F(2, 9)):
            lhs = cand.n * NINTH.excess_pi + 1 - cand.tau
            assert lhs == cand.phi + cand.psi  # exact rational identity

    def test_order_independent(self):
        base = {c.angles_pi() for c in enumerate_candidates(QUARTER, F(1, 4))}
        again = {c.angles_pi() for c in enumerate_candidates(QUARTER, F(1, 4))}
        assert base == again

    def test_float_raises(self):
        # angles are Fractions of pi only; a float is never read as radians
        with pytest.raises(TypeError):
            TileSpec.from_pi_fractions(0.5, 0.5, 0.5)
        with pytest.raises(TypeError):
            enumerate_candidates(QUARTER, 0.25)
        with pytest.raises(TypeError):
            search_tiling((0.5, 0.5, 0.5), QUARTER)


class TestSearch:
    def test_two_tile_mirror_pair(self):
        res = search_tiling((F(1, 4), F(1, 4), F(2, 3)), QUARTER)
        assert res.status == "found" and len(res.tiling.tiles) == 2
        assert verify_tiling(res.tiling, QUARTER)

    def test_five_tile(self):
        res = search_tiling((F(1, 2), F(2, 3), F(2, 3)), CASE_B)
        assert res.status == "found" and len(res.tiling.tiles) == 5
        assert verify_tiling(res.tiling, CASE_B)

    def test_exhaustive_search_rejects_extra_candidate(self, monkeypatch):
        # area allows exactly 8 tiles; the full backtracking search proves
        # no tiling exists, matching the edge-decomposition argument; with
        # both prunes on, none of the 6 first placements survives
        res = search_tiling((F(1, 3), F(1, 3), F(7, 9)), NINTH, n_max=8)
        assert (res.status, res.nodes) == ("exhausted", 6)
        run_unpruned(monkeypatch)
        res = search_tiling((F(1, 3), F(1, 3), F(7, 9)), NINTH, n_max=8)
        assert res.status == "exhausted"
        assert res.nodes > 100

    def test_exhausted_by_count_bound(self):
        res = search_tiling((F(1, 3), F(1, 3), F(7, 9)), NINTH, n_max=5)
        assert res.status == "exhausted"
        assert "8" in res.reason and res.nodes == 0

    @pytest.mark.parametrize("target, tile, n_max, want", [
        pytest.param((F(1, 2), F(1, 2), F(4, 7)), QUARTER, None,
                     ("exhausted", 0, "target area is not a positive multiple of the tile area"),
                     id="area-not-whole"),
        # area ratio 2 + 1.2e-7
        pytest.param((F(1, 2), F(1, 2), F(1, 6) + F(1, 10 ** 8)), QUARTER, None,
                     ("exhausted", 0, "target area is not a positive multiple of the tile area"),
                     id="area-off-by-1e-7-tiles"),
        pytest.param((F(1, 3), F(1, 3), F(7, 9)), NINTH, 5,
                     ("exhausted", 0, "needs exactly 8 tiles, above the bound 5"),
                     id="above-n-max"),
        pytest.param((F(1, 3), F(1, 2), F(1, 4)), QUARTER, None, ("found", 0, ""),
                     id="single-tile-congruent"),
        # same area as the tile, angles off by 1e-12 pi
        pytest.param((F(1, 4) + F(1, 10 ** 12), F(1, 3) - F(1, 10 ** 12), F(1, 2)), QUARTER,
                     None, ("exhausted", 0, "single tile is not congruent"),
                     id="single-tile-not-congruent"),
        # two tiles' area, but 13/24 and 11/24 are off the pi/12 grid
        pytest.param((F(13, 24), F(11, 24), F(1, 6)), QUARTER, None,
                     ("exhausted", 0, "target corner 13/24 pi is no sum of tile angles"),
                     id="corner-off-grid"),
        pytest.param((F(1, 6), F(1, 2), F(1, 2)), QUARTER, None,
                     ("exhausted", 0, "target corner 1/6 pi is no sum of tile angles"),
                     id="corner-no-sum"),
        pytest.param((F(1, 2), F(1, 2), F(1, 2)), CASE_B, None,
                     ("exhausted", 0, "target side opposite 1/2 pi is no sum of tile edges"),
                     id="side-no-sum"),
        # ten tiles' area, on the pi/18 grid, but no side is a sum of edges
        pytest.param((F(1, 2), F(1, 2), F(5, 9)), NINTH, None,
                     ("exhausted", 0, "target side opposite 5/9 pi is no sum of tile edges"),
                     id="side-no-sum-ten-tiles"),
    ])
    def test_root_exit(self, target, tile, n_max, want):
        """Each way the search ends before its first node, with its reason."""
        res = search_tiling(target, tile, n_max=n_max)
        assert (res.status, res.nodes, res.reason) == want

    def test_target_corner_no_sum_of_tile_angles(self):
        # the area takes two tiles, but no sum of 1/4, 1/3 and 1/2 is 1/6
        res = search_tiling((F(1, 6), F(1, 2), F(1, 2)), QUARTER)
        assert (res.status, res.nodes) == ("exhausted", 0)
        assert res.reason == "target corner 1/6 pi is no sum of tile angles"

    def test_target_side_no_sum_of_tile_edges(self, monkeypatch):
        # the octant's corners are sums of 1/3, 1/3 and 1/2, but its sides,
        # pi/2 long, lie 0.34 from the nearest sum of the tile's edges
        res = search_tiling((F(1, 2), F(1, 2), F(1, 2)), CASE_B)
        assert (res.status, res.nodes) == ("exhausted", 0)
        assert res.reason == "target side opposite 1/2 pi is no sum of tile edges"
        assert edge_combination(math.pi / 2, CASE_B.edges).gap > 0.33
        # unpruned, the search takes 12 nodes to say the same
        run_unpruned(monkeypatch)
        res = search_tiling((F(1, 2), F(1, 2), F(1, 2)), CASE_B)
        assert (res.status, res.nodes, res.reason) == ("exhausted", 12, "")

    def test_single_tile(self):
        res = search_tiling((F(1, 4), F(1, 3), F(1, 2)), QUARTER)
        assert res.status == "found" and len(res.tiling.tiles) == 1

    def test_area_ratio_is_exact(self):
        # area ratio 2 + 1.2e-7: no integer tile count, so nothing to search
        res = search_tiling((F(1, 2), F(1, 2), F(1, 6) + F(1, 10 ** 8)), QUARTER)
        assert res.status == "exhausted" and res.nodes == 0

    def test_aborted_on_budget(self):
        res = search_tiling((F(1, 2), F(1, 2), F(1, 2)), QUARTER, node_budget=3)
        assert res.status == "aborted"

    def test_zero_budget_aborts_at_the_first_node(self):
        res = search_tiling((F(1, 2), F(1, 2), F(1, 2)), QUARTER, node_budget=0)
        assert (res.status, res.nodes) == ("aborted", 1)

    @pytest.mark.parametrize("bound", [{"node_budget": -1}, {"n_max": 0}])
    def test_meaningless_bounds_raise(self, bound):
        with pytest.raises(ValueError):
            search_tiling((F(1, 2), F(1, 2), F(1, 2)), QUARTER, **bound)

    def test_deterministic(self):
        r1 = search_tiling((F(1, 4), F(1, 2), F(2, 3)), QUARTER)
        r2 = search_tiling((F(1, 4), F(1, 2), F(2, 3)), QUARTER)
        assert r1.nodes == r2.nodes
        assert all(np.allclose(a.points, b.points)
                   for a, b in zip(r1.tiling.tiles, r2.tiling.tiles))


# The 19 fixture found tilings, the exhausted ninth-tile target, the ten
# next heaviest searches of the benchmark's target pool (node counts of
# perfbench/recorded.json) and three larger list entries beyond the
# fixtures, with the status and tile count of the search, its node count
# with the corner and side tests accepting every region (the search tree
# before the tests, the oracle) and its node count as it runs (0 for an
# exhausted search stopped by the target's own sides).  A geometry change
# that reshapes the search tree, or flips a verdict, fails here.
SEARCH_TREE = [
    ("case-b", (F(1, 3), F(1, 3), F(2, 3)), "found", 2, 2, 2),
    ("case-b", (F(1, 3), F(1, 2), F(2, 3)), "found", 3, 19, 7),
    ("case-b", (F(1, 2), F(2, 3), F(2, 3)), "found", 5, 30, 9),
    ("case-b", (F(2, 3), F(2, 3), F(2, 3)), "found", 6, 41, 11),
    ("quarter", (F(1, 4), F(1, 4), F(2, 3)), "found", 2, 3, 3),
    ("quarter", (F(1, 4), F(1, 2), F(1, 2)), "found", 3, 14, 8),
    ("quarter", (F(1, 4), F(1, 3), F(3, 4)), "found", 4, 36, 12),
    ("quarter", (F(1, 4), F(1, 2), F(2, 3)), "found", 5, 40, 16),
    ("quarter", (F(1, 3), F(1, 3), F(1, 2)), "found", 2, 16, 4),
    ("quarter", (F(1, 3), F(1, 3), F(2, 3)), "found", 4, 86, 14),
    ("fifth", (F(1, 5), F(1, 5), F(2, 3)), "found", 2, 3, 3),
    ("fifth", (F(1, 5), F(2, 5), F(1, 2)), "found", 3, 4, 4),
    ("fifth", (F(1, 5), F(1, 3), F(3, 5)), "found", 4, 63, 9),
    ("fifth", (F(1, 3), F(1, 3), F(2, 5)), "found", 2, 10, 4),
    ("ninth", (F(2, 9), F(2, 9), F(2, 3)), "found", 2, 3, 3),
    ("ninth", (F(2, 9), F(4, 9), F(1, 2)), "found", 3, 4, 4),
    ("ninth", (F(2, 9), F(1, 3), F(2, 3)), "found", 4, 63, 9),
    ("ninth", (F(2, 9), F(1, 2), F(5, 9)), "found", 5, 61, 19),
    ("ninth", (F(1, 3), F(1, 3), F(4, 9)), "found", 2, 10, 4),
    ("ninth", (F(1, 3), F(1, 3), F(7, 9)), "exhausted", 0, 1296, 6),
    # the ten heaviest other searches of the benchmark's target pool
    ("quarter", (F(1, 2), F(1, 2), F(2, 3)), "exhausted", 0, 1734, 0),
    ("quarter", (F(1, 2), F(1, 2), F(7, 12)), "exhausted", 0, 1548, 0),
    ("quarter", (F(1, 2), F(7, 12), F(7, 12)), "exhausted", 0, 942, 0),
    ("ninth", (F(1, 3), F(5, 9), F(5, 9)), "exhausted", 0, 894, 0),
    ("ninth", (F(1, 3), F(1, 3), F(13, 18)), "exhausted", 0, 876, 0),
    ("ninth", (F(4, 9), F(4, 9), F(5, 9)), "exhausted", 0, 870, 0),
    ("fifth", (F(1, 3), F(1, 3), F(3, 5)), "exhausted", 0, 846, 0),
    ("quarter", (F(1, 3), F(1, 3), F(11, 12)), "exhausted", 0, 756, 0),
    ("quarter", (F(1, 3), F(1, 2), F(3, 4)), "found", 7, 733, 37),
    ("ninth", (F(1, 3), F(1, 2), F(5, 9)), "exhausted", 0, 642, 0),
    # alpha- and beta-list entries beyond the fixtures
    ("fifth", (F(1, 3), F(1, 2), F(4, 5)), "found", 19, 18775, 85),
    ("ninth", (F(1, 3), F(1, 2), F(7, 9)), "found", 11, 4086, 36),
    ("ninth", (F(1, 3), F(5, 9), F(2, 3)), "found", 10, 880, 34),
]
TILES = {"case-b": CASE_B, "quarter": QUARTER, "fifth": FIFTH, "ninth": NINTH}


def tree_search(base, target):
    """(target, tile, pinned unpruned node count) of a SEARCH_TREE row."""
    nodes = next(row[-2] for row in SEARCH_TREE if row[:2] == (base, target))
    return target, TILES[base], nodes


# two unpruned searches several tests rerun: the exhausted ninth-tile one
# and a 7-tile quarter one
NINTH_EXHAUSTED = tree_search("ninth", (F(1, 3), F(1, 3), F(7, 9)))
QUARTER_SEVEN = tree_search("quarter", (F(1, 3), F(1, 2), F(3, 4)))


def run_unpruned(monkeypatch):
    """Make later searches run unpruned: the corner and side tests pass
    every region."""
    monkeypatch.setattr(realize, "_corners_fillable", lambda angles, table: True)
    monkeypatch.setattr(realize, "_sides_fillable", lambda region, den, sums: True)


def tiling_bytes(res):
    return json.dumps(res.tiling.to_json(), sort_keys=True) if res.tiling else None


@pytest.mark.parametrize(
    "base, target, status, tiles, unpruned, nodes", SEARCH_TREE,
    ids=[f"{base}:{','.join(map(str, target))}" for base, target, *_ in SEARCH_TREE])
def test_search_tree_pinned(base, target, status, tiles, unpruned, nodes, monkeypatch):
    """The search and its unpruned oracle give one status and one tiling,
    byte for byte, each with its pinned node count."""
    res = search_tiling(target, TILES[base])
    run_unpruned(monkeypatch)
    old = search_tiling(target, TILES[base])
    assert (res.status, res.nodes) == (status, nodes)
    assert (old.status, old.nodes) == (status, unpruned)
    assert (len(res.tiling.tiles) if res.tiling else 0) == tiles
    assert tiling_bytes(res) == tiling_bytes(old)


def tile_angle_sums(tile):
    """Every sum of tile angles up to 2 (Fractions of pi), the empty sum 0
    included, by enumeration."""
    qa, qb, qc = tile.angles_pi
    return {s for i in range(int(2 / qa) + 1) for j in range(int(2 / qb) + 1)
            for k in range(int(2 / qc) + 1) if (s := i * qa + j * qb + k * qc) <= 2}


def test_corner_table_matches_enumeration():
    """On every tile base and on random tiles, D is the lcm of the angle
    denominators, table[j] is 1 exactly for the angles j*pi/D that are a
    sum of tile angles or pi plus one, and a set of corners (multiples of
    pi/D) passes iff the table marks each of them."""
    rng = random.Random(31)
    tiles = list(TILES.values())
    while len(tiles) < 16:
        qs = [F(rng.randint(1, 11), rng.randint(2, 12)) for _ in range(3)]
        if is_valid(qs):
            tiles.append(TileSpec.from_pi_fractions(*qs))
    marked = unmarked = 0
    for tile in tiles:
        table = realize._corner_table(tile)
        den = tile.den
        assert den == math.lcm(*(q.denominator for q in tile.angles_pi))
        sums = tile_angle_sums(tile)
        want = [F(j, den) in sums or (j >= den and F(j - den, den) in sums)
                for j in range(2 * den + 1)]
        assert list(table) == want, tile.angles_pi
        for j in range(2 * den):
            assert realize._corners_fillable([j], table) == want[j]
        for _ in range(20):
            picks = rng.sample(range(2 * den), 5)
            assert realize._corners_fillable(picks, table) == all(want[j] for j in picks)
        marked += sum(want)
        unmarked += len(want) - sum(want)
    assert marked > 400 and unmarked > 2000  # 495 and 2,157 entries


def test_each_tile_builds_its_tables_once(monkeypatch):
    """A tile builds its corner table (one `angle_sums` table) and its
    `edge_sums` table of its edges up to pi + EDGE_TOL at most once per
    process, on its first search, and a second search on an equal tile
    builds none; `enumerate_candidates` (for every tile count at once) and
    `corner_angle_solutions` still build one `angle_sums` table per call."""
    kernel, built = spherical.angle_sums, []
    edge_kernel, edge_built = spherical.edge_sums, []

    def counting(angles, den, top):
        built.append((den, top))
        return kernel(angles, den, top)

    def edge_counting(edges, top):
        edge_built.append((edges, top))
        return edge_kernel(edges, top)

    monkeypatch.setattr(realize, "angle_sums", counting)
    monkeypatch.setattr(spherical, "angle_sums", counting)
    monkeypatch.setattr(realize, "edge_sums", edge_counting)
    cands = enumerate_candidates(NINTH, F(1, 3), F(2, 9))
    assert len({c.n for c in cands}) > 1 and len(built) == 1 and edge_built == []
    for target, shared, n_max in (((F(2, 3), F(2, 3), F(2, 3)), CASE_B, None),
                                  ((F(1, 3), F(1, 2), F(7, 9)), NINTH, None)):
        # a fresh tile builds both tables on its first search, then none
        tile = TileSpec(shared.angles_pi)
        for want in ([(tile.den, 2 * tile.den)], []):
            built.clear()
            edge_built.clear()
            res = search_tiling(target, tile, n_max)
            assert res.nodes > 10 and built == want
            assert edge_built == [(tile.edges, math.pi + EDGE_TOL)] * len(want)
        # the shared tile, whatever searched it before, builds each at most once
        built.clear()
        edge_built.clear()
        for _ in range(2):
            assert search_tiling(target, TileSpec.from_pi_fractions(*shared.angles_pi),
                                 n_max).nodes == res.nodes
        assert len(built) <= 1 and len(edge_built) <= 1
    built.clear()
    assert corner_angle_solutions([F(1, 3), F(1, 2)], F(1, 6), F(1, 3))
    assert built == [(6, 5)]


def test_shared_tile_per_angle_triple():
    """`from_pi_fractions` returns one instance per angle multiset, whatever
    the order or the spelling of the angles; `TileSpec(angles)` is a new
    instance each time.  The search's tables are immutable."""
    tile = TileSpec.from_pi_fractions(F(1, 5), F(1, 3), F(1, 2))
    assert TileSpec.from_pi_fractions(F(1, 2), F(1, 5), F(1, 3)) is tile
    assert TileSpec.from_pi_fractions(F(2, 4), F(1, 3), F(1, 5)) is tile
    octant = TileSpec.from_pi_fractions(F(1, 2), F(1, 2), F(1, 2))
    assert TileSpec.from_pi_fractions(F(1, 2), F(2, 4), F(1, 2)) is octant
    whole = TileSpec.from_pi_fractions(F(2, 3), F(2, 3), F(2, 3))
    assert whole is not octant and whole is not tile
    assert TileSpec(tile.angles_pi) is not tile
    assert TileSpec(tile.angles_pi) is not TileSpec(tile.angles_pi)
    assert type(tile.corner_table) is bytes
    assert type(tile.side_sums) is tuple and type(tile.orientations) is tuple
    assert all(type(o) is tuple for o in tile.orientations)
    for name in ("corner_table", "side_sums", "orientations", "edges"):
        with pytest.raises(AttributeError):
            setattr(tile, name, None)
    with pytest.raises(TypeError):
        tile.corner_table[0] = 1


def test_shared_tiles_search_as_fresh_ones():
    """The targets of the benchmark's tiling-search passes on seeds 1 and 7,
    searched in one shuffled order on shared tiles, give the status, node
    count, reason and tiling bytes of a search on a fresh tile."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", PERFBENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    exp = inputs.load_expectations(str(PERFBENCH.parent))
    with open(PERFBENCH / "recorded.json") as f:
        recorded = json.load(f)["targets"]
    items = {}
    for seed in (1, 7):
        passes = inputs.tiling_inputs(seed, exp, recorded)
        assert len(passes) == 39
        items.update((item["id"], item) for item in passes)
    items = sorted(items.values(), key=lambda item: item["id"])
    random.Random(36).shuffle(items)
    tiles = set()
    for item in items:
        qs = [F(q) for q in item["tile"]]
        target = tuple(F(q) for q in item["target"])
        shared = search_tiling(target, TileSpec.from_pi_fractions(*qs))
        fresh = search_tiling(target, TileSpec(tuple(sorted(qs))))
        assert (shared.status, shared.nodes, shared.reason) == \
            (fresh.status, fresh.nodes, fresh.reason), item["id"]
        assert tiling_bytes(shared) == tiling_bytes(fresh), item["id"]
        tiles.add(tuple(qs))
    assert len(items) > 39 and len(tiles) == 4


def test_search_builds_no_fraction(monkeypatch):
    """Once a shared tile's tables are built, a search reads its target's
    Fractions but builds none, at a root exit or while it places tiles:
    the target is read once as integers over its lcm denominator."""
    searches = [((F(1, 2), F(1, 2), F(4, 7)), ("exhausted", 0)),
                ((F(2, 9), F(1, 2), F(1, 2)), ("exhausted", 0)),
                ((F(2, 9), F(4, 9), F(1, 2)), ("found", 4))]
    for target, _ in searches:
        search_tiling(target, NINTH)
    built, new = [], F.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting_new))
    assert F(1, 3) and built  # the counter sees a construction
    built.clear()
    results = [search_tiling(target, NINTH) for target, _ in searches]
    monkeypatch.undo()
    assert built == []
    assert [(r.status, r.nodes) for r in results] == [want for _, want in searches]


def test_verify_reads_each_side_once(monkeypatch):
    """One `verify_tiling` call builds one `sphgeo.plane` per tile side and
    per target side, and no tangent."""
    tilings = [(search_tiling((F(1, 5), F(2, 5), F(2, 3)), FIFTH).tiling, FIFTH),
               lune_two_tile_tiling(F(2, 5))]
    calls = []

    def count(name):
        kernel = getattr(sphgeo, name)

        def counting(a, b):
            calls.append(name)
            return kernel(a, b)
        monkeypatch.setattr(sphgeo, name, counting)

    count("plane")
    count("tangent_toward")
    for tiling, tile in tilings:
        calls.clear()
        assert verify_tiling(tiling, tile)
        assert calls == ["plane"] * (3 * len(tiling.tiles) + len(tiling.target_points))


def test_corner_table_bound():
    """A table is built up to D = CORNER_TABLE_MAX_DEN; past it the search
    runs without the corner test."""
    at_bound = TileSpec.from_pi_fractions(F(1, realize.CORNER_TABLE_MAX_DEN), F(1, 2), F(1, 2))
    assert at_bound.den == realize.CORNER_TABLE_MAX_DEN
    assert len(realize._corner_table(at_bound)) == 2 * realize.CORNER_TABLE_MAX_DEN + 1
    e = F(1, 100003)
    tile = TileSpec.from_pi_fractions(F(1, 4) + e, F(1, 3), F(1, 2))
    assert realize._corner_table(tile) is None
    assert realize._corners_fillable([1, tile.den], None)
    res = search_tiling((F(1, 4) + e, F(1, 4) + e, F(2, 3)), tile)
    assert (res.status, res.nodes, len(res.tiling.tiles)) == ("found", 3, 2)


def test_side_table_bound(monkeypatch):
    """Past 2 * CORNER_TABLE_MAX_DEN + 1 edge sums the search runs without
    the side test: with the bound lowered below the ninth tile's count of
    sums, the exhausted ninth-tile search on a fresh tile, which builds its
    tables under the lowered bound, takes the 618 nodes it takes with the
    corner test alone."""
    assert len(spherical.edge_sums(NINTH.edges, math.pi + EDGE_TOL)) > 11
    monkeypatch.setattr(spherical, "CORNER_TABLE_MAX_DEN", 5)
    assert spherical.edge_sums(NINTH.edges, math.pi + EDGE_TOL) is None
    res = search_tiling((F(1, 3), F(1, 3), F(7, 9)), TileSpec(NINTH.angles_pi))
    assert (res.status, res.nodes) == ("exhausted", 618)


def test_side_test_window():
    """A side between two convex corners passes iff its length lies within
    EDGE_TOL of a sum, on either side of it; a side with a reflex end, and
    every side without a table, passes."""
    sums = [0.0, 0.5, 1.0]

    def region(length, angles):
        return realize._Region([_equator(0.0), _equator(length), (0.0, 0.0, 1.0)], angles)

    for off, want in ((0.0, True), (0.5 * EDGE_TOL, True), (-0.5 * EDGE_TOL, True),
                      (2 * EDGE_TOL, False), (-2 * EDGE_TOL, False)):
        # only the equator side has two convex ends (pi is 12 here)
        assert realize._sides_fillable(region(1.0 + off, [4, 5, 18]), 12, sums) == want
        assert realize._sides_fillable(region(1.0 + off, [4, 15, 18]), 12, sums)
        assert realize._sides_fillable(region(1.0 + off, [4, 5, 18]), 12, None)
    # the pole sides, pi/2 long, are no sum
    assert not realize._sides_fillable(region(1.0, [4, 5, 6]), 12, sums)


def test_side_test_matches_edge_combination(monkeypatch):
    """On every region the unpruned searches of the SEARCH_TREE rows visit,
    `_sides_fillable` with the search's table says what the slow oracle
    says: every side between two convex corners is within EDGE_TOL of a
    sum of tile edges by `edge_combination`."""
    fillable = realize._sides_fillable
    verdicts = []
    edges = None

    def checked(region, den, sums):
        assert sums is not None
        k = len(region.angles)
        want = all(isinstance(edge_combination(sphgeo.arc_length(a, b), edges), EdgeMatch)
                   for i, (a, b) in enumerate(region.arcs)
                   if region.angles[i] < den and region.angles[(i + 1) % k] < den)
        assert fillable(region, den, sums) == want
        verdicts.append(want)
        return True

    monkeypatch.setattr(realize, "_corners_fillable", lambda angles, table: True)
    monkeypatch.setattr(realize, "_sides_fillable", checked)
    for base, target, status, tiles, unpruned, nodes in SEARCH_TREE:
        edges = TILES[base].edges
        res = search_tiling(target, TILES[base])
        assert (res.status, res.nodes) == (status, unpruned)
    assert verdicts.count(True) > 150 and verdicts.count(False) > 7000  # 173 and 7,944


@pytest.mark.parametrize("group", sorted(MIRROR_CHAMBERS))
def test_mirror_triangles_are_found(group):
    """Every triangle whose sides lie on mirrors of A3, B3 or H3 (5, 15
    and 33 of them) is a union of chambers.  The search, with both prunes
    on, finds a tiling of each by the chamber, with the tile count of the
    area, and the tiling verifies."""
    tile = TileSpec.from_pi_fractions(*MIRROR_CHAMBERS[group])
    targets = mirror_triangles(group)
    assert len(targets) == {"A3": 5, "B3": 15, "H3": 33}[group]
    for target in targets:
        res = search_tiling(target, tile)
        assert res.status == "found", target
        assert len(res.tiling.tiles) == (sum(target) - 1) / tile.excess_pi
        assert verify_tiling(res.tiling, tile)


def test_target_corner_off_the_grid_without_a_table():
    """Past CORNER_TABLE_MAX_DEN a target corner off the tile's pi/D grid is
    still no sum of tile angles: `exhausted` at 0 nodes, naming the corner,
    though the area takes two tiles."""
    e, d = F(1, 100003), F(1, 7 * 10 ** 6)
    tile = TileSpec.from_pi_fractions(F(1, 4) + e, F(1, 3), F(1, 2))
    assert tile.den > realize.CORNER_TABLE_MAX_DEN and (d * tile.den).denominator != 1
    target = (F(1, 4) + e + d, F(1, 4) + e - d, F(2, 3))
    res = search_tiling(target, tile)
    assert (res.status, res.nodes) == ("exhausted", 0)
    assert res.reason == f"target corner {target[0]} pi is no sum of tile angles"


# A boundary arc of length pi/2 along the equator, from V to W, and the
# way from V along it: the unit tangent at V and the arc length.  Angles are
# multiples of pi/12.
FLUSH_V, FLUSH_W = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
FLUSH_WAY = realize._way([None], 0, FLUSH_V, FLUSH_W)
FLUSH_DEN = 12


def test_way_is_the_tangent_and_the_arc_length():
    assert FLUSH_WAY == ((0.0, 1.0, 0.0), math.pi / 2)
    ways = [None, FLUSH_WAY]
    # a stored way is returned as it is
    assert realize._way(ways, 1, FLUSH_V, (0.0, 0.0, 1.0)) is FLUSH_WAY
    assert realize._way(ways, 0, FLUSH_V, (0.0, 0.0, 1.0)) == ((0.0, 0.0, 1.0), math.pi / 2)
    assert ways[0] == ((0.0, 0.0, 1.0), math.pi / 2)


def test_flush_side_ends_inside_the_arc():
    # W's angle pi/2, tile angle pi/3 at the side's far end
    P, nodes = realize._flush_side(FLUSH_V, FLUSH_W, FLUSH_WAY, 6,
                                   math.pi / 4, 4, FLUSH_DEN)
    assert np.allclose(P, (math.sqrt(0.5), math.sqrt(0.5), 0.0))
    assert nodes == [(P, 12 - 4), (FLUSH_W, 6)]


def test_flush_side_ends_at_the_vertex():
    P, nodes = realize._flush_side(FLUSH_V, FLUSH_W, FLUSH_WAY, 6,
                                   math.pi / 2, 4, FLUSH_DEN)
    assert P is FLUSH_W and nodes == [(FLUSH_W, 6 - 4)]
    # the tile fills W's angle exactly: W's corner closes
    assert realize._flush_side(FLUSH_V, FLUSH_W, FLUSH_WAY, 6,
                               math.pi / 2, 6, FLUSH_DEN)[1] == [(FLUSH_W, 0)]
    # the tile angle at W is larger than the region's angle there
    assert realize._flush_side(FLUSH_V, FLUSH_W, FLUSH_WAY, 6,
                               math.pi / 2, 8, FLUSH_DEN) is None


def test_flush_side_passes_the_vertex_only_where_reflex():
    P, nodes = realize._flush_side(FLUSH_V, FLUSH_W, FLUSH_WAY, 18,
                                   3 * math.pi / 4, 4, FLUSH_DEN)
    assert np.allclose(P, (-math.sqrt(0.5), math.sqrt(0.5), 0.0))
    assert nodes == [(P, 24 - 4), (FLUSH_W, 18 - 12)]
    # W straight (pi) or convex is never passed
    for aW in (6, 12):
        assert realize._flush_side(FLUSH_V, FLUSH_W, FLUSH_WAY, aW,
                                   3 * math.pi / 4, 4, FLUSH_DEN) is None


def _equator(t):
    return (math.cos(t), math.sin(t), 0.0)


def test_cleanup_trims_a_collinear_spike():
    # V has angle 0 and both its arms run east along the equator; the
    # nearer neighbour turns back by pi
    near, V, far, north = _equator(0.1), _equator(0.0), _equator(0.3), (0.0, 0.0, 1.0)
    got = realize._cleanup_cycle([(near, 18), (V, 0), (far, 7), (north, 5)], 12)
    assert (got.points, got.angles) == ([near, far, north], [6, 7, 5])
    # the same spike walked the other way round
    got = realize._cleanup_cycle([(far, 7), (V, 0), (near, 18), (north, 5)], 12)
    assert (got.points, got.angles) == ([far, near, north], [7, 6, 5])
    # a nearer end below pi would turn back past its own arm
    assert realize._cleanup_cycle([(near, 8), (V, 0), (far, 7), (north, 5)], 12) is None


def test_cleanup_rejects_a_slit():
    # the arms leave V in two directions: not a spike
    near, V, off, north = _equator(0.1), _equator(0.0), (math.cos(0.3), 0.0, math.sin(0.3)), \
        (0.0, 0.0, 1.0)
    assert realize._cleanup_cycle([(near, 18), (V, 0), (off, 7), (north, 5)], 12) is None


def test_spike_at_the_apex_of_one_fifth_pi():
    # the tile laid at the apex fills a base corner exactly and ends its
    # third side at the middle of the base: a collinear spike at that corner
    tile = TileSpec.from_pi_fractions(F(1, 10), F(1, 2), F(1, 2))
    res = search_tiling((F(1, 5), F(1, 2), F(1, 2)), tile)
    assert (res.status, res.nodes, len(res.tiling.tiles)) == ("found", 2, 2)
    assert verify_tiling(res.tiling, tile)


def test_bisector_family_sample():
    """200 pairs drawn by random.Random(15).sample from the 8,245 of
    `bisector_family(24)`: each target is found, by two tiles, and the
    tiling verifies."""
    family = bisector_family(24)
    assert len(family) == 8245
    for tile_q, target in random.Random(15).sample(family, 200):
        tile = TileSpec.from_pi_fractions(*tile_q)
        res = search_tiling(target, tile)
        assert res.status == "found" and len(res.tiling.tiles) == 2
        assert verify_tiling(res.tiling, tile)


def substituted_tiling(outer: SphTiling, inner: SphTiling) -> SphTiling:
    """`outer`'s target tiled by `inner`'s tiles: each tile of `outer` is
    replaced by `inner`'s tiles under the orthogonal map that sends
    `inner`'s target point i to that tile's corner i.  `inner`'s target
    angles must be in the order of the corner indices of `outer`'s tile."""
    tiles = []
    for placed in outer.tiles:
        corners = [placed.points[placed.corners.index(i)] for i in range(3)]
        rot = np.array(corners).T @ np.linalg.inv(np.array(inner.target_points).T)
        for t in inner.tiles:
            tiles.append(TilePlacement([sphgeo.unit(tuple(rot @ p)) for p in t.points],
                                       t.corners))
    return SphTiling(outer.target_points, outer.target_angles, tiles)


def test_bisector_composition_sample():
    """Composition: A tiles B and B tiles C, so A tiles C.  For 8 of the 88
    two-step pairs of `bisector_family(24)`, drawn by random.Random(20),
    the A-tiling of B mapped onto each B-tile of the (B, C) tiling
    verifies as a tiling of C by A, and the search finds (C, A) with as
    many tiles."""
    family = bisector_family(24)
    by_tile = {}
    for tile_q, target in family:
        by_tile.setdefault(tuple(sorted(tile_q)), []).append((tile_q, target))
    pairs = [(a_q, b_q, c)
             for a_q, b in family for b_q, c in by_tile.get(tuple(sorted(b)), [])]
    assert len(pairs) == 88
    for a_q, b_q, c in random.Random(20).sample(pairs, 8):
        a, b = TileSpec.from_pi_fractions(*a_q), TileSpec.from_pi_fractions(*b_q)
        inner = search_tiling(b.angles_pi, a)
        outer = search_tiling(c, b)
        assert inner.status == outer.status == "found"
        tiling = substituted_tiling(outer.tiling, inner.tiling)
        assert verify_tiling(tiling, a)
        res = search_tiling(c, a)
        assert res.status == "found" and len(res.tiling.tiles) == len(tiling.tiles) == 4


def test_ways_belong_to_the_node(monkeypatch):
    """Each placement reads the ways of its own node's corner: after every
    placement of two pinned searches, each stored way is the tangent and
    arc length from the picked vertex to its next and previous vertex."""
    place = realize._place
    nodes = {}  # id -> the node's ways, kept alive so ids stay distinct

    def checked(region, vi, orient, ways, *tables):
        got = place(region, vi, orient, ways, *tables)
        pts = region.points
        V, k = pts[vi], len(pts)
        for way, W in zip(ways, (pts[(vi + 1) % k], pts[(vi - 1) % k])):
            if way is not None:
                assert way == (sphgeo.tangent_toward(V, W), sphgeo.arc_length(V, W))
        nodes[id(ways)] = ways
        return got

    monkeypatch.setattr(realize, "_place", checked)
    run_unpruned(monkeypatch)
    for target, tile, count in (NINTH_EXHAUSTED, QUARTER_SEVEN):
        assert search_tiling(target, tile).nodes == count
    assert len(nodes) > 100


@pytest.mark.parametrize("tile, count", [
    (QUARTER, 6), (CASE_B, 3), (TileSpec.from_pi_fractions(F(2, 5), F(2, 5), F(2, 5)), 1),
], ids=["quarter", "case-b", "equilateral"])
def test_orientations_are_the_distinct_placements(tile, count):
    orients = realize._orientations(tile)
    assert len(orients) == count
    for theta, L, thetaP, M, thetaQ, corners, turn in orients:
        assert sorted(corners) == [0, 1, 2]
        c, e, f = corners
        # the angles in multiples of pi/D, and the corner's own radians
        assert all(type(a) is int for a in (theta, thetaP, thetaQ))
        assert (theta, thetaP, thetaQ) == tuple(tile.angles_pi[i] * tile.den for i in corners)
        assert turn == tile.angles[c]
        # each side lies opposite the corner it does not touch
        assert (L, M) == (tile.edges[f], tile.edges[e])


def orientations_by_rounded_key(tile):
    """The placements of `realize._orientations`, told apart by their five
    floats (three radian angles, two sides) rounded to 12 decimals instead
    of by their exact angles."""
    ang, side = tile.angles, tile.edges
    q = [int(x * tile.den) for x in tile.angles_pi]
    seen = set()
    out = []
    for c in range(3):
        for f in range(3):
            if f == c:
                continue
            e = 3 - c - f
            key = (round(ang[c], 12), round(side[f], 12), round(ang[e], 12),
                   round(side[e], 12), round(ang[f], 12))
            if key not in seen:
                seen.add(key)
                out.append((q[c], side[f], q[e], side[e], q[f], (c, e, f), ang[c]))
    return out


def test_orientations_match_the_rounded_key_form():
    qs = sorted({F(a, d) for d in range(2, 13) for a in range(1, d)})
    tiles = 0
    for i, a in enumerate(qs):
        for j, b in enumerate(qs[i:], i):
            for c in qs[j:]:
                if is_valid((a, b, c)):
                    tile = TileSpec((a, b, c))
                    assert realize._orientations(tile) == orientations_by_rounded_key(tile)
                    tiles += 1
    assert tiles == 6787


def all_pairs_geometry_ok(points):
    """The boundary check of a placement, written out on its own: every arc
    below pi - 1e-6 and no pair of arcs in conflict, each arc's length from
    `sphgeo.arc_length`."""
    snap = realize.SNAP
    k = len(points)
    arcs = [(points[i], points[(i + 1) % k]) for i in range(k)]
    if any(sphgeo.arc_length(a, b) >= math.pi - 1e-6 for a, b in arcs):
        return False
    planes = [sphgeo.plane(a, b) for a, b in arcs]
    return not any(sphgeo.arcs_conflict(*arcs[i], planes[i], *arcs[j], planes[j], snap)
                   for i in range(k) for j in range(i + 1, k))


def test_boundary_check_equals_all_pairs_check(monkeypatch):
    """On every pinned search, run unpruned, each call of the boundary check
    gives the all-pairs answer, every arc of every region it accepts is at
    least 1e-6 long, and the search trees stay as pinned.

    The length bound keeps the accepted regions far from the arcs below
    about 1e-7, where `arcs_conflict` reads a normal whose direction is off
    by more than its snap (the shortest accepted arc is about 1e-3)."""
    boundary_ok = realize._placement_geometry_ok
    answers = []

    def checked(new):
        got = boundary_ok(new)
        assert got == all_pairs_geometry_ok(new.points)
        if got:
            assert min(sphgeo.arc_length(a, b) for a, b in new.arcs) >= 1e-6
        answers.append(got)
        return got

    monkeypatch.setattr(realize, "_placement_geometry_ok", checked)
    run_unpruned(monkeypatch)
    for base, target, status, tiles, unpruned, nodes in SEARCH_TREE:
        res = search_tiling(target, TILES[base])
        assert (res.status, res.nodes) == (status, unpruned)
    assert answers.count(True) > 100 and answers.count(False) > 100


def test_regions_hold_int_angles_below_two_pi(monkeypatch):
    """On every pinned search, run unpruned, each region `_cleanup_cycle`
    returns holds its corner angles as ints j, 0 <= j < 2D, multiples of
    pi/D for the tile's D, and the search trees stay as pinned."""
    cleanup = realize._cleanup_cycle
    dens, regions = set(), 0

    def checked(cycle, den):
        nonlocal regions
        got = cleanup(cycle, den)
        if isinstance(got, realize._Region):
            assert all(type(a) is int and 0 <= a < 2 * den for a in got.angles)
            dens.add(den)
            regions += 1
        return got

    monkeypatch.setattr(realize, "_cleanup_cycle", checked)
    run_unpruned(monkeypatch)
    for base, target, status, tiles, unpruned, nodes in SEARCH_TREE:
        dens.clear()
        res = search_tiling(target, TILES[base])
        assert (res.status, res.nodes) == (status, unpruned)
        assert dens == {TILES[base].den}
    assert regions > 1000


def pick_vertex_by_key(region):
    """Reference pick: the first index with the smallest key (angle, point
    rounded to 7 decimals), every point rounded."""
    best, bi = None, -1
    for i, a in enumerate(region.angles):
        key = (a,) + tuple(round(c, 7) for c in region.points[i])
        if best is None or key < best:
            best, bi = key, i
    return bi


def test_pick_vertex_matches_key_on_exact_ties(monkeypatch):
    """On synthetic regions whose smallest angle is shared exactly, with
    points that differ, agree to 7 decimals or repeat, and on every region
    of two pinned searches, run unpruned, the pick is the reference key's."""
    rng = random.Random(17)
    ties = 0
    for _ in range(500):
        k = rng.randint(3, 9)
        angles = [rng.choice((3, 5, 8, 20)) for _ in range(k)]
        pts = [sphgeo.unit((rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)))
               for _ in range(k)]
        for i in range(1, k):
            if rng.random() < 0.3:
                j = rng.randrange(i)
                pts[i] = rng.choice((pts[j], tuple(c + 1e-12 for c in pts[j])))
        region = realize._Region(pts, angles)
        ties += angles.count(min(angles)) > 1
        assert realize._pick_vertex(region) == pick_vertex_by_key(region)
    assert ties > 250

    picked = realize._pick_vertex
    regions = []

    def checked(region):
        regions.append(region.angles.count(min(region.angles)) > 1)
        got = picked(region)
        assert got == pick_vertex_by_key(region)
        return got

    monkeypatch.setattr(realize, "_pick_vertex", checked)
    run_unpruned(monkeypatch)
    for target, tile, nodes in (NINTH_EXHAUSTED, QUARTER_SEVEN):
        assert search_tiling(target, tile).nodes == nodes
    assert sum(regions) > 10


def rotated(points, angle: float) -> list:
    """The tile's points turned by `angle` about the axis through its
    centroid."""
    return turned(points, sphgeo.unit([sum(c) for c in zip(*points)]), angle)


def turned(points, k, angle: float) -> list:
    """The points turned by `angle` about the unit axis k (Rodrigues'
    formula)."""
    c, s = math.cos(angle), math.sin(angle)
    out = []
    for v in points:
        kv, d = sphgeo.cross(k, v), sphgeo.dot(k, v) * (1 - c)
        out.append(tuple(v[i] * c + kv[i] * s + k[i] * d for i in range(3)))
    return out


class TestVerify:
    def _found(self):
        return search_tiling((F(1, 4), F(1, 2), F(1, 2)), QUARTER).tiling

    def test_round_trip(self):
        assert verify_tiling(self._found(), QUARTER)

    def test_scaled_tile_rejected(self):
        tiling = self._found()
        bad = tiling.tiles[0]
        center = sphgeo.unit([sum(c) / 3 for c in zip(*bad.points)])
        bad.points = [sphgeo.unit([x + 0.01 * (x - c) for x, c in zip(p, center)])
                      for p in bad.points]
        rep = verify_tiling(tiling, QUARTER)
        assert not rep and "congruent" in rep.violation

    def test_lune_two_tiles(self):
        tiling, tile = lune_two_tile_tiling(F(2, 5))
        assert verify_tiling(tiling, tile)

    @staticmethod
    def _moved(tiling, idx, points):
        tiles = [TilePlacement(list(t.points), t.corners) for t in tiling.tiles]
        tiles[idx] = TilePlacement(points, tiles[idx].corners)
        return SphTiling(tiling.target_points, tiling.target_angles, tiles)

    @staticmethod
    def _fixture_tilings():
        for base, target, *_ in SEARCH_TREE[:19]:
            yield search_tiling(target, TILES[base]).tiling, TILES[base]

    def test_degenerate_tile_rejected(self):
        tiling = self._found()
        p, _, q = tiling.tiles[1].points
        rep = verify_tiling(self._moved(tiling, 1, [p, p, q]), QUARTER)
        assert not rep and rep.violation == "tile 1 is degenerate"

    def test_dropped_tile_leaves_area_uncovered(self):
        tiling = search_tiling((F(1, 4), F(1, 2), F(2, 3)), QUARTER).tiling
        rep = verify_tiling(SphTiling(tiling.target_points, tiling.target_angles,
                                      tiling.tiles[:-1]), QUARTER)
        assert rep.violation == "tile areas do not sum to the target area"

    def test_containment_window(self):
        """A tile turned rigidly so that a vertex of it on a target side
        ends VERIFY_EPS / 2 outside that side (the sine of the distance)
        passes; 2 * VERIFY_EPS outside, the tile leaves the target.  Across
        each side of a triangle target and of a lune, whose boundary has
        two straight vertices."""
        for tiling, tile in ((search_tiling((F(1, 4), F(1, 2), F(2, 3)), QUARTER).tiling, QUARTER),
                             lune_two_tile_tiling(F(2, 5))):
            b = tiling.target_points
            for i in range(len(b)):
                w = sphgeo.unit(sphgeo.cross(b[i - 1], b[i]))  # inward
                idx, k = next((idx, k) for idx, t in enumerate(tiling.tiles)
                              for k, p in enumerate(t.points) if abs(sphgeo.dot(p, w)) < 1e-12)
                points = tiling.tiles[idx].points
                # about an axis in the side's plane, square to the vertex
                axis = sphgeo.unit(sphgeo.cross(w, points[k]))
                for out, want in ((VERIFY_EPS / 2, ""),
                                  (2 * VERIFY_EPS, f"tile {idx} leaves the target")):
                    moved = turned(points, axis, math.asin(out))
                    assert abs(sphgeo.dot(moved[k], w) + out) < 1e-12
                    assert verify_tiling(self._moved(tiling, idx, moved), tile).violation == want

    def test_duplicated_tile_overlaps(self):
        for tiling, tile in self._fixture_tilings():
            tiling.tiles.append(tiling.tiles[-1])
            rep = verify_tiling(tiling, tile)
            assert rep.violation == f"tiles {len(tiling.tiles) - 2} and {len(tiling.tiles) - 1} overlap"

    def test_rotated_tile_overlaps(self):
        """Tile 7 of the 8-tile fifth (1/5, 2/5, 2/3), turned by 1e-4 rad
        about its centroid, stays in the target and overlaps five of its
        neighbours, tile 2 by 2.3e-5 (the clipping oracle's depth)."""
        tiling = search_tiling((F(1, 5), F(2, 5), F(2, 3)), FIFTH).tiling
        moved = self._moved(tiling, 7, rotated(tiling.tiles[7].points, 1e-4))
        assert verify_tiling(moved, FIFTH).violation == "tiles 2 and 7 overlap"

    def test_tiny_rotation_passes(self):
        """A turn by 1e-9 rad moves each vertex by less than 1e-9, far
        inside VERIFY_EPS: the tiling still verifies, with each tile turned
        either way."""
        for tiling, tile in self._fixture_tilings():
            for idx, placed in enumerate(tiling.tiles):
                for angle in (1e-9, -1e-9):
                    assert verify_tiling(self._moved(tiling, idx, rotated(placed.points, angle)), tile)

    def test_vertex_order_changes_no_verdict(self):
        tiling = search_tiling((F(1, 5), F(2, 5), F(2, 3)), FIFTH).tiling
        cases = [(tiling, FIFTH), (self._moved(tiling, 7, rotated(tiling.tiles[7].points, 1e-4)), FIFTH),
                 (self._moved(tiling, 7, rotated(tiling.tiles[7].points, -1e-4)), FIFTH),
                 (self._moved(tiling, 0, tiling.tiles[1].points), FIFTH),
                 lune_two_tile_tiling(F(3, 4))] + list(self._fixture_tilings())
        for tiling, tile in cases:
            back = SphTiling(tiling.target_points, tiling.target_angles,
                             [TilePlacement(t.points[::-1], t.corners[::-1]) for t in tiling.tiles])
            assert verify_tiling(back, tile) == verify_tiling(tiling, tile)


class TestSerializationAndSvg:
    def test_json_round_trip(self, tmp_path):
        tiling = search_tiling((F(1, 4), F(1, 4), F(2, 3)), QUARTER).tiling
        data = tiling.to_json()
        text = json.dumps(data)
        back = tiling_from_json(json.loads(text))
        assert len(back.tiles) == len(tiling.tiles)
        assert verify_tiling(back, QUARTER)

    def test_svg_written(self, tmp_path):
        tiling = search_tiling((F(1, 2), F(2, 3), F(2, 3)), CASE_B).tiling
        path = tmp_path / "five.svg"
        tiling.render_svg(str(path))
        body = path.read_text()
        assert body.startswith("<svg") and body.count("<polygon") == 6


# First 16 hex digits of the sha256 of the tiling JSON as `reptile-lab tile
# --out` writes it, and of the SVG bytes, for the 19 fixture found tilings
# and the (2/5 pi)-lune; recorded while tilings still held numpy arrays,
# except the case-b (1/2, 2/3, 2/3) and (2/3, 2/3, 2/3) tilings, recorded
# when the search's corner angles became exact: an exact tie between two
# smallest corners there broke, in float, by the last bit.
TILING_DIGESTS = {
    "case-b:1/3,1/3,2/3": ("0add86982cbd6139", "191ee61752262117"),
    "case-b:1/3,1/2,2/3": ("9493e45ca17779f2", "6b3ba4815a71037c"),
    "case-b:1/2,2/3,2/3": ("174e7b4d74060e37", "2c00b0818f7c6ed9"),
    "case-b:2/3,2/3,2/3": ("5fd44807f9bf9bec", "49e7a39e803bf7ed"),
    "quarter:1/4,1/4,2/3": ("be99cda16b3a4d52", "74a13455545cb759"),
    "quarter:1/4,1/2,1/2": ("14b5d710993c949a", "b2873629d37fa831"),
    "quarter:1/4,1/3,3/4": ("192c104b8863087c", "613f5800cf38cd76"),
    "quarter:1/4,1/2,2/3": ("5fc66ca6f235e93a", "b695dc37efcc8d13"),
    "quarter:1/3,1/3,1/2": ("c9f14929beaf4c86", "a111c38a955fab6d"),
    "quarter:1/3,1/3,2/3": ("a335805e589d6633", "7282c48e48afa482"),
    "fifth:1/5,1/5,2/3": ("97db2cd32dadb8d5", "fc49709557488f52"),
    "fifth:1/5,2/5,1/2": ("f9a35cc69dca82b0", "123b1b98f82d5bf6"),
    "fifth:1/5,1/3,3/5": ("3c075bc3a7292e07", "890eded4c83dee15"),
    "fifth:1/3,1/3,2/5": ("2c38c3e829126b5d", "3b448a1d9d24b055"),
    "ninth:2/9,2/9,2/3": ("c748eadc85450e79", "683f4c74e256d0d1"),
    "ninth:2/9,4/9,1/2": ("bc363f9116dbc3d1", "2d07d79660ce2c26"),
    "ninth:2/9,1/3,2/3": ("d2f8c39da0219c7e", "a2d6e361bad0e3ab"),
    "ninth:2/9,1/2,5/9": ("c5828ccfed557eee", "99f01dbe5d93dc8c"),
    "ninth:1/3,1/3,4/9": ("9aa66f0aa80ea016", "15e27d565f5be9eb"),
    "lune:2/5": ("042c075c14b8d92e", "e7e994aa5d7696e1"),
}


# First 16 hex digits of the sha256 of the SVG bytes for lunes that
# TILING_DIGESTS does not draw (its (2/5 pi)-lune is its only four-corner
# target); recorded before `render_svg` drew tiles and target through one
# `outline` walk.
SVG_DIGESTS = {
    "lune:1/6": "8ab5048743a9cd12",
    "lune:1/2": "4cd8bb91db7e64e6",
    "lune:3/4": "0d1e0b436d171fe2",
    "lune:11/12": "0bc28b811520ff56",
}


@pytest.mark.parametrize("key", list(SVG_DIGESTS))
def test_lune_svg_bytes_pinned(key, tmp_path):
    tiling, tile = lune_two_tile_tiling(F(key.split(":")[1]))
    assert verify_tiling(tiling, tile)
    path = tmp_path / "lune.svg"
    tiling.render_svg(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == SVG_DIGESTS[key]


@pytest.mark.parametrize("key", list(TILING_DIGESTS))
def test_tiling_output_bytes_pinned(key, tmp_path):
    base, angles = key.split(":")
    if base == "lune":
        tiling = lune_two_tile_tiling(F(angles))[0]
    else:
        tiling = search_tiling(tuple(F(q) for q in angles.split(",")), TILES[base]).tiling
    text = json.dumps(tiling.to_json(), indent=1, sort_keys=True)
    path = tmp_path / "tiling.svg"
    tiling.render_svg(str(path))
    digests = tuple(hashlib.sha256(b).hexdigest()[:16]
                    for b in (text.encode(), path.read_bytes()))
    assert digests == TILING_DIGESTS[key]


class TestAlgebraicDegree:
    def test_examples(self):
        assert algebraic_degree(16, 4).degree == 1
        assert algebraic_degree(4, 4).degree == 2
        assert algebraic_degree(8, 4).degree == 4
        assert algebraic_degree(8, 4).min_distinct_edge_lengths == 4
        # perfect powers past binary64's exact integers: a float root
        # rounded to the wrong integer reads them as degree 4 and 3
        assert algebraic_degree(3 ** 160, 4).degree == 1
        assert algebraic_degree((2 ** 80 + 1) ** 3, 3).degree == 1
        assert algebraic_degree((2 ** 80 + 1) ** 3 + 1, 3).degree == 3

    def test_bad_input(self):
        with pytest.raises(ValueError):
            algebraic_degree(1, 4)

    def test_against_bruteforce_oracle(self):
        for k in range(2, 101):
            assert algebraic_degree(k, 4).degree == \
                minimal_polynomial_degree_bruteforce(k, 4)
        for k in range(2, 60):
            assert algebraic_degree(k, 3).degree == \
                minimal_polynomial_degree_bruteforce(k, 3)
