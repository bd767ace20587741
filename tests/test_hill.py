import math
import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from reptile_lab.hill import (EuclideanSimplex, LatticeTile, PairingError,
                              _hill_facets, _reaches, _reference, compatibility_graph,
                              congruent, facets, generate_h1_tiling,
                              generate_h2_h1_tiles, hill_simplex, lattice_tiles_in,
                              pair_h2_tiling, pair_union_simplex, tiling_report,
                              signed_perms)
from test_hill_oracles import congruent_oracle, distortions, images, random_simplex

H = F(1, 2)


def displayed_vertices(d, i):
    """The vertex displays of H0_d, H1_d and H2_d in the `hill` docstring,
    built from Fractions."""
    zero = (F(0),) * d
    e1 = (F(1),) + (F(0),) * (d - 1)
    e12 = (F(1), F(1)) + (F(0),) * (d - 2)
    halves = tuple((H,) * k + (F(0),) * (d - k) for k in range(d + 1))
    return (halves, (zero, e1) + halves[2:], (zero, e1, e12) + halves[3:])[i]


class TestBaseSimplices:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_vertices_match_the_displays(self, i, d):
        assert hill_simplex(d, i).vertices == displayed_vertices(d, i)

    def test_h0_3_vertices(self):
        s = hill_simplex(3, 0)
        assert s.vertices == ((F(0),) * 3, (H, F(0), F(0)), (H, H, F(0)), (H, H, H))

    def test_h1_2_vertices(self):
        s = hill_simplex(2, 1)
        assert s.vertices == ((F(0), F(0)), (F(1), F(0)), (H, H))

    def test_volume_ratios(self):
        for d in (2, 3, 4, 5):
            v0 = hill_simplex(d, 0).volume()
            v1 = hill_simplex(d, 1).volume()
            v2 = hill_simplex(d, 2).volume()
            assert v2 == 2 * v1 == 4 * v0
            assert F(2, 2 ** d * math.factorial(d)) == v1

    def test_bad_index(self):
        with pytest.raises(ValueError):
            hill_simplex(3, 3)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_facets_pass_through_every_vertex_but_one(self, i, d):
        """Vertex k of m * H^i_d lies on every facet but facet k, and
        strictly inside facet k."""
        for m in (1, 2, 3):
            rows = [[m * c for c in r] for r in hill_simplex(d, i).rows]
            ineqs = facets(rows)
            assert len(ineqs) == d + 1
            for k, v in enumerate(rows):
                slack = [b - sum(x * y for x, y in zip(a, v)) for a, b in ineqs]
                assert slack[k] > 0
                assert slack[:k] + slack[k + 1:] == [0] * d

    @pytest.mark.parametrize("gen,i", [(generate_h1_tiling, 1), (generate_h2_h1_tiles, 2)])
    def test_tiles_match_the_scaled_rows_facets(self, gen, i):
        """The generators cut by the base facets with right-hand sides times
        m; the facets of the scaled rows give the same tiles in the same
        order."""
        cases = [(d, m) for d in (2, 3, 4) for m in (1, 2, 3, 4)] + [(5, 1), (5, 2)]
        for d, m in cases:
            rows = [[m * c for c in r] for r in hill_simplex(d, i).rows]
            assert gen(d, m) == lattice_tiles_in(facets(rows), d, m), (d, m)

    def test_facets_and_reaches_built_once_per_shape(self):
        """Every scale of H1_3 and H2_3 reuses the facets and the reach
        table of its base: one of each per base simplex."""
        _hill_facets.cache_clear()
        _reaches.cache_clear()
        for m in (1, 2, 3):
            generate_h1_tiling(3, m)
            generate_h2_h1_tiles(3, m)
        assert _hill_facets.cache_info().misses == 2
        assert _reaches.cache_info().misses == 2

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_reaches_are_the_largest_value_over_the_vertices(self, d):
        """The prefix-sum reaches equal each normal's largest value over a
        tile's vertex offsets, read from `vertices2`, on the Hill facet
        normals and random integer normals."""
        rng = random.Random(d)
        normals = [a for i in (1, 2) if d > 1 for a, _ in _hill_facets(d, i)]
        normals += [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(6)]
        want = []
        for sp in signed_perms(d):
            offsets = LatticeTile((0,) * d, sp).vertices2()
            want.append((sp, tuple(max(sum(x * y for x, y in zip(a, v)) for v in offsets)
                                   for a in normals)))
        assert _reaches(tuple(normals), d) == tuple(want)


class TestEuclideanSimplex:
    def test_rational_input_becomes_rows_over_one_denominator(self):
        s = EuclideanSimplex(((0, 0), (F(1, 2), 0), (0, 0.25)))
        assert (s.rows, s.den) == (((0, 0), (2, 0), (0, 1)), 4)
        assert s.vertices == ((0, 0), (H, 0), (0, F(1, 4)))
        assert s.volume() == F(1, 16)

    def test_rows_over_a_given_denominator(self):
        s = EuclideanSimplex.from_rows([[0, 0], [2, 0], [0, 1]], 4)
        assert (s.rows, s.den) == (((0, 0), (2, 0), (0, 1)), 4)
        assert congruent(s, EuclideanSimplex(s.vertices))

    @pytest.mark.parametrize("vertices", [
        (), ((0, 0), (1, 0)), ((0, 0), (1, 0), (0, 1), (1, 1))])
    def test_wrong_vertex_count_rejected(self, vertices):
        with pytest.raises(ValueError):
            EuclideanSimplex(vertices)
        with pytest.raises(ValueError):
            EuclideanSimplex.from_rows(vertices, 1)

    @pytest.mark.parametrize("vertices", [
        ((0, 0), (1,), (0, 1)), ((0, 0), (1, 0), (0, 1, 1))])
    def test_ragged_row_rejected(self, vertices):
        with pytest.raises(ValueError):
            EuclideanSimplex(vertices)
        with pytest.raises(ValueError):
            EuclideanSimplex.from_rows(vertices, 1)

    @pytest.mark.parametrize("den", [0, -2])
    def test_nonpositive_denominator_rejected(self, den):
        with pytest.raises(ValueError):
            EuclideanSimplex.from_rows(((0, 0), (1, 0), (0, 1)), den)


class TestTilings:
    @pytest.mark.parametrize("d,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                     (3, 3), (4, 2)])
    def test_h1_counts_volume_congruence(self, d, m):
        tiles = generate_h1_tiling(d, m)
        base = hill_simplex(d, 1)
        rep = tiling_report(tiles, base)
        assert rep.tile_count == m ** d
        assert rep.total_volume == base.volume() * m ** d
        assert rep.all_congruent

    @pytest.mark.parametrize("gen", [generate_h1_tiling, generate_h2_h1_tiles,
                                     pair_h2_tiling])
    @pytest.mark.parametrize("d,m", [(1, 1), (1, 2), (3, 0), (3, -1)])
    def test_bad_dimension_or_scale_rejected(self, gen, d, m):
        with pytest.raises(ValueError):
            gen(d, m)

    def test_single_tile(self):
        tiles = generate_h1_tiling(2, 1)
        assert len(tiles) == 1
        assert congruent(tiles[0].simplex(), hill_simplex(2, 1))

    def test_distance_multisets_match(self):
        tiles = generate_h1_tiling(3, 2)
        def dists(t):
            vs = t.simplex().vertices
            return sorted(sum((a - b) ** 2 for a, b in zip(u, v))
                          for i, u in enumerate(vs) for v in vs[i + 1:])
        ref = dists(tiles[0])
        assert all(dists(t) == ref for t in tiles)

    def test_pairwise_congruent_sample(self):
        tiles = generate_h1_tiling(3, 2)
        for t in tiles[1:]:
            assert congruent(tiles[0].simplex(), t.simplex())


class TestCompatibility:
    def test_full_cube_components_are_four_cycles(self):
        for d in (2, 3, 4):
            tiles = [LatticeTile(tuple(1 for _ in range(d)), sp)
                     for sp in signed_perms(d)]
            graph = compatibility_graph(tiles)
            assert set(graph.component_sizes()) == {4}
            for comp in graph.components:
                inside = [e for e in graph.edges if e[0] in comp]
                assert len(inside) == 4  # 4 vertices, 4 edges: a cycle
                degrees = {}
                for a, b in inside:
                    degrees[a] = degrees.get(a, 0) + 1
                    degrees[b] = degrees.get(b, 0) + 1
                assert set(degrees.values()) == {2}

    def test_restricted_components_even(self):
        for d, m in ((2, 2), (3, 2), (3, 3)):
            tiles = generate_h2_h1_tiles(d, m)
            graph = compatibility_graph(tiles)
            assert all(len(c) in (2, 4) for c in graph.components)

    def test_single_tile_no_edges(self):
        tiles = generate_h1_tiling(2, 1)
        graph = compatibility_graph(tiles)
        assert graph.edges == []


class TestPairing:
    @pytest.mark.parametrize("d,m", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 3)])
    def test_pairing(self, d, m):
        pairs = pair_h2_tiling(d, m)
        assert len(pairs) == m ** d
        vol = sum((u.volume() for _, _, u in pairs), F(0))
        assert vol == hill_simplex(d, 2).volume() * m ** d

    def test_union_simplex_structure(self):
        t1 = LatticeTile((1, 1, 1), ((1, 0), (1, 1)))
        t2 = LatticeTile((1, 1, 1), ((1, 0), (1, 2)))
        assert t1.compatible_with(t2)
        union = pair_union_simplex(t1, t2)
        assert congruent(union, hill_simplex(3, 2))

    def test_incompatible_rejected(self):
        t1 = LatticeTile((1, 1, 1), ((1, 0), (1, 1)))
        t3 = LatticeTile((1, 1, 1), ((1, 0), (-1, 1)))
        assert not t1.compatible_with(t3)
        with pytest.raises(PairingError):
            pair_union_simplex(t1, t3)


class TestCongruence:
    def test_mirror_image(self):
        s = hill_simplex(3, 1)
        mirror = EuclideanSimplex(tuple(tuple(-c if i == 0 else c
                                              for i, c in enumerate(v))
                                        for v in s.vertices))
        assert congruent(s, mirror)

    def test_scaled_not_congruent(self):
        s = hill_simplex(3, 0)
        half = EuclideanSimplex(tuple(tuple(c / 2 for c in v) for v in s.vertices))
        assert not congruent(s, half)

    def test_dimension_mismatch(self):
        assert not congruent(hill_simplex(2, 0), hill_simplex(3, 0))

    def test_reference_table_built_once_per_report(self):
        """Every tile of a tiling is checked through `congruent` against
        one base, whose table is built on the first tile only."""
        tiles = generate_h1_tiling(3, 3)
        _reference.cache_clear()
        assert tiling_report(tiles, hill_simplex(3, 1)).all_congruent
        assert _reference.cache_info().misses == 1
        assert _reference.cache_info().hits == len(tiles) - 1

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_reference_over_another_denominator_matches_oracle(self, d):
        """Congruent and non-congruent copies, their rows scaled so that
        their denominator differs from the reference's."""
        rng = random.Random(400 + d)
        for _ in range(25):
            ref = random_simplex(rng, d)
            for s in [*images(rng, ref), *distortions(rng, ref), random_simplex(rng, d)]:
                k = 2 if 2 * s.den != ref.den else 3
                s = EuclideanSimplex.from_rows([[k * c for c in r] for r in s.rows],
                                               k * s.den)
                assert s.den != ref.den
                assert congruent(s, ref) is congruent_oracle(s, ref)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_bases_with_shared_sorted_rows(self, i, d):
        """Two vertices of every base share a sorted row of distances, so
        the row filter leaves the search a choice; the base in every seventh
        vertex order passes, and a half-scaled base does not."""
        base = hill_simplex(d, i)
        for order in list(permutations(range(d + 1)))[::7]:
            assert congruent(EuclideanSimplex.from_rows([base.rows[k] for k in order], 2), base)
        assert not congruent(EuclideanSimplex.from_rows(base.rows, 4), base)

    @pytest.mark.parametrize("rows1,rows2", [
        (((0, 0, 0, 0), (1, 2, 2, 1), (2, 1, 1, 0), (2, 0, 0, 1), (1, 0, 2, 2)),
         ((0, 0, 0, 0), (2, 1, 1, 0), (2, 0, 2, 1), (1, 2, 2, 1), (1, 0, 0, 2))),
        (((0, 0, 0, 0), (2, 0, 0, 1), (1, 1, 2, 0), (0, 0, 1, 1), (1, 1, 1, 2)),
         ((0, 0, 0, 0), (1, 1, 2, 1), (1, 0, 0, 1), (1, 2, 0, 1), (0, 0, 1, 2))),
        (((0, 0, 0, 0), (2, 1, 1, 2), (1, 0, 2, 1), (1, 1, 2, 0), (1, 1, 2, 2)),
         ((0, 0, 0, 0), (2, 0, 1, 1), (2, 0, 0, 0), (1, 1, 0, 0), (1, 2, 1, 2))),
    ])
    def test_equal_sorted_rows_not_congruent(self, rows1, rows2):
        """4-simplices whose vertices have the same sorted rows of squared
        distances, so the row filter passes every vertex: only the
        correspondence search can tell them apart."""
        s, t = EuclideanSimplex.from_rows(rows1, 1), EuclideanSimplex.from_rows(rows2, 1)

        def sorted_rows(u):
            return sorted(sorted(sum((a - b) ** 2 for a, b in zip(p, q)) for q in u.rows)
                          for p in u.rows)

        assert sorted_rows(s) == sorted_rows(t)
        assert congruent(s, t) is congruent(t, s) is congruent_oracle(s, t) is False
