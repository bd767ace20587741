"""Differential tests of the integer Hill kernels against naive oracles.

`congruent` runs on integer squared-distance tables; its oracle is the plain
backtracking over vertex correspondences on `Fraction` squared distances.
`lattice_tiles_in` compares per-inequality reaches with slacks, here on
the facets `facets` computes from the scaled simplex's rows; its oracle
evaluates every inequality of a hand-written facet system on every vertex
of every candidate tile.
`EuclideanSimplex.volume` takes one integer determinant of the simplex's
rows; `exactmath.int_det` is checked against the former `Fraction` Bareiss
elimination (`oracles.bareiss_reference`), and every tile's volume against
the exact value 2 / (2^d d!).
"""

import math
import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from oracles import bareiss_reference
from reptile_lab.exactmath import int_det
from reptile_lab.hill import (EuclideanSimplex, LatticeTile,
                              congruent, facets, generate_h1_tiling,
                              generate_h2_h1_tiles, hill_simplex, lattice_tiles_in,
                              signed_perms)

DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 12)


def congruent_oracle(s1, s2):
    if s1.dim != s2.dim:
        return False

    def table(vs):
        return [[sum((F(a) - F(b)) ** 2 for a, b in zip(u, v)) for v in vs] for u in vs]

    d1, d2 = table(s1.vertices), table(s2.vertices)
    n = len(d1)
    assign = [-1] * n
    used = [False] * n

    def rec(i):
        if i == n:
            return True
        for j in range(n):
            if not used[j] and all(d1[i][k] == d2[j][assign[k]] for k in range(i)):
                used[j], assign[i] = True, j
                if rec(i + 1):
                    return True
                used[j], assign[i] = False, -1
        return False

    return rec(0)


def random_simplex(rng, d):
    while True:
        s = EuclideanSimplex(tuple(
            tuple(F(rng.randint(-9, 9), rng.choice(DENOMINATORS)) for _ in range(d))
            for _ in range(d + 1)))
        if s.volume() != 0:
            return s


def signed_permutation_image(rng, s):
    d = s.dim
    axes = rng.sample(range(d), d)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    shift = [F(rng.randint(-9, 9), rng.choice(DENOMINATORS)) for _ in range(d)]
    verts = [tuple(signs[k] * v[axes[k]] + shift[k] for k in range(d))
             for v in s.vertices]
    rng.shuffle(verts)
    return EuclideanSimplex(tuple(verts))


def images(rng, s):
    """Congruent copies: vertex-permuted, translated, mirrored, signed-permuted."""
    verts = list(s.vertices)
    rng.shuffle(verts)
    yield EuclideanSimplex(tuple(verts))
    shift = [F(rng.randint(-9, 9), rng.choice(DENOMINATORS)) for _ in range(s.dim)]
    yield EuclideanSimplex(tuple(tuple(c + t for c, t in zip(v, shift))
                                 for v in s.vertices))
    axis = rng.randrange(s.dim)
    yield EuclideanSimplex(tuple(tuple(-c if k == axis else c for k, c in enumerate(v))
                                 for v in s.vertices))
    yield signed_permutation_image(rng, s)


def distortions(rng, s):
    """Non-congruent copies: half-scaled, and one coordinate moved."""
    yield EuclideanSimplex(tuple(tuple(c / 2 for c in v) for v in s.vertices))
    verts = [list(v) for v in s.vertices]
    verts[rng.randrange(len(verts))][rng.randrange(s.dim)] += F(1, rng.choice(DENOMINATORS))
    yield EuclideanSimplex(tuple(map(tuple, verts)))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_congruent_images_match_oracle(d):
    rng = random.Random(100 + d)
    for _ in range(40):
        s = random_simplex(rng, d)
        for image in images(rng, s):
            assert congruent(s, image) is congruent_oracle(s, image) is True
            assert congruent(image, s) is True


@pytest.mark.parametrize("d", [2, 3, 4])
def test_congruent_distortions_match_oracle(d):
    rng = random.Random(200 + d)
    for _ in range(40):
        s = random_simplex(rng, d)
        for other in distortions(rng, s):
            assert congruent(s, other) is congruent_oracle(s, other) is False


@pytest.mark.parametrize("d", [2, 3, 4])
def test_congruent_random_pairs_and_floats_match_oracle(d):
    rng = random.Random(300 + d)
    for _ in range(40):
        s = random_simplex(rng, d)
        other = (signed_permutation_image(rng, s) if rng.random() < 0.5
                 else random_simplex(rng, d))
        floats = EuclideanSimplex(tuple(tuple(float(c) for c in v) for v in other.vertices))
        assert congruent(s, other) == congruent_oracle(s, other)
        assert congruent(s, floats) == congruent_oracle(s, floats)
        assert congruent(floats, floats) is True


def sq_distance_multiset(vs):
    return sorted(sum((a - b) ** 2 for a, b in zip(u, v)) for u, v in combinations(vs, 2))


def test_congruent_equal_distance_multisets():
    """Tetrahedra with the same six squared distances that are not congruent:
    only the correspondence search can tell them apart."""
    by_multiset = {}
    pairs = []
    grid = list(product(range(3), repeat=3))[1:]
    for others in combinations(grid, 3):
        s = EuclideanSimplex(((0, 0, 0),) + others)
        if s.volume() == 0:
            continue
        key = tuple(sq_distance_multiset(s.vertices))
        for t in by_multiset.get(key, []):
            if not congruent_oracle(s, t):
                pairs.append((s, t))
        by_multiset.setdefault(key, []).append(s)
        if len(pairs) >= 5:
            break
    assert len(pairs) == 5
    for s, t in pairs:
        assert sq_distance_multiset(s.vertices) == sq_distance_multiset(t.vertices)
        assert congruent(s, t) is False


def hand_written_facets(d, i, m):
    """Facet system (a, b), a . y <= b, of m * H^i_d in doubled
    coordinates y = 2x, written out from the vertex displays."""
    def e(axis, val=1):
        return tuple(val if t == axis else 0 for t in range(d))

    def minus(a, b):
        return tuple(x - y for x, y in zip(a, b))

    ineqs = []
    if i == 0:
        ineqs.append((e(0), m))  # x1 <= m/2  ->  y1 <= m
        for j in range(d - 1):
            ineqs.append((minus(e(j + 1), e(j)), 0))
    elif i == 1:
        ineqs.append((tuple(1 if t in (0, 1) else 0 for t in range(d)), 2 * m))
        ineqs.append((minus(e(1), e(0)), 0))
        for j in range(1, d - 1):
            ineqs.append((minus(e(j + 1), e(j)), 0))
    else:
        if d >= 3:
            ineqs.append((tuple(1 if t in (0, 2) else 0 for t in range(d)), 2 * m))
        else:
            ineqs.append((e(0), 2 * m))
        for j in range(d - 1):
            ineqs.append((minus(e(j + 1), e(j)), 0))
    ineqs.append((e(d - 1, -1), 0))  # x_d >= 0
    return ineqs


def lattice_tiles_oracle(ineqs, d, m):
    def inside(p):
        return all(sum(c * x for c, x in zip(coeffs, p)) <= rhs for coeffs, rhs in ineqs)

    out = []
    for n in product(range(m), repeat=d):
        center2 = tuple(2 * c + 1 for c in n)
        for sp in signed_perms(d):
            tile = LatticeTile(center2, sp)
            if all(inside(v) for v in tile.vertices2()):
                out.append(tile)
    return out


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("i", [0, 1, 2])
def test_lattice_tiles_in_matches_oracle(i, d):
    for m in (1, 2, 3):
        rows = [[m * c for c in r] for r in hill_simplex(d, i).rows]
        expected = lattice_tiles_oracle(hand_written_facets(d, i, m), d, m)
        assert lattice_tiles_in(facets(rows), d, m) == expected
        assert expected or m == 1
        if i:
            assert len(expected) == i * m ** d


def test_int_det_matches_exact_matrix():
    """Zero-heavy random integer matrices, so that pivots need row swaps
    and some matrices are singular."""
    rng = random.Random(17)
    for n in range(6):
        for _ in range(60):
            rows = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)]
                    for _ in range(n)]
            assert int_det(rows) == bareiss_reference([[F(c) for c in r] for r in rows])[0]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_tile_volume_matches_simplex_volume(d):
    """Every tile of m * H1_d and m * H2_d for m = 1..3, and 100 signed
    permutations around one cube.  A tile is two copies of H0_d, each of
    volume 1 / (2^d d!)."""
    perms = list(signed_perms(d))
    perms = random.Random(d).sample(perms, min(100, len(perms)))
    cube = [LatticeTile(tuple(range(1, 2 * d, 2)), sp) for sp in perms]
    volume = F(2, 2 ** d * math.factorial(d))
    for tiles in [cube] + [gen(d, m) for m in (1, 2, 3)
                           for gen in (generate_h1_tiling, generate_h2_h1_tiles)]:
        for t in tiles:
            assert t.simplex().volume() == volume
