"""Differential tests of `verify_tiling`'s kernels: its overlap test
(separating sides) against the clipping oracle
`oracles.tiles_overlap_reference`, and its (angle, opposite side) pairs,
read from each tile's side planes, against the tangent form
`oracles.angle_side_pairs_reference`.

The pairs: every tile pair of the 19 fixture tilings, of five lunes, of the
tilings the search finds among the targets of 2 to 20 tiles on the four
fixture tile bases, and of the tilings of the mirror triangles of A3, B3
and H3; then the same tilings with one tile turned about its centroid by a
seeded angle from 1e-9 to 0.2 rad.  The kernel must say "overlap" exactly
when the oracle's overlap depth exceeds VERIFY_EPS.  A pair whose depth
lies within a factor 10 of VERIFY_EPS is skipped, since there the two
measures may round either way; the count of skipped pairs is bounded.
"""

import math
import random
from fractions import Fraction as F

import pytest

from oracles import (MIRROR_CHAMBERS, angle_side_pairs_reference, mirror_triangles,
                     tiles_overlap_reference)
from test_realize import TILES, lune_two_tile_tiling, rotated
from reptile_lab import fixtures, realize
from reptile_lab.realize import VERIFY_EPS, TileSpec, search_tiling

EXP = fixtures.load("expectations")
LUNES = (F(1, 6), F(2, 5), F(1, 2), F(3, 4), F(11, 12))
SCAN_MAX_TILES = 20


def kernel_overlap(pts1, pts2) -> bool:
    return not (realize._separated(realize._tile_sides(pts1)[0], pts2)
                or realize._separated(realize._tile_sides(pts2)[0], pts1))


def scan_targets(tile: TileSpec) -> list:
    """Every triangle (x <= y <= z, Fractions of pi) whose corners are sums
    of tile angles below pi and whose area is 2 to SCAN_MAX_TILES tiles."""
    sums = set()
    frontier = {F(0)}
    while frontier:
        frontier = {v + q for v in frontier for q in tile.angles_pi if v + q < 1} - sums
        sums |= frontier
    sums = sorted(sums)
    out = []
    for i, x in enumerate(sums):
        for j, y in enumerate(sums[i:], i):
            for z in sums[j:]:
                n = (x + y + z - 1) / tile.excess_pi
                if n.denominator == 1 and 2 <= n <= SCAN_MAX_TILES and y + z < 1 + x:
                    out.append((x, y, z))
    return out


@pytest.fixture(scope="module")
def tilings():
    """(kind, name, tile point lists) of every tiling the test reads."""
    out = []
    for key, entries in EXP["found_tilings"].items():
        for entry in entries:
            target = tuple(F(s) for s in entry["target"])
            out.append(("fixture", f"{key}:{target}", search_tiling(target, TILES[key]).tiling))
    out += [("lune", f"lune:{a}", lune_two_tile_tiling(a)[0]) for a in LUNES]
    for key, tile in TILES.items():
        for target in scan_targets(tile):
            res = search_tiling(target, tile)
            if res.status == "found":
                out.append(("scan", f"{key}:{target}", res.tiling))
    for group, chamber in sorted(MIRROR_CHAMBERS.items()):
        tile = TileSpec.from_pi_fractions(*chamber)
        for target in mirror_triangles(group):
            out.append(("mirror", f"{group}:{target}", search_tiling(target, tile).tiling))
    return [(kind, name, [t.points for t in tiling.tiles]) for kind, name, tiling in out]


def compare(pairs) -> tuple:
    """(overlapping, disjoint, skipped) counts over (name, pts1, pts2); a
    disagreement fails."""
    counts = [0, 0, 0]
    for name, p1, p2 in pairs:
        depth = tiles_overlap_reference(p1, p2)
        if VERIFY_EPS / 10 < depth < 10 * VERIFY_EPS:
            counts[2] += 1
            continue
        got = kernel_overlap(p1, p2)
        assert got == (depth > VERIFY_EPS) == kernel_overlap(p2, p1), (name, depth)
        counts[0 if got else 1] += 1
    return tuple(counts)


def test_found_tilings_agree(tilings):
    kinds = [kind for kind, _, _ in tilings]
    assert [kinds.count(k) for k in ("fixture", "lune", "scan", "mirror")] == [19, 5, 57, 53]
    pairs = [(name, tiles[i], tiles[j]) for _, name, tiles in tilings
             for i in range(len(tiles)) for j in range(i + 1, len(tiles))]
    assert compare(pairs) == (0, 8890, 0)


def test_rotated_tiles_agree(tilings):
    """Each tile of each tiling turned by its own seeded angle, against
    every other tile of its tiling."""
    rng = random.Random(1)
    pairs = []
    for _, name, tiles in tilings:
        for i, pts in enumerate(tiles):
            angle = rng.choice((1, -1)) * 10 ** rng.uniform(-9, math.log10(0.2))
            moved = rotated(pts, angle)
            pairs += [(f"{name} tile {i} by {angle}", moved, other)
                      for j, other in enumerate(tiles) if j != i]
    overlapping, disjoint, skipped = compare(pairs)
    print(f"{overlapping} overlapping and {disjoint} disjoint pairs agree, {skipped} skipped")
    assert overlapping > 1000 and disjoint > 10000 and skipped < len(pairs) / 10


def test_angle_side_pairs_agree(tilings):
    """Every tile of every tiling, and each tile turned about its centroid
    by its own seeded angle: the sorted (angle, opposite side) pairs that
    `verify_tiling` reads from the side planes match the tangent form,
    angles within 1e-12 and sides within 1e-15."""
    rng = random.Random(2)
    worst = [0.0, 0.0]
    for _, name, tiles in tilings:
        for i, pts in enumerate(tiles):
            angle = rng.choice((1, -1)) * 10 ** rng.uniform(-9, math.log10(0.2))
            for points in (pts, rotated(pts, angle)):
                got = realize._tile_sides(points)[1]
                for (a1, e1), (a2, e2) in zip(got, angle_side_pairs_reference(points)):
                    worst = [max(worst[0], abs(a1 - a2)), max(worst[1], abs(e1 - e2))]
                    assert abs(a1 - a2) <= 1e-12 and abs(e1 - e2) <= 1e-15, (name, i, angle)
    print(f"largest differences: angle {worst[0]:.2e}, side {worst[1]:.2e}")
