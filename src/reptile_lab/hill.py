"""Right-angled Hill-type simplices and their lattice rep-tilings.

The three base simplices (vertex displays, exact rationals):

* H0_d: 0, (1/2,0,...), (1/2,1/2,0,...), ..., (1/2,...,1/2)
* H1_d: 0, e1, (1/2,1/2,0,...), ..., (1/2,...,1/2)
* H2_d: 0, e1, e1+e2, (1/2,1/2,1/2,0,...), ..., (1/2,...,1/2)

The cube lattice cut by the hyperplanes x_i = n, x_i + x_j = n, x_i - x_j = n
tiles space with copies of H1_d; each tile is encoded by the center of its
unit cube plus a signed permutation prefix, with vertices at half-integer
steps from the center.  Restricting to a scaled copy m * H1_d or m * H2_d
by facet inequalities yields the rep-tilings; compatible tile pairs (union
congruent to H2_d) sit in four-cycle components of the compatibility graph
and give the pairing that re-tiles scaled H2 copies.  The facets of
m * H^i_d are those of H^i_d with each right-hand side times m, so they are
computed once per (d, i), and the reach table a tiling scans is built once
per (d, facet normals), whatever m is.

All geometry is exact and runs on integers.  A simplex holds its vertices
as integer rows over one positive denominator; rational input is brought
to that form once, when the simplex is built, and tiles go straight from
their doubled integer coordinates to rows over 2.  A volume is one integer
determinant of the rows, and congruence compares the integer
squared-distance tables of the rows, each scaled by the other simplex's
squared denominator.  The reference simplex's table is cached, so checking
every tile of a tiling against one base simplex builds the base's table
once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, permutations, product
from operator import le, mul, sub
from typing import Optional, Sequence

from .exactmath import int_det


class EuclideanSimplex:
    """d+1 vertices in R^d, held as integer rows over one positive
    denominator: vertex i is rows[i] / den."""

    __slots__ = ("rows", "den")

    def __init__(self, vertices: tuple):
        """From rational coordinates: ints, Fractions, or floats as the
        binary rationals they hold."""
        ratios = [[c.as_integer_ratio() for c in v] for v in vertices]
        den = math.lcm(*(q for v in ratios for _, q in v))
        self._fill([[p * (den // q) for p, q in v] for v in ratios], den)

    @classmethod
    def from_rows(cls, rows, den: int) -> "EuclideanSimplex":
        """The simplex with vertices rows[i] / den, for integer rows."""
        s = cls.__new__(cls)
        s._fill(rows, den)
        return s

    def _fill(self, rows, den: int):
        rows = tuple(map(tuple, rows))
        if not rows or len(rows) != len(rows[0]) + 1 \
                or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("need d+1 vertices in R^d")
        if den <= 0:
            raise ValueError("need a positive denominator")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("EuclideanSimplex is immutable")

    __delattr__ = __setattr__

    @property
    def dim(self) -> int:
        return len(self.rows) - 1

    @property
    def vertices(self) -> tuple:
        return tuple(tuple(Fraction(c, self.den) for c in r) for r in self.rows)

    def volume(self) -> Fraction:
        """Exact volume |det(v_i - v_0)| / d!: the differences of the
        integer rows scale the determinant by den^d."""
        r0, *rest = self.rows
        det = int_det([[a - b for a, b in zip(r, r0)] for r in rest])
        return Fraction(abs(det), self.den ** self.dim * math.factorial(self.dim))


def hill_simplex(d: int, i: int) -> EuclideanSimplex:
    """The base simplex H^i_d for i in {0, 1, 2}: vertex k has its first k
    coordinates 1 if k <= i, else 1/2, and the rest 0."""
    if d < 2:
        raise ValueError("need d >= 2")
    if i not in (0, 1, 2):
        raise ValueError("i must be 0, 1 or 2")
    return EuclideanSimplex.from_rows(
        [[(2 if k <= i else 1) if t < k else 0 for t in range(d)]
         for k in range(d + 1)], 2)


# ---------------------------------------------------------------------------
# Lattice tiles (doubled integer coordinates internally)
# ---------------------------------------------------------------------------


class LatticeTile:
    """One tile of the H1 lattice tiling: cube center + signed permutation.

    center2: doubled center coordinates (odd integers).
    signed_perm: ((eps_1, i_1), ..., (eps_{d-1}, i_{d-1})), eps in {-1, 1},
    the i_j distinct 0-based axes; the remaining axis i_d is implied.
    """

    __slots__ = ("center2", "signed_perm")

    def __init__(self, center2: tuple, signed_perm: tuple):
        object.__setattr__(self, "center2", center2)
        object.__setattr__(self, "signed_perm", signed_perm)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("LatticeTile is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.center2, self.signed_perm) == (other.center2, other.signed_perm)

    def __hash__(self):
        return hash((self.center2, self.signed_perm))

    @property
    def d(self) -> int:
        return len(self.center2)

    def last_axis(self) -> int:
        used = {i for _, i in self.signed_perm}
        return next(i for i in range(self.d) if i not in used)

    def vertices2(self) -> tuple:
        """Vertices in doubled coordinates (integers)."""
        d = self.d
        out = [tuple(self.center2)]
        acc = list(self.center2)
        for k, (eps, axis) in enumerate(self.signed_perm):
            acc[axis] += eps
            if k < d - 2:
                out.append(tuple(acc))
        last = self.last_axis()
        for eps in (1, -1):
            v = list(acc)
            v[last] += eps
            out.append(tuple(v))
        return tuple(out)

    def simplex(self) -> EuclideanSimplex:
        return EuclideanSimplex.from_rows(self.vertices2(), 2)

    def compatible_with(self, other: "LatticeTile") -> bool:
        """Union congruent to H2: same cube, same prefix, different last index."""
        return (self.center2 == other.center2
                and self.signed_perm[:-1] == other.signed_perm[:-1]
                and self.signed_perm[-1][1] != other.signed_perm[-1][1])


def signed_perms(d: int):
    for axes in permutations(range(d), d - 1):
        for signs in product((1, -1), repeat=d - 1):
            yield tuple(zip(signs, axes))


def facets(rows) -> tuple:
    """Facet inequalities (a, b), a . x <= b, of the simplex with these
    integer vertex rows; facet k is the one opposite vertex k.  a is the
    cofactor vector of the facet's edge differences, so it is normal to
    the facet, signed so that vertex k satisfies the inequality."""
    out = []
    for k, v in enumerate(rows):
        base, *others = [r for j, r in enumerate(rows) if j != k]
        diffs = [[x - y for x, y in zip(r, base)] for r in others]
        a = [(-1) ** j * int_det([r[:j] + r[j + 1:] for r in diffs])
             for j in range(len(base))]
        b = sum(map(mul, a, base))
        if sum(map(mul, a, v)) > b:
            a, b = [-c for c in a], -b
        out.append((tuple(a), b))
    return tuple(out)


def lattice_tiles_in(ineqs: tuple, d: int, m: int) -> list:
    """All H1 lattice tiles with every vertex inside the polytope of these
    inequalities (a, b), a . x <= b in doubled coordinates.

    Cube centers are scanned over the [0, m]^d box; tiles never leave their
    cube, so this covers every scaled Hill target.  A tile's vertices are its
    center plus offsets fixed by its signed permutation, so it lies inside iff
    each inequality's reach (its largest value over the offsets, from a
    table kept per (normals, d)) is at most its slack at the center.  The
    center is a vertex of every tile, so a center outside has no tile.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    reaches = _reaches(tuple(tuple(a) for a, _ in ineqs), d)
    out = []
    for n in product(range(m), repeat=d):
        center2 = tuple(2 * c + 1 for c in n)
        slack = [rhs - sum(map(mul, a, center2)) for a, rhs in ineqs]
        if min(slack) >= 0:
            out.extend(LatticeTile(center2, sp) for sp, reach in reaches
                       if all(map(le, reach, slack)))
    return out


@lru_cache(maxsize=16)
def _reaches(normals: tuple, d: int) -> tuple:
    """Per signed permutation, in `signed_perms` order: each normal's
    largest value over the tile's vertex offsets from its center.

    The offsets (see `LatticeTile.vertices2`) are 0, the sums of the first
    k steps eps * e_axis for 0 < k < d - 1, and the sum of all d - 1 steps
    plus or minus e_last.  So a normal a reaches the largest of 0, the
    prefix sums of eps * a[axis] short of the full sum, and the full sum
    plus |a[last]|.
    """
    out = []
    for sp in signed_perms(d):
        last = (set(range(d)) - {axis for _, axis in sp}).pop()
        reach = []
        for a in normals:
            *prefix, total = accumulate([eps * a[axis] for eps, axis in sp], initial=0)
            reach.append(max([*prefix, total + abs(a[last])]))
        out.append((sp, tuple(reach)))
    return tuple(out)


@lru_cache(maxsize=16)
def _hill_facets(d: int, i: int) -> tuple:
    return facets(hill_simplex(d, i).rows)


def _scaled_hill_tiles(d: int, i: int, m: int) -> list:
    """The lattice tiles of m * H^i_d.  Scaling the rows by m scales each
    cofactor normal by m^(d-1) and each right-hand side by m^d, so the
    facets of H^i_d with right-hand sides times m cut the same polytope."""
    return lattice_tiles_in(tuple((a, m * b) for a, b in _hill_facets(d, i)), d, m)


def generate_h1_tiling(d: int, m: int) -> list:
    """The m^d tiles of the scaled simplex m * H1_d."""
    return _scaled_hill_tiles(d, 1, m)


def generate_h2_h1_tiles(d: int, m: int) -> list:
    """The 2*m^d H1-tiles of the scaled simplex m * H2_d."""
    return _scaled_hill_tiles(d, 2, m)


# ---------------------------------------------------------------------------
# Exact volumes and congruence
# ---------------------------------------------------------------------------


def _squared_distances(rows) -> list:
    """The symmetric table of squared distances between integer rows."""
    n = len(rows)
    table = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        diff = list(map(sub, rows[i], rows[j]))
        table[i][j] = table[j][i] = sum(map(mul, diff, diff))
    return table


@lru_cache(maxsize=16)
def _reference(rows: tuple, scale: int) -> tuple:
    """The squared-distance table of the rows times scale, and a map from
    each sorted row of it to the vertices that have that row."""
    table = tuple(tuple(scale * x for x in r) for r in _squared_distances(rows))
    by_row = {}
    for j, row in enumerate(table):
        by_row.setdefault(tuple(sorted(row)), []).append(j)
    return table, by_row


def congruent(s1: EuclideanSimplex, s2: EuclideanSimplex) -> bool:
    """Exact congruence: a vertex correspondence matching all distances.

    Squared distances a and b of the integer rows, over denominators q1 and
    q2, are the same distance iff a * q2^2 == b * q1^2.  s2 is the
    reference: its table and sorted rows are cached, so checking every tile
    of a tiling against one base simplex builds the base's table once.  A
    vertex of s1 may go only to the vertices of s2 whose sorted row of
    distances equals its own; a backtracking search then extends the
    correspondence one vertex at a time.  Mirror images are congruent:
    distances see no orientation.
    """
    if s1.dim != s2.dim:
        return False
    d1, scale = _squared_distances(s1.rows), 1
    if s1.den != s2.den:
        d1 = [[s2.den ** 2 * x for x in r] for r in d1]
        scale = s1.den ** 2
    d2, rows = _reference(s2.rows, scale)
    targets = [rows.get(tuple(sorted(r)), ()) for r in d1]
    n = len(d1)

    def extend(assign):
        i = len(assign)
        return i == n or any(
            all(d1[i][k] == d2[j][assign[k]] for k in range(i)) and extend(assign + (j,))
            for j in targets[i] if j not in assign)

    return all(targets) and extend(())


# ---------------------------------------------------------------------------
# Compatibility graph and H2 pairing
# ---------------------------------------------------------------------------


class CompatibilityGraph:
    __slots__ = ("tiles", "edges", "components")

    def __init__(self, tiles: list, edges: list, components: list):
        self.tiles = tiles
        self.edges = edges  # index pairs
        self.components = components  # lists of tile indices (grouped by cube + prefix)

    def component_sizes(self) -> list:
        return sorted(len(c) for c in self.components)


def compatibility_graph(tiles: Sequence[LatticeTile]) -> CompatibilityGraph:
    groups = {}
    for idx, t in enumerate(tiles):
        key = (t.center2, t.signed_perm[:-1])
        groups.setdefault(key, []).append(idx)
    edges = []
    comps = []
    for key in sorted(groups):
        comp = groups[key]
        comps.append(comp)
        for a, b in combinations(comp, 2):
            if tiles[a].compatible_with(tiles[b]):
                edges.append((a, b))
    return CompatibilityGraph(list(tiles), edges, comps)


class PairingError(RuntimeError):
    pass


class TilingReport:
    __slots__ = ("tile_count", "total_volume", "all_congruent")

    def __init__(self, tile_count: int, total_volume: Fraction, all_congruent: bool):
        self.tile_count = tile_count
        self.total_volume = total_volume
        self.all_congruent = all_congruent


def pair_h2_tiling(d: int, m: int,
                   graph: Optional[CompatibilityGraph] = None) -> list:
    """Match the 2*m^d H1-tiles of m*H2_d into m^d pairs forming H2 copies.

    Every compatibility component contributes an even number of tiles; pairs
    are taken inside components, and each union is verified congruent to
    H2_d exactly.  A caller that already holds the compatibility graph of
    `generate_h2_h1_tiles(d, m)` passes it as `graph`; otherwise it is built
    here.
    """
    if graph is None:
        graph = compatibility_graph(generate_h2_h1_tiles(d, m))
    tiles = graph.tiles
    h2 = hill_simplex(d, 2)
    pairs = []
    for comp in graph.components:
        if len(comp) % 2 != 0:
            raise PairingError(f"component with odd tile count {len(comp)}")
        remaining = list(comp)
        while remaining:
            a = remaining.pop(0)
            partner = next((b for b in remaining
                            if tiles[a].compatible_with(tiles[b])), None)
            if partner is None:
                raise PairingError("no compatible partner inside a component")
            remaining.remove(partner)
            union = pair_union_simplex(tiles[a], tiles[partner])
            if not congruent(union, h2):
                raise PairingError("pair union is not congruent to the base H2")
            pairs.append((tiles[a], tiles[partner], union))
    return pairs


def pair_union_simplex(t1: LatticeTile, t2: LatticeTile) -> EuclideanSimplex:
    """Union of two compatible tiles as a simplex.

    The tiles share a facet; one shared vertex is the midpoint of the two
    private vertices and gets absorbed into an edge of the union.
    """
    v1, v2 = set(t1.vertices2()), set(t2.vertices2())
    shared = v1 & v2
    extras = sorted((v1 | v2) - shared)
    if len(extras) != 2 or len(shared) != len(v1) - 1:
        raise PairingError("tiles do not share a facet")
    e1, e2 = extras
    mid2 = tuple(a + b for a, b in zip(e1, e2))
    absorbed = next((s for s in shared if tuple(2 * c for c in s) == mid2), None)
    if absorbed is None:
        raise PairingError("no shared vertex lies between the private vertices")
    verts2 = [v for v in sorted(shared) if v != absorbed] + extras
    return EuclideanSimplex.from_rows(verts2, 2)


def tiling_report(tiles: Sequence[LatticeTile], base: EuclideanSimplex) -> TilingReport:
    simplices = [t.simplex() for t in tiles]
    vol = sum((s.volume() for s in simplices), Fraction(0))
    all_cong = all(congruent(s, base) for s in simplices)
    return TilingReport(len(tiles), vol, all_cong)
