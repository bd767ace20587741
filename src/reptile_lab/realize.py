"""Tiling spherical triangles with congruent copies of a base tile.

Three pieces:

* candidate enumeration -- all angle triples (tau, phi, psi) that could be
  tiled by n copies of the base tile, from the exact area bookkeeping
  n * excess(T0) + pi - tau = phi + psi with phi, psi nonnegative integer
  combinations of the tile angles (one `spherical.angle_sums` table per
  call),
  filtered by the spherical triangle inequality and annotated with an
  edge-combination status;
* edge combinations -- can a length be written as a nonnegative integer
  combination of the tile's edges, within the one tolerance EDGE_TOL; each
  verdict also reports its gap, the distance to the nearest combination;
* an exhaustive corner-filling backtracking search for actual tilings by
  congruent copies (mirror images allowed), with verification and SVG/JSON
  export.

Tiles and targets enter by their angles as Fractions of pi, so tile counts,
the congruence of a one-tile target and the distinct orientations of a
tile are exact.  The search reads the target once as integers over the
lcm of its denominators and holds every corner angle as an integer
multiple of pi/D, D the lcm of the tile's angle denominators, so its area
and angle tests are integer arithmetic; radians exist only where a point
is placed and in the tilings it returns.  Every edge length comes from
`spherical.law_of_cosines` or, for a candidate's one walked edge,
`spherical.opposite_edge`, which take the exact angles.  A float angle
raises TypeError.  Points are float 3-tuples throughout, as the `sphgeo`
kernel takes them.

The search fills the open corner with the smallest interior angle first and
places tiles flush against the boundary.  It keeps no memo of the regions
that failed, so a region reached twice is searched twice and no verdict
rests on a cache key.  It drops every region with a corner that no sum of
tile angles can fill (`_corner_table`, from the same kernel), and every
region with a side between two convex corners that no sum of tile edges
fills within EDGE_TOL (`_sides_fillable`, on one `spherical.edge_sums`
table), the target included.  Both tables and the tile's orientations
are built once per tile, on its first search, and shared by every later
search on it.  A corner that a tile fills exactly, while the tile's
next side runs part way along the corner's other arm, is left at angle 0
with both arms along one geodesic: a zero-width spike, which
`_cleanup_cycle` trims.  A slit (a zero angle whose arms part) and a true
pinch (a region touching itself at a point) are rejected rather than split,
which is sound for `found` answers (independently verified) and
conservative for `exhausted` ones.
"""

from __future__ import annotations

import colorsys
import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import count, permutations
from typing import NamedTuple, Optional, Sequence, Union

from . import sphgeo
from .spherical import (CORNER_TABLE_MAX_DEN, InvalidTriangleError, angle_sums,
                        edge_lengths, edge_sums, is_valid, law_of_cosines,
                        opposite_edge, pi_numerators)


# ---------------------------------------------------------------------------
# Tile specification
# ---------------------------------------------------------------------------


class TileSpec:
    """Base tile T0 by its angles, Fractions of pi in ascending order.

    The radian angles, the edges and the search's tables (`corner_table`,
    `side_sums`, `orientations`) are computed once per tile, on first use,
    and are immutable, so every search on the tile shares them.
    `from_pi_fractions` returns one shared tile per angle triple.
    Edge-combination tests against the tile's edges use the one module
    tolerance EDGE_TOL; see `edge_combination`.
    """

    def __init__(self, angles_pi: tuple):  # 3 Fractions of pi, ascending
        object.__setattr__(self, "angles_pi", angles_pi)

    def __setattr__(self, *a):  # immutable; cached_property writes __dict__
        raise AttributeError("TileSpec is immutable")

    __delattr__ = __setattr__

    @staticmethod
    def from_pi_fractions(*qs) -> "TileSpec":
        """The tile with these angles, Fractions of pi in any order: one
        instance per angle triple among the TILE_CACHE_SIZE last asked for.
        An invalid triangle raises InvalidTriangleError."""
        rep = is_valid(qs)
        if not rep:
            raise InvalidTriangleError(rep.reason)
        return _shared_tile(tuple(sorted(Fraction(q) for q in qs)))

    @cached_property
    def angles(self) -> tuple:
        """The angles in radians, ascending."""
        return tuple(float(q) * math.pi for q in self.angles_pi)

    @cached_property
    def den(self) -> int:
        """D, the lcm of the angles' denominators: each angle is an integer
        multiple of pi/D."""
        return math.lcm(*(q.denominator for q in self.angles_pi))

    @cached_property
    def edges(self) -> tuple:
        """Edges in radians, each opposite the angle at the same index."""
        return law_of_cosines(*self.angles_pi)

    @cached_property
    def corner_table(self) -> Optional[bytes]:
        """The search's corner table, `_corner_table`."""
        return _corner_table(self)

    @cached_property
    def side_sums(self) -> Optional[tuple]:
        """The search's side table: the sorted sums of the edges up to
        pi + EDGE_TOL (`spherical.edge_sums`), None past its bound."""
        sums = edge_sums(self.edges, math.pi + EDGE_TOL)
        return None if sums is None else tuple(sums)

    @cached_property
    def orientations(self) -> tuple:
        """The distinct placements at a corner, `_orientations`."""
        return tuple(_orientations(self))

    @cached_property
    def excess_pi(self) -> Fraction:
        """The angle excess, the tile's area, as a Fraction of pi."""
        return sum(self.angles_pi) - 1

    @cached_property
    def excess_units(self) -> int:
        """The angle excess in units of pi/D (`den`)."""
        t, den = pi_numerators(self.angles_pi)
        return sum(t) - den


# Shared tiles `TileSpec.from_pi_fractions` keeps, the last used first; a
# scan over many distinct tiles holds at most this many with their tables.
TILE_CACHE_SIZE = 64


@lru_cache(maxsize=TILE_CACHE_SIZE)
def _shared_tile(angles_pi: tuple) -> TileSpec:
    return TileSpec(angles_pi)


# ---------------------------------------------------------------------------
# Edge combinations
# ---------------------------------------------------------------------------


# A length within EDGE_TOL of a combination counts as that combination.
EDGE_TOL = 1e-5


class EdgeMatch(NamedTuple):
    coeffs: tuple
    value: float
    gap: float  # distance from x to the nearer kept combination, at most EDGE_TOL


class EdgeNearest(NamedTuple):
    gap: float  # distance from x to the nearer kept combination, above EDGE_TOL


EdgeStatus = Union[EdgeMatch, EdgeNearest]


def edge_combination(x: float, edges: Sequence[float]) -> EdgeStatus:
    """Match x against nonnegative integer combinations of the edges.

    Every combination up to the first one past x is visited, so no
    coefficient bound can hide a match.  Each side of x keeps the first
    combination i*a + j*b + k*c the walk visits, in lexicographic (i, j, k)
    order, unless a later one is closer by more than 1e-15, so the kept one
    need not be the nearest.  Returns an EdgeMatch with the kept one from
    below when it lies within EDGE_TOL of x, else with the one from above
    when that does, otherwise an EdgeNearest; `gap` is the smaller of the
    two kept distances.
    """
    if not 0 < x < math.inf:
        raise ValueError("length must be positive and finite")
    if not all(e > 0 for e in edges):
        raise ValueError("edges must be positive")
    a, b, c = edges
    best_below = None  # (gap, coeffs, value)
    best_above = None
    for i in count():
        va = i * a
        for j in count():
            vb = va + j * b
            for k in count():
                v = vb + k * c
                gap = x - v
                if gap >= 0:
                    if best_below is None or gap < best_below[0] - 1e-15:
                        best_below = (gap, (i, j, k), v)
                else:
                    if best_above is None or -gap < best_above[0] - 1e-15:
                        best_above = (-gap, (i, j, k), v)
                if v > x:
                    break  # larger k only moves further above
            if vb > x:
                break
        if va > x:
            break
    gap = min(best_below[0], best_above[0])
    for cand in (best_below, best_above):
        if cand[0] <= EDGE_TOL:
            return EdgeMatch(cand[1], cand[2], gap)
    return EdgeNearest(gap)


# ---------------------------------------------------------------------------
# Candidate enumeration
# ---------------------------------------------------------------------------


class Candidate(NamedTuple):
    """A (tau, phi, psi) triple passing the exact area and validity filters."""

    tau: Fraction  # fractions of pi
    phi: Fraction
    psi: Fraction
    n: int
    edge_status: EdgeStatus

    @property
    def expressible(self) -> bool:
        return isinstance(self.edge_status, EdgeMatch)

    def angles_pi(self) -> tuple:
        return tuple(sorted((self.tau, self.phi, self.psi)))


def enumerate_candidates(tile: TileSpec, tau: Fraction,
                         phi_min: Fraction = Fraction(0)) -> list:
    """All candidate (tau, phi, psi) with phi_min < phi <= psi, by (n, phi, psi).

    Works in exact integer arithmetic over den, the lcm of the denominators
    of the tile angles, tau and phi_min (an angle q is the integer q*den),
    with one `angle_sums` table of the sums of tile angles below pi: for
    each tile count n in [2, 2*tau/excess), scan phi and take
    psi = n*excess + pi - tau - phi, keep each pair whose two angles the
    table marks and that satisfies the spherical triangle inequality, and
    annotate it with the edge-combination status of the edge opposite tau.
    tau and phi_min are Fractions of pi (ints allowed); a float raises
    TypeError.
    """
    if not all(isinstance(q, (int, Fraction)) for q in (tau, phi_min)):
        raise TypeError("tau and phi_min are Fractions of pi")
    den = math.lcm(*(q.denominator for q in (*tile.angles_pi, tau, phi_min)))
    sums = angle_sums(tile.angles_pi, den, den - 1)
    excess = tile.excess_units * (den // tile.den)
    t, lo = int(tau * den), int(phi_min * den)
    out = []
    for n in range(2, -(-2 * t // excess)):
        target = n * excess + den - t
        # with phi <= psi the triangle inequality is n*excess < 2*t (the
        # range of n) and phi > n*excess/2, which also keeps psi below pi
        for phi in range(max(lo, n * excess // 2) + 1, target // 2 + 1):
            psi = target - phi
            if sums[phi] and sums[psi]:
                fphi, fpsi = Fraction(phi, den), Fraction(psi, den)
                x = opposite_edge(tau, fphi, fpsi)
                out.append(Candidate(tau, fphi, fpsi, n, edge_combination(x, tile.edges)))
    return out


# ---------------------------------------------------------------------------
# Tiling search
# ---------------------------------------------------------------------------

# Lengths of the search within SEARCH_EPS (radians) are equal; two boundary
# points within SNAP of each other are one point.  Angles are exact.
SEARCH_EPS = 1e-9
SNAP = SEARCH_EPS * 10


class TilePlacement:
    __slots__ = ("points", "corners")

    def __init__(self, points: list, corners: tuple):
        self.points = points  # [V, P, Q] unit vectors, float 3-tuples
        self.corners = corners  # tile corner indices at (V, P, Q)


# Width and height in pixels of the SVG `SphTiling.render_svg` writes.
SVG_SIZE = 480


class SphTiling:
    """A placed tiling.  The target is a convex CCW boundary polygon; a
    triangle in the usual case, or a lune encoded with its two edge
    midpoints as straight vertices (angles alpha, pi, alpha, pi)."""

    __slots__ = ("target_points", "target_angles", "tiles")

    def __init__(self, target_points: list, target_angles: tuple, tiles: list):
        self.target_points = target_points  # boundary unit vectors (float 3-tuples), CCW
        self.target_angles = target_angles  # interior angles at those points, radians
        self.tiles = tiles  # of TilePlacement

    def to_json(self) -> dict:
        verts = []
        index = {}

        def vid(p):
            key = tuple(round(c, 9) for c in p)
            if key not in index:
                index[key] = len(verts)
                verts.append(list(p))
            return index[key]

        target = [vid(p) for p in self.target_points]
        tiles = [{"vertices": [vid(p) for p in t.points],
                  "corners": list(t.corners)} for t in self.tiles]
        return {"format": "sph-tiling/1", "vertices": verts,
                "target": target, "target_angles": list(self.target_angles),
                "tiles": tiles}

    def render_svg(self, path: str) -> None:
        """Write the tiling as an SVG_SIZE-square SVG, in stereographic
        projection from the point opposite the target's centre."""
        center = sphgeo.unit([sum(c) for c in zip(*self.target_points)])
        ref = (1.0, 0.0, 0.0)
        if abs(sphgeo.dot(ref, center)) > 0.9:
            ref = (0.0, 1.0, 0.0)
        e1 = sphgeo.unit(sphgeo.cross(center, ref))
        e2 = sphgeo.cross(center, e1)

        def outline(corners, segments=64):
            """The closed projected polyline along the arcs from each corner
            to the next, `segments` points per arc; an arc shorter than 1e-12
            adds none."""
            points = []
            for a, b in zip(corners, corners[1:] + corners[:1]):
                ang = sphgeo.arc_length(a, b)
                if ang < 1e-12:
                    continue
                for s in range(segments):
                    t = s / segments
                    sa, sb = math.sin((1 - t) * ang), math.sin(t * ang)
                    p = sphgeo.unit([x * sa + y * sb for x, y in zip(a, b)])
                    w = 1 + sphgeo.dot(p, center)
                    points.append((sphgeo.dot(p, e1) / w, sphgeo.dot(p, e2) / w))
            points.append(points[0])
            return points

        polylines = []
        for idx, t in enumerate(self.tiles):
            hue = (idx * 0.618034) % 1.0
            r, g, b = colorsys.hls_to_rgb(hue, 0.72, 0.65)
            fill = f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"
            polylines.append((outline(t.points), fill, "#444444"))
        polylines.append((outline(self.target_points), "none", "#000000"))

        xs = [x for points, _, _ in polylines for x, _ in points]
        ys = [y for points, _, _ in polylines for _, y in points]
        x0, y0, x1, y1 = min(xs), min(ys), max(xs), max(ys)
        span = max(x1 - x0, y1 - y0, 1e-9)
        pad = 0.05 * span

        def svg_xy(p):
            x = (p[0] - x0 + pad) / (span + 2 * pad) * SVG_SIZE
            y = SVG_SIZE - (p[1] - y0 + pad) / (span + 2 * pad) * SVG_SIZE
            return f"{x:.2f},{y:.2f}"

        parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
                 f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">']
        for points, fill, stroke in polylines:
            pstr = " ".join(svg_xy(p) for p in points)
            parts.append(f'<polygon points="{pstr}" fill="{fill}" stroke="{stroke}" '
                         f'stroke-width="1.2" fill-opacity="0.85"/>')
        parts.append("</svg>")
        with open(path, "w") as f:
            f.write("\n".join(parts))


class SearchResult:
    __slots__ = ("status", "tiling", "nodes", "reason")

    def __init__(self, status: str, tiling: Optional[SphTiling], nodes: int,
                 reason: str = ""):
        self.status = status  # "found" | "exhausted" | "aborted"
        self.tiling = tiling
        self.nodes = nodes
        self.reason = reason


class _Region:
    """A boundary cycle: points (float 3-tuples, CCW), interior angles (ints,
    multiples of pi/D), and arcs (start, end) from each point to the next."""

    __slots__ = ("points", "angles", "arcs")

    def __init__(self, points, angles):
        self.points = points
        self.angles = angles
        k = len(points)
        self.arcs = [(points[i], points[(i + 1) % k]) for i in range(k)]


def _corner_table(tile: TileSpec) -> Optional[bytes]:
    """Which corner angles j*pi/D, 0 <= j <= 2D, copies of the tile can fill:
    entry j is 1 iff j*pi/D is fillable.

    Near a corner V of the part of the target still to tile, each tile
    touching V fills a wedge at V: its angle there when V is one of its
    vertices, pi when V lies inside one of its edges.  The wedges fill the
    corner's angle.  Every tile touching a convex corner (angle below pi)
    has a vertex there, so the angle is a sum of tile angles.  A reflex
    corner (angle below 2*pi) lies inside the edge of at most one tile, so
    its angle is a sum of tile angles or pi plus one.  So a region with a
    corner the table marks 0 holds no tiling.  Dropping it leaves the order
    in which the search visits every other region as it was, so statuses
    and the first tiling found stay the same; only node counts fall.

    Built in integers from the `angle_sums` table of the sums up to 2D;
    pi plus a sum is D plus one, so entry j is also 1 when sums[j - D] is.
    The entries are the bytes 0 and 1, so all those ors are one: of the
    sums read as a little-endian integer and of their first D + 1 bytes
    moved up by D bytes.  None when D exceeds CORNER_TABLE_MAX_DEN.
    """
    den = tile.den
    if den > CORNER_TABLE_MAX_DEN:
        return None
    sums = angle_sums(tile.angles_pi, den, 2 * den)
    fill = (int.from_bytes(sums, "little")
            | int.from_bytes(sums[:den + 1], "little") << 8 * den)
    return fill.to_bytes(2 * den + 1, "little")


def _corners_fillable(angles: list, table: Optional[bytes]) -> bool:
    """Does `table` mark every corner angle (multiples of pi/D) fillable?
    True for every angle without a table."""
    return table is None or all(table[a] for a in angles)


def _sides_fillable(region: _Region, den: int, sums: Optional[tuple]) -> bool:
    """Is every side of `region` whose two end corners are convex (angles
    below `den`, i.e. pi) within EDGE_TOL of a value of `sums`, the sorted
    sums of tile edges (`spherical.edge_sums`)?  True for every region
    without a table.

    Take such a side.  Near each inner point of it the tiles fill a
    half-disc, and the first and the last tile there, in the turn around
    the point, have a side along it; so tile sides cover the side with
    disjoint interiors.  Past a convex end the side's great circle leaves
    the region, so no tile side runs on beyond either end.  The tile sides
    along it therefore partition it, and its length is a nonnegative
    integer combination of the tile's edges.  So a region with a side that
    no sum fills holds no tiling.  Dropping it leaves the order in which
    the search visits every other region as it was, so statuses and the
    first tiling found stay the same; only node counts fall.  The lengths
    are floats, so "no sum" means none within EDGE_TOL, the window of
    `edge_combination`, far wider than the search's own SEARCH_EPS.
    """
    if sums is None:
        return True
    angles = region.angles
    k = len(angles)
    for i, (a, b) in enumerate(region.arcs):
        if angles[i] < den and angles[(i + 1) % k] < den:
            if not _length_fillable(sphgeo.arc_length(a, b), sums):
                return False
    return True


def _length_fillable(x: float, sums: tuple) -> bool:
    """Is x within EDGE_TOL of a value of the sorted `sums`?"""
    j = bisect_left(sums, x - EDGE_TOL)
    return j < len(sums) and sums[j] <= x + EDGE_TOL


def _orientations(tile: TileSpec) -> list:
    """Distinct placements of the tile at a corner: tuples (theta, L, thetaP,
    M, thetaQ, corners, turn).  The tile angle theta fills the corner; the
    side L runs along the outgoing arc to a tile angle thetaP, the side M
    along the incoming arc to thetaQ; corners are the tile's corner indices
    at the region corner, at the end of L and at the end of M.  The angles
    are ints, multiples of pi/D; turn is theta in radians, the tile's own
    float.  Two placements are the same when their angles at the three
    corners are: in a spherical triangle equal angles face equal sides, so
    the angles fix L and M too."""
    ang, side = tile.angles, tile.edges
    q, _ = pi_numerators(tile.angles_pi)
    out = {}
    for c, f, e in permutations(range(3)):
        out.setdefault((q[c], q[e], q[f]),
                       (q[c], side[f], q[e], side[e], q[f], (c, e, f), ang[c]))
    return list(out.values())


def _flush_side(V, W, way, aW, length, theta, den):
    """Lay a tile side of `length` from V along the boundary arc to W, with
    tile angle `theta` at its far end; `way` is (unit tangent at V toward
    W, arc length V-W).  Angles are ints, multiples of pi/`den`.

    The side ends inside the arc, exactly at W (rejected if theta exceeds
    W's angle aW), or past W (allowed only where W is reflex).  Returns
    (far end, boundary nodes from the far end to W), or None if the side
    does not fit.
    """
    t, E = way
    if length <= E - SEARCH_EPS:
        P = sphgeo.point_at(V, t, length)
        return P, [(P, den - theta), (W, aW)]
    if abs(length - E) <= SEARCH_EPS:
        if aW < theta:
            return None
        return W, [(W, aW - theta)]
    if aW <= den:
        return None  # a flush side may pass a vertex only where it is reflex
    P = sphgeo.point_at(V, t, length)
    return P, [(P, 2 * den - theta), (W, aW - den)]


def _way(ways, i, V, W):
    """`ways[i]`, or else (unit tangent at V toward W, arc length V-W),
    stored there."""
    way = ways[i]
    if way is None:
        way = ways[i] = (sphgeo.tangent_toward(V, W), sphgeo.arc_length(V, W))
    return way


def _place(region: _Region, vi: int, orient: tuple, ways: list, den: int,
           table: Optional[bytes], sums: Optional[tuple]):
    """Try one tile placement at region vertex vi, flush along the outgoing arc.
    Angles are ints, multiples of pi/`den`.

    `ways` is [None, None] at a node's first placement; the placements at
    that node share it, so the ways from V along its outgoing and incoming
    arcs (`_way`) are computed at most once per node.  A new region with a
    corner the search's corner table cannot fill (`_corners_fillable`), or
    a side its edge sums cannot fill (`_sides_fillable`), is dropped before
    its boundary check.  Returns
    (new_region_or_None_if_closed, tile_points) or None if the placement
    does not fit.
    """
    pts, angs = region.points, region.angles
    k = len(pts)
    V, aV = pts[vi], angs[vi]
    ip, iN = (vi - 1) % k, (vi + 1) % k
    th, L, thP, M, thQ, _, turn = orient
    if th > aV:
        return None
    way_out = _way(ways, 0, V, pts[iN])
    out = _flush_side(V, pts[iN], way_out, angs[iN], L, thP, den)
    if out is None:
        return None
    P, n_seg = out
    if th == aV:
        # the tile fills the corner: its other side lies flush on the incoming arc
        inc = _flush_side(V, pts[ip], _way(ways, 1, V, pts[ip]), angs[ip], M, thQ, den)
        if inc is None:
            return None
        Q, q_seg = inc
        q_seg.reverse()
    else:
        t2 = sphgeo.rotate_tangent(V, way_out[0], turn)
        Q = sphgeo.point_at(V, t2, M)
        q_seg = [(pts[ip], angs[ip]), (V, aV - th), (Q, 2 * den - thQ)]

    tile_points = [V, P, Q]
    new_nodes = q_seg + n_seg
    cycle = []
    i = iN
    while True:
        i = (i + 1) % k
        if i == ip:
            break
        cycle.append((pts[i], angs[i]))
    cycle = new_nodes + cycle

    state = _cleanup_cycle(cycle, den)
    if state is None:
        return None
    if state == "closed":
        return ("closed", tile_points)
    if not _corners_fillable(state.angles, table):
        return None
    if not _sides_fillable(state, den, sums):
        return None
    if not _placement_geometry_ok(state):
        return None
    return (state, tile_points)


def _cleanup_cycle(cycle, den):
    """Normalize a provisional boundary cycle of (point, angle) nodes, the
    angles ints, multiples of pi/`den`.

    Removes straight vertices (their arcs merge) and zero-width spikes, a
    consumed vertex V (angle 0) whose two arms run along one geodesic.
    When V's neighbours coincide, their entries fuse with angle sum minus
    2*pi.  Otherwise the nearer neighbour must lie on the farther arm
    (`sphgeo.on_arc`): V is dropped and pi is taken from the nearer
    neighbour's angle.  Detects closure by vanishing area, and rejects
    slits (a zero angle with no such neighbour) and overlaps (a negative
    angle).  Returns "closed", a _Region, or None.
    """
    nodes = list(cycle)
    while True:
        k = len(nodes)
        if any(a < 0 for _, a in nodes):
            return None
        if all(a == 0 for _, a in nodes):
            return "closed"
        if k < 3:
            return None
        for i in range(k):
            _, a = nodes[i]
            if a == den:
                del nodes[i]
                break
            if a == 0:
                jp, jn = (i - 1) % k, (i + 1) % k
                pp, ap = nodes[jp]
                pn, an = nodes[jn]
                if sphgeo.arc_length(pp, pn) > SNAP:
                    V = nodes[i][0]
                    if sphgeo.arc_length(V, pp) < sphgeo.arc_length(V, pn):
                        near, far = jp, pn
                    else:
                        near, far = jn, pp
                    q, aq = nodes[near]
                    if not sphgeo.on_arc(q, V, far, SNAP):
                        return None  # real slit: not representable here
                    nodes[near] = (q, aq - den)
                    del nodes[i]
                    break
                merged = ap + an - 2 * den
                if merged < 0:
                    return None
                rest = [nodes[(jn + t) % k] for t in range(1, k - 2)]
                nodes = [(pp, merged)] + rest
                break
        else:
            break
    out_pts = [p for p, _ in nodes]
    out_angs = [a for _, a in nodes]
    return _Region(out_pts, out_angs)


def _placement_geometry_ok(new: _Region) -> bool:
    """Reject placements whose new boundary self-intersects or has an arc
    too long for the minor-arc convention.

    The tile sides start inside the corner wedge; if no arc of the new
    boundary crosses another (beyond shared endpoints), the tile stayed
    inside the region.  An arc's length, atan2(|n|, a . b) from its plane
    (`sphgeo.plane`), is the floats of `sphgeo.arc_length`.
    """
    arcs = new.arcs
    planes = []
    for a, b in arcs:
        plane = sphgeo.plane(a, b)
        if math.atan2(plane[1], sphgeo.dot(a, b)) >= math.pi - 1e-6:
            return False  # minor-arc convention breaks past pi
        planes.append(plane)
    k = len(arcs)
    for i in range(k):
        a1, b1 = arcs[i]
        p1 = planes[i]
        for j in range(i + 1, k):
            a2, b2 = arcs[j]
            if sphgeo.arcs_conflict(a1, b1, p1, a2, b2, planes[j], SNAP):
                return False
    return True


def _pick_vertex(region: _Region) -> int:
    """Index of the open corner to fill: the first one by the key (angle,
    point rounded to 7 decimals).  Only the corners with the smallest angle
    can win, so only theirs are rounded."""
    angles = region.angles
    low = min(angles)
    ties = [i for i, a in enumerate(angles) if a == low]
    if len(ties) == 1:
        return ties[0]
    return min(ties, key=lambda i: tuple(round(c, 7) for c in region.points[i]))


# Default search-node budget: the largest catalog search stays far below it,
# and it keeps a search on an arbitrary user target finite.
NODE_BUDGET = 10 ** 6


def search_tiling(target, tile: TileSpec, n_max: Optional[int] = None,
                  node_budget: int = NODE_BUDGET) -> SearchResult:
    """Exhaustive backtracking search for a tiling of the target triangle.

    target: three angles, Fractions of pi (a float raises TypeError), read
    once, after `edge_lengths` has checked them, as integers t_i over L,
    the lcm of their denominators (`spherical.pi_numerators`).  The tile
    count is the exact area ratio (sum(t) - L) * D / (L * excess), D =
    `TileSpec.den` and excess = `TileSpec.excess_units`; if it is not an
    integer, or exceeds n_max, no tiling exists with the allowed count and
    the search reports `exhausted` immediately.  One tile tiles the target
    iff their angles agree exactly.  Otherwise corners are filled smallest
    angle first and every tile orientation (rotations and mirror images) is
    tried flush against the boundary.  Corner angles are integer multiples
    of pi/D, the target's t_i * D / L; a target corner off that grid, or no
    sum of tile angles, is `exhausted` at once,
    and the search drops every region with a corner no sum of tile angles
    can fill, from the tile's corner table (`TileSpec.corner_table`), and
    every region with a side between two convex corners that no sum of
    tile edges fills within EDGE_TOL, from the tile's table of the edge
    sums up to pi + EDGE_TOL (`TileSpec.side_sums`, up to
    2 * CORNER_TABLE_MAX_DEN + 1 of them; past that, without the test).
    A target side no sum fills is `exhausted` at once.  The tables are
    built once per tile, on its first search.
    Deterministic; `aborted` when the node budget runs out.  A negative
    node budget or an n_max below 1 raises ValueError.
    """
    if node_budget < 0:
        raise ValueError(f"node budget must be at least 0, got {node_budget}")
    if n_max is not None and n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    t_edges = edge_lengths(target)
    t, t_den = pi_numerators(target)
    den = tile.den
    # the area ratio ((sum t - L) / L) / (excess / D), L = t_den
    n, rest = divmod((sum(t) - t_den) * den, t_den * tile.excess_units)
    if rest:
        return SearchResult("exhausted", None, 0,
                            "target area is not a positive multiple of the tile area")
    if n_max is not None and n > n_max:
        return SearchResult("exhausted", None, 0,
                            f"needs exactly {n} tiles, above the bound {n_max}")
    # int true division rounds t_i/L once, as float(Fraction) does
    target_angles = tuple(x / t_den * math.pi for x in t)
    t_points = sphgeo.triangle_vertices(target_angles, t_edges)

    def tiling(placements):
        return SphTiling(list(t_points), target_angles,
                         [TilePlacement(list(pts), corners)
                          for pts, corners in placements])

    if n == 1:
        # trivial: the target must be congruent to the tile itself
        if tuple(sorted(target)) == tile.angles_pi:
            return SearchResult("found", tiling([(t_points, (0, 1, 2))]), 0)
        return SearchResult("exhausted", None, 0, "single tile is not congruent")

    table = tile.corner_table
    corners = []
    for q, x in zip(target, t):
        j, off = divmod(x * den, t_den)
        if off or not _corners_fillable([j], table):
            return SearchResult("exhausted", None, 0,
                                f"target corner {q} pi is no sum of tile angles")
        corners.append(j)
    sums = tile.side_sums
    region0 = _Region(list(t_points), corners)
    if not _sides_fillable(region0, den, sums):
        # side i runs from corner i to corner i + 1, opposite corner i - 1
        q = next(target[i - 1] for i, (a, b) in enumerate(region0.arcs)
                 if not _length_fillable(sphgeo.arc_length(a, b), sums))
        return SearchResult("exhausted", None, 0,
                            f"target side opposite {q} pi is no sum of tile edges")
    orients = tile.orientations
    nodes = 0
    solution = []

    def dfs(region, placed):
        nonlocal nodes
        vi = _pick_vertex(region)
        ways = [None, None]
        for orient in orients:
            nodes += 1
            if nodes > node_budget:
                return "aborted"
            res = _place(region, vi, orient, ways, den, table, sums)
            if res is None:
                continue
            state, tile_points = res
            placement = (tile_points, orient[5])
            if state == "closed":
                if len(placed) + 1 == n:
                    solution.extend(placed + [placement])
                    return "found"
                continue
            if len(placed) + 1 >= n:
                continue  # area left but no tiles left to place
            sub = dfs(state, placed + [placement])
            if sub in ("found", "aborted"):
                return sub
        return None

    out = dfs(region0, [])
    if out == "found":
        return SearchResult("found", tiling(solution), nodes)
    if out == "aborted":
        return SearchResult("aborted", None, nodes,
                            f"node budget {node_budget} exceeded")
    return SearchResult("exhausted", None, nodes)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

# The float tolerance of `verify_tiling`: radians in its congruence test, the
# sine of a distance from a side plane in its containment and overlap tests.
VERIFY_EPS = 1e-7


class VerifyReport(NamedTuple):
    ok: bool
    violation: str = ""

    def __bool__(self):
        return self.ok


def verify_tiling(tiling: SphTiling, tile: TileSpec) -> VerifyReport:
    """Independent re-check in binary64: each tile is a proper triangle
    congruent to the base tile (sorted angle, opposite-side pairs within
    VERIFY_EPS) with its vertices in the target (at most VERIFY_EPS
    outside), no two tiles overlap, and the tiles' angle excesses sum to
    the target's within n * 1e-9 for n tiles.  Each tile is read once, from
    its side planes (`_tile_sides`), and so is the target's boundary, whose
    sides with coincident ends constrain nothing.

    Two tiles are disjoint when a side plane of one leaves the other's
    three vertices at most VERIFY_EPS inside it (the sine of the distance);
    any overlap then lies within VERIFY_EPS / cos r of that side, r the
    other tile's circumradius.  Tiles with disjoint interiors in one open
    hemisphere, as a triangular target's are, always pass: in its gnomonic
    chart they are straight triangles, and by the separating-axis theorem
    the line of an edge of one of them separates them."""
    tiles = [t.points for t in tiling.tiles]
    boundary = tiling.target_points
    walls = [(n[0] / l, n[1] / l, n[2] / l) for n, l in
             (sphgeo.plane(boundary[i - 1], boundary[i]) for i in range(len(boundary))) if l]
    ref = sorted(zip(tile.angles, tile.edges))
    normals = []
    tiles_area = 0.0
    for idx, pts in enumerate(tiles):
        sides = _tile_sides(pts)
        if sides is None:
            return VerifyReport(False, f"tile {idx} is degenerate")
        for (a1, e1), (a2, e2) in zip(sides[1], ref):
            if abs(a1 - a2) > VERIFY_EPS or abs(e1 - e2) > VERIFY_EPS:
                return VerifyReport(False, f"tile {idx} is not congruent to the base tile")
        normals.append(sides[0])
        tiles_area += math.fsum(a for a, _ in sides[1]) - math.pi
    for idx, pts in enumerate(tiles):
        for x, y, z in walls:
            if any(a * x + b * y + c * z < -VERIFY_EPS for a, b, c in pts):
                return VerifyReport(False, f"tile {idx} leaves the target")
    for i in range(len(tiles)):
        for j in range(i + 1, len(tiles)):
            if not (_separated(normals[i], tiles[j]) or _separated(normals[j], tiles[i])):
                return VerifyReport(False, f"tiles {i} and {j} overlap")
    target_area = math.fsum(tiling.target_angles) - (len(boundary) - 2) * math.pi
    if abs(tiles_area - target_area) > max(1, len(tiles)) * 1e-9:
        return VerifyReport(False, "tile areas do not sum to the target area")
    return VerifyReport(True)


def _tile_sides(pts) -> Optional[tuple]:
    """A triangle read from its side planes, side i = `sphgeo.plane(pts[i],
    pts[i - 1])` = (n, |n|): the sides' unit normals toward the opposite
    vertex (so the vertex order does not matter), and the sorted (corner
    angle, opposite side) pairs.  A side is atan2(|n|, a . b) long, as in
    `sphgeo.arc_length`, and a corner is pi minus the angle between the
    normals of its two sides.  None when some |n| is below 1e-13."""
    normals, lengths = [], []
    for i in range(3):
        a, b = pts[i], pts[i - 1]
        n, l = sphgeo.plane(a, b)
        if l < 1e-13:  # coincident or antipodal ends
            return None
        lengths.append(math.atan2(l, sphgeo.dot(a, b)))
        l = math.copysign(l, sphgeo.dot(n, pts[i - 2]))
        normals.append((n[0] / l, n[1] / l, n[2] / l))
    # normals i and i - 1 meet at pts[i - 1], opposite side i - 2
    pairs = sorted((math.acos(max(-1.0, min(1.0, -sphgeo.dot(normals[i], normals[i - 1])))),
                    lengths[i - 2]) for i in range(3))
    return normals, pairs


def _separated(normals, pts) -> bool:
    """Does a side plane leave all three points at most VERIFY_EPS inside."""
    (a, b, c), (d, e, f), (g, h, k) = pts
    for x, y, z in normals:
        if (a * x + b * y + c * z <= VERIFY_EPS and d * x + e * y + f * z <= VERIFY_EPS
                and g * x + h * y + k * z <= VERIFY_EPS):
            return True
    return False
