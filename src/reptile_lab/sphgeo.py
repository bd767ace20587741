"""Unit-sphere geometry kernel: points as float 3-tuples, geodesic arcs by
their endpoints (minor-arc convention, all lengths < pi).

Stdlib only.  The tiling search calls `arcs_conflict` on every pair of
boundary arcs of each new region, tens of calls per region, where numpy's
per-call overhead on 3-element arrays would cost about a hundred times the
arithmetic.  Most of them end at one of its early exits: arcs on either
side of a plane, or neighbouring arcs of the boundary that leave their
shared endpoint in distinct directions.  `arcs_conflict` takes each arc
with its great-circle plane, the normal n = a x b and |n| that `plane`
builds, so a caller that meets one arc in many pairs computes its plane
once.  Every caller holds its points as float 3-tuples already, so the
kernel takes them as they are.
"""

from __future__ import annotations

import math


def dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a, b) -> tuple:
    ax, ay, az = a
    bx, by, bz = b
    return (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)


def norm(v) -> float:
    return math.sqrt(dot(v, v))


def unit(v) -> tuple:
    n = norm(v)
    if n == 0:
        raise ValueError("zero vector")
    return (v[0] / n, v[1] / n, v[2] / n)


def arc_length(a, b) -> float:
    return math.atan2(norm(cross(a, b)), dot(a, b))


def plane(a, b) -> tuple:
    """The great-circle plane of arc a-b as (n, |n|), n = a x b.  The arc's
    length is atan2(|n|, a . b), the floats of `arc_length`."""
    n = cross(a, b)
    return n, norm(n)


def tangent_toward(a, b) -> tuple:
    """Unit tangent at a pointing along the geodesic toward b."""
    d = dot(a, b)
    t = (b[0] - d * a[0], b[1] - d * a[1], b[2] - d * a[2])
    n = norm(t)
    if n < 1e-13:
        raise ValueError("tangent undefined for coincident/antipodal points")
    return (t[0] / n, t[1] / n, t[2] / n)


def point_at(a, tangent, dist: float) -> tuple:
    c, s = math.cos(dist), math.sin(dist)
    return unit((a[0] * c + tangent[0] * s, a[1] * c + tangent[1] * s,
                 a[2] * c + tangent[2] * s))


def rotate_tangent(axis, tangent, angle: float) -> tuple:
    """Rotate a tangent vector at `axis` by `angle` (counterclockwise seen
    from outside the sphere)."""
    c, s = math.cos(angle), math.sin(angle)
    w = cross(axis, tangent)
    return (tangent[0] * c + w[0] * s, tangent[1] * c + w[1] * s,
            tangent[2] * c + w[2] * s)


def triangle_vertices(angles, edges) -> list:
    """Place a spherical triangle with given angles/opposite edges on the sphere.

    Vertex 0 sits at the north pole, vertex 1 on the x-z meridian; the walk
    0 -> 1 -> 2 is counterclockwise (interior on the left).
    """
    a0, _, _ = angles
    e0, e1, e2 = edges  # edge i opposite vertex i
    v0 = (0.0, 0.0, 1.0)
    # |v0 v1| is the edge opposite vertex 2
    v1 = (math.sin(e2), 0.0, math.cos(e2))
    # rotate the tangent toward v1 by the interior angle at v0 to aim at v2
    t01 = tangent_toward(v0, v1)
    t02 = rotate_tangent(v0, t01, a0)
    v2 = point_at(v0, t02, e1)
    return [v0, v1, v2]


def on_arc(p, a, b, snap: float) -> bool:
    """Is p on the (closed) minor arc a-b, within snap distances."""
    n = cross(a, b)
    nn = norm(n)
    if nn < 1e-13:
        return False
    n = (n[0] / nn, n[1] / nn, n[2] / nn)
    if abs(dot(p, n)) > snap:
        return False
    return dot(cross(a, p), n) > -snap and dot(cross(p, b), n) > -snap


def arcs_conflict(a1, b1, plane1, a2, b2, plane2, snap: float) -> bool:
    """True if arcs a1-b1 and a2-b2 intersect other than at shared endpoints.

    Transversal interior crossings, endpoint-in-interior touches, and
    collinear overlaps of positive length all count as conflicts.  Each arc
    comes with its plane, `plane(a, b)`, which a caller that tests one arc
    against many builds once.

    Early exit: the arcs are apart when both endpoints of one arc lie
    strictly on the same side of the other arc's great-circle plane, at
    least 4 * snap from it.  Along a minor arc the signed distance to a
    plane is A * sin(theta - theta0) over an interval shorter than pi; if it
    is positive at both ends it is positive throughout, with its minimum at
    an end.  `on_arc` accepts points at most about snap off the arc and
    snap past its ends, which moves that distance by about 2 * snap at
    most, so no point `on_arc` accepts on one arc lies within snap of the
    other circle, and neither the crossing nor the shared-circle test below
    can find a conflict.  The margin also covers rounding: the computed
    normal n = a x b is off by about 6e-16 in each coordinate, so an arc's
    own endpoints may sit up to about 1e-15 / |n| off its computed circle
    (much more than snap for arcs shorter than about 1e-7).  Zero-length
    arcs take no early exit.

    Neighbour exit: arcs that share exactly one endpoint tuple p are apart
    when each arc's other endpoint lies off the other arc's plane by more
    than the same margin.  Then the two great circles are distinct, and
    distinct great circles through p meet again only at its antipode -p.
    No minor arc from p reaches -p: an arc whose far end is more than
    4 * snap off a plane through p is shorter than pi - 4 * snap, so -p
    lies more than 4 * snap past its far end, where `on_arc` accepts about
    snap.  The crossing test below finds the intersection at p, within
    snap of an endpoint of each arc: a shared endpoint, no conflict.  The
    rounding of the normals moves that computed intersection by about
    1e-16 over the far ends' distances from the other planes, at most
    about snap / 4 at the search's snap of 1e-8.  Both far ends must clear
    the margin: where one lies within snap of the other arc, the arcs
    nearly overlap, rounding can move the intersection by more than snap,
    and the test below can then find a conflict.
    """
    n1, l1 = plane1
    n2, l2 = plane2
    if l1 and l2:
        tol = 4 * snap + 1e-15 / l1 + 1e-15 / l2
        m1, m2 = tol * l1, tol * l2
        x, y, z = n1
        s = a2[0] * x + a2[1] * y + a2[2] * z
        t = b2[0] * x + b2[1] * y + b2[2] * z
        if (s > m1 and t > m1) or (s < -m1 and t < -m1):
            return False
        x, y, z = n2
        u = a1[0] * x + a1[1] * y + a1[2] * z
        v = b1[0] * x + b1[1] * y + b1[2] * z
        if (u > m2 and v > m2) or (u < -m2 and v < -m2):
            return False
        if (a1 == a2) + (a1 == b2) + (b1 == a2) + (b1 == b2) == 1:
            # neighbours: each far end off the other arc's plane
            far1 = v if a1 == a2 or a1 == b2 else u
            far2 = t if a2 == a1 or a2 == b1 else s
            if abs(far1) > m2 and abs(far2) > m1:
                return False
    d = cross(n1, n2)
    nd = norm(d)
    ends1 = (a1, b1)
    ends2 = (a2, b2)

    def near(p, q):
        return arc_length(p, q) <= snap

    if nd < 1e-12 * max(l1 * l2, 1e-30):
        # same great circle: conflict iff an endpoint of one arc lies strictly
        # inside the other, or the arcs coincide
        for p in ends1:
            if on_arc(p, a2, b2, snap) and not (near(p, a2) or near(p, b2)):
                return True
        for p in ends2:
            if on_arc(p, a1, b1, snap) and not (near(p, a1) or near(p, b1)):
                return True
        if (near(a1, a2) and near(b1, b2)) or (near(a1, b2) and near(b1, a2)):
            return True
        return False
    d = (d[0] / nd, d[1] / nd, d[2] / nd)
    for p in (d, (-d[0], -d[1], -d[2])):
        if on_arc(p, a1, b1, snap) and on_arc(p, a2, b2, snap):
            shared = any(near(p, e1) and any(near(p, e2) for e2 in ends2)
                         for e1 in ends1)
            if not shared:
                return True
    return False
