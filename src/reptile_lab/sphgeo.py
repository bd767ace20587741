"""Unit-sphere geometry helpers: points as numpy unit 3-vectors, geodesic
arcs by their endpoints (minor-arc convention, all lengths < pi)."""

from __future__ import annotations

import math

import numpy as np


def unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("zero vector")
    return v / n


def arc_length(a: np.ndarray, b: np.ndarray) -> float:
    return math.atan2(np.linalg.norm(np.cross(a, b)), float(np.dot(a, b)))


def tangent_toward(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unit tangent at a pointing along the geodesic toward b."""
    t = b - float(np.dot(a, b)) * a
    n = np.linalg.norm(t)
    if n < 1e-13:
        raise ValueError("tangent undefined for coincident/antipodal points")
    return t / n


def point_at(a: np.ndarray, tangent: np.ndarray, dist: float) -> np.ndarray:
    return unit(a * math.cos(dist) + tangent * math.sin(dist))


def rotate_tangent(axis: np.ndarray, tangent: np.ndarray, angle: float) -> np.ndarray:
    """Rotate a tangent vector at `axis` by `angle` (counterclockwise seen
    from outside the sphere)."""
    return tangent * math.cos(angle) + np.cross(axis, tangent) * math.sin(angle)


def triangle_vertices(angles, edges) -> list:
    """Place a spherical triangle with given angles/opposite edges on the sphere.

    Vertex 0 sits at the north pole, vertex 1 on the x-z meridian; the walk
    0 -> 1 -> 2 is counterclockwise (interior on the left).
    """
    a0, _, _ = angles
    e0, e1, e2 = edges  # edge i opposite vertex i
    v0 = np.array([0.0, 0.0, 1.0])
    # |v0 v1| is the edge opposite vertex 2
    v1 = np.array([math.sin(e2), 0.0, math.cos(e2)])
    # rotate the tangent toward v1 by the interior angle at v0 to aim at v2
    t01 = tangent_toward(v0, v1)
    t02 = rotate_tangent(v0, t01, a0)
    v2 = point_at(v0, t02, e1)
    return [v0, v1, v2]


def on_arc(p: np.ndarray, a: np.ndarray, b: np.ndarray, snap: float) -> bool:
    """Is p on the (closed) minor arc a-b, within snap distances."""
    n = np.cross(a, b)
    nn = np.linalg.norm(n)
    if nn < 1e-13:
        return False
    n = n / nn
    if abs(float(np.dot(p, n))) > snap:
        return False
    return (float(np.dot(np.cross(a, p), n)) > -snap
            and float(np.dot(np.cross(p, b), n)) > -snap)


def arcs_conflict(a1, b1, a2, b2, snap: float) -> bool:
    """True if arcs a1-b1 and a2-b2 intersect other than at shared endpoints.

    Transversal interior crossings, endpoint-in-interior touches, and
    collinear overlaps of positive length all count as conflicts.
    """
    n1 = np.cross(a1, b1)
    n2 = np.cross(a2, b2)
    d = np.cross(n1, n2)
    nd = np.linalg.norm(d)
    ends1 = (a1, b1)
    ends2 = (a2, b2)

    def near(p, q):
        return arc_length(p, q) <= snap

    if nd < 1e-12 * max(np.linalg.norm(n1) * np.linalg.norm(n2), 1e-30):
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
    d = d / nd
    for p in (d, -d):
        if on_arc(p, a1, b1, snap) and on_arc(p, a2, b2, snap):
            shared = any(near(p, e1) and any(near(p, e2) for e2 in ends2)
                         for e1 in ends1)
            if not shared:
                return True
    return False


def point_in_convex_polygon(p: np.ndarray, pts, snap: float = 1e-9) -> bool:
    """Is p inside or on the convex CCW spherical polygon (interior left)."""
    k = len(pts)
    for i in range(k):
        a, b = pts[i], pts[(i + 1) % k]
        n = np.cross(a, b)
        if float(np.dot(p, n)) < -snap * np.linalg.norm(n):
            return False
    return True


def point_in_triangle(p: np.ndarray, tri, snap: float = 1e-9) -> bool:
    """Is p inside or on the (CCW) spherical triangle."""
    return point_in_convex_polygon(p, tri, snap)
