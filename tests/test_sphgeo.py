"""Differential oracle for the `sphgeo` kernel on float 3-tuples.

Each helper is compared with the numpy formulas it replaced, kept below as
the reference, on seeded random unit vectors and on degenerate inputs:
coincident points, near-antipodal points, arcs on one great circle and arcs
sharing an endpoint.  Vectors and lengths agree within 1e-12.  The
predicates give the reference's answer wherever that answer does not change
when the snap threshold moves by 1e-8 either way, i.e. wherever the input is
farther than 1e-8 from the threshold; so they are compared at snap values
above 1e-8.

`arcs_conflict`'s early exits are held to exact agreement instead: the
tuple kernel as it was before them is kept below as the oracle, and every
case must get its answer, at the search's snap 1e-8 and at 1e-7 and 1e-6,
including cases at the exits' margin down to the last bits: arcs on either
side of a plane, and neighbouring arcs that share an endpoint.
"""

import math
import random

import numpy as np
import pytest

from reptile_lab import sphgeo

TOL = 1e-12
MARGIN = 1e-8


# ---------------------------------------------------------------------------
# numpy reference formulas
# ---------------------------------------------------------------------------


def ref_unit(v):
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("zero vector")
    return v / n


def ref_arc_length(a, b):
    return math.atan2(np.linalg.norm(np.cross(a, b)), float(np.dot(a, b)))


def ref_tangent_toward(a, b):
    t = b - float(np.dot(a, b)) * a
    n = np.linalg.norm(t)
    if n < 1e-13:
        raise ValueError("tangent undefined for coincident/antipodal points")
    return t / n


def ref_point_at(a, tangent, dist):
    return ref_unit(a * math.cos(dist) + tangent * math.sin(dist))


def ref_rotate_tangent(axis, tangent, angle):
    return tangent * math.cos(angle) + np.cross(axis, tangent) * math.sin(angle)


def ref_triangle_vertices(angles, edges):
    a0, _, _ = angles
    e0, e1, e2 = edges
    v0 = np.array([0.0, 0.0, 1.0])
    v1 = np.array([math.sin(e2), 0.0, math.cos(e2)])
    t01 = ref_tangent_toward(v0, v1)
    t02 = ref_rotate_tangent(v0, t01, a0)
    v2 = ref_point_at(v0, t02, e1)
    return [v0, v1, v2]


def ref_on_arc(p, a, b, snap):
    n = np.cross(a, b)
    nn = np.linalg.norm(n)
    if nn < 1e-13:
        return False
    n = n / nn
    if abs(float(np.dot(p, n))) > snap:
        return False
    return (float(np.dot(np.cross(a, p), n)) > -snap
            and float(np.dot(np.cross(p, b), n)) > -snap)


def ref_arcs_conflict(a1, b1, a2, b2, snap):
    n1 = np.cross(a1, b1)
    n2 = np.cross(a2, b2)
    d = np.cross(n1, n2)
    nd = np.linalg.norm(d)
    ends1 = (a1, b1)
    ends2 = (a2, b2)

    def near(p, q):
        return ref_arc_length(p, q) <= snap

    if nd < 1e-12 * max(np.linalg.norm(n1) * np.linalg.norm(n2), 1e-30):
        for p in ends1:
            if ref_on_arc(p, a2, b2, snap) and not (near(p, a2) or near(p, b2)):
                return True
        for p in ends2:
            if ref_on_arc(p, a1, b1, snap) and not (near(p, a1) or near(p, b1)):
                return True
        if (near(a1, a2) and near(b1, b2)) or (near(a1, b2) and near(b1, a2)):
            return True
        return False
    d = d / nd
    for p in (d, -d):
        if ref_on_arc(p, a1, b1, snap) and ref_on_arc(p, a2, b2, snap):
            shared = any(near(p, e1) and any(near(p, e2) for e2 in ends2)
                         for e1 in ends1)
            if not shared:
                return True
    return False


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def rand_unit(rng):
    return ref_unit(np.array([rng.gauss(0, 1) for _ in range(3)]))


def rand_tangent(rng, p):
    return ref_tangent_toward(p, rand_unit(rng))


def toward(rng, p, dist):
    """A point at arc distance dist from p, in a random direction."""
    return ref_point_at(p, rand_tangent(rng, p), dist)


def slerp(a, b, t):
    ang = ref_arc_length(a, b)
    return ref_unit(a * math.sin((1 - t) * ang) + b * math.sin(t * ang))


def off_arc(a, b, t, h):
    """The point of arc a-b at fraction t, moved by h off its great circle
    (to the left of a -> b for h > 0)."""
    n = ref_unit(np.cross(a, b))
    return ref_unit(slerp(a, b, t) + h * n)


def great_circle(rng):
    u = rand_unit(rng)
    w = rand_tangent(rng, u)
    return lambda s: u * math.cos(s) + w * math.sin(s)


def point_pairs(rng, count):
    """(a, b) pairs: random, coincident, almost coincident, near-antipodal,
    antipodal."""
    out = []
    for _ in range(count):
        a = rand_unit(rng)
        out += [(a, rand_unit(rng)), (a, a.copy()), (a, toward(rng, a, 1e-9)),
                (a, toward(rng, -a, 1e-4)), (a, toward(rng, -a, 1e-6)), (a, -a)]
    return out


def arc_pairs(rng, count):
    """(a1, b1, a2, b2): random arcs, crossing arcs, arcs sharing an
    endpoint, an endpoint in the other's interior or just beside it, arcs on
    one great circle (overlapping, touching, disjoint, coincident, reversed),
    zero-length and near-antipodal arcs."""
    out = []
    for _ in range(count):
        a1, b1 = rand_unit(rng), rand_unit(rng)
        out.append((a1, b1, rand_unit(rng), rand_unit(rng)))
        x = rand_unit(rng)
        t1, t2 = rand_tangent(rng, x), rand_tangent(rng, x)
        s = [rng.uniform(0.05, 1.2) for _ in range(4)]
        out.append((ref_point_at(x, t1, s[0]), ref_point_at(x, -t1, s[1]),
                    ref_point_at(x, t2, s[2]), ref_point_at(x, -t2, s[3])))
        out.append((a1, b1, b1.copy(), rand_unit(rng)))
        out.append((a1, b1, a1.copy(), rand_unit(rng)))
        out.append((a1, b1, rand_unit(rng), b1.copy()))
        mid = slerp(a1, b1, rng.uniform(0.1, 0.9))
        out.append((a1, b1, mid, rand_unit(rng)))
        for h in (-3e-7, 3e-8, 5e-9):
            out.append((a1, b1, off_arc(a1, b1, rng.uniform(0.1, 0.9), h),
                        rand_unit(rng)))
        circ = great_circle(rng)
        u = sorted(rng.uniform(0, 2.5) for _ in range(4))
        p = [circ(v) for v in u]
        out += [(p[0], p[2], p[1], p[3]), (p[0], p[1], p[1].copy(), p[3]),
                (p[0], p[1], p[2], p[3]), (p[0], p[2], p[0].copy(), p[2].copy()),
                (p[0], p[2], p[2].copy(), p[0].copy()), (p[0], p[3], p[1], p[2])]
        out.append((a1, a1.copy(), rand_unit(rng), rand_unit(rng)))
        out.append((a1, toward(rng, -a1, 1e-6), rand_unit(rng), rand_unit(rng)))
    return out


def vec(v) -> tuple:
    """Any 3-sequence (tuple, list, numpy array) as a float 3-tuple, the
    kernel's point format."""
    x, y, z = v
    return (float(x), float(y), float(z))


def radian_law_of_cosines(va, vb, vc) -> tuple:
    """Edges (a, b, c) of the triangle with these angles in radians, edge x
    opposite angle x: the formula of `spherical.law_of_cosines`, which
    takes Fractions of pi, for random real angles."""

    def edge(opp, l, r):
        num = math.cos(opp) + math.cos(l) * math.cos(r)
        den = math.sin(l) * math.sin(r)
        return math.acos(max(-1.0, min(1.0, num / den)))

    return (edge(va, vb, vc), edge(vb, vc, va), edge(vc, va, vb))


def tup(*vs):
    return [vec(v) for v in vs]


def with_planes(a1, b1, a2, b2):
    """`sphgeo.arcs_conflict`'s arguments for arcs a1-b1 and a2-b2 (snap
    aside): each arc followed by its plane from `sphgeo.plane`."""
    return a1, b1, sphgeo.plane(a1, b1), a2, b2, sphgeo.plane(a2, b2)


def assert_vec_close(got, want, tol=TOL):
    assert isinstance(got, tuple) and len(got) == 3
    assert all(type(c) is float for c in got)
    assert max(abs(g - w) for g, w in zip(got, want)) <= tol


def same_answer(fn, ref, args, ref_args, snap):
    """Compare a predicate with its reference unless the reference's answer
    moves with the snap threshold within MARGIN.  Returns the answer, or None
    for an input too close to the threshold to compare."""
    want = ref(*ref_args, snap)
    if (ref(*ref_args, snap - MARGIN) != want
            or ref(*ref_args, snap + MARGIN) != want):
        return None
    assert fn(*args, snap) == want
    return want


# ---------------------------------------------------------------------------
# vector helpers
# ---------------------------------------------------------------------------


def test_vec_converts_any_sequence():
    for v in ([1, 2, 3], np.array([0.5, -1.0, 2.0]), (np.float64(1.0), 0, 2.5)):
        out = vec(v)
        assert out == tuple(float(c) for c in v)
        assert all(type(c) is float for c in out)
    with pytest.raises(ValueError):
        vec([1.0, 2.0])


def test_cross_dot_norm():
    rng = random.Random(11)
    for _ in range(300):
        a = np.array([rng.uniform(-3, 3) for _ in range(3)])
        b = np.array([rng.uniform(-3, 3) for _ in range(3)])
        ta, tb = tup(a, b)
        assert sphgeo.cross(ta, tb) == tuple(float(c) for c in np.cross(a, b))
        assert abs(sphgeo.dot(ta, tb) - float(np.dot(a, b))) <= TOL
        assert abs(sphgeo.norm(ta) - float(np.linalg.norm(a))) <= TOL


def test_unit():
    rng = random.Random(12)
    for _ in range(300):
        v = np.array([rng.uniform(-5, 5) for _ in range(3)])
        assert_vec_close(sphgeo.unit(vec(v)), ref_unit(v))
    with pytest.raises(ValueError):
        sphgeo.unit((0.0, 0.0, 0.0))


def test_arc_length():
    rng = random.Random(13)
    for a, b in point_pairs(rng, 100):
        ta, tb = tup(a, b)
        assert abs(sphgeo.arc_length(ta, tb) - ref_arc_length(a, b)) <= TOL


def test_plane_holds_the_arc_floats():
    """The plane is (a x b, |a x b|) to the last bit; the arc length read
    from it is `arc_length`'s, either way round."""
    rng = random.Random(18)
    for a, b in point_pairs(rng, 100):
        a, b = tup(a, b)
        n, length = sphgeo.plane(a, b)
        assert n == sphgeo.cross(a, b) and length == sphgeo.norm(n)
        assert math.atan2(length, sphgeo.dot(a, b)) == sphgeo.arc_length(a, b)
        assert math.atan2(length, sphgeo.dot(b, a)) == sphgeo.arc_length(b, a)


def test_tangent_toward():
    # The tangent is t / |t| with t = b - (a.b) a and |t| = sin(arc a-b).
    # numpy's dot sums in another order than a.b here, and the last-bit
    # difference in a.b is divided by |t|: near-coincident and
    # near-antipodal pairs agree within 1e-12 / |t|.
    rng = random.Random(14)
    raised = 0
    for a, b in point_pairs(rng, 100):
        ta, tb = tup(a, b)
        try:
            want = ref_tangent_toward(a, b)
        except ValueError:
            raised += 1
            with pytest.raises(ValueError):
                sphgeo.tangent_toward(ta, tb)
            continue
        sin_ab = float(np.linalg.norm(np.cross(a, b)))
        assert_vec_close(sphgeo.tangent_toward(ta, tb), want, TOL / min(1.0, sin_ab))
    assert raised >= 200  # the coincident and the antipodal pairs


def test_point_at_and_rotate_tangent():
    rng = random.Random(15)
    for _ in range(300):
        a = rand_unit(rng)
        t = rand_tangent(rng, a)
        dist = rng.choice([0.0, 1e-9, rng.uniform(0, math.pi), math.pi])
        angle = rng.uniform(-2 * math.pi, 2 * math.pi)
        ta, tt = tup(a, t)
        assert_vec_close(sphgeo.point_at(ta, tt, dist), ref_point_at(a, t, dist))
        assert_vec_close(sphgeo.rotate_tangent(ta, tt, angle),
                         ref_rotate_tangent(a, t, angle))


def test_triangle_vertices():
    rng = random.Random(16)
    checked = 0
    while checked < 200:
        angles = sorted(rng.uniform(0.05, math.pi - 0.05) for _ in range(3))
        if not (sum(angles) > math.pi and angles[1] + angles[2] < math.pi + angles[0]):
            continue
        edges = radian_law_of_cosines(*angles)
        got = sphgeo.triangle_vertices(angles, edges)
        assert isinstance(got, list) and len(got) == 3
        for g, w in zip(got, ref_triangle_vertices(angles, edges)):
            assert_vec_close(g, w)
        checked += 1


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("snap", [1e-7, 1e-6])
def test_on_arc(snap):
    rng = random.Random(f"on_arc:{snap}")
    answers = []
    for a, b in point_pairs(rng, 40):
        points = [rand_unit(rng), a.copy(), b.copy(), -a]
        if ref_arc_length(a, b) > 1e-6 and ref_arc_length(a, -b) > 1e-4:
            points += [slerp(a, b, 0.5), slerp(a, b, rng.uniform(-0.3, 1.3))]
            points += [off_arc(a, b, rng.uniform(0, 1), h * snap)
                       for h in (-3.0, -0.5, 0.0, 0.5, 3.0)]
        for p in points:
            answers.append(same_answer(sphgeo.on_arc, ref_on_arc, tup(p, a, b),
                                       (p, a, b), snap))
    compared = [x for x in answers if x is not None]
    assert len(compared) >= 0.95 * len(answers)
    assert compared.count(True) >= 100 and compared.count(False) >= 100


@pytest.mark.parametrize("snap", [1e-7, 1e-6])
def test_arcs_conflict(snap):
    rng = random.Random(f"arcs_conflict:{snap}")
    answers = []
    for arcs in arc_pairs(rng, 15):
        for a1, b1, a2, b2 in (arcs, arcs[2:] + arcs[:2]):
            answers.append(same_answer(sphgeo.arcs_conflict, ref_arcs_conflict,
                                       with_planes(*tup(a1, b1, a2, b2)),
                                       (a1, b1, a2, b2), snap))
    compared = [x for x in answers if x is not None]
    assert len(compared) >= 0.95 * len(answers)
    assert compared.count(True) >= 100 and compared.count(False) >= 100


# ---------------------------------------------------------------------------
# arcs_conflict against the tuple kernel before its early exits
# ---------------------------------------------------------------------------


def tuple_arcs_conflict(a1, b1, a2, b2, snap):
    """`sphgeo.arcs_conflict` as it was before the early exits, on tuples."""
    cross, dot, norm = sphgeo.cross, sphgeo.dot, sphgeo.norm
    n1 = cross(a1, b1)
    n2 = cross(a2, b2)
    d = cross(n1, n2)
    nd = norm(d)
    ends1 = (a1, b1)
    ends2 = (a2, b2)

    def near(p, q):
        return sphgeo.arc_length(p, q) <= snap

    if nd < 1e-12 * max(norm(n1) * norm(n2), 1e-30):
        for p in ends1:
            if sphgeo.on_arc(p, a2, b2, snap) and not (near(p, a2) or near(p, b2)):
                return True
        for p in ends2:
            if sphgeo.on_arc(p, a1, b1, snap) and not (near(p, a1) or near(p, b1)):
                return True
        return (near(a1, a2) and near(b1, b2)) or (near(a1, b2) and near(b1, a2))
    d = (d[0] / nd, d[1] / nd, d[2] / nd)
    for p in (d, (-d[0], -d[1], -d[2])):
        if sphgeo.on_arc(p, a1, b1, snap) and sphgeo.on_arc(p, a2, b2, snap):
            shared = any(near(p, e1) and any(near(p, e2) for e2 in ends2)
                         for e1 in ends1)
            if not shared:
                return True
    return False


def lift(a, b, t, h):
    """The point at signed distance h from the great-circle plane of arc
    a-b (left of a -> b for h > 0), over its point at fraction t."""
    n = ref_unit(np.cross(a, b))
    return slerp(a, b, t) * math.sqrt(1 - h * h) + h * n


def margin_arcs(rng, snap, count):
    """Arcs placed around the early exit's margin of 4 * snap: endpoints at
    +-(margin +- 1e-12) from the other arc's plane, on one side or on both;
    a far endpoint with a near one just outside or inside the margin, over
    the other arc's interior or beyond its ends; and steep crossings ending
    at k * snap * (1 + j * 2**-44) from the other circle, i.e. at the snap
    threshold of `on_arc` (k = 1) and at the margin (k = 4), down to the
    last bits."""
    out = []
    margin = 4 * snap
    for _ in range(count):
        a1, b1 = rand_unit(rng), rand_unit(rng)
        for e1, e2 in ((1e-12, 1e-12), (1e-12, -1e-12), (-1e-12, -1e-12)):
            for side in (1, -1):
                ha, hb = side * (margin + e1), side * (margin + e2)
                t = [rng.uniform(-0.3, 1.3) for _ in range(2)]
                out.append((a1, b1, lift(a1, b1, t[0], ha), lift(a1, b1, t[1], hb)))
                out.append((a1, b1, lift(a1, b1, t[0], ha), lift(a1, b1, t[1], -hb)))
                far = lift(a1, b1, rng.uniform(-0.3, 1.3), side * rng.uniform(0.05, 0.9))
                out.append((a1, b1, far, lift(a1, b1, t[1], hb)))
                out.append((a1, b1, far, lift(a1, b1, rng.choice((0.0, 1.0)), hb)))
        x = rand_unit(rng)
        t1 = rand_tangent(rng, x)
        phi = rng.choice([math.pi / 2, rng.uniform(0.2, math.pi - 0.2)])
        t2 = ref_rotate_tangent(x, t1, phi)
        c1 = (ref_point_at(x, -t1, rng.uniform(0.1, 1.0)),
              ref_point_at(x, t1, rng.uniform(0.1, 1.0)))
        for k in (1, 4):
            for j in range(-4, 5):
                h = k * snap * (1 + j * 2.0 ** -44)
                gap = math.asin(h / math.sin(phi))
                c2 = (ref_point_at(x, -t2, rng.uniform(0.1, 1.0)),
                      ref_point_at(x, -t2, gap))
                out += [c1 + c2, c2 + c1]
    return out


def edge_arcs(rng, snap, count):
    """Arcs close to pi long and arcs sharing endpoints, against random,
    crossing and touching arcs; and arcs from 1e-9 down to 1e-15 long, whose
    computed normals are off by far more than snap, just outside the margin
    (4 to 5 snap) from the interior of another arc."""
    out = []
    for _ in range(count):
        a1, b1 = rand_unit(rng), rand_unit(rng)
        for gap in (1e-3, 1e-5, 2e-6, 1e-6):
            a = rand_unit(rng)
            long_arc = (a, toward(rng, -a, gap))
            mid = slerp(*long_arc, rng.uniform(0.1, 0.9))
            out += [long_arc + (a1, b1), long_arc + (mid, toward(rng, mid, 0.3)),
                    long_arc + (long_arc[1].copy(), a1),
                    long_arc + (a.copy(), toward(rng, -a, gap * 2))]
        c = rand_unit(rng)
        out += [(a1, b1, b1.copy(), c), (a1, b1, c, a1.copy()),
                (a1, b1, b1.copy(), a1.copy()), (a1, b1, b1.copy(), slerp(a1, b1, 0.5))]
        for length in (1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-15):
            for _ in range(8):
                h = rng.choice((1, -1)) * rng.uniform(4, 5) * snap
                x = off_arc(a1, b1, rng.uniform(0.05, 0.95), h)
                out.append((a1, b1, x, toward(rng, x, length)))
            y = toward(rng, x, length)
            out += [(x, y, y.copy(), toward(rng, y, length)),
                    (x, y, toward(rng, x, length), toward(rng, y, length))]
    return out


@pytest.mark.parametrize("snap", [1e-8, 1e-7, 1e-6])
def test_arcs_conflict_early_exit_keeps_every_answer(snap):
    """The early exit changes no answer, on every case: no robust-cases
    filter.  1e-8 is the snap of the tiling search."""
    rng = random.Random(f"early-exit:{snap}")
    cases = arc_pairs(rng, 20) + margin_arcs(rng, snap, 20) + edge_arcs(rng, snap, 20)
    answers = []
    for a1, b1, a2, b2 in cases:
        for args in (tup(a1, b1, a2, b2), tup(a2, b2, a1, b1)):
            want = tuple_arcs_conflict(*args, snap)
            assert sphgeo.arcs_conflict(*with_planes(*args), snap) == want, (args, want)
            answers.append(want)
    assert answers.count(True) >= 300 and answers.count(False) >= 300


def neighbour_arcs(rng, snap, count):
    """Triples (p, q, r) for arcs p-q and q-r that share the endpoint q.
    Each arc is 1e-14 to 1 long, or 0.05 to 3, or pi - 1e-2 to pi - 1e-6;
    arc q-r leaves q at 1e-16 to 1e-1 from arc q-p's direction, from its
    opposite direction, or at any angle between, to either side; or it
    leaves at the angle that puts r at 4 * snap, or at the exit's full
    margin 4 * snap + 1e-15 / sin|pq| + 1e-15 / sin|qr|, from the plane of
    p-q, times 1 + j * 2**-44 for j = -4..4."""
    out = []

    def length():
        return rng.choice((10 ** rng.uniform(-14, 0), rng.uniform(0.05, 3.0),
                           math.pi - 10 ** rng.uniform(-6, -2)))

    for _ in range(count):
        q = rand_unit(rng)
        t1 = rand_tangent(rng, q)
        l1, l2 = length(), length()
        p = ref_point_at(q, t1, l1)
        s1, s2 = math.sin(l1), math.sin(l2)
        angles = [10 ** rng.uniform(-16, -1), math.pi - 10 ** rng.uniform(-16, -1),
                  rng.uniform(0.1, math.pi - 0.1)]
        for k in (4 * snap, 4 * snap + 1e-15 / s1 + 1e-15 / s2):
            for j in range(-4, 5):
                h = k * (1 + j * 2.0 ** -44)
                if h < s2:
                    phi = math.asin(h / s2)
                    angles.append(rng.choice((phi, math.pi - phi)))
        for phi in angles:
            t2 = ref_rotate_tangent(q, t1, rng.choice((phi, -phi)))
            out.append((p, q, ref_point_at(q, t2, l2)))
    return out


@pytest.mark.parametrize("snap", [1e-8, 1e-7, 1e-6])
def test_arcs_conflict_neighbour_exit_keeps_every_answer(snap):
    """Arcs sharing one endpoint get the answer of the kernel before the
    early exits, in every argument order: either arc first, each arc
    either way round."""
    rng = random.Random(f"neighbour-exit:{snap}")
    answers = []
    for p, q, r in neighbour_arcs(rng, snap, 60):
        p, q, r = tup(p, q, r)
        for first, second in (((p, q), (q, r)), ((q, r), (p, q))):
            for a1, b1 in (first, first[::-1]):
                for a2, b2 in (second, second[::-1]):
                    want = tuple_arcs_conflict(a1, b1, a2, b2, snap)
                    assert sphgeo.arcs_conflict(*with_planes(a1, b1, a2, b2),
                                                snap) == want, ((a1, b1, a2, b2), want)
                    answers.append(want)
    assert answers.count(True) >= 100 and answers.count(False) >= 1000
