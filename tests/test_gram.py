import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from reptile_lab import fixtures
from reptile_lab.angles import parse_angle
from reptile_lab.coxeter import CoxeterDiagram, all_edges
from reptile_lab.exactmath import ExactMatrix
from reptile_lab.gram import fiedler_check, gram_from_diagram, parametric_fiedler
from reptile_lab.hill import EuclideanSimplex

from oracles import (DegenerateSimplexError, QuadExt, dihedral_angle_at_ridge,
                     dihedral_angles, eigh_analysis, gram_from_angles, in_field,
                     normal_gram)


class TestGramConstruction:
    def test_parametric_ring(self):
        d = fixtures.diagram("case-a-1")
        g = gram_from_diagram(d, as_poly_in="beta")
        assert g.ring == "Q[t]"

    def test_quadratic_ring(self):
        g = gram_from_diagram(fixtures.diagram("quarter-1"))
        assert g.ring == "Q(cos(pi/4))"
        g5 = gram_from_diagram(fixtures.diagram("fifth-1"))
        assert g5.ring == "Q(cos(pi/5))"

    def test_all_right_angles(self):
        labels = {e: parse_angle("1/2 pi") for e in all_edges(5)}
        d = CoxeterDiagram(list("uvwxy"), labels)
        g = gram_from_diagram(d)
        assert g.ring == "Q"
        assert g.rows == tuple(tuple(F(-1) if i == j else F(0) for j in range(5))
                                     for i in range(5))

    def test_mixed_fields_rejected(self):
        # cos(pi/4) in Q(sqrt 2) and cos(pi/5) in Q(sqrt 5) meet in
        # Q(cos(pi/20)); only a polynomial in t = cos(beta) beside an
        # irrational cosine has no common ring
        labels = {(0, 1): parse_angle("1/4 pi"), (0, 2): parse_angle("1/5 pi"),
                  (1, 2): parse_angle("1/2 pi")}
        g = gram_from_diagram(CoxeterDiagram(list("uvw"), labels))
        assert g.ring == "Q(cos(pi/20))"
        assert g.det() == in_field(QuadExt(F(-1, 8), F(1, 8), 5))
        labels[(1, 2)] = parse_angle("beta")
        with pytest.raises(ValueError, match="share no ring"):
            gram_from_diagram(CoxeterDiagram(list("uvw"), labels), as_poly_in="beta")


class TestFiedler:
    def test_regular_simplex_gram(self):
        # cosine matrix of the regular 4-simplex: off-diagonal 1/4
        m = ExactMatrix([[F(-1) if i == j else F(1, 4) for j in range(5)]
                         for i in range(5)])
        # eigen-decomposition oracle: (1/4)(J - I) - I has eigenvalues
        # (1/4)(5) - 1/4 - 1 = 0 (once, all-ones) and -1/4 - 1 = -5/4 (x4)
        rep = fiedler_check(m)
        assert rep.is_singular and rep.rank == 4
        assert rep.negative_semidefinite and rep.kernel_strictly_positive
        assert np.allclose(_unit(rep.kernel_vector), np.ones(5) / math.sqrt(5))
        assert rep.verdict == "consistent-with-simplex"

    @pytest.mark.parametrize("key,a,b,m", [
        ("quarter-1", "1/16", "0", 2),
        ("quarter-2", "1/8", "0", 2),
        ("quarter-3", "9/16", "-1/4", 2),
        ("fifth-1", "3/32", "1/32", 5),
        ("fifth-2", "3/32", "1/32", 5),
        ("fifth-3", "15/32", "-5/32", 5),
    ])
    def test_concrete_determinants(self, key, a, b, m):
        g = gram_from_diagram(fixtures.diagram(key))
        det = g.det()
        assert det == in_field(QuadExt(F(a), F(b), m))
        rep = fiedler_check(g)
        assert not rep.is_singular
        assert rep.verdict == "cannot-be-a-simplex"

    def test_parametric_exclusions(self):
        for i in range(1, 5):
            excl = parametric_fiedler(fixtures.diagram(f"case-a-{i}"),
                                      F(0), F(1, 2))
            assert excl.excluded and excl.roots_in_interval == 0

    def test_synthetic_single_root(self):
        from reptile_lab.exactmath import Poly, sturm_count
        assert sturm_count(Poly([-1, 2]), F(0), F(1)) == 1


# Coxeter diagrams as {(i, j): m} for the label 1/m pi; every other pair of
# the n nodes is 1/2 pi (Coxeter, Regular Polytopes, ch. 11).
def _path(*ms):
    return {(i, i + 1): m for i, m in enumerate(ms)}


EUCLIDEAN = {  # the simplices of the affine Coxeter groups, by name
    "~A2": (3, {(0, 1): 3, (1, 2): 3, (0, 2): 3}),
    "~C2": (3, _path(4, 4)),
    "~G2": (3, _path(6, 3)),
    "~A3": (4, {**_path(3, 3, 3), (0, 3): 3}),
    "~B3": (4, {(0, 2): 3, (1, 2): 3, (2, 3): 4}),
    "~C3": (4, _path(4, 3, 4)),
    "~A4": (5, {**_path(3, 3, 3, 3), (0, 4): 3}),
    "~B4": (5, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (3, 4): 4}),
    "~C4": (5, _path(4, 3, 3, 4)),
    "~D4": (5, {(0, k): 3 for k in range(1, 5)}),
    "~F4": (5, _path(3, 3, 4, 3)),
}
NOT_EUCLIDEAN = {  # the finite group A3 and the hyperbolic group (5, 3, 5)
    "finite-A3": (3, _path(3, 3)),
    "hyperbolic-5-3-5": (4, _path(5, 3, 5)),
}


def _coxeter_diagram(n, branches):
    labels = {e: parse_angle(f"1/{branches.get(e, 2)} pi") for e in all_edges(n)}
    return CoxeterDiagram([f"v{i}" for i in range(n)], labels)


class TestCoxeterSimplices:
    """Positive controls: the labels of a true simplex read as one."""

    @pytest.mark.parametrize("name", EUCLIDEAN)
    def test_euclidean_simplex_is_consistent(self, name):
        n, branches = EUCLIDEAN[name]
        rep = fiedler_check(gram_from_diagram(_coxeter_diagram(n, branches)))
        assert rep.verdict == "consistent-with-simplex"
        assert rep.rank == n - 1

    @pytest.mark.parametrize("name", NOT_EUCLIDEAN)
    def test_spherical_and_hyperbolic_groups_are_not(self, name):
        rep = fiedler_check(gram_from_diagram(_coxeter_diagram(*NOT_EUCLIDEAN[name])))
        assert not rep.is_singular
        assert rep.verdict == "cannot-be-a-simplex"


def _h03():
    h = F(1, 2)
    return EuclideanSimplex(((F(0), F(0), F(0)), (h, F(0), F(0)),
                             (h, h, F(0)), (h, h, h)))


class TestDihedralAngles:
    def test_regular_tetrahedron(self):
        s = EuclideanSimplex(((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)))
        angles = dihedral_angles(s)
        expected = math.acos(F(1, 3))
        for i in range(4):
            for j in range(i + 1, 4):
                assert angles[i, j] == pytest.approx(expected, abs=1e-12)

    def test_h03_angle_multiset(self):
        # cube orthoscheme: three right dihedral angles, two pi/4, one pi/3
        # (confirmed independently by the ridge-vector method below)
        angles = dihedral_angles(_h03())
        got = sorted(angles[i, j] for i in range(4) for j in range(i + 1, 4))
        expected = sorted([math.pi / 2] * 3 + [math.pi / 4] * 2 + [math.pi / 3])
        assert got == pytest.approx(expected, abs=1e-12)

    def test_ridge_method_cross_check(self):
        s = _h03()
        angles = dihedral_angles(s)
        for i in range(4):
            for j in range(i + 1, 4):
                assert angles[i, j] == pytest.approx(
                    dihedral_angle_at_ridge(s, i, j), abs=1e-9)

    def test_triangle_angles_sum(self):
        tri = EuclideanSimplex(((0, 0), (1, 0), (0, 1)))
        angles = dihedral_angles(tri)
        total = sum(angles[i, j] for i in range(3) for j in range(i + 1, 3))
        assert total == pytest.approx(math.pi, abs=1e-12)

    def test_degenerate_rejected(self):
        flat = EuclideanSimplex(((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)))
        with pytest.raises(DegenerateSimplexError):
            dihedral_angles(flat)


def random_rational_simplex(rng, d):
    while True:
        verts = tuple(tuple(F(rng.randint(-8, 8), rng.randint(1, 4))
                            for _ in range(d)) for _ in range(d + 1))
        s = EuclideanSimplex(verts)
        if s.volume() != 0:
            return s


class TestRoundTrip:
    @pytest.mark.parametrize("d", [3, 4])
    def test_random_simplices(self, d):
        rng = random.Random(100 + d)
        for _ in range(20):
            s = random_rational_simplex(rng, d)
            n = normal_gram(s)
            rep = fiedler_check(ExactMatrix([[-x for x in r] for r in n.rows]))
            assert rep.is_singular
            assert rep.rank == d
            assert rep.negative_semidefinite
            assert rep.kernel_strictly_positive
            # -N is congruent to the cosine matrix of the float oracle
            scale = np.sqrt([float(n.rows[i][i]) for i in range(d + 1)])
            cosines = -np.array([[float(x) for x in r] for r in n.rows]) / np.outer(scale, scale)
            assert np.allclose(gram_from_angles(dihedral_angles(s)), cosines, atol=1e-9)


def _unit(v):
    v = np.array([float(x) for x in v])
    return v / np.linalg.norm(v)


def _matches_oracle(matrix):
    """The exact report of a symmetric matrix against the eigh oracle."""
    floats = [[float(x) for x in r] for r in matrix.rows]
    vals = np.linalg.eigvalsh(floats)
    # the seeded data keep the oracle decisive: eigenvalues are clearly
    # zero or clearly not
    assert all(abs(v) < 1e-10 or abs(v) > 1e-6 for v in vals), vals
    rank, neg_semi, kernel = eigh_analysis(floats)
    rep = fiedler_check(matrix)
    assert rep.rank == rank
    assert rep.negative_semidefinite == neg_semi
    assert rep.is_singular == (rank < matrix.n)
    if kernel is None:
        assert rep.kernel_vector is None and rep.kernel_strictly_positive is None
    else:
        u = _unit(rep.kernel_vector)
        assert abs(abs(u @ kernel) - 1) < 1e-9
        if abs(kernel.sum()) > 1e-9:  # else the sign convention is moot
            assert np.allclose(u, kernel, atol=1e-9)
        assert rep.kernel_strictly_positive == bool(np.all(kernel > 1e-9))
    return rep


def _random_symmetric(rng, n, m=None):
    """B diag(s) B^T for a random n x r matrix B over Q (or Q(sqrt m)) and
    random signs s: rank at most r, semidefinite when the signs agree."""
    r = rng.randint(1, n)

    def entry():
        a = F(rng.randint(-3, 3), rng.randint(1, 3))
        return a if m is None else in_field(
            QuadExt(a, F(rng.randint(-2, 2), rng.randint(1, 2)), m))

    b = [[entry() for _ in range(r)] for _ in range(n)]
    if rng.random() < 0.5:
        s = [-1] * r
    else:
        s = [rng.choice((-1, 1)) for _ in range(r)]
    return ExactMatrix([[sum(b[i][k] * s[k] * b[j][k] for k in range(r)) for j in range(n)]
                        for i in range(n)])


class TestAgainstEighOracle:
    def test_criterion_11_simplices(self):
        rng = random.Random(20260809)
        for d in (3, 4):
            for _ in range(50):
                n = normal_gram(random_rational_simplex(rng, d))
                rep = _matches_oracle(ExactMatrix([[-x for x in r] for r in n.rows]))
                assert rep.verdict == "consistent-with-simplex"

    @pytest.mark.parametrize("field", [None, 2, 5])
    def test_random_symmetric_matrices(self, field):
        rng = random.Random(11)
        seen = set()
        for _ in range(300 if field is None else 100):
            m = _random_symmetric(rng, rng.randint(2, 5), field)
            rep = _matches_oracle(m)
            seen.add((rep.is_singular, rep.rank == m.n - 1, rep.negative_semidefinite,
                      rep.kernel_strictly_positive))
        # singular and not, rank n-1 and lower, semidefinite and not, positive
        # kernels and mixed ones all occur
        assert {(True, True, True, True), (True, True, True, False),
                (True, True, False, False), (True, False, True, None),
                (True, False, False, None), (False, False, True, None),
                (False, False, False, None)} <= seen

    @pytest.mark.parametrize("key", ["quarter-1", "quarter-2", "quarter-3",
                                     "fifth-1", "fifth-2", "fifth-3"])
    def test_catalog_diagrams(self, key):
        _matches_oracle(gram_from_diagram(fixtures.diagram(key)))

    def test_leading_minors_are_the_pivots(self):
        rng = random.Random(5)
        for _ in range(100):
            m = _random_symmetric(rng, rng.randint(1, 5))
            minors = m.leading_minors()
            direct = [m.minor(range(k), range(k)) for k in range(1, m.n + 1)]
            if all(x != 0 for x in direct[:-1]):
                assert minors == direct
            else:
                assert minors is None
            assert m.det() == direct[-1]

    def test_not_symmetric_rejected(self):
        with pytest.raises(ValueError):
            fiedler_check(ExactMatrix([[-1, F(1, 2)], [0, -1]]))

    def test_polynomial_matrix_rejected(self):
        # a Q[t] determinant is a question for its roots: parametric_fiedler
        g = gram_from_diagram(fixtures.diagram("case-a-1"), as_poly_in="beta")
        assert g.ring == "Q[t]"
        with pytest.raises(ValueError, match="parametric_fiedler"):
            fiedler_check(g)
