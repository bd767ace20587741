"""Float oracles for the Gram-matrix tests, and the exact normal Gram matrix.

numpy is a test dependency only: these helpers recompute in binary64, by
routes independent of the package's exact arithmetic, what `gram` decides
exactly.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from reptile_lab.exactmath import ExactMatrix
from reptile_lab.gram import EuclideanSimplex


class DegenerateSimplexError(ValueError):
    pass


def facet_normals(simplex: EuclideanSimplex) -> np.ndarray:
    """Outward unit normal of each facet F_i (the one opposite vertex i)."""
    vs = np.array([[float(c) for c in v] for v in simplex.vertices])
    d = simplex.dim
    normals = np.zeros((d + 1, d))
    for i in range(d + 1):
        others = [j for j in range(d + 1) if j != i]
        base = vs[others[0]]
        span = np.array([vs[j] - base for j in others[1:]])
        # kernel of the span: the facet's normal direction
        _, _, vh = np.linalg.svd(span)
        n = vh[-1]
        if np.linalg.norm(span @ n) > 1e-9 * max(1.0, np.abs(span).max()):
            raise DegenerateSimplexError("facet span is rank deficient")
        if np.dot(n, vs[i] - base) > 0:
            n = -n
        normals[i] = n / np.linalg.norm(n)
    return normals


def dihedral_angles(simplex: EuclideanSimplex) -> np.ndarray:
    """Matrix of dihedral angles between facet pairs (pi on the diagonal).

    The dihedral angle between facets is pi minus the angle between their
    outward normals.
    """
    if simplex.is_degenerate():
        raise DegenerateSimplexError("affinely dependent vertices")
    normals = facet_normals(simplex)
    d1 = normals.shape[0]
    out = np.full((d1, d1), math.pi)
    for i, j in itertools.combinations(range(d1), 2):
        c = float(np.clip(np.dot(normals[i], normals[j]), -1.0, 1.0))
        out[i, j] = out[j, i] = math.pi - math.acos(c)
    return out


def gram_from_angles(angle_matrix: np.ndarray) -> np.ndarray:
    """Numeric cosine matrix from a dihedral-angle matrix (diagonal -> -1)."""
    out = np.cos(angle_matrix)
    np.fill_diagonal(out, -1.0)
    return out


def dihedral_angle_at_ridge(simplex: EuclideanSimplex, i: int, j: int) -> float:
    """Dihedral angle along the ridge shared by facets i and j, measured
    inside the simplex from vectors orthogonal to the ridge.

    Independent of the normal-based route; used as a cross-check oracle.
    """
    vs = np.array([[float(c) for c in v] for v in simplex.vertices])
    ridge = [k for k in range(simplex.dim + 1) if k not in (i, j)]
    base = vs[ridge[0]]
    ridge_span = np.array([vs[k] - base for k in ridge[1:]])

    def ortho_component(vec):
        v = vec.copy()
        if len(ridge_span):
            q, _ = np.linalg.qr(ridge_span.T)
            v = v - q @ (q.T @ v)
        return v

    # facet i contains vertex j and the ridge; direction into facet i
    u = ortho_component(vs[j] - base)
    w = ortho_component(vs[i] - base)
    c = float(np.clip(np.dot(u, w) / (np.linalg.norm(u) * np.linalg.norm(w)), -1, 1))
    return math.acos(c)


def eigh_analysis(m, tol: float = 1e-9):
    """(rank, negative semidefinite, unit kernel vector or None) of a
    symmetric float matrix from its eigenvalues at `tol`.  The kernel
    vector, given when the kernel is one-dimensional, has a nonnegative sum."""
    vals, vecs = np.linalg.eigh(np.asarray(m, dtype=float))
    rank = int(np.sum(np.abs(vals) > tol))
    neg_semi = bool(vals[-1] <= tol)
    near_zero = np.abs(vals) <= tol
    kernel = None
    if near_zero.sum() == 1:
        kernel = vecs[:, int(np.argmax(near_zero))]
        if kernel.sum() < 0:
            kernel = -kernel
    return rank, neg_semi, kernel


def normal_gram(simplex: EuclideanSimplex) -> ExactMatrix:
    """Exact Gram matrix N of outward facet normals of a rational simplex.

    With E the matrix of rows v_i - v_0 (i = 1..d), the barycentric
    coordinate of vertex i is row i of E^-T applied to x - v_0, so facet i
    has outward normal -row_i(E^-T) and facet 0 has the sum of the rows.
    The normals here are those times det E, rows of the cofactor matrix of
    E, so N is rational and scaled by det(E)^2 > 0.  The cosine matrix of
    the simplex is C = -D^-1 N D^-1 with D = diag(|n_i|), a positive-
    diagonal congruence of -N, so -N and C share rank, semidefiniteness
    and the sign pattern of their kernel vectors.
    """
    d = simplex.dim
    v0 = simplex.vertices[0]
    e = ExactMatrix([[Fraction(simplex.vertices[i + 1][k]) - Fraction(v0[k])
                      for k in range(d)] for i in range(d)])
    rest = [[k for k in range(d) if k != i] for i in range(d)]
    cof = [[(-1) ** (i + k) * e.minor(rest[i], rest[k]) for k in range(d)]
           for i in range(d)]
    normals = [[sum(col) for col in zip(*cof)]] + [[-x for x in r] for r in cof]
    return ExactMatrix([[sum(a * b for a, b in zip(p, q)) for q in normals]
                        for p in normals])
