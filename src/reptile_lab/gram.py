"""Gram matrices of dihedral-angle cosines and the singularity obstruction.

A genuine d-simplex has a (d+1)x(d+1) cosine matrix (diagonal -1, entries
cos of the dihedral angles) that is negative semidefinite of rank d with a
strictly positive kernel vector.  The contradiction machine only needs the
singularity half: a candidate diagram whose matrix has nonzero determinant
cannot come from a simplex.

Matrices are built over the narrowest ring supporting the labels' exact
cosines (Q, a quadratic field, or Q[t] for the cos-parametrised families),
falling back to binary64 when the exact cosines share no such ring.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .angles import NoExactCosineError, exact_cos
from .coxeter import CoxeterDiagram, all_edges
from .exactmath import ExactMatrix, Poly, RingMismatchError, sturm_count


@dataclass
class GramMatrix:
    """Cosine matrix plus provenance: exact matrix when possible."""

    exact: Optional[ExactMatrix]
    numeric: np.ndarray
    ring: str  # "Q", "Q(sqrt(m))", "Q[t]" or "binary64"


def gram_from_diagram(diagram: CoxeterDiagram,
                      as_poly_in: Optional[str] = None) -> GramMatrix:
    """Cosine matrix of a diagram, rows/columns in diagram vertex order.

    Raises ValueError when some label has no exact cosine.
    """
    n = diagram.n
    entries = [[None] * n for _ in range(n)]
    numeric = np.full((n, n), -1.0)
    exact_ok = True
    for i in range(n):
        entries[i][i] = Fraction(-1)
    for i, j in all_edges(n):
        label = diagram.labels[(i, j)]
        try:
            c = exact_cos(label, diagram.relations, as_poly_in=as_poly_in)
        except NoExactCosineError:
            c = None
            exact_ok = False
        entries[i][j] = entries[j][i] = c
        if c is not None and not isinstance(c, Poly):
            numeric[i, j] = numeric[j, i] = float(c)
        else:
            numeric[i, j] = numeric[j, i] = math.nan
    if exact_ok:
        try:
            exact = ExactMatrix(entries)
            return GramMatrix(exact, numeric, exact.ring)
        except RingMismatchError:
            pass
    if np.isnan(numeric).any():
        raise ValueError("no exact cosine for some label")
    return GramMatrix(None, numeric, "binary64")


@dataclass
class FiedlerReport:
    determinant: object  # exact ring element, or float for numeric input
    is_singular: bool
    rank: Optional[int]
    negative_semidefinite: Optional[bool]
    kernel_vector: Optional[np.ndarray]
    kernel_strictly_positive: Optional[bool]
    verdict: str  # "consistent-with-simplex" or "cannot-be-a-simplex"


def _numeric_analysis(m: np.ndarray, tol: float):
    vals, vecs = np.linalg.eigh(m)
    rank = int(np.sum(np.abs(vals) > tol))
    neg_semi = bool(vals[-1] <= tol)
    near_zero = np.abs(vals) <= tol
    kernel = None
    positive = None
    if near_zero.sum() == 1:
        kernel = vecs[:, int(np.argmax(near_zero))]
        if kernel.sum() < 0:
            kernel = -kernel
        positive = bool(np.all(kernel > tol))
    return rank, neg_semi, kernel, positive


def fiedler_check(gram: Union[GramMatrix, np.ndarray], tol: float = 1e-9) -> FiedlerReport:
    """Singularity / semidefiniteness / kernel test for a cosine matrix.

    Exact input: the determinant decides singularity exactly; the sign
    analysis (semidefiniteness, kernel) is delegated to binary64 on the
    numerically evaluated entries.  Numeric input: everything at `tol`.
    """
    if isinstance(gram, np.ndarray):
        gram = GramMatrix(None, gram, "binary64")
    if gram.exact is not None:
        det = gram.exact.det()
        singular = det == 0
        if not np.isnan(gram.numeric).any():
            rank, neg_semi, kernel, positive = _numeric_analysis(gram.numeric, tol)
        else:
            rank = neg_semi = kernel = positive = None
    else:
        det = float(np.linalg.det(gram.numeric))
        singular = abs(det) <= tol
        rank, neg_semi, kernel, positive = _numeric_analysis(gram.numeric, tol)
    n = gram.numeric.shape[0]
    ok = singular and (rank is None or rank == n - 1) \
        and (neg_semi is None or neg_semi) and (positive is None or positive)
    return FiedlerReport(det, singular, rank, neg_semi, kernel, positive,
                         "consistent-with-simplex" if ok else "cannot-be-a-simplex")


@dataclass
class ParametricExclusion:
    det_poly: Poly
    roots_in_interval: int
    excluded: bool


def parametric_fiedler(diagram: CoxeterDiagram, lo: Fraction, hi: Fraction,
                       parameter: str = "beta") -> ParametricExclusion:
    """Root count of det over an open parameter interval; 0 roots = excluded.

    The diagram's labels must have polynomial cosines in t = cos(parameter);
    a family of simplices would need a singular matrix somewhere on the
    interval, so a root-free determinant excludes the whole family.
    """
    gram = gram_from_diagram(diagram, as_poly_in=parameter)
    if gram.ring != "Q[t]":
        raise ValueError(f"expected a Q[t] matrix, got {gram.ring}")
    det = gram.exact.det()
    count = sturm_count(det, lo, hi)
    return ParametricExclusion(det, count, count == 0)


# ---------------------------------------------------------------------------
# Euclidean simplices and dihedral angles
# ---------------------------------------------------------------------------


class DegenerateSimplexError(ValueError):
    pass


@dataclass(frozen=True)
class EuclideanSimplex:
    """d+1 affinely independent vertices in R^d (rational or float coords)."""

    vertices: tuple  # of coordinate tuples

    def __post_init__(self):
        vs = tuple(tuple(c for c in v) for v in self.vertices)
        object.__setattr__(self, "vertices", vs)
        d = len(vs[0])
        if len(vs) != d + 1 or any(len(v) != d for v in vs):
            raise ValueError("need d+1 vertices in R^d")

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def volume(self) -> Fraction:
        """Exact volume |det| / d! for rational vertices."""
        d = self.dim
        rows = [[Fraction(self.vertices[i + 1][k]) - Fraction(self.vertices[0][k])
                 for k in range(d)] for i in range(d)]
        det = ExactMatrix(rows).det()
        return abs(det) / math.factorial(d)

    def is_degenerate(self) -> bool:
        return self.volume() == 0


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
