"""Gram matrices of dihedral-angle cosines and the Fiedler conditions.

A genuine d-simplex has a (d+1)x(d+1) cosine matrix (diagonal -1, entries
cos of the dihedral angles) that is negative semidefinite of rank d with a
strictly positive kernel vector (M. Fiedler, *Matrices and Graphs in
Geometry*, CUP 2011).  The contradiction machine only needs the
singularity half: a candidate diagram whose matrix has nonzero determinant
cannot come from a simplex.

Matrices are built over the narrowest ring holding the labels' exact
cosines: Q, the field Q(cos(pi/n)) for n the lcm of the denominators of
the irrational ones, or Q[t] for the cos-parametrised families.  Every condition
is decided exactly; nothing is rounded.  The module works on cosine
matrices only; simplices given by their vertices live in `hill`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

from .angles import NoExactCosineError, exact_cos, format_angle
from .coxeter import CoxeterDiagram, all_edges
from .exactmath import ExactMatrix, Poly, RingMismatchError, sign, sturm_count


def gram_from_diagram(diagram: CoxeterDiagram,
                      as_poly_in: Optional[str] = None) -> ExactMatrix:
    """Cosine matrix of a diagram, rows/columns in diagram vertex order.

    Raises ValueError when a label has no exact cosine (naming the first
    such label and its edge), or when the exact cosines share no ring (a
    polynomial in t = cos(beta) beside an irrational cosine of a rational
    angle).
    """
    n = diagram.n
    entries = [[Fraction(-1) if i == j else None for j in range(n)] for i in range(n)]
    for i, j in all_edges(n):
        label = diagram.labels[(i, j)]
        try:
            c = exact_cos(label, diagram.relations, as_poly_in=as_poly_in)
        except NoExactCosineError as exc:
            u, v = diagram.vertices[i], diagram.vertices[j]
            raise ValueError(f"no exact cosine for the label {format_angle(label)} "
                             f"of edge {u},{v}") from exc
        entries[i][j] = entries[j][i] = c
    try:
        return ExactMatrix(entries)
    except RingMismatchError as exc:
        raise ValueError(f"the exact cosines share no ring: {exc}") from exc


class FiedlerReport:
    __slots__ = ("determinant", "is_singular", "rank", "negative_semidefinite",
                 "kernel_vector", "kernel_strictly_positive", "verdict")

    def __init__(self, determinant, is_singular: bool, rank: int,
                 negative_semidefinite: bool, kernel_vector: Optional[tuple],
                 kernel_strictly_positive: Optional[bool], verdict: str):
        self.determinant = determinant  # exact ring element
        self.is_singular = is_singular
        self.rank = rank
        self.negative_semidefinite = negative_semidefinite
        self.kernel_vector = kernel_vector  # exact, up to a positive factor
        self.kernel_strictly_positive = kernel_strictly_positive
        self.verdict = verdict  # "consistent-with-simplex" or "cannot-be-a-simplex"


def fiedler_check(matrix: ExactMatrix) -> FiedlerReport:
    """Singularity, rank, semidefiniteness and kernel of a symmetric
    cosine matrix, all decided exactly over Q or Q(cos(pi/n)).

    A nonsingular matrix costs the one elimination of its determinant: its
    rank is n, and by Sylvester's criterion it is negative (semi)definite
    iff its leading principal minors alternate in sign, starting negative.
    A singular matrix is negative semidefinite iff every principal minor of
    -G is nonnegative; its rank is the order of its largest nonzero
    principal minor; at rank n-1, adj G = c*k*k^T, so a nonzero column of
    the adjugate spans the kernel.  A matrix over Q[t] raises ValueError:
    its determinant's roots are `parametric_fiedler`'s question.
    """
    if matrix.ring == "Q[t]":
        raise ValueError("fiedler_check takes a numeric matrix; "
                         "use parametric_fiedler over Q[t]")
    n = matrix.n
    rows = matrix.rows
    if any(rows[i][j] != rows[j][i] for i, j in itertools.combinations(range(n), 2)):
        raise ValueError("the cosine matrix is not symmetric")
    det = matrix.det()
    singular = det == 0
    kernel = positive = None
    if not singular:
        rank = n
        minors = matrix.leading_minors()
        neg_semi = minors is not None and all(
            sign(d) == (-1) ** k for k, d in enumerate(minors, 1))
    else:
        rank, neg_semi = _principal_minor_analysis(matrix)
        if rank == n - 1:
            kernel = _kernel_from_adjugate(matrix)
            positive = all(sign(x) > 0 for x in kernel)
    ok = singular and rank == n - 1 and neg_semi and positive
    return FiedlerReport(det, singular, rank, neg_semi, kernel, positive,
                         "consistent-with-simplex" if ok else "cannot-be-a-simplex")


def _principal_minor_analysis(matrix: ExactMatrix) -> tuple:
    """(rank, negative semidefinite) of a symmetric matrix from all its
    principal minors."""
    rank, neg_semi = 0, True
    for k in range(1, matrix.n + 1):
        for idx in itertools.combinations(range(matrix.n), k):
            s = sign(matrix.minor(idx, idx))
            if s:
                rank = k
                # the minor of -G on idx is (-1)^k times this one
                neg_semi = neg_semi and s == (-1) ** k
    return rank, neg_semi


def _kernel_from_adjugate(matrix: ExactMatrix) -> tuple:
    """Kernel vector of a symmetric matrix of rank n-1: the column of the
    adjugate at a nonzero diagonal cofactor, signed to a positive sum."""
    n = matrix.n
    others = [[k for k in range(n) if k != i] for i in range(n)]
    j = next(j for j in range(n) if matrix.minor(others[j], others[j]) != 0)
    # adj[i][j] = (-1)^(i+j) * det(G without row j and column i)
    kernel = tuple((-1) ** (i + j) * matrix.minor(others[j], others[i])
                   for i in range(n))
    if sign(sum(kernel)) < 0:
        kernel = tuple(-x for x in kernel)
    return kernel


class ParametricExclusion:
    __slots__ = ("det_poly", "roots_in_interval", "excluded")

    def __init__(self, det_poly: Poly, roots_in_interval: int, excluded: bool):
        self.det_poly = det_poly
        self.roots_in_interval = roots_in_interval
        self.excluded = excluded


def parametric_fiedler(diagram: CoxeterDiagram, lo: Fraction,
                       hi: Fraction) -> ParametricExclusion:
    """Root count of det over an open interval of t; 0 roots = excluded.

    The diagram's labels must have polynomial cosines in t = cos(beta);
    a family of simplices would need a singular matrix somewhere on the
    interval, so a root-free determinant excludes the whole family.
    """
    matrix = gram_from_diagram(diagram, as_poly_in="beta")
    if matrix.ring != "Q[t]":
        raise ValueError(f"expected a Q[t] matrix, got {matrix.ring}")
    det = matrix.det()
    count = sturm_count(det, lo, hi)
    return ParametricExclusion(det, count, count == 0)

