"""Edge-labeled complete graphs on 4 or 5 vertices and their combinatorics.

A diagram is a complete graph whose edges carry exact angle forms.  The
module provides label-preserving automorphism groups, orbit counting (with a
Burnside cross-check), enumeration of diagrams up to isomorphism (rich
ones among them), enumeration of abstract edge partitions, and
classification of single-label subgraphs against a small-graph catalog.

Sizes stay tiny: the scenarios need n <= 5 (at most 120 vertex permutations
and 10 edges), and `kn_tables` refuses more than `MAX_VERTICES` vertices.
All symmetry goes through one kernel on per-n tables built once
(`kn_tables`): a coloring is an int tuple over the edges in `all_edges`
order, each vertex permutation is stored as an edge permutation with its
`itemgetter`, and four operations answer every question: `aut` (the vertex
permutations fixing a coloring), `canon` (its smallest image), `is_first`
(no image is smaller) and `orbits` (orbits of edges or triangles under a
group of vertex permutations, each item mapped through its vertices, with
a Burnside cross-check).  `aut_if_first` makes `is_first` and `aut` of a
complete coloring one walk over its images.  The edge image table and
the prefix tables of `is_first` are read off the edge permutations.  A
diagram numbers its label forms once and runs on that coloring;
partition and skeleton canonical forms and subgraph classification are
built on `canon`.  The pair-orbit bound is checked on the edge
permutations themselves: the pair orbits of a cyclic group <p> are the
cycles of p's edge permutation (`cycle_count`).

The three enumerators (diagrams, edge partitions, two-label skeletons) are
clients of one orderly search over the edge colorings, `coloring_search`,
and do their per-node work on int colorings.  The diagram search labels
edges with alphabet positions (label ids) and takes its constraint on
them: its `allowed` predicate is asked once per sorted id triple
(i <= j <= k) whether a triangle with those labels may occur, and no
triangle type of angle forms is built for it.  A triangle's forbidden
labels are never tried, richness is counted on the ids, and a
`CoxeterDiagram` is built only for a labeling it returns.  Nor is a label
below the edge's floor tried (`floors`): three bounds every first
labeling obeys, since an image would be smaller otherwise.  (1) Vertex
0's star is sorted (sort vertices 1..n-1 by their edge to 0).  (2) No
label is below label(0, 1) (map that edge onto (0, 1)), so label(0, 1) is
at most the rich type's smallest id.  (3) Each edge (1, j), j >= 2, is at
least label(0, 2) (swap vertices 0 and 1, then sort the new star).  The
skeleton search compares its colors as they are too, so it starts each
edge at its floor's color.  The partition search renumbers its classes,
so the floors do not hold there; its siblings share their parent, so the
part of its renumbered test that reads only the parent is made once per
parent (`KnTables.renumbered_ties`), and each sibling finishes only the
images tied there.  It keys a triangle type by its multiset of classes,
an int.
"""

from __future__ import annotations

from functools import cache, cached_property, lru_cache
from itertools import (combinations, combinations_with_replacement, count, permutations,
                       product)
from math import comb
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .angles import (AngleForm, RelationSet, EMPTY_RELATIONS, format_angle,
                     parse_angle)

Edge = tuple  # (i, j) with i < j
TriangleType = tuple  # three AngleForms in ascending order


def _edge(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


def all_edges(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def triangle_type_of(labels: Iterable[AngleForm]) -> TriangleType:
    return tuple(sorted(labels))


class ConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree."""


class KnTables:
    """Index tables of K_n (edges in `all_edges` order) and the symmetry kernel.

    triangles: vertex triples, in combinations order.
    tri_edges: per triangle, its three edge indices, ascending.
    edge_tris: per edge, the indices of the triangles through it.
    closes: per edge, the other two edges of each triangle whose last edge it is.
    open_after: per edge e, the number of triangles whose last edge is after e.
    perms: vertex permutations, in permutations order.
    getters: per vertex permutation p, colors -> image, edge i colored as p(edge i).
    edge_images (built on first use): per vertex permutation, the index of
        the image of each edge.

    A group of vertex permutations (`aut` of a coloring) acts on edges and
    triangles as vertex tuples: p maps (i, j, k) to the sorted (p[i], p[j],
    p[k]), with no table (`orbits`).
    """

    def __init__(self, edges: list, triangles: list, tri_edges: list, edge_tris: list,
                 closes: list, open_after: list, perms: list, getters: list):
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "triangles", triangles)
        object.__setattr__(self, "tri_edges", tri_edges)
        object.__setattr__(self, "edge_tris", edge_tris)
        object.__setattr__(self, "closes", closes)
        object.__setattr__(self, "open_after", open_after)
        object.__setattr__(self, "perms", perms)
        object.__setattr__(self, "getters", getters)

    def __setattr__(self, *a):  # immutable; cached_property writes __dict__
        raise AttributeError("KnTables is immutable")

    __delattr__ = __setattr__

    def aut(self, colors: Sequence[int]) -> list:
        """The vertex permutations whose image of the coloring equals it."""
        colors = tuple(colors)
        return [p for p, g in zip(self.perms, self.getters) if g(colors) == colors]

    def aut_if_first(self, colors: Sequence[int]) -> Optional[list]:
        """`aut(colors)` if `colors`, a coloring of every edge, is first of
        its isomorphism class (`is_first`), else None, from one walk over
        the images: one below `colors` stops it, and the images equal to it
        are the automorphisms."""
        colors = tuple(colors)
        group = []
        for p, g in zip(self.perms, self.getters):
            image = g(colors)
            if image < colors:
                return None
            if image == colors:
                group.append(p)
        return group

    @staticmethod
    def orbits(group: Sequence[tuple], items: Iterable[tuple]) -> list:
        """Orbits under `group`, a group of vertex permutations, of
        `items`, sorted vertex pairs or triples (edges or triangles)
        forming a union of orbits: sorted tuples of items, ordered by least
        member.  The permutation p maps the item x to sorted(p[v] for v in
        x).

        The orbit of x is its image under each member of the group.
        Burnside's lemma cross-checks the count on every call: the fixed
        points summed over the group are the orbit count times the group
        order.
        """
        out, seen, fixed = [], set(), 0
        for x in sorted(items):
            get = itemgetter(*x)
            images = [tuple(sorted(get(p))) for p in group]
            fixed += images.count(x)
            if x not in seen:
                out.append(tuple(sorted(set(images))))
                seen.update(out[-1])
        if fixed != len(out) * len(group):
            raise ConsistencyError(f"{len(out)} orbits found, Burnside counts "
                                   f"{fixed}/{len(group)}")
        return out

    def canon(self, colors: Sequence[int]) -> tuple:
        """The smallest image of the coloring; equal iff isomorphic."""
        return min([g(colors) for g in self.getters])

    def is_first(self, colors: Sequence[int]) -> bool:
        """No image of the coloring is smaller: it is the first of its
        isomorphism class in lexicographic order.

        `colors` may cover only the first k edges; it is then compared with
        its images under the permutations that map those edges onto
        themselves.  If one is smaller, so is that image of every completion.
        The partition search renumbers its images (`renumbered_ties`).
        """
        colors = tuple(colors)
        for g in self._prefix_getters[len(colors)]:
            if g(colors) < colors:
                return False
        return True

    def renumbered_ties(self, parent: Sequence[int]) -> Optional[list]:
        """The part of the renumbered `is_first` test that every child of
        the prefix `parent` shares, a child being `parent` plus a color of
        edge k = len(parent).

        `parent` must be a restricted growth string (each new color is the
        largest so far plus one), and so must a child: it is then its own
        image renumbered by first occurrence, and it is first iff no image
        of its k + 1 edges, renumbered, is smaller.  Up to the position that
        reads edge k, an image reads only edges of `parent`, and is compared
        with `parent`.  So this walks each image only that far: if one is
        already below there, None (no child is first); one already above is
        dropped; for each one tied there, (that position, the edge indices
        the image reads from it on, the renumbering so far) is kept.
        `_tied_below` finishes the test for one child.
        """
        k = len(parent)
        ties = []
        for p in self._prefixes[k + 1]:
            relabel = {}
            for i, q in enumerate(p):
                if q == k:
                    ties.append((i, p[i:], relabel))
                    break
                r = relabel.setdefault(parent[q], len(relabel))
                if r != parent[i]:
                    if r < parent[i]:
                        return None
                    break
        return ties

    @cached_property
    def _prefixes(self) -> list:
        """Per k = 0..len(edges): the sorted distinct images of the first k
        edges (index tuples) under the permutations that map those edges
        onto themselves, the identity image left out.  Built on first use,
        not with the other tables, in one pass over the edge images:
        im[:k + 1] maps the first k + 1 edges onto themselves iff the
        running maximum of its entries is k, and is no identity once an
        entry has moved."""
        prefixes = [set() for _ in range(len(self.edges) + 1)]
        for im in self.edge_images:
            top, moved = -1, False
            for k, x in enumerate(im):
                if x > top:
                    top = x
                if x != k:
                    moved = True
                if moved and top == k:
                    prefixes[k + 1].add(im[:k + 1])
        return [sorted(ps) for ps in prefixes]

    @cached_property
    def _prefix_getters(self) -> list:
        """Per k, the getters of `_prefixes[k]`."""
        # two or more indices each: a one-edge prefix has only itself
        return [[itemgetter(*p) for p in ps] for ps in self._prefixes]

    @cached_property
    def floors(self) -> tuple:
        """Per edge e, the index of an earlier edge whose color is at most
        e's in every coloring `is_first` accepts (None for edge 0), by the
        three floors of the module docstring: (0, j-1) for a star edge
        (0, j), (0, 2) for an edge (1, j), (0, 1) for the rest.  The table
        assumes the `all_edges` order, vertex 0's star first, then vertex
        1's edges, and colors compared as they are, not renumbered by first
        occurrence.
        """
        pos = {e: i for i, e in enumerate(self.edges)}

        def floor(i: int, j: int) -> Optional[int]:
            if i == 0:
                return pos[(0, j - 1)] if j > 1 else None
            return pos[(0, 2)] if i == 1 else 0

        return tuple(floor(i, j) for i, j in self.edges)

    @cached_property
    def edge_images(self) -> list:
        ident = tuple(range(len(self.edges)))
        return [g(ident) for g in self.getters]


def _renumbered(coloring: tuple) -> tuple:
    relabel = {}
    return tuple([relabel.setdefault(c, len(relabel)) for c in coloring])


def _renumbered_below(image: tuple, colors: tuple) -> bool:
    """`_renumbered(image) < colors`, renumbering only up to the first
    position where the two differ."""
    relabel = {}
    for c, x in zip(image, colors):
        r = relabel.setdefault(c, len(relabel))
        if r != x:
            return r < x
    return False


def _tied_below(ties: list, colors: Sequence[int]) -> bool:
    """Is one of the images that `KnTables.renumbered_ties` found tied
    with the parent below the child `colors` (the parent plus one edge)?
    Each is compared on from the position that reads the child's edge,
    with the renumbering saved there."""
    for i, tail, relabel in ties:
        relabel = relabel.copy()
        for q in tail:
            r = relabel.setdefault(colors[q], len(relabel))
            if r != colors[i]:
                if r < colors[i]:
                    return True
                break
            i += 1
    return False


# The tables hold n! permutations: 0.3 s and 33 MB at 8 vertices, each
# further vertex multiplying both by about n.
MAX_VERTICES = 8


@lru_cache(maxsize=8)
def kn_tables(n: int) -> KnTables:
    if n > MAX_VERTICES:
        raise ValueError(f"{n} vertices: the symmetry tables hold every vertex "
                         f"permutation, so at most {MAX_VERTICES} vertices are supported")
    es = all_edges(n)
    pos = {e: i for i, e in enumerate(es)}
    tris = list(combinations(range(n), 3))
    tri_edges = [(pos[(i, j)], pos[(i, k)], pos[(j, k)]) for i, j, k in tris]
    edge_tris = [[t for t, te in enumerate(tri_edges) if e in te] for e in range(len(es))]
    closes = [[te[:2] for te in tri_edges if te[2] == e] for e in range(len(es))]
    open_after = [sum(te[2] > e for te in tri_edges) for e in range(len(es))]
    perms = list(permutations(range(n)))
    # with fewer than two edges every edge permutation is the identity, and
    # itemgetter of one index would return a scalar (of none, raise)
    getters = [itemgetter(*(pos[_edge(p[a], p[b])] for a, b in es)) if len(es) > 1 else tuple
               for p in perms]
    return KnTables(es, tris, tri_edges, edge_tris, closes, open_after, perms, getters)


class CoxeterDiagram:
    """Complete graph on named vertices with canonical angle-form edge
    labels, keyed by vertex index pairs (i, j) in either order."""

    def __init__(self, vertices: Sequence[str], labels: dict,
                 relations: RelationSet = EMPTY_RELATIONS):
        self.vertices = tuple(vertices)
        self.relations = relations
        canon = {_edge(i, j): relations.normalize(form) for (i, j), form in labels.items()}
        es = all_edges(len(self.vertices))
        if len(canon) != len(labels) or set(canon) != set(es):
            raise ValueError("labels must cover every edge exactly once")
        self.labels = canon
        # label forms numbered once, in ascending order; symmetry runs on ids
        self.forms = tuple(sorted(set(canon.values())))
        ids = {f: i for i, f in enumerate(self.forms)}
        self.colors = tuple(ids[canon[e]] for e in es)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edges(self) -> list:
        return all_edges(self.n)

    def triangles(self) -> list:
        return list(combinations(range(self.n), 3))

    def triangle_type(self, tri) -> TriangleType:
        i, j, k = tri
        return triangle_type_of(
            (self.labels[_edge(i, j)], self.labels[_edge(i, k)], self.labels[_edge(j, k)]))

    def label_set(self) -> set:
        return set(self.labels.values())

    # -- symmetry ----------------------------------------------------------

    def automorphisms(self) -> list:
        """All vertex permutations preserving every edge label."""
        return kn_tables(self.n).aut(self.colors)

    def canonical_key(self):
        """Minimum label-id matrix over all vertex orders, with the label
        forms in id order to pin the ids; equal iff isomorphic."""
        return kn_tables(self.n).canon(self.colors), self.forms

    # -- fixture IO ----------------------------------------------------------

    @staticmethod
    def from_fixture(data: dict) -> "CoxeterDiagram":
        """The diagram of a fixture entry: an object with a "vertices" list,
        an "edges" object mapping "u,v" to an angle literal and an optional
        "relations" list of [symbol, literal] pairs.  An entry of another
        shape, with fewer than two vertices, or with a label that reduces to
        q*pi for q outside (0, 1), raises ValueError, which names what is
        wrong."""
        if not isinstance(data, dict):
            raise ValueError(f"a diagram is a JSON object, not {type(data).__name__}")
        names = data.get("vertices")
        if not isinstance(names, list) or len(names) < 2:
            raise ValueError('a diagram needs "vertices", a list of at least two names')
        for i, v in enumerate(names):
            if not isinstance(v, str):
                raise ValueError(f"a vertex name is a string, not {v!r}")
            if not v or v != v.strip() or "," in v:
                # an edge key "u,v" is split at the comma and each end stripped
                raise ValueError(f"vertex name {v!r} cannot appear in an edge key: "
                                 "it is empty, has a comma, or leading or trailing spaces")
            if v in names[:i]:
                raise ValueError(f'vertex {v!r} is listed twice in "vertices"')
        if not isinstance(data.get("edges"), dict):
            raise ValueError('a diagram needs "edges", an object of "u,v": label pairs')
        pairs = data.get("relations", [])
        if not (isinstance(pairs, list) and all(
                isinstance(r, list) and len(r) == 2 and all(isinstance(x, str) for x in r)
                for r in pairs)):
            raise ValueError('"relations" must be a list of [symbol, literal] pairs')
        relations = RelationSet.of(*((sym, parse_angle(lit)) for sym, lit in pairs))
        labels = {}
        for key, lit in data["edges"].items():
            ends = tuple(e.strip() for e in key.split(","))
            if len(ends) != 2 or not isinstance(lit, str):
                raise ValueError(f'edge {key!r}: expected "u,v": "<angle literal>", '
                                 f"got {lit!r}")
            unknown = next((e for e in ends if e not in names), None)
            if unknown is not None:
                raise ValueError(f"edge {key!r}: {unknown!r} is not in \"vertices\"")
            if ends[0] == ends[1]:
                raise ValueError(f"edge {key!r} joins {ends[0]!r} to itself")
            if ends[::-1] in labels or ends in labels:
                raise ValueError(f"edge {key!r} is labeled twice")
            form = parse_angle(lit)
            q = relations.normalize(form).pi_fraction()
            if q is not None and not 0 < q < 1:
                raise ValueError(f"edge {key!r}: label {lit!r} is {q} pi, outside (0, pi)")
            labels[ends] = form
        index = {v: i for i, v in enumerate(names)}
        return CoxeterDiagram(names, {(index[u], index[v]): form
                                      for (u, v), form in labels.items()}, relations)

    def to_fixture(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "relations": [[sym, format_angle(f)] for sym, f in self.relations.rules],
            "edges": {f"{self.vertices[i]},{self.vertices[j]}": format_angle(f)
                      for (i, j), f in sorted(self.labels.items())},
        }


# ---------------------------------------------------------------------------
# Orbits, richness, the pair-orbit bound
# ---------------------------------------------------------------------------


def pair_orbit_bound(m: int) -> int:
    """Upper bound for pair orbits of a nontrivial faithful action on m points."""
    if m < 2:
        raise ValueError("need m >= 2")
    return comb(m, 2) - m + 2


def cycle_count(perm: Sequence[int]) -> int:
    """Number of cycles of a permutation of range(len(perm))."""
    seen = set()
    cycles = 0
    for i in range(len(perm)):
        cycles += i not in seen
        while i not in seen:
            seen.add(i)
            i = perm[i]
    return cycles


def orbits(diagram: CoxeterDiagram, ttype: Optional[TriangleType] = None) -> list:
    """Orbits under Aut of the triangles (of type ttype, if given), each a
    tuple of vertex triples, ordered by least member."""
    kn = kn_tables(diagram.n)
    return kn.orbits(diagram.automorphisms(),
                     [t for t in kn.triangles if ttype is None or diagram.triangle_type(t) == ttype])


def edge_orbits(diagram: CoxeterDiagram, label: AngleForm) -> list:
    """Orbits under Aut of the edges carrying `label`, each a tuple of
    edges, ordered by least member."""
    label = diagram.relations.normalize(label)
    kn = kn_tables(diagram.n)
    return kn.orbits(diagram.automorphisms(), [e for e in kn.edges if diagram.labels[e] == label])


def edge_orbit_count_transitive(diagram: CoxeterDiagram, label: AngleForm) -> bool:
    """True iff Aut acts transitively on the edges carrying `label`."""
    return len(edge_orbits(diagram, label)) == 1


# ---------------------------------------------------------------------------
# Single-label subgraph classification
# ---------------------------------------------------------------------------


def _graph_key(edges: Sequence[Edge]) -> tuple:
    """Canonical 0/1 edge indicator in K5 of a graph on at most 5 vertices."""
    support = sorted({v for e in edges for v in e})
    if len(support) > 5:
        raise ValueError(f"graph on {len(support)} vertices; at most 5 supported")
    idx = {v: i for i, v in enumerate(support)}
    on = {_edge(idx[a], idx[b]) for a, b in edges}
    kn = kn_tables(5)
    return kn.canon([int(e in on) for e in kn.edges])


def _catalog() -> dict:
    def path(k):
        return [(i, i + 1) for i in range(k - 1)]

    def cycle(k):
        return path(k) + [(0, k - 1)]

    def star(k):
        return [(0, i) for i in range(1, k + 1)]

    def complete(k):
        return [(i, j) for i in range(k) for j in range(i + 1, k)]

    named = {
        "empty": [],
        "P2": path(2),
        "P3": path(3),
        "P4": path(4),
        "P5": path(5),
        "P2+P2": [(0, 1), (2, 3)],
        "P2+P3": [(0, 1), (2, 3), (3, 4)],
        "K1,3": star(3),
        "K1,4": star(4),
        "fork": [(0, 1), (0, 2), (0, 3), (1, 4)],
        "triangle": cycle(3),
        "C4": cycle(4),
        "C5": cycle(5),
        "K2,3": [(i, j) for i in range(2) for j in range(2, 5)],
        "K4": complete(4),
        "K5": complete(5),
        "P2+triangle": [(0, 1)] + [(2, 3), (3, 4), (2, 4)],
        "paw": cycle(3) + [(0, 3)],
    }
    return {_graph_key(es): name for name, es in named.items()}


_CATALOG = _catalog()


def classify_graph(edges: Sequence[Edge]) -> str:
    key = _graph_key(edges)
    return _CATALOG.get(key, f"graph{key}")


def label_subgraph(diagram: CoxeterDiagram, label: AngleForm) -> str:
    """Isomorphism class name of the subgraph formed by edges carrying `label`."""
    label = diagram.relations.normalize(label)
    return classify_graph([e for e in diagram.edges() if diagram.labels[e] == label])


# ---------------------------------------------------------------------------
# Orderly coloring search
# ---------------------------------------------------------------------------


def coloring_search(colors: list, slots: Sequence[int], values: Callable, step: Callable,
                    state, first: Optional[Callable] = None):
    """Fill `colors[e]` for `e` in `slots`, in order, depth-first; yield the
    state at each complete filling.

    At each slot every value of `values(e)` is tried, in that order, so
    complete fillings arrive in lexicographic order of the try order.
    `values(e)` is asked when slot `e` is reached, so it may read the slots
    filled before it and offer only the values they leave open (forward
    checking, as `enumerate_diagrams` does).  After a value is placed,
    `step(e, state)` returns the next state, or None to cut the branch.
    `first(e)`, if given, is then asked whether the colors up to slot `e`
    are the first of their isomorphism class (`is_first` of the kernel,
    under the permutations that map those edges onto themselves); if not,
    no completion can be first either, and the branch is cut (orderly
    generation, after R. C. Read, "Every one a winner", Ann. Discrete Math.
    2, 1978).  So each class reaches a complete filling once, as its first
    member in search order.

    `colors` is shared: at a yield it holds the filling, and each slot gets
    its start value back on backtrack, so `values` and `step` may read the
    slots not yet visited as holding their start value.
    """
    def walk(i: int, state):
        if i == len(slots):
            yield state
            return
        e = slots[i]
        start = colors[e]
        for v in values(e):
            colors[e] = v
            nxt = step(e, state)
            if nxt is not None and (first is None or first(e)):
                yield from walk(i + 1, nxt)
        colors[e] = start

    return walk(0, state)


# ---------------------------------------------------------------------------
# Enumeration of diagrams up to isomorphism
# ---------------------------------------------------------------------------


# Slot value of an edge the search has not visited yet; a visited edge holds
# its label index.
UNSET = -1


def _label_masks(size: int, table: dict, rich: Optional[tuple]) -> tuple:
    """Per pair of slot values (a, b) of two edges of a triangle (a label,
    or UNSET), at index (a + 1) * (size + 1) + b + 1, the bitmask of the
    labels x its third edge can take:

    ok: {a, b, x}, UNSET slots dropped, is a sub-multiset of some label-id
        triple `table` allows; with a and b both placed, {a, b, x} is one
        of them.
    can_rich: {a, b, x} is a sub-multiset of the rich type (every label
        when there is none).
    """
    def subs(key):  # the sorted sub-multisets of a sorted triple
        return {tuple(x for i, x in enumerate(key) if placed >> i & 1) for placed in range(8)}

    def masks(keys):  # bit x at (a, b) for each key that is {a, b, x}
        out = [0] * (size + 1) ** 2
        for key in keys:
            for i, x in enumerate(key):
                rest = key[:i] + key[i + 1:] + (UNSET,) * (3 - len(key))
                for a, b in {rest, rest[::-1]}:
                    out[(a + 1) * (size + 1) + b + 1] |= 1 << x
        return out

    ok = masks(set().union(*(subs(key) for key, allowed in table.items() if allowed)))
    if rich is None:
        return ok, [(1 << size) - 1] * (size + 1) ** 2
    return ok, masks(subs(rich))


def enumerate_diagrams(n: int, alphabet: Sequence[AngleForm], allowed: Callable,
                       rich_type: Optional[TriangleType] = None,
                       relations: RelationSet = EMPTY_RELATIONS) -> list:
    """All edge labelings of K_n whose every triangle is `allowed`, up to
    isomorphism; with `rich_type`, only those with at least four orbits
    of triangles of that type.

    `allowed` is a predicate on label-id triples (alphabet positions): a
    triangle labeled alphabet[i], alphabet[j] and alphabet[k] is allowed
    iff `allowed((i, j, k))`, ints with i <= j <= k.  It is asked once for
    each such sorted triple, C(len(alphabet) + 2, 3) times in all, and no
    triangle type is built for it.  `rich_type` is a triangle type
    (`triangle_type_of` of three alphabet labels).

    One orderly search labels the edges in `all_edges` order with label
    ids, trying them in alphabet order at each edge, so complete labelings
    arrive in lexicographic order.  A label is not tried when a triangle
    through the edge forbids it or when it is below the label on the
    edge's floor (`KnTables.floors`), and a branch is cut by
    `step` (below) or when the labels placed so far are not `is_first`.
    The floors hold in every smallest labeling, each because an image
    would be smaller otherwise: (1) vertex 0's star is sorted (sort
    vertices 1..n-1 by their edge to 0); (2) no label is below label(0, 1)
    (map that edge onto (0, 1)), so with a rich type, whose smallest id
    every rich labeling carries, label(0, 1) is at most that id; (3) each
    edge (1, j), j >= 2, is at least label(0, 2) (swap vertices 0 and 1,
    then sort the new star).
    Each isomorphism class is reached exactly once, at its smallest
    labeling (its `canon` over label ids), and only that labeling is
    tested for richness.  This is sound because `allowed` sees each
    triangle's labels alone and richness is an isomorphism invariant: a
    class satisfies them in all its labelings or in none.  The search
    drops only prefixes that no satisfying labeling extends or that break
    a floor, so never a prefix of the smallest labeling of a satisfying
    class; and every prefix of that labeling passes `is_first`, since an
    image of the prefix smaller than it would give an image of the whole
    labeling smaller than it.

    Two mask tables (`_label_masks`), built once per call and indexed by
    the slot values of a triangle's other two edges, give the labels that
    can still complete an allowed triple (a complete triangle must be one)
    and those that can still complete the rich type.  The labels tried at
    an edge are those every triangle through it allows.  The state is the
    bitmask of triangles that can still become the rich type; `step` cuts
    a branch when fewer than four can.  At a complete labeling these are
    exactly the triangles of the rich type.  Its last edge is tested with
    `aut_if_first`, whose walk over the labeling's images also returns its
    automorphisms, and the rich triangles' orbits are counted under that
    group; a `CoxeterDiagram` is built only for a labeling that is kept.
    Results are sorted by canonical key.
    """
    alphabet = [relations.normalize(f) for f in alphabet]
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("alphabet labels must be distinct under the relations")
    size = len(alphabet)
    table = {combo: allowed(combo) for combo in combinations_with_replacement(range(size), 3)}
    rich = None
    if rich_type is not None:
        label_ids = {f: i for i, f in enumerate(alphabet)}
        rich = tuple(sorted(label_ids[f] for f in rich_type))
    ok, can_rich = _label_masks(size, table, rich)
    need = 0 if rich is None else 4

    kn = kn_tables(n)
    es = kn.edges
    m = len(es)
    base = size + 1
    # per edge: (triangle bit, its other two edge indices) for each triangle through it
    incident = [[(1 << t, *(x for x in kn.tri_edges[t] if x != e)) for t in kn.edge_tris[e]]
                for e in range(m)]
    assign = [UNSET] * m

    @cache
    def labels_in(mask: int) -> tuple:
        return tuple(x for x in range(size) if mask >> x & 1)

    floors = kn.floors
    at_least = [((1 << size) - 1) >> x << x for x in range(size)]
    # a rich labeling has a label rich[0], and none below label(0, 1)
    first_mask = (1 << size) - 1 if rich is None else (2 << rich[0]) - 1

    def values(e: int) -> tuple:
        mask = at_least[assign[floors[e]]] if e else first_mask
        for _, a, b in incident[e]:
            mask &= ok[assign[a] * base + assign[b] + base + 1]
        return labels_in(mask)

    def step(e: int, live: int):
        x = assign[e]
        for bit, a, b in incident[e]:
            if not can_rich[assign[a] * base + assign[b] + base + 1] >> x & 1:
                live &= ~bit
        return live if live.bit_count() >= need else None

    if n <= 5:
        names = [chr(ord("u") + i) for i in range(n)]
    else:
        names = [f"v{i}" for i in range(n)]

    group = kn.perms  # K_1 has no edge, so no walk admits its empty labeling

    def first(e: int) -> bool:
        nonlocal group
        if e < m - 1:
            return kn.is_first(assign[:e + 1])
        group = kn.aut_if_first(assign)
        return group is not None

    solutions = []
    for live in coloring_search(assign, range(m), values, step, (1 << len(kn.tri_edges)) - 1,
                                first):
        if rich is not None:
            items = [t for i, t in enumerate(kn.triangles) if live >> i & 1]
            if len(kn.orbits(group, items)) < need:
                continue
        labels = {es[i]: alphabet[x] for i, x in enumerate(assign)}
        solutions.append(CoxeterDiagram(names, labels, relations))
    return sorted(solutions, key=lambda d: d.canonical_key())


# ---------------------------------------------------------------------------
# Abstract edge partitions (colorings with unlabeled classes)
# ---------------------------------------------------------------------------


def coloring_canonical(coloring: tuple, n: int) -> tuple:
    """Smallest image of the coloring, each renumbered by first occurrence;
    equal iff the edge partitions are isomorphic.  An image is renumbered
    only when it is below the smallest so far."""
    best = _renumbered(coloring)
    for g in kn_tables(n).getters:
        image = g(coloring)
        if _renumbered_below(image, best):
            best = _renumbered(image)
    return best


def coloring_automorphisms(coloring: tuple, n: int) -> list:
    return kn_tables(n).aut(coloring)


def enumerate_edge_partitions(n: int, at_least: int) -> list:
    """Set partitions of the K_n edges, up to isomorphism, in which two
    triangle types occur `at_least` times each (and at least once).

    Each edge gets a class already used or the next new one, so each class
    is represented by its `coloring_canonical` form (its first coloring,
    classes numbered by first occurrence), and results come out in that
    order.  The state counts the triangles of each type, a type counted
    when its last edge is colored and keyed by its multiset of classes,
    the sum of 16^class over its three edges (a class occurs at most three
    times); a branch is cut when the triangles still open cannot bring two
    types up to the threshold, or when the prefix is not first among its
    images renumbered.  The siblings at an edge share their parent, so the
    part of that test which reads only the parent
    (`KnTables.renumbered_ties`) is made once per parent, and each sibling
    finishes only the images tied there (`_tied_below`).
    """
    kn = kn_tables(n)
    m = len(kn.edges)
    two = max(at_least, 1)  # a frequent type must occur, even for a threshold of 0
    coloring = [0] * m
    code = [16 ** c for c in range(m)]
    classes = [0] * (m + 1)  # classes[e]: the classes used by edges before e

    def step(e: int, counts: dict):
        x = coloring[e]
        classes[e + 1] = classes[e] + (x == classes[e])
        closes = kn.closes[e]
        if closes:
            counts = counts.copy()
            own = code[x]
            for a, b in closes:
                t = code[coloring[a]] + code[coloring[b]] + own
                counts[t] = counts.get(t, 0) + 1
        elif e:  # the parent passed the same test: same counts, same open triangles
            return counts
        c1 = c2 = 0  # the two largest counts
        for c in counts.values():
            if c > c1:
                c1, c2 = c, c1
            elif c > c2:
                c2 = c
        if max(two - c1, 0) + max(two - c2, 0) > kn.open_after[e]:
            return None
        return counts

    shared = [(None, None)] * m  # per edge: (parent prefix, its renumbered_ties)

    def first(e: int) -> bool:
        parent, ties = shared[e]
        if parent != coloring[:e]:
            parent = coloring[:e]
            ties = kn.renumbered_ties(parent)
            shared[e] = parent, ties
        return ties is not None and not _tied_below(ties, coloring)

    return [tuple(coloring) for _ in coloring_search(
        coloring, range(m), lambda e: range(classes[e] + 1), step, {}, first)]


# ---------------------------------------------------------------------------
# Two-label skeleton enumeration (smallest two angle labels of a diagram)
# ---------------------------------------------------------------------------


def enumerate_two_label_skeletons(n: int = 5,
                                  alpha_shapes: tuple = ("P2+P2", "P2+P3"),
                                  min_beta: int = 2,
                                  min_paths: int = 4) -> list:
    """Disjoint (E_alpha, E_beta) pairs compatible with a rich diagram, up to iso.

    Constraints: the alpha-edges form one of the given shapes; the combined
    two-label graph is triangle-free; at least `min_paths` induced mixed
    paths exist (each is the only way to complete a mixed-type triangle);
    and, when exactly four such paths exist, no permutation preserving both
    edge sets and fixing all remaining free edge slots may permute the four
    path triangles nontrivially (such a symmetry would survive any completion
    and collapse the mixed-triangle orbits below four).

    Each edge gets 0 (free), 1 (alpha) or 2 (beta), none below its floor
    edge's (`KnTables.floors`, which hold since the colors are compared as
    they are), and the state counts the mixed paths: a triangle is tested
    when its last edge is set; it must keep a free edge, and it is a mixed
    path if its edges are free, alpha and beta.  A branch is cut when the
    paths plus the triangles still open fall short of `min_paths`, or when
    `is_first` fails, so the alpha shape and forced-symmetry tests (both
    isomorphism invariants) and `pair_canonical` run once per class.
    Results are sorted by `pair_canonical`.
    """
    kn = kn_tables(n)
    es = kn.edges
    m = len(es)
    asg = [0] * m

    def step(e: int, paths: int):
        for a, b in kn.closes[e]:
            labels = {asg[a], asg[b], asg[e]}
            if 0 not in labels:
                return None  # triangle in the two-label graph
            paths += len(labels) == 3
        return paths if paths + kn.open_after[e] >= min_paths else None

    results = {}
    floors = kn.floors
    for paths in coloring_search(asg, range(m), lambda e: range(asg[floors[e]] if e else 0, 3),
                                 step, 0, lambda e: kn.is_first(asg[:e + 1])):
        if asg.count(2) < min_beta or 1 not in asg:
            continue
        ea = frozenset(e for e, x in zip(es, asg) if x == 1)
        if classify_graph(ea) not in alpha_shapes:
            continue
        if paths == 4 and forced_symmetry_collapses(asg, n):
            continue
        eb = frozenset(e for e, x in zip(es, asg) if x == 2)
        results[pair_canonical(ea, eb, n)] = (ea, eb)
    return [results[k] for k in sorted(results)]


def pair_canonical(ea: frozenset, eb: frozenset, n: int) -> tuple:
    """Smallest (alpha edges, beta edges) image over all vertex orders, each
    as a sorted edge tuple; equal iff the pairs are isomorphic.

    Every image has as many alpha edges as ea and as many beta edges as eb,
    and between two 0/1 indicators with as many ones, the one whose ones
    come first is the larger.  So the smallest position tuples are read
    from the largest image of the alpha indicator followed by the beta one.
    """
    kn = kn_tables(n)
    alpha = tuple(int(e in ea) for e in kn.edges)
    beta = tuple(int(e in eb) for e in kn.edges)
    best = max([g(alpha) + g(beta) for g in kn.getters])
    k = len(kn.edges)
    return (tuple(e for e, x in zip(kn.edges, best[:k]) if x),
            tuple(e for e, x in zip(kn.edges, best[k:]) if x))


def forced_symmetry_collapses(asg: tuple, n: int) -> bool:
    """Does a symmetry that survives every completion move a mixed path?

    `asg` gives each edge 0 (free), 1 (alpha) or 2 (beta); a mixed path is a
    triangle with one edge of each.  Each free edge that closes no path gets
    a color of its own, so the automorphisms of this refined coloring are
    the vertex permutations that keep both label sets and fix every such
    edge, whatever it is labeled later.
    """
    kn = kn_tables(n)
    paths = [k for k, te in enumerate(kn.tri_edges) if {asg[i] for i in te} == {0, 1, 2}]
    closing = {i for k in paths for i in kn.tri_edges[k] if asg[i] == 0}
    fresh = count(3)
    colors = [x if x or i in closing else next(fresh) for i, x in enumerate(asg)]
    # the automorphisms keep each label set, so they map mixed paths onto mixed paths
    return any(len(o) > 1 for o in kn.orbits(kn.aut(colors), [kn.triangles[k] for k in paths]))
