"""Edge-labeled complete graphs on 4 or 5 vertices and their combinatorics.

A diagram is a complete graph whose edges carry exact angle forms.  The
module provides label-preserving automorphism groups, orbit counting (with a
Burnside cross-check), richness tests, constraint-driven enumeration of
diagrams up to isomorphism, enumeration of abstract edge partitions, and
classification of single-label subgraphs against a small-graph catalog.

Sizes stay tiny (n <= 5, so at most 120 vertex permutations and 10 edges).
All symmetry goes through one kernel on per-n tables built once
(`kn_tables`): a coloring is an int tuple over the edges in `all_edges`
order, each vertex permutation is stored as an edge permutation with its
`itemgetter`, and two operations answer every question: `aut` (the vertex
permutations fixing a coloring) and `canon` (its smallest image).  A
diagram numbers its label forms once and runs on that coloring; partition
and skeleton canonical forms, subgraph classification and the enumerators'
dedupe are built on the same two operations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import (combinations, combinations_with_replacement, count, permutations,
                       product)
from math import comb
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .angles import (AngleForm, RelationSet, EMPTY_RELATIONS, format_angle,
                     parse_angle)

Edge = tuple  # (i, j) with i < j
TriangleType = tuple  # three AngleForms sorted by sort_key


def _edge(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


def all_edges(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def triangle_type_of(labels: Iterable[AngleForm]) -> TriangleType:
    return tuple(sorted(labels, key=lambda f: f.sort_key()))


@dataclass(frozen=True)
class KnTables:
    """Index tables of K_n (edges in `all_edges` order) and the symmetry kernel."""

    edges: list
    triangles: list  # vertex triples, in combinations order
    tri_edges: list  # per triangle: its three edge indices, ascending
    edge_tris: list  # per edge: the indices of the triangles through it
    perms: list  # vertex permutations, in permutations order
    getters: list  # per vertex permutation p: colors -> image, edge i colored as p(edge i)

    def aut(self, colors: Sequence[int]) -> list:
        """The vertex permutations whose image of the coloring equals it."""
        colors = tuple(colors)
        return [p for p, g in zip(self.perms, self.getters) if g(colors) == colors]

    def canon(self, colors: Sequence[int]) -> tuple:
        """The smallest image of the coloring; equal iff isomorphic."""
        return min([g(colors) for g in self.getters])


@lru_cache(maxsize=8)
def kn_tables(n: int) -> KnTables:
    es = all_edges(n)
    pos = {e: i for i, e in enumerate(es)}
    tris = list(combinations(range(n), 3))
    tri_edges = [(pos[(i, j)], pos[(i, k)], pos[(j, k)]) for i, j, k in tris]
    edge_tris = [[t for t, te in enumerate(tri_edges) if e in te] for e in range(len(es))]
    perms = list(permutations(range(n)))
    # with fewer than two edges every edge permutation is the identity, and
    # itemgetter of one index would return a scalar (of none, raise)
    getters = [itemgetter(*(pos[_edge(p[a], p[b])] for a, b in es)) if len(es) > 1 else tuple
               for p in perms]
    return KnTables(es, tris, tri_edges, edge_tris, perms, getters)


class CoxeterDiagram:
    """Complete graph on named vertices with canonical angle-form edge labels."""

    def __init__(self, vertices: Sequence[str], labels: dict,
                 relations: RelationSet = EMPTY_RELATIONS):
        self.vertices = tuple(vertices)
        self.relations = relations
        n = len(self.vertices)
        index = {v: i for i, v in enumerate(self.vertices)}
        canon = {}
        for key, form in labels.items():
            a, b = tuple(key)
            i, j = (index[a], index[b]) if a in index else (a, b)
            canon[_edge(i, j)] = relations.normalize(form)
        es = all_edges(n)
        if set(canon) != set(es):
            raise ValueError("labels must cover every edge exactly once")
        self.labels = canon
        # label forms numbered once, in sort_key order; symmetry runs on ids
        self.forms = tuple(sorted(set(canon.values()), key=lambda f: f.sort_key()))
        ids = {f: i for i, f in enumerate(self.forms)}
        self.colors = tuple(ids[canon[e]] for e in es)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def label(self, a, b) -> AngleForm:
        if isinstance(a, str):
            a = self.vertices.index(a)
            b = self.vertices.index(b)
        return self.labels[_edge(a, b)]

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
        return (kn_tables(self.n).canon(self.colors), tuple(f.coeffs for f in self.forms))

    # -- fixture IO ----------------------------------------------------------

    @staticmethod
    def from_fixture(data: dict) -> "CoxeterDiagram":
        relations = RelationSet.of(*((sym, parse_angle(lit))
                                     for sym, lit in data.get("relations", [])))
        labels = {}
        for key, lit in data["edges"].items():
            a, b = key.split(",")
            labels[(a.strip(), b.strip())] = parse_angle(lit)
        return CoxeterDiagram(data["vertices"], labels, relations)

    def to_fixture(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "relations": [[sym, format_angle(f)] for sym, f in self.relations.rules],
            "edges": {f"{self.vertices[i]},{self.vertices[j]}": format_angle(f)
                      for (i, j), f in sorted(self.labels.items())},
        }


# ---------------------------------------------------------------------------
# Group actions, orbits, Burnside
# ---------------------------------------------------------------------------


def _compose(p, q):
    return tuple(p[x] for x in q)


def is_group(perms: Sequence[tuple]) -> bool:
    s = set(perms)
    if not s:
        return False
    n = len(next(iter(s)))
    if tuple(range(n)) not in s:
        return False
    for p in s:
        inv = [0] * n
        for i, x in enumerate(p):
            inv[x] = i
        if tuple(inv) not in s:
            return False
        for q in s:
            if _compose(p, q) not in s:
                return False
    return True


class NotAGroupError(ValueError):
    pass


class ConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree."""


def act_on_vertex_set(perm, xs: frozenset) -> frozenset:
    return frozenset(perm[x] for x in xs)


def orbit_partition(group: Sequence[tuple], elements: Sequence, act: Callable) -> list:
    """Orbits of the action, as a list of frozensets covering the elements."""
    remaining = set(elements)
    out = []
    while remaining:
        x = remaining.pop()
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for g in group:
                z = act(g, y)
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        remaining -= orbit
        out.append(frozenset(orbit))
    return sorted(out, key=lambda o: sorted(map(repr, o)))


def burnside_count(group: Sequence[tuple], elements: Sequence, act: Callable) -> int:
    """Orbit count via (1/|G|) * sum of fixed points; validates the group."""
    if not is_group(group):
        raise NotAGroupError("input permutations do not form a group")
    total = sum(sum(1 for x in elements if act(g, x) == x) for g in group)
    count = Fraction(total, len(group))
    if count.denominator != 1:
        raise ConsistencyError(f"Burnside average {count} is not an integer")
    return int(count)


def pair_orbit_bound(m: int) -> int:
    """Upper bound for pair orbits of a nontrivial faithful action on m points."""
    if m < 2:
        raise ValueError("need m >= 2")
    return comb(m, 2) - m + 2


def orbits(diagram: CoxeterDiagram, family: str = "triangles",
           ttype: Optional[TriangleType] = None) -> list:
    """Orbit partition of vertices / edges / triangles-of-type under Aut."""
    group = diagram.automorphisms()
    if family == "vertices":
        elements = list(range(diagram.n))
        act = lambda g, x: g[x]
    elif family == "edges":
        elements = [frozenset(e) for e in diagram.edges()]
        act = act_on_vertex_set
    elif family == "triangles":
        tris = diagram.triangles()
        if ttype is not None:
            tris = [t for t in tris if diagram.triangle_type(t) == ttype]
        elements = [frozenset(t) for t in tris]
        act = act_on_vertex_set
    else:
        raise ValueError(f"unknown family {family!r}")
    parts = orbit_partition(group, elements, act)
    # Burnside cross-check on every call; cheap at this size.
    count = burnside_count(group, elements, act)
    if count != len(parts):
        raise ConsistencyError(
            f"{len(parts)} {family} orbits found, Burnside counts {count}")
    return parts


def is_rich(diagram: CoxeterDiagram, ttype: TriangleType) -> bool:
    """At least four orbits of triangles of the given type."""
    return len(orbits(diagram, "triangles", ttype)) >= 4


def edge_orbit_count_transitive(diagram: CoxeterDiagram, label: AngleForm) -> bool:
    """True iff Aut acts transitively on the edges carrying `label`."""
    label = diagram.relations.normalize(label)
    group = diagram.automorphisms()
    es = [frozenset(e) for e in diagram.edges() if diagram.labels[e] == label]
    return len(orbit_partition(group, es, act_on_vertex_set)) == 1


def subgroups_upto_two_generators(n: int = 5) -> list:
    """All subgroups of the symmetric group on n points generated by <= 2 elements.

    Uses a precomputed Cayley table over element indices; a subgroup closure
    is a breadth-first walk from the identity multiplying by the generators
    (finiteness makes inverses come for free).
    """
    perms = kn_tables(n).perms
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)
    table = [[index[_compose(perms[a], perms[b])] for b in range(size)]
             for a in range(size)]
    ident = index[tuple(range(n))]

    def closure(gens):
        els = {ident}
        frontier = [ident]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = table[x][g]
                if y not in els:
                    els.add(y)
                    frontier.append(y)
        return frozenset(els)

    seen = {}
    cyclic = {}
    for g in range(size):
        grp = closure([g])
        cyclic[g] = grp
        seen[grp] = None
    for a in range(size):
        grp_a = cyclic[a]
        for b in range(a + 1, size):
            if b in grp_a:
                continue  # <a, b> == <a>
            seen[closure([a, b])] = None
    return sorted((frozenset(perms[i] for i in grp) for grp in seen),
                  key=lambda s: (len(s), sorted(s)))


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
# Constraint-driven enumeration of diagrams up to isomorphism
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagramConstraints:
    """Constraint language for diagram enumeration.

    list_rules: ordered (label, allowed-types); a triangle containing the
        rule's label (first match wins) must have its type in the allowed
        set.  A rule label of None matches every triangle.
    forbidden: types never allowed, applied to triangles no rule matched.
    validity: optional predicate on types, applied to triangles no rule
        matched (types inside rule lists are taken as already vetted).
    rich_type: if set, only diagrams with >= 4 orbits of this triangle type
        are returned.
    """

    list_rules: tuple = ()
    forbidden: frozenset = frozenset()
    validity: Optional[Callable] = None
    rich_type: Optional[TriangleType] = None


def _allowed_table(alphabet: Sequence[AngleForm], cons: DiagramConstraints) -> dict:
    table = {}
    for combo in combinations_with_replacement(range(len(alphabet)), 3):
        ttype = triangle_type_of([alphabet[i] for i in combo])
        ok = None
        for lab, allowed in cons.list_rules:
            if lab is None or lab in ttype:
                ok = ttype in allowed
                break
        if ok is None:
            ok = ttype not in cons.forbidden
            if ok and cons.validity is not None:
                ok = bool(cons.validity(ttype))
        table[combo] = ok
    return table


# Slot values of an edge during the search: a label index, UNSET (not yet
# visited), or DEFER (passed over in phase 1; it gets a non-rule label).
UNSET, DEFER = -1, -2


def _slot_tables(size: int, table: dict, phase1: Sequence[int],
                 rich: Optional[tuple]) -> tuple:
    """Per-triangle lookups over its three slot values (a, b, c), at index
    (a + 2) * B^2 + (b + 2) * B + c + 2 with B = size + 2.

    ok: some allowed type contains the placed labels and leaves a non-rule
        label for every DEFER slot (UNSET slots take any label); for three
        placed labels, their type is allowed.
    can_rich: the placed labels are a sub-multiset of the rich type.
    """
    support = set()  # (placed labels sorted, DEFER slots they leave room for)
    for key, allowed in table.items():
        if not allowed:
            continue
        for placed in range(8):
            have = tuple(key[i] for i in range(3) if placed >> i & 1)
            rest = [key[i] for i in range(3) if not placed >> i & 1]
            room = sum(1 for x in rest if x not in phase1)
            support.update((have, d) for d in range(room + 1))
    rich_pool = Counter(rich or ())
    ok, can_rich = [], []
    for slots in product(range(DEFER, size), repeat=3):
        have = tuple(sorted(x for x in slots if x >= 0))
        ok.append((have, slots.count(DEFER)) in support)
        can_rich.append(rich is None or not Counter(have) - rich_pool)
    return ok, can_rich


def enumerate_diagrams(n: int, alphabet: Sequence[AngleForm],
                       constraints: DiagramConstraints,
                       relations: RelationSet = EMPTY_RELATIONS,
                       vertices: Optional[Sequence[str]] = None) -> list:
    """All edge labelings of K_n satisfying the constraints, up to isomorphism.

    Enumeration is a two-phase backtracking over the edges in index order:
    first each edge takes a rule label (the scarce, heavily constrained
    ones) or is deferred, then the deferred edges take the other labels.

    A triangle's three slots (label, deferred, or not yet visited) index
    two tables built once per call: whether some allowed type can still
    complete it (a complete one must itself be allowed), and whether it
    can still become the rich type.  Only the triangles through the edge
    just assigned are looked up (per-edge incidence).  A running count of
    triangles that can still become the rich type is updated on each
    assignment and restored on backtrack, and a branch is abandoned as
    soon as it falls below four.

    A complete labeling is keyed by its minimum over all vertex orders
    (`canon` of the kernel) and skipped if its isomorphism class
    was already seen, so the diagram is built and tested for richness, an
    isomorphism invariant, once per class.  Each class is represented by
    its first labeling in search order; results are sorted by canonical
    key.
    """
    alphabet = [relations.normalize(f) for f in alphabet]
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("alphabet labels must be distinct under the relations")
    cons = constraints
    size = len(alphabet)
    label_ids = {f: i for i, f in enumerate(alphabet)}
    phase1 = [label_ids[lab] for lab, _ in cons.list_rules
              if lab is not None and lab in label_ids]
    others = [i for i in range(size) if i not in phase1]
    rich = None
    if cons.rich_type is not None:
        rich = tuple(sorted(label_ids[f] for f in cons.rich_type))
    ok, can_rich = _slot_tables(size, _allowed_table(alphabet, cons), phase1, rich)
    need = 0 if rich is None else 4

    kn = kn_tables(n)
    es = kn.edges
    m = len(es)
    base = size + 2
    base2 = base * base
    offset = 2 * (base2 + base + 1)
    # per edge: (triangle index, its three edge indices) for each triangle through it
    incident = [[(t, *kn.tri_edges[t]) for t in kn.edge_tris[e]] for e in range(m)]
    assign = [UNSET] * m
    live = [True] * len(kn.tri_edges)  # triangle can still become the rich type

    def place(idx: int, lab: int):
        """Put `lab` on edge idx; the triangles it takes out of the rich
        count, or None if a triangle through idx can no longer be allowed."""
        assign[idx] = lab
        dropped = []
        for t, a, b, c in incident[idx]:
            code = assign[a] * base2 + assign[b] * base + assign[c] + offset
            if not ok[code]:
                return None
            if live[t] and not can_rich[code]:
                dropped.append(t)
        for t in dropped:
            live[t] = False
        return dropped

    if vertices is not None:
        names = list(vertices)
    elif n <= 5:
        names = [chr(ord("u") + i) for i in range(n)]
    else:
        names = [f"v{i}" for i in range(n)]

    seen = set()
    solutions = []

    def finish():
        key = kn.canon(assign)
        if key in seen:
            return
        seen.add(key)
        labels = {es[i]: alphabet[assign[i]] for i in range(m)}
        diagram = CoxeterDiagram(names, labels, relations)
        if cons.rich_type is None or is_rich(diagram, cons.rich_type):
            solutions.append(diagram)

    def fill_rest(idx: int, count: int):
        while idx < m and assign[idx] >= 0:
            idx += 1
        if idx == m:
            finish()
            return
        prev = assign[idx]
        for lab in others:
            dropped = place(idx, lab)
            if dropped is None:
                continue
            if count - len(dropped) >= need:
                fill_rest(idx + 1, count - len(dropped))
            for t in dropped:
                live[t] = True
        assign[idx] = prev

    def skeleton(idx: int, count: int):
        if idx == m:
            fill_rest(0, count)
            return
        for lab in phase1 + [DEFER]:
            dropped = place(idx, lab)
            if dropped is None:
                continue
            if count - len(dropped) >= need:
                skeleton(idx + 1, count - len(dropped))
            for t in dropped:
                live[t] = True
        assign[idx] = UNSET

    if phase1:
        skeleton(0, len(live))
    else:
        fill_rest(0, len(live))
    return sorted(solutions, key=lambda d: d.canonical_key())


# ---------------------------------------------------------------------------
# Abstract edge partitions (colorings with unlabeled classes)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionConstraints:
    two_types_each_at_least: Optional[int] = None
    one_type_at_least: Optional[int] = None
    trivial_automorphisms: Optional[bool] = None
    class_count: Optional[tuple] = None  # (min, max)


def _restricted_growth_strings(m: int):
    rgs = [0] * m
    maxes = [0] * m
    while True:
        yield tuple(rgs)
        i = m - 1
        while i > 0 and rgs[i] == maxes[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        maxes[i] = max(maxes[i - 1], rgs[i])
        for j in range(i + 1, m):
            rgs[j] = 0
            maxes[j] = maxes[i]


def coloring_canonical(coloring: tuple, n: int) -> tuple:
    """Smallest image of the coloring, each renumbered by first occurrence;
    equal iff the edge partitions are isomorphic."""
    def renumbered(image):
        relabel = {}
        return tuple([relabel.setdefault(c, len(relabel)) for c in image])
    return min(renumbered(g(coloring)) for g in kn_tables(n).getters)


def coloring_triangle_types(coloring: tuple, n: int) -> list:
    return [tuple(sorted((coloring[a], coloring[b], coloring[c])))
            for a, b, c in kn_tables(n).tri_edges]


def coloring_automorphisms(coloring: tuple, n: int) -> list:
    return kn_tables(n).aut(coloring)


def enumerate_edge_partitions(n: int, constraints: PartitionConstraints) -> list:
    """Set partitions of the K_n edges satisfying the constraints, up to iso.

    Exhaustive over all Bell(C(n,2)) partitions; n <= 5 keeps this around
    10^5 cases, each filtered by cheap triangle-type counting before the
    automorphism test.
    """
    m = len(all_edges(n))
    cons = constraints
    seen = {}
    for coloring in _restricted_growth_strings(m):
        k = max(coloring) + 1
        if cons.class_count is not None:
            lo, hi = cons.class_count
            if not (lo <= k <= hi):
                continue
        types = coloring_triangle_types(coloring, n)
        counts = {}
        for t in types:
            counts[t] = counts.get(t, 0) + 1
        if cons.one_type_at_least is not None:
            if not any(c >= cons.one_type_at_least for c in counts.values()):
                continue
        if cons.two_types_each_at_least is not None:
            big = [t for t, c in counts.items() if c >= cons.two_types_each_at_least]
            if len(big) < 2:
                continue
        if cons.trivial_automorphisms is not None:
            trivial = len(coloring_automorphisms(coloring, n)) == 1
            if trivial != cons.trivial_automorphisms:
                continue
        seen.setdefault(coloring_canonical(coloring, n), coloring)
    return [seen[k] for k in sorted(seen)]


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

    Each edge is assigned 0 (free), 1 (alpha) or 2 (beta); the counting and
    triangle filters run on that assignment before the alpha shape, which is
    classified once per distinct alpha edge set.
    """
    kn = kn_tables(n)
    es = kn.edges
    shapes = {}  # alpha edge indices -> shape name
    results = {}
    for asg in product(range(3), repeat=len(es)):
        if asg.count(2) < min_beta or 1 not in asg:
            continue
        tri_asg = [(asg[a], asg[b], asg[c]) for a, b, c in kn.tri_edges]
        if any(0 not in t for t in tri_asg):
            continue  # triangle in the two-label graph
        # induced 2-edge paths with one edge from each label (the third
        # edge of their triangle is free)
        paths = sum(1 for t in tri_asg if 1 in t and 2 in t)
        if paths < min_paths:
            continue
        alpha = tuple(i for i, x in enumerate(asg) if x == 1)
        if alpha not in shapes:
            shapes[alpha] = classify_graph([es[i] for i in alpha])
        if shapes[alpha] not in alpha_shapes:
            continue
        if paths == 4 and forced_symmetry_collapses(asg, n):
            continue
        ea = frozenset(es[i] for i in alpha)
        eb = frozenset(e for e, x in zip(es, asg) if x == 2)
        results.setdefault(pair_canonical(ea, eb, n), (ea, eb))
    return [results[k] for k in sorted(results)]


def pair_canonical(ea: frozenset, eb: frozenset, n: int) -> tuple:
    """Smallest (alpha edges, beta edges) image over all vertex orders, each
    as a sorted edge tuple; equal iff the pairs are isomorphic."""
    kn = kn_tables(n)
    colors = tuple(1 if e in ea else 2 if e in eb else 0 for e in kn.edges)

    def split(image):
        return (tuple(i for i, x in enumerate(image) if x == 1),
                tuple(i for i, x in enumerate(image) if x == 2))
    ia, ib = min(split(g(colors)) for g in kn.getters)
    return (tuple(kn.edges[i] for i in ia), tuple(kn.edges[i] for i in ib))


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
    tris = [frozenset(kn.triangles[k]) for k in paths]
    return any(frozenset(p[v] for v in t) != t for p in kn.aut(colors) for t in tris)
