"""Differential test: the K_n symmetry kernel against brute force.

Every symmetry question in `coxeter` goes through `kn_tables(n).aut`,
`aut_if_first`, `canon` and `orbits`.  The oracles here answer
the same questions by a direct loop over `itertools.permutations` on edge
tuples, sharing no table with the kernel, on seeded random colorings of K_n
for n = 2..5; orbits are checked against the generic group layer of
`oracles` (closure search and Burnside count on vertex sets) on every
catalog and enumerated diagram too.
`tests/test_enumeration_oracle.py` dedupes through `canonical_key`, so this
test also keeps that oracle independent of the code it checks.
"""

import random
from fractions import Fraction as F
from itertools import combinations, permutations, product

import pytest

from reptile_lab import coxeter, fixtures, scenarios
from reptile_lab.angles import EMPTY_RELATIONS, AngleForm
from reptile_lab.coxeter import (CoxeterDiagram, KnTables, all_edges,
                                 classify_graph, coloring_automorphisms,
                                 coloring_canonical, cycle_count, edge_orbits,
                                 enumerate_diagrams, forced_symmetry_collapses,
                                 kn_tables, orbits, pair_canonical)

from oracles import (act_on_vertex_set, burnside_count_reference,
                     cyclic_subgroups_reference, first_aut_reference,
                     orbit_partition_reference, pair_canonical_reference,
                     prefix_getters_reference, renumbered_first_reference)

NS = (2, 3, 4, 5)


def edge(a, b):
    return (a, b) if a < b else (b, a)


def image(colors, p, n):
    """The coloring whose edge (i, j) has the color of (p[i], p[j])."""
    lab = dict(zip(all_edges(n), colors))
    return tuple(lab[edge(p[i], p[j])] for i, j in all_edges(n))


def brute_aut(colors, n):
    return [p for p in permutations(range(n)) if image(colors, p, n) == tuple(colors)]


def brute_canon(colors, n):
    return min(image(colors, p, n) for p in permutations(range(n)))


def brute_coloring_canonical(colors, n):
    best = None
    for p in permutations(range(n)):
        ids = {}
        key = tuple(ids.setdefault(c, len(ids)) for c in image(colors, p, n))
        best = key if best is None or key < best else best
    return best


def brute_pair_canonical(ea, eb, n):
    return min((tuple(sorted(edge(p[a], p[b]) for a, b in ea)),
                tuple(sorted(edge(p[a], p[b]) for a, b in eb)))
               for p in permutations(range(n)))


def brute_forced(asg, n):
    """Some vertex permutation other than the identity keeps the alpha (1)
    and beta (2) edge sets, fixes each free (0) edge that closes no mixed
    path, and permutes the mixed-path triangles nontrivially."""
    es = all_edges(n)
    lab = dict(zip(es, asg))
    ea = {e for e in es if lab[e] == 1}
    eb = {e for e in es if lab[e] == 2}
    tris = [t for t in ((i, j, k) for i in range(n) for j in range(i + 1, n)
                        for k in range(j + 1, n))
            if {lab[(t[0], t[1])], lab[(t[0], t[2])], lab[(t[1], t[2])]} == {0, 1, 2}]
    closing = {e for t in tris for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))
               if lab[e] == 0}
    fixed = [e for e in es if lab[e] == 0 and e not in closing]
    tris = [frozenset(t) for t in tris]
    for p in permutations(range(n)):
        if p == tuple(range(n)):
            continue
        if {edge(p[a], p[b]) for a, b in ea} != ea or \
                {edge(p[a], p[b]) for a, b in eb} != eb:
            continue
        if any(edge(p[a], p[b]) != (a, b) for a, b in fixed):
            continue
        mapped = [frozenset(p[v] for v in t) for t in tris]
        if mapped != tris and set(mapped) == set(tris):
            return True
    return False


def brute_graph_cert(edges):
    support = sorted({v for e in edges for v in e})
    idx = {v: i for i, v in enumerate(support)}
    es = [(idx[a], idx[b]) for a, b in edges]
    return len(support), min(tuple(sorted(edge(p[a], p[b]) for a, b in es))
                             for p in permutations(range(len(support))))


def random_colorings(n, count, seed):
    rng = random.Random(seed)
    m = n * (n - 1) // 2
    out = []
    for _ in range(count):
        k = rng.randint(1, 4)
        out.append(tuple(rng.randrange(k) for _ in range(m)))
    return out


def relabeled(colors, n, rng):
    """The same coloring under a random vertex permutation and color renaming."""
    p = list(range(n))
    rng.shuffle(p)
    names = list(range(10))
    rng.shuffle(names)
    return tuple(names[c] for c in image(colors, p, n))


@pytest.mark.parametrize("n", NS)
def test_aut_and_canon(n):
    kn = kn_tables(n)
    for colors in random_colorings(n, 150, 10 + n):
        assert kn.aut(colors) == brute_aut(colors, n)
        assert coloring_automorphisms(colors, n) == brute_aut(colors, n)
        assert kn.canon(colors) == brute_canon(colors, n)
        assert kn.canon(list(colors)) == kn.canon(colors)


def brute_firsts(n, colorings):
    """The first labeling of each coloring's class: its smallest image over
    every vertex permutation."""
    es = all_edges(n)
    pos = {e: i for i, e in enumerate(es)}
    eperms = [[pos[edge(p[a], p[b])] for a, b in es] for p in permutations(range(n))]
    return {min(tuple(c[i] for i in ep) for ep in eperms) for c in colorings}


def below_floor(colors, floors):
    return any(f is not None and c < colors[f] for c, f in zip(colors, floors))


def test_floors_hold_on_first_labelings():
    """`enumerate_diagrams` offers an edge no label below the one on its
    floor edge, so every first labeling must obey the table; it also places
    its smallest label on edge (0, 1)."""
    for n in NS:  # the order the table assumes: vertex 0's star, then vertex 1's edges
        assert kn_tables(n).edges[:2 * n - 3] == \
            [(0, j) for j in range(1, n)] + [(1, j) for j in range(2, n)]
    rng = random.Random(42)
    firsts = {
        4: brute_firsts(4, product(range(4), repeat=6)),
        5: brute_firsts(5, product(range(2), repeat=10))
        | brute_firsts(5, [tuple(rng.randrange(k) for _ in range(10))
                           for k in rng.choices(range(3, 6), k=2000)]),
    }
    moved = []  # the table with vertex 1's floor one star edge too far out
    for n, labelings in firsts.items():
        kn = kn_tables(n)
        assert kn.floors[0] is None and all(f < e for e, f in enumerate(kn.floors) if e)
        wrong = tuple(2 if e[0] == 1 else f for e, f in zip(kn.edges, kn.floors))
        for colors in labelings:
            assert not below_floor(colors, kn.floors), colors
            assert colors[0] == min(colors)
        moved.append(sum(below_floor(colors, wrong) for colors in labelings))
    assert all(moved), moved


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_prefix_tables_match_the_set_comprehensions(n):
    # `is_first`'s tables, built in one pass over the edge images, hold
    # the same index tuples, in the same order, as one set per prefix length
    kn = kn_tables(n)
    ident = tuple(range(len(kn.edges)))
    got = [[g(ident) for g in getters] for getters in kn._prefix_getters]
    assert got == prefix_getters_reference(kn)
    assert sum(map(len, got)) > 0 or n == 2


def rgs_children(parent):
    """The restricted growth strings one edge longer than `parent`."""
    return [parent + (x,) for x in range(max(parent, default=-1) + 2)]


def check_renumbered_first(n, parents):
    """The partition search's test of every child of each parent, split
    into the part shared by the siblings and the part each finishes,
    against the minimum over permutations.  Returns how many children were
    cut by the shared part, by a tied image, and kept."""
    kn = kn_tables(n)
    outcomes = [0, 0, 0]
    for parent in parents:
        ties = kn.renumbered_ties(parent)
        for child in rgs_children(parent):
            got = ties is not None and not coxeter._tied_below(ties, child)
            assert got == renumbered_first_reference(child, n), child
            outcomes[2 if got else 0 if ties is None else 1] += 1
    return outcomes


def test_renumbered_first_on_every_k4_prefix():
    parents = [()]
    for parent in parents:
        if len(parent) < len(all_edges(4)) - 1:
            parents.extend(rgs_children(parent))
    outcomes = check_renumbered_first(4, parents)
    # all three outcomes occur, so a shared or a tied image is reached
    assert all(outcomes), outcomes


def test_renumbered_first_on_seeded_k5_prefixes():
    rng = random.Random(46)
    parents = []
    for fresh in (0.15, 0.3, 0.5):  # the chance that an edge opens a new class
        for _ in range(60):
            parent = ()
            for _ in range(rng.randrange(len(all_edges(5)))):
                top = max(parent, default=-1)
                parent += (rng.randint(0, top) if parent and rng.random() >= fresh else top + 1,)
            parents.append(parent)
    outcomes = check_renumbered_first(5, parents)
    assert all(outcomes), outcomes


@pytest.mark.parametrize("n", NS)
def test_canonical_key(n):
    rng = random.Random(20 + n)
    forms = [AngleForm.pi_multiple(F(k, 29)) for k in range(1, 6)]
    for colors in random_colorings(n, 60, 30 + n):
        rng.shuffle(forms)
        d = CoxeterDiagram(list("uvwxy")[:n], {e: forms[c] for e, c in zip(all_edges(n), colors)})
        used = sorted(set(d.labels.values()), key=lambda f: f.coeffs)
        ids = {f: i for i, f in enumerate(used)}
        ranked = tuple(ids[d.labels[e]] for e in all_edges(n))
        assert d.canonical_key() == (brute_canon(ranked, n), tuple(used))
        assert d.automorphisms() == brute_aut(ranked, n)
        p = list(range(n))
        rng.shuffle(p)
        moved = CoxeterDiagram(d.vertices, {edge(p[i], p[j]): f for (i, j), f in d.labels.items()})
        assert moved.canonical_key() == d.canonical_key()


@pytest.mark.parametrize("n", NS)
def test_coloring_canonical(n):
    rng = random.Random(40 + n)
    for colors in random_colorings(n, 100, 50 + n):
        want = brute_coloring_canonical(colors, n)
        assert coloring_canonical(colors, n) == want
        assert coloring_canonical(relabeled(colors, n, rng), n) == want


@pytest.mark.parametrize("n", NS)
def test_pair_canonical(n):
    rng = random.Random(60 + n)
    es = all_edges(n)
    for colors in random_colorings(n, 100, 70 + n):
        ea = frozenset(e for e, c in zip(es, colors) if c == 1)
        eb = frozenset(e for e, c in zip(es, colors) if c == 2)
        want = brute_pair_canonical(ea, eb, n)
        assert pair_canonical(ea, eb, n) == want
        p = list(range(n))
        rng.shuffle(p)
        pa = frozenset(edge(p[a], p[b]) for a, b in ea)
        pb = frozenset(edge(p[a], p[b]) for a, b in eb)
        assert pair_canonical(pa, pb, n) == want


def test_pair_canonical_matches_position_tuples():
    """Against the minimum over position tuples: every alpha/beta pair on
    K4, and a seeded sample of 1,000 on K5."""
    pairs = [(4, c) for c in product((0, 1, 2), repeat=6)]
    rng = random.Random(61)
    pairs += [(5, tuple(rng.choice((0, 1, 2)) for _ in range(10))) for _ in range(1000)]
    for n, colors in pairs:
        ea = frozenset(e for e, c in zip(all_edges(n), colors) if c == 1)
        eb = frozenset(e for e, c in zip(all_edges(n), colors) if c == 2)
        assert pair_canonical(ea, eb, n) == pair_canonical_reference(ea, eb, n)


def reference_orbits(group, elements):
    """Orbits of vertex sets by closure search, checked by Burnside's count."""
    elements = [frozenset(x) for x in elements]
    parts = orbit_partition_reference(group, elements, act_on_vertex_set)
    assert burnside_count_reference(group, elements, act_on_vertex_set) == len(parts)
    return parts


def as_vertex_sets(parts):
    return [frozenset(map(frozenset, o)) for o in parts]


def test_orbits_match_the_generic_reference(case_analyses, case_a_diagrams):
    diagrams = [fixtures.diagram(key) for key in fixtures.load("diagrams")]
    diagrams += [d for analysis in case_analyses.values() for d in analysis.diagrams]
    diagrams += case_a_diagrams
    for d in diagrams:
        group = brute_aut(d.colors, d.n)
        for ttype in [None, *dict.fromkeys(map(d.triangle_type, d.triangles()))]:
            tris = [t for t in d.triangles() if ttype is None or d.triangle_type(t) == ttype]
            assert as_vertex_sets(orbits(d, ttype)) == reference_orbits(group, tris)
        for label in d.label_set():
            es = [e for e in d.edges() if d.labels[e] == label]
            assert as_vertex_sets(edge_orbits(d, label)) == reference_orbits(group, es)
    for n in (4, 5):
        kn = kn_tables(n)
        for colors in random_colorings(n, 200, 60 + n):
            group = brute_aut(colors, n)
            aut = kn.aut(colors)
            lab = dict(zip(kn.edges, colors))
            kinds = [tuple(sorted(lab[e] for e in ((i, j), (i, k), (j, k))))
                     for i, j, k in kn.triangles]
            for kind in [None, *set(kinds)]:
                items = [t for t, x in zip(kn.triangles, kinds) if kind is None or x == kind]
                got = kn.orbits(aut, items)
                assert as_vertex_sets(got) == reference_orbits(group, items), colors
            for c in set(colors):
                items = [e for e, x in zip(kn.edges, colors) if x == c]
                got = kn.orbits(aut, items)
                assert as_vertex_sets(got) == reference_orbits(group, items), colors


FOUR_LABELS = [AngleForm.pi_multiple(F(q)) for q in ("1/4", "1/3", "1/2", "2/3")]


def test_last_edge_walk_returns_the_automorphism_group(monkeypatch):
    """`aut_if_first` on every complete labeling the diagram search
    reaches, in the three `final_case_analysis` keys, case-b, the case-a
    enumeration and the unconstrained searches over four labels on K4 and
    K5: None iff some image is smaller, else the automorphism group, both
    by `oracles.first_aut_reference`.  The rich orbit count the search
    makes on that group is made on the rich type's triangles and equals
    the generic reference's count, and a labeling is kept iff it has four
    orbits."""
    searches = []  # per search: n, rich label ids, walks, labelings kept
    run_walk, run_orbits = KnTables.aut_if_first, KnTables.orbits

    def walk(self, colors):
        group = run_walk(self, colors)
        searches[-1]["walks"].append([tuple(colors), group, None])
        return group

    def count(group, items):
        out = run_orbits(group, items)
        last = searches[-1]["walks"][-1]
        assert last[1] is group and last[2] is None
        last[2] = (sorted(items), len(out))
        return out

    def search(n, alphabet, allowed, rich_type=None, relations=EMPTY_RELATIONS):
        forms = [relations.normalize(f) for f in alphabet]
        rich = None if rich_type is None else sorted(map(forms.index, rich_type))
        searches.append({"n": n, "rich": rich, "walks": []})
        found = coxeter.enumerate_diagrams(n, alphabet, allowed, rich_type, relations)
        searches[-1]["kept"] = len(found)
        return found

    monkeypatch.setattr(KnTables, "aut_if_first", walk)
    monkeypatch.setattr(KnTables, "orbits", staticmethod(count))
    monkeypatch.setattr(scenarios, "enumerate_diagrams", search)
    for key in ("quarter", "fifth", "ninth", "case-b"):
        scenarios.final_case_analysis(key)
    scenarios.case_a_enumeration()
    for n in (4, 5):
        search(n, FOUR_LABELS, lambda combo: True)
    monkeypatch.undo()
    assert len(searches) == 7

    seen = set()
    for rec in searches:
        n, rich = rec["n"], rec["rich"]
        pos = {e: i for i, e in enumerate(all_edges(n))}
        kept = 0
        for colors, group, counted in rec["walks"]:
            first, aut = first_aut_reference(colors, n)
            assert group == (aut if first else None), colors
            seen.add("cut" if group is None else "trivial" if len(group) == 1 else "symmetric")
            if group is None or rich is None:
                assert counted is None
                kept += group is not None
                continue
            tris = [t for t in combinations(range(n), 3)
                    if sorted(colors[pos[e]] for e in combinations(t, 2)) == rich]
            assert counted == (tris, len(reference_orbits(aut, tris))), colors
            kept += counted[1] >= 4
            seen.add("rich" if counted[1] >= 4 else "poor")
        assert kept == rec["kept"]
    assert seen == {"cut", "trivial", "symmetric", "rich", "poor"}


@pytest.mark.parametrize("n", (3, 4, 5))
def test_edge_cycles_count_the_pair_orbits_of_a_cyclic_group(n):
    """The pair orbits of <p> are the cycles of p's edge permutation."""
    assert [cycle_count(p) for p in ((), (0,), (1, 0, 2), (1, 2, 0), (1, 0, 3, 2))] == \
        [0, 1, 2, 1, 2]
    kn = kn_tables(n)
    cyclic = cyclic_subgroups_reference(n)
    pairs = [frozenset(e) for e in kn.edges]
    for p, im in zip(kn.perms, kn.edge_images):
        group = next(g for g in cyclic if p in g)  # the smallest is <p>
        assert cycle_count(im) == burnside_count_reference(sorted(group), pairs,
                                                           act_on_vertex_set), p


@pytest.mark.parametrize("n", (3, 4, 5))
def test_forced_symmetry(n):
    rng = random.Random(80 + n)
    m = n * (n - 1) // 2
    seen = set()
    for _ in range(400):
        asg = tuple(rng.randrange(3) for _ in range(m))
        got = forced_symmetry_collapses(asg, n)
        assert got == brute_forced(asg, n), asg
        seen.add(got)
    # K3 has one triangle, so no symmetry can move it
    assert seen == ({False} if n == 3 else {False, True})


def test_forced_symmetry_on_skeleton_inputs():
    """Assignments of the kind the skeleton enumerator checks: triangle-free,
    with exactly four mixed paths."""
    kn = kn_tables(5)
    rng = random.Random(90)
    seen = []
    while len(seen) < 150:
        asg = tuple(rng.randrange(3) for _ in range(10))
        tris = [{asg[i] for i in te} for te in kn.tri_edges]
        if any(0 not in t for t in tris) or sum(t == {0, 1, 2} for t in tris) != 4:
            continue
        seen.append(forced_symmetry_collapses(asg, 5))
        assert seen[-1] == brute_forced(asg, 5), asg
    assert set(seen) == {False, True}


def test_classify_graph_partition_matches_brute_force():
    """Two graphs on at most 5 vertices get the same name iff isomorphic."""
    es = all_edges(5)
    names, certs = {}, {}
    for mask in range(1 << len(es)):
        edges = [e for i, e in enumerate(es) if mask >> i & 1]
        names.setdefault(classify_graph(edges), set()).add(brute_graph_cert(edges))
        certs.setdefault(brute_graph_cert(edges), set()).add(classify_graph(edges))
    assert all(len(v) == 1 for v in names.values())
    assert all(len(v) == 1 for v in certs.values())


def test_classify_catalog_graphs_under_relabeling():
    rng = random.Random(99)
    es = all_edges(5)
    for key, name in coxeter._CATALOG.items():
        edges = [e for e, x in zip(es, key) if x]
        for _ in range(10):
            spot = rng.sample(range(12), 5)  # any five vertex names
            moved = [(spot[a], spot[b]) if rng.random() < 0.5 else (spot[b], spot[a])
                     for a, b in edges]
            rng.shuffle(moved)
            assert classify_graph(moved) == name


def test_classify_graph_rejects_six_vertices():
    with pytest.raises(ValueError):
        classify_graph([(0, 1), (2, 3), (4, 5)])


@pytest.mark.parametrize("n,count", [(1, 1), (2, 3)])
def test_enumerate_small_n(n, count):
    """K1 has no edge and K2 one: the tables fall back from itemgetter."""
    alphabet = [AngleForm.pi_multiple(F(k, 7)) for k in (1, 2, 3)]
    found = enumerate_diagrams(n, alphabet, lambda ttype: True)
    assert len(found) == count
    for d in found:
        assert d.automorphisms() == brute_aut(d.colors, n)
        assert d.canonical_key()[0] == brute_canon(d.colors, n)
