"""Differential tests: the partition and skeleton searches against naive walks.

`enumerate_edge_partitions` and `enumerate_two_label_skeletons` are pruned
depth-first searches that cut every branch holding no first coloring of an
isomorphism class.  The naive sides here walk every coloring with no
pruning: all restricted growth strings of the K_n edges (one per set
partition), and all 0/1/2 assignments in `itertools.product` order.  They
apply each constraint to the complete coloring and keep the first coloring
of each class in walk order; a class is decided on its first member and
all its images under the vertex permutations (from `itertools.permutations`,
not the kernel) are marked, so later members are skipped.  The full
returned lists are compared, so the representatives and their order are
checked, not only the counts.

Each walk runs once per module; every constraint set is then a filter over
its records.
"""

import random
from itertools import permutations, product

import pytest

from reptile_lab import coxeter
from reptile_lab.angles import parse_angle
from reptile_lab.coxeter import (CoxeterDiagram, all_edges, classify_graph, coloring_automorphisms,
                                 coloring_canonical, coloring_search, enumerate_diagrams,
                                 enumerate_edge_partitions, enumerate_two_label_skeletons,
                                 forced_symmetry_collapses, pair_canonical)
from reptile_lab.scenarios import case_a_enumeration, final_case_analysis


def edge_perms(n):
    es = all_edges(n)
    pos = {e: i for i, e in enumerate(es)}
    return [[pos[tuple(sorted((p[a], p[b])))] for a, b in es]
            for p in permutations(range(n))]


def triangles(n):
    pos = {e: i for i, e in enumerate(all_edges(n))}
    return [(pos[(i, j)], pos[(i, k)], pos[(j, k)])
            for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)]


def images(coloring, eperms, renumber=False):
    out = set()
    for ep in eperms:
        image = tuple(coloring[i] for i in ep)
        if renumber:
            first = {}
            image = tuple(first.setdefault(c, len(first)) for c in image)
        out.add(image)
    return out


def restricted_growth_strings(m):
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


def partition_walk(n):
    """(coloring, triangle type counts) for every partition."""
    tris = triangles(n)
    bit = [1 << 4 * c for c in range(len(all_edges(n)))]  # a type as a multiset of classes
    out = []
    for coloring in restricted_growth_strings(len(all_edges(n))):
        types = [bit[coloring[a]] + bit[coloring[b]] + bit[coloring[c]] for a, b, c in tris]
        out.append((coloring, [types.count(t) for t in set(types)]))
    return out


def naive_partitions(n, walk, at_least, trivial):
    eperms = edge_perms(n)
    decided = set()
    found = []
    for coloring, counts in walk:
        if sum(c >= at_least for c in counts) < 2:
            continue
        if coloring in decided:
            continue
        same = images(coloring, eperms, renumber=True)
        decided |= same
        if trivial is not None and (len(coloring_automorphisms(coloring, n)) == 1) != trivial:
            continue
        found.append((min(same), coloring))
    return [coloring for _, coloring in sorted(found)]


@pytest.fixture(scope="module")
def walk4():
    return partition_walk(4)


@pytest.fixture(scope="module")
def walk5():
    return partition_walk(5)


THRESHOLDS_4 = [0, 1, 2, 3, 4, 5]  # K4 has four triangles
# the callers' symmetry filter: none, symmetry-free only, or symmetric only
TRIVIAL = [None, True, False]


def check_partitions(n, walk, sets):
    for at_least, trivial in sets:
        got = [c for c in enumerate_edge_partitions(n, at_least)
               if trivial is None or (len(coloring_automorphisms(c, n)) == 1) == trivial]
        assert got == naive_partitions(n, walk, at_least, trivial), (at_least, trivial)


def test_k4_thresholds(walk4):
    check_partitions(4, walk4, [(two, trivial) for two in THRESHOLDS_4 for trivial in TRIVIAL])


def test_k5_constraint_sets_in_use(walk5):
    check_partitions(5, walk5, [(4, None), (4, True)])


def test_partitions_are_their_canonical_forms():
    # two-indivisible compares the K5 partitions with the catalog's
    # canonical forms as they come
    for n, at_least in [(4, 2), (5, 3), (5, 4)]:
        for c in enumerate_edge_partitions(n, at_least):
            assert coloring_canonical(c, n) == c


def random_k5_constraints(seed):
    """Thresholds near where the answer runs out: K5 has ten triangles."""
    rng = random.Random(seed)
    return rng.choice([2, 3, 4, 5]), rng.choice(TRIVIAL)


def test_k5_seeded_sets(walk5):
    sets = [random_k5_constraints(seed) for seed in range(10)]
    check_partitions(5, walk5, sets)


def skeleton_walk(n):
    """(assignment, mixed paths) for every 0/1/2 edge assignment of K_n
    whose two-label graph is triangle-free, in product order."""
    tris = triangles(n)
    out = []
    for asg in product(range(3), repeat=len(all_edges(n))):
        tri_asg = [(asg[a], asg[b], asg[c]) for a, b, c in tris]
        if any(0 not in t for t in tri_asg):
            continue
        out.append((asg, sum(1 for t in tri_asg if 1 in t and 2 in t)))
    return out


def naive_skeletons(n, walk, alpha_shapes, min_beta, min_paths):
    es = all_edges(n)
    eperms = edge_perms(n)
    decided = set()
    results = {}
    for asg, paths in walk:
        if asg.count(2) < min_beta or 1 not in asg or paths < min_paths:
            continue
        if asg in decided:
            continue
        decided |= images(asg, eperms)
        if classify_graph([e for e, x in zip(es, asg) if x == 1]) not in alpha_shapes:
            continue
        if paths == 4 and forced_symmetry_collapses(asg, n):
            continue
        ea = frozenset(e for e, x in zip(es, asg) if x == 1)
        eb = frozenset(e for e, x in zip(es, asg) if x == 2)
        results[pair_canonical(ea, eb, n)] = (ea, eb)
    return [results[k] for k in sorted(results)]


SKELETON_VARIANTS = [
    (("P2+P2", "P2+P3"), 2, 4),  # the defaults, as case-c uses them
    (("P2+P2", "P2+P3"), 0, 0),
    (("P2+P2",), 1, 3),
    (("P3",), 3, 2),
    (("P2", "P3", "K1,3", "P4"), 0, 5),
    (("C4", "P2+P2", "P5"), 3, 4),
]


def test_skeletons_match_naive_walk():
    walk = skeleton_walk(5)
    for variant in SKELETON_VARIANTS:
        assert enumerate_two_label_skeletons(5, *variant) == \
            naive_skeletons(5, walk, *variant), variant


def test_k4_skeletons_match_naive_walk():
    walk = skeleton_walk(4)
    shapes = ("P2", "P3", "P2+P2", "K1,3", "triangle")
    for min_paths in range(4):
        assert enumerate_two_label_skeletons(4, shapes, 1, min_paths) == \
            naive_skeletons(4, walk, shapes, 1, min_paths), min_paths


TRY = (2, 0, 1)  # a try order other than the natural one


def recording(colors):
    """A `step` that accepts every value and appends it to the state."""
    return lambda e, state: state + (colors[e],)


class TestColoringSearch:
    """`coloring_search` itself, on a few slots with plain callables."""

    def test_accepting_step_yields_every_filling_in_try_order(self):
        colors = [9] * 4
        got = [(state, tuple(colors)) for state in
               coloring_search(colors, [0, 2, 3], lambda e: TRY, recording(colors), ())]
        want = list(product(TRY, repeat=3))
        assert [state for state, _ in got] == want
        assert [filled for _, filled in got] == [(a, 9, b, c) for a, b, c in want]

    def test_values_per_slot(self):
        colors = [0] * 3
        got = list(coloring_search(colors, range(3), lambda e: range(e + 1),
                                   recording(colors), ()))
        assert got == list(product(range(1), range(2), range(3)))

    def test_step_none_removes_exactly_that_subtree(self):
        colors = [0] * 3

        def step(e, state):
            state += (colors[e],)
            return None if state[:2] == (0, 1) or state == (1, 2, 2) else state

        got = list(coloring_search(colors, range(3), lambda e: TRY, step, ()))
        assert got == [p for p in product(TRY, repeat=3) if p[:2] != (0, 1) and p != (1, 2, 2)]

    def test_false_first_removes_exactly_that_subtree(self):
        colors = [0] * 3
        cut = {(2, 2), (1, 0, 1)}
        got = list(coloring_search(colors, range(3), lambda e: TRY, recording(colors), (),
                                   lambda e: tuple(colors[:e + 1]) not in cut))
        assert got == [p for p in product(TRY, repeat=3) if p[:2] != (2, 2) and p != (1, 0, 1)]

    def test_zero_slots_yield_the_start_state_once(self):
        def never(e, state):
            raise AssertionError("no slot to step")

        colors = [4, 5]
        assert list(coloring_search(colors, [], lambda e: TRY, never, "start")) == ["start"]
        assert colors == [4, 5]

    def test_diagram_skeleton_with_no_deferred_edge(self):
        # a one-label alphabet whose one triangle, label ids (0, 0, 0), is
        # allowed: the search has a single value to try at every edge and
        # reaches one labeling
        a = parse_angle("alpha")
        found = enumerate_diagrams(4, [a], {(0, 0, 0)}.__contains__)
        assert len(found) == 1
        assert set(found[0].labels.values()) == {a}

    def test_colors_restored_when_exhausted(self):
        colors = [7, 8, 9]
        searches = [
            coloring_search(colors, [0, 2], lambda e: TRY, recording(colors), ()),
            coloring_search(colors, [2, 0], lambda e: TRY, lambda e, s: None, ()),
            coloring_search(colors, [0, 2], lambda e: TRY, recording(colors), (),
                            lambda e: colors[0] != 0),
        ]
        for search in searches:
            for _ in search:
                assert colors[1] == 8
            assert colors == [7, 8, 9]

    def test_nested_search_on_shared_colors(self):
        colors = [-1, -1]
        got = []
        for _ in coloring_search(colors, [0], lambda e: (0, 1), recording(colors), ()):
            for _ in coloring_search(colors, [1], lambda e: (5, 6), recording(colors), ()):
                got.append(tuple(colors))
            assert colors[1] == -1
        assert got == [(0, 5), (0, 6), (1, 5), (1, 6)]
        assert colors == [-1, -1]


# (calls, passes) of the `first` callback of each search the scenarios run:
# a change to what the search tries or cuts moves them
WORK = {
    "quarter": (lambda: final_case_analysis("quarter").diagrams, (259, 228)),
    "fifth": (lambda: final_case_analysis("fifth").diagrams, (626, 538)),
    "ninth": (lambda: final_case_analysis("ninth").diagrams, (309, 289)),
    "case-a": (case_a_enumeration, (216, 197)),
    "k5-partitions-4": (lambda: enumerate_edge_partitions(5, 4), (755, 482)),
    "skeletons": (enumerate_two_label_skeletons, (705, 459)),
}


@pytest.mark.parametrize("name", WORK)
def test_orderly_search_work(name, monkeypatch):
    tallies, built = [], []
    search = coxeter.coloring_search
    init = CoxeterDiagram.__init__

    def counted_search(colors, slots, values, step, state, first):
        tally = [0, 0]
        tallies.append(tally)

        def counted_first(e):
            passed = first(e)
            tally[0] += 1
            tally[1] += passed
            return passed

        return search(colors, slots, values, step, state, counted_first)

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(coxeter, "coloring_search", counted_search)
    monkeypatch.setattr(CoxeterDiagram, "__init__", counted_init)
    run, work = WORK[name]
    found = run()
    assert [tuple(t) for t in tallies] == [work]
    # a diagram is built for each labeling kept, not for each one reached
    assert len(built) == sum(isinstance(d, CoxeterDiagram) for d in found)
