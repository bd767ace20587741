"""Differential test: `enumerate_diagrams` against a naive enumerator.

The naive side labels every edge of K_n in every possible way, asks the
same `allowed` predicate of each triangle's type (the enumerator asks it
of label-id triples, through `on_ids`), keeps the labelings with
at least four orbits of the rich type (via `is_rich`), and dedupes by
`canonical_key`.  The random predicates are built from ordered rules
(first matching label rule wins; otherwise a forbidden set, then a
validity set).  It shares no pruning, incidence table or
dedupe key with the enumerator, so it checks exactly what the fixture
counts cannot: that pruning never drops a diagram and never keeps one.
Each returned diagram must also be the smallest labeling of its class over
alphabet ids, the one labeling of the class the orderly search reaches.
"""

import random
from fractions import Fraction as F
from functools import partial
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, factorial

import pytest

from oracles import is_rich
from reptile_lab.angles import AngleForm
from reptile_lab.coxeter import (CoxeterDiagram, all_edges, enumerate_diagrams, kn_tables,
                                 triangle_type_of)


def naive_keys(n, alphabet, allowed, rich_type):
    es = all_edges(n)
    pos = {e: i for i, e in enumerate(es)}
    tris = [(pos[(i, j)], pos[(i, k)], pos[(j, k)])
            for i, j, k in combinations(range(n), 3)]
    types = {c: triangle_type_of([alphabet[x] for x in c])
             for c in product(range(len(alphabet)), repeat=3)}
    ok = {c: allowed(t) for c, t in types.items()}
    # vertex relabelings as edge permutations, only to group the labelings
    # into isomorphism classes before the (slow) richness test
    eperms = [[pos[tuple(sorted((p[a], p[b])))] for a, b in es]
              for p in permutations(range(n))]
    classes = set()
    keys = set()
    for labeling in product(range(len(alphabet)), repeat=len(es)):
        trip = [(labeling[a], labeling[b], labeling[c]) for a, b, c in tris]
        if not all(ok[t] for t in trip):
            continue
        if rich_type is not None and \
                sum(types[t] == rich_type for t in trip) < 4:
            continue  # fewer triangles of the type than the orbits needed
        cls = min(tuple(labeling[i] for i in ep) for ep in eperms)
        if cls in classes:
            continue
        classes.add(cls)
        d = CoxeterDiagram(list("uvwxy")[:n],
                           {e: alphabet[x] for e, x in zip(es, labeling)})
        if rich_type is not None and not is_rich(d, rich_type):
            continue
        keys.add(d.canonical_key())
    return sorted(keys)


def random_case(seed, n, size):
    rng = random.Random(seed)
    alphabet = [AngleForm.pi_multiple(F(k, 23))
                for k in sorted(rng.sample(range(1, 23), size))]
    types = sorted({triangle_type_of(c)
                    for c in combinations_with_replacement(alphabet, 3)},
                   key=lambda t: [f.sort_key() for f in t])
    rules = []
    for lab in rng.sample(alphabet, rng.randint(0, min(2, size))):
        rules.append((lab, frozenset(t for t in types
                                     if lab in t and rng.random() < 0.7)))
    if rng.random() < 0.15:
        rules.append((None, frozenset(t for t in types if rng.random() < 0.8)))
    forbidden = frozenset(t for t in types if rng.random() < 0.15)
    valid = frozenset(t for t in types if rng.random() < 0.85)
    # K4 has only four triangles, so a rich K4 is rare: there the rich type
    # is mostly left out; on K5 it is mostly a type with three labels
    if n == 4:
        rich_type = rng.choice(types) if rng.random() < 0.3 else None
    elif rng.random() < 0.7:
        rich_type = triangle_type_of(rng.sample(alphabet, 3))
    else:
        rich_type = rng.choice(types)
    check_valid = rng.random() < 0.5

    def allowed(ttype):
        for lab, listed in rules:
            if lab is None or lab in ttype:
                return ttype in listed
        return ttype not in forbidden and (not check_valid or ttype in valid)

    return alphabet, allowed, rich_type


def first_label_unused():
    """Three labels on K5, where every allowed type excludes the first
    label (id 0) and the rich type's smallest id is 1: each answer's
    smallest labeling carries id 1 on edge (0, 1), the largest label the
    search may place there with this rich type."""
    alphabet = [AngleForm.pi_multiple(F(k, 23)) for k in (3, 5, 8)]
    return alphabet, (lambda ttype: alphabet[0] not in ttype), \
        triangle_type_of([alphabet[1], alphabet[1], alphabet[2]])


# name -> (n, builder of (alphabet, allowed, rich type))
CASES = {f"{seed}-{n}-{size}": (n, partial(random_case, seed, n, size))
         for seed, n, size in [(seed, 4, 1 + seed % 4) for seed in range(24)]
         + [(100 + seed, 5, 3) for seed in range(8)]}
CASES["first-label-unused"] = (5, first_label_unused)


def on_ids(alphabet, allowed):
    """The predicate on sorted label-id triples that `enumerate_diagrams`
    takes, read off a predicate on triangle types."""
    return lambda combo: allowed(triangle_type_of([alphabet[x] for x in combo]))


@pytest.mark.parametrize("case", CASES)
def test_matches_naive_enumeration(case):
    n, build = CASES[case]
    alphabet, allowed, rich_type = build()
    found = enumerate_diagrams(n, alphabet, on_ids(alphabet, allowed), rich_type)
    assert [d.canonical_key() for d in found] == naive_keys(n, alphabet, allowed, rich_type)
    for d in found:  # each class is represented by its smallest labeling
        ids = [alphabet.index(d.labels[e]) for e in all_edges(n)]
        assert tuple(ids) == kn_tables(n).canon(ids)
    if case == "first-label-unused":
        assert found and {d.labels[(0, 1)] for d in found} == {alphabet[1]}


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
def test_allowed_asked_once_per_sorted_id_triple(size):
    # the contract of `allowed`: one call per sorted triple of label ids,
    # each an int triple, C(size + 2, 3) calls in all, whatever the answers
    alphabet = [AngleForm.pi_multiple(F(k, 23)) for k in range(1, size + 1)]
    for verdict in (True, False):
        calls = []

        def allowed(combo):
            calls.append(combo)
            return verdict

        found = enumerate_diagrams(3, alphabet, allowed)
        assert len(calls) == comb(size + 2, 3)
        assert sorted(calls) == list(combinations_with_replacement(range(size), 3))
        assert all(type(combo) is tuple and all(type(x) is int for x in combo)
                   for combo in calls)
        # on K3, one class per allowed triple
        assert len(found) == (len(calls) if verdict else 0)


FOUR_LABELS = [AngleForm.pi_multiple(F(q)) for q in ("1/4", "1/3", "1/2", "2/3")]


def cycles(perm):
    seen, count = set(), 0
    for i in range(len(perm)):
        if i not in seen:
            count += 1
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return count


@pytest.mark.parametrize("n,classes", [(4, 276), (5, 10_688)])
def test_every_labeling_allowed(n, classes):
    # with no constraint there is one class per orbit of the labelings
    # under the vertex permutations, which Burnside's lemma counts from the
    # cycles of each edge permutation; every class must come out once, as
    # its smallest labeling
    es = all_edges(n)
    pos = {e: i for i, e in enumerate(es)}
    eperms = [[pos[tuple(sorted((p[a], p[b])))] for a, b in es]
              for p in permutations(range(n))]
    assert sum(len(FOUR_LABELS) ** cycles(ep) for ep in eperms) == classes * factorial(n)
    found = enumerate_diagrams(n, FOUR_LABELS, lambda ttype: True)
    ids = {f: i for i, f in enumerate(FOUR_LABELS)}
    labelings = [tuple(ids[d.labels[e]] for e in es) for d in found]
    assert len(set(labelings)) == len(found) == classes
    kn = kn_tables(n)
    assert all(kn.canon(c) == c for c in labelings)
