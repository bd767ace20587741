import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction as F
from itertools import combinations_with_replacement, permutations, product

import pytest

import reptile_lab
from oracles import (burnside_count_reference, cyclic_subgroups_reference,
                     is_group_reference, is_rich, subgroups_reference)
from reptile_lab import coxeter, fixtures
from reptile_lab.angles import AngleForm, parse_angle
from reptile_lab.coxeter import (ConsistencyError, CoxeterDiagram, all_edges,
                                 classify_graph, coloring_automorphisms, cycle_count,
                                 enumerate_diagrams, enumerate_edge_partitions,
                                 kn_tables, label_subgraph, orbits,
                                 pair_orbit_bound, triangle_type_of)


def pi_form(q):
    return AngleForm.pi_multiple(F(q))


def all_same_k5():
    labels = {e: parse_angle("alpha") for e in all_edges(5)}
    return CoxeterDiagram(list("uvwxy"), labels)


def distinct_k5():
    labels = {e: pi_form(F(i + 1, 23)) for i, e in enumerate(all_edges(5))}
    return CoxeterDiagram(list("uvwxy"), labels)


class TestAutomorphisms:
    def test_distinct_labels_trivial(self):
        assert distinct_k5().automorphisms() == [tuple(range(5))]

    def test_all_same_full_group(self):
        assert len(all_same_k5().automorphisms()) == 120

    def test_fixture_orders(self):
        exp = fixtures.load("expectations")["aut_orders"]
        for key, order in exp.items():
            assert len(fixtures.diagram(key).automorphisms()) == order, key


class TestOrbits:
    def test_monochromatic_triangles_one_orbit(self):
        d = all_same_k5()
        t = d.triangle_type((0, 1, 2))
        assert len(orbits(d, t)) == 1

    def test_case_a_4_mixed_triangles(self):
        d = fixtures.diagram("case-a-4")
        t = triangle_type_of([d.relations.normalize(parse_angle(s))
                              for s in ("alpha", "beta", "gamma")])
        assert len(orbits(d, t)) == 4
        assert is_rich(d, t)

    def test_not_rich(self):
        d = all_same_k5()
        assert not is_rich(d, d.triangle_type((0, 1, 2)))


class TestBurnside:
    def test_symmetric_group_on_three(self):
        group = list(permutations(range(3)))
        assert burnside_count_reference(group, [0, 1, 2], lambda g, x: g[x]) == 1

    def test_transposition_on_pairs(self):
        group = [tuple(range(5)), (1, 0, 2, 3, 4)]
        pairs = [frozenset(e) for e in all_edges(5)]
        act = lambda g, s: frozenset(g[x] for x in s)
        assert burnside_count_reference(group, pairs, act) == 7

    def test_identity_only(self):
        group = [tuple(range(4))]
        assert burnside_count_reference(group, list(range(9)), lambda g, x: x) == 9

    def test_non_group_rejected(self):
        with pytest.raises(ValueError, match="do not form a group"):
            burnside_count_reference([(1, 0, 2, 3, 4)], [0], lambda g, x: x)

    def test_pair_orbit_bound(self):
        assert pair_orbit_bound(5) == 7
        assert pair_orbit_bound(4) == 4
        with pytest.raises(ValueError):
            pair_orbit_bound(1)

    def test_exhaustive_bound_on_five_points(self):
        # the pair orbits of <p> are the cycles of p's edge permutation
        kn = kn_tables(5)
        ident = tuple(range(5))
        tight = False
        for p, im in zip(kn.perms, kn.edge_images):
            if p == ident:
                continue
            cnt = cycle_count(im)
            assert cnt <= 7
            if cnt == 7 and tuple(p[x] for x in p) == ident:
                tight = True
        assert tight

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_subgroups_match_closure_of_all_pairs(self, n):
        # brute force: close every pair of elements under composition; the
        # reference's subgroups and the cyclic ones are those closures
        def closure(gens):
            group = {tuple(range(n))}
            while True:
                new = {tuple(g[x] for x in p) for p in group for g in gens} - group
                if not new:
                    return frozenset(group)
                group |= new
        elements = list(permutations(range(n)))
        order = lambda s: (len(s), sorted(s))
        want = sorted({closure([a, b]) for a in elements for b in elements}, key=order)
        assert subgroups_reference(n) == want
        assert cyclic_subgroups_reference(n) == sorted({closure([a]) for a in elements},
                                                       key=order)

    def test_subgroup_count_on_five_points(self):
        groups = subgroups_reference(5)
        assert len(groups) == 156
        assert len(set(groups)) == 156
        cyclic = cyclic_subgroups_reference(5)
        assert len(cyclic) == 67  # the trivial group and 66 nontrivial ones
        assert len(set(cyclic)) == 67

    def test_group_validation(self):
        assert is_group_reference([tuple(range(3)), (1, 2, 0), (2, 0, 1)])
        assert not is_group_reference([(1, 2, 0)])

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_subgroups_match_reference(self, n):
        # the cyclic subgroups are the reference's subgroups that hold an
        # element of the group's order; the reference walks every closure in
        # full over tuple compositions
        def order(p):
            k, q = 1, p
            while q != tuple(range(n)):
                k, q = k + 1, tuple(p[x] for x in q)
            return k

        assert cyclic_subgroups_reference(n) == [g for g in subgroups_reference(n)
                                                 if any(order(p) == len(g) for p in g)]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_cyclic_subgroups_reach_the_pair_orbit_maximum(self, n):
        # the lemma the pair-orbit check rests on: over the nontrivial
        # subgroups, the most pair orbits is reached by a cyclic subgroup,
        # that is, by the cycles of a non-identity edge permutation
        pairs = [frozenset(e) for e in all_edges(n)]
        act = lambda g, s: frozenset(g[x] for x in s)

        def most(groups):
            return max(burnside_count_reference(sorted(g), pairs, act)
                       for g in groups if len(g) > 1)

        cycles = max(cycle_count(im) for im in kn_tables(n).edge_images[1:])
        assert most(cyclic_subgroups_reference(n)) == most(subgroups_reference(n)) == \
            cycles == {3: 2, 4: 4, 5: 7}[n]

    def test_non_integral_average_raises(self):
        # not a group action: the transposition moves 0 out of the set
        act = lambda g, x: x if g == (0, 1) else x + 1
        with pytest.raises(ConsistencyError):
            burnside_count_reference([(0, 1), (1, 0)], [0], act)

    def test_orbit_miscount_raises(self):
        # the identity's row of the triangle table replaced by another
        # permutation's: the rows are no group, and the fixed points of the
        # 24 rows on the four triangles no longer count one orbit
        kn = kn_tables(4)
        corrupted = kn.tri_images[1:2] + kn.tri_images[1:]
        mono = (0,) * 6
        assert len(kn.orbits(mono, kn.tri_images, range(4))) == 1
        with pytest.raises(ConsistencyError):
            kn.orbits(mono, corrupted, range(4))

    def test_checks_survive_optimize_flag(self):
        script = textwrap.dedent("""
            from reptile_lab.coxeter import ConsistencyError, kn_tables

            kn = kn_tables(4)
            corrupted = kn.tri_images[1:2] + kn.tri_images[1:]
            try:
                kn.orbits((0,) * 6, corrupted, range(4))
            except ConsistencyError:
                print("raised")
            print("debug", __debug__)
            """)
        src = os.path.dirname(os.path.dirname(reptile_lab.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-O", "-c", script],
                             env=dict(os.environ, PYTHONPATH=path),
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["raised", "debug", "False"]


def multiset_masks(size, have, types):
    """Per third label x, bit x set iff {have, x} is a sub-multiset of one
    of the types, by multiset difference."""
    return sum(1 << x for x in range(size)
               if any(not Counter(have + [x]) - Counter(t) for t in types))


def test_label_masks_can_rich_is_sub_multiset():
    # can_rich by membership among the rich type's sub-multisets, against
    # a multiset difference on every pair of slot values and third label
    size = 4
    table = {c: True for c in combinations_with_replacement(range(size), 3)}
    pairs = list(product(range(coxeter.UNSET, size), repeat=2))
    for rich in combinations_with_replacement(range(size), 3):
        _, can_rich = coxeter._label_masks(size, table, rich)
        want = [multiset_masks(size, [x for x in pair if x != coxeter.UNSET], [rich])
                for pair in pairs]
        assert can_rich == want, rich
    assert set(coxeter._label_masks(size, table, None)[1]) == {(1 << size) - 1}


@pytest.mark.parametrize("seed", range(20))
def test_label_masks_ok_is_sub_multiset_of_an_allowed_type(seed):
    rng = random.Random(seed)
    size = rng.randint(1, 5)
    table = {c: rng.random() < 0.4 for c in combinations_with_replacement(range(size), 3)}
    ok, _ = coxeter._label_masks(size, table, None)
    allowed = [c for c, yes in table.items() if yes]
    assert ok == [multiset_masks(size, [x for x in pair if x != coxeter.UNSET], allowed)
                  for pair in product(range(coxeter.UNSET, size), repeat=2)]


class TestSubgraphClassification:
    def test_catalog_names(self):
        assert classify_graph([]) == "empty"
        assert classify_graph([(0, 1), (2, 3)]) == "P2+P2"
        assert classify_graph([(0, 1), (1, 2), (2, 3)]) == "P4"
        assert classify_graph([(0, 1), (0, 2), (0, 3), (1, 4)]) == "fork"

    def test_two_indivisible_b_alpha_is_k4(self):
        d = fixtures.diagram("two-indivisible-b")
        assert label_subgraph(d, parse_angle("alpha")) == "K4"

    def test_ab_class_f_alpha(self):
        ab = fixtures.load("ab_pairs")["f"]
        order = {v: i for i, v in enumerate("uvwxy")}
        edges = [tuple(sorted((order[a], order[b]))) for a, b in ab["alpha"]]
        assert classify_graph(edges) == "P2+P2"

    def test_empty_label(self):
        d = fixtures.diagram("quarter-1")
        assert label_subgraph(d, parse_angle("8/9 pi")) == "empty"

    def test_quarter_fixtures_alpha_shape(self):
        for key in ("quarter-1", "quarter-3"):
            assert label_subgraph(fixtures.diagram(key), parse_angle("1/4 pi")) == "P2+P2"
        assert label_subgraph(fixtures.diagram("quarter-2"), parse_angle("1/4 pi")) == "P2+P3"


class TestEnumeration:
    def test_k3_single_letter(self):
        alphabet = [parse_angle("alpha")]
        found = enumerate_diagrams(3, alphabet, lambda ttype: True)
        assert len(found) == 1

    def test_no_two_isomorphic(self, case_a_diagrams):
        keys = [d.canonical_key() for d in case_a_diagrams]
        assert len(keys) == len(set(keys))
        # canonical form is stable under re-canonicalization
        for d in case_a_diagrams:
            rebuilt = CoxeterDiagram.from_fixture(d.to_fixture())
            assert rebuilt.canonical_key() == d.canonical_key()

    def test_fixture_round_trip(self):
        d = fixtures.diagram("fifth-2")
        again = CoxeterDiagram.from_fixture(d.to_fixture())
        assert again.canonical_key() == d.canonical_key()
        assert again.labels == d.labels

    def test_labels_keyed_by_index_pairs(self):
        # with int vertex names a key is still read as indices, never as names
        a, b, c = (pi_form(F(1, k)) for k in (2, 3, 4))
        d = CoxeterDiagram([2, 0, 1], {(0, 1): a, (2, 0): b, (1, 2): c})
        assert d.labels == {(0, 1): a, (0, 2): b, (1, 2): c}
        with pytest.raises(ValueError, match="every edge exactly once"):
            CoxeterDiagram(list("uvw"), {("u", "v"): a, ("u", "w"): b, ("v", "w"): c})
        with pytest.raises(ValueError, match="every edge exactly once"):
            CoxeterDiagram(list("uvw"), {(0, 1): a, (1, 0): b, (0, 2): b, (1, 2): c})


class TestPartitions:
    def test_two_types_trivial_empty(self):
        res = enumerate_edge_partitions(5, 4)
        assert [c for c in res if len(coloring_automorphisms(c, 5)) == 1] == []

    def test_k4_variant_empty(self):
        res = enumerate_edge_partitions(4, 3)
        assert [c for c in res if len(coloring_automorphisms(c, 4)) == 1] == []

    def test_coloring_automorphisms(self):
        mono = tuple([0] * 10)
        assert len(coloring_automorphisms(mono, 5)) == 120
