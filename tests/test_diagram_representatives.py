"""The diagrams `enumerate_diagrams` returns for the paper's constraint sets,
pinned as fixture data: which labeling represents each isomorphism class,
and their order, not only how many there are.

The enumerator reaches each isomorphism class once, at its smallest
labeling over alphabet ids (edges in `all_edges` order); each pinned row is
that labeling, and the tests check it against the kernel's `canon` too.
"""

from reptile_lab.coxeter import all_edges, kn_tables

VERTICES = "uvwxy"
CASE_A_RELATIONS = [["gamma", "1/2 pi"], ["alpha", "pi-2*beta"]]
# the case-a alphabet alpha, beta, gamma, 2*beta, alpha+beta under the relations
CASE_A_ALPHABET = ["pi-2*beta", "beta", "1/2 pi", "2*beta", "pi-beta"]

# edge labels in `all_edges(5)` order: uv uw ux uy vw vx vy wx wy xy
PINNED = {
    "quarter": [
        "1/4 1/4 1/3 1/2 2/3 1/2 1/3 3/4 1/3 1/4",
        "1/4 1/3 1/3 1/2 1/2 1/2 1/3 1/2 1/4 2/3",
        "1/4 1/3 1/3 1/2 1/2 1/2 2/3 1/2 1/4 1/3",
    ],
    "fifth": [
        "1/5 1/5 1/3 1/2 4/5 1/2 1/3 3/5 1/3 1/5",
        "1/5 1/5 1/3 1/2 4/5 1/2 1/3 2/3 1/3 1/5",
        "1/5 1/5 1/3 1/2 4/5 1/2 1/3 2/3 2/5 1/5",
    ],
    "ninth": [],
}
PINNED_CASE_A = [
    ["pi-2*beta", "beta", "beta", "1/2 pi", "1/2 pi",
     "1/2 pi", "pi-beta", "1/2 pi", "pi-2*beta", "beta"],
    ["pi-2*beta", "beta", "beta", "1/2 pi", "1/2 pi",
     "1/2 pi", "beta", "1/2 pi", "pi-2*beta", "pi-beta"],
    ["pi-2*beta", "beta", "beta", "1/2 pi", "1/2 pi",
     "1/2 pi", "beta", "pi-beta", "pi-2*beta", "1/2 pi"],
    ["pi-2*beta", "pi-2*beta", "beta", "1/2 pi", "2*beta",
     "1/2 pi", "beta", "1/2 pi", "beta", "pi-2*beta"],
    ["pi-2*beta", "pi-2*beta", "beta", "1/2 pi", "2*beta",
     "1/2 pi", "beta", "1/2 pi", "pi-beta", "pi-2*beta"],
]


def fixture(labels, relations=()):
    return {"vertices": list(VERTICES),
            "relations": [list(r) for r in relations],
            "edges": {f"{VERTICES[i]},{VERTICES[j]}": lab
                      for (i, j), lab in zip(all_edges(5), labels)}}


def assert_smallest_of_class(ids):
    assert tuple(ids) == kn_tables(5).canon(ids), ids


def test_final_case_representatives(case_analyses):
    for key, rows in PINNED.items():
        diagrams = case_analyses[key].diagrams
        want = [fixture([f"{q} pi" for q in row.split()]) for row in rows]
        assert [d.to_fixture() for d in diagrams] == want, key
        for d in diagrams:
            # the case-c alphabet is in increasing order of the pi fractions,
            # and `canon` depends only on the order of the ids
            qs = [d.labels[e].pi_fraction() for e in all_edges(5)]
            assert_smallest_of_class([sorted(set(qs)).index(q) for q in qs])


def test_case_a_representatives(case_a_diagrams):
    want = [fixture(labels, CASE_A_RELATIONS) for labels in PINNED_CASE_A]
    assert [d.to_fixture() for d in case_a_diagrams] == want
    for d in case_a_diagrams:
        assert_smallest_of_class([CASE_A_ALPHABET.index(lab)
                                  for lab in d.to_fixture()["edges"].values()])
