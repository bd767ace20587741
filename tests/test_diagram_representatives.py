"""The diagrams `enumerate_diagrams` returns for the paper's constraint sets,
pinned as fixture data: which labeling represents each isomorphism class,
and their order, not only how many there are.

The enumerator completes one phase-1 skeleton per isomorphism class and
keeps the first labeling of each class in search order; these values are
the ones an enumerator that completes every skeleton returns.
"""

from reptile_lab.coxeter import all_edges

VERTICES = "uvwxy"
CASE_A_RELATIONS = [["gamma", "1/2 pi"], ["alpha", "pi-2*beta"]]

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
    ["pi-2*beta", "beta", "1/2 pi", "beta", "1/2 pi",
     "pi-beta", "1/2 pi", "pi-2*beta", "1/2 pi", "beta"],
    ["pi-2*beta", "beta", "1/2 pi", "beta", "1/2 pi",
     "beta", "1/2 pi", "pi-2*beta", "1/2 pi", "pi-beta"],
    ["pi-2*beta", "beta", "1/2 pi", "beta", "1/2 pi",
     "beta", "1/2 pi", "pi-2*beta", "pi-beta", "1/2 pi"],
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


def test_final_case_representatives(case_analyses):
    for key, rows in PINNED.items():
        want = [fixture([f"{q} pi" for q in row.split()]) for row in rows]
        assert [d.to_fixture() for d in case_analyses[key].diagrams] == want, key


def test_case_a_representatives(case_a_diagrams):
    want = [fixture(labels, CASE_A_RELATIONS) for labels in PINNED_CASE_A]
    assert [d.to_fixture() for d in case_a_diagrams] == want
