"""End-to-end verification scenarios with structured pass/fail reports.

Each scenario re-executes one block of the case analysis from first
principles and records checkpoints.  A checkpoint carries the expected
value with a provenance tag ("reference" for externally known values,
"trivial" for immediate facts, "derived" for values computed here by an
independent oracle), the actual value, and an anchor into the fixture
catalog.  Scenarios take no settings: the edge tolerance and the search
node budget are the constants of `realize`, echoed in each report head as
`config`.  Reports are deterministic; timings are kept out of the
comparison payload.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Optional

from . import fixtures
from .angles import AngleForm, RelationSet, parse_angle
from .coxeter import (coloring_automorphisms, coloring_canonical, cycle_count,
                      edge_orbit_count_transitive, edge_orbits, enumerate_diagrams,
                      enumerate_edge_partitions, enumerate_two_label_skeletons,
                      kn_tables, label_subgraph, pair_canonical, pair_orbit_bound,
                      triangle_type_of)
from .exactmath import Poly, cos_pi, isolate_roots
from .gram import fiedler_check, gram_from_diagram, parametric_fiedler
from .hill import (EuclideanSimplex, compatibility_graph, congruent,
                   generate_h1_tiling, generate_h2_h1_tiles, hill_simplex,
                   pair_h2_tiling, signed_perms, tiling_report, LatticeTile)
from .realize import (EDGE_TOL, NODE_BUDGET, EdgeMatch, TileSpec,
                      edge_combination, enumerate_candidates, search_tiling,
                      verify_tiling)
from .spherical import (area_multiple, corner_angle_solutions,
                        corner_angle_solutions_rational_scan, is_valid_symbolic,
                        opposite_edge, pi_numerators, straight_angle_combinations)


# The constants every verdict rests on, echoed in each report head.
CONFIG = {"tol": EDGE_TOL, "node_budget": NODE_BUDGET}


class Checkpoint:
    __slots__ = ("id", "description", "expected", "actual", "passed", "provenance",
                 "anchor")

    def __init__(self, id: str, description: str, expected, actual, passed: bool,
                 provenance: str, anchor: str):
        self.id = id
        self.description = description
        self.expected = expected
        self.actual = actual
        self.passed = passed
        self.provenance = provenance
        self.anchor = anchor

    def to_json(self) -> dict:
        return {"id": self.id, "description": self.description,
                "expected": _jsonable(self.expected),
                "actual": _jsonable(self.actual),
                "pass": self.passed, "provenance": self.provenance,
                "anchor": self.anchor}


class Report:
    __slots__ = ("scenario", "checkpoints", "seconds", "tilings")

    def __init__(self, scenario: str):
        self.scenario = scenario
        self.checkpoints = []
        self.seconds = 0.0
        self.tilings = []  # (name, SphTiling)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checkpoints)

    def json_lines(self, include_timing: bool = True) -> str:
        head = {"format": "report/1", "scenario": self.scenario,
                "config": CONFIG, "pass": self.passed}
        if include_timing:
            head["seconds"] = round(self.seconds, 3)
        lines = [json.dumps(head, sort_keys=True)]
        lines += [json.dumps(c.to_json(), sort_keys=True) for c in self.checkpoints]
        return "\n".join(lines)

    def summary(self) -> str:
        rows = [f"scenario {self.scenario}: "
                f"{sum(c.passed for c in self.checkpoints)}/{len(self.checkpoints)} "
                f"checkpoints passed ({self.seconds:.2f}s)"]
        for c in self.checkpoints:
            mark = "ok " if c.passed else "FAIL"
            rows.append(f"  [{mark}] {c.id}: {c.description}")
            if not c.passed:
                rows.append(f"         expected {c.expected!r}, got {c.actual!r}")
        return "\n".join(rows)

    def check(self, cid, description, expected, actual, provenance, anchor,
              equal: Optional[Callable] = None) -> None:
        ok = equal(expected, actual) if equal else expected == actual
        self.checkpoints.append(
            Checkpoint(cid, description, expected, actual, bool(ok), provenance, anchor))


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (set, frozenset)):
        return sorted(_jsonable(v) for v in x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return x


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _tile(key: str) -> TileSpec:
    qs = [Fraction(s) for s in fixtures.load("expectations")["tile_bases"][key]]
    return TileSpec.from_pi_fractions(*qs)


def _triples(entries) -> list:
    return sorted(tuple(sorted(Fraction(s) for s in t)) for t in entries)


# sqrt m = k cos(q pi) + s, for the fields of the fixture's {a, b, m}
_SQRTS = {2: (2, Fraction(1, 4), 0), 5: (4, Fraction(1, 5), -1)}


def _pi_form(q) -> AngleForm:
    return AngleForm.pi_multiple(Fraction(q))


class FinalCaseAnalysis:
    """The endgame of one tile: the lists for its two smallest distinct
    angles and the rich diagrams they allow (see `final_case_analysis`)."""

    __slots__ = ("tile", "alpha_list", "beta_list", "extra_candidates", "forbidden",
                 "max_match_gap", "min_miss_gap", "diagrams")

    def __init__(self, tile: TileSpec, alpha_list: list, beta_list: list,
                 extra_candidates: list, forbidden: list, max_match_gap: float,
                 min_miss_gap: float, diagrams: list):
        self.tile = tile
        self.alpha_list = alpha_list  # expressible (alpha,*,*) triples, fractions of pi
        self.beta_list = beta_list  # expressible (beta,*,*) triples not in alpha_list
        # expressible but rejected by the edge argument
        self.extra_candidates = extra_candidates
        self.forbidden = forbidden  # no-alpha-no-beta triples failing necessary conditions
        # over every edge verdict consulted: the largest gap of a match and the
        # smallest gap of a miss; no verdict changes for any tolerance between
        self.max_match_gap = max_match_gap
        self.min_miss_gap = min_miss_gap
        self.diagrams = diagrams  # the rich K5 diagrams the lists allow


def final_case_analysis(key: str) -> FinalCaseAnalysis:
    """The one-indivisible endgame for the tile of a fixture key.

    With qa < qb the tile's two smallest distinct angles, derives the
    expressible candidate lists for qa and for qb (candidates whose edges
    are combinations of the tile's, not yet shown to be tiled), rejects the
    expressible candidates whose forced edge decomposition fails (an edge
    of length 2b must start with an a- or c-segment, so 2b-a or 2b-c must
    also be a combination), builds the sound unrealizability table for
    triangle types avoiding qa and qb, and enumerates all diagrams the
    lists allow that are rich in the tile's own type.  For case-b's
    (1/3, 1/3, 1/2) the forced-decomposition triple (qb, qb, 2qa + qb) is
    (1/2, 1/2, 7/6), no triangle, so that step never fires there.  Also
    reports the gap margins of every edge verdict it consulted.
    """
    tile = _tile(key)
    t0 = tile.angles_pi
    qa, qb = sorted(set(t0))[:2]
    acands = enumerate_candidates(tile, qa, Fraction(0))
    bcands = enumerate_candidates(tile, qb, qa)
    verdicts = [c.edge_status for c in acands + bcands]
    alpha_list = sorted({c.angles_pi() for c in acands if c.expressible} | {t0})
    a_e, b_e, c_e = tile.edges
    beta_list, extra = [], []
    for cand in bcands:
        if not cand.expressible:
            continue
        t = cand.angles_pi()
        if t in alpha_list:
            continue
        if t == tuple(sorted((qb, qb, 2 * qa + qb))):
            # edges 2b, 2b, 2a+2b: a corner tile forces an a- or c-piece on a
            # 2b-side, so 2b-a or 2b-c must be expressible too
            m1 = edge_combination(2 * b_e - a_e, tile.edges)
            m2 = edge_combination(2 * b_e - c_e, tile.edges)
            verdicts += [m1, m2]
            if not (isinstance(m1, EdgeMatch) or isinstance(m2, EdgeMatch)):
                extra.append(t)
                continue
        beta_list.append(t)
    beta_list = sorted(set(beta_list))
    # the labels ascending, so a sorted triple of labels has sorted ids
    # (positions); label i is nums[i]*pi/den, the tile's area excess*pi/den
    labels = sorted({x for t in alpha_list + beta_list for x in t})
    index = {q: i for i, q in enumerate(labels)}
    nums, den = pi_numerators(labels)
    excess = int(tile.excess_pi * den)  # den is a multiple of the tile's
    # a triangle with the smallest angle must be on the alpha list, one with
    # the second smallest (and not the smallest) on the beta list, and one
    # with neither must be valid, tile by area and have expressible edges
    admissible = {tuple(index[x] for x in t) for t in alpha_list + beta_list}
    ia, ib = index[qa], index[qb]
    forbidden = []
    for combo in combinations_with_replacement(range(len(labels)), 3):
        if ia in combo or ib in combo:
            continue
        i, j, k = combo
        tiled = area_multiple((nums[i], nums[j], nums[k]), den, excess)
        if tiled is None:
            continue
        a, b, c = angles = (labels[i], labels[j], labels[k])
        if not tiled:
            forbidden.append(angles)
            continue
        for q, l, r in ((a, b, c), (b, c, a), (c, a, b)):
            status = edge_combination(opposite_edge(q, l, r), tile.edges)
            verdicts.append(status)
            if not isinstance(status, EdgeMatch):
                forbidden.append(angles)
                break
        else:
            admissible.add(combo)
    diagrams = enumerate_diagrams(5, [_pi_form(q) for q in labels], admissible.__contains__,
                                  rich_type=triangle_type_of([_pi_form(q) for q in t0]))
    return FinalCaseAnalysis(
        tile, alpha_list, beta_list, sorted(extra), sorted(forbidden),
        max((v.gap for v in verdicts if isinstance(v, EdgeMatch)), default=0.0),
        min((v.gap for v in verdicts if not isinstance(v, EdgeMatch)),
            default=math.inf),
        diagrams)


def _search_and_verify(report: Report, key: str, anchor_prefix: str):
    """Run the frozen found-tiling list for one tile base."""
    exp = fixtures.load("expectations")
    tile = _tile(key)
    for idx, entry in enumerate(exp["found_tilings"][key]):
        target = tuple(Fraction(s) for s in entry["target"])
        res = search_tiling(target, tile)
        ok = res.status == "found" and bool(verify_tiling(res.tiling, tile))
        report.check(f"{anchor_prefix}/tiling-{idx}",
                     f"{entry['n']}-tile tiling of "
                     f"({', '.join(entry['target'])})*pi found and verified",
                     {"status": "found", "n": entry["n"], "verified": True},
                     {"status": res.status,
                      "n": len(res.tiling.tiles) if res.tiling else 0,
                      "verified": ok},
                     "reference", f"expectations:found_tilings/{key}/{idx}")
        if res.tiling is not None:
            name = f"{key}-" + "-".join(s.replace("/", "_") for s in entry["target"])
            report.tilings.append((name, res.tiling))


# ---------------------------------------------------------------------------
# scenario: three-dim
# ---------------------------------------------------------------------------


def scenario_three_dim(report: Report) -> None:
    exp = fixtures.load("expectations")
    for key in ("k4-two-triples-star", "k4-two-triples-paths",
                "k4-alpha-path", "k4-alpha-cycle"):
        d = fixtures.diagram(key)
        report.check(f"three-dim/aut-order/{key}",
                     f"automorphism group order of {key}",
                     exp["aut_orders"][key], len(d.automorphisms()),
                     "reference", f"expectations:aut_orders/{key}")
    # both two-label configurations admit a symmetry swapping two edges of
    # each label: some edge of every label lies in an orbit of size > 1
    for key in ("k4-two-triples-star", "k4-two-triples-paths"):
        d = fixtures.diagram(key)
        moved = all(any(len(orbit) > 1 for orbit in edge_orbits(d, lab))
                    for lab in d.label_set())
        report.check(f"three-dim/label-swapping-symmetry/{key}",
                     "a symmetry moves an edge of every label",
                     True, moved, "reference", f"diagrams:{key}")
    parts = edge_orbits(fixtures.diagram("k4-alpha-path"), parse_angle("alpha"))
    report.check("three-dim/path-alpha-orbits",
                 "path configuration: the three path edges fall into two orbits "
                 "(the symmetry swaps the outer pair)",
                 2, len(parts), "derived", "diagrams:k4-alpha-path")
    cyc = fixtures.diagram("k4-alpha-cycle")
    report.check("three-dim/cycle-transitive",
                 "four-cycle configuration: symmetries act transitively on the "
                 "cycle edges",
                 True, edge_orbit_count_transitive(cyc, parse_angle("alpha")),
                 "reference", "diagrams:k4-alpha-cycle")
    res = [c for c in enumerate_edge_partitions(4, 3)
           if len(coloring_automorphisms(c, 4)) == 1]
    report.check("three-dim/k4-two-types-empty",
                 "no symmetry-free edge coloring of the 4-vertex diagram has two "
                 "triangle types with three copies each",
                 0, len(res), "derived", "expectations:diagram_counts/case-b")


# ---------------------------------------------------------------------------
# scenario: two-indivisible
# ---------------------------------------------------------------------------


def scenario_two_indivisible(report: Report) -> None:
    exp = fixtures.load("expectations")

    relaxed = enumerate_edge_partitions(5, 4)
    # a trivial automorphism group is an isomorphism invariant, so the
    # symmetry-free colorings are exactly the symmetry-free relaxed classes
    aut_orders = [len(coloring_automorphisms(c, 5)) for c in relaxed]
    strict = [c for c, order in zip(relaxed, aut_orders) if order == 1]
    report.check("two-indivisible/empty",
                 "no symmetry-free edge coloring of the 5-vertex diagram has two "
                 "triangle types with four copies each",
                 0, len(strict), "reference", "expectations:diagram_counts/ninth")
    report.check("two-indivisible/all-symmetric",
                 "every coloring with two frequent triangle types has a "
                 "nontrivial symmetry",
                 True, all(order > 1 for order in aut_orders),
                 "trivial", "expectations:table_cases/0")

    rich = [c for c in relaxed if max(c) + 1 >= 3]
    catalog_keys = [f"two-indivisible-{s}" for s in "abcdef"]
    # coloring_canonical renumbers colors, so a diagram's label ids will do
    catalog = {coloring_canonical(fixtures.diagram(key).colors, 5): key
               for key in catalog_keys}
    # each enumerated coloring is already its class's coloring_canonical form
    report.check("two-indivisible/catalog-match",
                 "colorings with >= 3 classes match the six catalog diagrams",
                 sorted(catalog), sorted(rich),
                 "reference", "diagrams:two-indivisible-a")

    counts_seen = sorted(sorted(Counter(c).values(), reverse=True) for c in rich)
    counts_expected = sorted(sorted(r["counts"], reverse=True)
                             for r in exp["table_cases"]) + [[4, 4, 2]]
    report.check("two-indivisible/edge-counts",
                 "per-class edge counts match the five case rows "
                 "(the last row is realized twice)",
                 sorted(counts_expected), counts_seen,
                 "reference", "expectations:table_cases/0")

    for key in catalog_keys:
        d = fixtures.diagram(key)
        report.check(f"two-indivisible/aut-order/{key}",
                     f"automorphism group order of {key}",
                     exp["aut_orders"][key], len(d.automorphisms()),
                     "reference", f"expectations:aut_orders/{key}")

    report.check("two-indivisible/pair-bound-formula",
                 "pair-orbit bound at five points",
                 exp["pair_orbit_bounds"]["5"], pair_orbit_bound(5),
                 "reference", "expectations:pair_orbit_bounds/5")
    # every nontrivial subgroup has at most the pair orbits of a nontrivial
    # cyclic subgroup it holds (its orbits are unions of the subgroup's), so
    # the cyclic ones bound them all; the pair orbits of <p> are the cycles
    # of p's edge permutation
    kn = kn_tables(5)
    cycles = {p: cycle_count(im) for p, im in zip(kn.perms, kn.edge_images)
              if p != tuple(range(5))}
    report.check("two-indivisible/pair-bound-exhaustive",
                 "every nontrivial subgroup of the 5-point symmetric group has "
                 "at most seven pair orbits",
                 True, max(cycles.values()) <= pair_orbit_bound(5),
                 "derived", "expectations:pair_orbit_bounds/5")
    report.check("two-indivisible/pair-bound-tight",
                 "the bound is attained by the group generated by one transposition",
                 True, cycles[(1, 0, 2, 3, 4)] == pair_orbit_bound(5),
                 "reference", "expectations:pair_orbit_bounds/5")


# ---------------------------------------------------------------------------
# scenario: case-a
# ---------------------------------------------------------------------------


CASE_A_RELATIONS = RelationSet.of(("gamma", parse_angle("1/2 pi")),
                                  ("alpha", parse_angle("pi-2*beta")))


def case_a_enumeration() -> list:
    rel = CASE_A_RELATIONS
    # label ids: alpha is id 0, so a sorted id triple holds alpha iff it starts with 0
    al, be, ga, b2, ab = alphabet = [
        rel.normalize(parse_angle(s)) for s in ("alpha", "beta", "gamma", "2*beta", "alpha+beta")]
    ids = {f: i for i, f in enumerate(alphabet)}

    def t(*fs):
        return tuple(sorted(ids[f] for f in fs))

    with_alpha = {t(al, be, ga), t(al, al, b2), t(al, ab, ga)}
    return enumerate_diagrams(5, alphabet, lambda combo: combo[0] != 0 or combo in with_alpha,
                              rich_type=triangle_type_of([al, be, ga]), relations=rel)


def scenario_case_a(report: Report) -> None:
    exp = fixtures.load("expectations")
    rel = CASE_A_RELATIONS

    diagrams = case_a_enumeration()
    report.check("case-a/diagram-count", "rich diagrams with the half-turn relation",
                 exp["diagram_counts"]["case-a"], len(diagrams),
                 "reference", "expectations:diagram_counts/case-a")
    keys = {fixtures.diagram(f"case-a-{i}").canonical_key(): f"case-a-{i}"
            for i in range(1, 6)}
    matched = sorted(keys.get(d.canonical_key(), "unknown") for d in diagrams)
    report.check("case-a/diagram-identity", "enumerated diagrams match the catalog",
                 [f"case-a-{i}" for i in range(1, 6)], matched,
                 "reference", "diagrams:case-a-1")

    # validity filter: exactly the catalog's fifth diagram contains a triangle
    # degenerating on the whole parameter interval
    lo, hi = Fraction(1, 3), Fraction(1, 2)
    valid_keys = []
    for i in range(1, 6):
        d = fixtures.diagram(f"case-a-{i}")
        ok = all(is_valid_symbolic(d.triangle_type(t), rel, lo, hi)
                 for t in d.triangles())
        if ok:
            valid_keys.append(f"case-a-{i}")
    report.check("case-a/validity-filter",
                 "the triangle validity filter keeps exactly the first four diagrams",
                 [f"case-a-{i}" for i in range(1, 5)], valid_keys,
                 "reference", "expectations:diagram_counts/case-a-after-validity")

    # determinant identities, root sets, and root-freeness on (0, 1/2)
    for i in range(1, 5):
        key = f"case-a-{i}"
        excl = parametric_fiedler(fixtures.diagram(key), Fraction(0), Fraction(1, 2))
        det = excl.det_poly
        entry = exp["det_factored"][key]
        expected = Poly([entry["scalar"]])
        for f in entry["factors"]:
            expected = expected * Poly(f)
        report.check(f"case-a/det-identity/{key}",
                     "matrix determinant equals the factored polynomial, expanded",
                     True, det == expected, "reference",
                     f"expectations:det_factored/{key}")
        mids = sorted(round(float(r.midpoint), 2)
                      for r in isolate_roots(det, Fraction(1, 10 ** 5)))
        report.check(f"case-a/root-set/{key}", "real roots to two decimals",
                     sorted(exp["root_sets_2dp"][key]), mids,
                     "reference", f"expectations:root_sets_2dp/{key}")
        report.check(f"case-a/no-root-in-interval/{key}",
                     "determinant has no root with cos(beta) in (0, 1/2)",
                     {"roots": 0, "excluded": True},
                     {"roots": excl.roots_in_interval, "excluded": excl.excluded},
                     "reference", f"expectations:root_sets_2dp/{key}")


# ---------------------------------------------------------------------------
# scenario: case-b
# ---------------------------------------------------------------------------


def scenario_case_b(report: Report) -> None:
    exp = fixtures.load("expectations")

    report.check("case-b/straight-right-angle", "fillings of pi by right angles",
                 {(2,)}, straight_angle_combinations([Fraction(1, 2)]),
                 "trivial", "expectations:tile_bases/case-b")
    report.check("case-b/straight-combinations",
                 "fillings of pi by thirds and halves",
                 {(3, 0), (0, 2)},
                 straight_angle_combinations([Fraction(1, 3), Fraction(1, 2)]),
                 "trivial", "expectations:tile_bases/case-b")

    # first subcase: apex angle pi - 2*base would force every further
    # candidate to exceed the lune area; the candidate enumeration is empty
    for q in (Fraction(2, 5), Fraction(3, 7)):
        tile = TileSpec.from_pi_fractions(q, q, 1 - q)
        cands = enumerate_candidates(tile, q, Fraction(0))
        report.check(f"case-b/supplementary-empty/{q}",
                     f"no candidate beyond the tile itself when the apex is the "
                     f"supplement (base {q} pi)",
                     0, len(cands), "derived", "expectations:realizable/case-b")

    ana = final_case_analysis("case-b")
    report.check("case-b/alpha-candidates",
                 "expressible candidates sharing the small angle",
                 _triples(exp["realizable"]["case-b"]["alpha"]),
                 [t for t in ana.alpha_list if t != ana.tile.angles_pi],
                 "reference", "expectations:realizable/case-b")
    report.check("case-b/beta-candidates",
                 "expressible candidates sharing the right angle",
                 _triples(exp["realizable"]["case-b"]["beta"]), ana.beta_list,
                 "reference", "expectations:realizable/case-b")

    _search_and_verify(report, "case-b", "case-b")

    report.check("case-b/diagram-contradiction",
                 "no rich diagram exists over the realizable triangle types",
                 exp["diagram_counts"]["case-b"], len(ana.diagrams),
                 "reference", "expectations:diagram_counts/case-b")


# ---------------------------------------------------------------------------
# scenario: case-c
# ---------------------------------------------------------------------------


def scenario_case_c(report: Report) -> None:
    exp = fixtures.load("expectations")

    sols = corner_angle_solutions([Fraction(1, 3), Fraction(1, 2)],
                                  Fraction(1, 6), Fraction(1, 3))
    report.check("case-c/corner-angles",
                 "small angles completing a straight angle with thirds and halves",
                 sorted(Fraction(s) for s in exp["corner_angles"]), sols,
                 "reference", "expectations:corner_angles")
    scan = corner_angle_solutions_rational_scan([Fraction(1, 3), Fraction(1, 2)],
                                                Fraction(1, 6), Fraction(1, 3))
    report.check("case-c/corner-angles-scan",
                 "bounded rational scan agrees with the exact solver",
                 sols, scan, "derived", "expectations:corner_angles")

    analyses = {}
    for key in ("quarter", "fifth", "ninth"):
        tile = _tile(key)
        qa = tile.angles_pi[0]
        es = [round(x, 3) for x in tile.edges]
        report.check(f"case-c/edge-lengths/{key}",
                     "tile edges to three decimals",
                     exp["edge_lengths_3dp"][str(qa)], es,
                     "reference", f"expectations:edge_lengths_3dp/{qa}")
        ana = final_case_analysis(key)
        analyses[key] = ana
        report.check(f"case-c/alpha-list/{key}",
                     "realizable list for the smallest angle",
                     _triples(exp["realizable"][key]["alpha"]
                              + [[str(q) for q in tile.angles_pi]]),
                     ana.alpha_list,
                     "reference", f"expectations:realizable/{key}")
        report.check(f"case-c/beta-list/{key}",
                     "realizable list for the middle angle",
                     _triples(exp["realizable"][key]["beta"]), ana.beta_list,
                     "reference", f"expectations:realizable/{key}")
        cited = _triples(exp["unrealizable_cited"][key])
        report.check(f"case-c/unrealizable-cited/{key}",
                     "edge-combination argument rejects the cited triples",
                     cited, sorted(set(cited) & set(ana.forbidden)),
                     "reference", f"expectations:unrealizable_cited/{key}")
        report.check(f"case-c/diagram-count/{key}",
                     "rich diagrams surviving the realizable-list constraints",
                     exp["diagram_counts"][key], len(ana.diagrams),
                     "reference", f"expectations:diagram_counts/{key}")
        report.check(f"case-c/stability/{key}",
                     "every edge verdict is the same for any tolerance from "
                     "1e-7 to 1e-5: matches within 1e-7, misses beyond 1e-5",
                     {"max_match_gap": 1e-7, "min_miss_gap": EDGE_TOL},
                     {"max_match_gap": ana.max_match_gap,
                      "min_miss_gap": ana.min_miss_gap},
                     "derived", f"expectations:realizable/{key}",
                     equal=lambda e, a: (a["max_match_gap"] <= e["max_match_gap"]
                                         and a["min_miss_gap"] > e["min_miss_gap"]))

    ana9 = analyses["ninth"]
    report.check("case-c/extra-candidate",
                 "exactly one expressible candidate fails the edge decomposition",
                 [_triples([exp["extra_candidate_ninth_beta"]])[0]],
                 ana9.extra_candidates,
                 "reference", "expectations:extra_candidate_ninth_beta")
    tile9 = analyses["ninth"].tile
    a_e, b_e, c_e = tile9.edges
    for name, val in (("2b-a", 2 * b_e - a_e), ("2b-c", 2 * b_e - c_e)):
        status = edge_combination(val, tile9.edges)
        report.check(f"case-c/edge-argument/{name}",
                     f"{name} ({val:.3f}) is not an edge combination",
                     False, isinstance(status, EdgeMatch),
                     "reference", "expectations:extra_candidate_ninth_beta")

    # identify the surviving diagrams and their exact determinants
    for key, ids in (("quarter", ["quarter-1", "quarter-2", "quarter-3"]),
                     ("fifth", ["fifth-1", "fifth-2", "fifth-3"])):
        keys = {fixtures.diagram(i).canonical_key(): i for i in ids}
        got = sorted(keys.get(d.canonical_key(), "unknown")
                     for d in analyses[key].diagrams)
        report.check(f"case-c/diagram-identity/{key}",
                     "surviving diagrams match the catalog", ids, got,
                     "reference", f"diagrams:{ids[0]}")
        for i in ids:
            fiedler = fiedler_check(gram_from_diagram(fixtures.diagram(i)))
            det = fiedler.determinant
            entry = exp["gram_dets"][i]
            k, q, s = _SQRTS[entry["m"]]
            want = Fraction(entry["a"]) + Fraction(entry["b"]) * (k * cos_pi(q) + s)
            report.check(f"case-c/det/{i}", "exact determinant", True, det == want,
                         "derived", f"expectations:gram_dets/{i}")
            report.check(f"case-c/det-2dp/{i}",
                         "determinant within 0.005 of the reference rounding",
                         True,
                         abs(float(det) - exp["gram_dets_reference_2dp"][i])
                         <= 0.005 + 1e-9,
                         "reference", f"expectations:gram_dets_reference_2dp/{i}")
            report.check(f"case-c/not-simplex/{i}",
                         "nonzero determinant rules the diagram out",
                         "cannot-be-a-simplex", fiedler.verdict,
                         "reference", f"expectations:gram_dets/{i}")
        for i in ids:
            d = fixtures.diagram(i)
            shape = label_subgraph(d, _pi_form(analyses[key].tile.angles_pi[0]))
            report.check(f"case-c/alpha-shape/{i}",
                         "smallest-angle edges form one of the two allowed shapes",
                         True, shape in ("P2+P2", "P2+P3"),
                         "reference", f"diagrams:{i}")

    skels = enumerate_two_label_skeletons()
    report.check("case-c/two-label-classes",
                 "two-smallest-label subgraph classes",
                 exp["diagram_counts"]["two-label-classes"], len(skels),
                 "reference", "ab_pairs:a")
    ab = fixtures.load("ab_pairs")
    order = {v: i for i, v in enumerate("uvwxy")}

    def canon_of(entry):
        ea = frozenset(tuple(sorted((order[a], order[b]))) for a, b in entry["alpha"])
        eb = frozenset(tuple(sorted((order[a], order[b]))) for a, b in entry["beta"])
        return pair_canonical(ea, eb, 5)

    want = sorted(canon_of(ab[k]) for k in ab)
    got = sorted(pair_canonical(a, b, 5) for a, b in skels)
    report.check("case-c/two-label-identity",
                 "the classes match the catalog", want, got,
                 "reference", "ab_pairs:a")

    for key in ("quarter", "fifth", "ninth"):
        _search_and_verify(report, key, f"case-c/{key}")


# ---------------------------------------------------------------------------
# scenario: hill
# ---------------------------------------------------------------------------


def scenario_hill(report: Report, d: Optional[int] = None,
                  m: Optional[int] = None) -> None:
    exp = fixtures.load("expectations")
    h1_cases = exp["hill"]["h1_cases"] if d is None else [[d, m]]
    pair_cases = exp["hill"]["pair_cases"] if d is None else [[d, m]]

    for dd in sorted({c[0] for c in h1_cases}):
        v0 = hill_simplex(dd, 0).volume()
        v1 = hill_simplex(dd, 1).volume()
        v2 = hill_simplex(dd, 2).volume()
        report.check(f"hill/volume-ratios/d{dd}",
                     "base simplex volume ratios 4:2:1",
                     True, v2 == 2 * v1 == 4 * v0,
                     "reference", "expectations:hill/h1_cases")

    for dd, mm in h1_cases:
        tiles = generate_h1_tiling(dd, mm)
        base = hill_simplex(dd, 1)
        rep = tiling_report(tiles, base)
        report.check(f"hill/h1-count/d{dd}m{mm}", "tile count is m^d",
                     mm ** dd, rep.tile_count,
                     "derived", "expectations:hill/h1_cases")
        report.check(f"hill/h1-volume/d{dd}m{mm}",
                     "exact volume conservation",
                     True, rep.total_volume == base.volume() * mm ** dd,
                     "derived", "expectations:hill/h1_cases")
        report.check(f"hill/h1-congruent/d{dd}m{mm}",
                     "all tiles congruent to the base simplex",
                     True, rep.all_congruent,
                     "derived", "expectations:hill/h1_cases")

    for dd in sorted({c[0] for c in h1_cases}):
        center = tuple(1 for _ in range(dd))
        cube = [LatticeTile(center, sp) for sp in signed_perms(dd)]
        graph = compatibility_graph(cube)
        sizes = set(graph.component_sizes())
        # one pass over the edges; an edge counts once for each component
        # it touches, so one that crossed components would show
        group = {i: g for g, comp in enumerate(graph.components) for i in comp}
        counts = Counter(g for a, b in graph.edges for g in {group[a], group[b]})
        per = {counts[g] for g in range(len(graph.components))}
        report.check(f"hill/four-cycles/d{dd}",
                     "full-tiling compatibility components are four-cycles",
                     {"sizes": [4], "edges": [4]},
                     {"sizes": sorted(sizes), "edges": sorted(per)},
                     "reference", "expectations:hill/h1_cases")

    for dd, mm in pair_cases:
        graph = compatibility_graph(generate_h2_h1_tiles(dd, mm))
        parity_ok = all(len(c) in (2, 4) for c in graph.components)
        report.check(f"hill/h2-even-components/d{dd}m{mm}",
                     "each compatibility component meets the region evenly",
                     True, parity_ok, "reference", "expectations:hill/pair_cases")
        pairs = pair_h2_tiling(dd, mm, graph)
        report.check(f"hill/h2-pairing/d{dd}m{mm}",
                     "pairing into base-H2 copies succeeds",
                     mm ** dd, len(pairs),
                     "derived", "expectations:hill/pair_cases")

    s = hill_simplex(3, 0)
    mirror = tuple(tuple(-c if i == 0 else c for i, c in enumerate(v))
                   for v in s.vertices)
    report.check("hill/congruent-mirror", "a simplex is congruent to its mirror image",
                 True, congruent(s, EuclideanSimplex(mirror)),
                 "trivial", "expectations:hill/h1_cases")
    half = tuple(tuple(c / 2 for c in v) for v in s.vertices)
    report.check("hill/congruent-scaled", "a half-scaled copy is not congruent",
                 False, congruent(s, EuclideanSimplex(half)),
                 "trivial", "expectations:hill/h1_cases")


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


_RUNNERS = {
    "three-dim": scenario_three_dim,
    "two-indivisible": scenario_two_indivisible,
    "case-a": scenario_case_a,
    "case-b": scenario_case_b,
    "case-c": scenario_case_c,
    "hill": scenario_hill,
}
SCENARIOS = tuple(_RUNNERS)


def run_scenario(name: str, **kwargs) -> Report:
    if name not in _RUNNERS:
        raise KeyError(f"unknown scenario {name!r}")
    report = Report(name)
    start = time.perf_counter()
    _RUNNERS[name](report, **kwargs)
    report.seconds = time.perf_counter() - start
    return report


def emit_figures(report: Report, out_dir: str) -> list:
    """One SVG per found tiling; stable file names; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, tiling in report.tilings:
        path = os.path.join(out_dir, f"{report.scenario}-{name}.svg")
        tiling.render_svg(path)
        paths.append(path)
    return paths
