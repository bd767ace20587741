import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
from fractions import Fraction as F
from importlib import resources
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from oracles import CyclotomicReference, bareiss_reference
from reptile_lab import cli, exactmath, fixtures, scenarios
from reptile_lab.angles import AngleForm, parse_angle
from reptile_lab.coxeter import MAX_VERTICES, CoxeterDiagram, kn_tables, triangle_type_of
from reptile_lab.exactmath import Poly, chebyshev
from reptile_lab.scenarios import SCENARIOS, emit_figures, run_scenario


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_passes(name, reports):
    report = reports(name)
    failing = [c.id for c in report.checkpoints if not c.passed]
    assert report.passed, f"failing checkpoints: {failing}"


def resolve_anchor(anchor: str) -> bool:
    """True iff the anchor points at an existing fixture entry.

    The path after the colon walks keys separated by slashes; since some
    keys are fractions and contain a slash themselves, adjacent parts are
    joined greedily until one matches.
    """
    try:
        name, path = anchor.split(":", 1)
    except ValueError:
        return False

    def walk(node, parts) -> bool:
        if not parts:
            return True
        if isinstance(node, list):
            try:
                idx = int(parts[0])
                return 0 <= idx < len(node) and walk(node[idx], parts[1:])
            except ValueError:
                return False
        if not isinstance(node, dict):
            return False
        for i in range(1, len(parts) + 1):
            key = "/".join(parts[:i])
            if key in node and walk(node[key], parts[i:]):
                return True
        return False

    try:
        return walk(fixtures.load(name), path.split("/"))
    except KeyError:
        return False


def test_case_b_endgame_is_derived(monkeypatch):
    # case-b's lists and diagram search come from final_case_analysis: its
    # two smallest distinct angles are 1/3 and 1/2
    seen = {}
    real = scenarios.enumerate_diagrams

    def spy(n, alphabet, allowed, rich_type=None, **kwargs):
        seen.update(alphabet=alphabet, allowed=allowed, rich_type=rich_type)
        return real(n, alphabet, allowed, rich_type=rich_type, **kwargs)

    monkeypatch.setattr(scenarios, "enumerate_diagrams", spy)
    ana = scenarios.final_case_analysis("case-b")
    lists = fixtures.load("expectations")["realizable"]["case-b"]

    def triples(entries):
        return sorted(tuple(sorted(F(s) for s in t)) for t in entries)

    tile = ana.tile.angles_pi
    assert ana.alpha_list == sorted(triples(lists["alpha"]) + [tile])
    assert ana.beta_list == triples(lists["beta"])
    assert ana.forbidden == ana.extra_candidates == ana.diagrams == []

    labels = (F(1, 3), F(1, 2), F(2, 3))
    assert [f.pi_fraction() for f in seen["alphabet"]] == list(labels)
    forms = {q: AngleForm.pi_multiple(q) for q in labels}

    def ttype(t):
        return triangle_type_of([forms[q] for q in t])

    # `allowed` is asked of sorted label-id triples, positions in `labels`
    accepted = [t for t in combinations_with_replacement(labels, 3)
                if seen["allowed"](tuple(labels.index(q) for q in t))]
    # the tile, the fixture's three triples and the six-tile equilateral
    assert accepted == [(F(1, 3), F(1, 3), F(1, 2)), (F(1, 3), F(1, 3), F(2, 3)),
                        (F(1, 3), F(1, 2), F(2, 3)), (F(1, 2), F(2, 3), F(2, 3)),
                        (F(2, 3), F(2, 3), F(2, 3))]
    assert seen["rich_type"] == ttype(tile)


def test_anchors_resolve(reports):
    for name in SCENARIOS:
        for cp in reports(name).checkpoints:
            assert resolve_anchor(cp.anchor), (name, cp.id, cp.anchor)


# The first 8 hex digits of the sha256 of each scenario's report, timing left out.
PAYLOAD_DIGESTS = {"three-dim": "1f8584c5", "two-indivisible": "e87a4d18",
                   "case-a": "1282219a", "case-b": "98c609e9", "case-c": "55cf03a4",
                   "hill": "4549053e"}


def test_payload_digests(reports):
    assert sorted(PAYLOAD_DIGESTS) == sorted(SCENARIOS)
    got = {name: hashlib.sha256(reports(name).json_lines(include_timing=False).encode())
           .hexdigest()[:8] for name in SCENARIOS}
    assert got == PAYLOAD_DIGESTS


@pytest.mark.parametrize("name", ["three-dim", "case-b", "hill"])
def test_report_deterministic(name):
    a = run_scenario(name).json_lines(include_timing=False)
    b = run_scenario(name).json_lines(include_timing=False)
    assert a == b


def test_hill_scenario_single_case():
    report = run_scenario("hill", d=2, m=1)
    assert report.passed
    counts = [c for c in report.checkpoints if c.id == "hill/h1-count/d2m1"]
    assert counts and counts[0].actual == 1


def test_report_json_lines_shape(reports):
    report = reports("case-b")
    lines = report.json_lines().splitlines()
    head = json.loads(lines[0])
    assert head["scenario"] == "case-b" and "config" in head
    for line in lines[1:]:
        entry = json.loads(line)
        assert {"id", "description", "expected", "actual", "pass",
                "provenance", "anchor"} <= set(entry)
        assert entry["provenance"] in ("reference", "trivial", "derived")


def test_emit_figures(tmp_path, reports):
    report = reports("case-b")
    paths = emit_figures(report, str(tmp_path))
    assert len(paths) == len(report.tilings) >= 4
    for p in paths:
        text = open(p).read()
        assert text.startswith("<svg")


# The plain angle literals valid tiles and targets are made of, and
# near-valid ones: p/q pi with a zero or negative denominator or numerator,
# float coefficients, a missing pi, a symbol.  Half the lists are three
# plain literals, so many of them pass and reach the search.
_PLAIN_ANGLES = st.sampled_from(["1/2 pi", "1/3 pi", "1/4 pi", "2/3 pi", "1/6 pi",
                                 "2/9 pi", "5/9 pi", "3/4 pi", "pi", "0 pi"])
_ANGLE_LITERALS = st.one_of(
    _PLAIN_ANGLES,
    st.builds("{}/{} pi".format, st.integers(-2, 12), st.integers(-2, 12)),
    st.builds("{} pi".format, st.sampled_from(["0.5", "1.5", ".25", "1e-1", "-0.25"])),
    st.builds("{}/{}".format, st.integers(1, 9), st.integers(1, 9)),
    st.sampled_from(["beta", "pi/2", "1/2 pi+1/12 pi", "1/3*pi", "", "nan pi"]),
)
_ANGLE_LISTS = st.one_of(st.lists(_PLAIN_ANGLES, min_size=3, max_size=3),
                         st.lists(_ANGLE_LITERALS, min_size=2, max_size=4)).map(",".join)


def _cli(*args):
    proc = subprocess.run([sys.executable, "-m", "reptile_lab.cli", *args],
                          capture_output=True, text=True)
    return proc


class TestCli:
    def test_run_text(self):
        proc = _cli("run", "three-dim")
        assert proc.returncode == 0
        assert "9/9 checkpoints passed" in proc.stdout

    def test_run_json_and_out(self, tmp_path):
        proc = _cli("run", "case-b", "--format", "json", "--out", str(tmp_path))
        assert proc.returncode == 0
        head = json.loads(proc.stdout.splitlines()[0])
        assert head["pass"] is True
        assert (tmp_path / "report-case-b.jsonl").exists()
        assert any(p.suffix == ".svg" for p in tmp_path.iterdir())

    def test_tile_command(self, tmp_path):
        proc = _cli("tile", "1/3 pi,1/3 pi,1/2 pi", "1/2 pi,2/3 pi,2/3 pi",
                    "--out", str(tmp_path))
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["status"] == "found" and data["tiles"] == 5
        assert data["verified"] is True

    def test_tile_exhausted_exit_code(self):
        proc = _cli("tile", "2/9 pi,1/3 pi,1/2 pi", "1/3 pi,1/3 pi,7/9 pi",
                    "--n-max", "8")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["status"] == "exhausted"

    def test_diagram_command(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(fixtures.load("diagrams")["two-indivisible-d"]))
        proc = _cli("diagram", str(path), "auts")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["order"] == 8
        proc = _cli("diagram", str(path), "gram")
        assert proc.returncode == 2  # abstract labels have no numeric value

    def test_diagram_id_on_a_single_diagram_file(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(fixtures.load("diagrams")["quarter-1"]))
        proc = _cli("diagram", str(path), "auts", "--id", "fifth-2")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "holds one diagram" in proc.stderr

    @pytest.mark.parametrize("data, message", [
        ([1, 2], "expected a JSON object"),
        ({"vertices": ["u", "v"], "edges": 5}, '"edges", an object'),
        ({"vertices": ["u", "v"], "edges": {"u,v": 5}}, "edge 'u,v'"),
        ({"edges": {"u,v": "1/2 pi"}}, '"vertices", a list'),
        ({"vertices": ["u", "v"], "edges": {"u,v": "1/2 pi", "v,u": "1/3 pi"}},
         "edge 'v,u' is labeled twice"),
        ({"vertices": ["u", "v"], "edges": {"u,x": "1/2 pi"}},
         "edge 'u,x': 'x' is not in \"vertices\""),
        ({"vertices": [["u"], "v"], "edges": {"u,v": "1/2 pi"}},
         "a vertex name is a string, not ['u']"),
        ({"vertices": ["u", "u"], "edges": {"u,u": "1/2 pi"}},
         "vertex 'u' is listed twice in \"vertices\""),
        ({"vertices": ["u", "v"], "edges": {"u,u": "1/2 pi", "u,v": "1/3 pi"}},
         "edge 'u,u' joins 'u' to itself"),
        ({"vertices": [" u", "v"], "edges": {" u,v": "1/2 pi"}},
         "vertex name ' u' cannot appear in an edge key"),
        ({"vertices": ["u,w", "v"], "edges": {"v,u": "1/2 pi"}},
         "vertex name 'u,w' cannot appear in an edge key"),
        ({"vertices": ["", "v"], "edges": {",v": "1/2 pi"}},
         "vertex name '' cannot appear in an edge key"),
        ({"vertices": ["u", "v"], "edges": {"u,v": "1/0 pi"}},
         "zero denominator in angle term '1/0 pi'"),
        ({"vertices": ["u", "v"], "edges": {"u,v": "alpha"},
          "relations": [["delta", "1/2 pi"]]},
         "relation symbol 'delta': expected alpha, beta or gamma"),
        ({"vertices": ["u", "v"], "edges": {"u,v": "alpha"},
          "relations": [["pi", "1/2 pi"]]},
         "relation symbol 'pi': expected alpha, beta or gamma"),
        ({"vertices": ["u"], "edges": {}}, '"vertices", a list of at least two names'),
        ({"vertices": ["u", "v"], "edges": {"u,v": "0 pi"}},
         "edge 'u,v': label '0 pi' is 0 pi, outside (0, pi)"),
        ({"vertices": ["u", "v"], "edges": {"u,v": "3 pi"}},
         "edge 'u,v': label '3 pi' is 3 pi, outside (0, pi)"),
        ({"vertices": ["u", "v"], "edges": {"u,v": "-1/3 pi"}},
         "edge 'u,v': label '-1/3 pi' is -1/3 pi, outside (0, pi)"),
        ({"vertices": ["u", "v"], "edges": {"u,v": "gamma"},
          "relations": [["gamma", "pi"]]},
         "edge 'u,v': label 'gamma' is 1 pi, outside (0, pi)"),
    ], ids=["list", "edges-not-object", "label-not-string", "no-vertices",
            "edge-labeled-twice", "unknown-vertex", "vertex-not-string",
            "vertex-listed-twice", "loop-edge", "vertex-name-spaces",
            "vertex-name-comma", "vertex-name-empty", "zero-denominator",
            "relation-symbol-unknown", "relation-symbol-pi", "one-vertex",
            "label-zero", "label-above-pi", "label-negative", "label-pi-by-relation"])
    def test_diagram_malformed_file(self, tmp_path, data, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        proc = _cli("diagram", str(path), "auts")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert message in proc.stderr and "Traceback" not in proc.stderr

    def test_diagram_symmetry_refuses_more_than_eight_vertices(self, tmp_path):
        # the symmetry tables hold n! permutations; the bound is checked
        # before any is built, and the cosine matrix needs no tables
        names = [f"v{i}" for i in range(MAX_VERTICES + 1)]
        path = tmp_path / "k9.json"
        path.write_text(json.dumps({"vertices": names,
                                    "edges": {f"{a},{b}": "1/2 pi"
                                              for a, b in combinations(names, 2)}}))
        message = ("error: 9 vertices: the symmetry tables hold every vertex "
                   "permutation, so at most 8 vertices are supported\n")
        for action in ("auts", "orbits"):
            proc = _cli("diagram", str(path), action)
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr == message
        proc = _cli("diagram", str(path), "gram")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "cannot-be-a-simplex"
        with pytest.raises(ValueError, match="at most 8 vertices"):
            kn_tables(MAX_VERTICES + 1)

    def test_diagram_orbits_type_under_relations(self):
        # case-a-4 carries relations, so the typed labels are normalized first
        catalog = resources.files("reptile_lab") / "fixtures" / "diagrams.json"
        proc = _cli("diagram", str(catalog), "orbits", "--id", "case-a-4",
                    "--type", "alpha,beta,gamma")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        expected = fixtures.load("expectations")["abg_orbit_counts"]["case-a-4"]
        assert data["orbit_count"] == len(data["orbits"]) == expected == 4

    @pytest.mark.parametrize("labels", ["1/4 pi,1/3 pi", "1/4 pi,1/3 pi,1/2 pi,1/2 pi"])
    def test_diagram_orbits_type_needs_three_labels(self, labels):
        catalog = resources.files("reptile_lab") / "fixtures" / "diagrams.json"
        proc = _cli("diagram", str(catalog), "orbits", "--id", "quarter-1", "--type", labels)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "three comma-separated labels" in proc.stderr

    def test_diagram_gram_without_common_ring(self, tmp_path):
        # cos(pi/4) in Q(sqrt 2) and cos(pi/5) in Q(sqrt 5) meet in
        # Q(cos(pi/20)); the determinant is (sqrt 5 - 1)/8
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"vertices": ["u", "v", "w"],
                                    "edges": {"u,v": "1/4 pi", "u,w": "1/5 pi",
                                              "v,w": "1/2 pi"}}))
        proc = _cli("diagram", str(path), "gram")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["ring"] == "Q(cos(pi/20))"
        assert data["determinant_float"] == pytest.approx(0.1545084972, abs=1e-10)
        # a ninth-tile diagram: cos(pi/9) is cubic; numpy gives -1.4521513990
        path.write_text(json.dumps({"vertices": ["u", "v", "w", "x"],
                                    "edges": {"u,v": "1/9 pi", "u,w": "2/9 pi",
                                              "u,x": "1/2 pi", "v,w": "1/3 pi",
                                              "v,x": "4/9 pi", "w,x": "1/2 pi"}}))
        proc = _cli("diagram", str(path), "gram")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["ring"] == "Q(cos(pi/9))"
        assert data["determinant_float"] == pytest.approx(-1.4521513990, abs=1e-10)
        assert data["verdict"] == "cannot-be-a-simplex"
        # a bare symbol with no relations still has no exact cosine
        path.write_text(json.dumps({"vertices": ["u", "v", "w"],
                                    "edges": {"u,v": "1/4 pi", "u,w": "alpha",
                                              "v,w": "1/2 pi"}}))
        proc = _cli("diagram", str(path), "gram")
        assert proc.returncode == 2
        assert "no exact cosine" in proc.stderr

    def test_diagram_gram_on_a_label_of_large_denominator(self, tmp_path):
        # the minimal polynomial of cos(pi/127) has degree 63
        path = tmp_path / "thin.json"
        path.write_text(json.dumps({"vertices": ["u", "v", "w"],
                                    "edges": {"u,v": "1/127 pi", "u,w": "1/2 pi",
                                              "v,w": "1/2 pi"}}))
        proc = _cli("diagram", str(path), "gram")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["ring"] == "Q(cos(pi/127))"
        assert data["determinant"] == "RealCyclotomic(Poly(-1 + 1*t^2), 127)"
        assert data["determinant_float"] == pytest.approx(-math.sin(math.pi / 127) ** 2)

    @pytest.mark.parametrize("names,labels,m,d", [
        ("uvw", ["1/7 pi", "3/11 pi", "2/9 pi"], 693, 180),
        ("uvwx", ["1/7 pi", "3/11 pi", "2/9 pi", "1/4 pi", "1/2 pi", "1/2 pi"], 2772, 720)])
    def test_diagram_gram_past_the_degree_bound(self, tmp_path, names, labels, m, d):
        # refused before any entry is lifted to the lcm field
        edges = {f"{a},{b}": lit for (a, b), lit in zip(combinations(names, 2), labels)}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"vertices": list(names), "edges": edges}))
        proc = _cli("diagram", str(path), "gram")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (f"error: Q(cos(pi/{m})) has degree {d}; exact arithmetic "
                               f"takes degree at most {exactmath.MAX_FIELD_DEGREE}\n")
        # and `--help` states the bound
        assert (f"in a field of degree at most {exactmath.MAX_FIELD_DEGREE};"
                in " ".join(cli.__doc__.split()))

    def test_diagram_gram_names_the_label_without_exact_cosine(self):
        # case-a-1's labels in beta have a cosine only as a polynomial in
        # cos(beta), which the command does not ask for
        catalog = resources.files("reptile_lab") / "fixtures" / "diagrams.json"
        proc = _cli("diagram", str(catalog), "gram", "--id", "case-a-1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: no exact cosine for the label beta of edge u,w\n"

    def test_usage_error(self):
        proc = _cli("tile", "not-an-angle", "1/2 pi,1/2 pi,1/2 pi")
        assert proc.returncode == 2

    def test_tile_zero_denominator(self):
        proc = _cli("tile", "1/0 pi,1/2 pi,1/2 pi", "1/2 pi,1/2 pi,1/2 pi")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "zero denominator in angle term '1/0 pi'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_tile_refuses_spaces_outside_ascii(self, capsys):
        # the CLI splits at commas and leaves the stripping to parse_angle
        assert cli.main(["tile", "1/4 pi, 1/3 pi,\t1/2 pi", "1/2 pi,1/2 pi,1/2 pi",
                         "--node-budget", "5"]) in (0, 1)
        assert cli.main(["tile", "1/4 pi,\u00a01/3 pi,1/2 pi", "1/2 pi,1/2 pi,1/2 pi"]) == 2
        assert "bad angle term" in capsys.readouterr().err

    @pytest.mark.parametrize("role,tile,target", [
        ("tile", "1/2 pi,1/2 pi,1 pi", "1/4 pi,1/2 pi,2/3 pi"),
        ("target", "1/4 pi,1/3 pi,1/2 pi", "1/4 pi,1/2 pi,1 pi"),
    ])
    def test_tile_names_the_invalid_triple(self, role, tile, target):
        proc = _cli("tile", tile, target)
        assert proc.returncode == 2
        assert proc.stdout == ""
        bad = tile if role == "tile" else target
        assert proc.stderr == f"error: {role} {bad!r}: angle outside (0, pi)\n"

    @pytest.mark.parametrize("flags,missing", [(("--m", "2"), "--d"), (("--d", "2"), "--m")])
    def test_hill_case_needs_d_and_m(self, flags, missing):
        proc = _cli("run", "hill", *flags)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"needs {missing} as well" in proc.stderr

    @pytest.mark.parametrize("d,m", [(7, 1), (100, 2), (2, 224), (6, 7), (1, 3), (3, 0)])
    def test_hill_case_past_the_bound(self, d, m, monkeypatch, capsys):
        # refused before any tile is built
        monkeypatch.setattr(cli, "run_scenario", None)
        assert cli.main(["run", "hill", "--d", str(d), "--m", str(m)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: --d {d} --m {m}: hill takes 2 <= d <= 6 and m >= 1 "
                       "with at most 50000 tiles (m^d)\n")

    @pytest.mark.parametrize("args", [("three-dim", "--m", "2"),
                                      ("case-b", "--d", "3", "--m", "2")])
    def test_hill_flags_rejected_for_other_scenarios(self, args):
        proc = _cli("run", *args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "apply to the hill scenario only" in proc.stderr

    @pytest.mark.parametrize("flag,value", [("--tol", "1e-7"), ("--coeff-bound", "40"),
                                            ("--node-budget", "5")])
    def test_run_has_no_tuning_flags(self, flag, value):
        proc = _cli("run", "case-b", flag, value)
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_tile_node_budget(self):
        proc = _cli("tile", "1/3 pi,1/3 pi,1/2 pi", "1/2 pi,2/3 pi,2/3 pi",
                    "--node-budget", "3")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["status"] == "aborted"

    @pytest.mark.parametrize("flag,value", [("--node-budget", "-5"), ("--n-max", "0")])
    def test_tile_rejects_meaningless_bounds(self, flag, value):
        proc = _cli("tile", "1/4 pi,1/3 pi,1/2 pi", "1/3 pi,1/2 pi,1/2 pi", flag, value)
        assert proc.returncode == 2
        assert proc.stdout == ""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(tile=_ANGLE_LISTS, target=_ANGLE_LISTS)
    def test_tile_command_on_near_valid_angles(self, tile, target):
        """`tile` in process on drawn angle lists: exit 0 or 1 with one JSON
        line, or exit 2 with one `error:` line; an uncaught exception fails."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["tile", "--node-budget", "30", "--", tile, target])
        out, err = out.getvalue(), err.getvalue()
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        else:
            assert code in (0, 1) and err == "" and out.count("\n") == 1
            assert json.loads(out)["status"] in ("found", "exhausted", "aborted")

    def test_unknown_scenario(self):
        proc = _cli("run", "nonsense")
        assert proc.returncode == 2


# ---------------------------------------------------------------------------
# diagram files through the CLI, fuzzed
# ---------------------------------------------------------------------------

_BAD_LABELS = st.sampled_from(["beta", "0 pi", "1 pi", "3/2 pi", "-1/3 pi", "1/0 pi", "pi",
                               "", "1/2", "alpha+1/2 pi", "\u00a01/2 pi", 5, None])
_FLAWS = st.sampled_from(["drop-edge", "unknown-end", "self-loop", "twice", "one-vertex",
                          "vertex-twice", "edges-list", "top-list", "relations"])


@st.composite
def _diagram_files(draw):
    """(file data, flaw): 2-6 vertices, labels p/q pi, 0 < p < q, over a
    pool of one to three denominators q <= 12; in one file of four a bad
    label, and in one of four a flaw of shape."""
    names = list("uvwxyz"[:draw(st.integers(2, 6))])
    pool = draw(st.lists(st.integers(2, 12), min_size=1, max_size=3))
    edges = {}
    for a, b in combinations(names, 2):
        q = draw(st.sampled_from(pool))
        edges[f"{a},{b}"] = f"{draw(st.integers(1, q - 1))}/{q} pi"
    keys = list(edges)
    if draw(st.integers(0, 3)) == 0:
        edges[draw(st.sampled_from(keys))] = draw(_BAD_LABELS)
    data, flaw = {"vertices": names, "edges": edges}, None
    if draw(st.integers(0, 3)) == 0:
        flaw = draw(_FLAWS)
    if flaw == "drop-edge":
        del edges[keys[0]]
    elif flaw == "unknown-end":
        edges["u,q"] = "1/2 pi"
    elif flaw == "self-loop":
        edges["v,v"] = "1/2 pi"
    elif flaw == "twice":
        edges[",".join(reversed(keys[0].split(",")))] = "1/3 pi"
    elif flaw == "one-vertex":
        data["vertices"] = names[:1]
    elif flaw == "vertex-twice":
        data["vertices"] = names + names[:1]
    elif flaw == "edges-list":
        data["edges"] = list(edges.items())
    elif flaw == "top-list":
        data = [data]
    elif flaw == "relations":
        data["relations"] = [["beta", "1/3 pi"]]
    return data, flaw


def _determinant_oracle(labels, n):
    """repr of the determinant of the cosine matrix of an n-vertex diagram,
    labels in edge order, by the former `Fraction`-polynomial field and
    elimination; None past degree 16, where that is slow."""
    qs = [parse_angle(lit).pi_fraction() for lit in labels]
    fields = [q.denominator for q in qs if q.denominator > 3]
    m = math.lcm(*fields)
    if exactmath.field_degree(m) > 16:
        return None

    def cosine(q):
        c = CyclotomicReference(chebyshev(abs(q.numerator)), q.denominator)
        if q.denominator <= 3:  # rational
            return c.poly.coeffs[0] if c.poly.coeffs else F(0)
        return c.lift(m)

    rows = [[F(-1) if i == j else None for j in range(n)] for i in range(n)]
    for (i, j), q in zip(combinations(range(n), 2), qs):
        rows[i][j] = rows[j][i] = cosine(q)
    if fields:
        rows = [[e if isinstance(e, CyclotomicReference) else CyclotomicReference.of(e, m)
                 for e in r] for r in rows]
        return f"RealCyclotomic({Poly(bareiss_reference(rows)[0].poly.coeffs)!r}, {m})"
    return repr(bareiss_reference(rows)[0])


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=_diagram_files(), action=st.sampled_from(["auts", "orbits", "gram"]))
def test_diagram_command_on_near_valid_files(case, action, tmp_path_factory):
    """`diagram FILE auts|orbits|gram` in process: exit 0 with one JSON
    line, or exit 2 with one `error:` line; a file the degree bound refuses
    names its field; a gram determinant equals the oracle's."""
    data, flaw = case
    path = tmp_path_factory.getbasetemp() / "fuzzed-diagram.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["diagram", str(path), action])
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code == 0 and err == "" and out.count("\n") == 1
        json.loads(out)
    labels = list(data["edges"].values()) if flaw is None else []
    if action != "gram" or flaw is not None or not all(
            isinstance(lit, str) and _valid_fraction_label(lit) for lit in labels):
        return
    n = len(data["vertices"])
    m = math.lcm(*[parse_angle(lit).pi_fraction().denominator for lit in labels])
    if exactmath.field_degree(m) > exactmath.MAX_FIELD_DEGREE:
        assert code == 2 and " has degree " in err
        return
    assert code == 0
    want = _determinant_oracle(labels, n)
    if want is not None:
        assert json.loads(out)["determinant"] == want


def _valid_fraction_label(lit):
    try:
        q = parse_angle(lit).pi_fraction()
    except ValueError:
        return False
    return q is not None and 0 < q < 1


def test_each_catalog_diagram_is_built_once_per_run(monkeypatch):
    """`fixtures.diagram` is cached: a run builds each catalog diagram it
    asks for once."""
    built = []
    from_fixture = CoxeterDiagram.from_fixture

    def counting(data):
        built.append(json.dumps(data, sort_keys=True))
        return from_fixture(data)

    monkeypatch.setattr(CoxeterDiagram, "from_fixture", staticmethod(counting))
    for name, count in (("case-c", 6), ("case-a", 5), ("two-indivisible", 6), ("three-dim", 4)):
        fixtures.diagram.cache_clear()
        built.clear()
        run_scenario(name)
        assert len(built) == len(set(built)) == count, name
