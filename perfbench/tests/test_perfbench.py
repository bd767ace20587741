"""Tests of the benchmark itself (not of reptile-lab).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Run from the repository root.  The traced scenario test runs all six
scenarios once under the tracer and takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import run  # noqa: E402
from tracer import MissingLayerFunction, Tracer, span_names  # noqa: E402

EXP = inputs.load_expectations(ROOT)
with open(run.RECORDED) as _f:
    RECORDED = json.load(_f)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def test_same_seed_same_inputs():
    for seed in (0, 7):
        assert inputs.scenario_inputs(seed) == inputs.scenario_inputs(seed)
        assert inputs.hill_inputs(seed) == inputs.hill_inputs(seed)
        assert (inputs.tiling_inputs(seed, EXP, RECORDED["targets"])
                == inputs.tiling_inputs(seed, EXP, RECORDED["targets"]))


def test_other_seed_other_tiling_sample():
    a = {t["id"] for t in inputs.tiling_inputs(1, EXP, RECORDED["targets"])}
    b = {t["id"] for t in inputs.tiling_inputs(2, EXP, RECORDED["targets"])}
    assert a != b


def test_tiling_inputs_hold_fixture_targets_and_one_sample_per_group():
    items = inputs.tiling_inputs(3, EXP, RECORDED["targets"])
    known = [t for t in items if t["known"]]
    assert len(known) == sum(len(v) for v in EXP["found_tilings"].values()) + 1
    assert [t["expect"] for t in known].count("exhausted") == 1
    pool = inputs.sample_pool(EXP, RECORDED["targets"])
    groups = len(pool) // inputs.SAMPLE_STRIDE
    assert len(items) - len(known) == groups


def test_scenario_order_is_a_permutation():
    assert sorted(inputs.scenario_inputs(5)) == sorted(inputs.SCENARIOS)


def test_hill_draw_is_beyond_fixture_range_and_lighter_than_fixed():
    fixture = {tuple(c) for c in EXP["hill"]["h1_cases"]}
    lightest_fixed = min(m ** d for d, m in inputs.HILL_FIXED)
    for seed in range(20):
        cases = [tuple(c) for c in inputs.hill_inputs(seed)]
        assert not fixture & set(cases)
        assert set(inputs.HILL_FIXED) <= set(cases)
        drawn = set(cases) - set(inputs.HILL_FIXED)
        assert len(drawn) == inputs.HILL_DRAW_COUNT
        assert all(m ** d < lightest_fixed for d, m in drawn)


def _combination(q, tile, bound=40) -> bool:
    return any(i * tile[0] + j * tile[1] + k * tile[2] == q
               for i in range(bound) for j in range(bound) for k in range(bound))


def test_pool_targets_are_tileable_by_area_and_corners():
    for base, tile in inputs.tile_bases(EXP).items():
        for target in inputs.target_pool(tile):
            n = inputs.tile_count(target, tile)
            assert n.denominator == 1 and 2 <= n <= inputs.POOL_MAX_TILES
            assert all(_combination(q, tile, 12) for q in target), (base, target)


@pytest.mark.parametrize("base", ["case-b", "quarter", "fifth", "ninth"])
def test_pool_matches_enumerate_candidates(base):
    """Where the two overlap (a corner equal to a tile angle tau, and the
    tile count below enumerate_candidates' bound 2 tau / excess), the
    generator's pool and enumerate_candidates list the same triples."""
    from reptile_lab.realize import TileSpec, enumerate_candidates

    tile = inputs.tile_bases(EXP)[base]
    spec = TileSpec.from_pi_fractions(*tile)
    excess = sum(tile) - 1
    pool = inputs.target_pool(tile)
    for tau in sorted(set(tile)):
        listed = {c.angles_pi() for c in enumerate_candidates(spec, tau, Fraction(0))
                  if c.n <= inputs.POOL_MAX_TILES}
        generated = {t for t in pool
                     if tau in t and inputs.tile_count(t, tile) * excess < 2 * tau}
        assert listed == generated, (base, tau)


def test_recorded_reference_covers_the_pool():
    ids = {inputs.target_id(b, t) for b, tile in inputs.tile_bases(EXP).items()
           for t in inputs.target_pool(tile)}
    assert ids == set(RECORDED["targets"])
    assert RECORDED["node_budget"] == inputs.NODE_BUDGET
    assert all(v["status"] in ("found", "exhausted") for v in RECORDED["targets"].values())


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_wrappers_replace_imported_names_and_uninstall():
    from reptile_lab import cli, coxeter, realize, scenarios

    originals = (coxeter.enumerate_diagrams, realize.search_tiling,
                 coxeter.CoxeterDiagram.canonical_key)
    tracer = Tracer()
    tracer.install()
    try:
        assert scenarios.enumerate_diagrams is coxeter.enumerate_diagrams
        assert coxeter.enumerate_diagrams.__wrapped__ is originals[0]
        assert cli.search_tiling is realize.search_tiling
        assert realize.search_tiling.__wrapped__ is originals[1]
        assert coxeter.CoxeterDiagram.canonical_key.__wrapped__ is originals[2]
    finally:
        tracer.uninstall()
    assert (coxeter.enumerate_diagrams, realize.search_tiling,
            coxeter.CoxeterDiagram.canonical_key) == originals
    assert scenarios.enumerate_diagrams is originals[0]


def test_missing_layer_function_fails_loudly(monkeypatch):
    from reptile_lab import coxeter

    monkeypatch.delattr(coxeter, "label_subgraph")
    tracer = Tracer()
    with pytest.raises(MissingLayerFunction, match="label_subgraph"):
        tracer.install()
    tracer.uninstall()


def _traced(kind, items):
    result, _ = run.run_worker(ROOT, kind, items, True)
    return result


def _calls_by_verdict(result, name):
    idx = result["span_names"].index(name)
    out = {}
    for span in result["spans"]:
        if span[0] == idx:
            out[span[1]] = out.get(span[1], 0) + 1
    return out


def test_traced_scenarios_call_every_listed_function():
    order = list(inputs.SCENARIOS)
    result = _traced("scenario", order)
    calls = result["trace"]["calls"]
    missing = [n for n in span_names() if calls[n] == 0]
    assert not missing
    case_c = order.index("case-c")
    assert _calls_by_verdict(result, "scenarios.final_case_analysis") == {case_c: 6}
    ratios = [(out, keys) for verdict, out, keys in result["trace"]["dedupe"]
              if verdict == case_c]
    # quarter, its re-run, fifth, its re-run, ninth, its re-run
    assert ratios[:4] == [(3, 360)] * 4
    assert all(r["exit"] == 0 for r in result["results"])


def test_coxeter_untouched_by_tiling_and_hill():
    items = [t for t in inputs.tiling_inputs(1, EXP, RECORDED["targets"])
             if t["known"]][:6]
    tiling = _traced("tiling", items)["trace"]["calls"]
    hill = _traced("hill", [[3, 4], [2, 5]])["trace"]["calls"]
    for calls in (tiling, hill):
        assert all(v == 0 for k, v in calls.items() if k.startswith("coxeter."))
    assert tiling["realize.search_tiling"] == len(items)
    assert tiling["realize.verify_tiling"] > 0
    for name in span_names():
        if name.startswith("hill."):
            assert hill[name] > 0, name


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------


def test_workload_figures_keep_the_hill_scenario_apart_from_hill_cases():
    passes = [{"verdicts": [{"id": "hill", "kind": "hill", "s": 0.5},
                            {"id": "case-c", "kind": "case-c", "s": 40.0}],
               "wall": 41.0}]
    figures = run.workload_figures(passes)
    assert figures["run.case-c_s"][0] == 40.0
    assert figures["tiles_per_s"][0] == 0.0


def test_smooth_median_is_the_median_for_few_values():
    assert run.smooth_median([3.0, 1.0, 2.0]) == 2.0
    assert run.smooth_median([4.0, 1.0, 3.0, 2.0, 10.0, 0.0]) == 2.5
    # 39 values: the mean of the middle seven
    assert run.smooth_median(range(39)) == 19.0


def _bench(args, cwd):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric(trace, key):
    proc = _bench(["--workload", "hill-lattice", "--seed", "4", "--seconds", "0",
                   "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench(["--workload", "scenarios", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
