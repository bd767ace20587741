"""Seeded inputs for the three workloads.

Everything here is plain stdlib with exact `Fraction` arithmetic; nothing
imports `reptile_lab`.  The seed picks inputs, the program under test only
ever sees the generated inputs.

* `scenarios`: the paper's six fixed scenarios; the seed sets their order.
* `tiling-search`: the frozen `found_tilings` of the fixture catalog, the
  known-exhausted ninth-tile target, and a seeded sample of extra targets
  from this module's own pool (`target_pool`).
* `hill-lattice`: four fixed (d, m) cases beyond the fixture range plus a
  seeded draw of lighter ones.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

SCENARIOS = ("three-dim", "two-indivisible", "case-a", "case-b", "case-c", "hill")

EXPECTATIONS = os.path.join("src", "reptile_lab", "fixtures", "expectations.json")

# Every search in the benchmark runs under this node budget, so whether a
# search aborts depends on its node count, never on the machine's speed.
NODE_BUDGET = 5000

# Tile counts in the extra-target pool.  8 is the largest count among the
# fixture-known answers (the exhausted ninth-tile target); larger counts
# reach searches of tens of thousands of nodes.
POOL_MAX_TILES = 8

# The sample takes one target out of each run of this many pool targets of
# neighbouring search size, so every seed draws the same mix of light and
# heavy searches.
SAMPLE_STRIDE = 4

# Hill cases beyond the fixture range (d <= 4, m <= 3).  The fixed cases are
# in every pass; the seeded draw adds three lighter ones, each with fewer
# tiles than the lightest fixed case, so the median case is (3, 6) for every
# seed.
HILL_FIXED = ((3, 6), (4, 4), (4, 5), (5, 3))
HILL_DRAW_POOL = tuple([(2, m) for m in range(4, 15)] + [(3, 4), (3, 5)])
HILL_DRAW_COUNT = 3


def load_expectations(root: str) -> dict:
    with open(os.path.join(root, EXPECTATIONS)) as f:
        return json.load(f)


def fillable_angles(tile) -> list:
    """Every angle in (0, pi) that is a nonnegative integer combination of
    the tile angles (fractions of pi), i.e. a corner the tiles can fill."""
    out = set()
    frontier = {Fraction(0)}
    while frontier:
        nxt = set()
        for v in frontier:
            for q in tile:
                w = v + q
                if w < 1 and w not in out:
                    out.add(w)
                    nxt.add(w)
        frontier = nxt
    return sorted(out)


def tile_count(target, tile) -> Fraction:
    """Target area over tile area, exactly (both as spherical excess)."""
    return (sum(target) - 1) / (sum(tile) - 1)


def target_pool(tile, max_tiles: int = POOL_MAX_TILES) -> list:
    """All targets (x <= y <= z, fractions of pi) with fillable corners, a
    whole number 2..max_tiles of tiles of area, and a valid spherical
    triangle (angles in (0, 1), two largest summing below 1 + smallest)."""
    angles = fillable_angles(tile)
    out = []
    for i, x in enumerate(angles):
        for j in range(i, len(angles)):
            y = angles[j]
            for z in angles[j:]:
                n = tile_count((x, y, z), tile)
                if n.denominator != 1 or not 2 <= n <= max_tiles:
                    continue
                if y + z >= 1 + x:
                    continue
                out.append((x, y, z))
    return out


def _fracs(strings) -> tuple:
    return tuple(sorted(Fraction(s) for s in strings))


def target_id(base: str, target) -> str:
    return base + ":" + ",".join(str(q) for q in target)


def tile_bases(exp: dict) -> dict:
    return {key: _fracs(v) for key, v in exp["tile_bases"].items()}


def fixed_targets(exp: dict) -> list:
    """The fixture-known searches: every frozen found tiling, then the
    ninth-tile target the exhaustive search must reject."""
    out = []
    for base, entries in exp["found_tilings"].items():
        for entry in entries:
            out.append({"base": base, "target": _fracs(entry["target"]),
                        "expect": "found", "n": entry["n"]})
    out.append({"base": "ninth",
                "target": _fracs(exp["extra_candidate_ninth_beta"]),
                "expect": "exhausted", "n": None})
    return out


def extra_pool(exp: dict) -> list:
    """(base, target) for every pool target of every tile base, minus the
    fixture-known ones."""
    fixed = {(t["base"], t["target"]) for t in fixed_targets(exp)}
    out = []
    for base, tile in tile_bases(exp).items():
        for target in target_pool(tile):
            if (base, target) not in fixed:
                out.append((base, target))
    return out


def sample_pool(exp: dict, recorded: dict) -> list:
    """The extra pool ordered by the search's node count recorded on the
    reference commit (`recorded.json`).  Targets whose reference search took
    more nodes than the known-exhausted target are left out, so that search
    is the slowest verdict of every seed."""
    pool = extra_pool(exp)
    missing = [target_id(b, t) for b, t in pool if target_id(b, t) not in recorded]
    if missing:
        raise ValueError(f"recorded.json lacks pool targets: {missing[:3]}")
    cap = max(recorded[target_id(t["base"], t["target"])]["nodes"]
              for t in fixed_targets(exp))
    pool = [bt for bt in pool if recorded[target_id(*bt)]["nodes"] <= cap]
    pool.sort(key=lambda bt: (recorded[target_id(*bt)]["nodes"], target_id(*bt)))
    return pool


def sample_extras(seed: int, exp: dict, recorded: dict) -> list:
    """One seeded pick from each run of SAMPLE_STRIDE targets of the
    node-ordered pool."""
    pool = sample_pool(exp, recorded)
    groups = [pool[i:i + SAMPLE_STRIDE] for i in range(0, len(pool), SAMPLE_STRIDE)]
    if len(groups) > 1 and len(groups[-1]) < SAMPLE_STRIDE:
        groups[-2].extend(groups.pop())
    rng = random.Random(f"tiling-search:{seed}")
    return [rng.choice(g) for g in groups]


def tiling_inputs(seed: int, exp: dict, recorded: dict) -> list:
    """The searches of one tiling-search pass, in seeded order."""
    jobs = fixed_targets(exp)
    for base, target in sample_extras(seed, exp, recorded):
        jobs.append({"base": base, "target": target,
                     "expect": recorded[target_id(base, target)]["status"],
                     "n": None, "extra": True})
    rng = random.Random(f"tiling-order:{seed}")
    rng.shuffle(jobs)
    tiles = tile_bases(exp)
    return [{"id": target_id(j["base"], j["target"]),
             "tile": [str(q) for q in tiles[j["base"]]],
             "target": [str(q) for q in j["target"]],
             "n": int(tile_count(j["target"], tiles[j["base"]])),
             "expect": j["expect"],
             "known": not j.get("extra", False)} for j in jobs]


def scenario_inputs(seed: int) -> list:
    order = list(SCENARIOS)
    random.Random(f"scenarios:{seed}").shuffle(order)
    return order


def hill_inputs(seed: int) -> list:
    rng = random.Random(f"hill-lattice:{seed}")
    cases = list(HILL_FIXED) + rng.sample(HILL_DRAW_POOL, HILL_DRAW_COUNT)
    rng.shuffle(cases)
    return [list(c) for c in cases]
