"""One fresh interpreter of a benchmark pass.

    python3 perfbench/worker.py --probe <parent time.time()>
    python3 perfbench/worker.py < job.json

`--probe` imports the package, loads the fixture files and prints the
seconds since the parent spawned it (the set-up time), then samples the
speed kernel.  Otherwise the job (generated inputs only, read from stdin)
is one of

    {"kind": "tiling", "items": [{"tile": [...], "target": [...]}, ...]}
    {"kind": "hill", "items": [[d, m], ...]}
    {"kind": "scenario", "items": ["case-c"]}

with "trace": true to record spans.  Every job runs under the speed probe
(speed.py), whose samples are excluded from verdict times and spans.  The
last stdout line is one JSON object with a result per item (with the
indices of the probe samples taken during it), the probe samples and, when
traced, the span report.  Needs `src` on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
from fractions import Fraction

from inputs import NODE_BUDGET
from speed import SpeedProbe

SETUP_SAMPLES = 12


def measure_setup(t_spawn: float) -> None:
    import reptile_lab.cli  # noqa: F401  (the whole package, as the CLI loads it)
    from reptile_lab import fixtures

    for name in ("diagrams", "expectations", "ab_pairs"):
        fixtures.load(name)
    setup_s = time.time() - t_spawn
    speed = SpeedProbe()
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    print(json.dumps({"setup_s": setup_s, "probe": speed.samples}))


def run_tiling(item: dict, clock) -> dict:
    from reptile_lab.realize import TileSpec, search_tiling, verify_tiling

    tile = TileSpec.from_pi_fractions(*(Fraction(q) for q in item["tile"]))
    target = tuple(Fraction(q) for q in item["target"])
    start = clock()
    res = search_tiling(target, tile, node_budget=NODE_BUDGET)
    out = {"status": res.status, "nodes": res.nodes}
    if res.tiling is not None:
        out["tiles"] = len(res.tiling.tiles)
        out["verified"] = bool(verify_tiling(res.tiling, tile))
    out["s"] = clock() - start
    return out


def run_hill(item: list, clock) -> dict:
    from reptile_lab.hill import (compatibility_graph, generate_h1_tiling,
                                  generate_h2_h1_tiles, hill_simplex,
                                  pair_h2_tiling, tiling_report)

    d, m = item
    start = clock()
    tiles = generate_h1_tiling(d, m)
    rep = tiling_report(tiles, hill_simplex(d, 1))
    h2_tiles = generate_h2_h1_tiles(d, m)
    graph = compatibility_graph(h2_tiles)
    pairs = pair_h2_tiling(d, m)
    elapsed = clock() - start
    # H1_d has volume 1 / (2^(d-1) d!): its vertex rows form a triangular
    # matrix with diagonal 1, 1/2, ..., 1/2
    volume = Fraction(m ** d, 2 ** (d - 1) * math.factorial(d))
    return {"s": elapsed, "tiles": rep.tile_count,
            "checks": {"count": rep.tile_count == m ** d,
                       "volume": rep.total_volume == volume,
                       "congruent": bool(rep.all_congruent),
                       "h2_count": len(h2_tiles) == 2 * m ** d,
                       "components": all(len(c) in (2, 4) for c in graph.components),
                       "pairs": len(pairs) == m ** d}}


def run_scenario(name: str, clock) -> dict:
    """`reptile-lab run <name> --format json`, in this interpreter."""
    from reptile_lab import cli

    buf = io.StringIO()
    start = clock()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["run", name, "--format", "json"])
    return {"s": clock() - start, "exit": code, "stdout": buf.getvalue()}


RUNNERS = {"tiling": run_tiling, "hill": run_hill, "scenario": run_scenario}


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--probe":
        measure_setup(float(sys.argv[2]))
        return 0
    job = json.load(sys.stdin)
    runner = RUNNERS[job["kind"]]
    results = []
    tracer = None
    with SpeedProbe() as speed:
        if job.get("trace"):
            from tracer import Tracer

            tracer = Tracer(clock_ns=speed.clock_ns)
            tracer.install()
        for i, item in enumerate(job["items"]):
            if tracer is not None:
                tracer.verdict = i
            first = len(speed.samples)
            res = runner(item, speed.clock)
            res["probe_span"] = [first, len(speed.samples)]
            results.append(res)
    out = {"results": results, "probe": speed.samples}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.report()
        out["span_names"] = tracer.names
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
