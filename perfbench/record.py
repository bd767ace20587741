"""Rewrite perfbench/recorded.json from the checkout it is run in.

    python3 perfbench/record.py [--commit SHA]

Records, for the reference commit, the search status and node count of
every target in the tiling pool (the sampler orders the pool by node count,
and a later status change is counted as a verdict change) and the digest
of each scenario's deterministic report payload (a later change is counted
as payload_changed).  Run it only to move the reference, on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import inputs
import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--commit", default="unknown")
    args = parser.parse_args(argv)
    root = os.getcwd()
    run.check_checkout(root)
    exp = inputs.load_expectations(root)
    ids, items = [], []
    for base, tile in inputs.tile_bases(exp).items():
        for target in inputs.target_pool(tile):
            ids.append(inputs.target_id(base, target))
            items.append({"tile": [str(q) for q in tile],
                          "target": [str(q) for q in target]})
    result, _ = run.run_worker(root, "tiling", items, False)
    targets = {i: {"status": r["status"], "nodes": r["nodes"]}
               for i, r in zip(ids, result["results"])}
    payloads = {}
    for name in inputs.SCENARIOS:
        result, _ = run.run_worker(root, "scenario", [name], False)
        res = result["results"][0]
        if res["exit"] != 0:
            raise SystemExit(f"scenario {name} failed on the reference commit")
        payloads[name] = run.payload_digest(res["stdout"])
    doc = {"reference_commit": args.commit, "node_budget": inputs.NODE_BUDGET,
           "pool_max_tiles": inputs.POOL_MAX_TILES,
           "scenario_payloads": payloads, "targets": targets}
    with open(run.RECORDED, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {run.RECORDED}: {len(targets)} targets, {len(payloads)} scenarios")
    return 0


if __name__ == "__main__":
    sys.exit(main())
