"""Command line interface.

    reptile-lab run <scenario> [--out --format --d --m]
    reptile-lab tile <T0> <target> [--n-max --node-budget --out]
    reptile-lab diagram <fixture.json> {auts|orbits|gram} [--type a,b,c]

Angle triples on the command line are comma-separated angle literals in the
"p/q pi" syntax, e.g. "1/4 pi,1/3 pi,1/2 pi".  Exit codes: 0 all checkpoints
passed, 1 some failed, 2 usage or configuration error.  `run` has no
tolerance or budget flags: the edge tolerance 1e-5 and the search node
budget 10^6 are fixed, and each report head echoes them as `config`.
`diagram ... gram` works over Q or Q(cos(pi/n)) for rational multiples of
pi as labels whose cosines meet in a field of degree at most 128; a larger
field, or a symbol that no relation resolves, exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .angles import parse_angle
from .coxeter import CoxeterDiagram, orbits, triangle_type_of
from .gram import fiedler_check, gram_from_diagram
from .realize import NODE_BUDGET, TileSpec, search_tiling, verify_tiling
from .scenarios import emit_figures, run_scenario, SCENARIOS
from .spherical import is_valid


def _triangle(role: str, text: str) -> tuple:
    """The angles (Fractions of pi) of the triangle `text` names; a
    ValueError that names `role` and `text` if they are no valid spherical
    triangle."""
    try:
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError("expected three comma-separated angles")
        out = []
        for p in parts:
            q = parse_angle(p).pi_fraction()
            if q is None:
                raise ValueError(f"{p!r} is not a rational multiple of pi")
            out.append(q)
        angles = tuple(out)
        report = is_valid(angles)
        if not report:
            raise ValueError(report.reason)
    except ValueError as exc:
        raise ValueError(f"{role} {text!r}: {exc}") from None
    return angles


def _cmd_run(args) -> int:
    names = list(SCENARIOS) if args.scenario == "all" else [args.scenario]
    hill_case = {}
    if (args.d, args.m) != (None, None):
        if "hill" not in names:
            raise ValueError("--d and --m apply to the hill scenario only")
        if args.m is None:
            raise ValueError("--d needs --m as well")
        if args.d is None:
            raise ValueError("--m needs --d as well")
        # d = 7 took 654 MB; the largest case let through, d = 6, m = 6,
        # takes 8.4 s and 109 MB (README)
        if not (2 <= args.d <= 6 and args.m >= 1 and args.m ** args.d <= 50000):
            raise ValueError(f"--d {args.d} --m {args.m}: hill takes 2 <= d <= 6 and "
                             "m >= 1 with at most 50000 tiles (m^d)")
        hill_case = {"d": args.d, "m": args.m}
    ok = True
    for name in names:
        report = run_scenario(name, **(hill_case if name == "hill" else {}))
        ok = ok and report.passed
        if args.format == "json":
            print(report.json_lines())
        else:
            print(report.summary())
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"report-{name}.jsonl")
            with open(path, "w") as f:
                f.write(report.json_lines() + "\n")
            emit_figures(report, args.out)
    return 0 if ok else 1


def _cmd_tile(args) -> int:
    tile = TileSpec.from_pi_fractions(*_triangle("tile", args.tile))
    target = _triangle("target", args.target)
    res = search_tiling(target, tile, n_max=args.n_max,
                        node_budget=args.node_budget)
    out = {"status": res.status, "nodes": res.nodes, "reason": res.reason}
    if res.tiling is not None:
        out["tiles"] = len(res.tiling.tiles)
        out["verified"] = bool(verify_tiling(res.tiling, tile))
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            stem = os.path.join(args.out, "tiling")
            with open(stem + ".json", "w") as f:
                json.dump(res.tiling.to_json(), f, indent=1, sort_keys=True)
            res.tiling.render_svg(stem + ".svg")
            out["files"] = [stem + ".json", stem + ".svg"]
    print(json.dumps(out, sort_keys=True))
    return 0 if res.status == "found" else 1


def _cmd_diagram(args) -> int:
    with open(args.fixture) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object: one diagram, or a catalog of "
                         f"diagrams by name; got a {type(data).__name__}")
    if "edges" in data:
        if args.id is not None:
            raise ValueError(f"--id {args.id}: the file holds one diagram, not a catalog")
    elif args.id and args.id in data:
        data = data[args.id]
    else:
        raise ValueError("catalog file: pick one entry with --id "
                         f"(available: {', '.join(sorted(data))})")
    diagram = CoxeterDiagram.from_fixture(data)
    if args.action == "auts":
        auts = diagram.automorphisms()
        print(json.dumps({"order": len(auts),
                          "generators": [list(p) for p in auts]}, sort_keys=True))
    elif args.action == "orbits":
        ttype = None
        if args.type:
            labels = args.type.split(",")
            if len(labels) != 3:
                raise ValueError("--type: expected three comma-separated labels")
            ttype = triangle_type_of([diagram.relations.normalize(parse_angle(p))
                                      for p in labels])
        parts = orbits(diagram, ttype)
        print(json.dumps({"orbit_count": len(parts),
                          "orbits": [sorted(sorted(t) for t in o) for o in parts]},
                         sort_keys=True))
    else:  # gram
        matrix = gram_from_diagram(diagram)
        report = fiedler_check(matrix)
        det = report.determinant
        print(json.dumps({"ring": matrix.ring, "determinant": repr(det),
                          "determinant_float": float(det),
                          "singular": report.is_singular,
                          "verdict": report.verdict}, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="reptile-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a verification scenario")
    p_run.add_argument("scenario", choices=list(SCENARIOS) + ["all"])
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("json", "text"), default="text")
    p_run.add_argument("--d", type=int, default=None,
                       help="hill scenario only: restrict to one dimension")
    p_run.add_argument("--m", type=int, default=None,
                       help="hill scenario only: restrict to one scale")

    p_tile = sub.add_parser("tile", help="search a tiling of a target triangle")
    p_tile.add_argument("tile", help='base tile angles, e.g. "1/4 pi,1/3 pi,1/2 pi"')
    p_tile.add_argument("target", help="target triangle angles")
    p_tile.add_argument("--n-max", type=int, default=None)
    p_tile.add_argument("--node-budget", type=int, default=NODE_BUDGET)
    p_tile.add_argument("--out", default=None)

    p_diag = sub.add_parser("diagram", help="inspect a diagram fixture file")
    p_diag.add_argument("fixture")
    p_diag.add_argument("action", choices=("auts", "orbits", "gram"))
    p_diag.add_argument("--id", default=None,
                        help="entry name when the file is a catalog")
    p_diag.add_argument("--type", default=None,
                        help="triangle type filter for orbits, e.g. "
                             '"alpha,beta,gamma"')

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "tile":
            return _cmd_tile(args)
        return _cmd_diagram(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
