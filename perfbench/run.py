"""reptile-lab benchmark: time to a verdict, end to end and per layer.

    python3 perfbench/run.py --workload {scenarios,tiling-search,hill-lattice}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is used from `src/` as it is
(nothing is installed).  Every pass of a workload runs in fresh
interpreters, so nothing the program caches in memory carries from one
pass to the next.  Passes repeat until `--seconds` have been measured (at
least one pass; a scenarios pass alone outlasts the usual run length).

`--trace 0` prints the end-to-end metrics, `--trace 1` runs untraced passes
and then one traced pass and prints the per-layer metrics together with the
tracing overhead.  Either way the last stdout line is the JSON result; the
lines before it are a readable summary.  The traced spans are written to
`.perfbench-out/`.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import inputs
from speed import local_factor, speed_factor
from tracer import COUNTERS, span_names

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")
RECORDED = os.path.join(BENCH_DIR, "recorded.json")
OUT_DIR = ".perfbench-out"
SETUP_PROBES = 7
CHILD_TIMEOUT = 170
KEY_SCENARIOS = ("case-c", "two-indivisible", "case-a")


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # fixed string hashing, so set iteration order (and with it the work
    # done) is the same in every pass
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd: list, root: str, stdin: str = "") -> tuple:
    """Run one child to completion; returns (exit code, stdout, wall s)."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                          cwd=root, env=child_env(root), timeout=CHILD_TIMEOUT)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, proc.stdout, wall


def last_json(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise BenchError("child printed no result")
    return json.loads(lines[-1])


def setup_probe(root: str) -> float:
    """Set-up time of one fresh interpreter, in reference-speed seconds."""
    code, out, _ = spawn([sys.executable, WORKER, "--probe", repr(time.time())], root)
    if code != 0:
        raise BenchError("set-up probe failed")
    result = last_json(out)
    return result["setup_s"] * speed_factor(result["probe"])


def run_worker(root: str, kind: str, items: list, trace: bool) -> tuple:
    job = json.dumps({"kind": kind, "items": items, "trace": trace})
    code, out, wall = spawn([sys.executable, WORKER], root, stdin=job)
    if code != 0:
        raise BenchError(f"{kind} worker exited with {code}")
    return last_json(out), wall


def payload_digest(report_text: str) -> str:
    """sha256 of the deterministic report payload: the CLI's JSON lines with
    the head's timing removed, i.e. `json_lines(include_timing=False)`."""
    lines = [json.loads(ln) for ln in report_text.splitlines() if ln.strip()]
    if not lines:
        return ""
    lines[0].pop("seconds", None)
    canon = "\n".join(json.dumps(obj, sort_keys=True) for obj in lines)
    return hashlib.sha256(canon.encode()).hexdigest()


def checkpoints_pass(report_text: str) -> bool:
    lines = [json.loads(ln) for ln in report_text.splitlines() if ln.strip()]
    return bool(lines) and all(obj.get("pass") is True for obj in lines)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------
# A verdict is {"id", "kind", "s", "failed", "wrong", ...}; "failed" counts
# against failed_share, "wrong" marks an answer that is incorrect rather than
# merely aborted.


def scenario_verdict(name: str, res: dict, recorded: dict) -> dict:
    text = res["stdout"]
    ok = res["exit"] == 0 and checkpoints_pass(text)
    return {"id": name, "kind": name, "s": res["s"], "failed": not ok,
            "wrong": not ok,
            "payload_changed": payload_digest(text) != recorded["scenario_payloads"][name]}


def tiling_verdict(item: dict, res: dict, recorded: dict) -> dict:
    status = res["status"]
    wrong = False
    if status == "found":
        wrong = not res.get("verified") or res.get("tiles") != item["n"]
    changed = status != item["expect"]
    if item["known"] and changed and status != "aborted":
        wrong = True
    return {"id": item["id"], "kind": status, "s": res["s"], "wrong": wrong,
            "failed": wrong or status == "aborted",
            "verdict_changed": changed and not item["known"]}


def hill_verdict(case: list, res: dict, recorded: dict) -> dict:
    ok = all(res["checks"].values())
    return {"id": f"d{case[0]}m{case[1]}", "kind": "hill-case", "s": res["s"],
            "tiles": res["tiles"], "failed": not ok, "wrong": not ok}


# workload -> (worker kind, one interpreter per item?, verdict check)
WORKLOADS = {"scenarios": ("scenario", True, scenario_verdict),
             "tiling-search": ("tiling", False, tiling_verdict),
             "hill-lattice": ("hill", False, hill_verdict)}


def run_pass(workload: str, root: str, items: list, trace: bool,
             recorded: dict) -> dict:
    """One pass over the workload's inputs in fresh interpreters.

    Times are in reference-speed seconds (speed.py): measured seconds
    without the probe's samples, times the speed factor around each verdict
    (for verdict times) or of the whole pass (for the pass's wall time).
    """
    kind, per_item, judge = WORKLOADS[workload]
    jobs = [[item] for item in items] if per_item else [items]
    verdicts, traces, samples, wall = [], [], [], 0.0
    for job in jobs:
        result, job_wall = run_worker(root, kind, job, trace)
        probe = result["probe"]
        for item, res in zip(job, result["results"]):
            verdict = judge(item, res, recorded)
            verdict["s"] *= local_factor(probe, *res["probe_span"])
            verdicts.append(verdict)
        samples += probe
        wall += job_wall - sum(probe)
        if trace:
            traces.append(result)
    factor = speed_factor(samples)
    return {"verdicts": verdicts, "wall": wall * factor, "factor": factor,
            "traces": traces}


def workload_inputs(workload: str, seed: int, root: str, recorded: dict) -> list:
    if workload == "scenarios":
        return inputs.scenario_inputs(seed)
    if workload == "tiling-search":
        return inputs.tiling_inputs(seed, inputs.load_expectations(root),
                                    recorded["targets"])
    return inputs.hill_inputs(seed)


def run_passes(workload: str, root: str, items: list, seconds: float,
               recorded: dict) -> list:
    """Untraced passes until `seconds` have been measured; at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, root, items, False, recorded))
    return passes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def smooth_median(values) -> float:
    """Mean of the middle fifth of the values (at least the one or two middle
    ones): a median estimate that does not jump when two verdicts of nearly
    equal time swap places around the middle."""
    values = sorted(values)
    n = len(values)
    k = max(n // 5, 1)
    if (n - k) % 2:
        k += 1
    lo = (n - k) // 2
    return statistics.fmean(values[lo:lo + k])


def verdict_times(passes: list) -> list:
    """Each verdict's median time over the run's passes."""
    times = {}
    for p in passes:
        for v in p["verdicts"]:
            times.setdefault(v["id"], []).append(v["s"])
    return [statistics.median(ts) for ts in times.values()]


def end_to_end(passes: list, setup: list) -> dict:
    times = verdict_times(passes)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "verdict_p50_s": (smooth_median(times), "s"),
        "verdict_max_s": (max(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                        "MB"),
    }


def workload_figures(passes: list) -> dict:
    """Figures of one workload's own verdict kinds, from untraced passes;
    0 where the workload has no such verdict."""
    verdicts = [v for p in passes for v in p["verdicts"]]

    def p50(kind):
        return median_or_zero(v["s"] for v in verdicts if v["kind"] == kind)

    hill = [v for v in verdicts if v["kind"] == "hill-case"]
    hill_s = sum(v["s"] for v in hill)
    out = {f"run.{name}_s": (p50(name), "s") for name in KEY_SCENARIOS}
    out["found_p50_s"] = (p50("found"), "s")
    out["exhausted_p50_s"] = (p50("exhausted"), "s")
    out["tiles_per_s"] = (sum(v["tiles"] for v in hill) / hill_s if hill_s else 0.0,
                          "1/s")
    return out


def layer_metrics(traces: list, factor: float) -> dict:
    """Per-layer figures of a traced pass; seconds scaled by its speed factor."""
    names = span_names()
    calls = dict.fromkeys(names, 0)
    total = dict.fromkeys(names, 0.0)
    own = dict.fromkeys(names, 0.0)
    counts = dict.fromkeys(COUNTERS, 0)
    for result in traces:
        rep = result["trace"]
        for n in names:
            calls[n] += rep["calls"][n]
            total[n] += rep["s"][n] * factor
            own[n] += rep["self_s"][n] * factor
        for c in COUNTERS:
            counts[c] += rep["counts"][c]
    out = {}
    for n in names:
        out[f"{n}.calls"] = (calls[n], "count")
        out[f"{n}.s"] = (total[n], "s")
        out[f"{n}.self_s"] = (own[n], "s")
    for status in ("nodes", "found", "exhausted", "aborted"):
        key = f"realize.search_tiling.{status}"
        out[key] = (counts[key], "count")
    search_s = total["realize.search_tiling"]
    out["realize.nodes_per_s"] = (
        counts["realize.search_tiling.nodes"] / search_s if search_s else 0.0, "1/s")
    cands = counts["realize.enumerate_candidates.out"]
    out["realize.enumerate_candidates.expressible_share"] = (
        counts["realize.enumerate_candidates.expressible"] / cands if cands else 0.0,
        "ratio")
    for key in ("coxeter.enumerate_diagrams.out", "coxeter.enumerate_edge_partitions.out",
                "coxeter.enumerate_two_label_skeletons.out", "hill.tiles"):
        out[key] = (counts[key], "count")
    keys = counts["coxeter.canonical_key.in_enumerate_diagrams"]
    out["coxeter.dedupe_ratio"] = (
        counts["coxeter.enumerate_diagrams.out"] / keys if keys else 0.0, "ratio")
    return out


def verdict_counts(passes: list) -> dict:
    verdicts = [v for p in passes for v in p["verdicts"]]
    return {"attempted": len(verdicts),
            "failed": sum(v["failed"] for v in verdicts),
            "wrong": sum(v["wrong"] for v in verdicts),
            "payload_changed": sum(v.get("payload_changed", False) for v in verdicts),
            "verdict_changes": sum(v.get("verdict_changed", False) for v in verdicts)}


def write_trace(workload: str, seed: int, traced: dict, untraced_wall: float) -> str:
    """All spans of the traced pass, in measured nanoseconds (probe excluded)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    traces = traced["traces"]
    doc = {"workload": workload, "seed": seed, "untraced_wall_s": untraced_wall,
           "traced_wall_s": traced["wall"], "speed_factor": traced["factor"],
           "processes": [{"span_names": t["span_names"],
                          "span_fields": ["name", "verdict", "parent", "start_ns",
                                          "end_ns", "self_ns"],
                          "spans": t["spans"],
                          "dedupe": t["trace"]["dedupe"]} for t in traces]}
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def check_checkout(root: str) -> None:
    for rel in (os.path.join("src", "reptile_lab", "__init__.py"), inputs.EXPECTATIONS):
        if not os.path.isfile(os.path.join(root, rel)):
            raise BenchError(f"no {rel} here: run from the root of a reptile-lab checkout")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    root = os.getcwd()
    check_checkout(root)
    with open(RECORDED) as f:
        recorded = json.load(f)
    items = workload_inputs(workload, seed, root, recorded)
    if not trace:
        setup = [setup_probe(root) for _ in range(SETUP_PROBES)]
        passes = run_passes(workload, root, items, seconds, recorded)
        metrics = end_to_end(passes, setup)
    else:
        passes = run_passes(workload, root, items, seconds, recorded)
        traced = run_pass(workload, root, items, True, recorded)
        untraced_wall = statistics.median(p["wall"] for p in passes)
        metrics = layer_metrics(traced["traces"], traced["factor"])
        metrics.update(workload_figures(passes))
        metrics["trace.overhead_s"] = (traced["wall"] - untraced_wall, "s")
        passes.append(traced)
        path = write_trace(workload, seed, traced, untraced_wall)
        print(f"spans written to {path}")
    counts = verdict_counts(passes)
    failed_share = counts["failed"] / counts["attempted"]
    if trace:
        metrics["failed_share"] = (failed_share, "ratio")
        metrics["payload_changed"] = (counts["payload_changed"], "count")
        metrics["verdict_changes"] = (counts["verdict_changes"], "count")
    print(f"workload {workload}  seed {seed}  passes {len(passes)}  "
          f"verdicts {counts['attempted']}  failed {counts['failed']} "
          f"(failed_share {failed_share:.4f}, wrong {counts['wrong']})  "
          f"payload_changed {counts['payload_changed']}  "
          f"verdict_changes {counts['verdict_changes']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:58s} {value:14.6g} {unit}")
    return {"correct": counts["wrong"] == 0, "attempted": counts["attempted"],
            "failed": counts["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
