"""Runtime tracing of the layer functions, from outside the package.

`Tracer.install()` replaces each listed function (or method) by a wrapper
that records a span: name, verdict id, parent span, start and end.  The
wrapper is bound under every name that held the original in any loaded
`reptile_lab` module, so `from .coxeter import enumerate_diagrams` in
`scenarios` is traced as well.  A listed name the package no longer has
raises `MissingLayerFunction` instead of reading as zero calls.

Spans stay in memory; `Tracer.report()` turns them into per-function
calls / total seconds / self seconds plus the layer counters.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time

# layer -> traced callables ("Class.method" for methods).  ExactMatrix.det
# is split by the ring of its matrix: det.q, det.quad, det.poly.
LAYERS = {
    "exactmath": ("ExactMatrix.det", "isolate_roots"),
    "spherical": ("is_valid", "edge_lengths"),
    "realize": ("enumerate_candidates", "edge_combination", "search_tiling",
                "verify_tiling"),
    "coxeter": ("enumerate_diagrams", "enumerate_edge_partitions",
                "enumerate_two_label_skeletons", "CoxeterDiagram.canonical_key",
                "CoxeterDiagram.automorphisms", "coloring_automorphisms",
                "label_subgraph"),
    "gram": ("gram_from_diagram", "fiedler_check", "parametric_fiedler"),
    "hill": ("generate_h1_tiling", "generate_h2_h1_tiles", "tiling_report",
             "congruent", "compatibility_graph", "pair_h2_tiling"),
    "scenarios": ("final_case_analysis", "case_a_enumeration"),
}

DET_SPANS = {"Q": "exactmath.det.q", "Q[t]": "exactmath.det.poly"}
DET_QUAD = "exactmath.det.quad"  # any Q(sqrt m)


def span_names() -> list:
    """Every span name the tracer can record, in a fixed order."""
    out = []
    for layer, targets in LAYERS.items():
        for target in targets:
            if target == "ExactMatrix.det":
                out += [f"{layer}.det.q", f"{layer}.det.quad", f"{layer}.det.poly"]
            else:
                out.append(f"{layer}.{target.split('.')[-1]}")
    return out


COUNTERS = ("realize.search_tiling.nodes", "realize.search_tiling.found",
            "realize.search_tiling.exhausted", "realize.search_tiling.aborted",
            "realize.enumerate_candidates.out",
            "realize.enumerate_candidates.expressible",
            "coxeter.enumerate_diagrams.out",
            "coxeter.enumerate_edge_partitions.out",
            "coxeter.enumerate_two_label_skeletons.out",
            "coxeter.canonical_key.in_enumerate_diagrams",
            "hill.tiles")


class MissingLayerFunction(RuntimeError):
    pass


class Tracer:
    def __init__(self, clock_ns=time.perf_counter_ns):
        self.clock_ns = clock_ns
        self.names = span_names()
        self.index = {n: i for i, n in enumerate(self.names)}
        # one tuple per finished span: (name index, verdict, parent span or
        # -1, start ns, end ns, self ns)
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        # (verdict, enumerate_diagrams output, canonical_key calls inside it)
        self.dedupe = []
        self.keys_open = 0  # canonical_key calls in the open enumerate_diagrams
        self.verdict = -1
        self._stack = []  # [span slot, child ns] of the open spans
        self._active = {}  # span name -> open depth
        self._installed = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import reptile_lab

        for info in pkgutil.iter_modules(reptile_lab.__path__):
            importlib.import_module(f"reptile_lab.{info.name}")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "reptile_lab" or name.startswith("reptile_lab.")]
        for layer, targets in LAYERS.items():
            module = sys.modules.get(f"reptile_lab.{layer}")
            if module is None:
                raise MissingLayerFunction(f"module reptile_lab.{layer} is gone")
            for target in targets:
                owner, attr = module, target
                if "." in target:
                    cls_name, attr = target.split(".")
                    owner = getattr(module, cls_name, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    raise MissingLayerFunction(f"reptile_lab.{layer}.{target} is gone")
                wrapper = self._wrap(original, f"{layer}.{attr}")
                if owner is module:
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapper)
                                self._installed.append((mod, key, original))
                else:
                    setattr(owner, attr, wrapper)
                    self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name):
        spans, stack, active = self.spans, self._stack, self._active
        clock = self.clock_ns
        after = _AFTER.get(name)
        is_det = name == "exactmath.det"
        index = self.index
        fixed_idx = None if is_det else index[name]

        def traced(*args, **kwargs):
            if is_det:
                key = DET_SPANS.get(args[0].ring, DET_QUAD)
                idx = index[key]
            else:
                idx, key = fixed_idx, name
            parent = stack[-1][0] if stack else -1
            slot = len(spans)
            spans.append(None)
            frame = [slot, 0]
            stack.append(frame)
            active[key] = active.get(key, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[key] -= 1
                dur = end - start
                spans[slot] = (idx, self.verdict, parent, start, end, dur - frame[1])
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(self, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- results ---------------------------------------------------------------

    def report(self) -> dict:
        calls = dict.fromkeys(self.names, 0)
        total = dict.fromkeys(self.names, 0)
        self_ns = dict.fromkeys(self.names, 0)
        for idx, _verdict, _parent, start, end, own in self.spans:
            name = self.names[idx]
            calls[name] += 1
            total[name] += end - start
            self_ns[name] += own
        return {"calls": calls,
                "s": {k: v / 1e9 for k, v in total.items()},
                "self_s": {k: v / 1e9 for k, v in self_ns.items()},
                "counts": dict(self.counts),
                "dedupe": list(self.dedupe)}


def _after_search(tracer, res):
    tracer.counts["realize.search_tiling.nodes"] += res.nodes
    tracer.counts[f"realize.search_tiling.{res.status}"] += 1


def _after_candidates(tracer, cands):
    tracer.counts["realize.enumerate_candidates.out"] += len(cands)
    tracer.counts["realize.enumerate_candidates.expressible"] += sum(
        1 for c in cands if c.expressible)


def _after_diagrams(tracer, diagrams):
    tracer.counts["coxeter.enumerate_diagrams.out"] += len(diagrams)
    # canonical_key calls made inside this enumerate_diagrams call: the
    # counter runs while any enumerate_diagrams span is open, so read and
    # reset it when the outermost one closes
    if tracer._active.get("coxeter.enumerate_diagrams", 0) == 0:
        tracer.dedupe.append((tracer.verdict, len(diagrams), tracer.keys_open))
        tracer.counts["coxeter.canonical_key.in_enumerate_diagrams"] += tracer.keys_open
        tracer.keys_open = 0


def _after_canonical_key(tracer, _key):
    if tracer._active.get("coxeter.enumerate_diagrams", 0):
        tracer.keys_open += 1


def _after_tiles(tracer, tiles):
    tracer.counts["hill.tiles"] += len(tiles)


def _out_counter(name):
    def after(tracer, result):
        tracer.counts[name] += len(result)
    return after


_AFTER = {
    "realize.search_tiling": _after_search,
    "realize.enumerate_candidates": _after_candidates,
    "coxeter.enumerate_diagrams": _after_diagrams,
    "coxeter.canonical_key": _after_canonical_key,
    "coxeter.enumerate_edge_partitions": _out_counter(
        "coxeter.enumerate_edge_partitions.out"),
    "coxeter.enumerate_two_label_skeletons": _out_counter(
        "coxeter.enumerate_two_label_skeletons.out"),
    "hill.generate_h1_tiling": _after_tiles,
    "hill.generate_h2_h1_tiles": _after_tiles,
}
