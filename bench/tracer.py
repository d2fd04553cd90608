"""Per-layer tracing from outside the program.

The tracer wraps public functions of kegraph's modules and rebinds every name
that refers to the original object in every loaded `kegraph.*` module, since
the modules import each other's functions by name. Each call while tracing is
on records a span (name, start, end, parent span, item id) in flat arrays, so
millions of spans stay small in memory; they are written out when the run
ends. Self time is a span's duration minus the time covered by its children.

For functions behind an `lru_cache`, a call is a miss when the cache's miss
counter moved during the call; calls are the base of `hit_ratio`. A function
with no cache computes on every call, so each of its calls counts as a miss.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter

# (layer module, public functions) that get a span. `cli` is a thin argparse
# layer over these and is not traced on its own.
TRACED = {
    "graph": ("from_edge_list", "delete_edge", "delete_vertices"),
    "solvers": (
        "stability_number",
        "lex_min_maximum_stable_set",
        "enumerate_maximum_stable_sets",
        "maximum_matching",
        "forced_matching_edges",
        "perfect_matching_status",
        "enumerate_maximum_matchings",
    ),
    "criticality": ("alpha_critical_edges", "alpha_critical_vertices", "criticality_report"),
    "analysis": (
        "parameter_report",
        "g_zero",
        "is_koenig_egervary",
        "th2_evaluate",
        "forest_condition",
        "ke_decompose",
    ),
    "harness.checks": ("check",),
    "harness.generators": ("generate",),
    "harness.fuzz": ("fuzz", "shrink_failure"),
}

# Work counts taken from the result of each miss.
RESULT_COUNTS = {
    "solvers.enumerate_maximum_stable_sets": ("sets", lambda r: len(r.omega)),
    "solvers.enumerate_maximum_matchings": ("matchings", len),
}
SHRINK = "harness.fuzz.shrink_failure"
CHECK_PREFIX = "harness.checks."


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.item = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.misses: list[int] = []
        self.counts: Counter = Counter()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # Open spans: [span index, name id, time covered by children].
        self._stack: list[list] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.misses.append(0)
        return nid

    def install(self) -> None:
        """Wrap every function in TRACED and rebind it in all loaded kegraph modules."""
        replacements = {}
        for layer, functions in TRACED.items():
            module = sys.modules[f"kegraph.{layer}"]
            for fname in functions:
                original = getattr(module, fname)
                replacements[id(original)] = self._wrap(f"{layer}.{fname}", original)
        for modname, module in list(sys.modules.items()):
            if modname != "kegraph" and not modname.startswith("kegraph."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter
        cache_info = getattr(fn, "cache_info", None)
        result_count = RESULT_COUNTS.get(name)
        is_check = name == "harness.checks.check"
        fixed_id = None if is_check else self._id(name)
        shrink_id = self._id(SHRINK)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if is_check:
                cid = args[1] if len(args) > 1 else kwargs["check_id"]
                nid = tracer._id(CHECK_PREFIX + cid)
            else:
                nid = fixed_id
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if is_check and parent is not None and parent[1] == shrink_id:
                tracer.counts[SHRINK + ".candidates"] += 1
            index = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(parent[0] if parent else -1)
            tracer.span_item.append(tracer.item)
            frame = [index, nid, 0.0]
            stack.append(frame)
            before = cache_info().misses if cache_info else 0
            start = clock()
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.span_end[index] = end
                duration = end - start
                tracer.calls[nid] += 1
                tracer.self_s[nid] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                missed = cache_info is None or cache_info().misses != before
                if missed:
                    tracer.misses[nid] += 1
            if result_count and missed:
                tracer.counts[f"{name}.{result_count[0]}"] += result_count[1](result)
            if is_check:
                tracer.counts[_verdict(result)] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def exact_counts(self) -> dict[str, int]:
        """Every count that must repeat exactly between two runs of one seed."""
        out = dict(self.counts)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.misses"] = self.misses[nid]
        return out

    def write_spans(self, path) -> int:
        """Write spans as gzip'd TSV: name, start, end, parent span, item id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\titem\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_item[i]}\n"
                )
        return len(self.span_start)


def _verdict(result) -> str:
    if result.status == "Pass":
        return CHECK_PREFIX + "pass"
    if result.status == "Fail":
        return CHECK_PREFIX + "fail"
    if (result.reason or "").startswith("capacity"):
        return CHECK_PREFIX + "na_capacity"
    return CHECK_PREFIX + "na"
