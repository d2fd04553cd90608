"""The kegraph benchmark: one command, seeded workloads, checked outputs.

    python3 bench/run.py --workload critical-40 --seed 1 --seconds 36 --trace 0

Run from a source checkout; kegraph is imported from its `src/`. Items run in
campaigns, each in a fresh interpreter (bench/worker.py), so caches start
cold as they do for a `kegraph` command; the benchmark never touches them.

With --trace 0 it runs campaigns, each continuing the item stream, until
--seconds of item time have passed, and prints the end-to-end metrics. With
--trace 1 it makes three passes over the first campaign's items: a traced
pass of at most --seconds / 3 for the per-layer metrics, a second traced pass
whose exact counts must repeat the first's, and an untraced pass, whose item
time gives the tracing overhead. --smoke runs a handful of items, for the
benchmark's own tests.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every output was
right, 1 when not, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

from calibration import REFERENCE_TASK_S  # noqa: E402
from tracer import TRACED  # noqa: E402
from workloads import KE_CHECKS, SHRINK_CHECKS, WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 36
SMOKE_ITEMS = 3
TIME_LIMIT_S = 170

# The traced functions behind an lru_cache; they also get misses and hit_ratio.
CACHED = (
    "solvers.stability_number",
    "solvers.enumerate_maximum_stable_sets",
    "solvers.maximum_matching",
    "solvers.forced_matching_edges",
    "solvers.perfect_matching_status",
    "criticality.alpha_critical_edges",
    "criticality.alpha_critical_vertices",
    "analysis.parameter_report",
    "analysis.g_zero",
    "analysis.is_koenig_egervary",
)
# `check` is reported per check id instead.
FUNCTIONS = tuple(
    f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns if fn != "check"
)
WORK_COUNTS = (
    "solvers.enumerate_maximum_stable_sets.sets",
    "solvers.enumerate_maximum_matchings.matchings",
    "harness.fuzz.shrink_failure.candidates",
    "harness.checks.pass",
    "harness.checks.fail",
    "harness.checks.na",
    "harness.checks.na_capacity",
)
CHECKS = tuple(dict.fromkeys(KE_CHECKS + SHRINK_CHECKS))
OVERHEAD = "bench.trace_overhead_pct"

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {}
    for fn in FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        if fn in CACHED:
            units |= {f"{fn}.misses": "count", f"{fn}.hit_ratio": "ratio"}
        units[f"{fn}.self_s"] = "s"
    units |= {name: "count" for name in WORK_COUNTS}
    units |= {f"harness.checks.{cid}.self_s": "s" for cid in CHECKS}
    units[OVERHEAD] = "%"
    return units


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def run_worker(args: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a pass could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(args)],
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {args} ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"pass {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(times: list[float], pct: float) -> tuple[float, int]:
    """(value, samples beyond it) of a percentile by nearest rank."""
    ordered = sorted(times)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def metadata(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src" / "kegraph").rglob("*.py"))
    )
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "src_kegraph_lines": src_lines,
    }


def pinned_problems(workload: str, digests: list[str]) -> list[str]:
    """Outputs of the default seed must match the digests pinned at the seed commit."""
    pinned = json.loads((BENCH_DIR / "digests.json").read_text())[workload]
    common = min(len(pinned), len(digests))
    bad = [i for i in range(common) if pinned[i] != digests[i]]
    if not bad:
        return []
    return [f"{len(bad)} of {common} outputs differ from the pinned digests, first at item {bad[0]}"]


def run_campaigns(common: dict, seconds: float, deadline: float) -> list[dict]:
    """Cold campaigns, each continuing the item stream, until `seconds` of item time."""
    campaign = WORKLOADS[common["workload"]].campaign
    campaigns: list[dict] = []
    start, elapsed = 0, 0.0
    while elapsed < seconds:
        args = {**common, "start": start, "items": campaign, "seconds": seconds - elapsed}
        campaigns.append(run_worker(args, deadline))
        start += len(campaigns[-1]["digests"])
        elapsed += sum(filter(None, campaigns[-1]["times"]))
    return campaigns


def speed_factor(campaign: dict) -> float:
    """Scales a campaign's times to reference seconds (see calibration.py)."""
    return REFERENCE_TASK_S / campaign["task_s"]


def end_to_end(workload: str, campaigns: list[dict]) -> tuple[dict, list[str]]:
    times = [t * speed_factor(c) for c in campaigns for t in c["times"] if t is not None]
    if not times:
        raise BenchError("no item completed")
    raw_s = sum(t for c in campaigns for t in c["times"] if t is not None)
    factors = [speed_factor(c) for c in campaigns]
    size = WORKLOADS[workload].campaign
    # Only whole campaigns did the fixed amount of work that peak_rss_mb is for.
    whole = [c for c in campaigns if len(c["digests"]) == size] or campaigns
    pct = WORKLOADS[workload].tail_percentile
    tail_s, beyond = tail(times, pct)
    values = {
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": statistics.median(times) * 1000,
        "item_tail_ms": tail_s * 1000,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in whole),
        "setup_s": statistics.median(c["setup_s"] * speed_factor(c) for c in campaigns),
    }
    notes = {
        "items_per_s": f"{len(times)} items in {len(campaigns)} campaigns of up to {size}; "
        f"{len(times) / raw_s:.4f} per wall second, speed factors {min(factors):.3f}-{max(factors):.3f}",
        "item_tail_ms": f"p{pct:g}, {beyond} items beyond it",
        "peak_rss_mb": f"median of {len(whole)} campaigns",
        "setup_s": f"median of {len(campaigns)} cold set-ups",
    }
    lines = [
        f"{name:<14} {value:>12.4f} {END_TO_END_UNITS[name]:<4} {notes.get(name, '')}".rstrip()
        for name, value in values.items()
    ]
    return values, lines


def per_layer(traced: dict, untraced: dict) -> tuple[dict, list[str]]:
    layers = traced["layers"]
    by_name = {name: i for i, name in enumerate(layers["names"])}
    values = {}
    for name in layer_units():
        base, _, stat = name.rpartition(".")
        i = by_name.get(base)
        if name in WORK_COUNTS:
            values[name] = layers["counts"].get(name, 0)
        elif name == OVERHEAD:
            item_time = [sum(filter(None, p["times"])) * speed_factor(p) for p in (traced, untraced)]
            values[name] = (item_time[0] / item_time[1] - 1) * 100
        elif i is None:
            values[name] = 0
        elif stat == "hit_ratio":
            calls = layers["calls"][i]
            values[name] = (calls - layers["misses"][i]) / calls if calls else 0
        else:
            values[name] = layers[stat][i]
    lines = [f"{name:<52} {value:>14.6g} {layer_units()[name]}" for name, value in values.items()]
    return values, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help=f"{SMOKE_ITEMS} items per pass")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "kegraph" / "__init__.py").is_file():
        print(f"no kegraph source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    common = {"workload": args.workload, "seed": args.seed}
    meta = metadata(args.seed)
    try:
        if args.trace:
            # Three passes over the first campaign's items, the first for a third
            # of --seconds, so a traced run takes about as long as an untraced one.
            spans_out = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            size = SMOKE_ITEMS if args.smoke else WORKLOADS[args.workload].campaign
            traced_args = {**common, "start": 0, "items": size, "seconds": args.seconds / 3,
                           "trace": True, "spans_out": str(spans_out)}
            traced = run_worker(traced_args, deadline)
            count = {"start": 0, "items": len(traced["digests"])}
            repeat = run_worker({**common, **count, "trace": True}, deadline)
            untraced = run_worker({**common, **count}, deadline)
            passes = [traced, repeat, untraced]
            metrics, lines = per_layer(traced, untraced)
            units = layer_units()
            first, second = traced["layers"]["exact"], repeat["layers"]["exact"]
            differing = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
            problems = []
            if differing:
                problems.append(f"exact counts differ between two traced passes: {differing[:8]}")
            lines.append(f"exact counts repeat across two traced passes: {'no' if differing else 'yes'}")
            lines.append(f"spans: {traced['spans']} written to {spans_out.relative_to(ROOT)}")
            digests = traced["digests"]
            bad = set().union(*(p["bad"] for p in passes))
            problems += [
                "two passes over the same items gave different outputs"
                for p in (repeat, untraced) if p["digests"] != digests
            ]
        else:
            if args.smoke:
                passes = [run_worker({**common, "start": 0, "items": SMOKE_ITEMS}, deadline)]
            else:
                passes = run_campaigns(common, args.seconds, deadline)
            metrics, lines = end_to_end(args.workload, passes)
            units = END_TO_END_UNITS
            digests, bad, problems = [], set(), []
            for p in passes:
                bad |= {len(digests) + i for i in p["bad"]}
                digests += p["digests"]
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    attempted = len(digests)
    failed = len(bad)
    if args.seed == DEFAULT_SEED:
        problems += pinned_problems(args.workload, digests)
    for p in passes:
        problems += p["problems"]
    correct = failed == 0 and not problems
    lines.append(f"{'error_rate':<14} {failed / attempted:>12.4f}      {failed} of {attempted} items")
    lines += [f"problem: {p}" for p in problems]

    record = {"meta": meta, "workload": args.workload, "trace": args.trace,
              "attempted": attempted, "failed": failed, "problems": problems,
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"kegraph benchmark: {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"meta: {json.dumps(meta)}")
    print("\n".join(lines))
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
