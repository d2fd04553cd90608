"""One cold campaign of one workload, in a fresh interpreter.

Each campaign runs in its own process so that kegraph's process-wide caches
start empty, as they do for a `kegraph` command. It prints one JSON object as
its last line of standard output.

    python3 bench/worker.py '{"workload": "fuzz-ke20", "seed": 1, "start": 0, "items": 100}'

Keys: workload, seed, start (index of the first item) and items (how many to
run); seconds (stop once this much item time has passed), trace (record
per-layer spans and counts) and spans_out (where to write the spans) are
optional.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(1, str(BENCH_DIR))

from calibration import measure_slice  # noqa: E402

MAX_PROBLEMS = 5
SLICE_EVERY_S = 0.5


def run_pass(args: dict) -> dict:
    setup_start = time.perf_counter()
    from workloads import WORKLOADS, import_kegraph

    kg = import_kegraph()
    tracer = None
    if args.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    workload = WORKLOADS[args["workload"]](kg, args["seed"])
    rounds = workload.rounds(args["start"])
    first_round = next(rounds)
    setup_s = time.perf_counter() - setup_start

    def stream():
        yield from first_round
        for batch in rounds:
            yield from batch

    # The machine's speed, measured between items so it tracks drift within
    # the campaign (see calibration.py).
    task_s = [measure_slice()]
    since_slice = 0.0
    seconds = args.get("seconds")
    limit = args["items"]
    times: list[float | None] = []  # per item; None when the item raised
    digests: list[str] = []
    bad: list[int] = []  # positions of items that raised or failed verification
    problems: list[str] = []
    elapsed = 0.0
    for item in stream():
        if tracer:
            tracer.item = item.index
        try:
            start = time.perf_counter()
            out = workload.run(item)
            took = time.perf_counter() - start
        except Exception as exc:  # an item that raises is counted, not fatal
            took, digest, item_problems = None, "error", [f"{type(exc).__name__}: {exc}"]
        else:
            elapsed += took
            since_slice += took
            if tracer:
                tracer.active = False
            digest, item_problems = workload.verify(item, out)
        finally:
            if tracer:
                tracer.item = -1
                tracer.active = True
        times.append(took)
        digests.append(digest)
        if item_problems:
            bad.append(len(digests) - 1)
            if len(problems) < MAX_PROBLEMS:
                problems.append(f"item {item.index}: {'; '.join(item_problems)}")
        if len(digests) >= limit or (seconds is not None and elapsed >= seconds):
            break
        if since_slice >= SLICE_EVERY_S:
            task_s.append(measure_slice())
            since_slice = 0.0
    task_s.append(measure_slice())

    result = {
        "setup_s": setup_s,
        "task_s": statistics.median(task_s),
        "times": times,
        "digests": digests,
        "bad": bad,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.active = False
        result["layers"] = {
            "names": tracer.names,
            "calls": tracer.calls,
            "misses": tracer.misses,
            "self_s": tracer.self_s,
            "counts": dict(tracer.counts),
            "exact": tracer.exact_counts(),
        }
        if args.get("spans_out"):
            result["spans"] = tracer.write_spans(Path(args["spans_out"]))
    return result


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
