"""A fixed pure-Python kernel that measures how fast the machine runs right now.

On a shared machine the speed of one core drifts by up to 1.7x over minutes,
as neighbours come and go; a fixed pure-Python loop on the 2-core machine this
benchmark was written on ran at 0.55-0.96 ms per task from one minute to the
next. The drift moves every timing of a run together, so a worker times this
kernel between items and the run scales its item times by

    REFERENCE_TASK_S / (median kernel task time during the campaign)

Timings are thus reported in reference seconds: the time the item would take
on a machine that runs the kernel at REFERENCE_TASK_S per task. The kernel
uses no kegraph code, so a change to kegraph cannot move it. It mixes the
kinds of work kegraph does: bitset branch and bound, and building, hashing and
storing edge tuples.
"""

from __future__ import annotations

import random
import statistics
import time

REFERENCE_TASK_S = 0.0006
SLICE_TASKS = 25

_RNG = random.Random(20000207)
_N = 24
_EDGES = tuple((u, v) for u in range(_N) for v in range(u + 1, _N) if _RNG.random() < 0.2)


def _task() -> int:
    masks = [0] * _N
    for u, v in _EDGES:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    best = 0

    def search(mask: int, size: int) -> None:
        nonlocal best
        if size + mask.bit_count() <= best:
            return
        if not mask:
            best = size
            return
        v = (mask & -mask).bit_length() - 1
        search(mask & ~(masks[v] | (1 << v)), size + 1)
        search(mask & ~(1 << v), size)

    search((1 << _N) - 1, 0)
    memo = {tuple(x for x in _EDGES if x != e): i for i, e in enumerate(_EDGES)}
    return best + len(memo)


def measure_slice() -> float:
    """Median seconds per kernel task over one short slice of SLICE_TASKS tasks."""
    times = []
    for _ in range(SLICE_TASKS):
        start = time.perf_counter()
        _task()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
