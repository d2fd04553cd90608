"""The benchmark's workloads: seeded item streams, the item call, and output checks.

An item is one unit of user-visible work (one `criticality_report`, one fuzz
trial). Items are made a round at a time, outside the timed region. Each item
is a pure function of (workload, seed, item index), so the same seed always
gives the same items and a campaign can start anywhere in the stream.

Nothing here imports kegraph at module level; the worker imports it inside its
timed set-up, so `setup_s` includes the import.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Iterator

# The 19 checks of the KE acceptance campaign (tests/test_acceptance.py).
KE_CHECKS = (
    "T1i", "T1ii", "T1iii", "CK2", "C2", "NC",
    "P5i", "P5ii", "P5iii", "P7", "P9i", "P9ii", "P9iii",
    "P10", "L6i", "L6ii", "L6iii", "L3", "T2",
)
NEGATIVE_CONTROL = "P7-unguarded"
SHRINK_CHECKS = (NEGATIVE_CONTROL, "BHP", "H1", "NC")

# critical-40: a round holds every (n, kind) cell, n = 24, 26, .., 40, with
# smaller graphs repeated (weights below), so that the few trees at n = 36-40
# (0.1-1.5 s each) set the tail without making up most of the time. G(n,p)
# stops at n = 34: above that one graph takes 0.2-2.5 s, and at one per round
# that spread alone moved items_per_s by about 10% from seed to seed. Within a
# round the cells follow a golden-ratio order, so any prefix of a round (a pass
# stops mid-round when its time is up) holds close to the full mix.
CRITICAL_WEIGHTS = {24: 4, 26: 4, 28: 3, 30: 3, 32: 2, 34: 2, 36: 1, 38: 1, 40: 1}
CRITICAL_MAX_N = {"tree": 40, "gnp": 34, "ke_synth": 40}
CRITICAL_P = {"tree": None, "gnp": (0.1, 0.2), "ke_synth": (0.1, 0.3)}
_CELLS = [
    (n, kind)
    for n, weight in CRITICAL_WEIGHTS.items()
    for _ in range(weight)
    for kind, max_n in CRITICAL_MAX_N.items()
    if n <= max_n
]
CRITICAL_ROUND = tuple(
    _CELLS[j] for j in sorted(range(len(_CELLS)), key=lambda j: j * 0.6180339887 % 1)
)
# Trees and ke_synth graphs are König-Egerváry by construction.
KE_KINDS = ("tree", "ke_synth")


@dataclass(frozen=True)
class Item:
    index: int
    kind: str
    spec: Any  # a Graph for critical-40, a GeneratorConfig for the fuzz workloads


def digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _edges(edges) -> list[list[int]]:
    return [list(e) for e in edges]


class Workload:
    """A seeded item stream plus the call and the output check for one item."""

    name: str
    round_size: int
    # Items per process. A run is a sequence of campaigns, each in a fresh
    # interpreter with cold caches, as a `kegraph` command of that many graphs
    # or trials would be. A fixed campaign also bounds the cache growth that
    # peak_rss_mb sees, so the figure does not follow how far the time went.
    campaign: int
    # item_tail_ms is reported at this fixed percentile: the highest of p90,
    # p99 and p99.9 that keeps well over 10 samples beyond it in a 36 s run at
    # the seed commit. Being fixed, it stays comparable when a change makes a
    # run complete more or fewer items.
    tail_percentile: float

    def __init__(self, kg: SimpleNamespace, seed: int) -> None:
        self.kg = kg
        self.seed = seed

    def rounds(self, start: int) -> Iterator[list[Item]]:
        """Rounds of items from index `start` on; item i depends on (seed, i) only."""
        while True:
            yield [self._make(i, random.Random(f"{self.name}:{self.seed}:{i}"))
                   for i in range(start, start + self.round_size)]
            start += self.round_size

    def _make(self, index: int, rng: random.Random) -> Item:
        raise NotImplementedError

    def run(self, item: Item) -> Any:
        raise NotImplementedError

    def verify(self, item: Item, out: Any) -> tuple[str, list[str]]:
        """(output digest, problems found); an empty list means the output is right."""
        raise NotImplementedError


class Critical40(Workload):
    name = "critical-40"
    round_size = len(CRITICAL_ROUND)
    campaign = round_size
    tail_percentile = 90

    def _make(self, index: int, rng: random.Random) -> Item:
        n, kind = CRITICAL_ROUND[index % self.round_size]
        p_range = CRITICAL_P[kind]
        p = None if p_range is None else rng.uniform(*p_range)
        cfg = self.kg.harness.GeneratorConfig(kind, n, p=p, seed=rng.getrandbits(63))
        return Item(index, kind, self.kg.harness.generate(cfg))

    def run(self, item: Item) -> Any:
        return self.kg.kegraph.criticality_report(item.spec)

    def verify(self, item: Item, out: Any) -> tuple[str, list[str]]:
        g = item.spec
        ace, mce, acv = out.alpha_critical_edges, out.mu_critical_edges, out.alpha_critical_vertices
        problems = []
        if not set(ace) <= g.edge_set or not set(mce) <= g.edge_set:
            problems.append("critical edge is not an edge of the graph")
        if list(acv) != sorted(set(acv)) or any(not 0 <= v < g.n for v in acv):
            problems.append("alpha-critical vertices not a sorted vertex set")
        # Edges in every maximum matching are pairwise disjoint on any graph.
        if len({v for e in mce for v in e}) != 2 * len(mce):
            problems.append("mu-critical edges share a vertex")
        if item.kind in KE_KINDS:
            if not set(ace) <= set(mce):
                problems.append("KE graph: alpha-critical edge that is not mu-critical")
            if len({v for e in ace for v in e}) != 2 * len(ace):
                problems.append("KE graph: alpha-critical edges share a vertex")
        return digest([_edges(ace), _edges(mce), list(acv)]), problems


class FuzzWorkload(Workload):
    """One item is a one-trial `fuzz` campaign; the process's caches carry over."""

    kind: str
    max_n: int
    checks: tuple[str, ...]

    def __init__(self, kg: SimpleNamespace, seed: int) -> None:
        super().__init__(kg, seed)
        self.trial_graphs: list = []
        generators_binding = kg.fuzz_module.generate

        def recording_generate(cfg):
            g = generators_binding(cfg)
            self.trial_graphs.append(g)
            return g

        # Remember each trial graph so a shrunk witness can be compared with it.
        kg.fuzz_module.generate = recording_generate

    def _make(self, index: int, rng: random.Random) -> Item:
        cfg = self.kg.harness.GeneratorConfig(self.kind, self.max_n, seed=rng.getrandbits(63))
        return Item(index, self.kind, cfg)

    def run(self, item: Item) -> Any:
        self.trial_graphs.clear()
        return self.kg.harness.fuzz(item.spec, 1, self.checks)

    def verify(self, item: Item, out: Any) -> tuple[str, list[str]]:
        summary = out.to_dict()
        problems = []
        for cid, counts in summary["per_check"].items():
            if counts["fail"] and cid != NEGATIVE_CONTROL:
                problems.append(f"{cid} failed")
        problems += self._check_witnesses(summary["witnesses"])
        return digest(summary), problems

    def _check_witnesses(self, witnesses: list[dict]) -> list[str]:
        if not witnesses:
            return []
        if len(self.trial_graphs) != 1:
            return [f"expected one trial graph, saw {len(self.trial_graphs)}"]
        trial = self.trial_graphs[0]
        problems = []
        for w in witnesses:
            g = self.kg.kegraph.parse_edge_list(w["graph"])
            if g.n > trial.n or g.m > trial.m:
                problems.append(f"shrunk witness {g.n}/{g.m} larger than trial {trial.n}/{trial.m}")
            if self.kg.harness.check(g, w["check_id"]).status != self.kg.harness.FAIL:
                problems.append(f"shrunk witness does not replay as Fail for {w['check_id']}")
            if w["check_id"] == NEGATIVE_CONTROL and not (
                w["xi"] + w["eta"] > w["alpha"]
                or w["sigma"] + w["eta"] > w["mu"]
                or w["xi"] + 2 * w["eta"] + w["sigma"] > w["n"]
            ):
                problems.append("negative-control witness violates no P7 inequality")
        return problems


class FuzzKe20(FuzzWorkload):
    name = "fuzz-ke20"
    round_size = 50
    campaign = 1000
    tail_percentile = 99
    kind, max_n, checks = "ke_synth", 20, KE_CHECKS


class FuzzShrinkGnp(FuzzWorkload):
    name = "fuzz-shrink-gnp"
    round_size = 10
    campaign = 200
    tail_percentile = 90
    kind, max_n, checks = "gnp", 12, SHRINK_CHECKS


WORKLOADS: dict[str, Callable[[SimpleNamespace, int], Workload]] = {
    w.name: w for w in (Critical40, FuzzKe20, FuzzShrinkGnp)
}


def import_kegraph() -> SimpleNamespace:
    """Import the modules whose public functions the workloads call.

    Calls go through these module attributes at call time, so a tracer that
    rebinds them (see tracer.py) sees every call.
    """
    import kegraph
    import kegraph.harness

    # `kegraph.harness.fuzz` is the function; the module is only in sys.modules.
    fuzz_module = sys.modules["kegraph.harness.fuzz"]
    return SimpleNamespace(kegraph=kegraph, harness=kegraph.harness, fuzz_module=fuzz_module)
