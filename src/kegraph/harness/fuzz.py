"""Seeded fuzz campaigns with greedy counterexample shrinking.

Trial t of a campaign uses an RNG derived from (seed, t) alone, so a campaign
is reproducible byte for byte from its summary header. A failing graph is
shrunk by repeated single-edge then single-vertex deletion for as long as the
same check keeps failing; gate preconditions are preserved automatically
because a deletion that breaks them turns the verdict NotApplicable.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace

from ..errors import InputError
from ..graph import Graph, delete_edge, delete_vertices, format_edge_list
from ..solvers import DEFAULT_CAPS, SolverCaps
from .checks import FAIL, NOT_APPLICABLE, PASS, CheckVerdict, check
from .generators import MIN_N, P_KINDS, GeneratorConfig, generate

P_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

_MASK63 = (1 << 63) - 1


def _trial_seed(seed: int, trial: int) -> int:
    return (seed * 1_000_003 + trial * 7_919 + 1) & _MASK63


@dataclass
class FuzzSummary:
    cfg: GeneratorConfig
    trials: int
    counts: dict[str, dict[str, int]]
    witnesses: list[dict]

    @property
    def total_failures(self) -> int:
        return sum(c["fail"] for c in self.counts.values())

    def to_dict(self) -> dict:
        return {
            "seed": self.cfg.seed,
            "cfg": asdict(self.cfg),
            "trials": self.trials,
            "per_check": {cid: dict(c) for cid, c in self.counts.items()},
            "witnesses": list(self.witnesses),
        }


def shrink_failure(g: Graph, check_id: str, caps: SolverCaps = DEFAULT_CAPS) -> Graph:
    """Greedily delete single edges, then single vertices, while the check still fails."""
    while True:
        for e in g.edges:
            candidate = delete_edge(g, e)
            if check(candidate, check_id, caps).status == FAIL:
                g = candidate
                break
        else:
            for v in range(g.n):
                candidate, _ = delete_vertices(g, (v,))
                if check(candidate, check_id, caps).status == FAIL:
                    g = candidate
                    break
            else:
                return g


def _trial_config(cfg: GeneratorConfig, trial: int) -> GeneratorConfig:
    rng = random.Random(_trial_seed(cfg.seed, trial))
    # Single-vertex graphs make almost every check vacuous, so trials start at
    # 2 vertices; a bipartite n counts one side only, so it keeps its minimum.
    low = MIN_N[cfg.kind] if cfg.kind == "bipartite" else max(2, MIN_N[cfg.kind])
    n = rng.randint(min(low, cfg.n), cfg.n)
    n2 = rng.randint(1, cfg.n2) if cfg.n2 else 0
    p = cfg.p
    if p is None and cfg.kind in P_KINDS:
        p = rng.choice(P_GRID)
    return replace(cfg, n=n, n2=n2, p=p, seed=rng.getrandbits(63))


def fuzz(
    cfg: GeneratorConfig,
    trials: int,
    checks: tuple[str, ...] | list[str],
    caps: SolverCaps = DEFAULT_CAPS,
) -> FuzzSummary:
    """Run `trials` seeded trials of every requested check.

    cfg.n bounds the per-trial size from above; cfg.p = None sweeps the
    0.1..0.9 grid for the random kinds. Failures are shrunk and recorded with
    their replayable edge-list serialization. The summary counts verdicts per
    check id, so an id listed twice is an InputError (`kegraph verify`, which
    prints one verdict per listed id, accepts repeats).
    """
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    checks = tuple(checks)
    repeated = [cid for i, cid in enumerate(checks) if cid in checks[:i]]
    if repeated:
        raise InputError(f"check id {repeated[0]!r} is listed more than once")
    counts = {cid: {"pass": 0, "fail": 0, "na": 0} for cid in checks}
    witnesses: list[dict] = []
    for trial in range(trials):
        g = generate(_trial_config(cfg, trial))
        for cid in checks:
            verdict = check(g, cid, caps)
            if verdict.status == PASS:
                counts[cid]["pass"] += 1
            elif verdict.status == NOT_APPLICABLE:
                counts[cid]["na"] += 1
            else:
                counts[cid]["fail"] += 1
                shrunk = shrink_failure(g, cid, caps)
                final: CheckVerdict = check(shrunk, cid, caps)
                entry = {"check_id": cid, "trial": trial, "graph": format_edge_list(shrunk)}
                if final.witness:
                    for key, value in final.witness.items():
                        if key != "graph":
                            entry[key] = value
                witnesses.append(entry)
    return FuzzSummary(cfg=cfg, trials=trials, counts=counts, witnesses=witnesses)
