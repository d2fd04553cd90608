"""Seeded graph generators for the theorem-checking harness.

Every generator is a pure function of its config: the same seed always yields
the same graph, regardless of interpreter session.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, replace

from ..analysis import is_koenig_egervary
from ..errors import InputError, InternalInvariantError
from ..graph import Edge, Graph, components, from_edge_list
from ..solvers import DEFAULT_CAPS

# Every generator kind, with the least n it accepts.
MIN_N = {
    "tree": 1,
    "bipartite": 1,
    "ke_synth": 1,
    "gnp": 1,
    "cycle": 3,
    "path": 2,
    "complete": 1,
}

KINDS = tuple(MIN_N)
# The kinds whose generator reads the edge probability p.
P_KINDS = ("bipartite", "ke_synth", "gnp")


@dataclass(frozen=True)
class GeneratorConfig:
    """One generator input, checked when made; `generate` needs p for the P_KINDS."""

    kind: str
    n: int
    n2: int = 0
    p: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in MIN_N:
            raise InputError(f"unknown generator kind {self.kind!r}")
        if self.n < MIN_N[self.kind]:
            raise InputError(f"{self.kind} generator needs n >= {MIN_N[self.kind]}")
        if self.n2 < 0:
            raise InputError(f"n2 must be non-negative, got {self.n2}")
        if self.n2 and self.kind != "bipartite":
            raise InputError(f"n2 is read only by the bipartite generator, got n2={self.n2} for {self.kind}")
        if self.p is not None and self.kind not in P_KINDS:
            kinds = ", ".join(P_KINDS)
            raise InputError(f"p is read only by the {kinds} generators, got p={self.p} for {self.kind}")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise InputError(f"p={self.p} outside [0, 1]")


def _prufer_tree(rng: random.Random, n: int) -> list[Edge]:
    # Uniform labeled tree: decode a random Prüfer sequence, smallest leaf first.
    if n <= 1:
        return []
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def _gnp_edges(rng: random.Random, n: int, p: float) -> list[Edge]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def _bipartite_edges(rng: random.Random, n1: int, n2: int, p: float) -> list[Edge]:
    return [(u, n1 + w) for u in range(n1) for w in range(n2) if rng.random() < p]


def _ke_synth(rng: random.Random, n: int, p: float) -> Graph:
    # A stable side S of size n-h, an arbitrary graph on the other h vertices,
    # an injective matching from H into S, extra cut edges, then patch
    # connectivity with more cut edges. KE by construction.
    if n == 1:
        return Graph(1, ())
    h = rng.randint(1, n // 2)
    s_size = n - h
    h_ids = list(range(s_size, n))
    edges = [(i, j) for i in h_ids for j in range(i + 1, n) if rng.random() < p]
    matching = list(zip(rng.sample(range(s_size), h), h_ids))
    edges += matching
    matched = set(matching)
    for a in range(s_size):
        for b in h_ids:
            if (a, b) not in matched and rng.random() < p:
                edges.append((a, b))
    g = from_edge_list(n, edges)
    comps = components(g)
    if len(comps) > 1:
        anchor = next(c for c in comps if any(v >= s_size for v in c))
        anchor_h = [v for v in anchor if v >= s_size]
        for comp in comps:
            if comp is anchor:
                continue
            a = min(v for v in comp if v < s_size)
            edges.append((a, rng.choice(anchor_h)))
    perm = list(range(n))
    rng.shuffle(perm)
    g = from_edge_list(n, [(perm[u], perm[v]) for u, v in edges])
    # Only the alpha search runs here; the other caps stay at their defaults so
    # that the checks reuse this stability number from the cache.
    if not is_koenig_egervary(g, replace(DEFAULT_CAPS, alpha=max(DEFAULT_CAPS.alpha, n))):
        raise InternalInvariantError("synthesized graph is not König-Egerváry")
    return g


def generate(cfg: GeneratorConfig) -> Graph:
    """Build the graph described by cfg; deterministic per seed."""
    if cfg.kind in P_KINDS and cfg.p is None:
        raise InputError(f"{cfg.kind} generator needs an explicit p")
    rng = random.Random(cfg.seed)
    if cfg.kind == "tree":
        return from_edge_list(cfg.n, _prufer_tree(rng, cfg.n))
    if cfg.kind == "cycle":
        return from_edge_list(cfg.n, [(i, (i + 1) % cfg.n) for i in range(cfg.n)])
    if cfg.kind == "path":
        return from_edge_list(cfg.n, [(i, i + 1) for i in range(cfg.n - 1)])
    if cfg.kind == "complete":
        return from_edge_list(cfg.n, [(u, v) for u in range(cfg.n) for v in range(u + 1, cfg.n)])
    if cfg.kind == "gnp":
        return from_edge_list(cfg.n, _gnp_edges(rng, cfg.n, cfg.p))
    if cfg.kind == "bipartite":
        n2 = cfg.n2 or cfg.n
        return from_edge_list(cfg.n + n2, _bipartite_edges(rng, cfg.n, n2, cfg.p))
    return _ke_synth(rng, cfg.n, cfg.p)
