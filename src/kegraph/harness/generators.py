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

KINDS = ("tree", "bipartite", "ke_synth", "gnp", "cycle", "path", "complete")

MIN_N = {
    "tree": 1,
    "bipartite": 1,
    "ke_synth": 1,
    "gnp": 1,
    "cycle": 3,
    "path": 2,
    "complete": 1,
}


@dataclass(frozen=True)
class GeneratorConfig:
    kind: str
    n: int
    n2: int = 0
    p: float | None = None
    seed: int = 0

    def to_dict(self) -> dict:
        return {"kind": self.kind, "n": self.n, "n2": self.n2, "p": self.p, "seed": self.seed}


def _prufer_tree(rng: random.Random, n: int) -> list[Edge]:
    # Uniform labeled tree: decode a random Prüfer sequence, smallest leaf first.
    if n <= 1:
        return []
    if n == 2:
        return [(0, 1)]
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
    edges: list[Edge] = []
    for i in range(s_size, n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    partners = rng.sample(range(s_size), h)
    matched = set()
    for i, b in enumerate(h_ids):
        edges.append((partners[i], b))
        matched.add((partners[i], b))
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
    if cfg.kind not in KINDS:
        raise InputError(f"unknown generator kind {cfg.kind!r}")
    if cfg.n < MIN_N[cfg.kind]:
        raise InputError(f"{cfg.kind} generator needs n >= {MIN_N[cfg.kind]}")
    if cfg.n2 < 0:
        raise InputError(f"n2 must be non-negative, got {cfg.n2}")
    if cfg.n2 and cfg.kind != "bipartite":
        raise InputError(f"n2 is read only by the bipartite generator, got n2={cfg.n2} for {cfg.kind}")
    if cfg.p is not None and not 0.0 <= cfg.p <= 1.0:
        raise InputError(f"p={cfg.p} outside [0, 1]")
    rng = random.Random(cfg.seed)
    if cfg.kind == "tree":
        return from_edge_list(cfg.n, _prufer_tree(rng, cfg.n))
    if cfg.kind == "cycle":
        return from_edge_list(cfg.n, [(i, (i + 1) % cfg.n) for i in range(cfg.n)])
    if cfg.kind == "path":
        return from_edge_list(cfg.n, [(i, i + 1) for i in range(cfg.n - 1)])
    if cfg.kind == "complete":
        return from_edge_list(cfg.n, [(u, v) for u in range(cfg.n) for v in range(u + 1, cfg.n)])
    if cfg.p is None:
        raise InputError(f"{cfg.kind} generator needs an explicit p")
    if cfg.kind == "gnp":
        return from_edge_list(cfg.n, _gnp_edges(rng, cfg.n, cfg.p))
    if cfg.kind == "bipartite":
        n2 = cfg.n2 if cfg.n2 > 0 else cfg.n
        return from_edge_list(cfg.n + n2, _bipartite_edges(rng, cfg.n, n2, cfg.p))
    return _ke_synth(rng, cfg.n, cfg.p)
