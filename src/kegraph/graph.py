"""Immutable simple undirected graphs on dense integer vertices.

Vertices are 0..n-1; edges are canonical (u, v) pairs with u < v, kept in
sorted order. Graph values are hashable and never mutated, so every operation
below returns a fresh value and is safe to call concurrently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InputError

Edge = tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    """Order an edge's endpoints; self-loops are rejected."""
    if u == v:
        raise InputError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple graph as (vertex count, canonical sorted edge tuple)."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InputError(f"negative vertex count {self.n}")
        prev: Edge | None = None
        for e in self.edges:
            u, v = e
            if not (0 <= u < v < self.n):
                raise InputError(f"edge {e} is not canonical for n={self.n}")
            if prev is not None and e <= prev:
                raise InputError(f"edge list not sorted/deduplicated at {e}")
            prev = e

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex sorted neighbor tuples."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in nbrs)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighborhoods as bitsets; the solvers' working form."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)


@dataclass(frozen=True)
class Matching:
    """Edge set with pairwise-disjoint endpoints."""

    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        prev: Edge | None = None
        for e in self.edges:
            u, v = e
            if u >= v:
                raise InputError(f"matching edge {e} is not canonical")
            if prev is not None and e <= prev:
                raise InputError("matching edges not sorted/deduplicated")
            if u in seen or v in seen:
                raise InputError(f"matching edges share endpoint at {e}")
            seen.update((u, v))
            prev = e

    @property
    def size(self) -> int:
        return len(self.edges)


def vertex_set(g: Graph, members: Iterable[int]) -> tuple[int, ...]:
    """Canonical sorted duplicate-free vertex tuple, bounds-checked against g."""
    out = sorted(set(members))
    for v in out:
        if not (isinstance(v, int) and 0 <= v < g.n):
            raise InputError(f"vertex {v} out of range for n={g.n}")
    return tuple(out)


def edge_subset(g: Graph, members: Iterable[Edge]) -> tuple[Edge, ...]:
    """Canonical sorted edge tuple; every member must be an edge of g."""
    out = sorted({canonical_edge(u, v) for u, v in members})
    for e in out:
        if e not in g.edge_set:
            raise InputError(f"{e} is not an edge of the graph")
    return tuple(out)


def from_edge_list(n: int, pairs: Iterable[Sequence[int]]) -> Graph:
    """Build a graph from arbitrary (u, v) pairs; duplicates collapse, order ignored."""
    if n < 0:
        raise InputError(f"negative vertex count {n}")
    edges: set[Edge] = set()
    for pair in pairs:
        u, v = pair
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) out of range for n={n}")
        edges.add(canonical_edge(u, v))
    return Graph(n, tuple(sorted(edges)))


def delete_edge(g: Graph, e: Edge) -> Graph:
    """The graph minus one edge; the edge must be present."""
    e = canonical_edge(*e)
    if e not in g.edge_set:
        raise InputError(f"{e} is not an edge of the graph")
    return Graph(g.n, tuple(x for x in g.edges if x != e))


def delete_vertices(g: Graph, w: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on V-W with dense relabeling.

    Returns (subgraph, kept) where kept[i] is the original id of new vertex i.
    """
    dropped = set(vertex_set(g, w))
    kept = tuple(v for v in range(g.n) if v not in dropped)
    new_id = {old: i for i, old in enumerate(kept)}
    edges = tuple(
        sorted((new_id[u], new_id[v]) for u, v in g.edges if u in new_id and v in new_id)
    )
    return Graph(len(kept), edges), kept


def neighborhood(g: Graph, a: Iterable[int], closed: bool = False) -> tuple[int, ...]:
    """Open N(A) or closed N[A] of a vertex set."""
    a = vertex_set(g, a)
    out: set[int] = set()
    for v in a:
        out.update(g.adj[v])
    if closed:
        out.update(a)
    return tuple(sorted(out))


def is_bipartite(g: Graph) -> bool:
    """True iff g has a 0/1 vertex colouring with no monochromatic edge."""
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in g.adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def spans_forest(g: Graph, w: Iterable[Edge]) -> bool:
    """True iff the partial graph (V, w) is acyclic; w must be a subset of g.edges."""
    w = edge_subset(g, w)
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in w:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[rv] = ru
    return True


def components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Connected components as sorted vertex tuples, ordered by smallest member."""
    seen = [False] * g.n
    out: list[tuple[int, ...]] = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in g.adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        out.append(tuple(sorted(comp)))
    return tuple(out)


def is_connected(g: Graph) -> bool:
    return len(components(g)) <= 1


def is_tree(g: Graph) -> bool:
    """Connected and acyclic; the one-vertex graph counts, the empty graph does not."""
    return g.n >= 1 and g.m == g.n - 1 and is_connected(g)


def is_maximal_matching(g: Graph, edges: Iterable[Edge]) -> bool:
    """True iff edges form an inclusion-maximal matching of g."""
    edges = edge_subset(g, edges)
    covered: set[int] = set()
    for u, v in edges:
        if u in covered or v in covered:
            return False
        covered.update((u, v))
    return all(u in covered or v in covered for u, v in g.edges)


def parse_edge_list(text: str) -> Graph:
    """Parse the on-disk edge-list format.

    '#' starts a comment; the first two non-comment tokens are `n m`, followed
    by m whitespace-separated `u v` pairs (0-based).
    """
    tokens: list[str] = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    if len(tokens) < 2:
        raise InputError("edge list must start with 'n m'")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise InputError(f"non-integer token in edge list: {exc}") from None
    n, m = values[0], values[1]
    if m < 0:
        raise InputError(f"negative edge count {m}")
    if len(values) != 2 + 2 * m:
        raise InputError(f"expected {2 * m} endpoint tokens for m={m}, got {len(values) - 2}")
    pairs = [(values[2 + 2 * i], values[3 + 2 * i]) for i in range(m)]
    return from_edge_list(n, pairs)


def format_edge_list(g: Graph, comments: Iterable[str] = ()) -> str:
    """Serialize to the on-disk edge-list format, with optional leading comments."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"{g.n} {g.m}")
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
