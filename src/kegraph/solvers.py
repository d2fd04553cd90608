"""Exact stability and matching solvers at desk scale.

Everything here is a pure deterministic function of its arguments, so each
function that does search work is wrapped in `memo`, which gives it one
bounded cache keyed by (graph, caps). Vertex sets live in int bitsets
throughout. `SolverCaps` carries every size limit of the exact searches;
exceeding one raises CapacityError instead of letting a search run away
silently. The searches keep their state on explicit stacks, never on the
call stack, so the interpreter's recursion limit is not a second limit.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import CapacityError
from .graph import Edge, Graph, Matching

# The package's one cache mechanism. Calls inside the package pass `caps`
# positionally, because f(g), f(g, caps) and f(g, caps=caps) are three
# different keys; `cache_info()` on each wrapped function counts its hits and
# misses.
memo = functools.lru_cache(maxsize=1 << 16)


@dataclass(frozen=True)
class SolverCaps:
    """Every size limit of the exact searches; exceeding one raises CapacityError.

    alpha caps the vertex count of stability-number searches; omega_vertices
    and omega_sets cap the vertex count and the number of sets of maximum
    stable set enumeration, which starts from alpha, so alpha must be at
    least omega_vertices; matchings caps the number of enumerated maximum
    matchings; bhp caps the vertex count of the BHP check's odd-cycle search.
    """

    alpha: int = 40
    omega_vertices: int = 20
    omega_sets: int = 100_000
    matchings: int = 100_000
    bhp: int = 14

    def raised_to(self, max_n: int) -> SolverCaps:
        """Caps with every vertex limit at least max_n (count caps unchanged)."""
        return replace(
            self,
            alpha=max(self.alpha, max_n),
            omega_vertices=max(self.omega_vertices, max_n),
            bhp=max(self.bhp, max_n),
        )


DEFAULT_CAPS = SolverCaps()


def require_vertex_cap(g: Graph, limit: int, search: str) -> None:
    """Refuse a graph with more than `limit` vertices for the named search."""
    if g.n > limit:
        raise CapacityError(f"{search} capped at n={limit}, got n={g.n}")


@dataclass(frozen=True)
class StableSetReport:
    """All maximum stable sets plus their intersection and co-intersection."""

    alpha: int
    omega: tuple[tuple[int, ...], ...]
    core: tuple[int, ...]
    anticore: tuple[int, ...]

    @property
    def xi(self) -> int:
        return len(self.core)

    @property
    def sigma(self) -> int:
        return len(self.anticore)


def _alpha_of_mask(masks: tuple[int, ...], mask: int) -> int:
    """Exact stability number of the subgraph induced by a vertex bitset.

    Branch and bound: branch on a maximum-residual-degree vertex, searching
    the branch that drops it before the one that takes it; subproblems that
    cannot beat the incumbent are pruned and residual graphs of maximum
    degree <= 1 are closed out directly (isolated vertices plus disjoint
    edges). The first dive thus deletes maximum-degree vertices down to the
    close-out, which is the max-degree-deletion greedy, and its leaf seeds
    the incumbent. Pendant rule: a vertex of residual degree 0 or 1 lies in some
    maximum stable set (swap it for its one neighbour), so it is taken
    without branching; trees and forests therefore never branch.
    """
    best = 0
    stack = [(mask, 0)]
    while stack:
        mask, size = stack.pop()
        while mask:
            if size + mask.bit_count() <= best:
                break
            max_d = -1
            max_v = -1
            low_v = -1
            edge_doubled = 0
            rest = mask
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                d = (masks[v] & mask).bit_count()
                edge_doubled += d
                if d > max_d:
                    max_d = d
                    max_v = v
                if d <= 1 and low_v < 0:
                    low_v = v
            if max_d <= 1:
                size += mask.bit_count() - edge_doubled // 2
                break
            if low_v >= 0:
                size += 1
                mask &= ~(masks[low_v] | (1 << low_v))
                continue
            stack.append((mask & ~(masks[max_v] | (1 << max_v)), size + 1))
            mask &= ~(1 << max_v)
        if size > best:
            best = size
    return best


@memo
def stability_number(g: Graph, caps: SolverCaps = DEFAULT_CAPS) -> int:
    """Exact stability number alpha(g)."""
    require_vertex_cap(g, caps.alpha, "stability solver")
    return _alpha_of_mask(g.adjacency_masks, (1 << g.n) - 1)


def lex_min_maximum_stable_set(g: Graph, caps: SolverCaps = DEFAULT_CAPS) -> tuple[int, ...]:
    """The lexicographically smallest maximum stable set (sorted-tuple order)."""
    need = stability_number(g, caps)
    masks = g.adjacency_masks
    allowed = (1 << g.n) - 1
    chosen: list[int] = []
    for v in range(g.n):
        if need == 0:
            break
        if not (allowed >> v) & 1:
            continue
        rest = allowed & ~(masks[v] | (1 << v)) & ~((1 << (v + 1)) - 1)
        if 1 + _alpha_of_mask(masks, rest) >= need:
            chosen.append(v)
            allowed = rest
            need -= 1
        else:
            allowed &= ~(1 << v)
    return tuple(chosen)


@memo
def enumerate_maximum_stable_sets(g: Graph, caps: SolverCaps = DEFAULT_CAPS) -> StableSetReport:
    """Complete listing of maximum stable sets, in lexicographic order.

    core = their intersection, anticore = vertices in none of them. Raises
    CapacityError if there are more than `caps.omega_sets` sets: core/anticore
    must stay exact, so truncation is never an option.
    """
    require_vertex_cap(g, caps.omega_vertices, "stable-set enumeration")
    alpha = stability_number(g, caps)
    masks = g.adjacency_masks
    found: list[tuple[int, ...]] = []
    inter_mask = (1 << g.n) - 1
    union_mask = 0
    # Pushing the sibling below the child keeps the sets in lexicographic order.
    stack = [((), 0, (1 << g.n) - 1, alpha)]
    while stack:
        prefix, prefix_mask, allowed, need = stack.pop()
        if need == 0:
            if len(found) >= caps.omega_sets:
                raise CapacityError(f"more than {caps.omega_sets} maximum stable sets")
            found.append(prefix)
            inter_mask &= prefix_mask
            union_mask |= prefix_mask
        elif allowed.bit_count() >= need:
            v = (allowed & -allowed).bit_length() - 1
            allowed &= allowed - 1
            stack.append((prefix, prefix_mask, allowed, need))
            stack.append((prefix + (v,), prefix_mask | (1 << v), allowed & ~masks[v], need - 1))
    core = tuple(v for v in range(g.n) if (inter_mask >> v) & 1)
    anticore = tuple(v for v in range(g.n) if not (union_mask >> v) & 1)
    return StableSetReport(alpha=alpha, omega=tuple(found), core=core, anticore=anticore)


def _blossom_augment(adj: Sequence[Sequence[int]], match: list[int], start: int) -> bool:
    # One BFS phase of the contraction blossom algorithm from `start`.
    n = len(adj)
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    used[start] = True
    queue: deque[int] = deque([start])

    def lowest_common_base(a: int, b: int) -> int:
        marked = [False] * n
        while True:
            a = base[a]
            marked[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if marked[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == start or (match[to] != -1 and parent[match[to]] != -1):
                cur = lowest_common_base(v, to)
                in_blossom = [False] * n
                mark_path(v, cur, to, in_blossom)
                mark_path(to, cur, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = cur
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    while to != -1:
                        pv = parent[to]
                        next_to = match[pv]
                        match[to] = pv
                        match[pv] = to
                        to = next_to
                    return True
                used[match[to]] = True
                queue.append(match[to])
    return False


@memo
def maximum_matching(g: Graph) -> Matching:
    """A maximum matching via the blossom algorithm; mu is its `.size`.

    Vertices are scanned in increasing order over sorted adjacency, so the
    witness is a pure function of the graph.
    """
    n = g.n
    adj = g.adj
    match = [-1] * n
    for u in range(n):
        if match[u] == -1:
            for v in adj[u]:
                if match[v] == -1:
                    match[u] = v
                    match[v] = u
                    break
    for u in range(n):
        if match[u] == -1:
            _blossom_augment(adj, match, u)
    return Matching(tuple((u, w) for u, w in enumerate(match) if w > u))


@memo
def perfect_matching_status(g: Graph) -> int:
    """The number of perfect matchings, saturated at 2: 0, 1, or 2 for two or more.

    With M the blossom witness `maximum_matching(g)`: the count is 0 if M is
    not perfect. Otherwise any other perfect matching misses an edge of M, so
    the count is 1 iff every edge of M is forced (`forced_matching_edges`),
    and 2 if not. The empty graph has exactly one perfect matching (the empty
    one).
    """
    witness = maximum_matching(g)
    if 2 * witness.size < g.n:
        return 0
    return 1 if forced_matching_edges(g) == witness.edges else 2


def enumerate_maximum_matchings(g: Graph, caps: SolverCaps = DEFAULT_CAPS) -> tuple[Matching, ...]:
    """All maximum matchings, in canonical order; CapacityError beyond `caps.matchings`."""
    mu = maximum_matching(g).size
    masks = g.adjacency_masks
    found: list[tuple[Edge, ...]] = []
    # `chosen` stays sorted: each edge takes the least open vertex with an open neighbour.
    stack: list[tuple[int, tuple[Edge, ...]]] = [((1 << g.n) - 1, ())]
    while stack:
        mask, chosen = stack.pop()
        if len(chosen) + mask.bit_count() // 2 < mu:
            continue
        while mask:
            u = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if masks[u] & mask:
                break
        else:
            if len(chosen) == mu:
                if len(found) >= caps.matchings:
                    raise CapacityError(f"more than {caps.matchings} maximum matchings")
                found.append(chosen)
            continue
        stack.append((mask, chosen))
        nb = masks[u] & mask
        while nb:
            v = (nb & -nb).bit_length() - 1
            nb &= nb - 1
            stack.append((mask & ~(1 << v), chosen + ((u, v),)))
    return tuple(Matching(m) for m in sorted(found))


def _augments_without(g: Graph, witness: Matching, e: Edge) -> bool:
    # True iff the maximum matching `witness` minus its edge e has an
    # augmenting path in g - e. Any such path ends at an endpoint of e.
    u, v = e
    adj = list(g.adj)
    adj[u] = tuple(w for w in adj[u] if w != v)
    adj[v] = tuple(w for w in adj[v] if w != u)
    match = [-1] * g.n
    for a, b in witness.edges:
        match[a] = b
        match[b] = a
    match[u] = match[v] = -1
    return _blossom_augment(adj, match, u) or _blossom_augment(adj, match, v)


@memo
def forced_matching_edges(g: Graph) -> tuple[Edge, ...]:
    """Edges present in every maximum matching: deleting one lowers mu.

    Only an edge of the blossom witness M can be in every maximum matching.
    For uv in M, mu(g - uv) = mu iff M - uv has an augmenting path in g - uv
    (Berge), and since M is maximum every such path ends at u or v; so uv is
    forced iff one augmenting-path search from u and one from v both fail.
    """
    witness = maximum_matching(g)
    return tuple(e for e in witness.edges if not _augments_without(g, witness, e))
