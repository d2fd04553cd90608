"""Independent brute-force oracles used to pin expected values.

Everything here works straight from the definitions (subset enumeration over
vertex bitmasks, include/exclude recursion over the edge list) and shares no
search code with the package solvers.
"""

from __future__ import annotations

from itertools import permutations

from kegraph.errors import CapacityError
from kegraph.graph import Edge, Graph

_SUBSET_LIMIT = 16
BRUTE_FORCE_VERTEX_CAP = 12


def _masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def is_stable(g: Graph, s) -> bool:
    """True iff s names vertices of g and induces no edge."""
    members = set(s)
    assert all(0 <= v < g.n for v in members), "vertex out of range"
    return not any(u in members and v in members for u, v in g.edges)


def stable_masks(g: Graph) -> list[int]:
    assert g.n <= _SUBSET_LIMIT
    masks = _masks(g)
    out = []
    for m in range(1 << g.n):
        t = m
        ok = True
        while t:
            v = (t & -t).bit_length() - 1
            t &= t - 1
            if masks[v] & m:
                ok = False
                break
        if ok:
            out.append(m)
    return out


def _members(mask: int, n: int) -> tuple[int, ...]:
    return tuple(v for v in range(n) if (mask >> v) & 1)


def alpha_bf(g: Graph) -> int:
    return max(m.bit_count() for m in stable_masks(g))


def alpha_bf_within(g: Graph, mask: int) -> int:
    """Stability number of the subgraph induced by the vertex bitset `mask`."""
    return max(m.bit_count() for m in stable_masks(g) if not m & ~mask)


def alpha_tree_dp(g: Graph) -> int:
    """Stability number of a forest by take/skip dynamic programming.

    take[v] / skip[v] are the largest stable sets of v's subtree that hold or
    avoid v; children are folded into parents in reverse DFS order.
    """
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    parent = [-1] * g.n
    seen = [False] * g.n
    order: list[int] = []
    roots = 0
    for root in range(g.n):
        if seen[root]:
            continue
        roots += 1
        seen[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            order.append(u)
            for w in nbrs[u]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    stack.append(w)
    assert g.m == g.n - roots, "not a forest"
    take = [1] * g.n
    skip = [0] * g.n
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            take[p] += skip[v]
            skip[p] += max(take[v], skip[v])
    return sum(max(take[v], skip[v]) for v in range(g.n) if parent[v] < 0)


def omega_bf(g: Graph) -> list[tuple[int, ...]]:
    best = alpha_bf(g)
    return sorted(_members(m, g.n) for m in stable_masks(g) if m.bit_count() == best)


def core_anticore_bf(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    om = omega_bf(g)
    core = set(range(g.n))
    union: set[int] = set()
    for s in om:
        core &= set(s)
        union |= set(s)
    return tuple(sorted(core)), tuple(sorted(set(range(g.n)) - union))


def matchings_bf(g: Graph) -> list[tuple[Edge, ...]]:
    out: list[tuple[Edge, ...]] = []
    edges = g.edges

    def rec(i: int, used: int, chosen: list[Edge]) -> None:
        if i == len(edges):
            out.append(tuple(chosen))
            return
        rec(i + 1, used, chosen)
        u, v = edges[i]
        if not (used >> u) & 1 and not (used >> v) & 1:
            chosen.append(edges[i])
            rec(i + 1, used | (1 << u) | (1 << v), chosen)
            chosen.pop()

    rec(0, 0, [])
    return out


def mu_bf(g: Graph) -> int:
    return max((len(m) for m in matchings_bf(g)), default=0)


def maximum_matching_bruteforce(g: Graph, max_n: int = BRUTE_FORCE_VERTEX_CAP) -> int:
    """Matching number by exhaustive search; the independent oracle for blossom."""
    if g.n > max_n:
        raise CapacityError(f"matching brute force capped at n={max_n}, got n={g.n}")
    masks = _masks(g)

    def best(mask: int) -> int:
        # Lowest remaining vertex with a neighbor either stays unmatched or
        # pairs with each remaining neighbor in turn.
        u = -1
        while mask:
            u = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if masks[u] & mask:
                break
        else:
            return 0
        result = best(mask)
        nb = masks[u] & mask
        while nb:
            v = (nb & -nb).bit_length() - 1
            nb &= nb - 1
            cand = 1 + best(mask & ~(1 << v))
            if cand > result:
                result = cand
        return result

    return best((1 << g.n) - 1)


def maximum_matchings_bf(g: Graph) -> list[tuple[Edge, ...]]:
    all_m = matchings_bf(g)
    best = max(len(m) for m in all_m)
    return sorted(tuple(sorted(m)) for m in all_m if len(m) == best)


def perfect_matching_count_bf(g: Graph) -> int:
    return sum(1 for m in matchings_bf(g) if 2 * len(m) == g.n)


def _without_edge(g: Graph, e: Edge) -> Graph:
    return Graph(g.n, tuple(x for x in g.edges if x != e))


def alpha_critical_edges_bf(g: Graph) -> tuple[Edge, ...]:
    a = alpha_bf(g)
    return tuple(e for e in g.edges if alpha_bf(_without_edge(g, e)) > a)


def mu_critical_edges_bf(g: Graph) -> tuple[Edge, ...]:
    mu = mu_bf(g)
    return tuple(e for e in g.edges if mu_bf(_without_edge(g, e)) < mu)


def alpha_critical_vertices_bf(g: Graph) -> tuple[int, ...]:
    a = alpha_bf(g)
    full = (1 << g.n) - 1
    return tuple(v for v in range(g.n) if alpha_bf_within(g, full & ~(1 << v)) < a)


def has_odd_cycle_bf(g: Graph) -> bool:
    # The shortest odd cycle is chordless, so it shows up as a vertex subset
    # that induces a connected 2-regular graph on an odd number of vertices.
    assert g.n <= 12
    masks = _masks(g)
    for m in range(1 << g.n):
        size = m.bit_count()
        if size < 3 or size % 2 == 0:
            continue
        degs = [(masks[v] & m).bit_count() for v in _members(m, g.n)]
        if any(d != 2 for d in degs):
            continue
        start = (m & -m).bit_length() - 1
        seen = 1 << start
        frontier = [start]
        while frontier:
            u = frontier.pop()
            t = masks[u] & m & ~seen
            while t:
                w = (t & -t).bit_length() - 1
                t &= t - 1
                seen |= 1 << w
                frontier.append(w)
        if seen == m:
            return True
    return False


def odd_path_bf(g: Graph, src: int, dst: int, banned: int) -> bool:
    # Try every sequence of distinct inner vertices; k inner vertices make a
    # path of k + 1 edges, which is odd when k is even.
    inner = [v for v in range(g.n) if v not in (src, dst, banned)]
    masks = _masks(g)
    for k in range(0, len(inner) + 1, 2):
        for mid in permutations(inner, k):
            path = (src, *mid, dst)
            if all((masks[a] >> b) & 1 for a, b in zip(path, path[1:])):
                return True
    return False
