"""Every graph on a few vertices, up to isomorphism, and the catalog run on each.

    PYTHONPATH=src python tests/census.py

Graphs grow by vertex augmentation: each graph on k - 1 vertices gets a new
vertex joined to every subset of the old ones, and the results are kept up to
isomorphism by a canonical form. The canonical form is the largest adjacency
code over the vertex orders that colour refinement with individualization
allows; the search is label-free, so isomorphic graphs get the same code.
Generation uses the standard library only; the checks run kegraph.

Run as a script, it generates every graph on 8 vertices, runs all catalog
checks and `ke_table` on them, prints what it found, and exits 1 unless that
equals `EXPECTED_8`: the known graph count, failures of the two negative
controls only, in the pinned numbers, and the pinned KE table row.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Iterable

from kegraph import (
    alpha_critical_edges,
    enumerate_maximum_stable_sets,
    from_edge_list,
    is_connected,
    maximum_matching,
)
from kegraph.harness import FAIL, check, check_ids

# Graphs on n vertices up to isomorphism, n = 0..8 (OEIS A000088).
GRAPH_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)

# The graphs on 8 vertices: their count, how many each failing check fails on,
# and the `ke_table` row (KE, KE with alpha = xi + eta, and both connected).
EXPECTED_8 = {
    "graphs": GRAPH_COUNTS[8],
    "failures": {"P7-unguarded": 5635, "P3-unguarded": 6223},
    "KE table row": (5018, 4662, 4576, 4252),
}

Edges = tuple[tuple[int, int], ...]


def _refine(adj: list[list[int]], colours: list[int]) -> list[int]:
    """Colour refinement to a stable colouring; colours become dense ranks.

    A vertex's new colour ranks its old colour and the multiset of its
    neighbours' colours, so the order of the colours depends on no label.
    """
    while True:
        signature = [(colours[v], tuple(sorted(colours[w] for w in adj[v]))) for v in range(len(adj))]
        ranks = sorted(set(signature))
        rank = {key: i for i, key in enumerate(ranks)}
        refined = [rank[key] for key in signature]
        if len(ranks) == len(set(colours)):
            return refined
        colours = refined


def canonical_form(n: int, edges: Iterable[tuple[int, int]]) -> Edges:
    """The edges of a canonical relabelling; isomorphic graphs give equal forms."""
    adj: list[list[int]] = [[] for _ in range(n)]
    masks = [0] * n
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    best = (-1, ())

    def search(colours: list[int]) -> None:
        nonlocal best
        colours = _refine(adj, colours)
        sizes = Counter(colours)
        if len(sizes) == n:
            relabelled = tuple(sorted(
                (min(colours[u], colours[v]), max(colours[u], colours[v]))
                for u in range(n) for v in adj[u] if u < v
            ))
            code = sum(1 << (i * n + j) for i, j in relabelled)
            best = max(best, (code, relabelled))
            return
        # Individualize each vertex of the first cell with more than one. Two
        # twins (equal neighbourhoods apart from each other) in one cell are
        # swapped by an automorphism that keeps this colouring, so they lead
        # to the same codes and only the first is tried.
        cell = min(c for c, size in sizes.items() if size > 1)
        tried: list[int] = []
        for chosen in range(n):
            if colours[chosen] == cell and not any(
                masks[chosen] & ~(1 << t) == masks[t] & ~(1 << chosen) for t in tried
            ):
                tried.append(chosen)
                search([2 * c + (v != chosen) for v, c in enumerate(colours)])

    search([0] * n)
    return best[1]


def graphs_up_to(max_n: int) -> list[list[Edges]]:
    """Entry k lists every graph on k vertices once, in a fixed order."""
    levels: list[list[Edges]] = [[()]]
    for k in range(1, max_n + 1):
        seen = {
            canonical_form(k, edges + tuple((u, k - 1) for u in range(k - 1) if subset >> u & 1))
            for edges in levels[-1]
            for subset in range(1 << (k - 1))
        }
        levels.append(sorted(seen))
    return levels


def catalog_failures(graphs) -> Counter:
    """How many of the graphs each catalog check fails on."""
    return Counter(cid for g in graphs for cid in check_ids() if check(g, cid).status == FAIL)


def ke_row(alpha: int, mu: int, xi: int, eta: int, n: int, connected: bool) -> tuple[bool, ...]:
    """The four table columns one graph belongs to."""
    ke = alpha + mu == n
    equal = ke and alpha == xi + eta
    return ke, equal, ke and connected, equal and connected


def ke_table(rows: Iterable[tuple[bool, ...]]) -> tuple[int, ...]:
    """Column sums of `ke_row`: KE graphs, KE with alpha = xi + eta, and both connected."""
    return tuple(map(sum, zip(*rows)))


def solver_ke_row(g) -> tuple[bool, ...]:
    stable = enumerate_maximum_stable_sets(g)
    eta = len(alpha_critical_edges(g))
    return ke_row(stable.alpha, maximum_matching(g).size, stable.xi, eta, g.n, is_connected(g))


def main() -> int:
    start = time.perf_counter()
    graphs = [from_edge_list(8, edges) for edges in graphs_up_to(8)[8]]
    generated = time.perf_counter()
    found = {
        "graphs": len(graphs),
        "failures": dict(catalog_failures(graphs)),
        "KE table row": ke_table(solver_ke_row(g) for g in graphs),
    }
    print(f"n = 8: generated in {generated - start:.1f} s, "
          f"checked in {time.perf_counter() - generated:.1f} s")
    for key, value in found.items():
        print(f"{key}: {value}")
        if value != EXPECTED_8[key]:
            print(f"expected {key}: {EXPECTED_8[key]}", file=sys.stderr)
    return 0 if found == EXPECTED_8 else 1


if __name__ == "__main__":
    sys.exit(main())
