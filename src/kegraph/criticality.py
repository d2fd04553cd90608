"""Critical edges and vertices of the stability and matching numbers."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Edge, Graph
from .solvers import (
    DEFAULT_CAPS,
    SolverCaps,
    _alpha_of_mask,
    forced_matching_edges,
    lex_min_maximum_stable_set,
    memo,
    stability_number,
)


@dataclass(frozen=True)
class CriticalityReport:
    alpha_critical_edges: tuple[Edge, ...]
    mu_critical_edges: tuple[Edge, ...]
    alpha_critical_vertices: tuple[int, ...]

    @property
    def eta(self) -> int:
        return len(self.alpha_critical_edges)

    def to_dict(self) -> dict:
        return {
            "alpha_critical_edges": [list(e) for e in self.alpha_critical_edges],
            "eta": self.eta,
            "mu_critical_edges": [list(e) for e in self.mu_critical_edges],
            "alpha_critical_vertices": list(self.alpha_critical_vertices),
        }


@memo
def alpha_critical_edges(g: Graph, caps: SolverCaps = DEFAULT_CAPS) -> tuple[Edge, ...]:
    """Edges whose deletion raises the stability number.

    Deleting uv only adds stable sets that hold both u and v, so
    alpha(g - uv) = max(alpha, 2 + alpha(g - N[u] - N[v])): uv is critical iff
    the stability number of the vertices adjacent to neither endpoint exceeds
    alpha - 2. One bitset solve per edge, on that smaller vertex set.
    """
    alpha = stability_number(g, caps)
    masks = g.adjacency_masks
    full = (1 << g.n) - 1
    return tuple(
        (u, v)
        for u, v in g.edges
        if 2 + _alpha_of_mask(masks, full & ~(masks[u] | masks[v] | (1 << u) | (1 << v))) > alpha
    )


def alpha_critical_vertices(g: Graph, caps: SolverCaps = DEFAULT_CAPS) -> tuple[int, ...]:
    """Vertices whose deletion lowers the stability number (equals the core).

    A vertex outside some maximum stable set S leaves S intact when deleted,
    so only the members of one S (the lexicographically smallest, in sorted
    order) are candidates; v is critical iff alpha(g - v) < alpha, one bitset
    solve per candidate.
    """
    alpha = stability_number(g, caps)
    masks = g.adjacency_masks
    full = (1 << g.n) - 1
    return tuple(
        v for v in lex_min_maximum_stable_set(g, caps) if _alpha_of_mask(masks, full & ~(1 << v)) < alpha
    )


def criticality_report(g: Graph, caps: SolverCaps = DEFAULT_CAPS) -> CriticalityReport:
    return CriticalityReport(
        alpha_critical_edges=alpha_critical_edges(g, caps),
        mu_critical_edges=forced_matching_edges(g),
        alpha_critical_vertices=alpha_critical_vertices(g, caps),
    )
