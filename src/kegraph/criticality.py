"""Critical edges and vertices of the stability and matching numbers."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Edge, Graph, delete_edge, delete_vertices
from .solvers import (
    DEFAULT_CAPS,
    SolverCaps,
    forced_matching_edges,
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


@memo
def alpha_critical_edges(g: Graph, caps: SolverCaps = DEFAULT_CAPS) -> tuple[Edge, ...]:
    """Edges whose deletion raises the stability number; per-edge recomputation."""
    alpha = stability_number(g, caps)
    return tuple(e for e in g.edges if stability_number(delete_edge(g, e), caps) > alpha)


def mu_critical_edges(g: Graph) -> tuple[Edge, ...]:
    """Edges whose deletion lowers the matching number."""
    return forced_matching_edges(g)


def alpha_critical_vertices(g: Graph, caps: SolverCaps = DEFAULT_CAPS) -> tuple[int, ...]:
    """Vertices whose deletion lowers the stability number (equals the core)."""
    alpha = stability_number(g, caps)
    out = []
    for v in range(g.n):
        sub, _ = delete_vertices(g, (v,))
        if stability_number(sub, caps) < alpha:
            out.append(v)
    return tuple(out)


def criticality_report(g: Graph, caps: SolverCaps = DEFAULT_CAPS) -> CriticalityReport:
    return CriticalityReport(
        alpha_critical_edges=alpha_critical_edges(g, caps),
        mu_critical_edges=mu_critical_edges(g),
        alpha_critical_vertices=alpha_critical_vertices(g, caps),
    )
