"""Named reference graphs from the paper's figures.

Each fixture carries display labels for its vertices (empty when they have no
conventional names) and free-text notes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph import Graph, from_edge_list


@dataclass(frozen=True)
class Fixture:
    name: str
    graph: Graph
    letters: tuple[str, ...] = ()
    notes: str = ""


def fixtures() -> dict[str, Fixture]:
    """All named fixtures, in a stable order."""
    table = (
        # Triangle 0-1-2 with pendant edge 0-3; the pendant edge lies in the
        # unique perfect matching but is not alpha-critical.
        Fixture(
            "k3_plus_e",
            from_edge_list(4, [(0, 1), (1, 2), (2, 0), (0, 3)]),
            ("b", "c", "d", "a"),
        ),
        # Non-bipartite KE graph on 6 vertices whose unique perfect matching is
        # exactly its alpha-critical edge set.
        Fixture("fig2_ke", from_edge_list(6, [(0, 1), (1, 2), (2, 3), (4, 5), (2, 5), (1, 5)])),
        # Non-KE 6-vertex graph: a path p1..p4 with hats q2 (on p2) and q3 (on
        # p3, p4); every count inequality that holds for KE graphs breaks here.
        Fixture(
            "w1",
            from_edge_list(6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (3, 5)]),
            ("p1", "p2", "p3", "p4", "q2", "q3"),
        ),
        # Two columns a1..a5 / b1..b5 (ids 0..4 / 5..9) matched rung by rung;
        # the extra edges a2-b1, a3-b1, a2-b5, a3-b5, a4-b2, a4-b3 and b1-b5
        # leave that rung matching as the unique perfect matching while
        # keeping the core empty. Seed graph of the seeded stable-set
        # construction (S0).
        Fixture(
            "fig7_g0",
            from_edge_list(10, [(i, 5 + i) for i in range(5)]
                           + [(1, 5), (2, 5), (1, 9), (2, 9), (3, 6), (3, 7), (5, 9)]),
            ("a1", "a2", "a3", "a4", "a5", "b1", "b2", "b3", "b4", "b5"),
            "seeding the stable-set procedure at b1 yields {b1, b2, b3, b4, a5}",
        ),
        # Bipartite, no perfect matching: path b1..b4 with hats t2, t3, t4 and
        # the extra top edge t3-t4.
        Fixture(
            "fig8_bipartite",
            from_edge_list(7, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (3, 6), (5, 6)]),
            ("b1", "b2", "b3", "b4", "t2", "t3", "t4"),
            "mu = 3 by the exact solver; the value 4 sometimes quoted for this "
            "graph is inconsistent, since bipartite + n=7 + alpha=4 forces mu=3. "
            "The tree-only equalities (xi+eta=alpha etc.) all fail here.",
        ),
        # Bipartite KE graph on 7 vertices: some maximum stable sets have
        # cyclic cuts, others acyclic ones.
        Fixture(
            "fig9_ii",
            from_edge_list(7, [(0, 4), (1, 4), (2, 4), (3, 4), (2, 5), (3, 5), (3, 6)]),
            ("a", "b", "c", "d", "x", "y", "z"),
            "the cut of {a, b, y, z} spans a forest; the cut of {a, b, c, d} does not",
        ),
        # KE graph satisfying all three count equalities although no maximum
        # stable set has an acyclic cut.
        Fixture(
            "fig9_iii",
            from_edge_list(6, [(0, 5), (0, 4), (1, 5), (1, 4), (4, 5), (3, 4), (2, 3)]),
            ("a", "b", "c", "d", "x", "y"),
            "counterexample to the converse of the forest-cut criterion",
        ),
    )
    return {f.name: f for f in table}
