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


def _k3_plus_e() -> Fixture:
    # Triangle 0-1-2 with pendant edge 0-3; the pendant edge lies in the unique
    # perfect matching but is not alpha-critical.
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    return Fixture(
        name="k3_plus_e",
        graph=g,
        letters=("b", "c", "d", "a"),
    )


def _fig2_ke() -> Fixture:
    # Non-bipartite KE graph on 6 vertices whose unique perfect matching is
    # exactly its alpha-critical edge set.
    g = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (4, 5), (2, 5), (1, 5)])
    return Fixture(
        name="fig2_ke",
        graph=g,
    )


def _w1() -> Fixture:
    # Non-KE 6-vertex graph: a path p1..p4 with hats q2 (on p2) and q3 (on
    # p3, p4); every count inequality that holds for KE graphs breaks here.
    g = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (3, 5)])
    return Fixture(
        name="w1",
        graph=g,
        letters=("p1", "p2", "p3", "p4", "q2", "q3"),
    )


def _fig7_g0() -> Fixture:
    # Two columns a1..a5 / b1..b5 matched rung by rung; the extra edges leave
    # that rung matching as the unique perfect matching while keeping the core
    # empty. Seed graph of the seeded stable-set construction (S0).
    a = {i: i - 1 for i in range(1, 6)}
    b = {i: 4 + i for i in range(1, 6)}
    rungs = [(a[i], b[i]) for i in range(1, 6)]
    extras = [
        (a[2], b[1]),
        (a[3], b[1]),
        (a[2], b[5]),
        (a[3], b[5]),
        (a[4], b[2]),
        (a[4], b[3]),
        (b[1], b[5]),
    ]
    g = from_edge_list(10, rungs + extras)
    return Fixture(
        name="fig7_g0",
        graph=g,
        letters=("a1", "a2", "a3", "a4", "a5", "b1", "b2", "b3", "b4", "b5"),
        notes="seeding the stable-set procedure at b1 yields {b1, b2, b3, b4, a5}",
    )


def _fig8_bipartite() -> Fixture:
    # Bipartite, no perfect matching: path b1..b4 with hats t2, t3, t4 and the
    # extra top edge t3-t4.
    g = from_edge_list(7, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (3, 6), (5, 6)])
    return Fixture(
        name="fig8_bipartite",
        graph=g,
        letters=("b1", "b2", "b3", "b4", "t2", "t3", "t4"),
        notes=(
            "mu = 3 by the exact solver; the value 4 sometimes quoted for this "
            "graph is inconsistent, since bipartite + n=7 + alpha=4 forces mu=3. "
            "The tree-only equalities (xi+eta=alpha etc.) all fail here."
        ),
    )


def _fig9_ii() -> Fixture:
    # Bipartite KE graph on 7 vertices: some maximum stable sets have cyclic
    # cuts, others acyclic ones.
    g = from_edge_list(7, [(0, 4), (1, 4), (2, 4), (3, 4), (2, 5), (3, 5), (3, 6)])
    return Fixture(
        name="fig9_ii",
        graph=g,
        letters=("a", "b", "c", "d", "x", "y", "z"),
        notes="the cut of {a, b, y, z} spans a forest; the cut of {a, b, c, d} does not",
    )


def _fig9_iii() -> Fixture:
    # KE graph satisfying all three count equalities although no maximum
    # stable set has an acyclic cut.
    g = from_edge_list(6, [(0, 5), (0, 4), (1, 5), (1, 4), (4, 5), (3, 4), (2, 3)])
    return Fixture(
        name="fig9_iii",
        graph=g,
        letters=("a", "b", "c", "d", "x", "y"),
        notes="counterexample to the converse of the forest-cut criterion",
    )


def fixtures() -> dict[str, Fixture]:
    """All named fixtures, in a stable order."""
    out = [
        _k3_plus_e(),
        _fig2_ke(),
        _w1(),
        _fig7_g0(),
        _fig8_bipartite(),
        _fig9_ii(),
        _fig9_iii(),
    ]
    return {f.name: f for f in out}
