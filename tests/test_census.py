"""Every graph with 1-7 vertices: the counts, the whole catalog, and the oracles.

The 1252 graphs come from `tests/census.py`. The catalog must fail only its
two negative controls; the solvers must agree with the brute-force oracles
of `tests/oracles.py` on every graph; and the KE table the README reproduces
is pinned from the oracles and must come out the same from the solvers.
"""

from __future__ import annotations

import pytest

import oracles
from census import GRAPH_COUNTS, catalog_failures, graphs_up_to, ke_row, ke_table, solver_ke_row

from kegraph import (
    alpha_critical_edges,
    alpha_critical_vertices,
    enumerate_maximum_stable_sets,
    forced_matching_edges,
    from_edge_list,
    is_connected,
    maximum_matching,
    perfect_matching_status,
)

MAX_N = 7

# Per n = 1..7: KE graphs, KE with alpha = xi + eta, connected KE, and
# connected KE with alpha = xi + eta.
KE_TABLE = (
    (1, 1, 1, 1),
    (2, 2, 1, 1),
    (3, 3, 1, 1),
    (9, 8, 5, 4),
    (19, 18, 9, 9),
    (100, 89, 74, 65),
    (337, 320, 222, 217),
)


@pytest.fixture(scope="module")
def census():
    """Graphs by vertex count, entry n holding every graph on n vertices."""
    return [[from_edge_list(n, edges) for edges in level] for n, level in enumerate(graphs_up_to(MAX_N))]


@pytest.fixture(scope="module")
def oracle_values(census):
    return {g: _oracle_values(g) for level in census[1:] for g in level}


def _oracle_values(g):
    core, anticore = oracles.core_anticore_bf(g)
    return (
        oracles.alpha_bf(g),
        oracles.mu_bf(g),
        core,
        anticore,
        oracles.alpha_critical_edges_bf(g),
        tuple(sorted(oracles.mu_critical_edges_bf(g))),
        oracles.alpha_critical_vertices_bf(g),
        min(2, oracles.perfect_matching_count_bf(g)),
    )


def _solver_values(g):
    stable = enumerate_maximum_stable_sets(g)
    return (
        stable.alpha,
        maximum_matching(g).size,
        stable.core,
        stable.anticore,
        alpha_critical_edges(g),
        tuple(sorted(forced_matching_edges(g))),
        alpha_critical_vertices(g),
        perfect_matching_status(g),
    )


def test_graph_counts(census):
    # OEIS A000088, n = 1..7: 1252 graphs in all.
    assert tuple(map(len, census[1:])) == GRAPH_COUNTS[1 : MAX_N + 1] == (1, 2, 4, 11, 34, 156, 1044)


def test_catalog_fails_only_its_negative_controls(census):
    graphs = [g for level in census[1:] for g in level]
    assert catalog_failures(graphs) == {"P7-unguarded": 642, "P3-unguarded": 619}


def test_solvers_match_oracles(oracle_values):
    for g, expected in oracle_values.items():
        assert _solver_values(g) == expected, g


def test_ke_table(census, oracle_values):
    oracle_table, solver_table = [], []
    for level in census[1:]:
        oracle_rows = []
        for g in level:
            alpha, mu, core, _, ace, *_ = oracle_values[g]
            oracle_rows.append(ke_row(alpha, mu, len(core), len(ace), g.n, is_connected(g)))
        oracle_table.append(ke_table(oracle_rows))
        solver_table.append(ke_table(map(solver_ke_row, level)))
    assert tuple(oracle_table) == KE_TABLE
    assert tuple(solver_table) == KE_TABLE
