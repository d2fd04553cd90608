from __future__ import annotations

import pytest

import oracles
from kegraph import (
    Edge,
    Graph,
    PreconditionError,
    alpha_critical_edges,
    alpha_critical_vertices,
    criticality_report,
    delete_edge,
    delete_vertices,
    enumerate_maximum_stable_sets,
    forced_matching_edges,
    from_edge_list,
    is_koenig_egervary,
    maximum_matching,
    perfect_matching_status,
    stability_number,
)
from kegraph.harness import GeneratorConfig, fixtures, generate


def corpus(count: int, n: int, base_seed: int = 0):
    ps = (0.15, 0.3, 0.5, 0.7)
    return [
        generate(GeneratorConfig("gnp", 2 + (i % (n - 1)), p=ps[i % len(ps)], seed=base_seed + i))
        for i in range(count)
    ]


def alpha_critical_edges_via_matching(g: Graph) -> tuple[Edge, ...]:
    """Filtered route: alpha-test only the edges that lie in every maximum matching.

    Sound only when alpha(g) + mu(g) = n(g); the tests below check that it
    agrees with the package's definition route on such inputs.
    """
    alpha = stability_number(g)
    if alpha + maximum_matching(g).size != g.n:
        raise PreconditionError("fast path requires a König-Egerváry graph")
    return tuple(e for e in forced_matching_edges(g) if stability_number(delete_edge(g, e)) > alpha)


def alpha_critical_edges_by_deletion(g: Graph) -> tuple[Edge, ...]:
    alpha = stability_number(g)
    return tuple(e for e in g.edges if stability_number(delete_edge(g, e)) > alpha)


def alpha_critical_vertices_by_deletion(g: Graph) -> tuple[int, ...]:
    alpha = stability_number(g)
    return tuple(v for v in range(g.n) if stability_number(delete_vertices(g, (v,))[0]) < alpha)


def forced_matching_edges_by_deletion(g: Graph) -> tuple[Edge, ...]:
    mu = maximum_matching(g).size
    return tuple(e for e in g.edges if maximum_matching(delete_edge(g, e)).size < mu)


def mid_size_corpus() -> list[Graph]:
    # Trees, KE graphs and sparse G(n,p) at n = 16..30, past the brute-force range.
    out = []
    for i, n in enumerate(range(16, 31, 2)):
        out.append(generate(GeneratorConfig("tree", n, seed=5000 + i)))
        out.append(generate(GeneratorConfig("ke_synth", n, p=(0.1, 0.2, 0.3)[i % 3], seed=5100 + i)))
        out.append(generate(GeneratorConfig("gnp", n, p=(0.1, 0.15, 0.2)[i % 3], seed=5200 + i)))
    return out


class TestDefinitionRoutes:
    def test_alpha_critical_edges(self):
        for g in mid_size_corpus():
            assert alpha_critical_edges(g) == alpha_critical_edges_by_deletion(g)

    def test_alpha_critical_vertices(self):
        for g in mid_size_corpus():
            assert alpha_critical_vertices(g) == alpha_critical_vertices_by_deletion(g)

    def test_forced_matching_edges(self):
        for g in mid_size_corpus():
            assert forced_matching_edges(g) == forced_matching_edges_by_deletion(g)


class TestAlphaCriticalEdges:
    def test_odd_cycle_fully_critical(self):
        c5 = generate(GeneratorConfig("cycle", 5))
        assert alpha_critical_edges(c5) == c5.edges

    def test_even_cycle_has_none(self):
        assert alpha_critical_edges(generate(GeneratorConfig("cycle", 6))) == ()

    def test_w1_triangle(self):
        w1 = fixtures()["w1"].graph
        assert alpha_critical_edges(w1) == ((2, 3), (2, 5), (3, 5))

    def test_k3_plus_e_single(self):
        assert alpha_critical_edges(fixtures()["k3_plus_e"].graph) == ((1, 2),)

    def test_against_oracle(self):
        for g in corpus(100, 11, base_seed=1000):
            assert alpha_critical_edges(g) == oracles.alpha_critical_edges_bf(g)


class TestMuCriticalEdges:
    def test_k3_none(self):
        k3 = generate(GeneratorConfig("complete", 3))
        assert forced_matching_edges(k3) == ()
        assert alpha_critical_edges(k3) == k3.edges  # alpha-critical but not mu-critical

    def test_k3_plus_e(self):
        assert forced_matching_edges(fixtures()["k3_plus_e"].graph) == ((0, 3), (1, 2))

    def test_fig2_equal_sets(self):
        g = fixtures()["fig2_ke"].graph
        assert perfect_matching_status(g) == 1
        assert forced_matching_edges(g) == maximum_matching(g).edges == alpha_critical_edges(g)

    def test_against_oracle(self):
        for g in corpus(80, 10, base_seed=1100):
            assert forced_matching_edges(g) == oracles.mu_critical_edges_bf(g)


class TestAlphaCriticalVertices:
    def test_c4_empty(self):
        assert alpha_critical_vertices(generate(GeneratorConfig("cycle", 4))) == ()

    def test_k3_plus_e(self):
        assert alpha_critical_vertices(fixtures()["k3_plus_e"].graph) == (3,)

    def test_star_leaves(self):
        star = from_edge_list(5, [(0, i) for i in range(1, 5)])
        assert alpha_critical_vertices(star) == (1, 2, 3, 4)

    def test_equals_core_everywhere(self):
        for g in corpus(100, 12, base_seed=1200):
            core = enumerate_maximum_stable_sets(g).core
            assert alpha_critical_vertices(g) == core

    def test_equals_core_at_fourteen(self):
        for seed in range(6):
            g = generate(GeneratorConfig("gnp", 14, p=0.25, seed=3000 + seed))
            assert alpha_critical_vertices(g) == enumerate_maximum_stable_sets(g).core


class TestFastPath:
    def test_matches_definition_on_ke_graphs(self):
        checked = 0
        for seed in range(60):
            g = generate(GeneratorConfig("ke_synth", 10, p=0.4, seed=seed))
            assert alpha_critical_edges_via_matching(g) == alpha_critical_edges(g)
            checked += 1
        assert checked == 60

    def test_matches_on_fixtures(self):
        for name in ("k3_plus_e", "fig2_ke", "fig7_g0", "fig8_bipartite", "fig9_ii", "fig9_iii"):
            g = fixtures()[name].graph
            assert is_koenig_egervary(g)
            assert alpha_critical_edges_via_matching(g) == alpha_critical_edges(g)

    def test_requires_ke(self):
        with pytest.raises(PreconditionError):
            alpha_critical_edges_via_matching(generate(GeneratorConfig("cycle", 5)))


class TestReport:
    def test_bundle(self):
        report = criticality_report(fixtures()["k3_plus_e"].graph)
        assert report.eta == 1
        assert report.alpha_critical_edges == ((1, 2),)
        assert report.mu_critical_edges == ((0, 3), (1, 2))
        assert report.alpha_critical_vertices == (3,)

    def test_bipartite_sets_coincide(self):
        for seed in range(40):
            g = generate(GeneratorConfig("bipartite", 4, n2=4, p=0.45, seed=seed))
            assert alpha_critical_edges(g) == forced_matching_edges(g)

    def test_empty_graph(self):
        report = criticality_report(Graph(0, ()))
        assert report.eta == 0 and report.alpha_critical_vertices == ()
