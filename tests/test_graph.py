from __future__ import annotations

import random

import pytest

import oracles
from kegraph import (
    Graph,
    InputError,
    Matching,
    components,
    delete_edge,
    delete_vertices,
    format_edge_list,
    from_edge_list,
    is_bipartite,
    is_connected,
    is_maximal_matching,
    is_tree,
    neighborhood,
    parse_edge_list,
    spans_forest,
)
from kegraph.harness import GeneratorConfig, generate
from kegraph.harness.generators import KINDS, MIN_N, P_KINDS


def k3_plus_e() -> Graph:
    return from_edge_list(4, [(0, 1), (1, 2), (2, 0), (0, 3)])


def random_gnp(seed: int, n: int, p: float) -> Graph:
    return generate(GeneratorConfig("gnp", n, p=p, seed=seed))


class TestConstruction:
    def test_k2(self):
        g = from_edge_list(2, [(0, 1)])
        assert (g.n, g.edges) == (2, ((0, 1),))

    def test_k3_plus_e_canonical(self):
        g = k3_plus_e()
        assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2))
        assert g.adj[0] == (1, 2, 3)
        assert g.adj[3] == (0,)

    def test_duplicates_and_order_collapse(self):
        g = from_edge_list(3, [(0, 1), (1, 0)])
        assert g.edges == ((0, 1),)

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            from_edge_list(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            from_edge_list(3, [(0, 3)])
        with pytest.raises(InputError):
            from_edge_list(2, [(-1, 0)])

    def test_noncanonical_direct_construction_rejected(self):
        with pytest.raises(InputError):
            Graph(3, ((1, 0),))
        with pytest.raises(InputError):
            Graph(3, ((0, 1), (0, 1)))

    def test_round_trip(self):
        for seed in range(25):
            g = random_gnp(seed, 9, 0.4)
            assert from_edge_list(g.n, g.edges) == g


class TestDeletion:
    def test_delete_edge_k2(self):
        g = delete_edge(from_edge_list(2, [(0, 1)]), (0, 1))
        assert g == Graph(2, ())

    def test_delete_pendant_of_k3_plus_e(self):
        g = delete_edge(k3_plus_e(), (0, 3))
        assert g.edges == ((0, 1), (0, 2), (1, 2))
        assert components(g) == ((0, 1, 2), (3,))

    def test_delete_edge_accepts_reversed_pair(self):
        g = delete_edge(k3_plus_e(), (3, 0))
        assert (3,) in components(g)

    def test_c4_minus_edge_is_p4(self):
        c4 = generate(GeneratorConfig("cycle", 4))
        g = delete_edge(c4, (0, 1))
        assert g.m == 3 and is_connected(g) and sorted(len(g.adj[v]) for v in range(4)) == [1, 1, 2, 2]

    def test_delete_absent_edge(self):
        with pytest.raises(InputError):
            delete_edge(k3_plus_e(), (1, 3))

    def test_delete_then_readd(self):
        g = k3_plus_e()
        for e in g.edges:
            assert from_edge_list(g.n, delete_edge(g, e).edges + (e,)) == g

    def test_delete_vertices_empty_is_identity(self):
        g = k3_plus_e()
        sub, kept = delete_vertices(g, ())
        assert sub == g and kept == (0, 1, 2, 3)

    def test_delete_vertices_relabels(self):
        sub, kept = delete_vertices(k3_plus_e(), (0, 3))
        assert sub == Graph(2, ((0, 1),))
        assert kept == (1, 2)

    def test_c5_minus_vertex_is_p4(self):
        c5 = generate(GeneratorConfig("cycle", 5))
        sub, _ = delete_vertices(c5, (0,))
        assert sub.n == 4 and sub.m == 3 and is_tree(sub)


class TestNeighborhood:
    def test_star_center(self):
        star = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        assert neighborhood(star, (0,)) == (1, 2, 3)

    def test_closed_neighborhood(self):
        assert neighborhood(k3_plus_e(), (3,), closed=True) == (0, 3)

    def test_empty_set(self):
        assert neighborhood(k3_plus_e(), ()) == ()
        assert neighborhood(k3_plus_e(), (), closed=True) == ()

    def test_open_union_set_is_closed(self):
        rng = random.Random(5)
        for seed in range(20):
            g = random_gnp(seed, 8, 0.3)
            a = tuple(v for v in range(8) if rng.random() < 0.4)
            open_n = set(neighborhood(g, a))
            assert open_n | set(a) == set(neighborhood(g, a, closed=True))

    def test_monotone(self):
        for seed in range(20):
            g = random_gnp(seed, 8, 0.3)
            a = (0, 2)
            b = (0, 2, 5)
            assert set(neighborhood(g, a)) <= set(neighborhood(g, b))


class TestPredicates:
    def test_is_stable(self):
        g = k3_plus_e()
        assert oracles.is_stable(g, ())
        assert all(oracles.is_stable(g, (v,)) for v in range(4))
        assert oracles.is_stable(g, (1, 3))
        assert not oracles.is_stable(g, (0, 1))

    def test_c4_alternating_pair(self):
        c4 = generate(GeneratorConfig("cycle", 4))
        assert oracles.is_stable(c4, (0, 2))

    def test_bipartite_cases(self):
        assert is_bipartite(generate(GeneratorConfig("cycle", 4)))
        assert not is_bipartite(k3_plus_e())
        assert is_bipartite(generate(GeneratorConfig("tree", 12, seed=3)))

    def test_bipartite_matches_oracle(self):
        # Sparse G(n, p) is often disconnected, so every component must be coloured.
        for seed in range(40):
            g = random_gnp(seed, 9, 0.3)
            assert is_bipartite(g) == (not oracles.has_odd_cycle_bf(g))
        for n in range(1, 13):
            for kind in KINDS:
                if n < MIN_N[kind]:
                    continue
                n1 = (n + 1) // 2 if kind == "bipartite" else n
                g = generate(GeneratorConfig(kind, n1, n2=n - n1, p=0.2 if kind in P_KINDS else None, seed=5100 + n))
                assert is_bipartite(g) == (not oracles.has_odd_cycle_bf(g))

    def test_spans_forest(self):
        g = random_gnp(3, 8, 0.5)
        assert spans_forest(g, ())
        c4 = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)])
        assert not spans_forest(c4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert spans_forest(c4, [(0, 1), (1, 2), (2, 3), (4, 5)])

    def test_spans_forest_requires_subset(self):
        with pytest.raises(InputError):
            spans_forest(k3_plus_e(), [(1, 3)])

    def test_components(self):
        assert components(Graph(3, ())) == ((0,), (1,), (2,))
        assert len(components(generate(GeneratorConfig("tree", 9, seed=2)))) == 1

    def test_is_tree(self):
        assert is_tree(Graph(1, ()))
        assert is_tree(generate(GeneratorConfig("path", 6)))
        assert not is_tree(generate(GeneratorConfig("cycle", 6)))
        assert not is_tree(Graph(2, ()))
        assert not is_tree(Graph(0, ()))

    def test_maximal_matching(self):
        p4 = generate(GeneratorConfig("path", 4))
        assert is_maximal_matching(p4, [(0, 1), (2, 3)])
        assert is_maximal_matching(p4, [(1, 2)])  # both outer edges are blocked
        p5 = generate(GeneratorConfig("path", 5))
        assert is_maximal_matching(p5, [(1, 2), (3, 4)])
        assert not is_maximal_matching(p5, [(1, 2)])  # (3,4) still addable
        assert not is_maximal_matching(p5, [(0, 1), (1, 2)])  # not a matching


class TestMatchingType:
    def test_disjointness_enforced(self):
        with pytest.raises(InputError):
            Matching(((0, 1), (1, 2)))

    def test_size(self):
        assert Matching(((0, 3), (1, 2))).size == 2


class TestEdgeListFormat:
    def test_round_trip(self):
        for seed in range(10):
            g = random_gnp(seed, 10, 0.35)
            assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_and_whitespace(self):
        text = "# a fixture\n\n4 4 # header\n0 1\n1 2   2 0\n# trailing\n0 3\n"
        assert parse_edge_list(text) == k3_plus_e()

    def test_errors(self):
        with pytest.raises(InputError):
            parse_edge_list("")
        with pytest.raises(InputError):
            parse_edge_list("2 1\n0\n")
        with pytest.raises(InputError):
            parse_edge_list("2 1\n0 1\n4 4\n")
        with pytest.raises(InputError):
            parse_edge_list("x y\n")
        with pytest.raises(InputError):
            parse_edge_list("3 1\n0 3\n")
