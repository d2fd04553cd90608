from __future__ import annotations

import ast
import inspect
import random
import sys
from pathlib import Path

import pytest

import kegraph
import kegraph.harness
import oracles
from kegraph import (
    DEFAULT_CAPS,
    CapacityError,
    Graph,
    Matching,
    SolverCaps,
    delete_vertices,
    enumerate_maximum_matchings,
    enumerate_maximum_stable_sets,
    forced_matching_edges,
    from_edge_list,
    lex_min_maximum_stable_set,
    maximum_matching,
    perfect_matching_status,
    stability_number,
)
from kegraph.harness import GeneratorConfig, check, fixtures, generate
from kegraph.harness.generators import KINDS, MIN_N, P_KINDS
from kegraph.solvers import _alpha_of_mask


def _src_trees() -> list[ast.Module]:
    """Parsed modules of the package, without the re-exporting __init__ files."""
    package = Path(kegraph.__file__).parent
    return [ast.parse(p.read_text()) for p in sorted(package.rglob("*.py")) if p.name != "__init__.py"]


def gnp(seed: int, n: int, p: float) -> Graph:
    return generate(GeneratorConfig("gnp", n, p=p, seed=seed))


def corpus(count: int, n: int, base_seed: int = 0) -> list[Graph]:
    ps = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)
    return [gnp(base_seed + i, 2 + (i % (n - 1)), ps[i % len(ps)]) for i in range(count)]


class TestStabilityNumber:
    def test_small_fixed_values(self):
        assert stability_number(from_edge_list(2, [(0, 1)])) == 1
        assert stability_number(fixtures()["k3_plus_e"].graph) == 2
        assert stability_number(fixtures()["w1"].graph) == 3
        assert stability_number(generate(GeneratorConfig("cycle", 5))) == 2
        assert stability_number(generate(GeneratorConfig("cycle", 6))) == 3

    def test_empty_and_edgeless(self):
        assert stability_number(Graph(0, ())) == 0
        assert stability_number(Graph(5, ())) == 5

    def test_against_subset_oracle(self):
        for g in corpus(120, 12):
            assert stability_number(g) == oracles.alpha_bf(g)

    def test_cap(self):
        with pytest.raises(CapacityError):
            stability_number(Graph(41, ()))
        assert stability_number(Graph(41, ()), SolverCaps(alpha=41)) == 41

    def test_large_bipartite_against_koenig(self):
        # König: alpha = n - mu on bipartite graphs. The blossom shares no code
        # with the branch and bound, and unlike trees these graphs make it branch.
        rng = random.Random(4600)
        for i in range(24):
            total = 24 + (i * 16) // 23
            n1 = rng.randint(total // 3, total - total // 3)
            p = (0.15, 0.25, 0.3, 0.4)[i % 4]
            g = generate(GeneratorConfig("bipartite", n1, n2=total - n1, p=p, seed=4600 + i))
            assert stability_number(g) == g.n - maximum_matching(g).size
            for _ in range(4):
                mask = rng.getrandbits(g.n)
                sub, _ = delete_vertices(g, [v for v in range(g.n) if not (mask >> v) & 1])
                assert _alpha_of_mask(g.adjacency_masks, mask) == mask.bit_count() - maximum_matching(sub).size

    def test_lex_min_set(self):
        for g in corpus(40, 10, base_seed=500):
            got = lex_min_maximum_stable_set(g)
            assert got == min(oracles.omega_bf(g))


def random_forest(rng: random.Random, n: int) -> Graph:
    # Disjoint Prüfer trees (isolated vertices among them), randomly relabeled.
    edges = []
    start = 0
    while start < n:
        size = rng.randint(1, n - start)
        tree = generate(GeneratorConfig("tree", size, seed=rng.randrange(1 << 30)))
        edges += [(start + u, start + v) for u, v in tree.edges]
        start += size
    perm = list(range(n))
    rng.shuffle(perm)
    return from_edge_list(n, [(perm[u], perm[v]) for u, v in edges])


def caterpillar(rng: random.Random, n: int) -> Graph:
    spine = rng.randint(1, n)
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(rng.randrange(spine), leaf) for leaf in range(spine, n)]
    return from_edge_list(n, edges)


class TestPendantRule:
    def test_trees_and_forests_match_tree_dp(self):
        rng = random.Random(4100)
        for n in range(1, 41):
            for seed in range(2):
                tree = generate(GeneratorConfig("tree", n, seed=4100 + 2 * n + seed))
                assert stability_number(tree) == oracles.alpha_tree_dp(tree)
            forest = random_forest(rng, n)
            assert stability_number(forest) == oracles.alpha_tree_dp(forest)

    def test_sub_masks_match_subset_oracle(self):
        rng = random.Random(4200)
        graphs = []
        for n in range(2, 15):
            graphs.append(generate(GeneratorConfig("path", n)))
            graphs.append(from_edge_list(n, [(0, v) for v in range(1, n)]))
            graphs.append(caterpillar(rng, n))
            k = rng.randint(1, n - 1)
            graphs.append(Graph(n, gnp(4200 + n, n - k, 0.35).edges))
            graphs.append(gnp(4300 + n, n, 0.2))
        for n in range(2, 15):
            graphs += [gnp(4400 + n, n, 0.5), gnp(4500 + n, n, 0.8)]
        for g in graphs:
            full = (1 << g.n) - 1
            for mask in [full] + [rng.getrandbits(g.n) for _ in range(4)]:
                assert _alpha_of_mask(g.adjacency_masks, mask) == oracles.alpha_bf_within(g, mask)


class TestOmegaEnumeration:
    def test_p4(self):
        p4 = generate(GeneratorConfig("path", 4))
        report = enumerate_maximum_stable_sets(p4)
        assert report.omega == ((0, 2), (0, 3), (1, 3))
        assert report.core == () and report.anticore == ()
        assert (report.xi, report.sigma) == (0, 0)

    def test_k3_plus_e(self):
        report = enumerate_maximum_stable_sets(fixtures()["k3_plus_e"].graph)
        assert report.omega == ((1, 3), (2, 3))
        assert report.core == (3,) and report.anticore == (0,)

    def test_w1(self):
        report = enumerate_maximum_stable_sets(fixtures()["w1"].graph)
        assert (report.xi, report.sigma) == (2, 1)

    def test_empty_graph_has_the_empty_set(self):
        report = enumerate_maximum_stable_sets(Graph(0, ()))
        assert report.omega == ((),) and report.alpha == 0

    def test_against_subset_oracle(self):
        for g in corpus(80, 11, base_seed=100):
            report = enumerate_maximum_stable_sets(g)
            assert list(report.omega) == oracles.omega_bf(g)
            assert (report.core, report.anticore) == oracles.core_anticore_bf(g)

    def test_set_cap_is_exact_error(self):
        eight_edges = from_edge_list(16, [(2 * i, 2 * i + 1) for i in range(8)])
        with pytest.raises(CapacityError):
            enumerate_maximum_stable_sets(eight_edges, SolverCaps(omega_sets=255))
        report = enumerate_maximum_stable_sets(eight_edges, SolverCaps(omega_sets=256))
        assert len(report.omega) == 256

    def test_vertex_cap(self):
        with pytest.raises(CapacityError):
            enumerate_maximum_stable_sets(Graph(21, ()))


class TestMaximumMatching:
    def test_small_fixed_values(self):
        assert maximum_matching(from_edge_list(2, [(0, 1)])).size == 1
        assert maximum_matching(fixtures()["w1"].graph).size == 2
        assert maximum_matching(generate(GeneratorConfig("cycle", 6))).size == 3

    def test_witness_is_valid_matching_of_graph(self):
        for g in corpus(60, 10, base_seed=200):
            assert set(maximum_matching(g).edges) <= g.edge_set

    def test_deterministic_witness(self):
        for seed in range(10):
            g = gnp(seed, 11, 0.5)
            again = Graph(g.n, g.edges)
            assert maximum_matching(g) == maximum_matching(again)

    def test_agrees_with_bruteforce_small(self):
        for g in corpus(120, 10, base_seed=300):
            assert maximum_matching(g).size == oracles.maximum_matching_bruteforce(g)

    def test_petersen_size_samples(self):
        for seed in range(30):
            g = gnp(seed, 10, 0.3)
            assert maximum_matching(g).size == oracles.maximum_matching_bruteforce(g)

    def test_odd_components_and_blossoms(self):
        # Two triangles joined by a bridge force blossom contraction.
        g = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        assert maximum_matching(g).size == 3

    def test_bruteforce_cap_and_empty(self):
        assert oracles.maximum_matching_bruteforce(Graph(3, ())) == 0
        with pytest.raises(CapacityError):
            oracles.maximum_matching_bruteforce(Graph(13, ()))

    def test_mu_at_most_half_n(self):
        for g in corpus(60, 12, base_seed=400):
            assert 2 * maximum_matching(g).size <= g.n


def assert_sound(g: Graph, count: int) -> None:
    # The blossom witness is a matching of g, and it is perfect iff g has one.
    m = maximum_matching(g)
    assert set(m.edges) <= g.edge_set
    assert (2 * m.size == g.n) == (count >= 1)


class TestPerfectMatchingStatus:
    def test_paths_and_cycles(self):
        assert perfect_matching_status(generate(GeneratorConfig("path", 4))) == 1
        assert perfect_matching_status(generate(GeneratorConfig("cycle", 4))) == 2

    def test_k3_plus_e_unique(self):
        g = fixtures()["k3_plus_e"].graph
        assert perfect_matching_status(g) == 1
        assert maximum_matching(g) == Matching(((0, 3), (1, 2)))

    def test_fig7_unique(self):
        assert perfect_matching_status(fixtures()["fig7_g0"].graph) == 1

    def test_empty_graph_counts_one(self):
        assert perfect_matching_status(Graph(0, ())) == 1

    def test_odd_or_isolated_is_zero(self):
        assert perfect_matching_status(Graph(3, ())) == 0
        star = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        assert perfect_matching_status(star) == 0

    def test_count_matches_oracle_saturated(self):
        for g in corpus(80, 10, base_seed=600):
            expected = min(oracles.perfect_matching_count_bf(g), 2)
            assert perfect_matching_status(g) == expected

    def test_forests_against_tree_dp(self):
        # A forest has at most one perfect matching, and forests are KE, so
        # it has one iff 2 * alpha = n.
        rng = random.Random(4700)
        for n in range(1, 41):
            tree = generate(GeneratorConfig("tree", n, seed=4700 + n))
            for g in (tree, random_forest(rng, n)):
                count = perfect_matching_status(g)
                assert count == (1 if 2 * oracles.alpha_tree_dp(g) == n else 0)
                assert_sound(g, count)

    def test_two_cliques_none_iff_odd(self):
        for k in range(3, 20):
            clique = [(u, v) for u in range(k) for v in range(u + 1, k)]
            g = from_edge_list(2 * k, clique + [(u + k, v + k) for u, v in clique])
            count = perfect_matching_status(g)
            assert count == (0 if k % 2 else 2)
            assert_sound(g, count)

    def test_paths_cycles_cliques_up_to_forty(self):
        for n in range(2, 41, 2):
            expected = {"path": 1, "cycle": 2, "complete": 2 if n > 2 else 1}
            for kind, count in expected.items():
                if n < 4 and kind == "cycle":
                    continue
                g = generate(GeneratorConfig(kind, n))
                assert perfect_matching_status(g) == count
                assert_sound(g, count)

    def test_sparse_gnp_eleven_to_fourteen(self):
        for i in range(32):
            g = gnp(4800 + i, 11 + i % 4, (0.2, 0.25, 0.3)[i % 3])
            count = perfect_matching_status(g)
            assert count == min(oracles.perfect_matching_count_bf(g), 2)
            assert_sound(g, count)


class TestForcedEdges:
    def test_c4_none(self):
        assert forced_matching_edges(generate(GeneratorConfig("cycle", 4))) == ()

    def test_k3_plus_e_both(self):
        assert forced_matching_edges(fixtures()["k3_plus_e"].graph) == ((0, 3), (1, 2))

    def test_p4_outer_edges(self):
        assert forced_matching_edges(generate(GeneratorConfig("path", 4))) == ((0, 1), (2, 3))

    def test_matches_oracle(self):
        for g in corpus(80, 9, base_seed=700):
            assert forced_matching_edges(g) == oracles.mu_critical_edges_bf(g)
        for n in range(2, 11):
            for kind in KINDS:
                if n < MIN_N[kind]:
                    continue
                n1 = n // 2 if kind == "bipartite" else n
                cfg = GeneratorConfig(kind, n1, n2=n - n1, p=0.3 if kind in P_KINDS else None, seed=4900 + n)
                g = generate(cfg)
                shared = set(g.edges)
                for m in oracles.maximum_matchings_bf(g):
                    shared &= set(m)
                assert forced_matching_edges(g) == tuple(sorted(shared))

    def test_matches_oracle_at_eleven_and_twelve(self):
        for i in range(24):
            g = gnp(4400 + i, 11 + i % 2, (0.2, 0.25, 0.3)[i % 3])
            assert forced_matching_edges(g) == oracles.mu_critical_edges_bf(g)

    def test_unique_pm_forces_exactly_its_edges(self):
        for g in corpus(120, 10, base_seed=800):
            if perfect_matching_status(g) == 1:
                assert forced_matching_edges(g) == maximum_matching(g).edges


class TestMatchingEnumeration:
    def test_matches_oracle(self):
        for g in corpus(60, 8, base_seed=900):
            got = [m.edges for m in enumerate_maximum_matchings(g)]
            assert got == oracles.maximum_matchings_bf(g)

    def test_cap(self):
        k8 = generate(GeneratorConfig("complete", 8))
        with pytest.raises(CapacityError):
            enumerate_maximum_matchings(k8, SolverCaps(matchings=10))


class TestSolverCaps:
    def test_caps_is_the_only_limit_parameter(self):
        checked = 0
        for module in (kegraph, kegraph.harness):
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(inspect.unwrap(obj)):
                    continue
                params = inspect.signature(obj).parameters
                assert not {"max_n", "cap"} & set(params), name
                if "caps" in params:
                    assert params["caps"].default is DEFAULT_CAPS, name
                    checked += 1
        assert checked >= 10

    def test_every_public_function_and_method_is_read_in_src(self):
        # A public name that only tests read is surface to delete, not to keep.
        allowed = {
            "enumerate_maximum_matchings": "a traced layer of the benchmark; it goes with the benchmark's names",
        }
        trees = _src_trees()
        nodes = [node for tree in trees for node in ast.walk(tree)]
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        top = [node for tree in trees for node in tree.body]
        functions = {node.name for node in top if isinstance(node, ast.FunctionDef)}
        methods = {
            item.name
            for node in top if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, ast.FunctionDef)
        }
        unread = (functions - names - attributes) | (methods - attributes)
        assert {x for x in unread if not x.startswith("_")} == set(allowed)

    def test_every_dataclass_field_is_read_in_src(self):
        # A field that only tests read is test data carried by production values.
        trees = _src_trees()
        read = {
            node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
        unread = {
            (node.name, item.target.id)
            for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            and item.target.id not in read
        }
        assert unread == set()

    def test_raised_caps_keep_alpha_at_least_omega_vertices(self):
        for caps in (DEFAULT_CAPS, DEFAULT_CAPS.raised_to(12), DEFAULT_CAPS.raised_to(33)):
            assert caps.alpha >= caps.omega_vertices

    def test_refusal_reasons(self):
        eight_edges = from_edge_list(16, [(2 * i, 2 * i + 1) for i in range(8)])
        reasons = [
            (Graph(41, ()), "L1", DEFAULT_CAPS,
             "capacity: stability solver capped at n=40, got n=41"),
            (Graph(21, ()), "NC", DEFAULT_CAPS,
             "capacity: stable-set enumeration capped at n=20, got n=21"),
            (eight_edges, "NC", SolverCaps(omega_sets=255),
             "capacity: more than 255 maximum stable sets"),
            (Graph(15, ()), "BHP", DEFAULT_CAPS,
             "capacity: odd-cycle search capped at n=14, got n=15"),
        ]
        for g, cid, caps, reason in reasons:
            verdict = check(g, cid, caps)
            assert (verdict.status, verdict.reason) == ("NotApplicable", reason)
        # No check enumerates matchings, so only a direct call meets the matchings cap.
        k8 = generate(GeneratorConfig("complete", 8))
        with pytest.raises(CapacityError) as exc:
            enumerate_maximum_matchings(k8, SolverCaps(matchings=10))
        assert str(exc.value) == "more than 10 maximum matchings"


class TestExplicitStacks:
    # The searches keep their state on explicit stacks, so SolverCaps is the
    # only limit: the interpreter's recursion limit caps no input size.

    def test_no_function_in_src_calls_itself(self):
        recursive = set()
        nonlocals = 0
        for tree in _src_trees():
            for node in ast.walk(tree):
                nonlocals += isinstance(node, ast.Nonlocal)
                if isinstance(node, ast.FunctionDef) and any(
                    isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == node.name
                    for call in ast.walk(node)
                ):
                    recursive.add(node.name)
        assert (recursive, nonlocals) == (set(), 0)

    def test_alpha_of_a_clique_deeper_than_the_recursion_limit(self):
        # The first dive drops one vertex of K_n per level down to K_2.
        n = sys.getrecursionlimit() + 100
        full = (1 << n) - 1
        assert _alpha_of_mask(tuple(full ^ (1 << v) for v in range(n)), full) == 1
