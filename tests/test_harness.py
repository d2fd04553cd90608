from __future__ import annotations

import json

import pytest

from kegraph import (
    InputError,
    delete_edge,
    delete_vertices,
    from_edge_list,
    is_bipartite,
    is_connected,
    is_koenig_egervary,
    is_tree,
    parse_edge_list,
)
from kegraph.harness import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    GeneratorConfig,
    check,
    check_ids,
    fixtures,
    fuzz,
    generate,
    shrink_failure,
)
from kegraph.graph import Graph
from kegraph.harness.checks import CHECK_STATEMENTS


class TestGenerators:
    def test_tree_shape(self):
        for n in range(1, 17):
            t = generate(GeneratorConfig("tree", n, seed=n))
            assert t.n == n and t.m == n - 1 and is_tree(t)

    def test_tree_coverage_on_four_vertices(self):
        # All 16 labeled trees on 4 vertices should show up across seeds.
        seen = {generate(GeneratorConfig("tree", 4, seed=s)).edges for s in range(600)}
        assert len(seen) == 16

    def test_tree_determinism(self):
        cfg = GeneratorConfig("tree", 12, seed=99)
        assert generate(cfg) == generate(cfg)

    def test_bipartite(self):
        for seed in range(20):
            g = generate(GeneratorConfig("bipartite", 5, n2=3, p=0.5, seed=seed))
            assert g.n == 8 and is_bipartite(g)

    def test_gnp_extremes(self):
        assert generate(GeneratorConfig("gnp", 6, p=0.0, seed=1)).m == 0
        assert generate(GeneratorConfig("gnp", 6, p=1.0, seed=1)).m == 15

    def test_ke_synth_always_ke_and_connected(self):
        for seed in range(150):
            g = generate(GeneratorConfig("ke_synth", 2 + seed % 11, p=0.1 + (seed % 9) / 10, seed=seed))
            assert is_koenig_egervary(g)
            assert is_connected(g)

    def test_fixed_shapes(self):
        assert generate(GeneratorConfig("cycle", 5)).m == 5
        assert generate(GeneratorConfig("path", 7)).m == 6
        assert generate(GeneratorConfig("complete", 5)).m == 10

    def test_errors(self):
        with pytest.raises(InputError):
            generate(GeneratorConfig("hypercube", 4))
        with pytest.raises(InputError):
            generate(GeneratorConfig("cycle", 2))
        with pytest.raises(InputError):
            generate(GeneratorConfig("gnp", 5, p=1.5, seed=0))
        with pytest.raises(InputError):
            generate(GeneratorConfig("gnp", 5))  # p required


class TestCheckCatalog:
    def test_ids_are_documented(self):
        ids = check_ids()
        assert len(ids) == len(set(ids)) == 31
        for cid in ids:
            assert CHECK_STATEMENTS[cid]

    def test_unknown_id(self):
        with pytest.raises(InputError):
            check(generate(GeneratorConfig("cycle", 4)), "T99")

    def test_t1iii_vacuous_pass_on_c6(self):
        assert check(generate(GeneratorConfig("cycle", 6)), "T1iii").status == PASS

    def test_p7_na_on_w1(self):
        verdict = check(fixtures()["w1"].graph, "P7")
        assert verdict.status == NOT_APPLICABLE
        assert "König-Egerváry" in verdict.reason

    def test_p7_unguarded_fails_on_w1(self):
        verdict = check(fixtures()["w1"].graph, "P7-unguarded")
        assert verdict.status == FAIL
        assert verdict.witness is not None and "graph" in verdict.witness

    def test_p3_unguarded_fails_on_k3(self):
        k3 = generate(GeneratorConfig("complete", 3))
        assert check(k3, "P3-unguarded").status == FAIL
        # but the guarded P3 is simply inapplicable
        assert check(k3, "P3").status == NOT_APPLICABLE

    def test_l3_passes_on_fig7(self):
        assert check(fixtures()["fig7_g0"].graph, "L3").status == PASS

    def test_capacity_becomes_na(self):
        big_path = generate(GeneratorConfig("path", 20))
        verdict = check(big_path, "BHP")
        assert verdict.status == NOT_APPLICABLE
        assert verdict.reason.startswith("capacity")

    def test_fail_witness_is_replayable(self):
        verdict = check(fixtures()["w1"].graph, "P7-unguarded")
        replay = parse_edge_list(verdict.witness["graph"])
        assert check(replay, "P7-unguarded").status == FAIL

    def test_every_check_runs_on_every_fixture(self):
        for fixture in fixtures().values():
            for cid in check_ids():
                verdict = check(fixture.graph, cid)
                if cid in ("P7-unguarded", "P3-unguarded"):
                    continue  # negative controls may legitimately fail
                assert verdict.status in (PASS, NOT_APPLICABLE), (fixture.name, cid, verdict)

    def test_ck2_directions(self):
        k2 = generate(GeneratorConfig("complete", 2))
        assert check(k2, "CK2").status == PASS
        assert check(generate(GeneratorConfig("path", 4)), "CK2").status == PASS

    def test_c4_k1_not_applicable(self):
        k1 = generate(GeneratorConfig("tree", 1, seed=0))
        assert check(k1, "C4").status == NOT_APPLICABLE

    def test_gate_reasons(self):
        not_ke = "not a König-Egerváry graph"
        connected = "needs a connected graph with at least one edge"
        k1 = Graph(1, ())
        k3 = generate(GeneratorConfig("complete", 3))
        # K3 plus an isolated vertex fails every gate: KE, bipartite, tree, connected.
        k3_k1 = from_edge_list(4, [(0, 1), (0, 2), (1, 2)])
        two_k2 = from_edge_list(4, [(0, 1), (2, 3)])  # KE, bipartite, a forest
        cases = [(k3, cid, not_ke) for cid in (
            "T1i", "T1ii", "T1iii", "P5i", "P5ii", "P9i", "P9ii", "P9iii",
            "C2", "P7", "P10", "L3", "T2", "P4",
        )] + [
            # Gates apply in order: the KE gate answers before connectivity.
            (k3_k1, "CK2", not_ke),
            (k3_k1, "P5iii", not_ke),
            (two_k2, "CK2", connected),
            (k1, "CK2", connected),
            (two_k2, "P5iii", connected),
            (k3, "P3", "not bipartite"),
            (k3_k1, "C6", "not bipartite"),
            (two_k2, "C6", connected),
            (k3, "C1", "not a tree"),
            (k3, "C5", "not a tree"),
            (k3, "C3", "not a tree"),
            (generate(GeneratorConfig("path", 3)), "C3", "tree has no perfect matching"),
            (two_k2, "C4", "not a tree"),
            (k1, "C4", "needs a tree with at least one edge"),
            (fixtures()["w1"].graph, "L1", "no perfect matching and " + not_ke),
            # C4 is KE, but its reduction is C4 itself, with two perfect matchings.
            (generate(GeneratorConfig("cycle", 4)), "L3", "core reduction has no unique perfect matching"),
        ] + [(k3_k1, cid, None) for cid in (
            "BHP", "NC", "L6i", "L6ii", "L6iii", "H1", "P7-unguarded", "P3-unguarded",
        )]
        assert {cid for _, cid, _ in cases} == set(check_ids())
        for g, cid, reason in cases:
            verdict = check(g, cid)
            if reason is None:
                assert verdict.status != NOT_APPLICABLE, (cid, verdict)
            else:
                assert (verdict.status, verdict.reason) == (NOT_APPLICABLE, reason), (cid, g)

    def test_negative_controls_are_their_gated_bodies(self):
        corpus = [f.graph for f in fixtures().values()]
        for seed in range(40):
            n = 2 + seed % 11
            p = 0.1 + (seed % 9) / 10
            corpus.append(generate(GeneratorConfig("ke_synth", n, p=p, seed=seed)))
            corpus.append(generate(GeneratorConfig("bipartite", n, n2=1 + seed % 5, p=p, seed=seed)))
            corpus.append(generate(GeneratorConfig("tree", n, seed=seed)))
        compared = 0
        for g in corpus:
            if not is_koenig_egervary(g):
                continue
            for control, gated in (("P7-unguarded", "P7"), ("P3-unguarded", "T1ii")):
                a, b = check(g, control).to_dict(), check(g, gated).to_dict()
                assert a.pop("check_id") == control and b.pop("check_id") == gated
                assert a == b, (control, g)
            compared += 1
        assert compared > 100


class TestShrinking:
    def test_shrinks_to_minimal_failure(self):
        # Embed w1 in noise: extra vertices and edges that do not repair it.
        w1 = fixtures()["w1"].graph
        noisy = parse_edge_list(
            "9 9\n0 1\n1 2\n2 3\n1 4\n2 5\n3 5\n6 7\n7 8\n0 6\n"
        )
        assert check(noisy, "P7-unguarded").status == FAIL
        shrunk = shrink_failure(noisy, "P7-unguarded")
        assert check(shrunk, "P7-unguarded").status == FAIL
        assert shrunk.n <= noisy.n and shrunk.m <= noisy.m
        # 1-minimality: no single deletion still fails.
        for e in shrunk.edges:
            assert check(delete_edge(shrunk, e), "P7-unguarded").status != FAIL
        for v in range(shrunk.n):
            candidate, _ = delete_vertices(shrunk, (v,))
            assert check(candidate, "P7-unguarded").status != FAIL
        assert w1.n >= shrunk.n

    def test_class_preserved_via_na(self):
        # Deleting an edge from a tree disconnects it, so tree checks reject
        # the step through NotApplicable rather than mislabeling it a Fail.
        tree = generate(GeneratorConfig("tree", 8, seed=5))
        assert check(delete_edge(tree, tree.edges[0]), "C1").status == NOT_APPLICABLE


class TestFuzz:
    CHECKS = ("C1", "C4", "P3", "T1iii", "H1")

    def test_summary_counts(self):
        summary = fuzz(GeneratorConfig("tree", 10, seed=11), 30, self.CHECKS)
        assert summary.trials == 30
        for cid in self.CHECKS:
            counts = summary.counts[cid]
            assert counts["pass"] + counts["fail"] + counts["na"] == 30
        assert summary.total_failures == 0

    def test_reproducible_byte_for_byte(self):
        cfg = GeneratorConfig("gnp", 8, seed=123)
        a = json.dumps(fuzz(cfg, 40, ("P7-unguarded", "H1")).to_dict(), indent=2)
        b = json.dumps(fuzz(cfg, 40, ("P7-unguarded", "H1")).to_dict(), indent=2)
        assert a == b

    def test_witnesses_replay_and_still_fail(self):
        summary = fuzz(GeneratorConfig("gnp", 8, seed=7), 60, ("P7-unguarded",))
        assert summary.total_failures > 0
        assert summary.witnesses
        for entry in summary.witnesses:
            g = parse_edge_list(entry["graph"])
            assert check(g, entry["check_id"]).status == FAIL

    def test_na_tally(self):
        summary = fuzz(GeneratorConfig("tree", 9, seed=3), 30, ("C3",))
        counts = summary.counts["C3"]
        assert counts["na"] > 0 and counts["fail"] == 0

    def test_p_sweep_only_for_random_kinds(self):
        summary = fuzz(GeneratorConfig("tree", 9, seed=3), 5, ("C1",))
        assert summary.cfg.p is None
        assert summary.total_failures == 0

    def test_input_errors(self):
        with pytest.raises(InputError):
            fuzz(GeneratorConfig("tree", 9, seed=3), 0, ("C1",))
        with pytest.raises(InputError):
            fuzz(GeneratorConfig("cycle", 2, seed=3), 5, ("C1",))


class TestFixtures:
    def test_catalog(self):
        table = fixtures()
        assert list(table) == [
            "k3_plus_e", "fig2_ke", "w1", "fig7_g0", "fig8_bipartite", "fig9_ii", "fig9_iii",
        ]
        for fixture in table.values():
            assert fixture.expected["n"] == fixture.graph.n

    def test_letters_cover_vertices(self):
        for fixture in fixtures().values():
            if fixture.letters:
                assert len(fixture.letters) == fixture.graph.n

    def test_fig8_notes_flag_discrepancy(self):
        notes = fixtures()["fig8_bipartite"].notes
        assert "mu = 3" in notes and "4" in notes
