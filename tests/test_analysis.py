from __future__ import annotations

import pytest

import oracles
from s0 import s0_procedure
from kegraph import (
    Graph,
    InternalInvariantError,
    Matching,
    PreconditionError,
    enumerate_maximum_stable_sets,
    forest_condition,
    from_edge_list,
    g_zero,
    is_koenig_egervary,
    ke_decompose,
    maximum_matching,
    parameter_report,
    spans_forest,
    stability_number,
    th2_evaluate,
)
from kegraph.harness import GeneratorConfig, fixtures, generate


def ke_samples(count: int, n: int, base_seed: int = 0):
    return [
        generate(GeneratorConfig("ke_synth", n, p=0.2 + 0.1 * (i % 7), seed=base_seed + i))
        for i in range(count)
    ]


class TestRecognition:
    def test_fixed_cases(self):
        assert is_koenig_egervary(fixtures()["k3_plus_e"].graph)
        assert not is_koenig_egervary(generate(GeneratorConfig("cycle", 5)))
        assert not is_koenig_egervary(fixtures()["w1"].graph)

    def test_bipartite_always_ke(self):
        for seed in range(40):
            g = generate(GeneratorConfig("bipartite", 5, n2=4, p=0.4, seed=seed))
            assert is_koenig_egervary(g)

    def test_definition(self):
        for seed in range(40):
            g = generate(GeneratorConfig("gnp", 9, p=0.35, seed=seed))
            expected = oracles.alpha_bf(g) + oracles.mu_bf(g) == g.n
            assert is_koenig_egervary(g) == expected


class TestDecomposition:
    def test_k2(self):
        d = ke_decompose(from_edge_list(2, [(0, 1)]))
        assert d.s == (0,) and d.h_vertices == (1,)
        assert d.cut_matching.edges == ((0, 1),)

    def test_k3_plus_e(self):
        d = ke_decompose(fixtures()["k3_plus_e"].graph)
        assert d.s == (1, 3)
        assert d.h_vertices == (0, 2)
        assert d.cut_matching.size == 2

    def test_c6(self):
        d = ke_decompose(generate(GeneratorConfig("cycle", 6)))
        assert d.s == (0, 2, 4)
        assert d.cut_matching.size == 3

    def test_rejects_non_ke(self):
        with pytest.raises(PreconditionError):
            ke_decompose(generate(GeneratorConfig("cycle", 5)))

    def test_invariants_on_samples(self):
        for g in ke_samples(60, 10, base_seed=40):
            d = ke_decompose(g)
            assert oracles.is_stable(g, d.s)
            assert len(d.s) == stability_number(g)
            assert set(d.s) | set(d.h_vertices) == set(range(g.n))
            assert not set(d.s) & set(d.h_vertices)
            covered = {v for e in d.cut_matching.edges for v in e}
            assert covered & set(d.h_vertices) == set(d.h_vertices)

    def test_every_maximum_matching_inside_every_cut(self):
        for g in ke_samples(30, 9, base_seed=90):
            omega = enumerate_maximum_stable_sets(g).omega
            for m in oracles.maximum_matchings_bf(g):
                for s in omega:
                    members = set(s)
                    assert all((u in members) != (v in members) for u, v in m)


class TestGZero:
    def test_empty_core_is_identity(self):
        c4 = generate(GeneratorConfig("cycle", 4))
        sub, kept = g_zero(c4)
        assert sub == c4 and kept == (0, 1, 2, 3)

    def test_k3_plus_e(self):
        sub, kept = g_zero(fixtures()["k3_plus_e"].graph)
        assert sub == Graph(2, ((0, 1),))
        assert kept == (1, 2)

    def test_star_collapses(self):
        star = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        sub, kept = g_zero(star)
        assert sub == Graph(0, ()) and kept == ()

    def test_omega_projection(self):
        # Maximum stable sets of the reduction are the projections of the originals.
        for g in ke_samples(25, 9, base_seed=150):
            sub, kept = g_zero(g)
            new_id = {old: i for i, old in enumerate(kept)}
            projected = {
                tuple(sorted(new_id[v] for v in s if v in new_id))
                for s in enumerate_maximum_stable_sets(g).omega
            }
            assert projected == set(enumerate_maximum_stable_sets(sub).omega)


class TestS0Procedure:
    def test_k2(self):
        trace = s0_procedure(from_edge_list(2, [(0, 1)]), Matching(((0, 1),)), (0,), 1)
        assert trace.s0 == (1,)
        assert trace.steps == (((1,), (1,)),)
        assert trace.target_edge == (0, 1)

    def test_fig7_full_trace(self):
        g = fixtures()["fig7_g0"].graph
        pm = maximum_matching(g)
        trace = s0_procedure(g, pm, a_side=(0, 1, 2, 3, 4), b1=5)
        assert trace.s0 == (4, 5, 6, 7, 8)
        assert [s for s, _ in trace.steps] == [(5,), (5, 6, 7), (5, 6, 7, 8)]
        assert trace.steps[1][1] == (6, 7)
        assert trace.target_edge == (0, 5)

    def test_every_b_start_gives_maximum_stable_set(self):
        g = fixtures()["fig7_g0"].graph
        pm = maximum_matching(g)
        for b in (5, 6, 7, 8, 9):
            trace = s0_procedure(g, pm, a_side=(0, 1, 2, 3, 4), b1=b)
            assert b in trace.s0
            assert len(trace.s0) == 5

    def test_precondition_non_unique_pm(self):
        c4 = generate(GeneratorConfig("cycle", 4))
        with pytest.raises(PreconditionError):
            s0_procedure(c4, Matching(((0, 1), (2, 3))), (0, 2), 1)

    def test_precondition_wrong_matching(self):
        g = fixtures()["k3_plus_e"].graph
        with pytest.raises(PreconditionError):
            s0_procedure(g, Matching(((0, 1),)), (1,), 0)

    def test_precondition_unstable_a_side(self):
        g = fixtures()["fig2_ke"].graph
        pm = maximum_matching(g)
        # (1, 3, 5) is an endpoint class of the matching but 1-5 is an edge.
        with pytest.raises(PreconditionError):
            s0_procedure(g, pm, a_side=(1, 3, 5), b1=0)

    def test_precondition_b1_inside_a_side(self):
        g = fixtures()["fig7_g0"].graph
        pm = maximum_matching(g)
        with pytest.raises(PreconditionError):
            s0_procedure(g, pm, a_side=(0, 1, 2, 3, 4), b1=0)


class TestParameterReport:
    def test_fixture_values_match_oracles(self):
        for fixture in fixtures().values():
            g = fixture.graph
            report = parameter_report(g)
            core, anticore = oracles.core_anticore_bf(g)
            assert report.alpha == oracles.alpha_bf(g)
            assert report.mu == oracles.mu_bf(g)
            assert report.core == core and report.anticore == anticore
            assert report.alpha_critical_edges == oracles.alpha_critical_edges_bf(g)
            assert report.mu_critical_edges == oracles.mu_critical_edges_bf(g)
            g0, _ = g_zero(g)
            assert report.g0_pm_status == min(oracles.perfect_matching_count_bf(g0), 2)

    def test_w1_breaks_every_inequality(self):
        r = parameter_report(fixtures()["w1"].graph)
        assert not r.is_ke
        assert r.xi + r.eta > r.alpha
        assert r.sigma + r.eta > r.mu
        assert r.xi + 2 * r.eta + r.sigma > r.n

    def test_json_shape(self):
        d = parameter_report(fixtures()["k3_plus_e"].graph).to_dict()
        assert list(d) == [
            "n", "m", "alpha", "mu", "xi", "sigma", "eta",
            "is_ke", "is_bipartite", "is_tree", "core", "anticore",
            "alpha_critical_edges", "mu_critical_edges",
            "g0_size", "g0_pm_status", "equalities",
        ]
        assert d["alpha_critical_edges"] == [[1, 2]]
        assert list(d["equalities"]) == [
            "xi_plus_eta_eq_alpha", "sigma_plus_eta_eq_mu", "xi_plus_2eta_plus_sigma_eq_n",
        ]

    def test_flags(self):
        r = parameter_report(generate(GeneratorConfig("tree", 9, seed=4)))
        assert r.is_tree and r.is_bipartite and r.is_ke


class TestTh2:
    def test_c4_all_false(self):
        ev = th2_evaluate(generate(GeneratorConfig("cycle", 4)))
        assert ev == (False,) * 5

    def test_k3_plus_e_all_true(self):
        ev = th2_evaluate(fixtures()["k3_plus_e"].graph)
        assert ev == (True,) * 5

    def test_c6_all_false(self):
        ev = th2_evaluate(generate(GeneratorConfig("cycle", 6)))
        assert ev == (False,) * 5

    def test_star_all_true(self):
        star = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        ev = th2_evaluate(star)
        assert ev == (True,) * 5

    def test_requires_ke(self):
        with pytest.raises(PreconditionError):
            th2_evaluate(generate(GeneratorConfig("cycle", 5)))

    def test_consistent_on_samples(self):
        for g in ke_samples(60, 10, base_seed=777):
            assert len(set(th2_evaluate(g))) == 1


class TestForestCondition:
    def test_trees_always_hold(self):
        for seed in range(20):
            t = generate(GeneratorConfig("tree", 10, seed=seed))
            holds, witness = forest_condition(t)
            assert holds and witness is not None

    def test_fig9_ii_true_with_valid_witness(self):
        g = fixtures()["fig9_ii"].graph
        holds, witness = forest_condition(g)
        assert holds
        members = set(witness)
        cut = [e for e in g.edges if (e[0] in members) != (e[1] in members)]
        assert spans_forest(g, cut)
        # The documented witness is acceptable too: {a, b, y, z} = {0, 1, 5, 6}.
        s2 = {0, 1, 5, 6}
        cut2 = [e for e in g.edges if (e[0] in s2) != (e[1] in s2)]
        assert spans_forest(g, cut2)

    def test_fig9_iii_false_yet_equalities_hold(self):
        g = fixtures()["fig9_iii"].graph
        holds, witness = forest_condition(g)
        assert not holds and witness is None
        r = parameter_report(g)
        assert r.eq_alpha and r.eq_mu and r.eq_n

    def test_requires_ke(self):
        with pytest.raises(PreconditionError):
            forest_condition(fixtures()["w1"].graph)


class TestInternalAssertions:
    def test_reports_are_reproducible(self):
        g = fixtures()["fig9_ii"].graph
        assert parameter_report(g) == parameter_report(Graph(g.n, g.edges))

    def test_matching_invariant_error_is_not_input_error(self):
        assert issubclass(InternalInvariantError, Exception)
