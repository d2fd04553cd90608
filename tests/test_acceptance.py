"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import json
import time

import oracles
from s0 import s0_procedure
from kegraph import (
    forced_matching_edges,
    maximum_matching,
    parameter_report,
    perfect_matching_status,
)
from kegraph.harness import FAIL, GeneratorConfig, check, fixtures, fuzz, generate

TREE_CHECKS = ("C1", "C4", "C5", "P3", "T1i", "T1ii", "T1iii")
KE_CHECKS = (
    "T1i", "T1ii", "T1iii", "CK2", "C2", "NC",
    "P5i", "P5ii", "P5iii", "P7", "P9i", "P9ii", "P9iii",
    "P10", "L6i", "L6ii", "L6iii", "L3", "T2",
)
GNP_CHECKS = ("BHP", "H1", "NC")


def _announce(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:02d} ({label}): PASS")


def test_criterion_01_k3_plus_e_exactness():
    start = time.perf_counter()
    fixture = fixtures()["k3_plus_e"]
    g = fixture.graph
    r = parameter_report(g)
    assert (r.n, r.m, r.alpha, r.mu, r.xi, r.sigma, r.eta) == (4, 4, 2, 2, 1, 1, 1)
    assert r.is_ke
    assert perfect_matching_status(g) == 1
    assert r.mu_critical_edges == maximum_matching(g).edges
    assert len(r.mu_critical_edges) == 2
    # alpha-critical is a proper subset: the matching edge (0, 3) is not critical.
    assert set(r.alpha_critical_edges) < set(r.mu_critical_edges)
    # derived values against the independent oracle
    assert r.alpha == oracles.alpha_bf(g) and r.mu == oracles.mu_bf(g)
    assert (r.core, r.anticore) == oracles.core_anticore_bf(g)
    assert r.alpha_critical_edges == oracles.alpha_critical_edges_bf(g)
    assert r.mu_critical_edges == oracles.mu_critical_edges_bf(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _announce(1, "k3_plus_e fixture exact")


def test_criterion_02_w1_exactness():
    start = time.perf_counter()
    g = fixtures()["w1"].graph
    r = parameter_report(g)
    assert (r.alpha, r.mu, r.eta, r.xi, r.sigma) == (3, 2, 3, 2, 1)
    assert not r.is_ke
    assert r.xi + r.eta > r.alpha
    assert r.sigma + r.eta > r.mu
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _announce(2, "w1 fixture exact, inequalities broken")


def test_criterion_03_fig7_s0_procedure():
    start = time.perf_counter()
    g = fixtures()["fig7_g0"].graph
    assert perfect_matching_status(g) == 1
    pm = maximum_matching(g)
    r = parameter_report(g)
    assert r.xi == 0
    trace = s0_procedure(g, pm, a_side=(0, 1, 2, 3, 4), b1=5)
    assert trace.s0 == (4, 5, 6, 7, 8)  # {b1, b2, b3, b4, a5}
    assert [s for s, _ in trace.steps] == [(5,), (5, 6, 7), (5, 6, 7, 8)]
    assert set(pm.edges) <= set(r.alpha_critical_edges)
    assert r.eta == 5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _announce(3, "fig7 unique PM, seeded stable-set trace")


def test_criterion_04_fig8_exactness():
    fixture = fixtures()["fig8_bipartite"]
    g = fixture.graph
    r = parameter_report(g)
    assert (r.xi, r.eta, r.alpha, r.sigma) == (2, 0, 4, 1)
    assert r.mu == 3 == oracles.maximum_matching_bruteforce(g)
    assert "4" in fixture.notes and "mu = 3" in fixture.notes  # discrepancy flagged
    assert not (r.eq_alpha or r.eq_mu or r.eq_n)  # tree equalities must fail here
    _announce(4, "fig8 fixture exact, mu discrepancy flagged")


def test_criterion_05_tree_property_suite():
    start = time.perf_counter()
    summary = fuzz(GeneratorConfig("tree", 16, seed=20260809), 1000, TREE_CHECKS)
    elapsed = time.perf_counter() - start
    assert summary.total_failures == 0, summary.witnesses
    for cid in TREE_CHECKS:
        assert summary.counts[cid]["fail"] == 0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _announce(5, f"1000 trees, {len(TREE_CHECKS)} checks, 0 failures, {elapsed:.1f}s")


def test_criterion_06_ke_property_suite():
    start = time.perf_counter()
    summary = fuzz(GeneratorConfig("ke_synth", 12, seed=20260810), 1000, KE_CHECKS)
    elapsed = time.perf_counter() - start
    assert summary.total_failures == 0, summary.witnesses
    for cid in KE_CHECKS:
        assert summary.counts[cid]["fail"] == 0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _announce(6, f"1000 KE graphs, {len(KE_CHECKS)} checks, 0 failures, {elapsed:.1f}s")


def test_criterion_07_general_graph_suite():
    start = time.perf_counter()
    summary = fuzz(GeneratorConfig("gnp", 12, seed=20260811), 1000, GNP_CHECKS)
    elapsed = time.perf_counter() - start
    assert summary.total_failures == 0, summary.witnesses
    # NC covers the weak direction N(core) <= anticore on non-KE samples.
    assert summary.counts["NC"]["pass"] == 1000
    assert summary.counts["H1"]["pass"] == 1000
    assert summary.counts["BHP"]["pass"] == 1000
    _announce(7, f"1000 G(n,p) graphs, BHP/H1/NC, 0 failures, {elapsed:.1f}s")


def test_criterion_08_oracle_equivalence():
    checked = 0
    for i in range(500):
        n = 2 + i % 9  # 2..10
        p = (0.1, 0.3, 0.5, 0.7, 0.9)[i % 5]
        g = generate(GeneratorConfig("gnp", n, p=p, seed=90000 + i))
        assert maximum_matching(g).size == oracles.maximum_matching_bruteforce(g)
        shared = set(g.edges)
        for m in oracles.maximum_matchings_bf(g):
            shared &= set(m)
        assert set(forced_matching_edges(g)) == shared
        checked += 1
    assert checked == 500
    _announce(8, "blossom == brute force and mu-critical == matching intersection, 500 graphs")


def test_criterion_09_negative_controls():
    w1 = fixtures()["w1"].graph
    assert check(w1, "P7-unguarded").status == FAIL
    k3 = generate(GeneratorConfig("complete", 3))
    assert check(k3, "P3-unguarded").status == FAIL
    # The guarded forms correctly sit out instead.
    assert check(w1, "P7").status == "NotApplicable"
    assert check(k3, "P3").status == "NotApplicable"
    _announce(9, "harness detects real violations when gates are removed")


def test_criterion_10_fuzz_determinism():
    campaigns = [
        (GeneratorConfig("tree", 14, seed=424242), 120, TREE_CHECKS),
        (GeneratorConfig("gnp", 9, seed=171717), 120, ("P7-unguarded", "BHP", "H1")),
        (GeneratorConfig("ke_synth", 11, seed=808080), 120, ("T2", "C2", "L3")),
    ]
    for cfg, trials, checks in campaigns:
        first = json.dumps(fuzz(cfg, trials, checks).to_dict(), indent=2)
        second = json.dumps(fuzz(cfg, trials, checks).to_dict(), indent=2)
        assert first == second
    _announce(10, "identical seeds give byte-identical summaries")
