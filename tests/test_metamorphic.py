"""Metamorphic relations: changes to the input or the caps whose effect on the
output is known in advance.

- Relabeling the vertices changes no verdict. Every check states a property
  of the unlabeled graph, so its status and its reason must be the same on a
  graph and on any permutation of its vertices. Witnesses name vertices and
  are not compared.
- A disjoint union adds alpha, mu, eta, xi and sigma, and its core, anticore,
  alpha-critical and forced edges are the shifted unions of the parts' sets.
  It is KE iff every part is, since alpha + mu <= n holds for every graph.
- Raising the caps decides more, but never changes a verdict that the lower
  caps already decided.
"""

from __future__ import annotations

import random

import oracles
from kegraph import Graph, SolverCaps, from_edge_list, parameter_report
from kegraph.harness import (
    KINDS,
    MIN_N,
    NOT_APPLICABLE,
    P_KINDS,
    GeneratorConfig,
    check,
    check_ids,
    fixtures,
    generate,
)

SEEDS = range(4)
LOW_CAPS = SolverCaps(alpha=12, omega_vertices=9, omega_sets=6, bhp=7)


def _relabel(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _corpus():
    for name, fx in fixtures().items():
        yield f"fixture {name}", fx.graph
    for kind in KINDS:
        for n in range(3, 15):
            for seed in SEEDS:
                p = (0.15, 0.3, 0.5, 0.7)[seed] if kind in P_KINDS else None
                yield f"{kind} {n} seed {seed}", generate(GeneratorConfig(kind, n, p=p, seed=seed))


def _outcomes(g: Graph) -> list[tuple[str, str, str | None]]:
    return [(v.check_id, v.status, v.reason) for v in (check(g, cid) for cid in check_ids())]


def test_relabeling_keeps_every_verdict():
    mismatches = []
    for i, (name, g) in enumerate(_corpus()):
        before, after = _outcomes(g), _outcomes(_relabel(g, 1000 + i))
        mismatches += [(name, a, b) for a, b in zip(before, after) if a != b]
    assert not mismatches, mismatches[:5]


def _disjoint_union(parts: list[Graph]) -> tuple[Graph, list[int]]:
    """The union with part i's vertices shifted by offsets[i]."""
    edges, offsets, total = [], [], 0
    for g in parts:
        offsets.append(total)
        edges += [(u + total, v + total) for u, v in g.edges]
        total += g.n
    return from_edge_list(total, edges), offsets


def _shifted(sets, offsets) -> tuple:
    def shift(x, k):
        return tuple(v + k for v in x) if isinstance(x, tuple) else x + k

    return tuple(sorted(shift(x, k) for members, k in zip(sets, offsets) for x in members))


def test_disjoint_union_adds_counts_and_unions_sets():
    rng = random.Random(20261020)
    for _ in range(40):
        parts = []
        for _ in range(rng.randint(2, 3)):
            kind = rng.choice(KINDS)
            # A bipartite n counts one side, so both sides stay at most 3.
            n = rng.randint(MIN_N[kind], 3 if kind == "bipartite" else 6)
            p = rng.choice((0.2, 0.4, 0.6))
            cfg = GeneratorConfig(kind, n, p=p if kind in P_KINDS else None, seed=rng.getrandbits(32))
            parts.append(generate(cfg))
        reports = [parameter_report(g) for g in parts]
        for g, r in zip(parts, reports):
            assert (r.alpha, r.mu) == (oracles.alpha_bf(g), oracles.mu_bf(g)), g
            assert (r.core, r.anticore) == oracles.core_anticore_bf(g), g
            assert r.alpha_critical_edges == oracles.alpha_critical_edges_bf(g), g
            assert r.mu_critical_edges == oracles.mu_critical_edges_bf(g), g
        union, offsets = _disjoint_union(parts)
        u = parameter_report(union)
        for key in ("alpha", "mu", "eta", "xi", "sigma"):
            assert getattr(u, key) == sum(getattr(r, key) for r in reports), (key, parts)
        for key in ("core", "anticore", "alpha_critical_edges", "mu_critical_edges"):
            assert getattr(u, key) == _shifted([getattr(r, key) for r in reports], offsets), (key, parts)
        assert u.is_ke == all(r.is_ke for r in reports), parts


def test_raised_caps_keep_every_decided_verdict():
    decided = refused = 0
    changed = []
    for name, g in _corpus():
        for cid in check_ids():
            low = check(g, cid, LOW_CAPS)
            if low.status == NOT_APPLICABLE and low.reason.startswith("capacity: "):
                refused += 1
                continue
            decided += 1
            default = check(g, cid)
            if default != low:
                changed.append((name, low, default))
    assert not changed, changed[:5]
    assert decided > 1000 and refused > 100, (decided, refused)
