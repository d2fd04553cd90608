"""Metamorphic relation: relabeling the vertices changes no verdict.

Every check states a property of the unlabeled graph, so its status and its
reason must be the same on a graph and on any permutation of its vertices.
Witnesses name vertices and are not compared.
"""

from __future__ import annotations

import random

from kegraph import Graph, from_edge_list
from kegraph.harness import KINDS, GeneratorConfig, check, check_ids, fixtures, generate

SEEDS = range(4)


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
                p = (0.15, 0.3, 0.5, 0.7)[seed]
                yield f"{kind} {n} seed {seed}", generate(GeneratorConfig(kind, n, p=p, seed=seed))


def _outcomes(g: Graph) -> list[tuple[str, str, str | None]]:
    return [(v.check_id, v.status, v.reason) for v in (check(g, cid) for cid in check_ids())]


def test_relabeling_keeps_every_verdict():
    mismatches = []
    for i, (name, g) in enumerate(_corpus()):
        before, after = _outcomes(g), _outcomes(_relabel(g, 1000 + i))
        mismatches += [(name, a, b) for a, b in zip(before, after) if a != b]
    assert not mismatches, mismatches[:5]
