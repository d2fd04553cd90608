"""The seeded stable-set construction S0, as a walkthrough of the package.

Given a graph whose perfect matching is unique, the construction grows a
maximum stable set that holds a chosen vertex b1 and stays stable with b1's
partner once the matching edge between them is deleted: that edge is
alpha-critical. It calls the package's solvers to confirm its preconditions and
its result, so it lives here and not among the independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from oracles import is_stable

from kegraph import (
    Graph,
    InternalInvariantError,
    Matching,
    PreconditionError,
    delete_edge,
    maximum_matching,
    perfect_matching_status,
    stability_number,
)
from kegraph.graph import Edge, vertex_set


@dataclass(frozen=True)
class S0Trace:
    """Full trace of the seeded stable-set construction.

    steps[0] is the initial (S0, D) state; each later entry is the state after
    one loop iteration. s0 is the final set after the closing sweep.
    """

    s0: tuple[int, ...]
    steps: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    target_edge: Edge


def s0_procedure(g0: Graph, pm: Matching, a_side: Iterable[int], b1: int) -> S0Trace:
    """Grow a maximum stable set of g0 that contains b1, given its unique
    perfect matching.

    a_side must be a stable endpoint class of the matching and b1 a vertex of
    the other class. Starting from S0 = D = {b1}, each round adds the partners
    of the not-yet-matched-into-S0 a-side neighbors of D, and a closing sweep
    adds the partners of the b-side vertices still missing. The result is
    asserted to be a maximum stable set whose union with b1's partner stays
    stable once the partner edge is deleted; a violation means the matching
    was not actually unique.
    """
    a = vertex_set(g0, a_side)
    a_set = set(a)
    for e in pm.edges:
        if e not in g0.edge_set:
            raise PreconditionError(f"matching edge {e} is not an edge of the graph")
    mate = {u: v for u, v in pm.edges} | {v: u for u, v in pm.edges}
    if len(mate) != g0.n:
        raise PreconditionError("matching is not perfect")
    count = perfect_matching_status(g0)
    if count != 1:
        raise PreconditionError(f"perfect matching count is {count}, need exactly 1")
    if pm != maximum_matching(g0):
        raise PreconditionError("supplied matching is not the unique perfect matching")
    if not is_stable(g0, a):
        raise PreconditionError("a_side is not stable")
    for u, v in pm.edges:
        if (u in a_set) == (v in a_set):
            raise PreconditionError("a_side is not an endpoint class of the matching")
    if b1 in a_set or not 0 <= b1 < g0.n:
        raise PreconditionError("b1 must lie outside a_side")

    b_set = set(range(g0.n)) - a_set
    a1 = mate[b1]

    s0 = {b1}
    d = {b1}
    steps = [(tuple(sorted(s0)), tuple(sorted(d)))]
    while True:
        frontier = set()
        for v in d:
            frontier.update(g0.adj[v])
        matched_from_s0 = {mate[v] for v in s0}
        growth = (frontier & a_set) - matched_from_s0
        if not growth:
            break
        previous = set(s0)
        s0 |= {mate[v] for v in growth}
        d = s0 - previous
        steps.append((tuple(sorted(s0)), tuple(sorted(d))))
    s0 |= {mate[v] for v in b_set - s0}

    result = tuple(sorted(s0))
    trace = S0Trace(s0=result, steps=tuple(steps), target_edge=(min(a1, b1), max(a1, b1)))
    if not is_stable(g0, result):
        raise InternalInvariantError(f"constructed set is not stable: {trace}")
    if len(result) != stability_number(g0) or b1 not in s0:
        raise InternalInvariantError(f"constructed set is not a maximum stable set: {trace}")
    reduced = delete_edge(g0, trace.target_edge)
    if not is_stable(reduced, result + (a1,)):
        raise InternalInvariantError(f"set plus {a1} not stable after deleting the target edge: {trace}")
    return trace
