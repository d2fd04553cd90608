"""One executable check per theorem statement.

Each check maps a graph to Pass / Fail(witness) / NotApplicable(reason).
A check declares the preconditions its statement needs (KE, bipartite, tree,
connectivity, or one of its own) as gates when it is registered: `check`
tries them in order and returns NotApplicable with the reason of the first
that fails; capacity limits surface the same way. A check body then only
tests the statement: it returns None for Pass, or the fields of the Fail
witness, to which `check` prepends the edge-list serialization of the graph
so that the witness can be replayed on its own.

The two *-unguarded ids are deliberate negative controls: the bodies of P7
and T1ii registered again without their gates, expected to Fail on known
counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..analysis import (
    forest_condition,
    g_zero,
    is_koenig_egervary,
    parameter_report,
    th2_evaluate,
)
from ..criticality import alpha_critical_edges, mu_critical_edges
from ..errors import CapacityError, InputError
from ..graph import (
    Edge,
    Graph,
    delete_edge,
    format_edge_list,
    is_bipartite,
    is_connected,
    is_maximal_matching,
    is_tree,
    neighborhood,
)
from ..solvers import (
    DEFAULT_CAPS,
    SolverCaps,
    enumerate_maximum_stable_sets,
    maximum_matching,
    perfect_matching_status,
    require_vertex_cap,
    stability_number,
)

PASS = "Pass"
FAIL = "Fail"
NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class CheckVerdict:
    check_id: str
    status: str
    witness: dict | None = None
    reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "status": self.status,
            "witness": self.witness,
            "reason": self.reason,
        }


_Gate = tuple[str, Callable[[Graph, SolverCaps], bool]]
_Body = Callable[[Graph, SolverCaps], dict | None]

_REGISTRY: dict[str, tuple[_Body, tuple[_Gate, ...]]] = {}
CHECK_STATEMENTS: dict[str, str] = {}


def _register(check_id: str, statement: str, *gates: _Gate):
    def wrap(body: _Body) -> _Body:
        _REGISTRY[check_id] = (body, gates)
        CHECK_STATEMENTS[check_id] = statement
        return body

    return wrap


def check_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def check(g: Graph, check_id: str, caps: SolverCaps = DEFAULT_CAPS) -> CheckVerdict:
    """Run one catalog check; a failed gate or a capacity overrun becomes NotApplicable."""
    entry = _REGISTRY.get(check_id)
    if entry is None:
        raise InputError(f"unknown check id {check_id!r}")
    body, gates = entry
    try:
        for reason, holds in gates:
            if not holds(g, caps):
                return CheckVerdict(check_id, NOT_APPLICABLE, reason=reason)
        detail = body(g, caps)
    except CapacityError as exc:
        return CheckVerdict(check_id, NOT_APPLICABLE, reason=f"capacity: {exc}")
    if detail is None:
        return CheckVerdict(check_id, PASS)
    return CheckVerdict(check_id, FAIL, witness={"graph": format_edge_list(g), **detail})


def _edge_list(edges) -> list[list[int]]:
    return [list(e) for e in edges]


# Gates call their predicates through module-level names, so that a wrapper
# rebound over those names (as the benchmark's tracer does) sees every call.
_NOT_KE = "not a König-Egerváry graph"
_KE: _Gate = (_NOT_KE, lambda g, caps: is_koenig_egervary(g, caps))
_BIPARTITE: _Gate = ("not bipartite", lambda g, caps: is_bipartite(g))
_TREE: _Gate = ("not a tree", lambda g, caps: is_tree(g))
_CONNECTED: _Gate = (
    "needs a connected graph with at least one edge",
    lambda g, caps: g.m > 0 and is_connected(g),
)


@_register("T1i", "deleting an alpha-critical edge of a KE graph leaves a KE graph", _KE)
def _t1i(g: Graph, caps: SolverCaps) -> dict | None:
    for e in alpha_critical_edges(g, caps):
        if not is_koenig_egervary(delete_edge(g, e), caps):
            return dict(edge=list(e))
    return None


@_register("T1ii", "alpha-critical edges of a KE graph are mu-critical", _KE)
def _t1ii(g: Graph, caps: SolverCaps) -> dict | None:
    mu_crit = set(mu_critical_edges(g))
    for e in alpha_critical_edges(g, caps):
        if e not in mu_crit:
            return dict(edge=list(e))
    return None


@_register("T1iii", "alpha-critical edges of a KE graph are pairwise non-incident", _KE)
def _t1iii(g: Graph, caps: SolverCaps) -> dict | None:
    crit = alpha_critical_edges(g, caps)
    seen: dict[int, Edge] = {}
    for e in crit:
        for v in e:
            if v in seen:
                return dict(edges=_edge_list([seen[v], e]))
            seen[v] = e
    return None


@_register("CK2", "a connected KE graph has every edge alpha-critical iff it is K2", _KE, _CONNECTED)
def _ck2(g: Graph, caps: SolverCaps) -> dict | None:
    all_critical = alpha_critical_edges(g, caps) == g.edges
    is_k2 = g.n == 2 and g.m == 1
    if all_critical != is_k2:
        return dict(all_critical=all_critical, is_k2=is_k2)
    return None


def _odd_path_exists(g: Graph, src: int, dst: int, banned: int) -> bool:
    # Simple path from src to dst avoiding `banned` with an odd edge count.
    visited = {banned, src}

    def dfs(u: int, parity: int) -> bool:
        for w in g.adj[u]:
            if w == dst:
                if parity == 0:
                    return True
                continue
            if w not in visited:
                visited.add(w)
                if dfs(w, 1 - parity):
                    return True
                visited.remove(w)
        return False

    return dfs(src, 0)


@_register("BHP", "two incident alpha-critical edges lie on a common odd cycle")
def _bhp(g: Graph, caps: SolverCaps) -> dict | None:
    require_vertex_cap(g, caps.bhp, "odd-cycle search")
    crit = alpha_critical_edges(g, caps)
    for i, e1 in enumerate(crit):
        for e2 in crit[i + 1 :]:
            shared = set(e1) & set(e2)
            if not shared:
                continue
            s = shared.pop()
            (x,) = set(e1) - {s}
            (y,) = set(e2) - {s}
            if not _odd_path_exists(g, x, y, s):
                return dict(edges=_edge_list([e1, e2]))
    return None


@_register("P3", "alpha-critical and mu-critical edges of a bipartite graph coincide", _BIPARTITE)
def _p3(g: Graph, caps: SolverCaps) -> dict | None:
    acrit = alpha_critical_edges(g, caps)
    mcrit = mu_critical_edges(g)
    if acrit != mcrit:
        return dict(alpha_critical=_edge_list(acrit), mu_critical=_edge_list(mcrit))
    return None


@_register(
    "C4", "a tree has a perfect matching iff its alpha-critical edges form a maximal matching",
    _TREE,
    # K1: no perfect matching, yet the empty critical set is vacuously maximal.
    ("needs a tree with at least one edge", lambda g, caps: g.m > 0),
)
def _c4(g: Graph, caps: SolverCaps) -> dict | None:
    has_pm = perfect_matching_status(g).count >= 1
    crit_maximal = is_maximal_matching(g, alpha_critical_edges(g, caps))
    if has_pm != crit_maximal:
        return dict(has_pm=has_pm, critical_edges_maximal=crit_maximal)
    return None


@_register(
    "L1", "with a perfect matching, KE iff alpha = mu; KE implies mu <= alpha",
    (
        "no perfect matching and " + _NOT_KE,
        lambda g, caps: perfect_matching_status(g).count >= 1 or is_koenig_egervary(g, caps),
    ),
)
def _l1(g: Graph, caps: SolverCaps) -> dict | None:
    alpha = stability_number(g, caps)
    mu = maximum_matching(g).mu
    ke = alpha + mu == g.n
    has_pm = perfect_matching_status(g).count >= 1
    if has_pm and (ke != (alpha == mu)):
        return dict(alpha=alpha, mu=mu, is_ke=ke)
    if ke and mu > alpha:
        return dict(alpha=alpha, mu=mu)
    return None


@_register(
    "C3", "a tree's perfect matching is all alpha-critical and 2*alpha = n",
    _TREE,
    ("tree has no perfect matching", lambda g, caps: perfect_matching_status(g).count >= 1),
)
def _c3(g: Graph, caps: SolverCaps) -> dict | None:
    crit = set(alpha_critical_edges(g, caps))
    pm = perfect_matching_status(g).witnesses[0]
    missing = [e for e in pm.edges if e not in crit]
    if missing or 2 * stability_number(g, caps) != g.n:
        return dict(non_critical_matching_edges=_edge_list(missing))
    return None


def _meets_each_in_one(g: Graph, caps: SolverCaps, edges: tuple[Edge, ...]) -> dict | None:
    report = enumerate_maximum_stable_sets(g, caps)
    for s in report.omega:
        members = set(s)
        for e in edges:
            if len(members & set(e)) != 1:
                return dict(stable_set=list(s), edge=list(e))
    return None


@_register("P5i", "every maximum stable set of a KE graph meets each mu-critical edge once", _KE)
def _p5i(g: Graph, caps: SolverCaps) -> dict | None:
    return _meets_each_in_one(g, caps, mu_critical_edges(g))


@_register("P5ii", "every maximum stable set of a KE graph meets each alpha-critical edge once", _KE)
def _p5ii(g: Graph, caps: SolverCaps) -> dict | None:
    return _meets_each_in_one(g, caps, alpha_critical_edges(g, caps))


@_register(
    "P5iii", "a maximal matching of alpha-critical edges is the unique perfect matching",
    _KE, _CONNECTED,
)
def _p5iii(g: Graph, caps: SolverCaps) -> dict | None:
    crit = alpha_critical_edges(g, caps)
    if not is_maximal_matching(g, crit):
        return None  # vacuous: hypothesis not met
    status = perfect_matching_status(g)
    if status.count != 1 or status.witnesses[0].edges != crit:
        return dict(pm_count=status.count, critical=_edge_list(crit))
    return None


@_register("NC", "N(core) equals the anticore on KE graphs, and is contained in it always")
def _nc(g: Graph, caps: SolverCaps) -> dict | None:
    report = enumerate_maximum_stable_sets(g, caps)
    nc = neighborhood(g, report.core)
    if is_koenig_egervary(g, caps):
        if nc != report.anticore:
            return dict(n_core=list(nc), anticore=list(report.anticore))
    elif not set(nc) <= set(report.anticore):
        return dict(n_core=list(nc), anticore=list(report.anticore))
    return None


@_register("P9i", "in a KE graph the core is at least as large as its neighborhood", _KE)
def _p9i(g: Graph, caps: SolverCaps) -> dict | None:
    report = enumerate_maximum_stable_sets(g, caps)
    nc = neighborhood(g, report.core)
    if len(report.core) < len(nc):
        return dict(core=list(report.core), n_core=list(nc))
    return None


@_register("P9ii", "|S - core| = |V - S - N(core)| for every maximum stable set S of a KE graph", _KE)
def _p9ii(g: Graph, caps: SolverCaps) -> dict | None:
    report = enumerate_maximum_stable_sets(g, caps)
    nc = set(neighborhood(g, report.core))
    core = set(report.core)
    for s in report.omega:
        members = set(s)
        rest = set(range(g.n)) - members - nc
        if len(members - core) != len(rest):
            return dict(stable_set=list(s))
    return None


@_register("P9iii", "the core reduction of a KE graph has a perfect matching and stays KE", _KE)
def _p9iii(g: Graph, caps: SolverCaps) -> dict | None:
    reduction, _ = g_zero(g, caps)
    if perfect_matching_status(reduction).count < 1:
        return dict(reduction_n=reduction.n, detail="no perfect matching")
    if not is_koenig_egervary(reduction, caps):
        return dict(reduction_n=reduction.n, detail="reduction not KE")
    return None


@_register("C2", "alpha + sigma = mu + xi on KE graphs", _KE)
def _c2(g: Graph, caps: SolverCaps) -> dict | None:
    r = parameter_report(g, caps)
    if r.alpha + r.sigma != r.mu + r.xi:
        return dict(alpha=r.alpha, sigma=r.sigma, mu=r.mu, xi=r.xi)
    return None


@_register("L6i", "no alpha-critical edge touches the closed neighborhood of the core")
def _l6i(g: Graph, caps: SolverCaps) -> dict | None:
    report = enumerate_maximum_stable_sets(g, caps)
    closed = set(neighborhood(g, report.core, closed=True))
    for e in alpha_critical_edges(g, caps):
        if set(e) & closed:
            return dict(edge=list(e), closed_core=sorted(closed))
    return None


@_register("L6ii", "alpha = alpha(reduction) + xi, and the reduction has an empty core")
def _l6ii(g: Graph, caps: SolverCaps) -> dict | None:
    report = enumerate_maximum_stable_sets(g, caps)
    reduction, _ = g_zero(g, caps)
    sub = enumerate_maximum_stable_sets(reduction, caps)
    if report.alpha != sub.alpha + report.xi or sub.core:
        return dict(
            alpha=report.alpha, reduction_alpha=sub.alpha, xi=report.xi,
            reduction_core=list(sub.core),
        )
    return None


@_register("L6iii", "an edge is alpha-critical in the graph iff in its core reduction")
def _l6iii(g: Graph, caps: SolverCaps) -> dict | None:
    reduction, kept = g_zero(g, caps)
    crit_g = set(alpha_critical_edges(g, caps))
    crit_sub = {
        (min(kept[u], kept[v]), max(kept[u], kept[v]))
        for u, v in alpha_critical_edges(reduction, caps)
    }
    if crit_g != crit_sub:
        return dict(
            graph_critical=_edge_list(sorted(crit_g)),
            reduction_critical=_edge_list(sorted(crit_sub)),
        )
    return None


@_register("P7", "xi+eta <= alpha, sigma+eta <= mu, xi+2eta+sigma <= n on KE graphs", _KE)
def _p7(g: Graph, caps: SolverCaps) -> dict | None:
    r = parameter_report(g, caps)
    if r.xi + r.eta > r.alpha or r.sigma + r.eta > r.mu or r.xi + 2 * r.eta + r.sigma > r.n:
        return dict(xi=r.xi, eta=r.eta, sigma=r.sigma, alpha=r.alpha, mu=r.mu, n=r.n)
    return None


_register("P7-unguarded", "negative control: the P7 inequalities without the KE gate")(_p7)
_register("P3-unguarded", "negative control: alpha-critical implies mu-critical, no gate")(_t1ii)


@_register("P10", "the three count equalities hold all together or not at all on KE graphs", _KE)
def _p10(g: Graph, caps: SolverCaps) -> dict | None:
    r = parameter_report(g, caps)
    truth = (r.eq_alpha, r.eq_mu, r.eq_n)
    if sum(truth) not in (0, 3):
        return dict(equalities=list(truth))
    return None


@_register(
    "L3", "unique-PM core reductions have alpha-critical = mu-critical edge sets",
    _KE,
    (
        "core reduction has no unique perfect matching",
        lambda g, caps: perfect_matching_status(g_zero(g, caps)[0]).count == 1,
    ),
)
def _l3(g: Graph, caps: SolverCaps) -> dict | None:
    reduction, _ = g_zero(g, caps)
    acrit = alpha_critical_edges(reduction, caps)
    mcrit = mu_critical_edges(reduction)
    if acrit != mcrit:
        return dict(alpha_critical=_edge_list(acrit), mu_critical=_edge_list(mcrit))
    return None


@_register("T2", "the five-way equivalence is internally consistent on KE graphs", _KE)
def _t2(g: Graph, caps: SolverCaps) -> dict | None:
    ev = th2_evaluate(g, caps)
    if not ev.consistent:
        return dict(flags=list(ev.flags))
    return None


@_register("C6", "bipartite five-way equivalence for a unique perfect matching", _BIPARTITE, _CONNECTED)
def _c6(g: Graph, caps: SolverCaps) -> dict | None:
    r = parameter_report(g, caps)
    crit = alpha_critical_edges(g, caps)
    flags = (
        perfect_matching_status(g).count == 1,
        is_maximal_matching(g, crit),
        r.eta == r.alpha,
        r.eta == r.mu,
        2 * r.eta == r.n,
    )
    if len(set(flags)) != 1:
        return dict(flags=list(flags))
    return None


@_register("P4", "an acyclic maximum-stable-set cut forces the three count equalities", _KE)
def _p4(g: Graph, caps: SolverCaps) -> dict | None:
    holds, witness = forest_condition(g, caps)
    if not holds:
        return None  # vacuous
    r = parameter_report(g, caps)
    if not (r.eq_alpha and r.eq_mu and r.eq_n):
        return dict(stable_set=list(witness or ()))
    return None


@_register("C1", "the three count equalities hold on every tree", _TREE)
def _c1(g: Graph, caps: SolverCaps) -> dict | None:
    r = parameter_report(g, caps)
    if not (r.eq_alpha and r.eq_mu and r.eq_n):
        return dict(xi=r.xi, eta=r.eta, sigma=r.sigma, alpha=r.alpha, mu=r.mu, n=r.n)
    return None


@_register(
    "C5", "tree vertices in some-but-not-all maximum stable sets are exactly the alpha-critical endpoints",
    _TREE,
)
def _c5(g: Graph, caps: SolverCaps) -> dict | None:
    report = enumerate_maximum_stable_sets(g, caps)
    sometimes = set(range(g.n)) - set(report.anticore) - set(report.core)
    endpoints = {v for e in alpha_critical_edges(g, caps) for v in e}
    if sometimes != endpoints:
        return dict(sometimes=sorted(sometimes), critical_endpoints=sorted(endpoints))
    return None


@_register("H1", "no alpha-critical edge iff every outside vertex has 2 neighbors in each maximum stable set")
def _h1(g: Graph, caps: SolverCaps) -> dict | None:
    report = enumerate_maximum_stable_sets(g, caps)
    eta_zero = not alpha_critical_edges(g, caps)
    criterion = True
    for s in report.omega:
        members = set(s)
        for x in range(g.n):
            if x in members:
                continue
            if len(members & set(g.adj[x])) < 2:
                criterion = False
                break
        if not criterion:
            break
    if eta_zero != criterion:
        return dict(eta_zero=eta_zero, criterion=criterion)
    return None
