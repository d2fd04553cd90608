"""One executable check per theorem statement.

Each check maps a graph to Pass / Fail(witness) / NotApplicable(reason).
Preconditions the statement needs (KE, bipartite, tree, connectivity) gate the
check as NotApplicable rather than Fail; capacity limits surface the same way.
A Fail witness always embeds the edge-list serialization of the graph so it
can be replayed on its own.

The two *-unguarded ids are deliberate negative controls: the same statements
with their gates removed, expected to Fail on known counterexamples.
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


CheckFn = Callable[[Graph, SolverCaps], CheckVerdict]

_REGISTRY: dict[str, CheckFn] = {}
CHECK_STATEMENTS: dict[str, str] = {}


def _register(check_id: str, statement: str):
    def wrap(fn: CheckFn) -> CheckFn:
        _REGISTRY[check_id] = fn
        CHECK_STATEMENTS[check_id] = statement
        return fn

    return wrap


def check_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def check(g: Graph, check_id: str, caps: SolverCaps = DEFAULT_CAPS) -> CheckVerdict:
    """Run one catalog check; capacity overruns become NotApplicable."""
    fn = _REGISTRY.get(check_id)
    if fn is None:
        raise InputError(f"unknown check id {check_id!r}")
    try:
        return fn(g, caps)
    except CapacityError as exc:
        return CheckVerdict(check_id, NOT_APPLICABLE, reason=f"capacity: {exc}")


def _passed(cid: str) -> CheckVerdict:
    return CheckVerdict(cid, PASS)


def _na(cid: str, reason: str) -> CheckVerdict:
    return CheckVerdict(cid, NOT_APPLICABLE, reason=reason)


def _failed(cid: str, g: Graph, **detail) -> CheckVerdict:
    witness = {"graph": format_edge_list(g)}
    witness.update(detail)
    return CheckVerdict(cid, FAIL, witness=witness)


def _edge_list(edges) -> list[list[int]]:
    return [list(e) for e in edges]


_NOT_KE = "not a König-Egerváry graph"


@_register("T1i", "deleting an alpha-critical edge of a KE graph leaves a KE graph")
def _t1i(g: Graph, caps: SolverCaps) -> CheckVerdict:
    if not is_koenig_egervary(g, caps):
        return _na("T1i", _NOT_KE)
    for e in alpha_critical_edges(g, caps):
        if not is_koenig_egervary(delete_edge(g, e), caps):
            return _failed("T1i", g, edge=list(e))
    return _passed("T1i")


@_register("T1ii", "alpha-critical edges of a KE graph are mu-critical")
def _t1ii(g: Graph, caps: SolverCaps) -> CheckVerdict:
    if not is_koenig_egervary(g, caps):
        return _na("T1ii", _NOT_KE)
    mu_crit = set(mu_critical_edges(g))
    for e in alpha_critical_edges(g, caps):
        if e not in mu_crit:
            return _failed("T1ii", g, edge=list(e))
    return _passed("T1ii")


@_register("T1iii", "alpha-critical edges of a KE graph are pairwise non-incident")
def _t1iii(g: Graph, caps: SolverCaps) -> CheckVerdict:
    if not is_koenig_egervary(g, caps):
        return _na("T1iii", _NOT_KE)
    crit = alpha_critical_edges(g, caps)
    seen: dict[int, Edge] = {}
    for e in crit:
        for v in e:
            if v in seen:
                return _failed("T1iii", g, edges=_edge_list([seen[v], e]))
            seen[v] = e
    return _passed("T1iii")


@_register("CK2", "a connected KE graph has every edge alpha-critical iff it is K2")
def _ck2(g: Graph, caps: SolverCaps) -> CheckVerdict:
    if not is_koenig_egervary(g, caps):
        return _na("CK2", _NOT_KE)
    if g.m == 0 or not is_connected(g):
        return _na("CK2", "needs a connected graph with at least one edge")
    all_critical = alpha_critical_edges(g, caps) == g.edges
    is_k2 = g.n == 2 and g.m == 1
    if all_critical != is_k2:
        return _failed("CK2", g, all_critical=all_critical, is_k2=is_k2)
    return _passed("CK2")


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
def _bhp(g: Graph, caps: SolverCaps) -> CheckVerdict:
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
                return _failed("BHP", g, edges=_edge_list([e1, e2]))
    return _passed("BHP")


@_register("P3", "alpha-critical and mu-critical edges of a bipartite graph coincide")
def _p3(g: Graph, caps: SolverCaps) -> CheckVerdict:
    if not is_bipartite(g):
        return _na("P3", "not bipartite")
    acrit = alpha_critical_edges(g, caps)
    mcrit = mu_critical_edges(g)
    if acrit != mcrit:
        return _failed("P3", g, alpha_critical=_edge_list(acrit), mu_critical=_edge_list(mcrit))
    return _passed("P3")


@_register("C4", "a tree has a perfect matching iff its alpha-critical edges form a maximal matching")
def _c4(g: Graph, caps: SolverCaps) -> CheckVerdict:
    if not is_tree(g):
        return _na("C4", "not a tree")
    if g.m == 0:
        # K1: no perfect matching, yet the empty critical set is vacuously maximal.
        return _na("C4", "needs a tree with at least one edge")
    has_pm = perfect_matching_status(g).count >= 1
    crit_maximal = is_maximal_matching(g, alpha_critical_edges(g, caps))
    if has_pm != crit_maximal:
        return _failed("C4", g, has_pm=has_pm, critical_edges_maximal=crit_maximal)
    return _passed("C4")


@_register("L1", "with a perfect matching, KE iff alpha = mu; KE implies mu <= alpha")
def _l1(g: Graph, caps: SolverCaps) -> CheckVerdict:
    alpha = stability_number(g, caps)
    mu = maximum_matching(g).mu
    ke = alpha + mu == g.n
    has_pm = perfect_matching_status(g).count >= 1
    if not has_pm and not ke:
        return _na("L1", "no perfect matching and " + _NOT_KE)
    if has_pm and (ke != (alpha == mu)):
        return _failed("L1", g, alpha=alpha, mu=mu, is_ke=ke)
    if ke and mu > alpha:
        return _failed("L1", g, alpha=alpha, mu=mu)
    return _passed("L1")


@_register("C3", "a tree's perfect matching is all alpha-critical and 2*alpha = n")
def _c3(g: Graph, caps: SolverCaps) -> CheckVerdict:
    if not is_tree(g):
        return _na("C3", "not a tree")
    status = perfect_matching_status(g)
    if status.count == 0:
        return _na("C3", "tree has no perfect matching")
    crit = set(alpha_critical_edges(g, caps))
    pm = status.witnesses[0]
    missing = [e for e in pm.edges if e not in crit]
    if missing or 2 * stability_number(g, caps) != g.n:
        return _failed("C3", g, non_critical_matching_edges=_edge_list(missing))
    return _passed("C3")


def _meets_each_in_one(g: Graph, caps: SolverCaps, cid: str, edges: tuple[Edge, ...]) -> CheckVerdict:
    report = enumerate_maximum_stable_sets(g, caps)
    for s in report.omega:
        members = set(s)
        for e in edges:
            if len(members & set(e)) != 1:
                return _failed(cid, g, stable_set=list(s), edge=list(e))
    return _passed(cid)


@_register("P5i", "every maximum stable set of a KE graph meets each mu-critical edge once")
def _p5i(g: Graph, caps: SolverCaps) -> CheckVerdict:
    if not is_koenig_egervary(g, caps):
        return _na("P5i", _NOT_KE)
    return _meets_each_in_one(g, caps, "P5i", mu_critical_edges(g))


@_register("P5ii", "every maximum stable set of a KE graph meets each alpha-critical edge once")
def _p5ii(g: Graph, caps: SolverCaps) -> CheckVerdict:
    if not is_koenig_egervary(g, caps):
        return _na("P5ii", _NOT_KE)
    return _meets_each_in_one(g, caps, "P5ii", alpha_critical_edges(g, caps))


@_register("P5iii", "a maximal matching of alpha-critical edges is the unique perfect matching")
def _p5iii(g: Graph, caps: SolverCaps) -> CheckVerdict:
    if not is_koenig_egervary(g, caps):
        return _na("P5iii", _NOT_KE)
    if g.m == 0 or not is_connected(g):
        return _na("P5iii", "needs a connected graph with at least one edge")
    crit = alpha_critical_edges(g, caps)
    if not is_maximal_matching(g, crit):
        return _passed("P5iii")  # vacuous: hypothesis not met
    status = perfect_matching_status(g)
    if status.count != 1 or status.witnesses[0].edges != crit:
        return _failed("P5iii", g, pm_count=status.count, critical=_edge_list(crit))
    return _passed("P5iii")


@_register("NC", "N(core) equals the anticore on KE graphs, and is contained in it always")
def _nc(g: Graph, caps: SolverCaps) -> CheckVerdict:
    report = enumerate_maximum_stable_sets(g, caps)
    nc = neighborhood(g, report.core)
    if is_koenig_egervary(g, caps):
        if nc != report.anticore:
            return _failed("NC", g, n_core=list(nc), anticore=list(report.anticore))
    elif not set(nc) <= set(report.anticore):
        return _failed("NC", g, n_core=list(nc), anticore=list(report.anticore))
    return _passed("NC")


@_register("P9i", "in a KE graph the core is at least as large as its neighborhood")
def _p9i(g: Graph, caps: SolverCaps) -> CheckVerdict:
    if not is_koenig_egervary(g, caps):
        return _na("P9i", _NOT_KE)
    report = enumerate_maximum_stable_sets(g, caps)
    nc = neighborhood(g, report.core)
    if len(report.core) < len(nc):
        return _failed("P9i", g, core=list(report.core), n_core=list(nc))
    return _passed("P9i")


@_register("P9ii", "|S - core| = |V - S - N(core)| for every maximum stable set S of a KE graph")
def _p9ii(g: Graph, caps: SolverCaps) -> CheckVerdict:
    if not is_koenig_egervary(g, caps):
        return _na("P9ii", _NOT_KE)
    report = enumerate_maximum_stable_sets(g, caps)
    nc = set(neighborhood(g, report.core))
    core = set(report.core)
    for s in report.omega:
        members = set(s)
        rest = set(range(g.n)) - members - nc
        if len(members - core) != len(rest):
            return _failed("P9ii", g, stable_set=list(s))
    return _passed("P9ii")


@_register("P9iii", "the core reduction of a KE graph has a perfect matching and stays KE")
def _p9iii(g: Graph, caps: SolverCaps) -> CheckVerdict:
    if not is_koenig_egervary(g, caps):
        return _na("P9iii", _NOT_KE)
    reduction, _ = g_zero(g, caps)
    if perfect_matching_status(reduction).count < 1:
        return _failed("P9iii", g, reduction_n=reduction.n, detail="no perfect matching")
    if not is_koenig_egervary(reduction, caps):
        return _failed("P9iii", g, reduction_n=reduction.n, detail="reduction not KE")
    return _passed("P9iii")


@_register("C2", "alpha + sigma = mu + xi on KE graphs")
def _c2(g: Graph, caps: SolverCaps) -> CheckVerdict:
    if not is_koenig_egervary(g, caps):
        return _na("C2", _NOT_KE)
    r = parameter_report(g, caps)
    if r.alpha + r.sigma != r.mu + r.xi:
        return _failed("C2", g, alpha=r.alpha, sigma=r.sigma, mu=r.mu, xi=r.xi)
    return _passed("C2")


@_register("L6i", "no alpha-critical edge touches the closed neighborhood of the core")
def _l6i(g: Graph, caps: SolverCaps) -> CheckVerdict:
    report = enumerate_maximum_stable_sets(g, caps)
    closed = set(neighborhood(g, report.core, closed=True))
    for e in alpha_critical_edges(g, caps):
        if set(e) & closed:
            return _failed("L6i", g, edge=list(e), closed_core=sorted(closed))
    return _passed("L6i")


@_register("L6ii", "alpha = alpha(reduction) + xi, and the reduction has an empty core")
def _l6ii(g: Graph, caps: SolverCaps) -> CheckVerdict:
    report = enumerate_maximum_stable_sets(g, caps)
    reduction, _ = g_zero(g, caps)
    sub = enumerate_maximum_stable_sets(reduction, caps)
    if report.alpha != sub.alpha + report.xi or sub.core:
        return _failed(
            "L6ii", g, alpha=report.alpha, reduction_alpha=sub.alpha, xi=report.xi,
            reduction_core=list(sub.core),
        )
    return _passed("L6ii")


@_register("L6iii", "an edge is alpha-critical in the graph iff in its core reduction")
def _l6iii(g: Graph, caps: SolverCaps) -> CheckVerdict:
    reduction, kept = g_zero(g, caps)
    crit_g = set(alpha_critical_edges(g, caps))
    crit_sub = {
        (min(kept[u], kept[v]), max(kept[u], kept[v]))
        for u, v in alpha_critical_edges(reduction, caps)
    }
    if crit_g != crit_sub:
        return _failed(
            "L6iii", g,
            graph_critical=_edge_list(sorted(crit_g)),
            reduction_critical=_edge_list(sorted(crit_sub)),
        )
    return _passed("L6iii")


def _p7_inequalities(g: Graph, caps: SolverCaps, cid: str) -> CheckVerdict:
    r = parameter_report(g, caps)
    if r.xi + r.eta > r.alpha or r.sigma + r.eta > r.mu or r.xi + 2 * r.eta + r.sigma > r.n:
        return _failed(
            cid, g, xi=r.xi, eta=r.eta, sigma=r.sigma, alpha=r.alpha, mu=r.mu, n=r.n
        )
    return _passed(cid)


@_register("P7", "xi+eta <= alpha, sigma+eta <= mu, xi+2eta+sigma <= n on KE graphs")
def _p7(g: Graph, caps: SolverCaps) -> CheckVerdict:
    if not is_koenig_egervary(g, caps):
        return _na("P7", _NOT_KE)
    return _p7_inequalities(g, caps, "P7")


@_register("P7-unguarded", "negative control: the P7 inequalities without the KE gate")
def _p7_unguarded(g: Graph, caps: SolverCaps) -> CheckVerdict:
    return _p7_inequalities(g, caps, "P7-unguarded")


@_register("P3-unguarded", "negative control: alpha-critical implies mu-critical, no gate")
def _p3_unguarded(g: Graph, caps: SolverCaps) -> CheckVerdict:
    mu_crit = set(mu_critical_edges(g))
    for e in alpha_critical_edges(g, caps):
        if e not in mu_crit:
            return _failed("P3-unguarded", g, edge=list(e))
    return _passed("P3-unguarded")


@_register("P10", "the three count equalities hold all together or not at all on KE graphs")
def _p10(g: Graph, caps: SolverCaps) -> CheckVerdict:
    if not is_koenig_egervary(g, caps):
        return _na("P10", _NOT_KE)
    r = parameter_report(g, caps)
    truth = (r.eq_alpha, r.eq_mu, r.eq_n)
    if sum(truth) not in (0, 3):
        return _failed("P10", g, equalities=list(truth))
    return _passed("P10")


@_register("L3", "unique-PM core reductions have alpha-critical = mu-critical edge sets")
def _l3(g: Graph, caps: SolverCaps) -> CheckVerdict:
    if not is_koenig_egervary(g, caps):
        return _na("L3", _NOT_KE)
    reduction, _ = g_zero(g, caps)
    if perfect_matching_status(reduction).count != 1:
        return _na("L3", "core reduction has no unique perfect matching")
    acrit = alpha_critical_edges(reduction, caps)
    mcrit = mu_critical_edges(reduction)
    if acrit != mcrit:
        return _failed(
            "L3", g, alpha_critical=_edge_list(acrit), mu_critical=_edge_list(mcrit)
        )
    return _passed("L3")


@_register("T2", "the five-way equivalence is internally consistent on KE graphs")
def _t2(g: Graph, caps: SolverCaps) -> CheckVerdict:
    if not is_koenig_egervary(g, caps):
        return _na("T2", _NOT_KE)
    ev = th2_evaluate(g, caps)
    if not ev.consistent:
        return _failed("T2", g, flags=list(ev.flags))
    return _passed("T2")


@_register("C6", "bipartite five-way equivalence for a unique perfect matching")
def _c6(g: Graph, caps: SolverCaps) -> CheckVerdict:
    if not is_bipartite(g):
        return _na("C6", "not bipartite")
    if g.m == 0 or not is_connected(g):
        return _na("C6", "needs a connected graph with at least one edge")
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
        return _failed("C6", g, flags=list(flags))
    return _passed("C6")


@_register("P4", "an acyclic maximum-stable-set cut forces the three count equalities")
def _p4(g: Graph, caps: SolverCaps) -> CheckVerdict:
    if not is_koenig_egervary(g, caps):
        return _na("P4", _NOT_KE)
    holds, witness = forest_condition(g, caps)
    if not holds:
        return _passed("P4")  # vacuous
    r = parameter_report(g, caps)
    if not (r.eq_alpha and r.eq_mu and r.eq_n):
        return _failed("P4", g, stable_set=list(witness or ()))
    return _passed("P4")


@_register("C1", "the three count equalities hold on every tree")
def _c1(g: Graph, caps: SolverCaps) -> CheckVerdict:
    if not is_tree(g):
        return _na("C1", "not a tree")
    r = parameter_report(g, caps)
    if not (r.eq_alpha and r.eq_mu and r.eq_n):
        return _failed(
            "C1", g, xi=r.xi, eta=r.eta, sigma=r.sigma, alpha=r.alpha, mu=r.mu, n=r.n
        )
    return _passed("C1")


@_register("C5", "tree vertices in some-but-not-all maximum stable sets are exactly the alpha-critical endpoints")
def _c5(g: Graph, caps: SolverCaps) -> CheckVerdict:
    if not is_tree(g):
        return _na("C5", "not a tree")
    report = enumerate_maximum_stable_sets(g, caps)
    in_some = set()
    for s in report.omega:
        in_some.update(s)
    sometimes = in_some - set(report.core)
    endpoints = {v for e in alpha_critical_edges(g, caps) for v in e}
    if sometimes != endpoints:
        return _failed(
            "C5", g, sometimes=sorted(sometimes), critical_endpoints=sorted(endpoints)
        )
    return _passed("C5")


@_register("H1", "no alpha-critical edge iff every outside vertex has 2 neighbors in each maximum stable set")
def _h1(g: Graph, caps: SolverCaps) -> CheckVerdict:
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
        return _failed("H1", g, eta_zero=eta_zero, criterion=criterion)
    return _passed("H1")
