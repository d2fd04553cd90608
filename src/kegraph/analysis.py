"""König-Egerváry recognition, decomposition, reduction, and consolidated reports.

The KE property here is always alpha(g) + mu(g) = n(g) with alpha computed
exactly; `g_zero` is the reduction that deletes the closed neighborhood of the
core.
"""

from __future__ import annotations

from dataclasses import dataclass

from .criticality import alpha_critical_edges
from .errors import InternalInvariantError, PreconditionError
from .graph import (
    Edge,
    Graph,
    Matching,
    delete_vertices,
    is_bipartite,
    is_maximal_matching,
    is_tree,
    neighborhood,
    spans_forest,
)
from .solvers import (
    DEFAULT_CAPS,
    SolverCaps,
    enumerate_maximum_stable_sets,
    forced_matching_edges,
    lex_min_maximum_stable_set,
    maximum_matching,
    memo,
    perfect_matching_status,
    stability_number,
)

@dataclass(frozen=True)
class KeDecomposition:
    """Partition into a maximum stable set and its matched complement."""

    s: tuple[int, ...]
    h_vertices: tuple[int, ...]
    cut_matching: Matching

    def to_dict(self) -> dict:
        return {
            "s": list(self.s),
            "h_vertices": list(self.h_vertices),
            "cut_matching": [list(e) for e in self.cut_matching.edges],
        }


@dataclass(frozen=True)
class ParameterReport:
    n: int
    m: int
    alpha: int
    mu: int
    xi: int
    sigma: int
    eta: int
    is_ke: bool
    is_bipartite: bool
    is_tree: bool
    core: tuple[int, ...]
    anticore: tuple[int, ...]
    alpha_critical_edges: tuple[Edge, ...]
    mu_critical_edges: tuple[Edge, ...]
    g0_size: int
    g0_pm_status: int
    eq_alpha: bool
    eq_mu: bool
    eq_n: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "alpha": self.alpha,
            "mu": self.mu,
            "xi": self.xi,
            "sigma": self.sigma,
            "eta": self.eta,
            "is_ke": self.is_ke,
            "is_bipartite": self.is_bipartite,
            "is_tree": self.is_tree,
            "core": list(self.core),
            "anticore": list(self.anticore),
            "alpha_critical_edges": [list(e) for e in self.alpha_critical_edges],
            "mu_critical_edges": [list(e) for e in self.mu_critical_edges],
            "g0_size": self.g0_size,
            "g0_pm_status": self.g0_pm_status,
            "equalities": {
                "xi_plus_eta_eq_alpha": self.eq_alpha,
                "sigma_plus_eta_eq_mu": self.eq_mu,
                "xi_plus_2eta_plus_sigma_eq_n": self.eq_n,
            },
        }


def is_koenig_egervary(g: Graph, caps: SolverCaps = DEFAULT_CAPS) -> bool:
    """True iff alpha(g) + mu(g) = n(g)."""
    return stability_number(g, caps) + maximum_matching(g).size == g.n


def ke_decompose(g: Graph, caps: SolverCaps = DEFAULT_CAPS) -> KeDecomposition:
    """Split a KE graph into (S, H) with a maximum matching inside the cut.

    S is the lexicographically smallest maximum stable set, for reproducible
    output. That every maximum matching lies inside the cut is a theorem for
    KE graphs; it is asserted here, not assumed.
    """
    if not is_koenig_egervary(g, caps):
        raise PreconditionError("not a König-Egerváry graph")
    s = lex_min_maximum_stable_set(g, caps)
    s_set = set(s)
    h = tuple(v for v in range(g.n) if v not in s_set)
    witness = maximum_matching(g)
    for u, v in witness.edges:
        if (u in s_set) == (v in s_set):
            raise InternalInvariantError(f"maximum matching edge ({u}, {v}) is not a cut edge")
    covered_h = {v for e in witness.edges for v in e if v not in s_set}
    if witness.size != len(h) or covered_h != set(h):
        raise InternalInvariantError("cut matching does not saturate the non-stable side")
    return KeDecomposition(s=s, h_vertices=h, cut_matching=witness)


@memo
def g_zero(g: Graph, caps: SolverCaps = DEFAULT_CAPS) -> tuple[Graph, tuple[int, ...]]:
    """The graph minus the closed neighborhood of its core, densely relabeled.

    Returns (reduction, kept) where kept[i] is the original id of new vertex i.
    """
    report = enumerate_maximum_stable_sets(g, caps)
    closed = neighborhood(g, report.core, closed=True)
    return delete_vertices(g, closed)


def _counts(g: Graph, caps: SolverCaps) -> dict[str, int]:
    """xi, eta, sigma, alpha, mu and n of g, in that order: the six numbers
    that the count statements relate, and the witness of a count check."""
    stable = enumerate_maximum_stable_sets(g, caps)
    eta = len(alpha_critical_edges(g, caps))
    return dict(
        xi=stable.xi, eta=eta, sigma=stable.sigma, alpha=stable.alpha,
        mu=maximum_matching(g).size, n=g.n,
    )


def _count_equalities(counts: dict[str, int]) -> tuple[bool, bool, bool]:
    """xi + eta = alpha, sigma + eta = mu and xi + 2*eta + sigma = n."""
    xi, eta, sigma, alpha, mu, n = counts.values()
    return xi + eta == alpha, sigma + eta == mu, xi + 2 * eta + sigma == n


def parameter_report(g: Graph, caps: SolverCaps = DEFAULT_CAPS) -> ParameterReport:
    """Every structural parameter of one graph, with the KE identities verified.

    For KE inputs the report refuses to return if alpha + sigma != mu + xi or
    if any of the three count sums exceeds its bound; those are theorems, so a
    violation is a solver bug.
    """
    counts = _counts(g, caps)
    xi, eta, sigma, alpha, mu, n = counts.values()
    ke = alpha + mu == n
    if ke:
        if alpha + sigma != mu + xi:
            raise InternalInvariantError(f"alpha+sigma != mu+xi on a KE graph: {g}")
        if xi + eta > alpha or sigma + eta > mu or xi + 2 * eta + sigma > n:
            raise InternalInvariantError(f"count-sum bound violated on a KE graph: {g}")
    stable = enumerate_maximum_stable_sets(g, caps)
    reduction, _ = g_zero(g, caps)
    eq_alpha, eq_mu, eq_n = _count_equalities(counts)
    return ParameterReport(
        **counts,
        m=g.m,
        is_ke=ke,
        is_bipartite=is_bipartite(g),
        is_tree=is_tree(g),
        core=stable.core,
        anticore=stable.anticore,
        alpha_critical_edges=alpha_critical_edges(g, caps),
        mu_critical_edges=forced_matching_edges(g),
        g0_size=reduction.n,
        g0_pm_status=perfect_matching_status(reduction),
        eq_alpha=eq_alpha,
        eq_mu=eq_mu,
        eq_n=eq_n,
    )


def th2_evaluate(
    g: Graph, caps: SolverCaps = DEFAULT_CAPS
) -> tuple[bool, bool, bool, bool, bool]:
    """The five clauses of the equivalence on a KE graph, each evaluated on its own.

    In order: G0 has a unique perfect matching; the alpha-critical edges of G0
    form a maximal matching; xi + eta = alpha; sigma + eta = mu; and
    xi + 2*eta + sigma = n. The theorem says all five agree.
    """
    if not is_koenig_egervary(g, caps):
        raise PreconditionError("not a König-Egerváry graph")
    equalities = _count_equalities(_counts(g, caps))
    reduction, _ = g_zero(g, caps)
    critical = alpha_critical_edges(reduction, caps)
    return (perfect_matching_status(reduction) == 1, is_maximal_matching(reduction, critical), *equalities)


def forest_condition(
    g: Graph, caps: SolverCaps = DEFAULT_CAPS
) -> tuple[bool, tuple[int, ...] | None]:
    """Whether some maximum stable set has an acyclic cut; first witness in lex order."""
    if not is_koenig_egervary(g, caps):
        raise PreconditionError("not a König-Egerváry graph")
    stable = enumerate_maximum_stable_sets(g, caps)
    for s in stable.omega:
        members = set(s)
        cut = tuple(e for e in g.edges if (e[0] in members) != (e[1] in members))
        if spans_forest(g, cut):
            return True, s
    return False, None
