"""Bound catalogue with hypothesis checks and tightness reports.

Every bound takes exact parameter values on both sides, so a report
states the inequality as evaluated, never an estimate.  Rational sides
stay exact through ``fractions.Fraction``.  Functions raise
BoundHypothesisError when the stated hypotheses fail; ``audit`` runs all
bounds that need nothing beyond a graph and a restriction set, skipping
inapplicable ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .decomposition import compose_boundary_pd
from .errors import BoundHypothesisError, CertificationError, check_guard
from .graph import Graph, VertexSet
from .propagation import certify, final_mask, is_power_dominating_set
from .solver import DEFAULT_CG_GUARD, _cover_exact, restricted_pd_number, restricted_zf_number

__all__ = [
    "BoundReport",
    "domination_half",
    "pd_third",
    "restricted_pd_third",
    "extension_half",
    "component_sum_pd",
    "third_boundary",
    "partition_pd",
    "component_sum_zf",
    "partition_zf",
    "degree_sum",
    "delta_ratio",
    "neighborhood_blowup",
    "audit",
    "AUDIT_BOUNDS",
]


@dataclass(frozen=True, eq=False)
class BoundReport:
    """One evaluated inequality: holds means lhs <= rhs, tight means equal."""

    name: str
    lhs: int | Fraction
    rhs: int | Fraction
    holds: bool
    tight: bool
    context: dict = field(default_factory=dict)


def _report(name: str, lhs, rhs, **context) -> BoundReport:
    return BoundReport(
        name=name, lhs=lhs, rhs=rhs, holds=lhs <= rhs, tight=lhs == rhs, context=context
    )


def _min_dominating(graph: Graph, targets: VertexSet) -> VertexSet:
    """A minimum vertex set whose closed neighborhoods meet every target."""
    rows = [graph.adj[w] | 1 << w for w in targets]
    cover, _ = _cover_exact(graph.n, tuple(a.bit_count() for a in graph.adj), rows, 0)
    return VertexSet.from_mask(graph.n, cover)


def domination_half(graph: Graph) -> BoundReport:
    """gamma(G) <= n / 2 for a graph without isolated vertices.

    A dominating set meets every closed neighborhood, so gamma(G) is the
    exact set cover of those rows that the solvers' master computes.
    """
    if graph.n == 0 or any(graph.degree(v) == 0 for v in graph.vertices()):
        raise BoundHypothesisError("the graph must have no isolated vertices")
    check_guard("set cover", DEFAULT_CG_GUARD, graph.n)
    lhs = len(_min_dominating(graph, graph.full_set()))
    return _report("domination_half", lhs, Fraction(graph.n, 2))


def pd_third(graph: Graph) -> BoundReport:
    """gamma_P(G) <= floor(n / 3) for a connected graph on n >= 3 vertices."""
    return replace(restricted_pd_third(graph), name="pd_third")


def restricted_pd_third(graph: Graph, x: VertexSet | None = None) -> BoundReport:
    """gamma_P(G; X) <= floor((n + 2|X|) / 3), G connected on n >= 3 vertices.

    Attaching two leaves to every vertex of X preserves the restricted
    minimum while growing the graph to n + 2|X| vertices, so the
    unrestricted third bound transfers.  Tight when the graph itself is a
    two-leaf attachment over the complement of X.
    """
    if graph.n < 3 or not graph.is_connected():
        raise BoundHypothesisError("the graph must be connected with at least 3 vertices")
    x = graph._coerce(x)
    lhs = restricted_pd_number(graph, x).value
    return _report("restricted_pd_third", lhs, (graph.n + 2 * len(x)) // 3)


def _check_inner_pds(graph: Graph, inner, s, mode: str):
    """Validate an induced-subgraph bound instance and solve nothing.

    Returns the coerced inner and solved sets with the subgraph induced
    by the outside and its IndexMap.
    """
    inner = graph._coerce(inner)
    s = graph._coerce(s)
    outside = inner.complement()
    if not inner or not outside:
        raise BoundHypothesisError("the inner vertex set must be nonempty and proper")
    if not s.issubset(inner):
        raise BoundHypothesisError("the solved set must lie inside the inner vertex set")
    sub, imap = graph.induced_subgraph(inner)
    if final_mask(sub.adj, imap.restrict(s).mask, mode) != (1 << sub.n) - 1:
        raise BoundHypothesisError("the given set does not solve the inner subgraph")
    return (inner, s, *graph.induced_subgraph(outside))


def _component_sum(graph: Graph, mode: str, given, out_sub, out_map, anchors, **context):
    """Report |given| plus the outside's minimum through the anchors, whose
    union with ``given`` is certified, against the restricted value of G."""
    solve = restricted_pd_number if mode == "pd" else restricted_zf_number
    res = solve(out_sub, out_map.restrict(VertexSet(graph.n, (v for a in anchors for v in a))))
    total = len(given) + res.value
    witness = certify(graph, given | out_map.lift(res.witness), given, mode, total)
    lhs = solve(graph, given).value
    return _report(
        f"component_sum_{mode}", lhs, total, witness=witness, anchors=tuple(anchors), **context
    )


def extension_half(graph: Graph, inner, s) -> BoundReport:
    """gamma_P(G; S) <= |S| + outside / 2 + isolated / 2.

    S power dominates the subgraph induced by ``inner``; ``outside`` and
    ``isolated`` count the vertices outside and the isolated ones among
    them.  Half of the non-isolated outside dominates it, each isolated
    vertex pays for itself, then S finishes the rest.
    """
    _, s, out_sub, _ = _check_inner_pds(graph, inner, s, "pd")
    isolated = sum(1 for v in out_sub.vertices() if out_sub.degree(v) == 0)
    lhs = restricted_pd_number(graph, s).value
    rhs = len(s) + Fraction(out_sub.n, 2) + Fraction(isolated, 2)
    return _report("extension_half", lhs, rhs, outside=out_sub.n, isolated=isolated)


def component_sum_pd(
    graph: Graph,
    inner,
    s,
    *,
    dominating_variant: bool = False,
) -> BoundReport:
    """gamma_P(G; S) <= |S| + sum over outside components of gamma_P(H; N_H).

    S power dominates the subgraph induced by ``inner``.  By default N_H
    consists of the component vertices with a closed neighbor among the
    inner vertices S leaves undominated; the components then hand the
    whole border to S.  The dominating variant instead picks a minimum
    set of component vertices dominating the component's border vertices
    not already dominated by S; then S goes first, so the sum can only
    use different anchors.
    """
    inner, s, out_sub, out_map = _check_inner_pds(graph, inner, s, "pd")
    if dominating_variant:
        uncovered = graph.closed_neighborhood(inner) - graph.closed_neighborhood(s)
    else:
        uncovered = graph.closed_neighborhood(inner - graph.closed_neighborhood(s))
    anchors = []
    for comp in out_sub.components():
        comp_big = out_map.lift(comp)
        if dominating_variant:
            part, pmap = graph.induced_subgraph(comp_big)
            anchors.append(pmap.lift(_min_dominating(part, pmap.restrict(comp_big & uncovered))))
        else:
            anchors.append(comp_big & uncovered)
    return _component_sum(
        graph, "pd", s, out_sub, out_map, anchors, dominating_variant=dominating_variant
    )


def third_boundary(graph: Graph, inner, s) -> BoundReport:
    """gamma_P(G; S) <= |S| + outside / 3 + |outside border of the undominated|.

    S power dominates the subgraph induced by ``inner`` and every outside
    component has at least 3 vertices.  Each component pays a third of
    its size plus one per border vertex it must hand to the inner part.
    """
    inner, s, out_sub, _ = _check_inner_pds(graph, inner, s, "pd")
    if any(len(c) < 3 for c in out_sub.components()):
        raise BoundHypothesisError("every outside component needs at least 3 vertices")
    border = graph.closed_neighborhood(inner - graph.closed_neighborhood(s)) - inner
    lhs = restricted_pd_number(graph, s).value
    rhs = len(s) + Fraction(out_sub.n, 3) + len(border)
    return _report("third_boundary", lhs, rhs, outside=out_sub.n, border=len(border))


def partition_pd(graph: Graph, v1, w1, w2) -> BoundReport:
    """gamma_P(G) <= gamma_P(G; W1 | W2) <= gamma_P(G1; W1) + gamma_P(G2; W2).

    V1 and its complement split the graph; W1 | W2 must dominate every
    vertex with a closed neighbor across the split.  The report compares
    the middle and right terms; the unrestricted value rides in the
    context.
    """
    bound = compose_boundary_pd(graph, v1, w1, w2)
    w = graph._coerce(w1) | graph._coerce(w2)
    lhs = restricted_pd_number(graph, w).value
    free = restricted_pd_number(graph, None).value
    if free > lhs:
        raise CertificationError(f"unrestricted value {free} exceeds restricted value {lhs}")
    return _report(
        "partition_pd", lhs, bound.value, witness=bound.witness, unrestricted=free
    )


def component_sum_zf(graph: Graph, inner, b) -> BoundReport:
    """Z(G; B) <= |B| + sum over outside components of Z(H; N_H).

    B forces the subgraph induced by ``inner``; N_H consists of the
    component vertices with a closed neighbor among the inner vertices.
    Coloring every N_H lets B force the inner part without interference,
    after which each component is forced on its own.
    """
    inner, b, out_sub, out_map = _check_inner_pds(graph, inner, b, "zf")
    reach = graph.closed_neighborhood(inner)
    anchors = [out_map.lift(comp) & reach for comp in out_sub.components()]
    return _component_sum(graph, "zf", b, out_sub, out_map, anchors)


def partition_zf(graph: Graph, v1) -> BoundReport:
    """Z(G) <= min over orders of Z(one side) + Z(other side; its border).

    V1 and its complement split the graph.  The free side forces first,
    then the other side starts from its border vertices already colored.
    """
    v1 = graph._coerce(v1)
    v2 = v1.complement()
    if not v1 or not v2:
        raise BoundHypothesisError("both sides of the partition must be nonempty")
    n1 = graph.closed_neighborhood(v2) & v1
    n2 = graph.closed_neighborhood(v1) & v2
    g1, i1 = graph.induced_subgraph(v1)
    g2, i2 = graph.induced_subgraph(v2)
    first = (
        restricted_zf_number(g1, None),
        restricted_zf_number(g2, i2.restrict(n2)),
    )
    second = (
        restricted_zf_number(g1, i1.restrict(n1)),
        restricted_zf_number(g2, None),
    )
    sums = (first[0].value + first[1].value, second[0].value + second[1].value)
    side = 0 if sums[0] <= sums[1] else 1
    pair = first if side == 0 else second
    witness = i1.lift(pair[0].witness) | i2.lift(pair[1].witness)
    certify(graph, witness, (), "zf", min(sums))
    lhs = restricted_zf_number(graph, None).value
    return _report(
        "partition_zf", lhs, min(sums), witness=witness, sums=sums, free_side=side + 1
    )


def degree_sum(
    graph: Graph,
    x: VertexSet | None = None,
    s: VertexSet | None = None,
) -> BoundReport:
    """Z(G; X) <= sum of deg u over a power dominating set S containing X.

    Needs no isolated vertices.  Blowing each u of S up to N[u] minus one
    spare neighbor gives a forcing set containing S of at most the degree
    sum, which rides in the context as a witness.  S defaults to a
    minimum power dominating set through X.
    """
    if graph.n == 0 or any(graph.degree(v) == 0 for v in graph.vertices()):
        raise BoundHypothesisError("the graph must have no isolated vertices")
    x = graph._coerce(x)
    if s is None:
        s = restricted_pd_number(graph, x).witness
    else:
        s = graph._coerce(s)
        if not x.issubset(s):
            raise BoundHypothesisError("the power dominating set must contain X")
        if not is_power_dominating_set(graph, s):
            raise BoundHypothesisError("the given set does not power dominate the graph")
    blown = 0
    for u in s:
        spare = graph.neighbors(u) - s
        if spare:
            blown |= (graph.adj[u] | 1 << u) & ~(1 << min(spare))
        else:
            blown |= 1 << u
    witness = certify(graph, VertexSet.from_mask(graph.n, blown), s, "zf")
    rhs = sum(graph.degree(u) for u in s)
    lhs = restricted_zf_number(graph, x).value
    if not lhs <= len(witness) <= rhs:
        raise CertificationError(f"forcing set of {len(witness)} lies outside [{lhs}, {rhs}]")
    return _report("degree_sum", lhs, rhs, witness=witness, pds=s)


def delta_ratio(graph: Graph, x: VertexSet | None = None) -> BoundReport:
    """ceil(Z(G; X) / max degree) <= gamma_P(G; X), for max degree >= 1."""
    if graph.n == 0 or graph.max_degree() < 1:
        raise BoundHypothesisError("the graph must have an edge")
    x = graph._coerce(x)
    z = restricted_zf_number(graph, x).value
    lhs = -(-z // graph.max_degree())
    rhs = restricted_pd_number(graph, x).value
    return _report("delta_ratio", lhs, rhs, forcing=z)


def neighborhood_blowup(graph: Graph, x: VertexSet | None = None) -> BoundReport:
    """Z(G; N[X]) <= (max degree + 1) * gamma_P(G; X).

    The closed neighborhood of a power dominating set through X forces
    the graph and contains N[X].
    """
    x = graph._coerce(x)
    lhs = restricted_zf_number(graph, graph.closed_neighborhood(x)).value
    rhs = (graph.max_degree() + 1) * restricted_pd_number(graph, x).value
    return _report("neighborhood_blowup", lhs, rhs)


# The audited bounds in ``audit`` order, each called with (G, X).
_AUDITED = {
    "domination_half": lambda graph, x: domination_half(graph),
    "pd_third": lambda graph, x: pd_third(graph),
    "restricted_pd_third": restricted_pd_third,
    "degree_sum": degree_sum,
    "delta_ratio": delta_ratio,
    "neighborhood_blowup": neighborhood_blowup,
}
AUDIT_BOUNDS = tuple(_AUDITED)


def audit(graph: Graph, x: VertexSet | None = None) -> list[BoundReport]:
    """Evaluate every applicable stock bound for the pair (G, X).

    The bounds run one after another in ``AUDIT_BOUNDS`` order; those
    whose hypotheses fail are skipped.  Every bound solves exactly
    through the set-cover master, so a graph above ``DEFAULT_CG_GUARD``
    vertices raises GuardExceededError.
    """
    x = graph._coerce(x)
    reports = []
    for evaluate in _AUDITED.values():
        try:
            reports.append(evaluate(graph, x))
        except BoundHypothesisError:
            pass
    return reports
