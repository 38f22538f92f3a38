"""Exact solvers for restricted power domination and zero forcing.

The restricted number of a graph relative to a set X is the minimum size
of a feasible set containing X.  Three exact routes are provided and
cross-checked by the tests:

* ``brute_force_min``: subset enumeration by increasing size ("oracle");
* ``restricted_pd_number`` / ``restricted_zf_number``: constraint
  generation over fort cuts, with an exact set-cover master solved by
  branch and bound at every round, one connected component at a time;
* ``reduction_pd_number``: leaf attachment, power domination only.

Every power dominating set intersects N[F] for every fort F, and every
zero forcing set intersects every fort, so fort cuts never exclude an
optimal solution; when a master optimum becomes feasible it is optimal.
Each extracted cut is violated by the incumbent, hence new, so the loop
terminates.  Both parameters add up over connected components, so
constraint generation solves each component as its own graph, in its own
ids, and lifts the witness and every logged cut back to the graph's ids;
its 64-vertex guard (``DEFAULT_CG_GUARD``) bounds each component rather
than the whole graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .constructions import attach_leaves
from .errors import CertificationError, GraphError, check_guard
from .graph import Graph, IndexMap, VertexSet, bits
from .forts import Fort, minimum_violated_fort
from .propagation import certify, dominated_mask, final_step
from .propagation import final_mask as _final_mask

__all__ = [
    "SolveResult",
    "brute_force_min",
    "minimum_solutions",
    "restricted_pd_number",
    "restricted_zf_number",
    "pd_number_disconnected",
    "reduction_pd_number",
    "spread",
    "spread_and_single",
    "z_restricted_single",
    "k_restricted_number",
    "DEFAULT_ORACLE_GUARD",
    "DEFAULT_EXHAUSTIVE_GUARD",
    "DEFAULT_CG_GUARD",
]

DEFAULT_ORACLE_GUARD = 20
DEFAULT_EXHAUSTIVE_GUARD = 16
DEFAULT_CG_GUARD = 64


@dataclass(frozen=True, slots=True)
class SolveResult:
    """An exact value with a feasible witness of that size containing X.

    ``method`` names the certification path: "oracle" (enumeration),
    "constraint_generation" or "reduction".  ``cuts_added`` counts fort
    cuts, ``nodes`` counts search-tree nodes, both 0 when meaningless.
    """

    value: int
    witness: VertexSet
    method: str
    cuts_added: int = 0
    nodes: int = 0


def _prepare(graph: Graph, x) -> VertexSet:
    if graph.n == 0:
        raise GraphError("parameters of the empty graph are undefined")
    return graph._coerce(x)


def _search(mask: int, n: int, state, step, goal, every: bool) -> tuple[list[int], int]:
    """The fewest-vertex supersets of *mask* in ``range(n)`` whose state is *goal*,
    and how many supersets were tried, *mask* first.  *mask* has state *state*;
    S + v, with v above S's added vertices, has ``step(state of S, v)``.  Each
    size is one depth first search over the free vertices in the order of
    ``itertools.combinations`` that steps each prefix once, in O(n) memory.
    It stops at the first hit, or with *every* at the end of that hit's size.
    """
    free = [v for v in range(n) if not mask >> v & 1]
    hits = [mask] if state == goal else []
    tried = 1

    def dfs(start: int, left: int, mask: int, state) -> bool:
        nonlocal tried
        tail = free[start:]
        if left == 1:
            for v in tail:
                if step(state, v) == goal:
                    hits.append(mask | 1 << v)
                    if not every:
                        tried += tail.index(v) + 1
                        return True
            tried += len(tail)
            return False
        # The first added vertex leaves room for left - 1 after it.
        for i, v in enumerate(tail[: len(tail) - left + 1], start + 1):
            if dfs(i, left - 1, mask | 1 << v, step(state, v)):
                return True
        return False

    for size in range(1, len(free) + 1):
        if hits:
            break
        dfs(0, size, mask, state)
    return hits, tried


def _oracle(graph: Graph, x: VertexSet, mode: str, every: bool) -> tuple[list[int], int]:
    """``_search`` for the supersets of X whose final mask in *mode* is full."""
    hits, tried = _search(
        x.mask, graph.n, _final_mask(graph.adj, x.mask, mode), final_step(graph.adj, mode),
        (1 << graph.n) - 1, every,
    )
    if not hits:
        raise CertificationError("no superset of X propagates, not even the vertex set")
    return hits, tried


def brute_force_min(
    graph: Graph,
    x: VertexSet | None = None,
    mode: str = "pd",
    *,
    guard: int = DEFAULT_ORACLE_GUARD,
) -> SolveResult:
    """Minimum feasible superset of X by direct enumeration.

    Supersets are tried by increasing size, lexicographically within a size,
    so the witness is the lexicographically least optimum; ``nodes`` counts
    the supersets tried, X first.  Modes: "pd", "zf", "dom".
    """
    x = _prepare(graph, x)
    check_guard("oracle", guard, graph.n)
    (mask,), tried = _oracle(graph, x, mode, False)
    return SolveResult(
        value=mask.bit_count(),
        witness=VertexSet.from_mask(graph.n, mask),
        method="oracle",
        nodes=tried,
    )


def minimum_solutions(
    graph: Graph,
    x: VertexSet | None = None,
    mode: str = "pd",
) -> list[VertexSet]:
    """Every minimum feasible superset of X, in lexicographic order."""
    x = _prepare(graph, x)
    check_guard("exhaustive", DEFAULT_EXHAUSTIVE_GUARD, graph.n)
    return [VertexSet.from_mask(graph.n, m) for m in _oracle(graph, x, mode, True)[0]]


class _RowPool(list):
    """Set-cover rows with their transpose: ``col[v]`` masks the indices of
    the rows that contain v.  Each row is checked once, as it enters."""

    def __init__(self, n: int, rows=()) -> None:
        super().__init__()
        self.col = [0] * n
        for row in rows:
            self._push(self._checked(row))

    def _checked(self, row: int) -> int:
        n = len(self.col)
        if not 0 < row < 1 << n:
            raise CertificationError(f"cover row {row:#x} is empty or leaves 0..{n - 1}")
        return row

    def _push(self, row: int) -> None:
        ibit = 1 << len(self)
        self.append(row)
        col = self.col
        while row:
            low = row & -row
            row ^= low
            col[low.bit_length() - 1] |= ibit

    def add_cut(self, row: int) -> None:
        """Append a cut and drop the rows it implies, its supersets; the rows
        after a dropped row move down one index, in ``col`` as in the list."""
        self._checked(row)
        if 0 in [q & ~row for q in self]:
            raise CertificationError("cut already implied by the pool")
        for i in reversed([i for i, q in enumerate(self) if row & q == row]):
            del self[i]
            low = (1 << i) - 1
            self.col = [c & low | c >> 1 & ~low for c in self.col]
        self._push(row)


def _cover_exact(n: int, degs: tuple[int, ...], rows: list[int], forced: int) -> tuple[int, int]:
    """Exact minimum set cover: smallest superset of *forced* meeting every row.

    Branch and bound.  The incumbent starts greedy; a node picks the
    uncovered row with fewest allowed vertices and branches on its members
    (rows hit descending, then degree descending, then id: the sort is
    stable), banning each tried vertex from later siblings so no solution
    is enumerated twice; pairwise-disjoint uncovered rows give the lower
    bound, and their packing stops once it reaches the bound that prunes.

    The rows are numbered in their given order (a ``_RowPool`` brings its
    transpose, a plain list is transposed here), a set of them is an int
    mask over those numbers, and ``col[v]`` is the mask of the rows that
    contain v: a hit count is one ``bit_count`` of ``col[v] & rows``, and
    picking v leaves ``rows & ~col[v]``.  The rows that *forced* hits are
    masked out, not renumbered, so ties break in the given row order.

    An empty row, or one naming a vertex outside ``range(n)``, raises
    ``CertificationError`` as it enters the pool.  No node needs to test
    for an emptied row: the root bans nothing, and the k-th child of a
    node bans, beyond its parent's bans, only the k - 1 members of the
    picked row tried before it, so a row that child empties had at most
    k - 1 allowed members at the node, fewer than the picked row has.  This
    needs a fixed row set: a search whose pool grows while it runs must
    keep its own test for an emptied row.

    ``nodes`` counts every node the search would enter, but a child that
    cannot beat the incumbent is counted without being entered.  A node is
    pruned on entry exactly when ``size + lower >= best_size``, and
    ``lower >= 1`` whenever a row is uncovered, so a child of size
    ``size + 1`` that leaves a row uncovered is pruned on entry once
    ``size + 2 >= best_size``, and one that covers every row is a leaf.  At a
    node with ``size + 2 == best_size`` (its own bound then reads 1) only a
    child covering every row can win: every member of the picked row counts
    as a node, and the first covering child in the sorted order becomes the
    incumbent.  A covering child has the most hits, so it is the covering
    member of highest degree, then lowest id; after it, every later child
    is pruned.
    """
    if not isinstance(rows, _RowPool):
        rows = _RowPool(n, rows)
    col = rows.col
    rows = list(rows)  # the search indexes it, and a plain list indexes faster
    every = (1 << len(rows)) - 1
    for v in bits(forced):
        every &= ~col[v]
    best, left = forced, every
    while left:
        hits = [(c & left).bit_count() for c in col]
        # index() takes the lowest id among the most-hit vertices.
        best_v = hits.index(max(hits))
        best |= 1 << best_v
        left &= ~col[best_v]
    best_size = best.bit_count()
    nodes = 0

    def dfs(chosen: int, size: int, todo: int, banned: int) -> None:
        nonlocal best, best_size, nodes
        nodes += 1
        need = best_size - size
        if need <= 0:  # only the root, when no row is uncovered
            return
        pick_size = n + 1
        taken = 0
        lower = 0
        t = todo
        while t:
            low = t & -t
            t ^= low
            a = rows[low.bit_length() - 1] & ~banned
            if a.bit_count() < pick_size:
                pick, pick_size = a, a.bit_count()
            if a & taken == 0:
                taken |= a
                lower += 1
                if lower == need:
                    return
        if need == 2:
            nodes += pick_size
            best_v = best_deg = -1
            while pick:
                low = pick & -pick
                pick ^= low
                v = low.bit_length() - 1
                if degs[v] > best_deg and col[v] & todo == todo:
                    best_v, best_deg = v, degs[v]
            if best_v >= 0:
                best, best_size = chosen | 1 << best_v, size + 1
            return
        for v in sorted(bits(pick), key=lambda v: (-(col[v] & todo).bit_count(), -degs[v])):
            vbit = 1 << v
            rest = todo & ~col[v]
            if rest and size + 2 < best_size:
                dfs(chosen | vbit, size + 1, rest, banned)
            else:
                nodes += 1
                if not rest and size + 1 < best_size:
                    best, best_size = chosen | vbit, size + 1
            banned |= vbit

    dfs(forced, forced.bit_count(), every, 0)
    return best, nodes


def _cg_parts(
    graph: Graph, guard: int = DEFAULT_CG_GUARD
) -> list[tuple[Graph, IndexMap, tuple[int, ...]]]:
    """What every constraint-generation solve of *graph* reads from it, whatever
    X: once the guard has admitted the largest component, each component as
    its own graph, with the map back to the graph's ids and its degrees."""
    comps = graph.components()
    where = "graph" if len(comps) == 1 else "a component"
    check_guard("constraint generation", guard, max(len(c) for c in comps), where)
    subs = [graph.induced_subgraph(comp) for comp in comps]
    return [(sub, index, tuple(a.bit_count() for a in sub.adj)) for sub, index in subs]


def _cg(
    parts: list[tuple[Graph, IndexMap, tuple[int, ...]]],
    x: VertexSet,
    mode: str,
    min_forts: bool,
    cut_log: list | None = None,
) -> SolveResult:
    cuts = 0
    total_nodes = 0
    witness = VertexSet(x.n)
    # Each component runs its own master, in its own ids: a set inside one
    # component propagates only inside it, and so does every fort cut.  The
    # ids keep their order, so every tie breaks as it would in the graph's.
    for sub, index, degs in parts:
        adj, n = sub.adj, sub.n
        full = (1 << n) - 1
        pool = _RowPool(n)
        forced = s_mask = index.restrict(x).mask
        while True:
            final = _final_mask(adj, s_mask, mode)
            if final == full:
                break
            if min_forts:
                fmask = minimum_violated_fort(sub, VertexSet.from_mask(n, final)).members.mask
            else:
                fmask = full & ~final
            if cut_log is not None:
                incumbent, fort = (VertexSet.from_mask(n, m) for m in (s_mask, fmask))
                cut_log.append((index.lift(incumbent), Fort(index.lift(fort))))
            pool.add_cut(dominated_mask(adj, fmask) if mode == "pd" else fmask)
            cuts += 1
            s_mask, nodes = _cover_exact(n, degs, pool, forced)
            total_nodes += nodes
        witness |= index.lift(VertexSet.from_mask(n, s_mask))
    return SolveResult(
        value=len(witness),
        witness=witness,
        method="constraint_generation",
        cuts_added=cuts,
        nodes=total_nodes,
    )


def restricted_pd_number(
    graph: Graph,
    x: VertexSet | None = None,
    *,
    min_forts: bool = False,
    guard: int = DEFAULT_CG_GUARD,
    cut_log: list[tuple[VertexSet, Fort]] | None = None,
) -> SolveResult:
    """Minimum power dominating set containing X, by constraint generation.

    Each failed master solution S leaves the fort V - PD(S); its closed
    neighborhood joins the cut pool (``min_forts=True`` separates a
    minimum violated fort instead, far stronger on leafy graphs).  The
    master is re-solved exactly after every cut.  Each connected component
    is solved on its own, and ``guard`` bounds the size of each component.
    When ``cut_log`` is a list it receives one (incumbent, fort) pair per
    cut; both belong to the component that the cut was made in, in the
    graph's vertex ids.
    """
    x = _prepare(graph, x)
    return _cg(_cg_parts(graph, guard), x, "pd", min_forts, cut_log)


def restricted_zf_number(
    graph: Graph,
    x: VertexSet | None = None,
    *,
    min_forts: bool = False,
    guard: int = DEFAULT_CG_GUARD,
    cut_log: list[tuple[VertexSet, Fort]] | None = None,
) -> SolveResult:
    """Minimum zero forcing set containing X, by constraint generation.

    Identical loop to the power domination solver except that the cut for
    a fort F is F itself rather than N[F].
    """
    x = _prepare(graph, x)
    return _cg(_cg_parts(graph, guard), x, "zf", min_forts, cut_log)


def pd_number_disconnected(
    graph: Graph,
    x: VertexSet | None = None,
    *,
    min_forts: bool = False,
) -> SolveResult:
    """Restricted power domination of a graph that may be disconnected.

    The same solve as ``restricted_pd_number`` with the default guard;
    that solve already splits the graph into its components.
    """
    return restricted_pd_number(graph, x, min_forts=min_forts)


def reduction_pd_number(graph: Graph, x: VertexSet | None = None) -> SolveResult:
    """Restricted power domination via pendant-leaf attachment.

    Attaching three leaves to every vertex of X makes each of them
    mandatory, so the unrestricted minimum of the attachment equals the
    restricted minimum of the base graph and its witnesses avoid the new
    leaves (two leaves per vertex already preserve the value; the third
    pins the witness).  The guard bounds the components of the graph
    passed in; the attached leaves do not count against it.
    """
    x = _prepare(graph, x)
    _cg_parts(graph)
    grown = attach_leaves(graph, x, 3)
    # A guard of grown.n never stops: the call above guarded the graph passed in.
    res = restricted_pd_number(grown, min_forts=True, guard=grown.n)
    # A witness that used an attached leaf loses it here and fails the size check.
    witness = VertexSet.from_mask(graph.n, res.witness.mask & (1 << graph.n) - 1)
    certify(graph, witness, x, "pd", res.value)
    return SolveResult(res.value, witness, "reduction", res.cuts_added, res.nodes)


def _spread_solves(graph: Graph, v: int) -> tuple[int, SolveResult, SolveResult]:
    """The spread of v with the two solves it is read from, Z(G) and Z(G - v)."""
    graph._check_vertex(v)
    if graph.n < 2:
        raise GraphError("vertex spread needs at least two vertices")
    z_res = restricted_zf_number(graph)
    z_minus_res = restricted_zf_number(graph.delete_vertex(v))
    out = z_res.value - z_minus_res.value
    if out not in (-1, 0, 1):
        raise CertificationError(f"spread {out} is not -1, 0 or 1")
    return out, z_res, z_minus_res


def spread(graph: Graph, v: int) -> int:
    """Z(G) - Z(G - v); always -1, 0 or 1."""
    return _spread_solves(graph, v)[0]


def _lift_deleted(s: VertexSet, v: int) -> VertexSet:
    """Map ids of G - v back into G (ids >= v shift up by one)."""
    return VertexSet(s.n + 1, (u if u < v else u + 1 for u in s))


def spread_and_single(graph: Graph, v: int) -> tuple[int, SolveResult]:
    """The spread of v together with Z(G; {v}), sharing the solves of Z(G)
    and Z(G - v) that both are read from.

    Spread 1 means some minimum forcing set contains v without using it:
    a minimum set of G - v plus v works.  Spread -1 means Z(G; {v}) =
    Z(G) + 1, witnessed by any minimum set plus v.  Spread 0 decides
    nothing, so that case is solved directly.
    """
    s, z_res, z_minus_res = _spread_solves(graph, v)
    if s == 1:
        witness = _lift_deleted(z_minus_res.witness, v) | VertexSet(graph.n, (v,))
        result = SolveResult(z_res.value, witness, "reduction")
    elif s == -1:
        witness = z_res.witness | VertexSet(graph.n, (v,))
        result = SolveResult(z_res.value + 1, witness, "reduction")
    else:
        return s, restricted_zf_number(graph, (v,))
    certify(graph, result.witness, (v,), "zf", result.value)
    return s, result


def z_restricted_single(graph: Graph, v: int) -> SolveResult:
    """Z(G; {v}) through the spread of v (see ``spread_and_single``)."""
    graph._check_vertex(v)
    if graph.n == 1:
        return SolveResult(1, VertexSet(1, (0,)), "reduction")
    return spread_and_single(graph, v)[1]


def k_restricted_number(graph: Graph, k: int, mode: str = "pd") -> tuple[int, VertexSet]:
    """Worst restricted value over all X of size k, with a maximizing X.

    Enumerates the X, so ``DEFAULT_ORACLE_GUARD`` applies to n; the
    maximizing X is the first in ``itertools.combinations`` order.  Mode
    "dom" solves each X by enumeration (``brute_force_min``), "pd" and
    "zf" by constraint generation.  S + X is feasible for an optimum S of the
    graph, so the loop stops at the first X that reaches min(n, value + k).
    """
    _prepare(graph, None)
    if not 0 <= k <= graph.n:
        raise GraphError(f"k must lie in [0, {graph.n}], got {k}")
    check_guard("enumeration", DEFAULT_ORACLE_GUARD, graph.n)
    parts = _cg_parts(graph)
    def solve(x: VertexSet) -> SolveResult:
        return brute_force_min(graph, x, mode) if mode == "dom" else _cg(parts, x, mode, False)
    cap = min(graph.n, solve(VertexSet(graph.n)).value + k)
    best, best_x = -1, None
    for x_mask in map(sum, combinations([1 << v for v in range(graph.n)], k)):
        x = VertexSet.from_mask(graph.n, x_mask)
        if (value := solve(x).value) > best:
            best, best_x = value, x
            if best == cap:
                break
    return best, best_x
