"""Tree splitting, leaf classification, and gluing compositions.

Splitting a tree at a vertex v of degree at least two turns each branch
into a smaller tree in which v is a leaf.  Solving every branch three
ways (v required, unconstrained, v deleted) classifies how v behaves
there, and the classification alone decides the power domination number
of the whole tree.  The branch solves are independent: each one reads
only its own branch, and none depends on another's result.

The composition rules go the other way: they assemble a value and a
witness for a large graph from restricted solves of its pieces, checking
the hypotheses that make the assembly sound and verifying the assembled
witness by propagation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import apex_over
from .errors import BoundHypothesisError, CertificationError, GraphError, NotATreeError
from .forts import _forest_rooting
from .graph import Graph, IndexMap, VertexSet, bits
from .propagation import DEFAULT_TERMINAL_CAP, certify, enumerate_terminal_sets
from .propagation import is_zero_forcing_set
from .solver import (
    DEFAULT_CG_GUARD,
    SolveResult,
    _cg,
    _cg_parts,
    _lift_deleted,
    restricted_pd_number,
    restricted_zf_number,
)

__all__ = [
    "TreePart",
    "TreeSplit",
    "LeafClassification",
    "LeafSupports",
    "CompositionBound",
    "PendantComposition",
    "ApexTerminalReport",
    "centroid",
    "tree_split",
    "tree_pd_parallel",
    "leaf_classify",
    "mandatory_vertices",
    "compose_boundary_pd",
    "compose_pendant_zf",
    "check_apex_terminal",
]


@dataclass(frozen=True)
class TreePart:
    """One branch of a split tree: a component of T - v together with v.

    ``anchored``, ``free`` and ``deleted`` are the minimum power
    dominating sets of the branch with the anchor required, with no
    restriction, and with the anchor removed.  Witnesses use branch ids;
    ``index`` maps them back to the original tree.
    """

    graph: Graph
    index: IndexMap
    anchor: int
    anchored: SolveResult
    free: SolveResult
    deleted: SolveResult

    @property
    def role(self) -> str:
        """"costly" if requiring the anchor raises the branch minimum,
        "idle" if the anchor can join a minimum solution without acting,
        "active" if it joins for free but must dominate or force."""
        if self.anchored.value != self.free.value:
            return "costly"
        if self.anchored.value == self.deleted.value + 1:
            return "idle"
        return "active"


@dataclass(frozen=True)
class TreeSplit:
    """A tree split at ``vertex``, with every branch solved three ways.

    A tree of at most two vertices is left unsplit: no vertex, no parts."""

    tree: Graph
    vertex: int | None
    parts: tuple[TreePart, ...]

    @property
    def base_value(self) -> int:
        """Sum of the anchored branch minima, minus one per branch."""
        return sum(p.anchored.value for p in self.parts) - len(self.parts)

    @property
    def value(self) -> int:
        """Power domination number of the tree implied by the part roles.

        The split vertex earns its place exactly when two branches need
        it to act, or no branch gets cheaper without it.
        """
        g = self.base_value
        roles = [p.role for p in self.parts]
        return g + 1 if roles.count("active") >= 2 or "costly" not in roles else g

    def result(self) -> SolveResult:
        """Assemble and verify a witness of size ``value`` for the tree.

        When the split vertex is worth a slot, the anchored witnesses are
        merged as they are.  Otherwise each costly branch contributes an
        unrestricted witness, each idle branch a witness of the branch
        minus the anchor, and at most one active branch its anchored
        witness with the anchor dropped; the costly branches color the
        split vertex, which then serves the rest.
        """
        if not self.parts:
            return restricted_pd_number(self.tree)
        mask = 0
        cuts = 0
        nodes = 0
        for part in self.parts:
            for res in (part.anchored, part.free, part.deleted):
                cuts += res.cuts_added
                nodes += res.nodes
        if self.value > self.base_value:
            for part in self.parts:
                mask |= part.index.lift(part.anchored.witness).mask
        else:
            for part in self.parts:
                role = part.role
                if role == "costly":
                    chosen = part.free.witness
                    if part.anchor in chosen:
                        raise CertificationError("a costly branch's free witness uses its anchor")
                elif role == "idle":
                    chosen = _lift_deleted(part.deleted.witness, part.anchor)
                else:
                    chosen = part.anchored.witness - part.graph.vertex_set((part.anchor,))
                mask |= part.index.lift(chosen).mask
        witness = certify(self.tree, VertexSet.from_mask(self.tree.n, mask), (), "pd", self.value)
        return SolveResult(self.value, witness, "reduction", cuts, nodes)


def centroid(tree: Graph) -> int:
    """A vertex minimizing the largest branch of the tree, lowest id first.

    One traversal from vertex 0 gives every subtree size.  The branches
    at v are the subtrees of its children and, unless v is the root, the
    rest of the tree, of size n - size[v]; so each weight is read off in
    constant time and the scan in id order keeps the lowest id on ties.
    """
    if not tree.is_tree():
        raise NotATreeError("centroid needs a tree")
    return _centroid(tree)


def _centroid(tree: Graph) -> int:
    """``centroid`` of a graph the caller has checked to be a tree."""
    n = tree.n
    parent, order = _forest_rooting(tree.adj, (1 << n) - 1)
    size = [1] * n
    heaviest = [0] * n
    for v in reversed(order[1:]):
        p = parent[v]
        size[p] += size[v]
        heaviest[p] = max(heaviest[p], size[v])
    best, best_weight = 0, n
    for v in range(n):
        weight = max(heaviest[v], n - size[v])
        if weight < best_weight:
            best, best_weight = v, weight
    return best


def _solve_task(parts: list, x: VertexSet) -> SolveResult:
    # Branches are leafy trees, where minimum-fort cuts are far stronger.
    return _cg(parts, x, "pd", True)


def tree_split(
    tree: Graph,
    vertex: int | None = None,
    *,
    jobs: int = 1,
    guard: int = DEFAULT_CG_GUARD,
) -> TreeSplit:
    """Split a tree at a vertex and solve every branch three ways.

    The split vertex must have degree at least two; by default it is the
    centroid, and a tree of at most two vertices is left unsplit (within
    ``guard``) for ``result`` to solve directly.  Each branch is the part
    of the tree that a neighbour of the split vertex reaches without it,
    in neighbour id order, and yields three independent subproblems, all
    solved in the calling process; the anchored and free solves share one
    split of the branch into constraint-generation parts.  ``jobs`` has no
    effect; it must be positive and is kept only so that existing callers
    that pass it keep working.
    """
    if not tree.is_tree():
        raise NotATreeError("tree splitting needs a tree")
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    if vertex is None:
        if tree.n <= 2:
            _cg_parts(tree, guard)
            return TreeSplit(tree, None, ())
        vertex = _centroid(tree)
    if tree.degree(vertex) < 2:
        raise GraphError("the split vertex must have degree at least 2")
    adj = tree.adj
    cut = 1 << vertex
    parts = []
    for w in bits(adj[vertex]):
        # The branch of w: every vertex that w reaches without the split vertex.
        branch, todo = 0, 1 << w
        while todo:
            low = todo & -todo
            todo ^= low
            branch |= low
            todo |= adj[low.bit_length() - 1] & ~branch & ~cut
        sub, index = tree.induced_subgraph(VertexSet.from_mask(tree.n, branch | cut))
        anchor = (branch & cut - 1).bit_count()
        shared = _cg_parts(sub, guard)
        anchored = _solve_task(shared, sub.vertex_set((anchor,)))
        free = _solve_task(shared, sub.vertex_set())
        rest = sub.delete_vertex(anchor)
        deleted = _solve_task(_cg_parts(rest, guard), rest.vertex_set())
        parts.append(TreePart(sub, index, anchor, anchored, free, deleted))
    return TreeSplit(tree=tree, vertex=vertex, parts=tuple(parts))


def tree_pd_parallel(
    tree: Graph,
    vertex: int | None = None,
    *,
    jobs: int = 1,
    guard: int = DEFAULT_CG_GUARD,
) -> SolveResult:
    """Power domination number of a tree through ``tree_split``."""
    return tree_split(tree, vertex, jobs=jobs, guard=guard).result()


@dataclass(frozen=True)
class LeafClassification:
    """Whether a leaf can join a minimum solution without ever acting.

    An idle leaf costs one on top of the graph without it, and the
    witness then has the form (minimum set of G - u) + u.  A non-idle
    leaf joins at no cost over the deleted graph, but must dominate or
    force in every minimum solution through it.
    """

    vertex: int
    anchored: SolveResult
    deleted: SolveResult
    idle: bool
    witness: VertexSet


def leaf_classify(graph: Graph, u: int) -> LeafClassification:
    """Classify the leaf u by comparing the anchored and deleted minima."""
    if graph.degree(u) != 1:
        raise GraphError(f"vertex {u} has degree {graph.degree(u)}, not a leaf")
    anchored = restricted_pd_number(graph, graph.vertex_set((u,)))
    deleted = restricted_pd_number(graph.delete_vertex(u))
    if anchored.value - deleted.value not in (0, 1):
        raise CertificationError(f"leaf {u} changes the minimum by more than one")
    idle = anchored.value == deleted.value + 1
    if idle:
        witness = _lift_deleted(deleted.witness, u) | graph.vertex_set((u,))
        certify(graph, witness, (u,), "pd", anchored.value)
    else:
        witness = anchored.witness
    return LeafClassification(
        vertex=u, anchored=anchored, deleted=deleted, idle=idle, witness=witness
    )


@dataclass(frozen=True)
class LeafSupports:
    """Support vertices pinned into minimum power dominating sets.

    Every minimum power dominating set contains all of ``mandatory`` (the
    vertices with three or more leaves) and, for each ``either_or`` entry
    (v, leaves), at least one vertex of {v} | leaves; some minimum set
    contains every two-leaf support v itself.
    """

    mandatory: VertexSet
    either_or: tuple[tuple[int, tuple[int, ...]], ...]


def mandatory_vertices(graph: Graph) -> LeafSupports:
    """Vertices forced into minimum power dominating sets by their leaves."""
    mandatory = []
    either_or = []
    for v in graph.vertices():
        leaves = tuple(u for u in graph.neighbors(v) if graph.degree(u) == 1)
        if len(leaves) >= 3:
            mandatory.append(v)
        elif len(leaves) == 2:
            either_or.append((v, leaves))
    return LeafSupports(
        mandatory=graph.vertex_set(mandatory), either_or=tuple(either_or)
    )


@dataclass(frozen=True)
class CompositionBound:
    """An upper bound assembled from restricted solves of the pieces."""

    value: int
    witness: VertexSet
    parts: tuple[SolveResult, ...]


def compose_boundary_pd(
    graph: Graph,
    v1: VertexSet,
    w1: VertexSet,
    w2: VertexSet,
) -> CompositionBound:
    """Upper bound on the minimum power dominating set through W1 | W2.

    V1 and its complement split the graph in two; the border consists of
    the vertices with a closed neighbor on the other side.  When W1 | W2
    dominates the whole border, each side can be solved subject to its
    own W and the union of the side witnesses power dominates the whole
    graph, so the restricted minimum is at most the sum of the side
    minima.
    """
    v1 = graph._coerce(v1)
    w1 = graph._coerce(w1)
    w2 = graph._coerce(w2)
    v2 = v1.complement()
    if not v1 or not v2:
        raise BoundHypothesisError("both sides of the partition must be nonempty")
    if not w1.issubset(v1) or not w2.issubset(v2):
        raise BoundHypothesisError("each restriction must live on its own side")
    border = (graph.closed_neighborhood(v2) & v1) | (graph.closed_neighborhood(v1) & v2)
    if not border.issubset(graph.closed_neighborhood(w1 | w2)):
        raise BoundHypothesisError("the restrictions must dominate every border vertex")
    g1, i1 = graph.induced_subgraph(v1)
    g2, i2 = graph.induced_subgraph(v2)
    r1 = restricted_pd_number(g1, i1.restrict(w1))
    r2 = restricted_pd_number(g2, i2.restrict(w2))
    witness = i1.lift(r1.witness) | i2.lift(r2.witness)
    certify(graph, witness, w1 | w2, "pd", r1.value + r2.value)
    return CompositionBound(value=r1.value + r2.value, witness=witness, parts=(r1, r2))


def _require_minimum_forcing_set(graph: Graph, x: VertexSet) -> SolveResult:
    if not is_zero_forcing_set(graph, x):
        raise BoundHypothesisError("the anchor set does not force the graph")
    base = restricted_zf_number(graph)
    if len(x) != base.value:
        raise BoundHypothesisError(
            f"the anchor set has size {len(x)}, the forcing number is {base.value}"
        )
    return base


@dataclass(frozen=True)
class PendantComposition:
    """A glued graph together with its exact restricted forcing result.

    ``placements[i][j]`` is the glued id of vertex j of branch i; base
    graph ids are unchanged.  ``result`` is exact for the glued graph
    subject to the anchor set.
    """

    graph: Graph
    result: SolveResult
    parts: tuple[SolveResult, ...]
    placements: tuple[tuple[int, ...], ...]


def compose_pendant_zf(
    graph: Graph,
    x: VertexSet,
    attachments: tuple[tuple[Graph, int, int], ...],
    *,
    cap: int = DEFAULT_TERMINAL_CAP,
) -> PendantComposition:
    """Exact forcing number of a graph with branches glued onto terminals.

    Each attachment (branch, root, at) identifies the branch root with
    the base vertex ``at``.  X must be a minimum forcing set of the base
    whose chains can end at all the gluing vertices simultaneously; the
    glued value is then exactly |X| - k plus the sum of the anchored
    branch minima, because every chain parks one blue vertex that the
    branch reuses.
    """
    x = graph._coerce(x)
    base = _require_minimum_forcing_set(graph, x)
    ats = []
    for branch, root, at in attachments:
        branch._check_vertex(root)
        graph._check_vertex(at)
        if not branch.is_connected():
            raise BoundHypothesisError("every attached branch must be connected")
        ats.append(at)
    if len(set(ats)) != len(ats):
        raise GraphError("gluing vertices must be distinct")
    at_set = graph.vertex_set(ats)
    sets = enumerate_terminal_sets(graph, x, cap)
    if not any(at_set.issubset(ts) for ts in sets):
        raise BoundHypothesisError(
            "the gluing vertices are not terminals of a common forcing run"
        )
    edges = graph.edges()
    placements = []
    total = graph.n
    parts = []
    mask = x.mask
    cuts = base.cuts_added
    nodes = base.nodes
    for branch, root, at in attachments:
        place = []
        for v in branch.vertices():
            if v == root:
                place.append(at)
            else:
                place.append(total)
                total += 1
        edges.extend((place[a], place[b]) for a, b in branch.edges())
        placements.append(tuple(place))
        res = restricted_zf_number(branch, branch.vertex_set((root,)))
        parts.append(res)
        cuts += res.cuts_added
        nodes += res.nodes
        for v in res.witness:
            if v != root:
                mask |= 1 << place[v]
    glued = Graph(total, edges)
    value = len(x) - len(attachments) + sum(res.value for res in parts)
    witness = certify(glued, VertexSet.from_mask(glued.n, mask), (), "zf", value)
    result = SolveResult(value, witness, "reduction", cuts, nodes)
    return PendantComposition(
        graph=glued, result=result, parts=tuple(parts), placements=tuple(placements)
    )


@dataclass(frozen=True)
class ApexTerminalReport:
    """How a candidate apex neighborhood relates to forcing terminals.

    ``covered`` holds when T fits inside a single terminal set of the
    anchor set X, which keeps the apexed value at |X|; ``forces_apex``
    holds when X alone forces the apexed graph, which requires some
    vertex of T to be a reachable terminal (``touched``).  ``result`` is
    the exact solve of the apexed graph subject to X.
    """

    apex: int
    covered: bool
    touched: bool
    forces_apex: bool
    result: SolveResult


def check_apex_terminal(
    graph: Graph,
    x: VertexSet,
    t: VertexSet,
    *,
    cap: int = DEFAULT_TERMINAL_CAP,
) -> ApexTerminalReport:
    """Relate the terminal sets of X to the graph with an apex over T.

    X must be a minimum forcing set of the base graph.  The report
    carries the two one-way implications: T inside one terminal set
    guarantees X still forces with the apex added, and X forcing the
    apexed graph guarantees T meets some terminal set.  The guard bounds
    each component of the apexed graph without its apex: the components
    of the base that T meets join into one, and together they must fit
    the guard.
    """
    x = graph._coerce(x)
    t = graph._coerce(t)
    if not t:
        raise GraphError("the apex neighborhood must be nonempty")
    _require_minimum_forcing_set(graph, x)
    sets = enumerate_terminal_sets(graph, x, cap)
    covered = any(t.issubset(ts) for ts in sets)
    touched = any(not t.isdisjoint(ts) for ts in sets)
    apexed = apex_over(graph, t)
    lifted = VertexSet(apexed.n, x)
    forces_apex = is_zero_forcing_set(apexed, lifted)
    result = restricted_zf_number(apexed, lifted, guard=DEFAULT_CG_GUARD + 1)  # the apex is free
    if covered and not (forces_apex and result.value == len(x)):
        raise CertificationError("T lies in one terminal set, yet X fails on the apexed graph")
    if forces_apex and not touched:
        raise CertificationError("X forces the apexed graph, yet T meets no terminal set")
    return ApexTerminalReport(
        apex=graph.n,
        covered=covered,
        touched=touched,
        forces_apex=forces_apex,
        result=result,
    )
