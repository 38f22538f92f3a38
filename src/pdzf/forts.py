"""Forts, the certificates that a set cannot finish forcing.

A fort is a nonempty set F such that no vertex outside F has exactly one
neighbor inside F.  Forcing can never enter an untouched fort: a zero
forcing set must intersect F itself, and a power dominating set must
intersect N[F].  The complement of any failed closure is a fort, which is
what drives the constraint-generation solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import CertificationError, InfeasibleError, check_guard
from .graph import Graph, VertexSet, dominated_mask
from .propagation import closure_mask, final_mask

__all__ = [
    "Fort",
    "is_fort",
    "fort_from_failed_set",
    "minimum_violated_fort",
    "enumerate_forts",
    "DEFAULT_FORT_GUARD",
]

DEFAULT_FORT_GUARD = 16


@dataclass(frozen=True)
class Fort:
    members: VertexSet


def _is_fort_mask(adj: tuple[int, ...], fmask: int) -> bool:
    if fmask == 0:
        return False
    # Only a neighbour of the fort can see exactly one member.
    outside = dominated_mask(adj, fmask) & ~fmask
    while outside:
        low = outside & -outside
        outside ^= low
        inside = adj[low.bit_length() - 1] & fmask
        if inside and inside & (inside - 1) == 0:
            return False
    return True


def is_fort(graph: Graph, f: VertexSet) -> bool:
    f = graph._coerce(f)
    return _is_fort_mask(graph.adj, f.mask)


def fort_from_failed_set(graph: Graph, s: VertexSet, mode: str = "pd") -> Fort:
    """The fort left white by a failed run: V minus the closure of S.

    For mode "pd" the closure is the observed set of S; for "zf" it is the
    forcing closure of S.  Raises if S is already feasible.  The result is
    always violated by S: disjoint from N[S] for pd, disjoint from S for zf.
    """
    s = graph._coerce(s)
    if mode not in ("pd", "zf"):
        raise ValueError(f"mode must be 'pd' or 'zf', got {mode!r}")
    final = final_mask(graph.adj, s.mask, mode)
    full = (1 << graph.n) - 1
    if final == full:
        raise InfeasibleError("the set is already feasible; no fort to extract")
    return Fort(VertexSet.from_mask(graph.n, full & ~final))


def _lex_fort_of_size(adj: tuple[int, ...], cand_mask: int, size: int) -> int | None:
    """Lexicographically smallest fort of exactly *size* vertices within
    cand_mask, or None.  Members are added in increasing id order, so the
    first completion found is the lexicographic minimum."""

    def descend(fmask: int, near: int, chosen: int, avail: int) -> int | None:
        # pending: outside vertices seeing exactly one member, each needs a
        # fix.  Only vertices adjacent to a member (near) can see one.
        pending = []
        scan = near & ~fmask
        while scan:
            low = scan & -scan
            scan ^= low
            row = adj[low.bit_length() - 1]
            inside = row & fmask
            if inside & (inside - 1) == 0:
                fix = (avail & low) | (row & avail)
                if fix == 0:
                    return None
                pending.append(fix)
        if chosen == size:
            return fmask if fmask and not pending else None
        taken = 0
        need = 0
        for fix in pending:
            if fix & taken == 0:
                taken |= fix
                need += 1
        if chosen + need > size:
            return None
        # Members are added in increasing id order, so every fix set needs
        # an id at or above the next member; the last member must lie in
        # every fix set.
        cands = avail
        if pending:
            if chosen + 1 == size:
                for fix in pending:
                    cands &= fix
            else:
                cands &= (1 << min(fix.bit_length() for fix in pending)) - 1
        while cands:
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            found = descend(fmask | low, near | adj[v], chosen + 1, avail & -(low << 1))
            if found is not None:
                return found
        return None

    return descend(0, 0, 0, cand_mask)


def _forest_rooting(adj: tuple[int, ...], cand: int) -> tuple[list[int], list[int]] | None:
    """Parents (-1 at a root) and a breadth-first order of the forest that the
    edges with a candidate end span, or None when they close a cycle.

    Only the candidates and their neighbours are reached, and each tree is
    rooted at its lowest id.  With every vertex a candidate this roots the
    whole graph, and that rooting also serves every candidate set: see
    ``_forest_min_fort``.
    """
    n = len(adj)
    near = cand
    scan = cand
    while scan:
        low = scan & -scan
        scan ^= low
        near |= adj[low.bit_length() - 1]
    parent = [-1] * n
    order: list[int] = []
    seen = 0
    unseen = near
    while unseen:
        low = unseen & -unseen  # each root is the lowest unseen vertex
        seen |= low
        i = len(order)
        order.append(low.bit_length() - 1)
        while i < len(order):
            u = order[i]
            i += 1
            nbrs = adj[u] if cand >> u & 1 else adj[u] & cand
            p = parent[u]
            if p >= 0:
                nbrs &= ~(1 << p)
            if nbrs & seen:
                return None
            seen |= nbrs
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                w = low.bit_length() - 1
                parent[w] = u
                order.append(w)
        unseen = near & ~seen
    return parent, order


def _rooting(graph: Graph, cand: int) -> tuple[list[int], list[int]] | None:
    """The rooting ``_forest_min_fort`` walks for *cand*: on a forest the
    graph's own, made on the first call and kept on the graph (which is
    immutable), else one along the edges with a candidate end."""
    rooted = graph._rooting
    if rooted is None:
        rooted = graph._rooting = _forest_rooting(graph.adj, (1 << graph.n) - 1) or ()
    return rooted or _forest_rooting(graph.adj, cand)


def _forest_min_fort(adj: tuple[int, ...], cand: int, rooting: tuple[list[int], list[int]]) -> int:
    """Mask of the least-weight fort inside *cand*, or 0 if there is none,
    on a forest spanned by the edges with a candidate end.

    Only those edges matter (a fort lies inside *cand*), so the walk drops
    the others.  *rooting* is ``_forest_rooting`` of *cand*, or of every
    vertex when the whole graph is a forest: the pass takes a vertex as a
    root when its parent edge has no candidate end, so either rooting gives
    the same trees, apart from the vertices that are neither candidates nor
    next to one, which stay roots of their own with no finite total.  A
    post-order pass keeps four totals per vertex v: A with v in the fort;
    B0, B1, B2 with v outside and 0 (subtree still nonempty), 1 or at least
    2 members among its children.  A child of a member is a member or sees
    at least one member below it; a child of a non-member sees 0 or at
    least 2; the other children stay empty, which costs nothing.

    Vertex v weighs ``2**n - 2**(n-1-v)``, so the least total has the
    fewest members and, among those, the lexicographically least; the
    total decodes back to that mask, whatever the roots.
    """
    parent, order = rooting
    n = len(adj)
    top = 1 << n
    inf = n + 1 << n  # above every feasible total
    in_sum = [0] * n  # sum over children of min(A, B1, B2)
    out_one = [inf] * n  # min over children of min(B0, B2)
    first = [inf] * n  # the two smallest child A
    second = [inf] * n
    best = inf
    # B2 = first + second is never below B1 = first, so min(A, B1, B2) is
    # min(A, B1).
    for v in reversed(order):
        p = parent[v]
        if cand >> v & 1:
            a = top - (top >> v + 1) + in_sum[v]
        else:
            a = inf
            if p >= 0 and not cand >> p & 1:
                p = -1
        b0 = out_one[v]
        b1 = first[v]
        b2 = b1 + second[v]
        if p < 0:
            if a < best:
                best = a
            if b0 < best:
                best = b0
            if b2 < best:
                best = b2
            continue
        in_sum[p] += a if a < b1 else b1
        out = b0 if b0 < b2 else b2
        if out < out_one[p]:
            out_one[p] = out
        if a < first[p]:
            first[p], second[p] = a, first[p]
        elif a < second[p]:
            second[p] = a
    if best >= inf:
        return 0
    low = ((best >> n) + 1 << n) - best  # the sum of 2**(n-1-v) over members
    return int(format(low, f"0{n}b")[::-1], 2)


def minimum_violated_fort(graph: Graph, forbidden: VertexSet) -> Fort:
    """Smallest fort avoiding *forbidden*, ties broken lexicographically.

    When the candidates (the vertices outside *forbidden*) and their
    neighbours induce a forest, as on every tree, one linear dynamic
    program finds it (``_forest_min_fort``); on a graph that is a forest
    it walks the graph's own rooting, made once per graph.  Otherwise,
    when a cycle touches the candidates, a branch and bound over vertex
    inclusion runs for each size 1, 2, ...: members are chosen in
    increasing id order, outside vertices that currently see exactly one
    member must be fixable by a later choice, and pairwise-disjoint fix
    sets bound the number of additions still required.  Either answer is
    certified: a nonempty fort inside the candidates, or, when none is
    found, a forbidden set whose forcing closure is every vertex, since a
    set meets every fort exactly when it forces the graph.

    Two shortcuts in that search keep the answer the one a plain scan
    would return.
    Only neighbours of the partial fort are checked: a vertex with no
    neighbour in it sees no member, so skipping it leaves the pending
    fixes unchanged.  And a branch is entered only if every fix set has
    an id at or above its new member (for the last member: contains it),
    since later members all have higher ids; any other branch would fail
    at its first check.  Both skip only work that finds nothing, and keep
    the order, so the first fort found is the same.
    """
    forbidden = graph._coerce(forbidden)
    adj, n = graph.adj, graph.n
    full = (1 << n) - 1
    cand_mask = full & ~forbidden.mask
    rooting = _rooting(graph, cand_mask)
    found = None if rooting is None else _forest_min_fort(adj, cand_mask, rooting)
    if found is None:
        # Only a cycle that touches the candidates gets here: from
        # reduction_pd_number, ``pdzf forts --x`` and min_forts=True on a
        # graph that is not a forest.  Each size restarts from the root, so
        # a fixed size prunes large partial forts at once; one search with
        # an incumbent would descend into them until its first small fort.
        sizes = range(1, cand_mask.bit_count() + 1)
        found = next((f for k in sizes if (f := _lex_fort_of_size(adj, cand_mask, k))), 0)
    if found == 0:
        if closure_mask(adj, forbidden.mask) != full:
            raise CertificationError("a fort avoids the forbidden set, but none was found")
        raise InfeasibleError("no fort avoids the forbidden set")
    if found & ~cand_mask or not _is_fort_mask(adj, found):
        raise CertificationError(f"mask {found:#x} is not a fort avoiding the forbidden set")
    return Fort(VertexSet.from_mask(n, found))


def enumerate_forts(graph: Graph, guard: int = DEFAULT_FORT_GUARD) -> list[Fort]:
    """All forts, by exhaustive subset check; ordered by size then members."""
    check_guard("fort enumeration", guard, graph.n)
    adj, n = graph.adj, graph.n
    return [
        Fort(VertexSet.from_mask(n, m))
        for k in range(n + 1)
        for m in map(sum, combinations([1 << v for v in range(n)], k))
        if _is_fort_mask(adj, m)
    ]
