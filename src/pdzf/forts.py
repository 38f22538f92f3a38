"""Forts, the certificates that a set cannot finish forcing.

A fort is a nonempty set F such that no vertex outside F has exactly one
neighbor inside F.  Forcing can never enter an untouched fort: a zero
forcing set must intersect F itself, and a power dominating set must
intersect N[F].  The complement of any failed closure is a fort, which is
what drives the constraint-generation solver.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InfeasibleError, check_guard
from .graph import Graph, VertexSet, bits, supersets
from .propagation import final_mask

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


def _is_fort_mask(adj: tuple[int, ...], n: int, fmask: int) -> bool:
    if fmask == 0:
        return False
    outside = (1 << n) - 1 & ~fmask
    for w in bits(outside):
        inside = adj[w] & fmask
        if inside and inside & (inside - 1) == 0:
            return False
    return True


def is_fort(graph: Graph, f: VertexSet) -> bool:
    f = graph._coerce(f)
    return _is_fort_mask(graph.adj, graph.n, f.mask)


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


def minimum_violated_fort(graph: Graph, forbidden: VertexSet) -> Fort:
    """Smallest fort avoiding *forbidden*, ties broken lexicographically.

    Branch and bound over vertex inclusion: members are chosen in
    increasing id order, outside vertices that currently see exactly one
    member must be fixable by a later choice, and pairwise-disjoint fix
    sets bound the number of additions still required.

    Two shortcuts keep the answer the one a plain scan would return.
    Only neighbours of the partial fort are checked: a vertex with no
    neighbour in it sees no member, so skipping it leaves the pending
    fixes unchanged.  And a branch is entered only if every fix set has
    an id at or above its new member (for the last member: contains it),
    since later members all have higher ids; any other branch would fail
    at its first check.  Both skip only work that finds nothing, and keep
    the order, so the first fort found is the same.
    """
    forbidden = graph._coerce(forbidden)
    cand_mask = (1 << graph.n) - 1 & ~forbidden.mask
    # Each size restarts from the root on purpose.  One branch and bound
    # with an incumbent found the same forts on the separations of 60 small
    # random trees but took about 5x as long: until its first small fort it
    # descends into large partial forts that a fixed size prunes at once.
    for size in range(1, cand_mask.bit_count() + 1):
        found = _lex_fort_of_size(graph.adj, cand_mask, size)
        if found is not None:
            return Fort(VertexSet.from_mask(graph.n, found))
    raise InfeasibleError("no fort avoids the forbidden set")


def enumerate_forts(graph: Graph, guard: int = DEFAULT_FORT_GUARD) -> list[Fort]:
    """All forts, by exhaustive subset check; ordered by size then members."""
    check_guard("fort enumeration", guard, graph.n)
    adj, n = graph.adj, graph.n
    found = (m for size in supersets(0, n) for m, _ in size if _is_fort_mask(adj, n, m))
    return [Fort(VertexSet.from_mask(n, m)) for m in found]
