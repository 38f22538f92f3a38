"""Propagation processes: zero forcing and power domination.

The color change rule: a blue vertex u with exactly one white neighbor w
forces w to become blue.  Zero forcing iterates the rule from an initial
blue set B; power domination first colors the closed neighborhood of S
(the domination step), then iterates the rule.  Both processes reach a
unique final set regardless of force order.  When w turns blue only w and
its blue neighbors can gain a force; every other blue vertex keeps its
count of white neighbors.  So after the first scan nothing here rescans
the blue set: ``closure_mask`` keeps a worklist of such vertices and
stops when it is empty, a trace round scans the vertices the previous
round colored and their blue neighbors, and a terminal-set state scans
its parent's forcers, the new blue vertex and its blue neighbors.

Each final mask is a closure: cl(A | B) = cl(cl(A) | B).  So the final
mask of S + v follows from cl, the final mask of S, by one more pass
(``final_step``).  The pass starts from cl plus the vertices v adds, which
are v for zero forcing and the new part of N[v] for power domination,
and its worklist holds only those vertices and their blue neighbors:
every other vertex of cl had no force in cl and keeps its white
neighbors.  Domination has no forcing, and its step is cl | N[v].

Traces are round-based: each round applies every force that was legal at
the start of the round, in increasing forcer id, skipping forces whose
target was already colored earlier in the same round.  The domination
step of power domination is round 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import CertificationError, GuardExceededError, InconsistentTraceError, InfeasibleError
from .graph import Graph, VertexSet, bits, dominated_mask

__all__ = [
    "PropagationTrace",
    "ForcingChainDecomposition",
    "zf_closure",
    "pd_observe",
    "is_zero_forcing_set",
    "is_power_dominating_set",
    "forcing_chains",
    "enumerate_terminal_sets",
    "DEFAULT_TERMINAL_CAP",
    "certify",
]

DEFAULT_TERMINAL_CAP = 10**6


def closure_mask(adj: tuple[int, ...], blue: int, todo: int | None = None) -> int:
    """Zero-forcing closure of the blue bitmask, one worklist pass.

    The worklist starts as *todo*, by default every blue vertex; a caller
    may pass fewer only when no other blue vertex has a force.
    """
    if todo is None:
        todo = blue
    while todo:
        low = todo & -todo
        todo ^= low
        white = adj[low.bit_length() - 1] & ~blue
        if white and white & (white - 1) == 0:
            blue |= white
            todo |= white | adj[white.bit_length() - 1] & blue
    return blue


def final_mask(adj: tuple[int, ...], mask: int, mode: str) -> int:
    """Final bitmask of one run from *mask*: observed ("pd"), forced ("zf")
    or dominated ("dom").  Any other mode raises ValueError."""
    if mode == "pd":
        return closure_mask(adj, dominated_mask(adj, mask))
    if mode == "zf":
        return closure_mask(adj, mask)
    if mode == "dom":
        return dominated_mask(adj, mask)
    raise ValueError(f"mode must be 'pd', 'zf' or 'dom', got {mode!r}")


def final_step(adj: tuple[int, ...], mode: str) -> Callable[[int, int], int]:
    """``step(cl, v)``: the final bitmask of S + v in *mode*, given cl, the
    final bitmask of S.  Any other mode raises ValueError."""
    if mode == "dom":
        return lambda cl, v: cl | adj[v] | 1 << v
    if mode == "zf":

        def zf_step(cl: int, v: int) -> int:
            bit = 1 << v
            if cl & bit:
                return cl
            blue = cl | bit
            return closure_mask(adj, blue, (adj[v] | bit) & blue)

        return zf_step
    if mode == "pd":

        def pd_step(cl: int, v: int) -> int:
            new = (adj[v] | 1 << v) & ~cl
            if not new:
                return cl
            blue = cl | new
            return closure_mask(adj, blue, dominated_mask(adj, new) & blue)

        return pd_step
    raise ValueError(f"mode must be 'pd', 'zf' or 'dom', got {mode!r}")


def certify(graph: Graph, witness: VertexSet, x, mode: str, value: int | None = None) -> VertexSet:
    """Return *witness* if it contains X, has *value* members (when given) and
    reaches every vertex in *mode*; else raise CertificationError, a bug."""
    if not graph._coerce(x).issubset(witness):
        raise CertificationError(f"witness {sorted(witness)} does not contain X")
    if value is not None and len(witness) != value:
        raise CertificationError(f"witness has size {len(witness)}, the value is {value}")
    if final_mask(graph.adj, witness.mask, mode) != (1 << graph.n) - 1:
        raise CertificationError(f"witness {sorted(witness)} fails to propagate in mode {mode!r}")
    return witness


@dataclass(frozen=True)
class PropagationTrace:
    """Round-by-round record of one propagation run.

    ``initial`` is the blue set when forcing starts: B for zero forcing,
    N[S] for power domination.  ``dominated`` holds the vertices colored by
    the round-0 domination step (empty for zero forcing), so the original
    sources are ``initial - dominated``.  ``rounds`` lists the forces of
    each forcing round as (forcer, forced) pairs.
    """

    initial: VertexSet
    dominated: VertexSet
    rounds: tuple[tuple[tuple[int, int], ...], ...]
    final: VertexSet

    @property
    def forces(self) -> tuple[tuple[int, int], ...]:
        return tuple(f for rnd in self.rounds for f in rnd)


@dataclass(frozen=True)
class ForcingChainDecomposition:
    """Maximal force chains of a trace; ``terminals`` are the chain ends."""

    chains: tuple[tuple[int, ...], ...]
    terminals: VertexSet


def _forces(adj: tuple[int, ...], blue: int, cand: int) -> list[tuple[int, int]]:
    """Legal forces (u, white bit) of the blue vertices in *cand*, u increasing."""
    out = []
    for u in bits(cand & blue):
        white = adj[u] & ~blue
        if white and white & (white - 1) == 0:
            out.append((u, white))
    return out


def _trace(graph: Graph, blue: int, dominated: int) -> PropagationTrace:
    """Trace of zero forcing from *blue*; a domination step colored *dominated*."""
    adj, n = graph.adj, graph.n
    initial, scan, rounds = blue, blue, []
    while True:
        legal = _forces(adj, blue, scan)
        scan, applied = 0, []
        for u, white in legal:
            if blue & white:
                continue  # target colored earlier this round
            w = white.bit_length() - 1
            blue |= white
            scan |= white | adj[w]
            applied.append((u, w))
        if not applied:
            break
        rounds.append(tuple(applied))
    return PropagationTrace(
        initial=VertexSet.from_mask(n, initial),
        dominated=VertexSet.from_mask(n, dominated),
        rounds=tuple(rounds),
        final=VertexSet.from_mask(n, blue),
    )


def zf_closure(graph: Graph, b: VertexSet) -> PropagationTrace:
    """Run zero forcing from B and return the full trace."""
    return _trace(graph, graph._coerce(b).mask, 0)


def pd_observe(graph: Graph, s: VertexSet) -> PropagationTrace:
    """Run power domination from S: dominate N[S], then zero-force."""
    s = graph._coerce(s)
    observed = dominated_mask(graph.adj, s.mask)
    return _trace(graph, observed, observed & ~s.mask)


def is_zero_forcing_set(graph: Graph, b: VertexSet) -> bool:
    return final_mask(graph.adj, graph._coerce(b).mask, "zf") == (1 << graph.n) - 1


def is_power_dominating_set(graph: Graph, s: VertexSet) -> bool:
    return final_mask(graph.adj, graph._coerce(s).mask, "pd") == (1 << graph.n) - 1


def forcing_chains(graph: Graph, trace: PropagationTrace) -> ForcingChainDecomposition:
    """Decompose a trace into its force chains.

    Every vertex of ``trace.final`` lies on exactly one chain and every
    chain starts at a vertex of ``trace.initial``, so the number of chains
    equals ``len(trace.initial)``.  Raises if the trace does not replay
    legally on *graph*.
    """
    adj = graph.adj
    blue = trace.initial.mask
    succ: dict[int, int] = {}
    for u, w in trace.forces:
        if not blue >> u & 1:
            raise InconsistentTraceError(f"forcer {u} is not blue")
        white = adj[u] & ~blue
        if white != 1 << w:
            raise InconsistentTraceError(f"{w} is not the unique white neighbor of {u}")
        succ[u] = w
        blue |= 1 << w
    if blue != trace.final.mask:
        raise InconsistentTraceError("replayed final set does not match the trace")
    chains = []
    last = []
    for head in trace.initial:
        chain = [head]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        chains.append(tuple(chain))
        last.append(chain[-1])
    return ForcingChainDecomposition(
        chains=tuple(chains), terminals=VertexSet(graph.n, last)
    )


def enumerate_terminal_sets(
    graph: Graph, b: VertexSet, cap: int = DEFAULT_TERMINAL_CAP
) -> set[VertexSet]:
    """All distinct terminal sets over the chronological force orders from B.

    A terminal set is the set of chain ends of one complete forcing run.
    The count can grow exponentially; enumeration stops with an error once
    more than *cap* distinct sets appear.

    The search memoizes on the blue set: the reachable sets of future
    forcers depend only on the current coloring, and a terminal set is the
    complement of the full forcer set.
    """
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    b = graph._coerce(b)
    adj = graph.adj
    full = (1 << graph.n) - 1
    if not is_zero_forcing_set(graph, b):
        raise InfeasibleError("the given set does not force the whole graph")
    # memo maps a blue set to the sets of vertices that force after it.
    # An explicit stack resolves the states children first, in increasing
    # forcer order: recursing once per force overflows on long paths.  A
    # state waits with its candidate forcers, then with its moves until its
    # children are done; a child already in the memo is popped at once.
    memo: dict[int, frozenset[int]] = {full: frozenset((0,))}
    stack: list[tuple[int, int, list | None]] = [(b.mask, b.mask, None)]
    while stack:
        blue, cand, moves = stack[-1]
        if blue in memo:
            stack.pop()
            continue
        if moves is None:
            moves = _forces(adj, blue, cand)
            stack[-1] = (blue, cand, moves)
            legal = sum(1 << u for u, _ in moves)
            for _, white in reversed(moves):
                stack.append((blue | white, legal | white | adj[white.bit_length() - 1], None))
            continue
        out = {rest | 1 << u for u, w in moves for rest in memo[blue | w]}
        if len(out) > cap:
            raise GuardExceededError(
                f"more than cap={cap} terminal sets (partial count {len(out)})"
            )
        memo[blue] = frozenset(out)
        stack.pop()

    return {
        VertexSet.from_mask(graph.n, full & ~forcers)
        for forcers in memo[b.mask]
    }
