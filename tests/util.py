"""Shared test helpers: seeded generators, a small-graph sweep,
full-rescan reference implementations of the forcing traces and the
terminal-set enumeration, a set-cover search that enters every node, a
byte-backed standard input and a fresh interpreter."""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
from functools import lru_cache
from itertools import combinations

from pdzf import Graph, GuardExceededError, VertexSet
from pdzf.graph import bits

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh_python(
    code: str, argv=(), stdin: str | bytes = "", env: dict[str, str] | None = None
) -> subprocess.CompletedProcess:
    """Run *code* with *argv* in a new interpreter that imports pdzf from
    this checkout, so that no module is loaded before the code runs.
    With *stdin* as bytes, the streams are bytes too; *env* adds to the
    environment."""
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        input=stdin,
        capture_output=True,
        text=isinstance(stdin, str),
        env={**os.environ, **(env or {}), "PYTHONPATH": SRC},
        timeout=60,
    )


def stdin_of(text: str) -> io.TextIOWrapper:
    """A standard input holding *text* as UTF-8 bytes, as a pipe holds it."""
    return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform labeled tree from a random Pruefer sequence."""
    if n <= 2:
        return Graph(n, [(0, 1)] if n == 2 else [])
    import heapq

    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for v in seq:
        deg[v] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        u = heapq.heappop(leaves)
        edges.append((u, v))
        deg[v] -= 1
        if deg[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph(n, edges)


def random_connected_graph(n: int, rng: random.Random, extra: int | None = None) -> Graph:
    """Random spanning tree plus *extra* random chords (default about n/2)."""
    edges = {(min(u, v), max(u, v)) for u, v in ((i, rng.randrange(i)) for i in range(1, n))}
    if extra is None:
        extra = rng.randint(0, max(1, n // 2))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def random_graph(n: int, rng: random.Random, p: float = 0.4) -> Graph:
    """Erdos-Renyi, possibly disconnected."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_subset(n: int, rng: random.Random, k: int | None = None) -> tuple[int, ...]:
    if k is None:
        k = rng.randint(0, n)
    return tuple(sorted(rng.sample(range(n), k)))


def _refine(nbrs: list[list[int]], color: list[int]) -> list[int]:
    """Colour refinement to a fixpoint.

    A colour is the position where its cell starts in the ordered
    partition.  Each round recolours a vertex by its colour and the
    multiset of its neighbours' colours, ranked in sorted order, so the
    result depends only on the coloured graph and every cell splits in
    place.  The multiset is packed into one integer, a digit per colour
    in a base above any degree.
    """
    shift = len(nbrs).bit_length()
    digit = [1 << shift * c for c in range(len(nbrs))]
    count = len(set(color))
    while True:
        sig = [(c, sum([digit[color[u]] for u in nb])) for c, nb in zip(color, nbrs)]
        start: dict[tuple[int, int], int] = {}
        for i, key in enumerate(sorted(sig)):
            start.setdefault(key, i)
        color = [start[key] for key in sig]
        if len(start) in (count, len(nbrs)):  # stable, or discrete
            return color
        count = len(start)


def _canon(n: int, edges: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """Canonical integer form: the minimum edge bitmap over the leaves of an
    individualization-refinement search.

    Refinement and the choice of the first non-singleton cell commute with
    relabelling, so the set of leaf bitmaps, and its minimum, is the same
    for isomorphic graphs.  Of two twins in a cell (equal neighbourhoods
    apart from each other) only one is individualized: swapping them is an
    automorphism that fixes the colouring, so both subtrees give the same
    leaves.
    """
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    nbrs = [[u for u in range(n) if adj[v] >> u & 1] for v in range(n)]
    best = None

    def search(color: list[int]) -> None:
        nonlocal best
        color = _refine(nbrs, color)
        sizes = [0] * n
        for c in color:
            sizes[c] += 1
        target = next((c for c in range(n) if sizes[c] > 1), None)
        if target is None:
            code = 0
            for u, v in edges:
                a, b = sorted((color[u], color[v]))
                code |= 1 << (a * n + b)
            if best is None or code < best:
                best = code
            return
        tried: list[int] = []
        for v in range(n):
            if color[v] != target:
                continue
            if any((adj[u] ^ adj[v]) & ~(1 << u | 1 << v) == 0 for u in tried):
                continue
            tried.append(v)
            search([c + (c == target and u != v) for u, c in enumerate(color)])

    search([0] * n)
    return n, best


@lru_cache(maxsize=None)
def graph_sweep(max_n: int) -> tuple[Graph, ...]:
    """All connected graphs with 1..max_n vertices, one per isomorphism class.

    Built by extending every (n-1)-vertex class representative with one new
    vertex over all neighborhoods, deduplicating by canonical form; the
    intermediate levels keep disconnected graphs so nothing is missed.
    """
    levels: dict[int, dict[tuple[int, int], tuple[tuple[int, int], ...]]] = {
        1: {_canon(1, ()): ()}
    }
    for n in range(2, max_n + 1):
        level: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        for edges in levels[n - 1].values():
            for nbhd_size in range(n):
                for nbhd in combinations(range(n - 1), nbhd_size):
                    grown = edges + tuple((u, n - 1) for u in nbhd)
                    key = _canon(n, grown)
                    if key not in level:
                        level[key] = grown
        levels[n] = level
    out = []
    for n in range(1, max_n + 1):
        for edges in levels[n].values():
            g = Graph(n, edges)
            if g.is_connected():
                out.append(g)
    return tuple(out)


@lru_cache(maxsize=None)
def tree_sweep(max_n: int) -> tuple[Graph, ...]:
    """All trees with 1..max_n vertices, one per isomorphism class.

    Every tree on n vertices is a tree on n - 1 vertices plus a leaf, so
    each level grows every class of the level below by a leaf at every
    vertex, deduplicating by canonical form.
    """
    level = {_canon(1, ()): ()}
    out = [Graph(1)]
    for n in range(2, max_n + 1):
        grown: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        for edges in level.values():
            for u in range(n - 1):
                tree = edges + ((u, n - 1),)
                grown.setdefault(_canon(n, tree), tree)
        level = grown
        out.extend(Graph(n, edges) for edges in level.values())
    return tuple(out)


def reference_rounds(adj: tuple[int, ...], blue: int) -> tuple[tuple, int]:
    """Forcing rounds and final bitmask from *blue*, rescanning every blue
    vertex in each round: each round applies the forces legal at its start,
    in increasing forcer id, skipping targets colored earlier in it."""
    rounds = []
    while True:
        legal = []
        for u in bits(blue):
            white = adj[u] & ~blue
            if white and white & (white - 1) == 0:
                legal.append((u, white.bit_length() - 1))
        applied = []
        for u, w in legal:
            if blue >> w & 1:
                continue
            blue |= 1 << w
            applied.append((u, w))
        if not applied:
            return tuple(rounds), blue
        rounds.append(tuple(applied))


def reference_terminal_sets(graph: Graph, b: VertexSet, cap: int) -> set[VertexSet]:
    """Terminal sets from the zero forcing set *b*, with every memo state
    scanning all its blue vertices for forcers; raises GuardExceededError
    with the library's message once a state has more than *cap* sets."""
    adj = graph.adj
    full = (1 << graph.n) - 1
    memo: dict[int, frozenset[int]] = {full: frozenset((0,))}
    stack: list[tuple[int, list | None]] = [(b.mask, None)]
    while stack:
        blue, moves = stack[-1]
        if blue in memo:
            stack.pop()
            continue
        if moves is None:
            moves = []
            for u in bits(blue):
                white = adj[u] & ~blue
                if white and white & (white - 1) == 0:
                    moves.append((1 << u, blue | white))
            stack[-1] = (blue, moves)
            pending = [(after, None) for _, after in reversed(moves) if after not in memo]
            if pending:
                stack.extend(pending)
                continue
        out = {rest | ubit for ubit, after in moves for rest in memo[after]}
        if len(out) > cap:
            raise GuardExceededError(
                f"more than cap={cap} terminal sets (partial count {len(out)})"
            )
        memo[blue] = frozenset(out)
        stack.pop()
    return {VertexSet.from_mask(graph.n, full & ~forcers) for forcers in memo[b.mask]}


def reference_cover_exact(n: int, degs: tuple[int, ...], rows, forced: int) -> tuple[int, int]:
    """The set-cover branch and bound of ``pdzf.solver._cover_exact``
    entering every node it counts, each to prune it on entry: the same
    greedy start, branching order, bound and (cover, node count)."""
    rows = list(rows)
    col = [sum(1 << i for i, r in enumerate(rows) if r >> v & 1) for v in range(n)]
    every = (1 << len(rows)) - 1
    for v in bits(forced):
        every &= ~col[v]
    best, left = forced, every
    while left:
        hits = [(c & left).bit_count() for c in col]
        best_v = hits.index(max(hits))
        best |= 1 << best_v
        left &= ~col[best_v]
    best_size = best.bit_count()
    nodes = 0

    def dfs(chosen: int, size: int, todo: int, banned: int) -> None:
        nonlocal best, best_size, nodes
        nodes += 1
        if not todo:
            if size < best_size:
                best, best_size = chosen, size
            return
        pick_size = n + 1
        taken = 0
        lower = 0
        for i in bits(todo):
            a = rows[i] & ~banned
            if a.bit_count() < pick_size:
                pick, pick_size = a, a.bit_count()
            if a & taken == 0:
                taken |= a
                lower += 1
        if size + lower >= best_size:
            return
        for v in sorted(bits(pick), key=lambda v: (-(col[v] & todo).bit_count(), -degs[v])):
            vbit = 1 << v
            dfs(chosen | vbit, size + 1, todo & ~col[v], banned)
            banned |= vbit

    dfs(forced, forced.bit_count(), every, 0)
    return best, nodes
