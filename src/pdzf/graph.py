"""Core graph and vertex-set types.

Vertices are dense 0-based integers.  Adjacency and vertex sets are stored
as int bitmasks, which keeps the propagation and covering loops tight; the
public surface deals in :class:`VertexSet` objects and plain ints.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from .errors import EdgeListError, GraphError

__all__ = ["VertexSet", "Graph", "IndexMap", "from_edge_list", "to_edge_list"]


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of *mask* in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def dominated_mask(adj: tuple[int, ...], mask: int) -> int:
    """The closed neighborhood N[S] of the bitmask of S."""
    out = mask
    for v in bits(mask):
        out |= adj[v]
    return out


class VertexSet:
    """An immutable subset of the vertex range ``[0, n)``.

    Supports set algebra (``|``, ``&``, ``-``, :meth:`complement`), ``len``,
    membership tests and iteration in increasing id order.  Operations are
    only defined between sets over the same ambient ``n``.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, members: Iterable[int] = ()) -> None:
        if n < 0:
            raise GraphError("ambient size must be nonnegative")
        mask = 0
        for v in members:
            if not 0 <= v < n:
                raise GraphError(f"vertex {v} out of range [0, {n})")
            mask |= 1 << v
        self.n = n
        self.mask = mask

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "VertexSet":
        if n < 0:
            raise GraphError("ambient size must be nonnegative")
        if mask < 0 or mask >> n:
            raise GraphError(f"mask {mask:#x} does not fit in {n} bits")
        obj = cls.__new__(cls)
        obj.n = n
        obj.mask = mask
        return obj

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls.from_mask(n, (1 << max(n, 0)) - 1)

    def _check(self, other: "VertexSet") -> None:
        if not isinstance(other, VertexSet):
            raise TypeError(f"expected VertexSet, got {type(other).__name__}")
        if other.n != self.n:
            raise GraphError(f"mixed ambient sizes {self.n} and {other.n}")

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return bits(self.mask)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and self.mask >> v & 1 == 1

    def __bool__(self) -> bool:
        return self.mask != 0

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet.from_mask(self.n, self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet.from_mask(self.n, self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet.from_mask(self.n, self.mask & ~other.mask)

    def complement(self) -> "VertexSet":
        return VertexSet.from_mask(self.n, ~self.mask & (1 << self.n) - 1)

    def issubset(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def isdisjoint(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.mask & other.mask == 0

    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"VertexSet({self.n}, {{{', '.join(map(str, self))}}})"


class IndexMap:
    """Correspondence between original ids and compacted subgraph ids."""

    __slots__ = ("n_old", "to_old")

    def __init__(self, n_old: int, to_old: tuple[int, ...]) -> None:
        self.n_old = n_old
        self.to_old = to_old

    def restrict(self, s: VertexSet) -> VertexSet:
        """Map an old-id set to new ids, dropping vertices not kept."""
        members = (new for new, old in enumerate(self.to_old) if s.mask >> old & 1)
        return VertexSet(len(self.to_old), members)

    def lift(self, s: VertexSet) -> VertexSet:
        """Map a new-id set back to the original id space."""
        return VertexSet(self.n_old, (self.to_old[v] for v in s))

    def __repr__(self) -> str:
        return f"IndexMap({self.n_old}, {self.to_old!r})"


class Graph:
    """A simple undirected graph on vertices ``0..n-1``.

    ``adj[v]`` is the neighbor bitmask of ``v``.  Instances are immutable;
    every editing operation returns a new graph.  ``_rooting`` starts as
    None; the fort search fills it in with the graph's rooting as a forest
    (``forts._rooting``), which depends on ``adj`` alone.
    """

    __slots__ = ("n", "adj", "_rooting")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) outside vertex range [0, {n})")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if adj[u] >> v & 1:
                raise GraphError(f"duplicate edge ({u}, {v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)
        self._rooting = None

    @classmethod
    def _from_masks(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        obj = cls.__new__(cls)
        obj.n = n
        obj.adj = adj
        obj._rooting = None
        return obj

    @property
    def m(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def vertices(self) -> range:
        return range(self.n)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} out of range [0, {self.n})")

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        if self.n == 0:
            raise GraphError("the empty graph has no maximum degree")
        return max(a.bit_count() for a in self.adj)

    def neighbors(self, v: int) -> VertexSet:
        self._check_vertex(v)
        return VertexSet.from_mask(self.n, self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            out.extend((u, v) for v in bits(rest))
        return out

    def vertex_set(self, members: Iterable[int] = ()) -> VertexSet:
        return VertexSet(self.n, members)

    def full_set(self) -> VertexSet:
        return VertexSet.full(self.n)

    def _coerce(self, s: VertexSet | Iterable[int] | None) -> VertexSet:
        """*s* as a set over this graph's vertices; None is the empty set."""
        if isinstance(s, VertexSet):
            if s.n != self.n:
                raise GraphError(f"vertex set over {s.n} used with graph on {self.n}")
            return s
        return VertexSet(self.n, () if s is None else s)

    def closed_neighborhood(self, s: VertexSet | Iterable[int]) -> VertexSet:
        return VertexSet.from_mask(self.n, dominated_mask(self.adj, self._coerce(s).mask))

    def components(self) -> list[VertexSet]:
        """Connected components, ordered by smallest member."""
        seen = 0
        out = []
        for v in range(self.n):
            if seen >> v & 1:
                continue
            comp = 1 << v
            frontier = 1 << v
            while frontier:
                grown = comp | dominated_mask(self.adj, frontier)
                frontier = grown & ~comp
                comp = grown
            seen |= comp
            out.append(VertexSet.from_mask(self.n, comp))
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def is_tree(self) -> bool:
        return self.n >= 1 and self.m == self.n - 1 and self.is_connected()

    def induced_subgraph(self, keep: VertexSet | Iterable[int]) -> tuple["Graph", IndexMap]:
        """Induced subgraph on *keep*, with ids compacted in increasing order."""
        keep = self._coerce(keep)
        if keep.mask == (1 << self.n) - 1:
            # The graph itself, graphs being immutable, without walking every bit.
            return self, IndexMap(self.n, tuple(range(self.n)))
        to_old = keep.members()
        index = IndexMap(self.n, to_old)
        adj = []
        for old in to_old:
            inside = self.adj[old] & keep.mask
            row = 0
            for w in bits(inside):
                row |= 1 << (keep.mask & ((1 << w) - 1)).bit_count()
            adj.append(row)
        return Graph._from_masks(len(to_old), tuple(adj)), index

    def delete_vertex(self, v: int) -> "Graph":
        """The graph minus *v*, ids above *v* shifted down by one."""
        self._check_vertex(v)
        sub, _ = self.induced_subgraph(VertexSet.from_mask(self.n, ((1 << self.n) - 1) ^ (1 << v)))
        return sub

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def from_edge_list(source: str) -> Graph:
    """Parse the textual edge-list format.

    Lines starting with ``#`` and blank lines are ignored.  The first data
    line is the header ``n m``; exactly *m* data lines ``u v`` follow, each
    an undirected edge with ``0 <= u, v < n``, no self-loops and no
    duplicates in either orientation.  Every malformed list raises
    :class:`EdgeListError`, whose ``line`` is the 1-based offending line.
    """
    header: tuple[int, int] | None = None
    # Only vertices with an edge get a row until the end: a parse error allocates nothing.
    rows: defaultdict[int, int] = defaultdict(int)
    count = 0
    last_line = 0
    for line_no, raw in enumerate(source.splitlines(), 1):
        last_line = line_no
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        tokens = text.split()
        if header is None:
            if len(tokens) != 2:
                raise EdgeListError(f"expected header 'n m', got {text!r}", line_no)
            try:
                n, m = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise EdgeListError(f"non-integer header {text!r}", line_no) from None
            if n < 0 or m < 0:
                raise EdgeListError(f"negative count in header {text!r}", line_no)
            header = (n, m)
            continue
        n, m = header
        if count == m:
            raise EdgeListError(f"more than the declared {m} edges", line_no)
        if len(tokens) != 2:
            raise EdgeListError(f"expected edge 'u v', got {text!r}", line_no)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(f"non-integer edge {text!r}", line_no) from None
        for w in (u, v):
            if not 0 <= w < n:
                raise EdgeListError(f"vertex {w} out of range [0, {n})", line_no)
        if u == v:
            raise EdgeListError(f"self-loop at vertex {u}", line_no)
        if rows[u] >> v & 1:
            raise EdgeListError(f"duplicate edge ({u}, {v})", line_no)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        count += 1
    if header is None:
        raise EdgeListError("missing 'n m' header", max(last_line, 1))
    n, m = header
    if count != m:
        raise EdgeListError(f"declared {m} edges, found {count}", max(last_line, 1))
    adj = [0] * n
    for v, row in rows.items():
        adj[v] = row
    return Graph._from_masks(n, tuple(adj))


def to_edge_list(graph: Graph) -> str:
    """Serialize to the canonical edge-list form (header, sorted 'u v' lines)."""
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"
