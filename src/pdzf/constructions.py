"""Deterministic graph generators and leaf-attachment constructions.

Every generator fixes an explicit labeling so that witnesses, traces and
serialized output are reproducible; the per-family docstrings state the
label conventions.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

from .errors import GraphError
from .graph import Graph, VertexSet

__all__ = [
    "attach_leaves",
    "leaf_bound_witness",
    "apex_over",
    "generate",
    "family_names",
    "family_labels",
]


def attach_leaves(graph: Graph, x: VertexSet | Iterable[int], r: int) -> Graph:
    """The graph with *r* new pendant leaves on every vertex of *x*.

    The base vertices keep their ids 0..n-1; the i-th vertex of *x* in
    increasing order gets the leaves n + r*i, ..., n + r*i + r - 1.
    """
    x = graph._coerce(x)
    if r < 0:
        raise GraphError("leaf count must be nonnegative")
    n = graph.n
    leaves = ((v, n + r * i + j) for i, v in enumerate(x) for j in range(r))
    return Graph(n + r * len(x), chain(graph.edges(), leaves))


def leaf_bound_witness(graph: Graph, x: VertexSet | Iterable[int]) -> Graph:
    """Attach two leaves to every vertex outside *x*.

    The resulting graph has restricted power domination number (relative to
    *x*) equal to the ceiling floor((n + 2|x|) / 3), so it witnesses that
    the bound cannot be improved.
    """
    x = graph._coerce(x)
    return attach_leaves(graph, x.complement(), 2)


def apex_over(graph: Graph, t: VertexSet | Iterable[int]) -> Graph:
    """Add one new vertex (id n) adjacent to exactly the vertices of *t*."""
    t = graph._coerce(t)
    edges = list(graph.edges())
    edges.extend((v, graph.n) for v in t)
    return Graph(graph.n + 1, edges)


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise GraphError(message)


def _path(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    _need(n >= 1, "path needs n >= 1")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def _cycle(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0."""
    _need(n >= 3, "cycle needs n >= 3")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def _star(p: int) -> Graph:
    """Star with center 0 and leaves 1..p."""
    _need(p >= 1, "star needs p >= 1")
    return Graph(p + 1, ((0, i) for i in range(1, p + 1)))


def _complete(n: int) -> Graph:
    """Complete graph on 0..n-1."""
    _need(n >= 1, "complete needs n >= 1")
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def grid2_id(i: int, j: int) -> int:
    """Id of the grid vertex in row i (0-based) and column j in {0, 1}."""
    return 2 * i + j


def _grid2_edges(n: int) -> Iterator[tuple[int, int]]:
    """The rungs, then the two rails, of the n-by-2 grid."""
    rungs = ((grid2_id(i, 0), grid2_id(i, 1)) for i in range(n))
    rails = ((grid2_id(i, j), grid2_id(i + 1, j)) for i in range(n - 1) for j in (0, 1))
    return chain(rungs, rails)


def _grid2(n: int) -> Graph:
    """The n-by-2 grid; vertex (i, j) has id 2i + j."""
    _need(n >= 1, "grid2 needs n >= 1")
    return Graph(2 * n, _grid2_edges(n))


def _grid2_triangles(n: int) -> Graph:
    """The n-by-2 grid with a triangle hung on each end of column 1.

    Ids 2n, 2n+1 form an edge and both attach to vertex 1 (row 0, column
    1); ids 2n+2, 2n+3 form an edge and both attach to vertex 2n-1 (row
    n-1, column 1).
    """
    _need(n >= 2, "grid2_triangles needs n >= 2")
    top, bottom = grid2_id(0, 1), grid2_id(n - 1, 1)
    ends = [(2 * n, 2 * n + 1), (top, 2 * n), (top, 2 * n + 1)]
    ends += [(2 * n + 2, 2 * n + 3), (bottom, 2 * n + 2), (bottom, 2 * n + 3)]
    return Graph(2 * n + 4, chain(_grid2_edges(n), ends))


def _spider_complete(n: int) -> Graph:
    """K_n with a three-vertex spider leg on each vertex.

    Vertex i < n carries the leg a=n+3i, b=n+3i+1, c=n+3i+2 with edges
    i-a, a-b, a-c.
    """
    _need(n >= 1, "spider_complete needs n >= 1")

    def edges() -> Iterator[tuple[int, int]]:
        yield from ((u, v) for u in range(n) for v in range(u + 1, n))
        for i in range(n):
            a = n + 3 * i
            yield from [(i, a), (a, a + 1), (a, a + 2)]

    return Graph(4 * n, edges())


def _double_star_join(p: int, q: int) -> Graph:
    """Two stars joined by a 4-cycle between two leaves of each.

    Centers are c1=0 and c2=p+1; star one has leaves 1..p, star two has
    leaves p+2..p+q+1.  Leaves 1, 2 are joined to leaves p+2, p+3 by all
    four cross edges.
    """
    _need(p >= 2 and q >= 2, "double_star_join needs p, q >= 2")
    star1 = ((0, i) for i in range(1, p + 1))
    star2 = ((p + 1, i) for i in range(p + 2, p + q + 2))
    cross = [(1, p + 2), (1, p + 3), (2, p + 2), (2, p + 3)]
    return Graph(p + q + 2, chain(star1, star2, cross))


def _fig_examples() -> Graph:
    """Seven-vertex tree used by many of the worked examples.

    A path 2-3-4 where 2 carries the leaves 0, 1 and 4 carries the leaves
    5, 6.  Customary 1-based labels are id+1.
    """
    return Graph(7, [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)])


def _fig_zpartition() -> Graph:
    """Eight-vertex graph whose forcing number splits across a partition.

    A triangle {0, 1, 2} whose vertex 1 is also adjacent to the three
    middle vertices 5, 6, 7 of the path 4-5-6-7-3.  Customary 1-based
    labels are id+1.
    """
    return Graph(
        8,
        [(0, 1), (0, 2), (1, 2), (1, 5), (1, 6), (1, 7), (3, 7), (4, 5), (5, 6), (6, 7)],
    )


def _fig_spread() -> Graph:
    """Five-cycle with a pendant on four of its five vertices.

    Cycle 0-1-2-3-4-0; pendant 5+i hangs on cycle vertex i for i < 4.  The
    cycle vertex without a pendant is u=4 and the pendant on vertex 0 is
    v=5; deleting either leaves the forcing number unchanged, yet forcing
    sets through u cost one extra while sets through v do not.
    """
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    edges += [(i, 5 + i) for i in range(4)]
    return Graph(9, edges)


def _c5_hub(k: int) -> Graph:
    """k five-cycles tied to a hub. 5k+1 vertices and 7k edges.

    Copy i is the cycle a=5i, b=5i+1, c=5i+2, v=5i+3, u=5i+4 with edges
    (a,b), (b,c), (c,v), (v,u), (u,a); the hub x=5k is adjacent to v and u
    of every copy.  The number of distinct terminal sets reachable from
    N[x] is 4^k.
    """
    _need(k >= 1, "c5_hub needs k >= 1")

    def edges() -> Iterator[tuple[int, int]]:
        for i in range(k):
            a = 5 * i
            yield from [(a, a + 1), (a + 1, a + 2), (a + 2, a + 3), (a + 3, a + 4), (a + 4, a)]
            yield from [(5 * k, a + 3), (5 * k, a + 4)]

    return Graph(5 * k + 1, edges())


_FAMILIES: dict[str, tuple[int, Callable[..., Graph]]] = {
    "path": (1, _path),
    "cycle": (1, _cycle),
    "star": (1, _star),
    "complete": (1, _complete),
    "grid2": (1, _grid2),
    "grid2_triangles": (1, _grid2_triangles),
    "spider_complete": (1, _spider_complete),
    "double_star_join": (2, _double_star_join),
    "fig_examples": (0, _fig_examples),
    "fig_zpartition": (0, _fig_zpartition),
    "fig_spread": (0, _fig_spread),
    "c5_hub": (1, _c5_hub),
}

_LABELS: dict[str, Callable[[Graph], dict[int, str]]] = {
    "fig_examples": lambda g: {i: str(i + 1) for i in range(g.n)},
    "fig_zpartition": lambda g: {i: str(i + 1) for i in range(g.n)},
    "fig_spread": lambda g: {4: "u", 5: "v"},
}


def family_names() -> tuple[str, ...]:
    return tuple(_FAMILIES)


def generate(name: str, params: Sequence[int] = ()) -> Graph:
    """Build the named family member; see the per-family docstrings."""
    try:
        arity, builder = _FAMILIES[name]
    except KeyError:
        raise GraphError(f"unknown family {name!r}; known: {', '.join(_FAMILIES)}") from None
    if len(params) != arity:
        raise GraphError(f"family {name!r} takes {arity} parameter(s), got {len(params)}")
    return builder(*params)


def family_labels(name: str, graph: Graph) -> dict[int, str]:
    """Display labels for generated vertices (empty when ids are the labels)."""
    fn = _LABELS.get(name)
    return fn(graph) if fn else {}
