"""Core graph and vertex-set behavior."""

import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdzf import (
    EdgeListError,
    Graph,
    GraphError,
    VertexSet,
    brute_force_min,
    from_edge_list,
    k_restricted_number,
    to_edge_list,
)
from pdzf.graph import supersets

from util import random_connected_graph, random_graph


@st.composite
def subsets(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    members = draw(st.lists(st.integers(min_value=0, max_value=max(n - 1, 0)), max_size=n))
    members = [v for v in members if v < n]
    return n, members


class TestVertexSet:
    def test_construction_and_membership(self):
        s = VertexSet(6, [4, 1, 1])
        assert len(s) == 2
        assert list(s) == [1, 4]
        assert 1 in s and 4 in s and 0 not in s and 6 not in s and -1 not in s
        assert s.members() == (1, 4)
        assert bool(s)
        assert not VertexSet(6)

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            VertexSet(3, [3])
        with pytest.raises(GraphError):
            VertexSet(3, [-1])
        with pytest.raises(GraphError):
            VertexSet(-1)
        with pytest.raises(GraphError):
            VertexSet.from_mask(-1, 0)
        with pytest.raises(GraphError):
            VertexSet.full(-1)
        with pytest.raises(GraphError):
            VertexSet.from_mask(3, 1 << 3)

    @given(subsets(), subsets())
    def test_algebra_matches_builtin_sets(self, a, b):
        n, am = a
        _, bm = b
        bm = [v for v in bm if v < n]
        x, y = VertexSet(n, am), VertexSet(n, bm)
        sx, sy = set(am), set(bm)
        assert set(x | y) == sx | sy
        assert set(x & y) == sx & sy
        assert set(x - y) == sx - sy
        assert x.issubset(y) == (sx <= sy)
        assert x.isdisjoint(y) == sx.isdisjoint(sy)
        assert set(x.complement()) == set(range(n)) - sx
        assert (x == y) == (sx == sy)

    def test_mixed_sizes_rejected(self):
        with pytest.raises(GraphError):
            VertexSet(3) | VertexSet(4)
        with pytest.raises(TypeError):
            VertexSet(3) | {1}

    def test_full_and_mask_round_trip(self):
        s = VertexSet.full(5)
        assert len(s) == 5
        assert VertexSet.from_mask(5, s.mask) == s

    def test_pickle_round_trip(self):
        s = VertexSet(9, [0, 3, 8])
        assert pickle.loads(pickle.dumps(s)) == s

    def test_hash_and_repr(self):
        assert hash(VertexSet(4, [1])) == hash(VertexSet(4, [1]))
        assert repr(VertexSet(4, [1, 3])) == "VertexSet(4, {1, 3})"


class TestGraph:
    def test_basic_accessors(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.n == 4 and g.m == 4
        assert g.degree(0) == 2
        assert g.max_degree() == 2
        assert 1 in g.neighbors(0) and 2 not in g.neighbors(0)
        assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert set(g.neighbors(1)) == {0, 2}
        assert g.vertices() == range(4)

    def test_validation(self):
        with pytest.raises(GraphError):
            Graph(-1)
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(GraphError):
            Graph(0).max_degree()
        with pytest.raises(GraphError):
            Graph(3).degree(5)

    def test_closed_neighborhood(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        assert set(g.closed_neighborhood([1])) == {0, 1, 2}
        assert set(g.closed_neighborhood(g.vertex_set([0, 3]))) == {0, 1, 3, 4}
        assert g.closed_neighborhood(None) == g.vertex_set()  # None is the empty set
        with pytest.raises(GraphError):
            g.closed_neighborhood(VertexSet(4, [0]))

    def test_components_ordered_by_smallest_member(self):
        g = Graph(6, [(2, 4), (1, 5), (0, 3)])
        comps = g.components()
        assert [sorted(c) for c in comps] == [[0, 3], [1, 5], [2, 4]]
        assert not g.is_connected()
        assert Graph(1).is_connected()
        assert Graph(0).is_connected()

    def test_is_tree(self):
        assert Graph(3, [(0, 1), (1, 2)]).is_tree()
        assert not Graph(3, [(0, 1), (1, 2), (0, 2)]).is_tree()
        assert not Graph(3, [(0, 1)]).is_tree()
        assert Graph(1).is_tree()
        assert not Graph(0).is_tree()

    def test_induced_subgraph_and_index_map(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        sub, index = g.induced_subgraph([1, 2, 4])
        assert sub.n == 3
        assert sub.edges() == [(0, 1)]
        assert index.to_old == (1, 2, 4)
        lifted = index.lift(sub.vertex_set([0, 2]))
        assert set(lifted) == {1, 4}
        assert set(index.restrict(g.vertex_set([0, 1, 4]))) == {0, 2}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10**6))
    def test_induced_subgraph_preserves_adjacency(self, n, seed):
        rng = random.Random(seed)
        g = random_graph(n, rng)
        keep = sorted(rng.sample(range(n), rng.randint(0, n)))
        sub, index = g.induced_subgraph(keep)
        assert sub.n == len(keep)
        for i in range(sub.n):
            for j in range(i + 1, sub.n):
                old_i, old_j = index.to_old[i], index.to_old[j]
                assert (j in sub.neighbors(i)) == (old_j in g.neighbors(old_i))

    def test_delete_vertex_shifts_ids(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        h = g.delete_vertex(1)
        assert h.n == 3
        assert h.edges() == [(1, 2)]

    def test_pickle_round_trip(self):
        g = Graph(4, [(0, 2), (1, 3)])
        assert pickle.loads(pickle.dumps(g)) == g


class TestSupersets:
    def test_by_size_then_lexicographic(self):
        sizes = [[mask for mask, _ in size] for size in supersets(0b0100, 4)]
        assert sizes == [
            [0b0100],
            [0b0101, 0b0110, 0b1100],
            [0b0111, 0b1101, 0b1110],
            [0b1111],
        ]

    def test_states_without_a_step_stay_put(self):
        assert [pair for size in supersets(0b11, 2, state="s") for pair in size] == [(0b11, "s")]
        assert [[*size] for size in supersets(0, 0)] == [[(0, None)]]

    def test_step_sees_each_prefix_then_its_vertex(self):
        # With a step that records the added vertices, a superset's state
        # lists its added vertices in increasing order.
        walk = supersets(0b1001, 6, lambda st, v: (*st, v), ())
        for size in walk:
            for mask, added in size:
                assert mask == 0b1001 | sum(1 << v for v in added)
                assert list(added) == sorted(added)

    def test_each_prefix_is_stepped_once_per_size(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(0, 10)
            mask = rng.getrandbits(n)
            free = [v for v in range(n) if not mask >> v & 1]
            stepped = []

            def step(added, v):
                stepped.append((*added, v))
                return stepped[-1]

            for k, size in enumerate(supersets(mask, n, step, ())):
                stepped.clear()
                combos = list(combinations(free, k))
                assert [m for m, _ in size] == [mask | sum(1 << v for v in c) for c in combos]
                prefixes = {c[:j] for c in combos for j in range(1, k + 1)}
                assert sorted(stepped) == sorted(prefixes)

    @pytest.mark.parametrize("mode", ["pd", "zf", "dom"])
    def test_k_restricted_maximizer_follows_combinations_order(self, mode):
        # The first X of greatest value in combinations order, as a plain
        # loop over combinations finds it.
        rng = random.Random(29)
        for _ in range(12):
            g = random_graph(rng.randint(2, 8), rng)
            for k in (0, 1, 2):
                best, best_x = -1, None
                for combo in combinations(range(g.n), k):
                    value = brute_force_min(g, g.vertex_set(combo), mode).value
                    if value > best:
                        best, best_x = value, g.vertex_set(combo)
                assert k_restricted_number(g, k, mode) == (best, best_x)


class TestEdgeList:
    def test_round_trip_and_canonical_form(self):
        g = Graph(4, [(3, 2), (1, 0), (0, 2)])
        text = to_edge_list(g)
        assert text == "4 3\n0 1\n0 2\n2 3\n"
        assert from_edge_list(text) == g

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6))
    def test_round_trip_random(self, n, seed):
        g = random_connected_graph(n, random.Random(seed)) if n > 1 else Graph(1)
        assert from_edge_list(to_edge_list(g)) == g

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\n3 2\n# another\n0 1\n\n1 2\n"
        g = from_edge_list(text)
        assert (g.n, g.m) == (3, 2)

    # Each case: the input, the fault it shows (named in the test id), the
    # line, and the message.
    PARSE_ERRORS = [
        ("nope\n0 1\n", "MalformedHeaderError", 1, "expected header 'n m', got 'nope'"),
        ("2 x\n", "MalformedHeaderError", 1, "non-integer header '2 x'"),
        ("-1 0\n", "MalformedHeaderError", 1, "negative count in header '-1 0'"),
        ("", "MalformedHeaderError", 1, "missing 'n m' header"),
        ("# only comments\n", "MalformedHeaderError", 1, "missing 'n m' header"),
        ("3 1\n0 1 2\n", "MalformedEdgeError", 2, "expected edge 'u v', got '0 1 2'"),
        ("3 1\n0 q\n", "MalformedEdgeError", 2, "non-integer edge '0 q'"),
        ("3 1\n0 5\n", "VertexOutOfRangeError", 2, "vertex 5 out of range [0, 3)"),
        ("3 1\n1 1\n", "SelfLoopError", 2, "self-loop at vertex 1"),
        ("3 2\n0 1\n1 0\n", "DuplicateEdgeError", 3, "duplicate edge (1, 0)"),
        ("3 1\n0 1\n1 2\n", "EdgeCountMismatchError", 3, "more than the declared 1 edges"),
        ("3 2\n0 1\n", "EdgeCountMismatchError", 2, "declared 2 edges, found 1"),
    ]

    @pytest.mark.parametrize(
        "text,line,message",
        [pytest.param(t, ln, msg, id=f"{t}-{fault}-{ln}") for t, fault, ln, msg in PARSE_ERRORS],
    )
    def test_parse_errors_carry_line_numbers(self, text, line, message):
        with pytest.raises(EdgeListError) as info:
            from_edge_list(text)
        assert type(info.value) is EdgeListError
        assert info.value.line == line
        assert str(info.value) == f"line {line}: {message}"

    def test_isolated_vertices_survive(self):
        g = from_edge_list("5 1\n2 4\n")
        assert g.n == 5 and g.m == 1
        assert from_edge_list(to_edge_list(g)) == g
