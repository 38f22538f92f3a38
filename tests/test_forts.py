"""Fort certificates: recognition, extraction, minimum separation."""

import random
from itertools import combinations

import pytest

from pdzf import (
    CertificationError,
    Graph,
    GuardExceededError,
    InfeasibleError,
    enumerate_forts,
    fort_from_failed_set,
    generate,
    is_fort,
    minimum_violated_fort,
    pd_observe,
    zf_closure,
)
from pdzf import forts
from pdzf.forts import _forest_min_fort, _forest_rooting, _lex_fort_of_size, _rooting

from util import (
    graph_sweep,
    random_connected_graph,
    random_graph,
    random_subset,
    random_tree,
    tree_sweep,
)


def fort_by_definition(graph, members):
    """Direct restatement of the fort condition with plain sets."""
    f = set(members)
    if not f:
        return False
    for w in range(graph.n):
        if w in f:
            continue
        inside = sum(1 for u in f if u in graph.neighbors(w))
        if inside == 1:
            return False
    return True


def size_loop_fort(graph, cand):
    """The size-by-size search's fort inside *cand* as a mask, 0 if none."""
    for size in range(1, cand.bit_count() + 1):
        found = _lex_fort_of_size(graph.adj, cand, size)
        if found is not None:
            return found
    return 0


def forest_dp(graph, cand):
    """The forest program on its own rooting of *cand*, None on a cycle."""
    rooting = _forest_rooting(graph.adj, cand)
    return None if rooting is None else _forest_min_fort(graph.adj, cand, rooting)


def enumeration_fort(graph, cand):
    """The least fort inside *cand* by size, then members, as a mask; 0 if none."""
    inside = [f.members for f in enumerate_forts(graph) if f.members.mask & ~cand == 0]
    return min(inside, key=lambda f: (len(f), tuple(f))).mask if inside else 0


def random_forest(n, rng):
    """Random forest on shuffled ids: each vertex joins an earlier one or
    starts a new tree, so isolated vertices occur."""
    ids = list(range(n))
    rng.shuffle(ids)
    edges = [(ids[v], ids[rng.randrange(v)]) for v in range(1, n) if rng.random() < 0.8]
    return Graph(n, edges)


class TestIsFort:
    def test_known_cases(self):
        p5 = generate("path", (5,))
        assert is_fort(p5, p5.vertex_set([0, 2, 4]))
        assert not is_fort(p5, p5.vertex_set([4]))
        assert not is_fort(p5, p5.vertex_set([]))
        c4 = generate("cycle", (4,))
        assert is_fort(c4, c4.vertex_set([0, 2]))
        assert is_fort(c4, c4.full_set())

    def test_matches_definition_on_random_graphs(self):
        rng = random.Random(2)
        for _ in range(60):
            n = rng.randint(1, 8)
            g = random_connected_graph(n, rng) if n > 1 else generate("path", (1,))
            members = random_subset(n, rng)
            assert is_fort(g, g.vertex_set(members)) == fort_by_definition(g, members)
        # Isolated vertices and several components.
        for _ in range(60):
            n = rng.randint(1, 8)
            g = random_graph(n, rng, 0.25)
            members = random_subset(n, rng)
            assert is_fort(g, g.vertex_set(members)) == fort_by_definition(g, members)


class TestEnumerateForts:
    def test_equals_subset_filter(self):
        for g in graph_sweep(5):
            expected = sorted(
                (
                    frozenset(c)
                    for k in range(1, g.n + 1)
                    for c in combinations(range(g.n), k)
                    if fort_by_definition(g, c)
                ),
                key=lambda f: (len(f), tuple(sorted(f))),
            )
            got = enumerate_forts(g)
            assert [frozenset(f.members) for f in got] == expected

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            enumerate_forts(generate("path", (17,)))
        assert enumerate_forts(generate("path", (17,)), guard=17)


class TestFortFromFailedSet:
    def test_residue_is_the_unobserved_region(self):
        g = generate("star", (4,))
        s = g.vertex_set([1])
        fort = fort_from_failed_set(g, s, "pd")
        assert set(fort.members) == {2, 3, 4}
        assert is_fort(g, fort.members)

    def test_modes_and_errors(self):
        g = generate("path", (5,))
        with pytest.raises(InfeasibleError):
            fort_from_failed_set(g, g.vertex_set([2]), "pd")
        with pytest.raises(ValueError):
            fort_from_failed_set(g, g.vertex_set([2]), "dom")
        zf = fort_from_failed_set(g, g.vertex_set([2]), "zf")
        assert is_fort(g, zf.members)
        assert zf.members.isdisjoint(zf_closure(g, g.vertex_set([2])).final)

    def test_residue_forts_on_random_failures(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(2, 9)
            g = random_connected_graph(n, rng)
            for mode in ("pd", "zf"):
                s = g.vertex_set(random_subset(n, rng, rng.randint(0, max(0, n // 3))))
                trace = pd_observe(g, s) if mode == "pd" else zf_closure(g, s)
                if len(trace.final) == g.n:
                    continue
                fort = fort_from_failed_set(g, s, mode)
                assert is_fort(g, fort.members)
                assert fort.members == trace.final.complement()


class TestMinimumViolatedFort:
    def test_matches_enumeration_minimum(self):
        rng = random.Random(13)
        # Trees and sparse graphs of 10-16 vertices, where most vertices
        # are far from a small partial fort, follow the exhaustive sweep.
        sparse = []
        for k in range(24):
            n = rng.randint(10, 16)
            extra = rng.randint(0, n // 4)
            sparse.append(random_tree(n, rng) if k % 2 else random_connected_graph(n, rng, extra))
        for g in (*graph_sweep(6), *sparse):
            if g.n < 2:
                continue
            forbidden = g.vertex_set(random_subset(g.n, rng, rng.randint(0, g.n - 1)))
            all_forts = [
                f.members for f in enumerate_forts(g) if f.members.isdisjoint(forbidden)
            ]
            if not all_forts:
                with pytest.raises(InfeasibleError):
                    minimum_violated_fort(g, forbidden)
                continue
            best = min(all_forts, key=lambda f: (len(f), tuple(f)))
            found = minimum_violated_fort(g, forbidden)
            assert is_fort(g, found.members)
            assert found.members.isdisjoint(forbidden)
            assert len(found.members) == len(best)
            assert tuple(found.members) == tuple(best)

    def test_no_fort_available(self):
        g = generate("complete", (4,))
        with pytest.raises(InfeasibleError):
            minimum_violated_fort(g, g.vertex_set([0, 1, 2]))

    def test_smallest_fort_of_a_path(self):
        g = generate("path", (5,))
        fort = minimum_violated_fort(g, g.vertex_set([]))
        assert fort.members.members() == (0, 2, 4)


# A triangle 0-1-2; vertex 2 has the leaves 3 and 4, and vertex 1 the
# path 1-5-6-7.
TRIANGLE_WITH_TAILS = Graph(8, [(0, 1), (1, 2), (0, 2), (2, 3), (2, 4), (1, 5), (5, 6), (6, 7)])


class TestForestMinFort:
    def test_random_forests_match_size_loop_and_enumeration(self):
        rng = random.Random(17)
        for k in range(150):
            n = rng.randint(1, 16 if k % 10 == 0 else 11)
            g = random_forest(n, rng)
            cand = g.vertex_set(random_subset(n, rng, rng.randint(0, n))).mask
            found = forest_dp(g, cand)
            assert found == size_loop_fort(g, cand) == enumeration_fort(g, cand)
        # Every candidate set of every tree on at most 8 vertices.
        for g in tree_sweep(8):
            for cand in range(1 << g.n):
                assert forest_dp(g, cand) == size_loop_fort(g, cand)

    def test_the_graph_rooting_serves_every_candidate_set(self):
        # Every forest on at most 8 vertices, one per isomorphism class (a
        # multiset of trees), with its ids shuffled so that the roots of the
        # whole graph differ from the roots a candidate set's walk picks.
        trees = tree_sweep(8)
        forests = []

        def grow(parts, first, room):
            forests.append(parts)
            for i in range(first, len(trees)):
                if trees[i].n <= room:
                    grow(parts + [trees[i]], i, room - trees[i].n)

        grow([], 0, 8)
        forests.pop(0)  # the empty forest
        assert len(forests) == 155
        rng = random.Random(5)
        for parts in forests:
            n = sum(t.n for t in parts)
            ids = list(range(n))
            rng.shuffle(ids)
            edges, base = [], 0
            for t in parts:
                edges.extend((ids[base + u], ids[base + v]) for u, v in t.edges())
                base += t.n
            g = Graph(n, edges)
            for cand in range(1 << n):
                rooting = _rooting(g, cand)
                assert rooting is g._rooting == _forest_rooting(g.adj, (1 << n) - 1)
                assert _forest_min_fort(g.adj, cand, rooting) == forest_dp(g, cand)

    def test_a_graph_with_a_cycle_keeps_no_rooting(self):
        g = TRIANGLE_WITH_TAILS
        cand = g.vertex_set([0, 1, 2]).complement().mask
        assert _rooting(g, cand) == _forest_rooting(g.adj, cand)
        assert g._rooting == ()
        assert _rooting(g, (1 << g.n) - 1) is None

    def test_cycle_among_forbidden_vertices_keeps_the_dp(self):
        g = TRIANGLE_WITH_TAILS
        forbidden = g.vertex_set([0, 1, 2])
        cand = forbidden.complement().mask
        found = forest_dp(g, cand)
        assert found == size_loop_fort(g, cand) == enumeration_fort(g, cand) == 0b11000
        assert minimum_violated_fort(g, forbidden).members.mask == found

    def test_cycle_touching_the_candidates_falls_back(self):
        # With two triangle vertices free every triangle edge has a
        # candidate end, so the walk meets the cycle.
        g = TRIANGLE_WITH_TAILS
        for forbidden in ([0], [1], []):
            cand = g.vertex_set(forbidden).complement().mask
            assert forest_dp(g, cand) is None
            found = minimum_violated_fort(g, g.vertex_set(forbidden)).members.mask
            assert found == size_loop_fort(g, cand) == enumeration_fort(g, cand)

    def test_long_path(self):
        n = 1000
        g = generate("path", (n,))
        assert forest_dp(g, (1 << n) - 1) is not None
        fort = minimum_violated_fort(g, g.vertex_set([]))
        assert fort.members.members() == (0, *range(1, n, 2))
        assert len(fort.members) == n // 2 + 1

    def test_no_candidate_or_no_fort_is_infeasible(self):
        g = generate("path", (3,))
        with pytest.raises(InfeasibleError):
            minimum_violated_fort(g, g.full_set())
        # {0} alone leaves vertex 1 seeing one member; no fort fits.
        assert forest_dp(g, 0b001) == 0
        with pytest.raises(InfeasibleError):
            minimum_violated_fort(g, g.vertex_set([1, 2]))

    def test_a_wrong_answer_raises(self, monkeypatch):
        g = generate("path", (5,))
        none = g.vertex_set([])
        for wrong in (0b00001, 0b100000, 0):
            monkeypatch.setattr(forts, "_forest_min_fort", lambda adj, cand, rooting, m=wrong: m)
            with pytest.raises(CertificationError):
                minimum_violated_fort(g, none)

    def test_a_wrong_fallback_fort_raises(self, monkeypatch):
        # On a cycle the forest program gives way to the size-by-size search.
        g = generate("cycle", (6,))
        assert forest_dp(g, (1 << 6) - 1) is None
        # {0} is no fort: vertices 1 and 5 each see exactly one member.
        monkeypatch.setattr(forts, "_lex_fort_of_size", lambda adj, cand, size: 0b1)
        with pytest.raises(CertificationError):
            minimum_violated_fort(g, g.vertex_set([]))

    def test_a_missed_fallback_fort_raises(self, monkeypatch):
        # Nothing is forbidden, so the whole cycle is a fort the search missed.
        g = generate("cycle", (6,))
        monkeypatch.setattr(forts, "_lex_fort_of_size", lambda adj, cand, size: None)
        with pytest.raises(CertificationError):
            minimum_violated_fort(g, g.vertex_set([]))
