"""Tree splitting, leaf classification, and gluing compositions."""

import random

import pytest

from pdzf import (
    BoundHypothesisError,
    Graph,
    GraphError,
    GuardExceededError,
    NotATreeError,
    brute_force_min,
    centroid,
    certify,
    check_apex_terminal,
    compose_boundary_pd,
    compose_pendant_zf,
    enumerate_terminal_sets,
    generate,
    is_power_dominating_set,
    is_zero_forcing_set,
    leaf_classify,
    mandatory_vertices,
    minimum_solutions,
    restricted_pd_number,
    restricted_zf_number,
    tree_pd_parallel,
    tree_split,
)

from util import random_connected_graph, random_subset, random_tree

# A tree with one idle branch at the centroid: deleting the split vertex
# makes the long branch cheaper, but anchoring it costs nothing extra.
IDLE_TREE = Graph(9, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (4, 6), (0, 7), (7, 8)])

# Two three-leaf stars bridged by a middle vertex: both branches are
# costly, so the middle vertex never earns a slot.
COSTLY_TREE = Graph(9, [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 6), (2, 7), (2, 8)])


class TestCentroid:
    def test_known_trees(self):
        assert centroid(generate("star", (4,))) == 0
        assert centroid(generate("path", (7,))) == 3
        assert centroid(generate("path", (2,))) == 0

    def test_minimizes_largest_branch(self):
        rng = random.Random(61)
        for _ in range(60):
            t = random_tree(rng.randint(1, 60), rng)
            weights = [
                max((len(p) for p in t.delete_vertex(v).components()), default=0)
                for v in t.vertices()
            ]
            expected = min(t.vertices(), key=lambda v: (weights[v], v))
            assert centroid(t) == expected

    def test_rejects_non_trees(self):
        with pytest.raises(NotATreeError):
            centroid(generate("cycle", (4,)))


class TestTreeSplit:
    def test_roles_pinned(self):
        split = tree_split(IDLE_TREE, 0)
        assert [p.role for p in split.parts] == ["idle", "active"]
        assert split.value == 2
        split = tree_split(COSTLY_TREE, 0)
        assert [p.role for p in split.parts] == ["costly", "costly"]
        assert split.value == 2

    def test_single_slot_trees(self):
        for name, params in (("path", (5,)), ("star", (4,))):
            split = tree_split(generate(name, params))
            assert all(p.role == "active" for p in split.parts)
            assert split.value == 1
            res = split.result()
            assert res.value == 1 and res.method == "reduction"

    def test_matches_oracle_on_random_trees(self):
        rng = random.Random(67)
        for _ in range(40):
            t = random_tree(rng.randint(3, 12), rng)
            if t.degree(centroid(t)) < 2:
                continue
            split = tree_split(t)
            expected = brute_force_min(t, None, "pd").value
            assert split.value == expected
            assert split.base_value in (expected - 1, expected)
            for part in split.parts:
                assert part.role in ("costly", "idle", "active")
                assert part.anchored.value >= part.free.value
                assert part.anchored.value <= part.deleted.value + 1
            res = split.result()
            assert res.value == expected
            assert len(res.witness) == expected
            assert is_power_dominating_set(t, res.witness)

    def test_parts_match_the_public_solve(self):
        # Larger trees than the pinned answers cover: each branch solve,
        # run on parts shared between the anchored and free solves, equals
        # the public solve of a fresh copy of the same branch graph.
        rng = random.Random(71)
        for _ in range(30):
            t = random_tree(rng.randint(15, 40), rng)
            split = tree_split(t)
            # The branches are the components of T - v, by their neighbour of v.
            v = split.vertex
            rest, ids = t.induced_subgraph(t.vertex_set((v,)).complement())
            branches = sorted((ids.lift(c) for c in rest.components()), key=lambda c: c.mask & t.adj[v])
            assert [p.index.lift(p.graph.full_set()) for p in split.parts] == [
                b | t.vertex_set((v,)) for b in branches
            ]
            assert all(p.index.to_old[p.anchor] == v for p in split.parts)
            for part in split.parts:
                g = part.graph
                anchored = restricted_pd_number(Graph(g.n, g.edges()), (part.anchor,), min_forts=True)
                free = restricted_pd_number(Graph(g.n, g.edges()), min_forts=True)
                deleted = g.delete_vertex(part.anchor)
                deleted = restricted_pd_number(Graph(deleted.n, deleted.edges()), min_forts=True)
                for got, want in zip((part.anchored, part.free, part.deleted), (anchored, free, deleted)):
                    assert (got.value, got.witness, got.cuts_added, got.nodes) == (
                        want.value, want.witness, want.cuts_added, want.nodes
                    )

    def test_branch_counts(self):
        split = tree_split(generate("star", (5,)), 0)
        assert len(split.parts) == 5
        assert all(p.graph.n == 2 for p in split.parts)
        assert [p.role for p in split.parts] == ["active"] * 5

    def test_validation(self):
        with pytest.raises(NotATreeError):
            tree_split(generate("cycle", (5,)))
        with pytest.raises(GraphError):
            tree_split(generate("path", (4,)), 0)
        with pytest.raises(ValueError):
            tree_split(generate("path", (4,)), jobs=0)
        with pytest.raises(GraphError):
            tree_split(generate("path", (4,)), 7)


# Graphs that are not trees, among them the ones small enough to have
# been solved directly: no vertex, two isolated vertices, an edge and an
# isolated vertex, and a 4-cycle.
NON_TREES = (Graph(0, []), Graph(2, []), Graph(3, [(0, 1)]), generate("cycle", (4,)))


class TestTreePdParallel:
    def test_tiny_trees(self):
        # Left unsplit and solved directly, as one constraint-generation solve.
        for n in (1, 2):
            t = generate("path", (n,))
            split = tree_split(t)
            assert split.vertex is None and split.parts == ()
            assert split.value == 1
            res = split.result()
            assert res == tree_pd_parallel(t)
            assert (res.value, res.witness.members(), res.cuts_added, res.nodes) == (1, (0,), 1, 1)
            assert res.method == "constraint_generation"

    def test_guard_bounds_a_tiny_tree(self):
        t = generate("path", (2,))
        for solve in (tree_split, tree_pd_parallel):
            with pytest.raises(GuardExceededError, match="guard is 1, graph has 2 vertices"):
                solve(t, guard=1)
        assert tree_pd_parallel(generate("path", (1,)), guard=1).value == 1

    def test_explicit_vertex_on_a_tiny_tree_is_checked(self):
        for n in (1, 2):
            with pytest.raises(GraphError, match="out of range"):
                tree_pd_parallel(generate("path", (n,)), 99)
            with pytest.raises(GraphError, match="degree at least 2"):
                tree_pd_parallel(generate("path", (n,)), 0)

    def test_matches_oracle(self):
        rng = random.Random(71)
        for _ in range(30):
            t = random_tree(rng.randint(1, 12), rng)
            res = tree_pd_parallel(t)
            assert res.value == brute_force_min(t, None, "pd").value
            assert is_power_dominating_set(t, res.witness)

    def test_long_path(self):
        # Each branch solve separates minimum forts of up to about n/4 vertices.
        t = generate("path", (127,))
        res = tree_pd_parallel(t)
        assert res.value == 1
        certify(t, res.witness, t.vertex_set([]), "pd", 1)

    def test_rejects_non_trees(self):
        # Every entry to the tree route gives the same message.
        for g in (*NON_TREES, generate("complete", (4,))):
            for solve in (tree_split, tree_pd_parallel):
                with pytest.raises(NotATreeError) as info:
                    solve(g)
                assert str(info.value) == "tree splitting needs a tree"


class TestLeafClassify:
    def test_idle_leaf(self):
        g = generate("star", (4,))
        cls = leaf_classify(g, 1)
        assert cls.idle
        assert cls.anchored.value == 2 and cls.deleted.value == 1
        assert cls.witness.members() == (0, 1)

    def test_working_leaf(self):
        cls = leaf_classify(generate("path", (4,)), 0)
        assert not cls.idle
        assert cls.anchored.value == cls.deleted.value == 1
        assert cls.witness.members() == (0,)

    def test_consistency_on_random_trees(self):
        rng = random.Random(79)
        for _ in range(20):
            t = random_tree(rng.randint(2, 10), rng)
            for u in t.vertices():
                if t.degree(u) != 1:
                    continue
                cls = leaf_classify(t, u)
                assert cls.anchored.value == brute_force_min(t, t.vertex_set((u,)), "pd").value
                assert cls.deleted.value == brute_force_min(t.delete_vertex(u), None, "pd").value
                assert cls.idle == (cls.anchored.value == cls.deleted.value + 1)
                assert u in cls.witness
                assert len(cls.witness) == cls.anchored.value
                assert is_power_dominating_set(t, cls.witness)

    def test_rejects_non_leaves(self):
        with pytest.raises(GraphError):
            leaf_classify(generate("path", (4,)), 1)
        with pytest.raises(GraphError):
            leaf_classify(generate("path", (4,)), 9)


class TestMandatoryVertices:
    def test_star_center_is_mandatory(self):
        supports = mandatory_vertices(generate("star", (4,)))
        assert supports.mandatory.members() == (0,)
        assert supports.either_or == ()

    def test_double_star_is_either_or(self):
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)])
        supports = mandatory_vertices(g)
        assert not supports.mandatory
        assert supports.either_or == ((0, (1, 2)), (3, (4, 5)))

    def test_pins_hold_in_every_minimum_solution(self):
        rng = random.Random(83)
        for _ in range(25):
            t = random_tree(rng.randint(2, 9), rng)
            supports = mandatory_vertices(t)
            solutions = minimum_solutions(t, None, "pd")
            for s in solutions:
                assert supports.mandatory.issubset(s)
                for v, leaves in supports.either_or:
                    assert v in s or not s.isdisjoint(t.vertex_set(leaves))
            # Some minimum solution takes every two-leaf support directly.
            picks = t.vertex_set([v for v, _ in supports.either_or])
            assert any(picks.issubset(s) for s in solutions)


class TestComposeBoundaryPd:
    def test_split_double_star(self):
        g = generate("double_star_join", (4, 4))
        bound = compose_boundary_pd(
            g, g.vertex_set(range(5)), g.vertex_set([0]), g.vertex_set([5])
        )
        assert bound.value == 2
        assert bound.witness.members() == (0, 5)
        assert [r.value for r in bound.parts] == [1, 1]
        assert bound.value == brute_force_min(g, g.vertex_set([0, 5]), "pd").value

    def test_upper_bound_on_random_partitions(self):
        rng = random.Random(89)
        checked = 0
        while checked < 20:
            g = random_connected_graph(rng.randint(4, 8), rng)
            v1 = g.vertex_set(random_subset(g.n, rng, rng.randint(1, g.n - 1)))
            v2 = v1.complement()
            w1 = g.closed_neighborhood(v2) & v1
            w2 = g.closed_neighborhood(v1) & v2
            bound = compose_boundary_pd(g, v1, w1, w2)
            assert w1.issubset(bound.witness) and w2.issubset(bound.witness)
            assert is_power_dominating_set(g, bound.witness)
            assert len(bound.witness) == bound.value
            assert bound.value >= brute_force_min(g, w1 | w2, "pd").value
            checked += 1

    def test_hypothesis_failures(self):
        g = generate("path", (6,))
        whole = g.vertex_set(range(6))
        with pytest.raises(BoundHypothesisError):
            compose_boundary_pd(g, whole, g.vertex_set([0]), g.vertex_set([]))
        with pytest.raises(BoundHypothesisError):
            compose_boundary_pd(g, g.vertex_set([0, 1]), g.vertex_set([2]), g.vertex_set([5]))
        with pytest.raises(BoundHypothesisError):
            compose_boundary_pd(g, g.vertex_set([0, 1, 2]), g.vertex_set([0]), g.vertex_set([5]))


class TestComposePendantZf:
    def test_path_extension(self):
        base = generate("path", (3,))
        branch = generate("path", (2,))
        comp = compose_pendant_zf(base, base.vertex_set([0]), ((branch, 0, 2),))
        assert comp.result.value == 1
        assert comp.graph.n == 4
        assert comp.placements == ((2, 3),)
        assert is_zero_forcing_set(comp.graph, comp.result.witness)

    def test_matches_direct_solve(self):
        rng = random.Random(97)
        checked = 0
        while checked < 20:
            base = random_connected_graph(rng.randint(3, 6), rng)
            x = restricted_zf_number(base).witness
            sets = sorted(enumerate_terminal_sets(base, x), key=lambda s: s.members())
            terminal = sets[rng.randrange(len(sets))]
            k = rng.randint(1, min(2, len(terminal)))
            ats = random.Random(rng.random()).sample(terminal.members(), k)
            attachments = []
            for at in ats:
                branch = random_connected_graph(rng.randint(2, 5), rng)
                attachments.append((branch, rng.randrange(branch.n), at))
            comp = compose_pendant_zf(base, x, tuple(attachments))
            lifted = comp.graph.vertex_set(x)
            direct = brute_force_min(comp.graph, None, "zf")
            assert comp.result.value == direct.value
            assert lifted.issubset(comp.result.witness)
            assert is_zero_forcing_set(comp.graph, comp.result.witness)
            for (branch, root, at), place in zip(attachments, comp.placements):
                assert place[root] == at
                assert all(p >= base.n for i, p in enumerate(place) if i != root)
            checked += 1

    def test_hypothesis_failures(self):
        base = generate("path", (3,))
        branch = generate("path", (2,))
        with pytest.raises(BoundHypothesisError):
            compose_pendant_zf(base, base.vertex_set([1]), ((branch, 0, 2),))
        with pytest.raises(BoundHypothesisError):
            compose_pendant_zf(base, base.vertex_set([0, 1]), ((branch, 0, 2),))
        with pytest.raises(BoundHypothesisError):
            compose_pendant_zf(base, base.vertex_set([0]), ((branch, 0, 1),))
        with pytest.raises(BoundHypothesisError):
            compose_pendant_zf(
                base, base.vertex_set([0]), ((Graph(2), 0, 2),)
            )
        with pytest.raises(GraphError):
            compose_pendant_zf(
                base, base.vertex_set([0]), ((branch, 0, 2), (branch, 1, 2))
            )


class TestCheckApexTerminal:
    def test_covered_neighborhood(self):
        g = generate("cycle", (4,))
        x = g.vertex_set([0, 1])
        report = check_apex_terminal(g, x, g.vertex_set([2, 3]))
        assert report.apex == 4
        assert report.covered and report.touched and report.forces_apex
        assert report.result.value == 2

    def test_uncovered_neighborhood(self):
        g = generate("cycle", (4,))
        x = g.vertex_set([0, 1])
        report = check_apex_terminal(g, x, x)
        assert not report.covered
        assert report.touched
        assert not report.forces_apex
        assert report.result.value > 2

    def test_implications_on_random_graphs(self):
        rng = random.Random(101)
        for _ in range(15):
            g = random_connected_graph(rng.randint(3, 6), rng)
            x = restricted_zf_number(g).witness
            t = g.vertex_set(random_subset(g.n, rng, rng.randint(1, g.n)))
            report = check_apex_terminal(g, x, t)
            if report.covered:
                assert report.forces_apex and report.result.value == len(x)
            if report.forces_apex:
                assert report.touched
            assert report.result.value >= len(x)

    def test_guard_counts_the_base_only(self):
        # The apexed graph of a 64-vertex base has 65 vertices; only the
        # base counts against the guard.
        g = generate("path", (64,))
        report = check_apex_terminal(g, g.vertex_set([0]), g.vertex_set([63]))
        assert report.apex == 64 and report.covered and report.result.value == 1
        g = generate("path", (65,))
        with pytest.raises(GuardExceededError, match="graph has 65 vertices"):
            check_apex_terminal(g, g.vertex_set([0]), g.vertex_set([64]))
        # The apex joins the components T meets, and together they count:
        # two 40-vertex paths under one apex make an 81-vertex component.
        g = Graph(80, [(i, i + 1) for i in range(79) if i != 39])
        with pytest.raises(GuardExceededError, match="graph has 81 vertices"):
            check_apex_terminal(g, g.vertex_set([0, 40]), g.vertex_set([20, 60]))

    def test_validation(self):
        g = generate("cycle", (4,))
        with pytest.raises(GraphError):
            check_apex_terminal(g, g.vertex_set([0, 1]), g.vertex_set([]))
        with pytest.raises(BoundHypothesisError):
            check_apex_terminal(g, g.vertex_set([0]), g.vertex_set([2]))
