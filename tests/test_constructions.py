"""Generators and leaf constructions."""

import os
import random
import resource
import subprocess
import sys

import pytest

from pdzf import (
    Graph,
    GraphError,
    apex_over,
    attach_leaves,
    family_labels,
    family_names,
    generate,
    leaf_bound_witness,
)

from util import SRC, random_graph, random_subset

HUGE = "99999999999999999999"


class TestAttachLeaves:
    def test_ids_group_by_attachment_vertex(self):
        g = generate("path", (3,))
        grown = attach_leaves(g, [0, 2], 2)
        assert grown.n == 7
        assert set(grown.neighbors(0)) == {1, 3, 4}
        assert set(grown.neighbors(2)) == {1, 5, 6}
        # base adjacency is untouched
        assert set(g.edges()).issubset(grown.edges())
        assert grown.m == g.m + 4
        # The i-th vertex of X in increasing order gets the leaves
        # n + r*i ... n + r*i + r - 1, each of degree one.
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 9)
            g = random_graph(n, rng)
            x = random_subset(n, rng)
            r = rng.randint(0, 3)
            grown = attach_leaves(g, rng.sample(x, len(x)), r)
            assert grown.n == n + r * len(x)
            for i, v in enumerate(x):
                for leaf in range(n + r * i, n + r * i + r):
                    assert set(grown.neighbors(leaf)) == {v}
            base = [(u, w) for u, w in grown.edges() if w < n]
            assert base == g.edges()

    def test_zero_leaves_is_identity(self):
        g = generate("cycle", (4,))
        assert attach_leaves(g, [1], 0) == g

    def test_errors(self):
        g = generate("path", (3,))
        with pytest.raises(GraphError):
            attach_leaves(g, [0], -1)
        with pytest.raises(GraphError):
            attach_leaves(g, [7], 1)

    def test_leaf_bound_witness_size(self):
        g = generate("complete", (4,))
        w = leaf_bound_witness(g, [0])
        assert w.n == 4 + 2 * 3
        assert w.degree(0) == 3
        for v in (1, 2, 3):
            assert w.degree(v) == 5


class TestApexOver:
    def test_new_vertex_adjacency(self):
        g = generate("path", (3,))
        a = apex_over(g, [0, 2])
        assert a.n == 4
        assert set(a.neighbors(3)) == {0, 2}
        assert {(0, 1), (1, 2)} <= set(a.edges())

    def test_empty_support(self):
        g = generate("path", (2,))
        a = apex_over(g, [])
        assert a.n == 3 and a.degree(2) == 0


class TestFamilies:
    def test_registry_is_complete(self):
        assert family_names() == (
            "path",
            "cycle",
            "star",
            "complete",
            "grid2",
            "grid2_triangles",
            "spider_complete",
            "double_star_join",
            "fig_examples",
            "fig_zpartition",
            "fig_spread",
            "c5_hub",
        )

    def test_unknown_family_and_arity(self):
        with pytest.raises(GraphError):
            generate("nosuch")
        with pytest.raises(GraphError):
            generate("path")
        with pytest.raises(GraphError):
            generate("fig_examples", (3,))
        with pytest.raises(GraphError):
            generate("double_star_join", (3,))

    @pytest.mark.parametrize(
        "name,params,n,m",
        [
            ("path", (1,), 1, 0),
            ("path", (6,), 6, 5),
            ("cycle", (5,), 5, 5),
            ("star", (4,), 5, 4),
            ("complete", (5,), 5, 10),
            ("grid2", (4,), 8, 10),
            ("grid2_triangles", (5,), 14, 19),
            ("spider_complete", (4,), 16, 18),
            ("double_star_join", (4, 4), 10, 12),
            ("fig_examples", (), 7, 6),
            ("fig_zpartition", (), 8, 10),
            ("fig_spread", (), 9, 9),
            ("c5_hub", (3,), 16, 21),
        ],
    )
    def test_orders_and_sizes(self, name, params, n, m):
        g = generate(name, params)
        assert (g.n, g.m) == (n, m)

    def test_parameter_floors(self):
        for name, params in [
            ("path", (0,)),
            ("cycle", (2,)),
            ("star", (0,)),
            ("complete", (0,)),
            ("grid2", (0,)),
            ("grid2_triangles", (1,)),
            ("spider_complete", (0,)),
            ("double_star_join", (1, 2)),
            ("c5_hub", (0,)),
        ]:
            with pytest.raises(GraphError):
                generate(name, params)

    @pytest.mark.parametrize(
        "params",
        [
            (name, HUGE)
            for name in ("path", "cycle", "star", "complete", "grid2", "grid2_triangles",
                         "spider_complete", "c5_hub")
        ]
        + [("double_star_join", HUGE, "2"), ("double_star_join", "2", HUGE)],
        ids=lambda params: "-".join("huge" if p == HUGE else p for p in params),
    )
    def test_absurd_size_fails_at_once(self, params):
        # Every family hands its edges to Graph lazily, so Graph's vertex
        # array overflows before any edge is built.  A generator that built
        # its edge list first would grow until the address-space cap stops
        # it with MemoryError, so the child never runs without the cap.
        cap = 256 << 20
        proc = subprocess.run(
            [sys.executable, "-m", "pdzf.cli", "gen", *params],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: the input is too large to process (OverflowError)\n"
        )

    def test_grid2_triangles_structure(self):
        g = generate("grid2_triangles", (3,))
        # grid rows (2i, 2i+1); triangles on vertices 1 and 2n-1
        assert set(g.neighbors(6)) == {1, 7}
        assert set(g.neighbors(7)) == {1, 6}
        assert set(g.neighbors(8)) == {5, 9}
        assert g.degree(1) == 4

    def test_spider_complete_structure(self):
        g = generate("spider_complete", (3,))
        for i in range(3):
            a = 3 + 3 * i
            assert set(g.neighbors(a)) == {i, a + 1, a + 2}
            assert g.degree(a + 1) == 1 and g.degree(a + 2) == 1

    def test_double_star_join_structure(self):
        g = generate("double_star_join", (3, 4))
        assert g.degree(0) == 3 and g.degree(4) == 4
        assert {(1, 5), (1, 6), (2, 5), (2, 6)} <= set(g.edges())

    def test_c5_hub_structure(self):
        g = generate("c5_hub", (2,))
        hub = 10
        assert set(g.neighbors(hub)) == {3, 4, 8, 9}
        for i in range(2):
            a = 5 * i
            for u, v in [(a, a + 1), (a + 1, a + 2), (a + 2, a + 3), (a + 3, a + 4), (a + 4, a)]:
                assert v in g.neighbors(u)

    def test_figure_edges_pinned(self):
        assert generate("fig_examples").edges() == [
            (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6),
        ]
        assert generate("fig_zpartition").edges() == [
            (0, 1), (0, 2), (1, 2), (1, 5), (1, 6), (1, 7), (3, 7), (4, 5), (5, 6), (6, 7),
        ]
        assert generate("fig_spread").edges() == [
            (0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (3, 4), (3, 8),
        ]

    def test_labels(self):
        g = generate("fig_examples")
        assert family_labels("fig_examples", g) == {i: str(i + 1) for i in range(7)}
        s = generate("fig_spread")
        assert family_labels("fig_spread", s) == {4: "u", 5: "v"}
        assert family_labels("path", generate("path", (3,))) == {}
