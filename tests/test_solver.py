"""Exact solvers: frozen oracle battery, route agreement, guards.

The BATTERY table below was computed by an independent brute-force
implementation (plain set arithmetic, no shared code with the package)
and frozen.  Each entry pins the generator's edge list and the exact
value of every mode, so a regression in either the generators or any
solver route trips the same table.
"""

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdzf import (
    CertificationError,
    Graph,
    GraphError,
    GuardExceededError,
    SolveResult,
    VertexSet,
    brute_force_min,
    certify,
    component_sum_pd,
    domination_half,
    enumerate_forts,
    generate,
    is_fort,
    is_power_dominating_set,
    is_zero_forcing_set,
    k_restricted_number,
    minimum_solutions,
    pd_number_disconnected,
    reduction_pd_number,
    restricted_pd_number,
    restricted_zf_number,
    spread,
    tree_pd_parallel,
    z_restricted_single,
)
from pdzf import solver
from pdzf.graph import bits
from pdzf.propagation import final_mask
from pdzf.solver import _cover_exact, _RowPool
from util import (
    graph_sweep,
    random_connected_graph,
    random_graph,
    random_subset,
    random_tree,
    reference_cover_exact,
)

BATTERY = {
    ('path', (3,)): {
        'edges': ((0, 1), (1, 2)),
        (): {'pd': 1, 'zf': 1, 'dom': 1},
        (0,): {'pd': 1, 'zf': 1, 'dom': 2},
        (1,): {'pd': 1, 'zf': 2, 'dom': 1},
        (0, 2): {'pd': 2, 'zf': 2},
        (1,): {'pd': 1, 'zf': 2, 'dom': 1},
    },
    ('path', (4,)): {
        'edges': ((0, 1), (1, 2), (2, 3)),
        (): {'pd': 1, 'zf': 1, 'dom': 2},
        (0,): {'pd': 1, 'zf': 1, 'dom': 2},
        (1,): {'pd': 1, 'zf': 2, 'dom': 2},
        (0, 3): {'pd': 2, 'zf': 2},
        (2,): {'pd': 1, 'zf': 2, 'dom': 2},
    },
    ('path', (5,)): {
        'edges': ((0, 1), (1, 2), (2, 3), (3, 4)),
        (): {'pd': 1, 'zf': 1, 'dom': 2},
        (0,): {'pd': 1, 'zf': 1, 'dom': 2},
        (1,): {'pd': 1, 'zf': 2, 'dom': 2},
        (0, 4): {'pd': 2, 'zf': 2},
        (2,): {'pd': 1, 'zf': 2, 'dom': 3},
    },
    ('path', (6,)): {
        'edges': ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)),
        (): {'pd': 1, 'zf': 1, 'dom': 2},
        (0,): {'pd': 1, 'zf': 1, 'dom': 3},
        (1,): {'pd': 1, 'zf': 2, 'dom': 2},
        (0, 5): {'pd': 2, 'zf': 2},
        (3,): {'pd': 1, 'zf': 2, 'dom': 3},
    },
    ('path', (7,)): {
        'edges': ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)),
        (): {'pd': 1, 'zf': 1, 'dom': 3},
        (0,): {'pd': 1, 'zf': 1, 'dom': 3},
        (1,): {'pd': 1, 'zf': 2, 'dom': 3},
        (0, 6): {'pd': 2, 'zf': 2},
        (3,): {'pd': 1, 'zf': 2, 'dom': 3},
    },
    ('path', (8,)): {
        'edges': ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)),
        (): {'pd': 1, 'zf': 1, 'dom': 3},
        (0,): {'pd': 1, 'zf': 1, 'dom': 3},
        (1,): {'pd': 1, 'zf': 2, 'dom': 3},
        (0, 7): {'pd': 2, 'zf': 2},
        (4,): {'pd': 1, 'zf': 2, 'dom': 3},
    },
    ('cycle', (3,)): {
        'edges': ((0, 1), (0, 2), (1, 2)),
        (): {'pd': 1, 'zf': 2, 'dom': 1},
        (0,): {'pd': 1, 'zf': 2, 'dom': 1},
        (0, 2): {'pd': 2, 'zf': 2},
    },
    ('cycle', (4,)): {
        'edges': ((0, 1), (0, 3), (1, 2), (2, 3)),
        (): {'pd': 1, 'zf': 2, 'dom': 2},
        (0,): {'pd': 1, 'zf': 2, 'dom': 2},
        (0, 2): {'pd': 2, 'zf': 3},
    },
    ('cycle', (5,)): {
        'edges': ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4)),
        (): {'pd': 1, 'zf': 2, 'dom': 2},
        (0,): {'pd': 1, 'zf': 2, 'dom': 2},
        (0, 2): {'pd': 2, 'zf': 3},
    },
    ('cycle', (6,)): {
        'edges': ((0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)),
        (): {'pd': 1, 'zf': 2, 'dom': 2},
        (0,): {'pd': 1, 'zf': 2, 'dom': 2},
        (0, 2): {'pd': 2, 'zf': 3},
    },
    ('cycle', (7,)): {
        'edges': ((0, 1), (0, 6), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)),
        (): {'pd': 1, 'zf': 2, 'dom': 3},
        (0,): {'pd': 1, 'zf': 2, 'dom': 3},
        (0, 2): {'pd': 2, 'zf': 3},
    },
    ('cycle', (8,)): {
        'edges': ((0, 1), (0, 7), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)),
        (): {'pd': 1, 'zf': 2, 'dom': 3},
        (0,): {'pd': 1, 'zf': 2, 'dom': 3},
        (0, 2): {'pd': 2, 'zf': 3},
    },
    ('star', (2,)): {
        'edges': ((0, 1), (0, 2)),
        (): {'pd': 1, 'zf': 1, 'dom': 1},
        (0,): {'pd': 1, 'zf': 2, 'dom': 1},
        (1,): {'pd': 1, 'zf': 1, 'dom': 2},
        (1, 2): {'pd': 2, 'zf': 2},
    },
    ('star', (3,)): {
        'edges': ((0, 1), (0, 2), (0, 3)),
        (): {'pd': 1, 'zf': 2, 'dom': 1},
        (0,): {'pd': 1, 'zf': 3, 'dom': 1},
        (1,): {'pd': 2, 'zf': 2, 'dom': 2},
        (1, 2): {'pd': 2, 'zf': 2},
        (1,): {'pd': 2, 'zf': 2, 'dom': 2},
    },
    ('star', (4,)): {
        'edges': ((0, 1), (0, 2), (0, 3), (0, 4)),
        (): {'pd': 1, 'zf': 3, 'dom': 1},
        (0,): {'pd': 1, 'zf': 4, 'dom': 1},
        (1,): {'pd': 2, 'zf': 3, 'dom': 2},
        (1, 2): {'pd': 3, 'zf': 3},
        (1,): {'pd': 2, 'zf': 3, 'dom': 2},
        (1, 2): {'pd': 3, 'zf': 3},
    },
    ('star', (5,)): {
        'edges': ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5)),
        (): {'pd': 1, 'zf': 4, 'dom': 1},
        (0,): {'pd': 1, 'zf': 5, 'dom': 1},
        (1,): {'pd': 2, 'zf': 4, 'dom': 2},
        (1, 2): {'pd': 3, 'zf': 4},
        (1,): {'pd': 2, 'zf': 4, 'dom': 2},
        (1, 2): {'pd': 3, 'zf': 4},
        (1, 2, 3): {'pd': 4, 'zf': 4},
    },
    ('star', (6,)): {
        'edges': ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6)),
        (): {'pd': 1, 'zf': 5, 'dom': 1},
        (0,): {'pd': 1, 'zf': 6, 'dom': 1},
        (1,): {'pd': 2, 'zf': 5, 'dom': 2},
        (1, 2): {'pd': 3, 'zf': 5},
        (1,): {'pd': 2, 'zf': 5, 'dom': 2},
        (1, 2): {'pd': 3, 'zf': 5},
        (1, 2, 3): {'pd': 4, 'zf': 5},
        (1, 2, 3, 4): {'pd': 5, 'zf': 5},
    },
    ('complete', (2,)): {
        'edges': ((0, 1),),
        (): {'pd': 1, 'zf': 1, 'dom': 1},
        (0,): {'pd': 1, 'zf': 1, 'dom': 1},
        (0, 1): {'pd': 2, 'zf': 2},
    },
    ('complete', (3,)): {
        'edges': ((0, 1), (0, 2), (1, 2)),
        (): {'pd': 1, 'zf': 2, 'dom': 1},
        (0,): {'pd': 1, 'zf': 2, 'dom': 1},
        (0, 1): {'pd': 2, 'zf': 2},
    },
    ('complete', (4,)): {
        'edges': ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
        (): {'pd': 1, 'zf': 3, 'dom': 1},
        (0,): {'pd': 1, 'zf': 3, 'dom': 1},
        (0, 1): {'pd': 2, 'zf': 3},
    },
    ('complete', (5,)): {
        'edges': ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
        (): {'pd': 1, 'zf': 4, 'dom': 1},
        (0,): {'pd': 1, 'zf': 4, 'dom': 1},
        (0, 1): {'pd': 2, 'zf': 4},
    },
    ('complete', (6,)): {
        'edges': ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)),
        (): {'pd': 1, 'zf': 5, 'dom': 1},
        (0,): {'pd': 1, 'zf': 5, 'dom': 1},
        (0, 1): {'pd': 2, 'zf': 5},
    },
    ('grid2', (2,)): {
        'edges': ((0, 1), (0, 2), (1, 3), (2, 3)),
        (): {'pd': 1, 'zf': 2, 'dom': 2},
        (0,): {'pd': 1, 'zf': 2, 'dom': 2},
        (0, 3): {'pd': 2, 'zf': 3},
    },
    ('grid2', (3,)): {
        'edges': ((0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)),
        (): {'pd': 1, 'zf': 2, 'dom': 2},
        (0,): {'pd': 1, 'zf': 2, 'dom': 2},
        (0, 3): {'pd': 2, 'zf': 3},
    },
    ('grid2', (4,)): {
        'edges': ((0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5), (4, 6), (5, 7), (6, 7)),
        (): {'pd': 1, 'zf': 2, 'dom': 3},
        (0,): {'pd': 1, 'zf': 2, 'dom': 3},
        (0, 3): {'pd': 2, 'zf': 3},
    },
    ('grid2', (5,)): {
        'edges': ((0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5), (4, 6), (5, 7), (6, 7), (6, 8), (7, 9), (8, 9)),
        (): {'pd': 1, 'zf': 2, 'dom': 3},
        (0,): {'pd': 1, 'zf': 2, 'dom': 3},
        (0, 3): {'pd': 2, 'zf': 3},
    },
    ('grid2_triangles', (2,)): {
        'edges': ((0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 6), (3, 7), (4, 5), (6, 7)),
        (): {'pd': 2, 'zf': 4},
        (0,): {'pd': 3, 'zf': 4},
    },
    ('grid2_triangles', (3,)): {
        'edges': ((0, 1), (0, 2), (1, 3), (1, 6), (1, 7), (2, 3), (2, 4), (3, 5), (4, 5), (5, 8), (5, 9), (6, 7), (8, 9)),
        (): {'pd': 2, 'zf': 4},
        (0,): {'pd': 3, 'zf': 4},
    },
    ('grid2_triangles', (4,)): {
        'edges': ((0, 1), (0, 2), (1, 3), (1, 8), (1, 9), (2, 3), (2, 4), (3, 5), (4, 5), (4, 6), (5, 7), (6, 7), (7, 10), (7, 11), (8, 9), (10, 11)),
        (): {'pd': 2, 'zf': 4},
        (0,): {'pd': 3, 'zf': 4},
    },
    ('spider_complete', (1,)): {
        'edges': ((0, 1), (1, 2), (1, 3)),
        (): {'pd': 1, 'zf': 2},
        (0,): {'pd': 2, 'zf': 2},
    },
    ('spider_complete', (2,)): {
        'edges': ((0, 1), (0, 2), (1, 5), (2, 3), (2, 4), (5, 6), (5, 7)),
        (): {'pd': 2, 'zf': 3},
        (0,): {'pd': 3, 'zf': 3},
    },
    ('spider_complete', (3,)): {
        'edges': ((0, 1), (0, 2), (0, 3), (1, 2), (1, 6), (2, 9), (3, 4), (3, 5), (6, 7), (6, 8), (9, 10), (9, 11)),
        (): {'pd': 3, 'zf': 5},
        (0,): {'pd': 4, 'zf': 5},
    },
    ('double_star_join', (2, 2)): {
        'edges': ((0, 1), (0, 2), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)),
        (): {'pd': 1, 'zf': 3},
        (0,): {'pd': 2, 'zf': 3},
        (0, 3): {'pd': 2, 'zf': 4},
    },
    ('double_star_join', (3, 4)): {
        'edges': ((0, 1), (0, 2), (0, 3), (1, 5), (1, 6), (2, 5), (2, 6), (4, 5), (4, 6), (4, 7), (4, 8)),
        (): {'pd': 2, 'zf': 4},
        (0,): {'pd': 2, 'zf': 4},
        (0, 4): {'pd': 2, 'zf': 5},
    },
    ('double_star_join', (4, 4)): {
        'edges': ((0, 1), (0, 2), (0, 3), (0, 4), (1, 6), (1, 7), (2, 6), (2, 7), (5, 6), (5, 7), (5, 8), (5, 9)),
        (): {'pd': 2, 'zf': 4},
        (0,): {'pd': 2, 'zf': 5},
        (0, 5): {'pd': 2, 'zf': 6},
    },
    ('fig_examples', ()): {
        'edges': ((0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)),
        (): {'pd': 2, 'zf': 3},
        (0,): {'pd': 2, 'zf': 3},
        (2,): {'pd': 2, 'zf': 4},
        (2, 4): {'pd': 2, 'zf': 5},
        (1, 3): {'pd': 3, 'zf': 3},
        (0, 5, 6): {'pd': 3, 'zf': 3},
    },
    ('fig_zpartition', ()): {
        'edges': ((0, 1), (0, 2), (1, 2), (1, 5), (1, 6), (1, 7), (3, 7), (4, 5), (5, 6), (6, 7)),
        (): {'pd': 1, 'zf': 3},
        (1,): {'pd': 1, 'zf': 3},
        (0, 3): {'pd': 2, 'zf': 3},
        (4,): {'pd': 2, 'zf': 3},
    },
    ('fig_spread', ()): {
        'edges': ((0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (3, 4), (3, 8)),
        (): {'pd': 2, 'zf': 2},
        (4,): {'pd': 2, 'zf': 3},
        (5,): {'pd': 2, 'zf': 2},
        (4, 5): {'pd': 3, 'zf': 3},
    },
    ('c5_hub', (1,)): {
        'edges': ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)),
        (): {'pd': 1, 'zf': 2},
        (5,): {'pd': 1, 'zf': 2},
    },
    ('c5_hub', (2,)): {
        'edges': ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4), (3, 10), (4, 10), (5, 6), (5, 9), (6, 7), (7, 8), (8, 9), (8, 10), (9, 10)),
        (): {'pd': 1, 'zf': 3},
        (10,): {'pd': 1, 'zf': 4},
    },
}


def battery_cases():
    return [
        (family, params, x, mode, value)
        for (family, params), table in BATTERY.items()
        for x, values in table.items()
        if x != "edges"
        for mode, value in values.items()
    ]


@pytest.mark.parametrize("family,params", sorted(BATTERY))
def test_battery_generators_pinned(family, params):
    assert tuple(generate(family, params).edges()) == BATTERY[family, params]["edges"]


@pytest.mark.parametrize("family,params,x,mode,value", battery_cases())
def test_battery_all_routes(family, params, x, mode, value):
    g = generate(family, params)
    xs = g.vertex_set(x)
    oracle = brute_force_min(g, xs, mode)
    assert oracle.value == value
    assert oracle.method == "oracle"
    if mode == "dom":
        return
    solve = restricted_pd_number if mode == "pd" else restricted_zf_number
    plain = solve(g, xs)
    strong = solve(g, xs, min_forts=True)
    assert plain.value == value
    assert strong.value == value
    assert plain.method == strong.method == "constraint_generation"
    feasible = is_power_dominating_set if mode == "pd" else is_zero_forcing_set
    for res in (oracle, plain, strong):
        assert len(res.witness) == res.value
        assert xs.issubset(res.witness)
        assert feasible(g, res.witness)
    if mode == "pd":
        red = reduction_pd_number(g, xs)
        assert red.value == value
        assert red.method == "reduction"
        assert xs.issubset(red.witness)
        assert feasible(g, red.witness)


class TestOracle:
    def test_witness_is_lexicographically_least(self):
        g = generate("path", (6,))
        assert brute_force_min(g, None, "pd").witness.members() == (0,)
        assert brute_force_min(g, None, "zf").witness.members() == (0,)
        assert brute_force_min(g, None, "dom").witness.members() == (1, 4)

    def test_x_always_included(self):
        g = generate("cycle", (5,))
        res = brute_force_min(g, g.vertex_set([3]), "pd")
        assert 3 in res.witness

    @pytest.mark.parametrize("mode", ["pd", "zf", "dom"])
    def test_count_matches_a_naive_reference(self, mode):
        # The reference tries the supersets of X in combinations order, each
        # final mask from scratch: the witness is the first feasible one,
        # nodes its position (X itself is the first), and minimum_solutions
        # every feasible one of that size.
        rng = random.Random(31)
        cases = [(generate("path", (4,)), (0,)), (generate("star", (4,)), tuple(range(5)))]
        for _ in range(60):
            n = rng.randint(1, 10)
            g = random_graph(n, rng, rng.choice((0.15, 0.3, 0.5)))
            cases.append((g, random_subset(n, rng, min(n, rng.choice((0, 1, 2, n))))))
        counts = []
        for g, x in cases:
            x = g.vertex_set(x)
            full = (1 << g.n) - 1
            free = [v for v in range(g.n) if v not in x]
            order = [
                x.mask | sum(1 << v for v in combo)
                for k in range(len(free) + 1)
                for combo in combinations(free, k)
            ]
            feasible = [m for m in order if final_mask(g.adj, m, mode) == full]
            first = feasible[0]
            res = brute_force_min(g, x, mode)
            witness = g.vertex_set(bits(first))
            assert res == SolveResult(len(witness), witness, "oracle", 0, order.index(first) + 1)
            sols = minimum_solutions(g, x, mode)
            assert [s.mask for s in sols] == [m for m in feasible if m.bit_count() == res.value]
            counts.append((res.nodes, len(x) == g.n))
        # Both edge cases occur: X feasible already, and X = V.
        assert (1, False) in counts and (1, True) in counts

    def test_guard_and_validation(self):
        with pytest.raises(GuardExceededError):
            brute_force_min(generate("path", (21,)))
        with pytest.raises(ValueError):
            brute_force_min(generate("path", (3,)), None, "bad")
        with pytest.raises(GraphError):
            brute_force_min(Graph(0))
        with pytest.raises(GraphError):
            brute_force_min(generate("path", (3,)), VertexSet(4, [0]))


class TestMinimumSolutions:
    def test_path_families(self):
        g = generate("path", (4,))
        pd = minimum_solutions(g, None, "pd")
        assert [s.members() for s in pd] == [(0,), (1,), (2,), (3,)]
        zf = minimum_solutions(g, None, "zf")
        assert [s.members() for s in zf] == [(0,), (3,)]

    def test_respects_x(self):
        g = generate("path", (4,))
        sols = minimum_solutions(g, g.vertex_set([1]), "zf")
        assert [s.members() for s in sols] == [(0, 1), (1, 2), (1, 3)]

    def test_every_solution_is_minimum_and_feasible(self):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randint(1, 7)
            g = random_connected_graph(n, rng) if n > 1 else generate("path", (1,))
            x = g.vertex_set(random_subset(n, rng, rng.randint(0, 1)))
            best = brute_force_min(g, x, "zf").value
            sols = minimum_solutions(g, x, "zf")
            assert all(len(s) == best and x.issubset(s) for s in sols)
            assert all(is_zero_forcing_set(g, s) for s in sols)
            assert len({s.mask for s in sols}) == len(sols)

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            minimum_solutions(generate("path", (17,)))


class TestConstraintGeneration:
    def test_counters_populate(self):
        g = generate("spider_complete", (3,))
        res = restricted_pd_number(g)
        assert res.cuts_added >= 1
        assert res.nodes >= 1

    def test_cut_log_records_violated_forts(self):
        # On a disconnected graph each cut belongs to one component and is
        # logged in the graph's own ids.
        rng = random.Random(31)
        cases = []
        for _ in range(40):
            n = rng.randint(2, 9)
            g = random_connected_graph(n, rng)
            cases.append((g, g.vertex_set(random_subset(n, rng, rng.randint(0, 1)))))
        for _ in range(40):
            n = rng.randint(2, 12)
            g = random_graph(n, rng, p=0.2)
            cases.append((g, g.vertex_set(random_subset(n, rng, rng.randint(0, 2)))))
        assert sum(not g.is_connected() for g, _ in cases) >= 30
        for g, x in cases:
            for solve, mode in (
                (restricted_pd_number, "pd"),
                (restricted_zf_number, "zf"),
            ):
                for strong in (False, True):
                    log = []
                    res = solve(g, x, min_forts=strong, cut_log=log)
                    assert len(log) == res.cuts_added
                    for incumbent, fort in log:
                        assert is_fort(g, fort.members)
                        if mode == "pd":
                            blocked = g.closed_neighborhood(fort.members)
                        else:
                            blocked = fort.members
                        assert incumbent.isdisjoint(blocked)

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            restricted_pd_number(generate("path", (65,)))
        assert restricted_pd_number(generate("path", (65,)), guard=65).value == 1

    def test_minimum_forts_on_long_paths(self):
        # One cut settles a path: a minimum fort of about n/2 vertices.
        for n in (64, 200):
            g = generate("path", (n,))
            res = restricted_pd_number(g, min_forts=True, guard=n)
            assert (res.value, res.cuts_added) == (1, 1)
            certify(g, res.witness, g.vertex_set([]), "pd", 1)

    def test_guard_bounds_each_component(self):
        three_paths = [(i, i + 1) for i in range(119) if i % 40 != 39]
        forest = Graph(120, three_paths)
        assert restricted_pd_number(forest).value == 3
        assert restricted_zf_number(forest).value == 3
        beside = Graph(185, three_paths + [(i, i + 1) for i in range(120, 184)])
        for solve in (restricted_pd_number, restricted_zf_number):
            with pytest.raises(GuardExceededError):
                solve(beside)

    def test_route_agreement_random(self):
        rng = random.Random(37)
        for _ in range(120):
            n = rng.randint(1, 8)
            g = random_connected_graph(n, rng) if n > 1 else generate("path", (1,))
            x = g.vertex_set(random_subset(n, rng, rng.randint(0, n)))
            expected = brute_force_min(g, x, "pd").value
            assert restricted_pd_number(g, x).value == expected
            assert restricted_pd_number(g, x, min_forts=True).value == expected
            assert reduction_pd_number(g, x).value == expected
            zf_expected = brute_force_min(g, x, "zf").value
            assert restricted_zf_number(g, x).value == zf_expected
            assert restricted_zf_number(g, x, min_forts=True).value == zf_expected

    def test_reduction_guard_counts_the_callers_vertices(self):
        # The three leaves on each vertex of X grow path 60 to 66 vertices;
        # only the 60 the caller passed count against the guard.
        g = generate("path", (60,))
        x = g.vertex_set([0, 1])
        assert reduction_pd_number(g, x).value == restricted_pd_number(g, x).value == 2
        g = generate("path", (65,))
        with pytest.raises(GuardExceededError, match="graph has 65 vertices"):
            reduction_pd_number(g, g.vertex_set([0, 1]))

    def test_reduction_without_x_attaches_nothing(self):
        # With empty X the attachment is the graph itself, so the
        # reduction runs the minimum-fort solve of the graph unchanged.
        rng = random.Random(41)
        for _ in range(40):
            g = random_graph(rng.randint(1, 14), rng)
            red = reduction_pd_number(g)
            cg = restricted_pd_number(g, min_forts=True)
            assert red.method == "reduction"
            assert (red.value, red.witness, red.cuts_added, red.nodes) == (
                cg.value,
                cg.witness,
                cg.cuts_added,
                cg.nodes,
            )


class TestDisconnected:
    def test_component_sum(self):
        g = Graph(8, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
        # components: path 0-1-2, path 3-4-5-6, isolated 7
        res = pd_number_disconnected(g)
        assert res.value == 3
        assert is_power_dominating_set(g, res.witness)

    def test_small_components_keep_x(self):
        g = Graph(5, [(0, 1), (2, 3)])
        x = g.vertex_set([0, 1, 4])
        res = pd_number_disconnected(g, x)
        assert res.value == 4
        assert x.issubset(res.witness)
        assert is_power_dominating_set(g, res.witness)

    def test_matches_oracle_random(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(1, 9)
            g = random_graph(n, rng, p=0.25)
            x = g.vertex_set(random_subset(n, rng, rng.randint(0, min(2, n))))
            expected = brute_force_min(g, x, "pd").value
            res = pd_number_disconnected(g, x)
            assert res.value == expected
            assert x.issubset(res.witness)
            assert is_power_dominating_set(g, res.witness)
            zf_expected = brute_force_min(g, x, "zf").value
            for strong in (False, True):
                res = restricted_pd_number(g, x, min_forts=strong)
                assert res.value == len(res.witness) == expected
                assert x.issubset(res.witness)
                assert is_power_dominating_set(g, res.witness)
                res = restricted_zf_number(g, x, min_forts=strong)
                assert res.value == len(res.witness) == zf_expected
                assert x.issubset(res.witness)
                assert is_zero_forcing_set(g, res.witness)


def _small_forest(rng):
    """Random trees of 1..5 vertices side by side, under a random labelling."""
    sizes = [rng.randint(1, 5) for _ in range(rng.randint(2, 8))]
    label = list(range(sum(sizes)))
    rng.shuffle(label)
    edges, start = [], 0
    for size in sizes:
        edges += [(label[start + u], label[start + v]) for u, v in random_tree(size, rng).edges()]
        start += size
    return Graph(len(label), edges)


def _component_width_cases():
    p4s = Graph(60, [(4 * i + j, 4 * i + j + 1) for i in range(15) for j in range(3)])
    # A triangle, a 5-cycle, a path on 3 vertices and an isolated vertex.
    mixed = Graph(
        12,
        [(0, 1), (1, 2), (0, 2)]
        + [(3 + i, 3 + (i + 1) % 5) for i in range(5)]
        + [(8, 9), (9, 10)],
    )
    rng = random.Random(53)
    graphs = [Graph(60), p4s, mixed] + [_small_forest(rng) for _ in range(12)]
    return [(g, g.vertex_set(random_subset(g.n, rng, rng.randint(0, 3)))) for g in graphs]


@pytest.mark.parametrize("mode", ["pd", "zf"])
@pytest.mark.parametrize("strong", [False, True])
def test_each_master_runs_at_its_components_width(monkeypatch, mode, strong):
    # Every component is solved as its own graph: each master call is as
    # wide as the component whose latest cut it answers, and the cuts come
    # back in the graph's ids.
    solve = restricted_pd_number if mode == "pd" else restricted_zf_number
    real = solver._cover_exact
    for g, x in _component_width_cases():
        comps = g.components()
        log = []

        def spy(n, degs, rows, forced):
            fort = log[-1][1].members
            assert n == len(next(c for c in comps if fort.issubset(c)))
            return real(n, degs, rows, forced)

        monkeypatch.setattr(solver, "_cover_exact", spy)
        res = solve(g, x, min_forts=strong, cut_log=log)
        expected = 0
        for comp in comps:
            sub, index = g.induced_subgraph(comp)
            expected += brute_force_min(sub, index.restrict(x), mode).value
        assert res.value == expected
        certify(g, res.witness, x, mode, res.value)
        assert len(log) == res.cuts_added
        for incumbent, fort in log:
            assert fort.members.n == incumbent.n == g.n
            assert is_fort(g, fort.members)
            comp = next(c for c in comps if fort.members.issubset(c))
            assert incumbent.issubset(comp)
            blocked = g.closed_neighborhood(fort.members) if mode == "pd" else fort.members
            assert incumbent.isdisjoint(blocked)


class TestSpread:
    def test_known_values(self):
        g = generate("fig_spread")
        assert spread(g, 4) == 0
        assert spread(g, 5) == 0
        assert spread(generate("path", (5,)), 0) == 0
        assert spread(generate("star", (4,)), 1) == 1

    def test_range_on_random_graphs(self):
        rng = random.Random(43)
        for _ in range(30):
            n = rng.randint(2, 8)
            g = random_connected_graph(n, rng)
            assert spread(g, rng.randrange(n)) in (-1, 0, 1)

    def test_errors(self):
        with pytest.raises(GraphError):
            spread(generate("path", (1,)), 0)
        with pytest.raises(GraphError):
            spread(generate("path", (3,)), 9)


class TestSingleVertexRestriction:
    def test_matches_oracle_everywhere(self):
        rng = random.Random(47)
        for _ in range(40):
            n = rng.randint(1, 8)
            g = random_connected_graph(n, rng) if n > 1 else generate("path", (1,))
            v = rng.randrange(n)
            res = z_restricted_single(g, v)
            assert res.value == brute_force_min(g, g.vertex_set([v]), "zf").value
            assert v in res.witness
            assert len(res.witness) == res.value
            assert is_zero_forcing_set(g, res.witness)

    def test_spread_figure(self):
        g = generate("fig_spread")
        assert z_restricted_single(g, 5).value == 2
        assert z_restricted_single(g, 4).value == 3

    def test_single_vertex_graph(self):
        res = z_restricted_single(generate("path", (1,)), 0)
        assert res.value == 1 and res.witness.members() == (0,)


class TestKRestricted:
    def test_paths(self):
        g = generate("path", (5,))
        value, x = k_restricted_number(g, 1, "pd")
        assert value == 1 and len(x) == 1
        value, x = k_restricted_number(g, 1, "zf")
        assert value == 2 and x.members() == (1,)

    def test_dom_mode_matches_oracle_maximum(self):
        g = generate("path", (6,))
        value, x = k_restricted_number(g, 1, "dom")
        direct = max(brute_force_min(g, g.vertex_set((v,)), "dom").value for v in range(6))
        assert value == direct == 3
        assert brute_force_min(g, x, "dom").value == value

    @pytest.mark.parametrize("mode", ["pd", "zf", "dom"])
    def test_matches_a_direct_maximum_over_every_x(self, mode):
        # The solves of one graph share its components and degrees; each X
        # still gets its own answer, and the first maximizing X wins.
        solve = {
            "pd": restricted_pd_number,
            "zf": restricted_zf_number,
            "dom": lambda g, x: brute_force_min(g, x, "dom"),
        }[mode]
        for g in graph_sweep(6):
            for k in range(min(g.n, 3) + 1):
                best, best_x = -1, None
                for combo in combinations(range(g.n), k):
                    value = solve(g, g.vertex_set(combo)).value
                    if value > best:
                        best, best_x = value, g.vertex_set(combo)
                assert k_restricted_number(g, k, mode) == (best, best_x)

    def test_validation(self):
        g = generate("path", (4,))
        with pytest.raises(GraphError):
            k_restricted_number(g, 9)
        with pytest.raises(ValueError):
            k_restricted_number(g, 1, "bad")
        with pytest.raises(GuardExceededError):
            k_restricted_number(generate("path", (21,)), 1)


@pytest.mark.parametrize(
    "solve",
    [
        lambda g: brute_force_min(g, None, "ZF"),
        lambda g: minimum_solutions(g, None, "ZF"),
        lambda g: k_restricted_number(g, 1, "ZF"),
    ],
    ids=["brute_force_min", "minimum_solutions", "k_restricted_number"],
)
def test_an_unknown_mode_gets_the_dispatch_message(solve):
    with pytest.raises(ValueError, match="mode must be 'pd', 'zf' or 'dom'"):
        solve(generate("path", (4,)))


# The sha256 of every answer below on a seeded set of small instances.
# Any change to a value, a witness, a cut count or a node count changes
# it; a change that means to do so re-records it and says why.
ANSWERS_SHA256 = "98ec02f2c409d3cf0352f88daddd8afae99834b1892daa2281b32c357b15de7d"


def _answer(res):
    return (res.value, res.witness.members(), res.method, res.cuts_added, res.nodes)


def test_answers_are_byte_identical():
    rng = random.Random(2017)
    answers = []
    for i in range(200):
        n = rng.randint(4, 14)
        tree = i % 3 == 0
        if tree:
            g = random_tree(n, rng)
        elif i % 3 == 1:
            g = random_connected_graph(n, rng)
        else:
            g = random_graph(n, rng, p=0.2)
        x = g.vertex_set(random_subset(n, rng, rng.randint(0, 2)))
        solves = [
            restricted_pd_number(g, x),
            restricted_zf_number(g, x),
            restricted_pd_number(g, x, min_forts=True),
            restricted_zf_number(g, x, min_forts=True),
            reduction_pd_number(g, x),
            *(brute_force_min(g, x, m) for m in ("pd", "zf", "dom")),
        ]
        if tree:
            solves.append(tree_pd_parallel(g))
        answers.append([_answer(res) for res in solves])
        if n <= 10:
            answers.append(
                [[s.members() for s in minimum_solutions(g, x, m)] for m in ("pd", "zf", "dom")]
            )
            answers.append([f.members.members() for f in enumerate_forts(g)])
        rows = [a | 1 << v for v, a in enumerate(g.adj)]
        answers.append(_cover_exact(n, tuple(a.bit_count() for a in g.adj), rows, x.mask))
        if all(g.adj):
            report = domination_half(g)
            answers.append((report.lhs, report.rhs))
        inner = g.vertex_set(random_subset(n, rng, rng.randint(2, n - 2)))
        sub, imap = g.induced_subgraph(inner)
        s = imap.lift(restricted_pd_number(sub).witness)
        report = component_sum_pd(g, inner, s, dominating_variant=True)
        answers.append(
            (
                report.lhs,
                report.rhs,
                report.context["witness"].members(),
                [a.members() for a in report.context["anchors"]],
            )
        )
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    assert digest == ANSWERS_SHA256


# The sha256 of the master's (cover, node count) on seeded row sets.  The
# node count pins the whole search tree: branching order, pruning and the
# greedy start.  Up to 100 rows, so masks over row indices pass 64 bits.
COVER_SHA256 = "ece393fb8df05b8fcf9573dcd4a45bdce40379cafc5e11099f536768a7fcdd5a"


def _cover_instance(rng, low=1, high=64, most_rows=100):
    n = rng.randint(low, high)
    width = rng.choice((2, 4, 8, 24))
    rows = []
    for _ in range(rng.randint(0, most_rows)):
        # A duplicate, a superset or a subset of an earlier row, or a new one.
        roll = rng.random()
        if rows and roll < 0.15:
            rows.append(rng.choice(rows))
        elif rows and roll < 0.3:
            rows.append(rng.choice(rows) | 1 << rng.randrange(n))
        elif rows and roll < 0.4:
            r = rng.choice(rows)
            rows.append(r & ~(r & -r) or r)
        else:
            rows.append(sum(1 << v for v in rng.sample(range(n), rng.randint(1, min(n, width)))))
    forced = sum(1 << v for v in rng.sample(range(n), rng.randint(0, min(n, 3))))
    degs = tuple(rng.randint(0, n) for _ in range(n))
    return n, degs, rows, forced


def test_cover_exact_is_byte_identical():
    rng = random.Random(13)
    answers = [_cover_exact(*_cover_instance(rng)) for _ in range(300)]
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    assert digest == COVER_SHA256


@pytest.mark.parametrize(
    "n, rows, forced",
    [(3, [0b011, 0], 0), (3, [0], 0b111), (2, [0b100], 0), (2, [0b101], 0), (1, [0b1, 0b10], 0b1)],
)
def test_cover_exact_rejects_an_empty_or_out_of_range_row(n, rows, forced):
    # On an empty row the greedy start would pick vertex 0 forever.
    with pytest.raises(CertificationError, match="is empty or leaves"):
        _cover_exact(n, (1,) * n, rows, forced)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=10).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), max_size=12),
            st.integers(min_value=0, max_value=(1 << n) - 1),
            st.lists(st.integers(min_value=0, max_value=n), min_size=n, max_size=n),
        )
    )
)
def test_cover_exact_matches_brute_force(case):
    n, rows, forced, degs = case
    mask, nodes = _cover_exact(n, tuple(degs), rows, forced)
    assert mask & forced == forced
    assert all(r & mask for r in rows)
    assert nodes >= 1
    smallest = min(
        m.bit_count()
        for m in range(1 << n)
        if m & forced == forced and all(r & m for r in rows)
    )
    assert mask.bit_count() == smallest


@st.composite
def cover_instances(draw):
    n = draw(st.integers(min_value=1, max_value=200))
    member = st.integers(min_value=0, max_value=n - 1)
    width = draw(st.sampled_from((2, 4, 8, 24)))
    row = st.lists(member, min_size=1, max_size=width).map(lambda vs: sum(1 << v for v in set(vs)))
    rows = draw(st.lists(row, max_size=100))
    forced = sum(1 << v for v in set(draw(st.lists(member, max_size=3))))
    # Few distinct degrees make ties that only the vertex id breaks.
    most = draw(st.sampled_from((1, 3, n)))
    degs = draw(st.lists(st.integers(min_value=0, max_value=most), min_size=n, max_size=n))
    return n, tuple(degs), rows, forced


# Greedy takes 0 and needs 3 vertices; below the child 1, vertices 2 and 3
# both cover the rows left: the higher degree wins, then the lower id.
_TIE_ROWS = [0b11, 0b11, 0b10, 0b1101, 0b1101, 0b1100]


@settings(max_examples=100, deadline=None)
@given(cover_instances())
@example((4, (1, 1, 1, 1), _TIE_ROWS, 0))
@example((4, (1, 1, 1, 2), _TIE_ROWS, 0))
def test_cover_exact_counts_the_nodes_it_does_not_enter(case):
    # Vertex ids and degrees above 127 included: ordering and tie breaks
    # must not depend on a field width.
    assert _cover_exact(*case) == reference_cover_exact(*case)


def test_cover_exact_matches_the_reference_past_127_vertices():
    # Ties between vertex ids on both sides of 128 break as they do below
    # it; up to 40 rows keeps the reference search short.
    rng = random.Random(21)
    for _ in range(60):
        case = _cover_instance(rng, 128, 200, 40)
        assert _cover_exact(*case) == reference_cover_exact(*case)


@pytest.mark.parametrize("family", ["path", "cycle"])
@pytest.mark.parametrize("n", [40, 64])
def test_cover_exact_matches_the_reference_on_grown_graphs(monkeypatch, family, n):
    # Leaf attachment grows these graphs to 100-160 vertices.  Each master
    # here stops at its root; the row sets above pin branching past 127.
    calls = []

    def both(n, degs, rows, forced):
        answer = _cover_exact(n, degs, rows, forced)
        assert answer == reference_cover_exact(n, degs, rows, forced)
        calls.append(n)
        return answer

    monkeypatch.setattr(solver, "_cover_exact", both)
    g = generate(family, (n,))
    x = g.vertex_set(random.Random(n).sample(range(n), n // 2))
    res = reduction_pd_number(g, x)
    assert res.value == n // 2 and max(calls) == n + 3 * (n // 2)


def _transpose(n, rows):
    return [sum(1 << i for i, r in enumerate(rows) if r >> v & 1) for v in range(n)]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=2),
                    st.integers(min_value=0, max_value=1 << 16),
                    st.integers(min_value=1, max_value=(1 << n) - 1),
                ),
                max_size=30,
            ),
            st.integers(min_value=0, max_value=(1 << n) - 1),
            st.lists(st.integers(min_value=0, max_value=n), min_size=n, max_size=n),
        )
    )
)
def test_row_pool_keeps_its_transpose(case):
    n, steps, forced, degs = case
    degs = tuple(degs)
    pool = _RowPool(n)
    minimal = []  # the rows the pool should hold, in order
    for kind, pick, fresh in steps:
        # A fresh row, or a subset or a superset of a row in the pool.
        row = fresh
        if pool and kind == 1:
            old = pool[pick % len(pool)]
            row = old & ~(old & -old) or fresh
        elif pool and kind == 2:
            row = pool[pick % len(pool)] | fresh
        if any(q & row == q for q in minimal):
            with pytest.raises(CertificationError, match="cut already implied by the pool"):
                pool.add_cut(row)
            continue
        pool.add_cut(row)
        minimal = [q for q in minimal if row & q != row] + [row]
        assert list(pool) == minimal
        assert pool.col == _transpose(n, minimal)
        answer = _cover_exact(n, degs, pool, forced)
        assert answer == _cover_exact(n, degs, minimal, forced)
        # Masking the rows that forced hits searches the same tree as
        # dropping them: forced vertices are in no remaining row.
        cover, nodes = _cover_exact(n, degs, [r for r in minimal if r & forced == 0], 0)
        assert answer == (cover | forced, nodes)
        for bad in (0, row | 1 << n):
            with pytest.raises(CertificationError, match="is empty or leaves"):
                pool.add_cut(bad)
        assert list(pool) == minimal and pool.col == _transpose(n, minimal)
