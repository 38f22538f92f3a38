"""Acceptance gate: one test per published claim the package must reproduce.

Each test prints a single line naming the claim it verified, so a
verbose run reads as a checklist.  Frozen values were cross-checked by
an independent brute-force implementation before being pinned here.
"""

import itertools
import json
import random
import sys

import pytest

from pdzf import (
    InfeasibleError,
    apex_over,
    attach_leaves,
    audit,
    brute_force_min,
    component_sum_pd,
    component_sum_zf,
    compose_pendant_zf,
    degree_sum,
    delta_ratio,
    domination_half,
    enumerate_forts,
    enumerate_terminal_sets,
    extension_half,
    from_edge_list,
    generate,
    is_fort,
    is_power_dominating_set,
    is_zero_forcing_set,
    leaf_bound_witness,
    minimum_solutions,
    minimum_violated_fort,
    neighborhood_blowup,
    partition_pd,
    partition_zf,
    pd_third,
    reduction_pd_number,
    restricted_pd_number,
    restricted_pd_third,
    restricted_zf_number,
    spread,
    third_boundary,
    to_edge_list,
    tree_pd_parallel,
    z_restricted_single,
)
from pdzf.cli import main
from pdzf.propagation import final_mask
from pdzf.graph import VertexSet

from util import graph_sweep, random_connected_graph, random_subset, random_tree, stdin_of


def ok(line):
    print(f"PASS {line}")


def test_c1a_path_restriction_identity():
    """Every nonempty anchor set of a path is already a power dominating set."""
    for n in range(3, 13):
        g = generate("path", (n,))
        for mask in range(1, 1 << n):
            x = VertexSet.from_mask(n, mask)
            assert is_power_dominating_set(g, x)
        solver_masks = (
            range(1, 1 << n)
            if n <= 8
            else itertools.chain(
                (1 << v for v in range(n)),
                (random.Random(n).randrange(1, 1 << n) for _ in range(25)),
            )
        )
        for mask in solver_masks:
            x = VertexSet.from_mask(n, mask)
            assert restricted_pd_number(g, x).value == len(x)
    ok("1a: restricted power domination of paths equals the anchor size")


def test_c1b_path_anchored_forcing():
    """Forcing from a path endpoint costs 1, from an interior vertex 2."""
    for n in range(3, 13):
        g = generate("path", (n,))
        for end in (0, n - 1):
            assert restricted_zf_number(g, g.vertex_set([end])).value == 1
        for v in range(1, n - 1):
            assert restricted_zf_number(g, g.vertex_set([v])).value == 2
    ok("1b: anchored forcing numbers of paths match the endpoint dichotomy")


def test_c1c_star_leaf_restriction():
    """Anchoring s leaves of a star costs 1 + s whenever two leaves stay free."""
    for p in range(3, 7):
        g = generate("star", (p,))
        for s in range(1, p - 1):
            for leaves in itertools.combinations(range(1, p + 1), s):
                x = g.vertex_set(leaves)
                assert restricted_pd_number(g, x).value == 1 + s
                assert brute_force_min(g, x, "pd").value == 1 + s
    ok("1c: star leaf anchors cost one plus the anchor count")


def test_c1d_figure_minimum():
    """The two-leaf attachment over a path keeps its published minimum."""
    g = generate("fig_examples")
    assert restricted_pd_number(g).value == 2
    witness = g.vertex_set([0, 4])
    assert len(witness) == 2
    assert is_power_dominating_set(g, witness)
    ok("1d: figure graph has value 2 with the published witness")


def test_c1e_grid_extension_tight():
    """Extending a solved grid by two glued edges costs exactly the bound."""
    g = generate("grid2_triangles", (5,))
    s = g.vertex_set([0])
    assert restricted_pd_number(g, s).value == 3
    report = extension_half(g, range(10), s)
    assert report.lhs == report.rhs == 3
    assert report.tight
    ok("1e: triangle-extended grid meets 1 + 4/2 + 0/2 exactly")


def test_c1f_spider_boundary_tight():
    """The pendant-gadget clique meets the one-third boundary bound."""
    g = generate("spider_complete", (4,))
    s = g.vertex_set([0])
    assert restricted_pd_number(g, s).value == 5
    report = third_boundary(g, range(4), s)
    assert report.lhs == report.rhs == 5
    assert report.tight
    ok("1f: gadgeted clique meets 1 + 12/3 + 0 exactly")


def test_c1g_double_star_partition():
    """Joined double star: restricting to both centers costs nothing."""
    g = generate("double_star_join", (4, 4))
    assert restricted_pd_number(g).value == 2
    assert restricted_pd_number(g, g.vertex_set([0, 5])).value == 2
    ok("1g: joined double star has value 2 restricted or not")


def test_c1h_forcing_partition_tight():
    """The partition figure's forcing number splits as 2 + 1."""
    g = generate("fig_zpartition")
    assert restricted_zf_number(g).value == 3
    report = partition_zf(g, g.vertex_set([0, 1, 2]))
    assert report.lhs == report.rhs == 3
    assert report.tight
    assert min(report.context["sums"]) == 3
    ok("1h: partition figure forcing number is 3 = 2 + 1")


def test_c1i_spread_figure():
    """Spread figure: both marked vertices have zero spread, unequal anchors."""
    g = generate("fig_spread")
    assert restricted_zf_number(g).value == 2
    assert spread(g, 4) == 0
    assert spread(g, 5) == 0
    assert z_restricted_single(g, 5).value == 2
    assert z_restricted_single(g, 4).value == 3
    ok("1i: spread figure matches Z=2, zero spreads, anchors 2 and 3")


def test_c1j_hub_terminal_family():
    """Hubbed five-cycles: single-vertex minimum, exponential terminal family."""
    for k, floor in ((2, 16), (3, 64)):
        g = generate("c5_hub", (k,))
        hub = 5 * k
        res = restricted_pd_number(g)
        assert res.value == 1
        assert is_power_dominating_set(g, g.vertex_set([hub]))
        sets = enumerate_terminal_sets(g, g.closed_neighborhood(g.vertex_set([hub])))
        assert len(sets) >= floor
    ok("1j: hub graphs give single-vertex minima and >= 4^k terminal sets")


def test_c1k_leaf_bound_tight():
    """Two leaves on every free vertex force the one-third bound to equality."""
    base = generate("complete", (4,))
    g = leaf_bound_witness(base, base.vertex_set([0]))
    assert g.n == 10
    x = g.vertex_set([0])
    assert restricted_pd_number(g, x).value == 4
    assert 4 == (g.n + 2 * len(x)) // 3
    report = restricted_pd_third(g, x)
    assert report.tight
    ok("1k: leafed clique meets floor((10 + 2)/3) = 4 exactly")


def test_c2_route_agreement():
    """All solver routes agree on 300 random connected graphs, 10 anchors each."""
    rng = random.Random(211)
    pairs = 0
    for _ in range(300):
        g = random_connected_graph(rng.randint(2, 7), rng)
        for _ in range(10):
            x = g.vertex_set(random_subset(g.n, rng, rng.randint(0, g.n)))
            pd = brute_force_min(g, x, "pd").value
            assert restricted_pd_number(g, x).value == pd
            assert reduction_pd_number(g, x).value == pd
            zf = brute_force_min(g, x, "zf").value
            assert restricted_zf_number(g, x).value == zf
            pairs += 1
    assert pairs == 3000
    ok("2: constraint generation, leaf reduction, and brute force agree (3000 pairs)")


def test_c3_leaf_attachment_identities():
    """Two leaves preserve the value; three leaves preserve the solution family."""
    checked = 0
    for g in graph_sweep(6):
        n = g.n
        # The family check enumerates all minimum solutions of a graph on
        # n + 3|X| vertices, so |X| stays within the exhaustive guard.
        cap = min(n, (16 - n) // 3)
        anchors = [
            members
            for size in range(cap + 1)
            for members in itertools.combinations(range(n), size)
        ]
        for members in anchors:
            x = g.vertex_set(members)
            value = restricted_pd_number(g, x).value
            two = attach_leaves(g, x, 2)
            assert restricted_pd_number(two).value == value
            three = attach_leaves(g, x, 3)
            original = {s.members() for s in minimum_solutions(g, x, "pd")}
            lifted = {s.members() for s in minimum_solutions(three, None, "pd")}
            assert original == lifted
            checked += 1
    ok(f"3: leaf attachment value and family identities hold ({checked} instances)")


def test_c4_tree_theorem():
    """Splitting at one vertex solves 200 random trees exactly."""
    rng = random.Random(407)
    trees = [random_tree(rng.randint(3, 60), rng) for _ in range(200)]
    for t in trees:
        direct = restricted_pd_number(t, None, min_forts=True)
        split = tree_pd_parallel(t)
        assert split.value == direct.value
        assert is_power_dominating_set(t, split.witness)
    ok("4: the split theorem matches direct solves on 200 trees")


def test_c5_bound_audit():
    """Every catalogued bound holds on 1000 random instances; witnesses stay tight."""
    rng = random.Random(509)
    instances = 0
    while instances < 600:
        g = random_connected_graph(rng.randint(3, 8), rng)
        x = g.vertex_set(random_subset(g.n, rng, rng.randint(0, 2)))
        for report in audit(g, x):
            assert report.holds
        instances += 1
    while instances < 1000:
        g = random_connected_graph(rng.randint(4, 8), rng)
        kind = instances % 3
        if kind == 0:
            inner = g.vertex_set(random_subset(g.n, rng, rng.randint(1, g.n - 1)))
            sub, imap = g.induced_subgraph(inner)
            s = imap.lift(brute_force_min(sub, None, "pd").witness)
            assert extension_half(g, inner, s).holds
            for variant in (False, True):
                assert component_sum_pd(g, inner, s, dominating_variant=variant).holds
            b = imap.lift(brute_force_min(sub, None, "zf").witness)
            assert component_sum_zf(g, inner, b).holds
        elif kind == 1:
            v1 = g.vertex_set(random_subset(g.n, rng, rng.randint(1, g.n - 1)))
            v2 = v1.complement()
            w1 = g.closed_neighborhood(v2) & v1
            w2 = g.closed_neighborhood(v1) & v2
            assert partition_pd(g, v1, w1, w2).holds
            assert partition_zf(g, v1).holds
        else:
            x = g.vertex_set(random_subset(g.n, rng, rng.randint(0, 2)))
            s = restricted_pd_number(g, x).witness
            assert degree_sum(g, x, s).holds
            assert delta_ratio(g, x).holds
            assert neighborhood_blowup(g, x).holds
            assert domination_half(g).holds
            assert pd_third(g).holds
        instances += 1

    tight_cases = [
        domination_half(generate("cycle", (4,))),
        pd_third(generate("path", (3,))),
        extension_half(
            generate("grid2_triangles", (5,)),
            range(10),
            generate("grid2_triangles", (5,)).vertex_set([0]),
        ),
        third_boundary(
            generate("spider_complete", (4,)),
            range(4),
            generate("spider_complete", (4,)).vertex_set([0]),
        ),
        delta_ratio(generate("complete", (5,))),
        degree_sum(
            generate("path", (8,)),
            generate("path", (8,)).vertex_set([0]),
            generate("path", (8,)).vertex_set([0]),
        ),
        neighborhood_blowup(generate("star", (3,)), generate("star", (3,)).vertex_set([0])),
    ]
    fig = generate("fig_examples")
    tight_cases.append(component_sum_pd(fig, fig.vertex_set([0, 1, 2, 3]), fig.vertex_set([2])))
    tight_cases.append(component_sum_zf(fig, fig.vertex_set([0, 1, 2]), fig.vertex_set([0])))
    zp = generate("fig_zpartition")
    tight_cases.append(partition_zf(zp, zp.vertex_set([0, 1, 2])))
    ds = generate("double_star_join", (4, 4))
    tight_cases.append(partition_pd(ds, ds.vertex_set(range(5)), ds.vertex_set([0]), ds.vertex_set([5])))
    k4 = generate("complete", (4,))
    leafy = leaf_bound_witness(k4, k4.vertex_set([0]))
    tight_cases.append(restricted_pd_third(leafy, leafy.vertex_set([0])))
    assert len(tight_cases) == 12
    assert all(case.tight for case in tight_cases)
    ok("5: 1000 random instances hold and all 12 tightness witnesses report tight")


def test_c6_fort_machinery():
    """Minimum fort search, cut validity, and the covering obstruction."""
    rng = random.Random(613)
    # Minimum violated fort equals the enumeration minimum on every class.
    for g in graph_sweep(8):
        forts = enumerate_forts(g)
        final = final_mask(g.adj, g.vertex_set(random_subset(g.n, rng, 1)).mask, "pd")
        for forbidden in (g.vertex_set(), VertexSet.from_mask(g.n, final)):
            allowed = [f for f in forts if f.members.isdisjoint(forbidden)]
            if allowed:
                assert minimum_violated_fort(g, forbidden) == allowed[0]
            else:
                with pytest.raises(InfeasibleError):
                    minimum_violated_fort(g, forbidden)
    # Every cut the solver separates is a fort violated by its incumbent.
    cuts = 0
    for _ in range(60):
        g = random_connected_graph(rng.randint(2, 7), rng)
        x = g.vertex_set(random_subset(g.n, rng, rng.randint(0, 1)))
        for solve, blocked_of in (
            (restricted_pd_number, g.closed_neighborhood),
            (restricted_zf_number, lambda f: f),
        ):
            for strong in (False, True):
                log = []
                solve(g, x, min_forts=strong, cut_log=log)
                for incumbent, fort in log:
                    assert is_fort(g, fort.members)
                    assert incumbent.isdisjoint(blocked_of(fort.members))
                    cuts += 1
    assert cuts > 0
    # A power dominating set meets the closed neighborhood of every fort.
    for g in graph_sweep(7):
        witnesses = (
            restricted_pd_number(g).witness,
            brute_force_min(g, None, "pd").witness,
        )
        for fort in enumerate_forts(g):
            reach = g.closed_neighborhood(fort.members)
            assert all(not s.isdisjoint(reach) for s in witnesses)
    ok(f"6: fort minimum, {cuts} solver cuts, and the covering obstruction check out")


def test_c7_pendant_composition():
    """Gluing branches onto terminals composes the forcing number exactly."""
    rng = random.Random(707)
    built = 0
    while built < 100:
        base = random_connected_graph(rng.randint(3, 6), rng)
        x = restricted_zf_number(base).witness
        sets = sorted(enumerate_terminal_sets(base, x), key=lambda s: s.members())
        terminal = sets[rng.randrange(len(sets))]
        k = rng.randint(1, min(2, len(terminal)))
        ats = sorted(rng.sample(terminal.members(), k))
        attachments = tuple(
            (random_connected_graph(rng.randint(2, 5), rng), 0, at) for at in ats
        )
        comp = compose_pendant_zf(base, x, attachments)
        direct = brute_force_min(comp.graph, comp.graph.vertex_set(x), "zf")
        assert comp.result.value == direct.value
        assert is_zero_forcing_set(comp.graph, comp.result.witness)
        built += 1
    ok("7: 100 pendant compositions equal their direct anchored solves")


def test_c8_cli_determinism(monkeypatch, capsys):
    """Every subcommand prints byte-identical JSON apart from the runtime field."""

    def run(argv, stdin=""):
        monkeypatch.setattr(sys, "stdin", stdin_of(stdin))
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 0, err
        return out

    p5 = to_edge_list(generate("path", (5,)))
    c4 = to_edge_list(generate("cycle", (4,)))
    fig = to_edge_list(generate("fig_examples"))
    pendant = json.dumps(
        {"base": "3 2\n0 1\n1 2\n", "x": [0], "attachments": [{"graph": "2 1\n0 1\n", "root": 0, "at": 2}]}
    )
    boundary = json.dumps(
        {"base": to_edge_list(generate("double_star_join", (4, 4))), "v1": [0, 1, 2, 3, 4], "w1": [0], "w2": [5]}
    )
    apex = json.dumps({"base": c4, "x": [0, 1], "t": [2, 3]})
    commands = [
        (["solve", "--x", "1,3"], p5),
        (["solve", "--method", "oracle", "--mode", "zf"], p5),
        (["solve", "--method", "reduction", "--x", "1"], p5),
        (["solve", "--mode", "dom", "--method", "oracle"], p5),
        (["trace", "--mode", "pd", "--x", "1"], fig),
        (["trace", "--mode", "zf", "--x", "0,1"], c4),
        (["forts"], fig),
        (["forts", "--mode", "zf", "--x", "1"], p5),
        (["tree-pd", "--split", "2"], p5),
        (["compose", "pendant"], pendant),
        (["compose", "boundary"], boundary),
        (["compose", "apex"], apex),
        (["bounds", "--x", "1"], fig),
        (["terminals", "--x", "0,1"], c4),
        (["spread", "--vertex", "2"], p5),
        (["check", "--witness", "2,4", "--x", "4"], fig),
    ]
    for argv, stdin in commands:
        first = json.loads(run(argv, stdin))
        second = json.loads(run(argv, stdin))
        first.pop("runtime_ms")
        second.pop("runtime_ms")
        assert first == second, argv
    for argv, stdin in [(["gen", "fig_spread"], ""), (["gen", "apex_over", "--t", "0,2"], "3 2\n0 1\n1 2\n")]:
        assert run(argv, stdin) == run(argv, stdin)
    ok("8: sixteen JSON commands and two generators repeat byte for byte")
