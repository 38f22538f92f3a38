"""Propagation processes: closures, traces, chains, terminal sets."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdzf import (
    DEFAULT_TERMINAL_CAP,
    Graph,
    GuardExceededError,
    InconsistentTraceError,
    InfeasibleError,
    PropagationTrace,
    VertexSet,
    certify,
    enumerate_terminal_sets,
    forcing_chains,
    generate,
    is_power_dominating_set,
    is_zero_forcing_set,
    pd_observe,
    zf_closure,
)
from pdzf.graph import supersets
from pdzf.propagation import closure_mask, dominated_mask, final_mask, final_step

from util import (
    random_connected_graph,
    random_graph,
    random_subset,
    reference_rounds,
    reference_terminal_sets,
)


def replay(graph, trace):
    """Re-apply every force of a trace, checking legality step by step."""
    blue = trace.initial.mask
    for rnd in trace.rounds:
        start = blue
        for u, w in rnd:
            assert start >> u & 1, "forcer must be blue at the start of the round"
            white = graph.adj[u] & ~start
            assert white == 1 << w, "target must be the unique white neighbor"
            assert not blue >> w & 1, "target must still be white when applied"
            blue |= 1 << w
        assert blue != start, "every round must force something"
    return blue


class TestClosures:
    def test_path_zero_forcing_rounds(self):
        g = generate("path", (4,))
        trace = zf_closure(g, g.vertex_set([0]))
        assert trace.rounds == (((0, 1),), ((1, 2),), ((2, 3),))
        assert list(trace.final) == [0, 1, 2, 3]
        assert not trace.dominated
        assert trace.initial - trace.dominated == trace.initial

    def test_star_center_cannot_force(self):
        g = generate("star", (3,))
        trace = zf_closure(g, g.vertex_set([0]))
        assert trace.rounds == ()
        assert list(trace.final) == [0]

    def test_power_domination_round_zero(self):
        g = generate("path", (6,))
        trace = pd_observe(g, g.vertex_set([1]))
        assert list(trace.initial) == [0, 1, 2]
        assert list(trace.dominated) == [0, 2]
        assert list(trace.initial - trace.dominated) == [1]
        assert trace.forces == ((2, 3), (3, 4), (4, 5))

    def test_simultaneous_forces_share_a_round(self):
        g = generate("path", (5,))
        trace = zf_closure(g, g.vertex_set([2]))
        # 2 has two white neighbors, so nothing ever fires
        assert trace.rounds == ()
        both = zf_closure(g, g.vertex_set([1, 2, 3]))
        assert both.rounds == (((1, 0), (3, 4)),)

    def test_feasibility_predicates(self):
        g = generate("path", (5,))
        assert is_zero_forcing_set(g, g.vertex_set([0]))
        assert not is_zero_forcing_set(g, g.vertex_set([2]))
        assert is_power_dominating_set(g, g.vertex_set([2]))
        assert not is_power_dominating_set(generate("star", (5,)), [1])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=10**6))
    def test_trace_replays_and_is_idempotent(self, n, seed):
        rng = random.Random(seed)
        g = random_graph(n, rng)
        b = g.vertex_set(random_subset(n, rng))
        trace = zf_closure(g, b)
        assert replay(g, trace) == trace.final.mask
        again = zf_closure(g, trace.final)
        assert again.final == trace.final and again.rounds == ()
        pd = pd_observe(g, b)
        assert replay(g, pd) == pd.final.mask
        assert pd.final == zf_closure(g, g.closed_neighborhood(b)).final

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=10**6))
    def test_closure_monotone(self, n, seed):
        rng = random.Random(seed)
        g = random_graph(n, rng)
        small = g.vertex_set(random_subset(n, rng))
        big = small | g.vertex_set(random_subset(n, rng))
        assert zf_closure(g, small).final.issubset(zf_closure(g, big).final)
        assert pd_observe(g, small).final.issubset(pd_observe(g, big).final)


class TestWorklistClosure:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=24),
        st.floats(min_value=0.03, max_value=0.9),
        st.integers(min_value=0, max_value=10**6),
        st.booleans(),
    )
    def test_matches_the_round_based_closure(self, n, p, seed, dominate):
        rng = random.Random(seed)
        g = random_graph(n, rng, p)
        blue = g.vertex_set(random_subset(n, rng)).mask
        if dominate:
            blue = dominated_mask(g.adj, blue)
        assert closure_mask(g.adj, blue) == zf_closure(g, VertexSet.from_mask(n, blue)).final.mask

    def test_long_paths(self):
        g = generate("path", (3000,))
        assert is_zero_forcing_set(g, [0])
        assert not is_zero_forcing_set(g, [1])
        assert is_power_dominating_set(g, [0])
        assert is_power_dominating_set(g, [1500])
        assert not is_power_dominating_set(generate("star", (3000,)), [1])
        h = generate("path", (1500,))
        assert certify(h, h.vertex_set([0]), (), "pd") == h.vertex_set([0])
        assert certify(h, h.vertex_set([1499]), [1499], "zf", 1) == h.vertex_set([1499])


class TestTracesMatchTheReference:
    """The traces scan only what the previous round colored; the reference
    rescans every blue vertex in each round."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=24),
        st.floats(min_value=0.03, max_value=0.9),
        st.integers(min_value=0, max_value=10**6),
        st.booleans(),
    )
    def test_same_rounds_and_sets(self, n, p, seed, dominate):
        rng = random.Random(seed)
        g = random_graph(n, rng, p)
        b = g.vertex_set(random_subset(n, rng))
        if dominate:
            b = VertexSet.from_mask(n, dominated_mask(g.adj, b.mask))
        rounds, final = reference_rounds(g.adj, b.mask)
        zf = zf_closure(g, b)
        assert (zf.initial, zf.dominated, zf.rounds, zf.final.mask) == (
            b, VertexSet(n), rounds, final,
        )
        observed = dominated_mask(g.adj, b.mask)
        rounds, final = reference_rounds(g.adj, observed)
        pd = pd_observe(g, b)
        assert (pd.initial.mask, pd.dominated.mask, pd.rounds, pd.final.mask) == (
            observed, observed & ~b.mask, rounds, final,
        )

    def test_long_path_runs(self):
        g = generate("path", (3000,))
        trace = zf_closure(g, g.vertex_set([0]))
        assert len(trace.rounds) == 2999
        assert trace.rounds[-1] == ((2998, 2999),)
        assert all(len(rnd) == 1 for rnd in trace.rounds)
        assert len(trace.final) == 3000
        assert len(pd_observe(g, g.vertex_set([1500])).final) == 3000


class TestSupersetWalk:
    """The oracle's walk steps each superset's final mask from its prefix's."""

    @pytest.mark.parametrize("mode", ["pd", "zf", "dom"])
    def test_states_are_final_masks_in_combinations_order(self, mode):
        rng = random.Random(15)
        for _ in range(60):
            n = rng.randint(1, 10)
            g = random_graph(n, rng, rng.choice((0.15, 0.3, 0.5)))
            x = g.vertex_set(random_subset(n, rng, rng.randint(0, min(n, 2)))).mask
            walk = supersets(x, n, final_step(g.adj, mode), final_mask(g.adj, x, mode))
            got = [pair for size in walk for pair in size]
            free = [v for v in range(n) if not x >> v & 1]
            order = [
                x | sum(1 << v for v in combo)
                for k in range(len(free) + 1)
                for combo in combinations(free, k)
            ]
            assert [mask for mask, _ in got] == order
            assert got == [(mask, final_mask(g.adj, mask, mode)) for mask in order]


class TestModeDispatch:
    @pytest.mark.parametrize("mode", ["ZF", "xx"])
    def test_unknown_mode_raises(self, mode):
        g = generate("path", (5,))
        with pytest.raises(ValueError, match="mode must be"):
            final_mask(g.adj, g.vertex_set([1, 3]).mask, mode)
        with pytest.raises(ValueError, match="mode must be"):
            final_step(g.adj, mode)
        with pytest.raises(ValueError, match="mode must be"):
            certify(g, g.vertex_set([1, 3]), (), mode)

    def test_dom_is_the_closed_neighborhood(self):
        g = generate("path", (5,))
        assert final_mask(g.adj, g.vertex_set([1, 3]).mask, "dom") == 0b11111
        assert final_mask(g.adj, g.vertex_set([0]).mask, "dom") == 0b11
        assert certify(g, g.vertex_set([1, 3]), [1], "dom", 2) == g.vertex_set([1, 3])


class TestForcingChains:
    def test_path_single_chain(self):
        g = generate("path", (4,))
        dec = forcing_chains(g, zf_closure(g, g.vertex_set([0])))
        assert dec.chains == ((0, 1, 2, 3),)
        assert list(dec.terminals) == [3]

    def test_chains_partition_final(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 9)
            g = random_graph(n, rng)
            b = g.vertex_set(random_subset(n, rng))
            trace = zf_closure(g, b)
            dec = forcing_chains(g, trace)
            flat = [v for chain in dec.chains for v in chain]
            assert sorted(flat) == sorted(trace.final)
            assert len(dec.chains) == len(b)
            assert len(dec.terminals) == len(b)
            for chain in dec.chains:
                assert chain[0] in b

    def test_inconsistent_trace_rejected(self):
        g = generate("path", (4,))
        trace = zf_closure(g, g.vertex_set([0]))
        doctored = PropagationTrace(
            initial=trace.initial,
            dominated=trace.dominated,
            rounds=(((3, 2),),) + trace.rounds,
            final=trace.final,
        )
        with pytest.raises(InconsistentTraceError):
            forcing_chains(g, doctored)
        truncated = PropagationTrace(
            initial=trace.initial,
            dominated=trace.dominated,
            rounds=trace.rounds[:1],
            final=trace.final,
        )
        with pytest.raises(InconsistentTraceError):
            forcing_chains(g, truncated)

    def test_force_onto_a_non_unique_white_neighbor_rejected(self):
        # The center of a star with all leaves white has three white neighbors.
        g = generate("star", (3,))
        trace = zf_closure(g, g.vertex_set([0]))
        doctored = PropagationTrace(
            initial=trace.initial,
            dominated=trace.dominated,
            rounds=(((0, 1),),),
            final=g.vertex_set([0, 1]),
        )
        with pytest.raises(InconsistentTraceError, match="not the unique white neighbor of 0"):
            forcing_chains(g, doctored)


class TestTerminalSets:
    def test_cycle_terminal_sets(self):
        g = generate("cycle", (4,))
        sets = enumerate_terminal_sets(g, g.vertex_set([0, 1]))
        assert {tuple(s) for s in sets} == {(0, 3), (1, 2), (2, 3)}

    def test_terminal_set_sizes_match_source(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 8)
            g = random_connected_graph(n, rng) if n > 1 else Graph(1)
            b = g.vertex_set(random_subset(n, rng))
            if not is_zero_forcing_set(g, b):
                continue
            sets = enumerate_terminal_sets(g, b)
            canonical = forcing_chains(g, zf_closure(g, b)).terminals
            assert canonical in sets
            for t in sets:
                assert len(t) == len(b)
                assert t.issubset(g.full_set())

    def test_infeasible_source_rejected(self):
        g = generate("path", (4,))
        with pytest.raises(InfeasibleError):
            enumerate_terminal_sets(g, g.vertex_set([1]))

    def test_cap_guard(self):
        g = generate("c5_hub", (3,))
        b = g.closed_neighborhood(g.vertex_set([15]))
        with pytest.raises(GuardExceededError):
            enumerate_terminal_sets(g, b, 10)

    def test_hub_family_counts_grow_fourfold(self):
        for k in (1, 2):
            g = generate("c5_hub", (k,))
            b = g.closed_neighborhood(g.vertex_set([5 * k]))
            assert len(enumerate_terminal_sets(g, b)) == 4**k

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([1, 2, 3, 5, 10, DEFAULT_TERMINAL_CAP]),
    )
    def test_matches_the_reference(self, n, seed, cap):
        rng = random.Random(seed)
        g = random_connected_graph(n, rng) if n > 1 else Graph(1)
        drop = g.vertex_set(random_subset(n, rng, rng.randint(0, min(n, 3))))
        b = g.full_set() - drop
        if not is_zero_forcing_set(g, b):
            b = g.full_set()
        try:
            expected = reference_terminal_sets(g, b, cap)
        except GuardExceededError as exc:
            with pytest.raises(GuardExceededError) as info:
                enumerate_terminal_sets(g, b, cap)
            assert str(info.value) == str(exc)
        else:
            assert enumerate_terminal_sets(g, b, cap) == expected

    @pytest.mark.parametrize(
        "k,cap,message",
        [
            (3, 10, "more than cap=10 terminal sets (partial count 12)"),
            (4, 10, "more than cap=10 terminal sets (partial count 12)"),
            (5, 10, "more than cap=10 terminal sets (partial count 12)"),
            (4, 100, "more than cap=100 terminal sets (partial count 128)"),
            (5, 100, "more than cap=100 terminal sets (partial count 128)"),
        ],
    )
    def test_hub_cap_messages(self, k, cap, message):
        g = generate("c5_hub", (k,))
        b = g.closed_neighborhood(g.vertex_set([5 * k]))
        with pytest.raises(GuardExceededError) as info:
            enumerate_terminal_sets(g, b, cap)
        assert str(info.value) == message

    def test_hub_under_the_cap(self):
        g = generate("c5_hub", (3,))
        b = g.closed_neighborhood(g.vertex_set([15]))
        assert len(enumerate_terminal_sets(g, b, 100)) == 4**3

    def test_long_path(self):
        g = generate("path", (3000,))
        assert enumerate_terminal_sets(g, g.vertex_set([0])) == {g.vertex_set([2999])}
