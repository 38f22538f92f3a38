"""Bound catalogue: tight instances, hypothesis checks, and the audit."""

import hashlib
import random
from fractions import Fraction

import pytest

from pdzf import (
    AUDIT_BOUNDS,
    BoundHypothesisError,
    BoundReport,
    CompositionBound,
    Graph,
    GuardExceededError,
    PendantComposition,
    PdzfError,
    SolveResult,
    VertexSet,
    audit,
    brute_force_min,
    check_apex_terminal,
    component_sum_pd,
    component_sum_zf,
    compose_boundary_pd,
    compose_pendant_zf,
    degree_sum,
    delta_ratio,
    domination_half,
    enumerate_terminal_sets,
    extension_half,
    generate,
    leaf_bound_witness,
    neighborhood_blowup,
    partition_pd,
    partition_zf,
    pd_third,
    restricted_pd_number,
    restricted_pd_third,
    restricted_zf_number,
    third_boundary,
    to_edge_list,
)

from util import graph_sweep, random_connected_graph, random_graph, random_subset


def assert_tight(report, value):
    assert report.lhs == report.rhs == value
    assert report.holds and report.tight


class TestTightInstances:
    def test_domination_half(self):
        assert_tight(domination_half(generate("cycle", (4,))), 2)

    def test_pd_third(self):
        assert_tight(pd_third(generate("path", (3,))), 1)

    def test_restricted_pd_third(self):
        base = generate("complete", (4,))
        g = leaf_bound_witness(base, base.vertex_set([0]))
        assert g.n == 10
        assert_tight(restricted_pd_third(g, g.vertex_set([0])), 4)

    def test_extension_half(self):
        g = generate("grid2_triangles", (5,))
        report = extension_half(g, range(10), g.vertex_set([0]))
        assert_tight(report, 3)
        assert report.context["outside"] == 4
        assert report.context["isolated"] == 0

    def test_component_sum_pd(self):
        g = generate("fig_examples")
        report = component_sum_pd(g, g.vertex_set([0, 1, 2, 3]), g.vertex_set([2]))
        assert_tight(report, 2)
        assert not report.context["dominating_variant"]

    def test_third_boundary(self):
        g = generate("spider_complete", (4,))
        report = third_boundary(g, range(4), g.vertex_set([0]))
        assert_tight(report, 5)
        assert report.context["outside"] == 12
        assert report.context["border"] == 0

    def test_partition_pd(self):
        g = generate("double_star_join", (4, 4))
        report = partition_pd(
            g, g.vertex_set(range(5)), g.vertex_set([0]), g.vertex_set([5])
        )
        assert_tight(report, 2)
        assert report.context["unrestricted"] == 2
        assert report.context["witness"].members() == (0, 5)

    def test_component_sum_zf(self):
        g = generate("fig_examples")
        report = component_sum_zf(g, g.vertex_set([0, 1, 2]), g.vertex_set([0]))
        assert_tight(report, 3)

    def test_partition_zf(self):
        g = generate("fig_zpartition")
        report = partition_zf(g, g.vertex_set([0, 1, 2]))
        assert_tight(report, 3)
        assert report.context["sums"] == (5, 3)
        assert report.context["free_side"] == 2

    def test_degree_sum(self):
        g = generate("path", (8,))
        report = degree_sum(g, g.vertex_set([0]), g.vertex_set([0]))
        assert_tight(report, 1)
        assert report.context["pds"].members() == (0,)

    def test_delta_ratio(self):
        report = delta_ratio(generate("complete", (5,)))
        assert_tight(report, 1)
        assert report.context["forcing"] == 4

    def test_neighborhood_blowup(self):
        g = generate("star", (3,))
        assert_tight(neighborhood_blowup(g, g.vertex_set([0])), 4)


class TestExactArithmetic:
    def test_rational_sides_stay_fractions(self):
        report = domination_half(generate("path", (5,)))
        assert report.lhs == 2
        assert report.rhs == Fraction(5, 2)
        assert report.holds and not report.tight

    def test_extension_half_odd_outside(self):
        g = generate("path", (5,))
        report = extension_half(g, [0, 1], g.vertex_set([0]))
        assert report.rhs == 1 + Fraction(3, 2)
        assert report.holds


class TestDominationNumber:
    def test_matches_oracle(self):
        for g in graph_sweep(6):
            if g.n > 1:
                assert domination_half(g).lhs == brute_force_min(g, None, "dom").value

    def test_guard(self):
        assert domination_half(generate("path", (64,))).lhs == 22
        with pytest.raises(GuardExceededError):
            domination_half(generate("path", (65,)))


class TestBoundsHoldEverywhere:
    def test_simple_bounds(self):
        rng = random.Random(103)
        for _ in range(30):
            g = random_connected_graph(rng.randint(3, 8), rng)
            x = g.vertex_set(random_subset(g.n, rng, rng.randint(0, 2)))
            for report in (
                pd_third(g),
                restricted_pd_third(g, x),
                degree_sum(g, x),
                delta_ratio(g, x),
                neighborhood_blowup(g, x),
                domination_half(g),
            ):
                assert report.holds
                assert report.tight == (report.lhs == report.rhs)

    def test_subgraph_bounds(self):
        rng = random.Random(107)
        checked = 0
        while checked < 25:
            g = random_connected_graph(rng.randint(4, 8), rng)
            inner = g.vertex_set(random_subset(g.n, rng, rng.randint(1, g.n - 1)))
            sub, imap = g.induced_subgraph(inner)
            s = imap.lift(brute_force_min(sub, None, "pd").witness)
            expected = brute_force_min(g, s, "pd").value
            for variant in (False, True):
                report = component_sum_pd(g, inner, s, dominating_variant=variant)
                assert report.holds
                assert report.lhs == expected
            report = extension_half(g, inner, s)
            assert report.holds and report.lhs == expected
            try:
                report = third_boundary(g, inner, s)
            except BoundHypothesisError:
                pass
            else:
                assert report.holds and report.lhs == expected
            b = imap.lift(brute_force_min(sub, None, "zf").witness)
            report = component_sum_zf(g, inner, b)
            assert report.holds
            assert report.lhs == brute_force_min(g, b, "zf").value
            checked += 1

    def test_partition_bounds(self):
        rng = random.Random(109)
        for _ in range(25):
            g = random_connected_graph(rng.randint(4, 8), rng)
            v1 = g.vertex_set(random_subset(g.n, rng, rng.randint(1, g.n - 1)))
            report = partition_zf(g, v1)
            assert report.holds
            assert report.lhs == brute_force_min(g, None, "zf").value
            v2 = v1.complement()
            w1 = g.closed_neighborhood(v2) & v1
            w2 = g.closed_neighborhood(v1) & v2
            report = partition_pd(g, v1, w1, w2)
            assert report.holds
            assert report.context["unrestricted"] <= report.lhs


class TestHypothesisErrors:
    def test_isolated_vertices(self):
        lonely = Graph(3, [(0, 1)])
        with pytest.raises(BoundHypothesisError):
            domination_half(lonely)
        with pytest.raises(BoundHypothesisError):
            degree_sum(lonely)
        with pytest.raises(BoundHypothesisError):
            domination_half(Graph(0))

    def test_connectivity_and_size(self):
        with pytest.raises(BoundHypothesisError):
            pd_third(generate("path", (2,)))
        with pytest.raises(BoundHypothesisError):
            pd_third(Graph(4, [(0, 1), (2, 3)]))
        with pytest.raises(BoundHypothesisError):
            restricted_pd_third(Graph(4, [(0, 1), (2, 3)]))

    def test_inner_set_shape(self):
        g = generate("path", (6,))
        with pytest.raises(BoundHypothesisError):
            extension_half(g, [], g.vertex_set([]))
        with pytest.raises(BoundHypothesisError):
            extension_half(g, range(6), g.vertex_set([0]))
        with pytest.raises(BoundHypothesisError):
            extension_half(g, [0, 1], g.vertex_set([3]))
        with pytest.raises(BoundHypothesisError):
            component_sum_pd(g, [0, 1, 3, 4], g.vertex_set([0]))

    def test_small_outside_components(self):
        g = generate("path", (5,))
        with pytest.raises(BoundHypothesisError):
            third_boundary(g, [0, 1, 2], g.vertex_set([0, 1]))

    def test_partition_shape(self):
        g = generate("path", (6,))
        with pytest.raises(BoundHypothesisError):
            partition_zf(g, g.vertex_set([]))
        with pytest.raises(BoundHypothesisError):
            partition_zf(g, g.vertex_set(range(6)))
        with pytest.raises(BoundHypothesisError):
            partition_pd(g, g.vertex_set([0, 1, 2]), g.vertex_set([0]), g.vertex_set([5]))
        with pytest.raises(BoundHypothesisError):
            partition_pd(g, g.vertex_set([]), g.vertex_set([]), g.vertex_set([]))
        with pytest.raises(BoundHypothesisError):
            partition_pd(g, g.vertex_set([0, 1]), g.vertex_set([2]), g.vertex_set([5]))

    def test_degree_sum_set_checks(self):
        g = generate("path", (4,))
        with pytest.raises(BoundHypothesisError):
            degree_sum(g, g.vertex_set([0]), g.vertex_set([1]))
        with pytest.raises(BoundHypothesisError):
            degree_sum(g, None, g.vertex_set([]))

    def test_delta_ratio_needs_an_edge(self):
        with pytest.raises(BoundHypothesisError):
            delta_ratio(Graph(3))


class TestAudit:
    def test_catalogue_names(self):
        assert AUDIT_BOUNDS == (
            "domination_half",
            "pd_third",
            "restricted_pd_third",
            "degree_sum",
            "delta_ratio",
            "neighborhood_blowup",
        )

    def test_full_run(self):
        g = generate("fig_examples")
        reports = audit(g, g.vertex_set([1]))
        assert [r.name for r in reports] == list(AUDIT_BOUNDS)
        assert all(r.holds for r in reports)

    def test_skips_inapplicable_bounds(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3)])
        reports = audit(g)
        assert [r.name for r in reports] == ["delta_ratio", "neighborhood_blowup"]


def _plain(value):
    """A report field with every vertex set as its member tuple."""
    if isinstance(value, VertexSet):
        return value.members()
    if isinstance(value, (tuple, list)):
        return tuple(_plain(v) for v in value)
    if isinstance(value, dict):
        return tuple((k, _plain(v)) for k, v in value.items())
    return value


def _answer(result):
    """A bound report, audit, solve or composition as plain values."""
    if isinstance(result, BoundReport):
        return (result.name, result.lhs, result.rhs, result.holds, result.tight,
                _plain(result.context))
    if isinstance(result, list):
        return tuple(_answer(r) for r in result)
    if isinstance(result, SolveResult):
        return (result.value, result.witness.members(), result.method,
                result.cuts_added, result.nodes)
    if isinstance(result, CompositionBound):
        return (result.value, result.witness.members(), tuple(map(_answer, result.parts)))
    if isinstance(result, PendantComposition):
        return (to_edge_list(result.graph), _answer(result.result),
                tuple(map(_answer, result.parts)), result.placements)
    return (result.apex, result.covered, result.touched, result.forces_apex,
            _answer(result.result))


def _outcome(call):
    """What one call answers, or the class and message of its error."""
    try:
        return _answer(call())
    except PdzfError as exc:
        return (type(exc).__name__, str(exc))


# The sha256 of every bound report, audit and composition answer below on
# seeded small instances.  Any change to a side, a context entry or an
# error changes it; a change that means to do so re-records it and says
# why.
BOUNDS_SHA256 = "bd85a5b7b379e5578c203198a221592d2229ba7833534e0fc3baf02d5e0652ab"


def test_bound_answers_are_byte_identical():
    rng = random.Random(2018)
    answers = []
    for i in range(150):
        n = rng.randint(3, 10)
        g = random_connected_graph(n, rng) if i % 2 else random_graph(n, rng, p=0.3)
        x = g.vertex_set(random_subset(n, rng, rng.randint(0, 2)))
        inner = g.vertex_set(random_subset(n, rng, rng.randint(1, n - 1)))
        sub, imap = g.induced_subgraph(inner)
        if i % 4 == 3:
            s = b = g.vertex_set(random_subset(n, rng, rng.randint(0, len(inner))))
        else:
            s = imap.lift(restricted_pd_number(sub).witness)
            b = imap.lift(restricted_zf_number(sub).witness)
        v1 = g.vertex_set(random_subset(n, rng, rng.randint(1, n - 1)))
        v2 = v1.complement()
        w1 = g.closed_neighborhood(v2) & v1
        w2 = g.closed_neighborhood(v1) & v2
        calls = (
            lambda: domination_half(g),
            lambda: pd_third(g),
            lambda: restricted_pd_third(g, x),
            lambda: extension_half(g, inner, s),
            lambda: component_sum_pd(g, inner, s),
            lambda: component_sum_pd(g, inner, s, dominating_variant=True),
            lambda: third_boundary(g, inner, s),
            lambda: partition_pd(g, v1, w1, w2),
            lambda: component_sum_zf(g, inner, b),
            lambda: partition_zf(g, v1),
            lambda: degree_sum(g, x),
            lambda: degree_sum(g, x, s),
            lambda: delta_ratio(g, x),
            lambda: neighborhood_blowup(g, x),
            lambda: audit(g, x),
            lambda: compose_boundary_pd(g, v1, w1, w2),
        )
        answers.append([_outcome(call) for call in calls])
    for _ in range(12):
        base = random_connected_graph(rng.randint(3, 6), rng)
        x = restricted_zf_number(base).witness
        sets = sorted(enumerate_terminal_sets(base, x), key=lambda ts: ts.members())
        terminal = sets[rng.randrange(len(sets))].members()
        ats = rng.sample(terminal, rng.randint(1, min(2, len(terminal))))
        attachments = []
        for at in ats:
            branch = random_connected_graph(rng.randint(2, 5), rng)
            attachments.append((branch, rng.randrange(branch.n), at))
        t = base.vertex_set(random_subset(base.n, rng, rng.randint(1, base.n)))
        answers.append(
            [
                _outcome(lambda: compose_pendant_zf(base, x, tuple(attachments))),
                _outcome(lambda: check_apex_terminal(base, x, t)),
                _outcome(lambda: check_apex_terminal(base, x, base.vertex_set(terminal))),
            ]
        )
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    assert digest == BOUNDS_SHA256
