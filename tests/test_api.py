"""Public surface: exported names, guard keywords and messages, value types."""

import ast
import copy
import inspect
import pickle
from pathlib import Path

import pytest

import pdzf

from util import fresh_python

# A caller sets the guard of these: the CLI's PDZF_GUARD_N reaches the
# oracle and fort enumeration, and the solve entry points are the way to
# run the exact solver past its default vertex limit.  Every other
# function enforces its module constant.
GUARDED = {
    "brute_force_min",
    "enumerate_forts",
    "restricted_pd_number",
    "restricted_zf_number",
    "tree_split",
    "tree_pd_parallel",
}


def _parameters(obj) -> set[str]:
    # Exception classes expose no signature; they take no keywords either.
    if not callable(obj) or isinstance(obj, type) and issubclass(obj, BaseException):
        return set()
    return set(inspect.signature(obj).parameters)


def test_guard_keyword_only_where_a_caller_sets_it():
    guarded = {name for name in pdzf.__all__ if "guard" in _parameters(getattr(pdzf, name))}
    assert guarded == GUARDED


PUBLIC = [
    "AUDIT_BOUNDS", "ApexTerminalReport", "BoundHypothesisError", "BoundReport",
    "CertificationError",
    "CompositionBound", "DEFAULT_CG_GUARD", "DEFAULT_EXHAUSTIVE_GUARD", "DEFAULT_FORT_GUARD",
    "DEFAULT_ORACLE_GUARD", "DEFAULT_TERMINAL_CAP", "EdgeListError",
    "ForcingChainDecomposition", "Fort", "Graph",
    "GraphError", "GuardExceededError", "InconsistentTraceError", "IndexMap",
    "InfeasibleError", "LeafClassification", "LeafSupports", "NotATreeError", "PdzfError",
    "PendantComposition", "PropagationTrace", "SolveResult", "TreePart",
    "TreeSplit", "VertexSet", "__version__", "apex_over",
    "attach_leaves", "audit", "brute_force_min", "centroid", "certify",
    "check_apex_terminal",
    "component_sum_pd", "component_sum_zf", "compose_boundary_pd", "compose_pendant_zf",
    "degree_sum", "delta_ratio", "domination_half", "enumerate_forts",
    "enumerate_terminal_sets", "extension_half", "family_labels", "family_names",
    "forcing_chains", "fort_from_failed_set", "from_edge_list", "generate", "is_fort",
    "is_power_dominating_set", "is_zero_forcing_set", "k_restricted_number",
    "leaf_bound_witness", "leaf_classify", "mandatory_vertices", "minimum_solutions",
    "minimum_violated_fort", "neighborhood_blowup", "partition_pd", "partition_zf",
    "pd_number_disconnected", "pd_observe", "pd_third", "reduction_pd_number",
    "restricted_pd_number", "restricted_pd_third", "restricted_zf_number", "spread",
    "spread_and_single", "third_boundary", "to_edge_list", "tree_pd_parallel", "tree_split",
    "z_restricted_single", "zf_closure",
]  # fmt: skip

MODULES = [
    pdzf.bounds,
    pdzf.constructions,
    pdzf.decomposition,
    pdzf.errors,
    pdzf.forts,
    pdzf.graph,
    pdzf.propagation,
    pdzf.solver,
]


class TestSurface:
    def test_names_are_pinned_and_unique(self):
        assert len(PUBLIC) == 81
        assert sorted(pdzf.__all__) == PUBLIC
        assert len(set(pdzf.__all__)) == len(pdzf.__all__)

    def test_every_module_name_is_reexported(self):
        for module in MODULES:
            for name in module.__all__:
                assert getattr(pdzf, name) is getattr(module, name)

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from pdzf import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == PUBLIC

    def test_dir_lists_every_name(self):
        assert set(PUBLIC) <= set(dir(pdzf))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            pdzf.no_such_name
        assert not hasattr(pdzf, "no_such_name")

    @pytest.mark.parametrize("module", [m.__name__ for m in MODULES])
    def test_module_resolves_first_in_a_fresh_interpreter(self, module):
        proc = fresh_python(f"import pdzf; print(pdzf.{module.split('.')[1]}.__name__)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == module


# Each exponential route raises GuardExceededError with this exact text.
GUARD_MESSAGES = [
    (
        lambda: pdzf.brute_force_min(pdzf.generate("path", (3,)), guard=2),
        "oracle guard is 2, graph has 3 vertices",
    ),
    (
        lambda: pdzf.minimum_solutions(pdzf.generate("path", (17,))),
        "exhaustive guard is 16, graph has 17 vertices",
    ),
    (
        lambda: pdzf.restricted_pd_number(pdzf.generate("path", (3,)), guard=2),
        "constraint generation guard is 2, graph has 3 vertices",
    ),
    (
        lambda: pdzf.restricted_zf_number(pdzf.Graph(5, [(0, 1), (1, 2)]), guard=2),
        "constraint generation guard is 2, a component has 3 vertices",
    ),
    (
        lambda: pdzf.k_restricted_number(pdzf.generate("path", (21,)), 0),
        "enumeration guard is 20, graph has 21 vertices",
    ),
    (
        lambda: pdzf.enumerate_forts(pdzf.generate("path", (3,)), guard=2),
        "fort enumeration guard is 2, graph has 3 vertices",
    ),
    (
        lambda: pdzf.domination_half(pdzf.generate("path", (65,))),
        "set cover guard is 64, graph has 65 vertices",
    ),
]


@pytest.mark.parametrize(("call", "message"), GUARD_MESSAGES, ids=[m for _, m in GUARD_MESSAGES])
def test_guard_message(call, message):
    with pytest.raises(pdzf.GuardExceededError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "obj",
    [
        pdzf.Graph(4, [(0, 2), (1, 3)]),
        pdzf.VertexSet(9, [0, 3, 8]),
        pdzf.IndexMap(5, (0, 2, 4)),
        pdzf.SolveResult(value=1, witness=pdzf.VertexSet(3, [1]), method="oracle", nodes=2),
    ],
    ids=lambda obj: type(obj).__name__,
)
def test_value_types_copy_and_pickle(obj):
    def state(o):
        # IndexMap defines no equality; compare its slots instead.
        return (o.n_old, o.to_old) if isinstance(o, pdzf.IndexMap) else o

    protocols = range(2, pickle.HIGHEST_PROTOCOL + 1)
    for twin in [*(pickle.loads(pickle.dumps(obj, p)) for p in protocols), copy.deepcopy(obj)]:
        assert type(twin) is type(obj) and state(twin) == state(obj)


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_has_no_assert_statement():
    # ``python -O`` strips asserts; checks that must hold there raise instead.
    # An AssertionError raised by hand escapes the CLI's error contract, so
    # a failed check raises CertificationError.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(pdzf.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion_error(node)
    ]
    assert found == []


def test_benchmark_hooks():
    # The benchmark wraps these private names and reads what they take and
    # return; one that vanished or changed shape would make its counters
    # read null instead of failing.
    from pdzf import cli, decomposition, propagation, solver

    assert list(inspect.signature(solver._cover_exact).parameters) == [
        "n", "degs", "rows", "forced",
    ]  # fmt: skip
    g = pdzf.generate("path", (5,))
    rows = [a | 1 << v for v, a in enumerate(g.adj)]
    mask, nodes = solver._cover_exact(g.n, tuple(a.bit_count() for a in g.adj), rows, 0)
    assert type(mask) is int and mask.bit_count() == 2
    assert type(nodes) is int and nodes >= 1
    assert solver._final_mask is propagation.final_mask
    fort = solver.minimum_violated_fort(g, g.vertex_set([1]))
    assert isinstance(fort.members, pdzf.VertexSet) and fort.members.members() == (0, 2, 4)
    assert callable(decomposition._solve_task)
    assert callable(cli.from_edge_list) and callable(cli._digest)
    # Two stars with three leaves each, centers 0 and 4 joined.
    tree = pdzf.Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (4, 6), (4, 7)])
    assert decomposition.tree_pd_parallel(tree, jobs=1).value == 2
    assert decomposition.tree_split(tree, jobs=2).result().value == 2
