"""The small-graph sweeps cover each class once, as before."""

import hashlib

from pdzf import to_edge_list

from util import _canon, graph_sweep, tree_sweep

# Connected graphs on 1..8 vertices up to isomorphism (OEIS A001349).
CLASS_COUNTS = [1, 1, 2, 6, 21, 112, 853, 11117]

# Trees on 1..8 vertices up to isomorphism (OEIS A000055).
TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23]

# sha256 of the concatenated edge lists of graph_sweep(8), recorded with the
# brute-force permutation canonical form the sweep used before: the same
# labelled representative of every class, in the same order.
SWEEP_SHA256 = "e6b87d19e304f6df0adecf1ca63ab30c0de44ed5ac166830c95e65db5f047e99"


def test_class_counts():
    sweep = graph_sweep(8)
    assert [sum(1 for g in sweep if g.n == n) for n in range(1, 9)] == CLASS_COUNTS


def test_same_representatives():
    text = "".join(to_edge_list(g) for g in graph_sweep(8))
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_SHA256


def test_tree_sweep_has_the_trees_of_the_graph_sweep():
    def forms(graphs, n):
        return sorted(_canon(n, tuple(g.edges())) for g in graphs if g.n == n)

    trees = tree_sweep(8)
    assert all(t.is_tree() for t in trees)
    assert [len(forms(trees, n)) for n in range(1, 9)] == TREE_COUNTS
    from_sweep = [t for t in graph_sweep(8) if t.is_tree()]
    assert all(forms(trees, n) == forms(from_sweep, n) for n in range(1, 9))
