"""The small-graph sweep covers each connected class once, as before."""

import hashlib

from pdzf import to_edge_list

from util import graph_sweep

# Connected graphs on 1..8 vertices up to isomorphism (OEIS A001349).
CLASS_COUNTS = [1, 1, 2, 6, 21, 112, 853, 11117]

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
