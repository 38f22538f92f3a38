"""Build ``corpus.json``: the frozen instances, expected values and goldens.

Run from the repository root; name workloads to rebuild only those:

    python3 perfbench/build_corpus.py [master] [oracle] [tree-split] [cli]

Every library instance gets its expected value from a second exact
route, never the one the benchmark times, and the build stops if the two
routes disagree:

* ``master`` (constraint generation with default cuts): the subset
  oracle for n <= 20, minimum-fort constraint generation above that;
* ``oracle`` (subset enumeration): minimum-fort constraint generation
  for pd and zf, an independent branching dominating-set search for dom;
* ``tree-split`` (split at the centroid): a split at a second vertex, or
  minimum-fort constraint generation when no second vertex passes the
  guard.

Each instance also records ``cost_ms``, its median time over several
calls on the timed route when the corpus was built, in reference time
(see ``speed.py``).  Instances are grouped by cost into strata of two
(three for trees, to keep a pass short); a benchmark run draws one
member of every stratum from its seed, so different seeds get different
graphs with nearly the same cost profile.  Instances too slow for the per-case
budget are kept apart as probes (``tail``, ``guard_stops``): the traced
run counts their timeouts and guard stops, so the known failures stay
visible without failing every run.

CLI goldens are the seed's own responses with ``runtime_ms`` removed;
the values of ``solve`` responses are cross-checked against the oracle.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from speed import Speedometer  # noqa: E402
from workloads import (  # noqa: E402
    MASTER_BUDGET_S,
    ORACLE_BUDGET_S,
    TREE_BUDGET_S,
    import_package,
    run_budgeted,
)

CORPUS_SEED = 20171115
MASTER_CANDIDATES = 750
ORACLE_CANDIDATES = 1200
TREE_CANDIDATES = 270
MASTER_COST_CAP_MS = 400.0
TAIL_PROBES = 6
GUARD_PROBES = 8


# --- seeded generators (the benchmark's own, independent of the tests) ---


def random_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform labelled tree from a random Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (u for u in range(n) if degree[u] == 1)
    edges.append((u, w))
    return edges


def sparse_connected(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random recursive tree plus between n/4 and n/2 random chords."""
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    for _ in range(rng.randint(n // 4, n // 2)):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return sorted(edges)


def gnp(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def edge_text(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


# --- second routes ---


def dom_number(n: int, adj: tuple[int, ...], x: tuple[int, ...]) -> int:
    """Minimum dominating superset of X by branching on an undominated vertex."""
    full = (1 << n) - 1
    closed = [adj[v] | 1 << v for v in range(n)]
    start = 0
    for v in x:
        start |= closed[v]
    best = n

    def search(covered: int, size: int) -> None:
        nonlocal best
        if covered == full:
            best = min(best, size)
            return
        if size + 1 >= best:
            return
        v = (~covered & full).bit_length() - 1
        for u in range(n):
            if closed[v] >> u & 1:
                search(covered | closed[u], size + 1)

    search(start, len(x))
    return best


def second_split_value(pdzf, graph) -> tuple[int, str]:
    """Tree value from a split at the best vertex other than the centroid.

    The guard is raised to fit that vertex's largest branch, so the route
    exists for every tree the centroid split admits.
    """
    centre = pdzf.centroid(graph)
    best = None
    for v in graph.vertices():
        if v == centre or graph.degree(v) < 2:
            continue
        weight = max(len(c) for c in graph.delete_vertex(v).components())
        if best is None or weight < best[0]:
            best = (weight, v)
    if best is None:
        return pdzf.restricted_pd_number(graph, None, min_forts=True, guard=graph.n).value, "min_fort_cg"
    guard = max(pdzf.DEFAULT_CG_GUARD, best[0] + 1)
    return pdzf.tree_pd_parallel(graph, best[1], guard=guard).value, f"split@{best[1]}"


def stratify(items: list[dict], size: int) -> list[list[dict]]:
    """Sort by cost and cut into strata of *size* neighbours.

    Cost alone decides, not mode: a seed then changes which graphs run
    but hardly the cost profile, which keeps percentiles steady.
    """
    ordered = sorted(items, key=lambda it: it["cost_ms"])
    usable = len(ordered) - len(ordered) % size
    return [ordered[i : i + size] for i in range(0, usable, size)]


def cost_of(pdzf, fn, budget_s: float, runs: int = 5) -> tuple[float | None, object]:
    """Median reference time of *runs* calls, or None if one exceeds the budget."""
    speed = Speedometer()
    times = []
    result = None
    for _ in range(runs):
        speed.sample()
        outcome = run_budgeted(pdzf, fn, budget_s)
        speed.sample()
        if outcome.error == "timeout":
            return None, None
        if outcome.error:
            raise SystemExit(f"the timed route failed: {outcome.error}")
        result = outcome.result
        times.append(outcome.seconds * 1000 * speed.factor(outcome.start, outcome.end))
    return statistics.median(times), result


def build_master(pdzf, rng: random.Random) -> dict:
    kept, tail = [], []
    for i in range(MASTER_CANDIDATES):
        mode = "zf" if i % 2 else "pd"
        n = rng.randint(12, 20) if mode == "zf" else rng.randint(20, 34)
        edges = random_tree(n, rng) if rng.random() < 0.5 else sparse_connected(n, rng)
        x = tuple(sorted(rng.sample(range(n), rng.randint(0, 2))))
        graph = pdzf.Graph(n, edges)
        xs = graph.vertex_set(x)
        solve = pdzf.restricted_pd_number if mode == "pd" else pdzf.restricted_zf_number
        cost, res = cost_of(pdzf, lambda: solve(graph, xs), MASTER_BUDGET_S)
        if n <= 20:
            expected, route = pdzf.brute_force_min(graph, xs, mode).value, "oracle"
        else:
            expected, route = solve(graph, xs, min_forts=True).value, "min_fort_cg"
        if res is not None and res.value != expected:
            raise SystemExit(f"master case {i}: routes disagree ({res.value} vs {expected})")
        item = {
            "mode": mode,
            "edges": edge_text(n, edges),
            "x": list(x),
            "value": expected,
            "route": route,
            "cost_ms": cost,
        }
        if cost is None or cost > MASTER_COST_CAP_MS:
            tail.append(item)
        else:
            kept.append(item)
        print(f"master {i} {mode} n={n} cost={cost}", file=sys.stderr)
    tail.sort(key=lambda it: (it["cost_ms"] is not None, -(it["cost_ms"] or 0)))
    return {"strata": stratify(kept, 2), "tail": tail[:TAIL_PROBES]}


def build_oracle(pdzf, rng: random.Random) -> dict:
    items = []
    for i in range(ORACLE_CANDIDATES):
        mode = ("pd", "zf", "dom")[i % 3]
        n = rng.randint(13, 18)
        dense = rng.random() < 0.5
        edges = gnp(n, 0.3, rng) if dense else sparse_connected(n, rng)
        x = tuple(sorted(rng.sample(range(n), rng.randint(0, 2))))
        graph = pdzf.Graph(n, edges)
        xs = graph.vertex_set(x)
        cost, res = cost_of(
            pdzf, lambda: pdzf.brute_force_min(graph, xs, mode), ORACLE_BUDGET_S
        )
        if mode == "dom":
            expected, route = dom_number(n, graph.adj, x), "dom_branching"
        else:
            solve = pdzf.restricted_pd_number if mode == "pd" else pdzf.restricted_zf_number
            if mode == "pd" and not graph.is_connected():
                expected = pdzf.pd_number_disconnected(graph, xs, min_forts=True).value
            else:
                expected = solve(graph, xs, min_forts=True).value
            route = "min_fort_cg"
        if res is None or res.value != expected:
            raise SystemExit(f"oracle case {i}: routes disagree ({res} vs {expected})")
        items.append(
            {
                "mode": mode,
                "edges": edge_text(n, edges),
                "x": list(x),
                "value": expected,
                "route": route,
                "cost_ms": cost,
            }
        )
        print(f"oracle {i} {mode} n={n} cost={cost:.1f}", file=sys.stderr)
    return {"strata": stratify(items, 2)}


def build_trees(pdzf, rng: random.Random) -> dict:
    """Workload trees of 40-100 vertices; guard probes of 140-170.

    The guard admits random trees up to about 130 vertices.  Tree cost is
    heavy-tailed and grows fast with n; capping the workload at 100 keeps
    a 30 s run at over 150 timed trees, with the 90th percentile in a
    dense part of the cost distribution.  Larger trees whose centroid
    branch exceeds the guard become the guard-stop probes.
    """
    kept = []
    for i in range(TREE_CANDIDATES):
        n = rng.randint(40, 100)
        edges = random_tree(n, rng)
        graph = pdzf.Graph(n, edges)
        cost, res = cost_of(pdzf, lambda: pdzf.tree_pd_parallel(graph), TREE_BUDGET_S, runs=3)
        if cost is None:
            raise SystemExit(f"tree case {i}: over the {TREE_BUDGET_S} s budget")
        expected, route = second_split_value(pdzf, graph)
        if res.value != expected:
            raise SystemExit(f"tree case {i}: routes disagree ({res.value} vs {expected})")
        kept.append(
            {"mode": "pd", "edges": edge_text(n, edges), "x": [], "value": expected,
             "route": route, "cost_ms": cost}
        )
        print(f"tree {i} n={n} cost={cost:.1f}", file=sys.stderr)
    stops = []
    while len(stops) < GUARD_PROBES:
        n = rng.randint(140, 170)
        edges = random_tree(n, rng)
        try:
            pdzf.tree_pd_parallel(pdzf.Graph(n, edges))
        except pdzf.GuardExceededError:
            stops.append({"mode": "pd", "edges": edge_text(n, edges), "x": [], "value": None,
                          "route": None, "cost_ms": None})
            print(f"tree n={n} guard stop", file=sys.stderr)
    return {"strata": stratify(kept, 3), "guard_stops": stops}


def _cli_cases(pdzf, rng: random.Random) -> list[list[tuple[list[str], str]]]:
    """Request kinds, two requests each, as (argv, stdin) pairs."""

    def fam(name, *params):
        return pdzf.to_edge_list(pdzf.generate(name, params))

    def tree(n):
        return edge_text(n, random_tree(n, rng))

    base = fam("path", 4)
    return [
        [(["solve", "--x", "2"], fam("path", 9)), (["solve"], fam("grid2", 5))],
        [(["solve", "--mode", "zf"], fam("fig_zpartition")),
         (["solve", "--mode", "zf", "--x", "0"], fam("cycle", 8))],
        [(["solve", "--method", "oracle", "--mode", "dom"], fam("grid2", 4)),
         (["solve", "--method", "oracle", "--mode", "zf"], fam("fig_spread"))],
        [(["solve", "--method", "reduction", "--x", "0"], fam("fig_examples")),
         (["solve", "--method", "reduction", "--x", "1"], fam("double_star_join", 3, 4))],
        [(["trace", "--mode", "zf", "--x", "0,1"], fam("cycle", 7)),
         (["trace", "--x", "2"], fam("path", 8))],
        [(["check", "--witness", "0,4"], fam("fig_examples")),
         (["check", "--mode", "zf", "--witness", "0,1", "--x", "0"], fam("grid2", 4))],
        [(["forts", "--mode", "zf", "--x", "0"], fam("path", 6)),
         (["forts", "--x", "0"], fam("cycle", 9))],
        [(["tree-pd"], tree(18)), (["tree-pd"], tree(24))],
        [(["bounds"], fam("fig_examples")), (["bounds", "--x", "1"], fam("path", 7))],
        [(["solve"], "4 3\n0 1\n1 2\n"), (["trace"], "x y\n")],
        [(["compose", "pendant"], json.dumps({"x": [0]})),
         (["compose", "boundary"],
          json.dumps({"base": base, "v1": [0, 1], "w1": [9], "w2": [2]}))],
        [(["compose", "pendant"], "not json"),
         (["compose", "pendant"],
          json.dumps({"base": "4 3\n0 1\n", "x": [0], "attachments": []}))],
    ]


# Malformed requests the CLI contract says must exit 2 with one error line.
CONTRACT_PROBES = [
    (["compose", "pendant"], {"x": "ab", "base": "4 3\n0 1\n1 2\n2 3\n", "attachments": []}),
    (["compose", "pendant"], {"x": [0.5], "base": "4 3\n0 1\n1 2\n2 3\n", "attachments": []}),
    (["compose", "pendant"], {"base": 5, "x": [0], "attachments": []}),
    (["compose", "pendant"], [1, 2]),
    (["compose", "apex"], {"base": "4 3\n0 1\n1 2\n2 3\n", "x": [0], "t": [3], "cap": "10"}),
    (["terminals", "--x", "0", "--cap", "-1"], None),
]


def build_cli(pdzf, root: str, rng: random.Random) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    strata = []
    for kind in _cli_cases(pdzf, rng):
        stratum = []
        for argv, stdin in kind:
            proc = subprocess.run(
                [sys.executable, "-m", "pdzf.cli", *argv],
                input=stdin, capture_output=True, text=True, env=env, cwd=root, timeout=60,
            )
            case = {"argv": argv, "stdin": stdin, "exit": proc.returncode, "golden": None}
            if proc.returncode == 0:
                doc = json.loads(proc.stdout)
                del doc["runtime_ms"]
                case["golden"] = doc
                if argv[0] == "solve":
                    graph = pdzf.from_edge_list(stdin)
                    mode = argv[argv.index("--mode") + 1] if "--mode" in argv else "pd"
                    x = [int(v) for v in argv[argv.index("--x") + 1].split(",")] if "--x" in argv else []
                    oracle = pdzf.brute_force_min(graph, graph.vertex_set(x), mode).value
                    if doc["value"] != oracle:
                        raise SystemExit(f"cli {argv}: value {doc['value']} != oracle {oracle}")
            elif proc.returncode != 2:
                raise SystemExit(f"cli {argv}: unexpected exit {proc.returncode}")
            stratum.append(case)
            print(f"cli {argv} exit={proc.returncode}", file=sys.stderr)
        strata.append(stratum)
    path4 = pdzf.to_edge_list(pdzf.generate("path", (4,)))
    probes = [
        {"argv": argv, "stdin": json.dumps(spec) if spec is not None else path4, "exit": 2}
        for argv, spec in CONTRACT_PROBES
    ]
    return {"strata": strata, "contract_probes": probes}


def main(argv: list[str]) -> int:
    """Build every workload, or only those named, into corpus.json."""
    root = os.path.dirname(HERE)
    builders = {
        "master": build_master,
        "oracle": build_oracle,
        "tree-split": build_trees,
        "cli": lambda pdzf, rng: build_cli(pdzf, root, rng),
    }
    names = argv or list(builders)
    unknown = sorted(set(names) - set(builders))
    if unknown:
        raise SystemExit(f"unknown workloads: {', '.join(unknown)}")
    pdzf = import_package(root)
    path = os.path.join(HERE, "corpus.json")
    corpus = {}
    if argv:
        with open(path, encoding="utf-8") as handle:
            corpus = json.load(handle)
    corpus["corpus_seed"] = CORPUS_SEED
    for name in names:
        # One generator per workload, so rebuilding one leaves the others valid.
        rng = random.Random(f"{CORPUS_SEED}-{name}")
        corpus[name] = builders[name](pdzf, rng)
        print(name, len(corpus[name]["strata"]), "strata", file=sys.stderr)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(corpus, handle, indent=0, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
