"""The four workloads: their cases, their operation and their probes.

Why each exists (the layer it loads, and the workload that bypasses it):

* ``master``: default constraint generation on small trees and sparse
  graphs.  The set-cover master ``_cover_exact`` takes over 90% of the
  time; ``oracle`` and ``cli`` never reach it.
* ``oracle``: subset enumeration in pd, zf and dom modes.  Propagation
  takes most of the time through millions of closures; the master and
  separation never run, so it is the bypass for changes to them.
* ``tree-split``: tree power domination through the split theorem.
  Minimum-fort separation dominates; the slowest branch sets the time.
* ``cli``: one ``python -m pdzf.cli`` process per request.  Interpreter
  start and import dominate; the solve itself is under a millisecond.

A library case is solved under a per-case budget enforced with
``SIGALRM``; a CLI request runs under a subprocess timeout.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from gate import check_cli, check_solve
from spans import TRACE_MARK

HERE = os.path.dirname(os.path.abspath(__file__))

MASTER_BUDGET_S = 2.0
ORACLE_BUDGET_S = 10.0
TREE_BUDGET_S = 10.0
CLI_BUDGET_S = 30.0
POOL_TREES = 4
CLI_PROBE_RUNS = 3


def import_package(root: str):
    """Import pdzf from ``<root>/src`` and nowhere else."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "pdzf", "__init__.py")):
        raise SystemExit(f"error: no pdzf package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import pdzf

    if os.path.dirname(os.path.dirname(os.path.abspath(pdzf.__file__))) != src:
        raise SystemExit(f"error: pdzf was imported from {pdzf.__file__}, not {src}")
    return pdzf


def reimport_package(root: str):
    """Drop every loaded pdzf module and import the package afresh."""
    for name in [m for m in sys.modules if m == "pdzf" or m.startswith("pdzf.")]:
        del sys.modules[name]
    return import_package(root)


def pick(strata: list[list[dict]], seed: int) -> list[dict]:
    """One member of every stratum, in a seeded order."""
    rng = random.Random(seed)
    chosen = [stratum[rng.randrange(len(stratum))] for stratum in strata]
    rng.shuffle(chosen)
    return chosen


class _Budget(Exception):
    pass


def _alarm(_signum, _frame):
    raise _Budget()


@dataclass
class Outcome:
    """What one operation produced: a result, or why it produced none."""

    start: float  # perf_counter seconds
    end: float
    result: object = None
    error: str | None = None  # "timeout", "guard stop" or a crash message
    detail: dict | None = None  # per-request CLI timings in traced runs

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_budgeted(pdzf, fn, budget_s: float) -> Outcome:
    signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget_s)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except _Budget:
        return Outcome(start, time.perf_counter(), error="timeout")
    except pdzf.GuardExceededError as exc:
        return Outcome(start, time.perf_counter(), error=f"guard stop: {exc}")
    except Exception as exc:  # a crash is a counted failure, not the end of the run
        error = f"crash: {type(exc).__name__}: {exc}"
        return Outcome(start, time.perf_counter(), error=error)
    return Outcome(start, time.perf_counter(), result=result)


@dataclass(frozen=True)
class Case:
    graph: object
    x: tuple[int, ...]
    mode: str
    value: int | None
    digest: str


def build_cases(pdzf, items: list[dict]) -> tuple[list[Case], float, float]:
    """Parse the picked instances; also return parse and digest seconds."""
    parse = digest = 0.0
    cases = []
    for item in items:
        t0 = time.perf_counter()
        graph = pdzf.graph.from_edge_list(item["edges"])
        t1 = time.perf_counter()
        text = pdzf.graph.to_edge_list(graph)
        key = f"{item['mode']}|{','.join(map(str, item['x']))}|{text}"
        digest_hex = hashlib.sha256(key.encode()).hexdigest()[:16]
        t2 = time.perf_counter()
        parse += t1 - t0
        digest += t2 - t1
        cases.append(Case(graph, tuple(item["x"]), item["mode"], item["value"], digest_hex))
    return cases, parse, digest


class LibraryWorkload:
    """A workload of in-process library calls, one per case."""

    budget_s: float
    traced_layers = (
        ("solver.master", "pdzf.solver._cover_exact"),
        ("propagation", "pdzf.solver._final_mask"),
        ("forts.separation", "pdzf.solver.minimum_violated_fort"),
        ("decomposition.branch", "pdzf.decomposition._solve_task"),
    )

    def __init__(self, root: str, entry: dict, seed: int) -> None:
        self.root = root
        self.entry = entry
        self.items = pick(entry["strata"], seed)
        self.pdzf = None
        self.cases: list[Case] = []
        self.parse_s = self.digest_s = 0.0

    def setup(self) -> None:
        """Import, build the cases, and warm up on the three cheapest."""
        self.pdzf = reimport_package(self.root)
        self.cases, self.parse_s, self.digest_s = build_cases(self.pdzf, self.items)
        cheap = sorted(range(len(self.items)), key=lambda i: self.items[i]["cost_ms"])[:3]
        for i in cheap:
            self.call(self.cases[i])

    def call(self, case: Case):
        raise NotImplementedError

    def run(self, case: Case, traced: bool) -> Outcome:
        return run_budgeted(self.pdzf, lambda: self.call(case), self.budget_s)

    def label(self, case: Case) -> str:
        return f"{case.mode} instance {case.digest}"

    def check(self, case: Case, outcome: Outcome) -> str | None:
        return check_solve(self.pdzf, case.graph, case.x, case.mode, case.value, outcome.result)

    def probes(self) -> dict:
        return {}


class MasterWorkload(LibraryWorkload):
    budget_s = MASTER_BUDGET_S

    def call(self, case: Case):
        solver = self.pdzf.solver
        solve = solver.restricted_pd_number if case.mode == "pd" else solver.restricted_zf_number
        return solve(case.graph, case.graph.vertex_set(case.x))

    def probes(self) -> dict:
        """Run the slow tail under the budget and count its timeouts."""
        tail, _, _ = build_cases(self.pdzf, self.entry["tail"])
        timeouts = wrong = 0
        for case in tail:
            outcome = self.run(case, traced=False)
            if outcome.error == "timeout":
                timeouts += 1
            elif outcome.error or self.check(case, outcome):
                wrong += 1
        return {"solver.master.timeouts": timeouts, "solver.master.tail_cases": len(tail),
                "wrong": wrong}


class OracleWorkload(LibraryWorkload):
    budget_s = ORACLE_BUDGET_S

    def call(self, case: Case):
        return self.pdzf.solver.brute_force_min(case.graph, case.graph.vertex_set(case.x), case.mode)


class TreeWorkload(LibraryWorkload):
    budget_s = TREE_BUDGET_S

    def call(self, case: Case):
        return self.pdzf.decomposition.tree_pd_parallel(case.graph, jobs=1)

    def probes(self) -> dict:
        """Guard stops on the large trees, and the process-pool timing."""
        stops, wrong = 0, 0
        guarded, _, _ = build_cases(self.pdzf, self.entry["guard_stops"])
        for case in guarded:
            outcome = self.run(case, traced=False)
            if outcome.error and outcome.error.startswith("guard stop"):
                stops += 1
            elif outcome.error or check_solve(  # no frozen value: the guard stopped it
                self.pdzf, case.graph, case.x, case.mode,
                getattr(outcome.result, "value", None), outcome.result,
            ):
                wrong += 1
        split = self.pdzf.decomposition.tree_split
        pool_ms = {}
        for jobs in (1, 2):
            start = time.perf_counter()
            for case in self.cases[:POOL_TREES]:
                outcome = run_budgeted(
                    self.pdzf, lambda: split(case.graph, jobs=jobs).result(), 6 * self.budget_s
                )
                if outcome.error or self.check(case, outcome):
                    wrong += 1
            pool_ms[jobs] = (time.perf_counter() - start) * 1000
        return {
            "decomposition.guard_stops": stops,
            "decomposition.guard_cases": len(guarded),
            "decomposition.jobs1_ms": pool_ms[1],
            "decomposition.jobs2_ms": pool_ms[2],
            "decomposition.pool_trees": min(POOL_TREES, len(self.cases)),
            "wrong": wrong,
        }


class CliWorkload:
    """One CLI process per request; responses are compared with goldens."""

    budget_s = CLI_BUDGET_S
    traced_layers = ()

    def __init__(self, root: str, entry: dict, seed: int) -> None:
        self.root = root
        self.entry = entry
        self.cases = pick(entry["strata"], seed)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.pdzf = None

    def setup(self) -> None:
        """Check the package, then warm up with one request."""
        self.pdzf = import_package(self.root)
        self.run(self.cases[0], traced=False)

    def run(self, case: dict, traced: bool) -> Outcome:
        if traced:
            argv = [sys.executable, os.path.join(HERE, "cli_shim.py"), *case["argv"]]
        else:
            argv = [sys.executable, "-m", "pdzf.cli", *case["argv"]]
        spawn_ns = time.monotonic_ns()
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                argv, input=case["stdin"], capture_output=True, text=True,
                env=self.env, cwd=self.root, timeout=CLI_BUDGET_S,
            )
        except subprocess.TimeoutExpired:
            return Outcome(start, time.perf_counter(), error="timeout")
        end = time.perf_counter()
        stderr, detail = proc.stderr, None
        if traced:
            kept = []
            for line in stderr.splitlines(keepends=True):
                if line.startswith(TRACE_MARK):
                    detail = json.loads(line[len(TRACE_MARK):])
                    detail["interp_ms"] = (detail.pop("start_ns") - spawn_ns) / 1e6
                else:
                    kept.append(line)
            stderr = "".join(kept)
            if detail is not None and proc.returncode == 0:
                detail["runtime_ms"] = json.loads(proc.stdout)["runtime_ms"]
        return Outcome(start, end, result=(proc.returncode, proc.stdout, stderr), detail=detail)

    def label(self, case: dict) -> str:
        return "pdzf " + " ".join(case["argv"])

    def check(self, case: dict, outcome: Outcome) -> str | None:
        return check_cli(case, *outcome.result)

    def probes(self) -> dict:
        """Malformed requests that the documented CLI contract covers."""
        violations = 0
        for case in self.entry["contract_probes"]:
            outcome = self.run(case, traced=False)
            if outcome.error or check_cli({"exit": 2}, *outcome.result):
                violations += 1
        return {
            "cli.contract_violations": violations,
            "cli.contract_cases": len(self.entry["contract_probes"]),
        }


def cli_probe(root: str, entry: dict) -> list[dict]:
    """Per-request CLI timings from a few traced requests of one solve."""
    probe = CliWorkload(root, entry, 0)
    case = entry["strata"][0][0]
    details = []
    for _ in range(CLI_PROBE_RUNS):
        outcome = probe.run(case, traced=True)
        if outcome.detail is not None:
            details.append(outcome.detail)
    return details


def median_of(details: list[dict], key: str) -> float | None:
    values = [d[key] for d in details if d.get(key) is not None]
    return statistics.median(values) if values else None


WORKLOADS = {
    "master": MasterWorkload,
    "oracle": OracleWorkload,
    "tree-split": TreeWorkload,
    "cli": CliWorkload,
}
