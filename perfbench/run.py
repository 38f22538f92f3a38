"""pdzf benchmark: one seeded workload, measured end to end or traced by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload master --seed 1 --seconds 30 --trace 0

The seed picks one instance from every stratum of the frozen corpus
(``corpus.json``) and the order they run in.  Set-up (import, instance
parsing, warm-up) is repeated ``SETUP_REPS`` times and its median is
``setup_s``.  The run then loops over the picked cases in whole passes,
one caller and no threads, and checks every answer.  The first pass
sets the number of passes, the most that fit in ``--seconds`` (at least
one), so every case is timed equally often.  Times are in reference time (see
``speed.py``).  Failed operations count as missing any latency limit:
their latency is at least the per-case budget.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics.  With ``--trace 1`` the same untraced measurement
runs first, then a traced one of the same length with spans around the
layer entry points (see ``spans.py``), then the workload's probes; the
last line carries the per-layer metrics and the spans are written to
``.bench_out/``.  The exit code is 1 when any answer was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import Tracer  # noqa: E402
from speed import Speedometer  # noqa: E402
from workloads import WORKLOADS, CliWorkload, Outcome, cli_probe, median_of  # noqa: E402

SETUP_REPS = 5
MAX_REPORTED_ERRORS = 10


class Tally:
    """Latencies and failures of one measured phase, in reference time."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.raw_op_ms = 0.0  # as measured, for per-layer shares
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []
        self.wall_s = 0.0
        self.results: list[Outcome] = []

    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.wall_s

    def quantile(self, q: int) -> float:
        """The q-th percentile (q in 10..90) of the per-operation latency."""
        if q == 50:
            return statistics.median(self.latencies_ms)
        return statistics.quantiles(self.latencies_ms, n=10)[q // 10 - 1]


def measure(workload, seconds: float, tracer: Tracer | None) -> Tally:
    tally = Tally()
    speed = Speedometer()
    speed.sample()
    # Sampling inside operations would land in the spans of a traced run.
    speed.ticking(tracer is None)
    records = []  # (outcome, loop start, loop end, failed) per operation
    start = time.perf_counter()
    passes, done = 1, 0
    try:
        while done < passes:
            for case in workload.cases:
                speed.maybe_sample()
                loop_start = time.perf_counter()
                if tracer is not None:
                    tracer.begin_op(tally.attempted)
                outcome = workload.run(case, traced=tracer is not None)
                if tracer is not None:
                    tracer.end_op()
                    tally.results.append(outcome)
                tally.attempted += 1
                reason = outcome.error
                if reason is None:
                    reason = workload.check(case, outcome)
                    if reason is not None:
                        tally.wrong += 1
                elif reason.startswith("crash"):
                    tally.wrong += 1
                if reason is not None:
                    tally.failed += 1
                    if len(tally.errors) < MAX_REPORTED_ERRORS:
                        tally.errors.append(f"{workload.label(case)}: {reason}")
                records.append((outcome, loop_start, time.perf_counter(), reason is not None))
            done += 1
            if done == 1:
                passes = max(1, int(seconds / (time.perf_counter() - start)))
    finally:
        speed.ticking(False)
    speed.sample()
    budget_ms = workload.budget_s * 1000
    for outcome, loop_start, loop_end, failed in records:
        factor = speed.factor(outcome.start, outcome.end)
        busy_s = outcome.seconds - speed.spent(outcome.start, outcome.end)
        latency_ms = busy_s * 1000 * factor
        tally.latencies_ms.append(max(latency_ms, budget_ms) if failed else latency_ms)
        tally.raw_op_ms += busy_s * 1000
        tally.wall_s += (loop_end - loop_start - speed.spent(loop_start, loop_end)) * factor
    return tally


def peak_rss_mb(workload) -> float:
    """Peak memory of the process that does the work: ours, or the CLI's."""
    who = resource.RUSAGE_CHILDREN if isinstance(workload, CliWorkload) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(workload, tally: Tally, setup_s: list[float]) -> dict:
    return {
        "ops_per_s": (tally.ops_per_s(), "1/s"),
        "latency_ms.p50": (tally.quantile(50), "ms"),
        "latency_ms.p90": (tally.quantile(90), "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }


def install_tracer(workload) -> tuple[Tracer, dict]:
    """Wrap the layer entry points; the counters gather what spans cannot."""
    tracer = Tracer()
    counts = {"nodes": 0, "rows": 0, "fort_sizes": 0}

    def on_master(args, result):
        counts["nodes"] += result[1]
        counts["rows"] += len(args[2])

    def on_fort(args, result):
        counts["fort_sizes"] += len(result.members)

    observers = {"solver.master": on_master, "forts.separation": on_fort}
    for layer, target in workload.traced_layers:
        tracer.install(layer, target, observers.get(layer))
    return tracer, counts


def per_layer(workload, untraced: Tally, traced: Tally, tracer: Tracer, counts: dict,
              probes: dict, cli_entry: dict) -> dict:
    op_ms = traced.raw_op_ms
    layer_ms, calls = tracer.self_ms, tracer.calls

    def share(layer):
        ms = layer_ms(layer)
        return None if ms is None else ms / op_ms

    def per_call(layer, total):
        n = calls(layer)
        return None if n is None else (total / n if n else 0.0)

    branch = "decomposition.branch"
    _, branch_total_ns, _, branch_max_ns = tracer.layers.get(branch, [0, 0, 0, 0])
    if branch in tracer.missing:
        branch_max_ms = overhead_ms = None
    else:
        branch_max_ms = branch_max_ns / 1e6
        overhead_ms = op_ms - branch_total_ns / 1e6 if calls(branch) else 0.0

    if isinstance(workload, CliWorkload):
        details = [o.detail for o in traced.results if o.detail is not None]
        responses = [json.loads(o.result[1]) for o in traced.results if o.result and o.result[0] == 0]
        cuts = sum(doc.get("cuts_added", 0) for doc in responses)
        parse_ms, digest_ms = median_of(details, "parse_ms"), median_of(details, "digest_ms")
    else:
        details = cli_probe(ROOT, cli_entry)
        cuts = sum(getattr(o.result, "cuts_added", 0) for o in traced.results)
        parse_ms, digest_ms = workload.parse_s * 1000, workload.digest_s * 1000

    return {
        "solver.master.ms": (layer_ms("solver.master"), "ms"),
        "solver.master.share": (share("solver.master"), "ratio"),
        "solver.master.calls": (calls("solver.master"), "count"),
        "solver.master.nodes": (None if calls("solver.master") is None else counts["nodes"], "count"),
        "solver.master.rows_mean": (per_call("solver.master", counts["rows"]), "count"),
        "solver.master.timeouts": (probes.get("solver.master.timeouts", 0), "count"),
        "solver.master.tail_cases": (probes.get("solver.master.tail_cases", 0), "count"),
        "solver.cg.cuts": (cuts, "count"),
        "propagation.ms": (layer_ms("propagation"), "ms"),
        "propagation.share": (share("propagation"), "ratio"),
        "propagation.calls": (calls("propagation"), "count"),
        "forts.separation.ms": (layer_ms("forts.separation"), "ms"),
        "forts.separation.share": (share("forts.separation"), "ratio"),
        "forts.separation.calls": (calls("forts.separation"), "count"),
        "forts.fort_size_mean": (per_call("forts.separation", counts["fort_sizes"]), "count"),
        "decomposition.branch_solves": (calls(branch), "count"),
        "decomposition.branch_ms.max": (branch_max_ms, "ms"),
        "decomposition.overhead_ms": (overhead_ms, "ms"),
        "decomposition.guard_stops": (probes.get("decomposition.guard_stops", 0), "count"),
        "decomposition.guard_cases": (probes.get("decomposition.guard_cases", 0), "count"),
        "decomposition.jobs1_ms": (probes.get("decomposition.jobs1_ms", 0.0), "ms"),
        "decomposition.jobs2_ms": (probes.get("decomposition.jobs2_ms", 0.0), "ms"),
        "decomposition.pool_trees": (probes.get("decomposition.pool_trees", 0), "count"),
        "cli.interp_ms": (median_of(details, "interp_ms"), "ms"),
        "cli.import_ms": (median_of(details, "import_ms"), "ms"),
        "cli.runtime_ms": (median_of(details, "runtime_ms"), "ms"),
        "cli.contract_violations": (probes.get("cli.contract_violations", 0), "count"),
        "cli.contract_cases": (probes.get("cli.contract_cases", 0), "count"),
        "graph.parse_ms": (parse_ms, "ms"),
        "graph.digest_ms": (digest_ms, "ms"),
        "trace.ops_per_s": (traced.ops_per_s(), "1/s"),
        "trace.overhead_ops_per_s": (traced.ops_per_s() - untraced.ops_per_s(), "1/s"),
        "trace.op_ms": (op_ms, "ms"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    with open(os.path.join(HERE, "corpus.json"), encoding="utf-8") as handle:
        corpus = json.load(handle)
    workload = WORKLOADS[args.workload](ROOT, corpus[args.workload], args.seed)
    # One CPU for this process and the CLI processes it starts, so that the
    # calibration loop runs where the measured work runs.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    setup_s = []
    for _ in range(SETUP_REPS):
        speed = Speedometer()
        speed.sample()
        start = time.perf_counter()
        workload.setup()
        end = time.perf_counter()
        speed.sample()
        setup_s.append((end - start) * speed.factor(start, end))

    untraced = measure(workload, args.seconds, None)
    tallies = [untraced]
    if args.trace:
        tracer, counts = install_tracer(workload)
        try:
            traced = measure(workload, args.seconds, tracer)
        finally:
            tracer.uninstall()
        tallies.append(traced)
        os.sched_setaffinity(0, cpus)  # the process-pool probe needs every CPU
        probes = workload.probes()
        metrics = per_layer(workload, untraced, traced, tracer, counts, probes, corpus["cli"])
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        tracer.dump(os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-{args.seed}.json"))
        for layer, why in tracer.missing.items():
            print(f"missing layer {layer}: {why}", file=sys.stderr)
        probe_wrong = probes.get("wrong", 0)
    else:
        metrics = end_to_end(workload, untraced, setup_s)
        probe_wrong = 0

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    wrong = sum(t.wrong for t in tallies) + probe_wrong
    for tally in tallies:
        for error in tally.errors:
            print(f"failed: {error}", file=sys.stderr)
    if probe_wrong:
        print(f"failed: {probe_wrong} probe answers were wrong", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {attempted} operations, {failed} failed, "
        f"{len(workload.cases)} cases per pass, setup medians of {SETUP_REPS}"
    )
    doc = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(doc))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
