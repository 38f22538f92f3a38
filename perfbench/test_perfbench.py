"""Tests of the benchmark itself: seeding, the correctness gate, metric names.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def corpus():
    with open(os.path.join(HERE, "corpus.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def pdzf():
    return workloads.import_package(ROOT)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _digests(pdzf, corpus, name, seed):
    items = workloads.pick(corpus[name]["strata"], seed)
    cases, _, _ = workloads.build_cases(pdzf, items)
    return [case.digest for case in cases]


@pytest.mark.parametrize("name", ["master", "oracle", "tree-split"])
def test_seed_fixes_the_instances(pdzf, corpus, name):
    assert _digests(pdzf, corpus, name, 7) == _digests(pdzf, corpus, name, 7)
    assert set(_digests(pdzf, corpus, name, 7)) != set(_digests(pdzf, corpus, name, 8))


def test_seed_fixes_the_cli_requests(corpus):
    first = workloads.pick(corpus["cli"]["strata"], 7)
    assert first == workloads.pick(corpus["cli"]["strata"], 7)
    assert first != workloads.pick(corpus["cli"]["strata"], 8)


def _solved_case(pdzf, corpus):
    item = corpus["master"]["strata"][0][0]
    case = workloads.build_cases(pdzf, [item])[0][0]
    solve = pdzf.restricted_pd_number if case.mode == "pd" else pdzf.restricted_zf_number
    return case, solve(case.graph, case.graph.vertex_set(case.x))


def test_gate_accepts_the_true_answer(pdzf, corpus):
    case, res = _solved_case(pdzf, corpus)
    assert gate.check_solve(pdzf, case.graph, case.x, case.mode, case.value, res) is None


def test_gate_rejects_a_tampered_witness(pdzf, corpus):
    case, res = _solved_case(pdzf, corpus)
    missing = next(iter(res.witness))
    smaller = res.witness - case.graph.vertex_set((missing,))
    bad = dataclasses.replace(res, witness=smaller, value=res.value - 1)
    assert gate.check_solve(pdzf, case.graph, case.x, case.mode, case.value, bad)
    shrunk = dataclasses.replace(res, witness=smaller)
    assert gate.check_solve(pdzf, case.graph, case.x, case.mode, case.value, shrunk)


def test_gate_rejects_a_wrong_value(pdzf, corpus):
    case, res = _solved_case(pdzf, corpus)
    extra = next(v for v in range(case.graph.n) if v not in res.witness)
    bigger = res.witness | case.graph.vertex_set((extra,))
    # A feasible superset of the right size is still not minimum.
    bad = dataclasses.replace(res, witness=bigger, value=res.value + 1)
    assert "frozen" in gate.check_solve(pdzf, case.graph, case.x, case.mode, case.value, bad)


def test_gate_rejects_a_changed_cli_response(corpus):
    case = next(c for s in corpus["cli"]["strata"] for c in s if c["exit"] == 0)
    good = json.dumps({**case["golden"], "runtime_ms": 1.5})
    assert gate.check_cli(case, 0, good, "") is None
    changed = json.dumps({**case["golden"], "input": "000000000000", "runtime_ms": 1.5})
    assert gate.check_cli(case, 0, changed, "")
    assert gate.check_cli(case, 1, good, "Traceback (most recent call last):\n")
    malformed = {"exit": 2}
    assert gate.check_cli(malformed, 2, "", "error: bad input\n") is None
    assert gate.check_cli(malformed, 2, "", "Traceback\nerror: bad input\n")


def test_missing_wrap_target_is_reported_not_zero():
    tracer = Tracer()
    assert not tracer.install("solver.master", "pdzf.solver._no_such_function")
    assert "solver.master" in tracer.missing
    assert tracer.self_ms("solver.master") is None
    assert tracer.calls("solver.master") is None


def test_metric_names(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_has_every_metric(spec, trace, key):
    proc = _run(["--workload", "oracle", "--seed", "3", "--seconds", "0.5", "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    for name in doc["metrics"]:
        assert NAME.fullmatch(name), name


def test_wrong_answer_fails_the_run(monkeypatch, capsys):
    real = workloads.OracleWorkload.call

    def wrong(self, case):
        res = real(self, case)
        return dataclasses.replace(res, value=res.value + 1)

    monkeypatch.setattr(workloads.OracleWorkload, "call", wrong)
    code = run.main(["--workload", "oracle", "--seed", "3", "--seconds", "0.2"])
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert doc["correct"] is False
    assert doc["failed"] == doc["attempted"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(["--workload", "master", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
