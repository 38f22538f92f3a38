"""Every frozen CLI answer of the benchmark corpus, replayed in-process.

``perfbench/corpus.json`` holds, for the ``cli`` workload, strata of
requests with the response each gave when the corpus was built, and a
list of malformed requests (contract probes).  A request that exited 0
must print exactly its golden JSON object apart from ``runtime_ms``;
every other request must exit with its recorded code, print nothing on
standard output and write one ``error:`` line.  The benchmark itself
replays only the cases its seed picks; this test replays them all.  The
``master`` cases and the ``tree-split`` trees are replayed by CI's answer
gate over several seeds, and a test here checks that those seeds pick
every one of them.
"""

import json
import os
import sys

import pytest

from pdzf.cli import main

from util import SRC, stdin_of

CORPUS = os.path.join(os.path.dirname(SRC), "perfbench", "corpus.json")

with open(CORPUS, encoding="utf-8") as fh:
    CORPUS_DOC = json.load(fh)
CLI = CORPUS_DOC["cli"]

# The seeds of the ``master``, ``tree-split`` and ``oracle`` runs in the
# answer gate of .github/workflows/tests.yml.
GATE_SEEDS = {"master": range(1, 12), "tree-split": range(1, 13), "oracle": range(1, 12)}

CASES = [
    pytest.param(case, id=f"stratum{i}-{j}")
    for i, stratum in enumerate(CLI["strata"])
    for j, case in enumerate(stratum)
] + [pytest.param(case, id=f"probe{i}") for i, case in enumerate(CLI["contract_probes"])]


@pytest.mark.parametrize("case", CASES)
def test_cli_answer_matches_its_golden(case, monkeypatch, capsys):
    monkeypatch.delenv("PDZF_GUARD_N", raising=False)
    monkeypatch.setattr(sys, "stdin", stdin_of(case["stdin"]))
    code = main(case["argv"])
    out, err = capsys.readouterr()
    assert code == case["exit"], err
    if code:
        lines = err.splitlines()
        assert out == "" and len(lines) == 1 and lines[0].startswith("error: "), (out, err)
    else:
        doc = json.loads(out)
        assert isinstance(doc.pop("runtime_ms"), float)
        assert doc == case["golden"]


@pytest.mark.parametrize("workload", sorted(GATE_SEEDS))
def test_the_master_gate_seeds_pick_every_case(monkeypatch, workload):
    monkeypatch.syspath_prepend(os.path.dirname(CORPUS))
    from workloads import pick

    strata = CORPUS_DOC[workload]["strata"]
    picked = {id(case) for seed in GATE_SEEDS[workload] for case in pick(strata, seed)}
    assert picked == {id(case) for stratum in strata for case in stratum}
