"""Every frozen CLI answer of the benchmark corpus, replayed in-process.

``perfbench/corpus.json`` holds, for the ``cli`` workload, strata of
requests with the response each gave when the corpus was built, and a
list of malformed requests (contract probes).  A request that exited 0
must print exactly its golden JSON object apart from ``runtime_ms``;
every other request must exit with its recorded code, print nothing on
standard output and write one ``error:`` line.  The benchmark itself
replays only the cases its seed picks; this test replays them all.
"""

import io
import json
import os
import sys

import pytest

from pdzf.cli import main

from util import SRC

CORPUS = os.path.join(os.path.dirname(SRC), "perfbench", "corpus.json")

with open(CORPUS, encoding="utf-8") as fh:
    CLI = json.load(fh)["cli"]

CASES = [
    pytest.param(case, id=f"stratum{i}-{j}")
    for i, stratum in enumerate(CLI["strata"])
    for j, case in enumerate(stratum)
] + [pytest.param(case, id=f"probe{i}") for i, case in enumerate(CLI["contract_probes"])]


@pytest.mark.parametrize("case", CASES)
def test_cli_answer_matches_its_golden(case, monkeypatch, capsys):
    monkeypatch.delenv("PDZF_GUARD_N", raising=False)
    monkeypatch.setattr(sys, "stdin", io.StringIO(case["stdin"]))
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
