"""Certification: every assembled answer is replayed, also under ``python -O``."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from pdzf import (
    CertificationError,
    PdzfError,
    SolveResult,
    VertexSet,
    certify,
    generate,
    reduction_pd_number,
    solver,
    tree_split,
)
from pdzf.cli import main

from util import stdin_of


class TestCertify:
    def test_returns_the_witness(self):
        g = generate("path", (5,))
        w = g.vertex_set([1, 3])
        assert certify(g, w, [1], "pd", 2) is w
        assert certify(g, w, (), "dom", 2) is w
        end = g.vertex_set([0])
        assert certify(g, end, end, "zf", 1) is end

    @pytest.mark.parametrize(
        ("witness", "x", "mode", "value", "message"),
        [
            ([2], [0], "pd", 2, "witness [2] does not contain X"),
            ([2], [2], "zf", 2, "witness has size 1, the value is 2"),
            ([0, 1], [], "pd", 1, "witness has size 2, the value is 1"),
            ([2], [2], "zf", 1, "witness [2] fails to propagate in mode 'zf'"),
            ([0], [], "dom", None, "witness [0] fails to propagate in mode 'dom'"),
        ],
    )
    def test_checks_in_order(self, witness, x, mode, value, message):
        g = generate("path", (5,))
        with pytest.raises(CertificationError) as info:
            certify(g, g.vertex_set(witness), x, mode, value)
        assert str(info.value) == message

    def test_is_a_bug_not_bad_input(self):
        assert issubclass(CertificationError, PdzfError)
        assert not issubclass(CertificationError, ValueError)

    def test_implied_cut_rejected(self):
        with pytest.raises(CertificationError, match="cut already implied by the pool"):
            solver._RowPool(3, [0b011]).add_cut(0b111)


# Two broken answers that the bare asserts used to catch, and that slipped
# through under ``python -O``: a tree split whose branch values disagree with
# their witnesses, and a reduction whose master used an attached leaf.


def bump(res):
    return replace(res, value=res.value + 1)


def bumped_split():
    split = tree_split(generate("path", (7,)))
    part = split.parts[0]
    parts = (replace(part, anchored=bump(part.anchored), free=bump(part.free)),)
    return replace(split, parts=parts + split.parts[1:]).result()


def with_leaf(cg):
    """Wrap ``_cg`` so that its witness also holds the graph's last vertex."""

    def leafy(parts, x, mode, *args):
        res = cg(parts, x, mode, *args)
        leaf = VertexSet(x.n, (x.n - 1,))
        return SolveResult(res.value + 1, res.witness | leaf, res.method)

    return leafy


def leafy_reduction():
    real = solver._cg
    solver._cg = with_leaf(real)
    try:
        return reduction_pd_number(generate("path", (5,)), VertexSet(5, (2,)))
    finally:
        solver._cg = real


def outcome(case):
    try:
        case()
    except Exception as exc:
        return type(exc).__name__
    return "returned"


@pytest.mark.parametrize("case", [bumped_split, leafy_reduction])
def test_broken_answer_raises(case):
    with pytest.raises(CertificationError, match="witness has size 1, the value is 2"):
        case()


def test_broken_answers_raise_under_python_O():
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    code = (
        "import test_certify as t; "
        "print(__debug__, t.outcome(t.bumped_split), t.outcome(t.leafy_reduction))"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "CertificationError", "CertificationError"]


def test_cli_reports_a_failed_certificate_as_one_error_line(monkeypatch, capsys):
    monkeypatch.setattr(solver, "_cg", with_leaf(solver._cg))
    monkeypatch.setattr(sys, "stdin", stdin_of("5 4\n0 1\n1 2\n2 3\n3 4\n"))
    code = main(["solve", "--method", "reduction", "--x", "2"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: witness has size 1, the value is 2\n"


def test_oracle_that_finds_no_feasible_superset_raises(monkeypatch, capsys):
    # A step that never grows a closure leaves even the vertex set short,
    # which only a bug can do; the CLI reports it as one error line.
    monkeypatch.setattr(solver, "final_step", lambda adj, mode: lambda cl, v: cl)
    with pytest.raises(CertificationError, match="no superset of X propagates"):
        solver.minimum_solutions(generate("path", (4,)), None, "zf")
    monkeypatch.setattr(sys, "stdin", stdin_of("4 3\n0 1\n1 2\n2 3\n"))
    code = main(["solve", "--method", "oracle", "--mode", "zf"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: no superset of X propagates, not even the vertex set\n"
