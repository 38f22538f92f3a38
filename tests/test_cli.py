"""Command line surface: envelopes, payloads, exit codes, determinism."""

import hashlib
import json
import os
import sys

import pytest

from pdzf import (
    Graph,
    enumerate_forts,
    from_edge_list,
    generate,
    is_fort,
    solver,
    to_edge_list,
    tree_pd_parallel,
    tree_split,
)
from pdzf.cli import main

from util import fresh_python, stdin_of, tree_sweep

P3 = "3 2\n0 1\n1 2\n"
P5 = "5 4\n0 1\n1 2\n2 3\n3 4\n"
C4 = "4 4\n0 1\n0 3\n1 2\n2 3\n"


@pytest.fixture
def cli(monkeypatch, capsys):
    def run(argv, stdin=""):
        monkeypatch.setattr(sys, "stdin", stdin_of(stdin))
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    return run


def doc_of(out):
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert isinstance(doc["runtime_ms"], float)
    return doc


def digest_of(text):
    return hashlib.sha256(to_edge_list(from_edge_list(text)).encode()).hexdigest()[:12]


class TestSolve:
    def test_minimal_path(self, cli):
        code, out, err = cli(["solve", "--mode", "pd"], P3)
        assert code == 0 and err == ""
        doc = doc_of(out)
        assert doc["command"] == "solve"
        assert doc["input"] == digest_of(P3)
        assert doc["parameter"] == "pd"
        assert doc["value"] == 1
        assert doc["witness"] == [0]
        assert doc["method"] == "constraint_generation"

    def test_methods_agree(self, cli):
        values = {}
        for method in ("cg", "oracle", "reduction"):
            code, out, _ = cli(["solve", "--method", method], P5)
            assert code == 0
            values[method] = doc_of(out)["value"]
        assert values == {"cg": 1, "oracle": 1, "reduction": 1}

    def test_zf_and_dom_modes(self, cli):
        code, out, _ = cli(["solve", "--mode", "zf", "--x", "2"], P5)
        assert doc_of(out)["value"] == 2
        code, out, _ = cli(["solve", "--mode", "dom", "--method", "oracle"], P5)
        assert doc_of(out)["value"] == 2

    def test_method_defaults_to_the_modes_first(self, cli):
        gen_code, path5, _ = cli(["gen", "path", "5"])
        code, out, _ = cli(["solve", "--mode", "dom"], path5)
        assert gen_code == 0 and code == 0
        doc = doc_of(out)
        assert (doc["value"], doc["witness"], doc["method"]) == (2, [0, 3], "oracle")

    def test_method_mode_mismatch(self, cli):
        code, _, err = cli(["solve", "--mode", "zf", "--method", "reduction"], P5)
        assert code == 2
        assert err.startswith("error: method 'reduction' does not apply")
        code, _, _ = cli(["solve", "--mode", "dom", "--method", "cg"], P5)
        assert code == 2

    def test_graph_file(self, cli, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(P5)
        code, out, _ = cli(["solve", "--graph", str(path)])
        assert code == 0 and doc_of(out)["value"] == 1
        code, _, err = cli(["solve", "--graph", str(tmp_path / "missing.txt")])
        assert code == 2 and err.startswith("error:")

    def test_guard_counts_each_component(self, cli):
        # 120 vertices in three 40-vertex paths: each component is within
        # the 64-vertex guard, so the solve runs.
        forest = to_edge_list(Graph(120, [(i, i + 1) for i in range(119) if i % 40 != 39]))
        for argv in (["solve"], ["solve", "--mode", "zf"]):
            code, out, _ = cli(argv, forest)
            assert code == 0 and doc_of(out)["value"] == 3

    def test_reduction_guard_counts_the_input(self, cli):
        # The reduction's attached leaves grow path 60 past 64 vertices.
        _, path60, _ = cli(["gen", "path", "60"])
        values = set()
        for method in ("cg", "reduction"):
            code, out, _ = cli(["solve", "--method", method, "--x", "0,1"], path60)
            assert code == 0
            values.add(doc_of(out)["value"])
        assert values == {2}
        _, path65, _ = cli(["gen", "path", "65"])
        code, _, err = cli(["solve", "--method", "reduction", "--x", "0,1"], path65)
        assert code == 3 and "graph has 65 vertices" in err

    def test_malformed_input(self, cli):
        code, _, err = cli(["solve"], "3 1\n0 99\n")
        assert code == 2
        assert "vertex 99 out of range [0, 3)" in err


class TestTrace:
    def test_zf_rounds(self, cli):
        code, out, _ = cli(["trace", "--mode", "zf", "--x", "0"], "4 3\n0 1\n1 2\n2 3\n")
        assert code == 0
        doc = doc_of(out)
        assert doc["initial"] == [0]
        assert doc["dominated"] == []
        assert doc["rounds"] == [[[0, 1]], [[1, 2]], [[2, 3]]]
        assert doc["final"] == [0, 1, 2, 3]
        assert doc["feasible"] is True

    def test_pd_stall(self, cli):
        code, out, _ = cli(["trace", "--x", "1"], "4 3\n0 1\n0 2\n0 3\n")
        doc = doc_of(out)
        assert doc["mode"] == "pd"
        assert doc["initial"] == [0, 1]
        assert doc["dominated"] == [0]
        assert doc["rounds"] == []
        assert doc["feasible"] is False

    def test_long_path(self, cli):
        gen_code, path, _ = cli(["gen", "path", "1500"])
        code, out, _ = cli(["trace", "--mode", "zf", "--x", "0"], path)
        assert gen_code == 0 and code == 0
        doc = doc_of(out)
        assert len(doc["rounds"]) == 1499 and doc["feasible"] is True
        code, out, _ = cli(["terminals", "--x", "0"], path)
        assert code == 0 and doc_of(out)["terminal_sets"] == [[1499]]


class TestForts:
    def test_enumerate_all(self, cli):
        code, out, _ = cli(["forts"], P5)
        doc = doc_of(out)
        g = from_edge_list(P5)
        expected = [sorted(f.members) for f in enumerate_forts(g)]
        assert doc["count"] == len(expected)
        assert doc["forts"] == expected
        assert all(is_fort(g, g.vertex_set(f)) for f in doc["forts"])

    def test_violated_fort(self, cli):
        code, out, _ = cli(["forts", "--mode", "zf", "--x", ""], P5)
        doc = doc_of(out)
        assert doc["fort"] == [0, 2, 4]
        assert doc["size"] == 3

    def test_feasible_set_has_no_fort(self, cli):
        for mode, x in (("zf", "0"), ("pd", "2")):
            code, out, err = cli(["forts", "--mode", mode, "--x", x], P5)
            assert code == 2 and out == ""
            assert err == "error: the set is already feasible; no fort to extract\n"


class TestGen:
    def test_path_text(self, cli):
        code, out, _ = cli(["gen", "path", "5"])
        assert code == 0
        assert out == P5

    def test_labels(self, cli):
        code, out, _ = cli(["gen", "fig_examples"])
        lines = out.splitlines()
        assert lines[0] == "# label 0 1"
        assert lines[6] == "# label 6 7"
        assert from_edge_list(out).n == 7

    def test_apex_over_pipe(self, cli):
        code, out, _ = cli(["gen", "apex_over", "--t", "0,2"], P3)
        assert code == 0
        assert out == C4
        assert digest_of(out) == digest_of(C4)

    def test_flag_misuse(self, cli):
        code, _, err = cli(["gen", "path", "5", "--t", "0"])
        assert code == 2 and "apex_over" in err
        code, _, _ = cli(["gen", "no_such_family"])
        assert code == 2


class TestTreePd:
    def test_split_payload(self, cli):
        code, out, _ = cli(["tree-pd"], P5)
        doc = doc_of(out)
        assert doc["value"] == 1
        assert doc["split"] == 2
        assert [p["role"] for p in doc["parts"]] == ["active", "active"]
        assert doc["parts"][0]["vertices"] == [0, 1, 2]

    def test_explicit_split_and_tiny_tree(self, cli):
        code, out, _ = cli(["tree-pd", "--split", "1"], P3)
        doc = doc_of(out)
        assert doc["value"] == 1 and doc["split"] == 1
        code, out, _ = cli(["tree-pd"], "2 1\n0 1\n")
        doc = doc_of(out)
        assert doc["value"] == 1 and doc["split"] is None and doc["parts"] == []

    def test_explicit_split_on_a_tiny_tree_is_checked(self, cli):
        for split, message in (("99", "out of range"), ("0", "degree at least 2")):
            code, out, err = cli(["tree-pd", "--split", split], "2 1\n0 1\n")
            assert code == 2 and out == ""
            assert err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_errors(self, cli):
        # A non-tree gets one message whatever its size.
        for text in ("0 0\n", "2 0\n", "3 1\n0 1\n", C4):
            code, out, err = cli(["tree-pd"], text)
            assert (code, out, err) == (2, "", "error: tree splitting needs a tree\n")
        code, _, _ = cli(["tree-pd", "--split", "0"], P5)
        assert code == 2

    def test_agrees_with_the_library_on_every_small_tree(self, cli):
        trees = tree_sweep(8)
        assert len(trees) == 48
        for t in trees:
            code, out, err = cli(["tree-pd"], to_edge_list(t))
            assert code == 0, err
            doc = doc_of(out)
            res = tree_pd_parallel(t)
            assert [doc[k] for k in ("value", "witness", "method", "cuts_added", "nodes")] == [
                res.value, sorted(res.witness), res.method, res.cuts_added, res.nodes
            ]
            split = tree_split(t)
            assert doc["split"] == split.vertex
            assert doc["parts"] == [
                {
                    "vertices": sorted(p.index.to_old),
                    "anchored": p.anchored.value,
                    "free": p.free.value,
                    "deleted": p.deleted.value,
                    "role": p.role,
                }
                for p in split.parts
            ]


class TestCompose:
    def test_pendant_spec_file(self, cli, tmp_path):
        spec = {
            "base": P3,
            "x": [0],
            "attachments": [{"graph": "2 1\n0 1\n", "root": 0, "at": 2}],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, _ = cli(["compose", "pendant", "--spec", str(path)])
        assert code == 0
        doc = doc_of(out)
        assert doc["value"] == 1
        assert doc["placements"] == [[2, 3]]
        assert doc["glued"] == "4 3\n0 1\n1 2\n2 3\n"

    def test_boundary_stdin(self, cli):
        g = generate("double_star_join", (4, 4))
        spec = {"base": to_edge_list(g), "v1": [0, 1, 2, 3, 4], "w1": [0], "w2": [5]}
        code, out, _ = cli(["compose", "boundary"], json.dumps(spec))
        doc = doc_of(out)
        assert doc["value"] == 2
        assert doc["witness"] == [0, 5]
        assert doc["parts"] == [1, 1]

    def test_apex_stdin(self, cli):
        spec = {"base": C4, "x": [0, 1], "t": [2, 3]}
        code, out, _ = cli(["compose", "apex"], json.dumps(spec))
        doc = doc_of(out)
        assert doc["covered"] and doc["touched"] and doc["forces_apex"]
        assert doc["solved_value"] == 2

    def test_apex_guard_counts_the_base(self, cli):
        _, path64, _ = cli(["gen", "path", "64"])
        code, out, _ = cli(["compose", "apex"], json.dumps({"base": path64, "x": [0], "t": [63]}))
        assert code == 0
        doc = doc_of(out)
        assert (doc["apex"], doc["covered"], doc["solved_value"]) == (64, True, 1)
        _, path65, _ = cli(["gen", "path", "65"])
        code, _, err = cli(["compose", "apex"], json.dumps({"base": path65, "x": [0], "t": [64]}))
        assert code == 3 and "graph has 65 vertices" in err
        two_paths = "80 78\n" + "".join(f"{i} {i + 1}\n" for i in range(79) if i != 39)
        spec = {"base": two_paths, "x": [0, 40], "t": [20, 60]}
        code, _, err = cli(["compose", "apex"], json.dumps(spec))
        assert code == 3 and "graph has 81 vertices" in err

    def test_error_paths(self, cli):
        bad = {"base": P3, "x": [0], "attachments": [{"graph": "2 1\n0 1\n", "root": 0, "at": 1}]}
        code, _, err = cli(["compose", "pendant"], json.dumps(bad))
        assert code == 2 and "terminals" in err
        code, _, _ = cli(["compose", "pendant"], "{not json")
        assert code == 2
        code, _, _ = cli(["compose", "pendant"], json.dumps({"base": P3}))
        assert code == 2


class TestBounds:
    def test_audit_payload(self, cli):
        code, out, _ = cli(["bounds", "--x", "1"], P5)
        doc = doc_of(out)
        names = [b["name"] for b in doc["bounds"]]
        assert names == [
            "domination_half",
            "pd_third",
            "restricted_pd_third",
            "degree_sum",
            "delta_ratio",
            "neighborhood_blowup",
        ]
        assert all(b["holds"] for b in doc["bounds"])
        half = doc["bounds"][0]
        assert half["rhs"] == "5/2"

    def test_past_the_oracle_guard(self, cli):
        # gamma(G) comes from the set-cover master, not from enumeration,
        # so the audit runs on every graph the 64-vertex guard admits.
        code, out, _ = cli(["bounds"], to_edge_list(generate("path", (21,))))
        assert code == 0
        doc = doc_of(out)
        assert len(doc["bounds"]) == 6
        assert doc["bounds"][0]["name"] == "domination_half"
        assert doc["bounds"][0]["lhs"] == 7


class TestTerminals:
    def test_square(self, cli):
        code, out, _ = cli(["terminals", "--x", "0,1"], C4)
        doc = doc_of(out)
        assert doc["count"] == 3
        assert doc["terminal_sets"] == [[0, 3], [1, 2], [2, 3]]

    def test_long_path(self, cli):
        # One force per vertex: the enumeration must not recurse per force.
        path = to_edge_list(generate("path", (1500,)))
        code, out, _ = cli(["terminals", "--x", "0"], path)
        assert code == 0 and doc_of(out)["count"] == 1

    def test_cap_guard(self, cli):
        gen_code, hub, _ = cli(["gen", "c5_hub", "2"])
        code, _, err = cli(["terminals", "--x", "10,0,2,4,6,8", "--cap", "3"], hub)
        assert code == 3 and err.startswith("error:")


class TestSpread:
    def test_figure_vertices(self, cli):
        gen_code, fig, _ = cli(["gen", "fig_spread"])
        code, out, _ = cli(["spread", "--vertex", "5"], fig)
        doc = doc_of(out)
        assert doc["spread"] == 0 and doc["value"] == 2
        code, out, _ = cli(["spread", "--vertex", "4"], fig)
        doc = doc_of(out)
        assert doc["spread"] == 0 and doc["value"] == 3

    def test_bad_vertex(self, cli):
        code, _, _ = cli(["spread", "--vertex", "9"], P3)
        assert code == 2

    @pytest.mark.parametrize("vertex,spread,solves", [("1", -1, 2), ("0", 0, 3)])
    def test_each_value_solved_once(self, cli, monkeypatch, vertex, spread, solves):
        # Z(G) and Z(G - v) give both the spread and, unless it is 0,
        # the anchored value; only spread 0 needs a third solve.
        calls = []
        real = solver._cg

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "_cg", counting)
        code, out, _ = cli(["spread", "--vertex", vertex], P3)
        assert code == 0 and doc_of(out)["spread"] == spread
        assert len(calls) == solves


class TestCheck:
    def test_witness_roundtrip(self, cli):
        gen_code, fig, _ = cli(["gen", "fig_examples"])
        code, out, _ = cli(["solve"], fig)
        witness = ",".join(str(v) for v in doc_of(out)["witness"])
        code, out, _ = cli(["check", "--witness", witness], fig)
        doc = doc_of(out)
        assert doc["feasible"] and doc["contains_x"] and doc["ok"]

    def test_missing_x(self, cli):
        code, out, _ = cli(["check", "--witness", "0", "--x", "1"], P3)
        doc = doc_of(out)
        assert doc["feasible"] and not doc["contains_x"] and not doc["ok"]

    def test_dom_mode(self, cli):
        code, out, _ = cli(["check", "--mode", "dom", "--witness", "1"], P3)
        doc = doc_of(out)
        assert doc["size"] == 1 and doc["feasible"] and doc["ok"]


class TestGuardOverride:
    def test_oracle_guard(self, cli, monkeypatch):
        path21 = to_edge_list(generate("path", (21,)))
        code, _, err = cli(["solve", "--method", "oracle"], path21)
        assert code == 3 and err.startswith("error:")
        monkeypatch.setenv("PDZF_GUARD_N", "25")
        code, out, _ = cli(["solve", "--method", "oracle"], path21)
        assert code == 0 and doc_of(out)["value"] == 1

    def test_fort_guard(self, cli, monkeypatch):
        path18 = to_edge_list(generate("path", (18,)))
        code, _, _ = cli(["forts"], path18)
        assert code == 3
        monkeypatch.setenv("PDZF_GUARD_N", "18")
        code, out, _ = cli(["forts"], path18)
        assert code == 0 and doc_of(out)["count"] > 0

    def test_invalid_override(self, cli, monkeypatch):
        for value in ("many", "-1", "0"):
            monkeypatch.setenv("PDZF_GUARD_N", value)
            code, out, err = cli(["solve", "--method", "oracle"], P3)
            assert code == 2 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv,stdin",
        [
            (["solve", "--x", "1,3"], P5),
            (["bounds"], P5),
            (["forts"], P5),
            (["terminals", "--x", "0,1"], C4),
        ],
    )
    def test_identical_reruns(self, cli, argv, stdin):
        first = doc_of(cli(argv, stdin)[1])
        second = doc_of(cli(argv, stdin)[1])
        first.pop("runtime_ms")
        second.pop("runtime_ms")
        assert first == second


P4 = "4 3\n0 1\n1 2\n2 3\n"
MISSING = os.path.join(os.path.dirname(os.path.abspath(__file__)), "no-such-spec.json")


# The CLI in a new interpreter, reading a real standard input.
MAIN = "import sys; from pdzf.cli import main; raise SystemExit(main(sys.argv[1:]))"


class TestInputContract:
    @pytest.mark.parametrize(
        "argv,stdin",
        [
            (["compose", "pendant"], json.dumps({"x": "ab", "base": P4, "attachments": []})),
            (["compose", "pendant"], json.dumps({"x": [0.5], "base": P4, "attachments": []})),
            (["compose", "pendant"], json.dumps({"base": 5, "x": [0], "attachments": []})),
            (["compose", "pendant"], "[1, 2]"),
            (["compose", "apex"], json.dumps({"base": P4, "x": [0], "t": [3], "cap": "10"})),
            (["terminals", "--x", "0", "--cap", "-1"], P4),
            (["terminals", "--x", "0", "--cap", "0"], P4),
            (["bounds", "--jobs", "0"], P4),
            (["compose", "pendant"], json.dumps({"base": P4, "x": [True], "attachments": []})),
            (["compose", "pendant"], json.dumps({"base": P4, "x": [0], "attachments": [{}]})),
            (["compose", "boundary"], json.dumps({"base": P4, "v1": [0, 1], "w1": [0]})),
            (["compose", "apex"], json.dumps({"base": P4, "x": [0], "t": [3], "cap": 0})),
            (["solve", "--mode", "xx"], P4),
            (["bounds", "--bogus"], P4),
            ([], P4),
            (["spread"], P4),
            (["tree-pd", "--jobs", "2"], P4),
            (["solve", "--min-forts"], P4),
            # 2**62 vertices: the adjacency list fails to allocate at once.
            pytest.param(["trace"], "4611686018427387904 0\n", id="huge-n-trace"),
            pytest.param(["gen", "path", "4611686018427387904"], "", id="huge-n-gen"),
            # 2**64 vertices: no index-sized integer holds the count.
            pytest.param(["trace"], "18446744073709551616 0\n", id="huge-n-index-trace"),
            pytest.param(["gen", "path", "18446744073709551616"], "", id="huge-n-index-gen"),
            pytest.param(
                ["compose", "pendant"],
                json.dumps({"base": "18446744073709551616 0\n", "x": [], "attachments": []}),
                id="huge-n-index-compose",
            ),
            pytest.param(["compose", "pendant"], "[" * 200000, id="deep-json"),
            pytest.param(["compose", "boundary", "--spec", MISSING], "", id="missing-spec"),
        ],
    )
    def test_malformed_input_exits_2(self, cli, argv, stdin):
        code, out, err = cli(argv, stdin)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_graph_file_not_utf8_exits_2(self, cli, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_bytes(b"\xff\xfe 1\n")
        code, out, err = cli(["solve", "--graph", str(graph)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_stdin_not_utf8_exits_2(self):
        code = "from pdzf.cli import main; raise SystemExit(main(['solve']))"
        proc = fresh_python(code, stdin=b"\xff\xfe 1\n")
        assert proc.returncode == 2 and proc.stdout == b""
        assert proc.stderr.startswith(b"error:") and proc.stderr.count(b"\n") == 1
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("locale", ["C", "C.UTF-8"])
    def test_stdin_decodes_as_the_file_does(self, tmp_path, locale):
        # A valid edge list but for one Latin-1 byte in its comment: the
        # POSIX locale's standard input would take it, a file read would not.
        data = b"# caf\xe9\n2 1\n0 1\n"
        graph = tmp_path / "g.txt"
        graph.write_bytes(data)
        env = {"LC_ALL": locale}
        piped = fresh_python(MAIN, ["solve"], data, env)
        read = fresh_python(MAIN, ["solve", "--graph", str(graph)], b"", env)
        for proc in (piped, read):
            assert proc.returncode == 2 and proc.stdout == b""
            assert proc.stderr.startswith(b"error:") and proc.stderr.count(b"\n") == 1
            assert b"Traceback" not in proc.stderr
        assert piped.stderr == read.stderr

    def test_line_breaks_read_alike(self, tmp_path):
        # A spec broken by bare carriage returns and missing a bracket: the
        # error names the same line and column however the spec is passed.
        data = b'{"base": "3 2\\n0 1\\n1 2\\n",\r "x": [0,\r "t": [1]}'
        spec = tmp_path / "spec.json"
        spec.write_bytes(data)
        piped = fresh_python(MAIN, ["compose", "apex"], data)
        read = fresh_python(MAIN, ["compose", "apex", "--spec", str(spec)], b"")
        assert piped.returncode == read.returncode == 2
        assert piped.stderr == read.stderr and piped.stderr.startswith(b"error:")

    def test_file_matches_stdin(self, cli, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"base": C4, "x": [0, 1], "t": [2, 3]}))
        graph = tmp_path / "g.txt"
        graph.write_text(P4)
        cases = ((["compose", "apex"], "--spec", spec), (["bounds"], "--graph", graph))
        for argv, flag, path in cases:
            _, piped, _ = cli(argv, path.read_text())
            _, read, _ = cli([*argv, flag, str(path)])
            docs = [doc_of(out) for out in (piped, read)]
            for doc in docs:
                del doc["runtime_ms"]
            assert docs[0] == docs[1]


# The pdzf modules each subcommand loads.  The command line always needs
# graph, propagation and constructions (the gen help lists the families);
# every other module is imported by the handler that runs it, so that a
# request does not compile and import code it never calls.
CORE = {"pdzf", "pdzf.cli", "pdzf.constructions", "pdzf.errors", "pdzf.graph", "pdzf.propagation"}
SOLVE = CORE | {"pdzf.forts", "pdzf.solver"}
SPLIT = SOLVE | {"pdzf.decomposition"}
LOADS = [
    (["solve", "--x", "0"], P3, SOLVE),
    (["trace", "--mode", "zf", "--x", "0"], P3, CORE),
    (["forts"], P3, CORE | {"pdzf.forts"}),
    (["gen", "path", "3"], "", CORE),
    (["tree-pd"], P3, SPLIT),
    (["compose", "pendant"], json.dumps({"base": P3, "x": [0], "attachments": []}), SPLIT),
    (["bounds"], P3, SPLIT | {"pdzf.bounds"}),
    (["terminals", "--x", "0"], P3, CORE),
    (["spread", "--vertex", "0"], P3, SOLVE),
    (["check", "--witness", "1"], P3, CORE),
]

# Runs main in a fresh interpreter, so that each handler's own imports run
# for real, and reports the loaded modules on standard error.
CHILD = (
    "import sys\n"
    "from pdzf.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stderr.write(' '.join(sorted(sys.modules)))\n"
    "raise SystemExit(code)\n"
)


@pytest.mark.parametrize("argv,stdin,loads", LOADS, ids=[case[0][0] for case in LOADS])
def test_subcommand_imports_only_what_it_runs(argv, stdin, loads):
    proc = fresh_python(CHILD, argv, stdin)
    assert proc.returncode == 0, proc.stderr
    if argv[0] == "gen":
        assert from_edge_list(proc.stdout).n == 3
    else:
        assert json.loads(proc.stdout)["command"] == argv[0]
    modules = set(proc.stderr.split())
    assert {m for m in modules if m.split(".")[0] == "pdzf"} == loads
    # Exact fractions are for the bounds catalogue only; the process pools
    # are gone, and importing their machinery would cost start-up time.
    assert ("fractions" in modules) == (argv[0] == "bounds")
    assert not {m for m in modules if m.split(".")[0] in ("concurrent", "multiprocessing")}


def test_package_import_loads_no_submodule():
    proc = fresh_python("import pdzf, sys; print(sorted(m for m in sys.modules if 'pdzf' in m))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['pdzf']"
