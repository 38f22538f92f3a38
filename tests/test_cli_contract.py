"""The CLI contract on generated requests, valid and malformed alike.

Every request exits 0, 2 or 3.  A nonzero exit leaves standard output
empty and writes exactly one ``error:`` line; a zero exit writes one JSON
object.  ``main`` never lets an exception escape, so no traceback appears.
"""

import contextlib
import io
import json
import os
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdzf import family_names, from_edge_list
from pdzf.cli import main

from util import stdin_of


def run(argv, stdin, guard=None):
    """Call ``main`` in-process with PDZF_GUARD_N set to *guard* (unset
    when None); return the exit code, standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, os.environ.pop("PDZF_GUARD_N", None)
    sys.stdin = stdin_of(stdin)
    if guard is not None:
        os.environ["PDZF_GUARD_N"] = guard
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved[0]
        os.environ.pop("PDZF_GUARD_N", None)
        if saved[1] is not None:
            os.environ["PDZF_GUARD_N"] = saved[1]
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, out, err, command=None):
    assert code in (0, 2, 3)
    assert "Traceback" not in out + err
    if code:
        lines = err.splitlines()
        assert out == "" and len(lines) == 1 and lines[0].startswith("error: "), (out, err)
    elif command == "gen":
        assert err == ""
        from_edge_list(out)  # edge-list text that pipes straight back in
    else:
        assert err == "" and isinstance(json.loads(out), dict)


def edge_text(n, edges):
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def path_text(n):
    return edge_text(n, [(v - 1, v) for v in range(1, n)])


def joined(vertices):
    return ",".join(map(str, vertices))


def one_in(draw, k):
    """True about once in k draws.  It tests a middle value, since the
    generator favours the ends of a range."""
    return draw(st.integers(0, k - 1)) == k // 2


def mostly(draw, good, bad):
    """Draw from *good* four times in five, else from *bad*."""
    return draw(bad) if one_in(draw, 5) else draw(good)


# Lines of small tokens: a header can never declare a huge vertex count.
TOKEN_LINES = st.lists(
    st.lists(st.sampled_from(["0", "1", "3", "7", "9", "-1", "x", "#", "1.5"]), max_size=3).map(
        " ".join
    ),
    max_size=5,
).map("\n".join)
BROKEN = st.sampled_from(["0 0\n", "0 9\n", "a b\n", "3\n", "1 2 3\n", "0 1\n0 1\n"])


@st.composite
def edge_lists(draw, max_n=8):
    """(n, text): a graph or a tree on n vertices, broken one time in four."""
    n = draw(st.integers(0, max_n))
    if n and draw(st.booleans()):
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    text = edge_text(n, edges)
    damage = draw(st.integers(0, 11))
    if damage == 1:
        text += draw(BROKEN)
    elif damage == 2:
        text = text.split("\n", 1)[1]
    elif damage == 3:
        text = draw(TOKEN_LINES)
    return n, text


def vertices(n):
    return st.integers(0, max(n - 1, 0))


def vertex_lists(n, min_size=0):
    return st.lists(vertices(n), min_size=min(n, min_size), max_size=4 if n else 0)


BAD_SETS = st.one_of(
    st.lists(st.integers(-2, 12), min_size=1, max_size=4).map(joined),
    st.sampled_from(["a", "1,,2", "0,", " 1", "1.5", "99999999999"]),
)
BAD_INTS = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(["", "x", "1e3", "0x1"]))
MODES = (lambda n: st.sampled_from(["pd", "zf", "dom"]), st.sampled_from(["ZF", "", "xx"]))
FORCING_MODES = (lambda n: st.sampled_from(["pd", "zf"]), st.sampled_from(["dom", "ZF", ""]))
SETS = (lambda n: vertex_lists(n).map(joined), BAD_SETS)

# Each command's flags: the good values for an n-vertex graph and the bad
# values to draw for it.
FLAGS = {
    "solve": {
        "--mode": MODES,
        "--x": SETS,
        "--method": (lambda n: st.sampled_from(["cg", "oracle", "reduction"]), st.just("bad")),
    },
    "trace": {"--mode": FORCING_MODES, "--x": SETS},
    "forts": {"--mode": FORCING_MODES, "--x": SETS},
    "tree-pd": {"--split": (lambda n: st.one_of(st.just("auto"), vertices(n).map(str)), BAD_INTS)},
    "bounds": {"--x": SETS},
    "terminals": {"--x": SETS, "--cap": (lambda n: st.integers(1, 50).map(str), BAD_INTS)},
    "spread": {"--vertex": (lambda n: vertices(n).map(str), BAD_INTS)},
    "check": {"--mode": MODES, "--witness": SETS, "--x": SETS},
}
STRAY = st.sampled_from(["--bogus", "extra", "--x", "--graph", "--mode"])
# Known and unknown families; apex_over reads the drawn edge list.  Most
# families take one parameter, and none exceeds 12, so no draw builds a
# large graph.
FAMILIES = st.sampled_from([*family_names(), "apex_over", "bogus", "", "PATH"])


@st.composite
def requests(draw):
    command = draw(st.sampled_from(sorted([*FLAGS, "gen"])))
    n, text = draw(edge_lists())
    argv = [command]
    if command == "gen":
        argv.append(draw(FAMILIES))
        for _ in range(mostly(draw, st.just(1), st.integers(0, 3))):
            argv.append(mostly(draw, st.integers(-2, 12).map(str), BAD_INTS))
        if one_in(draw, 3):
            argv += ["--t", mostly(draw, SETS[0](n), SETS[1])]
    for flag, values in FLAGS.get(command, {}).items():
        if not one_in(draw, 4):
            argv += [flag, mostly(draw, values[0](n), values[1])]
    if one_in(draw, 16):
        argv += ["--graph", draw(st.sampled_from(["no-such-graph.txt", "."]))]
    if one_in(draw, 16):
        argv.append(draw(STRAY))
    guard = draw(st.sampled_from(["1", "3", "0", "x"])) if one_in(draw, 4) else None
    return argv, text, guard


JUNK = st.one_of(st.none(), st.booleans(), st.integers(-1, 3), st.text(max_size=3), st.just([-1]))


@st.composite
def compose_requests(draw):
    """A compose kind and its JSON spec.  Half the specs glue onto a path
    from its end vertex 0, a minimum forcing set, so that they can succeed."""
    kind = draw(st.sampled_from(["pendant", "boundary", "apex"]))
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        base, x = path_text(n), [0]
    else:
        n, base = draw(edge_lists())
        x = draw(vertex_lists(n))
    spec = {"base": base}
    if kind == "pendant":
        attachments = []
        for _ in range(draw(st.integers(0, 2))):
            m = draw(st.integers(1, 4))
            graph = mostly(draw, st.just(path_text(m)), edge_lists(4).map(lambda pair: pair[1]))
            at = mostly(draw, st.just(n - 1), st.integers(-1, 8))
            attachments.append({"graph": graph, "root": draw(vertices(m)), "at": at})
        spec.update(x=x, attachments=attachments)
    elif kind == "boundary":
        v1 = draw(st.lists(vertices(n), min_size=min(n, 1), max_size=n, unique=True))
        w2 = [v for v in range(n) if v not in v1]
        spec.update(v1=v1, w1=mostly(draw, st.just(v1), vertex_lists(n)), w2=w2)
    else:
        spec.update(x=x, t=mostly(draw, vertex_lists(n, 1), vertex_lists(n)))
    if kind != "boundary" and one_in(draw, 4):
        spec["cap"] = mostly(draw, st.integers(1, 5), st.integers(-1, 0))
    damage = draw(st.integers(0, 7))
    if damage == 1:
        del spec[draw(st.sampled_from(sorted(spec)))]
    elif damage == 2:
        spec[draw(st.sampled_from(sorted(spec)))] = draw(JUNK)
    elif damage == 3:
        return kind, draw(st.sampled_from(["", "{", "[]", "3", '"base"', "null"]))
    return kind, json.dumps(spec)


C4 = "4 4\n0 1\n0 3\n1 2\n2 3\n"


@settings(max_examples=200, deadline=None)
@given(requests())
@example((["forts"], C4, "1"))  # a guard stop, exit 3
@example((["terminals", "--x", "0,1", "--cap", "1"], C4, None))  # over the cap, exit 3
def test_every_request_keeps_the_contract(request):
    assert_contract(*run(*request), request[0][0])


@settings(max_examples=200, deadline=None)
@given(compose_requests())
def test_every_compose_spec_keeps_the_contract(request):
    kind, spec = request
    assert_contract(*run(["compose", kind], spec))
