"""Correctness gate: every answer is replayed, never trusted.

A library answer passes when its witness is feasible under the public
check for its mode, contains X, has exactly ``value`` vertices, and the
value equals the frozen expected value computed by a second exact route
when the corpus was built.  A CLI answer passes when its exit code and
output match the frozen golden response, ignoring ``runtime_ms``.

Each check returns ``None`` on success and a one-line reason otherwise,
so the caller can count the failure and keep going.
"""

from __future__ import annotations

import json


def check_solve(pdzf, graph, x: tuple[int, ...], mode: str, expected: int, result) -> str | None:
    """Certify a library result for the instance (graph, x, mode)."""
    try:
        witness = sorted(int(v) for v in result.witness)
        value = int(result.value)
    except (AttributeError, TypeError, ValueError) as exc:
        return f"malformed result: {exc}"
    if len(set(witness)) != len(witness) or any(not 0 <= v < graph.n for v in witness):
        return f"witness {witness} is not a vertex set of the graph"
    if len(witness) != value:
        return f"witness has {len(witness)} vertices, value is {value}"
    if not set(x) <= set(witness):
        return f"witness {witness} misses required vertices {sorted(set(x) - set(witness))}"
    s = graph.vertex_set(witness)
    if mode == "pd":
        feasible = pdzf.is_power_dominating_set(graph, s)
    elif mode == "zf":
        feasible = pdzf.is_zero_forcing_set(graph, s)
    elif mode == "dom":
        feasible = len(graph.closed_neighborhood(s)) == graph.n
    else:
        return f"unknown mode {mode!r}"
    if not feasible:
        return f"witness {witness} is not a {mode} set"
    if value != expected:
        return f"value {value} differs from the frozen value {expected}"
    return None


def check_cli(case: dict, exit_code: int, stdout: str, stderr: str) -> str | None:
    """Compare one CLI response with its frozen golden.

    Malformed requests must exit 2 with an empty standard output and a
    single ``error:`` line on standard error.
    """
    if exit_code != case["exit"]:
        return f"exit {exit_code}, expected {case['exit']}: {stderr.strip()[-200:]}"
    if case["exit"] != 0:
        lines = stderr.splitlines()
        if stdout or len(lines) != 1 or not lines[0].startswith("error: "):
            return f"expected one 'error:' line, got {stderr[-200:]!r}"
        return None
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if not isinstance(doc, dict) or not isinstance(doc.pop("runtime_ms", None), (int, float)):
        return "output has no numeric runtime_ms"
    if doc != case["golden"]:
        return f"output differs from the golden response: {json.dumps(doc)[:200]}"
    return None
