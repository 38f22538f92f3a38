"""Command line surface with stable JSON output.

Every subcommand except ``gen`` and ``compose`` reads an edge list from
standard input (or ``--graph FILE``); ``main`` reads it, and the ``--x``
set over it where the subcommand takes one, once before the handler
runs.  ``compose`` reads its graphs from a JSON spec.  Each of these writes one JSON object to standard output:
schema marker, command echo, a 12-hex digest of the canonical edge list,
the per-command payload, and a trailing ``runtime_ms`` field, the only
one allowed to vary between identical runs.  ``gen`` writes edge-list
text so it can be piped straight back in.  Exit status is 0 on success,
2 on any input problem (also one too large to hold in memory or nested
too deeply to parse), 3 when any guard stops the computation (the
vertex limits of the oracle, fort enumeration and the solver's 64
vertices per connected component, or the terminal-set cap); the
environment variable PDZF_GUARD_N overrides the oracle and fort
enumeration guards.  A CertificationError (an answer that fails its own
replay, a bug) also exits 2 with its one-line ``error:`` message.

Start-up dominates a request, so each handler imports the modules only
its subcommand runs, and ``runtime_ms`` includes those imports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from .constructions import apex_over, family_labels, family_names, generate
from .errors import GuardExceededError, PdzfError
from .graph import Graph, VertexSet, from_edge_list, to_edge_list
from .propagation import DEFAULT_TERMINAL_CAP, enumerate_terminal_sets, final_mask

_METHODS = {"pd": ("cg", "oracle", "reduction"), "zf": ("cg", "oracle"), "dom": ("oracle",)}


def _guard() -> dict:
    """The ``guard`` keyword PDZF_GUARD_N sets, if it is set."""
    env = os.environ.get("PDZF_GUARD_N")
    if env is None:
        return {}
    guard = int(env)
    if guard < 1:
        raise ValueError(f"PDZF_GUARD_N must be positive, got {guard}")
    return {"guard": guard}


def _parse_set(text: str | None, graph: Graph) -> VertexSet:
    if not text:
        return graph.vertex_set()
    return graph.vertex_set(int(part) for part in text.split(","))


def _read(path: str | None) -> str:
    """The text of the file at *path*, or of standard input without one.

    Both are read as bytes and decoded as strict UTF-8, whatever the
    locale, with their line breaks kept, so an input gets the same answer
    however it is passed."""
    if path:
        with open(path, "rb") as handle:
            data = handle.read()
    else:
        data = sys.stdin.buffer.read()
    return data.decode("utf-8")


def _digest(graph: Graph) -> str:
    return hashlib.sha256(to_edge_list(graph).encode()).hexdigest()[:12]


def _jsonable(value):
    from fractions import Fraction

    if isinstance(value, VertexSet):
        return sorted(value)
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _result_payload(res) -> dict:
    return {
        "value": res.value,
        "witness": sorted(res.witness),
        "method": res.method,
        "cuts_added": res.cuts_added,
        "nodes": res.nodes,
    }


def _cmd_solve(args: argparse.Namespace, graph: Graph, x: VertexSet) -> dict:
    from .solver import (
        brute_force_min,
        reduction_pd_number,
        restricted_pd_number,
        restricted_zf_number,
    )

    method = args.method or _METHODS[args.mode][0]
    if method not in _METHODS[args.mode]:
        raise ValueError(f"method {method!r} does not apply to mode {args.mode!r}")
    if method == "oracle":
        res = brute_force_min(graph, x, args.mode, **_guard())
    elif method == "reduction":
        res = reduction_pd_number(graph, x)
    elif args.mode == "pd":
        res = restricted_pd_number(graph, x)
    else:
        res = restricted_zf_number(graph, x)
    return {"parameter": args.mode, **_result_payload(res)}


def _cmd_trace(args: argparse.Namespace, graph: Graph, x: VertexSet) -> dict:
    from .propagation import pd_observe, zf_closure

    trace = pd_observe(graph, x) if args.mode == "pd" else zf_closure(graph, x)
    return {
        "mode": args.mode,
        "initial": sorted(trace.initial),
        "dominated": sorted(trace.dominated),
        "rounds": [[list(force) for force in rnd] for rnd in trace.rounds],
        "final": sorted(trace.final),
        "feasible": len(trace.final) == graph.n,
    }


def _cmd_forts(args: argparse.Namespace, graph: Graph, x: VertexSet) -> dict:
    from .forts import enumerate_forts, fort_from_failed_set, minimum_violated_fort

    if args.x is None:
        forts = enumerate_forts(graph, **_guard())
        return {"count": len(forts), "forts": [sorted(f.members) for f in forts]}
    forbidden = fort_from_failed_set(graph, x, args.mode).members.complement()
    fort = minimum_violated_fort(graph, forbidden)
    return {"mode": args.mode, "fort": sorted(fort.members), "size": len(fort.members)}


def _cmd_gen(args: argparse.Namespace) -> None:
    if args.family == "apex_over":
        base = from_edge_list(_read(None))
        graph = apex_over(base, _parse_set(args.t, base))
        labels = {}
    else:
        if args.t:
            raise ValueError("--t only applies to apex_over")
        graph = generate(args.family, tuple(args.params))
        labels = family_labels(args.family, graph)
    for v in sorted(labels):
        sys.stdout.write(f"# label {v} {labels[v]}\n")
    sys.stdout.write(to_edge_list(graph))


def _cmd_tree_pd(args: argparse.Namespace, tree: Graph) -> dict:
    from .decomposition import tree_split

    split = tree_split(tree, None if args.split == "auto" else int(args.split))
    parts = [
        {
            "vertices": sorted(part.index.to_old),
            "anchored": part.anchored.value,
            "free": part.free.value,
            "deleted": part.deleted.value,
            "role": part.role,
        }
        for part in split.parts
    ]
    return {**_result_payload(split.result()), "split": split.vertex, "parts": parts}


# The vertex-list fields each compose kind requires, besides "base", named
# as the parameters of the library call they are passed to.
_SPEC_SETS = {"pendant": ("x",), "boundary": ("v1", "w1", "w2"), "apex": ("x", "t")}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_spec(spec, kind: str) -> None:
    """Reject a malformed compose descriptor before anything is solved."""
    if not isinstance(spec, dict):
        raise ValueError("the spec must be a JSON object")
    required = ("base", *_SPEC_SETS[kind])
    if kind == "pendant":
        required += ("attachments",)
    missing = [key for key in required if key not in spec]
    if missing:
        raise ValueError(f"the spec lacks {', '.join(map(repr, missing))}")
    if not isinstance(spec["base"], str):
        raise ValueError("'base' must be an edge-list string")
    for key in _SPEC_SETS[kind]:
        if not isinstance(spec[key], list) or not all(map(_is_int, spec[key])):
            raise ValueError(f"{key!r} must be a list of integers")
    if "cap" in spec and not (_is_int(spec["cap"]) and spec["cap"] > 0):
        raise ValueError("'cap' must be a positive integer")
    if kind == "pendant":
        attachments = spec["attachments"]
        if not isinstance(attachments, list) or not all(
            isinstance(a, dict)
            and isinstance(a.get("graph"), str)
            and _is_int(a.get("root"))
            and _is_int(a.get("at"))
            for a in attachments
        ):
            raise ValueError(
                "'attachments' must be a list of objects with a 'graph' string "
                "and integer 'root' and 'at'"
            )


def _cmd_compose(args: argparse.Namespace) -> tuple[Graph, dict]:
    from .decomposition import check_apex_terminal, compose_boundary_pd, compose_pendant_zf

    spec = json.loads(_read(args.spec))
    _check_spec(spec, args.kind)
    base = from_edge_list(spec["base"])
    # The branch graphs parse before the vertex sets, so that a spec with a
    # bad branch and a bad vertex id reports the branch.
    if args.kind == "pendant":
        attachments = tuple(
            (from_edge_list(a["graph"]), a["root"], a["at"]) for a in spec["attachments"]
        )
    sets = {key: base.vertex_set(spec[key]) for key in _SPEC_SETS[args.kind]}
    cap = spec.get("cap", DEFAULT_TERMINAL_CAP)
    if args.kind == "pendant":
        comp = compose_pendant_zf(base, attachments=attachments, cap=cap, **sets)
        payload = {
            **_result_payload(comp.result),
            "parts": [p.value for p in comp.parts],
            "placements": [list(p) for p in comp.placements],
            "glued": to_edge_list(comp.graph),
        }
    elif args.kind == "boundary":
        bound = compose_boundary_pd(base, **sets)
        payload = {
            "value": bound.value,
            "witness": sorted(bound.witness),
            "parts": [p.value for p in bound.parts],
        }
    else:
        report = check_apex_terminal(base, cap=cap, **sets)
        payload = {
            "apex": report.apex,
            "covered": report.covered,
            "touched": report.touched,
            "forces_apex": report.forces_apex,
            **{f"solved_{k}": v for k, v in _result_payload(report.result).items()},
        }
    return base, payload


def _cmd_bounds(args: argparse.Namespace, graph: Graph, x: VertexSet) -> dict:
    from .bounds import audit

    reports = audit(graph, x)
    return {
        "bounds": [
            {
                "name": r.name,
                "lhs": _jsonable(r.lhs),
                "rhs": _jsonable(r.rhs),
                "holds": r.holds,
                "tight": r.tight,
                "context": _jsonable(r.context),
            }
            for r in reports
        ]
    }


def _cmd_terminals(args: argparse.Namespace, graph: Graph, x: VertexSet) -> dict:
    sets = enumerate_terminal_sets(graph, x, args.cap)
    ordered = sorted(sorted(s) for s in sets)
    return {"count": len(ordered), "terminal_sets": ordered}


def _cmd_spread(args: argparse.Namespace, graph: Graph) -> dict:
    from .solver import spread_and_single

    s, res = spread_and_single(graph, args.vertex)
    return {"vertex": args.vertex, "spread": s, **_result_payload(res)}


def _cmd_check(args: argparse.Namespace, graph: Graph, x: VertexSet) -> dict:
    witness = _parse_set(args.witness, graph)
    feasible = final_mask(graph.adj, witness.mask, args.mode) == (1 << graph.n) - 1
    contains_x = x.issubset(witness)
    return {
        "mode": args.mode,
        "size": len(witness),
        "feasible": feasible,
        "contains_x": contains_x,
        "ok": feasible and contains_x,
    }


def _add_graph_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", help="edge list file (default: standard input)")


class _Parser(argparse.ArgumentParser):
    """Raises a usage error, so that ``main`` reports it as one line and
    exit status 2 like every other input problem."""

    def error(self, message: str):
        raise ValueError(message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pdzf",
        description="Exact restricted power domination and zero forcing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="minimum feasible superset of X")
    _add_graph_arg(p)
    p.add_argument("--mode", choices=("pd", "zf", "dom"), default="pd")
    p.add_argument("--x", help="comma-separated required vertices")
    p.add_argument(
        "--method", choices=("cg", "oracle", "reduction"), help="default: oracle for dom, else cg"
    )
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("trace", help="propagation trace of a set")
    _add_graph_arg(p)
    p.add_argument("--mode", choices=("pd", "zf"), default="pd")
    p.add_argument("--x", help="comma-separated initial vertices")
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser("forts", help="all forts, or the minimum fort violated by --x")
    _add_graph_arg(p)
    p.add_argument("--mode", choices=("pd", "zf"), default="pd")
    p.add_argument("--x", help="failed set; omit to enumerate all forts")
    p.set_defaults(handler=_cmd_forts)

    p = sub.add_parser("gen", help="write a family graph as an edge list")
    p.add_argument("family", help=f"one of: {', '.join(family_names())}, apex_over")
    p.add_argument("params", nargs="*", type=int, help="family parameters")
    p.add_argument("--t", help="apex_over: neighborhood of the new vertex")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("tree-pd", help="tree power domination by splitting")
    _add_graph_arg(p)
    p.add_argument("--split", default="auto", help="split vertex id, or auto")
    p.set_defaults(handler=_cmd_tree_pd)

    p = sub.add_parser("compose", help="composition rules over JSON descriptors")
    p.add_argument("kind", choices=("pendant", "boundary", "apex"))
    p.add_argument("--spec", help="JSON descriptor file (default: standard input)")
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("bounds", help="evaluate the applicable bounds")
    _add_graph_arg(p)
    p.add_argument("--x", help="comma-separated required vertices")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("terminals", help="enumerate terminal sets of a forcing set")
    _add_graph_arg(p)
    p.add_argument("--x", help="comma-separated forcing set")
    p.add_argument("--cap", type=int, default=DEFAULT_TERMINAL_CAP)
    p.set_defaults(handler=_cmd_terminals)

    p = sub.add_parser("spread", help="forcing value anchored at one vertex")
    _add_graph_arg(p)
    p.add_argument("--vertex", type=int, required=True)
    p.set_defaults(handler=_cmd_spread)

    p = sub.add_parser("check", help="verify a witness set")
    _add_graph_arg(p)
    p.add_argument("--mode", choices=("pd", "zf", "dom"), default="pd")
    p.add_argument("--witness", required=True, help="comma-separated witness set")
    p.add_argument("--x", help="required vertices the witness must contain")
    p.set_defaults(handler=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        start = time.perf_counter()
        if args.handler is _cmd_gen:
            _cmd_gen(args)
            return 0
        if "graph" in args:
            graph = from_edge_list(_read(args.graph))
            x = (_parse_set(args.x, graph),) if "x" in args else ()
            payload = args.handler(args, graph, *x)
        else:  # compose reads its graphs from the spec
            graph, payload = args.handler(args)
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PdzfError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError, RecursionError) as exc:  # too many vertices, JSON too deep
        print(f"error: the input is too large to process ({type(exc).__name__})", file=sys.stderr)
        return 2
    doc = {
        "schema": 1,
        "command": args.command,
        "input": _digest(graph),
        **payload,
        "runtime_ms": round((time.perf_counter() - start) * 1000, 3),
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
