"""In-memory span tracing around the module-level names that reach each layer.

The benchmark never edits the package.  It replaces a module attribute
such as ``pdzf.solver._cover_exact`` with a wrapper that records a span
(layer, start, end, parent span, operation id) and then calls the
original.  Calls made through that module attribute are therefore
timed; the package code itself is unchanged.

A span's self time is its duration minus the time covered by its
children, so nested layers never count twice.  Aggregates (calls, total
and self nanoseconds) are complete; raw spans are kept up to a cap so a
traced run over millions of propagation calls stays small in memory.
"""

from __future__ import annotations

import importlib
import json
import time

SPAN_CAP = 20000
TRACE_MARK = "perfbench-trace "  # prefix of the timing line a traced CLI process writes


class Tracer:
    """Span recorder; ``install`` wraps targets, ``uninstall`` restores them."""

    def __init__(self) -> None:
        self.layers: dict[str, list[int]] = {}  # layer -> [calls, total_ns, self_ns, max_ns]
        self.missing: dict[str, str] = {}
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.op_id = -1
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def install(self, layer: str, target: str, observe=None) -> bool:
        """Wrap ``module.attr``; record *layer* as missing if it is gone.

        *observe*, when given, is called as ``observe(args, result)`` after
        every successful call, for counts such as master nodes.
        """
        module_name, _, attr = target.rpartition(".")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None) if module is not None else None
        if not callable(original):
            self.missing.setdefault(layer, f"{target} not found")
            return False
        agg = self.layers.setdefault(layer, [0, 0, 0, 0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                if duration > agg[3]:
                    agg[3] = duration
                if stack:
                    stack[-1][1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, layer, start, end, parent, self.op_id))
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = original
        self._restore.append((module, attr, original))
        setattr(module, attr, wrapper)
        return True

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one benchmark operation."""
        self.op_id = op_id
        self._stack.append([self._next_id, 0, time.perf_counter_ns()])
        self._next_id += 1

    def end_op(self) -> None:
        span_id, _, start = self._stack.pop()
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, "op", start, time.perf_counter_ns(), -1, self.op_id))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def self_ms(self, layer: str) -> float | None:
        if layer in self.missing:
            return None
        return self.layers.get(layer, [0, 0, 0, 0])[2] / 1e6

    def calls(self, layer: str) -> int | None:
        if layer in self.missing:
            return None
        return self.layers.get(layer, [0, 0, 0, 0])[0]

    def dump(self, path: str) -> None:
        """Write aggregates, missing layers and the kept raw spans as JSON."""
        doc = {
            "layers": {
                k: {"calls": c, "total_ms": t / 1e6, "self_ms": s / 1e6, "max_ms": m / 1e6}
                for k, (c, t, s, m) in self.layers.items()
            },
            "missing": self.missing,
            "span_cap": SPAN_CAP,
            "spans": [
                {"id": i, "name": n, "start_ns": a, "end_ns": b, "parent": p, "op": o}
                for i, n, a, b, p, o in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
