"""Spans recorded from outside the program, around calls into its layers.

A ``Tracer`` replaces module and class attributes that medlink's callers
look up at call time (``medlink.codec.quantize``, ``medlink.macsim.simulate``,
...) with wrappers that record one span per call: name, start, end,
parent span and operation id. Counters taken from a call's arguments or
result are recorded at the same boundary. Spans stay in memory until
``write`` is called; ``uninstall`` (or leaving the ``with`` block) puts
the original attributes back, so untraced code runs unwrapped.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, targets):
        """``targets``: (span name, owner, attribute, count) tuples, where
        ``count(args, result)`` yields (counter name, value) pairs or is None."""
        self.targets = targets
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def next_op(self):
        self.op += 1

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if count is not None:
                for key, value in count(args, result):
                    self.counts[key] += value
            return result

        return traced

    def __enter__(self):
        for name, owner, attr, count in self.targets:
            raw = vars(owner)[attr]
            wrapped = self.wrap(name, getattr(owner, attr), count)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = staticmethod(wrapped)
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, raw))
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def layer_totals(self) -> tuple[dict[str, int], dict[str, int]]:
        """(calls per span name, self nanoseconds per span name).

        Self time is a span's duration minus the durations of its
        children; spans of one thread nest, so children never overlap.
        """
        self_ns = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_ns[parent] -= end - start
        calls: dict[str, int] = defaultdict(int)
        totals: dict[str, int] = defaultdict(int)
        for (name, *_), ns in zip(self.spans, self_ns):
            calls[name] += 1
            totals[name] += ns
        return calls, totals

    def write(self, path):
        """One JSON array per line: name, start ns, end ns, parent index, op id."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")
