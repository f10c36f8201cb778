"""In-memory span tracer that wraps public functions at their call sites.

A wrapped function is replaced on the module (or class) attribute its
callers look it up through, so the program runs unmodified and only the
traced process pays for the wrapper. Each span is (id, name, start, end,
parent id); counters are recorded at the same boundaries. Everything
stays in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent]
        self.counts = Counter()
        self.probe_s = 0.0  # time in spans the benchmark adds to measure
        self._stack = []
        self._patches = []

    def begin(self, name):
        span = [len(self.spans), name, time.perf_counter(), None,
                self._stack[-1][0] if self._stack else None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span[3] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[1]} closed out of order")

    def inside(self, name) -> bool:
        return bool(self._stack) and self._stack[-1][1] == name

    def wrap(self, owner, attr, name, after=None, span=True):
        """Patch ``owner.attr``; ``after(tracer, args, result)`` counts.

        A call that raises counts under ``<name>.errors`` and re-raises.
        With ``span=False`` only ``after`` runs, for calls too small and
        too many to be worth a span each.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            current = self.begin(name) if span else None
            try:
                result = original(*args, **kwargs)
            except Exception:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                if current is not None:
                    self.end(current)
            if after is not None:
                after(self, args, result)
            return result

        self.patch(owner, attr, traced)

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        """Summed duration per span name."""
        out = defaultdict(float)
        for _, name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> dict:
        """Summed self time per span name: duration minus child spans.

        Children run inside their parent on one thread and never overlap
        each other, so their durations add up to the time they cover.
        """
        child = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, name, start, end, _ in self.spans:
            out[name] += end - start - child[sid]
        return out

    def write(self, path):
        """One JSON line per span, then one line with the counters."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
