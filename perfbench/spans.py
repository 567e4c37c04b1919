"""In-memory span recorder for the traced benchmark run.

A span has a name, a start, an end, the id of its parent span (the query,
CLI process or set-up step it belongs to) and optional counts. Spans stay in
memory and are written as JSONL once, when the run ends.
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, **counts):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **counts}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def median(self, name, key=None):
        """Median duration (key None) or median count of the named spans;
        0 when the run made no such call."""
        vals = [s["end"] - s["start"] if key is None else s[key]
                for s in self.spans if s["name"] == name and (key is None or key in s)]
        return statistics.median(vals) if vals else 0

    def self_times(self):
        """Span duration minus the time its direct children cover, summed by name."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        out = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"] - child.get(s["id"], 0.0)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
