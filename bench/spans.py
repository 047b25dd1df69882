"""Spans and counters for the benchmark's traced runs.

A span records a name, its start and end (``time.perf_counter`` seconds),
the span that was open when it started, and the op it belongs to.  A probe
span is a measurement taken beside an op (a repeat of a call the program
makes internally), so it never has a parent and is not part of the op's
span tree.  Everything stays in memory until ``write`` is called at the end
of the run.
"""

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = []
        self.op = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name, probe=False):
        parent = None if probe or not self._open else self._open[-1]
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "op": self.op, "probe": probe, "start": time.perf_counter(),
               "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name, value):
        self.counts.append({"name": name, "op": self.op, "value": value})

    def children(self):
        kids = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                kids[s["parent"]].append(s)
        return kids

    @staticmethod
    def self_time(span, kids):
        """Duration minus the part of it covered by the span's children."""
        covered, reach = 0.0, span["start"]
        for c in sorted(kids, key=lambda s: s["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        return span["end"] - span["start"] - covered

    def per_op(self):
        """{op: {span name: summed self time}} and {op: {counter: summed value}}."""
        kids = self.children()
        times = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            times[s["op"]][s["name"]] += self.self_time(s, kids.get(s["id"], ()))
        counts = defaultdict(lambda: defaultdict(float))
        for c in self.counts:
            counts[c["op"]][c["name"]] += c["value"]
        return times, counts

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


class NullTracer:
    """Stands in for a Tracer in untraced runs; records nothing."""

    op = None

    def span(self, name, probe=False):
        return contextlib.nullcontext()

    def count(self, name, value):
        pass
