"""In-memory spans around calls into the library, and their self times.

A span is (name, start_ns, end_ns, parent, op).  ``parent`` is the index of
the enclosing span or -1, and ``op`` identifies the benchmark operation the
span belongs to.  Spans are only appended while the run is measuring; they
are summarized and written out once the run has ended.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records a span ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)

        return traced

    def summary(self) -> dict:
        """Per span name: call count, self and total time in ms, and the
        individual durations in ms.  Self time is the span's duration minus
        the time its child spans cover; children of one span run one after
        the other, so their durations add up without overlap."""
        covered = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = {}
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_ms": 0.0, "durations_ms": []})
            entry["calls"] += 1
            entry["self_ms"] += (end - start - covered[sid]) / 1e6
            entry["durations_ms"].append((end - start) / 1e6)
        return out

    def write(self, fh, phase: str) -> None:
        """One JSON array per span: phase, name, start_ns, end_ns, parent, op."""
        for span in self.spans:
            fh.write(json.dumps([phase, *span]) + "\n")


def group(summary: dict, names) -> dict:
    """Calls and self time summed over several span names."""
    entries = [summary[n] for n in names if n in summary]
    return {
        "calls": sum(e["calls"] for e in entries),
        "self_ms": sum(e["self_ms"] for e in entries),
        "durations_ms": [d for e in entries for d in e["durations_ms"]],
    }


def p50(values) -> float:
    return statistics.median(values) if values else 0.0
