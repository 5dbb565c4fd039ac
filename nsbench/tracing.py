"""Spans around the benchmark's calls into ``nsnet``, and the per-layer
metrics derived from them.

A span records a name, start and end times, the span that was open when it
began (its parent) and the instance it worked on. Spans stay in memory until
the run ends. A layer's self time is its duration minus the time its child
spans cover; the benchmark opens layer spans only around single library
calls, so only its own ``op`` and ``setup`` spans have children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# Per-layer metrics that are the mean duration of one call of a span, in ms;
# a layer a workload never calls reads 0.
CALL_MS = {
    "graph.build_ms": "graph.build",
    "graph.enum_plan_ms": "graph.enum_plan",
    "bp.run_ms": "bp.run",
    "bp.bethe_ms": "bp.bethe",
    "net.forward_ms": "net.forward",
    "train.loss_ms": "train.loss",
    "train.grad_ms": "train.grad",
    "train.adam_ms": "train.adam",
    "search.sls_ms": "search.sls",
    "oracle.sat_ms": "oracle.sat",
    "oracle.count_ms": "oracle.count",
}

# Every per-layer metric of BENCHMARK.json, with its unit.
UNITS = {
    **{metric: "ms" for metric in CALL_MS},
    "bp.iter_ms": "ms",
    "train.backward_ms": "ms",
    "search.flips": "count",
    "search.flips_per_s": "1/s",
    "op.self_ms": "ms",
    "trace.overhead_pct": "%",
}


class Span:
    __slots__ = ("tracer", "id", "name", "inst", "parent", "start", "end", "counts")

    def __init__(self, tracer: "Tracer", name: str, inst: int | None):
        self.tracer = tracer
        self.name = name
        self.inst = inst
        self.counts: dict[str, int] = {}

    def __enter__(self) -> "Span":
        t = self.tracer
        self.id = len(t.spans)
        self.parent = t.stack[-1].id if t.stack else None
        t.spans.append(self)
        t.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.tracer.stack.pop()

    def count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(value)

    def record(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "inst": self.inst,
            "start": self.start, "end": self.end, "counts": self.counts,
        }


class _NoSpan:
    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def count(self, key: str, value: int) -> None:
        pass


_NO_SPAN = _NoSpan()


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    enabled = False

    def span(self, name: str, inst: int | None = None) -> _NoSpan:
        return _NO_SPAN


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []

    def span(self, name: str, inst: int | None = None) -> Span:
        return Span(self, name, inst)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, summed counts."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += s.end - s.start - child_time[s.id]
            for k, v in s.counts.items():
                row["counts"][k] = row["counts"].get(k, 0) + v
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.record()) + "\n")


def layer_metrics(summary: dict[str, dict], traced_rounds: int) -> dict[str, float]:
    """The per-layer metrics of one traced run, from :meth:`Tracer.summary`."""

    def row(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})

    def mean_ms(name, field="total_s"):
        r = row(name)
        return 1000.0 * r[field] / r["calls"] if r["calls"] else 0.0

    m = {metric: mean_ms(span) for metric, span in CALL_MS.items()}
    bp_run = row("bp.run")
    iters = bp_run["counts"].get("iterations", 0)
    m["bp.iter_ms"] = 1000.0 * bp_run["total_s"] / iters if iters else 0.0
    m["train.backward_ms"] = m["train.grad_ms"] - m["train.loss_ms"] if m["train.loss_ms"] else 0.0
    sls = row("search.sls")
    flips = sls["counts"].get("flips", 0)
    # whole rounds only, so flips per round is an exact, repeatable count
    m["search.flips"] = flips // traced_rounds if traced_rounds else 0
    m["search.flips_per_s"] = flips / sls["total_s"] if sls["total_s"] else 0.0
    m["op.self_ms"] = mean_ms("op", "self_s")
    return m
