"""In-memory spans around the benchmark's calls into each minps layer.

A span is named ``<layer>.<function>``; each question opens a root span
named ``question`` and every layer call inside it is a child.  Spans live in
a list until the run ends and are then written out as JSON lines.  Self
time is a span's duration minus the time its direct children cover.

With tracing off the benchmark uses ``NullTracer``, whose spans are one
shared no-op context manager.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class NullTracer:
    enabled = False

    def span(self, name: str):
        return _NULL

    def begin_question(self, pass_no: int, question: str) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._open[-1] if tr._open else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, parent, tr.pass_no, tr.question,
                         time.perf_counter_ns(), 0])
        tr._open.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][5] = time.perf_counter_ns()
        tr._open.pop()
        return False


class Tracer:
    """Records ``[name, parent, pass, question, start_ns, end_ns]`` per span."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.pass_no = -1
        self.question = ""

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def begin_question(self, pass_no: int, question: str) -> None:
        self.pass_no = pass_no
        self.question = question

    def self_times(self, pass_no: int) -> tuple[dict[str, float], dict[str, int]]:
        """Seconds of self time and call counts per span name for one pass."""
        child_ns: dict[int, int] = defaultdict(int)
        for name, parent, p, _, start, end in self.spans:
            if p == pass_no and parent is not None:
                child_ns[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, parent, p, _, start, end) in enumerate(self.spans):
            if p != pass_no:
                continue
            self_s[name] += (end - start - child_ns.get(i, 0)) / 1e9
            calls[name] += 1
        return self_s, calls

    def span_seconds(self, pass_no: int, question: str, name: str, index: int) -> float:
        """Duration of the ``index``-th span called ``name`` in one question."""
        durations = [(end - start) / 1e9 for n, _, p, q, start, end in self.spans
                     if p == pass_no and q == question and n == name]
        return durations[index]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, p, q, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "pass": p,
                                     "question": q, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")
