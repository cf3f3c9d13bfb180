"""Recorders wrapped around every public library call a workload makes.

Inside a job every library call goes through a recorder,
``rec(name, fn, *args)``.  The timed mode uses :class:`CallTimer`, which
only keeps each call's latency.  The traced mode uses :class:`Tracer`,
which keeps a span per call (name, start, end, parent span, run id) in
memory and derives each layer's self time once, at the end.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class CallTimer:
    """Latency of each library call, grouped by call name, nothing else."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}

    def __call__(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.samples.setdefault(name, []).append(time.perf_counter() - t0)
        return out


class Tracer:
    """Nested spans kept in memory; layer totals are computed at the end."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # [span id, parent id or -1, name, start, end]
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        record = [sid, self._open[-1] if self._open else -1, name,
                  time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(sid)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._open.pop()

    def __call__(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def layers(self) -> dict[str, dict]:
        """Per span name: call count, total time and self time in seconds.

        Self time is a span's duration minus the time its direct children
        cover; children run strictly inside their parent, so their
        durations add up without overlap.
        """
        child_time = [0.0] * len(self.spans)
        for sid, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for sid, _, name, start, end in self.spans:
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            acc["calls"] += 1
            acc["total_s"] += end - start
            acc["self_s"] += end - start - child_time[sid]
        return out
