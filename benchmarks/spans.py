"""Spans around the benchmark's calls into ggraphs, and the numbers they yield.

A span records a name, a start, an end and the span that was open when it
began.  Spans stay in memory and are written out once, when the run ends.
With tracing off, ``Untraced`` calls straight through, so the timed passes of
an untraced run carry no bookkeeping beyond one extra Python call per API
call.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class Untraced:
    """Calls through without recording anything."""

    def call(self, layer, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, amount=1):
        pass


class Tracer:
    """Records one span per ``call`` and named counts per ``count``."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def call(self, layer, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append((layer, 0.0, 0.0, parent))
        self._open.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (layer, start, end, parent)

    def count(self, name, amount=1):
        self.counts[name] += amount

    def self_times(self) -> dict[str, float]:
        """Per layer: total span time minus the time its child spans cover.

        Children of one span run one after another in this single-threaded
        benchmark, so their durations do not overlap and can be summed.
        """
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index, (layer, start, end, _) in enumerate(self.spans):
            out[layer] += (end - start) - child_time[index]
        return dict(out)

    def records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
