"""Spans recorded around the benchmark's own calls into fermap.

Every library call a job makes goes through ``Tracer.call``.  With tracing
off the call runs bare; with tracing on it records one span per call, or
one per batch for calls too cheap to time singly, with the number of calls
the span covers.  A span covers the whole call, so work a function
delegates to another module stays inside the outer span.  Spans are kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    layer: str          # "<module>.<function>", e.g. "encoding.detect_classical"
    start: float
    end: float
    job: str            # id of the job that made the call: the span's parent
    calls: int
    nbytes: int         # dense-vector bytes the call logically computes (oracle)
    row: str | None     # ROADMAP baseline row the call measures, if any
    failed: bool

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    enabled: bool
    job: str = ""
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def call(self, layer, fn, *args, calls=1, nbytes=0, row=None, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        failed = True
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
            failed = False
            return out
        finally:
            self.spans.append(
                Span(layer, start, perf_counter(), self.job, calls, nbytes, row, failed)
            )

    def batch(self, layer, fn, arg_tuples):
        """One span around fn applied to every argument tuple in turn."""
        return self.call(layer, _each, fn, arg_tuples, calls=len(arg_tuples))

    def count(self, name: str, k: int = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + k

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [s.__dict__ for s in self.spans],
                    "counts": self.counts,
                },
                fh,
            )


def _each(fn, arg_tuples):
    return [fn(*args) for args in arg_tuples]
