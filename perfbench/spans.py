"""In-memory span recorder for the benchmark's traced pass.

A span is one call into a layer: name, start, end, the span that was open
when it began (its parent), and free-form attributes such as bytes
written. Hot calls that would swamp the trace with spans (a model's
per-row `predict`, every PRNG draw) are counted instead. Nothing is
written until `dump`, so recording costs no I/O inside the timed calls.

Dumped traces use the schema below, which is meant to be shared with a
future `--trace-out` in the CLI itself:

    {"schema": "rusent-trace/1",
     "spans": [{"id": 0, "name": "cli.compare", "start": 0.0, "end": 4.2,
                "parent": null, "attrs": {}}, ...],
     "counters": {"rng.draws": 123456, ...}}

With `memory=True` every span also gets a `peak_bytes` attribute: the
tracemalloc peak inside the span, above the traced size at its start.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from dataclasses import asdict, dataclass, field

SCHEMA = "rusent-trace/1"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)


class Recorder:
    def __init__(self, clock=time.perf_counter, memory: bool = False):
        self.clock = clock
        self.memory = memory
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._open: list[Span] = []
        # per open span: [traced size at entry, highest peak seen so far]
        self._mem: list[list[int]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([current, current])
        span = Span(len(self.spans), name, self.clock(), 0.0, parent)
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        if self._open.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            start, highest = self._mem.pop()
            highest = max(highest, peak)
            span.attrs["peak_bytes"] = highest - start
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], highest)
            tracemalloc.reset_peak()

    def wrap(self, fn, name, attrs=None):
        """`fn` recorded as a span on every call.

        `name` is a string or `name(args, result)`, for names known only
        from the arguments or the result (a loaded model's variant).
        `attrs(args, result)` returns extra attributes for the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name if isinstance(name, str) else "unnamed")
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            # outside the span, so naming and attributes cost it nothing
            if not isinstance(name, str):
                span.name = name(args, result)
            if attrs is not None:
                span.attrs.update(attrs(args, result))
            return result

        return traced

    # -- counters ----------------------------------------------------------

    def count(self, fn, name: str):
        """`fn` with every call counted under `name`, without a span."""
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- output ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "spans": [asdict(s) for s in self.spans],
            "counters": dict(self.counters),
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged first, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
