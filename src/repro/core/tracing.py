"""Per-iteration execution tracing.

Research users of a graph engine need more than end-to-end numbers: how
the frontier evolved, where the bytes went, when the cache warmed up.
An :class:`IterationTracer` hooks an engine run and records one row per
iteration (one per priority round under async execution), exportable as
CSV for plotting.

Usage::

    tracer = IterationTracer(engine)
    with tracer:
        bfs(engine, source)
    tracer.write_csv("bfs_trace.csv")
"""

import csv
from dataclasses import dataclass
from typing import List

from repro.core.engine import GraphEngine

#: The engine methods that run one sync iteration / one async round.
_HOOKED = ("_run_iteration", "_run_round")


@dataclass(frozen=True)
class IterationRecord:
    """One iteration's observations."""

    iteration: int
    active_vertices: int
    edges_delivered: int
    io_requests: int
    pages_fetched: int
    cache_hits: int
    messages: int
    end_time: float


class IterationTracer:
    """Records per-iteration engine activity via a lightweight hook."""

    def __init__(self, engine: GraphEngine) -> None:
        self.engine = engine
        self.records: List[IterationRecord] = []

    def __enter__(self) -> "IterationTracer":
        self.records.clear()
        # Sync runs step through ``_run_iteration``, async runs through
        # ``_run_round``; both are hooked so either mode records one row
        # per iteration/round.
        for name in _HOOKED:
            setattr(self.engine, name, self._traced(getattr(self.engine, name)))
        return self

    def _traced(self, original):
        engine = self.engine

        def traced(frontier, *args):
            before = engine.stats.snapshot()
            original(frontier, *args)
            delta = engine.stats.diff(before)
            end_time = max((w.time for w in engine._workers), default=0.0)
            self.records.append(
                IterationRecord(
                    iteration=engine.iteration,
                    active_vertices=int(frontier.size),
                    edges_delivered=int(delta.get("engine.edges_delivered", 0)),
                    io_requests=int(delta.get("engine.io_requests", 0)),
                    pages_fetched=int(delta.get("io.pages_fetched", 0)),
                    cache_hits=int(delta.get("cache.hits", 0)),
                    messages=int(delta.get("msg.delivered", 0)),
                    end_time=end_time,
                )
            )

        return traced

    def __exit__(self, exc_type, exc, tb) -> None:
        # Remove the instance attributes so the class methods show through
        # again (assigning the bound methods back would shadow them
        # forever).  pop() instead of del: the hooks must be restored no
        # matter how the traced run ended — an aborted run
        # (IterationAborted under faults), a double __exit__, or an
        # __exit__ without __enter__ must never leave a stale hook or
        # raise a masking AttributeError.
        for name in _HOOKED:
            self.engine.__dict__.pop(name, None)

    @property
    def num_iterations(self) -> int:
        return len(self.records)

    def frontier_sizes(self) -> List[int]:
        """Active-vertex counts per iteration (the frontier curve)."""
        return [r.active_vertices for r in self.records]

    def write_csv(self, path) -> None:
        """Dump the trace as CSV with a header row."""
        fields = [
            "iteration",
            "active_vertices",
            "edges_delivered",
            "io_requests",
            "pages_fetched",
            "cache_hits",
            "messages",
            "end_time",
        ]
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(fields)
            for record in self.records:
                writer.writerow([getattr(record, name) for name in fields])
