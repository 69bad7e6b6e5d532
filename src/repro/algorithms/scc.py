"""Strongly connected components via iterative coloring (extension).

The coloring algorithm (Orzan) is the standard vertex-centric SCC method
and a natural fit for FlashGraph's model — unlike Tarjan's, it needs no
DFS.  Each round has two phases over the *unassigned* vertices:

1. **Color** (:class:`_ColorProgram`): every vertex starts with its own
   ID as color and forward-propagates the *maximum* color to a fixpoint.
   A vertex's final color identifies the highest-ID vertex that can reach
   it.
2. **Claim** (:class:`_ClaimProgram`): each color's root (the vertex
   whose color is its own ID) walks *backward* along in-edges restricted
   to its color; everything it reaches is in its SCC (reachable both
   ways) and gets assigned.

Rounds repeat on the shrinking unassigned set until every vertex has an
SCC id.  Both phases read one edge direction only — the out/in file split
(§3.5.2) pays off directly.
"""

from typing import Tuple

import numpy as np

from repro.algorithms.bc import merge_results
from repro.core.engine import GraphEngine, RunResult
from repro.core.vertex_program import GraphContext, VertexProgram
from repro.graph.page_vertex import PageVertex
from repro.graph.types import EdgeType

#: SCC id sentinel for "not yet assigned".
UNASSIGNED = -1


class _ColorProgram(VertexProgram):
    """Forward max-color propagation over the unassigned subgraph."""

    edge_type = EdgeType.OUT
    combiner = "max"
    state_bytes_per_vertex = 8

    def __init__(self, scc: np.ndarray, color: np.ndarray) -> None:
        self.scc = scc
        self.color = color

    def run(self, g: GraphContext, vertex: int) -> None:
        if self.scc[vertex] == UNASSIGNED:
            g.request_self(vertex, EdgeType.OUT)

    def run_on_vertex(self, g: GraphContext, vertex: int, page_vertex: PageVertex) -> None:
        neighbors = page_vertex.read_edges().astype(np.int64)
        if neighbors.size == 0:
            return
        live = neighbors[self.scc[neighbors] == UNASSIGNED]
        if live.size:
            g.send_message(live, float(self.color[vertex]))

    def run_on_message(self, g: GraphContext, vertex: int, value: float) -> None:
        color = int(value)
        if self.scc[vertex] == UNASSIGNED and color > self.color[vertex]:
            self.color[vertex] = color
            g.activate(np.asarray([vertex]))

    # -- batched fast path (observationally identical to the scalar
    # methods above) ----------------------------------------------------

    def run_batch(self, g: GraphContext, vertices: np.ndarray) -> None:
        g.request_self_batch(vertices[self.scc[vertices] == UNASSIGNED], EdgeType.OUT)

    def run_on_vertices(self, g: GraphContext, batch) -> None:
        neighbors = batch.read_edges_concat()
        live = self.scc[neighbors] == UNASSIGNED
        counts = batch.count_per_list(live)
        colors = self.color[batch.vertices].astype(np.float64)
        g.send_message_batch(neighbors[live], np.repeat(colors, counts), counts)

    def run_on_messages(self, g: GraphContext, dests: np.ndarray, values: np.ndarray) -> np.ndarray:
        colors = values.astype(np.int64)
        better = (self.scc[dests] == UNASSIGNED) & (colors > self.color[dests])
        self.color[dests[better]] = colors[better]
        return better


class _ClaimProgram(VertexProgram):
    """Backward sweep from each color root, restricted to the color."""

    edge_type = EdgeType.IN
    combiner = "max"
    state_bytes_per_vertex = 8

    def __init__(self, scc: np.ndarray, color: np.ndarray) -> None:
        self.scc = scc
        self.color = color

    def run(self, g: GraphContext, vertex: int) -> None:
        # Activated vertices were just claimed; spread backward.
        g.request_self(vertex, EdgeType.IN)

    def run_on_vertex(self, g: GraphContext, vertex: int, page_vertex: PageVertex) -> None:
        parents = page_vertex.read_edges().astype(np.int64)
        if parents.size == 0:
            return
        mine = self.color[vertex]
        candidates = parents[
            (self.scc[parents] == UNASSIGNED) & (self.color[parents] == mine)
        ]
        if candidates.size:
            g.send_message(candidates, float(mine))

    def run_on_message(self, g: GraphContext, vertex: int, value: float) -> None:
        color = int(value)
        if self.scc[vertex] == UNASSIGNED and self.color[vertex] == color:
            self.scc[vertex] = color
            g.activate(np.asarray([vertex]))

    # -- batched fast path (observationally identical to the scalar
    # methods above) ----------------------------------------------------

    def run_batch(self, g: GraphContext, vertices: np.ndarray) -> None:
        g.request_self_batch(vertices, EdgeType.IN)

    def run_on_vertices(self, g: GraphContext, batch) -> None:
        parents = batch.read_edges_concat()
        mine = batch.repeat(self.color[batch.vertices])
        keep = (self.scc[parents] == UNASSIGNED) & (self.color[parents] == mine)
        g.send_message_batch(
            parents[keep], mine[keep].astype(np.float64), batch.count_per_list(keep)
        )

    def run_on_messages(self, g: GraphContext, dests: np.ndarray, values: np.ndarray) -> np.ndarray:
        colors = values.astype(np.int64)
        claimed = (self.scc[dests] == UNASSIGNED) & (self.color[dests] == colors)
        self.scc[dests[claimed]] = colors[claimed]
        return claimed


def scc(engine: GraphEngine, max_rounds: int = 10_000) -> Tuple[np.ndarray, RunResult]:
    """Strongly connected components of a directed image.

    Returns ``(labels, result)``; each label is the highest vertex ID in
    its component.
    """
    image = engine.image
    if not image.directed:
        raise ValueError("SCC needs a directed graph (use WCC otherwise)")
    n = image.num_vertices
    scc_ids = np.full(n, UNASSIGNED, dtype=np.int64)
    total: RunResult = None
    rounds = 0
    while (scc_ids == UNASSIGNED).any():
        if rounds >= max_rounds:
            raise RuntimeError("SCC did not converge (max_rounds reached)")
        rounds += 1
        unassigned = np.nonzero(scc_ids == UNASSIGNED)[0]
        color = np.arange(n, dtype=np.int64)

        coloring = _ColorProgram(scc_ids, color)
        result = engine.run(coloring, initial_active=unassigned)
        total = result if total is None else merge_results(total, result)

        roots = unassigned[color[unassigned] == unassigned]
        scc_ids[roots] = roots
        claiming = _ClaimProgram(scc_ids, color)
        result = engine.run(claiming, initial_active=roots)
        total = result if total is None else merge_results(total, result)
    return scc_ids, total
