"""The engine's wave service delivers the same lists in every mode.

A semi-external wave is merged, issued and decoded as arrays; an
in-memory wave gathers from the CSR.  Whatever the merge discipline and
edge-list format, the lists a program receives must be the ones the
in-memory engine hands it — including repeated targets with attributes,
where every occurrence is its own list paired with its own attribute
block.
"""

import numpy as np
import pytest

from repro.bench.harness import make_engine
from repro.core.config import ExecutionMode
from repro.core.vertex_program import VertexProgram
from repro.graph.builder import build_directed
from repro.graph.format import FORMAT_V1, FORMAT_V2
from repro.graph.generators import twitter_sim
from repro.graph.types import EdgeType
from repro.safs import filesystem, io_request, io_scheduler
from repro.safs.page import SAFSFile


class _Recorder(VertexProgram):
    """Every active vertex requests ``targets`` with attributes once and
    records what arrives."""

    combiner = None

    def __init__(self, targets):
        self.targets = np.asarray(targets, dtype=np.int64)
        self.seen = []

    def run(self, g, vertex):
        g.request_vertices(vertex, self.targets, EdgeType.OUT, with_attrs=True)

    def run_on_vertex(self, g, vertex, page_vertex):
        attrs = page_vertex.read_edge_attrs() if page_vertex.has_attrs else None
        self.seen.append(
            (
                vertex,
                page_vertex.vertex_id,
                page_vertex.num_edges,
                page_vertex.has_attrs,
                page_vertex.read_edges().tobytes(),
                b"" if attrs is None else attrs.tobytes(),
            )
        )


def _image(fmt):
    edges, n = twitter_sim(scale=8, seed=1)
    weights = np.random.default_rng(1).uniform(0.5, 2.0, len(edges)).astype(
        np.float32
    )
    return build_directed(edges, n, name="dup", weights=weights, fmt=fmt)


def _deliveries(image, targets, **overrides):
    SAFSFile._next_id = 0
    engine = make_engine(image, num_threads=2, cache_bytes=16 * 1024, **overrides)
    program = _Recorder(targets)
    engine.run(program, initial_active=np.asarray([0, 1, 2]), max_iterations=1)
    return program.seen


@pytest.mark.parametrize("fmt", [FORMAT_V1, FORMAT_V2])
@pytest.mark.parametrize(
    "merge",
    [
        {},
        {"merge_in_engine": False},
        {"merge_in_engine": False, "merge_in_fs": False},
    ],
    ids=["engine-merge", "safs-merge", "no-merge"],
)
def test_repeated_targets_with_attrs_match_in_memory(fmt, merge):
    image = _image(fmt)
    degrees = image.out_csr.degrees()
    hub = int(np.argmax(degrees))
    isolated = int(np.flatnonzero(degrees == 0)[0])
    targets = [hub, hub, isolated, hub]
    semi = _deliveries(image, targets, **merge)
    memory = _deliveries(image, targets, mode=ExecutionMode.IN_MEMORY)
    # Three requesters, one list per requested target occurrence.
    assert len(semi) == len(memory) == 3 * len(targets)
    # Arrival order differs (completion order vs request order); the
    # delivered lists, attributes included, must not.
    assert sorted(semi) == sorted(memory)
    assert sum(1 for seen in semi if seen[1] == hub) == 9


@pytest.mark.parametrize(
    "merge",
    [
        {},
        {"merge_in_engine": False},
        {"merge_in_engine": False, "merge_in_fs": False},
    ],
    ids=["engine-merge", "safs-merge", "no-merge"],
)
def test_engine_never_uses_the_object_request_api(monkeypatch, merge):
    """The object API stays as the tests' reference; the engine serves
    every discipline through the array path alone."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the engine reached the object request API")

    monkeypatch.setattr(io_request, "merge_requests", forbidden)
    monkeypatch.setattr(filesystem, "merge_requests", forbidden)
    monkeypatch.setattr(filesystem.SAFS, "submit_merged", forbidden)
    monkeypatch.setattr(filesystem.SAFS, "submit", forbidden)
    monkeypatch.setattr(io_scheduler.IOScheduler, "dispatch", forbidden)
    image = _image(FORMAT_V2)
    hub = int(np.argmax(image.out_csr.degrees()))
    assert len(_deliveries(image, [hub, 0], **merge)) == 6
