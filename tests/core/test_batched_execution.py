"""Batched-vs-scalar engine equivalence.

Stripping the batch hooks off a program must leave every simulated number
— worker clocks included — bit-identical, across execution modes, all
three merge disciplines (engine merging, filesystem merging, no
merging), edge-list formats and a faulty array.  Both forms run through
the engine's one wave service; only the delivery differs
(``run_on_vertices`` per wave or ``run_on_vertex`` per list).
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.algorithms.bc import _BackwardProgram, _ForwardProgram, betweenness_centrality
from repro.algorithms.bfs import BFSProgram, DirectionOptimizingBFSProgram
from repro.algorithms.kcore import KCoreProgram
from repro.algorithms.pagerank import PageRankProgram
from repro.algorithms.scc import _ClaimProgram, _ColorProgram, scc
from repro.algorithms.wcc import WCCProgram
from repro.bench.datasets import load_dataset
from repro.bench.harness import make_engine
from repro.core.config import EngineConfig, ExecutionMode
from repro.core.engine import GraphEngine
from repro.core.vertex_program import VertexProgram
from repro.graph.builder import build_directed, build_undirected
from repro.graph.format import FORMAT_V1, FORMAT_V2
from repro.graph.generators import rmat_graph
from repro.graph.page_vertex import PageVertexBatch
from repro.obs import arm
from repro.safs.filesystem import SAFS, SAFSConfig
from repro.safs.page import SAFSFile
from repro.sim.faults import FaultPlan, FaultPolicy, TransientErrors
from repro.sim.ssd_array import SSDArray, SSDArrayConfig

SCALE = 9

_HOOKS = ("run_batch", "run_on_vertices", "run_on_messages")


def _image(undirected=False, fmt=FORMAT_V1):
    edges, num_vertices = rmat_graph(SCALE, edge_factor=8, seed=7)
    if undirected:
        return build_undirected(edges, num_vertices, name="tiny-u", fmt=fmt)
    return build_directed(edges, num_vertices, name="tiny", fmt=fmt)


def _strip_batch_hooks(program):
    for hook in _HOOKS:
        setattr(program, hook, None)
    return program


@contextmanager
def _stripped(*classes):
    """Strip the batch hooks off whole program classes, for drivers that
    build their programs internally (BC's two phases, SCC's rounds)."""
    saved = [(cls, dict(vars(cls))) for cls in classes]
    try:
        for cls in classes:
            for hook in _HOOKS:
                setattr(cls, hook, None)
        yield
    finally:
        for cls, attrs in saved:
            for hook in _HOOKS:
                if hook in attrs:
                    setattr(cls, hook, attrs[hook])
                else:
                    delattr(cls, hook)


def _source(image):
    return int(np.argmax(image.out_csr.degrees()))


def _single_program(name, image):
    if name == "pr":
        return PageRankProgram(image.num_vertices)
    if name == "wcc":
        return WCCProgram(image.num_vertices)
    if name == "kcore":
        degrees = image.out_csr.degrees().astype(np.int64)
        return KCoreProgram(image.num_vertices, 4, degrees)
    if name == "bfs":
        return BFSProgram(image.num_vertices)
    return DirectionOptimizingBFSProgram(image.num_vertices)


def _state_of(name, program):
    if name == "pr":
        return program.rank + program.pending
    if name == "wcc":
        return program.component
    if name == "kcore":
        return program.alive
    return program.level


def _engine(image, mode, merge_in_engine, fault_plan=None, merge_in_fs=True):
    SAFSFile._next_id = 0
    config = EngineConfig(
        mode=mode,
        num_threads=4,
        merge_in_engine=merge_in_engine,
        merge_in_fs=merge_in_fs,
    )
    if fault_plan is None:
        return GraphEngine(image, config=config)
    array = SSDArray(SSDArrayConfig(), fault_plan=fault_plan)
    safs = SAFS(
        array,
        SAFSConfig(cache_bytes=8 * 1024),
        stats=array.stats,
        fault_policy=FaultPolicy(max_retries=12, retry_backoff=200e-6),
    )
    return GraphEngine(image, safs=safs, config=config)


def _run(
    name, image, mode, merge_in_engine, batched, fault_plan=None, merge_in_fs=True
):
    """One run of ``name``; returns ``(result, output array, program)``."""
    engine = _engine(image, mode, merge_in_engine, fault_plan, merge_in_fs)
    if name == "bc":
        source = _source(image)
        if batched:
            delta, result = betweenness_centrality(engine, source)
        else:
            with _stripped(_ForwardProgram, _BackwardProgram):
                delta, result = betweenness_centrality(engine, source)
        return result, delta, None
    if name == "scc":
        if batched:
            labels, result = scc(engine)
        else:
            with _stripped(_ColorProgram, _ClaimProgram):
                labels, result = scc(engine)
        return result, labels, None
    program = _single_program(name, image)
    if not batched:
        _strip_batch_hooks(program)
    if name in ("bfs", "do-bfs"):
        result = engine.run(program, initial_active=np.asarray([_source(image)]))
    else:
        result = engine.run(program, max_iterations=10)
    return result, _state_of(name, program), program


def _assert_identical(batched, scalar):
    batched_result, batched_state, _ = batched
    scalar_result, scalar_state, _ = scalar
    assert batched_result.runtime == scalar_result.runtime
    assert batched_result.cpu_busy == scalar_result.cpu_busy
    assert batched_result.iterations == scalar_result.iterations
    assert batched_result.bytes_read == scalar_result.bytes_read
    assert batched_result.counters == scalar_result.counters
    np.testing.assert_array_equal(batched_state, scalar_state)


def _mode(mode, merge_in_engine, merge_in_fs=True):
    """One MODES row; rows with filesystem merging keep the
    ``<mode>-<merge_in_engine>`` test ids they had as two-field rows."""
    suffix = "" if merge_in_fs else "-no-merge"
    return pytest.param(
        mode, merge_in_engine, merge_in_fs, id=f"{mode}-{merge_in_engine}{suffix}"
    )


#: (mode, merge_in_engine, merge_in_fs): engine merging, filesystem
#: merging, no merging (Figure 12's ``seq-exec-no-merge``), in memory.
MODES = [
    _mode(ExecutionMode.SEMI_EXTERNAL, True),
    _mode(ExecutionMode.SEMI_EXTERNAL, False),
    _mode(ExecutionMode.SEMI_EXTERNAL, False, merge_in_fs=False),
    _mode(ExecutionMode.IN_MEMORY, True),
]


@pytest.mark.parametrize("name", ["pr", "wcc", "kcore"])
@pytest.mark.parametrize("mode,merge_in_engine,merge_in_fs", MODES)
def test_batched_equals_scalar(name, mode, merge_in_engine, merge_in_fs):
    image = _image(undirected=(name == "kcore"))
    _assert_identical(
        _run(name, image, mode, merge_in_engine, True, merge_in_fs=merge_in_fs),
        _run(name, image, mode, merge_in_engine, False, merge_in_fs=merge_in_fs),
    )


@pytest.mark.parametrize("fmt", [FORMAT_V1, FORMAT_V2])
@pytest.mark.parametrize("name", ["bfs", "do-bfs", "bc", "scc"])
@pytest.mark.parametrize("mode,merge_in_engine,merge_in_fs", MODES)
def test_traversal_batched_equals_scalar(
    name, mode, merge_in_engine, merge_in_fs, fmt
):
    image = _image(fmt=fmt)
    batched = _run(name, image, mode, merge_in_engine, True, merge_in_fs=merge_in_fs)
    _assert_identical(
        batched,
        _run(name, image, mode, merge_in_engine, False, merge_in_fs=merge_in_fs),
    )
    if name == "do-bfs":
        # The frontier must have crossed the threshold, or the bottom-up
        # hooks were never compared.
        assert batched[2]._bottom_up


@pytest.mark.parametrize("name", ["bfs", "do-bfs", "bc", "scc"])
def test_traversal_batched_equals_scalar_under_faults(name):
    """Recoverable chaos draws its fault decisions per device request, so
    the two paths must also present the array the same request stream."""
    plan = FaultPlan(
        [
            TransientErrors(device=d, start=0.0, end=10.0, probability=0.15)
            for d in range(SSDArrayConfig().num_ssds)
        ],
        seed=42,
    )
    image = _image(fmt=FORMAT_V2)
    batched = _run(name, image, ExecutionMode.SEMI_EXTERNAL, True, True, plan)
    scalar = _run(name, image, ExecutionMode.SEMI_EXTERNAL, True, False, plan)
    _assert_identical(batched, scalar)
    assert batched[0].counters.get("faults.retries", 0) > 0


@pytest.mark.parametrize("name", ["bfs", "bc"])
def test_armed_batched_and_scalar_record_identical_request_spans(name):
    """Both forms share one request-event definition: every element is
    stamped with its wave's issue time and the span that served it.
    ``page-sim`` waves span many non-adjacent pages, so a per-span issue
    cursor would tell the forms apart."""
    image = load_dataset("page-sim")
    source = _source(image)
    spans = []
    for batched in (True, False):
        SAFSFile._next_id = 0
        engine = make_engine(image, num_threads=4)
        observer = arm(engine)
        if name == "bfs":
            program = BFSProgram(image.num_vertices)
            if not batched:
                _strip_batch_hooks(program)
            engine.run(program, initial_active=np.asarray([source]))
        elif batched:
            betweenness_centrality(engine, source)
        else:
            with _stripped(_ForwardProgram, _BackwardProgram):
                betweenness_centrality(engine, source)
        spans.append((observer.request_spans, observer.io_spans))
    (batched_requests, batched_io), (scalar_requests, scalar_io) = spans
    assert len({r["issued"] for r in batched_requests}) < len(batched_io)
    assert batched_requests == scalar_requests
    assert batched_io == scalar_io


def test_stripped_restores_class_hooks():
    with _stripped(_ForwardProgram, DirectionOptimizingBFSProgram):
        assert _ForwardProgram.run_batch is None
        assert DirectionOptimizingBFSProgram.run_on_vertices is None
        # The parent's hooks are untouched.
        assert BFSProgram.run_on_vertices is not None
    assert _ForwardProgram.run_batch is not None
    assert (
        DirectionOptimizingBFSProgram.run_on_vertices
        is not BFSProgram.run_on_vertices
    )


# -- misuse of the batched context calls is rejected up front ------------


class _WaveProgram(VertexProgram):
    """Requests every vertex's out-list and hands each delivered wave to
    ``on_wave``; the misuse tests plug the call under test in there."""

    combiner = None

    def __init__(self, on_wave):
        self.on_wave = on_wave

    def run_batch(self, g, vertices):
        g.request_self_batch(vertices)

    def run_on_vertices(self, g, batch):
        self.on_wave(g, batch)


def _run_waves(on_wave, mode=ExecutionMode.SEMI_EXTERNAL):
    _engine(_image(), mode, True).run(_WaveProgram(on_wave), max_iterations=1)


@pytest.mark.parametrize(
    "call",
    [
        lambda g: g.activate_batch(np.zeros(0, dtype=np.int64), []),
        lambda g: g.charge_edges_batch([]),
        lambda g: g.send_message_batch(np.zeros(0, dtype=np.int64), 1.0, []),
    ],
    ids=["activate_batch", "charge_edges_batch", "send_message_batch"],
)
def test_batched_calls_outside_run_on_vertices_raise(call):
    class Scalar(VertexProgram):
        def run(self, g, vertex):
            call(g)

    engine = _engine(_image(), ExecutionMode.IN_MEMORY, True)
    with pytest.raises(RuntimeError, match="only valid inside run_on_vertices"):
        engine.run(Scalar(), initial_active=np.asarray([0]))


@pytest.mark.parametrize("mode", [ExecutionMode.SEMI_EXTERNAL, ExecutionMode.IN_MEMORY])
@pytest.mark.parametrize(
    "call",
    [
        lambda g, b: g.activate_batch(b.read_edges_concat(), b.degrees[:-1]),
        lambda g, b: g.charge_edges_batch(np.append(b.degrees, 1)),
        lambda g, b: g.send_message_batch(
            b.read_edges_concat(), 1.0, b.degrees[:-1]
        ),
    ],
    ids=["activate_batch", "charge_edges_batch", "send_message_batch"],
)
def test_counts_must_cover_every_list(call, mode):
    with pytest.raises(ValueError, match="one entry per delivered list"):
        _run_waves(call, mode)


def test_counts_must_sum_to_the_destinations():
    def short(g, batch):
        g.activate_batch(batch.read_edges_concat()[1:], batch.degrees)

    with pytest.raises(ValueError, match="counts sum to"):
        _run_waves(short)


def test_messages_and_activations_cannot_share_a_wave():
    def both(g, batch):
        edges = batch.read_edges_concat()
        g.send_message_batch(edges, 1.0, batch.degrees)
        g.activate_batch(edges, batch.degrees)

    with pytest.raises(RuntimeError, match="at most one send_message_batch"):
        _run_waves(both)


def test_charge_edges_batch_only_once_per_wave():
    def twice(g, batch):
        g.charge_edges_batch(batch.degrees)
        g.charge_edges_batch(batch.degrees)

    with pytest.raises(RuntimeError, match="twice"):
        _run_waves(twice)


def test_wave_state_resets_after_a_failed_hook():
    """A raising ``run_on_vertices`` must not leave its wave open: the
    next out-of-hook call is still rejected."""

    def failing(g, batch):
        raise ZeroDivisionError

    engine = _engine(_image(), ExecutionMode.SEMI_EXTERNAL, True)
    with pytest.raises(ZeroDivisionError):
        engine.run(_WaveProgram(failing), max_iterations=1)
    with pytest.raises(RuntimeError, match="only valid inside"):
        engine._ctx.charge_edges_batch([])


def test_count_per_list():
    batch = PageVertexBatch(
        np.asarray([5, 6, 7, 8]),
        np.asarray([2, 0, 3, 1]),
        np.asarray([1, 2, 3, 4, 5, 6], dtype=np.uint32),
    )
    mask = np.asarray([True, False, True, True, False, True])
    np.testing.assert_array_equal(batch.count_per_list(mask), [1, 0, 2, 1])
