"""Tests for the per-iteration tracer."""

import csv

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.pagerank import pagerank
from repro.algorithms.wcc import wcc
from repro.core.config import EngineConfig, ExecutionKind, ExecutionMode
from repro.core.engine import GraphEngine, IterationAborted
from repro.core.tracing import IterationTracer
from repro.safs.filesystem import SAFS, SAFSConfig
from repro.safs.page import SAFSFile
from repro.sim.faults import DeviceFailure, FaultPlan
from repro.sim.ssd_array import SSDArray, SSDArrayConfig

from tests.conftest import engine_for


class TestIterationTracer:
    def test_records_one_row_per_iteration(self, rmat_image):
        engine = engine_for(rmat_image)
        tracer = IterationTracer(engine)
        with tracer:
            _, result = bfs(engine, 0)
        assert tracer.num_iterations == result.iterations

    def test_frontier_curve_matches_bfs_levels(self, rmat_image):
        engine = engine_for(rmat_image)
        source = int(np.argmax(rmat_image.out_csr.degrees()))
        tracer = IterationTracer(engine)
        with tracer:
            levels, _ = bfs(engine, source)
        for level, size in enumerate(tracer.frontier_sizes()):
            # The frontier at iteration i contains the level-i vertices
            # plus re-activated already-visited ones; at minimum it covers
            # the level-i set.
            assert size >= int((levels == level).sum())

    def test_first_frontier_is_the_source(self, rmat_image):
        engine = engine_for(rmat_image)
        tracer = IterationTracer(engine)
        with tracer:
            bfs(engine, 0)
        assert tracer.frontier_sizes()[0] == 1

    def test_end_times_monotonic(self, rmat_image):
        engine = engine_for(rmat_image)
        tracer = IterationTracer(engine)
        with tracer:
            pagerank(engine, max_iterations=5)
        times = [r.end_time for r in tracer.records]
        assert times == sorted(times)

    def test_hook_restored_after_exit(self, rmat_image):
        engine = engine_for(rmat_image)
        tracer = IterationTracer(engine)
        with tracer:
            # The hook shadows the class method via an instance attribute.
            assert "_run_iteration" in engine.__dict__
        assert "_run_iteration" not in engine.__dict__

    def test_hook_restored_when_traced_run_raises(self, rmat_image):
        # Regression: __exit__ must pop the hook even when the body
        # raises — a stale hook would silently re-trace (and append to
        # a dead tracer) on every later run of the engine.
        engine = engine_for(rmat_image)
        tracer = IterationTracer(engine)
        with pytest.raises(ZeroDivisionError):
            with tracer:
                bfs(engine, 0)
                raise ZeroDivisionError
        assert "_run_iteration" not in engine.__dict__
        records_after_exit = tracer.num_iterations
        bfs(engine, 0)  # untraced: must not grow the tracer
        assert tracer.num_iterations == records_after_exit

    def test_hook_restored_after_fault_aborted_run(self, rmat_image):
        # The realistic raiser: every device fails at t=0, so the first
        # semi-external iteration aborts with IterationAborted from
        # inside the traced hook.
        array = SSDArray(
            SSDArrayConfig(),
            fault_plan=FaultPlan(
                [DeviceFailure(device=d, at=0.0) for d in range(15)], seed=1
            ),
        )
        safs = SAFS(array, SAFSConfig(cache_bytes=1 << 20), stats=array.stats)
        engine = GraphEngine(
            rmat_image,
            safs=safs,
            config=EngineConfig(
                mode=ExecutionMode.SEMI_EXTERNAL, num_threads=4, range_shift=5
            ),
        )
        tracer = IterationTracer(engine)
        with pytest.raises(IterationAborted):
            with tracer:
                bfs(engine, 0)
        assert "_run_iteration" not in engine.__dict__

    def test_exit_is_idempotent(self, rmat_image):
        engine = engine_for(rmat_image)
        tracer = IterationTracer(engine)
        with tracer:
            bfs(engine, 0)
        tracer.__exit__(None, None, None)  # double exit: no error
        IterationTracer(engine).__exit__(None, None, None)  # exit sans enter
        assert "_run_iteration" not in engine.__dict__

    def test_csv_roundtrip(self, rmat_image, tmp_path):
        engine = engine_for(rmat_image)
        tracer = IterationTracer(engine)
        with tracer:
            bfs(engine, 0)
        path = tmp_path / "trace.csv"
        tracer.write_csv(path)
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == tracer.num_iterations
        assert int(rows[0]["active_vertices"]) == 1

    def test_pagerank_frontier_shrinks(self, er_image):
        engine = engine_for(er_image)
        tracer = IterationTracer(engine)
        with tracer:
            pagerank(engine, max_iterations=30)
        sizes = tracer.frontier_sizes()
        assert sizes[0] == er_image.num_vertices
        assert sizes[-1] < sizes[0]


def _wcc_run(image, execution, traced):
    SAFSFile._next_id = 0
    engine = engine_for(image, execution=execution)
    tracer = IterationTracer(engine)
    if traced:
        with tracer:
            labels, result = wcc(engine)
    else:
        labels, result = wcc(engine)
    return tracer, labels, result


@pytest.mark.parametrize("execution", [ExecutionKind.SYNC, ExecutionKind.ASYNC])
def test_one_row_per_iteration_or_round(rmat_image, execution, tmp_path):
    # Async runs step through _run_round, never _run_iteration; both
    # must trace, and tracing must not move a simulated number.
    tracer, labels, result = _wcc_run(rmat_image, execution, traced=True)
    _, plain_labels, plain = _wcc_run(rmat_image, execution, traced=False)
    assert tracer.num_iterations == result.iterations > 0
    assert [r.iteration for r in tracer.records] == list(range(result.iterations))
    assert sum(r.edges_delivered for r in tracer.records) == (
        result.counters["engine.edges_delivered"]
    )
    assert tracer.records[-1].end_time == result.runtime
    assert result.runtime == plain.runtime
    assert result.cpu_busy == plain.cpu_busy
    assert result.counters == plain.counters
    np.testing.assert_array_equal(labels, plain_labels)
    path = tmp_path / "trace.csv"
    tracer.write_csv(path)
    with open(path) as f:
        assert len(list(csv.DictReader(f))) == result.iterations
    for name in ("_run_iteration", "_run_round"):
        assert name not in tracer.engine.__dict__

