"""Failure injection and degenerate inputs across the whole stack."""

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.pagerank import pagerank
from repro.algorithms.triangle_count import triangle_count
from repro.algorithms.wcc import wcc
from repro.core.config import EngineConfig, ExecutionKind, ExecutionMode
from repro.core.engine import GraphEngine
from repro.core.vertex_program import VertexProgram
from repro.graph.builder import build_directed, build_undirected
from repro.safs.filesystem import SAFS, SAFSConfig
from repro.sim.ssd_array import SSDArray, SSDArrayConfig

from tests.conftest import engine_for


class TestDegenerateGraphs:
    def test_empty_graph(self):
        image = build_directed(np.zeros((0, 2), dtype=np.int64), 3, name="empty")
        levels, result = bfs(engine_for(image, range_shift=1), source=0)
        assert levels.tolist() == [0, -1, -1]
        assert result.iterations == 1

    def test_single_vertex(self):
        image = build_directed(np.zeros((0, 2), dtype=np.int64), 1, name="one")
        levels, _ = bfs(engine_for(image, range_shift=0), source=0)
        assert levels.tolist() == [0]

    def test_single_self_loop(self):
        image = build_directed(np.array([[0, 0]]), 1, name="loop")
        levels, _ = bfs(engine_for(image, range_shift=0), source=0)
        assert levels.tolist() == [0]
        counts, _ = triangle_count(engine_for(image, range_shift=0))
        assert counts.tolist() == [0]

    def test_all_isolated_vertices(self):
        image = build_directed(np.zeros((0, 2), dtype=np.int64), 50, name="iso50")
        labels, _ = wcc(engine_for(image, range_shift=2))
        assert labels.tolist() == list(range(50))

    def test_two_vertex_cycle(self):
        image = build_directed(np.array([[0, 1], [1, 0]]), 2, name="cycle2")
        ranks, _ = pagerank(engine_for(image, range_shift=0), max_iterations=50)
        # Symmetric graph: both vertices converge to the same rank.
        assert ranks[0] == pytest.approx(ranks[1], rel=1e-3)

    def test_star_from_hub(self):
        edges = np.array([[0, i] for i in range(1, 100)])
        image = build_directed(edges, 100, name="star100")
        levels, result = bfs(engine_for(image, range_shift=3), source=0)
        assert (levels[1:] == 1).all()
        assert result.iterations == 2


class TestLargeEdgeLists:
    def test_edge_list_spanning_many_pages(self):
        # One vertex with 10K neighbors: its edge list covers ~10 pages.
        n = 10_001
        edges = np.stack(
            [np.zeros(n - 1, dtype=np.int64), np.arange(1, n, dtype=np.int64)],
            axis=1,
        )
        image = build_directed(edges, n, name="jumbo")
        assert image.out_index.edge_list_size(0) > 8 * 4096
        levels, result = bfs(engine_for(image, range_shift=8), source=0)
        assert int((levels >= 0).sum()) == n

    def test_max_vertex_id_at_boundary(self):
        image = build_directed(np.array([[0, 4095]]), 4096, name="bound")
        levels, _ = bfs(engine_for(image, range_shift=5), source=0)
        assert levels[4095] == 1


class TestConfigurationCorners:
    def test_single_thread_engine(self, rmat_image):
        levels_multi, _ = bfs(engine_for(rmat_image, num_threads=8), source=0)
        levels_single, _ = bfs(engine_for(rmat_image, num_threads=1), source=0)
        assert np.array_equal(levels_multi, levels_single)

    def test_range_shift_zero(self, rmat_image):
        levels_default, _ = bfs(engine_for(rmat_image), source=0)
        levels_zero, _ = bfs(engine_for(rmat_image, range_shift=0), source=0)
        assert np.array_equal(levels_default, levels_zero)

    def test_one_running_vertex_per_thread(self, rmat_image):
        levels_big, _ = bfs(engine_for(rmat_image), source=0)
        levels_tiny, _ = bfs(
            engine_for(rmat_image, max_running_vertices=1), source=0
        )
        assert np.array_equal(levels_big, levels_tiny)

    def test_cache_of_one_page(self, rmat_image):
        engine = engine_for(rmat_image, cache_kib=4)
        levels, result = bfs(engine, source=0)
        assert result.cache_hit_rate < 0.9
        reference, _ = bfs(engine_for(rmat_image), source=0)
        assert np.array_equal(levels, reference)

    def test_single_ssd_array(self, rmat_image):
        array = SSDArray(SSDArrayConfig(num_ssds=1, stripe_pages=1))
        safs = SAFS(array, SAFSConfig(cache_bytes=1 << 18), stats=array.stats)
        engine = GraphEngine(
            rmat_image,
            safs=safs,
            config=EngineConfig(num_threads=4, range_shift=5),
        )
        levels, _ = bfs(engine, source=0)
        reference, _ = bfs(engine_for(rmat_image), source=0)
        assert np.array_equal(levels, reference)


class TestReuseAndIsolation:
    def test_engine_reusable_across_runs(self, rmat_image):
        engine = engine_for(rmat_image)
        first, _ = bfs(engine, source=0)
        second, _ = bfs(engine, source=0)
        assert np.array_equal(first, second)

    def test_different_algorithms_share_one_engine(self, rmat_image):
        engine = engine_for(rmat_image)
        bfs(engine, source=0)
        labels, _ = wcc(engine)
        ranks, _ = pagerank(engine, max_iterations=5)
        assert labels.size == ranks.size == rmat_image.num_vertices

    def test_warm_cache_speeds_up_second_run(self, rmat_image):
        engine = engine_for(rmat_image, cache_kib=4096)
        _, cold = bfs(engine, source=0)
        _, warm = bfs(engine, source=0)
        assert warm.runtime <= cold.runtime
        assert warm.cache_hit_rate >= cold.cache_hit_rate

    def test_two_images_in_one_safs(self):
        a = build_directed(np.array([[0, 1]]), 2, name="ga")
        b = build_directed(np.array([[1, 0]]), 2, name="gb")
        from repro.sim.stats import StatsCollector

        stats = StatsCollector()
        safs = SAFS(stats=stats)
        config = EngineConfig(num_threads=2, range_shift=1)
        engine_a = GraphEngine(a, safs=safs, config=config)
        engine_b = GraphEngine(b, safs=safs, config=config)
        levels_a, _ = bfs(engine_a, source=0)
        levels_b, _ = bfs(engine_b, source=1)
        assert levels_a.tolist() == [0, 1]
        assert levels_b.tolist() == [1, 0]


class _Misroute(VertexProgram):
    """Vertex 0 hands ``bad`` to one context call, once.

    The plain calls fire from ``run``; the ``*_batch`` calls fire from a
    ``run_on_vertices`` wave of vertex 0's own edge list.  Every vertex a
    hook sees is recorded, so a test can assert that the bad ID never
    reached the program."""

    combiner = "sum"

    def __init__(self, call, bad):
        self.call = call
        self.bad = bad
        self.fired = False
        self.seen = []

    def run(self, g, vertex):
        if vertex != 0 or self.fired:
            return
        if self.call == "send_message":
            self.fired = True
            g.send_message([self.bad], 1.0)
        elif self.call == "activate":
            self.fired = True
            g.activate([self.bad])

    def run_batch(self, g, vertices):
        self.seen.extend(vertices.tolist())
        if self.call.endswith("_batch") and not self.fired and 0 in vertices:
            g.request_self_batch(np.asarray([0]))
        else:
            for vertex in vertices.tolist():
                self.run(g, vertex)

    def run_on_vertices(self, g, batch):
        self.fired = True
        if self.call == "send_message_batch":
            g.send_message_batch(np.asarray([self.bad]), np.asarray([1.0]), [1])
        else:
            g.activate_batch(np.asarray([self.bad]), [1])

    def run_on_message(self, g, vertex, value):
        self.seen.append(vertex)

    def residuals(self, vertices):
        return np.full(vertices.size, 0.0 if self.fired else 1.0)


class TestOutOfRangeVertexIds:
    """Messages and activations to IDs outside ``[0, num_vertices)`` are
    rejected at delivery / frontier drain, naming the ID and the bound."""

    CALLS = ("send_message", "send_message_batch", "activate", "activate_batch")

    @pytest.mark.parametrize("execution", [ExecutionKind.SYNC, ExecutionKind.ASYNC])
    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("bad", [-1, 4, 7])
    def test_rejected_with_id_and_bound(self, call, bad, execution):
        image = build_directed(np.array([[0, 1], [1, 2], [2, 3]]), 4, name="path4")
        engine = engine_for(image, range_shift=0, execution=execution)
        program = _Misroute(call, bad)
        with pytest.raises(ValueError, match=rf"{bad}\b.*num_vertices=4"):
            engine.run(program, max_iterations=3)
        assert program.fired
        assert all(0 <= v < 4 for v in program.seen)

    def test_initial_active_rejected(self):
        image = build_directed(np.array([[0, 1]]), 2, name="pair")
        with pytest.raises(ValueError, match="9 is out of range.*num_vertices=2"):
            bfs(engine_for(image, range_shift=0), source=9)
