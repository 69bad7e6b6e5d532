"""Unit tests for the engine's worker queue/steal mechanics."""

from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.engine import GraphEngine, _Worker


class TestWorkerQueue:
    def test_take_advances(self):
        worker = _Worker(0)
        worker.queue = np.arange(10)
        assert worker.take(4).tolist() == [0, 1, 2, 3]
        assert worker.remaining == 6
        assert worker.take(100).tolist() == [4, 5, 6, 7, 8, 9]
        assert worker.remaining == 0

    def test_take_empty(self):
        worker = _Worker(0)
        assert worker.take(5).size == 0

    def test_steal_from_tail(self):
        worker = _Worker(0)
        worker.queue = np.arange(10)
        worker.take(2)
        stolen = worker.steal_from_tail(3)
        assert stolen.tolist() == [7, 8, 9]
        # The remaining queue excludes both taken and stolen vertices.
        assert worker.take(100).tolist() == [2, 3, 4, 5, 6]

    def test_steal_respects_position(self):
        worker = _Worker(0)
        worker.queue = np.arange(4)
        worker.take(3)
        stolen = worker.steal_from_tail(10)
        assert stolen.tolist() == [3]
        assert worker.remaining == 0

    def test_steal_from_empty(self):
        worker = _Worker(0)
        assert worker.steal_from_tail(5).size == 0

    def test_steal_zero(self):
        worker = _Worker(0)
        worker.queue = np.arange(3)
        assert worker.steal_from_tail(0).size == 0
        assert worker.remaining == 3

    def test_no_vertex_lost_or_duplicated_under_interleaving(self):
        worker = _Worker(0)
        worker.queue = np.arange(100)
        seen = []
        rng = np.random.default_rng(0)
        while worker.remaining:
            if rng.random() < 0.5:
                seen.extend(worker.take(int(rng.integers(1, 8))).tolist())
            else:
                seen.extend(worker.steal_from_tail(int(rng.integers(1, 8))).tolist())
        assert sorted(seen) == list(range(100))


def _engine_stub(times, queue_sizes, parts=0, load_balance=False):
    """Just enough engine state for worker selection: workers with the
    given clocks and queue lengths (one vertex already taken from each
    non-empty queue, so ``pos`` matters), a part queue and the config."""
    workers = []
    for index, (time, size) in enumerate(zip(times, queue_sizes)):
        worker = _Worker(index)
        worker.time = time
        worker.queue = np.arange(size + 1 if size else 0)
        worker.take(1)
        workers.append(worker)
    return SimpleNamespace(
        _workers=workers,
        _part_queue=deque(range(parts)),
        config=SimpleNamespace(load_balance=load_balance),
    )


class TestWorkerSelection:
    def test_pick_first_minimum_clock_among_workers_with_work(self):
        stub = _engine_stub([2.0, 1.0, 1.0, 0.5], [3, 4, 5, 0])
        worker, remaining = GraphEngine._pick_worker(stub)
        # Worker 3 has the earliest clock but nothing queued; of the tied
        # workers 1 and 2 the first wins.
        assert (worker.index, remaining) == (1, 4)

    def test_pick_none_without_work(self):
        stub = _engine_stub([0.0, 1.0], [0, 0], load_balance=True)
        assert GraphEngine._pick_worker(stub) is None

    @pytest.mark.parametrize("parts, load_balance", [(1, False), (0, True)])
    def test_idle_workers_eligible_for_parts_or_stealing(self, parts, load_balance):
        stub = _engine_stub(
            [2.0, 0.5, 0.5, 1.0], [3, 0, 0, 2], parts=parts, load_balance=load_balance
        )
        worker, remaining = GraphEngine._pick_worker(stub)
        assert (worker.index, remaining) == (1, 0)

    def test_idle_workers_ineligible_without_parts_or_balancing(self):
        stub = _engine_stub([2.0, 0.5, 1.0], [3, 0, 2])
        worker, remaining = GraphEngine._pick_worker(stub)
        assert (worker.index, remaining) == (2, 2)

    def test_steal_victim_first_maximum_remaining(self):
        stub = _engine_stub([0.0, 0.0, 0.0, 0.0], [1, 6, 6, 2])
        victim, remaining = GraphEngine._steal_victim(stub)
        assert (victim.index, remaining) == (1, 6)

    def test_steal_victim_all_empty_is_first_worker(self):
        stub = _engine_stub([0.0, 0.0, 0.0], [0, 0, 0])
        victim, remaining = GraphEngine._steal_victim(stub)
        assert (victim.index, remaining) == (0, 0)
