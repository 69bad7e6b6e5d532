"""The FlashGraph execution engine (§3.2–§3.8).

The engine executes real vertex programs while advancing virtual time:

- a graph is range-partitioned over virtual worker threads (§3.8); each
  thread runs its active vertices in scheduler order, in batches of at
  most ``max_running_vertices`` (§3.7);
- edge-list requests buffered by a batch are conservatively merged and
  submitted to SAFS asynchronously; the worker's clock then chases the
  completion stream, charging ``run_on_vertex`` CPU as data arrives — this
  is how computation/I/O overlap is modelled (§3.1, §3.6);
- requests issued *from* ``run_on_vertex`` (triangle counting's neighbor
  reads) feed follow-up waves within the same batch;
- vertical partitioning splits huge multi-list requests into vertex parts
  any thread may pick up (§3.8), and idle threads steal batches from
  loaded ones (§3.8.1);
- messages buffer per iteration and deliver at the barrier with a
  combiner; activations are data-free multicasts (§3.4.1).

The scheduling loop always advances the worker with the smallest virtual
clock, so device-queue contention between threads is simulated fairly.
"""

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import EngineConfig, ExecutionMode, PartitionStrategy, ScheduleOrder
from repro.core.execution import make_execution_policy
from repro.core.memory_mode import InMemoryEdgeStore
from repro.core.messages import MessageBuffer, check_vertex_ids
from repro.core.partition import HashPartitioner, RangePartitioner, split_into_parts
from repro.core.scheduler import make_scheduler
from repro.core.vertex_program import GraphContext, VertexProgram
from repro.obs import registry as reg
from repro.graph.builder import GraphImage
from repro.graph.format import ATTR_BYTES, FORMAT_V2, HEADER_BYTES, decode_lists_v2
from repro.graph.page_vertex import PageVertex, PageVertexBatch, gather_ranges, scatter_positions
from repro.graph.types import EdgeType
from repro.safs.filesystem import SAFS
from repro.safs.io_request import merge_request_arrays
from repro.sim.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.sim.faults import UnrecoverableIOError
from repro.sim.numa import NumaTopology
from repro.sim.stats import StatsCollector

#: Estimated bytes per buffered message (dest id + payload).
MESSAGE_BYTES = 16

#: A wave's lists carry their direction as an index into this tuple.
_DIRECTIONS = (EdgeType.OUT, EdgeType.IN)


def _wave_entry(
    requester: int, targets: np.ndarray, direction: EdgeType, with_attrs: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """One buffered request as parallel ``(requesters, targets, codes,
    with_attrs)`` list arrays."""
    count = targets.size
    return (
        np.full(count, requester, dtype=np.int64),
        targets,
        np.full(count, _DIRECTIONS.index(direction), dtype=np.int8),
        with_attrs,
    )


def _lanes(codes: np.ndarray) -> Dict[int, object]:
    """Direction code -> the index selecting its lists; a full slice when
    the wave has one direction, which spares the mask copies."""
    first, last = int(codes.min()), int(codes.max())
    if first == last:
        return {first: slice(None)}
    return {c: codes == c for c in range(first, last + 1)}


def _flatten_wave(wave):
    """Concatenate buffered entries into one wave's list arrays, plus —
    when any entry asked for attributes — the per-list attribute mask and
    the index of the entry each list came from."""
    requesters = np.concatenate([entry[0] for entry in wave])
    targets = np.concatenate([entry[1] for entry in wave])
    codes = np.concatenate([entry[2] for entry in wave])
    flags = [entry[3] for entry in wave]
    if not any(flags):
        return requesters, targets, codes
    sizes = [entry[1].size for entry in wave]
    return (
        requesters,
        targets,
        codes,
        np.repeat(np.asarray(flags, dtype=bool), sizes),
        np.repeat(np.arange(len(wave)), sizes),
    )


class IterationAborted(RuntimeError):
    """A run hit an unrecoverable I/O error and stopped cleanly.

    The engine never hangs on a dead array and never returns wrong
    values: when SAFS exhausts its retry/reroute budget the iteration
    aborts, and this exception carries the partial-progress
    :class:`RunResult` (clocks, counters and utilisation up to the
    abort) plus the failed iteration and the root cause.
    """

    def __init__(
        self, iteration: int, cause: UnrecoverableIOError, partial: "RunResult"
    ) -> None:
        super().__init__(
            f"iteration {iteration} aborted after unrecoverable I/O: {cause}"
        )
        self.iteration = iteration
        self.cause = cause
        self.partial = partial


class JobCancelled(RuntimeError):
    """The cause recorded when a job is cancelled from outside.

    Mirrors the :class:`~repro.sim.faults.UnrecoverableIOError` surface
    the abort path reads (``reason`` and ``time``), so a cancellation
    flows through :class:`IterationAborted` exactly like an I/O abort
    does — same partial result, same reporting — and callers above the
    engine (the serving layer's deadline enforcement) need no second
    code path.
    """

    def __init__(self, reason: str, time: float) -> None:
        super().__init__(f"job cancelled at t={time:.6f}: {reason}")
        self.reason = reason
        self.time = time


@dataclass
class RunResult:
    """Everything one engine run reports."""

    #: Simulated wall-clock seconds.
    runtime: float
    #: Iterations executed.
    iterations: int
    #: Total CPU-busy seconds summed over workers.
    cpu_busy: float
    #: Fraction of machine CPU busy over the run.
    cpu_utilization: float
    #: Bytes read from the SSD array during the run.
    bytes_read: float
    #: Aggregate device read bandwidth achieved (bytes/second).
    io_throughput: float
    #: Fraction of aggregate device time busy.
    io_utilization: float
    #: SAFS cache hit rate over the run.
    cache_hit_rate: float
    #: Simulated resident memory, by component.
    memory: Dict[str, float] = field(default_factory=dict)
    #: Raw counter deltas for the run.
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def memory_bytes(self) -> float:
        """Total simulated resident memory."""
        return sum(self.memory.values())


class _Worker:
    """One virtual worker thread."""

    __slots__ = ("index", "time", "busy", "queue", "pos")

    def __init__(self, index: int) -> None:
        self.index = index
        self.time = 0.0
        self.busy = 0.0
        self.queue: np.ndarray = np.zeros(0, dtype=np.int64)
        self.pos = 0

    @property
    def remaining(self) -> int:
        return len(self.queue) - self.pos

    def take(self, count: int) -> np.ndarray:
        batch = self.queue[self.pos : self.pos + count]
        self.pos += len(batch)
        return batch

    def steal_from_tail(self, count: int) -> np.ndarray:
        count = min(count, self.remaining)
        if count <= 0:
            return np.zeros(0, dtype=np.int64)
        stolen = self.queue[len(self.queue) - count :]
        self.queue = self.queue[: len(self.queue) - count]
        return stolen


class EngineJob:
    """One in-flight engine run, advanced one barrier at a time.

    Produced by :meth:`GraphEngine.start_job`; a batch :meth:`GraphEngine.run`
    is exactly ``while job.step(): pass`` over one of these, so a
    single-job service run replays the batch code path operation for
    operation.  The service layer (``repro.serve``) interleaves many
    jobs by always stepping the one with the smallest :attr:`clock`.
    """

    def __init__(
        self, engine, steps, base, start_time: float, span_context=None
    ) -> None:
        self._engine = engine
        self._steps = steps
        self._base = base
        self.start_time = start_time
        #: Query span context (``{"query", "tenant", "app"}``) installed
        #: on the armed observer around every step, so all spans the
        #: step produces join into one per-query trace; ``None`` (every
        #: batch run) records exactly the pre-context spans.
        self.span_context = span_context
        self._result: Optional[RunResult] = None
        self._done = False

    @property
    def clock(self) -> float:
        """The job's current simulated time (max worker clock)."""
        if self._done and self._result is not None:
            return self.start_time + self._result.runtime
        return max(
            (w.time for w in self._engine._workers), default=self.start_time
        )

    @property
    def iteration(self) -> int:
        return self._engine.iteration

    @property
    def done(self) -> bool:
        return self._done

    @property
    def frontier_size(self) -> int:
        """Active-vertex count at the last iteration barrier.

        Updated by the execution policy before every barrier yield; the
        serving layer's deadline estimator uses it to decide whether an
        uncapped traversal still has work left.
        """
        return self._engine._barrier_frontier

    def cancel(self, reason: str) -> "IterationAborted":
        """Cancel the job at its current iteration barrier.

        The job is suspended at a barrier ``yield`` (between
        :meth:`step` calls), so its transient queues are empty and the
        worker clocks are consistent; closing the step generator there
        is a clean stop.  Returns the :class:`IterationAborted` carrying
        the partial :class:`RunResult` — the same shape an I/O abort
        produces — with a :class:`JobCancelled` cause holding
        ``reason``.  The engine object stays reusable.  Raises
        ``RuntimeError`` if the job already finished.
        """
        if self._done:
            raise RuntimeError("cannot cancel a finished job")
        engine = self._engine
        self._steps.close()
        cause = JobCancelled(reason, self.clock)
        self._done = True
        return engine._abort_run(
            cause,
            self._base,
            engine._peak_messages,
            self.start_time,
            record_fault=False,
        )

    def step(self) -> bool:
        """Advance one iteration/round; ``False`` once the job finished.

        Raises :class:`IterationAborted` (carrying the partial result)
        when the underlying run hits an unrecoverable I/O error; the
        job is finished afterwards.
        """
        if self._done:
            return False
        engine = self._engine
        obs = engine.obs if self.span_context is not None else None
        if obs is not None:
            obs.set_query_context(self.span_context)
        try:
            next(self._steps)
        except StopIteration:
            self._done = True
            barrier = max(
                (w.time for w in engine._workers), default=self.start_time
            )
            busy = sum(w.busy for w in engine._workers)
            self._result = engine._make_result(
                barrier - self.start_time, busy, self._base, engine._peak_messages
            )
            return False
        except UnrecoverableIOError as exc:
            self._done = True
            raise engine._abort_run(
                exc, self._base, engine._peak_messages, self.start_time
            ) from exc
        finally:
            if obs is not None:
                obs.clear_query_context()
        return True

    def result(self) -> RunResult:
        if self._result is None:
            raise RuntimeError(
                "the job has not finished cleanly (still running or aborted)"
            )
        return self._result


class GraphEngine:
    """Runs a :class:`VertexProgram` over a :class:`GraphImage`."""

    def __init__(
        self,
        image: GraphImage,
        safs: Optional[SAFS] = None,
        config: Optional[EngineConfig] = None,
        cost_model: Optional[CostModel] = None,
        stats: Optional[StatsCollector] = None,
    ) -> None:
        self.image = image
        self.config = config or EngineConfig()
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        if stats is None and safs is not None:
            # Share the filesystem's collector so one report covers both.
            stats = safs.stats
        self.stats = stats if stats is not None else StatsCollector()
        if self.config.mode is ExecutionMode.SEMI_EXTERNAL:
            if safs is None:
                safs = SAFS(stats=self.stats)
            elif safs.stats is not self.stats:
                raise ValueError(
                    "the engine and its SAFS must share one StatsCollector"
                )
            self.safs = safs
            self.memory_store = None
        else:
            self.safs = None
            self.memory_store = InMemoryEdgeStore(image)

        self.numa = NumaTopology(
            num_sockets=min(self.config.num_sockets, self.config.num_threads),
            num_threads=self.config.num_threads,
        )
        if self.config.partition_strategy is PartitionStrategy.HASH:
            self.partitioner = HashPartitioner(self.config.num_threads)
        else:
            self.partitioner = RangePartitioner(
                self.config.num_threads, self.config.range_shift
            )
        self.program: Optional[VertexProgram] = None
        self.iteration = 0
        self._ctx = GraphContext(self)
        self._workers: List[_Worker] = []
        self._current: Optional[_Worker] = None
        # The next wave's requests, as ``_wave_entry`` list arrays.
        self._pending_requests: List[tuple] = []
        # Self-request waves of ``run_on_vertices`` programs, as
        # ``(vertices, codes)`` list arrays; each is its own wave.
        self._pending_batches: List[Tuple[np.ndarray, np.ndarray]] = []
        self._part_queue: Deque[Tuple[int, np.ndarray, EdgeType, bool]] = deque()
        # State of the ``run_on_vertices`` wave in flight: its list count
        # (``None`` outside the hook, which is how the batched context
        # calls reject misuse), the per-list counts of its one send-slot
        # call (``send_message_batch`` or ``activate_batch``) and its
        # ``charge_edges_batch`` extra edges.  ``_deliver_batch`` replays
        # the per-list charges from these.
        self._wave_lists: Optional[int] = None
        self._wave_send_counts: Optional[np.ndarray] = None
        self._wave_extra_edges: Optional[np.ndarray] = None
        # (file_id, dtype) -> the whole file viewed as a numpy array
        # (zero-copy edge and attribute gathers, batched v2 decode).
        self._file_arrays: Dict[Tuple[int, str], np.ndarray] = {}
        self._activations: List[np.ndarray] = []
        self._messages: Optional[MessageBuffer] = None
        self._iteration_end_requested = False
        self._extra_edge_charge = 0
        # Iteration-barrier checkpointing (see repro.core.checkpoint):
        # a manager plus interval arm capture; a pending resume state is
        # consumed by the next run() call.
        self._checkpoint_manager = None
        self._checkpoint_every = 0
        self._resume_state: Optional[dict] = None
        #: Largest message-buffer occupancy seen this run (memory
        #: accounting); maintained by the execution policy's loop.
        self._peak_messages = 0
        #: Active-set size at the last barrier; maintained by the
        #: execution policy, read through :attr:`EngineJob.frontier_size`.
        self._barrier_frontier = 0
        #: Armed observer (see :mod:`repro.obs`); ``None`` keeps every
        #: layer on the exact legacy path with zero tracing work.
        self.obs = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self,
        program: VertexProgram,
        initial_active: Optional[np.ndarray] = None,
        max_iterations: Optional[int] = None,
    ) -> RunResult:
        """Execute ``program`` to quiescence (or ``max_iterations``).

        ``initial_active`` defaults to every vertex (PageRank/WCC style);
        traversals pass their start vertex.
        """
        job = self.start_job(program, initial_active, max_iterations)
        while job.step():
            pass
        return job.result()

    def start_job(
        self,
        program: VertexProgram,
        initial_active: Optional[np.ndarray] = None,
        max_iterations: Optional[int] = None,
        start_time: float = 0.0,
        span_context: Optional[dict] = None,
    ) -> "EngineJob":
        """Set up a run and return it as a steppable :class:`EngineJob`.

        Performs everything :meth:`run` does up to the loop (file
        attachment, program install, base counter snapshot, worker and
        scheduler construction, resume handling), then hands back a job
        whose :meth:`EngineJob.step` advances one iteration/round at a
        time.  ``start_time`` seeds every worker clock, so a service can
        start jobs mid-timeline on the shared DES clock; the returned
        result's ``runtime`` is still relative to the job's own start.
        ``span_context`` (a ``{"query", "tenant", "app"}`` dict) tags
        every span an armed observer records during the job's steps —
        the serving layer's end-to-end query tracing.
        One engine drives one job at a time — the job borrows the
        engine's mutable state until it finishes.
        """
        if self.config.mode is ExecutionMode.SEMI_EXTERNAL:
            self._ensure_files_attached()
        self.program = program
        self._messages = MessageBuffer(program.combiner, self.image.num_vertices)
        base = self.stats.snapshot()
        if (
            self.config.mode is ExecutionMode.SEMI_EXTERNAL
            and self.image.fmt == FORMAT_V2
        ):
            # Set-once, after the base snapshot, so the run's counter diff
            # reports the ratio; v1 runs never touch the name.
            self.stats.set(reg.GRAPH_COMPRESSION_RATIO, self.image.compression_ratio())
        self._workers = [_Worker(i) for i in range(self.config.num_threads)]
        if start_time:
            for worker in self._workers:
                worker.time = start_time
        custom = None
        if self.config.schedule_order is ScheduleOrder.CUSTOM:
            custom = program.custom_order
        scheduler = make_scheduler(self.config, custom)

        if initial_active is None:
            frontier = np.arange(self.image.num_vertices, dtype=np.int64)
        else:
            frontier = np.unique(np.atleast_1d(np.asarray(initial_active, dtype=np.int64)))
            check_vertex_ids(frontier, self.image.num_vertices, "initial active vertex")
        self.iteration = 0
        self._peak_messages = 0
        policy = make_execution_policy(self.config)

        resume = self._resume_state
        self._resume_state = None
        if resume is not None:
            frontier, peak_messages, base = self._apply_checkpoint(
                resume, program, scheduler
            )
            self._peak_messages = peak_messages
            exec_state = resume.get("execution")
            if exec_state is not None or policy.export_state() is not None:
                # Sync checkpoints (including every pre-policy one) carry
                # no execution entry; async checkpoints must round-trip
                # their priority state for a bit-identical continuation.
                policy.restore_state(exec_state)

        self._barrier_frontier = int(frontier.size)
        steps = policy.steps(
            self, frontier, scheduler, max_iterations, base,
            self._checkpoint_manager, self._checkpoint_every,
        )
        return EngineJob(self, steps, base, start_time, span_context)

    def _abort_run(
        self,
        cause,
        base: Dict[str, float],
        peak_messages: int,
        start_time: float = 0.0,
        record_fault: bool = True,
    ) -> "IterationAborted":
        """Build the clean abort for an unrecoverable I/O error.

        Clocks stop where the failure was detected, in-flight state is
        dropped so the engine object stays reusable, and the partial
        result reports everything accumulated up to the abort — the
        caller gets progress stats, never a wrong answer.  ``cause`` is
        an :class:`~repro.sim.faults.UnrecoverableIOError` or a
        :class:`JobCancelled`; cancellations pass ``record_fault=False``
        because they are policy decisions, not faults, and the fault
        counter must not move.
        """
        self._pending_requests.clear()
        self._pending_batches.clear()
        self._part_queue.clear()
        self._activations.clear()
        self._end_wave()
        if self._messages is not None:
            self._messages.clear()
        if record_fault:
            self.stats.add(reg.FAULTS_ABORTED_ITERATIONS)
        barrier = max((w.time for w in self._workers), default=start_time)
        barrier = max(barrier, cause.time)
        busy = sum(w.busy for w in self._workers)
        partial = self._make_result(barrier - start_time, busy, base, peak_messages)
        return IterationAborted(self.iteration, cause, partial)

    # ------------------------------------------------------------------
    # Checkpoint/restore (see repro.core.checkpoint)
    # ------------------------------------------------------------------

    def enable_checkpoints(self, manager, every: int = 1) -> None:
        """Save a checkpoint through ``manager`` every ``every`` barriers.

        Checkpointing is pure observation: it never touches the shared
        stats, device queues or worker clocks, so an armed run stays
        bit-identical to an unarmed one.
        """
        if every < 1:
            raise ValueError("the checkpoint interval must be at least 1")
        self._checkpoint_manager = manager
        self._checkpoint_every = every

    def resume_from(self, source) -> int:
        """Arm the next :meth:`run` call to resume from a checkpoint.

        ``source`` may be a loaded state dict, a path, or a
        :class:`~repro.core.checkpoint.CheckpointManager` (its latest
        checkpoint is used).  The resumed run must be configured exactly
        like the original (same graph, program construction, thread
        count and ``max_iterations``); validation failures raise before
        any state is mutated.  Returns the iteration the run will resume
        from.
        """
        from repro.core.checkpoint import CheckpointError, CheckpointManager

        if isinstance(source, CheckpointManager):
            latest = source.latest()
            if latest is None:
                raise CheckpointError(
                    f"no checkpoint to resume from in {source.directory}"
                )
            state = source.load(latest)
        elif isinstance(source, dict):
            state = source
        else:
            state = CheckpointManager(Path(source).parent).load(source)
        self._resume_state = state
        return int(state["iteration"])

    def _capture_checkpoint(
        self,
        frontier: np.ndarray,
        peak_messages: int,
        base: Dict[str, float],
        scheduler,
        execution: Optional[dict] = None,
    ) -> dict:
        """Serialize the engine at an iteration/round barrier.

        Every transient queue is empty here (requests, parts, batches,
        activations, messages), so the capture is the program state, the
        next frontier, the DES clocks and counters, and the SAFS stack's
        mutable state — everything :meth:`_apply_checkpoint` needs for a
        bit-identical continuation.  Async rounds additionally pass
        their ``execution`` state (residuals, deferral counters); sync
        captures omit the key entirely so sync checkpoints keep the
        pre-policy shape.
        """
        from repro.core.checkpoint import CHECKPOINT_VERSION

        state: dict = {
            "version": CHECKPOINT_VERSION,
            "image": {
                "name": self.image.name,
                "num_vertices": int(self.image.num_vertices),
            },
            "engine": {
                "num_threads": int(self.config.num_threads),
                "mode": self.config.mode.value,
            },
            "iteration": int(self.iteration),
            "frontier": np.asarray(frontier, dtype=np.int64).copy(),
            "peak_messages": int(peak_messages),
            "peak_pending": int(self._messages.peak_pending),
            "base": dict(base),
            "counters": self.stats.snapshot(),
            "worker_time": np.asarray([w.time for w in self._workers]),
            "worker_busy": np.asarray([w.busy for w in self._workers]),
            "scheduler_rng": scheduler._rng.bit_generator.state,
            "program": {
                "class": type(self.program).__name__,
                "state": self.program.snapshot_state(),
            },
        }
        if execution is not None:
            state["engine"]["execution"] = self.config.execution.value
            state["execution"] = execution
        if self.safs is not None:
            health = self.safs.health
            state["safs"] = {
                "files": {
                    name: self.safs.open_file(name).file_id
                    for name in self.safs.file_names()
                },
                "array": self.safs.array.export_state(),
                "health": None if health is None else health.export_state(),
                "cache": self.safs.cache.export_state(),
            }
        else:
            state["safs"] = None
        return state

    def _apply_checkpoint(self, state: dict, program: VertexProgram, scheduler):
        """Reinstate a captured barrier state onto this engine.

        Returns ``(frontier, peak_messages, base)`` for the run loop.
        The engine must have been built exactly like the checkpointed
        one; mismatches raise :class:`CheckpointError` before mutation.
        """
        from repro.core.checkpoint import CheckpointError

        image = state["image"]
        if (
            image["name"] != self.image.name
            or image["num_vertices"] != self.image.num_vertices
        ):
            raise CheckpointError(
                f"checkpoint is for graph {image['name']!r} "
                f"({image['num_vertices']} vertices), not "
                f"{self.image.name!r} ({self.image.num_vertices})"
            )
        meta = state["engine"]
        if meta["num_threads"] != self.config.num_threads:
            raise CheckpointError(
                f"checkpoint ran {meta['num_threads']} threads, "
                f"this engine has {self.config.num_threads}"
            )
        if meta["mode"] != self.config.mode.value:
            raise CheckpointError(
                f"checkpoint ran in {meta['mode']} mode, this engine "
                f"is {self.config.mode.value}"
            )
        # Sync checkpoints (including pre-policy ones) omit the key.
        if meta.get("execution", "sync") != self.config.execution.value:
            raise CheckpointError(
                f"checkpoint ran under {meta.get('execution', 'sync')} "
                f"execution, this engine is {self.config.execution.value}"
            )
        prog_meta = state["program"]
        if prog_meta["class"] != type(program).__name__:
            raise CheckpointError(
                f"checkpoint holds {prog_meta['class']} state, the run "
                f"was given {type(program).__name__}"
            )
        safs_state = state["safs"]
        if (safs_state is None) != (self.safs is None):
            raise CheckpointError(
                "checkpoint and engine disagree about semi-external mode"
            )
        if safs_state is not None:
            files = {
                name: self.safs.open_file(name).file_id
                for name in self.safs.file_names()
            }
            if files != safs_state["files"]:
                raise CheckpointError(
                    "the SAFS file table does not match the checkpoint "
                    "(file names or ids differ; rebuild the stack the "
                    "same way as the checkpointed run)"
                )
            if (safs_state["health"] is None) != (self.safs.health is None):
                raise CheckpointError(
                    "checkpoint and engine disagree about health monitoring"
                )

        # Validation passed — reinstate, counters first.
        self.stats.reset()
        self.stats.merge(state["counters"])
        base = dict(state["base"])
        self.iteration = int(state["iteration"])
        frontier = np.asarray(state["frontier"], dtype=np.int64).copy()
        for worker, time, busy in zip(
            self._workers, state["worker_time"], state["worker_busy"]
        ):
            worker.time = float(time)
            worker.busy = float(busy)
        scheduler._rng.bit_generator.state = state["scheduler_rng"]
        program.restore_state(prog_meta["state"])
        self._messages.restore_peak(state["peak_pending"])
        if safs_state is not None:
            self.safs.array.restore_state(safs_state["array"])
            if safs_state["health"] is not None:
                self.safs.health.restore_state(safs_state["health"])
            by_id = {
                self.safs.open_file(name).file_id: self.safs.open_file(name)
                for name in self.safs.file_names()
            }
            self.safs.cache.restore_state(
                safs_state["cache"],
                lambda file_id, page_no: by_id[file_id].read_page(
                    page_no, self.safs.page_size
                ),
            )
        return frontier, int(state["peak_messages"]), base

    def simulate_init_time(self) -> float:
        """Seconds to load the graph and set up execution (the "Init
        time" column of Table 2): one sequential scan of the image to
        distill the compact index, plus per-thread setup."""
        from repro.graph.construction import init_time

        array = self.safs.array if self.safs is not None else None
        return init_time(self.image, array) + 0.002 * self.config.num_threads

    # ------------------------------------------------------------------
    # Iteration machinery
    # ------------------------------------------------------------------

    def _run_iteration(self, frontier: np.ndarray, scheduler) -> None:
        """One sync BSP superstep: messages deliver at the barrier."""
        self._superstep(frontier, scheduler, None, None)

    def _run_round(
        self, frontier: np.ndarray, scheduler, priorities: np.ndarray
    ) -> None:
        """One async priority round — the barrier-free twin of
        :meth:`_run_iteration`.

        Differences from the sync superstep: worker queues are ordered by
        the priority-aware scheduler (``priorities`` indexes by vertex
        ID), and messages deliver *eagerly* — the buffer drains whenever
        occupancy reaches §3.4.1's per-thread flush threshold (the first
        thread to fill its buffer flushes) instead of waiting for the
        barrier, so receivers fold fresh state in mid-round and each
        round propagates further than a BSP superstep would.
        Only async runs enter here.
        """
        self._superstep(
            frontier, scheduler, priorities, self.config.message_flush_threshold
        )

    def _superstep(
        self,
        frontier: np.ndarray,
        scheduler,
        priorities: Optional[np.ndarray],
        flush_at: Optional[int],
    ) -> None:
        """The body shared by sync iterations and async rounds:
        ``priorities`` (async) orders the worker queues and ``flush_at``
        (async) arms eager message delivery."""
        start = max((w.time for w in self._workers), default=0.0)
        for worker in self._workers:
            worker.time = start
        queues = self.partitioner.split(frontier)
        for worker, queue in zip(self._workers, queues):
            worker.queue = scheduler.schedule(
                queue,
                self.iteration,
                priorities=None if priorities is None else priorities[queue],
            )
            worker.pos = 0
        self.stats.add(reg.ENGINE_ACTIVE_VERTICES, frontier.size)
        obs = self.obs
        if obs is not None:
            obs.begin_iteration(
                self.iteration, int(frontier.size), start, self._workers
            )

        # A batch is atomic in the simulation, so cap it at a quarter of
        # the thread's queue: real FlashGraph steals at vertex granularity
        # from a still-running thread (§3.8.1), which a whole-queue batch
        # would make impossible here.
        largest_queue = max((w.remaining for w in self._workers), default=0)
        batch_size = min(
            self.config.max_running_vertices, max(1, largest_queue // 4)
        )
        # Each step serves the first worker with the smallest clock: its
        # own queue first, then the shared part queue, then half of the
        # fullest queue (work stealing, §3.8.1).
        while True:
            picked = self._pick_worker()
            if picked is None:
                break
            worker, remaining = picked
            if remaining:
                self._process_batch(worker, worker.take(batch_size), stolen=False)
            elif self._part_queue:
                requester, targets, direction, with_attrs = self._part_queue.popleft()
                self._process_part(worker, requester, targets, direction, with_attrs)
            else:
                victim, victim_remaining = self._steal_victim()
                stolen = victim.steal_from_tail(
                    min(batch_size, max(1, victim_remaining // 2))
                )
                if stolen.size == 0:
                    break
                self.stats.add(reg.ENGINE_STOLEN_VERTICES, stolen.size)
                if self.numa.is_remote(worker.index, victim.index):
                    self.stats.add(reg.NUMA_REMOTE_STEALS, stolen.size)
                self._process_batch(
                    worker, stolen, stolen=True, victim=victim.index
                )
            if flush_at is not None and self._messages.flush_due(flush_at):
                self.stats.add(reg.ENGINE_EAGER_FLUSHES)
                self._deliver_messages()

        self._deliver_messages()
        if self._iteration_end_requested:
            self._iteration_end_requested = False
            self._current = self._workers[0]
            self.program.run_on_iteration_end(self._ctx)
            self._charge(self.cost_model.cpu_per_vertex_run)
        barrier = max(w.time for w in self._workers) + self.cost_model.iteration_barrier
        for worker in self._workers:
            worker.time = barrier
        if obs is not None:
            obs.end_iteration(barrier, self._workers, self)

    def _pick_worker(self) -> Optional[Tuple[_Worker, int]]:
        """The next worker to step and its queued-vertex count, or
        ``None`` once no queue or part holds work.

        The pick is the first eligible worker with the smallest clock.  A
        worker with queued vertices is always eligible; every worker is
        while parts wait or, under load balancing, while any work exists
        (an idle one steals).  Each queue length is read once per pick."""
        part_waiting = bool(self._part_queue)
        everyone = part_waiting or self.config.load_balance
        work_exists = part_waiting
        best: Optional[_Worker] = None
        best_remaining = 0
        for worker in self._workers:
            remaining = len(worker.queue) - worker.pos
            if remaining:
                work_exists = True
            if (remaining or everyone) and (best is None or worker.time < best.time):
                best = worker
                best_remaining = remaining
        return (best, best_remaining) if work_exists else None

    def _steal_victim(self) -> Tuple[_Worker, int]:
        """The first worker with the most queued vertices, and that count."""
        victim = self._workers[0]
        most = len(victim.queue) - victim.pos
        for worker in self._workers[1:]:
            remaining = len(worker.queue) - worker.pos
            if remaining > most:
                victim = worker
                most = remaining
        return victim, most

    def _process_batch(
        self,
        worker: _Worker,
        batch: np.ndarray,
        stolen: bool,
        victim: Optional[int] = None,
    ) -> None:
        self._current = worker
        cm = self.cost_model
        steal_cost = 0.0
        if stolen:
            # Stolen vertex state lives on the victim's socket (§3.8.1):
            # the NUMA hop scales the base steal penalty.
            factor = (
                self.numa.remote_factor(worker.index, victim)
                if victim is not None
                else 1.0
            )
            steal_cost = cm.cpu_steal_penalty * factor
        run_cost = cm.cpu_per_vertex_run + steal_cost
        run_batch = self.program.run_batch
        if run_batch is not None:
            # The scalar path charges run_cost per vertex before each
            # ``run`` call; the batch program performs no charged context
            # calls inside ``run_batch``, so replaying the same sequence
            # of float adds up front keeps the clocks bit-identical.
            t = worker.time
            b = worker.busy
            for _ in range(batch.size):
                t += run_cost
                b += run_cost
            worker.time = t
            worker.busy = b
            run_batch(self._ctx, batch)
        else:
            for vertex in batch:
                self._charge(run_cost)
                self.program.run(self._ctx, int(vertex))
        self._service_request_waves(worker)

    def _process_part(
        self,
        worker: _Worker,
        requester: int,
        targets: np.ndarray,
        direction: EdgeType,
        with_attrs: bool = False,
    ) -> None:
        self._current = worker
        self._pending_requests.append(
            _wave_entry(requester, targets, direction, with_attrs)
        )
        self.stats.add(reg.ENGINE_VERTEX_PARTS)
        self._service_request_waves(worker)

    def _service_request_waves(self, worker: _Worker) -> None:
        while self._pending_requests or self._pending_batches:
            if self._pending_batches:
                batches = self._pending_batches
                self._pending_batches = []
                for lists, codes in batches:
                    self._service_wave(worker, lists, lists, codes, batched=True)
            if self._pending_requests:
                wave = self._pending_requests
                self._pending_requests = []
                self._service_wave(worker, *_flatten_wave(wave))

    def _service_wave(
        self,
        worker: _Worker,
        requesters: np.ndarray,
        targets: np.ndarray,
        codes: np.ndarray,
        with_attrs: Optional[np.ndarray] = None,
        entries: Optional[np.ndarray] = None,
        batched: bool = False,
    ) -> None:
        """Serve one wave of edge-list requests, held as parallel arrays.

        List ``i`` is ``targets[i]``'s list in direction
        ``_DIRECTIONS[codes[i]]`` for ``requesters[i]``, paired with its
        attribute block where ``with_attrs[i]``; ``entries[i]`` numbers
        the buffered request it came from, whose attribute elements
        follow its edge elements.  A semi-external wave is located,
        array-merged under the configured discipline (the whole wave,
        ``fs_merge_window`` requests at a time, or one at a time), issued
        through :meth:`SAFS.submit_spans` and decoded once per file lane;
        elements arrive in stable completion order, the worker waits for
        each, and a list is complete at its last element.  An in-memory
        wave gathers from the CSR and arrives in request order.  The one
        fork is delivery: a ``batched`` wave goes to ``run_on_vertices``
        through :meth:`_deliver_batch`, every other list to
        ``run_on_vertex`` as a :class:`PageVertex` view.
        """
        num_lists = targets.size
        if num_lists == 0:
            return
        safs, image = self.safs, self.image
        compressed = safs is not None and image.fmt == FORMAT_V2
        degrees, starts, sizes, fids = np.empty((4, num_lists), dtype=np.int64)
        if with_attrs is not None:
            attr_starts, attr_sizes, attr_fids = np.zeros((3, num_lists), dtype=np.int64)
        files: Dict[int, "SAFSFile"] = {}
        lane_files: Dict[Tuple[int, str], "SAFSFile"] = {}
        attr_lanes = []
        lanes = _lanes(codes)
        for c, mask in lanes.items():
            direction = _DIRECTIONS[c]
            index = image.index(direction)
            degrees[mask] = index.degrees_of(targets[mask])
            if safs is None:
                starts[mask] = image.csr(direction).indptr[targets[mask]]
            else:
                file = safs.open_file(image.file_name(direction))
                files[file.file_id] = lane_files[c, "edges"] = file
                fids[mask] = file.file_id
                starts[mask], sizes[mask] = index.locate_many(targets[mask])
            if with_attrs is None:
                continue
            mask = with_attrs & (codes == c)
            if not mask.any():
                continue
            if direction not in image.attr_offsets:
                raise ValueError(f"the graph has no {direction.value}-edge attributes")
            attr_lanes.append(c)
            offsets = image.attr_offsets[direction]
            attr_starts[mask] = offsets[targets[mask]]
            attr_sizes[mask] = offsets[targets[mask] + 1] - attr_starts[mask]
            if safs is not None:
                file = safs.open_file(f"{image.name}.{direction.value}-attrs")
                files[file.file_id] = lane_files[c, "attrs"] = file
                attr_fids[mask] = file.file_id

        delivery, times, completes = np.arange(num_lists), None, None
        if safs is not None:
            # One element per edge list, plus one per non-empty attribute
            # block right after its request's edge elements.
            elem_list, elem_attr = delivery, None
            elem_files, elem_offsets, elem_sizes = fids, starts, sizes
            if attr_lanes and attr_sizes.any():
                attr_lists = np.flatnonzero(attr_sizes)
                elem_list = np.concatenate([elem_list, attr_lists])
                elem_attr = np.arange(elem_list.size) >= num_lists
                layout = np.argsort(entries[elem_list] * 2 + elem_attr, kind="stable")
                elem_list, elem_attr = elem_list[layout], elem_attr[layout]
                elem_files, elem_offsets, elem_sizes = (
                    np.where(elem_attr, attr[elem_list], edge[elem_list])
                    for attr, edge in (
                        (attr_fids, fids), (attr_starts, starts), (attr_sizes, sizes)
                    )
                )
            kernel_requests, window = 0, None
            if not self.config.merge_in_engine:
                kernel_requests = elem_list.size
                window = safs.config.fs_merge_window if self.config.merge_in_fs else 1
            spans = merge_request_arrays(
                elem_files, elem_offsets, elem_sizes, safs.page_size, window=window
            )
            issued_at = worker.time
            span_done, cpu = safs.submit_spans(
                spans, files, issued_at, kernel_requests=kernel_requests
            )
            self._charge(cpu)
            self.stats.add(reg.ENGINE_IO_REQUESTS, elem_list.size)
            part_done = span_done[spans.span_of_part]
            by_completion = np.argsort(part_done, kind="stable")
            arrived = spans.order[by_completion]
            delivery, times = elem_list[arrived], part_done[by_completion]

            obs = self.obs
            if obs is not None and obs.last_io_ids is not None:
                # Link each arriving element to the merged span serving it.
                io_ids = np.asarray(obs.last_io_ids, dtype=np.int64)[
                    spans.span_of_part
                ][by_completion]
                kinds = ["edges"] * delivery.size
                if elem_attr is not None:
                    kinds = np.where(elem_attr[arrived], "attrs", "edges").tolist()
                obs.request_events(
                    requesters[delivery].tolist(),
                    [_DIRECTIONS[c] for c in codes[delivery].tolist()],
                    kinds,
                    targets[delivery].tolist(),
                    io_ids.tolist(),
                    issued_at,
                    times.tolist(),
                )
                obs.last_io_ids = None
            if elem_attr is not None:
                # A list with attributes completes at its later element.
                steps = np.arange(delivery.size)
                last = np.zeros(num_lists, dtype=np.int64)
                np.maximum.at(last, delivery, steps)
                completes = last[delivery] == steps
                delivery = delivery[completes]

        # One gather or decode per file lane, lists in delivery order.
        list_degrees = degrees[delivery]
        list_codes = codes[delivery]
        list_starts = starts[delivery]
        flat_starts = np.zeros(num_lists, dtype=np.int64)
        np.cumsum(list_degrees[:-1], out=flat_starts[1:])
        edges = np.empty(int(list_degrees.sum()), dtype=np.uint32)
        attrs = np.empty(edges.size, dtype="<f4") if with_attrs is not None else None
        for c, mask in (lanes if len(lanes) == 1 else _lanes(list_codes)).items():
            lane_starts, lane_degrees = list_starts[mask], list_degrees[mask]
            positions = scatter_positions(flat_starts[mask], lane_degrees)
            if safs is None:
                source = image.csr(_DIRECTIONS[c]).indices
                edges[positions] = gather_ranges(source, lane_starts, lane_degrees)
            elif compressed:
                raw = self._file_array(lane_files[c, "edges"], np.uint8)
                edges[positions] = decode_lists_v2(raw, lane_starts, lane_degrees)
            else:
                words = self._file_array(lane_files[c, "edges"], "<u4")
                word_starts = lane_starts // 4 + HEADER_BYTES // 4
                edges[positions] = gather_ranges(words, word_starts, lane_degrees)
            if c not in attr_lanes:
                continue
            mask = (list_codes == c) & with_attrs[delivery]
            lane_degrees = list_degrees[mask]
            if safs is None:
                values = np.frombuffer(image.attr_bytes[_DIRECTIONS[c]], dtype="<f4")
            else:
                values = self._file_array(lane_files[c, "attrs"], "<f4")
            attrs[scatter_positions(flat_starts[mask], lane_degrees)] = gather_ranges(
                values, attr_starts[delivery][mask] // ATTR_BYTES, lane_degrees
            )

        cm = self.cost_model
        edge_rate = cm.cpu_per_edge_sem if safs is not None else cm.cpu_per_edge_mem
        decode_sizes = sizes[delivery] if compressed else None
        if batched:
            batch = PageVertexBatch(requesters[delivery], list_degrees, edges)
            self._deliver_batch(worker, batch, times, edge_rate, decode_sizes)
            return

        # Per-list delivery: wait for every arriving element; each
        # complete list runs ``run_on_vertex`` and pays its run, per-edge
        # and (v2) decode charges.
        run_on_vertex, ctx = self.program.run_on_vertex, self._ctx
        run_cost, decode_rate = cm.cpu_per_vertex_run, cm.cpu_per_decode_byte
        lists = zip(
            requesters[delivery].tolist(),
            targets[delivery].tolist(),
            list_codes.tolist(),
            flat_starts.tolist(),
            list_degrees.tolist(),
            decode_sizes.tolist() if compressed else [0] * num_lists,
            with_attrs[delivery].tolist() if attrs is not None else [False] * num_lists,
        )
        arrivals = [None] * num_lists if times is None else times.tolist()
        complete = [True] * len(arrivals) if completes is None else completes.tolist()
        for done, last in zip(arrivals, complete):
            if done is not None and done > worker.time:
                # The worker waits for data; waiting is not busy time.
                worker.time = done
            if not last:
                continue
            requester, target, code, lo, degree, size, paired = next(lists)
            hi = lo + degree
            view = PageVertex.from_arrays(
                target, edges[lo:hi], _DIRECTIONS[code],
                attrs=attrs[lo:hi] if paired else None,
            )
            self._extra_edge_charge = 0
            run_on_vertex(ctx, requester, view)
            self._charge(run_cost + (degree + self._extra_edge_charge) * edge_rate)
            if size:
                self._charge(size * decode_rate)
        if compressed:
            self.stats.add(reg.GRAPH_DECODE_BYTES, int(decode_sizes.sum()))
        self.stats.add(reg.ENGINE_EDGES_DELIVERED, edges.size)

    def _deliver_batch(
        self,
        worker: _Worker,
        batch: PageVertexBatch,
        times: Optional[np.ndarray],
        edge_rate: float,
        decode_sizes: Optional[np.ndarray] = None,
    ) -> None:
        """Run ``run_on_vertices`` once, then replay the per-list clock
        updates of the scalar delivery loop: the wait clamp to each list's
        completion time, the send (or activation) charge its
        ``send_message``/``activate`` call would have incurred, the
        ``run_on_vertex`` charge over its degree plus any
        ``charge_edges`` extra edges, and (under format v2) the per-byte
        decode charge — same values, same order, so worker clocks land on
        identical bits."""
        num_lists = batch.num_lists
        if num_lists == 0:
            return
        cm = self.cost_model
        self._wave_lists = num_lists
        try:
            self.program.run_on_vertices(self._ctx, batch)
            counts = self._wave_send_counts
            extra = self._wave_extra_edges
        finally:
            self._end_wave()
        count_list = [0] * num_lists if counts is None else counts.tolist()
        if extra is None:
            degree_list = batch.degrees.tolist()
        else:
            # Per-list delivery prices degree + extra edges as one
            # integer, so the sum is formed before the multiply.
            degree_list = (batch.degrees + extra).tolist()
        time_list = times.tolist() if times is not None else None
        size_list = decode_sizes.tolist() if decode_sizes is not None else None
        rate = cm.cpu_per_multicast_recipient
        base = cm.cpu_per_vertex_run
        decode_rate = cm.cpu_per_decode_byte
        send_charges: Dict[int, float] = {}
        run_charges: Dict[int, float] = {}
        decode_charges: Dict[int, float] = {}
        t = worker.time
        b = worker.busy
        for i in range(num_lists):
            if time_list is not None:
                done = time_list[i]
                if done > t:
                    t = done
            count = count_list[i]
            charge = send_charges.get(count)
            if charge is None:
                charge = count * rate
                send_charges[count] = charge
            t += charge
            b += charge
            degree = degree_list[i]
            charge = run_charges.get(degree)
            if charge is None:
                charge = base + degree * edge_rate
                run_charges[degree] = charge
            t += charge
            b += charge
            if size_list is not None:
                size = size_list[i]
                charge = decode_charges.get(size)
                if charge is None:
                    charge = size * decode_rate
                    decode_charges[size] = charge
                t += charge
                b += charge
        worker.time = t
        worker.busy = b
        if size_list is not None:
            self.stats.add(reg.GRAPH_DECODE_BYTES, int(decode_sizes.sum()))
        self.stats.add(reg.ENGINE_EDGES_DELIVERED, batch.total_edges)

    def _file_array(self, file, dtype) -> np.ndarray:
        """The whole file viewed as a cached numpy array of ``dtype`` (the
        lane gathers and decodes index into it by offset)."""
        key = (file.file_id, np.dtype(dtype).str)
        array = self._file_arrays.get(key)
        if array is None:
            array = np.frombuffer(file.read(0, file.size), dtype=dtype)
            self._file_arrays[key] = array
        return array

    def _deliver_messages(self) -> None:
        dests, values, counts = self._messages.deliver()
        if dests.size == 0:
            return
        cm = self.cost_model
        parts = self.partitioner.partition_many(dests)
        # The batched receive hook needs unique destinations to update
        # state with one vectorized scatter; only combiner programs
        # guarantee that.
        run_on_messages = (
            self.program.run_on_messages if self.program.combiner is not None else None
        )
        for p in np.unique(parts):
            worker = self._workers[int(p)]
            self._current = worker
            mask = parts == p
            # Message *processing* is local by design: buffers are copied
            # once per thread (multicast, §3.4.1) and consumed on the
            # owner's socket.  Only the bundled copy crosses sockets, so
            # the NUMA penalty applies to the per-copy transfer cost, not
            # to per-message processing — this is exactly the localisation
            # the paper's message passing buys.
            remote_share = 1.0 - 1.0 / self.numa.num_sockets
            per_message = cm.cpu_per_message + (
                cm.cpu_per_multicast_recipient
                * self.numa.remote_penalty
                * remote_share
            )
            if run_on_messages is not None:
                self._deliver_messages_batch(
                    worker, dests[mask], values[mask], counts[mask], per_message
                )
                continue
            for dest, value, count in zip(dests[mask], values[mask], counts[mask]):
                # Receive cost is per *logical* message: the combiner saves
                # buffer space, not the per-message processing (§3.4.1).
                self._charge(count * per_message)
                self.program.run_on_message(self._ctx, int(dest), float(value))
        self.stats.add(reg.MSG_DELIVERED, int(counts.sum()))
        self.stats.add(
            reg.NUMA_REMOTE_MESSAGE_SHARE,
            0.0 if self.numa.num_sockets == 1 else counts.sum() * (1.0 - 1.0 / self.numa.num_sockets),
        )

    def _deliver_messages_batch(
        self,
        worker: _Worker,
        dests: np.ndarray,
        values: np.ndarray,
        counts: np.ndarray,
        per_message: float,
    ) -> None:
        """One partition's message round through ``run_on_messages``.

        The hook updates state vectorized and returns the activation mask;
        the engine then replays, per destination, the receive charge and —
        when that destination activated — the scalar path's activation
        charge, in the same interleaved order ``run_on_message`` +
        ``g.activate`` would have produced."""
        act = np.asarray(
            self.program.run_on_messages(self._ctx, dests, values), dtype=bool
        )
        if act.shape != dests.shape:
            raise ValueError("run_on_messages must return one flag per destination")
        activated = dests[act]
        if activated.size:
            self._activations.append(activated)
            self.stats.add(reg.MSG_ACTIVATIONS, activated.size)
        rate = self.cost_model.cpu_per_multicast_recipient
        charges: Dict[int, float] = {}
        act_list = act.tolist()
        t = worker.time
        b = worker.busy
        for i, count in enumerate(counts.tolist()):
            charge = charges.get(count)
            if charge is None:
                charge = count * per_message
                charges[count] = charge
            t += charge
            b += charge
            if act_list[i]:
                t += rate
                b += rate
        worker.time = t
        worker.busy = b

    def _drain_activations(self) -> np.ndarray:
        if not self._activations:
            return np.zeros(0, dtype=np.int64)
        frontier = np.unique(np.concatenate(self._activations))
        self._activations.clear()
        check_vertex_ids(frontier, self.image.num_vertices, "activated vertex")
        return frontier

    # ------------------------------------------------------------------
    # Context plumbing (called via GraphContext)
    # ------------------------------------------------------------------

    def _buffer_request(
        self,
        requester: int,
        targets: np.ndarray,
        direction: EdgeType,
        with_attrs: bool = False,
    ) -> None:
        threshold = self.config.vertical_part_threshold
        if threshold and targets.size > threshold:
            parts = split_into_parts(requester, targets, self.config.vertical_part_size)
            targets = parts[0].targets
            for part in parts[1:]:
                self._part_queue.append(
                    (requester, part.targets, direction, with_attrs)
                )
        self._pending_requests.append(
            _wave_entry(requester, targets, direction, with_attrs)
        )

    def _buffer_batch_request(self, vertices: np.ndarray, edge_type: EdgeType) -> None:
        """Buffer a whole wave of self-requests from ``run_batch``.

        The wave equals per-vertex ``request_self`` calls in ``vertices``
        order: per vertex, one list per direction.  A ``run_on_vertices``
        program gets it as its own wave, delivered in one batch; any
        other program's lists join the next per-list wave."""
        directions = edge_type.directions()
        lists = np.repeat(vertices, len(directions))
        codes = np.empty(lists.size, dtype=np.int8)
        for i, direction in enumerate(directions):
            codes[i :: len(directions)] = _DIRECTIONS.index(direction)
        if self.program.run_on_vertices is None:
            self._pending_requests.append((lists, lists, codes, False))
        else:
            self._pending_batches.append((lists, codes))

    def _end_wave(self) -> None:
        self._wave_lists = None
        self._wave_send_counts = None
        self._wave_extra_edges = None

    def _wave_counts(self, call: str, counts) -> np.ndarray:
        """Validate one batched context call's per-list ``counts``."""
        num_lists = self._wave_lists
        if num_lists is None:
            raise RuntimeError(f"{call} is only valid inside run_on_vertices")
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (num_lists,):
            raise ValueError(
                f"{call} counts must have one entry per delivered list "
                f"({counts.size} != {num_lists})"
            )
        return counts

    def _claim_send_slot(self, call: str, counts, total: int) -> None:
        """Record the wave's one send-slot call (messages or activations).

        The scalar path charges ``send_message`` and ``activate`` as two
        separate float adds; one summed count per list cannot reproduce
        that, so a wave may make only one of these calls, once."""
        counts = self._wave_counts(call, counts)
        if self._wave_send_counts is not None:
            raise RuntimeError(
                f"{call}: a run_on_vertices wave makes at most one "
                "send_message_batch or activate_batch call"
            )
        if int(counts.sum()) != total:
            raise ValueError(
                f"{call} counts sum to {int(counts.sum())}, but {total} "
                "destinations were given"
            )
        self._wave_send_counts = counts

    def _buffer_message_batch(
        self, dests: np.ndarray, values: np.ndarray, counts: np.ndarray
    ) -> None:
        """Buffer one delivered wave's messages in a single chunk.

        ``counts[i]`` is the number of messages list ``i`` sent; the
        engine replays the per-list send charges from it, so no CPU is
        charged here.  Buffer content at the barrier is identical to the
        per-list ``send_message`` calls (chunk granularity never changes
        the concatenation)."""
        dests = np.atleast_1d(np.asarray(dests))
        self._claim_send_slot("send_message_batch", counts, dests.size)
        total = self._messages.send(dests, values)
        if total:
            self.stats.add(reg.MSG_SENT, total)

    def _buffer_activation_batch(self, vertices: np.ndarray, counts) -> None:
        """Buffer one delivered wave's activations in a single chunk; the
        per-list ``activate`` charges are replayed from ``counts``."""
        vertices = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
        self._claim_send_slot("activate_batch", counts, vertices.size)
        self._activations.append(vertices)
        self.stats.add(reg.MSG_ACTIVATIONS, vertices.size)

    def _charge_edges_batch(self, counts) -> None:
        counts = self._wave_counts("charge_edges_batch", counts)
        if self._wave_extra_edges is not None:
            raise RuntimeError(
                "charge_edges_batch called twice in one run_on_vertices wave"
            )
        self._wave_extra_edges = counts

    def _buffer_activation(self, vertices: np.ndarray) -> None:
        self._activations.append(vertices)
        self._charge(vertices.size * self.cost_model.cpu_per_multicast_recipient)
        self.stats.add(reg.MSG_ACTIVATIONS, vertices.size)

    def _buffer_message(self, dests: np.ndarray, values) -> None:
        count = self._messages.send(dests, values)
        self._charge(count * self.cost_model.cpu_per_multicast_recipient)
        self.stats.add(reg.MSG_SENT, count)

    def _request_iteration_end(self) -> None:
        self._iteration_end_requested = True

    def _charge_edges(self, count: int) -> None:
        self._extra_edge_charge += count

    def _charge(self, seconds: float) -> None:
        worker = self._current
        worker.time += seconds
        worker.busy += seconds

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _make_result(
        self, runtime: float, busy: float, base: Dict[str, float], peak_messages: int
    ) -> RunResult:
        counters = self.stats.diff(base)
        bytes_read = counters.get("ssd.bytes_read", 0.0)
        hits = counters.get("cache.hits", 0.0)
        misses = counters.get("cache.misses", 0.0)
        hit_rate = hits / (hits + misses) if hits + misses else 0.0
        if self.safs is not None and runtime > 0:
            io_util = self.safs.array.utilization(runtime)
        else:
            io_util = 0.0
        cpu_util = (
            busy / (runtime * self.cost_model.num_cores) if runtime > 0 else 0.0
        )
        # Real FlashGraph flushes message buffers once a thread accumulates
        # message_flush_threshold messages (§3.4.1); the simulation delivers
        # at the barrier, so cap the modelled footprint at the flush level.
        buffered = min(
            peak_messages,
            self.config.num_threads * self.config.message_flush_threshold,
        )
        memory = {
            "vertex_state": self.image.num_vertices
            * self.program.state_bytes_per_vertex,
            "messages": buffered * MESSAGE_BYTES,
        }
        if self.config.mode is ExecutionMode.IN_MEMORY:
            memory["edge_lists"] = self.memory_store.memory_bytes()
            memory["graph_index"] = 0
            memory["page_cache"] = 0
        else:
            memory["graph_index"] = self.image.index_memory_bytes()
            memory["page_cache"] = self.safs.cache.config.capacity_bytes
        return RunResult(
            runtime=runtime,
            iterations=self.iteration,
            cpu_busy=busy,
            cpu_utilization=min(1.0, cpu_util),
            bytes_read=bytes_read,
            io_throughput=bytes_read / runtime if runtime > 0 else 0.0,
            io_utilization=io_util,
            cache_hit_rate=hit_rate,
            memory=memory,
            counters=counters,
        )

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------

    def _ensure_files_attached(self) -> None:
        name = self.image.file_name(EdgeType.OUT)
        if name not in self.safs.file_names():
            self.image.attach_to_safs(self.safs)
        elif self.safs.file_format(name) != self.image.fmt:
            # A same-named file written under the other layout would parse
            # as garbage; fail fast instead.
            raise ValueError(
                f"SAFS file {name!r} was created as format "
                f"{self.safs.file_format(name)!r} but the image expects "
                f"{self.image.fmt!r}"
            )
