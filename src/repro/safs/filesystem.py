"""The SAFS facade the graph engine talks to.

Responsibilities:

- file namespace (create/open of simulated on-SSD files),
- the asynchronous submit path: merged page spans in, one completion time
  per span out, with CPU issue costs accounted (:meth:`SAFS.submit_spans`),
- the pricing of both merge disciplines used by the Figure 12 ablation —
  requests merged by the caller over the whole wave (FlashGraph's
  engine-level merging), or merged within a bounded queue window (or not
  at all) behind the kernel path, which costs extra CPU per request
  (filesystem/block-level merging).

The object API (:meth:`SAFS.submit_merged` / :meth:`SAFS.submit` over
:class:`~repro.safs.io_request.IORequest` objects) is the reference
implementation of the same arithmetic; the property tests compare the
span path against it.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs import registry as reg
from repro.safs.io_request import IORequest, MergedRequest, MergedSpans, merge_requests
from repro.safs.io_scheduler import IOScheduler
from repro.safs.page import DEFAULT_PAGE_SIZE, SAFSFile
from repro.safs.page_cache import PageCache, PageCacheConfig
from repro.safs.user_task import CompletedTask
from repro.sim.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.sim.faults import FaultPolicy
from repro.sim.health import HealthMonitor, HealthPolicy
from repro.sim.ssd_array import SSDArray, SSDArrayConfig
from repro.sim.stats import StatsCollector


@dataclass(frozen=True)
class SAFSConfig:
    """Filesystem-wide knobs."""

    #: SAFS page size in bytes (Figure 13 sweeps 4KB → 1MB).
    page_size: int = DEFAULT_PAGE_SIZE
    #: Page cache capacity in bytes (Figure 14 sweeps 1GB → 32GB).
    cache_bytes: int = 1 << 30
    #: Pages per cache slot.
    cache_associativity: int = 8
    #: Per-slot eviction policy ("lru" or "gclock", cf. [31]).
    cache_eviction: str = "lru"
    #: Queue window for filesystem-level merging (requests the FS can see
    #: at once; FlashGraph's engine has a global view instead).
    fs_merge_window: int = 64


class SAFS:
    """Set-associative file system over a simulated SSD array."""

    def __init__(
        self,
        array: Optional[SSDArray] = None,
        config: Optional[SAFSConfig] = None,
        cost_model: Optional[CostModel] = None,
        stats: Optional[StatsCollector] = None,
        fault_policy: Optional[FaultPolicy] = None,
        health_policy: Optional[HealthPolicy] = None,
    ) -> None:
        """``fault_policy`` governs retries, timeouts and degraded-mode
        rerouting when ``array`` carries a fault plan; the default policy
        is inert on a fault-free array.  ``health_policy`` attaches a
        device health monitor (see :mod:`repro.sim.health`) that
        quarantines flapping devices and declares repeat offenders
        failed; without one, no device is ever benched."""
        self.config = config or SAFSConfig()
        self.stats = stats if stats is not None else StatsCollector()
        #: Armed observer (see :mod:`repro.obs`); ``None`` = no tracing.
        self.obs = None
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.array = array or SSDArray(SSDArrayConfig(), self.stats)
        self.health: Optional[HealthMonitor] = None
        if health_policy is not None:
            self.health = HealthMonitor(health_policy, self.array.config.num_ssds)
            self.array.health = self.health
        self.cache = PageCache(
            PageCacheConfig(
                capacity_bytes=self.config.cache_bytes,
                page_size=self.config.page_size,
                associativity=self.config.cache_associativity,
                eviction=self.config.cache_eviction,
            ),
            self.stats,
        )
        self.scheduler = IOScheduler(
            self.array,
            self.cache,
            self.cost_model,
            self.config.page_size,
            self.stats,
            fault_policy=fault_policy,
        )
        self._files: Dict[str, SAFSFile] = {}
        self._file_formats: Dict[str, str] = {}

    @property
    def fault_policy(self) -> FaultPolicy:
        """The recovery policy the scheduler applies to device faults."""
        return self.scheduler.fault_policy

    @property
    def page_size(self) -> int:
        return self.config.page_size

    def create_file(
        self,
        name: str,
        data: Union[bytes, bytearray, memoryview],
        fmt: str = "v1",
    ) -> SAFSFile:
        """Store ``data`` as a new file striped across the array.

        ``fmt`` records the file's logical layout ("v1" fixed-width edge
        lists or other raw data, "v2" delta+varint compressed edge lists)
        so readers can check they parse what was written — SAFS itself is
        format-agnostic and serves byte ranges either way.
        """
        if name in self._files:
            raise ValueError(f"file {name!r} already exists")
        file = SAFSFile(name, data)
        self.scheduler.register_file(file)
        self._files[name] = file
        self._file_formats[name] = fmt
        return file

    def open_file(self, name: str) -> SAFSFile:
        """Look up an existing file by name."""
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundError(f"SAFS has no file named {name!r}") from None

    def file_format(self, name: str) -> str:
        """The layout tag ``create_file`` recorded for ``name``."""
        if name not in self._files:
            raise FileNotFoundError(f"SAFS has no file named {name!r}")
        return self._file_formats.get(name, "v1")

    def file_names(self) -> List[str]:
        """All file names, in creation order."""
        return list(self._files)

    def submit_merged(
        self, merged: Sequence[MergedRequest], issue_time: float
    ) -> Tuple[List[CompletedTask], float]:
        """Issue pre-merged requests (reference implementation).

        The engine issues through :meth:`submit_spans`; this object form
        is kept as the reference the equivalence tests compare against.
        Requests are issued back-to-back: each one's device arrival time
        includes the CPU spent issuing its predecessors, modelling a worker
        thread pushing its batch into SAFS.  Returns the completions of
        every constituent :class:`IORequest` sorted by completion time,
        plus the total CPU cost of the batch.
        """
        cursor = issue_time
        total_cpu = 0.0
        obs = self.obs
        completions: List[CompletedTask] = []
        for request in merged:
            if obs is not None:
                io_id = obs.begin_io(
                    request.file.file_id, request.first_page,
                    request.last_page, len(request.parts), cursor,
                )
            issued_at = cursor
            done, cpu, full_hit = self.scheduler.dispatch(request, cursor)
            cursor += cpu
            total_cpu += cpu
            if done < cursor:
                done = cursor
            if obs is not None:
                obs.end_io(done)
            for part in request.parts:
                data = part.file.read(part.offset, part.length)
                completions.append(CompletedTask(part, data, done, cache_hit=full_hit))
                if obs is not None:
                    obs.request_event(part.task.context, issued_at, done, io_id)
        completions.sort(key=lambda c: c.completion_time)
        self.stats.add(reg.IO_REQUESTS_ISSUED, len(merged))
        self.stats.add(reg.IO_CPU_ISSUE_TIME, total_cpu)
        return completions, total_cpu

    def submit_spans(
        self,
        spans: MergedSpans,
        files: Dict[int, "SAFSFile"],
        issue_time: float,
        kernel_requests: int = 0,
    ) -> Tuple[np.ndarray, float]:
        """Issue merged spans; the engine's one submit path.

        Issues the spans back-to-back exactly as :meth:`submit_merged`
        would issue the equivalent :class:`MergedRequest` list — same
        cursor arithmetic, same device submissions, same counters — but
        returns one completion time per *span* and leaves fan-out to
        constituent requests to the caller, which holds the wave as
        arrays and never builds request objects.

        ``kernel_requests`` counts the raw requests that reached SAFS
        through the kernel path (filesystem-level merging or no merging,
        the Figure 12 counterfactuals, as in :meth:`submit`): each pays
        the kernel-path CPU premium before the first span issues, and
        the premium is part of the returned CPU cost.
        """
        extra_cpu = 0.0
        if kernel_requests:
            cm = self.cost_model
            extra_cpu = kernel_requests * (
                cm.cpu_per_io_request_kernel - cm.cpu_per_io_request
            )
            issue_time = issue_time + extra_cpu
        cursor = issue_time
        total_cpu = 0.0
        obs = self.obs
        part_counts = None
        if obs is not None:
            part_counts = np.bincount(
                spans.span_of_part, minlength=spans.num_spans
            ).tolist()
            obs.last_io_ids = []
        completions = np.empty(spans.num_spans)
        dispatch_span = self.scheduler.dispatch_span
        for i, (fid, first, last) in enumerate(
            zip(spans.file_ids.tolist(), spans.first_pages.tolist(), spans.last_pages.tolist())
        ):
            if obs is not None:
                obs.last_io_ids.append(
                    obs.begin_io(fid, first, last, part_counts[i], cursor)
                )
            done, cpu, _ = dispatch_span(files[fid], first, last, cursor)
            cursor += cpu
            total_cpu += cpu
            if done < cursor:
                done = cursor
            if obs is not None:
                obs.end_io(done)
            completions[i] = done
        self.stats.add(reg.IO_REQUESTS_ISSUED, spans.num_spans)
        self.stats.add(reg.IO_CPU_ISSUE_TIME, total_cpu)
        if kernel_requests:
            self.stats.add(reg.IO_CPU_ISSUE_TIME, extra_cpu)
            total_cpu = total_cpu + extra_cpu
        return completions, total_cpu

    def submit(
        self,
        requests: Sequence[IORequest],
        issue_time: float,
        fs_merge: bool = True,
    ) -> Tuple[List[CompletedTask], float]:
        """Issue raw, unmerged requests (reference implementation of the
        Figure 12 counterfactual; the engine passes ``kernel_requests`` to
        :meth:`submit_spans` instead).

        Each incoming request costs kernel-path CPU; with ``fs_merge`` the
        filesystem merges adjacent requests, but only within its bounded
        queue window, lacking the engine's global view.  Without it every
        request hits the device individually.
        """
        if not requests:
            return [], 0.0
        cm = self.cost_model
        extra_cpu = len(requests) * (
            cm.cpu_per_io_request_kernel - cm.cpu_per_io_request
        )
        window = self.config.fs_merge_window if fs_merge else 1
        merged = merge_requests(
            list(requests), self.config.page_size, adjacency_gap=1, window=window
        )
        completions, cpu = self.submit_merged(merged, issue_time + extra_cpu)
        total_cpu = cpu + extra_cpu
        self.stats.add(reg.IO_CPU_ISSUE_TIME, extra_cpu)
        return completions, total_cpu

    def cached_bytes(self) -> int:
        """Bytes currently held by the page cache."""
        return len(self.cache) * self.config.page_size

    def reset_timing(self) -> None:
        """Clear device queues, rebuilds, health history, the cache and
        the shared counters for a fresh timed run.

        Resetting the :class:`StatsCollector` is load-bearing for
        back-to-back jobs in one process: float counters that keep
        accumulating across jobs make ``diff`` from a non-zero base
        round differently than accumulation from zero, so the second
        job's counter stream would drift from a fresh stack's in the
        last few ulps (``tests/core/test_sequential_jobs.py``).
        Histograms and gauges reset with it; snapshot a
        :class:`~repro.obs.spans.Observer` first if you need them.
        """
        self.array.reset()
        if self.health is not None:
            self.health.reset()
        self.cache.clear()
        self.stats.reset()
