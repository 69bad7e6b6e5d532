"""The benchmark's three seeded workloads.

Each workload turns ``--seed`` into its inputs in ``setup`` (sweep-v1
and serve-mix: the graph; traverse-v2: the traversal sources), and the
program receives only those generated inputs.  One call of ``Instance.run`` is one repetition:
every job of the workload, each on a cold page cache, timed on the host
clock and reported on the simulated clock.

- ``sweep-v1``: closed loop, one client: PageRank (30 iterations) then
  WCC, semi-external, format v1, scale-13 twitter-shaped graph, 256 KiB
  cache (working set far larger than the cache).
- ``traverse-v2``: closed loop, one client: BFS from 4 seeded
  high-degree sources, BC from the first, then SCC; semi-external,
  format v2, a fixed scale-12 twitter-shaped graph with a 128 KiB cache
  (working set nearly fits the cache).
- ``serve-mix``: open loop on the simulated clock at a fixed offered
  rate near the knee, over a scale-10 graph drawn from the seed and a
  fixed trace: fair admission, a bursty heavy tenant and a steady
  light one, deadlines, queue caps, brownout, an armed timeline sampler
  with SLO objectives, and read sharing over per-tenant cache partitions
  smaller than the edge file.  The result cache stays off (every query
  of an app is identical here, so it would skip almost all work).
  Latency counts from each query's arrival time; the trace is drawn up
  front, so the generator is never late.
"""

import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Dict, List, Tuple

import numpy as np

import oracles
from repro.bench.datasets import scaled_cache_bytes
from repro.bench.harness import make_engine
from repro.graph.builder import GraphImage, build_directed
from repro.graph.generators import twitter_sim
from repro.obs import Observer, TimelineSampler, arm, build_profile, registry as reg
from repro.safs.page import SAFSFile
from repro.serve import (
    GraphService,
    OverloadConfig,
    ServiceConfig,
    TenantSpec,
    TenantTraffic,
    generate_trace,
)

# The package namespace re-exports each app function under its module's
# name, so the modules are fetched from the import system itself.
bc_mod = import_module("repro.algorithms.bc")
bfs_mod = import_module("repro.algorithms.bfs")
pagerank_mod = import_module("repro.algorithms.pagerank")
scc_mod = import_module("repro.algorithms.scc")
wcc_mod = import_module("repro.algorithms.wcc")

#: The paper's "1GB" cache at the datasets' 1/4096 scale: 256 KiB.
CACHE_BYTES = scaled_cache_bytes(1.0)

#: Latency limit of one batch job on the simulated clock.  A batch job
#: past it counts against ``slo_attainment`` like a late query.
BATCH_JOB_LIMIT_S = 0.1

#: PageRank oracle tolerance: relative L1 distance to the numpy power
#: iteration.  Delta PageRank drops pushes below 1e-6, which moves the
#: answer by at most ~iterations * 1e-6 per vertex of mass.
PAGERANK_RTOL = 1e-4

#: Counters summed over a repetition's jobs.
COUNTERS = (
    reg.ENGINE_EDGES_DELIVERED,
    reg.ENGINE_IO_REQUESTS,
    reg.MSG_SENT,
    reg.MSG_DELIVERED,
    reg.GRAPH_DECODE_BYTES,
    reg.IO_REQUESTS_ISSUED,
    reg.IO_PAGES_REQUESTED,
    reg.IO_PAGES_FETCHED,
    reg.SAFS_DEDUP_PAGES,
    reg.CACHE_HITS,
    reg.CACHE_MISSES,
    reg.CACHE_EVICTIONS,
    reg.ARRAY_REQUESTS,
    reg.ARRAY_BYTES_READ,
)


@dataclass
class Rep:
    """One repetition's outcome."""

    #: Host seconds of the jobs as measured; ``run.py`` replaces it with
    #: the reference-speed figure and keeps this one in ``raw_host_s``.
    host_s: float
    #: Jobs (batch) or offered queries (serve) this repetition attempted.
    attempted: int
    #: Jobs that raised (wrong outputs are counted by ``verify``).
    failed: int
    #: Queries a user got an answer for (batch: jobs that finished).
    completed: int
    #: Simulated-clock results: a pure function of the seed.
    sim: Dict[str, float]
    counters: Dict[str, float]
    #: Per-job simulated latency (completed jobs/queries only).
    latencies: List[float]
    outputs: List[np.ndarray] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    raw_host_s: float = 0.0
    #: Reference probe time x mean probe speed over the repetition.
    speed_factor: float = 1.0


def _percentile_ms(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) * 1e3 if values else 0.0


def _conservation(counters: Dict[str, float]) -> List[str]:
    """Every requested page is a cache hit, a fetch, or a shared fetch."""
    requested = counters[reg.IO_PAGES_REQUESTED]
    served = (
        counters[reg.CACHE_HITS]
        + counters[reg.IO_PAGES_FETCHED]
        + counters[reg.SAFS_DEDUP_PAGES]
    )
    if requested != served:
        return [
            f"page conservation: io.pages_requested={requested} != cache.hits"
            f" + io.pages_fetched + safs.dedup_pages = {served}"
        ]
    return []


def _sum_counters(snapshots) -> Dict[str, float]:
    snapshots = list(snapshots)
    return {name: float(sum(s.get(name, 0.0) for s in snapshots)) for name in COUNTERS}


def _root_span(tracer, job_id: int):
    """The tracer's span around one job, or nothing on untraced runs."""
    return nullcontext() if tracer is None else tracer.root(job_id)


def _graph(seed: int, scale: int, fmt: str) -> GraphImage:
    edges, num_vertices = twitter_sim(scale=scale, seed=seed)
    return build_directed(edges, num_vertices, name=f"twitter-s{scale}", fmt=fmt)


# ----------------------------------------------------------------------
# Batch workloads (closed loop, one client)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    label: str
    #: engine -> (output vector, RunResult).  Calls go through the module
    #: attribute so the traced pass sees its wrapper.
    run: Callable
    #: (adjacency, RunResult) -> reference output.
    oracle: Callable
    #: "exact", "close" (float accumulation order) or "pagerank".
    compare: str = "exact"


def _matches(kind: str, got: np.ndarray, want: np.ndarray) -> bool:
    if got.shape != want.shape:
        return False
    if kind == "exact":
        return bool(np.array_equal(got, want))
    if kind == "close":
        return bool(np.allclose(got, want, rtol=1e-9, atol=1e-9))
    distance = np.abs(got - want).sum() / np.abs(want).sum()
    return bool(distance <= PAGERANK_RTOL)


def _sweep_jobs(image: GraphImage, seed: int) -> List[Job]:
    return [
        Job(
            "pr",
            lambda e: pagerank_mod.pagerank(e, max_iterations=30),
            lambda adj, result: oracles.pagerank(adj, result.iterations),
            "pagerank",
        ),
        Job("wcc", lambda e: wcc_mod.wcc(e), lambda adj, result: oracles.wcc_labels(adj)),
    ]


def traversal_sources(image: GraphImage, seed: int, count: int = 4) -> List[int]:
    """``count`` distinct sources drawn from the 32 highest out-degrees."""
    degrees = image.out_csr.degrees()
    top = np.argsort(-degrees, kind="stable")[:32]
    rng = np.random.default_rng([seed, 1])
    return [int(v) for v in rng.choice(top, size=count, replace=False)]


def _traverse_jobs(image: GraphImage, seed: int) -> List[Job]:
    sources = traversal_sources(image, seed)
    jobs = [
        Job(
            f"bfs@{s}",
            lambda e, s=s: bfs_mod.bfs(e, s),
            lambda adj, result, s=s: oracles.bfs_levels(adj, s),
        )
        for s in sources
    ]
    hub = sources[0]
    jobs.append(
        Job(
            f"bc@{hub}",
            lambda e: bc_mod.betweenness_centrality(e, hub),
            lambda adj, result: oracles.brandes_dependencies(adj, hub),
            "close",
        )
    )
    jobs.append(
        Job("scc", lambda e: scc_mod.scc(e), lambda adj, result: oracles.scc_labels(adj))
    )
    return jobs


class BatchInstance:
    """One set-up repetition of a batch workload: graph plus one cold
    engine per job."""

    def __init__(self, image: GraphImage, jobs: List[Job], cache_bytes: int) -> None:
        self.image = image
        self.jobs = jobs
        self.cache_bytes = cache_bytes
        self.engines = [make_engine(image, cache_bytes=cache_bytes) for _ in jobs]
        self.results: list = []

    def run(self, tracer=None) -> Rep:
        host = 0.0
        failed = 0
        outputs: List[np.ndarray] = []
        results = []
        problems: List[str] = []
        for i, (job, engine) in enumerate(zip(self.jobs, self.engines)):
            SAFSFile._next_id = 0
            start = time.perf_counter()
            try:
                with _root_span(tracer, i):
                    values, result = job.run(engine)
            except Exception:  # a failed job is counted, not fatal
                values, result = np.zeros(0), None
                failed += 1
                problems.append(f"{job.label} raised:\n{traceback.format_exc()}")
            host += time.perf_counter() - start
            outputs.append(np.array(values, copy=True))
            results.append(result)
        self.results = results
        done = [r for r in results if r is not None]
        counters = _sum_counters(e.stats.snapshot() for e in self.engines)
        problems += _conservation(counters)
        sim_s = sum(r.runtime for r in done)
        latencies = [r.runtime for r in done]
        in_limit = sum(1 for t in latencies if t <= BATCH_JOB_LIMIT_S)
        arrays = [e.safs.array for e in self.engines]
        busy = sum(a.busy_time() for a in arrays)
        attempted = len(self.jobs)
        sim = {
            "sim_s": sim_s,
            "sim_bytes_read": counters[reg.ARRAY_BYTES_READ],
            "sim_p50_ms": _percentile_ms(latencies, 50),
            "sim_p90_ms": _percentile_ms(latencies, 90),
            "slo_attainment": in_limit / attempted,
            "goodput_qps": len(done) / sim_s if sim_s > 0 else 0.0,
            "sim.device_busy_s": busy,
            "sim.device_util": (
                busy / (sim_s * arrays[0].config.num_ssds) if sim_s > 0 else 0.0
            ),
        }
        return Rep(
            host_s=host,
            attempted=attempted,
            failed=failed,
            completed=len(done),
            sim=sim,
            counters=counters,
            latencies=latencies,
            outputs=outputs,
            problems=problems,
        )

    def verify(self, rep: Rep) -> List[str]:
        """Check every job's output against its independent oracle; one
        problem per wrong job."""
        adj = oracles.adjacency(self.image)
        problems = []
        for job, result, got in zip(self.jobs, self.results, rep.outputs):
            if result is None:
                continue  # already counted as raised
            want = job.oracle(adj, result)
            if not _matches(job.compare, got, want):
                problems.append(f"{job.label}: output differs from the oracle")
        return problems

    def sim_split(self) -> Dict[str, float]:
        """Re-run every job with the program's observer armed and sum
        the simulated compute/queue/service/recovery profile."""
        totals = {"compute_s": 0.0, "queue_s": 0.0, "service_s": 0.0, "recovery_s": 0.0}
        for job in self.jobs:
            SAFSFile._next_id = 0
            engine = make_engine(self.image, cache_bytes=self.cache_bytes)
            observer = arm(engine)
            job.run(engine)
            for key, value in build_profile(observer)["totals"].items():
                totals[key] += value
        return totals


class BatchWorkload:
    """A batch workload; ``graph_seed`` pins the graph instead of drawing
    it from ``--seed``."""

    def __init__(self, fmt: str, scale: int, cache_bytes: int, jobs, graph_seed=None) -> None:
        self.fmt = fmt
        self.scale = scale
        self.cache_bytes = cache_bytes
        self.graph_seed = graph_seed
        self._jobs = jobs

    def setup(self, seed: int) -> BatchInstance:
        graph_seed = seed if self.graph_seed is None else self.graph_seed
        image = _graph(graph_seed, self.scale, self.fmt)
        return BatchInstance(image, self._jobs(image, seed), self.cache_bytes)


# ----------------------------------------------------------------------
# serve-mix (open loop on the simulated clock)
# ----------------------------------------------------------------------

SERVE_SCALE = 10
SERVE_DURATION_S = 0.125
#: The trace is pinned and ``--seed`` draws the graph (and with it the
#: BFS source).  Near the knee, a redrawn 0.125 s trace moves offered
#: load by +-10% and latency/bytes by 15-25% between seeds; a redrawn
#: graph moves them by 2-8%.
SERVE_TRAFFIC_SEED = 1
#: Offered load: near the knee, where queueing and shedding begin.
SERVE_RATE_QPS = 960.0
#: Latency objective of both tenants (simulated seconds).
SERVE_LATENCY_LIMIT_S = 0.01
SERVE_PARTITION_BYTES = 64 << 10

SERVE_TENANTS = (
    TenantSpec(
        name="heavy",
        weight=2.0,
        max_concurrent=3,
        deadline_s=0.05,
        cache_bytes=SERVE_PARTITION_BYTES,
        slo_latency_s=SERVE_LATENCY_LIMIT_S,
        slo_target=0.95,
        slo_availability=0.9,
    ),
    TenantSpec(
        name="light",
        max_concurrent=2,
        deadline_s=0.05,
        cache_bytes=SERVE_PARTITION_BYTES,
        slo_latency_s=SERVE_LATENCY_LIMIT_S,
        slo_target=0.95,
    ),
)

SERVE_TRAFFIC = (
    TenantTraffic(
        tenant="heavy",
        rate_qps=SERVE_RATE_QPS * 2 / 3,
        apps=("pr", "bfs", "wcc"),
        burst_factor=4.0,
        burst_fraction=0.2,
    ),
    TenantTraffic(tenant="light", rate_qps=SERVE_RATE_QPS / 3, apps=("bfs", "wcc")),
)

SERVE_CONFIG = ServiceConfig(
    cache_bytes=CACHE_BYTES,
    policy="fair",
    share_reads=True,
    overload=OverloadConfig(
        tenant_queue_cap=8,
        global_queue_cap=24,
        enforce_deadlines=True,
        brownout=True,
    ),
)


class ServeInstance:
    """One set-up repetition of serve-mix: graph, trace and service."""

    def __init__(self, image: GraphImage, trace, observer=None) -> None:
        self.image = image
        self.trace = trace
        self.service = GraphService(
            image,
            SERVE_TENANTS,
            SERVE_CONFIG,
            timeline=TimelineSampler(),
            observer=observer,
        )
        self.report = None

    def run(self, tracer=None) -> Rep:
        SAFSFile._next_id = 0
        start = time.perf_counter()
        with _root_span(tracer, -1):
            report = self.service.serve(self.trace)
        host = time.perf_counter() - start
        self.report = report
        snapshot = self.service.stats.snapshot()
        counters = _sum_counters([snapshot])
        problems = _conservation(counters)
        if report.completed + report.aborted + report.shed != report.offered:
            problems.append(
                f"query conservation: completed {report.completed} + aborted "
                f"{report.aborted} + shed {report.shed} != offered {report.offered}"
            )
        ok = sorted((r for r in report.records if r.ok), key=lambda r: r.index)
        latencies = [r.latency for r in ok]
        in_limit = sum(1 for t in latencies if t <= SERVE_LATENCY_LIMIT_S)
        duration = report.duration_s
        array = self.service.safs.array
        busy = array.busy_time()
        waits = [r.queue_wait for r in report.records]
        admitted = report.completed + report.aborted
        sim = {
            "sim_s": duration,
            "sim_bytes_read": counters[reg.ARRAY_BYTES_READ],
            "sim_p50_ms": _percentile_ms(latencies, 50),
            "sim_p90_ms": _percentile_ms(latencies, 90),
            "slo_attainment": in_limit / report.offered,
            "goodput_qps": len(ok) / duration if duration > 0 else 0.0,
            "sim.device_busy_s": busy,
            "sim.device_util": (
                busy / (duration * array.config.num_ssds) if duration > 0 else 0.0
            ),
            "serve.queue_wait_p50_ms": _percentile_ms(waits, 50),
            "serve.queue_wait_p90_ms": _percentile_ms(waits, 90),
            "serve.shed_total": float(report.shed),
            "serve.quota_waits": float(report.quota_waits),
            "serve.useful_frac": report.completed / admitted if admitted else 0.0,
        }
        return Rep(
            host_s=host,
            attempted=report.offered,
            failed=0,
            completed=report.completed,
            sim=sim,
            counters=counters,
            latencies=latencies,
            outputs=[np.array(r.values, copy=True) for r in ok],
            problems=problems,
        )

    def verify(self, rep: Rep) -> List[str]:
        """Every completed, full-fidelity query must match a batch run of
        the same app, and each batch answer its oracle; one problem per
        wrong query or batch reference."""
        references, problems = self._references()
        ok = sorted((r for r in self.report.records if r.ok), key=lambda r: r.index)
        for record, got in zip(ok, rep.outputs):
            if record.degraded:
                continue
            kind, want = references[record.app]
            if not _matches(kind, got, want):
                problems.append(
                    f"query {record.index} ({record.app}) differs from its batch run"
                )
        return problems

    def _references(self) -> Tuple[Dict[str, Tuple[str, np.ndarray]], List[str]]:
        """Per app: a batch run of the query the service builds, checked
        against the app's oracle."""
        adj = oracles.adjacency(self.image)
        queries = self.service.queries
        references = {}
        problems = []
        for app in sorted({a.app for a in self.trace}):
            query = queries.build(app)
            SAFSFile._next_id = 0
            engine = make_engine(self.image, cache_bytes=CACHE_BYTES)
            result = engine.run(
                query.program,
                initial_active=query.initial_active,
                max_iterations=query.max_iterations,
            )
            values = np.array(query.values(), copy=True)
            if app == "bfs":
                want, kind = oracles.bfs_levels(adj, queries.source), "exact"
            elif app == "wcc":
                want, kind = oracles.wcc_labels(adj), "exact"
            else:
                want, kind = oracles.pagerank(adj, result.iterations), "pagerank"
            if not _matches(kind, values, want):
                problems.append(f"batch {app} run differs from its oracle")
            references[app] = ("exact" if kind == "exact" else "close", values)
        return references, problems

    def sim_split(self) -> Dict[str, float]:
        observer = Observer()
        armed = ServeInstance(self.image, self.trace, observer=observer)
        armed.run()
        return dict(build_profile(observer)["totals"])


class ServeWorkload:
    def setup(self, seed: int) -> ServeInstance:
        image = _graph(seed, SERVE_SCALE, "v1")
        trace = generate_trace(
            list(SERVE_TRAFFIC), SERVE_DURATION_S, seed=SERVE_TRAFFIC_SEED
        )
        return ServeInstance(image, trace)


#: traverse-v2 pins its graph (the generator seed of the repository's
#: ``twitter-sim`` dataset) and draws only the traversal sources from
#: ``--seed``: at scale 13, SCC's coloring needs 11 to 23 iterations
#: depending on the graph seed (simulated 0.018-0.057 s).  Scale 12 with
#: the cache halved to match keeps the near-fit hit rate (~58%) at a
#: third of the host time, so a run fits three times the repetitions.
TRAVERSE_GRAPH_SEED = 1
TRAVERSE_SCALE = 12

WORKLOADS = {
    "sweep-v1": BatchWorkload("v1", 13, CACHE_BYTES, _sweep_jobs),
    "traverse-v2": BatchWorkload(
        "v2",
        TRAVERSE_SCALE,
        scaled_cache_bytes(0.5),
        _traverse_jobs,
        TRAVERSE_GRAPH_SEED,
    ),
    "serve-mix": ServeWorkload(),
}
