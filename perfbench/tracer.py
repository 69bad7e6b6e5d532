"""In-memory span tracer that wraps each layer's entry points from outside.

The traced pass of the benchmark installs wrappers around the public
entry points of every layer (engine, programs, messages, decode, merge,
safs, cache, device, serve, obs).  Nothing under ``src/`` changes: each
wrapper is patched in where its callers look the name up — a class
attribute for methods, and every ``repro.*`` module namespace that
imported a function by name (``repro.core.engine`` imports
``decode_lists_v2`` this way, ``repro.graph.page_vertex`` the v1/v2 list
parsers).  :meth:`Tracer.uninstall` puts the original objects back and
checks that it did, so untraced passes run unpatched code.

Spans live in flat arrays (name, start, end, parent, job) until the pass
ends; :meth:`Tracer.self_times` turns them into per-layer self time, a span's
duration minus the time its child spans cover.
"""

import functools
import inspect
import itertools
import sys
import time
import weakref
from array import array
from contextlib import contextmanager
from importlib import import_module
from typing import Dict, List, Tuple

import numpy as np

#: Layer -> entry points, as ``module:Qualified.name``.  Every span the
#: traced pass records belongs to exactly one layer; time outside all of
#: them (the benchmark's own loop) is the root span's self time, reported
#: as ``trace.residual_s``.
LAYER_ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "engine": (
        "repro.core.engine:GraphEngine.run",
        "repro.core.engine:GraphEngine.start_job",
        "repro.core.engine:EngineJob.step",
        "repro.core.scheduler:VertexScheduler.schedule",
    ),
    "programs": (
        "repro.algorithms.bfs:bfs",
        "repro.algorithms.bc:betweenness_centrality",
        "repro.algorithms.scc:scc",
        "repro.algorithms.pagerank:pagerank",
        "repro.algorithms.wcc:wcc",
        # VertexProgram hooks are added per subclass by _program_hooks().
    ),
    "messages": (
        "repro.core.messages:MessageBuffer.deliver",
    ),
    "decode": (
        "repro.graph.format:parse_edge_list",
        "repro.graph.format:parse_edge_list_v2",
        "repro.graph.format:decode_lists_v2",
    ),
    "merge": (
        "repro.safs.io_request:merge_requests",
        "repro.safs.io_request:merge_request_arrays",
    ),
    "safs": (
        "repro.safs.filesystem:SAFS.open_file",
        "repro.safs.filesystem:SAFS.submit",
        "repro.safs.filesystem:SAFS.submit_merged",
        "repro.safs.filesystem:SAFS.submit_spans",
        "repro.safs.io_scheduler:IOScheduler.dispatch",
        "repro.safs.io_scheduler:IOScheduler.dispatch_span",
    ),
    "cache": (
        "repro.safs.page_cache:PageCache.lookup",
        "repro.safs.page_cache:PageCache.lookup_range",
        "repro.safs.page_cache:PageCache.page",
        "repro.safs.page_cache:PageCache.contains",
        "repro.safs.page_cache:PageCache.insert",
        "repro.safs.page_cache:PageCache.insert_range",
    ),
    "device": (
        "repro.sim.ssd_array:SSDArray.submit",
        "repro.sim.ssd_array:SSDArray.submit_run",
        "repro.sim.ssd:SSD.submit",
        "repro.sim.ssd:SSD.submit_request",
    ),
    "serve": (
        "repro.serve.service:GraphService.serve",
        "repro.serve.queries:QueryFactory.build",
        "repro.serve.admission:AdmissionController.can_admit",
        "repro.serve.admission:AdmissionController.admit",
        "repro.serve.admission:AdmissionController.release",
        "repro.serve.overload:OverloadController.sample_due",
        "repro.serve.overload:OverloadController.record_shed",
        "repro.serve.overload:OverloadController.degrades",
    ),
    "obs": (
        "repro.obs.timeline:TimelineSampler.note_time",
        "repro.obs.timeline:TimelineSampler.note_completion",
        "repro.obs.timeline:TimelineSampler.finish",
        "repro.obs.slo:SLOTracker.record",
        "repro.obs.slo:SLOTracker.finish",
    ),
}

#: VertexProgram hooks the engine calls; wrapped on every subclass that
#: defines them (``run_batch = None`` style opt-outs are left alone).
PROGRAM_HOOKS = (
    "run",
    "run_batch",
    "run_on_vertex",
    "run_on_vertices",
    "run_on_message",
    "run_on_messages",
    "run_on_iteration_end",
)

#: Name of the benchmark's own span around each job.
ROOT_SPAN = "bench.job"
ROOT_LAYER = "bench"


def _program_hooks() -> List[Tuple[type, str]]:
    """(class, hook) pairs for every loaded VertexProgram subclass."""
    from repro.core.vertex_program import VertexProgram

    pairs = []
    seen = set()
    pending = [VertexProgram]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        for hook in PROGRAM_HOOKS:
            if inspect.isfunction(cls.__dict__.get(hook)):
                pairs.append((cls, hook))
    return pairs


class Tracer:
    """One traced pass: install, record, uninstall, summarise."""

    def __init__(self, per_engine_job: bool = False, clock=time.perf_counter) -> None:
        #: Span clock; the benchmark passes one that leaves out the speed
        #: probe's time (``speed.SpeedMeter.clock``).
        self.clock = clock
        #: When set, spans inside an ``EngineJob.step`` take the engine
        #: job's ordinal as their job id (the serving workload runs many
        #: engine jobs inside one benchmark job).
        self.per_engine_job = per_engine_job
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self._stack = [-1]
        self.job_id = -1
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    def _wrap(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)
        clock = self.clock
        names, starts, ends = self.name, self.start, self.end
        parents, jobs, stack = self.parent, self.job, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(self.job_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def _wrap_step(self, fn, name: str, layer: str):
        """``EngineJob.step`` wrapper that tags spans with the job ordinal."""
        inner = self._wrap(fn, name, layer)
        ordinals = weakref.WeakKeyDictionary()
        counter = itertools.count()

        @functools.wraps(fn)
        def step(job, *args, **kwargs):
            ordinal = ordinals.get(job)
            if ordinal is None:
                ordinal = ordinals[job] = next(counter)
            saved = self.job_id
            self.job_id = ordinal
            try:
                return inner(job, *args, **kwargs)
            finally:
                self.job_id = saved

        return step

    @contextmanager
    def root(self, job_id: int):
        """The benchmark's own span around one job (the root span)."""
        self.job_id = job_id
        i = len(self.start)
        self.name.append(self._name_id(ROOT_SPAN, ROOT_LAYER))
        self.parent.append(-1)
        self.job.append(job_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        try:
            yield
        finally:
            self.end[i] = self.clock()
            self._stack.pop()
            self.job_id = -1

    # -- patching -------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point of :data:`LAYER_ENTRY_POINTS`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, targets in LAYER_ENTRY_POINTS.items():
            for target in targets:
                module_name, qualname = target.split(":")
                module = import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    if qualname == "EngineJob.step" and self.per_engine_job:
                        wrapped = self._wrap_step(original, qualname, layer)
                    else:
                        wrapped = self._wrap(original, qualname, layer)
                    self._patch(cls, attr, wrapped)
                else:
                    original = getattr(module, qualname)
                    wrapped = self._wrap(original, qualname, layer)
                    # Patch every namespace that imported the function by
                    # name, since that is where its callers look it up.
                    for mod_name, mod in list(sys.modules.items()):
                        if (
                            mod_name.split(".")[0] == "repro"
                            and getattr(mod, qualname, None) is original
                        ):
                            self._patch(mod, qualname, wrapped)
        for cls, hook in _program_hooks():
            name = f"{cls.__name__}.{hook}"
            self._patch(cls, hook, self._wrap(cls.__dict__[hook], name, "programs"))

    def uninstall(self) -> None:
        """Restore every patched name and verify the originals are back."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        for owner, attr, original in patches:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"failed to restore {owner!r}.{attr}")

    # -- summaries ------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        """The recorded spans as numpy arrays (one row per span)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "job": np.frombuffer(self.job, dtype=np.int64).copy(),
        }

    def self_times(self) -> Tuple[Dict[str, dict], Dict[str, dict]]:
        """``({layer: {"self_s", "calls"}}, {span name: same})``.

        Self time is a span's duration minus the durations of its direct
        children.  Calls nest strictly on one thread, so children never
        overlap and the self times of all spans sum to the root spans'
        total duration; the root layer's self time is the time spent in
        no layer at all.
        """
        spans = self.arrays()
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_t = dur - child
        name_self = np.bincount(
            spans["name"], weights=self_t, minlength=len(self.names)
        )
        name_calls = np.bincount(spans["name"], minlength=len(self.names))
        layers: Dict[str, dict] = {}
        by_name: Dict[str, dict] = {}
        for nid, name in enumerate(self.names):
            row = {"self_s": float(name_self[nid]), "calls": int(name_calls[nid])}
            by_name[name] = row
            total = layers.setdefault(self.layer_of[nid], {"self_s": 0.0, "calls": 0})
            total["self_s"] += row["self_s"]
            total["calls"] += row["calls"]
        return layers, by_name

    def root_seconds(self) -> float:
        """Total duration of the root spans: the traced host time."""
        spans = self.arrays()
        roots = spans["parent"] < 0
        return float((spans["end"][roots] - spans["start"][roots]).sum())

    def save(self, path) -> None:
        """Write the spans (and the name/layer tables) as ``.npz``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(self.layer_of),
            **self.arrays(),
        )
