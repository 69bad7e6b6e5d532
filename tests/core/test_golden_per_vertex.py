"""Golden results for the per-vertex applications under every merge discipline.

The engine serves every wave through one array routine (locate, array
merge, span submission, one decode per file lane), whatever the merge
discipline and whether the program takes lists one at a time
(``run_on_vertex``) or a wave at a time (``run_on_vertices``).  This test
pins the applications that take lists one at a time — attribute pairing
(SSSP, weighted PageRank, weighted Louvain), requests for *other*
vertices' lists with vertical parts (triangle counting, scan statistics)
— plus batched BFS and WCC under filesystem-level and no merging, on a
small seeded graph.  Every simulated number must match the fixture
exactly: runtime, CPU-busy time, iterations, bytes read, the full
counter dict, and a digest of the application's output.

The fixture was recorded before the single service routine existed, so
it holds the behaviour of the object-based request path it replaced.

Regenerate (only when the simulation itself legitimately changes)::

    PYTHONPATH=src python tests/core/test_golden_per_vertex.py --regen
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.louvain import LouvainMoveProgram
from repro.algorithms.scan_statistics import scan_statistics
from repro.algorithms.sssp import sssp
from repro.algorithms.triangle_count import triangle_count
from repro.algorithms.wcc import wcc
from repro.algorithms.weighted_pagerank import weighted_pagerank
from repro.bench.harness import make_engine
from repro.core.config import ExecutionMode
from repro.graph.builder import build_directed, build_undirected
from repro.graph.format import FORMAT_V1, FORMAT_V2
from repro.graph.generators import rmat_graph
from repro.safs.page import SAFSFile
from repro.sim.faults import FaultPlan, FaultPolicy, TransientErrors
from repro.sim.ssd_array import SSDArrayConfig

FIXTURE = Path(__file__).resolve().parent / "golden_per_vertex.json"

SCALE = 9

APPS = ("sssp", "wpr", "tc", "ss", "louvain", "bfs", "wcc")

#: name -> (format, engine overrides, with transient faults)
CONFIGS = {
    "engine-merge@v1": (FORMAT_V1, {}, False),
    "safs-merge@v1": (FORMAT_V1, {"merge_in_engine": False}, False),
    "no-merge@v1": (
        FORMAT_V1, {"merge_in_engine": False, "merge_in_fs": False}, False
    ),
    "engine-merge@v2": (FORMAT_V2, {}, False),
    "safs-merge@v2": (FORMAT_V2, {"merge_in_engine": False}, False),
    "no-merge@v2": (
        FORMAT_V2, {"merge_in_engine": False, "merge_in_fs": False}, False
    ),
    "in-memory": (FORMAT_V1, {"mode": ExecutionMode.IN_MEMORY}, False),
    "faults@v1": (FORMAT_V1, {"merge_in_engine": False}, True),
}

#: BFS and WCC are batched programs; engine merging is covered by
#: ``test_golden_results.py``, so they are pinned on the other paths only.
_BATCHED = {"bfs", "wcc"}

CASES = [
    (app, config)
    for app in APPS
    for config in CONFIGS
    if not (app in _BATCHED and CONFIGS[config][1].get("merge_in_engine", True))
]


def _images(fmt):
    edges, n = rmat_graph(SCALE, edge_factor=6, seed=11)
    weights = np.random.default_rng(5).uniform(0.5, 4.0, len(edges)).astype(
        np.float32
    )
    directed = build_directed(edges, n, name="pv", weights=weights, fmt=fmt)
    undirected = build_undirected(
        edges, n, name="pv-u", weights=weights, fmt=fmt
    )
    return directed, undirected


_IMAGE_CACHE = {}


def _image(fmt, undirected):
    if fmt not in _IMAGE_CACHE:
        _IMAGE_CACHE[fmt] = _images(fmt)
    return _IMAGE_CACHE[fmt][1 if undirected else 0]


def _engine(image, config):
    fmt, overrides, faulty = CONFIGS[config]
    SAFSFile._next_id = 0
    kwargs = dict(
        cache_bytes=8 * 1024,
        num_threads=4,
        range_shift=4,
        max_running_vertices=64,
        vertical_part_threshold=12,
        vertical_part_size=5,
    )
    kwargs.update(overrides)
    if faulty:
        kwargs["fault_plan"] = FaultPlan(
            [
                TransientErrors(device=d, start=0.0, end=10.0, probability=0.2)
                for d in range(SSDArrayConfig().num_ssds)
            ],
            seed=3,
        )
        kwargs["fault_policy"] = FaultPolicy(max_retries=12, retry_backoff=200e-6)
    return make_engine(image, **kwargs)


def _run_case(app, config):
    """One run; returns ``(RunResult, output arrays)``."""
    fmt = CONFIGS[config][0]
    undirected = app in ("tc", "louvain")
    image = _image(fmt, undirected)
    engine = _engine(image, config)
    source = int(np.argmax(image.out_csr.degrees()))
    if app == "sssp":
        dist, result = sssp(engine, source)
        return result, [dist]
    if app == "wpr":
        ranks, result = weighted_pagerank(engine, max_iterations=8)
        return result, [ranks]
    if app == "tc":
        triangles, result = triangle_count(engine)
        return result, [triangles]
    if app == "ss":
        max_scan, argmax, result = scan_statistics(engine)
        return result, [np.asarray([max_scan, argmax])]
    if app == "louvain":
        program = LouvainMoveProgram(image, max_sweeps=3)
        result = engine.run(program, max_iterations=3)
        return result, [program.community, program.sigma_tot]
    if app == "bfs":
        levels, result = bfs(engine, source)
        return result, [levels]
    components, result = wcc(engine)
    return result, [components]


def _digest(arrays):
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(str(array.dtype).encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def _record(app, config):
    result, outputs = _run_case(app, config)
    return {
        "runtime": result.runtime,
        "cpu_busy": result.cpu_busy,
        "iterations": result.iterations,
        "bytes_read": result.bytes_read,
        "counters": result.counters,
        "output_sha256": _digest(outputs),
    }


def compute_golden() -> dict:
    return {f"{app}/{config}": _record(app, config) for app, config in CASES}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("app,config", CASES)
def test_golden_per_vertex(golden, app, config):
    expected = golden[f"{app}/{config}"]
    actual = _record(app, config)
    assert actual["runtime"] == expected["runtime"]
    assert actual["cpu_busy"] == expected["cpu_busy"]
    assert actual["iterations"] == expected["iterations"]
    assert actual["bytes_read"] == expected["bytes_read"]
    assert actual["counters"] == expected["counters"]
    assert actual["output_sha256"] == expected["output_sha256"]


def test_fault_rows_exercise_recovery(golden):
    """The transient-fault rows must really retry, or they pin nothing
    the clean rows do not."""
    for app, config in CASES:
        if CONFIGS[config][2]:
            assert golden[f"{app}/{config}"]["counters"].get("faults.retries", 0) > 0


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/core/test_golden_per_vertex.py --regen")
    FIXTURE.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
