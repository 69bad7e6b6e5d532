#!/usr/bin/env python3
"""The repository benchmark: three seeded workloads on both clocks.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-v1 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload traverse-v2 --seed 1 --seconds 35 --trace 1

``--trace 0`` repeats the workload (set-up, then every job on a cold
cache) until ``--seconds`` have passed, at least three times, and
reports the end-to-end metrics: host-clock figures are medians over the
repetitions, each put at reference machine speed by the probe in
``speed.py``; simulated-clock figures come from the first repetition and
must repeat bit-identically in every other one.  ``--trace 1`` alternates
untraced and traced repetitions (the traced ones wrap every layer's
entry points, see ``tracer.py``), adds one pass with the program's own
observer armed for the simulated compute/queue/service/recovery split,
and reports the per-layer metrics of the median traced repetition.

Every output is checked (``oracles.py``, conservation laws, determinism).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any
check failed.  Metric names, units and directions live in
``BENCHMARK.json`` at the repository root.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seed used when none is given, and the seed held back for confirming
#: claims made while tuning on the default one.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2015

#: Repetitions measured however long they take.
MIN_REPS = 3
#: Probes run back to back before and after each set-up, and after each
#: repetition's jobs (during them, the engine-step hook probes).
SETUP_PROBES = 3
RUN_PROBES = 3
#: Probes right after the imports, the first of them discarded (it pays
#: the probe's own first-call costs).
IMPORT_PROBES = 6
#: Stop starting repetitions once this much time has gone, whatever
#: ``--seconds`` says, so one run stays well inside three minutes.
HARD_STOP_S = 120.0


#: Layer -> the per-layer metric holding its self time.
LAYER_SELF_TIME = {
    "engine": "engine.self_s",
    "programs": "programs.s",
    "messages": "messages.deliver_s",
    "decode": "decode.s",
    "merge": "merge.s",
    "safs": "safs.s",
    "cache": "cache.s",
    "device": "device.s",
    "serve": "serve.self_s",
    "obs": "obs.s",
}


def _keep_going(started: float, reps: int, seconds: float, minimum: int) -> bool:
    """Whether another repetition fits in the measuring window."""
    elapsed = time.perf_counter() - started
    projected = elapsed * (reps + 1) / reps
    if elapsed > HARD_STOP_S:
        return False
    return reps < minimum or projected <= seconds


def _identical(first, other, what: str):
    """Simulated results and outputs must repeat bit for bit."""
    import numpy as np

    problems = []
    if other.sim != first.sim:
        diff = sorted(k for k in first.sim if first.sim[k] != other.sim.get(k))
        problems.append(f"{what}: simulated metrics differ from the first run: {diff}")
    if other.counters != first.counters:
        problems.append(f"{what}: counters differ from the first run")
    if len(other.outputs) != len(first.outputs) or not all(
        np.array_equal(a, b, equal_nan=True)
        for a, b in zip(first.outputs, other.outputs)
    ):
        problems.append(f"{what}: outputs differ from the first run")
    return problems


def _end_to_end(reps, setups, import_s, wrong, peak_rss_mib):
    first = reps[0]
    verified = first.completed - wrong
    sim = first.sim
    edges = max(first.counters["engine.edges_delivered"], 1.0)
    return {
        "setup_s": import_s + statistics.median(setups),
        "host_s": statistics.median(r.host_s for r in reps),
        "host_s_per_query": statistics.median(r.host_s / max(r.completed, 1) for r in reps),
        "host_ns_per_edge": statistics.median(r.host_s / edges * 1e9 for r in reps),
        "peak_rss_mib": peak_rss_mib,
        "sim_s": sim["sim_s"],
        "sim_bytes_read": sim["sim_bytes_read"],
        "sim_p50_ms": sim["sim_p50_ms"],
        "sim_p90_ms": sim["sim_p90_ms"],
        "slo_attainment": sim["slo_attainment"],
        "goodput_qps": sim["goodput_qps"],
        "ok_frac": verified / first.attempted,
    }


def _per_layer(rep, tracer, untraced_host_s, split):
    """Per-layer metrics of one traced repetition; span seconds are put at
    reference speed with the repetition's own probes, like ``host_s``."""
    layers, by_name = tracer.self_times()

    def layer(name, key):
        value = layers.get(name, {"self_s": 0.0, "calls": 0})[key]
        return value * rep.speed_factor if key == "self_s" else value

    c = rep.counters
    sim = rep.sim
    unknown = set(layers) - set(LAYER_SELF_TIME) - {"bench"}
    if unknown:
        raise RuntimeError(f"spans in unreported layers: {sorted(unknown)}")
    traced_host_s = tracer.root_seconds() * rep.speed_factor
    issued = c["io.requests_issued"]
    lookups = c["cache.hits"] + c["cache.misses"]
    return {
        "engine.self_s": layer("engine", "self_s"),
        "engine.steps": by_name.get("EngineJob.step", {"calls": 0})["calls"],
        "engine.edges_delivered": c["engine.edges_delivered"],
        "engine.io_requests": c["engine.io_requests"],
        "programs.s": layer("programs", "self_s"),
        "programs.calls": layer("programs", "calls"),
        "messages.deliver_s": layer("messages", "self_s"),
        "messages.deliver_calls": layer("messages", "calls"),
        "msg.sent": c["msg.sent"],
        "msg.delivered": c["msg.delivered"],
        "decode.s": layer("decode", "self_s"),
        "decode.calls": layer("decode", "calls"),
        "graph.decode_bytes": c["graph.decode_bytes"],
        "merge.s": layer("merge", "self_s"),
        "merge.calls": layer("merge", "calls"),
        "merge.ratio": c["engine.io_requests"] / issued if issued else 0.0,
        "safs.s": layer("safs", "self_s"),
        "safs.calls": layer("safs", "calls"),
        "io.pages_requested": c["io.pages_requested"],
        "io.pages_fetched": c["io.pages_fetched"],
        "safs.dedup_pages": c["safs.dedup_pages"],
        "cache.s": layer("cache", "self_s"),
        "cache.calls": layer("cache", "calls"),
        "cache.hit_rate": c["cache.hits"] / lookups if lookups else 0.0,
        "cache.evictions": c["cache.evictions"],
        "device.s": layer("device", "self_s"),
        "device.calls": layer("device", "calls"),
        "array.requests": c["array.requests"],
        "sim.device_busy_s": sim["sim.device_busy_s"],
        "sim.device_util": sim["sim.device_util"],
        "sim.compute_s": split["compute_s"],
        "sim.queue_s": split["queue_s"],
        "sim.service_s": split["service_s"],
        "sim.recovery_s": split["recovery_s"],
        "serve.self_s": layer("serve", "self_s"),
        "serve.queue_wait_p50_ms": sim.get("serve.queue_wait_p50_ms", 0.0),
        "serve.queue_wait_p90_ms": sim.get("serve.queue_wait_p90_ms", 0.0),
        "serve.shed_total": sim.get("serve.shed_total", 0.0),
        "serve.quota_waits": sim.get("serve.quota_waits", 0.0),
        "serve.useful_frac": sim.get("serve.useful_frac", 0.0),
        "obs.s": layer("obs", "self_s"),
        "obs.calls": layer("obs", "calls"),
        "trace.overhead_frac": traced_host_s / untraced_host_s - 1.0,
        "trace.residual_s": layer("bench", "self_s"),
        "trace.host_s": traced_host_s,
        "trace.untraced_host_s": untraced_host_s,
        "trace.spans": sum(v["calls"] for v in layers.values()),
    }


def _seed(text: str) -> int:
    """numpy generators take only non-negative seeds."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return seed


class _Run:
    """Everything one invocation measured."""

    def __init__(self) -> None:
        self.problems = []
        self.setups = []
        self.reps = []
        self.traced = []
        self.wrong = []
        self.peak_rss_mib = 0.0


@contextmanager
def _step_hook(meter):
    """Let the speed meter probe between engine steps.

    This one wrapper is the only name the untraced repetitions patch; the
    probe's own time is taken out of every host time and span.
    """
    from repro.core.engine import EngineJob

    original = EngineJob.__dict__["step"]

    def step(job):
        meter.tick()
        return original(job)

    EngineJob.step = step
    try:
        yield
    finally:
        EngineJob.step = original


def _measure(
    workload, seed: int, seconds: float, traced: bool, tracer_factory, meter
) -> _Run:
    """Repeat set-up + run until the window closes; check every run.

    Host times (set-up and jobs) are converted to reference speed with the
    probes made during and around them (``speed.py``).
    """
    import speed

    run = _Run()

    def prepare():
        meter.burst(SETUP_PROBES)
        meter.take()
        t0 = time.perf_counter()
        instance = workload.setup(seed)
        took = time.perf_counter() - t0
        meter.burst(SETUP_PROBES)
        run.setups.append(meter.at_reference(took))
        return instance

    def measured(instance, tracer=None):
        rep = instance.run(tracer)
        meter.burst(RUN_PROBES)
        spent, mean_speed = meter.take()
        rep.raw_host_s = rep.host_s
        rep.speed_factor = speed.REFERENCE_PROBE_S * mean_speed
        rep.host_s = (rep.raw_host_s - spent) * rep.speed_factor
        return rep

    started = time.perf_counter()
    with _step_hook(meter):
        while True:
            instance = None  # free the previous repetition before the next set-up
            instance = prepare()
            rep = measured(instance)
            if run.reps:
                run.problems += _identical(run.reps[0], rep, f"repetition {len(run.reps) + 1}")
            else:
                # Peak RSS of imports, one set-up and one repetition: later
                # repetitions only add allocator noise.
                run.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                run.wrong = instance.verify(rep)
                run.problems += run.wrong
            run.problems += rep.problems
            run.reps.append(rep)
            if traced:
                instance = None
                instance = prepare()
                tracer = tracer_factory(meter.clock)
                tracer.install()
                try:
                    rep = measured(instance, tracer)
                finally:
                    tracer.uninstall()
                what = f"traced repetition {len(run.traced) + 1}"
                run.problems += _identical(run.reps[0], rep, what) + rep.problems
                run.traced.append((rep, tracer))
            minimum = 1 if traced else MIN_REPS
            if not _keep_going(started, len(run.reps), seconds, minimum):
                return run


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import workloads
        from tracer import Tracer
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started
    from speed import REFERENCE_PROBE_S, SpeedMeter, probe_speed

    probe_speed(1)
    import_s *= REFERENCE_PROBE_S * probe_speed(IMPORT_PROBES - 1)
    meter = SpeedMeter()

    workload = workloads.WORKLOADS[args.workload]
    per_engine_job = args.workload == "serve-mix"
    run = _measure(
        workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        lambda clock: Tracer(per_engine_job=per_engine_job, clock=clock),
        meter,
    )
    reps, problems = run.reps, run.problems
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps) + len(run.wrong) * len(reps)
    if args.trace:
        split = workload.setup(args.seed).sim_split()
        run.traced.sort(key=lambda pair: pair[0].host_s)
        rep, tracer = run.traced[(len(run.traced) - 1) // 2]
        untraced_host_s = statistics.median(r.host_s for r in reps)
        metrics = _per_layer(rep, tracer, untraced_host_s, split)
        layer_sum = sum(metrics[name] for name in LAYER_SELF_TIME.values())
        layer_sum += metrics["trace.residual_s"]
        if abs(layer_sum - metrics["trace.host_s"]) > 1e-9 * metrics["trace.host_s"]:
            problems.append(
                f"layer self times + residual = {layer_sum!r} != traced host_s "
                f"{metrics['trace.host_s']!r}"
            )
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
        expected = spec["per_layer"]
        label = "per-layer (median traced repetition)"
    else:
        metrics = _end_to_end(
            reps, run.setups, import_s, len(run.wrong), run.peak_rss_mib
        )
        expected = spec["end_to_end"]
        label = "end-to-end"

    units = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metric set drifted from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    metrics = {name: float(metrics[name]) for name in units}
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} {label}: {len(reps)} repetitions, "
          f"host_s per repetition {[round(r.host_s, 3) for r in reps]} "
          f"(as measured {[round(r.raw_host_s, 3) for r in reps]}, speed factor "
          f"{[round(r.speed_factor, 3) for r in reps]}), "
          f"{len(reps[0].latencies)} latency samples per repetition")
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]!r:>24} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
