"""Machine-speed probe: puts host times on a steady scale.

The benchmark's host shares its cores with other machines' work, and the
speed it gives one Python thread drifts by +-25% over seconds to minutes,
in CPU time as much as in wall time.  A fixed probe, made only of the
benchmark's own code, runs between the program's engine steps (every
``INTERVAL_S`` of program time), before and after each set-up and after
each repetition; its time is taken out of the measured host time.  A host time is then
reported at reference speed::

    reported = measured * REFERENCE_PROBE_S * mean probe speed around it

so a run made while the machine is slow reads the same as one made while
it is fast, and a change to the program (which the probe does not call)
still shows in full.  The probe mixes what the program spends its time
on: a per-item Python loop over objects and dicts, numpy calls on
arrays of a few thousand elements (sort, bincount, searchsorted,
segmented reductions), many numpy calls on arrays of a few dozen, and a
spread of other interpreter paths.  The mix was chosen by how well the
program's host time follows the probe's: across repetitions on a
drifting host, log host time against log probe time has a slope of 0.96
on sweep-v1 and 1.34 on traverse-v2 (1 would be an exact match).
"""

import heapq
import json
import re
import time

import numpy as np

#: Probe time of one call at reference speed (seconds), fixed once so
#: reported host times keep their scale between runs and machines.
REFERENCE_PROBE_S = 8.0e-3
#: Least program time between two probes on the engine-step hook.
INTERVAL_S = 0.05

_N = 4096
_rng = np.random.default_rng(20150222)
_dst = _rng.integers(0, _N, 4 * _N)
_ptr = np.sort(_rng.integers(0, 4 * _N, _N + 1))
_ptr[0], _ptr[-1] = 0, 4 * _N
_vals = _rng.random(_N)


class _Item:
    __slots__ = ("id", "level")

    def __init__(self, i: int) -> None:
        self.id = i
        self.level = -1


_items = [_Item(i) for i in range(1200)]


def _python_part() -> None:
    counts = {}
    out = []
    for item in _items:
        if item.level < 0:
            key = item.id & 63
            counts[key] = counts.get(key, 0) + 1
            out.append((item.id, key))
    out.sort(key=lambda pair: pair[1])


def _numpy_part() -> None:
    order = np.argsort(_dst, kind="stable")
    sums = np.bincount(_dst, weights=np.repeat(_vals, np.diff(_ptr)), minlength=_N)
    keys = np.unique(_dst[:_N])
    pos = np.searchsorted(keys, _dst[_N : 2 * _N])
    ordered = _dst[order]
    starts = np.r_[0, np.flatnonzero(np.diff(ordered)) + 1]
    mins = np.minimum.reduceat(ordered, starts)
    np.concatenate([sums[:64], mins[:64], pos[:64]])


_small = [np.sort(_rng.integers(0, 1000, int(k))) for k in _rng.integers(4, 40, 32)]


def _small_numpy_part() -> None:
    """Many numpy calls on arrays of a few dozen elements, where the call
    overhead is the cost (the engine's per-vertex path)."""
    total = 0
    for a in _small:
        for b in _small[:4]:
            i = int(np.searchsorted(a, b[0]))
            total += int(a[:i].sum()) if i else 0
            c = np.concatenate((a, b))
            np.unique(c)
            np.minimum(c, 500, out=c)


_doc = {f"k{i}": [i, str(i), {"x": i * 1.5}] for i in range(40)}
_text = " ".join(f"w{i}={i * 7}" for i in range(200))


class _Base:
    def __init__(self, v: int) -> None:
        self.v = v

    @property
    def double(self) -> int:
        return self.v * 2

    def plus(self, x: int) -> int:
        return self.v + x


class _Sub(_Base):
    def plus(self, x: int) -> int:
        return super().plus(x) * 2


def _broad_python_part() -> None:
    """A spread of interpreter paths (serialisation, regex, heaps, method
    dispatch, sets), for the program's large code footprint."""
    for _ in range(5):
        json.loads(json.dumps(_doc))
        re.findall(r"w(\d+)=(\d+)", _text)
        heap = []
        for i in range(200):
            heapq.heappush(heap, (i * 7919) % 211)
        objs = [_Sub(i) if i & 1 else _Base(i) for i in range(200)]
        sorted(objs, key=lambda o: o.double)
        sum(o.plus(3) for o in objs)
        {o.v for o in objs} & set(range(50))


def probe() -> float:
    """Run the probe once; its duration in seconds."""
    start = time.perf_counter()
    _python_part()
    _numpy_part()
    _small_numpy_part()
    _broad_python_part()
    return time.perf_counter() - start


def probe_speed(count: int) -> float:
    """Mean speed (1 / probe seconds) of ``count`` probes in a row."""
    return sum(1.0 / probe() for _ in range(count)) / count


class SpeedMeter:
    """Probes the machine while the program runs and keeps the probe's
    own time out of the measurement.

    Probe points are ticks (``tick``, called at every engine step, probes
    once ``INTERVAL_S`` have passed since the last point) and bursts of a
    few probes in a row around set-up and after each repetition.  The
    program time between two points ran at the mean of their speeds
    (1 / probe seconds); ``take`` closes an interval and returns the
    program-time-weighted mean speed over it.  Weighting by time, and
    averaging speeds rather than probe times, keeps the estimate unbiased
    when the machine changes speed inside a repetition.
    """

    def __init__(self) -> None:
        self._last = time.perf_counter()
        self._last_speed = None
        self._weighted = 0.0
        self._span = 0.0
        self._spent = 0.0
        self._spent_total = 0.0

    def clock(self) -> float:
        """``time.perf_counter`` with every tick's time taken out, for
        spans that must not contain the probe."""
        return time.perf_counter() - self._spent_total

    def _point(self, speed: float, started: float, ended: float) -> None:
        if self._last_speed is not None:
            gap = started - self._last
            self._weighted += gap * 0.5 * (self._last_speed + speed)
            self._span += gap
        self._last = ended
        self._last_speed = speed

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self._last < INTERVAL_S:
            return
        speed = 1.0 / probe()
        ended = time.perf_counter()
        self._point(speed, now, ended)
        self._spent += ended - now
        self._spent_total += ended - now

    def burst(self, count: int) -> None:
        """Probe ``count`` times in a row (a point outside timed code)."""
        started = time.perf_counter()
        speed = probe_speed(count)
        self._point(speed, started, time.perf_counter())

    def take(self):
        """(seconds spent in ticks, mean speed) since the last call."""
        speed = self._weighted / self._span if self._span > 0 else self._last_speed
        out = (self._spent, speed)
        self._weighted = 0.0
        self._span = 0.0
        self._spent = 0.0
        return out

    def at_reference(self, measured_s: float) -> float:
        """Close the current interval: ``measured_s`` (which contains every
        tick since the last call) without the ticks, at reference speed."""
        spent, speed = self.take()
        return (measured_s - spent) * REFERENCE_PROBE_S * speed
