"""Machine-speed calibration, so that times from runs made while the
host was fast or slow can be compared.

On a shared 2-vCPU Intel Xeon VM (Python 3.11) the host's speed
changes by up to 1.4-2x for stretches from half a second to tens of
seconds, as other load on the machine comes and goes.  A run that falls wholly in a fast stretch
reads 40% faster on every timing, which no run length within the
benchmark's budget averages away.  So the benchmark interleaves short
calibration blocks with its timed work and reports each time at the
*reference speed*: a time measured while the calibration loop ran at
``s`` times its reference rate is reported multiplied by ``s``.

The calibration loop does no work of the program's: it allocates small
objects and chases references through a working set of a few
megabytes, the kind of work the interpreter does when the animator
evaluates rules.  On that VM it tracked the animator's speed with a
slope of about 1.1 (a loop of plain arithmetic tracked it with a slope
of 0.5), halving the spread of a fixed workload's throughput between
2-second windows.  Raw times are still printed on stderr.
"""

from __future__ import annotations

import random
import statistics
from array import array
from time import perf_counter
from typing import Any, Dict, Tuple

#: calibration units per second at the reference speed (that VM's slow
#: mode, so reported times read close to wall-clock ones there)
REFERENCE_RATE = 1900.0

#: units per calibration block: about 5 ms at the reference speed
UNITS = 10

_NODES = 50_000


class _Node:
    __slots__ = ("key", "value", "link")

    def __init__(self, key, value, link):
        self.key, self.value, self.link = key, value, link


class Calibrator:
    """Measures the host's current speed relative to the reference."""

    def __init__(self):
        self.nodes = {i: _Node(i, str(i), None) for i in range(_NODES)}
        self.keys = list(self.nodes)
        random.Random(2).shuffle(self.keys)
        self.position = 0

    def _unit(self) -> int:
        nodes, keys = self.nodes, self.keys
        start = self.position
        made = {}
        total = 0
        for step in range(300):
            key = keys[(start + step * 7919) % _NODES]
            node = nodes[key]
            made[(key & 255, node.value)] = _Node(key, node.value, node)
            total += len(node.value)
        self.position = (start + 300) % _NODES
        return total

    def speed(self) -> float:
        """The host's speed now, as a multiple of the reference speed."""
        start = perf_counter()
        for _ in range(UNITS):
            self._unit()
        return UNITS / (perf_counter() - start) / REFERENCE_RATE


#: seconds of timed work between two calibration blocks
WINDOW_S = 0.05

#: windows in the rolling median that smooths single calibrations
#: (about half a second: the host's speed changes are at least that
#: long, while one 5 ms block can read 30% off either way)
SMOOTH = 9


def cpu_ticks() -> Tuple[int, int]:
    """Clock ticks of all CPUs so far: ``(busy, stolen)``.  Stolen ticks
    are those in which a CPU had work but the hypervisor ran something
    else."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def granted(busy: int, stolen: int) -> float:
    """The share of the CPU time the processes wanted that they got."""
    return busy / (busy + stolen) if busy + stolen else 1.0


class Windows:
    """Latency samples and wall time of a timed phase, at reference speed.

    The caller appends ``(kind, seconds, mode)`` to :attr:`pending` and
    calls :meth:`close` once ``now - start >= WINDOW_S`` and at the end,
    then :meth:`finish`.  Each window is scaled by the rolling median of
    the speeds calibrated around it.

    With ``steal`` the scale is also multiplied by the share of CPU time
    the hypervisor granted over the same rolling span (see
    :func:`cpu_ticks`).  That is for work spread over other processes:
    the calibration runs while they are idle, so it cannot see the time
    taken from them once they are busy."""

    def __init__(self, calibrator: Calibrator, steal: bool = False):
        self.calibrator = calibrator
        self.pending = []
        self._windows = []
        self._ticks = [] if steal else None
        self._speed = calibrator.speed()
        self._last_ticks = cpu_ticks() if steal else None
        self.start = perf_counter()

    def close(self, now: float) -> None:
        after = self.calibrator.speed()
        self._windows.append((now - self.start, self.pending, (self._speed + after) / 2))
        if self._ticks is not None:
            ticks = cpu_ticks()
            self._ticks.append((ticks[0] - self._last_ticks[0], ticks[1] - self._last_ticks[1]))
            self._last_ticks = ticks
        self.pending = []
        self._speed = after
        self.start = perf_counter()

    def finish(self, kinds) -> Dict[str, Any]:
        """Samples as ``{kind: {mode: array of seconds}}`` -- eight bytes
        a sample, so a run's own memory barely grows with its rounds --
        and the phase's wall and busy times."""
        speeds = [speed for _, _, speed in self._windows]
        half = SMOOTH // 2
        samples: Dict[str, Dict[str, array]] = {kind: {} for kind in kinds}
        wall = raw_wall = raw_busy = 0.0
        scales = []
        for index, (elapsed, pending, _) in enumerate(self._windows):
            span = slice(max(index - half, 0), index + half + 1)
            scale = statistics.median(speeds[span])
            if self._ticks is not None:
                ticks = self._ticks[span]
                scale *= granted(sum(t[0] for t in ticks), sum(t[1] for t in ticks))
            for kind, seconds, mode in pending:
                by_mode = samples[kind]
                if mode not in by_mode:
                    by_mode[mode] = array("d")
                by_mode[mode].append(seconds * scale)
                raw_busy += seconds
            wall += elapsed * scale
            raw_wall += elapsed
            scales.append(scale)
        # the raw times are what the traced run's layer times add up to
        return {"samples": samples, "wall_s": wall, "raw_wall_s": raw_wall,
                "raw_busy_s": raw_busy, "speeds": scales}


#: calibration blocks before and after a one-shot timing
TIMED_BLOCKS = 5


def timed(calibrator: Calibrator, action, steal: bool = False) -> float:
    """Seconds ``action()`` takes, at reference speed: scaled by the
    median of ``TIMED_BLOCKS`` calibrations before it and after it and,
    with ``steal``, by the share of CPU time granted while it ran (see
    :class:`Windows`)."""
    before = [calibrator.speed() for _ in range(TIMED_BLOCKS)]
    ticks = cpu_ticks() if steal else None
    start = perf_counter()
    action()
    elapsed = perf_counter() - start
    if steal:
        busy, stolen = (now - then for now, then in zip(cpu_ticks(), ticks))
        elapsed *= granted(busy, stolen)
    after = [calibrator.speed() for _ in range(TIMED_BLOCKS)]
    return elapsed * statistics.median(before + after)
