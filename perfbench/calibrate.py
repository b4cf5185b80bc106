"""Machine-speed probes, and time measured in reference seconds.

On a shared machine the speed one process sees drifts by a third or
more within minutes, for the CPU and for the disk alike, far more than
the changes this benchmark has to resolve.  So two probes run right
before every timed batch run and every certification:

* a fixed pure-Python loop, for the CPU.  It uses no code of the
  program, so no change to the program moves it, and it does the same
  kind of work as the program (dict and set updates on tuple and
  string keys, a sort), so it slows down when the program does;
* a few appends to a scratch file, each flushed and fsynced, for the
  disk.

A measurement is split into user CPU time, system CPU time and the wall
time spent waiting beyond both, and scaled part by part: user time by
the reference loop time over the measured one; system time and waiting
by the reference fsync time over the measured one, because the kernel
time of an fsync-heavy run grows with the disk's latency, not with the
CPU's speed.  The result is the time the same work would
have taken on the reference machine, a 2-core x86-64 VM running
CPython 3, on which the two reference constants were measured.
"""

from __future__ import annotations

import os
import resource
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Tuple

__all__ = ["Clock", "Probes", "Timing", "cpu_loop"]

#: Seconds one :func:`cpu_loop` pass takes on the reference machine.
REFERENCE_LOOP_S = 0.004
#: Seconds one flushed and fsynced append takes on the reference machine.
REFERENCE_FSYNC_S = 0.00015
#: Appends per disk probe.
FSYNCS_PER_PROBE = 16


def cpu_loop() -> float:
    """Time one pass of the CPU probe loop; returns seconds."""
    start = perf_counter()
    counts: Dict[Tuple[int, int], int] = {}
    names = set()
    for i in range(6000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        names.add(str(i % 500))
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    if len(ranked) + len(names) != 1761:
        raise AssertionError("calibration loop computed a wrong result")
    return perf_counter() - start


@dataclass
class Timing:
    """Wall, user CPU and system CPU seconds of one measured section."""

    wall: float = 0.0
    user: float = 0.0
    sys: float = 0.0

    def __iadd__(self, other: "Timing") -> "Timing":
        self.wall += other.wall
        self.user += other.user
        self.sys += other.sys
        return self

    @property
    def waited(self) -> float:
        return max(0.0, self.wall - self.user - self.sys)


def _now() -> Tuple[float, float, float]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return perf_counter(), usage.ru_utime, usage.ru_stime


class Clock:
    """Times a section: ``with Clock() as clock: ...; clock.timing``."""

    def __enter__(self) -> "Clock":
        self._start = _now()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.timing = Timing(
            *(end - start for end, start in zip(_now(), self._start))
        )


class Probes:
    """Runs both probes and keeps their sums for one set of sections.

    :meth:`scale` turns a :class:`Timing` measured alongside the probes
    into reference seconds.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.loop_s = 0.0
        self.fsync_s = 0.0
        self.probes = 0

    def run(self) -> None:
        self.loop_s += cpu_loop()
        with open(self.path, "a", encoding="ascii") as handle:
            start = perf_counter()
            for _ in range(FSYNCS_PER_PROBE):
                handle.write("probe " * 32 + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            self.fsync_s += (perf_counter() - start) / FSYNCS_PER_PROBE
        self.probes += 1

    def scale(self, timing: Timing) -> float:
        cpu_factor = REFERENCE_LOOP_S * self.probes / self.loop_s
        io_factor = REFERENCE_FSYNC_S * self.probes / self.fsync_s
        return (
            timing.user * cpu_factor
            + (timing.sys + timing.waited) * io_factor
        )

    def loop_mean_s(self) -> float:
        return self.loop_s / self.probes

    def fsync_mean_s(self) -> float:
        return self.fsync_s / self.probes
