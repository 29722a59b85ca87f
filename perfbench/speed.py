"""Host speed, and times rescaled to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts
with the neighbours' load: the same design-flow pass took 320 ms in one
minute and 700 ms a few minutes later, and a set of runs spread over half
an hour straddles several such spells. No run length averages that out,
so the end-to-end times are rescaled to one reference speed.

:func:`kernel` is a fixed piece of work shaped like the program's (a
JSON round trip of a request-sized object, a dict comprehension, an
integer loop, a small numpy gather, product and reduction) that calls
none of ProbLP's code, so a change to the program never moves it.
:class:`SpeedProbe` times one call of it, in thread CPU time, between
the measured pieces of work: every 0.1 s of requests, or before each
network of a design-flow pass. The host's speed also jumps within a
second, so each piece is rescaled by the median of the samples taken
around it (:data:`REACH` on either side, about a second), and a run
reports the median of the rescaled times. Over eight half-minute
windows of back-to-back design-flow passes, the median pass time spread
0.34 of its median between the windows' first and third quartiles;
rescaled pass by pass it spread 0.01 to 0.03, and rescaled by each
window's median sample, 0.04 to 0.07.

:func:`at_reference` rescales one measured time. Only its CPU time scales
with the host's speed; the time it spent off the CPU (a batching-window
timer, a wait for another thread's wake-up) is kept as measured. For
work that never leaves the CPU the result is simply
``wall × scale``.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

#: Thread CPU seconds one :func:`kernel` call takes at the reference
#: speed. Rescaled times read as if the host ran at that speed.
REFERENCE_KERNEL_S = 0.004

#: Samples on either side of a piece of work that set its scale.
REACH = 5

_REQUEST = {
    "op": "eval",
    "circuit": "alarm",
    "evidence": {f"V{index}": index % 3 for index in range(24)},
    "format": "fixed:1:15",
}
_VALUES = np.arange(256, dtype=np.float64)
_GATHER = np.arange(0, 256, 3)


def kernel() -> int:
    """The fixed work the probe times (about 4 ms on a 2020s x86 core)."""
    total = 0
    for _ in range(100):
        decoded = json.loads(json.dumps(_REQUEST))
        shifted = {key: value + 1 for key, value in decoded["evidence"].items()}
        total += sum(shifted.values())
        for step in range(60):
            total += (step * 7) % 5
        gathered = _VALUES[_GATHER] * 1.5
        total += int(np.dot(gathered, gathered)) & 1
        total += int(np.maximum(gathered, 3.0).sum()) & 1
    return total


class SpeedProbe:
    """Samples of :func:`kernel`'s CPU time, taken as a run goes."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time one kernel call now."""
        started = time.thread_time()
        kernel()
        self.samples.append(time.thread_time() - started)

    def scale(self, first: int = 0, last: int | None = None) -> float:
        """The scale of the work timed beside samples ``first .. last - 1``.

        It is the reference kernel time over the median of those samples
        and :data:`REACH` more on either side: 0.5 when the host ran at
        half the reference speed. By default, over the whole run.
        """
        last = len(self.samples) if last is None else last
        nearby = self.samples[max(0, first - REACH):last + REACH]
        return REFERENCE_KERNEL_S / statistics.median(nearby)


def at_reference(wall: float, cpu: float, scale: float) -> float:
    """``wall`` with its ``cpu`` part rescaled by ``scale``.

    ``cpu`` is the CPU time the process spent during ``wall``, clipped to
    it: the measured work runs one step at a time, so CPU time beyond
    the wall time belongs to overlapping background threads.
    """
    cpu = min(cpu, wall)
    return wall - cpu + cpu * scale
