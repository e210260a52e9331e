"""Host-speed calibration: scale measured seconds to a reference host.

On a small shared machine the same pure-Python work can take 1.5x as
long from one stretch of seconds or minutes to the next, and
``process_time`` moves with wall time, so the slowdown is the core and
its caches being shared, not descheduling.  Unscaled run medians of
identical code then differ by 10-25%.

Every timed segment is therefore bracketed by a short fixed
calibration loop, and its wall time is scaled by ``(REF_CAL_S / c) **
SENSITIVITY``, where ``c`` is the mean of the two bracketing
calibration times.  The loop is benchmark code that no change to the
program touches, so a program that really got slower still reads
slower; only the host's own drift cancels.  The raw, unscaled seconds
are kept in the run context.
"""

from __future__ import annotations

import gc
import random
import time
from array import array
from typing import Callable, Tuple

#: calibration seconds on the reference host (2-core x86_64, Python
#: 3.11, idle sibling); scaled times read in these host-seconds.
REF_CAL_S = 0.025

#: how far the scaling follows the calibration loop.  The simulator's
#: time moved with the loop's at log-log slopes from 0.7 (a stretch in
#: which the loop ran 2x slower) to 0.97 (the usual 1.5x stretches);
#: over ten-run sets taken in both kinds of stretch, 0.8 kept the
#: spread of run medians lowest in the worse of the two.
SENSITIVITY = 0.8

#: the pointer-chase ring: large enough to spill the private caches,
#: like the simulator's heap of routers, packets and cache lines
_RING = 100_003
_CHASE_STEPS = 40_000
_CELL_ROUNDS = 60


class _Cell:
    __slots__ = ("key", "value", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = 0
        self.hits = 0


class Calibrator:
    """A fixed loop whose time tracks how fast the host runs the simulator.

    Half of it chases a random cycle through a ring with a 100k-entry
    dict lookup per step (cache and memory pressure); the other half
    updates slotted objects, a small dict and a list (interpreter
    dispatch).  A loop with only the second half slows by 1.8x when the
    simulator slows by 1.35x; with both, the log-log slope of simulator
    time against loop time measured 0.7-0.97 (see ``SENSITIVITY``).  The
    ring (about 19 MB of peak memory) is ints in an array and an
    int-only dict, which the garbage collector does not walk, so it adds
    nothing to the program's GC work.
    """

    def __init__(self) -> None:
        rng = random.Random(1)
        order = list(range(_RING))
        rng.shuffle(order)
        nxt = array("l", bytes(8 * _RING))
        for a, b in zip(order, order[1:] + order[:1]):
            nxt[a] = b
        self._next = nxt
        self._table = {(k * 7919) % _RING: k for k in range(_RING)}

    def __call__(self) -> float:
        """Run the loop once; return its wall seconds (GC off meanwhile:
        a collection's cost depends on the program's heap)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            acc = self._chase() ^ self._cells()
            elapsed = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        if acc < 0:  # keeps the result live
            raise AssertionError
        return elapsed

    def _chase(self) -> int:
        nxt, table = self._next, self._table
        i = acc = 0
        for _ in range(_CHASE_STEPS):
            acc += table.get((i * 7919) % _RING, 0)
            i = nxt[i]
        return acc

    @staticmethod
    def _cells() -> int:
        cells = [_Cell(i) for i in range(256)]
        table = {}
        queue = []
        acc = 0
        for r in range(_CELL_ROUNDS):
            for i, cell in enumerate(cells):
                cell.value += (cell.key * r) & 7
                k = (i * 31 + r) & 511
                table[k] = table.get(k, 0) + cell.value
                if cell.value & 1:
                    cell.hits += 1
                    queue.append(k)
                acc ^= cell.value
            del queue[: len(queue) // 2]
        return acc


def scale(before: float, after: float) -> float:
    """Factor from host seconds to reference-host seconds for a piece of
    work bracketed by calibration runs taking ``before`` and ``after``."""
    return (REF_CAL_S * 2 / (before + after)) ** SENSITIVITY


class HostClock:
    """Times segments on the host, scaled to the reference host speed.

    ``measure(fn)`` returns ``(result, raw_s, factor)``; ``raw_s *
    factor`` is the segment's time on the reference host.  A segment is
    bracketed by calibration runs; ``checkpoint()``, called from inside
    ``fn``, splits it so that each piece is scaled by the calibration
    runs on either side of it, which follows the host's speed within a
    long segment.  Calibration time is never counted.
    """

    def __init__(self) -> None:
        self.calibrate = Calibrator()
        self.calibrate()  # the first run pays allocator warm-up
        self._last_cal = self.calibrate()
        self._t0 = None
        self._raw = self._scaled = 0.0

    def measure(self, fn: Callable[[], object]) -> Tuple[object, float, float]:
        self._raw = self._scaled = 0.0
        self._t0 = time.perf_counter()
        try:
            result = fn()
            self.checkpoint()
        finally:
            self._t0 = None
        return result, self._raw, self._scaled / self._raw

    def checkpoint(self) -> None:
        """Close the current piece of a segment and start the next."""
        if self._t0 is None:
            return
        raw = time.perf_counter() - self._t0
        before, after = self._last_cal, self.calibrate()
        self._last_cal = after
        self._raw += raw
        self._scaled += raw * scale(before, after)
        self._t0 = time.perf_counter()
