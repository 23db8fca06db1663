"""Host-speed calibration: timings in reference-scaled seconds.

On a shared cloud VM the same pure-Python code runs up to a third faster or
slower from one second to the next, and for minutes at a time, as other
tenants load the host.  Medians over a run cannot remove a slow phase that
lasts the whole run.  So the harness times a fixed pure-Python reference
loop between ops (or set-ups), at least every `EVERY_S` seconds, and
scales each op's time by `REFERENCE_S / t_ref`, where `t_ref` is the mean of
the reference times measured just before and just after the op.  A timing then reads as on
a host where the reference loop takes `REFERENCE_S`, which is about what it
takes on a 2-vCPU cloud VM.  The reference loop is fixed, and it does not
touch safevote, so a change to the program moves the scaled timings as much
as the raw ones.
"""

from __future__ import annotations

import gc
import time

REFERENCE_S = 0.005
EVERY_S = 0.2


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y

    def key(self) -> tuple[int, int]:
        return (self.y, self.x)


def reference() -> int:
    """Fixed work in the program's style: calls, small objects, tuples, dicts, sorting."""
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(1500):
        point = _Point(i % 37, (i * 7919) % 101)
        key = point.key()
        table[key] = table.get(key, 0) + 1
        acc += sum(v for v in key if v & 1)
    order = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return acc + len(order)


def reference_time() -> float:
    """Seconds one reference loop takes now.  The collector is paused, so a
    program with a larger heap does not slow the reference down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Collects raw op times and scales each by the reference times around it."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.reference_s: list[float] = []
        self._pending: list[float] = []
        self._calibrate()

    def _calibrate(self) -> None:
        before = self.reference_s[-1] if self.reference_s else None
        now = reference_time()
        self.reference_s.append(now)
        self._since = time.perf_counter()
        if before is not None:
            factor = REFERENCE_S / ((before + now) / 2)
            self.scaled += [t * factor for t in self._pending]
            self._pending = []

    def record(self, seconds: float) -> None:
        """Add one op's raw time; calibrate again if `EVERY_S` has passed."""
        self.raw.append(seconds)
        self._pending.append(seconds)
        if time.perf_counter() - self._since >= EVERY_S:
            self._calibrate()

    def flush(self) -> list[float]:
        """Scale the ops still pending and return every scaled time."""
        if self._pending:
            self._calibrate()
        return self.scaled

