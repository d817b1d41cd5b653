"""Machine speed, read while a run goes on, and times scaled by it.

The CPU speed a run gets from a shared host drifts: a fixed pure-Python loop
run back to back for 40 s had one-second medians from 0.90 to 1.42 ms, and
batches of runs a few minutes apart differ by as much.  Wall times alone then
measure the host more than the program.  So the benchmark reads a gauge, a
fixed piece of pure-Python work that never calls the program, every PERIOD_S
of wall time from a SIGALRM handler, and scales the time of each operation
by the median of the gauge readings taken during it and the two before it:
reported time = wall time x REFERENCE_NS / gauge time.  The time spent in
the handler is taken out of the operation's wall time first.  A reported
time is thus the time the operation would take on a machine on which one
gauge reading takes REFERENCE_NS, about the median reading on the 2-core
x86-64 host the benchmark was tuned on, so scaled and wall times are close
there.  Each tick runs the gauge twice and times the second run, so that a
reading measures the machine's speed, not how far the program's work has
pushed the gauge out of the caches.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

PERIOD_S = 0.01
REFERENCE_NS = 80_000
GAUGE_SIZE = 8

clock = time.perf_counter_ns


def gauge_loop(size: int = GAUGE_SIZE, p: int = 10007) -> int:
    """A little of each kind of work the program does: a dense elimination
    mod p over lists of lists, as the oracles do; a dict of tuples and string
    formatting, as the CLI and the registry do; and a product of 3-kbit
    integers, as galois_params does.  It uses no global name, so that the
    set-up probe can compile it from this source on its own."""
    rows = [[(i * 7 + j * 13 + i * j + 1) % p for j in range(size)] for i in range(size)]
    rank = 0
    for c in range(size):
        pivot_row = next((r for r in range(rank, size) if rows[r][c]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inverse = pow(rows[rank][c], p - 2, p)
        pivot = [x * inverse % p for x in rows[rank]]
        for r in range(size):
            f = rows[r][c]
            if r != rank and f:
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], pivot)]
        rank += 1
    table: dict[tuple[int, int], int] = {}
    for i in range(40):
        key = (i % 7, i % 11)
        table[key] = table.get(key, 0) + i
    text = ", ".join(f"{k[0]}:{v}" for k, v in sorted(table.items()))
    big = 3 ** (2_000 + rank)
    return rank + len(text) + (big * (big + 1)).bit_length()


class Speedometer:
    """Reads the gauge every PERIOD_S while active.  `mark()` before and
    after an operation; `scaled(start, end)` gives its wall and scaled ns."""

    def __init__(self):
        self.readings = array("q")
        self.spent = 0  # ns spent in the handler, gauge included
        self._busy = False
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = clock()
        gauge_loop()  # brings the gauge's code and data back into the caches
        t1 = clock()
        gauge_loop()
        t2 = clock()
        self.readings.append(t2 - t1)
        self.spent += clock() - t0
        self._busy = False

    def __enter__(self):
        for _ in range(5):
            gauge_loop()
        for _ in range(2):
            self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, int, int]:
        return clock(), len(self.readings), self.spent

    def scaled(self, start, end) -> tuple[int, float]:
        t0, i0, s0 = start
        t1, i1, s1 = end
        wall = t1 - t0 - (s1 - s0)
        speed = statistics.median(self.readings[max(0, i0 - 2) : i1])
        return wall, wall * REFERENCE_NS / speed
