"""Host speed probe: a fixed pure-Python loop timed between sub-windows.

The machines this benchmark runs on are shared, and their speed drifts
by tens of percent over seconds.  Host costs are therefore reported
scaled to a reference speed: a sub-window's measured wall (or CPU) time
is multiplied by ``REFERENCE_S * n / (REFERENCE_N * probe time)``, the
probe timed just before and just after the sub-window.  The probe
exercises what the kernel's hot path does (calls, dicts, a heap,
``struct``) and none of the repository's code, so a change to the
program cannot move it.  It allocates no objects the garbage collector
tracks, so it does not shift the program's collections either.
"""

from __future__ import annotations

import heapq
import statistics
import struct
import time

#: Loop length and its time on the reference host: one uncontended core
#: of the x86-64 machine the bounds were set on.
REFERENCE_N = 3000
REFERENCE_S = 0.0025

_PACK = struct.Struct(">HIq")


def _step(table: dict, heap: list, buf: bytearray, i: int) -> int:
    table[i & 1023] = i * 7
    heapq.heappush(heap, i * 2654435761 % 1000003)
    if len(heap) > 256:
        heapq.heappop(heap)
    _PACK.pack_into(buf, 0, i & 0xFFFF, i, -i)
    return table.get((i * 31) & 1023, 0)


def probe(reps: int = 5, n: int = REFERENCE_N) -> float:
    """Median of ``reps`` timings of the loop, scaled to ``REFERENCE_N``
    iterations, in seconds.  The median, not the fastest: a sub-window
    pays the host's typical speed of the moment, not its best."""
    table: dict = {}
    heap: list = []
    buf = bytearray(_PACK.size)
    times = []
    for _ in range(reps):
        heap.clear()
        start = time.perf_counter()
        for i in range(n):
            _step(table, heap, buf, i)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * REFERENCE_N / n


def factor(before: float, after: float) -> float:
    """Host speed factor of a sub-window between two probe times."""
    return REFERENCE_S * 2 / (before + after)
