"""Machine-speed readings: timings at reference speed.

The sandbox this ledger runs in does not hold its speed: a fixed
pure-Python loop pinned to one CPU runs up to 30% slower or faster for
tens of seconds at a time (neighbours on the same host), which no
statistic taken inside a ten-second run can remove.  So every timed
window is bracketed by :func:`reading` — the wall time of a fixed
kernel that touches what the measured code touches (objects, dicts
keyed by tuples, list churn, masked 64-bit integers, bytearray words)
and nothing under ``src/`` — and the window's time is multiplied by
:func:`scale` of its readings.  The result is the time the window
would have taken with the machine at reference speed, where the kernel
takes :data:`NOMINAL_S`; on a quiet machine of the reference kind the
factor is 1.  README.md has the measurements behind this.
"""

from __future__ import annotations

import os
import time

# The kernel's wall time on the reference machine when it is quiet
# (this sandbox: Xeon 2.1 GHz, CPython 3.11; the lower decile of 1500
# readings).  A constant, so numbers of different runs are comparable.
NOMINAL_S = 0.0037

_MASK = (1 << 64) - 1


class _Cell:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, following):
        self.key = key
        self.value = value
        self.next = following

    def bump(self, by: int) -> int:
        self.value = (self.value * 31 + by) & _MASK
        return self.value


def kernel(rounds: int = 4000) -> int:
    memory = bytearray(4096)
    table = {}
    stack = []
    head = None
    acc = 1
    for i in range(rounds):
        key = (i & 63, i % 7)
        cell = table.get(key)
        if cell is None:
            cell = table[key] = _Cell(key, i, head)
            head = cell
        acc = (acc + cell.bump(i)) & _MASK
        addr = (acc >> 7) & 4088
        memory[addr:addr + 8] = acc.to_bytes(8, "little")
        peer = (addr + 64) & 4088
        acc ^= int.from_bytes(memory[peer:peer + 8], "little")
        stack.append(acc & 255)
        if len(stack) > 32:
            acc = (acc + sum(stack[-8:])) & _MASK
            del stack[:16]
    return acc


def reading() -> float:
    """Seconds the kernel takes right now."""
    begin = time.perf_counter()
    kernel()
    return time.perf_counter() - begin


def scale(*readings: float) -> float:
    """Factor that takes a wall time measured between ``readings`` to
    reference speed."""
    return NOMINAL_S * len(readings) / sum(readings)


def pin_to_one_cpu() -> None:
    """Keep the runner and the children it starts on one CPU, so the
    readings are taken where the measured code runs (the runner only
    waits while a child measures)."""
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        except OSError:
            pass
