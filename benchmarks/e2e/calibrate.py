"""Host-speed calibration for the host-clock metrics.

The host's speed drifts: on the shared 2-vCPU reference host the same
repetition took anywhere from 1.4 s to 2.4 s across a few minutes, so
raw medians of ten back-to-back runs spread by up to 45%. Timing a
fixed pure-Python loop next to every repetition and scaling the
repetition's host times by ``REFERENCE_S / loop time`` cancels that
drift: host-clock metrics read as seconds on the reference host at its
undisturbed speed.

The loop is timed in short chunks before and after the repetition and
the fastest chunk counts, so a disturbance shorter than the repetition
(which the median over repetitions absorbs anyway) does not skew the
calibration; only a slowdown that spans the whole repetition does.

The loop uses none of the simulator's code -- a change to ``src/``
cannot move it -- but exercises what the simulator's hot paths spend
their time on: object allocation, attribute access, dict updates, heap
operations, generator resumption and float arithmetic.
"""

from __future__ import annotations

import heapq
import time

#: Seconds one chunk takes on the reference host (2-vCPU Intel Xeon,
#: Python 3.11) when nothing else disturbs it.
REFERENCE_S = 0.0114

_ITERATIONS = 12_000
_CHUNKS = 5


class _Item:
    __slots__ = ("key", "mark")

    def __init__(self, key):
        self.key = key
        self.mark = 0.0


def _accumulator():
    total = 0
    while True:
        total += yield total


def _chunk() -> float:
    heap, counts, items = [], {}, []
    acc_gen = _accumulator()
    next(acc_gen)
    acc = 0.0
    for i in range(_ITERATIONS):
        item = _Item(i)
        items.append(item)
        heapq.heappush(heap, (i * 7919 % 1009, i, item))
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
        acc += acc_gen.send(i & 7) * 1e-9 + item.key * 0.5
        if len(heap) > 64:
            heapq.heappop(heap)[2].mark = acc
        if len(items) > 256:
            items.clear()
    return acc


def chunk_seconds() -> float:
    """The fastest of a few timed chunks of the loop, in host seconds."""
    best = float("inf")
    for _ in range(_CHUNKS):
        start = time.perf_counter()
        _chunk()
        best = min(best, time.perf_counter() - start)
    return best
