"""Queueing primitives built on the simulation kernel.

Three primitives cover every queueing structure in the soNUMA model:

* :class:`Store` — a FIFO buffer of items with optional capacity. Used for
  NI queues, router input buffers, and pipeline hand-off queues.
* :class:`Resource` — a counting semaphore with FIFO granting. Used for
  MSHR/MAQ occupancy limits and DRAM channel arbitration.
* :class:`Channel` — a latency + bandwidth pipe (items appear at the far
  end after serialization + propagation delay). Used for fabric links.

``Store.get()`` always returns an event, so processes compose it freely
with timeouts via :meth:`Simulator.any_of`. ``Store.put()`` and
``Resource.acquire()`` return an event only when the caller must wait;
when they succeed at once they return the bare ``0``, which the caller
yields like any delay (``yield store.put(item)``,
``yield res.acquire()``).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Deque, Optional, Union

from .engine import Event, Simulator

__all__ = ["Store", "Resource", "Channel"]


class Store:
    """FIFO item buffer with optional capacity.

    ``yield store.put(item)`` waits until the item has been accepted;
    ``get()`` returns an event that fires with the next item in FIFO
    order.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 name: str = ""):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)
        self.peak_occupancy = 0
        self.total_puts = 0

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, item: Any) -> Union[Event, int]:
        """Offer an item; yield the result to wait until it is accepted.

        An item the store takes at once (handed to the oldest waiting
        consumer, or enqueued below capacity) returns the bare ``0``: see
        :meth:`Resource.acquire` for why yielding it resumes the caller
        exactly where a triggered event would. A full store returns an
        event that fires once a ``get`` makes room (FIFO).
        """
        if self.try_put(item):
            return 0
        event = self.sim.event()
        self._putters.append((event, item))
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False if the store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.is_full:
            return False
        self._enqueue(item)
        return True

    def get(self) -> Event:
        """Take the next item; the returned event fires with the item."""
        event = self.sim.event()
        if self.items:
            event.succeed(self.items.popleft())
            self._admit_waiting_putter()
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> tuple:
        """Non-blocking get; returns (ok, item)."""
        if self.items:
            item = self.items.popleft()
            self._admit_waiting_putter()
            return True, item
        return False, None

    def _enqueue(self, item: Any) -> None:
        self.items.append(item)
        self.total_puts += 1
        if len(self.items) > self.peak_occupancy:
            self.peak_occupancy = len(self.items)

    def _admit_waiting_putter(self) -> None:
        if self._putters and not self.is_full:
            event, item = self._putters.popleft()
            self._enqueue(item)
            event.succeed()


class Resource:
    """Counting semaphore with FIFO grant order.

    ``yield res.acquire()`` waits until a slot is granted; ``release()``
    frees a slot. Used to bound concurrency (e.g. the RMC's 32-entry MAQ
    limits in-flight memory accesses).
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: Deque[Event] = deque()
        self.peak_in_use = 0
        self.total_acquires = 0

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def acquire(self) -> Union[Event, int]:
        """Request a slot; yield the result to wait for the grant.

        A free slot is granted at once and returned as the bare ``0``.
        Yielding it appends the caller's resume to the now-queue, at the
        position a grant event triggered here would have taken, because
        every caller yields the result straight away and nothing is
        queued in between; no :class:`Event` is allocated. Otherwise the
        returned event fires when ``release()`` grants the slot (FIFO).
        """
        if self.try_acquire():
            return 0
        event = self.sim.event()
        self._waiters.append(event)
        return event

    def try_acquire(self) -> bool:
        """Take a slot immediately if one is free; never blocks."""
        if self.in_use < self.capacity and not self._waiters:
            self.in_use += 1
            self.total_acquires += 1
            if self.in_use > self.peak_in_use:
                self.peak_in_use = self.in_use
            return True
        return False

    def release(self) -> None:
        """Free a slot, granting the oldest waiter if any."""
        if self.in_use <= 0:
            raise RuntimeError(f"resource {self.name!r}: release without acquire")
        self.in_use -= 1
        if self._waiters:
            # The freed slot passes straight to the oldest waiter.
            self.in_use += 1
            self.total_acquires += 1
            self._waiters.popleft().succeed()


class Channel:
    """A latency/bandwidth pipe between a producer and a consumer.

    An item of ``size`` bytes put at time *t* becomes available to
    ``get()`` at ``t + size/bandwidth + latency``. Serialization is
    modeled on the sender side: the next item cannot begin transmission
    before the previous one finished serializing (a busy line).

    ``bandwidth`` is in bytes/ns (i.e. GB/s); ``latency`` in ns.
    """

    def __init__(self, sim: Simulator, latency: float,
                 bandwidth: Optional[float] = None, name: str = ""):
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.sim = sim
        self.latency = latency
        self.bandwidth = bandwidth
        self.name = name
        self._line_free_at = 0.0
        self._delivery = Store(sim, name=f"{name}.delivery")
        self.bytes_sent = 0

    def put(self, item: Any, size: int = 0) -> float:
        """Send an item; returns the delivery time. Never blocks the caller
        (flow control is the responsibility of the link layer above)."""
        now = self.sim.now
        serialize = (size / self.bandwidth) if (self.bandwidth and size) else 0.0
        start = max(now, self._line_free_at)
        self._line_free_at = start + serialize
        deliver_at = self._line_free_at + self.latency
        self.bytes_sent += size
        # Elision: delivery is a deferred callback, not a spawned process,
        # so each item in flight costs one kernel event instead of two.
        self.sim.call_later(deliver_at - now,
                            partial(self._delivery.try_put, item))
        return deliver_at

    def get(self) -> Event:
        """Receive the next delivered item (FIFO)."""
        return self._delivery.get()

    def __len__(self) -> int:
        return len(self._delivery)
