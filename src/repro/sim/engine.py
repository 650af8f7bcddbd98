"""Discrete-event simulation kernel.

This is the substrate on which every timed component of the soNUMA model
runs: RMC pipelines, cores, links, routers, DRAM channels, and baseline
models are all :class:`Process` coroutines scheduled by a single
:class:`Simulator`.

The design is deliberately small and explicit (a few hundred lines rather
than a dependency): an event heap keyed by simulated time, generator-based
processes, and condition events. Time is measured in **nanoseconds** and
stored as a float; all component models in this repository quote their
parameters in ns so that Table 1 of the paper can be transcribed directly.

Typical usage::

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(50.0)          # sleep 50 ns
        return "done"

    proc = sim.process(worker(sim))
    sim.run()
    assert proc.value == "done"

Processes may yield:

* a :class:`Timeout` (or a bare ``int``/``float`` delay, as a convenience),
* any other :class:`Event` (including another :class:`Process`),
* ``None`` to simply yield control at the same timestamp.

A process finishes when its generator returns; the generator's return value
becomes the process's :attr:`Event.value`. Exceptions raised inside a
process propagate to any process waiting on it, and to :meth:`Simulator.run`
if nobody is waiting (errors never pass silently).

Performance model (see docs/architecture.md §8, "Kernel fast paths"):

* **A queue entry carries its action.** The heap holds
  ``(when, seq, fn, arg)`` and the FIFO now-queue holds ``(fn, arg)``;
  dispatching an entry is the one call ``fn(arg)``. A bare-number or
  ``None`` yield queues the process's resume with a shared success
  token, so a wait allocates one tuple and no :class:`Event`. Component
  hot loops use this idiom (optionally via :meth:`Simulator.delay`,
  which also documents coalesced delays).
* **Zero-delay and same-timestamp entries skip the heap.** Anything
  scheduled at the current timestamp goes onto the now-queue instead of
  the heap; heap entries that mature at the current timestamp are always
  drained before the now-queue, so the total FIFO order of equal-time
  entries is exactly the order they were scheduled in — bit-identical
  to a heap-only kernel.
* **Daemon entries are counted, real ones are not.** The run ends when
  only daemon entries (watchdog and heartbeat timers) remain; that test
  is made only when the next entry is itself a daemon.
* **:meth:`Simulator.call_later` schedules a bare callback** without
  spawning a process (credit returns, in-flight packet delivery), and
  **:meth:`Simulator.spawn` starts a process nobody waits for**: its
  successful return queues no completion entry. The RMC's per-line
  pipeline stages use it.

None of the fast paths changes simulated timestamps: they remove Python
objects and queue traffic, not simulated time.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Simulator",
    "SimulationError",
    "StopSimulation",
    "WakeSignal",
]

class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. double-trigger)."""


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulator.run` early."""


class _Ok:
    """The outcome every bare-delay resume delivers: success, no value.

    One shared instance stands in for the triggering event, so a
    ``yield 0.5`` queues ``(process._resume, _OK)`` and allocates
    nothing else.
    """

    __slots__ = ()
    _ok = True
    value = None


_OK = _Ok()


def _fire(event: "Event") -> None:
    """Dispatch a triggered event: run its callbacks once."""
    callbacks = event.callbacks
    event.callbacks = None  # marks the event as fully processed
    if callbacks:
        for callback in callbacks:
            callback(event)
    elif not event._ok:
        # A failed event nobody waited for: surface it.
        raise event.value


def _call(fn: Callable[[], None]) -> None:
    """Dispatch a :meth:`Simulator.call_later` entry."""
    fn()


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event starts *pending*, is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`, and then notifies its callbacks.
    Processes wait on events by yielding them.

    A *daemon* event (watchdog timers, heartbeat ticks) does not keep the
    simulation alive: :meth:`Simulator.run` returns once only daemon
    events remain queued, so background reliability machinery never
    extends a run past its last piece of real work.
    """

    __slots__ = ("sim", "callbacks", "_triggered", "_ok", "value", "daemon")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._triggered = False
        self._ok = True
        self.value: Any = None
        self.daemon = False

    @property
    def triggered(self) -> bool:
        """Whether the event has already fired."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """Whether the event fired successfully (vs. with an exception)."""
        return self._ok

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        self._ok = True
        self.value = value
        self.sim._schedule(self.sim.now, _fire, self, self.daemon)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception; waiters will re-raise it."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self.value = exception
        self.sim._schedule(self.sim.now, _fire, self, self.daemon)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.sim.now:.1f}>"


class Timeout(Event):
    """An event that fires automatically after a fixed delay.

    Hot paths should prefer yielding the bare delay (``yield 0.5``),
    which queues the resume directly; a :class:`Timeout` object is for
    when the event itself is needed (``any_of`` arms, carrying a
    ``value``, daemon timers).
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 daemon: bool = False):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ (this constructor is hot).
        self.sim = sim
        self.callbacks = []
        self._triggered = True  # scheduled immediately, fires at now+delay
        self._ok = True
        self.value = value
        self.daemon = daemon
        self.delay = delay
        sim._schedule(sim.now + delay, _fire, self, daemon)


class Process(Event):
    """A generator-based coroutine driven by the simulator.

    The process is itself an :class:`Event` that fires when the generator
    returns (successfully) or raises (failure). Other processes can wait
    for it by yielding it.
    """

    __slots__ = ("generator", "name", "_send", "_throw", "_resume_cb",
                 "_spawned")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "",
                 daemon: bool = False):
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        super().__init__(sim)
        # A daemon process's *completion* event does not keep the run
        # alive (nor count as real work): background timers that happen
        # to return (a retransmission watchdog standing down) must not
        # extend the run past its last piece of real work.
        self.daemon = daemon
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Set by Simulator.spawn(): nobody can wait on this process, so a
        # successful return queues no completion event.
        self._spawned = False
        # Bound once: queued on every wait (a fresh bound method per
        # wait would be an allocation each).
        self._send = generator.send
        self._throw = generator.throw
        self._resume_cb = self._resume
        sim._now_queue.append((self._resume_cb, _OK))

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not yet finished."""
        return not self._triggered

    def _resume(self, trigger) -> None:
        """Advance the generator with the outcome of ``trigger`` (an
        event, or :data:`_OK` for a bare delay)."""
        try:
            if trigger._ok:
                target = self._send(trigger.value)
            else:
                target = self._throw(trigger.value)
        except StopIteration as stop:
            self._triggered = True
            self._ok = True
            self.value = stop.value
            if self._spawned:
                # Its completion event would dispatch to no callbacks.
                self.callbacks = None
                return
            self.sim._schedule(self.sim.now, _fire, self, self.daemon)
            return
        except BaseException as exc:
            self._triggered = True
            self._ok = False
            self.value = exc
            self.sim._schedule(self.sim.now, _fire, self, self.daemon)
            return

        # Wait on whatever the process yielded. Bare numbers and ``None``
        # queue the resume itself: no Timeout object, and no heap traffic
        # for zero delays. This is the hottest branch in the repository,
        # hence the inlined queueing.
        cls = target.__class__
        if cls is float or cls is int or target is None:
            sim = self.sim
            if target:
                if target < 0:
                    raise ValueError(f"negative timeout delay: {target}")
                heapq.heappush(sim._heap, (sim.now + target, next(sim._seq),
                                           self._resume_cb, _OK))
            else:
                sim._now_queue.append((self._resume_cb, _OK))
        elif isinstance(target, Event):
            if target.callbacks is None:
                # Already processed: resume at the current time with the
                # event's outcome (success value or failure exception).
                self.sim._now_queue.append((self._resume_cb, target))
            else:
                target.callbacks.append(self._resume_cb)
        elif isinstance(target, (int, float)):
            # Numeric subclasses (bool, numpy scalars) missed the exact-
            # type fast path above; honour them like the bare numbers.
            delay = float(target)
            if delay < 0:
                raise ValueError(f"negative timeout delay: {delay}")
            self.sim._schedule(self.sim.now + delay, self._resume_cb, _OK)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"
            )


class _Condition(Event):
    """Base for AnyOf / AllOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _results(self) -> dict:
        return {
            i: ev.value
            for i, ev in enumerate(self.events)
            if ev.triggered and ev.callbacks is None
        }


class AnyOf(_Condition):
    """Fires as soon as any of the given events fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
        else:
            self.succeed(self._results())


class AllOf(_Condition):
    """Fires once all of the given events have fired."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed({i: ev.value for i, ev in enumerate(self.events)})


class WakeSignal:
    """A level-triggered wake-up for polling loops.

    Hardware that continuously polls a memory location (the RGP sweeping
    its WQs) would swamp a discrete-event simulation with no-op events.
    A :class:`WakeSignal` gives the same semantics event-efficiently: the
    poller waits on :meth:`wait`; producers call :meth:`trigger`. A
    trigger with no waiter is latched (level- rather than edge-
    triggered), so a wake between two ``wait`` calls is never lost.
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._event: Optional[Event] = None
        self._latched = False

    def wait(self) -> Event:
        """An event that fires at the next (or a latched) trigger."""
        if self._latched:
            self._latched = False
            fired = self.sim.event()
            fired.succeed()
            return fired
        if self._event is None or self._event.triggered:
            self._event = self.sim.event()
        return self._event

    def trigger(self) -> None:
        """Wake the waiter, or latch the wake if nobody waits yet."""
        if self._event is not None and not self._event.triggered:
            self._event.succeed()
        else:
            self._latched = True


class Simulator:
    """The event loop: a heap of ``(time, seq, fn, arg)`` entries plus a
    FIFO "now-queue" of ``(fn, arg)`` entries for the current timestamp.

    All timestamps are nanoseconds. Entries scheduled at equal times fire
    in FIFO order of scheduling: heap entries that matured to the current
    timestamp were necessarily scheduled before anything appended to the
    now-queue at that timestamp, so draining matured heap entries first
    and the now-queue second reproduces the exact total order a pure
    ``(time, seq)`` heap would give, while zero-delay traffic — the bulk
    of all entries — never touches the heap.

    A daemon entry is queued as ``(self._daemon, (fn, arg))``; the
    simulator counts how many are queued, so "only daemons remain" is
    one comparison, made only when the next entry is a daemon.
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: List = []
        self._now_queue: deque = deque()
        self._seq = itertools.count()
        self._stopped = False
        self._daemons = 0              # queued daemon entries
        # Bound once: the identity marks an entry as a daemon entry.
        self._daemon = self._run_daemon
        self.events_processed = 0      # lifetime dispatch count

    @property
    def _pending_real(self) -> int:
        """Queued non-daemon entries."""
        return len(self._heap) + len(self._now_queue) - self._daemons

    # -- scheduling ------------------------------------------------------

    def _run_daemon(self, entry) -> None:
        self._daemons -= 1
        fn, arg = entry
        fn(arg)

    def _schedule(self, when: float, fn: Callable, arg: Any,
                  daemon: bool = False) -> None:
        """Schedule ``fn(arg)`` at ``when``: on the now-queue if that is
        the current timestamp, else on the heap."""
        if daemon:
            self._daemons += 1
            fn, arg = self._daemon, (fn, arg)
        if when <= self.now:
            self._now_queue.append((fn, arg))
        else:
            heapq.heappush(self._heap, (when, next(self._seq), fn, arg))

    def call_later(self, delay: float, fn: Callable[[], None],
                   daemon: bool = False) -> None:
        """Run ``fn()`` after ``delay`` ns without spawning a process.

        The bookkeeping fast path: credit returns, in-flight packet
        delivery, and similar fire-and-forget actions cost one queue
        entry instead of a process + generator + completion event. ``fn``
        must not yield; it runs synchronously at dispatch time.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._schedule(self.now + delay, _call, fn, daemon)

    # -- public factory helpers -----------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                daemon: bool = False) -> Timeout:
        """Create an event that fires ``delay`` ns from now.

        ``daemon`` timers do not keep :meth:`run` alive (used by
        retransmission watchdogs and failure detectors)."""
        return Timeout(self, delay, value, daemon=daemon)

    @staticmethod
    def delay(ns: float) -> float:
        """A coalesced fixed delay for the bare-delay fast path.

        ``yield sim.delay(a + b)`` is the idiom for back-to-back fixed
        delays that used to be separate ``timeout`` yields: one queue
        entry replaces N Timeout objects, and simulated time is identical
        because nothing observable happens between the legs. Returns the
        bare number — the kernel's resume path does the rest.
        """
        if ns < 0:
            raise ValueError(f"negative timeout delay: {ns}")
        return ns

    def process(self, generator: Generator, name: str = "",
                daemon: bool = False) -> Process:
        """Register a generator as a new process starting immediately.

        ``daemon`` marks the process's completion event as a daemon
        event: background machinery (per-transaction watchdogs) that
        finishes by *returning* then cannot keep the run alive on its
        own, mirroring the daemon-timer semantics of :meth:`timeout`.
        """
        return Process(self, generator, name=name, daemon=daemon)

    def spawn(self, generator: Generator, name: str = "",
              daemon: bool = False) -> None:
        """Start a fire-and-forget process that nobody waits for.

        Identical to :meth:`process` except that a successful return
        queues no completion event: with no handle, nothing can wait on
        it, so that event would dispatch to no callbacks. A spawned
        process that raises still queues its failed completion, which
        :meth:`run` re-raises exactly as for :meth:`process`.
        """
        Process(self, generator, name=name, daemon=daemon)._spawned = True

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when any child event fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all child events have fired."""
        return AllOf(self, events)

    def stop(self) -> None:
        """Request that :meth:`run` return at the end of the current step."""
        self._stopped = True

    # -- the event loop --------------------------------------------------
    #
    # One dispatch rule everywhere: pop the heap head if it has matured
    # to ``now``, else the now-queue head, else advance ``now`` to the
    # heap head; then call ``fn(arg)``. ``run`` and ``run_window`` inline
    # it (local bindings cut attribute lookups on the hottest loop in the
    # repository); ``_step`` is the one-entry form.

    def _step(self) -> None:
        heap = self._heap
        if heap and heap[0][0] <= self.now:
            _when, _seq, fn, arg = heapq.heappop(heap)
        elif self._now_queue:
            fn, arg = self._now_queue.popleft()
        else:
            self.now, _seq, fn, arg = heapq.heappop(heap)
        self.events_processed += 1
        fn(arg)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queues drain, ``until`` is reached, or :meth:`stop`.

        Daemon entries alone do not sustain the run: once only daemon
        entries remain, the run ends as if the queues had drained.
        ``until`` earlier than ``now`` is an error (the clock never runs
        backwards).

        Returns the simulated time at which the run ended.
        """
        if until is not None and until < self.now:
            raise ValueError(
                f"run(until={until}) is earlier than now={self.now}")
        self._stopped = False
        heap = self._heap
        nowq = self._now_queue
        pop = heapq.heappop
        popleft = nowq.popleft
        daemon = self._daemon
        processed = 0
        try:
            while not self._stopped:
                if heap and heap[0][0] <= self.now:
                    _when, _seq, fn, arg = heap[0]
                    if fn is daemon and self._daemons == len(heap) + len(nowq):
                        break   # only daemon entries remain
                    pop(heap)
                elif nowq:
                    fn, arg = nowq[0]
                    if fn is daemon and self._daemons == len(heap) + len(nowq):
                        break
                    popleft()
                elif heap:
                    when, _seq, fn, arg = heap[0]
                    if until is not None and when > until:
                        break
                    if fn is daemon and self._daemons == len(heap):
                        break
                    self.now = when
                    pop(heap)
                else:
                    break
                processed += 1
                fn(arg)
        finally:
            self.events_processed += processed
        if until is not None and self.now < until:
            self.now = until
        return self.now

    # -- windowed execution (conservative parallel engine support) -------

    def peek_next_event_time(self) -> float:
        """Timestamp of the earliest pending event (daemons included),
        or ``inf`` when nothing is scheduled.

        Used by the conservative parallel runner to compute each
        partition's earliest possible next action. Daemon events count:
        a retransmission watchdog can fire and *emit* real traffic, so
        the lower bound must cover it.
        """
        if self._now_queue:
            return self.now
        if self._heap:
            return self._heap[0][0]
        return float("inf")

    def run_window(self, bound: float):
        """Process every pending event strictly before ``bound``.

        The conservative-window primitive: unlike :meth:`run`, the loop
        does not stop when real work drains (another partition may still
        revive this one through a message) and never advances ``now`` to
        ``bound`` — it stays at the last dispatched event so repeated
        windows compose into exactly one serial execution.

        Returns ``(last_real, processed)``: the timestamp of the last
        non-daemon event dispatched in this window (``None`` if none
        was) and the number of events processed.
        """
        if bound <= self.now:
            return None, 0
        heap = self._heap
        nowq = self._now_queue
        pop = heapq.heappop
        popleft = nowq.popleft
        daemon = self._daemon
        processed = 0
        last_real = None
        try:
            while True:
                if heap and heap[0][0] <= self.now:
                    _when, _seq, fn, arg = pop(heap)
                elif nowq:
                    fn, arg = popleft()
                elif heap:
                    if heap[0][0] >= bound:
                        break
                    self.now, _seq, fn, arg = pop(heap)
                else:
                    break
                processed += 1
                if fn is not daemon:
                    last_real = self.now
                fn(arg)
        finally:
            self.events_processed += processed
        return last_real, processed

    def run_until_process(self, process: Process, limit: float = 1e15) -> Any:
        """Run until ``process`` completes; return its value.

        ``limit`` guards against runaway simulations (raises if exceeded).
        Mirrors :meth:`run`'s daemon accounting: if only daemon events
        remain (e.g. a watchdog-only heap), the process can never
        complete, so a deadlock error is raised instead of spinning the
        daemon timers forever.
        """
        while not process.triggered:
            if not self._heap and not self._now_queue:
                raise SimulationError(
                    f"deadlock: no events pending but {process.name!r} "
                    "has not completed"
                )
            if self._pending_real <= 0:
                raise SimulationError(
                    f"deadlock: only daemon events remain but "
                    f"{process.name!r} has not completed"
                )
            if (not self._now_queue
                    and max(self._heap[0][0], self.now) > limit):
                raise SimulationError(
                    f"simulation exceeded time limit {limit} ns"
                )
            self._step()
        # Drain same-timestamp callbacks associated with completion.
        if not process.ok:
            raise process.value
        return process.value
