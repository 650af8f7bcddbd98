"""The event kernel against a reference kernel.

:class:`RefSim` is the plainest kernel with the semantics the models
rely on. Every scheduled action is one entry of a single ``(time, seq)``
heap. A triggered event dispatches its callbacks when its entry comes
up. Every wait, immediate grant and immediate put is a triggered event.
A run ends when the heap is empty or holds only daemon entries. It has
no now-queue, no bare-delay fast path and no daemon counter.

Hypothesis draws process programs over bare delays (including 0),
timeouts, pre-triggered and already-processed events, stores with
capacities, contended resources, ``any_of`` / ``all_of``, ``call_later``,
``spawn``, daemon timers and failing processes. Each program must give,
on :class:`repro.sim.Simulator`, the reference kernel's ``(time, label)``
trace, run end times, dispatched-entry count and exception.
"""

from __future__ import annotations

import heapq
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, Simulator, Store

# -- the reference kernel ----------------------------------------------------


class RefEvent:
    def __init__(self, sim, daemon=False):
        self.sim, self.daemon, self.callbacks = sim, daemon, []
        self.triggered, self.ok, self.value = False, True, None

    def succeed(self, value=None, ok=True, delay=0.0):
        self.triggered, self.ok, self.value = True, ok, value
        self.sim.at(self.sim.now + delay, self._fire, self.daemon)
        return self

    def _fire(self):
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)
        if not callbacks and not self.ok:
            raise self.value


class RefProcess(RefEvent):
    def __init__(self, sim, gen, daemon=False, spawned=False):
        super().__init__(sim, daemon)
        self.gen, self.spawned = gen, spawned
        sim.at(sim.now, lambda: self._resume(True, None))

    def _resume(self, ok, value):
        try:
            target = self.gen.send(value) if ok else self.gen.throw(value)
        except StopIteration as stop:
            if self.spawned:   # nobody can wait: no completion entry
                self.triggered, self.callbacks = True, None
            else:
                self.succeed(stop.value)
            return
        except Exception as exc:
            self.succeed(exc, ok=False)
            return
        if not isinstance(target, RefEvent):   # a bare delay or None
            target = RefEvent(self.sim).succeed(delay=target or 0.0)
        if target.callbacks is None:   # already dispatched
            self.sim.at(self.sim.now,
                        lambda: self._resume(target.ok, target.value))
        else:
            target.callbacks.append(lambda ev: self._resume(ev.ok, ev.value))


class RefCondition(RefEvent):
    def __init__(self, sim, events, need_all):
        super().__init__(sim)
        self.events, self.need_all, self.count = list(events), need_all, 0
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, ev):
        if self.triggered:
            return
        if not ev.ok:
            self.succeed(ev.value, ok=False)
            return
        self.count += 1
        if not self.need_all or self.count == len(self.events):
            self.succeed({i: e.value for i, e in enumerate(self.events)
                          if e.callbacks is None})


class RefSim:
    def __init__(self):
        self.now, self.heap, self.seq, self.events_processed = 0.0, [], 0, 0

    def at(self, when, fn, daemon=False):
        heapq.heappush(self.heap, (when, self.seq, daemon, fn))
        self.seq += 1

    def run(self, until=None):
        while self.heap and not all(entry[2] for entry in self.heap):
            when, _seq, _daemon, fn = self.heap[0]
            if until is not None and when > until:
                break
            heapq.heappop(self.heap)
            self.now = when
            self.events_processed += 1
            fn()
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    def event(self):
        return RefEvent(self)

    def timeout(self, delay, value=None, daemon=False):
        return RefEvent(self, daemon).succeed(value, delay=delay)

    def call_later(self, delay, fn, daemon=False):
        self.at(self.now + delay, fn, daemon)

    def process(self, gen, daemon=False):
        return RefProcess(self, gen, daemon)

    def spawn(self, gen, daemon=False):
        RefProcess(self, gen, daemon, spawned=True)

    def any_of(self, events):
        return RefCondition(self, events, need_all=False)

    def all_of(self, events):
        return RefCondition(self, events, need_all=True)


class RefStore:
    def __init__(self, sim, capacity=None):
        self.sim, self.capacity = sim, capacity
        self.items, self.getters, self.putters = deque(), deque(), deque()

    def put(self, item):
        event = self.sim.event()
        if self.getters:
            self.getters.popleft().succeed(item)
            event.succeed()
        elif self.capacity is None or len(self.items) < self.capacity:
            self.items.append(item)
            event.succeed()
        else:
            self.putters.append((event, item))
        return event

    def get(self):
        event = self.sim.event()
        if self.items:
            event.succeed(self.items.popleft())
            if self.putters:
                putter, item = self.putters.popleft()
                self.items.append(item)
                putter.succeed()
        else:
            self.getters.append(event)
        return event


class RefResource:
    def __init__(self, sim, capacity):
        self.sim, self.capacity, self.in_use = sim, capacity, 0
        self.waiters = deque()

    def acquire(self):
        event = self.sim.event()
        if self.in_use < self.capacity and not self.waiters:
            self.in_use += 1
            event.succeed()
        else:
            self.waiters.append(event)
        return event

    def release(self):
        self.in_use -= 1
        if self.waiters:
            self.in_use += 1
            self.waiters.popleft().succeed()


# -- process programs --------------------------------------------------------


class Boom(Exception):
    pass


def _program(sim, ops, name, log, stores, resources, children):
    """Interpret ``ops``; the same code drives either kernel."""
    for i, op in enumerate(ops):
        kind, label = op[0], f"{name}.{i}"
        got = None
        if kind == "delay":
            yield op[1]
        elif kind == "timeout":
            got = yield sim.timeout(op[1], value=label)
        elif kind == "pre":
            got = yield sim.event().succeed(label)
        elif kind == "twice":
            event = sim.timeout(op[1], value=label)
            yield event
            got = yield event   # already dispatched
        elif kind == "put":
            yield stores[op[1]].put(label)
        elif kind == "get":
            got = yield stores[op[1]].get()
        elif kind == "hold":
            yield resources[op[1]].acquire()
            log.append((sim.now, label, "granted"))
            yield op[2]
            resources[op[1]].release()
        elif kind in ("any", "all"):
            arms = [sim.timeout(op[1], value="a"), sim.timeout(op[2], value="b")]
            compose = sim.any_of if kind == "any" else sim.all_of
            got = sorted((yield compose(arms)).items())
        elif kind == "later":
            sim.call_later(op[1],
                           lambda label=label: log.append((sim.now, label,
                                                           "cb")),
                           daemon=op[2])
        elif kind == "daemon":
            sim.spawn(_daemon_timer(sim, op[1], label, log), daemon=True)
        elif kind == "spawn":
            sim.spawn(_program(sim, children[op[1]], label, log, stores,
                               resources, children))
        elif kind == "wait":
            try:
                got = yield sim.process(_program(
                    sim, children[op[1]], label, log, stores, resources,
                    children))
            except Boom as exc:
                got = f"caught {exc}"
        elif kind == "fail":
            raise Boom(label)
        log.append((sim.now, label, got))
    return name


def _daemon_timer(sim, delay, label, log):
    yield sim.timeout(delay, daemon=True)
    log.append((sim.now, label, "daemon"))


def _run(kernel, programs, children, store_caps, resource_caps, until):
    sim_cls, store_cls, resource_cls = kernel
    sim = sim_cls()
    log = []
    stores = [store_cls(sim, capacity=c) for c in store_caps]
    resources = [resource_cls(sim, capacity=c) for c in resource_caps]
    for p, ops in enumerate(programs):
        sim.process(_program(sim, ops, f"p{p}", log, stores, resources,
                             children))
    ends = []
    for bound in (until, None):
        try:
            ends.append(sim.run(bound))
        except Boom as exc:
            ends.append(("raised", str(exc), sim.now))
            break
    return log, ends, sim.events_processed


_DELAYS = st.sampled_from([0, 0, 0.5, 1, 2.5])
_IDX = st.integers(min_value=0, max_value=1)
_LEAF_OPS = [
    st.tuples(st.just("delay"), _DELAYS),
    st.tuples(st.just("timeout"), _DELAYS),
    st.just(("pre",)),
    st.tuples(st.just("twice"), _DELAYS),
    st.tuples(st.just("put"), _IDX),
    st.tuples(st.just("get"), _IDX),
    st.tuples(st.just("hold"), _IDX, _DELAYS),
    st.tuples(st.just("any"), _DELAYS, _DELAYS),
    st.tuples(st.just("all"), _DELAYS, _DELAYS),
    st.tuples(st.just("later"), _DELAYS, st.booleans()),
    st.tuples(st.just("daemon"), _DELAYS),
]
_CHILD = st.lists(st.one_of(*_LEAF_OPS, st.just(("fail",))), max_size=4)
_TOP = st.lists(st.one_of(*_LEAF_OPS,
                          st.tuples(st.just("spawn"), _IDX),
                          st.tuples(st.just("wait"), _IDX)), max_size=6)


@given(programs=st.lists(_TOP, min_size=1, max_size=4),
       children=st.lists(_CHILD, min_size=2, max_size=2),
       store_caps=st.lists(st.sampled_from([None, 1, 2]), min_size=2,
                           max_size=2),
       resource_caps=st.lists(st.sampled_from([1, 2]), min_size=2,
                              max_size=2),
       until=st.sampled_from([None, 0, 1, 2.5, 4]))
@settings(max_examples=400, deadline=None)
def test_kernel_matches_reference(programs, children, store_caps,
                                  resource_caps, until):
    args = (programs, children, store_caps, resource_caps, until)
    assert (_run((Simulator, Store, Resource), *args)
            == _run((RefSim, RefStore, RefResource), *args))


def test_reference_programs_cover_every_op():
    """One hand-written program over every op, as a readable anchor."""
    children = [[("delay", 1), ("fail",)], [("timeout", 0.5), ("put", 0)]]
    programs = [
        [("put", 0), ("hold", 0, 1), ("wait", 0), ("any", 1, 2.5),
         ("spawn", 1), ("get", 0), ("later", 0, True), ("daemon", 4)],
        [("get", 0), ("hold", 0, 0), ("pre",), ("twice", 0), ("all", 0, 1),
         ("later", 0.5, False), ("delay", 0), ("spawn", 0)],
    ]
    args = (programs, children, [1, None], [1, 2], None)
    real = _run((Simulator, Store, Resource), *args)
    assert real == _run((RefSim, RefStore, RefResource), *args)
    log, ends, _events = real
    assert ends == [("raised", "p1.7.1", 3.0)]
    assert (2.0, "p0.2", "caught p0.2.1") in log
    assert (2.5, "p1.5", "cb") in log
