"""Pipelined shard client: the serving tier's request engine.

:class:`~repro.apps.kvstore.KVClient` blocks on one ``read_sync`` per
probe — fine for microbenchmarks, hopeless for serving: every GET pays a
full round trip of dead core time. This client keeps a configurable
*window* of requests in flight instead and drives each as a small state
machine:

* arrivals within the window are admitted and their first probe staged;
* staged probes are posted in *doorbell batches*
  (:meth:`~repro.runtime.qp_api.RMCSession.post_batch`): one software
  issue overhead per batch instead of per request — paired with the
  RMC's ``doorbell_batch`` so the RGP also amortizes its coherent WQ
  poll;
* completions are reaped in batches
  (:meth:`~repro.runtime.qp_api.RMCSession.poll_cq_batch`); each either
  finishes its request (hit / chain end), advances it to the next probe,
  or — on an error completion (crash, eviction fencing, timeout) —
  fails it over to the next live replica and restarts its probe chain;
* latency is recorded *from the arrival time* into a
  :class:`~repro.telemetry.LogLinearHistogram`, so queueing delay under
  overload shows up in p99/p999 instead of being quietly dropped.

The request state machine mirrors :class:`FailoverKVClient` semantics
(membership-aware replica skipping, per-replica error accounting) but
over many concurrent GETs.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence

from ..apps.kvstore import (AvailabilityStats, BUCKET_BYTES, KVStats,
                            _bucket_index, _unpack_bucket)
from ..cluster.membership import is_member_live
from ..runtime.qp_api import RemoteOpFailed, RMCSession
from ..telemetry import LogLinearHistogram

__all__ = ["PipelinedShardClient"]


class _Flight:
    """One in-flight GET: probe position, replica choice, buffer slot."""

    __slots__ = ("request", "probe", "remaining", "target", "buf_slot")

    def __init__(self, request, buf_slot: int, replica_count: int):
        self.request = request
        self.probe = 0
        #: Replica indices not yet tried (failover pops from the front).
        self.remaining = list(range(replica_count))
        self.target: Optional[int] = None   # chosen index into replicas
        self.buf_slot = buf_slot


class PipelinedShardClient:
    """Open-loop GET engine for one shard over one session."""

    def __init__(self, session: RMCSession, shard: int,
                 replicas: Sequence[int], num_buckets: int,
                 table_offset: int = 0, window: int = 32,
                 batch: int = 8, max_probes: int = 16,
                 membership=None,
                 histogram: Optional[LogLinearHistogram] = None,
                 expected: Optional[Dict[int, bytes]] = None,
                 failover_stack=None):
        if not replicas:
            raise ValueError("need at least one replica")
        if window < 1 or batch < 1:
            raise ValueError("window and batch must be >= 1")
        self.session = session
        self.shard = shard
        self.replicas = list(replicas)
        self.num_buckets = num_buckets
        self.table_offset = table_offset
        self.window = window
        self.batch = batch
        self.max_probes = max_probes
        self.membership = membership
        self.histogram = histogram or LogLinearHistogram(
            name=f"shard{shard}-get")
        self.stats = KVStats()
        self.availability = AvailabilityStats()
        #: key -> expected value (when given, every GET is verified).
        self.expected = expected
        #: Deterministic final-value check: key -> last value read.
        self.values: Dict[int, Optional[bytes]] = {}
        self.wrong = 0
        self.first_arrival_ns: Optional[float] = None
        self.last_completion_ns = 0.0
        #: Opt-in multi-transport degradation: when the stack's primary
        #: channel (the soNUMA fabric itself) is unusable — or every
        #: fabric replica is exhausted — GETs are served over the best
        #: degraded channel instead of failing.
        self.failover_stack = failover_stack
        self._degraded_open = 0
        self._degraded_poll_ns = 200.0
        # One bounce line per window slot (a flight owns its slot for
        # its whole lifetime, across probes and failovers).
        self._bounce = session.alloc_buffer(BUCKET_BYTES * window)
        self._free_slots = deque(range(window))

    # -- routing --------------------------------------------------------------

    def _pick_replica(self, flight: _Flight) -> bool:
        """Choose the next live replica for ``flight``; False when the
        replica list is exhausted (the GET fails)."""
        while flight.remaining:
            index = flight.remaining.pop(0)
            nid = self.replicas[index]
            if not is_member_live(self.membership, nid):
                self.availability.evicted_skips += 1
                continue
            flight.target = index
            return True
        flight.target = None
        return False

    def _bucket_offset(self, key: int, probe: int) -> int:
        slot = (_bucket_index(key, self.num_buckets) + probe) \
            % self.num_buckets
        return self.table_offset + slot * BUCKET_BYTES

    # -- the serve loop -------------------------------------------------------

    def serve(self, requests):
        """Timed coroutine: drive the arrival stream to completion.

        ``requests`` must be sorted by ``arrival_ns`` (the loadgen
        emits them that way). Returns the number of requests served
        successfully (failures are in ``availability.gets_failed``).
        """
        from ..rmc.queues import WQEntry
        from ..protocol import Opcode

        sim = self.session.core.sim
        core = self.session.core
        arrivals = deque(requests)
        if arrivals:
            self.first_arrival_ns = arrivals[0].arrival_ns
        issue_q: deque = deque()      # flights with a probe to post
        inflight: Dict[int, _Flight] = {}   # wq_index -> flight

        def admit():
            while arrivals and arrivals[0].arrival_ns <= sim.now \
                    and self._free_slots:
                request = arrivals.popleft()
                flight = _Flight(request, self._free_slots.popleft(),
                                 len(self.replicas))
                if self.failover_stack is not None \
                        and not self.failover_stack.primary_usable():
                    # The fabric itself is dark: don't even try the
                    # replicas, serve over the degraded channel.
                    self._go_degraded(flight)
                    continue
                if not self._pick_replica(flight):
                    if not self._go_degraded(flight):
                        self._finish_failed(flight)
                    continue
                issue_q.append(flight)

        while arrivals or issue_q or inflight or self._degraded_open:
            admit()
            room = self.session.qp.wq.free_slots
            if issue_q and room:
                group: List[_Flight] = []
                entries: List[WQEntry] = []
                while issue_q and len(group) < min(room, self.batch):
                    flight = issue_q.popleft()
                    group.append(flight)
                    entries.append(WQEntry(
                        op=Opcode.RREAD,
                        dst_nid=self.replicas[flight.target],
                        offset=self._bucket_offset(flight.request.key,
                                                   flight.probe),
                        local_vaddr=self._bounce
                        + flight.buf_slot * BUCKET_BYTES,
                        length=BUCKET_BYTES))
                indices = yield from self.session.post_batch(entries)
                for flight, index in zip(group, indices):
                    inflight[index] = flight
                self.stats.probes += len(group)
                continue
            if inflight:
                completions = yield from self.session.poll_cq_batch(
                    self.batch)
                for cq_entry in completions:
                    # Per-completion software handling (state machine).
                    yield core.compute(core.config.callback_overhead_ns)
                    flight = inflight.pop(cq_entry.wq_index)
                    if cq_entry.error is not None:
                        # Crash/fencing/timeout: absorb the error and
                        # fail the whole GET over to the next replica.
                        self.session.consume_errors()
                        self.availability.replica_errors += 1
                        if self._pick_replica(flight):
                            self.availability.failovers += 1
                            flight.probe = 0
                            issue_q.append(flight)
                        elif not self._go_degraded(flight):
                            self._finish_failed(flight)
                        continue
                    raw = self.session.buffer_peek(
                        self._bounce + flight.buf_slot * BUCKET_BYTES,
                        BUCKET_BYTES)
                    found_key, value = _unpack_bucket(raw)
                    if found_key == flight.request.key:
                        self._finish_ok(flight, value)
                    elif found_key == 0 \
                            or flight.probe + 1 >= self.max_probes:
                        # Chain end: key absent.
                        self._finish_ok(flight, None)
                    else:
                        flight.probe += 1
                        issue_q.append(flight)
                continue
            if arrivals:
                # Window idle: sleep until the next arrival (or, when
                # degraded flights hold every window slot, poll for one
                # to free up).
                wait = arrivals[0].arrival_ns - sim.now
                yield sim.timeout(wait if wait > 0
                                  else self._degraded_poll_ns)
                continue
            if self._degraded_open:
                yield sim.timeout(self._degraded_poll_ns)
        return self.availability.gets_ok

    def _finish_ok(self, flight: _Flight,
                   value: Optional[bytes]) -> None:
        sim = self.session.core.sim
        self.stats.gets += 1
        if value is not None:
            self.stats.hits += 1
        if self.expected is not None \
                and value != self.expected.get(flight.request.key):
            self.wrong += 1
        self.values[flight.request.key] = value
        self.availability.gets_ok += 1
        self.histogram.record(sim.now - flight.request.arrival_ns)
        self.last_completion_ns = sim.now
        self._free_slots.append(flight.buf_slot)

    # -- degraded-mode serving (multi-transport failover) ---------------------

    def _go_degraded(self, flight: _Flight) -> bool:
        """Hand the GET to the degraded-serve coroutine; False when no
        failover stack is attached (the GET then fails as before)."""
        if self.failover_stack is None:
            return False
        self._degraded_open += 1
        sim = self.session.core.sim
        sim.process(self._serve_degraded(flight),
                    name=f"shard{self.shard}-degraded")
        return True

    def _serve_degraded(self, flight: _Flight):
        """Timed coroutine: walk the probe chain over the stack's best
        non-primary channel (RDMA/TCP model or the local mirror) against
        the primary replica's region. Completions count as served and
        as ``degraded_reads`` — availability holds, at degraded cost."""
        stack = self.failover_stack
        sim = self.session.core.sim
        nid = self.replicas[0]
        probe = 0
        attempts = 0
        budget = 2 * len(stack.transports) + self.max_probes
        try:
            while attempts < budget:
                attempts += 1
                index, transport = stack.route(
                    nid, exclude=(stack.primary_name,))
                if transport is None:
                    yield sim.timeout(self._degraded_poll_ns)
                    continue
                try:
                    raw = yield from transport.read(
                        nid,
                        self._bucket_offset(flight.request.key, probe),
                        BUCKET_BYTES)
                except RemoteOpFailed:
                    stack.note_result(index, False)
                    continue
                stack.note_result(index, True)
                found_key, value = _unpack_bucket(raw)
                if found_key == flight.request.key:
                    pass
                elif found_key != 0 and probe + 1 < self.max_probes:
                    probe += 1
                    continue
                else:
                    value = None   # chain end: key absent
                self.availability.degraded_reads += 1
                self._finish_ok(flight, value)
                return
            self._finish_failed(flight)
        finally:
            self._degraded_open -= 1

    def _finish_failed(self, flight: _Flight) -> None:
        """No live replica left: the GET fails (true unavailability)."""
        self.availability.gets_failed += 1
        self.last_completion_ns = self.session.core.sim.now
        self._free_slots.append(flight.buf_slot)

    # -- reporting ------------------------------------------------------------

    def report(self) -> dict:
        """Deterministic per-shard serving report."""
        wq = self.session.qp.wq
        served_window_ns = (self.last_completion_ns
                            - (self.first_arrival_ns or 0.0))
        served = self.availability.gets_ok
        return {
            "shard": self.shard,
            "replicas": list(self.replicas),
            "served": served,
            "failed": self.availability.gets_failed,
            "availability": self.availability.availability,
            "failovers": self.availability.failovers,
            "replica_errors": self.availability.replica_errors,
            "evicted_skips": self.availability.evicted_skips,
            "degraded_reads": self.availability.degraded_reads,
            "probes_per_get": self.stats.probes_per_get,
            "wrong": self.wrong,
            "latency": self.histogram.as_dict(),
            "doorbells": wq.doorbells,
            "posted": wq.posted_total,
            "entries_per_doorbell": (wq.posted_total / wq.doorbells
                                     if wq.doorbells else 0.0),
            "served_mops": (served / served_window_ns * 1e3
                            if served_window_ns > 0 else 0.0),
        }
