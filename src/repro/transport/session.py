"""The failover session: exactly-once one-sided ops over a stack.

:class:`TransportStack` holds the priority-ordered channels, one
:class:`~.health.HealthChecker` per channel, and the active
:class:`~.policy.FailoverPolicy`; membership gray-fail state vetoes
peer-requiring channels per destination. :class:`FailoverSession` is
the application-facing wrapper: the sync ``read``/``write`` coroutines
and a windowed async ``post``/``drain`` API route each op through the
stack, retrying across backends until exactly one typed
:class:`FailoverCompletion` exists per op.

The write path reuses the resilience op log for drain-or-replay
semantics across a backend switch:

* every write is recorded in a :class:`OneSidedWriteLog` *at issue*;
* an in-flight primary write either **drains** (the RMC's
  retransmission rides out the glitch) or error-completes, in which
  case the session **replays** it on the next usable backend — the
  completion is reported once either way;
* writes acknowledged only by a degraded backend stay pending in the
  log; on failback the session runs a **catch-up** replay of the
  pending tail onto the primary (skipping entries a later completed
  write to the same location superseded) before new ops may use it —
  so the primary's memory converges with the write-through mirror;
* the log truncates over the contiguous primary-acknowledged prefix,
  exactly the checkpoint-cut contract the oplog was built for.

Completions are typed: ``ok`` (carried by the primary), ``degraded``
(any lower-priority channel — the caller knows the answer may have
cost more or, for the local mirror, come from the write-through copy),
or ``failed`` (no usable channel within the attempt budget).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..cluster.membership import is_member_live
from ..resilience.oplog import OneSidedWriteLog
from ..runtime.qp_api import RemoteOpFailed
from ..sim import Resource
from ..telemetry import LogLinearHistogram
from .base import MemoryStore, Transport
from .health import (DegradationTimeline, HealthChecker, HealthConfig,
                     staggered)
from .policy import parse_policy

__all__ = ["TransportCounters", "FailoverCompletion", "TransportStack",
           "FailoverSession"]


@dataclass
class TransportCounters:
    """Stack-level telemetry (per-channel detail lives in the
    checkers; this is the switch/veto/replay ledger)."""

    failovers: int = 0       # switches away from a higher-priority channel
    failbacks: int = 0       # switches toward one
    vetoes: int = 0          # channels skipped on membership gray-fail
    reroutes: int = 0        # per-op retries on another channel
    replays: int = 0         # oplog writes replayed onto the primary
    catchups: int = 0        # failback catch-up passes completed

    def as_dict(self) -> dict:
        return {"failovers": self.failovers, "failbacks": self.failbacks,
                "vetoes": self.vetoes, "reroutes": self.reroutes,
                "replays": self.replays, "catchups": self.catchups}


@dataclass(frozen=True)
class FailoverCompletion:
    """One op's terminal record — exactly one exists per op id."""

    op_id: int
    kind: str                 # "read" | "write"
    dst_nid: int
    offset: int
    length: int
    transport: Optional[str]  # channel that carried it (None if failed)
    status: str               # "ok" | "degraded" | "failed"
    attempts: int
    issued_ns: float
    completed_ns: float

    def as_dict(self) -> dict:
        return {"op_id": self.op_id, "kind": self.kind,
                "dst_nid": self.dst_nid, "offset": self.offset,
                "length": self.length, "transport": self.transport,
                "status": self.status, "attempts": self.attempts,
                "issued_ns": self.issued_ns,
                "completed_ns": self.completed_ns}


class _Op:
    __slots__ = ("op_id", "kind", "dst_nid", "offset", "length", "data",
                 "seq", "attempts", "issued_ns", "on_data")

    def __init__(self, op_id: int, kind: str, dst_nid: int, offset: int,
                 length: int, data: Optional[bytes]):
        self.op_id = op_id
        self.kind = kind
        self.dst_nid = dst_nid
        self.offset = offset
        self.length = length
        self.data = data
        self.seq: Optional[int] = None   # oplog seq (writes)
        self.attempts = 0
        self.issued_ns = 0.0
        self.on_data = None              # posted reads: data callback


class TransportStack:
    """Priority-ordered channels + health + policy + membership veto."""

    def __init__(self, sim, transports: Sequence[Transport],
                 policy="hysteresis", membership=None,
                 health: Optional[HealthConfig] = None,
                 timeline: Optional[DegradationTimeline] = None):
        if not transports:
            raise ValueError("need at least one transport")
        self.sim = sim
        self.transports = list(transports)
        self.policy = parse_policy(policy)
        self.membership = membership
        self.timeline = timeline if timeline is not None \
            else DegradationTimeline()
        base = health or HealthConfig()
        self.checkers = [
            HealthChecker(sim, t, staggered(base, i, len(self.transports)),
                          timeline=self.timeline,
                          on_change=self._health_changed)
            for i, t in enumerate(self.transports)]
        self.active = 0
        self.counters = TransportCounters()
        #: Callbacks ``fn(old_name, new_name)`` fired on every switch.
        self.on_switch: List = []

    # -- naming --------------------------------------------------------------

    @property
    def primary_name(self) -> str:
        return self.transports[0].name

    @property
    def active_name(self) -> str:
        return self.transports[self.active].name

    def primary_usable(self) -> bool:
        """Whether the priority-0 channel may carry traffic right now
        (the serving tier's fast-path gate)."""
        return self.checkers[0].usable

    # -- probing -------------------------------------------------------------

    def peer_alive(self, dst_nid: int) -> bool:
        """The membership veto, as one predicate: without a control
        plane every peer counts as alive."""
        return is_member_live(self.membership, dst_nid)

    def start_probes(self, peers: Sequence[int], until_ns: float) -> None:
        """Start every channel's probe loop (staggered phases), bounded
        by ``until_ns`` so runs quiesce. Evicted peers drop out of the
        rotation — endless probes at a dead node would keep every
        fabric channel DEGRADED for the live ones."""
        for checker in self.checkers:
            checker.start(peers, until_ns, peer_alive=self.peer_alive)

    # -- selection -----------------------------------------------------------

    def _health_changed(self) -> None:
        self.reselect("health")

    def reselect(self, reason: str) -> bool:
        """Re-run the policy; returns True when the active channel
        switched (timeline + counters record it)."""
        index = self.policy.select(self.sim.now, self.checkers,
                                   self.active)
        if index == self.active:
            return False
        old, new = self.active_name, self.transports[index].name
        direction = "failback" if index < self.active else "failover"
        if direction == "failback":
            self.counters.failbacks += 1
        else:
            self.counters.failovers += 1
        self.timeline.record(self.sim.now, "switch", frm=old, to=new,
                             direction=direction, reason=reason)
        self.active = index
        for callback in self.on_switch:
            callback(old, new)
        return True

    def route(self, dst_nid: int,
              exclude: Tuple[str, ...] = ()) -> Tuple[Optional[int],
                                                      Optional[Transport]]:
        """Channel for one op toward ``dst_nid``: the active channel if
        eligible, else the best other — honoring health, the exclusion
        list, and the membership veto (peer-requiring channels are
        useless toward a node the control plane has declared dead)."""
        order = [self.active] + [i for i in range(len(self.transports))
                                 if i != self.active]
        for index in order:
            transport = self.transports[index]
            if transport.name in exclude:
                continue
            if not self.checkers[index].usable:
                continue
            if transport.requires_peer and not self.peer_alive(dst_nid):
                self.counters.vetoes += 1
                continue
            return index, transport
        return None, None

    def note_result(self, index: int, ok: bool) -> None:
        """Data-path feedback into the channel's health score; errors
        also re-run the policy immediately."""
        self.checkers[index].note_op(ok)
        if not ok:
            self.reselect("op-error")

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        return {
            "active": self.active_name,
            "policy": self.policy.name,
            "counters": self.counters.as_dict(),
            "channels": {c.name: c.stats() for c in self.checkers},
            "ops": {t.name: t.stats() for t in self.transports},
        }


class FailoverSession:
    """Exactly-once one-sided session over a :class:`TransportStack`."""

    def __init__(self, sim, stack: TransportStack,
                 oplog: Optional[OneSidedWriteLog] = None,
                 mirror: Optional[MemoryStore] = None,
                 window: int = 8,
                 max_attempts: Optional[int] = None,
                 retry_gap_ns: float = 1_000.0,
                 poll_ns: float = 500.0,
                 histogram: Optional[LogLinearHistogram] = None):
        self.sim = sim
        self.stack = stack
        self.oplog = oplog or OneSidedWriteLog()
        self.mirror = mirror
        self.window = window
        self._window = Resource(sim, window, name="failover-window")
        self.max_attempts = max_attempts \
            or 4 * len(stack.transports) + 4
        self.retry_gap_ns = retry_gap_ns
        self.poll_ns = poll_ns
        self.histogram = histogram or LogLinearHistogram(name="failover")
        self.completions: List[FailoverCompletion] = []
        self.completed_ids: Set[int] = set()
        self.duplicate_completions = 0
        self.by_status: Dict[str, int] = {"ok": 0, "degraded": 0,
                                          "failed": 0}
        self.by_transport: Dict[str, int] = {}
        self.ops_issued = 0
        self._next_op_id = 0
        self._open = 0
        #: (dst, offset) -> seq of the latest *completed* write there —
        #: the catch-up staleness guard.
        self._last_write_seq: Dict[Tuple[int, int], int] = {}
        #: Per-dst primary-acked seqs not yet covered by truncation.
        self._acked: Dict[int, Set[int]] = {}
        #: Seqs of writes still being driven — the catch-up must wait
        #: for their verdict rather than treat them as failed.
        self._inflight_seqs: Set[int] = set()
        self._dirty_dsts: Set[int] = set()
        self.catching_up = False
        stack.on_switch.append(self._switched)

    # -- public API ----------------------------------------------------------

    def read(self, dst_nid: int, offset: int, length: int):
        """Timed coroutine: failover read. Returns ``(data,
        completion)``; raises :class:`RemoteOpFailed` only after the
        whole stack is exhausted (the ``failed`` completion is still
        recorded first)."""
        op = self._make_op("read", dst_nid, offset, length, None)
        return (yield from self._drive(op))

    def write(self, dst_nid: int, offset: int, data: bytes):
        """Timed coroutine: failover write; returns the completion."""
        op = self._make_op("write", dst_nid, offset, len(data),
                           bytes(data))
        return (yield from self._drive(op))

    def post(self, kind: str, dst_nid: int, offset: int,
             length: int = 0, data: Optional[bytes] = None,
             on_data=None):
        """Timed coroutine: admit one op into the window (blocks while
        the window is full) and drive it in the background. Returns the
        op id; the terminal record lands in :attr:`completions`.
        Posted reads deliver their bytes via ``on_data(op_id, data)``.
        """
        if kind == "write":
            if data is None:
                raise ValueError("write needs data")
            length = len(data)
        yield self._window.acquire()
        op = self._make_op(kind, dst_nid, offset, length,
                           bytes(data) if data is not None else None)
        op.on_data = on_data
        self._open += 1
        self.sim.process(self._run_posted(op),
                         name=f"failover.op{op.op_id}")
        return op.op_id

    def drain(self):
        """Timed coroutine: wait until every posted op has completed."""
        while self._open:
            yield self.sim.timeout(self.poll_ns)

    # -- op engine -----------------------------------------------------------

    def _make_op(self, kind, dst_nid, offset, length, data) -> _Op:
        op = _Op(self._next_op_id, kind, dst_nid, offset, length, data)
        self._next_op_id += 1
        return op

    def _run_posted(self, op: _Op):
        try:
            result = yield from self._drive(op)
            if op.kind == "read" and op.on_data is not None:
                op.on_data(op.op_id, result[0])
        except RemoteOpFailed:
            pass       # the "failed" completion carries the verdict
        finally:
            self._open -= 1
            self._window.release()

    def _drive(self, op: _Op):
        op.issued_ns = self.sim.now
        self.ops_issued += 1
        if op.kind == "write":
            entry = self.oplog.record(op.dst_nid, op.offset, op.data,
                                      self.sim.now)
            op.seq = entry.seq
            self._inflight_seqs.add(op.seq)
            self._dirty_dsts.add(op.dst_nid)
        last_error: Optional[RemoteOpFailed] = None
        used_indices: Set[int] = set()
        while op.attempts < self.max_attempts:
            # While a failback catch-up is replaying the degraded-era
            # write tail, new ops must not overtake it onto the primary
            # (a stale replay could land after a fresher write).
            exclude = ((self.stack.primary_name,)
                       if self.catching_up else ())
            index, transport = self.stack.route(op.dst_nid,
                                                exclude=exclude)
            op.attempts += 1
            if transport is None:
                yield self.sim.timeout(self.retry_gap_ns)
                continue
            if used_indices and index not in used_indices:
                self.stack.counters.reroutes += 1
            used_indices.add(index)
            try:
                if op.kind == "read":
                    data = yield from transport.read(op.dst_nid,
                                                     op.offset,
                                                     op.length)
                else:
                    yield from transport.write(op.dst_nid, op.offset,
                                               op.data)
            except RemoteOpFailed as exc:
                last_error = exc
                self.stack.note_result(index, False)
                continue
            self.stack.note_result(index, True)
            if op.kind == "write":
                self._write_completed(op, index)
            status = "ok" if index == 0 else "degraded"
            completion = self._complete(op, transport.name, status)
            if op.kind == "read":
                return data, completion
            return completion
        if op.seq is not None:
            self._inflight_seqs.discard(op.seq)
        self._complete(op, None, "failed")
        raise last_error if last_error is not None \
            else RemoteOpFailed(-1, "no usable transport")

    def _complete(self, op: _Op, transport: Optional[str],
                  status: str) -> FailoverCompletion:
        if op.op_id in self.completed_ids:
            self.duplicate_completions += 1
        self.completed_ids.add(op.op_id)
        completion = FailoverCompletion(
            op_id=op.op_id, kind=op.kind, dst_nid=op.dst_nid,
            offset=op.offset, length=op.length, transport=transport,
            status=status, attempts=op.attempts,
            issued_ns=op.issued_ns, completed_ns=self.sim.now)
        self.completions.append(completion)
        self.by_status[status] += 1
        if transport is not None:
            self.by_transport[transport] = \
                self.by_transport.get(transport, 0) + 1
        self.histogram.record(self.sim.now - op.issued_ns)
        return completion

    # -- write bookkeeping / catch-up ----------------------------------------

    def _write_completed(self, op: _Op, index: int) -> None:
        self._inflight_seqs.discard(op.seq)
        previous = self._last_write_seq.get((op.dst_nid, op.offset))
        if previous is None or op.seq > previous:
            self._last_write_seq[(op.dst_nid, op.offset)] = op.seq
        if self.mirror is not None:
            self.mirror.write(op.dst_nid, op.offset, op.data)
        if index == 0:
            self._ack_primary(op.dst_nid, op.seq)

    def _ack_primary(self, dst_nid: int, seq: int) -> None:
        """The primary holds this write; truncate the oplog over the
        contiguous acked prefix (the checkpoint-cut contract)."""
        acked = self._acked.setdefault(dst_nid, set())
        acked.add(seq)
        upto = None
        for entry in self.oplog.pending(dst_nid):
            if entry.seq in acked:
                upto = entry.seq
            else:
                break
        if upto is not None:
            self.oplog.truncate(dst_nid, upto_seq=upto)
            self._acked[dst_nid] = {s for s in acked if s > upto}

    def _switched(self, old_name: str, new_name: str) -> None:
        if new_name != self.stack.primary_name or self.catching_up:
            return
        if not any(self.oplog.pending(dst) for dst in self._dirty_dsts):
            return
        self.catching_up = True
        self.sim.process(self._catch_up(), name="failover.catchup")

    def _catch_up(self):
        """Failback replay: push the pending (degraded-era) write tail
        onto the primary, oldest first, skipping entries superseded by
        a later completed write to the same location. Re-snapshots
        until the pending set is drained, since ops admitted during the
        catch-up still complete on degraded channels."""
        primary = self.stack.transports[0]
        replayed = 0
        try:
            while True:
                remaining = []
                for dst in sorted(self._dirty_dsts):
                    if not self.stack.peer_alive(dst):
                        # Evicted peer: its tail stays pending (the
                        # mirror is its only store) — replaying it
                        # would just re-poison the fabric's health.
                        continue
                    acked = self._acked.setdefault(dst, set())
                    remaining.extend(
                        (dst, e) for e in self.oplog.pending(dst)
                        if e.seq not in acked)
                if not remaining:
                    return
                advanced = False
                for dst, entry in remaining:
                    if self.stack.active != 0 \
                            or not self.stack.checkers[0].usable:
                        return   # primary lost again: next failback
                    if entry.seq in self._inflight_seqs:
                        continue   # verdict not in yet: wait it out
                    advanced = True
                    latest = self._last_write_seq.get(
                        (dst, entry.offset))
                    if latest != entry.seq:
                        # Superseded by a later completed write (or the
                        # op failed outright): never lands on the
                        # primary, drop it from the pending tail.
                        self._ack_primary(dst, entry.seq)
                        continue
                    try:
                        yield from primary.write(dst, entry.offset,
                                                 entry.data)
                    except RemoteOpFailed:
                        self.stack.note_result(0, False)
                        return
                    self.stack.note_result(0, True)
                    self.oplog.records_replayed += 1
                    replayed += 1
                    self._ack_primary(dst, entry.seq)
                if not advanced:
                    # Only in-flight ops remain: let them settle.
                    yield self.sim.timeout(self.poll_ns)
        finally:
            self.catching_up = False
            self.stack.counters.replays += replayed
            self.stack.counters.catchups += 1
            self.stack.timeline.record(self.sim.now, "catchup",
                                       replayed=replayed)

    # -- observability -------------------------------------------------------

    def pending_total(self) -> int:
        """Oplog entries not yet covered by a primary ack."""
        return sum(len(self.oplog.pending(dst))
                   for dst in self._dirty_dsts)

    def exactly_once(self) -> dict:
        """The invariant the chaos tests pin: one completion per op."""
        return {
            "issued": self.ops_issued,
            "completed": len(self.completions),
            "distinct": len(self.completed_ids),
            "duplicates": self.duplicate_completions,
            "lost": self.ops_issued - len(self.completed_ids),
        }

    def stats(self) -> dict:
        return {
            "by_status": dict(self.by_status),
            "by_transport": {k: self.by_transport[k]
                             for k in sorted(self.by_transport)},
            "exactly_once": self.exactly_once(),
            "oplog": {
                "logged": self.oplog.records_logged,
                "replayed": self.oplog.records_replayed,
                "truncated": self.oplog.records_truncated,
                "pending": self.pending_total(),
            },
            "latency": self.histogram.as_dict(),
        }
