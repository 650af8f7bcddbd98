"""The RMC access library (paper §5.2).

"The QPs are accessed via a lightweight API, a set of C/C++ inline
functions that issue remote memory commands and synchronize by polling
the completion queue. We expose a synchronous (blocking) and an
asynchronous (non-blocking) set of functions for both reads and writes."

This module is the Python rendering of that API. An :class:`RMCSession`
binds one application thread (a core) to one QP; its methods are timed
coroutines run inside the simulation:

* ``read_sync`` / ``write_sync`` — blocking one-sided operations;
* ``read_async`` / ``write_async`` — the Split-C-like asynchronous API
  of Fig. 4: post now, run a callback when the CQ reports completion;
* ``wait_for_slot`` — process CQ events until the WQ has a free slot
  (the paper's ``rmc_wait_for_slot``);
* ``drain_cq`` — wait for all outstanding operations (``rmc_drain_cq``);
* ``fetch_add_sync`` / ``compare_swap_sync`` — remote atomics, executed
  within the destination node's coherence hierarchy (§5.2).

Timing faithfully includes the software overhead per request — the very
overhead that caps per-core operation rate at ~10 M ops/s (§7.5) — plus
the coherent WQ/CQ line accesses shared with the RMC.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..node.core import Core
from ..protocol import Opcode
from ..rmc.context import ContextEntry
from ..rmc.queues import CQEntry, QueuePair, WQEntry
from ..vm.address import PAGE_SIZE

__all__ = ["RemoteOpError", "RemoteOpFailed", "RMCSession"]


#: Marker callback registered by synchronous operations: their
#: completion is stored for the waiting coroutine instead of being
#: dispatched. Fire-and-forget async posts (callback=None) are *never*
#: stored — a stale stored completion under a recycled WQ index would
#: satisfy a later synchronous wait prematurely.
_SYNC_WAITER = object()


class RemoteOpFailed(RuntimeError):
    """A remote operation completed with an error status delivered
    through the CQ — a segment violation (§4.2) or a reliability-layer
    ``timeout`` after the RMC exhausted its retransmission budget."""

    def __init__(self, wq_index: int, error: str):
        super().__init__(f"remote operation in WQ slot {wq_index} "
                         f"failed: {error}")
        self.wq_index = wq_index
        self.error = error


#: Backward-compatible alias (the original name of the exception).
RemoteOpError = RemoteOpFailed


class RMCSession:
    """One thread's handle on a QP: issue operations, poll completions."""

    def __init__(self, core: Core, qp: QueuePair, ctx: ContextEntry):
        if qp.ctx_id != ctx.ctx_id:
            raise ValueError("QP and context entry do not match")
        self.core = core
        self.qp = qp
        self.ctx = ctx
        self.space = ctx.address_space
        # wq_index -> (callback, sync_token) for posted operations.
        self._callbacks: Dict[int, Tuple[Optional[Callable], object]] = {}
        # sync token -> CQEntry for completions reaped before their
        # waiter resumed. Keyed by a monotonic token, NOT the wq_index:
        # the WQ slot is released the moment the completion is reaped,
        # so a concurrent coroutine can repost into the same index and
        # would otherwise satisfy its wait with the previous op's entry.
        self._finished: Dict[int, CQEntry] = {}
        self._sync_seq = 0
        # wq_index -> WQEntry for every operation still outstanding
        # (reliability: reset() returns these so reads can be replayed).
        self._posted: Dict[int, WQEntry] = {}
        #: CQ entries that reported errors (observable by applications).
        self.errors: list = []
        #: Destinations that have produced at least one error completion
        #: (messaging uses this to break spin loops on dead peers).
        self.failed_peers: Set[int] = set()
        self.ops_issued = 0
        self.ops_completed = 0
        #: Optional transparent one-sided write log (resilience): when
        #: attached, every remote write records (dst, offset, payload)
        #: at post time so a restarted peer can be caught up by replay.
        self.write_log = None

    # -- buffers ------------------------------------------------------------

    def alloc_buffer(self, size: int) -> int:
        """Allocate a pinned local buffer in this context's space."""
        return self.space.allocate(size, pinned=True)

    def buffer_write(self, vaddr: int, data: bytes):
        """Timed local write into a buffer (app-side data preparation)."""
        return self.core.mem_write(self.space, vaddr, data)

    def buffer_read(self, vaddr: int, length: int):
        """Timed local read of a buffer (app-side result consumption)."""
        return self.core.mem_read(self.space, vaddr, length)

    def buffer_poke(self, vaddr: int, data: bytes) -> None:
        """Untimed functional buffer write (test/setup convenience)."""
        position = 0
        while position < len(data):
            room = PAGE_SIZE - ((vaddr + position) % PAGE_SIZE)
            span = min(len(data) - position, room)
            paddr = self.space.translate(vaddr + position)
            self.core.port.write_bytes(paddr, data[position:position + span])
            position += span

    def buffer_peek(self, vaddr: int, length: int) -> bytes:
        """Untimed functional buffer read (test/verify convenience)."""
        if 0 < length <= PAGE_SIZE - vaddr % PAGE_SIZE:
            # Within one page, as every messaging slot poll is.
            return self.core.port.read_bytes(self.space.translate(vaddr),
                                             length)
        out = bytearray()
        while len(out) < length:
            room = PAGE_SIZE - ((vaddr + len(out)) % PAGE_SIZE)
            span = min(length - len(out), room)
            paddr = self.space.translate(vaddr + len(out))
            out += self.core.port.read_bytes(paddr, span)
        return bytes(out)

    def attach_write_log(self, log) -> None:
        """Attach a :class:`~repro.resilience.oplog.OneSidedWriteLog`:
        from now on every remote write issued through this session is
        transparently recorded (uncoordinated-recovery support).
        Pass ``None`` to detach."""
        self.write_log = log

    def _log_write(self, dst_nid: int, offset: int, local_vaddr: int,
                   length: int) -> None:
        if self.write_log is not None:
            self.write_log.record(dst_nid, offset,
                                  self.buffer_peek(local_vaddr, length),
                                  self.core.sim.now)

    # -- asynchronous API (Fig. 4) -------------------------------------------

    def wait_for_slot(self, callback: Optional[Callable] = None):
        """Timed coroutine: process CQ events until the WQ has room.

        Returns the number of free slots (>= 1). ``callback(cq_entry)``
        runs for every completion processed while waiting, mirroring
        ``rmc_wait_for_slot(qp, pagerank_async)``.
        """
        while not self.qp.wq.can_post():
            yield from self._poll_cq_once(callback)
        return self.qp.wq.free_slots

    def read_async(self, dst_nid: int, offset: int, local_vaddr: int,
                   length: int, callback: Optional[Callable] = None):
        """Timed coroutine: post a non-blocking remote read.

        Requires a free WQ slot (use :meth:`wait_for_slot`). Returns the
        WQ slot index.
        """
        return (yield from self._post(
            WQEntry(op=Opcode.RREAD, dst_nid=dst_nid, offset=offset,
                    local_vaddr=local_vaddr, length=length), callback))

    def write_async(self, dst_nid: int, offset: int, local_vaddr: int,
                    length: int, callback: Optional[Callable] = None):
        """Timed coroutine: post a non-blocking remote write."""
        self._log_write(dst_nid, offset, local_vaddr, length)
        return (yield from self._post(
            WQEntry(op=Opcode.RWRITE, dst_nid=dst_nid, offset=offset,
                    local_vaddr=local_vaddr, length=length), callback))

    def drain_cq(self, callback: Optional[Callable] = None):
        """Timed coroutine: wait until no operations remain outstanding,
        running ``callback`` for each completion (``rmc_drain_cq``)."""
        while self.qp.outstanding() > 0:
            yield from self._poll_cq_once(callback)

    def poll_once(self, callback: Optional[Callable] = None):
        """Timed coroutine: one CQ polling sweep; returns the reaped
        completion (or None). Lets higher-level stall loops (e.g. the
        messaging credit wait) observe error completions — and thereby
        peer failure — while they spin on something else."""
        return (yield from self._poll_cq_once(callback))

    # -- batched fast path (serving tier) --------------------------------------

    def post_batch(self, entries, callback: Optional[Callable] = None):
        """Timed coroutine: post several WQ entries under ONE doorbell.

        The software issue overhead — the dominant per-op cost that caps
        a core at ~10 M ops/s (§7.5) — is charged once for the whole
        batch (prepare + a single doorbell write); each entry still pays
        its coherent WQ slot store. Paired with
        :attr:`~repro.rmc.rmc.RMCConfig.doorbell_batch` on the RMC side,
        this is the serving tier's batching fast path. Requires free WQ
        slots for every entry (callers size batches by
        ``qp.wq.free_slots``). Returns the slot indices in posting
        order.
        """
        if not entries:
            return []
        if self.qp.halted:
            raise RemoteOpFailed(-1, "rmc_halted")
        if len(entries) > self.qp.wq.free_slots:
            raise RuntimeError(
                f"WQ lacks room for a {len(entries)}-entry batch: "
                "reap completions first")
        yield self.core.compute(self.core.config.issue_overhead_ns)
        indices = []
        for entry in entries:
            if entry.op in (Opcode.RWRITE, Opcode.RNOTIFY):
                self._log_write(entry.dst_nid, entry.offset,
                                entry.local_vaddr, entry.length)
            # Each staged WQ slot is still a coherent store the RMC
            # later reads; only the doorbell is shared.
            slot_vaddr = self.qp.wq.slot_vaddr(self.qp.wq.next_free())
            yield from self.core.touch(self.space, slot_vaddr,
                                       is_write=True)
            index = self.qp.wq.place(entry)
            self._callbacks[index] = (callback, None)
            self._posted[index] = entry
            self.ops_issued += 1
            indices.append(index)
        self.qp.wq.ring_doorbell()
        return indices

    def poll_cq_batch(self, max_reap: int,
                      callback: Optional[Callable] = None):
        """Timed coroutine: one polling sweep that reaps up to
        ``max_reap`` ready completions.

        The software poll overhead is charged once per sweep; every
        reaped completion still pays its coherent CQ slot load. Error
        completions are *returned* (and recorded in :attr:`errors`) so
        pipelined callers can observe per-request failures; completions
        belonging to a synchronous waiter are routed to it and not
        returned. Returns a (possibly empty) list of
        :class:`~repro.rmc.queues.CQEntry`.
        """
        if self.qp.halted:
            raise RemoteOpFailed(-1, "rmc_halted")
        yield self.core.compute(self.core.config.poll_overhead_ns)
        reaped: List[CQEntry] = []
        while len(reaped) < max_reap:
            slot_vaddr = self.qp.cq.slot_vaddr(self.qp.cq.read_index)
            yield from self.core.touch(self.space, slot_vaddr)
            cq_entry = self.qp.cq.poll()
            if cq_entry is None:
                break
            self.qp.cq.reap()
            self.qp.wq.release_slot(cq_entry.wq_index)
            self.ops_completed += 1
            posted = self._posted.pop(cq_entry.wq_index, None)
            if cq_entry.error is not None:
                self.errors.append(cq_entry)
                if posted is not None:
                    self.failed_peers.add(posted.dst_nid)
            registered, token = self._callbacks.pop(cq_entry.wq_index,
                                                    (None, None))
            if registered is _SYNC_WAITER:
                # A synchronous operation on this session owns it.
                self._finished[token] = cq_entry
                continue
            chosen = registered if registered is not None else callback
            if chosen is not None and cq_entry.error is None:
                yield self.core.compute(
                    self.core.config.callback_overhead_ns)
                chosen(cq_entry)
            reaped.append(cq_entry)
        return reaped

    # -- synchronous API -------------------------------------------------------

    def read_sync(self, dst_nid: int, offset: int, local_vaddr: int,
                  length: int):
        """Timed coroutine: remote read; returns when data is in the
        local buffer. Raises :class:`RemoteOpError` on error replies."""
        token = yield from self._post_sync(
            WQEntry(op=Opcode.RREAD, dst_nid=dst_nid, offset=offset,
                    local_vaddr=local_vaddr, length=length))
        yield from self._wait_completion(token)

    def write_sync(self, dst_nid: int, offset: int, local_vaddr: int,
                   length: int):
        """Timed coroutine: remote write; returns when acknowledged."""
        self._log_write(dst_nid, offset, local_vaddr, length)
        token = yield from self._post_sync(
            WQEntry(op=Opcode.RWRITE, dst_nid=dst_nid, offset=offset,
                    local_vaddr=local_vaddr, length=length))
        yield from self._wait_completion(token)

    def fetch_add_sync(self, dst_nid: int, offset: int, local_vaddr: int,
                       addend: int):
        """Timed coroutine: remote fetch-and-add on a u64; returns the
        value *before* the addition."""
        token = yield from self._post_sync(
            WQEntry(op=Opcode.RFETCH_ADD, dst_nid=dst_nid, offset=offset,
                    local_vaddr=local_vaddr, length=8, operand=addend))
        yield from self._wait_completion(token)
        return int.from_bytes(self.buffer_peek(local_vaddr, 8), "little")

    def notify_sync(self, dst_nid: int, local_vaddr: int, length: int):
        """Timed coroutine: send a remote notification (§8 extension).

        The payload (up to one line at ``local_vaddr``) is delivered to
        the destination driver's notification queue and raises a modeled
        interrupt there — no polling at the receiver. Raises
        :class:`RemoteOpError` (``notify_rejected``) if the destination
        has no queue registered or it is full.
        """
        token = yield from self._post_sync(
            WQEntry(op=Opcode.RNOTIFY, dst_nid=dst_nid, offset=0,
                    local_vaddr=local_vaddr, length=length))
        yield from self._wait_completion(token)

    def compare_swap_sync(self, dst_nid: int, offset: int, local_vaddr: int,
                          compare: int, swap: int):
        """Timed coroutine: remote compare-and-swap on a u64; returns the
        observed old value (swap succeeded iff it equals ``compare``)."""
        token = yield from self._post_sync(
            WQEntry(op=Opcode.RCOMP_SWAP, dst_nid=dst_nid, offset=offset,
                    local_vaddr=local_vaddr, length=8, operand=swap,
                    compare=compare))
        yield from self._wait_completion(token)
        return int.from_bytes(self.buffer_peek(local_vaddr, 8), "little")

    # -- failure recovery ------------------------------------------------------

    def consume_errors(self) -> List[CQEntry]:
        """Return and clear the accumulated error completions.

        ``failed_peers`` is cleared too: consuming the errors is the
        application declaring it has handled them (e.g. after a link
        was restored and the peer is reachable again).
        """
        errors, self.errors = self.errors, []
        self.failed_peers.clear()
        return errors

    def reset(self) -> List[WQEntry]:
        """Recovery path after a fabric failure: clear the QP rings and
        session bookkeeping; returns the WQ entries that were still
        outstanding so the application can decide what to replay.

        Pair with ``driver.reset_rmc()`` (which aborts the ITT side);
        then :meth:`replay` can re-drive idempotent operations.
        """
        pending = [self._posted[index] for index in sorted(self._posted)]
        self._posted.clear()
        self._callbacks.clear()
        self._finished.clear()
        self.qp.wq.reset()
        self.qp.cq.reset()
        return pending

    def replay(self, entries):
        """Timed coroutine: re-issue ``entries`` (from :meth:`reset`)
        synchronously. Only reads are replayed automatically — they are
        idempotent; writes/atomics may have executed remotely before the
        failure, so re-driving them is an application decision. Returns
        the number of operations replayed."""
        replayed = 0
        for entry in entries:
            if entry.op is not Opcode.RREAD:
                continue
            yield from self.wait_for_slot()
            token = yield from self._post_sync(entry)
            yield from self._wait_completion(token)
            replayed += 1
        return replayed

    # -- internals -------------------------------------------------------------

    def _post(self, entry: WQEntry, callback: Optional[Callable]):
        """Charge the software issue path and place the WQ entry."""
        if self.qp.halted:
            raise RemoteOpFailed(-1, "rmc_halted")
        if not self.qp.wq.can_post():
            raise RuntimeError(
                "WQ full: call wait_for_slot() before posting")
        yield self.core.compute(self.core.config.issue_overhead_ns)
        # The WQ slot write is a coherent store the RMC will later read.
        slot_vaddr = self.qp.wq.slot_vaddr(self.qp.wq.next_free())
        yield from self.core.touch(self.space, slot_vaddr, is_write=True)
        index = self.qp.wq.post(entry)
        if callback is _SYNC_WAITER:
            self._sync_seq += 1
            self._callbacks[index] = (callback, self._sync_seq)
        else:
            self._callbacks[index] = (callback, None)
        self._posted[index] = entry
        self.ops_issued += 1
        return index

    def _post_sync(self, entry: WQEntry):
        """Post with a sync waiter registered; returns the completion
        token to pass to :meth:`_wait_completion`."""
        index = yield from self._post(entry, _SYNC_WAITER)
        return self._callbacks[index][1]

    def _poll_cq_once(self, callback: Optional[Callable] = None):
        """One CQ polling loop iteration (software + coherent load).

        On a halted (crashed) RMC the poll raises ``rmc_halted`` instead
        of spinning: the pipelines will never complete anything again, so
        a waiting coroutine would otherwise burn simulated cycles forever
        and the simulation would never terminate."""
        if self.qp.halted:
            raise RemoteOpFailed(-1, "rmc_halted")
        yield self.core.compute(self.core.config.poll_overhead_ns)
        slot_vaddr = self.qp.cq.slot_vaddr(self.qp.cq.read_index)
        yield from self.core.touch(self.space, slot_vaddr)
        cq_entry = self.qp.cq.poll()
        if cq_entry is None:
            return None
        self.qp.cq.reap()
        self.qp.wq.release_slot(cq_entry.wq_index)
        self.ops_completed += 1
        posted = self._posted.pop(cq_entry.wq_index, None)
        if cq_entry.error is not None:
            self.errors.append(cq_entry)
            if posted is not None:
                self.failed_peers.add(posted.dst_nid)
        registered, token = self._callbacks.pop(cq_entry.wq_index,
                                                (None, None))
        if registered is _SYNC_WAITER:
            # A synchronous operation is (or will be) spinning for this
            # exact completion.
            self._finished[token] = cq_entry
            return cq_entry
        chosen = registered if registered is not None else callback
        if chosen is not None and cq_entry.error is None:
            yield self.core.compute(self.core.config.callback_overhead_ns)
            chosen(cq_entry)
        return cq_entry

    def _wait_completion(self, token: int):
        """Spin on the CQ until the sync op holding ``token`` completes."""
        while token not in self._finished:
            yield from self._poll_cq_once()
        cq_entry = self._finished.pop(token)
        if cq_entry.error is not None:
            raise RemoteOpError(cq_entry.wq_index, cq_entry.error)
