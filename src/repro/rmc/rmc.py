"""The Remote Memory Controller (RMC).

"The foundational component of soNUMA is the RMC, an architectural block
that services remote memory accesses originating at the local node, as
well as incoming requests from remote nodes. The RMC integrates into the
processor's coherence hierarchy via a private L1 cache and communicates
with the application threads via memory-mapped queues." (§4)

Three decoupled pipelines (Fig. 3):

* **RGP** (Request Generation Pipeline) polls registered WQs, assigns a
  tid per new WQ entry, unrolls multi-line requests into line-sized
  packets (reading local memory for writes/atomic operands), and injects
  them into the NI's request lane.
* **RRPP** (Remote Request Processing Pipeline) serves incoming requests
  *statelessly*: CT lookup (via the CT$), bounds check against the
  context segment, virtual-address computation and translation, the
  memory operation itself, and exactly one reply per request.
* **RCP** (Request Completion Pipeline) consumes replies, deposits read
  payloads into the local buffer, counts line completions in the ITT,
  and writes the CQ entry when the last line of a WQ request completes.

Each pipeline supports multiple transactions in flight; memory accesses
from all three are funneled through the shared, 32-entry MAQ.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..fabric.ni import NetworkInterface
from ..memory.hierarchy import AgentPort
from ..protocol import (
    Opcode,
    PING_TID,
    ReplyPacket,
    ReplyStatus,
    RequestPacket,
    VirtualLane,
)
from ..sim import Counter, Simulator, WakeSignal
from ..vm.address import CACHE_LINE_SIZE
from ..vm.address_space import SegmentViolation
from .context import ContextCache, ContextEntry, ContextTable
from .itt import InflightTransactionTable
from .mmu import MMUConfig, RMCMMU
from .queues import CQEntry, QueuePair, WQEntry

__all__ = ["RMCConfig", "RMC", "PING_TID"]

_U64_MASK = (1 << 64) - 1
# PING_TID (re-exported here for compatibility) lives in the protocol
# layer now: the NI needs it too, to exempt probes from epoch fencing.
# ITT tids are 0..itt_entries-1 (at most 64 by default), so the probe
# traffic can never collide with a tracked transaction.


@dataclass(frozen=True)
class RMCConfig:
    """RMC microarchitecture parameters (Table 1 defaults).

    The four ``*_overhead_ns`` knobs are zero for the hardwired RMC; the
    development-platform emulation (RMCemu, §7.1) sets them to software
    per-operation costs, turning the same pipelines into the
    kernel-thread implementation whose unrolling becomes the bottleneck
    for large requests (§7.2: "the RMC emulation module becomes the
    performance bottleneck as it unrolls large WQ requests").
    """

    itt_entries: int = 64
    ct_cache_entries: int = 8
    #: One pipeline stage of combinational work (a 2 GHz cycle).
    pipeline_cycle_ns: float = 0.5
    #: Back-off between empty WQ polling sweeps.
    idle_poll_ns: float = 2.0
    #: Doorbell batching: how many WQ entries one timed slot poll may
    #: hand to the RGP. 1 is the paper's per-request hand-off; larger
    #: values amortize the coherent WQ poll across a batch posted under
    #: a single doorbell (the serving tier's fast path). The default
    #: preserves the pre-batching event timeline bit for bit.
    doorbell_batch: int = 1
    #: Software cost to pick up one WQ request (0 for hardware).
    request_overhead_ns: float = 0.0
    #: Software cost per unrolled line at the source (serialized).
    unroll_overhead_ns: float = 0.0
    #: Software cost per incoming request at the destination (serialized).
    rrpp_overhead_ns: float = 0.0
    #: Software cost per incoming reply at the source (serialized).
    rcp_overhead_ns: float = 0.0
    #: Reliability: when a transaction sees no progress for this long,
    #: the RGP retransmits its uncompleted lines. 0 disables the
    #: watchdog entirely (the paper's reliable-fabric assumption).
    retransmit_timeout_ns: float = 100_000.0
    #: Exponential back-off factor applied to the timeout per attempt.
    retransmit_backoff: float = 2.0
    #: Retransmission budget; once exhausted the transaction completes
    #: with a ``timeout`` error status in the CQ instead of hanging.
    max_retries: int = 4
    #: Destination-side replay cache for atomics (exactly-once execution
    #: under retransmission); entries beyond this are evicted LRU.
    atomic_replay_entries: int = 256
    mmu: MMUConfig = field(default_factory=MMUConfig)


def _chunks(offset: int, length: int):
    """Split [offset, offset+length) at the remote line grid.

    Yields (chunk_offset, chunk_len) with chunk_len <= CACHE_LINE_SIZE and
    no chunk crossing a line boundary of the destination segment — the
    line-granularity unroll of §4.2.
    """
    position = offset
    end = offset + length
    while position < end:
        line_end = (position // CACHE_LINE_SIZE + 1) * CACHE_LINE_SIZE
        chunk_end = min(end, line_end)
        yield position, chunk_end - position
        position = chunk_end


class RMC:
    """One node's remote memory controller."""

    def __init__(self, sim: Simulator, node_id: int, ni: NetworkInterface,
                 port: AgentPort, ct_base_paddr: int,
                 config: Optional[RMCConfig] = None):
        self.sim = sim
        self.node_id = node_id
        self.ni = ni
        self.config = config or RMCConfig()
        self.mmu = RMCMMU(sim, port, self.config.mmu)
        self.ct = ContextTable()
        self.ct_cache = ContextCache(self.config.ct_cache_entries)
        self.itt = InflightTransactionTable(self.config.itt_entries)
        self.ct_base_paddr = ct_base_paddr
        self.counters = Counter()
        #: §8 extension hook: ``fn(src_nid, ctx_id, payload) -> bool``
        #: installed by the driver when notifications are enabled.
        self.notification_sink = None
        #: Reliability hook: ``fn(itt_entry)`` invoked when a transaction
        #: exhausts its retry budget ("the RMC notifies the driver of
        #: failures within the soNUMA fabric", §5.1).
        self.failure_sink = None
        #: Heartbeat hook: ``fn(src_nid)`` invoked when an RPING pong
        #: arrives (driver failure detector).
        self.ping_sink = None
        #: (src_nid, tid) -> (payload, old_value) of the last atomic
        #: executed for that transaction, replayed on retransmission so
        #: non-idempotent ops run exactly once.
        self._atomic_replay: "OrderedDict[Tuple[int, int], Tuple[Optional[bytes], Optional[int]]]" \
            = OrderedDict()
        # qp_id -> (qp, owning context entry): the RGP's polling schedule.
        self._qps: Dict[int, Tuple[QueuePair, ContextEntry]] = {}
        self._running = True
        #: Node-crash flag (fault controller): while halted the pipelines
        #: drain and drop traffic instead of serving it. The loops keep
        #: running — killing and respawning them would race parked
        #: ``receive()`` coroutines into duplicate pipelines on restart.
        self.halted = False
        #: Gray-failure flag: the RMC serves data traffic but stops
        #: answering RPING probes, so the membership layer sees a dead
        #: node while stale data replies keep flowing (the classic
        #: split-brain scenario that epoch fencing exists to stop).
        self.mute_pings = False
        # Simulation-efficiency device standing in for continuous WQ
        # polling: posts and tid retirements wake the RGP sweep.
        self._rgp_wake = WakeSignal(sim)
        # Names of the per-request and per-line stage processes, built
        # once here rather than formatted for every line.
        stage = f"rmc{node_id}."
        self._gen_name = stage + "rgp.gen"
        self._watchdog_name = stage + "rgp.watchdog"
        self._emit_name = stage + "rgp.emit"
        self._serve_name = stage + "rrpp.serve"
        self._complete_name = stage + "rcp.complete"
        sim.process(self._rgp_loop(), name=f"rmc{node_id}.rgp")
        sim.process(self._rrpp_loop(), name=f"rmc{node_id}.rrpp")
        sim.process(self._rcp_loop(), name=f"rmc{node_id}.rcp")

    # -- registration (driven by the device driver, §5.1) ------------------

    def install_context(self, entry: ContextEntry) -> None:
        """Make a context segment reachable by remote nodes."""
        self.ct.install(entry)

    def register_qp(self, qp: QueuePair) -> None:
        """Add a QP to the RGP's polling schedule."""
        entry = self.ct.lookup(qp.ctx_id)
        if entry is None:
            raise ValueError(f"context {qp.ctx_id} not installed")
        if qp.qp_id in self._qps:
            raise ValueError(f"QP {qp.qp_id} already registered")
        entry.register_qp(qp)
        self._qps[qp.qp_id] = (qp, entry)
        qp.wq.on_post = self._rgp_wake.trigger
        self._rgp_wake.trigger()

    def reset(self) -> int:
        """Fabric-failure reset: drop in-flight state (§5.1).

        Returns the number of aborted transactions. Applications must be
        restarted by higher layers; queue state is left to the driver.
        """
        aborted = self.itt.abort_all()
        self.mmu.reset()
        self.ct_cache.flush()
        self._atomic_replay.clear()
        self.counters.incr("resets")
        return aborted

    # -- node crash / restart (fault controller, membership layer) -----------

    def halt(self, reason: str = "node_crash") -> int:
        """Crash this RMC: stop all pipelines and error-complete every
        in-flight transaction.

        The crashed node's application coroutines cannot be killed by the
        simulator, so each in-flight WQ request is functionally completed
        with a ``reason`` error CQ entry — blocked sessions then raise
        :class:`~repro.runtime.qp_api.RemoteOpFailed` and can observe
        their own death instead of spinning forever. Returns the number
        of transactions error-completed.
        """
        if self.halted:
            return 0
        self.halted = True
        # Fail the libos API fast: sessions on these QPs would otherwise
        # spin forever polling rings the dead pipelines never service.
        for qp, _ in self._qps.values():
            qp.halted = True
        self.counters.incr("halts")
        failed = 0
        for entry in self.itt.active_entries():
            if self.itt.force_fail(entry.tid, reason) is None:
                continue
            entry.qp.cq.push(CQEntry(wq_index=entry.wq_index,
                                     error=entry.error))
            self.itt.retire(entry.tid)
            failed += 1
        if failed:
            self.counters.incr("crash_error_completions", failed)
        return failed

    def abort_peer(self, dst_nid: int, reason: str = "peer_evicted") -> int:
        """Requester-side fence: force-fail every in-flight transaction
        targeting ``dst_nid``.

        Called by the membership layer when it evicts a peer. Without
        this, a retransmitting request can outlive the peer's entire
        crash-restart window and then *succeed* against the reborn
        node's wiped memory — returning zeros with a healthy completion
        status. (Stale replies from the old incarnation are separately
        epoch-fenced at the NI, so the freed tids cannot be corrupted.)
        Returns the number of transactions error-completed.
        """
        failed = 0
        for entry in self.itt.active_entries():
            wq_entry = entry.wq_entry
            if wq_entry is None or wq_entry.dst_nid != dst_nid:
                continue
            if self.itt.force_fail(entry.tid, reason) is None:
                continue
            entry.qp.cq.push(CQEntry(wq_index=entry.wq_index,
                                     error=entry.error))
            self.itt.retire(entry.tid)
            failed += 1
        if failed:
            self.counters.incr("peer_abort_completions", failed)
        return failed

    def resume(self) -> None:
        """Boot a halted RMC back into service with amnesia.

        Everything volatile is gone: in-flight state, caches, the atomic
        replay cache, and — critically — all QP registrations (the
        pre-crash rings live in wiped memory; surviving registrations
        would let the RGP execute stale WQ entries). Applications on the
        reborn node must open fresh QPs.
        """
        self.reset()
        for _, entry in self._qps.values():
            entry.qps.clear()
        self._qps.clear()
        self.halted = False
        self.mute_pings = False
        self.counters.incr("restarts")
        self._rgp_wake.trigger()

    # -- Request Generation Pipeline (RGP) ----------------------------------

    def _rgp_loop(self):
        """Poll registered WQs; unroll and inject new requests (Fig. 3b).

        Hardware polls continuously; the simulation sleeps on a wake
        signal (triggered by WQ posts and tid retirements) and then runs
        the same timed polling sweep, so the modeled per-poll memory
        timing is preserved without flooding the event heap while idle.
        """
        sim = self.sim
        cycle = self.config.pipeline_cycle_ns
        batch_limit = max(1, self.config.doorbell_batch)
        while self._running:
            if self.halted:
                # Crashed: generate nothing until resume() wakes us.
                yield self._rgp_wake.wait()
                continue
            found_work = False
            for qp, entry in list(self._qps.values()):
                # Timed poll of the next WQ slot (a coherent L1 access).
                pending = qp.wq.poll()
                slot_vaddr = qp.wq.slot_vaddr(
                    pending if pending is not None else 0)
                paddr = yield from self.mmu.translate(
                    entry.asid, entry.address_space.page_table, slot_vaddr)
                yield from self.mmu.access(paddr)
                # Doorbell batching: the one timed poll above covers up
                # to ``doorbell_batch`` entries posted under the same
                # doorbell; each entry still pays its own pickup and
                # unroll costs (that work is per-request either way).
                consumed = 0
                while consumed < batch_limit:
                    index = qp.wq.poll()
                    if index is None:
                        break
                    if not self.itt.has_free:
                        # All tids in flight or promised to entries
                        # still generating: a retirement will wake us.
                        break
                    found_work = True
                    self.itt.reserve()
                    wq_entry = qp.wq.consume(index)
                    consumed += 1
                    if consumed > 1:
                        self.counters.incr("wq_batched_requests")
                    # ITT entry initialization plus the (RMCemu) software
                    # pickup cost, coalesced into one kernel event.
                    yield cycle + self.config.request_overhead_ns
                    if self.config.unroll_overhead_ns:
                        # RMCemu: the RGP kernel thread processes requests
                        # serially, so generation happens inline.
                        yield from self._generate(qp, entry, index, wq_entry)
                    else:
                        sim.spawn(self._generate(qp, entry, index, wq_entry),
                                  name=self._gen_name)
            if not found_work:
                yield self._rgp_wake.wait()
                yield self.config.idle_poll_ns

    def _generate(self, qp: QueuePair, ctx: ContextEntry, wq_index: int,
                  wq_entry: WQEntry):
        """Unroll one WQ request into line-sized network packets."""
        sim = self.sim
        cycle = self.config.pipeline_cycle_ns
        chunks = list(_chunks(wq_entry.offset, wq_entry.length))
        itt_entry = self.itt.allocate(
            qp=qp, wq_index=wq_index, op=wq_entry.op,
            base_offset=wq_entry.offset, local_vaddr=wq_entry.local_vaddr,
            total_lines=len(chunks), wq_entry=wq_entry, ctx=ctx,
            chunks=chunks,
            timeout_ns=self.config.retransmit_timeout_ns,
            retries_left=self.config.max_retries)
        self.counters.incr("wq_requests")
        if itt_entry.timeout_ns:
            itt_entry.deadline_ns = sim.now + itt_entry.timeout_ns
            sim.spawn(self._watchdog(itt_entry), name=self._watchdog_name,
                      daemon=True)
        # Per-line unroll stage plus the (RMCemu) serialized software
        # unroll cost, coalesced into one kernel event per line.
        per_line = cycle + self.config.unroll_overhead_ns
        for chunk_offset, chunk_len in chunks:
            yield per_line
            if self.halted:
                return   # crashed mid-unroll
            sim.spawn(self._emit_chunk(ctx, wq_entry, itt_entry.tid,
                                       chunk_offset, chunk_len),
                      name=self._emit_name)

    def _emit_chunk(self, ctx: ContextEntry, wq_entry: WQEntry, tid: int,
                    chunk_offset: int, chunk_len: int, attempt: int = 0):
        """Build and inject one line-granularity request packet."""
        if self.halted:
            return   # crashed before this line left the node
        payload = None
        if wq_entry.op in (Opcode.RWRITE, Opcode.RNOTIFY):
            # "For remote writes ... the RMC accesses the local node's
            # memory to read the required data" (§4.2).
            rel = chunk_offset - wq_entry.offset
            lvaddr = wq_entry.local_vaddr + rel
            lpaddr = yield from self.mmu.translate(
                ctx.asid, ctx.address_space.page_table, lvaddr)
            yield from self.mmu.access(lpaddr, size=chunk_len)
            payload = self.mmu.read_bytes(lpaddr, chunk_len)
        packet = RequestPacket(
            dst_nid=wq_entry.dst_nid, src_nid=self.node_id,
            op=wq_entry.op, ctx_id=ctx.ctx_id, offset=chunk_offset,
            tid=tid, length=chunk_len, payload=payload,
            operand=wq_entry.operand, compare=wq_entry.compare,
            attempt=attempt)
        yield self.config.pipeline_cycle_ns  # pkt gen
        yield self.ni.inject(packet)
        self.counters.incr("lines_sent")

    # -- retransmission watchdog (reliability layer) -------------------------

    def _watchdog(self, entry):
        """Per-transaction timer: retransmit on silence, fail on budget.

        All sleeps are daemon events, so an armed watchdog never extends
        a simulation past its last real event — with a clean fabric the
        reliability layer is timing-invisible.
        """
        sim = self.sim
        while True:
            delay = entry.deadline_ns - sim.now
            if delay > 0:
                yield sim.timeout(delay, daemon=True)
            if self.itt.get(entry.tid) is not entry or entry.done:
                return   # completed, reset, or force-failed: stand down
            if sim.now < entry.deadline_ns:
                continue  # a reply arrived meanwhile and pushed the deadline
            if entry.retries_left <= 0:
                yield from self._timeout_transaction(entry)
                return
            entry.retries_left -= 1
            entry.attempt += 1
            backoff = self.config.retransmit_backoff ** entry.attempt
            entry.deadline_ns = sim.now + entry.timeout_ns * backoff
            self.counters.incr("retransmissions")
            yield from self._retransmit(entry)

    def _retransmit(self, entry):
        """Re-emit every line the transaction has not yet completed."""
        for chunk_offset, chunk_len in entry.chunks:
            if chunk_offset in entry.completed_offsets:
                continue
            if self.itt.get(entry.tid) is not entry or entry.done:
                return
            yield self.config.pipeline_cycle_ns
            yield from self._emit_chunk(entry.ctx, entry.wq_entry,
                                        entry.tid, chunk_offset, chunk_len,
                                        attempt=entry.attempt)
            self.counters.incr("lines_retransmitted")

    def _timeout_transaction(self, entry):
        """Retry budget exhausted: error-complete instead of hanging."""
        failed = self.itt.force_fail(entry.tid, ReplyStatus.TIMEOUT.value)
        if failed is None:
            return
        self.counters.incr("transactions_timed_out")
        if self.failure_sink is not None:
            self.failure_sink(entry)
        yield from self._finish_request(entry)

    # -- Remote Request Processing Pipeline (RRPP) ---------------------------

    def _rrpp_loop(self):
        """Decode incoming requests; serve each concurrently (stateless)."""
        sim = self.sim
        while self._running:
            packet = yield from self.ni.receive(VirtualLane.REQUEST)
            if self.halted:
                # A crashed node drains frames (returning link credits so
                # the fabric never wedges) but serves nothing.
                self.counters.incr("halted_drops")
                continue
            if self.config.rrpp_overhead_ns:
                # RMCemu: one kernel thread serves requests serially
                # (decode + software cost, coalesced into one event).
                yield (self.config.pipeline_cycle_ns
                       + self.config.rrpp_overhead_ns)
                yield from self._serve_request(packet)
            else:
                yield self.config.pipeline_cycle_ns  # decode
                sim.spawn(self._serve_request(packet),
                          name=self._serve_name)

    def _serve_request(self, req: RequestPacket):
        """CT lookup -> bounds check -> translate -> memory op -> reply."""
        sim = self.sim
        self.counters.incr("requests_served")

        if req.op is Opcode.RPING:
            # Liveness probe: answered from the pipeline itself, before
            # any context state is touched, so a pong only attests that
            # the link and the remote RMC are alive.
            if self.mute_pings:
                # Gray failure: alive on the data path, dead to the
                # control plane (fault controller's gray mode).
                self.counters.incr("pings_muted")
                return
            self.counters.incr("pings_served")
            yield from self._reply(req)
            return

        ctx = self.ct_cache.lookup(req.ctx_id)
        if ctx is None:
            # CT$ miss: one memory access to the in-memory CT.
            ct_paddr = self.ct_base_paddr + req.ctx_id * CACHE_LINE_SIZE
            yield from self.mmu.access(ct_paddr)
            ctx = self.ct.lookup(req.ctx_id)
            if ctx is None:
                self.counters.incr("errors_bad_context")
                yield from self._reply(req, status=ReplyStatus.BAD_CONTEXT)
                return
            self.ct_cache.insert(ctx)

        if req.op is Opcode.RNOTIFY:
            # §8 extension: deliver to the driver's notification queue
            # and raise the (modeled) interrupt — no memory access, no
            # state kept on rejection (the protocol stays stateless).
            accepted = (self.notification_sink is not None
                        and self.notification_sink(req.src_nid, req.ctx_id,
                                                   req.payload))
            if accepted:
                self.counters.incr("notifications_delivered")
                yield from self._reply(req)
            else:
                self.counters.incr("notifications_rejected")
                yield from self._reply(req,
                                       status=ReplyStatus.NOTIFY_REJECTED)
            return

        try:
            ctx.segment.check(req.offset, req.length)
        except SegmentViolation:
            # "Virtual addresses that fall outside of the range of the
            # specified security context are signaled through an error
            # message" (§4.2).
            self.counters.incr("errors_segment_violation")
            yield from self._reply(req, status=ReplyStatus.SEGMENT_VIOLATION)
            return

        replay_key = None
        if req.op in (Opcode.RFETCH_ADD, Opcode.RCOMP_SWAP):
            replay_key = (req.src_nid, req.tid)
            if req.attempt > 0:
                # Retransmission of a non-idempotent op: if we already
                # executed it (the reply was lost, not the request),
                # replay the recorded result instead of re-executing.
                cached = self._atomic_replay.get(replay_key)
                if cached is not None:
                    self.counters.incr("atomic_replays")
                    yield from self._reply(req, payload=cached[0],
                                           old_value=cached[1])
                    return

        vaddr = ctx.segment.vaddr_of(req.offset)
        paddr = yield from self.mmu.translate(
            ctx.asid, ctx.address_space.page_table, vaddr)

        payload = None
        old_value = None
        if req.op is Opcode.RREAD:
            # Streaming (non-allocating) read: the data leaves the node
            # immediately; caching it would only evict useful lines.
            yield from self.mmu.access(paddr, size=req.length,
                                       allocate=False)
            payload = self.mmu.read_bytes(paddr, req.length)
        elif req.op is Opcode.RWRITE:
            yield from self.mmu.access(paddr, is_write=True,
                                       size=req.length)
            self.mmu.write_bytes(paddr, req.payload)
        elif req.op is Opcode.RFETCH_ADD:
            # Executed "atomically within the local cache coherence
            # hierarchy of the destination node" (§5.2): the functional
            # read-modify-write below is a single simulation step.
            yield from self.mmu.access(paddr, is_write=True, size=8)
            old_value = int.from_bytes(self.mmu.read_bytes(paddr, 8),
                                       "little")
            new_value = (old_value + req.operand) & _U64_MASK
            self.mmu.write_bytes(paddr, new_value.to_bytes(8, "little"))
            payload = old_value.to_bytes(8, "little")
        elif req.op is Opcode.RCOMP_SWAP:
            yield from self.mmu.access(paddr, is_write=True, size=8)
            old_value = int.from_bytes(self.mmu.read_bytes(paddr, 8),
                                       "little")
            if old_value == req.compare:
                self.mmu.write_bytes(
                    paddr, (req.operand & _U64_MASK).to_bytes(8, "little"))
            payload = old_value.to_bytes(8, "little")
        else:  # pragma: no cover - the Opcode enum is closed
            raise ValueError(f"unknown opcode {req.op}")

        if replay_key is not None:
            self._atomic_replay[replay_key] = (payload, old_value)
            self._atomic_replay.move_to_end(replay_key)
            while len(self._atomic_replay) > self.config.atomic_replay_entries:
                self._atomic_replay.popitem(last=False)

        yield from self._reply(req, payload=payload, old_value=old_value)

    def _reply(self, req: RequestPacket,
               status: ReplyStatus = ReplyStatus.OK,
               payload: Optional[bytes] = None,
               old_value: Optional[int] = None):
        """Generate the single reply for a request (§6)."""
        if self.halted:
            return   # crashed between service and reply generation
        yield self.config.pipeline_cycle_ns
        reply = ReplyPacket(dst_nid=req.src_nid, src_nid=self.node_id,
                            tid=req.tid, offset=req.offset, status=status,
                            payload=payload, old_value=old_value)
        yield self.ni.inject(reply)
        self.counters.incr("replies_sent")

    # -- Request Completion Pipeline (RCP) -----------------------------------

    def _rcp_loop(self):
        """Decode incoming replies; complete each concurrently."""
        sim = self.sim
        while self._running:
            packet = yield from self.ni.receive(VirtualLane.REPLY)
            if self.halted:
                self.counters.incr("halted_drops")
                continue
            if self.config.rcp_overhead_ns:
                # RMCemu: RGP and RCP share one emulation vCPU; replies
                # are completed serially in software (decode + software
                # cost, coalesced into one event).
                yield (self.config.pipeline_cycle_ns
                       + self.config.rcp_overhead_ns)
                yield from self._complete(packet)
            else:
                yield self.config.pipeline_cycle_ns  # decode
                sim.spawn(self._complete(packet), name=self._complete_name)

    def _complete(self, reply: ReplyPacket):
        """Deposit payload, count the line, finish the WQ request."""
        if reply.tid == PING_TID:
            # Heartbeat pong: route to the driver's failure detector.
            self.counters.incr("pongs_received")
            if self.ping_sink is not None:
                self.ping_sink(reply.src_nid)
            return

        entry = self.itt.get(reply.tid)
        if entry is None or entry.done:
            # The transaction was retired, reset, or force-failed while
            # this reply was in flight.
            self.counters.incr("replies_stale")
            return
        if not entry.covers_offset(reply.offset):
            # tid reuse: the reply belongs to a previous occupant.
            self.counters.incr("replies_stale")
            return
        if reply.offset in entry.completed_offsets:
            # A retransmitted request whose original reply also arrived.
            self.counters.incr("replies_duplicate")
            return

        error = None
        if reply.status is not ReplyStatus.OK:
            error = reply.status.value
        elif reply.payload is not None:
            # Reads and atomics deposit into the local buffer; "remote
            # writes naturally do not require an update of the
            # application's memory at the source node" (§4.2).
            ctx = self._context_of(entry.qp)
            lvaddr = entry.line_local_vaddr(reply.offset)
            lpaddr = yield from self.mmu.translate(
                ctx.asid, ctx.address_space.page_table, lvaddr)
            yield from self.mmu.access(lpaddr, is_write=True,
                                       size=len(reply.payload))
            self.mmu.write_bytes(lpaddr, reply.payload)
        # The deposit yielded: re-check that the watchdog didn't time the
        # transaction out (or a reset recycle the tid) underneath us.
        if self.itt.get(reply.tid) is not entry or entry.done:
            self.counters.incr("replies_stale")
            return
        self.counters.incr("replies_handled")

        # Per-line progress refreshes the retransmit deadline, so slow
        # multi-line transfers are not punished by a per-request timer.
        if entry.timeout_ns:
            entry.deadline_ns = self.sim.now + entry.timeout_ns
        self.itt.complete_line(reply.tid, error=error, offset=reply.offset)
        if entry.done:
            yield from self._finish_request(entry)

    def _finish_request(self, entry):
        """Write the CQ entry and retire the tid."""
        qp = entry.qp
        ctx = self._context_of(qp)
        cq_vaddr = qp.cq.slot_vaddr(qp.cq.write_index)
        cq_paddr = yield from self.mmu.translate(
            ctx.asid, ctx.address_space.page_table, cq_vaddr)
        yield from self.mmu.access(cq_paddr, is_write=True)
        qp.cq.push(CQEntry(wq_index=entry.wq_index, error=entry.error))
        self.itt.retire(entry.tid)
        self.counters.incr("cq_completions")
        # A tid freed up: requests skipped on a full ITT can proceed.
        self._rgp_wake.trigger()

    def _context_of(self, qp: QueuePair) -> ContextEntry:
        return self._qps[qp.qp_id][1]
