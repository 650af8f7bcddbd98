"""Unsolicited communication (send/receive) in software (§5.3).

"To communicate using send and receive operations, two application
instances must first each allocate a bounded buffer from their own
portion of the global virtual address space. The sender always writes to
the peer's buffer using rmc_write operations, and the content is read
locally from cached memory by the receiver. ... Flow-control is
implemented via a credit scheme".

Two mechanisms, chosen per message by a compile-time threshold (§5.3):

* **push** — the sender packetizes the message into cache-line slots
  (16-byte header + 48-byte payload) and remote-writes each slot into
  the peer's bounded buffer. Lowest latency for small messages; per-
  chunk packetization cost for large ones.
* **pull** — the sender stages the payload in its own segment and pushes
  a one-slot descriptor; the receiver issues a single ``rmc_read`` for
  the whole payload and acknowledges via a counter line, letting the
  sender reuse the staging slot. Highest bandwidth for large messages;
  extra control round-trip at the start of each transfer.

Credits: the receiver maintains a cumulative consumed-slot counter and
remote-writes it into the sender's credit line every ``slots/2``
consumptions (batched, piggyback-style); the sender stalls when its
in-flight window reaches the last-acknowledged count plus the buffer
size.

Slot wire format (one 64-byte line, written atomically)::

    byte  0      type: 0 empty, 1 push chunk, 2 pull descriptor
    byte  1      flags: bit0 = last chunk of message
    bytes 2-3    chunk payload length (u16 LE)
    bytes 4-7    message sequence number (u32 LE)
    bytes 8-11   pull: payload offset in sender's segment (u32 LE)
    bytes 12-15  pull: payload size (u32 LE)
    bytes 16-63  push payload (up to 48 bytes)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..vm.address import CACHE_LINE_SIZE
from .layout import CommLayout, MessagingConfig
from .qp_api import RMCSession

__all__ = ["Messenger", "MessagingConfig", "MessagingTimeout", "PeerFailure"]


class PeerFailure(RuntimeError):
    """The transport reported error completions toward this peer (link
    or node failure): the messaging operation cannot make progress."""

    def __init__(self, peer: int, where: str):
        super().__init__(f"peer {peer} unreachable during {where}")
        self.peer = peer


class MessagingTimeout(RuntimeError):
    """recv() hit its deadline with no (complete) message from the peer."""

    def __init__(self, peer: int, timeout_ns: float):
        super().__init__(
            f"no message from peer {peer} within {timeout_ns:g} ns")
        self.peer = peer
        self.timeout_ns = timeout_ns

_TYPE_EMPTY = 0
_TYPE_PUSH = 1
_TYPE_PULL = 2
_FLAG_LAST = 1


def _discard_completion(_cq_entry):
    """No-op completion callback: pushed-slot writes are fire-and-forget
    (delivery is what the receiver's polling observes)."""


def _pack_slot(slot_type: int, flags: int, length: int, seq: int,
               pull_offset: int = 0, pull_size: int = 0,
               payload: bytes = b"") -> bytes:
    if len(payload) > MessagingConfig.PAYLOAD_PER_SLOT:
        raise ValueError("payload exceeds slot capacity")
    header = bytes([slot_type, flags]) \
        + length.to_bytes(2, "little") \
        + (seq & 0xFFFFFFFF).to_bytes(4, "little") \
        + pull_offset.to_bytes(4, "little") \
        + pull_size.to_bytes(4, "little")
    body = header + payload
    return body + bytes(CACHE_LINE_SIZE - len(body))


def _unpack_slot(line: bytes):
    slot_type = line[0]
    flags = line[1]
    length = int.from_bytes(line[2:4], "little")
    seq = int.from_bytes(line[4:8], "little")
    pull_offset = int.from_bytes(line[8:12], "little")
    pull_size = int.from_bytes(line[12:16], "little")
    payload = line[16:16 + length] if slot_type == _TYPE_PUSH else b""
    return slot_type, flags, length, seq, pull_offset, pull_size, payload


class _PeerState:
    """Per-peer send/receive bookkeeping."""

    def __init__(self):
        # send side (me -> peer)
        self.sent_slots = 0          # cumulative slots pushed to the peer
        self.send_seq = 0            # message sequence counter
        #: Per-peer staging ring for outgoing slot lines. It must be
        #: per-peer: the RGP reads an async write's payload at emission
        #: time, so a line staged for one peer cannot be reused for
        #: another peer while that write is still in flight.
        self.push_ring = 0
        self.staged_transfers = 0    # cumulative pull transfers staged
        # receive side (peer -> me)
        self.next_slot = 0           # next inbound slot index to poll
        self.consumed_slots = 0      # cumulative inbound slots consumed
        self.credits_reported = 0    # last consumed count reported to peer
        self.acked_transfers = 0     # cumulative pull transfers acked


class Messenger:
    """Send/receive endpoint for one node within a global context."""

    def __init__(self, session: RMCSession, node_id: int, num_nodes: int,
                 config: Optional[MessagingConfig] = None):
        self.session = session
        self.node_id = node_id
        self.num_nodes = num_nodes
        self.config = config or MessagingConfig()
        self.layout = CommLayout(session.ctx.segment.size, num_nodes,
                                 self.config)
        self._peers: Dict[int, _PeerState] = {}
        # Scratch line for receive-side credit/ack writes (synchronous,
        # so no in-flight reuse hazard). Outgoing push slots stage in a
        # per-peer ring (see _PeerState.push_ring).
        self._scratch = session.alloc_buffer(4 * CACHE_LINE_SIZE)
        self._pull_bounce = 0
        self._pull_bounce_size = 0
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0

    def _peer(self, peer: int) -> _PeerState:
        if peer == self.node_id:
            raise ValueError("cannot message self")
        if peer not in self._peers:
            state = _PeerState()
            state.push_ring = self.session.alloc_buffer(
                self.config.slots * CACHE_LINE_SIZE)
            self._peers[peer] = state
        return self._peers[peer]

    # -- local segment helpers ------------------------------------------------

    def _seg_vaddr(self, offset: int) -> int:
        return self.session.ctx.segment.vaddr_of(offset)

    def _read_local(self, offset: int, length: int):
        return self.session.core.mem_read(
            self.session.space, self._seg_vaddr(offset), length)

    def _write_local(self, offset: int, data: bytes):
        return self.session.core.mem_write(
            self.session.space, self._seg_vaddr(offset), data)

    # -- send ------------------------------------------------------------------

    def send(self, peer: int, data: bytes,
             timeout_ns: Optional[float] = None):
        """Timed coroutine: deliver ``data`` to ``peer`` (push or pull).

        With ``timeout_ns`` set, raises :class:`MessagingTimeout` if the
        peer's bounded buffer window stays exhausted for that long — the
        escape hatch for send/send head-to-head patterns that would
        otherwise deadlock on credits (the bounded-buffer analogue of an
        MPI "unsafe" program)."""
        if not data:
            raise ValueError("cannot send an empty message")
        state = self._peer(peer)
        seq = state.send_seq
        state.send_seq += 1
        deadline_ns = None
        if timeout_ns is not None:
            deadline_ns = self.session.core.sim.now + timeout_ns
        if len(data) <= self.config.threshold:
            yield from self._send_push(peer, state, seq, data,
                                       deadline_ns, timeout_ns)
        else:
            yield from self._send_pull(peer, state, seq, data,
                                       deadline_ns, timeout_ns)
        self.messages_sent += 1
        self.bytes_sent += len(data)

    def _send_push(self, peer: int, state: _PeerState, seq: int,
                   data: bytes, deadline_ns: Optional[float] = None,
                   timeout_ns: Optional[float] = None):
        """Packetize into slots; one remote write per slot."""
        cfg = self.config
        chunk = cfg.PAYLOAD_PER_SLOT
        chunks = [data[i:i + chunk] for i in range(0, len(data), chunk)]
        for index, piece in enumerate(chunks):
            yield from self._wait_for_credit(peer, state, deadline_ns,
                                             timeout_ns)
            flags = _FLAG_LAST if index == len(chunks) - 1 else 0
            line = _pack_slot(_TYPE_PUSH, flags, len(piece), seq,
                              payload=piece)
            yield from self._push_slot(peer, state, line)

    def _send_pull(self, peer: int, state: _PeerState, seq: int,
                   data: bytes, deadline_ns: Optional[float] = None,
                   timeout_ns: Optional[float] = None):
        """Stage payload locally; push a descriptor; bounded in-flight."""
        cfg = self.config
        if len(data) > self.layout.staging_chunk_bytes:
            raise ValueError(
                f"message of {len(data)}B exceeds pull staging chunk of "
                f"{self.layout.staging_chunk_bytes}B")
        # Bound in-flight transfers to the staging window via peer acks.
        while state.staged_transfers - self._read_ack(peer) \
                >= cfg.pull_window:
            self._check_peer(peer, "pull-ack wait")
            if deadline_ns is not None \
                    and self.session.core.sim.now >= deadline_ns:
                raise MessagingTimeout(peer, timeout_ns)
            yield from self.session.poll_once()
            yield from self.session.core.touch(
                self.session.space, self._seg_vaddr(self.layout.ack_offset(peer)))
        chunk_offset = self.layout.staging_chunk(peer,
                                                 state.staged_transfers)
        state.staged_transfers += 1
        yield from self._write_local(chunk_offset, data)
        yield from self._wait_for_credit(peer, state, deadline_ns,
                                         timeout_ns)
        line = _pack_slot(_TYPE_PULL, _FLAG_LAST, 0, seq,
                          pull_offset=chunk_offset, pull_size=len(data))
        yield from self._push_slot(peer, state, line)

    def _push_slot(self, peer: int, state: _PeerState, line: bytes):
        """Stage one slot locally and remote-write it into the peer.

        Writes are posted asynchronously so a multi-chunk push message
        streams its slots back to back (one per issue interval) instead
        of paying a full write round trip per chunk — the behaviour the
        paper's push mechanism is designed for.
        """
        cfg = self.config
        yield self.session.core.compute(cfg.software_chunk_ns)
        dst_slot = state.sent_slots % cfg.slots
        stage_vaddr = state.push_ring + dst_slot * CACHE_LINE_SIZE
        yield from self.session.buffer_write(stage_vaddr, line)
        # The destination offset is within the peer's region *for me*.
        peer_layout = self.layout  # identical parameters on every node
        dst_offset = peer_layout.messaging_base \
            + self.node_id * cfg.region_bytes + dst_slot * CACHE_LINE_SIZE
        state.sent_slots += 1
        yield from self.session.wait_for_slot(_discard_completion)
        yield from self.session.write_async(peer, dst_offset, stage_vaddr,
                                            CACHE_LINE_SIZE,
                                            callback=_discard_completion)

    def _wait_for_credit(self, peer: int, state: _PeerState,
                         deadline_ns: Optional[float] = None,
                         timeout_ns: Optional[float] = None):
        """Stall while the peer's bounded buffer window is exhausted.

        Raises :class:`PeerFailure` instead of spinning forever when the
        transport reports error completions toward the peer (the credit
        write that would free the window is never coming)."""
        while state.sent_slots - self._read_credit(peer) \
                >= self.config.slots:
            self._check_peer(peer, "credit wait")
            if deadline_ns is not None \
                    and self.session.core.sim.now >= deadline_ns:
                raise MessagingTimeout(peer, timeout_ns)
            # Reap completions while stalled: an error completion toward
            # the peer is the only way this wait can ever learn that the
            # credit write is never coming.
            yield from self.session.poll_once()
            yield from self.session.core.touch(
                self.session.space,
                self._seg_vaddr(self.layout.credit_offset(peer)))

    def _check_peer(self, peer: int, where: str) -> None:
        if peer in self.session.failed_peers:
            raise PeerFailure(peer, where)

    def _read_credit(self, peer: int) -> int:
        """Functional read of the credit counter the peer writes to us."""
        raw = self.session.buffer_peek(
            self._seg_vaddr(self.layout.credit_offset(peer)), 8)
        return int.from_bytes(raw, "little")

    def _read_ack(self, peer: int) -> int:
        raw = self.session.buffer_peek(
            self._seg_vaddr(self.layout.ack_offset(peer)), 8)
        return int.from_bytes(raw, "little")

    # -- receive -----------------------------------------------------------------

    def recv(self, peer: int, timeout_ns: Optional[float] = None):
        """Timed coroutine: block until one full message from ``peer``
        arrives; returns its bytes.

        With ``timeout_ns`` set, raises :class:`MessagingTimeout` if no
        complete message arrived within that window — the escape hatch
        for receivers whose peer may have died mid-message."""
        state = self._peer(peer)
        deadline_ns = None
        if timeout_ns is not None:
            deadline_ns = self.session.core.sim.now + timeout_ns
        parts = []
        while True:
            line = yield from self._poll_slot(peer, state, deadline_ns,
                                              timeout_ns)
            slot_type, flags, _length, _seq, pull_offset, pull_size, \
                payload = _unpack_slot(line)
            yield self.session.core.compute(self.config.software_chunk_ns)
            if slot_type == _TYPE_PUSH:
                parts.append(payload)
                yield from self._consume_slot(peer, state)
                if flags & _FLAG_LAST:
                    break
            elif slot_type == _TYPE_PULL:
                data = yield from self._pull_payload(peer, pull_offset,
                                                     pull_size)
                parts.append(data)
                yield from self._consume_slot(peer, state)
                yield from self._send_ack(peer, state)
                break
            else:  # pragma: no cover - corrupted slot
                raise RuntimeError(f"bad slot type {slot_type} from {peer}")
        self.messages_received += 1
        return b"".join(parts)

    def _poll_slot(self, peer: int, state: _PeerState,
                   deadline_ns: Optional[float] = None,
                   timeout_ns: Optional[float] = None):
        """Spin on the next inbound slot until it becomes non-empty."""
        offset = self.layout.slot_offset(peer, state.next_slot)
        vaddr = self._seg_vaddr(offset)
        sim = self.session.core.sim
        while True:
            if deadline_ns is not None and sim.now >= deadline_ns:
                raise MessagingTimeout(peer, timeout_ns)
            yield self.session.core.compute(
                self.session.core.config.poll_overhead_ns)
            yield from self.session.core.touch(self.session.space, vaddr)
            # Peek only the type byte while the slot is empty.
            if self.session.buffer_peek(vaddr, 1)[0] != _TYPE_EMPTY:
                return self.session.buffer_peek(vaddr, CACHE_LINE_SIZE)

    def _consume_slot(self, peer: int, state: _PeerState):
        """Clear the slot and batch-report credits back to the sender."""
        offset = self.layout.slot_offset(peer, state.next_slot)
        yield from self._write_local(offset, bytes([_TYPE_EMPTY]))
        state.next_slot = (state.next_slot + 1) % self.config.slots
        state.consumed_slots += 1
        if state.consumed_slots - state.credits_reported \
                >= max(1, self.config.slots // 2):
            yield from self._report_credits(peer, state)

    def _report_credits(self, peer: int, state: _PeerState):
        """Remote-write the cumulative consumed count into the sender."""
        state.credits_reported = state.consumed_slots
        counter = state.consumed_slots.to_bytes(8, "little")
        yield from self.session.buffer_write(self._scratch, counter)
        dst_offset = self.layout.messaging_base \
            + self.node_id * self.config.region_bytes \
            + self.config.slots * CACHE_LINE_SIZE
        yield from self.session.write_sync(peer, dst_offset, self._scratch, 8)

    def _send_ack(self, peer: int, state: _PeerState):
        """Ack a completed pull so the sender can reuse its staging:
        'acknowledges the completion by writing a zero-length message
        into the sender's bounded buffer' (§5.3)."""
        state.acked_transfers += 1
        counter = state.acked_transfers.to_bytes(8, "little")
        yield from self.session.buffer_write(self._scratch, counter)
        dst_offset = self.layout.messaging_base \
            + self.node_id * self.config.region_bytes \
            + (self.config.slots + 1) * CACHE_LINE_SIZE
        yield from self.session.write_sync(peer, dst_offset, self._scratch, 8)

    def _pull_payload(self, peer: int, pull_offset: int, pull_size: int):
        """One big remote read of a staged payload (the pull mechanism)."""
        if self._pull_bounce_size < pull_size:
            self._pull_bounce = self.session.alloc_buffer(pull_size)
            self._pull_bounce_size = pull_size
        bounce = self._pull_bounce
        yield from self.session.read_sync(peer, pull_offset, bounce,
                                          pull_size)
        # Copy out of the bounce buffer into application data (timed).
        data = yield from self.session.buffer_read(bounce, pull_size)
        return data
