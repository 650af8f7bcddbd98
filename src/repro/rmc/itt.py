"""Inflight Transaction Table (ITT).

"the ITT is used exclusively by the RMC and keeps track of the progress
of each WQ request" (§4.2). The RGP allocates a transfer id (tid) per WQ
request and uses the ITT to unroll multi-line requests; the RCP uses the
tid carried in each reply to find the originating WQ entry and to count
line completions: "Once the last reply is processed, the RMC signals the
request's completion by writing the index of the completed WQ entry into
the corresponding CQ" (§4.2).

The tid namespace is per-source-RMC and opaque to the destination (§6).
A bounded table naturally bounds the number of WQ requests in flight.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional, Sequence, Set, Tuple

from ..protocol import Opcode
from .queues import QueuePair, WQEntry

__all__ = ["ITTEntry", "InflightTransactionTable", "ITTFullError"]


class ITTFullError(RuntimeError):
    """All tids are in use; the RGP must wait for completions."""


@dataclass
class ITTEntry:
    """Progress state for one WQ request being unrolled/completed."""

    tid: int
    qp: QueuePair
    wq_index: int
    op: Opcode
    base_offset: int          # remote segment offset of the first byte
    local_vaddr: int          # local buffer base
    total_lines: int
    completed_lines: int = 0
    error: Optional[str] = None
    # -- reliability state (retransmission watchdog, RGP) -----------------
    #: The originating WQ entry + context, kept so uncompleted lines can
    #: be regenerated on retransmission.
    wq_entry: Optional[WQEntry] = None
    ctx: Any = None
    chunks: Optional[Sequence[Tuple[int, int]]] = None
    #: Reply offsets already accounted — duplicate replies (a request
    #: retransmitted because its reply was lost) are rejected with this.
    completed_offsets: Set[int] = field(default_factory=set)
    timeout_ns: float = 0.0      # 0 disables the watchdog
    deadline_ns: float = 0.0     # sim time after which the RGP retransmits
    retries_left: int = 0
    attempt: int = 0             # current retransmission attempt (0 = first)
    failed: bool = False         # force-failed by the watchdog

    @property
    def done(self) -> bool:
        return self.failed or self.completed_lines >= self.total_lines

    def covers_offset(self, offset: int) -> bool:
        """Whether a reply offset belongs to this request's line grid."""
        if self.chunks is None:
            return True
        return any(offset == chunk_offset for chunk_offset, _ in self.chunks)

    def line_local_vaddr(self, reply_offset: int) -> int:
        """Where a reply's payload lands in the local buffer.

        "For multi-line requests, the RMC computes the target virtual
        address based on the buffer base address specified in the WQ
        entry and the offset specified in the reply message." (§4.2)
        """
        return self.local_vaddr + (reply_offset - self.base_offset)


class InflightTransactionTable:
    """Fixed-capacity tid allocator + per-request progress tracking."""

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("ITT capacity must be >= 1")
        self.capacity = capacity
        self._entries: Dict[int, ITTEntry] = {}
        # FIFO recycling: a retired tid goes to the back of the queue,
        # so it is not reused until every other free tid has been. This
        # keeps a tid "quarantined" for ~capacity transactions — far
        # longer than any stale packet of its previous incarnation can
        # survive in the fabric — which is what makes the tid a safe
        # transaction identity for retransmission and reply dedup.
        self._free_tids: Deque[int] = deque(range(capacity))
        #: Free tids promised to admitted requests whose generation has
        #: not allocated yet (see :meth:`reserve`).
        self._reserved = 0
        self.allocated_total = 0
        self.peak_in_flight = 0

    @property
    def in_flight(self) -> int:
        return len(self._entries)

    @property
    def has_free(self) -> bool:
        """Whether a tid is free and not already reserved."""
        return len(self._free_tids) > self._reserved

    def reserve(self) -> None:
        """Promise one free tid to a request the RGP just admitted; its
        :meth:`allocate` consumes the promise. Without this, every entry
        of one doorbell batch would pass :attr:`has_free` before the
        first of them allocated."""
        if not self.has_free:
            raise ITTFullError(f"all {self.capacity} tids in flight")
        self._reserved += 1

    def allocate(self, qp: QueuePair, wq_index: int, op: Opcode,
                 base_offset: int, local_vaddr: int,
                 total_lines: int,
                 wq_entry: Optional[WQEntry] = None,
                 ctx: Any = None,
                 chunks: Optional[Sequence[Tuple[int, int]]] = None,
                 timeout_ns: float = 0.0,
                 retries_left: int = 0) -> ITTEntry:
        """Assign a tid and create the progress entry for a WQ request."""
        if not self._free_tids:
            raise ITTFullError(
                f"all {self.capacity} tids in flight")
        if total_lines < 1:
            raise ValueError("a request must cover at least one line")
        tid = self._free_tids.popleft()
        if self._reserved:
            self._reserved -= 1
        entry = ITTEntry(tid=tid, qp=qp, wq_index=wq_index, op=op,
                         base_offset=base_offset, local_vaddr=local_vaddr,
                         total_lines=total_lines, wq_entry=wq_entry,
                         ctx=ctx, chunks=chunks, timeout_ns=timeout_ns,
                         retries_left=retries_left)
        self._entries[tid] = entry
        self.allocated_total += 1
        if len(self._entries) > self.peak_in_flight:
            self.peak_in_flight = len(self._entries)
        return entry

    def lookup(self, tid: int) -> ITTEntry:
        """The in-flight entry for ``tid`` (RCP reply handling)."""
        entry = self._entries.get(tid)
        if entry is None:
            raise KeyError(f"no in-flight transaction with tid {tid}")
        return entry

    def get(self, tid: int) -> Optional[ITTEntry]:
        """Like :meth:`lookup` but returns None for unknown/retired tids.

        Reliability paths use this (plus an identity check against the
        entry they hold) so stale replies and watchdogs racing a reset
        never raise on a recycled tid.
        """
        return self._entries.get(tid)

    def complete_line(self, tid: int, error: Optional[str] = None,
                      offset: Optional[int] = None) -> ITTEntry:
        """Record one line completion; caller checks ``entry.done``."""
        entry = self.lookup(tid)
        if entry.done:
            raise RuntimeError(f"tid {tid} already fully completed")
        entry.completed_lines += 1
        if offset is not None:
            entry.completed_offsets.add(offset)
        if error is not None:
            entry.error = error
        return entry

    def force_fail(self, tid: int, error: str) -> Optional[ITTEntry]:
        """Terminate a transaction from the watchdog (retry exhaustion).

        Marks the entry failed so ``done`` becomes True and any replies
        still in flight are treated as stale. Returns the entry, or None
        if the transaction already completed/retired (lost the race).
        """
        entry = self._entries.get(tid)
        if entry is None or entry.done:
            return None
        entry.failed = True
        entry.error = error
        return entry

    def retire(self, tid: int) -> None:
        """Free the tid once the CQ entry has been written."""
        entry = self._entries.pop(tid, None)
        if entry is None:
            raise KeyError(f"retire of unknown tid {tid}")
        if not entry.done:
            raise RuntimeError(
                f"retire of tid {tid} with {entry.completed_lines}/"
                f"{entry.total_lines} lines complete")
        self._free_tids.append(tid)

    def active_entries(self):
        """Snapshot of every in-flight entry (crash error-completion)."""
        return list(self._entries.values())

    def abort_all(self) -> int:
        """Drop every in-flight transaction (RMC reset path, §5.1)."""
        count = len(self._entries)
        for tid in list(self._entries):
            self._entries.pop(tid)
            self._free_tids.append(tid)
        return count
