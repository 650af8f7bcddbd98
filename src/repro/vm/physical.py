"""Per-node physical memory, page-sparse, with real backing bytes.

Every node owns one :class:`PhysicalMemory`. All data that applications
read or write — local loads/stores, RMC line reads at the destination of
a remote read, payload deposits by the RCP — ultimately lands here, so
functional correctness (does the remote read return the bytes that were
written?) is enforced by construction and independently of any timing
model. See DESIGN.md, "Functional-accuracy note".

The memory is page-sparse: an 8 KB page frame gets its bytes on the
first write that touches it, and reads of untouched pages return zeros.
A node therefore costs host time and RAM only for the pages a run
touches, which is what lets nodes default to the paper's 4 GB (Table 1).

The :class:`FrameAllocator` hands out physical page frames to address
spaces; the OS-model device driver uses it to back and pin context
segments (paper §5.1).
"""

from __future__ import annotations

from typing import Dict, List

from .address import PAGE_OFFSET_BITS, PAGE_SIZE

__all__ = ["PhysicalMemory", "FrameAllocator", "OutOfMemoryError"]


class OutOfMemoryError(MemoryError):
    """No free physical frames remain on this node."""


class PhysicalMemory:
    """A byte-addressable physical memory of ``size`` bytes.

    Backed by a dict of page frames created on first write; an absent
    page reads as zeros.
    """

    def __init__(self, size: int):
        if size <= 0 or size % PAGE_SIZE != 0:
            raise ValueError(
                f"physical memory size must be a positive multiple of the "
                f"page size ({PAGE_SIZE}), got {size}"
            )
        self.size = size
        self._pages: Dict[int, bytearray] = {}

    @property
    def resident_pages(self) -> int:
        """Page frames that hold bytes (have been written since zeroed)."""
        return len(self._pages)

    def read(self, paddr: int, length: int) -> bytes:
        """Read ``length`` bytes at physical address ``paddr``."""
        self._check_range(paddr, length)
        start = paddr & (PAGE_SIZE - 1)
        if start + length <= PAGE_SIZE:
            # Nearly every access sits inside one page.
            page = self._pages.get(paddr >> PAGE_OFFSET_BITS)
            if page is None:
                return bytes(length)
            return bytes(page[start:start + length])
        out = bytearray()
        for number, start, span in _pieces(paddr, length):
            page = self._pages.get(number)
            out += bytes(span) if page is None else page[start:start + span]
        return bytes(out)

    def write(self, paddr: int, data: bytes) -> None:
        """Write ``data`` at physical address ``paddr``."""
        length = len(data)
        self._check_range(paddr, length)
        start = paddr & (PAGE_SIZE - 1)
        if 0 < length and start + length <= PAGE_SIZE:
            number = paddr >> PAGE_OFFSET_BITS
            page = self._pages.get(number) or self._materialize(number)
            page[start:start + length] = data
            return
        view = memoryview(data)
        done = 0
        for number, start, span in _pieces(paddr, length):
            page = self._pages.get(number) or self._materialize(number)
            page[start:start + span] = view[done:done + span]
            done += span

    def zero(self, paddr: int, length: int) -> None:
        """Zero ``length`` bytes at ``paddr`` without materializing pages:
        pages the range covers whole are dropped, partial ones cleared."""
        self._check_range(paddr, length)
        for number, start, span in _pieces(paddr, length):
            if span == PAGE_SIZE:
                self._pages.pop(number, None)
            elif number in self._pages:
                self._pages[number][start:start + span] = bytes(span)

    def _materialize(self, number: int) -> bytearray:
        page = self._pages[number] = bytearray(PAGE_SIZE)
        return page

    def read_u64(self, paddr: int) -> int:
        """Read an 8-byte little-endian unsigned integer (atomics use this)."""
        return int.from_bytes(self.read(paddr, 8), "little")

    def write_u64(self, paddr: int, value: int) -> None:
        """Write an 8-byte little-endian unsigned integer."""
        self.write(paddr, (value & (2 ** 64 - 1)).to_bytes(8, "little"))

    def _check_range(self, paddr: int, length: int) -> None:
        if paddr < 0 or length < 0 or paddr + length > self.size:
            raise IndexError(
                f"physical access [{paddr}, {paddr + length}) outside "
                f"memory of size {self.size}"
            )


def _pieces(paddr: int, length: int):
    """``(page number, offset in page, span)`` of every page that
    ``[paddr, paddr + length)`` touches."""
    end = paddr + length
    while paddr < end:
        start = paddr & (PAGE_SIZE - 1)
        span = min(end - paddr, PAGE_SIZE - start)
        yield paddr >> PAGE_OFFSET_BITS, start, span
        paddr += span


class FrameAllocator:
    """Allocates physical page frames from a :class:`PhysicalMemory`.

    Frames are handed out low-to-high and recycled via a free list. The
    device driver "pins" frames simply by holding the allocation for the
    lifetime of the context segment.
    """

    def __init__(self, memory: PhysicalMemory, reserved_bytes: int = 0):
        if reserved_bytes % PAGE_SIZE != 0:
            raise ValueError("reserved_bytes must be page-aligned")
        self.memory = memory
        self._next_frame = reserved_bytes // PAGE_SIZE
        self._total_frames = memory.size // PAGE_SIZE
        self._free: List[int] = []
        self.allocated_frames = 0

    @property
    def free_frames(self) -> int:
        remaining = self._total_frames - self._next_frame
        return remaining + len(self._free)

    def alloc_frame(self) -> int:
        """Return the physical base address of a fresh (zeroed) frame."""
        if self._free:
            frame = self._free.pop()
        elif self._next_frame < self._total_frames:
            frame = self._next_frame
            self._next_frame += 1
        else:
            raise OutOfMemoryError(
                f"out of physical frames ({self._total_frames} total)"
            )
        self.allocated_frames += 1
        paddr = frame * PAGE_SIZE
        self.memory.zero(paddr, PAGE_SIZE)
        return paddr

    def alloc_frames(self, count: int) -> List[int]:
        """Allocate ``count`` frames; all-or-nothing."""
        if count > self.free_frames:
            raise OutOfMemoryError(
                f"requested {count} frames, only {self.free_frames} free"
            )
        return [self.alloc_frame() for _ in range(count)]

    def free_frame(self, paddr: int) -> None:
        """Return a frame to the allocator, releasing its page."""
        if paddr % PAGE_SIZE != 0:
            raise ValueError(f"frame address {paddr:#x} not page-aligned")
        self.memory.zero(paddr, PAGE_SIZE)
        self._free.append(paddr // PAGE_SIZE)
        self.allocated_frames -= 1
