"""Address-layout constants and helpers shared across the model.

soNUMA operates at **cache-line granularity** (64 B) over **8 KB pages**
(Table 1 of the paper). Remote addresses are named by the triple
``<node_id, ctx_id, offset>``; this module provides the arithmetic for
splitting/joining addresses, alignment, and line/page iteration used by
the RMC's unrolling logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

__all__ = [
    "CACHE_LINE_SIZE",
    "PAGE_SIZE",
    "VA_BITS",
    "PT_LEVELS",
    "PT_LEVEL_BITS",
    "PAGE_OFFSET_BITS",
    "line_align_down",
    "line_align_up",
    "page_align_down",
    "page_align_up",
    "page_number",
    "page_offset",
    "lines_in_range",
    "RemoteAddress",
]

#: Remote operations transfer whole cache lines (paper §4.1).
CACHE_LINE_SIZE = 64

#: Table 1: "4GB, 8KB pages, single DDR3-1600 channel".
PAGE_SIZE = 8192

#: Bits of page offset (8 KB pages).
PAGE_OFFSET_BITS = 13

#: Radix page-table levels walked (and charged) by the RMC's hardware
#: page walker.
PT_LEVELS = 4

#: Index bits per level: 4 levels x 9 bits + 13 offset bits = 49-bit VA.
PT_LEVEL_BITS = 9

#: Virtual address width modeled.
VA_BITS = PT_LEVELS * PT_LEVEL_BITS + PAGE_OFFSET_BITS


def line_align_down(addr: int) -> int:
    """Round an address down to its cache-line base."""
    return addr & ~(CACHE_LINE_SIZE - 1)


def line_align_up(addr: int) -> int:
    """Round an address up to the next cache-line boundary."""
    return (addr + CACHE_LINE_SIZE - 1) & ~(CACHE_LINE_SIZE - 1)


def page_align_down(addr: int) -> int:
    """Round an address down to its page base."""
    return addr & ~(PAGE_SIZE - 1)


def page_align_up(addr: int) -> int:
    """Round an address up to the next page boundary."""
    return (addr + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


def page_number(addr: int) -> int:
    """Virtual/physical page number containing ``addr``."""
    return addr >> PAGE_OFFSET_BITS


def page_offset(addr: int) -> int:
    """Offset of ``addr`` within its page."""
    return addr & (PAGE_SIZE - 1)


def lines_in_range(addr: int, length: int) -> List[int]:
    """Base addresses of every cache line touched by [addr, addr+length).

    This is exactly the unroll set the RGP generates for a multi-line
    WQ request (one line-sized network transaction per element).
    """
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    first = line_align_down(addr)
    last = line_align_down(addr + length - 1)
    return list(range(first, last + CACHE_LINE_SIZE, CACHE_LINE_SIZE))


@dataclass(frozen=True)
class RemoteAddress:
    """The paper's remote naming triple ``<node_id, ctx_id, offset>``.

    ``offset`` is relative to the context segment base on the destination
    node; the destination RMC computes the local virtual address from it
    (paper §4.2, RRPP).
    """

    node_id: int
    ctx_id: int
    offset: int

    def __post_init__(self):
        if self.node_id < 0:
            raise ValueError(f"invalid node_id {self.node_id}")
        if self.ctx_id < 0:
            raise ValueError(f"invalid ctx_id {self.ctx_id}")
        if self.offset < 0:
            raise ValueError(f"invalid offset {self.offset}")

    def advance(self, delta: int) -> "RemoteAddress":
        """A new address ``delta`` bytes further into the same context."""
        return RemoteAddress(self.node_id, self.ctx_id, self.offset + delta)

    def lines(self, length: int) -> Iterator["RemoteAddress"]:
        """Iterate the line-aligned remote addresses covering a transfer."""
        for line in lines_in_range(self.offset, length):
            yield RemoteAddress(self.node_id, self.ctx_id, line)
