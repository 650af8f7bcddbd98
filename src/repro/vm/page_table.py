"""Page tables and the hardware page walker.

The RMC has "direct access to the page tables managed by the operating
system" (paper §5.1) — no page-table replication into device memory. The
*timing* is that of a 4-level radix table: the walker charges one memory
access per level. The *storage* is one flat ``{vpn: PTE}`` dict per
address space. The walker never needs the tree's shape, because the
level count it charges is a constant: a lookup that succeeds visits all
:data:`~repro.vm.address.PT_LEVELS` levels, and a lookup that fails
raises :class:`PageFault` before the walker charges any level.

Translation faults raise :class:`PageFault`; the RMC's RRPP turns
out-of-segment accesses into error replies before ever reaching the page
table, so a fault here indicates an unmapped-but-in-segment page, which
the driver model treats as a bug (segments are fully backed and pinned at
registration time).
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from .address import PAGE_OFFSET_BITS, PAGE_SIZE, PT_LEVELS

__all__ = ["PageTable", "PageTableEntry", "PageFault", "PageWalker"]


class PageFault(Exception):
    """Raised when translating a virtual address with no valid mapping."""

    def __init__(self, vaddr: int, asid: int):
        super().__init__(f"page fault at vaddr={vaddr:#x} asid={asid}")
        self.vaddr = vaddr
        self.asid = asid


class PageTableEntry:
    """A leaf PTE: physical frame base plus permission/pin bits."""

    __slots__ = ("frame_paddr", "writable", "pinned")

    def __init__(self, frame_paddr: int, writable: bool = True,
                 pinned: bool = False):
        if frame_paddr % PAGE_SIZE != 0:
            raise ValueError(f"frame {frame_paddr:#x} not page-aligned")
        self.frame_paddr = frame_paddr
        self.writable = writable
        self.pinned = pinned

    def __repr__(self) -> str:  # pragma: no cover
        flags = ("w" if self.writable else "r") + ("p" if self.pinned else "")
        return f"<PTE frame={self.frame_paddr:#x} {flags}>"


class PageTable:
    """The page table of one address space (ASID): one ``{vpn: PTE}``
    dict, timed by :class:`PageWalker` as a 4-level radix walk."""

    def __init__(self, asid: int):
        self.asid = asid
        self._ptes: Dict[int, PageTableEntry] = {}

    @property
    def mapped_pages(self) -> int:
        """Number of pages with a valid mapping."""
        return len(self._ptes)

    def map(self, vaddr: int, frame_paddr: int, writable: bool = True,
            pinned: bool = False) -> PageTableEntry:
        """Install a leaf mapping for the page containing ``vaddr``."""
        if vaddr % PAGE_SIZE != 0:
            raise ValueError(f"map target {vaddr:#x} not page-aligned")
        vpn = vaddr >> PAGE_OFFSET_BITS
        if vpn in self._ptes:
            raise ValueError(f"page {vaddr:#x} already mapped")
        pte = PageTableEntry(frame_paddr, writable=writable, pinned=pinned)
        self._ptes[vpn] = pte
        return pte

    def unmap(self, vaddr: int) -> None:
        """Remove the mapping for the page containing ``vaddr``.

        A pinned page stays mapped: the ``ValueError`` leaves the table
        unchanged.
        """
        vpn = vaddr >> PAGE_OFFSET_BITS
        pte = self._ptes.get(vpn)
        if pte is None:
            raise PageFault(vaddr, self.asid)
        if pte.pinned:
            raise ValueError(f"cannot unmap pinned page {vaddr:#x}")
        del self._ptes[vpn]

    def lookup(self, vaddr: int) -> Tuple[PageTableEntry, int]:
        """Returns (pte, levels_touched) for the page of ``vaddr``.

        ``levels_touched`` is the number of radix levels a hardware walk
        visits, which the timed :class:`PageWalker` converts into memory
        accesses; it is always :data:`PT_LEVELS`.
        """
        pte = self._ptes.get(vaddr >> PAGE_OFFSET_BITS)
        if pte is None:
            raise PageFault(vaddr, self.asid)
        return pte, PT_LEVELS

    def translate(self, vaddr: int) -> int:
        """Virtual-to-physical translation (functional, untimed)."""
        pte = self._ptes.get(vaddr >> PAGE_OFFSET_BITS)
        if pte is None:
            raise PageFault(vaddr, self.asid)
        return pte.frame_paddr + (vaddr & (PAGE_SIZE - 1))

    def is_mapped(self, vaddr: int) -> bool:
        """Whether the page containing ``vaddr`` has a valid mapping."""
        return (vaddr >> PAGE_OFFSET_BITS) in self._ptes

    def iter_mappings(self) -> Iterator[Tuple[int, PageTableEntry]]:
        """Yield (vaddr, pte) for every mapped page in address order
        (test/debug aid)."""
        for vpn in sorted(self._ptes):
            yield vpn << PAGE_OFFSET_BITS, self._ptes[vpn]


class PageWalker:
    """The RMC's hardware page walker: timed page-table walks.

    On a TLB miss, the walker issues one memory access per radix level
    through the provided ``memory_access`` coroutine factory (in the full
    node model this is the RMC's MMU path through its L1 cache, so hot
    page-table nodes hit in the cache exactly as the paper intends).
    """

    def __init__(self, memory_access_cost_fn):
        """``memory_access_cost_fn() -> generator yielding sim events``
        charges the cost of a single page-table-node access."""
        self._access = memory_access_cost_fn
        self.walks = 0
        self.levels_touched = 0

    def walk(self, page_table: PageTable, vaddr: int):
        """Timed walk coroutine; returns the leaf PTE."""
        pte, levels = page_table.lookup(vaddr)
        self.walks += 1
        self.levels_touched += levels
        for _ in range(levels):
            yield from self._access()
        return pte
