"""The node-local coherent memory hierarchy.

Each node has a set of **agents** (application cores and the RMC), each
with a private L1 cache, sharing an inclusive L2 and one DRAM channel —
exactly the arrangement in paper Fig. 2 / Table 1. The RMC "integrates
into the processor's coherence hierarchy via a private L1 cache" (§4),
so WQ/CQ and page-table lines migrate between the core's and the RMC's
L1s via ordinary coherence actions, which this module models as
invalidate-on-write between the node's L1s.

Timing only: the actual bytes live in :class:`~repro.vm.PhysicalMemory`.
An access returns the level it was served from, letting tests assert
e.g. that a second WQ poll hits in the RMC's L1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..sim import Resource, Simulator
from ..vm.address import CACHE_LINE_SIZE, line_align_down
from ..vm.physical import PhysicalMemory
from .cache import Cache, CacheConfig
from .dram import DRAMChannel, DRAMConfig

__all__ = ["MemoryConfig", "MemorySystem", "AgentPort"]


@dataclass(frozen=True)
class MemoryConfig:
    """Hierarchy parameters; defaults transcribe Table 1 of the paper."""

    l1: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="L1D", size_bytes=32 * 1024, associativity=2,
        latency_ns=1.5, mshrs=32))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="L2", size_bytes=4 * 1024 * 1024, associativity=16,
        latency_ns=3.0, mshrs=64))
    dram: DRAMConfig = field(default_factory=DRAMConfig)


#: Level names by depth, as :meth:`AgentPort.access` reports them.
_LEVELS = ("l1", "l2", "dram")


class AgentPort:
    """One agent's (core's or RMC's) port into the node's hierarchy."""

    def __init__(self, system: "MemorySystem", name: str,
                 l1_config: CacheConfig):
        self.system = system
        self.name = name
        self.l1 = Cache(l1_config)
        self._mshrs = Resource(system.sim, capacity=l1_config.mshrs,
                               name=f"{name}.mshrs")
        self._line_size = l1_config.line_size
        self._l1_latency = l1_config.latency_ns
        self._l2_latency = system.l2.config.latency_ns
        self.accesses = 0

    # -- timed path ------------------------------------------------------

    def access(self, paddr: int, is_write: bool = False,
               size: int = CACHE_LINE_SIZE, allocate: bool = True,
               data=None):
        """Timed access coroutine; returns the deepest level touched
        ('l1' | 'l2' | 'dram') across all lines of the access.

        With ``data``, the access also moves the bytes, each line's right
        after that line's timed access: a read appends them to the
        ``data`` bytearray, a write stores the line's slice of ``data``
        (which covers the whole range). One call over a span therefore
        does the timing and data work of one call per line, in the same
        order and at the same instants.

        ``allocate=False`` makes misses non-allocating (streaming):
        the RMC's RRPP uses it when serving remote reads, whose data
        immediately leaves the node — allocating it would only evict
        useful lines (the cache-contention effect the paper observes in
        the double-sided experiments would otherwise destroy the
        source's reply-landing buffers).

        Each line of the range is walked in this one generator frame:
        L1 probe, then on a miss an MSHR, the L2 probe and, if needed,
        a DRAM fill.
        """
        if size <= 0:
            raise ValueError(f"length must be positive, got {size}")
        system = self.system
        l1 = self.l1
        line_size = self._line_size
        end = paddr + size
        line = line_align_down(paddr)
        deepest = 0   # index into _LEVELS
        while line < end:
            yield self._l1_latency
            if l1.probe(line, is_write=is_write):
                if is_write:
                    system._invalidate_other_l1s(self, line)
            else:
                # L1 miss: take an MSHR for the duration of the fill.
                yield self._mshrs.acquire()
                try:
                    yield self._l2_latency
                    if system.l2.probe(line, is_write=False):
                        served = 1
                    elif is_write and (min(end, line + line_size)
                                       - max(paddr, line)) >= line_size:
                        # A full-line overwrite needs no fill from memory:
                        # the line is installed directly (write-allocate,
                        # no fetch).
                        served = 1
                        if allocate:
                            self._fill_l2(line, dirty=True)
                    else:
                        yield from system.dram.access(line_size,
                                                      is_write=False)
                        served = 2
                        if allocate:
                            self._fill_l2(line)
                    if allocate:
                        victim1 = l1.fill(line, dirty=is_write)
                        if victim1 is not None and victim1.dirty:
                            # Write the dirty victim back into the L2.
                            system.l2.probe(victim1.line_addr, is_write=True)
                    if is_write:
                        system._invalidate_other_l1s(self, line)
                finally:
                    self._mshrs.release()
                if served > deepest:
                    deepest = served
            if data is not None:
                lo = max(paddr, line)
                hi = min(end, line + CACHE_LINE_SIZE)
                if is_write:
                    system.physical.write(lo, data[lo - paddr:hi - paddr])
                else:
                    data += system.physical.read(lo, hi - lo)
            line += CACHE_LINE_SIZE
        self.accesses += 1
        return _LEVELS[deepest]

    def _fill_l2(self, line: int, dirty: bool = False) -> None:
        victim = self.system.l2.fill(line, dirty=dirty)
        if victim is not None:
            # Inclusive L2: dropping an L2 line drops L1 copies.
            self.system._invalidate_all_l1s(victim.line_addr)
            if victim.dirty:
                self.system.dram.writeback(self.l1.config.line_size)

    # -- functional data path (untimed; see DESIGN.md) -------------------

    def read_bytes(self, paddr: int, length: int) -> bytes:
        """Functional data read (untimed; pair with :meth:`access`)."""
        return self.system.physical.read(paddr, length)

    def write_bytes(self, paddr: int, data: bytes) -> None:
        """Functional data write (untimed; pair with :meth:`access`)."""
        self.system.physical.write(paddr, data)


class MemorySystem:
    """Shared L2 + DRAM + physical memory, with per-agent L1 ports."""

    def __init__(self, sim: Simulator, physical: PhysicalMemory,
                 config: Optional[MemoryConfig] = None):
        self.sim = sim
        self.physical = physical
        self.config = config or MemoryConfig()
        self.l2 = Cache(self.config.l2)
        self.dram = DRAMChannel(sim, self.config.dram)
        self.agents: Dict[str, AgentPort] = {}

    def register_agent(self, name: str,
                       l1_config: Optional[CacheConfig] = None) -> AgentPort:
        """Add an agent (core or RMC) with a private L1."""
        if name in self.agents:
            raise ValueError(f"agent {name!r} already registered")
        port = AgentPort(self, name, l1_config or self.config.l1)
        self.agents[name] = port
        return port

    def _invalidate_other_l1s(self, writer: AgentPort, line: int) -> None:
        for port in self.agents.values():
            if port is not writer:
                port.l1.invalidate(line)

    def _invalidate_all_l1s(self, line: int) -> None:
        for port in self.agents.values():
            port.l1.invalidate(line)

    # -- observability ----------------------------------------------------

    def cache_stats(self) -> Dict[str, Dict[str, float]]:
        """Hit/miss statistics per agent L1, the L2, and DRAM."""
        stats = {
            "l2": {
                "hits": self.l2.hits,
                "misses": self.l2.misses,
                "hit_rate": self.l2.hit_rate,
            },
            "dram": {
                "reads": self.dram.reads,
                "writes": self.dram.writes,
                "bytes": self.dram.bytes_transferred,
            },
        }
        for name, port in self.agents.items():
            stats[name] = {
                "hits": port.l1.hits,
                "misses": port.l1.misses,
                "hit_rate": port.l1.hit_rate,
            }
        return stats
