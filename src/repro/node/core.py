"""Application core model.

The paper's evaluation uses ARM Cortex-A15-like cores (Table 1) running
real software under Flexus. Here, application code runs as simulator
coroutines on a :class:`Core`, which charges time for:

* local memory accesses (through the core's L1 port into the node's
  coherent hierarchy — the same hierarchy the RMC lives in), and
* fixed software overheads for the access-library entry points. The
  paper measures ~10 M remote operations per second per core, i.e.
  ~100 ns of software cost per asynchronous request ("the software
  API's overhead on each request", §7.5); ``issue_overhead_ns`` is that
  cost, and the Table 2 IOPS bench reproduces the 10 M figure from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..memory.hierarchy import AgentPort
from ..sim import Process, Simulator
from ..vm.address import CACHE_LINE_SIZE, PAGE_SIZE
from ..vm.address_space import AddressSpace

__all__ = ["CoreConfig", "Core"]


@dataclass(frozen=True)
class CoreConfig:
    """Core timing parameters."""

    #: Software cost to compose and post one WQ entry (inline API path).
    issue_overhead_ns: float = 85.0
    #: Software cost of one CQ polling loop iteration.
    poll_overhead_ns: float = 10.0
    #: Cost of invoking a completion callback.
    callback_overhead_ns: float = 15.0

    def __post_init__(self):
        if min(self.issue_overhead_ns, self.poll_overhead_ns,
               self.callback_overhead_ns) < 0:
            raise ValueError("core overheads must be non-negative")


class Core:
    """One application core: runs app coroutines, owns an L1 port."""

    def __init__(self, sim: Simulator, core_id: int, port: AgentPort,
                 config: CoreConfig = CoreConfig()):
        self.sim = sim
        self.core_id = core_id
        self.port = port
        self.config = config
        self.instructions_retired = 0  # coarse op counter for reporting

    def run(self, generator: Generator, name: str = "") -> Process:
        """Launch an application thread on this core."""
        return self.sim.process(generator,
                                name=name or f"core{self.core_id}.thread")

    def compute(self, ns: float) -> float:
        """Pure computation for ``ns`` nanoseconds; ``yield`` the result.

        Returns the bare delay, which the kernel schedules through its
        bare-delay fast path (no :class:`~repro.sim.Timeout` object).
        """
        self.instructions_retired += 1
        return self.sim.delay(ns)

    # -- local memory operations (timed + functional) ----------------------

    def mem_read(self, space: AddressSpace, vaddr: int, length: int):
        """Timed coroutine: read ``length`` bytes of local virtual memory.

        Core-side translation is charged as free (core TLBs hit in steady
        state and are not the subject of the paper's evaluation). Each
        page-contiguous span is one :meth:`AgentPort.access`, which times
        the span line by line and copies each line as it completes.
        """
        data = bytearray()
        position = vaddr
        remaining = length
        while remaining > 0:
            span = min(remaining, PAGE_SIZE - position % PAGE_SIZE)
            yield from self.port.access(space.translate(position), size=span,
                                        data=data)
            position += span
            remaining -= span
        return bytes(data)

    def mem_write(self, space: AddressSpace, vaddr: int, data: bytes):
        """Timed coroutine: write local virtual memory (one
        :meth:`AgentPort.access` per page-contiguous span, as
        :meth:`mem_read`)."""
        position = vaddr
        offset = 0
        while offset < len(data):
            span = min(len(data) - offset, PAGE_SIZE - position % PAGE_SIZE)
            yield from self.port.access(space.translate(position),
                                        is_write=True, size=span,
                                        data=data[offset:offset + span])
            position += span
            offset += span
        return len(data)

    def touch(self, space: AddressSpace, vaddr: int, is_write: bool = False,
              size: int = CACHE_LINE_SIZE):
        """Timed access without moving data (queue polling etc.)."""
        paddr = space.translate(vaddr)
        level = yield from self.port.access(paddr, is_write=is_write,
                                            size=size)
        return level
