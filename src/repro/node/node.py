"""Node assembly: cores + caches + RMC + NI over one coherence domain.

A node is the unit of the soNUMA scale-out model (paper Fig. 2): an SoC
with application cores, a shared cache hierarchy, one RMC with its own
L1, and an on-die NI attached to the fabric. One OS instance (the
device-driver model) runs per node — "soNUMA exposes the abstraction of
global virtual address spaces on top of multiple OS instances, one per
coherence domain" (§9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..memory.hierarchy import MemoryConfig, MemorySystem
from ..rmc.rmc import RMC, RMCConfig
from ..sim import Simulator
from ..vm.physical import FrameAllocator, PhysicalMemory
from .core import Core, CoreConfig
from .driver import RMCDriver

__all__ = ["NodeConfig", "Node"]


@dataclass(frozen=True)
class NodeConfig:
    """Per-node configuration.

    ``memory_bytes`` defaults to the paper's 4 GB (Table 1). Physical
    memory is page-sparse, so a node costs host RAM and build time only
    for the pages a run writes, not for its capacity. All timing
    parameters are independent of capacity.
    """

    memory_bytes: int = 4 * 1024 * 1024 * 1024
    num_cores: int = 1
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    rmc: RMCConfig = field(default_factory=RMCConfig)
    core: CoreConfig = field(default_factory=CoreConfig)

    def __post_init__(self):
        if self.num_cores < 1:
            raise ValueError("a node needs at least one core")


class Node:
    """One soNUMA node: memory, cores, RMC, NI, driver."""

    def __init__(self, sim: Simulator, node_id: int, fabric,
                 config: Optional[NodeConfig] = None):
        self.sim = sim
        self.node_id = node_id
        self.config = config or NodeConfig()

        self.phys = PhysicalMemory(self.config.memory_bytes)
        self.frames = FrameAllocator(self.phys)
        self.memsys = MemorySystem(sim, self.phys, self.config.memory)

        self.ni = fabric.attach(node_id)

        rmc_port = self.memsys.register_agent("rmc")
        ct_base_paddr = self.frames.alloc_frame()  # the in-memory CT
        self.rmc = RMC(sim, node_id, self.ni, rmc_port, ct_base_paddr,
                       self.config.rmc)

        self.cores: List[Core] = []
        for core_id in range(self.config.num_cores):
            port = self.memsys.register_agent(f"core{core_id}")
            self.cores.append(Core(sim, core_id, port, self.config.core))

        self.driver = RMCDriver(self)

    @property
    def core(self) -> Core:
        """The first core (single-core nodes are the common case)."""
        return self.cores[0]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.node_id}: {len(self.cores)} cores>"
