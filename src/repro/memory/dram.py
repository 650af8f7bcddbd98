"""DRAM channel model: fixed access latency + finite bandwidth.

The paper's Table 1 uses DRAMSim2 with a single DDR3-1600 channel:
60 ns access latency and 12 GB/s peak bandwidth, of which ~9.6 GB/s is
achievable in practice (the paper's Fig 7b saturates there for 8 KB
requests). We model the channel as:

* a **data bus** occupied for ``bytes / bandwidth`` per transfer
  (back-to-back transfers pipeline, giving the bandwidth ceiling), plus
* a fixed **access latency** that overlaps across banks (requests do not
  serialize on it), plus
* a small controller overhead so a full hierarchy traversal
  (L1 miss -> L2 miss -> DRAM) lands at the ~80 ns the paper attributes
  to "accessing the memory (cache hierarchy and DRAM combined)".

Bank-conflict effects are abstracted into the ``efficiency`` factor
(default 0.8: 12 GB/s peak -> 9.6 GB/s effective for streaming).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import Resource, Simulator

__all__ = ["DRAMConfig", "DRAMChannel"]


@dataclass(frozen=True)
class DRAMConfig:
    """DDR3-1600 single-channel parameters (Table 1)."""

    latency_ns: float = 60.0
    bandwidth_gbps: float = 12.0       # GB/s peak (bytes per ns)
    efficiency: float = 0.8            # achievable fraction when streaming
    controller_overhead_ns: float = 15.0

    def __post_init__(self):
        if self.latency_ns < 0 or self.controller_overhead_ns < 0:
            raise ValueError("latencies must be non-negative")
        if self.bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")

    @property
    def effective_bandwidth(self) -> float:
        """Achievable bytes/ns (== GB/s) for streaming transfers."""
        return self.bandwidth_gbps * self.efficiency


class DRAMChannel:
    """Timed DRAM access path shared by all agents of a node."""

    def __init__(self, sim: Simulator, config: DRAMConfig = DRAMConfig()):
        self.sim = sim
        self.config = config
        self._bus = Resource(sim, capacity=1, name="dram-bus")
        self.reads = 0
        self.writes = 0
        self.bytes_transferred = 0

    def access(self, size: int, is_write: bool = False):
        """Coroutine performing one DRAM transfer of ``size`` bytes.

        Occupies the data bus for the serialization time (bandwidth
        contention), then waits out the access latency (pipelined across
        requests).
        """
        if size <= 0:
            raise ValueError(f"transfer size must be positive, got {size}")
        cfg = self.config
        # Controller queueing/scheduling overhead is pipelined (does not
        # occupy the data bus), so back-to-back line reads stream at the
        # effective channel bandwidth.
        yield cfg.controller_overhead_ns
        yield self._bus.acquire()
        yield size / cfg.effective_bandwidth
        self._bus.release()
        yield cfg.latency_ns
        self.bytes_transferred += size
        if is_write:
            self.writes += 1
        else:
            self.reads += 1

    def writeback(self, size: int):
        """Fire-and-forget dirty-line writeback (consumes bus bandwidth
        but nobody waits for it)."""
        self.sim.spawn(self.access(size, is_write=True),
                       name="dram-writeback")

    @property
    def utilization_bytes(self) -> int:
        return self.bytes_transferred
