"""Full-crossbar fabric: the paper's simulated configuration.

"We model a full crossbar with reliable links between RMCs and a flat
latency of 50ns" (paper §7.1). Each node owns one injection port per
direction; serialization happens at that port (shared by both virtual
lanes), propagation is the flat latency, and delivery requires holding a
receive credit at the destination NI (credit-based flow control, §6).

Failure injection: a failed node or severed pair makes packets toward it
undeliverable; the sending NI is notified so the device-driver model can
observe fabric failures ("the RMC notifies the driver of failures within
the soNUMA fabric", §5.1).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Set, Tuple

from ..protocol import VirtualLane
from ..sim import Resource, Simulator
from .faults import FaultInjector
from .ni import FabricConfig, NetworkInterface

__all__ = ["CrossbarFabric"]


class CrossbarFabric:
    """All-to-all fabric with per-node injection ports and flat latency."""

    def __init__(self, sim: Simulator, config: Optional[FabricConfig] = None):
        self.sim = sim
        self.config = config or FabricConfig()
        self.nis: Dict[int, NetworkInterface] = {}
        self._tx_ports: Dict[int, Resource] = {}
        self.failed_nodes: Set[int] = set()
        self.severed_pairs: Set[Tuple[int, int]] = set()
        self.packets_delivered = 0
        self.packets_dropped = 0
        self.drops_by_node: Dict[int, int] = {}
        self.fault_injector: Optional[FaultInjector] = None

    def install_fault_injector(self, injector: FaultInjector) -> FaultInjector:
        """Attach a seeded fault source; every transmission consults it."""
        injector.fabric = self
        self.fault_injector = injector
        return injector

    def attach(self, node_id: int) -> NetworkInterface:
        """Create and wire the NI for a node; starts its egress pumps."""
        if node_id in self.nis:
            raise ValueError(f"node {node_id} already attached")
        ni = NetworkInterface(self.sim, node_id, self.config)
        self.nis[node_id] = ni
        self._tx_ports[node_id] = Resource(
            self.sim, capacity=1, name=f"xbar.tx{node_id}")
        for vl in VirtualLane:
            self.sim.process(self._egress_pump(ni, vl),
                             name=f"xbar.egress{node_id}.{vl.name}")
        return ni

    # -- failure injection -------------------------------------------------

    def fail_node(self, node_id: int) -> None:
        """Take a node out of the fabric (its packets are dropped)."""
        self.failed_nodes.add(node_id)

    def restore_node(self, node_id: int) -> None:
        """Bring a failed node back into the fabric."""
        self.failed_nodes.discard(node_id)

    def sever_link(self, a: int, b: int) -> None:
        """Cut connectivity between a pair of nodes (both directions)."""
        self.severed_pairs.add((min(a, b), max(a, b)))

    def restore_link(self, a: int, b: int) -> None:
        """Re-establish connectivity between a severed pair."""
        self.severed_pairs.discard((min(a, b), max(a, b)))

    def _reachable(self, src: int, dst: int) -> bool:
        if not self.failed_nodes and not self.severed_pairs:
            return True   # a healthy fabric: the per-packet common case
        if src in self.failed_nodes or dst in self.failed_nodes:
            return False
        return (min(src, dst), max(src, dst)) not in self.severed_pairs

    # -- data path ----------------------------------------------------------

    def _egress_pump(self, ni: NetworkInterface, vl: VirtualLane):
        """Drain one virtual lane of a node's egress queue forever."""
        sim = self.sim
        cfg = self.config
        while True:
            packet = yield ni.egress[vl].get()
            if packet.dst_nid not in self.nis or \
                    not self._reachable(ni.node_id, packet.dst_nid):
                self._count_drop(ni.node_id)
                ni.notify_failure(packet)
                continue
            decision = None
            if self.fault_injector is not None:
                decision = self.fault_injector.decide(
                    ni.node_id, packet.dst_nid, packet)
            if decision is not None and decision.drop:
                # The frame leaves the node (serialization is paid) and is
                # lost on the wire; no credit was consumed downstream.
                tx = self._tx_ports[ni.node_id]
                yield tx.acquire()
                yield packet.size_bytes / cfg.link_bandwidth_gbps
                tx.release()
                self._count_drop(ni.node_id)
                continue
            dst_ni = self.nis[packet.dst_nid]
            # Credit-based flow control: hold a receive credit first.
            yield dst_ni.rx_credits[vl].acquire()
            # Serialize on this node's (shared) injection port.
            tx = self._tx_ports[ni.node_id]
            yield tx.acquire()
            yield packet.size_bytes / cfg.link_bandwidth_gbps
            tx.release()
            # Propagate: flat crossbar latency (+ any injected jitter).
            delay = cfg.link_latency_ns
            if decision is not None:
                delay += decision.extra_delay_ns
            # Elision: one deferred callback per in-flight packet instead
            # of a spawned process (spawn + timeout = two kernel events).
            self.sim.call_later(
                delay, partial(self._deliver_now, packet, dst_ni, decision))
            if decision is not None and decision.duplicate:
                self.sim.process(
                    self._deliver_duplicate(packet, dst_ni, delay, decision),
                    name="xbar.dup")

    def _deliver_now(self, packet, dst_ni: NetworkInterface, decision=None):
        """Propagation delay has elapsed: land the packet (or drop it if a
        failure raced with it in flight)."""
        if not self._reachable(packet.src_nid, packet.dst_nid):
            # Failure raced with the packet in flight: drop + notify.
            self._count_drop(packet.src_nid)
            src_ni = self.nis.get(packet.src_nid)
            if src_ni is not None:
                src_ni.notify_failure(packet)
            dst_ni.rx_credits[packet.vl].release()
            return
        self._arrive(packet, dst_ni, decision)

    def _deliver_duplicate(self, packet, dst_ni: NetworkInterface,
                           delay: float, decision):
        """A second copy of the same frame: same wire bits, same link seq,
        so the receiving NI's dedup window rejects whichever arrives last."""
        yield dst_ni.rx_credits[packet.vl].acquire()
        yield delay
        if not self._reachable(packet.src_nid, packet.dst_nid):
            dst_ni.rx_credits[packet.vl].release()
            return
        self._arrive(packet, dst_ni, decision)

    def _arrive(self, packet, dst_ni: NetworkInterface, decision) -> None:
        if decision is not None and decision.corrupt:
            decoded = self.fault_injector.corrupted_copy(
                packet, decision.corrupt_r)
            if decoded is None:
                # CRC check failed at the receiver: frame rejected.
                dst_ni.reject_corrupt(packet)
                return
            packet = decoded
        self.packets_delivered += 1
        dst_ni.deliver(packet)

    def _count_drop(self, src_nid: int) -> None:
        self.packets_dropped += 1
        self.drops_by_node[src_nid] = self.drops_by_node.get(src_nid, 0) + 1

    # -- observability -------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Delivery/drop counters for telemetry."""
        stats = {
            "delivered": self.packets_delivered,
            "dropped": self.packets_dropped,
            "attached_nodes": len(self.nis),
        }
        if self.fault_injector is not None:
            stats.update(self.fault_injector.stats())
        return stats

    def node_stats(self, node_id: int) -> Dict[str, int]:
        """Per-node fabric counters (drops attributed to the sender)."""
        ni = self.nis.get(node_id)
        return {
            "packets_dropped": self.drops_by_node.get(node_id, 0),
            "checksum_dropped": ni.checksum_dropped if ni else 0,
            "duplicates_dropped": ni.duplicates_dropped if ni else 0,
        }
