"""Cluster builder: N nodes over a fabric, with global-context setup.

The highest-level entry point of the library: a :class:`Cluster` builds
the fabric, the nodes, and (optionally) a global context spanning every
node so applications can immediately issue remote operations.

"all operating system instances of an soNUMA fabric are under a single
administrative domain" (§5.1) — context ids are coordinated centrally
here, exactly as a rack-scale deployment's control plane would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..fabric.crossbar import CrossbarFabric
from ..fabric.ni import FabricConfig
from ..fabric.partition import PartitionedCrossbar
from ..fabric.router import RoutedFabric
from ..fabric.topology import Topology
from ..node.node import Node, NodeConfig
from ..rmc.context import ContextEntry
from ..rmc.queues import QueuePair
from ..sim import PartitionError, PartitionPlan, Simulator
from ..vm.address import PAGE_SIZE

__all__ = ["ClusterConfig", "Cluster", "GlobalContext", "NodeMap"]


class NodeMap:
    """Mapping of ``node_id -> Node`` that iterates like the old list.

    A partitioned cluster instantiates only the nodes its rank owns;
    indexing a node that lives on another rank raises
    :class:`~repro.sim.PartitionError` instead of silently touching
    state that would diverge from the serial run.
    """

    def __init__(self, nodes):
        self._nodes: Dict[int, Node] = {n.node_id: n for n in nodes}

    def __getitem__(self, node_id: int) -> Node:
        node = self._nodes.get(node_id)
        if node is None:
            raise PartitionError(
                f"node {node_id} is not simulated by this partition")
        return node

    def get(self, node_id: int, default=None):
        return self._nodes.get(node_id, default)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __iter__(self):
        return iter(sorted(self._nodes.values(),
                           key=lambda n: n.node_id))

    def __len__(self) -> int:
        return len(self._nodes)


@dataclass(frozen=True)
class ClusterConfig:
    """Whole-system configuration (Table 1 defaults throughout)."""

    num_nodes: int = 2
    node: NodeConfig = field(default_factory=NodeConfig)
    fabric: FabricConfig = field(default_factory=FabricConfig)
    #: None => full crossbar (the paper's simulated configuration);
    #: otherwise packets traverse the given multi-hop topology.
    topology: Optional[Topology] = None

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError("cluster needs at least one node")
        if self.topology is not None \
                and self.topology.num_nodes < self.num_nodes:
            raise ValueError("topology smaller than the cluster")


@dataclass
class GlobalContext:
    """A context opened on every node: the partitioned global address
    space applications program against."""

    ctx_id: int
    segment_size: int
    entries: Dict[int, ContextEntry]
    qps: Dict[int, List[QueuePair]]

    def qp(self, node_id: int, index: int = 0) -> QueuePair:
        """A node's ``index``-th registered queue pair in this context."""
        return self.qps[node_id][index]

    def entry(self, node_id: int) -> ContextEntry:
        """A node's context entry (address space + segment) for this ctx."""
        return self.entries[node_id]


class Cluster:
    """N soNUMA nodes joined by a memory fabric."""

    def __init__(self, sim: Optional[Simulator] = None,
                 config: Optional[ClusterConfig] = None,
                 partition: Optional[PartitionPlan] = None,
                 rank: int = 0):
        self.sim = sim or Simulator()
        self.config = config or ClusterConfig()
        self.partition = partition
        self.rank = rank
        #: Every node id in the cluster — identical on all ranks, unlike
        #: ``nodes`` which holds only this partition's instances.
        self.all_node_ids: List[int] = list(range(self.config.num_nodes))
        paired = self.config.fabric.flow_control == "paired"
        if partition is not None or paired:
            if self.config.topology is not None:
                raise PartitionError(
                    "paired flow control / partitioned runs support the "
                    "crossbar fabric only (topology must be None)")
            plan = partition or PartitionPlan.single(self.config.num_nodes)
            if plan.num_nodes != self.config.num_nodes:
                raise PartitionError(
                    f"partition plan covers {plan.num_nodes} nodes but "
                    f"the cluster has {self.config.num_nodes}")
            self.fabric = PartitionedCrossbar(self.sim, self.config.fabric,
                                              plan, rank=rank)
            owned = plan.nodes_of(rank)
        elif self.config.topology is None:
            self.fabric = CrossbarFabric(self.sim, self.config.fabric)
            owned = self.all_node_ids
        else:
            self.fabric = RoutedFabric(self.sim, self.config.topology,
                                       self.config.fabric)
            owned = self.all_node_ids
        self.nodes = NodeMap(
            Node(self.sim, node_id, self.fabric, self.config.node)
            for node_id in owned
        )
        #: Set by :meth:`enable_membership` / :meth:`fault_controller`.
        self.membership = None
        self.faults = None
        #: node_id -> ResilienceCounters, created on demand by
        #: :meth:`resilience_counters` (telemetry reads this).
        self.resilience: Dict[int, object] = {}
        #: node_id -> TransportStack for nodes driving a multi-transport
        #: failover session (telemetry reads health/failover counters
        #: and the degradation timeline from here).
        self.transports: Dict[int, object] = {}

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def is_primary(self) -> bool:
        """True on rank 0 (and always in serial runs): the rank that
        logs cluster-wide (node-agnostic) fault-timeline events so a
        merged parallel timeline matches the serial one."""
        return self.partition is None or self.rank == 0

    # -- failure handling control plane (§5.1) -------------------------------

    def enable_membership(self, interval_ns: float = 20_000.0,
                          lease_ns: Optional[float] = None,
                          on_join=None, on_evict=None, on_rejoin=None):
        """Start the lease-based membership service: every node probes
        every other with RPING heartbeats; lease expiry evicts (with
        epoch fencing on all NIs), pong resumption rejoins. Callbacks
        (``fn(node_id, epoch)``) passed here are registered before the
        initial joins fire. Returns the
        :class:`~repro.cluster.membership.MembershipService`.

        On a *partitioned* cluster the probing mesh cannot run (each
        rank simulates only its own nodes), so this returns a
        :class:`~repro.cluster.membership.ScheduledMembership` instead:
        same interface, same fencing, but evictions/rejoins are driven
        deterministically from the replicated fault controller rather
        than from RPING detectors."""
        from .membership import MembershipService, ScheduledMembership

        if self.membership is not None:
            raise RuntimeError("membership already enabled")
        service_cls = (ScheduledMembership if self.partition is not None
                       else MembershipService)
        self.membership = service_cls(self, interval_ns=interval_ns,
                                      lease_ns=lease_ns)
        for callback, registry in ((on_join, self.membership.on_join),
                                   (on_evict, self.membership.on_evict),
                                   (on_rejoin, self.membership.on_rejoin)):
            if callback is not None:
                registry.append(callback)
        self.membership.start()
        if self.faults is not None:
            self.faults.membership = self.membership
        return self.membership

    def fault_controller(self, seed: int = 0):
        """Create (once) the node-level fault controller, bound to the
        membership service when one is enabled. Returns the
        :class:`~repro.cluster.failures.NodeFaultController`."""
        from .failures import NodeFaultController

        if self.faults is None:
            self.faults = NodeFaultController(self, self.membership,
                                              seed=seed)
        return self.faults

    def resilience_counters(self, node_id: int):
        """The node's :class:`~repro.resilience.counters
        .ResilienceCounters`, created on first use. The resilience
        subsystem (striped checkpoints, op logs, coded KV) increments
        them; telemetry snapshots fold them into the per-node report."""
        from ..resilience.counters import ResilienceCounters

        if node_id not in self.resilience:
            self.resilience[node_id] = ResilienceCounters()
        return self.resilience[node_id]

    def on_evict(self, callback) -> None:
        """Register ``fn(node_id, epoch)`` fired on every eviction."""
        self._membership_required().on_evict.append(callback)

    def on_rejoin(self, callback) -> None:
        """Register ``fn(node_id, epoch)`` fired on every rejoin."""
        self._membership_required().on_rejoin.append(callback)

    def on_join(self, callback) -> None:
        """Register ``fn(node_id, epoch)`` fired for each initial join."""
        self._membership_required().on_join.append(callback)

    def _membership_required(self):
        if self.membership is None:
            raise RuntimeError(
                "call enable_membership() before registering callbacks")
        return self.membership

    def create_global_context(self, ctx_id: int, segment_size: int,
                              qps_per_node: int = 1,
                              qp_size: int = 64) -> GlobalContext:
        """Open ``ctx_id`` on every node and create QPs for each."""
        entries: Dict[int, ContextEntry] = {}
        qps: Dict[int, List[QueuePair]] = {}
        for node in self.nodes:
            entries[node.node_id] = node.driver.open_context(
                ctx_id, segment_size)
            qps[node.node_id] = [
                node.driver.create_qp(ctx_id, size=qp_size)
                for _ in range(qps_per_node)
            ]
        return GlobalContext(ctx_id=ctx_id, segment_size=segment_size,
                             entries=entries, qps=qps)

    def run(self, until: Optional[float] = None) -> float:
        """Advance the whole-system simulation."""
        return self.sim.run(until=until)

    # -- functional helpers for tests and examples --------------------------

    def _segment_spans(self, node_id: int, ctx_id: int, offset: int,
                       length: int):
        """Physical ``(paddr, span)`` pieces of a segment byte range.

        Splits at page boundaries: frames need not be physically
        contiguous even when the segment is virtually contiguous.
        """
        entry = self.nodes[node_id].driver.contexts[ctx_id]
        vaddr = entry.segment.vaddr_of(offset)
        end = vaddr + length
        while vaddr < end:
            span = min(end - vaddr, PAGE_SIZE - (vaddr % PAGE_SIZE))
            yield entry.address_space.translate(vaddr), span
            vaddr += span

    def poke_segment(self, node_id: int, ctx_id: int, offset: int,
                     data: bytes) -> None:
        """Write bytes directly into a node's context segment (untimed)."""
        phys = self.nodes[node_id].phys
        written = 0
        for paddr, span in self._segment_spans(node_id, ctx_id, offset,
                                               len(data)):
            phys.write(paddr, data[written:written + span])
            written += span

    def peek_segment(self, node_id: int, ctx_id: int, offset: int,
                     length: int) -> bytes:
        """Read bytes directly from a node's context segment (untimed)."""
        phys = self.nodes[node_id].phys
        return b"".join(phys.read(paddr, span) for paddr, span in
                        self._segment_spans(node_id, ctx_id, offset, length))

    def zero_segment(self, node_id: int, ctx_id: int) -> None:
        """Zero a node's whole context segment (untimed) without
        materializing its pages: whole pages are dropped."""
        phys = self.nodes[node_id].phys
        size = self.nodes[node_id].driver.contexts[ctx_id].segment.size
        for paddr, span in self._segment_spans(node_id, ctx_id, 0, size):
            phys.zero(paddr, span)
