"""Lease-based cluster membership with monotonic epochs (§5.1).

"All operating system instances of an soNUMA fabric are under a single
administrative domain" — this module models that domain's control plane:
a membership service that layers *leases* on the driver-level RPING
heartbeat detectors and maintains two monotonic counters:

* the **cluster epoch** — bumped on every membership change (eviction,
  rejoin), giving applications a cheap staleness check ("has the world
  changed since I looked?");
* a per-node **incarnation** — stamped by each node's NI into the wire
  trailer of every frame it transmits. When the service evicts a node it
  installs a *fence* on every surviving NI: frames carrying the dead
  incarnation are dropped at the link layer, so a reply that was in
  flight when its sender was declared dead — or that a gray-partitioned
  sender keeps emitting after eviction — can never complete into a CQ.
  A restarted node is assigned the next incarnation before it touches
  the fabric, so its new traffic passes the same fence its old traffic
  dies on.

The service is a modeling stand-in for a control plane reached out of
band (the rack's management network): it has global knowledge, reacts to
any node's detector, and mutates NI fences directly. Under a symmetric
partition both sides are suspected and evicted; when the partition heals
the pongs resume and both rejoin under fresh incarnations — epoch
fencing makes that safe even though the "dead" nodes never stopped
running (the split-brain case in-memory replication papers fence with
exactly this mechanism).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = ["MemberState", "MemberRecord", "MembershipService",
           "ScheduledMembership", "is_member_live"]


def is_member_live(membership, node_id: int) -> bool:
    """Whether the control plane counts ``node_id`` as live; without a
    membership service every node does."""
    return membership is None or membership.is_live(node_id)


class MemberState(enum.Enum):
    ALIVE = "alive"
    EVICTED = "evicted"


@dataclass
class MemberRecord:
    """Control-plane view of one node."""

    node_id: int
    state: MemberState = MemberState.ALIVE
    #: The incarnation currently authorized to speak for this node.
    incarnation: int = 1
    #: Frames below this incarnation are fenced on every peer NI.
    fenced_below: int = 0
    evicted_at: Optional[float] = None
    rejoined_at: Optional[float] = None
    evictions: int = 0
    rejoins: int = 0

    @property
    def is_live(self) -> bool:
        return self.state is MemberState.ALIVE


class MembershipService:
    """The single-domain control plane: leases, epochs, fencing."""

    def __init__(self, cluster, interval_ns: float = 20_000.0,
                 lease_ns: Optional[float] = None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.interval_ns = interval_ns
        self.lease_ns = lease_ns if lease_ns is not None else 3 * interval_ns
        #: Cluster configuration epoch; bumps on every membership change.
        self.epoch = 1
        self.members: Dict[int, MemberRecord] = {
            node.node_id: MemberRecord(node.node_id)
            for node in cluster.nodes
        }
        #: Callbacks ``fn(node_id, epoch)`` fired on membership changes.
        self.on_evict: List[Callable[[int, int], None]] = []
        self.on_rejoin: List[Callable[[int, int], None]] = []
        self.on_join: List[Callable[[int, int], None]] = []
        self.evictions = 0
        self.rejoins = 0
        #: Downtime samples (rejoined_at - evicted_at), for MTTR.
        self.repair_times_ns: List[float] = []
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Stamp incarnation 1 into every NI and start every node's
        heartbeat detector, wired into this service."""
        if self._started:
            raise RuntimeError("membership service already started")
        self._started = True
        for node in self.cluster.nodes:
            node.ni.epoch = self.members[node.node_id].incarnation
        for node in self.cluster.nodes:
            self.attach_detector(node)
            for callback in self.on_join:
                callback(node.node_id, self.epoch)

    def attach_detector(self, node) -> None:
        """(Re-)wire one node's driver heartbeat into the service and
        start probing. Used at start and again after a node restart."""
        driver = node.driver
        reporter = node.node_id
        driver.on_node_failure = (
            lambda peer, _r=reporter: self._peer_suspected(_r, peer))
        driver.on_node_recovery = (
            lambda peer, _r=reporter: self._peer_recovered(_r, peer))
        peers = [n.node_id for n in self.cluster.nodes
                 if n.node_id != node.node_id]
        driver.enable_failure_detector(peers, interval_ns=self.interval_ns,
                                       lease_ns=self.lease_ns)

    # -- queries -------------------------------------------------------------

    def is_live(self, node_id: int) -> bool:
        return self.members[node_id].is_live

    def live_members(self) -> List[int]:
        return sorted(nid for nid, rec in self.members.items()
                      if rec.is_live)

    def incarnation_of(self, node_id: int) -> int:
        return self.members[node_id].incarnation

    # -- transitions ---------------------------------------------------------

    def _peer_suspected(self, reporter: int, peer: int) -> None:
        """``reporter``'s detector saw ``peer``'s lease expire.

        Reports from evicted nodes are discarded: an evicted node's own
        probes are fenced at every survivor, so its detector soon
        suspects the whole (healthy) cluster — trusting it would cascade
        the one eviction into all of them."""
        if not self.members[reporter].is_live:
            return
        record = self.members.get(peer)
        if record is None or not record.is_live:
            return   # already evicted: duplicate suspicions are no-ops
        self.evict(peer)

    def _peer_recovered(self, reporter: int, peer: int) -> None:
        """``reporter``'s detector got a pong from a suspect again."""
        if not self.members[reporter].is_live:
            return   # evicted reporters have no say (see above)
        record = self.members.get(peer)
        if record is None or record.is_live:
            return   # already rejoined: duplicate recoveries are no-ops
        self.rejoin(peer)

    def evict(self, node_id: int) -> int:
        """Declare a node dead: bump the epoch, fence its incarnation on
        every surviving NI, fire callbacks. Returns the new epoch."""
        record = self.members[node_id]
        if not record.is_live:
            return self.epoch
        record.state = MemberState.EVICTED
        record.fenced_below = record.incarnation + 1
        record.evicted_at = self.sim.now
        record.evictions += 1
        self.evictions += 1
        self.epoch += 1
        for node in self.cluster.nodes:
            if node.node_id == node_id:
                continue
            node.ni.fence_peer(node_id, record.fenced_below)
            # Requester-side fence: stop retransmitting toward the dead
            # node — a retry could otherwise outlive its crash-restart
            # window and "succeed" against the wiped reborn incarnation.
            node.rmc.abort_peer(node_id)
        for callback in self.on_evict:
            callback(node_id, self.epoch)
        return self.epoch

    def register_restart(self, node_id: int) -> int:
        """A crashed node is being restarted (fault controller): assign
        its next incarnation and stamp it into the node's NI *before* the
        node touches the fabric, so its first frames already pass the
        fence installed at eviction. Returns the new incarnation."""
        record = self.members[node_id]
        if record.incarnation < record.fenced_below:
            record.incarnation = record.fenced_below
        node = self.cluster.nodes[node_id]
        node.ni.epoch = record.incarnation
        return record.incarnation

    def rejoin(self, node_id: int) -> int:
        """A previously evicted node is reachable again: readmit it under
        a fresh incarnation and a new epoch. Returns the new epoch.

        If the node was *restarted* (controller called
        :meth:`register_restart`) its incarnation is already beyond the
        fence. If it merely recovered from a gray period or a partition —
        it never stopped running — the fence would still be dropping its
        traffic, so re-incarnate it here before readmission."""
        record = self.members[node_id]
        if record.is_live:
            return self.epoch
        if record.incarnation < record.fenced_below:
            record.incarnation = record.fenced_below
            self.cluster.nodes[node_id].ni.epoch = record.incarnation
        record.state = MemberState.ALIVE
        record.rejoined_at = self.sim.now
        record.rejoins += 1
        self.rejoins += 1
        if record.evicted_at is not None:
            self.repair_times_ns.append(record.rejoined_at
                                        - record.evicted_at)
        self.epoch += 1
        for callback in self.on_rejoin:
            callback(node_id, self.epoch)
        return self.epoch

    # -- observability -------------------------------------------------------

    @property
    def mttr_ns(self) -> float:
        """Mean time to repair: average observed downtime (0 if none)."""
        if not self.repair_times_ns:
            return 0.0
        return sum(self.repair_times_ns) / len(self.repair_times_ns)

    def stats(self) -> Dict[str, float]:
        return {
            "epoch": self.epoch,
            "live_members": len(self.live_members()),
            "evictions": self.evictions,
            "rejoins": self.rejoins,
            "mttr_ns": self.mttr_ns,
        }


class ScheduledMembership(MembershipService):
    """Deterministic membership for *partitioned* clusters.

    The RPING-based :class:`MembershipService` is cluster-global: every
    node probes every other, and the first detector to see a lease
    expire drives the eviction. On a partitioned (multi-rank) cluster
    each rank simulates only its own nodes, so the probing mesh cannot
    run — and worse, detector timing would depend on which rank hosts
    which detector, breaking the parallel engine's bit-for-bit
    determinism guarantee.

    This variant replaces probing with *scheduled* transitions that
    every rank replays identically:

    * the fault controller reports each crash through
      :meth:`note_crash`; the eviction fires exactly ``lease_ns`` later
      (the instant the last pre-crash lease would have expired) on
      every rank, fencing only the nodes the rank owns;
    * a restart (:meth:`register_restart`, called on every rank by the
      replicated controller) schedules the rejoin one heartbeat
      ``interval_ns`` after reboot — the first probe round that would
      have seen a pong.

    The service keeps a record for *every* node id in the cluster (not
    just the rank-owned ones) so liveness queries agree across ranks,
    and it mirrors the full :class:`MembershipService` interface:
    ``is_live`` / ``evict`` / ``register_restart`` / ``rejoin`` /
    ``attach_detector`` (a no-op here) / ``stats`` and the callback
    registries. Epoch fencing and incarnations behave exactly as in the
    probing service; only the *detection delay* is idealized (a fixed
    lease instead of probe-phase-dependent), which is the price of a
    partition-invariant model.
    """

    def __init__(self, cluster, interval_ns: float = 20_000.0,
                 lease_ns: Optional[float] = None):
        super().__init__(cluster, interval_ns=interval_ns,
                         lease_ns=lease_ns)
        # Records for all nodes, including ones other ranks simulate.
        self.members = {nid: MemberRecord(nid)
                        for nid in cluster.all_node_ids}

    def start(self) -> None:
        """Stamp incarnation 1 into every owned NI; no probes are
        started. Join callbacks fire for every node id so rank-level
        bookkeeping is identical everywhere."""
        if self._started:
            raise RuntimeError("membership service already started")
        self._started = True
        for node in self.cluster.nodes:
            node.ni.epoch = self.members[node.node_id].incarnation
        for nid in self.cluster.all_node_ids:
            for callback in self.on_join:
                callback(nid, self.epoch)

    def attach_detector(self, node) -> None:
        """No probing mesh on a partitioned cluster: transitions come
        from :meth:`note_crash` / :meth:`register_restart` instead."""

    def note_crash(self, node_id: int) -> None:
        """Fault-controller hook: a node was fail-stopped *now*. Evict
        it when its lease runs out, unless it was restarted first —
        exactly what the probing detectors would conclude, at the
        deterministic worst-case instant."""
        record = self.members.get(node_id)
        if record is None or not record.is_live:
            return
        sim = self.sim
        incarnation = record.incarnation

        def _lease_expiry():
            yield sim.timeout(self.lease_ns)
            current = self.members[node_id]
            faults = self.cluster.faults
            if current.is_live and current.incarnation == incarnation \
                    and (faults is None or faults.is_down(node_id)):
                self.evict(node_id)

        sim.process(_lease_expiry(), name=f"membership.lease{node_id}")

    def register_restart(self, node_id: int) -> int:
        """Replicated restart path: advance the incarnation past the
        fence everywhere, stamp the NI only on the owning rank, and
        schedule the deterministic rejoin (first post-reboot heartbeat
        round). Returns the new incarnation."""
        record = self.members[node_id]
        if record.incarnation < record.fenced_below:
            record.incarnation = record.fenced_below
        node = self.cluster.nodes.get(node_id)
        if node is not None:
            node.ni.epoch = record.incarnation
        sim = self.sim

        def _first_pong():
            yield sim.timeout(self.interval_ns)
            faults = self.cluster.faults
            if faults is None or not faults.is_down(node_id):
                self.rejoin(node_id)

        sim.process(_first_pong(), name=f"membership.rejoin{node_id}")
        return record.incarnation

    def rejoin(self, node_id: int) -> int:
        """As the base service, but the NI re-incarnation stamp only
        touches rank-owned nodes."""
        record = self.members[node_id]
        if record.is_live:
            return self.epoch
        if record.incarnation < record.fenced_below:
            record.incarnation = record.fenced_below
            node = self.cluster.nodes.get(node_id)
            if node is not None:
                node.ni.epoch = record.incarnation
        record.state = MemberState.ALIVE
        record.rejoined_at = self.sim.now
        record.rejoins += 1
        self.rejoins += 1
        if record.evicted_at is not None:
            self.repair_times_ns.append(record.rejoined_at
                                        - record.evicted_at)
        self.epoch += 1
        for callback in self.on_rejoin:
            callback(node_id, self.epoch)
        return self.epoch


