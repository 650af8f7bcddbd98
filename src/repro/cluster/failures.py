"""Whole-node fault injection: crash, restart, partition, gray-degrade.

PR 1's :class:`~repro.fabric.faults.FaultInjector` perturbs individual
*links* (drop/corrupt/duplicate/jitter). This controller operates one
level up, on *nodes*, the granularity at which the paper's control plane
observes failures ("the RMC notifies the driver of failures within the
soNUMA fabric, including the loss of links and nodes", §5.1):

* :meth:`crash` — fail-stop: the RMC halts (in-flight operations are
  error-completed so the node's own blocked coroutines can observe
  their death), the heartbeat detector stops, and the fabric drops all
  frames to and from the node.
* :meth:`restart` — the node reboots with amnesia: context segments are
  zeroed, link-layer state is reset, the RMC resumes with no QPs, and
  (when a membership service is attached) the node gets its next
  incarnation stamped into its NI *before* it re-enters the fabric.
* :meth:`partition` / :meth:`heal_partition` — sever every link between
  two node groups (split brain); both sides keep running.
* :meth:`gray_fail` / :meth:`gray_restore` — the node stops answering
  RPING probes but keeps serving data: dead to the control plane, alive
  on the data path. The membership fence is what stops its stale replies.
* :meth:`gray_degrade` — a sick-but-alive node: apply a per-link
  :class:`~repro.fabric.faults.FaultPolicy` (loss/jitter) to every link
  touching it, composing with the PR 1 injector.

Every action is recorded in an ordered, timestamped event log, and the
:meth:`schedule_*` variants drive the same actions from inside the
simulation at deterministic times — the crash-timeline benchmark replays
a (seed, schedule, workload) triple and gets identical JSON out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from ..fabric.faults import FaultPolicy

__all__ = ["FaultEvent", "NodeFaultController"]


@dataclass
class FaultEvent:
    """One entry of the fault timeline."""

    time_ns: float
    kind: str        # crash | restart | partition | heal | gray | ...
    node_id: int     # -1 for group-level events (partitions)
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {"time_ns": self.time_ns, "kind": self.kind,
                "node_id": self.node_id, "detail": self.detail}


class NodeFaultController:
    """Crash/restart/partition/gray injection for whole nodes."""

    def __init__(self, cluster, membership=None, seed: int = 0):
        self.cluster = cluster
        self.sim = cluster.sim
        self.fabric = cluster.fabric
        self.membership = membership
        self.seed = seed
        self.rng = random.Random(seed)
        self.events: List[FaultEvent] = []
        self.down: Set[int] = set()
        self.gray: Set[int] = set()
        self.crashes = 0
        self.restarts = 0
        if not hasattr(self.fabric, "fail_node"):
            raise TypeError(
                f"{type(self.fabric).__name__} cannot fail nodes")

    # -- queries -------------------------------------------------------------

    def _all_node_ids(self) -> List[int]:
        """Every node id in the cluster, including ones another rank
        simulates (partitioned runs replicate fabric-level fault state
        everywhere)."""
        ids = getattr(self.cluster, "all_node_ids", None)
        if ids is not None:
            return list(ids)
        return [n.node_id for n in self.cluster.nodes]

    def is_down(self, node_id: int) -> bool:
        return node_id in self.down

    def is_gray(self, node_id: int) -> bool:
        return node_id in self.gray

    def _log(self, kind: str, node_id: int, detail: str = "") -> FaultEvent:
        event = FaultEvent(time_ns=self.sim.now, kind=kind,
                           node_id=node_id, detail=detail)
        self.events.append(event)
        return event

    # -- fail-stop crash / restart -------------------------------------------

    def crash(self, node_id: int, reason: str = "node_crash") -> int:
        """Fail-stop the node now. Returns the number of its in-flight
        operations error-completed (so its coroutines unblock)."""
        if node_id in self.down:
            return 0
        # Partitioned runs replicate the controller on every rank: the
        # fabric-level failure state is applied everywhere (all ranks
        # must agree on reachability), node-local actions and the
        # timeline entry happen only on the owning rank — merged rank
        # timelines then reproduce the serial timeline exactly.
        node = self.cluster.nodes.get(node_id)
        failed = 0
        if node is not None:
            failed = node.rmc.halt(reason)
            node.driver.disable_failure_detector()
        self.fabric.fail_node(node_id)
        self.down.add(node_id)
        self.gray.discard(node_id)
        # Scheduled (partitioned) membership has no probing detectors:
        # tell it directly so the eviction fires at lease expiry on
        # every rank. The RPING-based service has no such hook — its
        # detectors notice the silence on their own.
        note_crash = getattr(self.membership, "note_crash", None)
        if note_crash is not None:
            note_crash(node_id)
        if node is not None:
            node.rmc.mute_pings = False
            self.crashes += 1
            self._log("crash", node_id,
                      f"{failed} in-flight op(s) error-completed")
        return failed

    def restart(self, node_id: int, wipe_memory: bool = True) -> None:
        """Reboot a crashed node: amnesia, fresh incarnation, rejoin path.

        The node's context *registrations* survive (a rebooted node runs
        the same boot-time driver setup) but their segment contents are
        zeroed — checkpointed state must be re-fetched from peers. All
        QPs are gone; applications on the node must create new ones.
        """
        if node_id not in self.down:
            raise RuntimeError(f"node {node_id} is not down")
        node = self.cluster.nodes.get(node_id)
        if node is not None:
            if wipe_memory:
                for ctx_id, entry in node.driver.contexts.items():
                    self.cluster.poke_segment(node_id, ctx_id, 0,
                                              bytes(entry.segment.size))
            node.rmc.resume()
            node.ni.reset_link_state()
        incarnation = 0
        if self.membership is not None:
            incarnation = self.membership.register_restart(node_id)
        self.fabric.restore_node(node_id)
        if node is not None:
            node.driver.reset_failure_detector()
            if self.membership is not None:
                self.membership.attach_detector(node)
        self.down.discard(node_id)
        if node is not None:
            self.restarts += 1
            self._log("restart", node_id,
                      f"incarnation {incarnation}" if incarnation
                      else "no membership attached")

    # -- gray failures -------------------------------------------------------

    def gray_fail(self, node_id: int) -> None:
        """Dead to the control plane, alive on the data path: the node
        stops answering RPING probes but keeps serving requests. Its
        lease expires, membership evicts it, and the epoch fence starts
        killing its still-flowing replies — the split-brain scenario."""
        node = self.cluster.nodes.get(node_id)
        self.gray.add(node_id)
        if node is not None:
            node.rmc.mute_pings = True
            self._log("gray", node_id, "RPING muted")

    def gray_restore(self, node_id: int) -> None:
        """End a gray period: probes are answered again; membership
        rejoins the node under a fresh incarnation on the next pong."""
        node = self.cluster.nodes.get(node_id)
        self.gray.discard(node_id)
        if node is not None:
            node.rmc.mute_pings = False
            self._log("gray_restore", node_id)

    def gray_degrade(self, node_id: int,
                     policy: Optional[FaultPolicy] = None,
                     drop_prob: float = 0.05,
                     delay_jitter_ns: float = 500.0) -> FaultPolicy:
        """Make every link touching the node lossy/jittery (sick node).

        Composes with the PR 1 injector: requires one installed on the
        fabric (the controller's seed does not replace the injector's).
        """
        injector = getattr(self.fabric, "fault_injector", None)
        if injector is None:
            raise RuntimeError(
                "gray_degrade needs a FaultInjector installed on the fabric")
        if policy is None:
            policy = FaultPolicy(drop_prob=drop_prob,
                                 delay_jitter_ns=delay_jitter_ns)
        for other in self._all_node_ids():
            if other != node_id:
                injector.set_link_policy(node_id, other, policy)
        if getattr(self.cluster, "is_primary", True):
            self._log("gray_degrade", node_id,
                      f"drop={policy.drop_prob} "
                      f"jitter={policy.delay_jitter_ns}ns")
        return policy

    def gray_undegrade(self, node_id: int) -> None:
        """Restore clean links around a degraded node."""
        injector = getattr(self.fabric, "fault_injector", None)
        if injector is None:
            return
        clean = FaultPolicy()
        for other in self._all_node_ids():
            if other != node_id:
                injector.set_link_policy(node_id, other, clean)
        if getattr(self.cluster, "is_primary", True):
            self._log("gray_undegrade", node_id)

    # -- partitions ----------------------------------------------------------

    def partition(self, group_a: Sequence[int],
                  group_b: Optional[Sequence[int]] = None) -> None:
        """Sever every link between ``group_a`` and ``group_b`` (default:
        the rest of the cluster). Both sides keep running — split brain."""
        if not hasattr(self.fabric, "sever_link"):
            raise TypeError(
                f"{type(self.fabric).__name__} cannot sever links")
        side_a = set(group_a)
        side_b = (set(group_b) if group_b is not None
                  else set(self._all_node_ids()) - side_a)
        for a in sorted(side_a):
            for b in sorted(side_b):
                self.fabric.sever_link(a, b)
        if getattr(self.cluster, "is_primary", True):
            self._log("partition", -1,
                      f"{sorted(side_a)} | {sorted(side_b)}")

    def heal_partition(self, group_a: Sequence[int],
                       group_b: Optional[Sequence[int]] = None) -> None:
        """Restore every link between the two groups."""
        side_a = set(group_a)
        side_b = (set(group_b) if group_b is not None
                  else set(self._all_node_ids()) - side_a)
        for a in sorted(side_a):
            for b in sorted(side_b):
                self.fabric.restore_link(a, b)
        if getattr(self.cluster, "is_primary", True):
            self._log("heal", -1, f"{sorted(side_a)} | {sorted(side_b)}")

    # -- scheduled (in-simulation) fault timelines ---------------------------

    def schedule_crash(self, node_id: int, at_ns: float,
                       restart_after_ns: Optional[float] = None) -> None:
        """Crash the node at ``at_ns`` (sim time from now); optionally
        restart it ``restart_after_ns`` later. Deterministic: no RNG."""
        sim = self.sim

        def _timeline():
            yield sim.timeout(at_ns)
            self.crash(node_id)
            if restart_after_ns is not None:
                yield sim.timeout(restart_after_ns)
                self.restart(node_id)

        sim.process(_timeline(), name=f"faults.crash{node_id}")

    def schedule_crashes(self, schedule: Sequence[Sequence]) -> None:
        """:meth:`schedule_crash` every ``(node_id, at_ns[,
        restart_after_ns])`` entry, in order — the replicated crash
        timeline of a partitioned scenario."""
        for node_id, at_ns, *restart in schedule:
            self.schedule_crash(node_id, at_ns,
                                restart[0] if restart else None)

    def schedule_gray(self, node_id: int, at_ns: float,
                      duration_ns: Optional[float] = None) -> None:
        """Gray-fail the node at ``at_ns``; optionally restore after
        ``duration_ns``."""
        sim = self.sim

        def _timeline():
            yield sim.timeout(at_ns)
            self.gray_fail(node_id)
            if duration_ns is not None:
                yield sim.timeout(duration_ns)
                self.gray_restore(node_id)

        sim.process(_timeline(), name=f"faults.gray{node_id}")

    def schedule_random_crashes(self, count: int, horizon_ns: float,
                                restart_after_ns: float,
                                candidates: Optional[Sequence[int]] = None
                                ) -> List[Dict[str, float]]:
        """Draw ``count`` (node, time) crash/restart pairs from the
        controller's seeded RNG over ``[0, horizon_ns)`` and schedule
        them. Returns the drawn schedule (deterministic per seed)."""
        pool = (list(candidates) if candidates is not None
                else self._all_node_ids())
        schedule = []
        for _ in range(count):
            node_id = self.rng.choice(pool)
            at_ns = self.rng.uniform(0, horizon_ns)
            schedule.append({"node_id": node_id, "at_ns": at_ns,
                             "restart_after_ns": restart_after_ns})
        # Schedule in time order so same-seed runs interleave identically.
        for entry in sorted(schedule, key=lambda e: (e["at_ns"],
                                                     e["node_id"])):
            self.schedule_crash(entry["node_id"], entry["at_ns"],
                                entry["restart_after_ns"])
        return schedule

    # -- observability -------------------------------------------------------

    def timeline(self) -> List[Dict[str, object]]:
        """The executed fault timeline as JSON-friendly dicts."""
        return [event.as_dict() for event in self.events]

    def stats(self) -> Dict[str, int]:
        return {
            "crashes": self.crashes,
            "restarts": self.restarts,
            "nodes_down": len(self.down),
            "nodes_gray": len(self.gray),
            "fault_events": len(self.events),
        }
