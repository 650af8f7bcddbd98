"""One scaffold for every partitioned scenario run.

The KV, serving and transport harnesses and the partitioned PageRank,
BFS and fault-tolerant BSP runs all cut the same cluster model across
worker processes with :func:`~repro.sim.parallel.run_partitioned`. This
module owns the parts they share:

* :func:`paired_config` — the caller's cluster config upgraded to the
  paired flow control the partition cut requires
  (:class:`~repro.fabric.partition.PartitionedCrossbar`);
* :func:`runs_partitioned` — whether an app entry point leaves its
  serial path at all;
* :func:`rank_cluster` — the per-rank preamble: a partitioned cluster
  with membership and the replicated crash schedule;
* :func:`flap_front_end` — the replicated link-flap schedule of the
  failover chaos scenarios;
* :func:`run_scenario` — the one rule for how many workers a run gets;
  resolve the plan, pick the transport, run, and hand back the per-rank
  results in rank order with the wall-clock ``perf`` record every
  harness reports.

Everything a rank builds here is a pure function of the arguments, so a
scenario's merged outcome is identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from ..fabric.faults import FaultInjector
from ..sim import (PartitionPlan, Simulator, default_transport,
                   plan_from_spec, run_partitioned)
from .cluster import Cluster, ClusterConfig

__all__ = ["ScenarioRun", "flap_front_end", "paired_config",
           "rank_cluster", "run_scenario", "runs_partitioned"]


def paired_config(config: Optional[ClusterConfig],
                  num_nodes: int) -> ClusterConfig:
    """``config`` (default: ``num_nodes`` stock nodes) upgraded to
    paired flow control, which the partition cut requires."""
    config = config or ClusterConfig(num_nodes=num_nodes)
    if config.fabric.flow_control != "paired":
        config = replace(config, fabric=replace(config.fabric,
                                                flow_control="paired"))
    return config


def runs_partitioned(workers: Optional[int], partition) -> bool:
    """Whether an app entry point leaves its serial path: an explicit
    :class:`PartitionPlan`, or more than one worker."""
    return isinstance(partition, PartitionPlan) or (workers or 1) > 1


def rank_cluster(config: ClusterConfig, plan: PartitionPlan, rank: int,
                 hb_interval_ns: float, lease_ns: Optional[float],
                 fault_seed: int, crashes: Sequence[Sequence]) -> Cluster:
    """One rank's cluster: membership enabled and, when ``crashes``
    lists any ``(node_id, at_ns[, restart_after_ns])``, a fault
    controller replaying that schedule (identically on every rank)."""
    cluster = Cluster(sim=Simulator(), config=config, partition=plan,
                      rank=rank)
    cluster.enable_membership(interval_ns=hb_interval_ns,
                              lease_ns=lease_ns)
    if crashes:
        cluster.fault_controller(seed=fault_seed).schedule_crashes(crashes)
    return cluster


def flap_front_end(cluster: Cluster, client: int, fault_seed: int,
                   start_ns: float, cycles: int, period_ns: float,
                   down_ns: float) -> None:
    """Install a per-link fault injector and sever every (``client``,
    peer) link for ``down_ns``, ``cycles`` times, one outage per
    ``period_ns`` from ``start_ns``. Replicated identically on every
    rank: the partitioned crossbar re-checks reachability at frame
    delivery."""
    injector = FaultInjector(seed=fault_seed, per_link_streams=True)
    cluster.fabric.install_fault_injector(injector)
    for cycle in range(cycles):
        at = start_ns + cycle * period_ns
        for nid in cluster.all_node_ids:
            if nid != client:
                injector.flap_link(client, nid, after_ns=at,
                                   down_ns=down_ns)


@dataclass
class ScenarioRun:
    """A finished partitioned scenario."""

    #: Each rank's ``finalize()`` result, in rank order.
    parts: List[dict]
    final_time: float
    #: Wall-clock side: transport, workers, rounds, wall_s and the
    #: engine accounting (``PartitionedRun.engine_stats()``).
    perf: Dict[str, object]

    def merged(self, head: dict) -> dict:
        """``head`` updated with every rank's result in rank order.
        Ranks report disjoint facts, except that dict values union —
        per-node maps split across ranks, and replicated control-plane
        state such as membership counters, which every rank reports
        identically."""
        for part in self.parts:
            for key, value in part.items():
                if isinstance(value, dict) \
                        and isinstance(head.get(key), dict):
                    head[key] = {**head[key], **value}
                else:
                    head[key] = value
        return head


def run_scenario(build: Callable, num_nodes: int,
                 workers: Optional[int], partition="contiguous",
                 transport: Optional[str] = None) -> ScenarioRun:
    """Run ``build`` (``(rank, plan) -> (sim, fabric, finalize)``) on
    the partitioned engine with ``workers`` (None or 0 meaning one)
    clamped to at most one node per worker. ``partition`` is a plan,
    ``"contiguous"`` or ``"adaptive"``; ``transport=None`` picks the
    fastest available."""
    num_parts = max(1, min(int(workers or 1), num_nodes))
    plan = plan_from_spec(partition, build, num_nodes, num_parts)
    run = run_partitioned(build, plan, transport=transport
                          or default_transport(plan.num_parts))
    return ScenarioRun(
        parts=[run.results[rank] for rank in sorted(run.results)],
        final_time=run.final_time,
        perf={"transport": run.transport, "workers": plan.num_parts,
              "rounds": run.rounds, "wall_s": run.wall_s,
              "engine": run.engine_stats()})
