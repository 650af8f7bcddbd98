"""Partitionable transport-failover chaos scenario.

One front-end node drives a seeded mixed read/write op trace against
its peers' registered segments through a :class:`FailoverSession`
whose stack is the soNUMA fabric backed by the RDMA/TCP baselines and
the local mirror. A replicated flap schedule severs every (front end,
peer) link mid-run — the primary fabric goes dark, health probes catch
it, the policy fails the session over, and on restore it fails back
and catch-up-replays the degraded-era writes onto the real segments.

Like :func:`~repro.serving.harness.run_serving`, the scenario runs on
the shared scaffold (:mod:`repro.cluster.scenario`), serially or split
across worker processes, with a bit-identical outcome at any worker
count: the op trace, flap schedule, and expected final segment digests
are pure functions of the arguments; all failover-session activity
lives on the front end's rank; flaps are scheduled identically on every
rank (the partitioned crossbar re-checks reachability at delivery); and
membership is the scheduled (deterministic) variant so flapping links
never trigger evictions.

The ``outcome`` carries the acceptance facts: exactly-once completion
accounting against the op log, per-status/per-transport completion
counts, the degradation timeline, latency quantiles, and final segment
digests (real memory vs. write-through mirror vs. pure-function
expectation).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.cluster import ClusterConfig
from ..cluster.scenario import (flap_front_end, paired_config,
                                rank_cluster, run_scenario)
from ..node.node import NodeConfig
from ..rmc.rmc import RMCConfig
from ..runtime.qp_api import RMCSession
from ..vm.address import PAGE_SIZE
from .base import MemoryStore, build_transport
from .health import DegradationTimeline, HealthConfig
from .session import FailoverSession, TransportStack

__all__ = ["run_failover", "generate_ops", "FAILOVER_CLIENT"]

_FAILOVER_CTX = 4

#: Node 0 drives the failover session; nodes 1.. hold the segments.
FAILOVER_CLIENT = 0


def _pattern(nid: int, length: int) -> bytes:
    """Deterministic initial segment content for one peer."""
    return bytes((nid * 31 + i) % 251 for i in range(length))


def _op_value(seed: int, op_index: int, length: int) -> bytes:
    return bytes((seed * 7 + op_index * 13 + i) % 251
                 for i in range(length))


def generate_ops(seed: int, num_ops: int, peers: Sequence[int],
                 region_bytes: int, op_bytes: int,
                 write_frac: float) -> List[Tuple]:
    """Seeded mixed trace: ``(kind, dst, offset, data-or-None)`` rows.

    Write targets are drawn without replacement from the (peer, slot)
    grid, so no two writes touch the same location — the final segment
    state is then order-independent and a pure function of the trace
    (reads may still race writes; the verifier accepts either the
    initial or the written value for a slot).
    """
    if region_bytes % op_bytes:
        raise ValueError("region must be a multiple of the op size")
    rng = random.Random(seed)
    slots = region_bytes // op_bytes
    write_sites = [(p, s) for p in peers for s in range(slots)]
    rng.shuffle(write_sites)
    ops: List[Tuple] = []
    for index in range(num_ops):
        if rng.random() < write_frac and write_sites:
            dst, slot = write_sites.pop()
            ops.append(("write", dst, slot * op_bytes,
                        _op_value(seed, index, op_bytes)))
        else:
            dst = peers[rng.randrange(len(peers))]
            slot = rng.randrange(slots)
            ops.append(("read", dst, slot * op_bytes, None))
    return ops


def _expected_digests(ops: Sequence[Tuple], peers: Sequence[int],
                      region_bytes: int) -> Dict[int, str]:
    segments = {p: bytearray(_pattern(p, region_bytes)) for p in peers}
    for kind, dst, offset, data in ops:
        if kind == "write":
            segments[dst][offset:offset + len(data)] = data
    return {p: hashlib.sha256(bytes(segments[p])).hexdigest()
            for p in peers}


def run_failover(num_nodes: int = 4,
                 num_ops: int = 240,
                 op_bytes: int = 64,
                 region_bytes: int = 4096,
                 write_frac: float = 0.375,
                 gap_ns: float = 250.0,
                 window: int = 8,
                 policy="hysteresis",
                 backends: Sequence[str] = ("sonuma", "rdma", "tcp",
                                            "shm"),
                 flap_cycles: int = 2,
                 flap_start_ns: float = 12_000.0,
                 flap_period_ns: float = 45_000.0,
                 flap_down_ns: float = 18_000.0,
                 probe_interval_ns: float = 1_500.0,
                 health: Optional[HealthConfig] = None,
                 retransmit_timeout_ns: float = 1_500.0,
                 max_retries: int = 1,
                 crash_node: Optional[int] = None,
                 crash_at_ns: Optional[float] = None,
                 hb_interval_ns: float = 2_000.0,
                 lease_ns: float = 6_000.0,
                 seed: int = 7,
                 fault_seed: int = 0,
                 workers: int = 1,
                 transport: Optional[str] = None,
                 partition="contiguous") -> dict:
    """Run the failover chaos scenario; returns ``{"outcome", "perf"}``.

    ``flap_cycles`` schedules that many full outages of the primary
    fabric: every (client, peer) link severed for ``flap_down_ns``,
    once per ``flap_period_ns`` starting at ``flap_start_ns``.
    ``crash_node`` additionally kills one peer outright (no restart) at
    ``crash_at_ns`` — its eviction exercises the membership veto and
    leaves only the local mirror able to answer for it.
    """
    if num_nodes < 2:
        raise ValueError("need the client plus at least one peer")
    if crash_node is not None:
        if not 1 <= crash_node < num_nodes:
            raise ValueError(f"crash_node {crash_node} out of range")
        if crash_at_ns is None:
            raise ValueError("crash_node needs crash_at_ns")
    if "sonuma" not in backends or backends[0] != "sonuma":
        raise ValueError("the soNUMA fabric must be the priority-0 "
                         "backend")

    peers = list(range(1, num_nodes))
    ops = generate_ops(seed, num_ops, peers, region_bytes, op_bytes,
                       write_frac)
    expected = _expected_digests(ops, peers, region_bytes)
    ops_digest = hashlib.sha256(repr(ops).encode()).hexdigest()[:16]
    written = {(dst, offset): data for kind, dst, offset, data in ops
               if kind == "write"}
    segment_size = -(-region_bytes // PAGE_SIZE) * PAGE_SIZE

    flap_end = (flap_start_ns + (flap_cycles - 1) * flap_period_ns
                + flap_down_ns if flap_cycles else 0.0)
    probe_until = max(num_ops * gap_ns, flap_end) + 30_000.0

    health = health or HealthConfig(probe_interval_ns=probe_interval_ns,
                                    down_after=2, up_after=2)

    config = paired_config(
        ClusterConfig(num_nodes=num_nodes,
                      node=NodeConfig(rmc=RMCConfig(
                          retransmit_timeout_ns=retransmit_timeout_ns,
                          max_retries=max_retries))),
        num_nodes)

    crashes = () if crash_node is None else ((crash_node, crash_at_ns),)

    def build(rank, plan):
        cluster = rank_cluster(config, plan, rank, hb_interval_ns,
                               lease_ns, fault_seed, crashes)
        sim, membership = cluster.sim, cluster.membership
        flap_front_end(cluster, FAILOVER_CLIENT, fault_seed, flap_start_ns,
                       flap_cycles, flap_period_ns, flap_down_ns)
        gctx = cluster.create_global_context(_FAILOVER_CTX,
                                             segment_size,
                                             qps_per_node=1)
        for nid in peers:
            if nid in cluster.nodes:
                cluster.poke_segment(nid, _FAILOVER_CTX, 0,
                                     _pattern(nid, region_bytes))
        out: dict = {}
        holder: dict = {}

        if FAILOVER_CLIENT in cluster.nodes:
            node = cluster.nodes[FAILOVER_CLIENT]
            rmc_session = RMCSession(node.core,
                                     gctx.qp(FAILOVER_CLIENT),
                                     gctx.entry(FAILOVER_CLIENT))
            store = MemoryStore()
            for nid in peers:
                store.write(nid, 0, _pattern(nid, region_bytes))
            transports = [
                build_transport(name, sim, store, seed=seed,
                                session=rmc_session,
                                **({"max_op_bytes": max(op_bytes, 64),
                                    "pool": window + 4}
                                   if name == "sonuma" else {}))
                for name in backends]
            timeline = DegradationTimeline()
            stack = TransportStack(sim, transports, policy=policy,
                                   membership=membership,
                                   health=health, timeline=timeline)
            session = FailoverSession(sim, stack, mirror=store,
                                      window=window)
            stack.start_probes(peers, probe_until)
            cluster.transports[FAILOVER_CLIENT] = stack
            wrong = [0]
            reads_checked = [0]

            def check_read(op_id, data):
                kind, dst, offset, _ = ops[op_id]
                reads_checked[0] += 1
                initial = _pattern(dst, region_bytes)[
                    offset:offset + op_bytes]
                fresh = written.get((dst, offset))
                if data != initial and data != fresh:
                    wrong[0] += 1

            def workload():
                for kind, dst, offset, data in ops:
                    if kind == "read":
                        yield from session.post("read", dst, offset,
                                                length=op_bytes,
                                                on_data=check_read)
                    else:
                        yield from session.post("write", dst, offset,
                                                data=data)
                    if gap_ns:
                        yield sim.timeout(gap_ns)
                yield from session.drain()

            sim.process(workload(), name="failover.workload")
            holder["session"] = session
            holder["stack"] = stack
            holder["timeline"] = timeline
            holder["store"] = store
            holder["wrong"] = wrong
            holder["reads_checked"] = reads_checked

        def finalize():
            if holder:
                session = holder["session"]
                stack = holder["stack"]
                stats = session.stats()
                completed = stats["exactly_once"]["completed"]
                served = (stats["by_status"]["ok"]
                          + stats["by_status"]["degraded"])
                out.update(stats)
                out["availability"] = (served / completed
                                       if completed else 1.0)
                out["wrong"] = holder["wrong"][0]
                out["reads_checked"] = holder["reads_checked"][0]
                out["stack"] = stack.stats()
                out["timeline"] = holder["timeline"].as_list()
                out["mirror"] = {
                    nid: hashlib.sha256(
                        holder["store"].read(nid, 0, region_bytes)
                    ).hexdigest()
                    for nid in peers}
            out["segments"] = {
                nid: hashlib.sha256(
                    cluster.peek_segment(nid, _FAILOVER_CTX, 0,
                                         region_bytes)).hexdigest()
                for nid in peers if nid in cluster.nodes}
            out["membership"] = {"evictions": membership.evictions,
                                 "rejoins": membership.rejoins}
            return out

        return sim, cluster.fabric, finalize

    run = run_scenario(build, num_nodes, workers, partition, transport)
    merged = run.merged({
        "final_time": run.final_time,
        "num_ops": num_ops,
        "ops_digest": ops_digest,
        "policy": policy if isinstance(policy, str)
        else getattr(policy, "name", str(policy)),
        "backends": list(backends),
        "flap_cycles": flap_cycles,
        "expected": expected,
        "segments": {},
    })
    if "exactly_once" in merged:
        eo = merged["exactly_once"]
        if eo["issued"] != num_ops:
            raise RuntimeError(
                f"workload issued {eo['issued']} of {num_ops} ops: "
                "the drive loop dropped work")
    return {"outcome": merged, "perf": run.perf}
