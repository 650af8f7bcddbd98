"""PageRank, three ways (the paper's §7.5 application study).

All three implementations follow the Bulk Synchronous Processing model:
"every node computes its own portion of the dataset (range of vertices)
and then synchronizes with other participants, before proceeding with
the next iteration (so-called superstep)."

* ``SHM(pthreads)`` — :func:`run_shm`: threads on one cache-coherent
  multiprocessor (the :mod:`repro.baselines.shm` node), shared vertex
  array, local barrier.
* ``soNUMA(bulk)`` — :func:`run_sonuma_bulk`: after each barrier, every
  node pulls each peer's whole partition with one multi-line
  ``rmc_read_async`` per peer (Pregel-style shuffle), then computes on
  local mirrors.
* ``soNUMA(fine-grain)`` — :func:`run_sonuma_fine`: the Fig. 4 code —
  one asynchronous remote read per cross-partition edge, with the
  accumulation done in completion callbacks.

Vertex records are real bytes in context segments (64 B per vertex:
two rank epochs + out-degree), so remote reads move actual data through
the RMC and the final ranks are checked against the untimed reference.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..baselines.shm import build_shm_node
from ..cluster.cluster import Cluster, ClusterConfig
from ..cluster.scenario import paired_config, run_scenario, runs_partitioned
from ..runtime.barrier import Barrier
from ..runtime.qp_api import RMCSession
from ..sim import PartitionPlan, Simulator
from ..telemetry import merge_snapshots, snapshot
from .graph import Graph, Partition, partition_random

__all__ = ["PageRankTiming", "PageRankResult", "run_shm",
           "run_sonuma_bulk", "run_sonuma_fine", "VERTEX_BYTES"]

#: One cache line per vertex: rank[0] f64, rank[1] f64, out_degree u64.
VERTEX_BYTES = 64

_CTX = 1
_DAMPING = 0.85


def _pack_vertex(rank0: float, rank1: float, out_degree: int) -> bytes:
    body = struct.pack("<ddQ", rank0, rank1, out_degree)
    return body + bytes(VERTEX_BYTES - len(body))


def _unpack_vertex(data: bytes):
    rank0, rank1, out_degree = struct.unpack_from("<ddQ", data)
    return rank0, rank1, out_degree


@dataclass(frozen=True)
class PageRankTiming:
    """Computation costs charged by the timed implementations."""

    edge_compute_ns: float = 2.0     # multiply-accumulate + loop control
    vertex_compute_ns: float = 3.0   # init + final scale per vertex
    shm_barrier_ns: float = 150.0    # in-node sense-reversing barrier cost


@dataclass
class PageRankResult:
    """Outcome of one timed PageRank run."""

    variant: str
    parallelism: int
    supersteps: int
    elapsed_ns: float
    ranks: List[float]
    remote_reads: int = 0
    #: End-of-run cluster telemetry (soNUMA variants only); for
    #: partitioned runs this is the merged snapshot across workers.
    telemetry: Optional[object] = None

    @property
    def elapsed_us(self) -> float:
        return self.elapsed_ns / 1000.0


class _LocalBarrier:
    """Sense-reversing barrier for threads of one coherent node."""

    def __init__(self, sim: Simulator, parties: int, cost_ns: float):
        self.sim = sim
        self.parties = parties
        self.cost_ns = cost_ns
        self._count = 0
        self._gate = sim.event()

    def wait(self):
        yield self.cost_ns
        self._count += 1
        if self._count == self.parties:
            self._count = 0
            gate, self._gate = self._gate, self.sim.event()
            gate.succeed()
        else:
            yield self._gate


# ---------------------------------------------------------------------------
# SHM(pthreads)
# ---------------------------------------------------------------------------

def run_shm(graph: Graph, num_threads: int, supersteps: int = 1,
            timing: PageRankTiming = PageRankTiming(),
            seed: int = 7,
            llc_per_core_bytes: Optional[int] = None) -> PageRankResult:
    """PageRank on a cache-coherent multiprocessor (the SHM baseline).

    ``llc_per_core_bytes`` overrides the LLC provisioning (the Fig. 9
    harness uses it to keep the aggregate LLC equal across comparisons,
    as the paper does).
    """
    if num_threads < 1:
        raise ValueError("need at least one thread")
    kwargs = {}
    if llc_per_core_bytes is not None:
        kwargs["llc_per_core_bytes"] = llc_per_core_bytes
    sim, node = build_shm_node(
        num_cores=num_threads,
        memory_bytes=max(64, 2 * graph.num_vertices * VERTEX_BYTES
                         // (1 << 20) + 64) * (1 << 20),
        **kwargs)
    entry = node.driver.open_context(
        _CTX, graph.num_vertices * VERTEX_BYTES + VERTEX_BYTES)
    space = entry.address_space
    base = entry.segment.base_vaddr

    # Functional init: uniform starting ranks in epoch 0.
    initial = 1.0 / graph.num_vertices
    for v in range(graph.num_vertices):
        paddr = space.translate(base + v * VERTEX_BYTES)
        node.phys.write(paddr, _pack_vertex(initial, 0.0,
                                            graph.out_degree[v]))

    partition = partition_random(graph, num_threads, seed=seed)
    barrier = _LocalBarrier(sim, num_threads, timing.shm_barrier_ns)

    def worker(core, mine: List[int]):
        for step in range(supersteps):
            read_at = step % 2
            for v in mine:
                yield core.compute(timing.vertex_compute_ns)
                acc = (1.0 - _DAMPING) / graph.num_vertices
                for u in graph.in_neighbors[v]:
                    data = yield from core.mem_read(
                        space, base + u * VERTEX_BYTES, 24)
                    ranks = _unpack_vertex(data)
                    acc += _DAMPING * ranks[read_at] / ranks[2]
                    yield core.compute(timing.edge_compute_ns)
                # Write the new rank into the other epoch slot.
                packed = struct.pack("<d", acc)
                yield from core.mem_write(
                    space, base + v * VERTEX_BYTES + 8 * ((step + 1) % 2),
                    packed)
            yield from barrier.wait()

    start = sim.now
    procs = [node.cores[t].run(worker(node.cores[t], partition.members[t]))
             for t in range(num_threads)]
    sim.run()
    for proc in procs:
        if not proc.ok:  # pragma: no cover - surfacing worker crashes
            raise proc.value
    elapsed = sim.now - start

    final_at = supersteps % 2
    ranks = []
    for v in range(graph.num_vertices):
        paddr = space.translate(base + v * VERTEX_BYTES)
        values = _unpack_vertex(node.phys.read(paddr, 24))
        ranks.append(values[final_at])
    return PageRankResult(variant="shm", parallelism=num_threads,
                          supersteps=supersteps, elapsed_ns=elapsed,
                          ranks=ranks)


# ---------------------------------------------------------------------------
# soNUMA common scaffolding
# ---------------------------------------------------------------------------

class _SoNUMASetup:
    """Cluster + partition + initialized vertex records in segments.

    With a ``partition_plan``/``rank`` this builds one *worker's* slice:
    only the owned nodes are instantiated (sessions, barriers, vertex
    records), while the graph partition itself — vertex ownership — is
    replicated deterministically from the seed on every rank.
    """

    def __init__(self, graph: Graph, num_nodes: int,
                 cluster_config: Optional[ClusterConfig], seed: int,
                 partition_plan: Optional[PartitionPlan] = None,
                 rank: int = 0):
        self.graph = graph
        self.partition = partition_random(graph, num_nodes, seed=seed)
        config = cluster_config or ClusterConfig(num_nodes=num_nodes)
        self.cluster = Cluster(config=config, partition=partition_plan,
                               rank=rank)
        self.owned = (partition_plan.nodes_of(rank)
                      if partition_plan is not None
                      else list(range(num_nodes)))
        max_part = max(len(m) for m in self.partition.members)
        # Partition records + communication state (barrier lines live at
        # the top of the segment; see CommLayout).
        segment = max_part * VERTEX_BYTES + (1 << 20)
        self.gctx = self.cluster.create_global_context(_CTX, segment)
        self.sessions = {
            n: RMCSession(self.cluster.nodes[n].core, self.gctx.qp(n),
                          self.gctx.entry(n))
            for n in self.owned
        }
        self.barriers = {
            n: Barrier(self.sessions[n], n, list(range(num_nodes)))
            for n in self.owned
        }
        initial = 1.0 / graph.num_vertices
        for n in self.owned:
            for li, v in enumerate(self.partition.members[n]):
                self.cluster.poke_segment(
                    n, _CTX, li * VERTEX_BYTES,
                    _pack_vertex(initial, 0.0, graph.out_degree[v]))

    def record_offset(self, vertex: int) -> int:
        return self.partition.local_index[vertex] * VERTEX_BYTES

    def collect_ranks(self, final_epoch: int) -> List[float]:
        """Final ranks for *owned* vertices (0.0 elsewhere): partitioned
        workers' lists sum element-wise into the full result."""
        ranks = [0.0] * self.graph.num_vertices
        for n in self.owned:
            members = self.partition.members[n]
            for li, v in enumerate(members):
                raw = self.cluster.peek_segment(n, _CTX, li * VERTEX_BYTES,
                                                24)
                ranks[v] = _unpack_vertex(raw)[final_epoch]
        return ranks


# ---------------------------------------------------------------------------
# soNUMA(bulk)
# ---------------------------------------------------------------------------

def _bulk_worker(setup: _SoNUMASetup, node_id: int, num_nodes: int,
                 supersteps: int, timing: PageRankTiming,
                 remote_reads: List[int]):
    graph = setup.graph
    graph_part = setup.partition
    session = setup.sessions[node_id]
    barrier = setup.barriers[node_id]
    core = session.core
    space = session.space
    seg_base = session.ctx.segment.base_vaddr
    mine = graph_part.members[node_id]
    peers = [p for p in range(num_nodes) if p != node_id]
    mirrors = {
        p: session.alloc_buffer(
            max(len(graph_part.members[p]), 1) * VERTEX_BYTES)
        for p in peers
    }
    for step in range(supersteps):
        yield from barrier.wait()
        # Shuffle: one multi-line read per peer, all concurrent
        # ("limited only by the bisection bandwidth", §7.5).
        for p in peers:
            nbytes = len(graph_part.members[p]) * VERTEX_BYTES
            if nbytes == 0:
                continue
            yield from session.wait_for_slot()
            yield from session.read_async(p, 0, mirrors[p], nbytes)
            remote_reads[0] += 1
        yield from session.drain_cq()

        read_at = step % 2
        for v in mine:
            yield core.compute(timing.vertex_compute_ns)
            acc = (1.0 - _DAMPING) / graph.num_vertices
            for u in graph.in_neighbors[v]:
                owner = graph_part.owner[u]
                if owner == node_id:
                    vaddr = seg_base + setup.record_offset(u)
                else:
                    vaddr = mirrors[owner] + setup.record_offset(u)
                data = yield from core.mem_read(space, vaddr, 24)
                values = _unpack_vertex(data)
                acc += _DAMPING * values[read_at] / values[2]
                yield core.compute(timing.edge_compute_ns)
            packed = struct.pack("<d", acc)
            yield from core.mem_write(
                space,
                seg_base + setup.record_offset(v) + 8 * ((step + 1) % 2),
                packed)
    yield from barrier.wait()


def _run_partitioned_pagerank(variant: str, worker_fn, graph: Graph,
                              num_nodes: int, supersteps: int,
                              timing: PageRankTiming,
                              cluster_config: Optional[ClusterConfig],
                              seed: int, workers: Optional[int], partition,
                              transport: Optional[str]) -> PageRankResult:
    config = paired_config(cluster_config, num_nodes)

    def build(rank: int, build_plan: PartitionPlan):
        setup = _SoNUMASetup(graph, num_nodes, config, seed,
                             partition_plan=build_plan, rank=rank)
        sim = setup.cluster.sim
        remote_reads = [0]
        procs = [
            sim.process(worker_fn(setup, n, num_nodes, supersteps, timing,
                                  remote_reads),
                        name=f"pagerank.{variant}{n}")
            for n in setup.owned
        ]

        def finalize():
            for proc in procs:
                if not proc.triggered:
                    raise RuntimeError(
                        f"{proc.name} did not finish (deadlock?)")
                if not proc.ok:
                    raise proc.value
            return {"ranks": setup.collect_ranks(supersteps % 2),
                    "remote_reads": remote_reads[0],
                    "snapshot": snapshot(setup.cluster)}

        return sim, setup.cluster.fabric, finalize

    run = run_scenario(build, num_nodes, workers,
                       partition or "contiguous", transport)
    parts = run.parts
    # Vertex ownership is disjoint across workers, so the per-worker
    # rank lists (0.0 for unowned vertices) sum element-wise.
    ranks = [0.0] * graph.num_vertices
    for part in parts:
        for v, value in enumerate(part["ranks"]):
            ranks[v] += value
    merged = merge_snapshots([p["snapshot"] for p in parts],
                             engine_stats=run.perf["engine"])
    return PageRankResult(
        variant=f"sonuma-{variant}", parallelism=num_nodes,
        supersteps=supersteps, elapsed_ns=run.final_time, ranks=ranks,
        remote_reads=sum(p["remote_reads"] for p in parts),
        telemetry=merged)


def run_sonuma_bulk(graph: Graph, num_nodes: int, supersteps: int = 1,
                    timing: PageRankTiming = PageRankTiming(),
                    cluster_config: Optional[ClusterConfig] = None,
                    seed: int = 7,
                    workers: Optional[int] = None,
                    partition=None,
                    transport: Optional[str] = None) -> PageRankResult:
    """Pregel-style PageRank: whole-partition pulls each superstep.

    ``workers > 1`` (or an explicit ``partition`` plan) runs the
    simulation on the conservative parallel engine — bit-identical
    results, one worker process per partition. ``partition`` may be a
    :class:`PartitionPlan`, ``"contiguous"``, or ``"adaptive"``
    (profiled load-aware cut); ``transport=None`` picks the fastest
    available (shm > process > inline).
    """
    if runs_partitioned(workers, partition):
        return _run_partitioned_pagerank(
            "bulk", _bulk_worker, graph, num_nodes, supersteps, timing,
            cluster_config, seed, workers, partition, transport)
    setup = _SoNUMASetup(graph, num_nodes, cluster_config, seed)
    sim = setup.cluster.sim
    remote_reads = [0]
    start = sim.now
    procs = [sim.process(_bulk_worker(setup, n, num_nodes, supersteps,
                                      timing, remote_reads),
                         name=f"pagerank.bulk{n}")
             for n in range(num_nodes)]
    sim.run()
    for proc in procs:
        if not proc.ok:  # pragma: no cover
            raise proc.value
    return PageRankResult(variant="sonuma-bulk", parallelism=num_nodes,
                          supersteps=supersteps, elapsed_ns=sim.now - start,
                          ranks=setup.collect_ranks(supersteps % 2),
                          remote_reads=remote_reads[0],
                          telemetry=snapshot(setup.cluster))


# ---------------------------------------------------------------------------
# soNUMA(fine-grain)
# ---------------------------------------------------------------------------

def _fine_worker(setup: _SoNUMASetup, node_id: int, num_nodes: int,
                 supersteps: int, timing: PageRankTiming,
                 remote_reads: List[int]):
    graph = setup.graph
    graph_part = setup.partition
    session = setup.sessions[node_id]
    barrier = setup.barriers[node_id]
    core = session.core
    space = session.space
    seg_base = session.ctx.segment.vaddr_of(0)
    mine = graph_part.members[node_id]
    wq_slots = session.qp.size
    # One landing line per WQ slot: the WQ index doubles as the
    # buffer slot (unique among outstanding ops), mirroring Fig. 4's
    # lbuf[slot] / async_dest_addr[slot] arrays.
    lbuf = session.alloc_buffer(wq_slots * VERTEX_BYTES)
    acc: Dict[int, float] = {}
    slot_vertex: Dict[int, int] = {}
    read_epoch = [0]

    def on_complete(cq_entry):
        """pagerank_async(): accumulate from the landed buffer."""
        slot = cq_entry.wq_index
        raw = session.buffer_peek(lbuf + slot * VERTEX_BYTES, 24)
        values = _unpack_vertex(raw)
        v = slot_vertex.pop(slot)
        acc[v] += _DAMPING * values[read_epoch[0]] / values[2]

    for step in range(supersteps):
        read_epoch[0] = step % 2
        yield from barrier.wait()
        for v in mine:
            yield core.compute(timing.vertex_compute_ns)
            acc[v] = (1.0 - _DAMPING) / graph.num_vertices
            for u in graph.in_neighbors[v]:
                owner = graph_part.owner[u]
                if owner == node_id:
                    # shared-memory path within the node
                    data = yield from core.mem_read(
                        space, seg_base + setup.record_offset(u), 24)
                    values = _unpack_vertex(data)
                    acc[v] += _DAMPING * values[read_epoch[0]] \
                        / values[2]
                    yield core.compute(timing.edge_compute_ns)
                else:
                    # flow control, then a split remote operation
                    yield from session.wait_for_slot(on_complete)
                    slot = session.qp.wq.next_free()
                    slot_vertex[slot] = v
                    yield from session.read_async(
                        owner, setup.record_offset(u),
                        lbuf + slot * VERTEX_BYTES, VERTEX_BYTES,
                        callback=on_complete)
                    remote_reads[0] += 1
        yield from session.drain_cq(on_complete)
        # Write back every owned vertex's new rank (timed).
        for v in mine:
            packed = struct.pack("<d", acc[v])
            yield from core.mem_write(
                space,
                seg_base + setup.record_offset(v)
                + 8 * ((step + 1) % 2),
                packed)
    yield from barrier.wait()


def run_sonuma_fine(graph: Graph, num_nodes: int, supersteps: int = 1,
                    timing: PageRankTiming = PageRankTiming(),
                    cluster_config: Optional[ClusterConfig] = None,
                    seed: int = 7,
                    workers: Optional[int] = None,
                    partition=None,
                    transport: Optional[str] = None) -> PageRankResult:
    """The Fig. 4 implementation: one async remote read per cut edge.

    ``workers > 1`` (or an explicit ``partition`` plan) runs the
    simulation on the conservative parallel engine — bit-identical
    results, one worker process per partition. ``partition`` and
    ``transport`` as in :func:`run_sonuma_bulk`.
    """
    if runs_partitioned(workers, partition):
        return _run_partitioned_pagerank(
            "fine", _fine_worker, graph, num_nodes, supersteps, timing,
            cluster_config, seed, workers, partition, transport)
    setup = _SoNUMASetup(graph, num_nodes, cluster_config, seed)
    sim = setup.cluster.sim
    remote_reads = [0]
    start = sim.now
    procs = [sim.process(_fine_worker(setup, n, num_nodes, supersteps,
                                      timing, remote_reads),
                         name=f"pagerank.fine{n}")
             for n in range(num_nodes)]
    sim.run()
    for proc in procs:
        if not proc.ok:  # pragma: no cover
            raise proc.value
    return PageRankResult(variant="sonuma-fine", parallelism=num_nodes,
                          supersteps=supersteps, elapsed_ns=sim.now - start,
                          ranks=setup.collect_ranks(supersteps % 2),
                          remote_reads=remote_reads[0],
                          telemetry=snapshot(setup.cluster))
