"""Distributed breadth-first search — on-line graph query processing.

The paper names "on-line graph query processing" among soNUMA's killer
applications (§8, §2.1: "applications that traverse large data
structures (e.g., graph algorithms)"). Where PageRank (§7.5) is the
batch workload, BFS is the query-style one: irregular, data-dependent
access, little work per vertex.

Two timed implementations over the partitioned global address space:

* :func:`run_bfs_fine` — one-sided: each node expands its frontier and
  issues a fine-grain ``rmc_read`` for every cross-partition adjacency
  list it must inspect (the Fig. 4 idiom applied to traversal). Remote
  adjacency lists are read directly out of the owner's context segment.
* :func:`run_bfs_push` — message-passing: newly discovered remote
  vertices are batched and sent to their owners with the §5.3 messaging
  library at the end of each level (the classic BSP frontier exchange).

Both are validated against :func:`bfs_reference`.

Graph layout in each node's segment: a CSR-style encoding of the local
partition — an index array (one u32 pair per local vertex: start, count
into the edge array) followed by the edge array (u32 global vertex ids)
— so a remote node can fetch any vertex's adjacency with two one-sided
reads (index, then edges), exactly how a real soNUMA deployment would
share read-only graph data.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..cluster.cluster import Cluster, ClusterConfig
from ..cluster.scenario import paired_config, run_scenario, runs_partitioned
from ..runtime.barrier import Barrier
from ..runtime.layout import MessagingConfig
from ..runtime.messaging import Messenger
from ..runtime.qp_api import RMCSession
from ..sim import PartitionPlan
from ..telemetry import merge_snapshots, snapshot
from .graph import Graph, partition_random

__all__ = ["bfs_reference", "run_bfs_fine", "run_bfs_push", "BFSResult"]

_CTX = 1
_INDEX_ENTRY = 8     # u32 start + u32 count per local vertex
_EDGE_BYTES = 4      # u32 neighbor id

#: Per-vertex / per-edge computation costs (visited-set updates etc.).
_VERTEX_NS = 4.0
_EDGE_NS = 1.5


@dataclass
class BFSResult:
    """Outcome of one timed BFS run."""

    variant: str
    parallelism: int
    distances: List[int]          # -1 = unreachable
    elapsed_ns: float
    levels: int
    remote_reads: int = 0
    messages: int = 0
    #: End-of-run cluster telemetry; merged across workers for
    #: partitioned runs.
    telemetry: Optional[object] = None

    @property
    def reached(self) -> int:
        return sum(1 for d in self.distances if d >= 0)


def _out_neighbors(graph: Graph) -> List[List[int]]:
    """BFS traverses *out*-edges; Graph stores in-neighbor lists."""
    out: List[List[int]] = [[] for _ in range(graph.num_vertices)]
    for v in range(graph.num_vertices):
        for u in graph.in_neighbors[v]:
            out[u].append(v)
    return out


def bfs_reference(graph: Graph, source: int) -> List[int]:
    """Untimed BFS distances from ``source`` (-1 for unreachable)."""
    out = _out_neighbors(graph)
    distances = [-1] * graph.num_vertices
    distances[source] = 0
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        for v in out[u]:
            if distances[v] < 0:
                distances[v] = distances[u] + 1
                frontier.append(v)
    return distances


class _BFSSetup:
    """Cluster with the CSR partition of the graph loaded into segments."""

    def __init__(self, graph: Graph, num_nodes: int,
                 cluster_config: Optional[ClusterConfig], seed: int,
                 partition_plan: Optional[PartitionPlan] = None,
                 rank: int = 0):
        self.graph = graph
        self.out = _out_neighbors(graph)
        self.partition = partition_random(graph, num_nodes, seed=seed)
        max_part = max(len(m) for m in self.partition.members)
        max_edges = max(
            sum(len(self.out[v]) for v in members)
            for members in self.partition.members)
        self.index_bytes = max_part * _INDEX_ENTRY
        segment = (self.index_bytes + max_edges * _EDGE_BYTES
                   + (2 << 20))
        self.cluster = Cluster(config=cluster_config
                               or ClusterConfig(num_nodes=num_nodes),
                               partition=partition_plan, rank=rank)
        self.owned = (partition_plan.nodes_of(rank)
                      if partition_plan is not None
                      else list(range(num_nodes)))
        self.gctx = self.cluster.create_global_context(_CTX, segment)
        self.sessions = {
            n: RMCSession(self.cluster.nodes[n].core, self.gctx.qp(n),
                          self.gctx.entry(n))
            for n in self.owned
        }
        self._load_partitions()

    def _load_partitions(self) -> None:
        for n in self.owned:
            members = self.partition.members[n]
            index_blob = bytearray()
            edge_blob = bytearray()
            for v in members:
                start = len(edge_blob) // _EDGE_BYTES
                for w in self.out[v]:
                    edge_blob += struct.pack("<I", w)
                index_blob += struct.pack("<II", start, len(self.out[v]))
            self.cluster.poke_segment(n, _CTX, 0, bytes(index_blob))
            if edge_blob:
                self.cluster.poke_segment(n, _CTX, self.index_bytes,
                                          bytes(edge_blob))

    def adjacency_offsets(self, vertex: int):
        """(index_offset, owner) for a vertex's CSR index entry."""
        owner = self.partition.owner[vertex]
        local = self.partition.local_index[vertex]
        return local * _INDEX_ENTRY, owner


def run_bfs_fine(graph: Graph, num_nodes: int, source: int = 0,
                 cluster_config: Optional[ClusterConfig] = None,
                 seed: int = 7) -> BFSResult:
    """One-sided BFS: remote adjacency lists fetched with rmc_reads.

    Level-synchronous expansion: frontiers are double-buffered
    (``current`` is read-only during a level; discoveries go into
    ``pending``), with two barriers per level framing the swap so every
    node sees a consistent frontier and the termination decision. A
    node that discovers a remote vertex fetches that vertex's adjacency
    itself (index read + edge read) — expansion never blocks on peer
    CPUs, the one-sided property the paper's killer apps rely on.
    """
    setup = _BFSSetup(graph, num_nodes, cluster_config, seed)
    sim = setup.cluster.sim
    partition = setup.partition
    barriers = {n: Barrier(setup.sessions[n], n, list(range(num_nodes)))
                for n in range(num_nodes)}

    distances = [-1] * graph.num_vertices
    distances[source] = 0
    remote_reads = [0]
    # Keyed by the *discovering* node: whoever finds a vertex expands it
    # next level, fetching the adjacency from its owner one-sidedly —
    # no shuffle, no owner involvement (the contrast with run_bfs_push).
    current: Dict[int, Set[int]] = {n: set() for n in range(num_nodes)}
    pending: Dict[int, Set[int]] = {n: set() for n in range(num_nodes)}
    pending[0].add(source)

    def fetch_adjacency(node_id, session, lbuf, vertex):
        index_offset, owner = setup.adjacency_offsets(vertex)
        if owner == node_id:
            base = session.ctx.segment.base_vaddr
            raw = yield from session.core.mem_read(
                session.space, base + index_offset, _INDEX_ENTRY)
            start, count = struct.unpack("<II", raw)
            if count == 0:
                return []
            raw = yield from session.core.mem_read(
                session.space,
                base + setup.index_bytes + start * _EDGE_BYTES,
                count * _EDGE_BYTES)
        else:
            remote_reads[0] += 1
            yield from session.read_sync(owner, index_offset, lbuf,
                                         _INDEX_ENTRY)
            start, count = struct.unpack(
                "<II", session.buffer_peek(lbuf, _INDEX_ENTRY))
            if count == 0:
                return []
            remote_reads[0] += 1
            yield from session.read_sync(
                owner, setup.index_bytes + start * _EDGE_BYTES,
                lbuf, count * _EDGE_BYTES)
            raw = session.buffer_peek(lbuf, count * _EDGE_BYTES)
        return [struct.unpack_from("<I", raw, i * _EDGE_BYTES)[0]
                for i in range(count)]

    def worker(node_id: int):
        session = setup.sessions[node_id]
        core = session.core
        lbuf = session.alloc_buffer(64 * 1024)
        level = 0
        while True:
            yield from barriers[node_id].wait()   # everyone idle
            if node_id == 0:
                for n in range(num_nodes):
                    current[n] = pending[n]
                    pending[n] = set()
            yield from barriers[node_id].wait()   # swap visible, frozen
            if not any(current[n] for n in range(num_nodes)):
                break                              # consistent decision
            for u in sorted(current[node_id]):
                yield core.compute(_VERTEX_NS)
                neighbors = yield from fetch_adjacency(node_id, session,
                                                       lbuf, u)
                for w in neighbors:
                    yield core.compute(_EDGE_NS)
                    if distances[w] < 0:
                        distances[w] = distances[u] + 1
                        pending[node_id].add(w)
            level += 1
        return level

    start_time = sim.now
    procs = [sim.process(worker(n), name=f"bfs.fine{n}")
             for n in range(num_nodes)]
    sim.run()
    for proc in procs:
        if not proc.ok:  # pragma: no cover
            raise proc.value
    reached = [d for d in distances if d >= 0]
    return BFSResult(variant="bfs-fine", parallelism=num_nodes,
                     distances=distances, elapsed_ns=sim.now - start_time,
                     levels=max(reached) if reached else 0,
                     remote_reads=remote_reads[0])


#: Frontier-exchange sentinel: "no discoveries for you this level".
_EMPTY_SENTINEL = b"\xff" * 4


def _push_worker(setup: _BFSSetup, node_id: int, num_nodes: int,
                 source: int, dist: Dict[int, int],
                 messages: List[int]):
    """One node's BFS: expand owned frontier, push discoveries to their
    owners, then exchange pending counts to agree on termination.

    All state is node-local (``dist`` holds only owned vertices), so the
    same generator runs unchanged on a partitioned cluster where each
    worker process simulates a subset of the nodes.
    """
    partition = setup.partition
    session = setup.sessions[node_id]
    core = session.core
    messenger = setup.messengers[node_id]
    peers = [p for p in range(num_nodes) if p != node_id]
    pending: List[int] = []
    if partition.owner[source] == node_id:
        dist[source] = 0
        pending.append(source)
    while True:
        current, pending = pending, []
        outbound: Dict[int, List[tuple]] = {p: [] for p in peers}
        for u in current:
            yield core.compute(_VERTEX_NS)
            for w in setup.out[u]:
                yield core.compute(_EDGE_NS)
                owner = partition.owner[w]
                if owner == node_id:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        pending.append(w)
                else:
                    outbound[owner].append((w, dist[u] + 1))
        # Batched frontier exchange: one message per peer per level
        # (an empty sentinel keeps send/recv counts matched).
        for p in peers:
            blob = b"".join(struct.pack("<II", w, d)
                            for w, d in outbound[p]) or _EMPTY_SENTINEL
            yield from messenger.send(p, blob)
            messages[0] += 1
        for p in peers:
            blob = yield from messenger.recv(p)
            if blob == _EMPTY_SENTINEL:
                continue
            for i in range(0, len(blob), 8):
                w, d = struct.unpack_from("<II", blob, i)
                if w not in dist:
                    dist[w] = d
                    pending.append(w)
        # Termination round: every node broadcasts how many vertices it
        # discovered this level; all stop when the global sum is zero.
        total = len(pending)
        for p in peers:
            yield from messenger.send(p, struct.pack("<I", len(pending)))
            messages[0] += 1
        for p in peers:
            blob = yield from messenger.recv(p)
            total += struct.unpack("<I", blob)[0]
        if total == 0:
            return


def _merge_push_results(graph: Graph, parts: List[Dict]) -> List[int]:
    distances = [-1] * graph.num_vertices
    for part in parts:
        for v, d in part["dist"].items():
            distances[v] = d
    return distances


def run_bfs_push(graph: Graph, num_nodes: int, source: int = 0,
                 cluster_config: Optional[ClusterConfig] = None,
                 seed: int = 7,
                 workers: Optional[int] = None,
                 partition=None,
                 transport: Optional[str] = None) -> BFSResult:
    """Message-passing BFS: frontier exchange via the §5.3 library.

    Each node expands only vertices it owns; discoveries of remote
    vertices are batched into one message per peer per level (u32 ids),
    sent with the messaging library, and merged before the next level.
    A second message round per level exchanges pending-frontier counts
    so every node takes the same termination decision locally — no
    cross-node shared state, which also lets the run execute on the
    conservative parallel engine (``workers > 1`` or an explicit
    ``partition`` plan) with bit-identical results.
    """
    if runs_partitioned(workers, partition):
        config = paired_config(cluster_config, num_nodes)

        def build(rank: int, build_plan: PartitionPlan):
            setup = _BFSSetup(graph, num_nodes, config, seed,
                              partition_plan=build_plan, rank=rank)
            setup.messengers = {
                n: Messenger(setup.sessions[n], n, num_nodes,
                             MessagingConfig(staging_bytes=128 * 1024))
                for n in setup.owned
            }
            sim = setup.cluster.sim
            dists = {n: {} for n in setup.owned}
            messages = [0]
            procs = [sim.process(_push_worker(setup, n, num_nodes, source,
                                              dists[n], messages),
                                 name=f"bfs.push{n}")
                     for n in setup.owned]

            def finalize():
                for proc in procs:
                    if not proc.triggered:
                        raise RuntimeError(
                            f"{proc.name} did not finish (deadlock?)")
                    if not proc.ok:
                        raise proc.value
                merged_dist = {}
                for d in dists.values():
                    merged_dist.update(d)
                return {"dist": merged_dist, "messages": messages[0],
                        "snapshot": snapshot(setup.cluster)}

            return sim, setup.cluster.fabric, finalize

        run = run_scenario(build, num_nodes, workers,
                           partition or "contiguous", transport)
        parts = run.parts
        distances = _merge_push_results(graph, parts)
        merged = merge_snapshots([p["snapshot"] for p in parts],
                                 engine_stats=run.perf["engine"])
        return BFSResult(variant="bfs-push", parallelism=num_nodes,
                         distances=distances, elapsed_ns=run.final_time,
                         levels=max((d for d in distances if d >= 0),
                                    default=0),
                         messages=sum(p["messages"] for p in parts),
                         telemetry=merged)

    setup = _BFSSetup(graph, num_nodes, cluster_config, seed)
    setup.messengers = {
        n: Messenger(setup.sessions[n], n, num_nodes,
                     MessagingConfig(staging_bytes=128 * 1024))
        for n in range(num_nodes)
    }
    sim = setup.cluster.sim
    dists = {n: {} for n in range(num_nodes)}
    messages = [0]
    start_time = sim.now
    procs = [sim.process(_push_worker(setup, n, num_nodes, source,
                                      dists[n], messages),
                         name=f"bfs.push{n}")
             for n in range(num_nodes)]
    sim.run()
    for proc in procs:
        if not proc.ok:  # pragma: no cover
            raise proc.value
    distances = _merge_push_results(graph, [{"dist": d}
                                            for d in dists.values()])
    return BFSResult(variant="bfs-push", parallelism=num_nodes,
                     distances=distances, elapsed_ns=sim.now - start_time,
                     levels=max((d for d in distances if d >= 0),
                                default=0),
                     messages=messages[0],
                     telemetry=snapshot(setup.cluster))
