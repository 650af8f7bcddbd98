"""The four paper workloads, driven through public ``repro`` APIs only.

Each workload has an input builder (a pure function of the seed and the
scale, run before any timing) and a repetition function that builds its
clusters, runs them, checks every output and returns a :class:`Rep`.
Everything a repetition returns except host time is a pure function of
the inputs, so two repetitions of one run must agree bit for bit.

Why these four (one per paper figure family, each heavy on different
layers -- see README.md for the full table):

* ``read_ladder`` (Fig. 7a): one closed-loop client, one outstanding
  synchronous read; every layer of a remote op, no queueing.
* ``netpipe`` (Fig. 8): two-process ping-pong over ``Messenger``; the
  only workload on the messaging runtime and the remote-write path.
* ``pagerank`` (Fig. 9): bulk-synchronous PageRank; local cache/DRAM
  walks and barriers dominate, messaging and serving idle.
* ``serving``: open-loop Zipf GETs over a replicated sharded KV with a
  primary crash; the only workload on batching, membership and failover.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro import (Cluster, ClusterConfig, Messenger, MessagingConfig,
                   RMCSession)
from repro.apps.graph import pagerank_reference, zipf_graph
from repro.apps.pagerank import run_sonuma_bulk
from repro.serving.harness import run_serving
from repro.sim import LatencyStat
from repro.workloads.pagerank_sweep import scaled_node_config

CTX = 1

#: Remote region of the read ladder: larger than the 4 MB LLC, read with
#: a stride that misses it on every access (the paper's §7.2 set-up).
LADDER_REGION = 6 * 1024 * 1024
LADDER_STRIDE = 64 * 1024
LADDER_SIZES = ((64, 3000), (512, 1000), (4096, 300))
LADDER_WARMUP = 8

NETPIPE_SIZES = (64, 4096)
NETPIPE_ROUNDS = 150
#: Exceeds the push staging ring, so timed rounds see steady-state caches.
NETPIPE_WARMUP = 18
NETPIPE_THRESHOLD = 256

PAGERANK_VERTICES = 2048
PAGERANK_NODES = 4
PAGERANK_SUPERSTEPS = 3
PAGERANK_LLC = 16 * 1024
PAGERANK_L1 = 8 * 1024
PAGERANK_TOLERANCE = 1e-9
#: The graph is one fixed dataset, as the paper's Twitter subset is; the
#: run's seed drives the random vertex partitions (which vertices each
#: node owns, hence every memory layout, remote read and barrier wait).
PAGERANK_GRAPH_SEED = 42
#: Partitions per repetition. A partition's load imbalance moves the
#: work by a few percent per seed; two per repetition halve that spread.
PAGERANK_PARTITIONS = 2

SERVING_DURATION_NS = 1_000_000.0
SERVING_CRASH_FRACTION = 0.4


@dataclass
class Rep:
    """What one repetition produced, apart from host time."""

    ops: int            # workload operations completed (see OP_UNITS)
    attempted: int      # outputs checked
    failed: int         # operations that failed (e.g. a GET with no replica)
    wrong: int          # outputs that differ from the expected ones
    sim: Dict[str, float] = field(default_factory=dict)
    layer_counts: Dict[str, float] = field(default_factory=dict)


#: What one "op" is on each workload (the unit of ``ops_per_s``).
OP_UNITS = {
    "read_ladder": "remote reads (warm-up included)",
    "netpipe": "message round trips (warm-up included)",
    "pagerank": "edge visits (in-edges x supersteps)",
    "serving": "GET requests offered",
}

#: Simulated-clock metrics: (name, unit, better, paper reference or None).
#: Deterministic for a given seed and scale; any change means the model
#: changed, so their bound is 0.
SIM_METRICS: Dict[str, List[Tuple[str, str, str, object]]] = {
    "read_ladder": [("read64_p50_ns", "ns", "lower", 300.0),
                    ("read64_p99_ns", "ns", "lower", None),
                    ("read4k_p50_ns", "ns", "lower", None)],
    "netpipe": [("msg64_p50_ns", "ns", "lower", 340.0),
                ("msg4k_p50_ns", "ns", "lower", None)],
    "pagerank": [("superstep_us", "us", "lower", None)],
    "serving": [("get_p50_ns", "ns", "lower", None),
                ("get_p999_ns", "ns", "lower", None),
                ("goodput_mops", "Mops", "higher", None)],
}
#: Failed / attempted outputs; simulated clock, exact, every workload.
ERROR_RATE = ("error_rate", "fraction", "lower", None)


def _scaled(count: int, scale: float) -> int:
    return max(2, round(count * scale))


# -- read_ladder --------------------------------------------------------------

def ladder_inputs(seed: int, scale: float):
    rng = random.Random(seed)
    slots = LADDER_REGION // LADDER_STRIDE
    plan = []
    for size, count in LADDER_SIZES:
        pattern = {slot * LADDER_STRIDE: rng.randbytes(size)
                   for slot in range(slots)}
        offsets = [(i % slots) * LADDER_STRIDE
                   for i in range(LADDER_WARMUP + _scaled(count, scale))]
        plan.append((size, pattern, offsets))
    return plan


def ladder_rep(plan) -> Rep:
    ops = wrong = 0
    sim_metrics = {}
    for size, pattern, offsets in plan:
        cluster = Cluster(config=ClusterConfig(num_nodes=2))
        gctx = cluster.create_global_context(CTX, LADDER_REGION + (2 << 20))
        for offset, data in pattern.items():
            cluster.poke_segment(1, CTX, offset, data)
        session = RMCSession(cluster.nodes[0].core, gctx.qp(0),
                             gctx.entry(0))
        stats = LatencyStat()
        mismatches = [0]

        # The closures run inside this iteration's cluster.run().
        def reader(sim):
            lbuf = session.alloc_buffer(max(size, 4096))
            for i, offset in enumerate(offsets):
                start = sim.now
                yield from session.read_sync(1, offset, lbuf, size)
                if i >= LADDER_WARMUP:
                    stats.record(sim.now - start)
                if session.buffer_peek(lbuf, size) != pattern[offset]:
                    mismatches[0] += 1

        cluster.sim.process(reader(cluster.sim))
        cluster.run()
        ops += len(offsets)
        wrong += mismatches[0] + (stats.count != len(offsets) - LADDER_WARMUP)
        if size == 64:
            sim_metrics["read64_p50_ns"] = stats.p50
            sim_metrics["read64_p99_ns"] = stats.p99
        elif size == 4096:
            sim_metrics["read4k_p50_ns"] = stats.p50
    return Rep(ops=ops, attempted=ops, failed=0, wrong=wrong,
               sim=sim_metrics)


# -- netpipe ------------------------------------------------------------------

def netpipe_inputs(seed: int, scale: float):
    rng = random.Random(seed)
    rounds = NETPIPE_WARMUP + _scaled(NETPIPE_ROUNDS, scale)
    return [(size, [rng.randbytes(size) for _ in range(rounds)])
            for size in NETPIPE_SIZES]


def netpipe_rep(plan) -> Rep:
    ops = wrong = 0
    sim_metrics = {}
    for size, payloads in plan:
        cluster = Cluster(config=ClusterConfig(num_nodes=2))
        gctx = cluster.create_global_context(CTX, 4 << 20)
        config = MessagingConfig(threshold=NETPIPE_THRESHOLD,
                                 staging_bytes=256 * 1024)
        ends = [Messenger(RMCSession(cluster.nodes[n].core, gctx.qp(n),
                                     gctx.entry(n)), n, 2, config)
                for n in (0, 1)]
        stats = LatencyStat()
        echoes: List[bytes] = []

        def ping(sim):
            for i, payload in enumerate(payloads):
                start = sim.now
                yield from ends[0].send(1, payload)
                echoes.append((yield from ends[0].recv(1)))
                if i >= NETPIPE_WARMUP:
                    stats.record((sim.now - start) / 2.0)

        def pong(sim):
            for _ in range(len(payloads)):
                message = yield from ends[1].recv(0)
                yield from ends[1].send(0, message)

        cluster.sim.process(ping(cluster.sim))
        cluster.sim.process(pong(cluster.sim))
        cluster.run()
        ops += len(payloads)
        wrong += sum(a != b for a, b in zip(echoes, payloads))
        wrong += len(payloads) - len(echoes)
        sim_metrics[f"msg{'64' if size == 64 else '4k'}_p50_ns"] = stats.p50
    return Rep(ops=ops, attempted=ops, failed=0, wrong=wrong,
               sim=sim_metrics)


# -- pagerank -----------------------------------------------------------------

def _pow2_floor(value: float) -> int:
    power = 1
    while power * 2 <= value:
        power *= 2
    return power


def pagerank_inputs(seed: int, scale: float):
    # Caches shrink with the graph so the working set keeps the same
    # ratio to the LLC (the regime Fig. 9 depends on) at every scale.
    vertices = max(64, round(PAGERANK_VERTICES * scale))
    llc = max(1024, _pow2_floor(PAGERANK_LLC * vertices / PAGERANK_VERTICES))
    graph = zipf_graph(vertices, avg_degree=4, seed=PAGERANK_GRAPH_SEED)
    config = ClusterConfig(
        num_nodes=PAGERANK_NODES,
        node=scaled_node_config(llc_bytes=llc,
                                l1_bytes=min(PAGERANK_L1, llc // 2)))
    reference = pagerank_reference(graph, PAGERANK_SUPERSTEPS)
    partition_seeds = [seed * PAGERANK_PARTITIONS + i
                       for i in range(PAGERANK_PARTITIONS)]
    return graph, config, reference, partition_seeds


def pagerank_rep(inputs) -> Rep:
    graph, config, reference, partition_seeds = inputs
    wrong = 0
    elapsed_ns = 0.0
    for seed in partition_seeds:
        result = run_sonuma_bulk(graph, PAGERANK_NODES,
                                 supersteps=PAGERANK_SUPERSTEPS,
                                 cluster_config=config, seed=seed, workers=1)
        wrong += sum(abs(got - want) > PAGERANK_TOLERANCE
                     for got, want in zip(result.ranks, reference))
        wrong += len(reference) - len(result.ranks)
        elapsed_ns += result.elapsed_ns
    runs = len(partition_seeds)
    edges = sum(len(sources) for sources in graph.in_neighbors)
    return Rep(ops=edges * PAGERANK_SUPERSTEPS * runs,
               attempted=len(reference) * runs, failed=0, wrong=wrong,
               sim={"superstep_us": elapsed_ns / runs
                    / PAGERANK_SUPERSTEPS / 1000.0})


# -- serving ------------------------------------------------------------------

def serving_inputs(seed: int, scale: float):
    duration = SERVING_DURATION_NS * scale
    return dict(num_shards=3, replication=2, rate_mops=16.0,
                duration_ns=duration, window=64, batch=16,
                num_clients=1_000_000, num_keys=256, zipf_s=0.99,
                seed=seed, workers=1, transport="inline",
                failover="hysteresis", crash_shard=1,
                crash_at_ns=duration * SERVING_CRASH_FRACTION)


def serving_rep(kwargs) -> Rep:
    outcome = run_serving(**kwargs)["outcome"]
    requests = outcome["num_requests"]
    served, failed = outcome["served"], outcome["failed"]
    lost = requests - served - failed
    latency = outcome["latency"]
    return Rep(ops=requests, attempted=requests, failed=failed,
               wrong=outcome["wrong"] + abs(lost),
               sim={"get_p50_ns": latency["p50_ns"],
                    "get_p999_ns": latency["p999_ns"],
                    "goodput_mops": outcome["served_mops"]},
               layer_counts={
                   "serving.failovers": sum(
                       s["failovers"] for s in outcome["shards"].values()),
                   "serving.degraded_reads": outcome["degraded_reads"]})


WORKLOADS: Dict[str, Tuple[Callable, Callable]] = {
    "read_ladder": (ladder_inputs, ladder_rep),
    "netpipe": (netpipe_inputs, netpipe_rep),
    "pagerank": (pagerank_inputs, pagerank_rep),
    "serving": (serving_inputs, serving_rep),
}
