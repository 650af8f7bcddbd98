"""Timing invariance of the kernel fast paths and hot-path event elision.

The performance work (action-carrying queue entries, the now-queue,
bare-number yields, daemon counting, ``spawn``-ed stages, immediate
grants and puts, ``call_later`` elision, coalesced pipeline delays,
one access per copied span) must not move a single simulated
timestamp. These tests pin *exact float equality*
against golden values captured at the pre-optimization revision
(commit b29c655) on two end-to-end workloads:

* the chaos suite's zero-fault read/write workload (3 nodes, reliable
  transport armed, fault injector installed but silent), and
* a netpipe send/recv sweep through the full messaging stack.

If any of these move, an "optimization" changed simulated behavior and
must be reverted — see docs/architecture.md, "Kernel fast paths".
"""

from __future__ import annotations

from repro.cluster import Cluster, ClusterConfig
from repro.fabric import FaultInjector, FaultPolicy
from repro.node import NodeConfig
from repro.rmc import RMCConfig
from repro.runtime import RMCSession
from repro.vm import PAGE_SIZE
from repro.workloads.netpipe import send_recv_latency

CTX = 1
SEG = 16 * PAGE_SIZE

# Golden timestamps from the pre-optimization kernel (exact floats).
GOLDEN_CHAOS_FINAL_NS = 50_000_000
GOLDEN_CHAOS_READ_TIMES = [
    464.6666666666667,
    464.6666666666667,
    476.1666666666667,
    799.8333333333334,
    903.3333333333334,
    914.8333333333334,
    1123.5,
    1227.0,
    1238.5000000000002,
    1458.6666666666667,
    1550.6666666666667,
    1585.166666666667,
    1793.8333333333335,
    1874.3333333333335,
    1908.8333333333337,
    2140.5,
    2209.5,
    2255.5000000000005,
    2475.6666666666665,
    2543.1666666666656,
    2590.666666666667,
    2822.333333333333,
    2889.833333333332,
    2937.3333333333335,
    3168.9999999999995,
    3231.666666666665,
    3272.5,
    3527.166666666666,
    3578.3333333333317,
    3630.999999999998,
    3885.3333333333326,
    3930.999999999999,
    3972.4999999999977,
    4185.999999999999,
    4284.666666666664,
    4289.166666666666,
]
GOLDEN_NETPIPE_LATENCY_US = [
    0.22075,
    0.9231666666666666,
    0.8973055555555535,
]


def _pattern(tag: int, length: int) -> bytes:
    return bytes((tag * 37 + i) & 0xFF for i in range(length))


def test_chaos_zero_fault_timestamps_bit_identical():
    """tests/test_chaos.py's zero-fault workload: every read completion
    time and the final clock match the pre-optimization kernel exactly."""
    rmc_cfg = RMCConfig(retransmit_timeout_ns=5000.0, max_retries=4)
    cluster = Cluster(config=ClusterConfig(
        num_nodes=3, node=NodeConfig(rmc=rmc_cfg)))
    cluster.fabric.install_fault_injector(
        FaultInjector(seed=7, default_policy=FaultPolicy()))
    gctx = cluster.create_global_context(CTX, SEG)
    sessions = {
        n: RMCSession(cluster.nodes[n].core, gctx.qp(n), gctx.entry(n))
        for n in range(3)
    }
    for peer in range(3):
        cluster.poke_segment(peer, CTX, 0, _pattern(peer, 2048))

    read_times = []

    def app(sim, n):
        session = sessions[n]
        lbuf = session.alloc_buffer(8192)
        for rnd in range(6):
            for peer in range(3):
                if peer == n:
                    continue
                size = 64 * (1 + (rnd + n + peer) % 8)
                yield from session.read_sync(peer, 0, lbuf, size)
                read_times.append(sim.now)
        sig = _pattern(0xA0 + n, 512)
        session.buffer_poke(lbuf, sig)
        for peer in range(3):
            if peer == n:
                continue
            yield from session.write_sync(peer, 4096 + n * 512, lbuf, 512)

    for n in range(3):
        cluster.sim.process(app(cluster.sim, n))
    cluster.run(until=50_000_000)

    assert cluster.sim.now == GOLDEN_CHAOS_FINAL_NS
    assert read_times == GOLDEN_CHAOS_READ_TIMES


def test_netpipe_sweep_timestamps_bit_identical():
    """A send/recv latency sweep through the full messaging stack lands
    on exactly the pre-optimization latencies."""
    results = send_recv_latency(sizes=(32, 256, 1024), threshold=256,
                                rounds=3)
    assert [r.latency_us for r in results] == GOLDEN_NETPIPE_LATENCY_US
