"""RGP admission is bounded by the ITT, not by a stale free-tid count.

With doorbell batching the RGP admits several WQ entries per poll, but
each entry's tid is allocated inside its spawned generation process. If
admission only checked ``itt.has_free``, every entry of one batch would
see the free count from before its predecessors allocated, and the
table would overflow (``ITTFullError``) the moment the batch was wider
than the free tids. Admission must reserve the tid, so a full table
makes the RGP wait for a retirement instead.
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.node import NodeConfig
from repro.protocol import Opcode
from repro.rmc.itt import InflightTransactionTable
from repro.rmc.queues import WQEntry
from repro.rmc.rmc import RMCConfig
from repro.runtime.qp_api import RMCSession
from repro.serving import run_serving
from repro.vm.address import PAGE_SIZE

CTX = 1


def test_batch_wider_than_the_itt_waits_for_retirements():
    config = ClusterConfig(num_nodes=2, node=NodeConfig(
        rmc=RMCConfig(itt_entries=2, doorbell_batch=4)))
    cluster = Cluster(config=config)
    gctx = cluster.create_global_context(CTX, 16 * PAGE_SIZE, qp_size=8)
    session = RMCSession(cluster.nodes[0].core, gctx.qp(0), gctx.entry(0))
    for i in range(3):
        cluster.poke_segment(1, CTX, i * 64, bytes([97 + i]) * 64)
    lbuf = session.alloc_buffer(3 * 64)

    def app(sim):
        entries = [WQEntry(op=Opcode.RREAD, dst_nid=1, offset=i * 64,
                           local_vaddr=lbuf + i * 64, length=64)
                   for i in range(3)]
        yield from session.post_batch(entries)
        reaped = []
        while len(reaped) < 3:
            reaped += yield from session.poll_cq_batch(4)
        return reaped

    proc = cluster.sim.process(app(cluster.sim))
    cluster.run()
    assert len(proc.value) == 3
    assert all(e.error is None for e in proc.value)
    for i in range(3):
        assert session.buffer_peek(lbuf + i * 64, 64) == bytes([97 + i]) * 64
    itt = cluster.nodes[0].rmc.itt
    assert itt.peak_in_flight == 2
    assert itt.in_flight == 0 and itt.has_free


def test_reservation_is_consumed_by_allocation():
    itt = InflightTransactionTable(capacity=1)
    assert itt.has_free
    itt.reserve()
    assert not itt.has_free      # the only tid is spoken for
    entry = itt.allocate(qp=None, wq_index=0, op=Opcode.RREAD,
                         base_offset=0, local_vaddr=0, total_lines=1)
    assert not itt.has_free
    itt.complete_line(entry.tid)
    itt.retire(entry.tid)
    assert itt.has_free


def test_flapping_serving_run_with_batching_completes():
    out = run_serving(num_shards=2, replication=2, rate_mops=16.0,
                      duration_ns=80_000.0, num_keys=96, num_buckets=256,
                      seed=11, failover="hysteresis",
                      flap_at_ns=10_000.0, flap_down_ns=20_000.0)["outcome"]
    assert out["served"] == out["num_requests"] > 0
    assert out["failed"] == 0 and out["wrong"] == 0
    assert out["degraded_reads"] > 0
