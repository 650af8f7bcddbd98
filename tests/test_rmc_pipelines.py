"""Integration tests targeting RMC pipeline mechanics: unrolling,
out-of-order completion, ITT back-pressure, VL deadlock freedom."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.fabric import FabricConfig
from repro.node import NodeConfig
from repro.protocol import ReplyPacket
from repro.rmc import RMCConfig
from repro.runtime import RMCSession
from repro.vm import CACHE_LINE_SIZE, PAGE_SIZE

CTX = 1
SEG = 64 * PAGE_SIZE


def build(num_nodes=2, node_config=None, fabric_config=None):
    config = ClusterConfig(num_nodes=num_nodes,
                           node=node_config or NodeConfig(),
                           fabric=fabric_config or FabricConfig())
    cluster = Cluster(config=config)
    gctx = cluster.create_global_context(CTX, SEG)
    sessions = {n: RMCSession(cluster.nodes[n].core, gctx.qp(n),
                              gctx.entry(n)) for n in range(num_nodes)}
    return cluster, sessions


class TestUnrolling:
    def test_multi_line_request_generates_one_packet_per_line(self):
        cluster, sessions = build()
        session = sessions[0]
        lbuf = session.alloc_buffer(8192)

        def app(sim):
            yield from session.read_sync(1, 0, lbuf, 8192)

        cluster.sim.process(app(cluster.sim))
        cluster.run()
        rmc0 = cluster.nodes[0].rmc
        assert rmc0.counters["wq_requests"] == 1
        assert rmc0.counters["lines_sent"] == 128          # 8 KB / 64 B
        assert cluster.nodes[1].rmc.counters["requests_served"] == 128
        assert rmc0.counters["cq_completions"] == 1        # one CQ entry

    def test_unaligned_request_splits_at_line_grid(self):
        cluster, sessions = build()
        session = sessions[0]
        lbuf = session.alloc_buffer(4096)
        payload = bytes((i * 3) % 256 for i in range(130))
        cluster.poke_segment(1, CTX, 60, payload)

        def app(sim):
            yield from session.read_sync(1, 60, lbuf, 130)
            return session.buffer_peek(lbuf, 130)

        proc = cluster.sim.process(app(cluster.sim))
        cluster.run()
        assert proc.value == payload
        # [60, 190) spans lines 0,64,128: three chunks (4,64,62 bytes).
        assert cluster.nodes[0].rmc.counters["lines_sent"] == 3

    @given(offset=st.integers(min_value=0, max_value=SEG - 600),
           length=st.integers(min_value=1, max_value=512))
    @settings(max_examples=10, deadline=None)
    def test_property_arbitrary_geometry_moves_correct_bytes(self, offset,
                                                             length):
        cluster, sessions = build()
        session = sessions[0]
        lbuf = session.alloc_buffer(2048)
        payload = bytes((offset + i) % 256 for i in range(length))
        cluster.poke_segment(1, CTX, offset, payload)

        def app(sim):
            yield from session.read_sync(1, offset, lbuf, length)
            return session.buffer_peek(lbuf, length)

        proc = cluster.sim.process(app(cluster.sim))
        cluster.run()
        assert proc.value == payload


class TestOutOfOrderCompletion:
    def test_small_read_overtakes_large_one(self):
        """'Requests can therefore complete out of order' (§4.2): a 64 B
        read to one node, posted after an 8 KB read to another node,
        finishes first (different destinations so neither queues behind
        the other's DRAM service)."""
        cluster, sessions = build(num_nodes=3)
        session = sessions[0]
        lbuf = session.alloc_buffer(16384)
        completions = []

        def app(sim):
            yield from session.wait_for_slot()
            yield from session.read_async(
                1, 0, lbuf, 8192,
                callback=lambda cq: completions.append("large"))
            yield from session.wait_for_slot()
            yield from session.read_async(
                2, 0, lbuf + 8192, 64,
                callback=lambda cq: completions.append("small"))
            yield from session.drain_cq()

        cluster.sim.process(app(cluster.sim))
        cluster.run()
        assert completions == ["small", "large"]


class TestITTBackpressure:
    def test_tiny_itt_still_completes_everything(self):
        node_config = NodeConfig(rmc=RMCConfig(itt_entries=2))
        cluster, sessions = build(node_config=node_config)
        session = sessions[0]
        lbuf = session.alloc_buffer(64 * 64)
        done = []

        def app(sim):
            for i in range(12):
                yield from session.wait_for_slot()
                yield from session.read_async(
                    1, i * 64, lbuf + i * 64, 64,
                    callback=lambda cq: done.append(cq.wq_index))
            yield from session.drain_cq()

        cluster.sim.process(app(cluster.sim))
        cluster.run()
        assert len(done) == 12
        assert cluster.nodes[0].rmc.itt.peak_in_flight <= 2

    def test_itt_peak_bounded_by_capacity(self):
        node_config = NodeConfig(rmc=RMCConfig(itt_entries=4))
        cluster, sessions = build(node_config=node_config)
        session = sessions[0]
        lbuf = session.alloc_buffer(64 * 64)

        def app(sim):
            for i in range(30):
                yield from session.wait_for_slot()
                yield from session.read_async(1, i * 64, lbuf + i * 64,
                                              64, callback=lambda cq: None)
            yield from session.drain_cq()

        cluster.sim.process(app(cluster.sim))
        cluster.run()
        assert 1 <= cluster.nodes[0].rmc.itt.peak_in_flight <= 4


class TestStaleReplyMatching:
    def test_off_grid_reply_on_long_read_is_stale(self):
        """A 128-line read's tid is hit by a reply at an offset that is
        not on its line grid (a previous occupant of the tid): the RCP
        counts it stale and the real read still completes intact."""
        cluster, sessions = build()
        session = sessions[0]
        length = 128 * CACHE_LINE_SIZE
        lbuf = session.alloc_buffer(length)
        payload = bytes((i * 7) % 256 for i in range(length))
        cluster.poke_segment(1, CTX, 0, payload)
        rmc0 = cluster.nodes[0].rmc

        def app(sim):
            yield from session.read_sync(1, 0, lbuf, length)
            return session.buffer_peek(lbuf, length)

        def stray(sim):
            while not rmc0.itt.active_entries():
                yield 10.0
            (entry,) = rmc0.itt.active_entries()
            assert entry.total_lines == 128
            yield cluster.nodes[1].ni.inject(ReplyPacket(
                dst_nid=0, src_nid=1, tid=entry.tid,
                offset=entry.base_offset + 3 * CACHE_LINE_SIZE + 8,
                payload=b"\xee" * 8))

        proc = cluster.sim.process(app(cluster.sim))
        cluster.sim.process(stray(cluster.sim))
        cluster.run()
        assert proc.value == payload
        assert rmc0.counters["replies_stale"] == 1
        assert rmc0.counters["cq_completions"] == 1


class TestVirtualLaneDeadlockFreedom:
    def test_bidirectional_flood_with_tiny_credits_completes(self):
        """Both nodes flood each other with multi-line reads while
        credits are scarce. With a single lane, replies could block
        behind requests and deadlock; the two virtual lanes guarantee
        forward progress (§6)."""
        fabric = FabricConfig(vl_credits=2)
        cluster, sessions = build(fabric_config=fabric)
        done = []

        def flooder(sim, src, dst):
            session = sessions[src]
            lbuf = session.alloc_buffer(32 * 1024)
            for i in range(6):
                yield from session.read_sync(dst, (i % 4) * 4096,
                                             lbuf, 4096)
            done.append(src)

        cluster.sim.process(flooder(cluster.sim, 0, 1))
        cluster.sim.process(flooder(cluster.sim, 1, 0))
        cluster.run(until=50_000_000)
        assert sorted(done) == [0, 1], "flood did not complete (deadlock?)"


class TestWriteDataPathThroughRGP:
    def test_write_payload_read_from_local_memory(self):
        """RGP reads write payloads from local memory at emission time
        (§4.2) — data written into the buffer right before posting is
        what lands remotely."""
        cluster, sessions = build()
        session = sessions[0]
        lbuf = session.alloc_buffer(4096)

        def app(sim):
            session.buffer_poke(lbuf, b"A" * 64)
            yield from session.write_sync(1, 0, lbuf, 64)
            session.buffer_poke(lbuf, b"B" * 64)
            yield from session.write_sync(1, 64, lbuf, 64)

        cluster.sim.process(app(cluster.sim))
        cluster.run()
        assert cluster.peek_segment(1, CTX, 0, 64) == b"A" * 64
        assert cluster.peek_segment(1, CTX, 64, 64) == b"B" * 64
