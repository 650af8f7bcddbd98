"""Cluster-level integration tests: topologies, multi-node traffic,
multi-QP, data integrity under concurrency."""

import random

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.fabric import FabricConfig, torus2d
from repro.node import NodeConfig
from repro.runtime import RMCSession
from repro.vm import PAGE_SIZE

CTX = 1
SEG = 32 * PAGE_SIZE


class TestClusterConstruction:
    def test_nodes_created_with_ids(self):
        cluster = Cluster(config=ClusterConfig(num_nodes=4))
        assert len(cluster) == 4
        assert [n.node_id for n in cluster.nodes] == [0, 1, 2, 3]

    def test_global_context_opens_everywhere(self):
        cluster = Cluster(config=ClusterConfig(num_nodes=3))
        gctx = cluster.create_global_context(CTX, SEG, qps_per_node=2)
        for n in range(3):
            assert gctx.entry(n).ctx_id == CTX
            assert len(gctx.qps[n]) == 2
            assert gctx.qp(n, 1).qp_id != gctx.qp(n, 0).qp_id

    def test_topology_smaller_than_cluster_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=20, topology=torus2d(3, 3))

    def test_poke_peek_roundtrip_across_pages(self):
        cluster = Cluster(config=ClusterConfig(num_nodes=1))
        cluster.create_global_context(CTX, SEG)
        data = bytes(range(256)) * 40  # 10 KB, crosses a page boundary
        offset = PAGE_SIZE - 512
        cluster.poke_segment(0, CTX, offset, data)
        assert cluster.peek_segment(0, CTX, offset, len(data)) == data


class TestSparseNodeMemory:
    """Node memory costs pages for what a run writes, not its capacity.
    Every check counts resident pages; nothing is timed."""

    @staticmethod
    def _resident(cluster):
        return [node.phys.resident_pages for node in cluster.nodes]

    def test_default_nodes_are_paper_sized_and_sparse(self):
        paper = Cluster(config=ClusterConfig(num_nodes=2))
        small = Cluster(config=ClusterConfig(
            num_nodes=2, node=NodeConfig(memory_bytes=32 * 1024 * 1024)))
        assert paper.nodes[0].phys.size == 4 * 1024 ** 3
        for cluster in (paper, small):
            cluster.create_global_context(CTX, SEG)
            cluster.poke_segment(1, CTX, PAGE_SIZE - 4, b"straddle")
        assert self._resident(paper) == self._resident(small)
        assert self._resident(paper) == [0, 2]

    def test_restart_wipe_zeroes_without_materializing(self):
        cluster = Cluster(config=ClusterConfig(num_nodes=2))
        cluster.create_global_context(CTX, SEG + 100)   # a partial last page
        node = cluster.nodes[1]
        cluster.poke_segment(1, CTX, 0, b"\xab" * (3 * PAGE_SIZE))
        cluster.poke_segment(1, CTX, SEG + 50, b"tail")
        before = node.phys.resident_pages
        ctrl = cluster.fault_controller()
        ctrl.crash(1)
        ctrl.restart(1)
        assert before == 4
        # Whole pages are dropped; the partly covered last one is cleared.
        assert node.phys.resident_pages == 1
        assert cluster.peek_segment(1, CTX, 0, SEG + 100) == bytes(SEG + 100)


class TestTorusCluster:
    def test_remote_read_over_torus(self):
        topo = torus2d(3, 3)
        cluster = Cluster(config=ClusterConfig(
            num_nodes=9, topology=topo,
            fabric=FabricConfig(link_latency_ns=15.0)))
        gctx = cluster.create_global_context(CTX, SEG)
        cluster.poke_segment(8, CTX, 0, b"far corner data" + bytes(49))
        session = RMCSession(cluster.nodes[0].core, gctx.qp(0),
                             gctx.entry(0))
        lbuf = session.alloc_buffer(4096)

        def app(sim):
            start = sim.now
            yield from session.read_sync(8, 0, lbuf, 64)
            return sim.now - start, session.buffer_peek(lbuf, 15)

        proc = cluster.sim.process(app(cluster.sim))
        cluster.run()
        elapsed, data = proc.value
        assert data == b"far corner data"
        # Multi-hop: noticeably more than one link latency each way.
        assert elapsed > 2 * 2 * 15.0

    def test_all_pairs_reads_on_torus(self):
        topo = torus2d(3, 3)
        cluster = Cluster(config=ClusterConfig(num_nodes=9, topology=topo))
        gctx = cluster.create_global_context(CTX, SEG)
        for n in range(9):
            cluster.poke_segment(n, CTX, 0, bytes([n]) * 64)
        results = {}

        def reader(sim, src):
            session = RMCSession(cluster.nodes[src].core, gctx.qp(src),
                                 gctx.entry(src))
            lbuf = session.alloc_buffer(4096)
            for dst in range(9):
                if dst == src:
                    continue
                yield from session.read_sync(dst, 0, lbuf, 64)
                results[(src, dst)] = session.buffer_peek(lbuf, 1)

        for src in range(9):
            cluster.sim.process(reader(cluster.sim, src))
        cluster.run()
        assert len(results) == 72
        assert all(v == bytes([dst]) for (_s, dst), v in results.items())


class TestManyToOne:
    def test_incast_requests_all_served(self):
        """7 nodes hammer node 0 simultaneously; flow control and the
        stateless RRPP must serve everything without loss."""
        cluster = Cluster(config=ClusterConfig(num_nodes=8))
        gctx = cluster.create_global_context(CTX, SEG)
        for i in range(64):
            cluster.poke_segment(0, CTX, i * 64, bytes([i]) * 64)
        done = []

        def reader(sim, src):
            session = RMCSession(cluster.nodes[src].core, gctx.qp(src),
                                 gctx.entry(src))
            lbuf = session.alloc_buffer(8192)
            for i in range(20):
                offset = ((src * 7 + i) % 64) * 64
                yield from session.read_sync(0, offset, lbuf, 64)
                expected = bytes([offset // 64])
                assert session.buffer_peek(lbuf, 1) == expected
            done.append(src)

        for src in range(1, 8):
            cluster.sim.process(reader(cluster.sim, src))
        cluster.run()
        assert sorted(done) == list(range(1, 8))
        assert cluster.nodes[0].rmc.counters["requests_served"] == 140


class TestDataIntegrityUnderConcurrency:
    def test_randomized_reads_and_writes_verify(self):
        """Randomized concurrent one-sided traffic; every read checks
        against a mirror of expected memory state (writers have
        disjoint regions so expected state is deterministic)."""
        rng = random.Random(1234)
        cluster = Cluster(config=ClusterConfig(num_nodes=4))
        gctx = cluster.create_global_context(CTX, SEG)
        region = 4096  # disjoint 4 KB region per writer on node 3
        mirrors = {}

        def worker(sim, src):
            session = RMCSession(cluster.nodes[src].core, gctx.qp(src),
                                 gctx.entry(src))
            lbuf = session.alloc_buffer(16384)
            base = src * region
            mirror = bytearray(region)
            mirrors[src] = mirror
            local_rng = random.Random(src)
            for _ in range(25):
                offset = local_rng.randrange(0, region - 256)
                length = local_rng.choice((8, 64, 100, 256))
                if local_rng.random() < 0.5:
                    payload = bytes(local_rng.randrange(256)
                                    for _ in range(length))
                    session.buffer_poke(lbuf, payload)
                    yield from session.write_sync(3, base + offset, lbuf,
                                                  length)
                    mirror[offset:offset + length] = payload
                else:
                    yield from session.read_sync(3, base + offset,
                                                 lbuf + 8192, length)
                    got = session.buffer_peek(lbuf + 8192, length)
                    assert got == bytes(mirror[offset:offset + length])

        procs = [cluster.sim.process(worker(cluster.sim, src))
                 for src in range(3)]
        cluster.run()
        assert all(p.ok for p in procs)
        # Final memory state matches every mirror.
        for src, mirror in mirrors.items():
            actual = cluster.peek_segment(3, CTX, src * region, region)
            assert actual == bytes(mirror)
