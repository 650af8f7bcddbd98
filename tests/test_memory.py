"""Unit + property tests for caches, DRAM, and the coherent hierarchy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import (
    Cache,
    CacheConfig,
    DRAMChannel,
    DRAMConfig,
    MemoryConfig,
    MemorySystem,
)
from repro.sim import Simulator
from repro.vm import PAGE_SIZE, PhysicalMemory


def small_l1(latency=1.5, mshrs=32):
    return CacheConfig(name="L1", size_bytes=1024, associativity=2,
                       latency_ns=latency, mshrs=mshrs)


class TestCache:
    def test_miss_then_hit(self):
        cache = Cache(small_l1())
        assert not cache.probe(0x100)
        cache.fill(0x100)
        assert cache.probe(0x100)
        assert cache.hits == 1 and cache.misses == 1

    def test_same_line_different_offsets(self):
        cache = Cache(small_l1())
        cache.fill(0x100)
        assert cache.probe(0x100 + 63)
        assert not cache.probe(0x100 + 64)

    def test_lru_eviction(self):
        # 2-way sets; three conflicting lines evict the least recent.
        cfg = CacheConfig(name="t", size_bytes=128, associativity=2,
                          latency_ns=1.0)  # a single set of 2 lines
        cache = Cache(cfg)
        cache.fill(0)
        cache.fill(64)
        cache.probe(0)       # 0 becomes MRU
        victim = cache.fill(128)
        assert victim is not None and victim.line_addr == 64

    def test_dirty_victim_reported(self):
        cfg = CacheConfig(name="t", size_bytes=128, associativity=2,
                          latency_ns=1.0)
        cache = Cache(cfg)
        cache.fill(0, dirty=True)
        cache.fill(64)
        victim = cache.fill(128)
        assert victim.line_addr == 0 and victim.dirty
        assert cache.writebacks == 1

    def test_write_probe_sets_dirty(self):
        cache = Cache(small_l1())
        cache.fill(0x40)
        cache.probe(0x40, is_write=True)
        evicted = cache.invalidate(0x40)
        assert evicted.dirty

    def test_invalidate_absent_line(self):
        cache = Cache(small_l1())
        assert cache.invalidate(0x40) is None

    def test_flush_counts_dirty(self):
        cache = Cache(small_l1())
        cache.fill(0, dirty=True)
        cache.fill(64, dirty=False)
        assert cache.flush() == 1
        assert cache.occupancy == 0

    def test_unfilled_sets_answer_every_query(self):
        # No set is filled: every query must see an empty cache, and
        # none of them may create set state.
        cache = Cache(CacheConfig(name="L2", size_bytes=4 * 1024 * 1024,
                                  associativity=16, latency_ns=3.0))
        assert not cache.contains(0x4000)
        assert cache.invalidate(0x4000) is None
        assert cache.flush() == 0
        assert cache.occupancy == 0
        assert cache.invalidations == 0

    def test_filled_and_unfilled_sets_coexist(self):
        cache = Cache(small_l1())   # 8 sets of 2 lines
        cache.fill(0x40, dirty=True)
        assert cache.contains(0x40)
        assert not cache.contains(0x80)          # another, unfilled set
        assert cache.invalidate(0x80) is None
        assert cache.occupancy == 1
        assert cache.flush() == 1
        assert cache.occupancy == 0 and not cache.contains(0x40)
        assert cache.fill(0x40) is None          # a flushed set refills

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(name="bad", size_bytes=100, associativity=3,
                        latency_ns=1.0)

    @given(addrs=st.lists(st.integers(min_value=0, max_value=2**20),
                          min_size=1, max_size=300))
    @settings(max_examples=50)
    def test_property_occupancy_bounded(self, addrs):
        cfg = CacheConfig(name="p", size_bytes=2048, associativity=4,
                          latency_ns=1.0)
        cache = Cache(cfg)
        for addr in addrs:
            if not cache.probe(addr):
                cache.fill(addr)
            # A just-touched line is always resident.
            assert cache.contains(addr)
        assert cache.occupancy <= cfg.num_lines


class TestDRAM:
    def test_single_access_latency(self):
        sim = Simulator()
        dram = DRAMChannel(sim, DRAMConfig(latency_ns=60, bandwidth_gbps=12,
                                           efficiency=1.0,
                                           controller_overhead_ns=0))
        def proc(sim):
            yield from dram.access(64)
            return sim.now

        p = sim.process(proc(sim))
        sim.run()
        # 64B / 12B-per-ns serialization + 60ns latency
        assert p.value == pytest.approx(64 / 12 + 60, rel=1e-6)

    def test_bandwidth_ceiling_pipelines_latency(self):
        # 100 back-to-back line reads: total time ~ N*ser + latency,
        # NOT N*(ser+latency) -- latency overlaps across banks.
        sim = Simulator()
        cfg = DRAMConfig(latency_ns=60, bandwidth_gbps=12, efficiency=1.0,
                         controller_overhead_ns=0)
        dram = DRAMChannel(sim, cfg)
        n = 100

        def reader(sim):
            yield from dram.access(64)

        for _ in range(n):
            sim.process(reader(sim))
        sim.run()
        expected = n * (64 / 12) + 60
        assert sim.now == pytest.approx(expected, rel=0.01)

    def test_efficiency_reduces_bandwidth(self):
        cfg = DRAMConfig(bandwidth_gbps=12, efficiency=0.8)
        assert cfg.effective_bandwidth == pytest.approx(9.6)

    def test_rejects_bad_size(self):
        sim = Simulator()
        dram = DRAMChannel(sim)
        with pytest.raises(ValueError):
            next(dram.access(0))


def make_system(sim=None):
    sim = sim or Simulator()
    phys = PhysicalMemory(64 * PAGE_SIZE)
    system = MemorySystem(sim, phys)
    return sim, system


class TestMemorySystem:
    def test_cold_access_goes_to_dram(self):
        sim, system = make_system()
        core = system.register_agent("core")

        def proc(sim):
            level = yield from core.access(0x1000)
            return level, sim.now

        p = sim.process(proc(sim))
        sim.run()
        level, elapsed = p.value
        assert level == "dram"
        # L1 + L2 latencies + DRAM: ~1.5 + 3 + 15 + 64/9.6 + 60 = ~86 ns.
        assert 60 < elapsed < 110

    def test_second_access_hits_l1(self):
        sim, system = make_system()
        core = system.register_agent("core")

        def proc(sim):
            yield from core.access(0x1000)
            t0 = sim.now
            level = yield from core.access(0x1000)
            return level, sim.now - t0

        p = sim.process(proc(sim))
        sim.run()
        level, dt = p.value
        assert level == "l1"
        assert dt == pytest.approx(1.5)

    def test_l2_serves_other_agents_miss(self):
        sim, system = make_system()
        core = system.register_agent("core")
        rmc = system.register_agent("rmc")

        def proc(sim):
            yield from core.access(0x1000)        # fills L2 + core L1
            level = yield from rmc.access(0x1000)  # should hit in L2
            return level

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == "l2"

    def test_write_invalidates_peer_l1(self):
        sim, system = make_system()
        core = system.register_agent("core")
        rmc = system.register_agent("rmc")

        def proc(sim):
            yield from core.access(0x1000)            # core caches the line
            yield from rmc.access(0x1000, is_write=True)  # RMC writes it
            # Core's next read must not be an L1 hit (it was invalidated).
            level = yield from core.access(0x1000)
            return level

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == "l2"

    def test_multiline_access_touches_every_line(self):
        sim, system = make_system()
        core = system.register_agent("core")

        def proc(sim):
            yield from core.access(0, size=256)
            return None

        sim.process(proc(sim))
        sim.run()
        assert core.l1.misses == 4  # 4 lines of 64B

    def test_duplicate_agent_rejected(self):
        _, system = make_system()
        system.register_agent("core")
        with pytest.raises(ValueError):
            system.register_agent("core")

    def test_functional_data_path(self):
        _, system = make_system()
        core = system.register_agent("core")
        core.write_bytes(0x2000, b"payload")
        assert core.read_bytes(0x2000, 7) == b"payload"

    def test_mshr_limit_serializes_misses(self):
        # With a single MSHR, two concurrent misses cannot overlap their
        # DRAM fills, so completion takes ~2x one miss.
        sim = Simulator()
        phys = PhysicalMemory(64 * PAGE_SIZE)
        system = MemorySystem(sim, phys)
        core = system.register_agent("core", small_l1(mshrs=1))
        done = []

        def proc(sim, addr):
            yield from core.access(addr)
            done.append(sim.now)

        sim.process(proc(sim, 0x0))
        sim.process(proc(sim, 0x10000))
        sim.run()
        assert len(done) == 2
        assert done[1] >= 2 * 60  # second miss waited for the first fill

    def test_cache_stats_shape(self):
        sim, system = make_system()
        core = system.register_agent("core")

        def proc(sim):
            yield from core.access(0)

        sim.process(proc(sim))
        sim.run()
        stats = system.cache_stats()
        assert "core" in stats and "l2" in stats and "dram" in stats
        assert stats["core"]["misses"] == 1
