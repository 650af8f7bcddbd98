"""Unit + property tests for the virtual-memory substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Simulator
from repro.vm import (
    CACHE_LINE_SIZE,
    PAGE_SIZE,
    AddressSpace,
    FrameAllocator,
    OutOfMemoryError,
    PageFault,
    PageTable,
    PageWalker,
    PhysicalMemory,
    RemoteAddress,
    SegmentViolation,
    TLB,
    line_align_down,
    lines_in_range,
    page_number,
    page_offset,
)
from repro.vm.address import PT_LEVELS


class TestAddressHelpers:
    def test_line_alignment(self):
        assert line_align_down(0) == 0
        assert line_align_down(63) == 0
        assert line_align_down(64) == 64
        assert line_align_down(130) == 128

    def test_lines_in_range_single(self):
        assert lines_in_range(0, 1) == [0]
        assert lines_in_range(10, 54) == [0]

    def test_lines_in_range_straddles(self):
        # 60..70 touches lines 0 and 64.
        assert lines_in_range(60, 10) == [0, 64]

    def test_lines_in_range_multi(self):
        assert lines_in_range(0, 256) == [0, 64, 128, 192]

    def test_lines_in_range_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lines_in_range(0, 0)

    @given(addr=st.integers(min_value=0, max_value=2**40),
           length=st.integers(min_value=1, max_value=65536))
    @settings(max_examples=200)
    def test_lines_cover_range_exactly(self, addr, length):
        lines = lines_in_range(addr, length)
        # Every byte of the range falls in some returned line.
        assert lines[0] <= addr < lines[0] + CACHE_LINE_SIZE
        last_byte = addr + length - 1
        assert lines[-1] <= last_byte < lines[-1] + CACHE_LINE_SIZE
        # Lines are consecutive and line-aligned.
        for a, b in zip(lines, lines[1:]):
            assert b - a == CACHE_LINE_SIZE
        assert all(line % CACHE_LINE_SIZE == 0 for line in lines)

    def test_remote_address_validation(self):
        with pytest.raises(ValueError):
            RemoteAddress(-1, 0, 0)
        with pytest.raises(ValueError):
            RemoteAddress(0, -1, 0)
        with pytest.raises(ValueError):
            RemoteAddress(0, 0, -1)

    def test_remote_address_lines(self):
        ra = RemoteAddress(node_id=2, ctx_id=1, offset=60)
        parts = list(ra.lines(10))
        assert [p.offset for p in parts] == [0, 64]
        assert all(p.node_id == 2 and p.ctx_id == 1 for p in parts)


class TestPhysicalMemory:
    def test_read_write_roundtrip(self):
        mem = PhysicalMemory(4 * PAGE_SIZE)
        mem.write(100, b"hello world")
        assert mem.read(100, 11) == b"hello world"

    def test_out_of_bounds_rejected(self):
        mem = PhysicalMemory(PAGE_SIZE)
        with pytest.raises(IndexError):
            mem.read(PAGE_SIZE - 4, 8)
        with pytest.raises(IndexError):
            mem.write(PAGE_SIZE, b"x")

    def test_u64_roundtrip(self):
        mem = PhysicalMemory(PAGE_SIZE)
        mem.write_u64(16, 0xDEADBEEF12345678)
        assert mem.read_u64(16) == 0xDEADBEEF12345678

    def test_size_must_be_page_multiple(self):
        with pytest.raises(ValueError):
            PhysicalMemory(PAGE_SIZE + 1)

    def test_frame_allocator_exhaustion(self):
        mem = PhysicalMemory(2 * PAGE_SIZE)
        alloc = FrameAllocator(mem)
        alloc.alloc_frame()
        alloc.alloc_frame()
        with pytest.raises(OutOfMemoryError):
            alloc.alloc_frame()

    def test_frame_recycling(self):
        mem = PhysicalMemory(2 * PAGE_SIZE)
        alloc = FrameAllocator(mem)
        f0 = alloc.alloc_frame()
        alloc.alloc_frame()
        alloc.free_frame(f0)
        f2 = alloc.alloc_frame()
        assert f2 == f0

    def test_fresh_frame_is_zeroed(self):
        mem = PhysicalMemory(2 * PAGE_SIZE)
        alloc = FrameAllocator(mem)
        f = alloc.alloc_frame()
        mem.write(f, b"\xff" * 64)
        alloc.free_frame(f)
        f2 = alloc.alloc_frame()
        assert mem.read(f2, 64) == bytes(64)


def _same_outcome(fn, reference):
    """Run ``fn`` and ``reference``; both return equal values or both
    raise the same exception type with the same message."""
    try:
        expected = reference()
    except IndexError as exc:
        with pytest.raises(IndexError) as raised:
            fn()
        assert str(raised.value) == str(exc)
        return
    assert fn() == expected


class TestSparsePhysicalMemory:
    """Page-sparse memory against a dense ``bytearray`` reference."""

    SIZE = 4 * PAGE_SIZE

    def test_untouched_reads_are_zero_and_not_resident(self):
        mem = PhysicalMemory(self.SIZE)
        assert mem.read(PAGE_SIZE - 8, 16) == bytes(16)
        assert mem.read_u64(3 * PAGE_SIZE) == 0
        assert mem.resident_pages == 0

    def test_straddling_write_materializes_both_pages(self):
        mem = PhysicalMemory(self.SIZE)
        mem.write(PAGE_SIZE - 3, b"abcdef")
        assert mem.resident_pages == 2
        assert mem.read(PAGE_SIZE - 4, 8) == b"\x00abcdef\x00"

    def test_empty_write_materializes_nothing(self):
        mem = PhysicalMemory(self.SIZE)
        mem.write(self.SIZE, b"")
        mem.write(PAGE_SIZE, b"")
        assert mem.resident_pages == 0

    def test_zero_drops_whole_pages_and_clears_partial_ones(self):
        mem = PhysicalMemory(self.SIZE)
        mem.write(0, b"\xff" * self.SIZE)
        mem.zero(PAGE_SIZE // 2, 2 * PAGE_SIZE)
        assert mem.resident_pages == 3   # page 1 dropped, 0 and 2 cleared
        expected = (b"\xff" * (PAGE_SIZE // 2) + bytes(2 * PAGE_SIZE)
                    + b"\xff" * (PAGE_SIZE + PAGE_SIZE // 2))
        assert mem.read(0, self.SIZE) == expected

    @given(ops=st.lists(
        st.tuples(st.sampled_from(["read", "write", "read_u64",
                                   "write_u64", "zero"]),
                  st.integers(min_value=-16, max_value=4 * PAGE_SIZE + 16),
                  st.integers(min_value=-4, max_value=PAGE_SIZE + 200),
                  st.integers(min_value=0, max_value=2 ** 64 - 1)),
        min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_property_matches_bytearray(self, ops):
        mem = PhysicalMemory(self.SIZE)
        ref = bytearray(self.SIZE)

        def check(paddr, length):
            if paddr < 0 or length < 0 or paddr + length > self.SIZE:
                raise IndexError(
                    f"physical access [{paddr}, {paddr + length}) outside "
                    f"memory of size {self.SIZE}")

        for kind, paddr, length, value in ops:
            if kind == "read":
                def reference():
                    check(paddr, length)
                    return bytes(ref[paddr:paddr + length])
                _same_outcome(lambda: mem.read(paddr, length), reference)
            elif kind == "read_u64":
                def reference():
                    check(paddr, 8)
                    return int.from_bytes(ref[paddr:paddr + 8], "little")
                _same_outcome(lambda: mem.read_u64(paddr), reference)
            elif kind == "write":
                data = bytes((value + i) % 256
                             for i in range(max(length, 0)))

                def reference():
                    check(paddr, len(data))
                    ref[paddr:paddr + len(data)] = data
                _same_outcome(lambda: mem.write(paddr, data), reference)
            elif kind == "write_u64":
                def reference():
                    check(paddr, 8)
                    ref[paddr:paddr + 8] = value.to_bytes(8, "little")
                _same_outcome(lambda: mem.write_u64(paddr, value), reference)
            else:
                def reference():
                    check(paddr, length)
                    ref[paddr:paddr + length] = bytes(length)
                _same_outcome(lambda: mem.zero(paddr, length), reference)
        assert mem.read(0, self.SIZE) == bytes(ref)

    def test_free_frame_releases_its_page(self):
        mem = PhysicalMemory(self.SIZE)
        alloc = FrameAllocator(mem)
        frame = alloc.alloc_frame()
        assert mem.resident_pages == 0   # allocation does not materialize
        mem.write(frame + 8, b"data")
        assert mem.resident_pages == 1
        alloc.free_frame(frame)
        assert mem.resident_pages == 0
        assert mem.read(frame, 16) == bytes(16)


class TestPageTable:
    def _make(self, npages=8):
        mem = PhysicalMemory(npages * PAGE_SIZE)
        return PageTable(asid=1), FrameAllocator(mem)

    def test_map_translate(self):
        pt, alloc = self._make()
        frame = alloc.alloc_frame()
        pt.map(0x10000000, frame)
        assert pt.translate(0x10000000) == frame
        assert pt.translate(0x10000000 + 123) == frame + 123

    def test_unmapped_faults(self):
        pt, _ = self._make()
        with pytest.raises(PageFault):
            pt.translate(0x123000)

    def test_double_map_rejected(self):
        pt, alloc = self._make()
        pt.map(0x10000000, alloc.alloc_frame())
        with pytest.raises(ValueError):
            pt.map(0x10000000, alloc.alloc_frame())

    def test_unmap_then_fault(self):
        pt, alloc = self._make()
        pt.map(0x10000000, alloc.alloc_frame())
        pt.unmap(0x10000000)
        with pytest.raises(PageFault):
            pt.translate(0x10000000)

    def test_pinned_page_cannot_unmap(self):
        pt, alloc = self._make()
        pt.map(0x10000000, alloc.alloc_frame(), pinned=True)
        with pytest.raises(ValueError):
            pt.unmap(0x10000000)

    def test_pinned_unmap_leaves_the_mapping(self):
        """Regression: a refused unmap of a pinned page used to remove the
        mapping before raising, leaving ``mapped_pages`` counting a page
        that no longer translated."""
        pt, alloc = self._make()
        frame = alloc.alloc_frame()
        pt.map(0x10000000, frame, pinned=True)
        with pytest.raises(ValueError, match="cannot unmap pinned page"):
            pt.unmap(0x10000000 + 40)
        assert pt.is_mapped(0x10000000)
        assert pt.translate(0x10000000 + 40) == frame + 40
        assert pt.mapped_pages == 1

    def test_lookup_reports_levels(self):
        pt, alloc = self._make()
        pt.map(0x10000000, alloc.alloc_frame())
        _pte, levels = pt.lookup(0x10000000)
        assert levels == PT_LEVELS == 4

    @given(pages=st.lists(st.integers(min_value=0, max_value=2**20),
                          min_size=1, max_size=32, unique=True))
    @settings(max_examples=50)
    def test_translate_is_inverse_of_map(self, pages):
        """Property: translate(v + off) == frame(v) + off for all mapped v."""
        pt = PageTable(asid=7)
        mapping = {}
        for i, vpn in enumerate(pages):
            vaddr = vpn * PAGE_SIZE
            frame = i * PAGE_SIZE
            pt.map(vaddr, frame)
            mapping[vaddr] = frame
        for vaddr, frame in mapping.items():
            assert pt.translate(vaddr + 17) == frame + 17
        assert pt.mapped_pages == len(pages)

    def test_iter_mappings_roundtrip(self):
        pt = PageTable(asid=1)
        expected = {}
        for i in range(10):
            vaddr = (0x4000 + i) * PAGE_SIZE
            pt.map(vaddr, i * PAGE_SIZE)
            expected[vaddr] = i * PAGE_SIZE
        seen = {v: pte.frame_paddr for v, pte in pt.iter_mappings()}
        assert seen == expected


def _same_fault(fn, reference):
    """Run ``fn`` and ``reference``; both return equal values or both
    raise the same exception type with the same message."""
    try:
        expected = reference()
    except (PageFault, ValueError) as exc:
        with pytest.raises(type(exc)) as raised:
            fn()
        assert str(raised.value) == str(exc)
        return
    assert fn() == expected


#: Virtual page numbers the property test draws from: a few low pages and
#: the top of the 49-bit virtual address space, so that operations
#: collide on the same page often.
_VPNS = st.one_of(st.integers(min_value=0, max_value=5),
                  st.integers(min_value=2**36 - 3, max_value=2**36 - 1))


class TestPageTableProperty:
    """The flat page table against a plain ``{vpn: PTE fields}`` dict."""

    ASID = 3

    @given(ops=st.lists(
        st.tuples(st.sampled_from(["map", "unmap", "lookup", "translate",
                                   "is_mapped"]),
                  _VPNS,
                  st.sampled_from([0, 0, 0, 17, PAGE_SIZE - 1]),
                  st.integers(min_value=0, max_value=7),
                  st.booleans(), st.booleans()),
        min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_property_matches_dict(self, ops):
        pt = PageTable(asid=self.ASID)
        ref = {}

        def fault(vaddr):
            return PageFault(vaddr, self.ASID)

        for kind, vpn, offset, frame_no, writable, pinned in ops:
            vaddr = vpn * PAGE_SIZE + offset
            if kind == "map":
                # Frame 7 is misaligned: PTE construction rejects it.
                frame = frame_no * PAGE_SIZE + (3 if frame_no == 7 else 0)

                def reference():
                    if vaddr % PAGE_SIZE:
                        raise ValueError(
                            f"map target {vaddr:#x} not page-aligned")
                    if vpn in ref:
                        raise ValueError(f"page {vaddr:#x} already mapped")
                    if frame % PAGE_SIZE:
                        raise ValueError(
                            f"frame {frame:#x} not page-aligned")
                    ref[vpn] = (frame, writable, pinned)
                    return ref[vpn]

                def flat():
                    pte = pt.map(vaddr, frame, writable=writable,
                                 pinned=pinned)
                    return pte.frame_paddr, pte.writable, pte.pinned
                _same_fault(flat, reference)
            elif kind == "unmap":
                def reference():
                    if vpn not in ref:
                        raise fault(vaddr)
                    if ref[vpn][2]:
                        raise ValueError(
                            f"cannot unmap pinned page {vaddr:#x}")
                    del ref[vpn]
                _same_fault(lambda: pt.unmap(vaddr), reference)
            elif kind == "lookup":
                def reference():
                    if vpn not in ref:
                        raise fault(vaddr)
                    return ref[vpn], PT_LEVELS

                def flat():
                    pte, levels = pt.lookup(vaddr)
                    return (pte.frame_paddr, pte.writable,
                            pte.pinned), levels
                _same_fault(flat, reference)
            elif kind == "translate":
                def reference():
                    if vpn not in ref:
                        raise fault(vaddr)
                    return ref[vpn][0] + offset
                _same_fault(lambda: pt.translate(vaddr), reference)
            else:
                assert pt.is_mapped(vaddr) == (vpn in ref)
            assert pt.mapped_pages == len(ref)
        assert [(v, (p.frame_paddr, p.writable, p.pinned))
                for v, p in pt.iter_mappings()] == \
            [(vpn * PAGE_SIZE, ref[vpn]) for vpn in sorted(ref)]


class TestPageWalker:
    def test_faulting_walk_charges_nothing(self):
        sim = Simulator()
        costs = []

        def access():
            costs.append(sim.now)
            yield 10

        walker = PageWalker(access)

        def proc(sim):
            yield from walker.walk(PageTable(asid=1), 0x10000000)

        p = sim.process(proc(sim))
        with pytest.raises(PageFault):
            sim.run_until_process(p)
        assert costs == [] and walker.walks == 0

    def test_walk_charges_one_access_per_level(self):
        sim = Simulator()
        costs = []

        def access():
            costs.append(sim.now)
            yield sim.timeout(10)

        walker = PageWalker(access)
        pt = PageTable(asid=1)
        pt.map(0x10000000, 0)

        def proc(sim):
            pte = yield from walker.walk(pt, 0x10000000)
            return pte

        p = sim.process(proc(sim))
        sim.run()
        assert p.value.frame_paddr == 0
        assert len(costs) == PT_LEVELS == 4
        assert sim.now == pytest.approx(40.0)
        assert walker.walks == 1
        assert walker.levels_touched == 4


class TestTLB:
    def _pte(self, frame=0):
        from repro.vm import PageTableEntry
        return PageTableEntry(frame)

    def test_miss_then_hit(self):
        tlb = TLB(entries=32, associativity=4)
        assert tlb.lookup(1, 0x1000_0000) is None
        tlb.insert(1, 0x1000_0000, self._pte())
        assert tlb.lookup(1, 0x1000_0000) is not None
        assert tlb.hits == 1 and tlb.misses == 1

    def test_asid_isolation(self):
        tlb = TLB()
        tlb.insert(1, 0x1000_0000, self._pte())
        assert tlb.lookup(2, 0x1000_0000) is None

    def test_lru_eviction_within_set(self):
        # Direct-mapped sets of size 2: fill a set, touch first, insert a
        # third conflicting entry -> the untouched one is evicted.
        tlb = TLB(entries=2, associativity=2)  # a single set
        a, b, c = PAGE_SIZE * 1, PAGE_SIZE * 2, PAGE_SIZE * 3
        tlb.insert(1, a, self._pte(0))
        tlb.insert(1, b, self._pte(PAGE_SIZE))
        assert tlb.lookup(1, a) is not None   # a becomes MRU
        tlb.insert(1, c, self._pte(2 * PAGE_SIZE))
        assert tlb.lookup(1, a) is not None
        assert tlb.lookup(1, b) is None       # b was LRU -> evicted

    def test_invalidate_page(self):
        tlb = TLB()
        tlb.insert(1, 0x1000_0000, self._pte())
        assert tlb.invalidate_page(1, 0x1000_0000)
        assert not tlb.invalidate_page(1, 0x1000_0000)
        assert tlb.lookup(1, 0x1000_0000) is None

    def test_invalidate_asid(self):
        tlb = TLB()
        for i in range(5):
            tlb.insert(1, i * PAGE_SIZE, self._pte())
            tlb.insert(2, (100 + i) * PAGE_SIZE, self._pte())
        assert tlb.invalidate_asid(1) == 5
        assert tlb.occupancy == 5
        assert tlb.lookup(2, 100 * PAGE_SIZE) is not None

    def test_flush(self):
        tlb = TLB()
        for i in range(8):
            tlb.insert(1, i * PAGE_SIZE, self._pte())
        tlb.flush()
        assert tlb.occupancy == 0

    def test_occupancy_bounded_by_entries(self):
        tlb = TLB(entries=8, associativity=2)
        for i in range(100):
            tlb.insert(1, i * PAGE_SIZE, self._pte())
        assert tlb.occupancy <= 8

    @given(vpns=st.lists(st.integers(min_value=0, max_value=1000),
                         min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_property_occupancy_never_exceeds_capacity(self, vpns):
        tlb = TLB(entries=16, associativity=4)
        for vpn in vpns:
            tlb.insert(1, vpn * PAGE_SIZE, self._pte())
        assert tlb.occupancy <= 16
        # A just-inserted entry must be resident.
        tlb.insert(1, 42 * PAGE_SIZE, self._pte())
        assert tlb.lookup(1, 42 * PAGE_SIZE) is not None


class TestAddressSpace:
    def _space(self, npages=64):
        mem = PhysicalMemory(npages * PAGE_SIZE)
        return AddressSpace(asid=1, frames=FrameAllocator(mem)), mem

    def test_allocate_backs_pages(self):
        space, _ = self._space()
        base = space.allocate(3 * PAGE_SIZE)
        for off in range(0, 3 * PAGE_SIZE, PAGE_SIZE):
            assert space.page_table.is_mapped(base + off)

    def test_allocations_do_not_overlap(self):
        space, _ = self._space()
        a = space.allocate(PAGE_SIZE)
        b = space.allocate(PAGE_SIZE)
        assert b >= a + 2 * PAGE_SIZE  # guard page between regions

    def test_segment_registration_and_bounds(self):
        space, _ = self._space()
        seg = space.register_segment(ctx_id=5, size=4 * PAGE_SIZE)
        seg.check(0, 64)
        seg.check(4 * PAGE_SIZE - 64, 64)
        with pytest.raises(SegmentViolation):
            seg.check(4 * PAGE_SIZE - 32, 64)
        with pytest.raises(SegmentViolation):
            seg.check(-1, 64)

    def test_single_segment_per_space(self):
        space, _ = self._space()
        space.register_segment(ctx_id=5, size=PAGE_SIZE)
        with pytest.raises(RuntimeError):
            space.register_segment(ctx_id=6, size=PAGE_SIZE)

    def test_data_roundtrip_through_translation(self):
        space, mem = self._space()
        base = space.allocate(2 * PAGE_SIZE)
        # Write through translation, read back through translation.
        vaddr = base + PAGE_SIZE - 4  # straddles nothing (within page)
        mem.write(space.translate(vaddr), b"abcd")
        assert mem.read(space.translate(vaddr), 4) == b"abcd"

    def test_allocate_rejects_nonpositive(self):
        space, _ = self._space()
        with pytest.raises(ValueError):
            space.allocate(0)
