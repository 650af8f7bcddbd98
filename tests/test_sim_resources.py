"""Unit tests for Store / Resource / Channel queueing primitives."""

import pytest

from repro.sim import Channel, Event, Resource, Simulator, Store


class TestStore:
    def test_fifo_order(self):
        sim = Simulator()
        store = Store(sim)
        received = []

        def producer(sim):
            for i in range(5):
                yield sim.timeout(1)
                store.put(i)

        def consumer(sim):
            for _ in range(5):
                item = yield store.get()
                received.append(item)

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert received == [0, 1, 2, 3, 4]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        times = []

        def consumer(sim):
            item = yield store.get()
            times.append((sim.now, item))

        def producer(sim):
            yield sim.timeout(30)
            store.put("late")

        sim.process(consumer(sim))
        sim.process(producer(sim))
        sim.run()
        assert times == [(30.0, "late")]

    def test_capacity_blocks_putter(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        log = []

        def producer(sim):
            yield store.put("a")
            log.append(("a-accepted", sim.now))
            yield store.put("b")
            log.append(("b-accepted", sim.now))

        def consumer(sim):
            yield sim.timeout(10)
            item = yield store.get()
            log.append((f"got-{item}", sim.now))

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert ("a-accepted", 0.0) in log
        assert ("b-accepted", 10.0) in log  # admitted when "a" was drained

    def test_try_put_respects_capacity(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        assert store.try_put(1)
        assert store.try_put(2)
        assert not store.try_put(3)
        assert store.is_full

    def test_try_get_empty(self):
        sim = Simulator()
        store = Store(sim)
        ok, item = store.try_get()
        assert not ok and item is None

    def test_peak_occupancy_tracked(self):
        sim = Simulator()
        store = Store(sim)
        for i in range(7):
            store.try_put(i)
        assert store.peak_occupancy == 7
        assert store.total_puts == 7

    def test_invalid_capacity(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Store(sim, capacity=0)


    def test_immediate_put_allocates_no_event(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        assert store.put("a") == 0
        waiting = store.put("b")
        assert isinstance(waiting, Event) and not waiting.triggered
        assert list(store.items) == ["a"]

    def test_immediate_put_resumes_after_an_earlier_competitor(self):
        """``yield store.put(x)`` that succeeds at once resumes where a
        triggered put event would: after a process already due at the
        same instant, and after the getter it hands the item to."""
        sim = Simulator()
        store = Store(sim)
        log = []

        def getter(sim):
            item = yield store.get()
            log.append((sim.now, "got " + item))

        def putter(sim):
            yield 1.0
            yield store.put("x")
            log.append((sim.now, "put done"))

        def competitor(sim):
            yield 1.0
            log.append((sim.now, "competitor"))
            yield 0
            log.append((sim.now, "competitor again"))

        for proc in (getter, putter, competitor):
            sim.process(proc(sim))
        sim.run()
        assert log == [(1.0, "competitor"), (1.0, "got x"), (1.0, "put done"),
                       (1.0, "competitor again")]


class TestResource:
    def test_acquire_release_cycle(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        order = []

        def worker(sim, tag, hold):
            yield res.acquire()
            order.append((tag, "in", sim.now))
            yield sim.timeout(hold)
            res.release()
            order.append((tag, "out", sim.now))

        sim.process(worker(sim, "a", 10))
        sim.process(worker(sim, "b", 10))
        sim.process(worker(sim, "c", 10))
        sim.run()
        # a and b enter at t=0; c must wait until one releases at t=10.
        entries = {tag: t for tag, what, t in order if what == "in"}
        assert entries["a"] == 0.0
        assert entries["b"] == 0.0
        assert entries["c"] == 10.0
        assert res.peak_in_use == 2

    def test_release_without_acquire_raises(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        with pytest.raises(RuntimeError):
            res.release()

    def test_try_acquire(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        assert res.try_acquire()
        assert not res.try_acquire()
        res.release()
        assert res.try_acquire()

    def test_fifo_grant_order(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        grants = []

        def worker(sim, tag):
            yield res.acquire()
            grants.append(tag)
            yield sim.timeout(1)
            res.release()

        for tag in range(5):
            sim.process(worker(sim, tag))
        sim.run()
        assert grants == [0, 1, 2, 3, 4]


    def test_immediate_grant_allocates_no_event(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        assert res.acquire() == 0
        assert res.in_use == 1 and res.total_acquires == 1
        waiting = res.acquire()
        assert isinstance(waiting, Event) and not waiting.triggered

    @staticmethod
    def _same_instant_run(grant):
        """Process ``a`` takes a free slot through ``grant`` at t=1 while
        ``b`` acts at the same instant; returns the (time, tag) log and
        the dispatched-event count."""
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []

        def a(sim):
            yield 1.0
            yield grant(sim, res)
            log.append((sim.now, "a granted"))
            yield 0
            log.append((sim.now, "a next"))

        def b(sim):
            yield 1.0
            log.append((sim.now, "b"))
            yield 0
            log.append((sim.now, "b again"))

        sim.process(a(sim))
        sim.process(b(sim))
        sim.run()
        return log, sim.events_processed

    def test_immediate_grant_keeps_the_triggered_event_position(self):
        """Yielding the bare-0 grant resumes at the now-queue position a
        pre-triggered grant event takes: after ``b``, which was already
        due at t=1, and before ``b``'s own zero-delay yield."""

        def pre_triggered(sim, res):
            assert res.try_acquire()
            return sim.event().succeed()

        immediate = self._same_instant_run(
            lambda sim, res: res.acquire())
        assert immediate == self._same_instant_run(pre_triggered)
        assert immediate[0] == [(1.0, "b"), (1.0, "a granted"),
                                (1.0, "b again"), (1.0, "a next")]

    def test_contended_grants_are_fifo_at_release_time(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []

        def holder(sim):
            yield res.acquire()
            yield 5.0
            res.release()
            log.append((sim.now, "released"))
            yield 0
            log.append((sim.now, "holder after"))

        def waiter(sim, tag):
            grant = res.acquire()
            assert isinstance(grant, Event)
            yield grant
            log.append((sim.now, tag))
            yield 1.0
            res.release()

        sim.process(holder(sim))
        for tag in ("w1", "w2"):
            sim.process(waiter(sim, tag))
        sim.run()
        assert log == [(5.0, "released"), (5.0, "w1"),
                       (5.0, "holder after"), (6.0, "w2")]
        assert res.total_acquires == 3 and res.peak_in_use == 1
        assert res.in_use == 0


class TestChannel:
    def test_latency_only(self):
        sim = Simulator()
        chan = Channel(sim, latency=50.0)
        arrivals = []

        def sender(sim):
            chan.put("x")
            yield sim.timeout(0)

        def receiver(sim):
            item = yield chan.get()
            arrivals.append((sim.now, item))

        sim.process(receiver(sim))
        sim.process(sender(sim))
        sim.run()
        assert arrivals == [(50.0, "x")]

    def test_serialization_delay(self):
        # 1 byte/ns bandwidth: a 100-byte item takes 100 ns to serialize
        # plus 50 ns propagation.
        sim = Simulator()
        chan = Channel(sim, latency=50.0, bandwidth=1.0)
        arrivals = []

        def sender(sim):
            chan.put("a", size=100)
            chan.put("b", size=100)
            yield sim.timeout(0)

        def receiver(sim):
            for _ in range(2):
                item = yield chan.get()
                arrivals.append((sim.now, item))

        sim.process(receiver(sim))
        sim.process(sender(sim))
        sim.run()
        assert arrivals[0] == (150.0, "a")
        # "b" waits for the line: starts at 100, arrives at 250.
        assert arrivals[1] == (250.0, "b")

    def test_bytes_accounting(self):
        sim = Simulator()
        chan = Channel(sim, latency=1.0, bandwidth=10.0)
        chan.put("p", size=64)
        chan.put("q", size=64)
        sim.run()
        assert chan.bytes_sent == 128


class TestStats:
    def test_latency_percentiles(self):
        from repro.sim import LatencyStat

        stat = LatencyStat()
        for v in range(1, 101):
            stat.record(float(v))
        assert stat.mean == pytest.approx(50.5)
        assert stat.p50 == pytest.approx(50.5)
        assert stat.percentile(0) == 1.0
        assert stat.percentile(100) == 100.0
        assert stat.minimum == 1.0 and stat.maximum == 100.0

    def test_latency_rejects_negative(self):
        from repro.sim import LatencyStat

        stat = LatencyStat()
        with pytest.raises(ValueError):
            stat.record(-1.0)

    def test_throughput_meter_units(self):
        from repro.sim import ThroughputMeter

        meter = ThroughputMeter()
        meter.start(0.0)
        meter.record(1000, ops=10)
        meter.stop(1000.0)  # 1000 bytes over 1000 ns = 1 B/ns = 8 Gbps
        assert meter.gbps() == pytest.approx(8.0)
        assert meter.gbytes_per_sec() == pytest.approx(1.0)
        assert meter.mops() == pytest.approx(10.0)
