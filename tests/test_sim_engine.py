"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import AnyOf, Simulator, SimulationError, WakeSignal


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10)
        yield sim.timeout(5.5)
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == pytest.approx(15.5)
    assert sim.now == pytest.approx(15.5)


def test_bare_number_yield_is_a_timeout():
    sim = Simulator()

    def proc(sim):
        yield 42
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == pytest.approx(42.0)


def test_process_return_value_propagates_to_waiter():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(3)
        return "payload"

    def parent(sim):
        result = yield sim.process(child(sim))
        return result

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == "payload"


def test_waiting_on_already_completed_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        return 7

    def parent(sim, child_proc):
        yield sim.timeout(10)  # child completes long before we wait
        value = yield child_proc
        return value

    child_proc = sim.process(child(sim))
    p = sim.process(parent(sim, child_proc))
    sim.run()
    assert p.value == 7
    assert sim.now == pytest.approx(10.0)


def test_exception_propagates_to_waiter():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        raise ValueError("boom")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except ValueError as exc:
            return f"caught {exc}"

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == "caught boom"


def test_unhandled_process_exception_surfaces_from_run():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        raise RuntimeError("unhandled")

    sim.process(child(sim))
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_events_fire_in_fifo_order_at_equal_times():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(5)
        order.append(tag)

    for tag in range(4):
        sim.process(proc(sim, tag))
    sim.run()
    assert order == [0, 1, 2, 3]


def test_run_until_limits_time():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(100)

    sim.process(proc(sim))
    sim.run(until=50)
    assert sim.now == pytest.approx(50.0)
    sim.run()
    assert sim.now == pytest.approx(100.0)


def test_manual_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter(sim):
        value = yield gate
        log.append((sim.now, value))

    def opener(sim):
        yield sim.timeout(20)
        gate.succeed("open")

    sim.process(waiter(sim))
    sim.process(opener(sim))
    sim.run()
    assert log == [(20.0, "open")]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_any_of_fires_on_first():
    sim = Simulator()

    def proc(sim):
        first = yield AnyOf(sim, [sim.timeout(5, "fast"), sim.timeout(50, "slow")])
        return first

    p = sim.process(proc(sim))
    sim.run()
    assert "fast" in p.value.values()
    # The slow timeout still exists but the process resumed at t=5.


def test_all_of_waits_for_everything():
    sim = Simulator()

    def proc(sim):
        results = yield sim.all_of([sim.timeout(5, "a"), sim.timeout(9, "b")])
        return sim.now, results

    p = sim.process(proc(sim))
    sim.run()
    at, results = p.value
    assert at == pytest.approx(9.0)
    assert set(results.values()) == {"a", "b"}


def test_run_until_process_detects_deadlock():
    sim = Simulator()

    def stuck(sim):
        yield sim.event()  # never triggered

    p = sim.process(stuck(sim))
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_process(p)


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_stop_halts_run():
    sim = Simulator()

    def proc(sim):
        for _ in range(100):
            yield sim.timeout(1)
            if sim.now >= 5:
                sim.stop()

    sim.process(proc(sim))
    sim.run()
    assert sim.now == pytest.approx(5.0)


# -- satellite regressions: tracebacks, daemon accounting, latches -------


def test_process_exception_carries_traceback():
    """The frames that raised inside the process survive to the caller
    of run_until_process (regression for a dropped-traceback no-op)."""
    import traceback

    sim = Simulator()

    def deep_helper():
        raise ValueError("boom with context")

    def proc(sim):
        yield sim.timeout(1)
        deep_helper()

    p = sim.process(proc(sim))
    with pytest.raises(ValueError, match="boom with context") as excinfo:
        sim.run_until_process(p)
    frames = [f.name for f in
              traceback.extract_tb(excinfo.value.__traceback__)]
    assert "deep_helper" in frames
    assert "proc" in frames


def test_run_until_process_stops_on_daemon_only_heap():
    """A watchdog-only heap can never complete the target process:
    run_until_process must deadlock-error, not spin the timers forever."""
    sim = Simulator()

    def watchdog(sim):
        while True:
            yield sim.timeout(10, daemon=True)

    def stuck(sim):
        yield sim.event()  # never triggered

    sim.process(watchdog(sim))
    p = sim.process(stuck(sim))
    with pytest.raises(SimulationError, match="daemon"):
        sim.run_until_process(p)


def test_wake_signal_trigger_before_wait_is_latched():
    sim = Simulator()
    signal = WakeSignal(sim)
    signal.trigger()  # nobody waiting: must latch
    log = []

    def waiter(sim):
        yield signal.wait()
        log.append(sim.now)

    sim.process(waiter(sim))
    sim.run()
    assert log == [0.0]


def test_wake_signal_double_trigger_coalesces():
    """Two triggers with no waiter latch a single wake: the second
    wait() has nothing to consume and deadlocks."""
    sim = Simulator()
    signal = WakeSignal(sim)
    signal.trigger()
    signal.trigger()

    def waiter(sim):
        yield signal.wait()  # consumes the (single) latched wake
        yield signal.wait()  # never fires

    p = sim.process(waiter(sim))
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_process(p)


def test_wake_signal_rewait_after_fire():
    sim = Simulator()
    signal = WakeSignal(sim)
    wakes = []

    def waiter(sim):
        yield signal.wait()
        wakes.append(sim.now)
        yield signal.wait()
        wakes.append(sim.now)

    def producer(sim):
        yield sim.timeout(5)
        signal.trigger()
        yield sim.timeout(10)
        signal.trigger()

    sim.process(waiter(sim))
    sim.process(producer(sim))
    sim.run()
    assert wakes == [5.0, 15.0]


def test_any_of_with_already_processed_event():
    sim = Simulator()

    def proc(sim):
        early = sim.timeout(1, "early")
        yield sim.timeout(5)  # `early` fires and is fully processed
        result = yield AnyOf(sim, [early, sim.timeout(50, "late")])
        return sim.now, result

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == (5.0, {0: "early"})


def test_all_of_with_already_processed_events():
    sim = Simulator()

    def proc(sim):
        a = sim.timeout(1, "a")
        b = sim.timeout(2, "b")
        yield sim.timeout(5)  # both children already processed
        results = yield sim.all_of([a, b])
        return sim.now, results

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == (5.0, {0: "a", 1: "b"})


def test_call_later_runs_deferred_callback():
    sim = Simulator()
    fired = []

    sim.call_later(7.5, lambda: fired.append(sim.now))
    sim.call_later(0.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [0.0, 7.5]


def test_call_later_daemon_does_not_sustain_run():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(3)

    sim.call_later(100.0, lambda: fired.append(sim.now), daemon=True)
    sim.process(proc(sim))
    sim.run()
    assert sim.now == pytest.approx(3.0)
    assert fired == []


# -- spawn(): fire-and-forget processes without a completion event --------


def _staged_run(start):
    """Run a driver that starts three stage processes through ``start``
    while a peer acts at the same instants; return the (time, tag) log,
    the dispatched-event count and the end time."""
    sim = Simulator()
    log = []

    def stage(tag):
        for delay in (0, 1.0, 0):
            log.append((sim.now, tag))
            yield delay
        log.append((sim.now, tag, "done"))

    def driver(sim):
        for i in range(3):
            start(sim, stage(f"s{i}"))
            log.append((sim.now, "driver"))
            yield 0
        yield 1.0
        log.append((sim.now, "driver", "done"))

    def peer(sim):
        for _ in range(5):
            log.append((sim.now, "peer"))
            yield 0.5

    sim.process(driver(sim))
    sim.process(peer(sim))
    sim.run()
    return log, sim.events_processed, sim.now


def test_spawn_drops_only_the_completion_event():
    """Each spawned process that returns dispatches exactly one event
    fewer than process(); every other event keeps its time and order."""
    log_p, events_p, end_p = _staged_run(lambda sim, g: sim.process(g))
    log_s, events_s, end_s = _staged_run(lambda sim, g: sim.spawn(g))
    assert log_s == log_p
    assert end_s == end_p
    assert events_s == events_p - 3


def test_spawn_returns_no_handle():
    sim = Simulator()

    def stage(sim):
        yield 1.0

    assert sim.spawn(stage(sim)) is None
    sim.run()
    assert sim.events_processed == 2   # start + the 1 ns wake


def test_spawned_exception_aborts_run():
    def boom(sim):
        yield 2.0
        raise RuntimeError("spawned stage failed")

    for start in (Simulator.process, Simulator.spawn):
        sim = Simulator()
        start(sim, boom(sim))
        with pytest.raises(RuntimeError, match="spawned stage failed"):
            sim.run()
        assert sim.now == pytest.approx(2.0)


def test_spawned_daemon_does_not_sustain_run():
    sim = Simulator()

    def watchdog(sim):
        yield sim.timeout(100, daemon=True)

    def work(sim):
        yield 3.0

    sim.spawn(watchdog(sim), daemon=True)
    sim.process(work(sim))
    sim.run()
    assert sim.now == pytest.approx(3.0)


def test_spawned_last_work_ends_run_before_same_instant_daemons():
    """The one documented difference: when a spawned stage's return is
    the run's last real work, a daemon callback due at that instant no
    longer runs first (the dropped completion kept the run alive)."""
    for start, daemon_ran in ((Simulator.process, True),
                              (Simulator.spawn, False)):
        sim = Simulator()
        fired = []

        def stage(sim):
            yield 5.0

        def arm(sim):
            yield 0
            sim.call_later(5.0, lambda: fired.append(sim.now), daemon=True)

        start(sim, stage(sim))
        sim.process(arm(sim))
        sim.run()
        assert sim.now == pytest.approx(5.0)
        assert fired == ([5.0] if daemon_ran else [])


# -- queue entries: daemon counting, windows, the clock ----------------------


def test_run_stops_when_only_daemon_entries_remain():
    """Daemon entries on the heap and on the now-queue do not sustain the
    run; they stay queued and a later run still sees them."""
    sim = Simulator()
    fired = []

    def work(sim):
        yield 2.0
        sim.call_later(0, lambda: fired.append(("now", sim.now)), daemon=True)
        sim.call_later(5.0, lambda: fired.append(("heap", sim.now)),
                       daemon=True)

    sim.spawn(work(sim))   # its return queues no real completion entry
    assert sim.run() == 2.0
    assert fired == []
    assert sim._pending_real == 0
    assert sim.peek_next_event_time() == 2.0
    # Real work behind the daemons lets them dispatch in time order.
    sim.call_later(6.0, lambda: fired.append(("real", sim.now)))
    assert sim.run() == 8.0
    assert fired == [("now", 2.0), ("heap", 7.0), ("real", 8.0)]


def test_run_passes_daemons_queued_before_real_work():
    sim = Simulator()
    fired = []
    sim.call_later(1.0, lambda: fired.append("daemon"), daemon=True)
    sim.call_later(1.0, lambda: fired.append("real"))
    sim.call_later(1.0, lambda: fired.append("late daemon"), daemon=True)
    assert sim.run() == 1.0
    assert fired == ["daemon", "real"]


def test_run_window_last_real_ignores_daemons():
    sim = Simulator()
    sim.call_later(1.0, lambda: None)
    sim.call_later(3.0, lambda: None, daemon=True)
    assert sim.run_window(5.0) == (1.0, 2)
    assert sim.now == 3.0
    sim.call_later(1.0, lambda: None, daemon=True)
    assert sim.run_window(10.0) == (None, 1)


def test_run_until_earlier_than_now_raises():
    """Regression: run(until=t) with t < now used to rewind the clock."""
    sim = Simulator()
    sim.call_later(20.0, lambda: None)
    assert sim.run(until=15) == 15.0
    with pytest.raises(ValueError, match="earlier than now"):
        sim.run(until=5)
    assert sim.now == 15.0
    assert sim.run(until=15) == 15.0
    assert sim.run() == 20.0
