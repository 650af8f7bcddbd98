"""Outside-in layer probes: wrap public functions at each layer boundary.

A :class:`Tracer` replaces chosen class or module attributes of the
``repro`` package with thin wrappers for the duration of one
repetition, then puts the original objects back. Nothing under ``src/``
knows it is being traced.

Each probe records, per repetition:

* ``calls`` -- how many times the wrapped function was called;
* ``self_s`` -- host seconds spent inside it, minus the time spent in
  nested probes (probes nest because the wrapped layers call each
  other: ``rmc.access`` calls ``memory.port_access`` calls
  ``memory.dram``);
* ``sim_ns`` -- for generator (timed-coroutine) functions only, the
  summed simulated span from first resumption to completion. Spans of
  concurrent coroutines overlap and nested spans are contained in their
  parents, so they must not be summed across probes.

Generator functions are driven by an explicit send/throw/close loop
(the PEP 380 expansion of ``yield from``) so every resumption is timed
as its own segment while the wrapped generator sees exactly the
values, exceptions and close requests it would see unwrapped;
:func:`check_generator_semantics` verifies that at run time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import weakref
from typing import Callable, Dict, List, Optional, Tuple

# (probe name, module, attribute path inside the module). One probe may
# cover several attributes; their counts and times add up.
LAYER_PROBES: Tuple[Tuple[str, str, str], ...] = (
    ("sim.run", "repro.sim.engine", "Simulator.run"),
    ("cluster.build", "repro.cluster.cluster", "Cluster.__init__"),
    ("cluster.context", "repro.cluster.cluster",
     "Cluster.create_global_context"),
    ("cluster.preload", "repro.cluster.cluster", "Cluster.poke_segment"),
    ("vm.physical_init", "repro.vm.physical", "PhysicalMemory.__init__"),
    ("vm.physical_rw", "repro.vm.physical", "PhysicalMemory.read"),
    ("vm.physical_rw", "repro.vm.physical", "PhysicalMemory.write"),
    ("vm.tlb_lookup", "repro.vm.tlb", "TLB.lookup"),
    ("vm.walk", "repro.vm.page_table", "PageWalker.walk"),
    ("rmc.translate", "repro.rmc.mmu", "RMCMMU.translate"),
    ("rmc.access", "repro.rmc.mmu", "RMCMMU.access"),
    ("memory.port_access", "repro.memory.hierarchy", "AgentPort.access"),
    ("memory.cache_probe", "repro.memory.cache", "Cache.probe"),
    ("memory.dram", "repro.memory.dram", "DRAMChannel.access"),
    ("fabric.inject", "repro.fabric.ni", "NetworkInterface.inject"),
    ("fabric.deliver", "repro.fabric.ni", "NetworkInterface.deliver"),
) + tuple(
    ("runtime.qp", "repro.runtime.qp_api", f"RMCSession.{op}")
    for op in ("read_sync", "write_sync", "fetch_add_sync",
               "compare_swap_sync", "notify_sync", "read_async",
               "write_async", "wait_for_slot", "poll_once", "drain_cq",
               "post_batch", "poll_cq_batch")
) + (
    ("runtime.msg_send", "repro.runtime.messaging", "Messenger.send"),
    ("runtime.msg_recv", "repro.runtime.messaging", "Messenger.recv"),
    ("runtime.barrier", "repro.runtime.barrier", "Barrier.wait"),
    # run_serving looks generate_trace up in its own module namespace.
    ("serving.trace_gen", "repro.serving.harness", "generate_trace"),
    ("serving.shard_of", "repro.serving.hashring", "ShardMap.shard_of"),
    ("serving.serve", "repro.serving.pipeline",
     "PipelinedShardClient.serve"),
    ("transport.observe", "repro.transport.health", "HealthChecker.observe"),
    ("transport.primary_usable", "repro.transport.session",
     "TransportStack.primary_usable"),
)

#: The set-up timers: the only probes installed on untraced
#: repetitions. Their summed host time is ``setup_s``.
SETUP_PROBES = ("cluster.build", "cluster.context", "cluster.preload",
                "serving.trace_gen")


class Probe:
    """Per-repetition totals of one probe."""

    __slots__ = ("calls", "self_s", "sim_ns")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.sim_ns = 0.0


class Tracer:
    """Installs probes, attributes host time to them, reads telemetry.

    Use as a context manager around one repetition::

        with Tracer(LAYER_PROBES) as tracer:
            run_the_workload()
        tracer.probes["rmc.access"].calls

    Every ``Cluster`` built inside the block is remembered weakly and
    its telemetry is read each time its simulator stops, so the counters
    survive the workload dropping the cluster.
    """

    def __init__(self, specs, names: Optional[Tuple[str, ...]] = None):
        self.specs = [s for s in specs if names is None or s[0] in names]
        self.probes: Dict[str, Probe] = {}
        self._sim = None
        self._clusters: List[tuple] = []   # (cluster ref, wq refs, reading)
        self._stack: List[list] = []
        self._installed: List[Tuple[object, str, object]] = []

    # -- install / restore ----------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for name, module, path in self.specs:
                owner, attr = _resolve(module, path)
                original = vars(owner)[attr]
                probe = self.probes.setdefault(name, Probe())
                setattr(owner, attr, self._wrap(name, probe, original))
                self._installed.append((owner, attr, original))
        except BaseException:
            self.__exit__(None, None, None)   # undo the probes installed
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self.refresh_clusters()

    def unrestored(self) -> List[str]:
        """Patched attributes that are not their original object again
        (the identity half of the probe-hygiene gate)."""
        return [f"{owner.__name__}.{attr}"
                for owner, attr, original in self._installed
                if vars(owner)[attr] is not original]

    # -- host self-time accounting --------------------------------------------

    def _push(self, probe: Probe) -> None:
        self._stack.append([probe, time.perf_counter(), 0.0])

    def _pop(self) -> None:
        probe, start, nested = self._stack.pop()
        elapsed = time.perf_counter() - start
        probe.self_s += elapsed - nested
        if self._stack:
            self._stack[-1][2] += elapsed

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, probe: Probe, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_probe(*args, **kwargs):
                probe.calls += 1
                return self._drive(probe, fn(*args, **kwargs))
            return generator_probe

        if name == "sim.run":
            @functools.wraps(fn)
            def run_probe(sim, *args, **kwargs):
                probe.calls += 1
                outer, self._sim = self._sim, sim
                self._push(probe)
                try:
                    return fn(sim, *args, **kwargs)
                finally:
                    self._pop()
                    self._sim = outer
                    self.refresh_clusters(sim)
            return run_probe

        on_return = {"cluster.build": self._built,
                     "cluster.context": self._context_opened}.get(name)

        @functools.wraps(fn)
        def call_probe(*args, **kwargs):
            probe.calls += 1
            self._push(probe)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop()
            if on_return is not None:
                on_return(args[0], result)
            return result
        return call_probe

    def _drive(self, probe: Probe, gen):
        """Drive ``gen`` exactly as ``yield from gen`` would, timing each
        resumption and, once it finishes, its simulated span."""
        sim = self._sim
        start_ns = None if sim is None else sim.now
        value = error = None
        while True:
            self._push(probe)
            try:
                if error is None:
                    yielded = gen.send(value)
                else:
                    yielded = gen.throw(error)
            except BaseException as done:
                if start_ns is not None:
                    probe.sim_ns += sim.now - start_ns
                if isinstance(done, StopIteration):
                    return done.value
                raise
            finally:
                self._pop()
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into gen, not swallowed
                value, error = None, exc

    # -- cluster telemetry ----------------------------------------------------

    @property
    def cluster_counters(self) -> List[dict]:
        """One dict of counter readings per cluster built (see
        :meth:`refresh_clusters`); empty until its simulator ran."""
        return [reading for *_, reading in self._clusters]

    def _built(self, cluster, _result) -> None:
        self._clusters.append((weakref.ref(cluster), [], {}))

    def _context_opened(self, cluster, gctx) -> None:
        for ref, wq_refs, _reading in self._clusters:
            if ref() is cluster:
                wq_refs.extend(weakref.ref(qp.wq)
                               for qps in gctx.qps.values() for qp in qps)

    def refresh_clusters(self, sim=None) -> None:
        """Re-read the counters of every live cluster (only those driven
        by ``sim`` when given). Dropped clusters keep their last reading."""
        from repro.telemetry import snapshot

        for ref, wq_refs, reading in self._clusters:
            cluster = ref()
            if cluster is None or (sim is not None and cluster.sim is not sim):
                continue
            wqs = [w() for w in wq_refs]
            wqs = [w for w in wqs if w is not None]
            nodes = list(cluster.nodes)
            reading.update(
                snapshot=snapshot(cluster),
                events=cluster.sim.events_processed,
                ct_cache=[(n.rmc.ct_cache.hits, n.rmc.ct_cache.misses)
                          for n in nodes],
                tlb=[(n.rmc.mmu.tlb.hits, n.rmc.mmu.tlb.misses)
                     for n in nodes],
                doorbells=sum(w.doorbells for w in wqs),
                posted=sum(w.posted_total for w in wqs))


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"probe target {module}:{path} is not defined "
                             "on its owner (moved or inherited?)")
    return owner, attr


class _Toy:
    """The coroutine :func:`check_generator_semantics` wraps."""

    log: List[object] = []

    def coroutine(self):
        try:
            received = yield "first"
            self.log.append(received)
            try:
                yield "second"
            except KeyError as exc:
                self.log.append(("caught", exc.args[0]))
            received = yield "third"
            return received * 2
        finally:
            self.log.append("finally")


def check_generator_semantics() -> List[str]:
    """Wrap a toy coroutine and confirm the probe is transparent to
    ``send``, ``throw``, ``close`` and return values. Returns failures."""
    failures = []
    log = _Toy.log
    log.clear()
    with Tracer([("toy", __name__, "_Toy.coroutine")]) as tracer:
        gen = _Toy().coroutine()
        steps = [gen.send(None), gen.send("hello"), gen.throw(KeyError("k"))]
        try:
            gen.send(21)
            failures.append("return: the generator did not stop")
        except StopIteration as stop:
            if stop.value != 42:
                failures.append(f"return: got {stop.value!r}, expected 42")
        if steps != ["first", "second", "third"]:
            failures.append(f"send: yielded {steps!r}")
        if log != ["hello", ("caught", "k"), "finally"]:
            failures.append(f"send/throw: the coroutine saw {log!r}")

        log.clear()
        gen = _Toy().coroutine()
        gen.send(None)
        gen.close()
        if log != ["finally"]:
            failures.append(f"close: the coroutine saw {log!r}")

        gen = _Toy().coroutine()
        gen.send(None)
        try:
            gen.throw(ValueError("boom"))
            failures.append("throw: an uncaught error was swallowed")
        except ValueError:
            pass
        if tracer.probes["toy"].calls != 3:
            failures.append("calls: the probe missed a call")
    failures += [f"not restored: {name}" for name in tracer.unrestored()]
    return failures
