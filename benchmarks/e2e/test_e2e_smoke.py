"""Smoke test of the end-to-end benchmark.

Runs ``run.py --scale 0.05 --seconds 1 --trace`` once (all four
workloads, tiny repetitions) and checks that the output is complete and
that each layer probe fires exactly where the README's heavy/light table
says it must. A probe that a refactor bypasses -- for example by binding
the method to a local name before the loop -- reads 0 calls and fails
here. Tier-1 collects only ``tests/``, so this adds nothing to it::

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from probes import LAYER_PROBES, check_generator_semantics  # noqa: E402

WORKLOADS = ("read_ladder", "netpipe", "pagerank", "serving")

#: Probe -> workloads on which it must fire (the README's "heavy" column).
HEAVY = {
    "sim.run": ("read_ladder", "netpipe"),
    "cluster.build": ("read_ladder",),
    "cluster.context": ("read_ladder",),
    "cluster.preload": ("read_ladder",),
    "vm.physical_init": ("read_ladder",),
    "vm.tlb_lookup": ("read_ladder",),
    "vm.walk": ("read_ladder",),
    "vm.physical_rw": ("read_ladder",),
    "rmc.translate": ("read_ladder", "serving"),
    "rmc.access": ("read_ladder", "serving"),
    "memory.port_access": ("pagerank",),
    "memory.cache_probe": ("pagerank",),
    "memory.dram": ("pagerank",),
    "fabric.inject": ("read_ladder",),
    "fabric.deliver": ("read_ladder",),
    "runtime.qp": ("netpipe", "pagerank"),
    "runtime.msg_send": ("netpipe",),
    "runtime.msg_recv": ("netpipe",),
    "runtime.barrier": ("pagerank",),
    "serving.trace_gen": ("serving",),
    "serving.shard_of": ("serving",),
    "serving.serve": ("serving",),
    "transport.observe": ("serving",),
    "transport.primary_usable": ("serving",),
}

#: Metrics that must read 0 on the workloads listed.
MUST_BE_ZERO = {
    **{metric: ("read_ladder", "netpipe", "pagerank") for metric in (
        "serving.trace_gen.calls", "serving.shard_of.calls",
        "serving.serve.calls", "serving.failovers",
        "serving.degraded_reads", "transport.observe.calls",
        "transport.primary_usable.calls", "transport.switches",
        "cluster.evictions")},
    **{metric: ("read_ladder", "pagerank", "serving") for metric in (
        "runtime.msg_send.calls", "runtime.msg_recv.calls")},
}


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "BENCH_e2e.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "0.05",
         "--seconds", "1", "--trace", "--out", str(out)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())["workloads"]


def test_every_workload_passes_its_gates(result):
    assert sorted(result) == sorted(WORKLOADS)
    for name, entry in result.items():
        assert entry["valid"], (name, entry["gates"])
        assert entry["failed"] == 0 and entry["attempted"] > 0


def test_every_benchmark_metric_is_emitted_with_its_unit(result, bench):
    for entry in result.values():
        for metric in bench["end_to_end"]:
            assert entry["host"][metric["name"]]["unit"] == metric["unit"]
        for metric in bench["per_layer"]:
            emitted = entry["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))


def test_every_probe_fires_where_its_layer_is_heavy(result):
    assert set(HEAVY) == {name for name, _, _ in LAYER_PROBES}
    for probe, workloads in HEAVY.items():
        for name in workloads:
            assert result[name]["layers"][f"{probe}.calls"] > 0, \
                (probe, name)


def test_idle_layers_read_zero(result):
    for metric, workloads in MUST_BE_ZERO.items():
        for name in workloads:
            assert result[name]["layers"][metric] == 0, (metric, name)


def test_probes_are_transparent_to_generators():
    assert check_generator_semantics() == []
