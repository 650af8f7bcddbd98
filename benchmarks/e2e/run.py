"""End-to-end benchmark of the soNUMA simulator on two clocks.

Four paper workloads (see ``workloads.py``) run serially through public
``repro`` APIs. Every workload is measured on

* the host clock -- how fast the Python model runs: set-up seconds,
  wall seconds and workload ops per steady-state host second (medians
  over the repetitions that fit in ``--seconds``) and peak RSS;
* the simulated clock -- what the modelled hardware delivers (read,
  message and GET latencies, superstep time, goodput, error rate).
  These are exact: every repetition must reproduce them bit for bit.

``--trace 1`` adds traced repetitions whose layer probes (``probes.py``)
break the wall time down by ``src/repro`` layer. Correctness gates
(every read, echo, rank and GET is checked), determinism and probe
hygiene are checked on every run; a failing gate exits non-zero.

One workload, in this process; the last stdout line is one JSON result::

    python benchmarks/e2e/run.py --workload serving --seed 3 \\
        --seconds 20 --trace 0

All four, each in its own child process, one at a time::

    python benchmarks/e2e/run.py --seed 1 --out BENCH_e2e.json [--trace]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

WORKLOAD_NAMES = ("read_ladder", "netpipe", "pagerank", "serving")
#: Repetition size relative to the paper-sized workloads: a quarter, so
#: one run holds several repetitions and reports their median.
DEFAULT_SCALE = 0.25


# -- measuring one workload ---------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool,
            scale: float) -> dict:
    """Repeat workload ``name`` for about ``seconds``; summarize the reps."""
    from calibrate import REFERENCE_S, chunk_seconds
    from probes import (LAYER_PROBES, SETUP_PROBES, Tracer,
                        check_generator_semantics)
    from repro import Cluster, ClusterConfig
    from workloads import ERROR_RATE, OP_UNITS, SIM_METRICS, WORKLOADS

    make_inputs, run_rep = WORKLOADS[name]
    inputs = make_inputs(seed, scale)
    Cluster(config=ClusterConfig(num_nodes=2))   # warm imports + allocator
    gates = check_generator_semantics() if trace else []
    started = time.perf_counter()

    def repetition(probe_names):
        gc.collect()
        before = chunk_seconds()
        with Tracer(LAYER_PROBES, probe_names) as tracer:
            t0 = time.perf_counter()
            rep = run_rep(inputs)
            wall = time.perf_counter() - t0
        factor = REFERENCE_S / min(before, chunk_seconds())
        gates.extend(f"probe not restored: {attr}"
                     for attr in tracer.unrestored())
        return rep, wall, tracer, factor

    def more(reps, deadline, minimum):
        if len(reps) < minimum:
            return True
        typical = statistics.median(r[1] for r in reps)
        return time.perf_counter() - started + typical <= deadline

    plain, traced = [], []
    while more(plain, seconds / 2 if trace else seconds, 2 if trace else 3):
        plain.append(repetition(SETUP_PROBES))
    while trace and more(traced, seconds, 1):
        traced.append(repetition(None))

    # Host times are normalized to the reference host's speed (see
    # calibrate.py); raw = normalized / speed factor.
    rep = plain[0][0]
    factors = [factor for *_, factor in plain]
    walls = [wall * factor for _, wall, _, factor in plain]
    setups = [factor * sum(t.probes[p].self_s for p in SETUP_PROBES
                           if p in t.probes)
              for _, _, t, factor in plain]
    steadies = [wall - setup for wall, setup in zip(walls, setups)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sim = dict(rep.sim, error_rate=(rep.failed + rep.wrong) / rep.attempted)
    result = {
        "workload": name, "seed": seed, "scale": scale,
        "ops": rep.ops, "op_unit": OP_UNITS[name],
        "host": {"setup_s": setups, "wall_s": walls,
                 "ops_per_s": [rep.ops / s for s in steadies],
                 "peak_rss_mb": [rss_mb]},
        "sim": {metric: {"value": sim[metric], "unit": unit,
                         "better": better, "paper": paper}
                for metric, unit, better, paper
                in SIM_METRICS[name] + [ERROR_RATE]},
        "speed_factor": factors,
        "attempted": sum(r[0].attempted for r in plain + traced),
        "failed": sum(r[0].failed + r[0].wrong for r in plain + traced),
    }
    if rep.wrong:
        gates.append(f"{rep.wrong} of {rep.attempted} outputs are wrong")
    outcomes = [(r.ops, r.attempted, r.failed, r.wrong, r.sim,
                 r.layer_counts) for r, *_ in plain + traced]
    if any(o != outcomes[0] for o in outcomes):
        gates.append("simulated results differ between repetitions")

    if trace:
        layers = [layer_metrics(t, r, wall, statistics.median(steadies))
                  for r, wall, t, _ in traced]
        counts = [{k: v for k, v in layer.items()
                   if not k.endswith("self_share")} for layer in layers]
        if any(c != counts[0] for c in counts):
            gates.append("layer counts differ between traced repetitions")
        result["layers"] = {
            k: (statistics.median(layer[k] for layer in layers)
                if k.endswith("self_share") else layers[0][k])
            for k in layers[0]}
        result["layers"]["trace_overhead"] = (
            statistics.median(wall * factor for _, wall, _, factor in traced)
            / statistics.median(walls))
    result["gates"] = gates
    return result


def layer_metrics(tracer, rep, wall_s: float, steady_s: float) -> dict:
    """Per-layer metrics of one traced repetition that took ``wall_s``
    (see README.md); ``steady_s`` is the untraced median steady time."""
    probes = tracer.probes
    ops = rep.ops
    readings = [r for r in tracer.cluster_counters if r]
    nodes = [n for r in readings for n in r["snapshot"].nodes]
    rmc = {}
    for node in nodes:
        for key, value in node.rmc_counters.items():
            rmc[key] = rmc.get(key, 0) + value
    events = sum(r["events"] for r in readings)
    doorbells = sum(r["doorbells"] for r in readings)

    def hit_rate(pairs):
        hits = sum(h for h, _ in pairs)
        total = hits + sum(m for _, m in pairs)
        return hits / total if total else 0.0

    metrics = {
        "sim.events": events,
        "sim.events_per_op": events / ops,
        "sim.host_ns_per_event": steady_s * 1e9 / events if events else 0.0,
        "vm.tlb_hit_rate": hit_rate([p for r in readings for p in r["tlb"]]),
        "rmc.maq_peak": max((n.maq_peak for n in nodes), default=0),
        "rmc.itt_peak": max((n.itt_peak for n in nodes), default=0),
        "rmc.ct_cache_hit_rate": hit_rate(
            [p for r in readings for p in r["ct_cache"]]),
        "rmc.wq_requests": rmc.get("wq_requests", 0),
        "rmc.requests_served": rmc.get("requests_served", 0),
        "rmc.cq_completions": rmc.get("cq_completions", 0),
        "rmc.doorbells": doorbells,
        "rmc.entries_per_doorbell": (sum(r["posted"] for r in readings)
                                     / doorbells if doorbells else 0.0),
        "rmc.retransmissions": rmc.get("retransmissions", 0),
        "rmc.errors": sum(v for k, v in rmc.items()
                          if k.startswith("errors_") or k in (
                              "transactions_timed_out",
                              "crash_error_completions",
                              "peer_abort_completions")),
        "memory.l1_hit_rate": hit_rate(
            [(s["hits"], s["misses"]) for n in nodes
             for agent, s in n.cache_stats.items()
             if agent not in ("l2", "dram")]),
        "memory.l2_hit_rate": hit_rate(
            [(n.cache_stats["l2"]["hits"], n.cache_stats["l2"]["misses"])
             for n in nodes]),
        "memory.dram_bytes_per_op": sum(n.dram_bytes for n in nodes) / ops,
        "fabric.bytes_per_op": sum(n.ni_bytes_sent for n in nodes) / ops,
        "fabric.drops": sum(r["snapshot"].fabric_stats.get("dropped", 0)
                            for r in readings),
        "runtime.msg.sim_ns_per_op": (probes["runtime.msg_send"].sim_ns
                                      + probes["runtime.msg_recv"].sim_ns)
        / ops,
        "serving.failovers": rep.layer_counts.get("serving.failovers", 0),
        "serving.degraded_reads":
            rep.layer_counts.get("serving.degraded_reads", 0),
        "transport.switches": sum(
            n.transport["counters"]["failovers"]
            + n.transport["counters"]["failbacks"]
            for n in nodes if n.transport),
        "cluster.evictions": sum(
            r["snapshot"].membership_stats.get("evictions", 0)
            for r in readings),
    }
    for name, probe in probes.items():
        metrics[f"{name}.calls"] = probe.calls
        metrics[f"{name}.self_share"] = probe.self_s / wall_s
        metrics[f"{name}.sim_ns_per_op"] = probe.sim_ns / ops
    return metrics


# -- reporting ----------------------------------------------------------------

def summarize(result: dict, bench: dict, trace: bool) -> None:
    """Attach medians, units and the ``metrics`` BENCHMARK.json names."""
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    result["host"] = {
        key: {"value": statistics.median(reps), "unit": units.get(key, "?"),
              "min": min(reps), "max": max(reps), "reps": reps}
        for key, reps in result["host"].items()}
    if trace:
        wanted = bench["per_layer"]
        values = result["layers"]
    else:
        wanted = bench["end_to_end"]
        values = {k: v["value"] for k, v in result["host"].items()}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        result["gates"].append(f"metrics not measured: {missing}")
    result["metrics"] = {m["name"]: {"value": values[m["name"]],
                                     "unit": m["unit"]}
                         for m in wanted if m["name"] in values}
    result["valid"] = not result["gates"]


def report(result: dict) -> str:
    """Human-readable summary of one workload's result."""
    lines = [f"== {result['workload']} (seed {result['seed']}, scale "
             f"{result['scale']}; {result['ops']} ops per rep, 1 op = "
             f"{result['op_unit']})"]
    for key, entry in result["host"].items():
        lines.append(f"  host {key:14s} {entry['value']:12.6g} "
                     f"{entry['unit']:6s} (min {entry['min']:.6g}, max "
                     f"{entry['max']:.6g}, {len(entry['reps'])} reps)")
    for key, entry in result["sim"].items():
        paper = entry["paper"]
        if key == "error_rate":
            note = "exact"
        elif paper is None:
            note = "unvalidated"
        else:
            note = (f"paper ~{paper:g} {entry['unit']}, "
                    f"error {entry['value'] / paper - 1:+.1%}")
        lines.append(f"  sim  {key:14s} {entry['value']:12.6g} "
                     f"{entry['unit']:6s} ({note})")
    if "layers" in result:
        for key, entry in result["metrics"].items():
            lines.append(f"  layer {key:34s} {entry['value']:14.6g} "
                         f"{entry['unit']}")
    lines += [f"  GATE FAILED: {gate}" for gate in result["gates"]]
    return "\n".join(lines)


def host_facts() -> dict:
    """The host the numbers were measured on (full-run JSON only)."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        revision = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        revision = ""
    return {"nproc": os.cpu_count(),
            "sched_getaffinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "platform": platform.platform(),
            "git_revision": revision or "unknown"}


# -- entry point --------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process "
                             "(default: all four, each in a child process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=("0", "1"),
                        help="add traced repetitions; report per-layer "
                             "metrics")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="repetition size relative to the paper-sized "
                             "workloads (1.0)")
    parser.add_argument("--out", help="write the full JSON result here")
    args = parser.parse_args(argv)
    trace = args.trace == "1"

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    results = {}
    for name in [args.workload] if args.workload else WORKLOAD_NAMES:
        if args.workload:
            result = measure(name, args.seed, args.seconds, trace, args.scale)
        else:
            # A fresh process per workload: peak RSS is the workload's own
            # and no workload's heap slows the next.
            with ProcessPoolExecutor(max_workers=1,
                                     mp_context=get_context("spawn")) as pool:
                result = pool.submit(measure, name, args.seed, args.seconds,
                                     trace, args.scale).result()
        summarize(result, bench, trace)
        results[name] = result
        print(report(result), flush=True)

    if args.out:
        Path(args.out).write_text(json.dumps(
            {"schema": "bench_e2e/v1", "seed": args.seed,
             "seconds": args.seconds, "scale": args.scale, "trace": trace,
             "host": host_facts(), "workloads": results}, indent=2) + "\n")
    valid = all(r["valid"] for r in results.values())
    if args.workload:
        result = results[args.workload]
        print(json.dumps({"correct": valid, "attempted": result["attempted"],
                          "failed": result["failed"],
                          "metrics": result["metrics"]}))
    return 0 if valid else 1


if __name__ == "__main__":
    sys.exit(main())
