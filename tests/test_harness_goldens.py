"""Cross-revision goldens for the partitioned scenario harnesses.

Each case runs one harness serially and pins the sha256 of its whole
``outcome`` dict, serialized canonically. The digests were captured
before the harnesses shared a scaffold, so any refactor of cluster
set-up, crash scheduling, plan resolution or the per-rank merge that
moves a single counter, timestamp or timeline event fails here. The
``expect`` checks name a few headline facts so a mismatch says what
kind of scenario drifted.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.apps import run_kv_failover
from repro.serving import run_serving
from repro.transport.harness import run_failover

_SERVING = dict(num_shards=3, replication=2, rate_mops=4.0,
                duration_ns=40_000.0, num_clients=1_000_000, num_keys=96,
                num_buckets=256, seed=11)

CASES = {
    "kv-replicated-crash": (
        lambda: run_kv_failover(num_nodes=3, mode="replicated",
                                crash_primary_at_ns=30_000.0,
                                restart_after_ns=20_000.0),
        "d8840be0a1c7b245469b9c274dc5fa9b91fe4dc83eef3abc90177c143022484d",
        lambda out: out["values_ok"]
        and out["availability"]["failovers"] == 1),
    "kv-coded-crash": (
        lambda: run_kv_failover(num_nodes=4, mode="coded",
                                crash_primary_at_ns=30_000.0),
        "d20fbe347597f21ce2a63840132cb3f32701acdb5179f39b5bf4d553b9dd1b7a",
        lambda out: out["availability"]["failovers"] == 216
        and out["availability"]["evicted_skips"] == 215),
    "serving-crash": (
        lambda: run_serving(crash_shard=1, crash_at_ns=12_000.0,
                            **_SERVING),
        "4acaefa4a5ceaa342f9e4b3e61ef961fab13fac59e36b99eee13523c534ffaf5",
        lambda out: out["membership"]["evictions"] == 1
        and out["failed"] == 0),
    "serving-flap-degraded": (
        lambda: run_serving(failover="hysteresis", flap_at_ns=10_000.0,
                            flap_down_ns=20_000.0, **_SERVING),
        "44b8725981ad4fbf6538c3a79c91214787fbbf697c73887d3f80996f74eb6f6a",
        lambda out: out["degraded_reads"] == 98 and out["wrong"] == 0),
    "transport-flap": (
        lambda: run_failover(num_ops=120, policy="hysteresis",
                             flap_cycles=1, flap_start_ns=10_000.0,
                             flap_down_ns=15_000.0, seed=7),
        "6a80917eba13187589422cb117042c29f331d363af73ac200db14e2a08a3311a",
        lambda out: out["exactly_once"]["lost"] == 0
        and out["segments"] == out["expected"]),
}


def _digest(outcome: dict) -> str:
    blob = json.dumps(outcome, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_outcome_digest_pinned(name):
    run, digest, expect = CASES[name]
    outcome = run()["outcome"]
    assert expect(outcome), name
    assert _digest(outcome) == digest
