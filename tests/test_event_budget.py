"""Kernel event budget of one remote read.

Host time per simulated op is roughly proportional to the number of
kernel events the op dispatches, so the per-line path carries a pinned
budget: a 2-node cluster running one warm-up and one timed
``read_sync`` must dispatch exactly these many events. A change that
adds an event to the per-line path fails here and needs a reviewed
update of the numbers; a change that removes one updates them too.

The same runs pin the §7.2 anchor (a 64 B remote read takes
323.67 ns), so a budget cut can never come from a timing change.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.runtime import RMCSession

#: request size -> (kernel events dispatched, timed read latency in ns).
EVENT_BUDGET = {
    64: (307, 323.6666666666667),
    4096: (5529, 737.6666666666667),
}


def _two_reads(size):
    cluster = Cluster(config=ClusterConfig(num_nodes=2))
    gctx = cluster.create_global_context(1, 8 * 1024 * 1024)
    session = RMCSession(cluster.nodes[0].core, gctx.qp(0), gctx.entry(0))
    latencies = []

    def reader(sim):
        lbuf = session.alloc_buffer(max(size, 4096))
        # One warm-up read, then one timed read 64 KB further on.
        for offset in (0, 64 * 1024):
            start = sim.now
            yield from session.read_sync(1, offset, lbuf, size)
            latencies.append(sim.now - start)

    cluster.sim.process(reader(cluster.sim))
    cluster.run()
    return cluster.sim.events_processed, latencies[1]


@pytest.mark.parametrize("size", sorted(EVENT_BUDGET))
def test_remote_read_event_budget(size):
    assert _two_reads(size) == EVENT_BUDGET[size]


def test_budget_pins_the_paper_anchor():
    assert round(EVENT_BUDGET[64][1], 2) == 323.67
