"""Packet-level collectives on the discrete-event cluster.

These are the *stand-alone benchmarks* of Sections 4.1-4.2: the same
exchange and global-sum primitives, but executed message-by-message on
the simulated Arctic/StarT-X hardware rather than costed analytically.
The paper's Fig. 11 parameters come from exactly such stand-alone runs;
here they validate the analytic models against the simulated hardware.
"""

from __future__ import annotations

from typing import Sequence

from repro.hardware.cluster import HyadesCluster
from repro.parallel.globalsum import canonical_fold_reduce


def des_global_sum(
    cluster: HyadesCluster, values: Sequence[float]
) -> tuple[list[float], float]:
    """Run one butterfly global sum on the DES cluster (any node count).

    Returns ``(per-node results, elapsed seconds)``.  Nodes 0..N-1 of the
    cluster take part; each butterfly round exchanges 8-byte PIO
    messages with the partner ``rank ^ 2**i`` (Fig. 8), and counts that
    are not powers of two fold in and out around it.  The time is the
    :func:`~repro.collectives.schedules.allreduce_butterfly` schedule
    executed packet by packet; the value every node ends with is the
    butterfly's canonical association,
    :func:`~repro.parallel.globalsum.canonical_fold_reduce`.
    """
    from repro.collectives.des_exec import des_time_schedule
    from repro.collectives.schedules import allreduce_butterfly

    elapsed = des_time_schedule(cluster, allreduce_butterfly(len(values), 8))
    return [canonical_fold_reduce(values)] * len(values), elapsed


def des_barrier(cluster: HyadesCluster, n: int) -> float:
    """Butterfly barrier on the DES cluster; returns elapsed seconds."""
    _, elapsed = des_global_sum(cluster, [0.0] * n)
    return elapsed


def des_exchange(cluster: HyadesCluster, a: int, b: int, nbytes: int) -> float:
    """One exchange between nodes ``a`` and ``b`` on the DES cluster.

    Two sequential VI-mode transfers in opposite directions
    (Section 4.1: a single transfer alone saturates the PCI bus).
    Returns the elapsed seconds until both directions complete.
    """
    eng = cluster.engine
    done = {}

    def node_a():
        yield from cluster.niu(a).vi_send(b, nbytes)
        xfer = yield from cluster.niu(a).vi_serve_request()
        yield from cluster.niu(a).vi_wait_complete(xfer.xid)
        done["a"] = eng.now

    def node_b():
        xfer = yield from cluster.niu(b).vi_serve_request()
        yield from cluster.niu(b).vi_wait_complete(xfer.xid)
        yield from cluster.niu(b).vi_send(a, nbytes)
        done["b"] = eng.now

    start = eng.now
    eng.process(node_a())
    eng.process(node_b())
    eng.run()
    return max(done.values()) - start


def des_transfer_bandwidth(nbytes: int) -> float:
    """Measured one-direction VI bandwidth on a fresh cluster (Fig. 7)."""
    cluster = HyadesCluster()
    eng = cluster.engine
    done = {}

    def sender():
        yield from cluster.niu(0).vi_send(1, nbytes)

    def receiver():
        xfer = yield from cluster.niu(1).vi_serve_request()
        yield from cluster.niu(1).vi_wait_complete(xfer.xid)
        done["t"] = eng.now

    eng.process(sender())
    eng.process(receiver())
    eng.run()
    return nbytes / done["t"]
