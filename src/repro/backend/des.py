"""The DES tier: every quoted time is measured packet-by-packet.

Each distinct message shape is executed once on a fresh simulated
Arctic/StarT-X cluster and memoized — a pairwise halo leg through
:func:`repro.parallel.des_collectives.des_exchange`, a global sum (any
node count) as the butterfly schedule through
:func:`repro.collectives.des_exec.des_time_schedule`, a barrier
likewise.  The GCM then advances virtual time
by packet-exact costs without re-simulating identical transfers every
step: a coupled run issues thousands of exchanges but only a handful of
distinct halo sizes.

Two cost terms the wire simulation deliberately does not model are
composed in from the same shared constants the analytic tier uses
(:mod:`repro.network.overheads`), so the tiers differ *only* in how the
wire legs are timed:

* the strided halo pack/unpack through the PII memory system
  (``2 * volume / COPY_BANDWIDTH``, Section 4.1);
* the mix-mode slave relay: the master repeats the measured pairwise
  exchange for its slave, plus the extra wire time of the slave's
  reduced VI bandwidth (``bw * SLAVE_BW_FACTOR``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.network.costmodel import CommCostModel, arctic_cost_model

from .base import CommBackend


def _next_pow2(n: int) -> int:
    m = 1
    while m < n:
        m <<= 1
    return m


class DESBackend(CommBackend):
    """Packet-exact costs, memoized per message shape."""

    name = "des"

    def __init__(self, model: Optional[CommCostModel] = None) -> None:
        self.model = model or arctic_cost_model()
        self._pair: Dict[int, float] = {}
        self._gsum: Dict[int, float] = {}
        #: DES runs actually executed (cache misses) — the honest price
        #: of the tier, reported by :meth:`describe`.
        self.simulations = 0

    # ---- measured primitives --------------------------------------------

    def _cluster(self, n_nodes: int = 2):
        from repro.hardware.cluster import HyadesCluster, HyadesConfig

        self.simulations += 1
        return HyadesCluster(HyadesConfig(n_nodes=_next_pow2(max(n_nodes, 2))))

    def pair_time(self, nbytes: int) -> float:
        """Measured two-way VI exchange between one node pair (cached)."""
        nbytes = int(nbytes)
        t = self._pair.get(nbytes)
        if t is None:
            from repro.parallel.des_collectives import des_exchange

            t = des_exchange(self._cluster(2), 0, 1, nbytes)
            self._pair[nbytes] = t
        return t

    def _gsum_wire(self, n_nodes: int) -> float:
        """Measured N-way butterfly global sum over the fabric (cached)."""
        t = self._gsum.get(n_nodes)
        if t is None:
            from repro.collectives.des_exec import des_time_schedule
            from repro.collectives.schedules import allreduce_butterfly

            t = des_time_schedule(
                self._cluster(n_nodes), allreduce_butterfly(n_nodes, 8)
            )
            self._gsum[n_nodes] = t
        return t

    # ---- CommBackend ----------------------------------------------------

    def exchange_time(
        self,
        edge_bytes: Sequence[int],
        mixmode: bool = False,
        n_ranks: int = 1,
        node: Optional[int] = None,
        now: Optional[float] = None,
    ) -> float:
        """Measured wire legs plus the shared pack/relay composition.

        Degradation is composed closed-form on top of the *clean*
        measured legs (the memo cache holds healthy-fabric times), using
        the same shared formula as the other tiers — a regression test
        keeps it honest against a genuinely degraded live fabric.
        """
        edges = [int(s) for s in edge_bytes if s > 0]
        t = 0.0
        for s in edges:
            t += self.pair_time(s)
        if mixmode:
            if self.model.slave_bw_factor is None:
                t *= 2.0
            else:
                # master relays the slave's exchange: same measured wire
                # legs, stretched by the reduced slave VI bandwidth
                stretch = 1.0 / self.model.slave_bw_factor - 1.0
                for s in edges:
                    t += self.pair_time(s) + 2 * (s / self.model.bandwidth) * stretch
        if self.model.copy_bandwidth is not None:
            t += 2 * sum(edges) / self.model.copy_bandwidth
        return t + self._exchange_penalty(edge_bytes, node, now)

    def gsum_time(
        self,
        n_nodes: int,
        nbytes: int = 8,
        smp: bool = False,
        now: Optional[float] = None,
    ) -> float:
        """Measured butterfly global sum (any node count)."""
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if n_nodes == 1:
            return self.model.smp_local_cost if smp else 0.0
        t = self._gsum_wire(n_nodes)
        if smp:
            t += self.model.smp_local_cost
        return t + self._collective_penalty(n_nodes, nbytes, now)

    def barrier_time(self, n_nodes: int, now: Optional[float] = None) -> float:
        """Measured dataless global sum."""
        if n_nodes < 2:
            return 0.0
        # the paper's barrier is a dataless global sum: same rounds,
        # same 8-byte beacons — measure it as one
        return self._gsum_wire(n_nodes) + self._collective_penalty(n_nodes, 8, now)

    def describe(self) -> dict:
        """Adds simulation counts and memo sizes to the description."""
        d = super().describe()
        d["simulations"] = self.simulations
        d["cached_shapes"] = {"pair": len(self._pair), "gsum": len(self._gsum)}
        return d
