"""Mapping the GCM onto the cluster (paper Section 4).

The computational domain is decomposed horizontally into tiles with
halo ("overlap") regions; tiles are the unit of computation and
parallelism (Fig. 5).  Two performance-critical primitives communicate
data amongst tiles:

* **exchange** — brings halo regions into a consistent state
  (:mod:`repro.parallel.exchange`),
* **global sum** — butterfly all-reduce of one scalar per tile
  (:mod:`repro.parallel.globalsum`, Fig. 8).

:mod:`repro.parallel.runtime` provides the lockstep BSP runtime that
executes an SPMD program over simulated ranks, charging virtual time for
compute (flops / measured flop rate) and communication (interconnect
cost models), while performing the *real* data movement so numerical
results are genuine.  :mod:`repro.parallel.des_collectives` implements
the same primitives at packet level on the discrete-event cluster for
the stand-alone microbenchmarks.
"""

from repro.parallel.tiling import Decomposition, Tile
from repro.parallel.exchange import HaloExchanger, exchange_halos
from repro.parallel.globalsum import GlobalSummer, butterfly_global_sum
from repro.parallel.runtime import (
    LockstepRuntime,
    MachineModel,
    RankStats,
    StragglerConfig,
    StragglerMitigator,
)

__all__ = [
    "Decomposition",
    "Tile",
    "HaloExchanger",
    "exchange_halos",
    "GlobalSummer",
    "butterfly_global_sum",
    "LockstepRuntime",
    "StragglerConfig",
    "StragglerMitigator",
    "MachineModel",
    "RankStats",
]
