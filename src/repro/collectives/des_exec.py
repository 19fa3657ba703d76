"""Packet-level DES execution of collective schedules.

Two executors over the same :class:`~repro.collectives.schedules.Schedule`:

* :func:`des_time_schedule` — the *timing* path and the only
  packet-level collective executor: every send becomes real simulated
  traffic (single PIO packets for <= 88 B payloads with the shared
  ``GSUM_SW_COST`` poll loop; VI block transfers beyond, served through
  the shared :class:`~repro.parallel.des_spmd._VIDemux`).  The paper's
  global sum (:func:`repro.parallel.des_collectives.des_global_sum`)
  and barrier, the DES backend's gsum quotes and the autotuner's
  cross-validation all time their schedules here.
* :func:`des_run_schedule` — the *data* path: the schedule's logical
  items (see :mod:`repro.collectives.semantics`) are serialized and
  shipped through the go-back-N reliable layer
  (:mod:`repro.niu.reliable`), so the run survives injected loss and
  corruption and still finishes **bit-exact**: reductions apply the
  canonical fold order on tagged contributions, never arrival order.

Both executors emit ``obs`` trace spans (pid ``collectives``) when a
tracer is installed.
"""

from __future__ import annotations

import math
from collections import deque
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import itertools

from repro.hardware.cluster import HyadesCluster
from repro.network.overheads import (
    GSUM_SW_COST,
    SMALL_MSG_MAX_BYTES,
    TRANSFER_BANDWIDTH,
    TRANSFER_OVERHEAD,
)
from repro.network.packet import MAX_PAYLOAD_WORDS, Priority, WORD_BYTES
from repro.niu.reliable import get_reliable
from repro.obs import trace as obs_trace
from repro.parallel.des_spmd import _VIDemux

from .schedules import Schedule
from .semantics import ItemStore

#: PIO collective rounds are tagged 0x600 | round to stay clear of the
#: gsum (0..log N), exchange (< 0x400) and reliable-layer (0x7Fx) tags.
_PIO_TAG_BASE = 0x600


@lru_cache(maxsize=None)
def _pio_words(nbytes: int) -> Tuple[int, ...]:
    """Zero payload words of one PIO packet carrying ``nbytes`` (cached:
    the timing executor asks once per message)."""
    return (0,) * min(
        max(math.ceil(max(nbytes, 8) / WORD_BYTES), 2), MAX_PAYLOAD_WORDS
    )


def _trace_round(op: str, alg: str, rank: int, round_i: int, t0: float, t1: float):
    tr = obs_trace.TRACER
    if tr is not None:
        tr.complete(
            "collectives",
            f"rank{rank}",
            f"{op}:{alg}:r{round_i}",
            t0,
            t1,
            cat="collectives",
        )


def _trace_done(schedule: Schedule, t0: float, t1: float, mode: str):
    tr = obs_trace.TRACER
    if tr is not None:
        tr.complete(
            "collectives",
            mode,
            f"{schedule.op}:{schedule.algorithm}[n={schedule.n}]",
            t0,
            t1,
            cat="collectives",
            args={
                "rounds": schedule.n_rounds,
                "messages": schedule.total_messages,
                "nbytes": schedule.nbytes,
            },
        )


def des_time_schedule(cluster: HyadesCluster, schedule: Schedule) -> float:
    """Execute a schedule's raw traffic on the DES cluster.

    Payload contents are zeros — only sizes matter — and the elapsed
    virtual seconds until every rank completes are returned.  A message
    lost on the fabric surfaces as a watchdog ``DeadlockError`` naming
    the blocked ranks, never as a hang.
    """
    n = schedule.n
    if n > cluster.n_nodes:
        raise ValueError(f"schedule needs {n} nodes, cluster has {cluster.n_nodes}")
    if schedule.n_rounds == 0:
        return 0.0
    eng = cluster.engine
    uses_vi = any(
        s.nbytes > SMALL_MSG_MAX_BYTES for rnd in schedule.rounds for s in rnd
    )
    # PIO-only schedules (every global sum) need no VI request servers
    demux = _VIDemux.of(cluster) if uses_vi else None
    done_times = [0.0] * n
    pio_stash: List[Dict[Tuple[int, int], object]] = [{} for _ in range(n)]

    def rank_proc(me: int):
        niu = cluster.niu(me)
        stash = pio_stash[me]
        for i in range(schedule.n_rounds):
            t0 = eng.now
            tag = _PIO_TAG_BASE | i
            for s in schedule.sends_from(i, me):
                if s.nbytes <= SMALL_MSG_MAX_BYTES:
                    yield from niu.pio_send(
                        s.dst, _pio_words(s.nbytes), tag=tag, priority=Priority.LOW
                    )
                else:
                    yield from niu.vi_send(s.dst, s.nbytes, xid=(me << 12) | i)
            for s in schedule.incoming(i, me):
                if s.nbytes <= SMALL_MSG_MAX_BYTES:
                    want = (tag, s.src)
                    while want not in stash:
                        # software poll/loop cost, then block for a packet
                        yield eng.timeout(GSUM_SW_COST)
                        pkt = yield from niu.pio_recv()
                        stash[(pkt.tag, pkt.src)] = pkt
                    del stash[want]
                else:
                    yield from demux.await_slab(me, s.src, i)
                    # the NIU's VI path bills only the sender's DMA; the
                    # receiver's PCI pull serializes against its own
                    # traffic (Section 4.1: one transfer saturates the
                    # bus), so bill it here with the shared leg cost
                    yield eng.timeout(
                        TRANSFER_OVERHEAD + s.nbytes / TRANSFER_BANDWIDTH
                    )
            _trace_round(schedule.op, schedule.algorithm, me, i, t0, eng.now)
        done_times[me] = eng.now

    start = eng.now
    for r in range(n):
        if uses_vi:
            demux.ensure_server(r)
        eng.process(rank_proc(r), name=f"coll-{schedule.algorithm}[rank{r}]")
    eng.run(watchdog=True)
    elapsed = max(done_times) - start
    _trace_done(schedule, start, max(done_times), "timing")
    return elapsed


def des_run_schedule(
    cluster: HyadesCluster,
    schedule: Schedule,
    inputs: Optional[Sequence] = None,
    reliable_params: Optional[dict] = None,
) -> Tuple[List, float]:
    """Execute a schedule *with data* over the reliable channels.

    Returns ``(per-rank results, elapsed seconds)``.  Survives any
    fault plan the go-back-N layer can mask, and the results are
    bitwise identical to :func:`repro.collectives.semantics.run_schedule`
    regardless of faults, retries or arrival order.
    """
    n = schedule.n
    if n > cluster.n_nodes:
        raise ValueError(f"schedule needs {n} nodes, cluster has {cluster.n_nodes}")
    if n > 64:
        raise ValueError("reliable collectives support at most 64 ranks")
    if schedule.n_rounds >= 256:
        raise ValueError("reliable collectives support at most 255 rounds")
    eng = cluster.engine
    if inputs is None:
        inputs = [None] * n
    stores = [ItemStore(schedule, r, inputs[r]) for r in range(n)]
    if schedule.n_rounds == 0:
        return [st.finish() for st in stores], 0.0
    counter = getattr(cluster, "_rel_channels", None)
    if counter is None:
        counter = itertools.count(1)
        cluster._rel_channels = counter
    cid = next(counter)
    params = dict(reliable_params or {})
    rnius = [get_reliable(cluster.niu(r), **params) for r in range(n)]
    done_times = [0.0] * n
    stash: List[Dict[int, deque]] = [{} for _ in range(n)]

    def rank_proc(me: int):
        rniu = rnius[me]
        for i, _rnd in enumerate(schedule.rounds):
            t0 = eng.now
            for s in schedule.sends_from(i, me):
                yield from rniu.send(
                    s.dst,
                    tag=(me << 8) | i,
                    data=stores[me].serialize(s.items),
                    channel=cid,
                )
            for s in schedule.incoming(i, me):
                want = (s.src << 8) | i
                # only this rank consumes its node's channel, so it can
                # drain directly, stashing messages for later rounds
                while not stash[me].get(want):
                    msg = yield from rniu.recv(channel=cid)
                    stash[me].setdefault(msg.tag, deque()).append(msg.data)
                stores[me].absorb(stash[me][want].popleft())
            _trace_round(schedule.op, schedule.algorithm, me, i, t0, eng.now)
        done_times[me] = eng.now

    start = eng.now
    for r in range(n):
        eng.process(rank_proc(r), name=f"coll-data-{schedule.algorithm}[rank{r}]")
    eng.run(watchdog=True)
    elapsed = max(done_times) - start
    _trace_done(schedule, start, max(done_times), "data")
    return [st.finish() for st in stores], elapsed
