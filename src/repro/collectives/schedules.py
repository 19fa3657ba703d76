"""Pure collective-communication schedules for the Arctic fabric.

Every algorithm is described *declaratively*: a :class:`Schedule` is a
list of rounds, each round a list of directed :class:`Send` records
``(src, dst, nbytes, items)``.  ``nbytes`` is the wire payload the cost
model charges (the real algorithm's message size — e.g. one reduced
chunk per ring hop).  ``items`` name the logical data the message
carries — per-rank contributions ``("contrib", origin, chunk)``,
reduced chunks ``("reduced", chunk)``, allgather/broadcast blocks
``("block", origin)`` and all-to-all blocks ``("a2a", origin, dest)``
— which lets one generic executor (:mod:`repro.collectives.semantics`)
run *any* schedule bit-deterministically, and lets
:meth:`Schedule.validate` prove by item-flow simulation that every rank
finishes with what its operation requires.

Determinism contract: reduction executors never combine values in
message-arrival order; they collect tagged contributions and apply
:func:`repro.parallel.globalsum.canonical_fold_reduce` once a chunk is
complete.  Every all-reduce algorithm here therefore returns results
bitwise identical to the paper's butterfly global sum, for any rank
count, under any fault plan survivable by the reliable layer.

Non-power-of-two counts fold into the largest power of two below
(pre/post rounds, as in :mod:`repro.parallel.globalsum`) where the
algorithm allows it; recursive halving/doubling genuinely require
``2^k`` ranks and raise ``ValueError`` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.network.overheads import MIN_WIRE_BYTES
from repro.parallel.globalsum import largest_pow2_below

#: Operations the subsystem implements.
OPS = ("allreduce", "broadcast", "allgather", "reduce_scatter", "alltoall", "barrier")

#: Collective payloads are float64 vectors; chunking is element-aligned.
ITEM_BYTES = 8

Item = Tuple  # ("contrib", o, c) | ("reduced", c) | ("block", o) | ("a2a", o, d)


def is_pow2(n: int) -> bool:
    """True when ``n`` is a power of two."""
    return n > 0 and not (n & (n - 1))


def _require_pow2(n: int, algorithm: str) -> int:
    if not is_pow2(n):
        raise ValueError(
            f"{algorithm} genuinely requires a power-of-two rank count, got {n}"
        )
    return int(math.log2(n))


def chunk_elems(total_elems: int, n_chunks: int, c: int) -> int:
    """Elements in chunk ``c`` of an even element-aligned split."""
    base, extra = divmod(total_elems, n_chunks)
    return base + (1 if c < extra else 0)


def chunk_start(total_elems: int, n_chunks: int, c: int) -> int:
    """First element index of chunk ``c`` of an even split."""
    base, extra = divmod(total_elems, n_chunks)
    return c * base + min(c, extra)


def chunk_nbytes(nbytes: int, n_chunks: int, c: int) -> int:
    """Wire bytes of chunk ``c`` when an ``nbytes`` vector splits n ways."""
    return ITEM_BYTES * chunk_elems(max(nbytes // ITEM_BYTES, 1), n_chunks, c)


def chunk_range_nbytes(nbytes: int, n_chunks: int, lo: int, hi: int) -> int:
    """Wire bytes of chunks ``lo..hi-1`` combined (closed form, O(1))."""
    total = max(nbytes // ITEM_BYTES, 1)
    return ITEM_BYTES * (
        chunk_start(total, n_chunks, hi) - chunk_start(total, n_chunks, lo)
    )


@dataclass(frozen=True)
class Send:
    """One directed message: ``src`` ships ``items`` (``nbytes`` on the
    wire) to ``dst`` within its round."""

    src: int
    dst: int
    nbytes: int
    items: Tuple[Item, ...] = ()


@dataclass(frozen=True)
class Schedule:
    """A collective as per-round directed sends.

    ``chunking`` is the number of element-aligned chunks the payload
    vector is split into (1 for unchunked algorithms, ``n`` for ring /
    recursive-halving ones); ``nbytes`` is the operation's nominal
    payload (per rank for allreduce/reduce_scatter/broadcast, per block
    for allgather/alltoall).
    """

    op: str
    algorithm: str
    n: int
    nbytes: int
    chunking: int
    rounds: Tuple[Tuple[Send, ...], ...]
    root: int = 0
    #: Item lists omitted (ring schedules past :data:`ITEMS_EXACT_MAX_N`
    #: carry cubically many items).  Timing/costing still works; the
    #: data engines refuse such schedules.
    items_elided: bool = False

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_messages(self) -> int:
        return sum(len(r) for r in self.rounds)

    @property
    def total_bytes(self) -> int:
        return sum(max(s.nbytes, MIN_WIRE_BYTES) for r in self.rounds for s in r)

    @cached_property
    def _by_rank(self) -> List[Dict[int, List[Send]]]:
        """``_by_rank[rank][round]`` = the sends ``rank`` takes part in,
        indexed in one pass so executors need not rescan a round per
        rank.  Sparse: a rank idle in a round has no entry."""
        index: List[Dict[int, List[Send]]] = [{} for _ in range(self.n)]
        for i, rnd in enumerate(self.rounds):
            for s in rnd:
                index[s.src].setdefault(i, []).append(s)
                index[s.dst].setdefault(i, []).append(s)
        return index

    def sends_from(self, round_i: int, rank: int) -> List[Send]:
        """The messages ``rank`` posts in round ``round_i``."""
        return [s for s in self._by_rank[rank].get(round_i, ()) if s.src == rank]

    def incoming(self, round_i: int, rank: int) -> List[Send]:
        """The messages ``rank`` awaits in round ``round_i``."""
        return [s for s in self._by_rank[rank].get(round_i, ()) if s.dst == rank]

    # ---- validation ---------------------------------------------------

    def validate(self) -> None:
        """Structural + data-flow check; raises ``ValueError`` on failure.

        Structure: rank indices in range, no self-sends, non-negative
        sizes.  Data flow: simulate item possession round by round (a
        sender must be able to *produce* every item it ships) and check
        the per-operation completion criterion on every rank; for
        barriers, check transitive-knowledge closure instead.
        """
        for rnd in self.rounds:
            for s in rnd:
                if not (0 <= s.src < self.n and 0 <= s.dst < self.n):
                    raise ValueError(f"rank out of range in {s}")
                if s.src == s.dst:
                    raise ValueError(f"self-send in {s}")
                if s.nbytes < 0:
                    raise ValueError(f"negative payload in {s}")
        if self.items_elided:
            return  # no item lists to data-flow-check
        if self.op == "barrier":
            know = [{r} for r in range(self.n)]
            for rnd in self.rounds:
                snap = [set(k) for k in know]
                for s in rnd:
                    know[s.dst] |= snap[s.src]
            full = set(range(self.n))
            lacking = [r for r in range(self.n) if know[r] != full]
            if lacking:
                raise ValueError(
                    f"barrier {self.algorithm}: ranks {lacking} do not hear "
                    f"from every peer"
                )
            return
        owned = simulate_items(self)
        for r in range(self.n):
            missing = _missing_for(self, r, owned[r])
            if missing:
                raise ValueError(
                    f"{self.op} {self.algorithm}: rank {r} cannot finish, "
                    f"missing {sorted(missing)[:4]}..."
                )


def _producible(have: set, item: Item, n: int) -> bool:
    """Can a rank holding ``have`` produce ``item``?  A reduced chunk is
    producible from the full contribution set."""
    if item in have:
        return True
    if item[0] == "reduced":
        c = item[1]
        return all(("contrib", o, c) in have for o in range(n))
    return False


def simulate_items(schedule: Schedule) -> List[set]:
    """Replay the schedule's item flow; returns final possession sets.

    Raises ``ValueError`` if any send ships an item its source cannot
    produce at that round — the data-flow soundness check.
    """
    owned = [set(_initial_items(schedule, r)) for r in range(schedule.n)]
    for i, rnd in enumerate(schedule.rounds):
        snap = [set(o) for o in owned]
        for s in rnd:
            for item in s.items:
                if not _producible(snap[s.src], item, schedule.n):
                    raise ValueError(
                        f"{schedule.op} {schedule.algorithm} round {i}: rank "
                        f"{s.src} cannot produce {item}"
                    )
            owned[s.dst].update(s.items)
    return owned


def _initial_items(schedule: Schedule, rank: int) -> Iterable[Item]:
    op, n, c = schedule.op, schedule.n, schedule.chunking
    if op in ("allreduce", "reduce_scatter"):
        return [("contrib", rank, ci) for ci in range(c)]
    if op == "broadcast":
        return [("block", schedule.root)] if rank == schedule.root else []
    if op == "allgather":
        return [("block", rank)]
    if op == "alltoall":
        return [("a2a", rank, d) for d in range(n)]
    return []


def _missing_for(schedule: Schedule, rank: int, have: set) -> set:
    """Items rank still needs to finish its operation."""
    op, n, c = schedule.op, schedule.n, schedule.chunking
    need: set = set()
    if op == "allreduce":
        need = {("reduced", ci) for ci in range(c)}
    elif op == "reduce_scatter":
        need = {("reduced", rank)} if c == n else {("reduced", 0)}
    elif op == "broadcast":
        need = {("block", schedule.root)}
    elif op == "allgather":
        need = {("block", o) for o in range(n)}
    elif op == "alltoall":
        need = {("a2a", o, rank) for o in range(n)}
    return {item for item in need if not _producible(have, item, n)}


# ---------------------------------------------------------------------------
# builders — all-reduce family
# ---------------------------------------------------------------------------


def _fold_in(n: int, nbytes: int, owned: List[set]) -> List[Send]:
    """Pre-round: extras ship their contributions onto the base group."""
    m = largest_pow2_below(n)
    rnd = [Send(e, e - m, nbytes, tuple(sorted(owned[e]))) for e in range(m, n)]
    for e in range(m, n):
        owned[e - m] |= owned[e]
    return rnd


def allreduce_butterfly(n: int, nbytes: int) -> Schedule:
    """Recursive doubling; folds non-power-of-two counts (Fig. 8)."""
    m = largest_pow2_below(n)
    rounds: List[List[Send]] = []
    if n > ITEMS_EXACT_MAX_N:
        # item bookkeeping is O(n^2 log n) — elide it at large n, as the
        # ring builder does, so the schedule stays O(n log n)
        if m < n:
            rounds.append([Send(e, e - m, nbytes, ()) for e in range(m, n)])
        for i in range(int(math.log2(m))):
            rounds.append(
                [Send(r, r ^ (1 << i), nbytes, ()) for r in range(m)]
            )
        if m < n:
            rounds.append(
                [Send(e - m, e, nbytes, (("reduced", 0),)) for e in range(m, n)]
            )
        return Schedule(
            "allreduce", "butterfly", n, nbytes, 1, _freeze(rounds),
            items_elided=True,
        )
    owned = [{("contrib", r, 0)} for r in range(n)]
    if m < n:
        rounds.append(_fold_in(n, nbytes, owned))
    for i in range(int(math.log2(m))):
        snap = [set(o) for o in owned]
        rounds.append(
            [Send(r, r ^ (1 << i), nbytes, tuple(sorted(snap[r]))) for r in range(m)]
        )
        for r in range(m):
            owned[r] |= snap[r ^ (1 << i)]
    if m < n:
        rounds.append(
            [Send(e - m, e, nbytes, (("reduced", 0),)) for e in range(m, n)]
        )
    return Schedule("allreduce", "butterfly", n, nbytes, 1, _freeze(rounds))


def allreduce_tree(n: int, nbytes: int) -> Schedule:
    """Binomial-tree reduce to rank 0 then broadcast; 2 log2 m rounds."""
    owned = [{("contrib", r, 0)} for r in range(n)]
    m = largest_pow2_below(n)
    rounds: List[List[Send]] = []
    if m < n:
        rounds.append(_fold_in(n, nbytes, owned))
    log_m = int(math.log2(m))
    for i in range(log_m):
        rnd = []
        for r in range(0, m, 1 << (i + 1)):
            src = r + (1 << i)
            rnd.append(Send(src, r, nbytes, tuple(sorted(owned[src]))))
            owned[r] |= owned[src]
        rounds.append(rnd)
    for i in reversed(range(log_m)):
        rnd = []
        for r in range(0, m, 1 << (i + 1)):
            rnd.append(Send(r, r + (1 << i), nbytes, (("reduced", 0),)))
        rounds.append(rnd)
    if m < n:
        rounds.append(
            [Send(e - m, e, nbytes, (("reduced", 0),)) for e in range(m, n)]
        )
    return Schedule("allreduce", "tree", n, nbytes, 1, _freeze(rounds))


#: Largest rank count whose ring schedules carry exact item lists.  A
#: ring ships O(n^3) items in total; past the DES data engine's own
#: 64-rank cap the lists are dead weight (half a gigabyte at n=256), so
#: they are elided and the schedule is timing/costing-only.
ITEMS_EXACT_MAX_N = 64


def _ring_reduce_scatter_rounds(n: int, nbytes: int) -> List[List[Send]]:
    """n-1 rounds leaving rank r with the full contribution set of chunk
    r; each hop ships one (partially reduced) chunk to rank r+1.

    Ring possession has a closed form — in round k rank r forwards
    chunk ``(r-k-1) % n`` carrying the k+1 contributions
    ``{(r-k) % n, ..., r}`` it has accumulated — so the items are
    written down directly; simulating possession per round would make
    large-ring builds (n=256 in the PFPP sweep) quartic in n.
    :meth:`Schedule.validate` independently checks the closed form."""
    elide = n > ITEMS_EXACT_MAX_N
    rounds = []
    for k in range(n - 1):
        rnd = []
        for r in range(n):
            c = (r - k - 1) % n
            items = () if elide else tuple(
                ("contrib", o, c)
                for o in sorted((r - j) % n for j in range(k + 1))
            )
            rnd.append(Send(r, (r + 1) % n, chunk_nbytes(nbytes, n, c), items))
        rounds.append(rnd)
    return rounds


def allreduce_ring(n: int, nbytes: int) -> Schedule:
    """Ring reduce-scatter + ring allgather; bandwidth-optimal
    (2(n-1) rounds, ~2*nbytes total per rank)."""
    if n < 2:
        return Schedule("allreduce", "ring", n, nbytes, 1, ())
    rounds = _ring_reduce_scatter_rounds(n, nbytes)
    for k in range(n - 1):  # allgather of the reduced chunks
        rnd = []
        for r in range(n):
            c = (r - k) % n
            rnd.append(
                Send(r, (r + 1) % n, chunk_nbytes(nbytes, n, c), (("reduced", c),))
            )
        rounds.append(rnd)
    return Schedule(
        "allreduce", "ring", n, nbytes, n, _freeze(rounds),
        items_elided=n > ITEMS_EXACT_MAX_N,
    )


def _halving_rounds(
    n: int, nbytes: int, owned: List[set], elide: bool = False
) -> List[List[Send]]:
    """Recursive halving: log2 n rounds ending with rank r holding the
    full contribution set of chunk r.  Power-of-two only.  ``elide``
    skips the O(n^2 log n) item bookkeeping (large-n timing-only
    schedules), pricing each send with the closed-form range sum."""
    log_n = _require_pow2(n, "recursive halving")
    lo = [0] * n
    hi = [n] * n
    rounds = []
    for _ in range(log_n):
        rnd = []
        gains: List[Tuple[int, Tuple[Item, ...]]] = []
        for r in range(n):
            d = (hi[r] - lo[r]) // 2
            mid = lo[r] + d
            partner = r ^ d
            sent = range(mid, hi[r]) if r < mid else range(lo[r], mid)
            size = chunk_range_nbytes(nbytes, n, sent.start, sent.stop)
            if elide:
                items: Tuple[Item, ...] = ()
            else:
                items = tuple(
                    sorted(i for i in owned[r] if i[0] == "contrib" and i[2] in sent)
                )
                gains.append((partner, items))
            rnd.append(Send(r, partner, size, items))
            if r < mid:
                hi[r] = mid
            else:
                lo[r] = mid
        for dst, items in gains:
            owned[dst].update(items)
        rounds.append(rnd)
    return rounds


def allreduce_reduce_scatter_allgather(n: int, nbytes: int) -> Schedule:
    """Recursive halving + recursive doubling (Rabenseifner); needs 2^k."""
    _require_pow2(n, "reduce-scatter+allgather")
    if n < 2:
        return Schedule("allreduce", "reduce_scatter_allgather", n, nbytes, 1, ())
    elide = n > ITEMS_EXACT_MAX_N
    if elide:
        owned: List[set] = []
        rounds = _halving_rounds(n, nbytes, owned, elide=True)
        d = 1
        while d < n:  # recursive-doubling allgather, closed-form sizes:
            # after t rounds rank r holds the aligned chunk block
            # [r & ~(d-1), (r & ~(d-1)) + d)
            rnd = []
            for r in range(n):
                base = r & ~(d - 1)
                size = chunk_range_nbytes(nbytes, n, base, base + d)
                rnd.append(Send(r, r ^ d, size, ()))
            rounds.append(rnd)
            d *= 2
        return Schedule(
            "allreduce", "reduce_scatter_allgather", n, nbytes, n,
            _freeze(rounds), items_elided=True,
        )
    owned = [{("contrib", r, c) for c in range(n)} for r in range(n)]
    rounds = _halving_rounds(n, nbytes, owned)
    held = [{r} for r in range(n)]  # reduced chunks per rank
    d = 1
    while d < n:  # recursive-doubling allgather of the reduced chunks
        rnd = []
        snap = [set(h) for h in held]
        for r in range(n):
            partner = r ^ d
            items = tuple(("reduced", c) for c in sorted(snap[r]))
            size = sum(chunk_nbytes(nbytes, n, c) for c in snap[r])
            rnd.append(Send(r, partner, size, items))
        for r in range(n):
            held[r] |= snap[r ^ d]
        rounds.append(rnd)
        d *= 2
    return Schedule(
        "allreduce", "reduce_scatter_allgather", n, nbytes, n, _freeze(rounds)
    )


# ---------------------------------------------------------------------------
# builders — the remaining operations
# ---------------------------------------------------------------------------


def broadcast_binomial(n: int, nbytes: int, root: int = 0) -> Schedule:
    """Binomial-tree broadcast from ``root``; ceil(log2 n) rounds."""
    rounds = []
    covered = 1
    while covered < n:
        rnd = []
        for rr in range(min(covered, n - covered)):
            src = (rr + root) % n
            dst = (rr + covered + root) % n
            rnd.append(Send(src, dst, nbytes, (("block", root),)))
        rounds.append(rnd)
        covered *= 2
    return Schedule("broadcast", "binomial", n, nbytes, 1, _freeze(rounds), root=root)


def allgather_ring(n: int, nbytes: int) -> Schedule:
    """Ring allgather: n-1 rounds, one block per hop."""
    rounds = [
        [Send(r, (r + 1) % n, nbytes, (("block", (r - k) % n),)) for r in range(n)]
        for k in range(n - 1)
    ]
    return Schedule("allgather", "ring", n, nbytes, 1, _freeze(rounds))


def allgather_recursive_doubling(n: int, nbytes: int) -> Schedule:
    """Recursive-doubling allgather; log2 n rounds, doubling payloads.
    Power-of-two only."""
    _require_pow2(n, "recursive doubling")
    held = [{r} for r in range(n)]
    rounds = []
    d = 1
    while d < n:
        snap = [set(h) for h in held]
        rnd = [
            Send(
                r,
                r ^ d,
                nbytes * len(snap[r]),
                tuple(("block", o) for o in sorted(snap[r])),
            )
            for r in range(n)
        ]
        for r in range(n):
            held[r] |= snap[r ^ d]
        rounds.append(rnd)
        d *= 2
    return Schedule("allgather", "recursive_doubling", n, nbytes, 1, _freeze(rounds))


def reduce_scatter_ring(n: int, nbytes: int) -> Schedule:
    """Ring reduce-scatter: rank r ends with reduced chunk r."""
    if n < 2:
        return Schedule("reduce_scatter", "ring", n, nbytes, max(n, 1), ())
    rounds = _ring_reduce_scatter_rounds(n, nbytes)
    return Schedule(
        "reduce_scatter", "ring", n, nbytes, n, _freeze(rounds),
        items_elided=n > ITEMS_EXACT_MAX_N,
    )


def reduce_scatter_halving(n: int, nbytes: int) -> Schedule:
    """Recursive-halving reduce-scatter; power-of-two only."""
    _require_pow2(n, "recursive halving")
    if n < 2:
        return Schedule("reduce_scatter", "recursive_halving", n, nbytes, 1, ())
    owned = [{("contrib", r, c) for c in range(n)} for r in range(n)]
    rounds = _halving_rounds(n, nbytes, owned)
    return Schedule(
        "reduce_scatter", "recursive_halving", n, nbytes, n, _freeze(rounds)
    )


def alltoall_ring(n: int, nbytes: int) -> Schedule:
    """Shifted-exchange all-to-all: round k sends the block for rank
    (r+k) directly; n-1 rounds of one block each."""
    rounds = [
        [
            Send(r, (r + k) % n, nbytes, (("a2a", r, (r + k) % n),))
            for r in range(n)
        ]
        for k in range(1, n)
    ]
    return Schedule("alltoall", "ring", n, nbytes, 1, _freeze(rounds))


def alltoall_bruck(n: int, nbytes: int) -> Schedule:
    """Bruck all-to-all: ceil(log2 n) rounds; blocks hop through
    intermediaries, clearing one bit of their remaining ring distance
    per round.  Latency-optimal for small blocks; ships ~(n/2) blocks
    per rank per round."""
    owned = [{("a2a", r, d) for d in range(n) if d != r} for r in range(n)]
    rounds = []
    k = 0
    while (1 << k) < n:
        step = 1 << k
        rnd = []
        gains: List[Tuple[int, Tuple[Item, ...]]] = []
        for r in range(n):
            moving = tuple(
                sorted(i for i in owned[r] if ((i[2] - r) % n) & step)
            )
            if not moving:
                continue
            dst = (r + step) % n
            rnd.append(Send(r, dst, nbytes * len(moving), moving))
            gains.append((r, dst, moving))
        for src, dst, items in gains:
            owned[src].difference_update(items)
            owned[dst].update(items)
        rounds.append(rnd)
        k += 1
    return Schedule("alltoall", "bruck", n, nbytes, 1, _freeze(rounds))


def barrier_dissemination(n: int, nbytes: int = MIN_WIRE_BYTES) -> Schedule:
    """Dissemination barrier: ceil(log2 n) rounds of one beacon each."""
    rounds = []
    shift = 1
    while shift < n:
        rounds.append(
            [Send(r, (r + shift) % n, MIN_WIRE_BYTES) for r in range(n)]
        )
        shift *= 2
    return Schedule("barrier", "dissemination", n, MIN_WIRE_BYTES, 1, _freeze(rounds))


def barrier_butterfly(n: int, nbytes: int = MIN_WIRE_BYTES) -> Schedule:
    """Pairwise-exchange barrier; power-of-two only (the paper's
    dataless global sum)."""
    log_n = _require_pow2(n, "butterfly barrier")
    rounds = [
        [Send(r, r ^ (1 << i), MIN_WIRE_BYTES) for r in range(n)]
        for i in range(log_n)
    ]
    return Schedule("barrier", "butterfly", n, MIN_WIRE_BYTES, 1, _freeze(rounds))


def barrier_tree(n: int, nbytes: int = MIN_WIRE_BYTES) -> Schedule:
    """Binomial gather to rank 0 + binomial release: 2(n-1) messages —
    the message-minimal barrier, at 2 ceil(log2 n) rounds of latency."""
    rounds: List[List[Send]] = []
    m = largest_pow2_below(n)
    if m < n:
        rounds.append([Send(e, e - m, MIN_WIRE_BYTES) for e in range(m, n)])
    log_m = int(math.log2(m))
    for i in range(log_m):
        rounds.append(
            [
                Send(r + (1 << i), r, MIN_WIRE_BYTES)
                for r in range(0, m, 1 << (i + 1))
            ]
        )
    for i in reversed(range(log_m)):
        rounds.append(
            [
                Send(r, r + (1 << i), MIN_WIRE_BYTES)
                for r in range(0, m, 1 << (i + 1))
            ]
        )
    if m < n:
        rounds.append([Send(e - m, e, MIN_WIRE_BYTES) for e in range(m, n)])
    return Schedule("barrier", "tree", n, MIN_WIRE_BYTES, 1, _freeze(rounds))


def _freeze(rounds: Sequence[Sequence[Send]]) -> Tuple[Tuple[Send, ...], ...]:
    return tuple(tuple(r) for r in rounds if len(r))


#: builder registry: op -> {algorithm name -> builder(n, nbytes)}.
#: Builders that genuinely require 2^k ranks raise ValueError otherwise
#: and are filtered out by :func:`candidates`.
BUILDERS: Dict[str, Dict[str, Callable[[int, int], Schedule]]] = {
    "allreduce": {
        "butterfly": allreduce_butterfly,
        "ring": allreduce_ring,
        "reduce_scatter_allgather": allreduce_reduce_scatter_allgather,
        "tree": allreduce_tree,
    },
    "broadcast": {"binomial": broadcast_binomial},
    "allgather": {
        "ring": allgather_ring,
        "recursive_doubling": allgather_recursive_doubling,
    },
    "reduce_scatter": {
        "ring": reduce_scatter_ring,
        "recursive_halving": reduce_scatter_halving,
    },
    "alltoall": {"ring": alltoall_ring, "bruck": alltoall_bruck},
    "barrier": {
        "dissemination": barrier_dissemination,
        "butterfly": barrier_butterfly,
        "tree": barrier_tree,
    },
}

#: Algorithms that only exist for power-of-two rank counts.
POW2_ONLY = {
    ("allreduce", "reduce_scatter_allgather"),
    ("allgather", "recursive_doubling"),
    ("reduce_scatter", "recursive_halving"),
    ("barrier", "butterfly"),
}


def candidates(op: str, n: int) -> Mapping[str, Callable[[int, int], Schedule]]:
    """Builders applicable to ``op`` at rank count ``n``."""
    if op not in BUILDERS:
        raise ValueError(f"unknown collective op {op!r}; choose from {OPS}")
    return {
        name: fn
        for name, fn in BUILDERS[op].items()
        if is_pow2(n) or (op, name) not in POW2_ONLY
    }


def build(op: str, algorithm: str, n: int, nbytes: int) -> Schedule:
    """Build one named schedule (raises for unknown names / bad n)."""
    try:
        fn = BUILDERS[op][algorithm]
    except KeyError:
        raise ValueError(f"no algorithm {algorithm!r} for op {op!r}") from None
    return fn(n, nbytes)
