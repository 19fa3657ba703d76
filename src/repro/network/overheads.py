"""Shared software-overhead constants for the communication paths.

One documented place for the per-message/per-round software costs that
both the *analytic* models (:mod:`repro.network.costmodel`,
:mod:`repro.collectives.cost`) and the *packet-level DES* path
(:mod:`repro.collectives.des_exec`, which times every DES collective)
consume.  Before this module the DES global sum and the analytic cost
model each carried their own copy of these numbers; a calibration tweak
in one silently diverged from the other.

The calibration chain, for the record:

* ``GSUM_SW_COST`` — per-round software cost of the global-sum inner
  loop beyond the raw mmap accesses: a missed status poll (0.93 us)
  plus loop/branch/FP-add overhead on the 400 MHz PII.  Chosen so the
  DES global sums land within 10 % of all four measured values
  (4.0/8.3/12.8/18.2 us, paper Fig. 8).
* The DES per-round cost it induces is *derived*, not retuned:
  ``os(8 B) + GSUM_SW_COST + or(8 B) = 0.36 + 2.00 + 1.86 = 4.22 us``
  (PIO mmap costs from :data:`repro.niu.startx.PIO_COST_MODEL`), which
  sits within 10 % of the paper's least-squares slope
  ``ARCTIC_GSUM_SLOPE`` = 4.67 us/round.
* ``ARCTIC_GSUM_SLOPE`` / ``ARCTIC_GSUM_OFFSET`` — the paper's fit
  ``tgsum = (4.67 log2 N - 0.95) us`` (Section 4.2), used by the
  analytic :class:`~repro.network.costmodel.CommCostModel` when no
  measured table entry overrides it.
* ``SMALL_MSG_MAX_BYTES`` — the largest payload that rides a single
  PIO packet (22 words minus header, Fig. 2 measures 8..88 B); larger
  messages negotiate a VI block transfer instead.
"""

from __future__ import annotations

US = 1e-6

#: Per-round software cost of a PIO collective's inner loop (seconds);
#: see the module docstring for the calibration story.
GSUM_SW_COST = 2.0 * US

#: Paper Section 4.2 least-squares fit: tgsum = slope * log2 N + offset.
ARCTIC_GSUM_SLOPE = 4.67 * US
ARCTIC_GSUM_OFFSET = -0.95 * US

#: Largest payload (bytes) shipped as one PIO packet; beyond this the
#: sender negotiates a VI block transfer.
SMALL_MSG_MAX_BYTES = 88

#: One-direction VI block transfer: 8.6 us negotiation (one PIO round
#: trip plus DMA setup, Section 4.1) + payload over the 110 MB/s
#: streaming VI bandwidth.  A node's inbound and outbound DMA serialize
#: on its PCI bus ("a single transfer saturates the PCI bus"), so a
#: symmetric exchange costs two of these legs — the receiver's pull is
#: billed with the same parameters as the sender's push.
TRANSFER_OVERHEAD = 8.6 * US
TRANSFER_BANDWIDTH = 110e6

#: Minimum billable wire payload: a dataless beacon (e.g. a barrier
#: token) still moves one 8-byte word through the fabric.
MIN_WIRE_BYTES = 8

#: Strided halo pack/unpack bandwidth through the PII memory system
#: (Section 4.1, ~100 MB/s) — also the MPI eager bounce-buffer copy
#: rate, since both are the same 100-MHz SDRAM strided-copy path.
COPY_BANDWIDTH = 100e6

#: Mix-mode slave relay: slave-to-slave VI bandwidth is ~30 % below
#: master-to-master (Section 4.1), so the effective rate is
#: ``bandwidth * SLAVE_BW_FACTOR``.
SLAVE_BW_FACTOR = 0.7

#: The intra-SMP combine adds "about 1 usec" to a global sum
#: (Section 4.2): two shared-memory semaphore operations.
SMP_LOCAL_COST = 1.0 * US
