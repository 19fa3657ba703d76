"""Ablation — butterfly vs tree global sum (Section 4.2).

The paper: "With ample network bandwidth, our implementation of global
sum minimizes latency at the expense of more messages."  The butterfly
sends N log2 N messages over log2 N rounds; the ablated binomial
reduce-then-broadcast sends only 2(N-1) messages but needs 2 log2 N
rounds — double the latency-critical path.
"""

import pytest

from repro.collectives.schedules import allreduce_butterfly, allreduce_tree
from repro.collectives.semantics import run_schedule
from repro.hardware.cluster import HyadesCluster
from repro.parallel.des_collectives import des_global_sum
from repro.parallel.globalsum import butterfly_global_sum

from _tables import emit, format_table, us

ROUND_COST = 4.67e-6  # per-round latency from the paper's fit


def compare(n=16):
    bf, tree = allreduce_butterfly(n, 8), allreduce_tree(n, 8)
    return {
        "bf_latency": ROUND_COST * bf.n_rounds - 0.95e-6,
        "tree_latency": ROUND_COST * tree.n_rounds - 0.95e-6,
        "bf_msgs": bf.total_messages,
        "tree_msgs": tree.total_messages,
        "bf_rounds": bf.n_rounds,
        "tree_rounds": tree.n_rounds,
    }


def test_bench_gsum_strategy_table(benchmark):
    c = benchmark(compare)
    emit(
        "ablation_gsum_tree",
        format_table(
            "Ablation - 16-way global sum: butterfly (paper) vs reduce+broadcast",
            ["strategy", "rounds", "messages", "latency (us)"],
            [
                ["butterfly (paper)", c["bf_rounds"], c["bf_msgs"], us(c["bf_latency"])],
                ["tree reduce+bcast", c["tree_rounds"], c["tree_msgs"], us(c["tree_latency"])],
            ],
        ),
    )
    # butterfly: half the critical-path rounds, ~2x the messages
    assert c["tree_rounds"] == 2 * c["bf_rounds"]
    assert c["bf_msgs"] > c["tree_msgs"]
    assert c["bf_latency"] < c["tree_latency"]


def test_bench_values_agree(benchmark):
    """Both strategies compute the same (bitwise-deterministic) sum."""
    vals = [0.1 * i for i in range(16)]
    bf, _ = benchmark(butterfly_global_sum, vals)
    tr = run_schedule(allreduce_tree(16, 8), vals)
    assert bf[0] == pytest.approx(tr[0][0], rel=1e-14)


def test_bench_fabric_absorbs_butterfly_traffic(benchmark):
    """'Ample network bandwidth': the N log2 N messages cause no
    measurable queueing on the fat tree — DES latency matches the
    zero-contention model within tolerance."""

    def run():
        cl = HyadesCluster()
        _, t = des_global_sum(cl, [1.0] * 16)
        busy = max(
            link.stats.busy_time
            for links in list(cl.fabric.up_links.values()) + list(cl.fabric.down_links.values())
            for link in links
        )
        return t, busy

    t, busiest = benchmark(run)
    # busiest link is idle almost the entire sum: bandwidth is ample
    assert busiest < 0.05 * t
