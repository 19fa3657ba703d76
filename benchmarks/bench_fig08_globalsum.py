"""Fig. 8 / Section 4.2 — butterfly global sum.

Regenerates the measured global-sum latencies (2/4/8/16-way single-CPU
and 2x2..2x16 SMP mix-mode), the least-squares fit
``tgsum = 4.67 log2 N - 0.95 us``, and verifies the Fig. 8 communication
pattern: the partial sums per round, and N log2 N messages on the wire.
"""

import math
import time

import pytest

from repro.hardware.cluster import HyadesCluster
from repro.network.costmodel import (
    ARCTIC_GSUM_MEASURED,
    ARCTIC_GSUM_SMP_MEASURED,
    arctic_cost_model,
)
from repro.parallel.des_collectives import des_global_sum
from repro.parallel.globalsum import butterfly_global_sum

from _emit import emit_bench
from _tables import emit, format_table, us


def des_gsum_latencies():
    out = {}
    for n in (2, 4, 8, 16):
        cluster = HyadesCluster()
        _, t = des_global_sum(cluster, [float(i) for i in range(n)])
        out[n] = t
    return out


def test_bench_des_gsum_16way(benchmark):
    def one():
        cluster = HyadesCluster()
        return des_global_sum(cluster, [1.0] * 16)[1]

    t = benchmark(one)
    assert t == pytest.approx(18.2e-6, rel=0.10)


def test_bench_fig8_pattern(benchmark):
    vals = [float(i) for i in range(8)]
    results, trace = benchmark(butterfly_global_sum, vals, True)
    assert results == [sum(vals)] * 8
    # the partial sums annotated in Fig. 8
    assert trace[0][0] == vals[0] + vals[1]
    assert trace[1][0] == sum(vals[:4])


def test_bench_gsum_table(benchmark):
    t0 = time.perf_counter()
    des = benchmark(des_gsum_latencies)
    wall = time.perf_counter() - t0
    model = arctic_cost_model()
    rows = []
    for n in (2, 4, 8, 16):
        fit = 4.67e-6 * math.log2(n) - 0.95e-6
        rows.append(
            [
                f"{n}-way",
                us(des[n]),
                us(ARCTIC_GSUM_MEASURED[n]),
                us(fit, 2),
                us(model.gsum_time(n, smp=True)),
                us(ARCTIC_GSUM_SMP_MEASURED[n]),
            ]
        )
    emit(
        "fig08_globalsum",
        format_table(
            "Section 4.2 - global sum latencies (usec)",
            ["config", "DES", "paper", "fit 4.67log2N-0.95", "2xN model", "2xN paper"],
            rows,
        ),
    )
    for n in (2, 4, 8, 16):
        assert des[n] == pytest.approx(ARCTIC_GSUM_MEASURED[n], rel=0.10)
    emit_bench(
        "fig08_globalsum",
        wall_clock_s=wall,
        virtual_time_s=des[16],
        model_error={
            f"gsum_{n}way_vs_paper": des[n] / ARCTIC_GSUM_MEASURED[n] - 1.0
            for n in (2, 4, 8, 16)
        },
        data={f"gsum_{n}way_us": des[n] * 1e6 for n in (2, 4, 8, 16)},
        units={"virtual_time_s": "16-way gsum, DES seconds"},
    )


def test_bench_message_count(benchmark):
    """N log2 N messages over log2 N rounds (Section 4.2)."""

    def count():
        cluster = HyadesCluster()
        des_global_sum(cluster, [1.0] * 16)
        return sum(cluster.niu(i).packets_sent for i in range(16))

    total = benchmark(count)
    assert total == 16 * 4
