"""End-to-end interconnect comparison through the full GCM stack.

The paper's bottom line — the same climate code is viable on Arctic and
hopeless on commodity Ethernet — must emerge from the *integrated*
model+runtime, not just from the standalone PFPP arithmetic.
"""

import pytest

from repro.backend import AnalyticBackend
from repro.gcm import diagnostics as diag
from repro.gcm.ocean import ocean_model
from repro.network.costmodel import (
    arctic_cost_model,
    fast_ethernet_cost_model,
    gigabit_ethernet_cost_model,
)


def run_on(cost_model, steps=4):
    m = ocean_model(
        nx=64, ny=32, nz=8, px=2, py=2, dt=900.0,
        backend=AnalyticBackend(model=cost_model, calibrated=False),
    )
    m.run(steps)
    return m


@pytest.fixture(scope="module")
def runs():
    return {
        "arctic": run_on(arctic_cost_model()),
        "ge": run_on(gigabit_ethernet_cost_model()),
        "fe": run_on(fast_ethernet_cost_model()),
    }


class TestInterconnectIntegration:
    def test_identical_physics_on_every_interconnect(self, runs):
        """The interconnect changes time, never answers."""
        import numpy as np

        ref = runs["arctic"].state.to_global("theta")
        for name in ("ge", "fe"):
            np.testing.assert_array_equal(
                runs[name].state.to_global("theta"), ref, err_msg=name
            )

    def test_elapsed_pinned(self, runs):
        """Every term priced from the interconnect's own model (the
        uncalibrated analytic tier): these are the virtual times the
        removed ``cost_model=`` spelling charged."""
        pinned = {
            "arctic": 0.19193352692640692,
            "ge": 0.41135099335463265,
            "fe": 0.7964569977015672,
        }
        for name, elapsed in pinned.items():
            assert runs[name].runtime.elapsed == pytest.approx(elapsed, rel=1e-12)

    def test_virtual_time_ordering(self, runs):
        assert runs["arctic"].runtime.elapsed < runs["ge"].runtime.elapsed
        assert runs["ge"].runtime.elapsed < runs["fe"].runtime.elapsed

    def test_slowdown_magnitudes(self, runs):
        """FE is an order of magnitude slower end-to-end; GE a few x —
        the same regime the one-year projection in the interconnect
        study reports."""
        t_a = runs["arctic"].runtime.elapsed
        assert 3 < runs["fe"].runtime.elapsed / t_a < 40  # (16-rank production: ~14x)
        assert 1.5 < runs["ge"].runtime.elapsed / t_a < 10

    def test_comm_fraction_flips(self, runs):
        """Arctic: mostly compute.  FE: mostly communication — the
        quantitative content of 'COTS processors significantly
        outperform COTS interconnects' (Section 6)."""

        def comm_fraction(m):
            st = max(m.runtime.stats, key=lambda s: s.compute_time + s.comm_time)
            return st.comm_time / (st.comm_time + st.compute_time)

        assert comm_fraction(runs["arctic"]) < 0.5
        assert comm_fraction(runs["fe"]) > 0.7

    def test_all_runs_finite(self, runs):
        for m in runs.values():
            assert diag.is_finite(m)
