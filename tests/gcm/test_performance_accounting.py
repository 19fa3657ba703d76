"""Tests tying the GCM's measured virtual times to the analytic model.

This is the Section 5.2/5.3 methodology turned inward: the model's own
phase breakdown must match what the cost models predict for its
configuration — the reproduction validating itself the way the paper
validated its model against the real machine.
"""

import numpy as np
import pytest

from repro.gcm.ocean import ocean_model
from repro.network.costmodel import arctic_cost_model


@pytest.fixture(scope="module")
def run():
    m = ocean_model(nx=64, ny=32, nz=8, px=2, py=2, dt=900.0, cpus_per_node=2)
    m.run(6)
    return m


class TestPhaseBreakdown:
    def test_phases_sum_to_step(self, run):
        for h in run.history:
            # correction/tracer compute is charged after DS; it is part
            # of t_step but not of the three named phases
            assert h.t_ps_exch + h.t_ps_compute + h.t_ds <= h.t_step + 1e-12
            assert h.t_step > 0

    def test_ps_exchange_matches_cost_model(self, run):
        """The measured per-step PS exchange equals 5 x texchxyz for
        this configuration's tile geometry."""
        cm = arctic_cost_model()
        edges = run.decomp.critical_edge_bytes(nz=8)
        expected = 5 * cm.exchange_time(edges, mixmode=True)
        measured = run.performance_breakdown()["tps_exch"]
        assert measured == pytest.approx(expected, rel=0.05)

    def test_ps_compute_matches_flop_accounting(self, run):
        """tps_compute = (PS flops per rank) / Fps for the G-term part."""
        hist = run.history[1:]
        # flops charged during the G-term phase only (before DS);
        # reconstruct from stats: compute time at Fps
        measured = run.performance_breakdown()["tps_compute"]
        # bound: the G-term phase is most of the PS flops
        total_ps_time = np.mean([h.flops_ps for h in hist]) / run.decomp.n_ranks / 50e6
        assert 0.5 * total_ps_time < measured < total_ps_time

    def test_tds_per_iteration_matches_model(self, run):
        cm = arctic_cost_model()
        bd = run.performance_breakdown()
        texchxy = cm.exchange_time(run.ds_decomp.critical_edge_bytes(nz=1, width=1))
        tgsum = cm.gsum_time(run.runtime.n_nodes, smp=True)
        hist = run.history[1:]
        ni = bd["ni"]
        nds_nxy = np.mean([h.flops_ds for h in hist]) / ni / run.ds_decomp.n_ranks
        expected = nds_nxy / 60e6 + 2 * texchxy + 2 * tgsum
        assert bd["tds"] == pytest.approx(expected, rel=0.10)

    def test_trun_prediction_from_own_parameters(self, run):
        """Eq. 11 with the run's own measured parameters predicts the
        run's virtual elapsed time within a few percent."""
        bd = run.performance_breakdown()
        n_more = 5
        predicted_more = n_more * bd["t_step"]
        before = run.runtime.elapsed
        run.run(n_more)
        observed_more = run.runtime.elapsed - before
        assert predicted_more == pytest.approx(observed_more, rel=0.05)

    def test_breakdown_empty_before_stepping(self):
        m = ocean_model(nx=32, ny=16, nz=4, px=2, py=2, dt=600.0)
        assert m.performance_breakdown() == {}
