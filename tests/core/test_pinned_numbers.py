"""Exact pins of the paper's communication terms wherever they are priced.

Every value below was recorded from the tree and is compared with
``==``: the Fig. 11/12 tables, the large-N PFPP tables, the scaling
sweeps, the telemetry predictions and the virtual phase times a short
model run charges.  The topical tests check these numbers only to
within 1-8 % of the paper, so a refactor of how texchxyz, texchxy or
tgsum are derived could drift inside that band unnoticed; these pins
catch any drift at all.
"""

import dataclasses
import inspect

import pytest

from repro.backend import AnalyticBackend
from repro.backend.sweep import large_sweep
from repro.core.pfpp import best_collectives_table, fig12_table, topology_scoreboard
from repro.core.report import render_report
from repro.core.scaling import cpu_sweep
from repro.gcm.ocean import ocean_model
from repro.network.costmodel import arctic_cost_model, fast_ethernet_cost_model
from repro.obs.metrics import phase_crosscheck

INF = float("inf")

#: The small ocean runs whose charged phase times are pinned.
MODELS = {
    "hydrostatic": dict(nx=32, ny=16, nz=4, px=4, py=2, dt=600.0),
    "wire32": dict(nx=32, ny=16, nz=4, px=4, py=2, dt=600.0, precision="wire32"),
    "nonhydrostatic": dict(
        nx=32, ny=16, nz=4, px=2, py=2, dt=600.0, nonhydrostatic=True
    ),
}

FIG12 = [
    ('Fast Ethernet', 0.0009419999999999999, 0.010007987029647962, 0.10000041088943887, 7997407.13949868, 1683289.6651013277, 50000000.0, 60000000.0),
    ('Gigabit Ethernet', 0.001193, 0.001789115228966986, 0.005742256869009584, 139273463.07270622, 6180847.681860001, 50000000.0, 60000000.0),
    ('Arctic', 1.35e-05, 0.00011767272727272726, 0.0016157506493506492, 494967463.1549166, 140517014.34610853, 50000000.0, 60000000.0),
]

FIG11_TEXT = ('Fig. 11 - performance model parameters, model (paper)\n'
 '=====================================================\n'
 'parameter            reproduction  paper       \n'
 '-------------------  ------------  ------------\n'
 'texchxyz atmos (us)  1616          1640        \n'
 'texchxyz ocean (us)  4572          4573        \n'
 'texchxy (us)         118           115         \n'
 'tgsum 2x8 (us)       13.5          13.5        \n'
 'nxyz atm/ocn         5120 / 15360  5120 / 15360\n'
 'nxy                  1024          1024        ')

BEST_COLLECTIVES = [
    (16, 'butterfly', 4, 1.688e-05, 9.812363636363637e-05, 0.0009485090909090909, 843159024.6894649, 160273192.94251564),
    (64, 'butterfly', 6, 2.532e-05, 8.346181818181816e-05, 0.0005086545454545454, 1572273377.1804404, 169440080.22731075),
    (256, 'butterfly', 8, 3.376e-05, 7.613090909090908e-05, 0.0002887272727272727, 2769894206.5491185, 167729980.14559895),
]

SCOREBOARD = [
    ('fattree', 256, 3.4473333333333334e-05, 8.573090909090909e-05, 0.0002983272727272727, 2680760604.5831304, 153339013.90058336),
    ('torus2d', 256, 6.523999999999996e-05, 4.336e-05, 0.0004888, 1636137479.541735, 169723756.9060774),
    ('torus3d', 256, 5.873999999999999e-05, 4.336e-05, 0.0004888, 1636137479.541735, 180528893.2419197),
    ('hypercrossbar', 256, 0.00013685333333333336, 0.00010127999999999999, 0.0001384, 5778497109.82659, 77402015.6774916),
    ('ethernet', 256, 0.0018839999999999998, 0.01931754811859185, 0.3792872435577555, 2108544.4174138694, 869370.4769528974),
    ('fattree', 1024, 4.4826666666666676e-05, 8.808727272727272e-05, 0.0002298181818181818, 6959797468.35443, 277352399.3652762),
    ('torus2d', 1024, 9.379999999999996e-05, 3.824e-05, 0.00033519999999999996, 4771742243.436755, 279188124.8106635),
    ('torus3d', 1024, 7.729999999999997e-05, 3.824e-05, 0.00033519999999999996, 4771742243.436755, 319058334.7758353),
    ('hypercrossbar', 1024, 0.0001710666666666667, 0.00010085333333333333, 0.0001256, 12734777070.063694, 135569285.08384818),
    ('ethernet', 1024, 0.002355, 0.040005461649578265, 0.9999246494873479, 1599608.5313228779, 870245.4733603455),
]

LARGE_SWEEP = [
    {'n_nodes': 16, 'grid': [128, 64], 'process_grid': [4, 4], 'backend': 'analytic', 'tgsum_s': 1.688e-05, 'texchxy_s': 9.812363636363637e-05, 'texchxyz_s': 0.00036203636363636363, 'pfpp_ps_flops': 2209015668.943351, 'pfpp_ds_flops': 160273192.94251564},
    {'n_nodes': 64, 'grid': [256, 128], 'process_grid': [8, 8], 'backend': 'analytic', 'tgsum_s': 2.532e-05, 'texchxy_s': 9.812363636363637e-05, 'texchxyz_s': 0.00036203636363636363, 'pfpp_ps_flops': 2209015668.943351, 'pfpp_ds_flops': 149315108.84614253},
    {'n_nodes': 256, 'grid': [512, 256], 'process_grid': [16, 16], 'backend': 'analytic', 'tgsum_s': 3.376e-05, 'texchxy_s': 9.812363636363637e-05, 'texchxyz_s': 0.00036203636363636363, 'pfpp_ps_flops': 2209015668.943351, 'pfpp_ds_flops': 139759567.66295356},
    {'n_nodes': 1024, 'grid': [1024, 512], 'process_grid': [32, 32], 'backend': 'analytic', 'tgsum_s': 4.220000000000001e-05, 'texchxy_s': 9.812363636363637e-05, 'texchxyz_s': 0.00036203636363636363, 'pfpp_ps_flops': 2209015668.943351, 'pfpp_ds_flops': 131353494.51916347},
    {'n_nodes': 4096, 'grid': [2048, 1024], 'process_grid': [64, 64], 'backend': 'analytic', 'tgsum_s': 5.0640000000000017e-05, 'texchxy_s': 9.812363636363637e-05, 'texchxyz_s': 0.00036203636363636363, 'pfpp_ps_flops': 2209015668.943351, 'pfpp_ds_flops': 123901246.63896357},
]

CPU_SWEEP_ARCTIC = [
    (1, 128, 64, 10, 51873048.907388136, 1.0, 1.2795904, 0.0049152, INF, INF),
    (2, 128, 64, 10, 86425431.63651796, 0.8330475406488842, 0.6499935376623377, 0.0049172, 3136762191.953871, 147456000000.0),
    (4, 128, 64, 10, 167667693.86199373, 0.8080674714211433, 0.33026793766233764, 0.0026141963636363633, 1542368293.183856, 941631060.7467955),
    (8, 128, 64, 10, 322110956.70795834, 0.7762001740129086, 0.16785555324675325, 0.0014283963636363634, 1011469531.2243358, 369385487.07391274),
    (16, 128, 64, 10, 599452808.3207176, 0.7222594643884273, 0.08805315324675325, 0.0008032472727272727, 494967463.1549166, 195205360.75327826),
    (32, 128, 64, 10, 1045106470.3269576, 0.6296058914143721, 0.04560236883116883, 0.0005424472727272727, 356064093.5499389, 78351599.09109177),
    (64, 128, 64, 10, 1737643771.2780607, 0.5234063641544058, 0.024376976623376623, 0.0003770981818181818, 228061625.97771984, 41235234.779213175),
]

CPU_SWEEP_FAST_ETHERNET = [
    (1, 128, 64, 10, 51873048.907388136, 1.0, 1.2795904, 0.0049152, INF, INF),
    (2, 128, 64, 10, 58898080.41160996, 0.567713693837083, 0.7346368757411991, 0.01086779567654932, 337296444.31096554, 17533004.6613732),
    (4, 128, 64, 10, 59323623.800385654, 0.2859077355675557, 0.5009499514823981, 0.014596791353098642, 88343950.62554611, 5515263.890630074),
    (8, 128, 64, 10, 60596029.39696805, 0.1460200206882806, 0.41858082722359713, 0.01548778702964796, 30922079.086075105, 2478520.8592042224),
    (16, 128, 64, 10, 42707564.004921615, 0.051456831756180633, 0.5799764544471944, 0.022207174059295925, 7997407.13949868, 841644.8325506639),
    (32, 128, 64, 10, 37624885.42369188, 0.022666446146043066, 0.6951486059295924, 0.024593365412394565, 3051706.0100070415, 377090.36255013023),
    (64, 128, 64, 10, 29884654.267188814, 0.009001740455983091, 0.9854737088943886, 0.029125148118591848, 1035422.6780961601, 158632.08404097636),
]

HISTORY = {
    'hydrostatic': [
        (0.0015331769696969692, 0.0, 0.006700412294372294),
        (0.0015331769696969692, 0.0, 0.006888572294372294),
        (0.0015331769696969692, 0.0, 0.006888572294372291),
    ],
    'wire32': [
        (0.002609002424242424, 0.0, 0.007406700086580086),
        (0.0027997103030303026, 0.0, 0.007785567965367964),
        (0.00356254181818182, 0.0, 0.008548399480519478),
    ],
    'nonhydrostatic': [
        (0.0014511103030303025, 0.0055710136796536785, 0.015336517748917748),
        (0.0014511103030303042, 0.00557101367965368, 0.015706117748917753),
        (0.0014511103030303008, 0.00557101367965368, 0.015706117748917746),
    ],
}

PREDICTED = {
    'hydrostatic': [
        ('ps_exchange', 0.003765225974025974),
        ('ds_exchange', 0.0025777309090909088),
        ('ds_gsum', 0.00038219999999999997),
    ],
    'wire32': [
        ('ps_exchange', 0.003765225974025974),
        ('ds_exchange', 0.00552370909090909),
        ('ds_gsum', 0.000819),
    ],
    'nonhydrostatic': [
        ('ps_exchange', 0.0045043012987012986),
        ('ds_exchange', 0.001132930909090909),
        ('ds_gsum', 0.0002016),
    ],
}


def _priced_cpu_sweep(model):
    """``cpu_sweep`` priced by ``model`` with measured-table gsums.

    Accepts either spelling of the sweep's pricing argument
    (``backend=`` or the older ``cost_model=``), so the pins compare
    the same pricing across both."""
    counts = (1, 2, 4, 8, 16, 32, 64)
    if "backend" in inspect.signature(cpu_sweep).parameters:
        return cpu_sweep(counts, backend=AnalyticBackend(model=model, calibrated=False))
    return cpu_sweep(counts, cost_model=model)


def test_fig12_rows():
    assert [dataclasses.astuple(r) for r in fig12_table()] == FIG12


def test_fig11_report_text():
    assert render_report(["fig11"]) == FIG11_TEXT


def test_best_collectives_table():
    rows = [dataclasses.astuple(r) for r in best_collectives_table()]
    assert rows == BEST_COLLECTIVES


def test_topology_scoreboard_terms():
    rows = [
        (r.topology, r.n_nodes, r.tgsum, r.texchxy, r.texchxyz, r.pfpp_ps, r.pfpp_ds)
        for r in topology_scoreboard(n_values=(256, 1024))
    ]
    assert rows == SCOREBOARD


def test_large_sweep_rows():
    rows = [
        {k: v for k, v in r.items() if k != "wall_s"} for r in large_sweep()["rows"]
    ]
    assert rows == LARGE_SWEEP


@pytest.mark.parametrize(
    "model, expected",
    [
        (arctic_cost_model(), CPU_SWEEP_ARCTIC),
        (fast_ethernet_cost_model(), CPU_SWEEP_FAST_ETHERNET),
    ],
    ids=["arctic", "fast_ethernet"],
)
def test_cpu_sweep(model, expected):
    assert [dataclasses.astuple(p) for p in _priced_cpu_sweep(model)] == expected


@pytest.mark.parametrize("label", sorted(MODELS))
def test_model_phase_times_and_crosscheck(label):
    m = ocean_model(**MODELS[label])
    m.runtime.attach_metrics()
    m.run(3)
    assert [(h.t_ds, h.t_nh, h.t_step) for h in m.history] == HISTORY[label]
    predicted = [(r["quantity"], r["predicted_s"]) for r in phase_crosscheck(m)]
    assert predicted == PREDICTED[label]
