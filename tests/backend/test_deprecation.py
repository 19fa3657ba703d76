"""The redesign's deprecated spellings are removed; one spelling remains.

``cost_model=``/``tuner=`` on the runtime and ``tuner=`` on the global
summer are gone, as is the CLI's ``--engine``.  Their exact equivalents
are ``backend=AnalyticBackend(model=m, calibrated=False)`` and
``backend=AnalyticBackend(tuner=t)``.
"""

import warnings

import pytest

from repro.backend import AnalyticBackend
from repro.collectives.tuner import Autotuner
from repro.network.costmodel import arctic_cost_model
from repro.parallel.globalsum import GlobalSummer
from repro.parallel.runtime import LockstepRuntime
from repro.parallel.tiling import Decomposition


def _decomp():
    return Decomposition(nx=16, ny=8, px=2, py=2)


class TestLockstepRuntime:
    def test_new_spelling_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            LockstepRuntime(_decomp(), backend=AnalyticBackend())

    def test_backend_plus_legacy_kwarg_rejected(self):
        with pytest.raises(TypeError):
            LockstepRuntime(
                _decomp(), backend="analytic", cost_model=arctic_cost_model()
            )

    @pytest.mark.parametrize("kwarg", ["cost_model", "tuner"])
    def test_removed_kwargs_rejected(self, kwarg):
        with pytest.raises(TypeError):
            LockstepRuntime(_decomp(), **{kwarg: arctic_cost_model()})

    def test_positional_cost_model_rejected(self):
        with pytest.raises(TypeError, match="tier name or CommBackend"):
            LockstepRuntime(_decomp(), arctic_cost_model())

    def test_equivalents_carry_model_and_tuner(self):
        model, tuner = arctic_cost_model(), Autotuner()
        rt = LockstepRuntime(
            _decomp(), backend=AnalyticBackend(model=model, calibrated=False)
        )
        assert rt.backend.model is model and rt.backend.tuner is None
        rt = LockstepRuntime(_decomp(), backend=AnalyticBackend(tuner=tuner))
        assert rt.backend.tuner is tuner


class TestGlobalSummer:
    def test_backend_spelling_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            GlobalSummer(4, algorithm="auto", backend="analytic")

    def test_backend_plus_tuner_rejected(self):
        with pytest.raises(TypeError):
            GlobalSummer(
                4, algorithm="auto", backend="analytic", tuner=Autotuner()
            )

    def test_tuner_kwarg_rejected(self):
        with pytest.raises(TypeError):
            GlobalSummer(4, algorithm="auto", tuner=Autotuner())


class TestModelBuilders:
    @pytest.mark.parametrize("builder", ["ocean", "atmosphere"])
    def test_cost_model_override_rejected(self, builder):
        """``ModelConfig.cost_model`` is gone: the builders refuse the
        key instead of silently ignoring it."""
        from repro.gcm.atmosphere import atmosphere_config
        from repro.gcm.ocean import ocean_config

        config = {"ocean": ocean_config, "atmosphere": atmosphere_config}[builder]
        with pytest.raises(TypeError, match="cost_model"):
            config(cost_model=arctic_cost_model())


class TestAutotuner:
    def test_backend_and_model_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            Autotuner(arctic_cost_model(), backend="analytic")

    def test_backend_kwarg_supplies_the_model(self):
        be = AnalyticBackend()
        tuner = Autotuner(backend=be)
        assert tuner.model is be.model


class TestCLI:
    def test_backend_flag_is_warning_free(self, capsys):
        from repro.cli import main

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            rc = main(["backend", "--sweep", "--nodes", "16", "--backend", "analytic"])
        assert rc == 0

    def test_engine_flag_rejected(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["backend", "--sweep", "--nodes", "16", "--engine", "analytic"])
        assert "--engine" in capsys.readouterr().err
