"""Backend resolution: names, instances, defaults and the registry."""

import pytest

from repro.backend import (
    BACKEND_NAMES,
    BACKENDS,
    AnalyticBackend,
    CommBackend,
    DESBackend,
    HybridBackend,
    register_backend,
    resolve_backend,
)
from repro.network.costmodel import arctic_cost_model


class TestNames:
    def test_registry_names_are_the_documented_trio(self):
        assert BACKEND_NAMES == ("des", "analytic", "hybrid")

    @pytest.mark.parametrize(
        "name,cls",
        [("des", DESBackend), ("analytic", AnalyticBackend), ("hybrid", HybridBackend)],
    )
    def test_name_resolves_to_tier(self, name, cls):
        be = resolve_backend(name)
        assert isinstance(be, cls)
        assert be.name == name

    def test_names_are_case_insensitive(self):
        assert isinstance(resolve_backend("DES"), DESBackend)

    def test_unknown_name_rejected_with_choices(self):
        with pytest.raises(ValueError, match="analytic"):
            resolve_backend("quantum")

    def test_non_string_spec_rejected(self):
        with pytest.raises(TypeError):
            resolve_backend(3.14)


class TestInstances:
    def test_instance_passes_through_identically(self):
        be = DESBackend()
        assert resolve_backend(be) is be

    def test_instance_refuses_extra_model(self):
        """``model=`` is no longer a resolve option: an instance carries
        its own model, and a tier with another model is built directly."""
        with pytest.raises(TypeError):
            resolve_backend(DESBackend(), model=arctic_cost_model())

    def test_des_refuses_tuner(self):
        with pytest.raises(TypeError):
            resolve_backend("des", tuner=object())



class TestDefault:
    def test_none_gives_legacy_equivalent_analytic(self):
        be = resolve_backend(None)
        assert isinstance(be, AnalyticBackend)
        # the compatibility default reproduces the pre-backend runtime:
        # measured gsum tables, not the tuner-calibrated variant
        assert be.gsum_time(16) == pytest.approx(18.2e-6)


class TestRegistry:
    def test_custom_tier_registers_and_resolves(self):
        class FreeBackend(AnalyticBackend):
            """Test tier: everything is free."""

            name = "free"

            def exchange_time(self, edge_bytes, mixmode=False, n_ranks=1):
                """Zero-cost exchange."""
                return 0.0

        register_backend("free", FreeBackend)
        try:
            be = resolve_backend("free")
            assert isinstance(be, FreeBackend)
            assert be.exchange_time([1024]) == 0.0
        finally:
            BACKENDS.pop("free", None)


class TestContract:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_describe_is_json_ready(self, name):
        d = resolve_backend(name).describe()
        assert d["backend"] == name
        assert "model" in d

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_begin_window_accepted_by_every_tier(self, name):
        be = resolve_backend(name)
        be.begin_window(0)
        be.begin_window(1, faulted=True)
        assert isinstance(be, CommBackend)

    def test_tier_property_reports_active_fidelity(self):
        hb = resolve_backend("hybrid")
        assert hb.tier == "analytic"  # steady-state default
        hb.begin_window(0, faulted=True)
        assert hb.tier == "des"
        hb.begin_window(1)
        assert hb.tier == "analytic"
