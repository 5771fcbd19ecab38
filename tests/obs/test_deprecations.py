"""Removed legacy entry points and spellings stay removed.

The package-level ``repro.core.simulate_*`` wrappers, the cross-model
keyword spellings, the long keyword aliases and ``fault_seed=`` finished
their deprecation cycle and are gone: each parameter has one spelling,
the paper's.
"""

import warnings

import pytest

import repro.core as core
from repro import BSPParams, LogPParams, RoutingConfig, Stack
from repro.errors import ParameterError
from repro.programs import bsp_prefix_program, logp_sum_program

PARAMS = LogPParams(p=4, L=8, o=1, G=2)


class TestLegacyWrappers:
    """The wrappers are gone from ``repro.core``; the submodule drivers
    they wrapped remain, and compute what the Stack chain computes."""

    def test_simulate_bsp_on_logp(self):
        from repro.core.bsp_on_logp import simulate_bsp_on_logp

        assert not hasattr(core, "simulate_bsp_on_logp")
        rep = simulate_bsp_on_logp(PARAMS, bsp_prefix_program())
        via_stack = Stack(bsp_prefix_program()).on_logp(PARAMS).run()
        assert rep.total_logp_time == via_stack.total_logp_time
        assert rep.results == via_stack.results

    def test_simulate_logp_on_bsp(self):
        from repro.core.logp_on_bsp import simulate_logp_on_bsp

        assert not hasattr(core, "simulate_logp_on_bsp")
        rep = simulate_logp_on_bsp(PARAMS, logp_sum_program())
        via_stack = Stack(logp_sum_program(), model="logp", params=PARAMS).on_bsp().run()
        assert rep.virtual_time == via_stack.virtual_time
        assert rep.results == via_stack.results

    def test_simulate_logp_on_bsp_workpreserving(self):
        from repro.core.logp_on_bsp import simulate_logp_on_bsp_workpreserving

        assert not hasattr(core, "simulate_logp_on_bsp_workpreserving")
        rep = simulate_logp_on_bsp_workpreserving(PARAMS, logp_sum_program(), 2)
        via_stack = (
            Stack(logp_sum_program(), model="logp", params=PARAMS).on_bsp(p=2).run()
        )
        assert rep.bsp.total_cost == via_stack.bsp.total_cost
        assert rep.results == via_stack.results

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="no_such_thing"):
            core.no_such_thing

    def test_submodule_drivers_do_not_warn(self):
        """The Stack adapters' own entry points are not deprecated."""
        from repro.core.bsp_on_logp import simulate_bsp_on_logp

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            simulate_bsp_on_logp(PARAMS, bsp_prefix_program())


class TestParamAliases:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: BSPParams(p=4, G=2, l=16),
            lambda: BSPParams(p=4, g=2, L=16),
            lambda: LogPParams(p=4, L=8, o=1, g=2),
            lambda: LogPParams(p=4, l=8, o=1, G=2),
            lambda: BSPParams(processors=4, gap=2, latency=16),
            lambda: LogPParams(processors=4, latency=8, overhead=1, gap=2),
            lambda: LogPParams(p=4, L=8, o=1, G=2, word_gap=1),
            lambda: RoutingConfig(fault_seed=7),
        ],
        ids=[
            "BSP-G", "BSP-L", "LogP-g", "LogP-l",
            "BSP-long", "LogP-long", "LogP-word_gap", "RoutingConfig-fault_seed",
        ],
    )
    def test_one_spelling_per_parameter(self, build):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            build()

    def test_alias_plus_canonical_is_an_error(self):
        with pytest.raises(TypeError):
            BSPParams(p=4, g=2, gap=2, l=16)
        with pytest.raises(TypeError):
            LogPParams(p=4, L=8, latency=8, o=1, G=2)

    def test_positional_construction_still_works(self):
        assert BSPParams(4, 2, 16) == BSPParams(p=4, g=2, l=16)
        assert LogPParams(4, 8, 1, 2) == LogPParams(p=4, L=8, o=1, G=2)
        assert LogPParams(4, 8, 1, 2, False, 1).Gb == 1

    def test_validation_still_enforced(self):
        with pytest.raises(ParameterError):
            BSPParams(p=0, g=2, l=16)
        with pytest.raises(ParameterError):
            LogPParams(p=4, L=0, o=1, G=2)
        with pytest.raises(ParameterError, match="must be an integer"):
            BSPParams(p=4, g=2.5, l=16)


class TestRoutingConfigSeed:
    def test_canonical_seed_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            cfg = RoutingConfig(seed=7)
        assert cfg.seed == 7
        assert not hasattr(cfg, "fault_seed")
