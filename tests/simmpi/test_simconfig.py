"""SimConfig: validation, cache-digest stability, and what happens to the
retired spellings (the pre-SimConfig keyword arguments and the ``matching``
field end in Python's own ``TypeError``).
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

import repro
from repro.harness.engine import make_cell
from repro.simmpi import (
    DEFAULT_CONFIG,
    QDR_CLUSTER,
    SLOW_CLUSTER,
    ZERO_COST,
    SimConfig,
    run_spmd,
)
from repro.simmpi.simconfig import NETWORK_PRESETS, parse_config


async def _prog(ctx):
    return await ctx.comm.allreduce(ctx.rank)


class TestValidation:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.network is QDR_CLUSTER
        assert cfg.gates == "fast"
        assert cfg.max_steps is None
        assert cfg == DEFAULT_CONFIG

    @pytest.mark.parametrize(
        ("field", "value", "match"),
        [
            ("network", "qdr", "NetworkModel"),
            ("gates", "warp", "gates"),
            ("max_steps", 0, "max_steps"),
            ("max_steps", -5, "max_steps"),
        ],
    )
    def test_rejects_bad_fields(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            SimConfig(**{field: value})

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SimConfig().max_steps = 4  # type: ignore[misc]

    def test_replace_revalidates(self):
        cfg = SimConfig()
        assert cfg.replace(max_steps=4).max_steps == 4
        with pytest.raises(ValueError, match="max_steps"):
            cfg.replace(max_steps=-1)

    def test_matching_field_is_gone(self):
        assert [f.name for f in dataclasses.fields(SimConfig)] == [
            "network", "gates", "max_steps"]
        with pytest.raises(TypeError, match="matching"):
            SimConfig(matching="linear")
        with pytest.raises(ValueError, match="unknown --config key"):
            parse_config(["matching=linear"])

    @pytest.mark.parametrize("field", ["collectives", "p2p"])
    def test_per_kind_switches_are_gone(self, field):
        """One ``gates`` switch serves every gate kind; the per-kind
        spellings fail loudly and name the keys that are left."""
        with pytest.raises(TypeError, match=field):
            SimConfig(**{field: "simulated"})
        with pytest.raises(ValueError, match="choose from network, gates, "
                                             "max_steps"):
            parse_config([f"{field}=simulated"])

    def test_invalid_knob_rejected_at_simconfig(self):
        with pytest.raises(ValueError, match="gates"):
            run_spmd(_prog, 2, config=SimConfig(gates="warp"))


class TestDigestStability:
    def test_equivalent_spellings_share_a_digest(self):
        # gates selects a bit-identical execution strategy; the cache must
        # serve one result for both.
        base = SimConfig()
        # pinned: cache entries written before the matching field was
        # removed must stay valid
        assert base.digest() == ("eda9881b2a1e7ec6b46ec1e4e1dfc46c"
                                 "dda7ef8c0ea40e180ae328eff6c9f08d")
        variant = SimConfig(gates="simulated")
        assert variant.digest() == base.digest()
        assert variant.cache_key() == base.cache_key()

    def test_outcome_fields_change_the_digest(self):
        base = SimConfig()
        assert SimConfig(network=SLOW_CLUSTER).digest() != base.digest()
        assert SimConfig(network=ZERO_COST).digest() != base.digest()
        assert SimConfig(max_steps=100).digest() != base.digest()

    def test_cell_digest_routes_through_simconfig(self):
        mode = repro.Mode.CHAMELEON
        a = make_cell("bt", 8, mode, sim=SimConfig(network=SLOW_CLUSTER))
        b = make_cell("bt", 8, mode,
                      sim=SimConfig(network=SLOW_CLUSTER, gates="simulated"))
        c = make_cell("bt", 8, mode)
        assert a.digest() == b.digest()
        assert c.digest() != a.digest()


class TestRetiredKwargs:
    """The pre-SimConfig per-knob keywords are gone from every
    signature: a stale call site ends in Python's own ``TypeError``."""

    def test_run_spmd_legacy_kwargs_raise(self):
        # run_spmd forwards unknown keywords to ``main``, which rejects them
        with pytest.raises(TypeError, match=r"network"):
            run_spmd(_prog, 4, network=ZERO_COST)
        with pytest.raises(TypeError, match=r"gates"):
            run_spmd(_prog, 4, gates="simulated")

    def test_run_spmd_config_path_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_spmd(_prog, 4, config=SimConfig(network=ZERO_COST))

    def test_api_run_network_kwarg_raises(self):
        with pytest.raises(TypeError, match=r"network"):
            repro.run("bt", 8, "chameleon", network=ZERO_COST)

    def test_make_cell_network_kwarg_raises(self):
        with pytest.raises(TypeError, match=r"network"):
            make_cell("bt", 8, repro.Mode.CHAMELEON, network=ZERO_COST)

    def test_api_run_sim_path_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.run("bt", 8, "chameleon",
                      sim=SimConfig(network=ZERO_COST))


class TestParseConfig:
    def test_all_keys(self):
        cfg = parse_config([
            "network=slow", "gates=simulated", "max_steps=500",
        ])
        assert cfg.network is SLOW_CLUSTER
        assert cfg.gates == "simulated"
        assert cfg.max_steps == 500

    def test_empty_is_default(self):
        assert parse_config([]) == DEFAULT_CONFIG

    def test_max_steps_none(self):
        assert parse_config(["max_steps=none"]).max_steps is None

    def test_network_presets_cover_all_models(self):
        assert set(NETWORK_PRESETS) == {"qdr", "slow", "zero"}
        assert NETWORK_PRESETS["qdr"] is QDR_CLUSTER

    @pytest.mark.parametrize(
        ("pair", "match"),
        [
            ("max_steps", "KEY=VAL"),
            ("=4", "KEY=VAL"),
            ("max_steps=", "KEY=VAL"),
            ("network=fddi", "unknown network preset"),
            ("max_steps=four", "expects an integer"),
            ("warp=9", "unknown --config key"),
            ("shards=4", "unknown --config key"),  # removed with its engine
        ],
    )
    def test_rejects_malformed_pairs(self, pair, match):
        with pytest.raises(ValueError, match=match):
            parse_config([pair])

    def test_field_validation_still_applies(self):
        with pytest.raises(ValueError, match="max_steps"):
            parse_config(["max_steps=0"])
