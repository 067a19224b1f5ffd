"""Config serialization tests."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MACConfig, SystemConfig
from repro.ddr.device import DDRConfig
from repro.eval.serialize import CONFIG_TYPES, config_from_dict, config_to_dict
from repro.hbm.config import HBMConfig
from repro.hmc.config import HMCConfig


class TestConfigRoundtrip:
    @pytest.mark.parametrize(
        "cfg",
        [
            MACConfig(),
            MACConfig(arq_entries=64, row_bytes=1024, max_request_bytes=1024),
            SystemConfig(),
            HMCConfig(),
            HBMConfig(),
            DDRConfig(),
        ],
        ids=lambda c: type(c).__name__,
    )
    def test_roundtrip(self, cfg):
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_nested_configs(self):
        sysc = SystemConfig(mac=MACConfig(arq_entries=8))
        back = config_from_dict(config_to_dict(sysc))
        assert back.mac.arq_entries == 8

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"__type__": "Nope"})
        with pytest.raises(ValueError):
            config_from_dict({"arq_entries": 32})

    def test_unregistered_object_rejected(self):
        with pytest.raises(TypeError):
            config_to_dict(object())

    def test_validation_applies_on_load(self):
        data = config_to_dict(MACConfig())
        data["arq_entries"] = 0
        with pytest.raises(ValueError):
            config_from_dict(data)


def _scalar_strategy(value):
    """Perturbations of one default field value, mostly staying valid."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.sampled_from(sorted({value, max(1, value // 2), value * 2}))
    if isinstance(value, float):
        return st.sampled_from(sorted({value, value / 2, value * 2}))
    return st.just(value)


@st.composite
def _config_instances(draw, cls=None):
    """A randomly perturbed instance of any registered config type.

    Nested registered configs (``SystemConfig.mac``, ``HMCConfig.timing``
    and friends) recurse, so the round-trip property also covers the
    tagged-dict nesting path.
    """
    if cls is None:
        cls = draw(st.sampled_from(sorted(CONFIG_TYPES.values(), key=lambda c: c.__name__)))
    default = cls()
    kwargs = {f.name: getattr(default, f.name) for f in dataclasses.fields(default)}
    for name, value in list(kwargs.items()):
        if type(value).__name__ in CONFIG_TYPES:
            candidate = draw(_config_instances(cls=type(value)))
        else:
            candidate = draw(_scalar_strategy(value))
        try:
            cls(**{**kwargs, name: candidate})
        except ValueError:
            # Validation (e.g. max_request_bytes > row_bytes) rejects this
            # value next to the ones drawn so far: keep the previous value.
            # Discarding whole examples instead filtered out most
            # SystemConfig draws and tripped Hypothesis' health check.
            continue
        kwargs[name] = candidate
    return cls(**kwargs)


class TestRoundtripProperty:
    @settings(max_examples=60, deadline=None)
    @given(cfg=_config_instances())
    def test_dict_roundtrip_all_registered_types(self, cfg):
        data = config_to_dict(cfg)
        assert data["__type__"] == type(cfg).__name__
        assert config_from_dict(data) == cfg

    @settings(max_examples=30, deadline=None)
    @given(cfg=_config_instances(cls=SystemConfig))
    def test_json_roundtrip_nested(self, cfg):
        # SystemConfig nests a MACConfig; the tagged dict must survive an
        # actual JSON encode/decode, not just the dict transform.
        back = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert back == cfg
        assert back.mac == cfg.mac
