"""The one mesh environment both substrates run (DESIGN §5e)."""

from dataclasses import FrozenInstanceError, fields, replace

import pytest

from repro.bench.coordinator import ScenarioBenchConfig
from repro.env import MeshEnv
from repro.errors import ConfigError
from repro.live.harness import LiveConfig

SUBSTRATES = (ScenarioBenchConfig, LiveConfig)

BAD_VALUES = [
    ("replica_capacity", 0), ("max_retries", -1), ("retry_backoff_s", -1),
    ("scrape_interval_s", 0), ("scrape_interval_s", -1.0),
    ("request_timeout_s", 0.0), ("drain_s", -1.0), ("arrival", "bogus"),
    ("client_cluster", ""),
]


@pytest.mark.parametrize("name,value", BAD_VALUES,
                         ids=[f"{n}={v!r}" for n, v in BAD_VALUES])
@pytest.mark.parametrize("config", SUBSTRATES,
                         ids=[c.__name__ for c in SUBSTRATES])
def test_bad_environment_rejected_when_built(config, name, value):
    with pytest.raises(ConfigError, match=name):
        config(**{name: value})


@pytest.mark.parametrize("config", SUBSTRATES,
                         ids=[c.__name__ for c in SUBSTRATES])
def test_replace_validates_again(config):
    with pytest.raises(ConfigError, match="arrival"):
        replace(config(), arrival="bogus")
    with pytest.raises(FrozenInstanceError):
        config().max_retries = 1


def test_both_substrates_share_the_nine_fields():
    shared = {f.name for f in fields(MeshEnv)}
    assert shared == {
        "client_cluster", "replica_capacity", "scrape_interval_s",
        "max_retries", "retry_backoff_s", "request_timeout_s",
        "outlier_ejection", "drain_s", "arrival"}
    for config in SUBSTRATES:
        assert issubclass(config, MeshEnv)
        assert shared <= {f.name for f in fields(config)}


def _differing_defaults(config) -> dict:
    base = MeshEnv()
    return {f.name: (getattr(base, f.name), getattr(config(), f.name))
            for f in fields(MeshEnv)
            if getattr(base, f.name) != getattr(config(), f.name)}


def test_only_three_live_defaults_differ_on_purpose():
    assert _differing_defaults(ScenarioBenchConfig) == {}
    assert _differing_defaults(LiveConfig) == {
        "scrape_interval_s": (5.0, 1.0),
        "drain_s": (30.0, 5.0),
        "request_timeout_s": (None, 5.0),
    }


def test_configs_are_keyword_only():
    for config in (MeshEnv, *SUBSTRATES):
        with pytest.raises(TypeError):
            config("cluster-1")
