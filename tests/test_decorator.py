import random

import pytest

from eventprobe.captions import Caption, CaptionPair
from eventprobe.decorator import DecoratorConfig, decorate
from eventprobe.errors import ConfigError
from eventprobe.profiles import ManipulationCategory


@pytest.fixture()
def pair():
    return CaptionPair(
        pair_id="r1",
        video_id="v",
        category=ManipulationCategory.from_key("counterfactual.predicate.Action"),
        positive=Caption(text="Greg Focker carries lawn chairs", polarity="positive", record_id="r1"),
        negative=Caption(text="Greg Focker assembles lawn chairs", polarity="negative", record_id="r1"),
    )


def enabled_config(**overrides):
    defaults = dict(
        enabled=True,
        endpoint="https://rewriter.test/v1",
        model_name="rewriter-1",
        api_key_env="PROBE_DECORATOR_KEY",
        timeout_s=2.0,
    )
    defaults.update(overrides)
    return DecoratorConfig(**defaults)


REQUIRED = {"positive": ("carries",), "negative": ("assembles",)}


def test_disabled_is_identity(pair):
    config = DecoratorConfig(enabled=False)
    assert decorate(pair, config, random.Random(0)) is pair


def test_enabled_requires_endpoint_and_key_env():
    with pytest.raises(ConfigError):
        DecoratorConfig(enabled=True, endpoint=None, api_key_env="X")
    with pytest.raises(ConfigError):
        DecoratorConfig(enabled=True, endpoint="https://x", api_key_env=None)


def test_temperature_range():
    with pytest.raises(ConfigError):
        DecoratorConfig(temperature=3.0)


def test_filter_keeps_first_candidate_with_required_value(pair, monkeypatch):
    monkeypatch.setenv("PROBE_DECORATOR_KEY", "secret")
    calls = []

    def transport(endpoint, payload, headers, timeout):
        calls.append((endpoint, payload, headers, timeout))
        if "carries" in payload["prompt"]:
            return {
                "candidates": [
                    "He lifts the furniture",          # drops the protected verb
                    "Greg Focker carries the lawn chairs outside",
                    "Greg Focker carries chairs",      # later survivor, ignored
                ]
            }
        return {"candidates": ["Greg Focker assembles the lawn chairs"]}

    result = decorate(pair, enabled_config(), random.Random(0), required=REQUIRED, transport=transport)
    assert result.positive.text == "Greg Focker carries the lawn chairs outside"
    assert result.positive.renderer == "llm"
    assert result.negative.text == "Greg Focker assembles the lawn chairs"
    assert result.negative.renderer == "llm"
    assert len(calls) == 2


def test_api_key_travels_in_header_only(pair, monkeypatch):
    monkeypatch.setenv("PROBE_DECORATOR_KEY", "secret")
    seen = {}

    def transport(endpoint, payload, headers, timeout):
        seen["payload"] = payload
        seen["headers"] = headers
        return {"candidates": []}

    decorate(pair, enabled_config(), None, required=REQUIRED, transport=transport)
    assert seen["headers"]["Authorization"] == "Bearer secret"
    assert "secret" not in str(seen["payload"])


def test_remote_failure_falls_back_to_template(pair, monkeypatch):
    monkeypatch.setenv("PROBE_DECORATOR_KEY", "secret")

    def transport(endpoint, payload, headers, timeout):
        raise TimeoutError("remote too slow")

    result = decorate(pair, enabled_config(), None, required=REQUIRED, transport=transport)
    assert result.positive.text == pair.positive.text
    assert result.positive.renderer == "template"
    assert result.negative.renderer == "template"


def test_no_surviving_candidate_falls_back(pair, monkeypatch):
    monkeypatch.setenv("PROBE_DECORATOR_KEY", "secret")

    def transport(endpoint, payload, headers, timeout):
        return {"candidates": ["nothing relevant at all"]}

    result = decorate(pair, enabled_config(), None, required=REQUIRED, transport=transport)
    assert result.positive.renderer == "template"


def test_missing_api_key_falls_back(pair, monkeypatch):
    monkeypatch.delenv("PROBE_DECORATOR_KEY", raising=False)

    def transport(endpoint, payload, headers, timeout):  # pragma: no cover
        raise AssertionError("transport must not be reached without a key")

    result = decorate(pair, enabled_config(), None, required=REQUIRED, transport=transport)
    assert result.positive.renderer == "template"


def test_malformed_response_falls_back(pair, monkeypatch):
    monkeypatch.setenv("PROBE_DECORATOR_KEY", "secret")

    def transport(endpoint, payload, headers, timeout):
        return {"unexpected": True}

    result = decorate(pair, enabled_config(), None, required=REQUIRED, transport=transport)
    assert result.positive.renderer == "template"


def test_degenerate_identical_rewrites_keep_template_pair(pair, monkeypatch):
    monkeypatch.setenv("PROBE_DECORATOR_KEY", "secret")

    def transport(endpoint, payload, headers, timeout):
        return {"candidates": ["Greg Focker carries and assembles lawn chairs"]}

    result = decorate(pair, enabled_config(), None, required=REQUIRED, transport=transport)
    assert result == pair

