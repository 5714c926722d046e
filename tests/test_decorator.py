import json
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from eventprobe.captions import Caption, CaptionPair
from eventprobe.decorator import DecoratorConfig, _http_transport, decorate
from eventprobe.errors import ConfigError
from eventprobe.profiles import ManipulationCategory


@pytest.fixture()
def pair():
    return CaptionPair(
        pair_id="r1",
        video_id="v",
        category=ManipulationCategory.from_key("counterfactual.predicate.Action"),
        positive=Caption("Greg Focker carries lawn chairs", "template"),
        negative=Caption("Greg Focker assembles lawn chairs", "template"),
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
    assert decorate(pair, config, required=REQUIRED) is pair


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

    result = decorate(pair, enabled_config(), required=REQUIRED, transport=transport)
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

    decorate(pair, enabled_config(), required=REQUIRED, transport=transport)
    assert seen["headers"]["Authorization"] == "Bearer secret"
    assert "secret" not in str(seen["payload"])


def test_remote_failure_falls_back_to_template(pair, monkeypatch):
    monkeypatch.setenv("PROBE_DECORATOR_KEY", "secret")

    def transport(endpoint, payload, headers, timeout):
        raise TimeoutError("remote too slow")

    result = decorate(pair, enabled_config(), required=REQUIRED, transport=transport)
    assert result.positive.text == pair.positive.text
    assert result.positive.renderer == "template"
    assert result.negative.renderer == "template"


def test_no_surviving_candidate_falls_back(pair, monkeypatch):
    monkeypatch.setenv("PROBE_DECORATOR_KEY", "secret")

    def transport(endpoint, payload, headers, timeout):
        return {"candidates": ["nothing relevant at all"]}

    result = decorate(pair, enabled_config(), required=REQUIRED, transport=transport)
    assert result.positive.renderer == "template"


def test_missing_api_key_falls_back(pair, monkeypatch):
    monkeypatch.delenv("PROBE_DECORATOR_KEY", raising=False)

    def transport(endpoint, payload, headers, timeout):  # pragma: no cover
        raise AssertionError("transport must not be reached without a key")

    result = decorate(pair, enabled_config(), required=REQUIRED, transport=transport)
    assert result.positive.renderer == "template"


def test_malformed_response_falls_back(pair, monkeypatch):
    monkeypatch.setenv("PROBE_DECORATOR_KEY", "secret")

    def transport(endpoint, payload, headers, timeout):
        return {"unexpected": True}

    result = decorate(pair, enabled_config(), required=REQUIRED, transport=transport)
    assert result.positive.renderer == "template"


def test_degenerate_identical_rewrites_keep_template_pair(pair, monkeypatch):
    monkeypatch.setenv("PROBE_DECORATOR_KEY", "secret")

    def transport(endpoint, payload, headers, timeout):
        return {"candidates": ["Greg Focker carries and assembles lawn chairs"]}

    result = decorate(pair, enabled_config(), required=REQUIRED, transport=transport)
    assert result == pair



@pytest.fixture()
def rewriter(monkeypatch):
    """A rewriting service on 127.0.0.1 that answers every POST with
    reply["status"] and reply["candidates"] and records (headers, body)."""
    for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    reply = {"status": 200, "candidates": []}
    seen = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            seen.append((self.headers, json.loads(self.rfile.read(int(self.headers["Content-Length"])))))
            data = json.dumps({"candidates": reply["candidates"]}).encode("utf-8")
            self.send_response(reply["status"])
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    # A short poll interval lets shutdown() return without waiting out the
    # default half second.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1", reply, seen
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_http_transport_posts_json_with_bearer_header(pair, monkeypatch, rewriter):
    endpoint, reply, seen = rewriter
    monkeypatch.setenv("PROBE_DECORATOR_KEY", "secret")
    reply["candidates"] = ["Greg Focker carries the chairs", "Greg Focker assembles the chairs"]
    result = decorate(pair, enabled_config(endpoint=endpoint), required=REQUIRED)
    assert (result.positive.renderer, result.negative.renderer) == ("llm", "llm")
    assert len(seen) == 2
    headers, body = seen[0]
    assert headers["Authorization"] == "Bearer secret"
    assert headers["Content-Type"] == "application/json"
    assert body["model"] == "rewriter-1" and body["prompt"].endswith("Greg Focker carries lawn chairs")


def test_http_transport_error_status_falls_back(pair, monkeypatch, rewriter):
    endpoint, reply, seen = rewriter
    reply["status"] = 503
    with pytest.raises(urllib.error.HTTPError):
        _http_transport(endpoint, {"prompt": "x"}, {}, 2.0)
    monkeypatch.setenv("PROBE_DECORATOR_KEY", "secret")
    reply["candidates"] = ["Greg Focker carries the chairs"]
    assert decorate(pair, enabled_config(endpoint=endpoint), required=REQUIRED) == pair
    assert len(seen) == 3
