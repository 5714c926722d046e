import json
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

import eventprobe.decorator
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

    monkeypatch.setattr(eventprobe.decorator, "_http_transport", transport)
    result = decorate(pair, enabled_config(), required=REQUIRED)
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

    monkeypatch.setattr(eventprobe.decorator, "_http_transport", transport)
    decorate(pair, enabled_config(), required=REQUIRED)
    assert seen["headers"]["Authorization"] == "Bearer secret"
    assert "secret" not in str(seen["payload"])


def test_remote_failure_falls_back_to_template(pair, monkeypatch):
    monkeypatch.setenv("PROBE_DECORATOR_KEY", "secret")

    def transport(endpoint, payload, headers, timeout):
        raise TimeoutError("remote too slow")

    monkeypatch.setattr(eventprobe.decorator, "_http_transport", transport)
    result = decorate(pair, enabled_config(), required=REQUIRED)
    assert result.positive.text == pair.positive.text
    assert result.positive.renderer == "template"
    assert result.negative.renderer == "template"


def test_no_surviving_candidate_falls_back(pair, monkeypatch):
    monkeypatch.setenv("PROBE_DECORATOR_KEY", "secret")

    def transport(endpoint, payload, headers, timeout):
        return {"candidates": ["nothing relevant at all"]}

    monkeypatch.setattr(eventprobe.decorator, "_http_transport", transport)
    result = decorate(pair, enabled_config(), required=REQUIRED)
    assert result.positive.renderer == "template"


def test_missing_api_key_falls_back(pair, monkeypatch):
    monkeypatch.delenv("PROBE_DECORATOR_KEY", raising=False)
    calls = []

    # decorate falls back on any exception, so a raising fake would go
    # unnoticed: the calls are counted instead.
    def transport(endpoint, payload, headers, timeout):
        calls.append(endpoint)
        return {"candidates": []}

    monkeypatch.setattr(eventprobe.decorator, "_http_transport", transport)
    result = decorate(pair, enabled_config(), required=REQUIRED)
    assert result.positive.renderer == "template"
    assert calls == []


def test_malformed_response_falls_back(pair, monkeypatch):
    monkeypatch.setenv("PROBE_DECORATOR_KEY", "secret")

    def transport(endpoint, payload, headers, timeout):
        return {"unexpected": True}

    monkeypatch.setattr(eventprobe.decorator, "_http_transport", transport)
    result = decorate(pair, enabled_config(), required=REQUIRED)
    assert result.positive.renderer == "template"


def test_degenerate_identical_rewrites_keep_template_pair(pair, monkeypatch):
    monkeypatch.setenv("PROBE_DECORATOR_KEY", "secret")

    def transport(endpoint, payload, headers, timeout):
        return {"candidates": ["Greg Focker carries and assembles lawn chairs"]}

    monkeypatch.setattr(eventprobe.decorator, "_http_transport", transport)
    result = decorate(pair, enabled_config(), required=REQUIRED)
    assert result == pair



@pytest.fixture()
def rewriter(monkeypatch):
    """A rewriting service on 127.0.0.1 that answers every POST with
    reply["status"] and the other fields of reply as a JSON object, and
    records (headers, body)."""
    for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    reply = {"status": 200, "candidates": []}
    seen = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            seen.append((self.headers, json.loads(self.rfile.read(int(self.headers["Content-Length"])))))
            data = json.dumps({k: v for k, v in reply.items() if k != "status"}).encode("utf-8")
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


@pytest.mark.parametrize("case", ["lone-surrogate", "nan"])
def test_a_reply_the_one_decoder_rejects_falls_back(pair, monkeypatch, rewriter, case):
    """The reply is read by the one decoder, which rejects a lone surrogate
    escape, since a caption holding one could not be written as UTF-8, and
    NaN or Infinity in any field, which RFC 8259 does not allow."""
    endpoint, reply, seen = rewriter
    monkeypatch.setenv("PROBE_DECORATOR_KEY", "secret")
    if case == "lone-surrogate":
        reply["candidates"] = ["Greg Focker carries lawn chairs\ud800"]
    else:
        reply["candidates"] = ["Greg Focker carries the lawn chairs outside"]
        reply["score"] = float("nan")
    result = decorate(pair, enabled_config(endpoint=endpoint), required=REQUIRED)
    assert result.positive.renderer == "template"
    assert len(seen) == 2
