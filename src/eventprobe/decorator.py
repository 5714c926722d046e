"""Optional remote text decorator that naturalizes template captions.

The decorator never fails the pipeline: any transport problem, bad response,
or candidate set that loses the protected slot values falls back to the
template text. The API key is read from the environment at call time and is
never persisted.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

from .captions import NEGATIVE, POSITIVE, Caption, CaptionPair
from .documents import decode, parse_json, require, require_strings
from .errors import ConfigError, MalformedDocument

_NATURALIZE_PROMPT = (
    "In this task, you are given a sentence; your job is to rewrite it as a "
    "fluent natural-language caption without adding or removing facts, "
    "please generate {n} sentences.\n\nSentence: {text}"
)


@dataclass(frozen=True)
class DecoratorConfig:
    """Connection settings for the remote rewriting service."""

    enabled: bool = False
    endpoint: str | None = None
    model_name: str | None = None
    temperature: float = 0.2
    api_key_env: str | None = None
    timeout_s: float = 10.0
    max_candidates: int = 10

    def __post_init__(self) -> None:
        # Checked as document fields, but each value keeps its type: an
        # integer timeout_s stays one in the config digest.
        settings = vars(self)
        try:
            require(settings, "enabled", bool)
            for name in ("endpoint", "model_name", "api_key_env"):
                if settings[name] is not None:
                    require(settings, name, str)
            require(settings, "temperature", float)
            require(settings, "timeout_s", float)
            if require(settings, "max_candidates", int) < 1:
                raise MalformedDocument("key 'max_candidates' must be at least 1")
        except MalformedDocument as exc:
            raise ConfigError(f"malformed config: decorator: {exc}") from None
        if self.enabled and (not self.endpoint or not self.api_key_env):
            raise ConfigError("enabled decorator needs endpoint and api_key_env")
        if not 0 <= self.temperature <= 2:
            raise ConfigError("temperature must lie in [0, 2]")


def _http_transport(endpoint: str, payload: dict, headers: dict, timeout: float) -> dict:
    """POST payload as JSON and read the reply as every document is read; a
    status outside 2xx raises HTTPError, and a reply that is not a UTF-8
    JSON object (one with a BOM or in UTF-16 is not), or holds a lone
    surrogate, NaN or Infinity, MalformedDocument."""
    import urllib.request  # only a run with the decorator enabled pays for it

    request = urllib.request.Request(
        endpoint,
        data=json.dumps(payload).encode("utf-8"),
        headers={**headers, "Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return parse_json(decode(response.read()))


def _call_remote(text: str, config: DecoratorConfig) -> tuple[str, ...]:
    api_key = os.environ.get(config.api_key_env or "", "")
    if not api_key:
        raise ConfigError(f"environment variable {config.api_key_env!r} is unset")
    payload = {
        "model": config.model_name,
        "temperature": config.temperature,
        "prompt": _NATURALIZE_PROMPT.format(n=config.max_candidates, text=text),
    }
    headers = {"Authorization": f"Bearer {api_key}"}
    response = _http_transport(config.endpoint or "", payload, headers, config.timeout_s)
    return require_strings(response, "candidates")


def _decorate_caption(
    caption: Caption,
    required: Sequence[str],
    config: DecoratorConfig,
) -> Caption:
    try:
        candidates = _call_remote(caption.text, config)
    except Exception:
        return caption  # DecoratorUnavailable; renderer stays "template"
    for candidate in candidates:
        if candidate and all(value in candidate for value in required):
            return Caption(candidate, "llm")
    return caption


def decorate(
    pair: CaptionPair,
    config: DecoratorConfig,
    required: Mapping[str, Sequence[str]],
) -> CaptionPair:
    """Naturalize both captions of a pair, keeping protected values verbatim.

    With the decorator disabled this is the identity. Candidates that drop
    any required slot value are filtered out; the first survivor wins. A
    caption whose renderer still reads "template" afterwards was not
    decorated.
    """
    if not config.enabled:
        return pair
    positive = _decorate_caption(pair.positive, tuple(required.get(POSITIVE, ())), config)
    negative = _decorate_caption(pair.negative, tuple(required.get(NEGATIVE, ())), config)
    if positive.text == negative.text:
        return pair  # degenerate rewrite; keep the distinguishable template pair
    return CaptionPair(pair.pair_id, pair.video_id, pair.category, positive, negative)

