"""The one module that reads and writes eventprobe's files.

A reader raises the error its caller passes in when the file is missing,
and a MalformedDocument that names the file when the file cannot be read,
is not UTF-8, is not JSON or is JSON of the wrong shape. The writer puts
all of a command's outputs in place together, or none of them, and names
the directory in a ConfigError when it cannot.
"""

from __future__ import annotations

import json
import math
import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import ConfigError, EventProbeError, MalformedDocument


@contextmanager
def naming(path: str | Path) -> Iterator[None]:
    """Put the path in front of every MalformedDocument raised inside."""
    try:
        yield
    except MalformedDocument as exc:
        raise type(exc)(f"{path}: {exc}") from None


@contextmanager
def open_input(path: str | Path, missing: EventProbeError) -> Iterator[BinaryIO]:
    """The file opened for reading bytes, inside naming(path)."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise missing from None
    except OSError as exc:
        raise MalformedDocument(f"{path}: cannot be read: {exc.strerror}") from None
    with fh, naming(path):
        yield fh


def decode(data: bytes) -> str:
    """data read as UTF-8, the encoding of every document."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"not UTF-8: {exc}") from None


def read_text(path: str | Path, missing: EventProbeError) -> str:
    with open_input(path, missing) as fh:
        return decode(fh.read())


def _reject_constant(name: str) -> None:
    raise MalformedDocument(f"{name} is not a JSON number")


# The one decoder of every read. It rejects NaN and Infinity, which Python's
# json accepts but RFC 8259 does not. json.loads with keyword arguments would
# build a decoder per call, once per line of a JSONL file.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


# A \u escape of a UTF-16 surrogate: half of a pair, or a lone one, which
# the decoder turns into a string that cannot be written as UTF-8.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
# Finds a lone surrogate by encoding; it takes the inf that 1e999 reads as,
# so that the checks after decoding report that fault.
_SURROGATE_CHECK = json.JSONEncoder(ensure_ascii=False, check_circular=False)


def _json_value(text: str) -> Any:
    """The JSON value text holds. Beside a JSONDecodeError, the decoder
    raises RecursionError for nesting deeper than Python's recursion limit
    and ValueError for an integer past its 4,300-digit limit. A lone
    surrogate escape is rejected too; the value is encoded to find one only
    when the text has a surrogate escape at all."""
    try:
        value = _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from None
    if _SURROGATE_ESCAPE.search(text):
        try:
            _SURROGATE_CHECK.encode(value).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise MalformedDocument(f"invalid JSON: lone surrogate {exc.object[exc.start]!r}") from None
    return value


def parse_json(text: str) -> dict[str, Any]:
    """The JSON object text holds."""
    doc = _json_value(text)
    if not isinstance(doc, dict):
        raise MalformedDocument("top-level value must be a JSON object")
    return doc


def read_json(
    path: str | Path, missing: EventProbeError, parse: Callable[[dict[str, Any]], Any] = dict
) -> Any:
    """parse applied to the JSON object in a UTF-8 file; raises missing if
    there is no file, and every MalformedDocument names the file."""
    text = read_text(path, missing)
    with naming(path):
        return parse(parse_json(text))


# Objects inside a document are checked as dicts, as json.loads makes them:
# isinstance against Mapping costs ten times as much, once per object.
def require(doc: Mapping[str, Any], key: str, kind: type) -> Any:
    """doc[key], which must be of type kind; a float key takes any finite
    number, and an int key no bool."""
    if key not in doc:
        raise MalformedDocument(f"missing key {key!r}")
    value = doc[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise MalformedDocument(f"key {key!r} must be a number")
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):  # a literal such as 1e999 reads as inf
            raise MalformedDocument(f"key {key!r} must be a finite number")
        return value
    # A JSON value's type is exact, so a valid value passes the first test;
    # the rest runs only on a fault, and for int it rejects a bool.
    if type(value) is not kind and (kind is int or not isinstance(value, kind)):
        raise MalformedDocument(f"key {key!r} must be {kind.__name__}")
    return value


def require_strings(doc: Mapping[str, Any], key: str) -> tuple[str, ...]:
    """doc[key], which must be a list of strings, as a tuple."""
    values = require(doc, key, list)
    if not all(isinstance(value, str) for value in values):
        raise MalformedDocument(f"key {key!r} must be a list of strings")
    return tuple(values)


def parse_jsonl(text: str, parse: Callable[[Any], Any], name: str) -> list[Any]:
    """parse applied to the JSON value of every non-blank line of text; a
    MalformedDocument, for invalid JSON or from parse, names the line. Lines end
    at "\\n" only: to_jsonl leaves U+2028 and the other characters at which
    str.splitlines also breaks unescaped."""
    parsed = []
    for number, line in enumerate(text.split("\n"), 1):
        if line.strip():
            try:
                parsed.append(parse(_json_value(line)))
            except MalformedDocument as exc:
                raise MalformedDocument(f"{name} line {number}: {exc}") from None
    return parsed


# Every line is a tree built afresh for the call, so it cannot hold a cycle
# and the encoder's cycle check would only cost time.
_JSON_LINE = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), allow_nan=False, check_circular=False)


def to_jsonl(docs: Iterable[Any]) -> str:
    return "".join(_JSON_LINE.encode(doc) + "\n" for doc in docs)


def write_outputs(out_dir: Path, texts: Mapping[str, str], remove: Sequence[str] = ()) -> None:
    """Create out_dir if it is missing, write each text to `<name>.tmp`, then
    move them all into place and remove the files named in remove. If a
    write fails, the temporaries are removed and the directory keeps the
    files it had; an OSError becomes a ConfigError naming out_dir."""
    temporaries = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            tmp = out_dir / f"{name}.tmp"
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                temporaries.append(tmp)  # ours to remove only once open has made it
                fh.write(text)
        for name, tmp in zip(texts, temporaries):
            os.replace(tmp, out_dir / name)
        for name in remove:
            (out_dir / name).unlink(missing_ok=True)
    except BaseException as exc:
        for tmp in temporaries:
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write output directory {out_dir}: {exc.strerror or exc}") from None
        raise
