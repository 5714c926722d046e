"""The one module that reads and writes eventprobe's files.

A reader raises the error its caller passes in when the file is missing,
and a MalformedDocument that names the file when the file cannot be read,
is not UTF-8, is not JSON or is JSON of the wrong shape. The writer puts
all of a command's outputs in place together, or none of them.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import EventProbeError, MalformedDocument


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


def read_text(path: str | Path, missing: EventProbeError) -> str:
    with open_input(path, missing) as fh:
        try:
            return fh.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedDocument(f"not UTF-8: {exc}") from None


def _reject_constant(name: str) -> None:
    raise MalformedDocument(f"{name} is not a JSON number")


# The one decoder of every read. It rejects NaN and Infinity, which Python's
# json accepts but RFC 8259 does not. json.loads with keyword arguments would
# build a decoder per call, once per line of a JSONL file.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def parse_json(text: str | bytes) -> dict[str, Any]:
    """The JSON object text holds; bytes are decoded as json.loads does."""
    try:
        if isinstance(text, bytes):
            text = text.decode(json.detect_encoding(text), "surrogatepass")
        doc = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"not UTF-8: {exc}") from None
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
    """doc[key], which must be of type kind; a float key takes any finite number."""
    if key not in doc:
        raise MalformedDocument(f"missing key {key!r}")
    value = doc[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise MalformedDocument(f"key {key!r} must be a number")
        value = float(value)
        if not math.isfinite(value):  # a literal such as 1e999 reads as inf
            raise MalformedDocument(f"key {key!r} must be a finite number")
        return value
    if not isinstance(value, kind):
        raise MalformedDocument(f"key {key!r} must be {kind.__name__}")
    return value


def parse_jsonl(text: str, parse: Callable[[Any], Any], name: str) -> list[Any]:
    """parse applied to the JSON value of every non-blank line of text; invalid
    JSON and parse's MalformedDocument become one naming the line. Lines end
    at "\\n" only: to_jsonl leaves U+2028 and the other characters at which
    str.splitlines also breaks unescaped."""
    parsed = []
    for number, line in enumerate(text.split("\n"), 1):
        if line.strip():
            try:
                parsed.append(parse(_DECODER.decode(line)))
            except (json.JSONDecodeError, MalformedDocument) as exc:
                raise MalformedDocument(f"{name} line {number}: {exc}") from None
    return parsed


_JSON_LINE = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), allow_nan=False)


def to_jsonl(docs: Iterable[Any]) -> str:
    return "".join(_JSON_LINE.encode(doc) + "\n" for doc in docs)


def write_outputs(out_dir: Path, texts: Mapping[str, str], remove: Sequence[str] = ()) -> None:
    """Write each text to `<name>.tmp`, then move them all into place and
    remove the files named in remove. If a write fails, the temporaries are
    removed and the directory keeps the files it had."""
    temporaries = []
    try:
        for name, text in texts.items():
            temporaries.append(out_dir / f"{name}.tmp")
            with open(temporaries[-1], "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except BaseException:
        for tmp in temporaries:
            tmp.unlink(missing_ok=True)
        raise
    for name, tmp in zip(texts, temporaries):
        os.replace(tmp, out_dir / name)
    for name in remove:
        (out_dir / name).unlink(missing_ok=True)
