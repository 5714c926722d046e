"""The one module that reads and writes eventprobe's files.

A reader raises the error its caller passes in when the file is missing,
and a MalformedDocument that names the file when the file cannot be read,
is not UTF-8, is not JSON or is JSON of the wrong shape. A JSONL writer
composes each line from json_string, json_int and json_float, so its bytes
are json.dumps's with ensure_ascii=False, separators (",", ":") and
allow_nan=False. The writer puts all of a command's outputs in place
together, or none of them, and names the directory in a ConfigError when
it cannot. in_child computes a value in a forked child whenever os.fork
exists and two or more CPUs are usable, and in this process otherwise: it
is the one place that decides where a value is computed. in_halves
computes the second half of a command's work through it.
"""

from __future__ import annotations

import json
import math
import os
import re
from contextlib import contextmanager, suppress
from functools import partial
from pathlib import Path
from json.decoder import WHITESPACE
from json.encoder import encode_basestring
from typing import Any, BinaryIO, Callable, Iterator, Mapping, NoReturn, Sequence, TypeVar

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
    when the text has a surrogate escape at all. The decoder's scanner reads
    a value that starts the text; anything else, valid or not, is decoded
    again by decode, which gives the value or json's own error."""
    try:
        value, end = _DECODER.scan_once(text, 0)
        if end != len(text):
            end = WHITESPACE.match(text, end).end()
    except (StopIteration, ValueError, RecursionError):
        end = -1
    if end != len(text):
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


def require_numbers(doc: Mapping[str, Any], key: str) -> list:
    """doc[key], which must be a list whose nested leaves are all JSON
    numbers: numpy would read a string or a bool among them as a number."""
    value = require(doc, key, list)
    pending = [value]
    while pending:  # a loop, not recursion: the JSON may nest as deep as the decoder allows
        item = pending.pop()
        if type(item) is list:
            pending.extend(item)
        elif type(item) is not int and type(item) is not float:
            raise MalformedDocument(f"key {key!r} must hold only numbers, got {type(item).__name__}")
    return value


def jsonl_lines(text: str, first_line: int = 1) -> Iterator[tuple[int, str]]:
    """(number, line) for every non-blank line of text, numbered from
    first_line: the lines that parse_jsonl parses. Lines end at "\\n" only:
    json_string leaves U+2028 and the other characters at which
    str.splitlines also breaks unescaped."""
    return ((number, line) for number, line in enumerate(text.split("\n"), first_line) if line.strip())


def parse_jsonl(text: str, parse: Callable[[Any], Any], name: str, first_line: int = 1) -> list[Any]:
    """parse applied to the JSON value of every line of jsonl_lines(text,
    first_line); a MalformedDocument, for invalid JSON or from parse, names
    the line. A part of a file that starts at its line first_line gives the
    numbers the whole file would."""
    parsed = []
    for number, line in jsonl_lines(text, first_line):
        try:
            parsed.append(parse(_json_value(line)))
        except MalformedDocument as exc:
            raise MalformedDocument(f"{name} line {number}: {exc}") from None
    return parsed


# The scalars of a JSONL line, as json writes them with ensure_ascii=False:
# a string by json's own escaper, which leaves every non-ASCII character
# as it is, and an int by int.__repr__.
json_string = encode_basestring
json_int = int.__repr__


def json_float(value: float) -> str:
    """value as json writes a number with allow_nan=False: a float by
    float.__repr__, and an int, which a time built in code may be, by
    int.__repr__. NaN and the infinities raise json's ValueError."""
    if not math.isfinite(value):
        raise ValueError("Out of range float values are not JSON compliant")
    return float.__repr__(value) if isinstance(value, float) else int.__repr__(value)


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


T = TypeVar("T")


@contextmanager
def in_child(compute: Callable[[], T], what: str) -> Iterator[Callable[[], T]]:
    """Starts compute() in a forked child, so that it runs on a second CPU
    while the caller goes on, and yields a function that returns its value
    or raises its error again, as the same class with the same message.
    The child is started whenever os.fork exists and two or more CPUs are
    usable; otherwise, or when the pipe or the fork fails, that function
    calls compute() in this process. A child that ends without a result
    makes it raise EventProbeError("<what> ended without a result"). On
    exit the child is stopped, if it still runs, and reaped.
    The modules only a fork needs are imported here, so that a command
    that never forks does not pay for them."""
    pid = -1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2:
        import fcntl
        import pickle  # noqa: F401  loaded before the fork, for _send and _receive
        import signal

        try:
            read_fd, write_fd = os.pipe()
        except OSError:  # out of descriptors: compute in this process, as when fork fails
            pass
        else:
            # A value that fits the pipe lets the child exit as soon as it is
            # computed, and pages it shares with this process stop costing a
            # copy on write. Linux allows 1 MiB without privileges.
            with suppress(AttributeError, OSError):
                fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 1 << 20)
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
    if pid < 0:
        yield compute
        return
    if pid == 0:
        os.close(read_fd)
        _send(compute, write_fd)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            yield lambda: _receive(pipe, what)
    finally:
        # A child whose value was never taken may still be computing; a
        # finished one is a zombie until reaped, and the kill is a no-op.
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _through(steps: Sequence[Callable[[Any], Any]], item: Any) -> tuple[int, Any]:
    """(len(steps), the value) when each step in turn, applied to item and
    then to the last step's value, returns; else (i, the error) at the
    first step i that raises."""
    for index, step in enumerate(steps):
        try:
            item = step(item)
        except Exception as exc:
            return index, exc
    return len(steps), item


def in_halves(halves: tuple[Any, Any], steps: Sequence[Callable[[Any], Any]], what: str) -> tuple[Any, Any]:
    """The values of steps applied in turn to each of two halves of a
    command's input, in order. The second half's come from in_child, while
    this process computes the first half's.
    An error ends the command as one pass over the whole input would end
    it: the error of the earliest step wins, and at one step the first
    half's."""
    with in_child(partial(_through, steps, halves[1]), what) as take:
        step, value = _through(steps, halves[0])
        # An error at the first step wins before the child's outcome is known.
        their_step, their_value = take() if step else (len(steps), None)
    if min(step, their_step) < len(steps):
        raise value if step <= their_step else their_value
    return value, their_value


def _send(compute: Callable[[], object], write_fd: int) -> NoReturn:
    """The child: pickles (True, value) or (False, error) to the pipe and
    exits without returning into its parent's stack."""
    import pickle

    try:
        with os.fdopen(write_fd, "wb") as pipe:
            try:
                outcome = (True, compute())
            except Exception as exc:
                outcome = (False, exc)
            pickle.dump(outcome, pipe, protocol=5)
    finally:
        os._exit(0)


def _receive(pipe: BinaryIO, what: str):
    """What _send wrote: the value, or its error raised. No caller sends a
    score matrix: eval's child sends the ranks of its pools instead, 31 KB
    for 2,000 pairs. An array still costs this process one copy only:
    protocol 5 writes its memory as one bytearray frame, which the
    unpickler reads straight into the bytearray the array keeps."""
    import pickle

    try:
        ok, value = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise EventProbeError(f"{what} ended without a result") from None
    if not ok:
        raise value
    return value
