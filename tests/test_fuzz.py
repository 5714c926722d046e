"""A bounded fuzzer over every reader.

Each input starts as one valid document. The fuzzer replaces one or two of
its subtrees (JSON) or cells (CSV) with a fault and runs the command that
reads it: `main` must return 0 or a documented exit code, never raise, and
on a non-zero code print one `error:` line, which names the file when the
code is the input's malformed code.
"""

import copy
import csv
import io
import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eventprobe.cli import main

from .test_documents import Workspace

# JSON text for a fault; each replaces one subtree of a document. A valid
# surrogate pair is among them: beside a `1e999` it once crashed the check
# for lone surrogates.
JSON_TOKENS = {
    "null": "null",
    "true": "true",
    "zero": "0",
    "empty-list": "[]",
    "empty-object": "{}",
    "deep-nesting": "[" * 100_000 + "]" * 100_000,
    "huge-integer": "1" * 5_001,
    "integer-past-float-range": "9" * 400,
    "float-past-float-range": "1e999",
    "lone-surrogate": '"\\ud800"',
    "surrogate-pair": '"\\ud83d\\ude00"',
    "nan": "NaN",
    "empty-string": '""',
    "numeric-string": '"0.5"',
}
# CSV text for a fault; each replaces one cell, the header's included.
CSV_TOKENS = {
    "true": "true",
    "word": "high",
    "huge-integer": "1" * 5_001,
    "integer-past-float-range": "9" * 400,
    "lone-surrogate": "\ud800",  # written with surrogatepass, so the file is not UTF-8
    "nan": "nan",
    "empty": "",
    "over-limit": "x" * 131_073,  # one character past csv's default field size limit
}
REPEATED_KEY = "repeated-key"  # an object's first key written again, last, with the value null

BATCH = {"V": [[0.1, 0.2], [0.3, 0.1]], "T": [[0.3, 0.1], [0.2, 0.4]],
         "G": [[[0.2, 0.1]], [[0.4, 0.3]]], "tau": 0.1, "beta": 0.5}
RECALLS = "category,direction,k,pool,value\nc,T2V,1,positive,0.5\nc,T2V,1,control,0.25\n"


def subtrees(value, path=()):
    """The path of every subtree of a JSON value, the root's first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from subtrees(item, (*path, key))


def json_with_faults(doc, faults):
    """doc as JSON text with each (path, fault) applied in turn: the subtree
    at path replaced by the fault's text, or for REPEATED_KEY, the first key
    of the object at path written again, last, with a `null` value. A path
    that an earlier fault replaced is skipped."""
    doc = copy.deepcopy(doc)
    tokens = {}
    for index, (path, fault) in enumerate(faults):
        marker = f"\x00fault{index}"
        nodes = [doc]  # the root, then each node on the path
        for key in path:
            if not isinstance(nodes[-1], (dict, list)):
                break
            nodes.append(nodes[-1][key])
        if len(nodes) <= len(path):
            continue
        if fault == REPEATED_KEY:
            if isinstance(nodes[-1], dict) and nodes[-1]:
                nodes[-1][marker] = None
                tokens[json.dumps(marker) + ": "] = json.dumps(next(iter(nodes[-1]))) + ": "
            continue
        if path:
            nodes[-2][path[-1]] = marker
        else:
            doc = marker
        tokens[json.dumps(marker)] = JSON_TOKENS[fault]
    text = json.dumps(doc)
    for marker, token in tokens.items():
        text = text.replace(marker, token)
    return text


@st.composite
def json_document(draw, text):
    """The JSON document text with one or two faults."""
    doc = json.loads(text)
    paths = list(subtrees(doc))
    faults = draw(st.lists(st.tuples(st.sampled_from(paths), st.sampled_from([*JSON_TOKENS, REPEATED_KEY])),
                           min_size=1, max_size=2))
    return json_with_faults(doc, faults).encode("utf-8")


@st.composite
def jsonl_document(draw, text):
    """The JSONL text with one or two faults in its first line."""
    first, rest = text.split("\n", 1)
    return draw(json_document(first)) + b"\n" + rest.encode("utf-8")


@st.composite
def csv_document(draw, text):
    """The CSV text with one or two cells replaced by faults."""
    rows = list(csv.reader(io.StringIO(text)))
    for _ in range(draw(st.integers(1, 2))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = CSV_TOKENS[draw(st.sampled_from(list(CSV_TOKENS)))]
    return "".join(",".join(row) + "\n" for row in rows).encode("utf-8", "surrogatepass")


def run_argv(ws):
    return ["run", "--config", str(ws.config)]


# input: (the file, the command that reads it, its format, its malformed
# code, the other codes a fault may end in). A config names other files, so
# a path in it that names nothing ends in that file's missing code: profile
# 3, corpus 6, templates 7. A profile left with no categories produces no
# pairs: 6. A benchmark or score CSV whose ids no longer match the other's
# ends in 8.
INPUTS = {
    "config": (lambda ws: ws.config, run_argv, json_document, 2, {3, 6, 7}),
    "profile": (lambda ws: ws.profile, run_argv, json_document, 4, {6}),
    "corpus": (lambda ws: ws.corpus / "kitchen.json", run_argv, json_document, 4, set()),
    "loss-selftest": (lambda ws: ws.tmp / "batch.json",
                      lambda ws: ["loss-selftest", "--input", str(ws.tmp / "batch.json")], json_document, 4, set()),
    "eval-benchmark": (lambda ws: ws.tmp / "bench.jsonl", Workspace.eval_argv, jsonl_document, 4, {8}),
    "eval-scores": (lambda ws: ws.tmp / "scores.csv", Workspace.eval_argv, csv_document, 4, {8}),
    "gap-report": (lambda ws: ws.tmp / "recalls.csv",
                   lambda ws: ["gap-report", "--recalls", str(ws.tmp / "recalls.csv"), "--out", str(ws.tmp / "reports")],
                   csv_document, 4, set()),
}


@pytest.mark.parametrize("name", INPUTS)
@settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture,
                                                  HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_a_fault_in_any_reader_ends_in_its_exit_code(tmp_path, fixtures_dir, capsys, monkeypatch, name, data):
    target_of, reach, document, malformed_code, other_codes = INPUTS[name]
    shutil.rmtree(tmp_path)
    tmp_path.mkdir()
    # A config fault can turn a path into one relative to the working
    # directory, so the command runs in the workspace.
    monkeypatch.chdir(tmp_path)
    ws = Workspace(tmp_path, fixtures_dir)
    target = target_of(ws)
    if name == "loss-selftest":
        target.write_text(json.dumps(BATCH), encoding="utf-8")
    if name == "gap-report":
        target.write_text(RECALLS, encoding="utf-8")
    argv = reach(ws)
    shutil.rmtree(ws.out, ignore_errors=True)
    target.write_bytes(data.draw(document(target.read_text(encoding="utf-8")), label="document"))
    capsys.readouterr()

    code = main(argv)

    err = capsys.readouterr().err
    assert code in {0, malformed_code, *other_codes}, err
    if code:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    if code == malformed_code:
        # A profile fault may instead leave a corpus file with a value the
        # profile no longer licenses.
        assert str(target) in err or (name == "profile" and str(ws.corpus) in err), err


@pytest.mark.parametrize("order, code", [("fault-first", 0), ("fault-last", 2)])
def test_a_repeated_key_keeps_its_last_value(tmp_path, fixtures_dir, capsys, order, code):
    # JSON leaves a repeated key's meaning open; every reader keeps the
    # last value, as Python's decoder does.
    ws = Workspace(tmp_path, fixtures_dir)
    valid = ws.config.read_text(encoding="utf-8")
    fault = '"global_seed": "x"'
    text = valid.replace("{", "{" + fault + ", ", 1) if order == "fault-first" else valid.replace("}", ", " + fault + "}")
    ws.config.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(ws.config)]) == code
    err = capsys.readouterr().err
    assert err == ("" if code == 0 else f"error: malformed config: key 'global_seed' must be int (config file {ws.config})\n")
