"""Every file input of the eventprobe command, with every kind of fault.

Each input is missing, a directory, empty (a benchmark file), not UTF-8,
not JSON (or not the CSV it should be), not a JSON object, a document with
a field of the wrong type, or a well-formed document holding a value the
contract forbids. Every case must end in the documented exit code with one
`error:` line that names the file and nothing on stdout, and a failed
command must leave its output directory as it was, or not create it.
"""

import ast
import io
import json
import math
import random
import shutil
from dataclasses import replace
from pathlib import Path
from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

import eventprobe
from eventprobe import documents, errors
from eventprobe.captions import Caption, CaptionPair, default_templates, pairs_from_jsonl, pairs_to_jsonl, render_pair
from eventprobe.cli import main
from eventprobe.manipulate import _derived, apply_corpus, records_from_jsonl, records_to_jsonl
from eventprobe.scene_graph import (
    EntityRef,
    EventTuple,
    SceneGraph,
    TimeInterval,
    graphs_from_jsonl,
    graphs_to_jsonl,
)

from .helpers import (
    PROFILE,
    Workspace,
    attr,
    json_line,
    outputs,
    pair_to_doc,
    pred,
    random_profile_corpus,
    record_to_doc,
    scene_graph_to_doc,
)


def edited(text, changes):
    """The JSON object in text with changes applied; a callable change maps
    the old value to the new one."""
    doc = json.loads(text)
    for key, value in changes.items():
        doc[key] = value(doc[key]) if callable(value) else value
    return json.dumps(doc)


def edit_json(**changes):
    """A fault: the target's JSON object with a field of the wrong type."""
    return lambda path: edited(path.read_text(encoding="utf-8"), changes).encode()


def edit_first_line(**changes):
    """The same for the first line of a JSONL target."""

    def fault(path):
        first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
        return (edited(first, changes) + "\n" + "".join(rest)).encode()

    return fault


def spell(fault, value, token):
    """fault's bytes with the JSON value value spelt as token instead, for
    a token such as 1e999 that json.dumps never writes."""
    return lambda path: fault(path).replace(json.dumps(value).encode(), token.encode(), 1)


def over_limit_row(path):
    """The score CSV with its first row's id past csv's field size limit and
    its first score not a number."""
    header, first, rest = path.read_bytes().split(b"\n", 2)
    scores = first.split(b",", 2)[2:]
    return b"\n".join([header, b",".join([OVER_LIMIT, b"high", *scores]), rest])


def edit_corpus(**changes):
    """A corpus file: the kitchen fixture, renamed, with changes applied."""

    def fault(path):
        return edited((path.parent / "kitchen.json").read_text(encoding="utf-8"),
                      {"video_id": "broken", **changes}).encode()

    return fault


def first_tuple(**changes):
    return lambda tuples: [{**tuples[0], **changes}, *tuples[1:]]


def batch(**fields):
    """A self-test document: a one-item batch with fields laid over it."""
    return json.dumps({"V": [[0.1, 0.2]], "T": [[0.3, 0.1]], **fields}).encode()


class Says(NamedTuple):
    """A fault whose error line must hold message."""

    message: str
    content: Any


# The last two are valid JSON text that Python's decoder still rejects, with
# a RecursionError and a ValueError rather than a JSONDecodeError.
JSON_FAULTS = {
    "not-utf8": b'{"name": "caf\xe9"}',
    "invalid-json": b"{not json",
    "not-an-object": b"[1, 2]\n",
    "deep-nesting": b'{"a": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    "huge-integer": b'{"a": ' + b"1" * 5_001 + b"}",
}
# A self-test document in JSON's other encodings, which json.loads detects
# but no eventprobe input takes, from a file or from stdin.
BATCH = {"V": [[1.0]], "T": [[1.0]]}
OTHER_ENCODINGS = {"utf8-bom": "utf-8-sig", "utf16": "utf-16"}
OVER_LIMIT = b"x" * 131_073  # one character past csv's default field size limit
CSV_FAULTS = {"not-utf8": b"video_id,caf\xe9\n", "bad-header": b"nope,c1\nv,0.5\n",
              "header-field-over-limit": b"video_id," + OVER_LIMIT + b"\nv,0.5\n"}
# What the error line says of a fault of these kinds, in every input.
FAULT_WORDS = {"not-utf8": "not UTF-8", "invalid-json": "invalid JSON"}

# input: (how to reach it, the file, exit code when missing, when malformed,
# whether JSON_FAULTS apply, else CSV_FAULTS)
INPUTS = {
    "config": (lambda ws: ws.command("run"), lambda ws: ws.config, 2, 2, True),
    "profile": (lambda ws: ws.command("run"), lambda ws: ws.profile, 3, 4, True),
    "templates": (lambda ws: ws.command("ingest", "probe", "render"), lambda ws: ws.templates, 7, 4, True),
    "corpus": (lambda ws: ws.command("run"), lambda ws: ws.corpus / "broken.json", 6, 4, True),
    "graphs.jsonl": (lambda ws: ws.command("ingest", "probe"), lambda ws: ws.out / "graphs.jsonl", 6, 4, True),
    "records.jsonl": (lambda ws: ws.command("ingest", "probe", "render"), lambda ws: ws.out / "records.jsonl",
                      6, 4, True),
    "benchmark.jsonl": (lambda ws: ws.command("ingest", "probe", "render", "emit"),
                        lambda ws: ws.out / "benchmark.jsonl", 6, 4, True),
    "loss-selftest": (lambda ws: ["loss-selftest", "--input", str(ws.tmp / "batch.json")],
                      lambda ws: ws.tmp / "batch.json", 6, 4, True),
    "eval-benchmark": (lambda ws: ws.eval_argv(), lambda ws: ws.benchmark, 6, 4, True),
    "eval-scores": (lambda ws: ws.eval_argv(), lambda ws: ws.scores, 6, 4, False),
    "eval-scores-control": (lambda ws: ws.eval_argv(), lambda ws: ws.scores_control, 6, 4, False),
    "gap-report": (lambda ws: ["gap-report", "--recalls", str(ws.tmp / "recalls.csv"), "--out", str(ws.tmp / "reports")],
                   lambda ws: ws.tmp / "recalls.csv", 6, 4, False),
}

ACTION = "temporal.predicate.Action"
COLOR = "counterfactual.attribute.Color"
MALFORMED_CONFIG = "error: malformed config"


def color_positive(pattern):
    """The template table with COLOR's positive pattern replaced."""
    return edit_json(templates=lambda t: {**t, COLOR: {**t[COLOR], "positive": pattern}})


LONE = "\ud800"  # json.dumps writes it as the escape \ud800, which no UTF-8 text holds
PAIR = "broken\U0001F600"  # json.dumps writes the emoji as the valid pair \ud83d\ude00
HUGE = b"9" * 401  # an integer past the float range
WIDE = b"category,direction,k,p,p_control\n"
LONG = b"category,direction,k,pool,value\n"

# Each input's own faults: a document with a field missing or of the wrong
# type, or a well-formed one with a value out of contract: a config value of
# the right JSON type but the wrong kind, NaN or Infinity anywhere (Python's
# json reads them, RFC 8259 has no such numbers), a number too large for a
# float, a lone surrogate escape in a string the input otherwise accepts, an
# empty or repeated id, a recall row `eval` never writes, or numbers whose
# loss or gap is past the float range. A fault named as one of every input
# replaces it, to say what its error line holds.
FAULTS = {
    "config": {
        "templates-path-list": edit_json(templates_path=["t.json"]),
        "templates-path-empty": Says("key 'templates_path' must name a file, got an empty string",
                                    edit_json(templates_path="")),
        "seed-not-a-number": edit_json(global_seed="x"),
        "seed-fraction": edit_json(global_seed=1.5),
        "seed-true": edit_json(global_seed=True),
        "seed-numeric-string": edit_json(global_seed="7"),
        "seed-nan": edit_json(global_seed=math.nan),
        "quota-negative": edit_json(quotas={ACTION: -5}),
        "quota-fraction": edit_json(quotas={ACTION: 2.9}),
        "quota-true": edit_json(quotas={ACTION: True}),
        "quota-not-integer": Says(MALFORMED_CONFIG, edit_json(quotas={ACTION: "many"})),
        "categories-repeated": edit_json(categories=[ACTION, "temporal.attribute.Color", ACTION]),
        "force-string": edit_json(force="false"),
        "output-dir-null": edit_json(output_dir=None),
        "profile-path-null": edit_json(profile_path=None),
        "input-glob-number": edit_json(input_glob=5),
        "unknown-key-quota": Says(MALFORMED_CONFIG, edit_json(quota={ACTION: 1})),
        "unknown-key-template-path": Says(MALFORMED_CONFIG, edit_json(template_path="templates.json")),
        "decorator-unknown-key": Says(MALFORMED_CONFIG, edit_json(decorator={"enable": True})),
        "decorator-enabled-string": Says(MALFORMED_CONFIG, edit_json(decorator={
            "enabled": "false", "endpoint": "http://localhost:9", "api_key_env": "PROBE_KEY"})),
        "decorator-endpoint-number": edit_json(decorator={"endpoint": 5}),
        "decorator-model-name-list": edit_json(decorator={"model_name": ["m"]}),
        "decorator-api-key-env-true": edit_json(decorator={"api_key_env": True}),
        "decorator-temperature-string": edit_json(decorator={"temperature": "0.2"}),
        "decorator-timeout-string": Says(MALFORMED_CONFIG, edit_json(decorator={"timeout_s": "10"})),
        "decorator-timeout-overflow": spell(edit_json(decorator={"timeout_s": 10.5}), 10.5, "1e999"),
        "decorator-timeout-integer-overflow": spell(edit_json(decorator={"timeout_s": 10.5}), 10.5, "9" * 400),
        "decorator-max-candidates-word": Says(MALFORMED_CONFIG, edit_json(decorator={"max_candidates": "ten"})),
        "decorator-max-candidates-zero": edit_json(decorator={"max_candidates": 0}),
        "decorator-max-candidates-fraction": edit_json(decorator={"max_candidates": 2.5}),
        "categories-object": Says(MALFORMED_CONFIG, edit_json(categories={ACTION: 1})),
        "categories-number": edit_json(categories=[ACTION, 5]),
        "quotas-list": edit_json(quotas=[]),
        "quotas-zero": edit_json(quotas=0),
        "decorator-false": edit_json(decorator=False),
        "decorator-list": edit_json(decorator=[]),
        "lone-surrogate": edit_json(decorator={"model_name": "m" + LONE}),
        "timeout-overflow-beside-pair": spell(edit_json(decorator={"model_name": PAIR, "timeout_s": 10.5}),
                                              10.5, "1e999"),
    },
    "profile": {
        "predicate-types-string": edit_json(predicate_types="Action"),
        "vocab-value-string": edit_json(vocab=lambda v: {**v, "Color": "red"}),
        "category-object-lacks-key": edit_json(categories=[{"method": "temporal", "target": "predicate"}]),
        "name-nan": edit_json(name=math.nan),
        "categories-repeated": edit_json(categories=lambda c: [
            *c, {"method": "temporal", "target": "predicate", "fine_type": "Action"}]),
        "lone-surrogate": edit_json(name="probe" + LONE),
        "category-key-two-parts": edit_json(categories=["temporal.predicate"]),
        "category-target-unknown": edit_json(categories=["temporal.object.Action"]),
        "category-fine-type-empty": edit_json(categories=["temporal.predicate."]),
        "category-number": edit_json(categories=[5]),
        "vocab-value-repeated": edit_json(vocab=lambda v: {**v, "Color": ["red", "red"]}),
        "no-types": edit_json(predicate_types=[], attribute_types=[], vocab={}),
    },
    # A pattern that would fail to render whatever its slots hold: a brace
    # out of place, a format spec or conversion a string does not take, a
    # slot in a format spec, whose value would become the spec, or no text at
    # all. The two slot-spec rows render with every slot empty.
    "templates": {
        "missing": Says("template file not found", None),
        "templates-list": edit_json(templates=[]),
        "connectives-number": edit_json(connectives=5),
        "connectives-infinity": edit_json(connectives=math.inf),
        "pattern-number": edit_json(templates=lambda t: {**t, ACTION: {"positive": 5, "negative": "x"}}),
        "pattern-open-brace": color_positive("the {subject is {subject_attr}"),
        "pattern-close-brace": color_positive("the {subject} is {subject_attr}}"),
        "pattern-integer-spec": color_positive("the {subject:d} is {subject_attr}"),
        "pattern-unknown-conversion": color_positive("the {subject!x} is {subject_attr}"),
        "pattern-slot-spec": color_positive("the {subject:{subject_attr}}"),
        "pattern-slot-in-spec": color_positive("the {subject:{subject_attr}>5}"),
        "pattern-empty": Says("'t1.counterfactual.attribute.Color.positive': pattern is empty", color_positive("")),
        "lone-surrogate": edit_json(connectives=lambda c: {**c, "negative": "while" + LONE}),
        "patterns-list": edit_json(templates=lambda t: {**t, ACTION: [t[ACTION]["positive"]]}),
        "negative-pattern-absent": edit_json(templates=lambda t: {**t, ACTION: {"positive": t[ACTION]["positive"]}}),
    },
    "corpus": {
        "missing-key": Says("missing key", b'{"video_id": "v"}'),
        "video-id-number": lambda path: json.dumps({"video_id": 5}).encode(),
        "duration-nan": edit_corpus(duration_s=math.nan),
        "duration-overflow": spell(edit_corpus(duration_s=120.0), 120.0, "1e999"),
        "duration-integer-overflow": spell(edit_corpus(duration_s=120.0), 120.0, "9" * 400),
        "end-infinity": edit_corpus(tuples=first_tuple(time={"start_s": 2.0, "end_s": math.inf})),
        "video-id-empty": edit_corpus(video_id=""),
        "tuple-id-empty": edit_corpus(tuples=first_tuple(tuple_id="")),
        "video-id-repeated": edit_corpus(video_id="kitchen"),
        "value-out-of-vocabulary": edit_corpus(tuples=first_tuple(predicate={"value": "juggles", "pred_type": "Action"})),
        "lone-surrogate": edit_corpus(video_id="kitchen" + LONE),
        "duration-overflow-beside-pair": spell(edit_corpus(video_id=PAIR, duration_s=120.0), 120.0, "1e999"),
        "tuple-number": edit_corpus(tuples=lambda tuples: [5, *tuples[1:]]),
        "attribute-string": edit_corpus(tuples=first_tuple(object_attrs=["brown"])),
        "time-number": edit_corpus(tuples=first_tuple(time=5)),
    },
    "graphs.jsonl": {
        "duration-string": edit_first_line(duration_s="long"),
        "duration-nan": edit_first_line(duration_s=math.nan),
        "start-minus-infinity": edit_first_line(tuples=first_tuple(time={"start_s": -math.inf, "end_s": 1.0})),
        "tuple-id-empty": edit_first_line(tuples=first_tuple(tuple_id="")),
        "video-id-repeated": edit_first_line(video_id="kitchen"),
        "lone-surrogate": edit_first_line(video_id=lambda v: v + LONE),
        "duration-overflow-beside-pair": spell(edit_first_line(video_id=PAIR, duration_s=120.0), 120.0, "1e999"),
    },
    "records.jsonl": {
        "invalid-json": Says("records.jsonl line 1: invalid JSON", JSON_FAULTS["invalid-json"]),
        "format-1": Says("not a format-2 record", edit_first_line(format=1)),
        "no-format": Says("not a format-2 record", lambda path: path.read_bytes().replace(b'{"format":2,', b"{", 1)),
        "record-id-only": Says("not a format-2 record", b'{"record_id": "x"}\n'),
        "unknown-video": Says("'no-such-video'", edit_first_line(video_id="no-such-video")),
        "unknown-tuple": Says("tuple 'nope' is not in video", edit_first_line(
            manipulated=first_tuple(tuple_id="nope"), source_tuple_ids=["nope"])),
        "source-ids-mismatch": Says("source_tuple_ids", edit_first_line(source_tuple_ids=["nope", 7])),
        "unknown-field": Says("'subject' is not a changeable field",
                              edit_first_line(manipulated=first_tuple(subject="e1"))),
        "malformed-field-value": Says("'start_s' must be a number", edit_first_line(
            manipulated=first_tuple(time={"start_s": "soon", "end_s": 1.0}))),
        "inverted-interval": Says("invalid interval", edit_first_line(
            manipulated=first_tuple(time={"start_s": 2.0, "end_s": 1.0}))),
        "unchanged": Says("left a tuple unchanged", edit_first_line(
            manipulated=lambda changes: [{"tuple_id": change["tuple_id"]} for change in changes])),
        "no-tuples": Says("holds no tuple", edit_first_line(manipulated=[], source_tuple_ids=[])),
        # The first record is a temporal one of focker's m1 and m4.
        "temporal-three-tuples": Says("records.jsonl line 1: a temporal record holds 2 tuples, not 3", edit_first_line(
            manipulated=lambda changes: [*changes, {"tuple_id": "m3", "time": {"start_s": 80.0, "end_s": 85.0}}],
            source_tuple_ids=lambda ids: [*ids, "m3"])),
        "counterfactual-two-tuples": Says("records.jsonl line 1: a counterfactual record holds 1 tuple, not 2",
                                          edit_first_line(category="counterfactual.predicate.Action")),
        "seed-string": Says("'seed' must be int", edit_first_line(seed="7")),
        "seed-bool": Says("records.jsonl line 1: key 'seed' must be int", edit_first_line(seed=True)),
        "seed-nan": edit_first_line(seed=math.nan),
        "pool-size-bool": Says("records.jsonl line 1: key 'pool_size' must be int", edit_first_line(pool_size=False)),
        "lone-surrogate": edit_first_line(record_id=lambda r: r + LONE),
    },
    "benchmark.jsonl": {
        "empty": b"",  # a file without a line is as empty as a missing one
        "not-an-object": Says("JSON object", JSON_FAULTS["not-an-object"]),
        "missing-field": Says("missing key", b'{"nope": 1}\n'),
        "pair-id-number": edit_first_line(pair_id=5),
        "pair-id-infinity": edit_first_line(pair_id=math.inf),
        "lone-surrogate": edit_first_line(pair_id=lambda p: p + LONE),
    },
    "loss-selftest": {
        "not-an-object": Says("JSON object", JSON_FAULTS["not-an-object"]),
        **{name: json.dumps(BATCH).encode(encoding) for name, encoding in OTHER_ENCODINGS.items()},
        "missing-V": Says("'V'", b'{"T": [[0.1, 0.2]]}'),
        "V-number": lambda path: b'{"V": 5, "T": [[0.1]]}',
        "V-one-dimensional": Says("must be 2-d", batch(V=[0.1, 0.2], T=[0.3, 0.1])),
        "V-empty": Says("at least one item and one dimension", batch(V=[[]], T=[[]])),
        "ragged-V": Says("V is not", batch(V=[[0.1, 0.2], [0.3]], T=[[0.1, 0.2], [0.3, 0.4]])),
        "tau-string": Says("tau", batch(tau="a")),
        "tau-nan": lambda path: b'{"tau": NaN, "V": [[0.1]], "T": [[0.1]]}',
        "V-integer-overflow": b'{"V": [[' + HUGE + b']], "T": [[0.1]]}',
        "G-integer-overflow": b'{"V": [[0.1]], "T": [[0.1]], "G": [[[' + HUGE + b']]]}',
        "tau-integer-overflow": b'{"tau": ' + HUGE + b', "V": [[0.1]], "T": [[0.1]]}',
        "beta-integer-overflow": b'{"beta": ' + HUGE + b', "V": [[0.1]], "T": [[0.1]]}',
        "lone-surrogate": b'{"note": "\\ud800", "V": [[0.1]], "T": [[0.1]]}',
        "V-overflow-beside-pair": b'{"note": "\\ud83d\\ude00", "V": [[1e999]], "T": [[0.1]]}',
        "G-overflow": Says("G[0] has non-finite entries",
                           b'{"V": [[0.1, 0.2]], "T": [[0.3, 0.1]], "G": [[[1e999, 0.2]]]}'),
        "V-string": b'{"V": [["0.1"]], "T": [[0.1]]}',
        "T-true": b'{"V": [[0.1]], "T": [[true]]}',
        "G-string": b'{"V": [[0.1]], "T": [[0.1]], "G": [[["0.1"]]]}',
        "V-mixed-bool": b'{"V": [[0.1, true]], "T": [[0.1, 0.3]]}',
        "G-number": Says("'G' must be list", batch(G=5)),
        **{f"G-{name}": Says("'G' must be list", batch(G=G))
           for name, G in (("zero", 0), ("object", {}), ("false", False), ("empty-string", ""),
                           ("list-in-a-string", "[]"))},
        "G-too-many-entries": Says("one entry per item", batch(G=[[[0.1, 0.2]], [[0.3, 0.4]]])),
        # Finite numbers whose similarity v.t / tau is past the float range.
        "similarity-overflow": Says("overflows a float", batch(V=[[1e308, 1e308]], T=[[1e308, 1e308]])),
        "logit-overflow": Says("overflows a float", batch(V=[[1e200, 0], [0, 1]], T=[[1e200, 0], [0, 1]], tau=1e-200)),
    },
    "eval-scores": {
        "cell-not-a-number": lambda path: path.read_bytes().replace(b"0.5", b"high", 1),
        "id-over-limit-beside-high": over_limit_row,
    },
    "eval-scores-control": {"cell-not-a-number": lambda path: path.read_bytes().replace(b"0.5", b"high", 1)},
    "eval-benchmark": {
        "empty": b"",
        "invalid-json": Says("line 1: invalid JSON", JSON_FAULTS["invalid-json"]),
        "not-an-object": Says("JSON object", JSON_FAULTS["not-an-object"]),
        "missing-field": Says("line 1", b'{"nope": 1}\n'),
        "text-not-string": Says("must be strings", json.dumps({
            "pair_id": "p", "video_id": "v", "category": ACTION,
            "positive": {"text": "a"}, "negative": {"text": 5}}).encode()),
        "pair-id-number": edit_first_line(pair_id=5),
        "pair-id-nan": edit_first_line(pair_id=math.nan),
        "lone-surrogate": edit_first_line(pair_id=lambda p: p + LONE),
    },
    "gap-report": {
        "k-not-a-number": lambda path: path.read_bytes().replace(b",1,", b",one,"),
        "long-value-nan": lambda path: path.read_bytes().replace(b"0.5", b"nan", 1),
        "long-value-above-one": lambda path: path.read_bytes().replace(b"0.25", b"1.25", 1),
        "wide-p-nan": WIDE + b"c,T2V,1,nan,0.4\n",
        "wide-p-control-infinity": WIDE + b"c,T2V,1,0.5,inf\n",
        "wide-p-seven": WIDE + b"c,T2V,1,7,0.4\n",
        "wide-p-control-negative": WIDE + b"c,T2V,1,0.5,-3\n",
        "wide-delta-p-infinity": b"category,direction,k,p,p_control,delta_p\nc,T2V,1,0.5,0.4,-inf\n",
        "long-direction-unknown": lambda path: path.read_bytes().replace(b"T2V", b"T2X"),
        "long-k-zero": lambda path: path.read_bytes().replace(b",1,", b",0,"),
        "long-row-repeated": lambda path: path.read_bytes() + b"c,T2V,1,control,0.75\n",
        "wide-direction-unknown": WIDE + b"c,T2X,1,0.5,0.4\n",
        "wide-k-zero": WIDE + b"c,T2V,0,0.5,0.4\n",
        "wide-k-negative": WIDE + b"c,V2T,-5,0.5,0.4\n",
        "wide-row-repeated": WIDE + b"c,T2V,1,0.5,0.4\nc,T2V,1,0.9,0.1\n",
        "wide-category-over-limit": WIDE + OVER_LIMIT + b",T2V,1,0.5,0.4\n",
        # Recalls in [0, 1] whose gap (p - p_control) / p is past the float range.
        "wide-gap-overflow": Says("line 2: delta_p must be a finite number", WIDE + b"c,T2V,1,5e-324,1\n"),
        "long-gap-overflow": Says("delta_p must be a finite number",
                                  LONG + b"c,T2V,1,positive,5e-324\nc,T2V,1,control,1\n"),
    },
}

# A directory where the input file should be: it cannot be read as one.
DIRECTORY = "a directory"

CASES = [
    (name, fault, content)
    for name, (*_, uses_json) in INPUTS.items()
    for fault, content in {
        "missing": None,
        "directory": DIRECTORY,
        **(JSON_FAULTS if uses_json else CSV_FAULTS),
        **FAULTS[name],
    }.items()
]


@pytest.mark.parametrize("name, fault, content", CASES, ids=[f"{n}-{f}" for n, f, _ in CASES])
def test_input_fault_exit_code(tmp_path, capsys, name, fault, content):
    reach, target_of, missing_code, malformed_code, _ = INPUTS[name]
    message, content = content if isinstance(content, Says) else (FAULT_WORDS.get(fault, ""), content)
    ws = Workspace(tmp_path, templates=True)
    target = target_of(ws)
    if name == "loss-selftest":
        target.write_bytes(batch())
    if name == "gap-report":
        target.write_bytes(LONG + b"c,T2V,1,positive,0.5\nc,T2V,1,control,0.25\n")
    argv = reach(ws)
    named = str(target)
    if content is None and name == "corpus":
        for path in ws.corpus.iterdir():
            path.unlink()
        named = str(ws.corpus / "*.json")
    elif content is None:
        target.unlink(missing_ok=True)
    elif content is DIRECTORY:
        target.unlink(missing_ok=True)
        target.mkdir()
    else:
        target.write_bytes(content(target) if callable(content) else content)
    before = outputs(ws.out) if ws.out.exists() else None
    capsys.readouterr()

    code = main(argv)

    out, err = capsys.readouterr()
    assert code == (missing_code if content is None or fault == "empty" else malformed_code), err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and named in err and message in err, err
    assert out == ""
    # A failed command neither creates its output directory nor changes it.
    assert (outputs(ws.out) if ws.out.exists() else None) == before
    assert not (tmp_path / "reports").exists()


def test_a_pattern_that_formats_every_slot_renders(tmp_path, capsys):
    ws = Workspace(tmp_path, templates=True)
    ws.templates.write_bytes(color_positive("the {subject!r} is {subject_attr}")(ws.templates))
    assert main(["run", "--config", str(ws.config)]) == 0, capsys.readouterr().err
    pairs = [json.loads(line) for line in (ws.out / "benchmark.jsonl").read_text(encoding="utf-8").splitlines()]
    positives = [pair["positive"]["text"] for pair in pairs if pair["category"] == COLOR]
    assert positives and all(text.startswith("the '") for text in positives), positives


@pytest.mark.parametrize("encoding, code", [("utf-8", 0), *((e, 4) for e in OTHER_ENCODINGS.values())],
                         ids=["utf8", *OTHER_ENCODINGS])
def test_stdin_is_decoded_as_files_are(monkeypatch, capsys, encoding, code):
    """loss-selftest reads stdin as UTF-8, as it reads its --input file."""
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(json.dumps(BATCH).encode(encoding))))
    assert main(["loss-selftest"]) == code
    err = capsys.readouterr().err
    assert err == "" if code == 0 else len(err.splitlines()) == 1 and err.startswith("error: stdin: "), err


def test_repeated_video_id_names_both_files_and_the_line(ws, capsys):
    kitchen, again = ws.corpus / "kitchen.json", ws.corpus / "again.json"
    shutil.copy(kitchen, again)
    assert main(["ingest", "--config", str(ws.config)]) == 4
    err = capsys.readouterr().err
    assert str(again) in err and str(kitchen) in err, err
    assert not ws.out.exists() or not (ws.out / "graphs.jsonl").exists()
    graph = SceneGraph("v", 1.0, (), ())
    with pytest.raises(errors.MalformedDocument, match="graphs.jsonl line 2: video_id 'v'"):
        graphs_from_jsonl(graphs_to_jsonl([graph, graph]), "graphs.jsonl")


def test_jsonl_lines_break_only_at_newline(kitchen, profile):
    """No writer escapes U+2028 or NEL; a reader splitting at every line
    boundary str.splitlines knows would cut such a line."""
    graph = SceneGraph("v\x85", 1.0, (EntityRef("e1", "a\u2028b"),), ())
    video = replace(kitchen, video_id="v\x85")
    record = apply_corpus([video], profile, {}, 7)[0]._replace(record_id="r\u2028")
    pair = CaptionPair(record.record_id, video.video_id, record.category,
                       Caption("a\u2028b", "template"), Caption("a\x85b", "template"))
    for text, read, values in (
        (graphs_to_jsonl([graph]), lambda text: graphs_from_jsonl(text, "graphs.jsonl"), [graph]),
        (records_to_jsonl([record]), lambda text: records_from_jsonl(text, [video], "records.jsonl"), [record]),
        (pairs_to_jsonl([pair]), lambda text: pairs_from_jsonl(text, "benchmark.jsonl"), [pair]),
    ):
        assert text.count("\n") == 1 and "\u2028" in text and "\x85" in text
        assert read(text) == values


# Characters json escapes, or leaves as they are although a reader might
# not expect it, and times whose shortest repr is exponent, subnormal or
# signed.
ODD_CHARACTERS = ('"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\x85", "\U0001f600", "\u00e9", "a")
ODD_TIMES = (-0.0, 0.0, 5e-324, 1e-7, 1.5, 1e16)


def odd_graph(graph: SceneGraph, rng: random.Random) -> SceneGraph:
    """graph with odd characters in front of every id, name and value, and
    odd times; each id stays unique, as it ends in its old digit."""

    def odd() -> str:
        return "".join(rng.choices(ODD_CHARACTERS, k=rng.randint(0, 4)))

    def values(attrs):
        return tuple(attr(odd() + a.value, a.attr_type) for a in attrs)

    entities = {e.entity_id: EntityRef(odd() + e.entity_id, odd(), rng.choice((None, odd())))
                for e in graph.entities}
    tuples = []
    for t in graph.tuples:
        start, end = sorted(rng.choices(ODD_TIMES, k=2))
        tuples.append(EventTuple(
            odd() + t.tuple_id, entities[t.subject.entity_id], values(t.subject_attrs),
            None if t.predicate is None else pred(odd() + t.predicate.value, t.predicate.pred_type),
            None if t.object is None else entities[t.object.entity_id], values(t.object_attrs),
            TimeInterval(start, end),
        ))
    return SceneGraph(odd() + graph.video_id, 1e16, tuple(entities.values()), tuple(tuples))


@settings(max_examples=25)
@given(st.integers(0, 2**32))
def test_each_writer_writes_what_json_dumps_writes(seed):
    rng = random.Random(seed)
    graphs = [odd_graph(graph, rng) for graph in random_profile_corpus(rng, PROFILE, 2)]
    records = apply_corpus(graphs, PROFILE, {}, seed)
    templates = default_templates()
    pairs = [render_pair(record, templates) for record in records]
    for writer, oracle, read, values in (
        (graphs_to_jsonl, scene_graph_to_doc, lambda text: graphs_from_jsonl(text, "graphs.jsonl"), graphs),
        (records_to_jsonl, record_to_doc, lambda text: records_from_jsonl(text, graphs, "records.jsonl"), records),
        (pairs_to_jsonl, pair_to_doc, lambda text: pairs_from_jsonl(text, "benchmark.jsonl"), pairs),
    ):
        text = writer(values)
        assert text.split("\n") == "".join(json_line(oracle(value)) for value in values).split("\n")
        assert read(text) == values
    assert records and pairs


def decoded_once(text):
    """The reference for _json_value: the value of one decode call, or its
    error, then the lone surrogate check."""
    try:
        value = documents._DECODER.decode(text)
    except (ValueError, RecursionError) as exc:
        raise errors.MalformedDocument(f"invalid JSON: {exc}") from None
    if documents._SURROGATE_ESCAPE.search(text):
        try:
            documents._SURROGATE_CHECK.encode(value).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise errors.MalformedDocument(f"invalid JSON: lone surrogate {exc.object[exc.start]!r}") from None
    return value


def outcome(read, text):
    try:
        return "value", read(text)
    except errors.MalformedDocument as exc:
        return "error", str(exc)


DEEP = "[" * 100_000 + "]" * 100_000
DECODER_INPUTS = {
    "empty": "", "blank": "  ", "leading-spaces": '  {"a": 1}', "trailing-spaces": '{"a": 1}  ',
    "trailing-cr": '{"a": 1}\r', "trailing-newline": '{"a": 1}\n', "trailing-crlf": "[1]\r\n",
    "trailing-data": '{"a":1} x', "two-values": "1 2", "nan": "NaN", "nan-inside": '{"a": NaN}',
    "overflow": "1e999", "huge-integer": "1" * 5_001, "huge-integer-inside": '{"a": ' + "1" * 5_001 + "}",
    "deep-nesting": DEEP, "deep-nesting-trailing-space": DEEP + " ", "surrogate-pair": '"\\ud83d\\ude00"',
    "lone-surrogate": '{"a": "\\ud800"}', "truncated": '{"a": [1, 2', "string": '"text"\n',
}


@pytest.mark.parametrize("text", DECODER_INPUTS.values(), ids=DECODER_INPUTS)
def test_the_scanner_reads_what_one_decode_reads(text):
    assert outcome(documents._json_value, text) == outcome(decoded_once, text)


def test_a_lone_surrogate_on_a_later_line_names_its_line(monkeypatch):
    text = '{"a": "\\ud83d\\ude00"}\n{"b": "\\ud800"}\n'
    found = outcome(lambda text: documents.parse_jsonl(text, dict, "x.jsonl"), text)
    assert found == ("error", "x.jsonl line 2: invalid JSON: lone surrogate '\\ud800'")
    monkeypatch.setattr(documents, "_json_value", decoded_once)
    assert outcome(lambda text: documents.parse_jsonl(text, dict, "x.jsonl"), text) == found


def test_a_document_that_ends_in_a_newline_is_decoded_once(fixtures_dir, monkeypatch):
    """Trailing whitespace after a scanned value is skipped, not decoded again."""
    calls = []
    decode = documents._DECODER.decode
    monkeypatch.setattr(documents._DECODER, "decode", lambda text: calls.append(text) or decode(text))
    text = (fixtures_dir / "kitchen.json").read_text(encoding="utf-8")
    assert text.endswith("\n") and documents.parse_json(text) == json.loads(text)
    assert calls == []


@pytest.mark.parametrize("case", ["duration-nan", "time-infinity", "record-time-infinity"])
def test_a_non_finite_number_is_not_written(kitchen, profile, case):
    """A float json would refuse under allow_nan=False raises its ValueError."""
    tup = kitchen.tuples[0]
    far = _derived(tup, time=TimeInterval(1.0, math.inf))
    if case == "record-time-infinity":
        record = apply_corpus([kitchen], profile, {}, 7)[0]
        write, values = records_to_jsonl, [record._replace(original=(tup,), manipulated=(far,))]
    elif case == "duration-nan":
        write, values = graphs_to_jsonl, [replace(kitchen, duration_s=math.nan)]
    else:
        write, values = graphs_to_jsonl, [replace(kitchen, duration_s=math.inf, tuples=(far, *kitchen.tuples[1:]))]
    with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant$"):
        write(values)


def _file_access(tree):
    """(function, callee) for each call of open, or of a path's open or
    whole-file read or write method, inside a function."""
    methods = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}
    found = []
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Name) and node.func.id == "open":
                    found.append((function.name, "open"))
                elif isinstance(node.func, ast.Attribute) and node.func.attr in methods:
                    found.append((function.name, node.func.attr))
    return found


def test_only_the_document_layer_touches_files():
    # The template loader reads package data that ships with the code; every
    # file a user names goes through eventprobe.documents.
    allowed = {("captions", "default_templates")}
    package = Path(eventprobe.__file__).parent
    offenders = []
    for source in sorted(package.glob("*.py")):
        if source.stem == "documents":
            continue
        for function, callee in _file_access(ast.parse(source.read_text(encoding="utf-8"))):
            if (source.stem, function) not in allowed:
                offenders.append(f"{source.stem}.{function} calls {callee}")
    assert offenders == []


def test_every_error_class_has_its_own_exit_code():
    classes = errors.EventProbeError.__subclasses__()
    codes = {klass.exit_code for klass in classes}
    assert len(classes) == 8 and len(codes) == 8 and 1 not in codes
    assert all(not klass.__subclasses__() for klass in classes)
