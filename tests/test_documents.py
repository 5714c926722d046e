"""Every file input of the eventprobe command, with every kind of fault.

Each input is missing, empty (a benchmark file), not UTF-8, not JSON (or
not the CSV it should be), not a JSON object, a document with a field of
the wrong type, or a well-formed document holding a value the contract
forbids. Every case must
end in the documented exit code with one `error:` line that names the file,
and a failed pipeline command must leave its output directory as it was.
"""

import ast
import io
import json
import math
import shutil
from importlib import resources
from pathlib import Path

import pytest

import eventprobe
from eventprobe import errors
from eventprobe.cli import exit_code_for, main
from eventprobe.scene_graph import EntityRef, SceneGraph, graphs_from_jsonl, graphs_to_jsonl

from .test_cli import outputs


def package_json(name):
    return json.loads(resources.files("eventprobe.data").joinpath(name).read_text("utf-8"))


class Workspace:
    """A valid config with a profile, a template table and the fixture
    corpus in tmp, plus helpers that build the inputs of later commands."""

    def __init__(self, tmp: Path, fixtures: Path):
        self.tmp, self.out = tmp, tmp / "out"
        self.profile, self.templates = tmp / "profile.json", tmp / "templates.json"
        self.corpus, self.config = tmp / "corpus", tmp / "config.json"
        self.profile.write_text(json.dumps(package_json("profile_default.json")), encoding="utf-8")
        self.templates.write_text(json.dumps(package_json("templates_t1.json")), encoding="utf-8")
        self.corpus.mkdir()
        for name in ("focker.json", "forrest.json", "kitchen.json"):
            shutil.copy(fixtures / name, self.corpus)
        self.config.write_text(json.dumps({
            "global_seed": 42,
            "profile_path": str(self.profile),
            "input_glob": str(self.corpus / "*.json"),
            "output_dir": str(self.out),
            "templates_path": str(self.templates),
        }), encoding="utf-8")

    def command(self, *names):
        """Runs every named stage command but the last; returns the last's argv."""
        *before, last = names
        for name in before:
            assert main([name, "--config", str(self.config)]) == 0, name
        return [last, "--config", str(self.config)]

    def eval_argv(self):
        """eval over a copy of the run's benchmark and two score CSVs."""
        assert main(["run", "--config", str(self.config)]) == 0
        benchmark = shutil.copy(self.out / "benchmark.jsonl", self.tmp / "bench.jsonl")
        pairs = [json.loads(line) for line in benchmark.read_text(encoding="utf-8").splitlines()]
        videos = sorted({p["video_id"] for p in pairs})
        header = "video_id," + ",".join(p["pair_id"] for p in pairs) + "\n"
        rows = "".join(v + "," + ",".join("0.5" for _ in pairs) + "\n" for v in videos)
        for name in ("scores", "scores_control"):
            (self.tmp / f"{name}.csv").write_text(header + rows, encoding="utf-8")
        return ["eval", "--benchmark", str(benchmark), "--scores", str(self.tmp / "scores.csv"),
                "--scores-control", str(self.tmp / "scores_control.csv"), "--out", str(self.tmp / "reports")]


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


def edit_corpus(**changes):
    """A corpus file: the kitchen fixture, renamed, with changes applied."""

    def fault(path):
        return edited((path.parent / "kitchen.json").read_text(encoding="utf-8"),
                      {"video_id": "broken", **changes}).encode()

    return fault


def first_tuple(**changes):
    return lambda tuples: [{**tuples[0], **changes}, *tuples[1:]]


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
CSV_FAULTS = {"not-utf8": b"video_id,caf\xe9\n", "bad-header": b"nope,c1\nv,0.5\n"}

# input: (how to reach it, the file, exit code when missing, when malformed,
# the malformed contents besides JSON_FAULTS, whether JSON_FAULTS apply)
INPUTS = {
    "config": (lambda ws: ws.command("run"), lambda ws: ws.config, 2, 2,
               {"templates-path-list": edit_json(templates_path=["t.json"]),
                "seed-not-a-number": edit_json(global_seed="x")}, True),
    "profile": (lambda ws: ws.command("run"), lambda ws: ws.profile, 3, 4,
                {"predicate-types-string": edit_json(predicate_types="Action"),
                 "vocab-value-string": edit_json(vocab=lambda v: {**v, "Color": "red"}),
                 "category-object-lacks-key": edit_json(categories=[{"method": "temporal", "target": "predicate"}])},
                True),
    "templates": (lambda ws: ws.command("ingest", "probe", "render"), lambda ws: ws.templates, 7, 4,
                  {"templates-list": edit_json(templates=[]),
                   "connectives-number": edit_json(connectives=5),
                   "pattern-number": edit_json(templates=lambda t: {
                       **t, "temporal.predicate.Action": {"positive": 5, "negative": "x"}})},
                  True),
    "corpus": (lambda ws: ws.command("run"), lambda ws: ws.corpus / "broken.json", 6, 4,
               {"video-id-number": lambda path: json.dumps({"video_id": 5}).encode()}, True),
    "graphs.jsonl": (lambda ws: ws.command("ingest", "probe"), lambda ws: ws.out / "graphs.jsonl", 6, 4,
                     {"duration-string": edit_first_line(duration_s="long")}, True),
    "records.jsonl": (lambda ws: ws.command("ingest", "probe", "render"), lambda ws: ws.out / "records.jsonl", 6, 4,
                      {"seed-string": edit_first_line(seed="7")}, True),
    "benchmark.jsonl": (lambda ws: ws.command("ingest", "probe", "render", "emit"),
                        lambda ws: ws.out / "benchmark.jsonl", 6, 4,
                        {"pair-id-number": edit_first_line(pair_id=5)}, True),
    "loss-selftest": (lambda ws: ["loss-selftest", "--input", str(ws.tmp / "batch.json")],
                      lambda ws: ws.tmp / "batch.json", 6, 4,
                      {"V-number": lambda path: b'{"V": 5, "T": [[0.1]]}',
                       **{name: json.dumps(BATCH).encode(encoding) for name, encoding in OTHER_ENCODINGS.items()}},
                      True),
    "eval-benchmark": (lambda ws: ws.eval_argv(),
                       lambda ws: ws.tmp / "bench.jsonl", 6, 4,
                       {"pair-id-number": edit_first_line(pair_id=5)}, True),
    "eval-scores": (lambda ws: ws.eval_argv(), lambda ws: ws.tmp / "scores.csv", 6, 4,
                    {"cell-not-a-number": lambda path: path.read_bytes().replace(b"0.5", b"high", 1)}, False),
    "eval-scores-control": (lambda ws: ws.eval_argv(), lambda ws: ws.tmp / "scores_control.csv", 6, 4,
                            {"cell-not-a-number": lambda path: path.read_bytes().replace(b"0.5", b"high", 1)}, False),
    "gap-report": (lambda ws: ["gap-report", "--recalls", str(ws.tmp / "recalls.csv"), "--out", str(ws.tmp / "reports")],
                   lambda ws: ws.tmp / "recalls.csv", 6, 4,
                   {"k-not-a-number": lambda path: path.read_bytes().replace(b",1,", b",one,")}, False),
}

ACTION = "temporal.predicate.Action"
COLOR = "counterfactual.attribute.Color"


def color_positive(pattern):
    """The template table with COLOR's positive pattern replaced."""
    return edit_json(templates=lambda t: {**t, COLOR: {**t[COLOR], "positive": pattern}})


LONE = "\ud800"  # json.dumps writes it as the escape \ud800, which no UTF-8 text holds
PAIR = "broken\U0001F600"  # json.dumps writes the emoji as the valid pair \ud83d\ude00
HUGE = b"9" * 401  # an integer past the float range

# Well-formed documents with a value out of contract: a config value of the
# right JSON type but the wrong kind, NaN or Infinity anywhere (Python's json
# reads them, RFC 8259 has no such numbers), a number too large for a float,
# a lone surrogate escape in a string the input otherwise accepts, an empty
# or repeated id, or a recall row `eval` never writes.
VALUE_FAULTS = {
    "config": {
        "seed-fraction": edit_json(global_seed=1.5),
        "seed-true": edit_json(global_seed=True),
        "seed-numeric-string": edit_json(global_seed="7"),
        "seed-nan": edit_json(global_seed=math.nan),
        "quota-negative": edit_json(quotas={ACTION: -5}),
        "quota-fraction": edit_json(quotas={ACTION: 2.9}),
        "quota-true": edit_json(quotas={ACTION: True}),
        "categories-repeated": edit_json(categories=[ACTION, "temporal.attribute.Color", ACTION]),
        "force-string": edit_json(force="false"),
        "output-dir-null": edit_json(output_dir=None),
        "profile-path-null": edit_json(profile_path=None),
        "input-glob-number": edit_json(input_glob=5),
        "decorator-enabled-string": edit_json(decorator={
            "enabled": "false", "endpoint": "http://localhost:9", "api_key_env": "PROBE_KEY"}),
        "decorator-endpoint-number": edit_json(decorator={"endpoint": 5}),
        "decorator-model-name-list": edit_json(decorator={"model_name": ["m"]}),
        "decorator-api-key-env-true": edit_json(decorator={"api_key_env": True}),
        "decorator-temperature-string": edit_json(decorator={"temperature": "0.2"}),
        "decorator-timeout-string": edit_json(decorator={"timeout_s": "10"}),
        "decorator-timeout-overflow": spell(edit_json(decorator={"timeout_s": 10.5}), 10.5, "1e999"),
        "decorator-timeout-integer-overflow": spell(edit_json(decorator={"timeout_s": 10.5}), 10.5, "9" * 400),
        "decorator-max-candidates-word": edit_json(decorator={"max_candidates": "ten"}),
        "decorator-max-candidates-zero": edit_json(decorator={"max_candidates": 0}),
        "decorator-max-candidates-fraction": edit_json(decorator={"max_candidates": 2.5}),
        "categories-object": edit_json(categories={ACTION: 1}),
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
        "name-nan": edit_json(name=math.nan),
        "categories-repeated": edit_json(categories=lambda c: [
            *c, {"method": "temporal", "target": "predicate", "fine_type": "Action"}]),
        "lone-surrogate": edit_json(name="probe" + LONE),
    },
    # A pattern that would fail to render whatever its slots hold: a brace
    # out of place, a format spec or conversion a string does not take, or a
    # slot in a format spec, whose value would become the spec. The last two
    # render with every slot empty.
    "templates": {
        "connectives-infinity": edit_json(connectives=math.inf),
        "pattern-open-brace": color_positive("the {subject is {subject_attr}"),
        "pattern-close-brace": color_positive("the {subject} is {subject_attr}}"),
        "pattern-integer-spec": color_positive("the {subject:d} is {subject_attr}"),
        "pattern-unknown-conversion": color_positive("the {subject!x} is {subject_attr}"),
        "pattern-slot-spec": color_positive("the {subject:{subject_attr}}"),
        "pattern-slot-in-spec": color_positive("the {subject:{subject_attr}>5}"),
        "lone-surrogate": edit_json(connectives=lambda c: {**c, "negative": "while" + LONE}),
    },
    "corpus": {
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
    },
    "graphs.jsonl": {
        "duration-nan": edit_first_line(duration_s=math.nan),
        "start-minus-infinity": edit_first_line(tuples=first_tuple(time={"start_s": -math.inf, "end_s": 1.0})),
        "tuple-id-empty": edit_first_line(tuples=first_tuple(tuple_id="")),
        "video-id-repeated": edit_first_line(video_id="kitchen"),
        "lone-surrogate": edit_first_line(video_id=lambda v: v + LONE),
        "duration-overflow-beside-pair": spell(edit_first_line(video_id=PAIR, duration_s=120.0), 120.0, "1e999"),
    },
    "records.jsonl": {
        "seed-nan": edit_first_line(seed=math.nan),
        "lone-surrogate": edit_first_line(record_id=lambda r: r + LONE),
    },
    "benchmark.jsonl": {
        "pair-id-infinity": edit_first_line(pair_id=math.inf),
        "lone-surrogate": edit_first_line(pair_id=lambda p: p + LONE),
    },
    "loss-selftest": {
        "tau-nan": lambda path: b'{"tau": NaN, "V": [[0.1]], "T": [[0.1]]}',
        "V-integer-overflow": b'{"V": [[' + HUGE + b']], "T": [[0.1]]}',
        "G-integer-overflow": b'{"V": [[0.1]], "T": [[0.1]], "G": [[[' + HUGE + b']]]}',
        "tau-integer-overflow": b'{"tau": ' + HUGE + b', "V": [[0.1]], "T": [[0.1]]}',
        "beta-integer-overflow": b'{"beta": ' + HUGE + b', "V": [[0.1]], "T": [[0.1]]}',
        "lone-surrogate": b'{"note": "\\ud800", "V": [[0.1]], "T": [[0.1]]}',
        "V-overflow-beside-pair": b'{"note": "\\ud83d\\ude00", "V": [[1e999]], "T": [[0.1]]}',
    },
    "eval-benchmark": {
        "pair-id-nan": edit_first_line(pair_id=math.nan),
        "lone-surrogate": edit_first_line(pair_id=lambda p: p + LONE),
    },
    "gap-report": {
        "long-value-nan": lambda path: path.read_bytes().replace(b"0.5", b"nan", 1),
        "long-value-above-one": lambda path: path.read_bytes().replace(b"0.25", b"1.25", 1),
        "wide-p-nan": b"category,direction,k,p,p_control\nc,T2V,1,nan,0.4\n",
        "wide-p-control-infinity": b"category,direction,k,p,p_control\nc,T2V,1,0.5,inf\n",
        "wide-p-seven": b"category,direction,k,p,p_control\nc,T2V,1,7,0.4\n",
        "wide-p-control-negative": b"category,direction,k,p,p_control\nc,T2V,1,0.5,-3\n",
        "wide-delta-p-infinity": b"category,direction,k,p,p_control,delta_p\nc,T2V,1,0.5,0.4,-inf\n",
        "long-direction-unknown": lambda path: path.read_bytes().replace(b"T2V", b"T2X"),
        "long-k-zero": lambda path: path.read_bytes().replace(b",1,", b",0,"),
        "long-row-repeated": lambda path: path.read_bytes() + b"c,T2V,1,control,0.75\n",
        "wide-direction-unknown": b"category,direction,k,p,p_control\nc,T2X,1,0.5,0.4\n",
        "wide-k-zero": b"category,direction,k,p,p_control\nc,T2V,0,0.5,0.4\n",
        "wide-k-negative": b"category,direction,k,p,p_control\nc,V2T,-5,0.5,0.4\n",
        "wide-row-repeated": b"category,direction,k,p,p_control\nc,T2V,1,0.5,0.4\nc,T2V,1,0.9,0.1\n",
    },
}

# Inputs for which a file without a line is as empty as a missing one.
EMPTY_FAULTS = {"eval-benchmark": {"empty": b""}, "benchmark.jsonl": {"empty": b""}}

CASES = [
    (name, fault, content)
    for name, (_, _, _, _, own, uses_json) in INPUTS.items()
    for fault, content in [
        ("missing", None),
        *EMPTY_FAULTS.get(name, {}).items(),
        *(JSON_FAULTS if uses_json else CSV_FAULTS).items(),
        *own.items(),
        *VALUE_FAULTS.get(name, {}).items(),
    ]
]


@pytest.mark.parametrize("name, fault, content", CASES, ids=[f"{n}-{f}" for n, f, _ in CASES])
def test_input_fault_exit_code(tmp_path, fixtures_dir, capsys, name, fault, content):
    reach, target_of, missing_code, malformed_code, _, _ = INPUTS[name]
    ws = Workspace(tmp_path, fixtures_dir)
    target = target_of(ws)
    if name == "loss-selftest":
        target.write_text(json.dumps({"V": [[0.1, 0.2]], "T": [[0.3, 0.1]]}), encoding="utf-8")
    if name == "gap-report":
        target.write_text("category,direction,k,pool,value\nc,T2V,1,positive,0.5\nc,T2V,1,control,0.25\n",
                          encoding="utf-8")
    argv = reach(ws)
    named = str(target)
    if content is None and name == "corpus":
        for path in ws.corpus.iterdir():
            path.unlink()
        named = str(ws.corpus / "*.json")
    elif content is None:
        target.unlink(missing_ok=True)
    else:
        target.write_bytes(content(target) if callable(content) else content)
    before = outputs(ws.out) if ws.out.exists() else {}
    capsys.readouterr()

    code = main(argv)

    err = capsys.readouterr().err
    assert code == (missing_code if content is None or fault == "empty" else malformed_code), err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and named in err, err
    assert (outputs(ws.out) if ws.out.exists() else {}) == before
    assert not (tmp_path / "reports").exists()


def test_a_pattern_that_formats_every_slot_renders(tmp_path, fixtures_dir, capsys):
    ws = Workspace(tmp_path, fixtures_dir)
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


def test_repeated_video_id_names_both_files_and_the_line(tmp_path, fixtures_dir, capsys):
    ws = Workspace(tmp_path, fixtures_dir)
    kitchen, again = ws.corpus / "kitchen.json", ws.corpus / "again.json"
    shutil.copy(kitchen, again)
    assert main(["ingest", "--config", str(ws.config)]) == 4
    err = capsys.readouterr().err
    assert str(again) in err and str(kitchen) in err, err
    assert not ws.out.exists() or not (ws.out / "graphs.jsonl").exists()
    graph = SceneGraph("v", 1.0, (), ())
    with pytest.raises(errors.MalformedDocument, match="graphs.jsonl line 2: video_id 'v'"):
        graphs_from_jsonl(graphs_to_jsonl([graph, graph]))


def test_jsonl_lines_break_only_at_newline():
    """to_jsonl leaves U+2028 and NEL unescaped; a reader splitting at
    every line boundary str.splitlines knows would cut such a line."""
    graph = SceneGraph("v\x85", 1.0, (EntityRef("e1", "a\u2028b"),), ())
    text = graphs_to_jsonl([graph])
    assert text.count("\n") == 1
    assert graphs_from_jsonl(text) == [graph]


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
    def subclasses(klass):
        for sub in klass.__subclasses__():
            yield sub
            yield from subclasses(sub)

    classes = list(subclasses(errors.EventProbeError))
    assert len(classes) > 20
    for klass in classes:
        assert exit_code_for(klass("x")) != 1, klass.__name__
