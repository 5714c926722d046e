"""Every file input of the eventprobe command, with every kind of fault.

Each input is missing, not UTF-8, not JSON (or not the CSV it should be),
not a JSON object, a document with a field of the wrong type, or a
well-formed document holding a value the contract forbids. Every case must
end in the documented exit code with one `error:` line that names the file,
and a failed pipeline command must leave its output directory as it was.
"""

import ast
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


JSON_FAULTS = {"not-utf8": b'{"name": "caf\xe9"}', "invalid-json": b"{not json", "not-an-object": b"[1, 2]\n"}
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
                      {"V-number": lambda path: b'{"V": 5, "T": [[0.1]]}'}, True),
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

# Well-formed documents with a value out of contract: a config value of the
# right JSON type but the wrong kind, NaN or Infinity anywhere (Python's json
# reads them, RFC 8259 has no such numbers), a number too large for a float,
# or an empty id.
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
    },
    "profile": {"name-nan": edit_json(name=math.nan)},
    "templates": {"connectives-infinity": edit_json(connectives=math.inf)},
    "corpus": {
        "duration-nan": edit_corpus(duration_s=math.nan),
        "duration-overflow": spell(edit_corpus(duration_s=120.0), 120.0, "1e999"),
        "end-infinity": edit_corpus(tuples=first_tuple(time={"start_s": 2.0, "end_s": math.inf})),
        "video-id-empty": edit_corpus(video_id=""),
        "tuple-id-empty": edit_corpus(tuples=first_tuple(tuple_id="")),
    },
    "graphs.jsonl": {
        "duration-nan": edit_first_line(duration_s=math.nan),
        "start-minus-infinity": edit_first_line(tuples=first_tuple(time={"start_s": -math.inf, "end_s": 1.0})),
        "tuple-id-empty": edit_first_line(tuples=first_tuple(tuple_id="")),
    },
    "records.jsonl": {"seed-nan": edit_first_line(seed=math.nan)},
    "benchmark.jsonl": {"pair-id-infinity": edit_first_line(pair_id=math.inf)},
    "loss-selftest": {"tau-nan": lambda path: b'{"tau": NaN, "V": [[0.1]], "T": [[0.1]]}'},
    "eval-benchmark": {"pair-id-nan": edit_first_line(pair_id=math.nan)},
}

CASES = [
    (name, fault, content)
    for name, (_, _, _, _, own, uses_json) in INPUTS.items()
    for fault, content in [
        ("missing", None),
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
    assert code == (missing_code if content is None else malformed_code), err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and named in err, err
    assert (outputs(ws.out) if ws.out.exists() else {}) == before
    assert not (tmp_path / "reports").exists()


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
    # The two loaders read package data that ships with the code; every
    # file a user names goes through eventprobe.documents.
    allowed = {("profiles", "default_profile"), ("captions", "default_templates")}
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
        exc = klass("stage", errors.MalformedDocument("x")) if klass is errors.StageFailed else klass("x")
        assert exit_code_for(exc) != 1, klass.__name__
