import errno
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import eventprobe
from eventprobe import cli, errors, evaluate, pipeline
from eventprobe.cli import main
from eventprobe.evaluate import CHILD_MIN_CSV_BYTES
from eventprobe.scene_graph import scene_graph_to_doc

from .helpers import random_profile_corpus, with_objects
from .test_count_first import PROFILE, corpora


@pytest.fixture()
def config_path(tmp_path, fixtures_dir):
    profile_text = resources.files("eventprobe.data").joinpath("profile_default.json").read_text("utf-8")
    (tmp_path / "profile.json").write_text(profile_text, encoding="utf-8")
    doc = {
        "global_seed": 42,
        "profile_path": str(tmp_path / "profile.json"),
        "input_glob": str(fixtures_dir / "*.json"),
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def rewrite_first_record(change):
    """An edit of records.jsonl that replaces its first line's document."""

    def edit(out):
        path = out / "records.jsonl"
        first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text(json.dumps(change(json.loads(first))) + "\n" + "".join(rest), encoding="utf-8")

    return edit


def write_records(content: bytes):
    def edit(out):
        (out / "records.jsonl").write_bytes(content)

    return edit


def first_change(update):
    """The record with its first manipulated tuple updated."""
    return lambda doc: {**doc, "manipulated": [update(doc["manipulated"][0]), *doc["manipulated"][1:]]}


def unlink_graphs(out):
    (out / "graphs.jsonl").unlink()


def edit_config(config_path, **changes):
    config_path.write_text(json.dumps({**json.loads(config_path.read_text()), **changes}))


def fresh_python(*args):
    """`python ARGS` in a new interpreter that imports this eventprobe;
    raises unless it exits 0."""
    src = str(Path(eventprobe.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)


def outputs(out_dir):
    """Every file in out_dir by name: its bytes, or for the run manifest,
    which holds wall-clock timestamps, its digest."""
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    if "run_manifest.json" in files:
        files["run_manifest.json"] = json.loads(files["run_manifest.json"])["digest"]
    return files


class TestRunCommand:
    def test_run_success(self, config_path, tmp_path, capsys):
        assert main(["run", "--config", str(config_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["stage_counts"]["pairs"] == 24
        assert (tmp_path / "out" / "benchmark.jsonl").exists()

    def test_second_run_needs_force(self, config_path, capsys):
        assert main(["run", "--config", str(config_path)]) == 0
        assert main(["run", "--config", str(config_path)]) == 5
        assert main(["run", "--config", str(config_path), "--force"]) == 0

    def test_missing_profile_exit_code(self, config_path, tmp_path):
        doc = json.loads(config_path.read_text())
        doc["profile_path"] = str(tmp_path / "nope.json")
        config_path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(config_path)]) == 3

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize(
        "malformed",
        [
            {"decorator": {"enable": True}},
            {"quotas": {"temporal.predicate.Action": "many"}},
            {"decorator": {"enabled": "false", "endpoint": "http://localhost:9", "api_key_env": "PROBE_KEY"}},
            {"decorator": {"timeout_s": "10"}},
            {"decorator": {"max_candidates": "ten"}},
            {"categories": {"temporal.predicate.Action": 1}},
            {"quota": {"temporal.predicate.Action": 1}},
            {"template_path": "templates.json"},
        ],
        ids=["decorator-unknown-key", "quota-not-integer", "decorator-enabled-string",
             "decorator-timeout-string", "decorator-max-candidates-word", "categories-object",
             "unknown-key-quota", "unknown-key-template-path"],
    )
    def test_malformed_config_exit_code(self, config_path, malformed, capsys):
        doc = json.loads(config_path.read_text())
        doc.update(malformed)
        config_path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err.startswith("error: malformed config")

    @pytest.mark.parametrize("out", ["blocker", "blocker/sub"], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["run", "ingest", "probe", "render", "emit"])
    def test_output_directory_unwritable(self, config_path, tmp_path, capsys, command, out):
        (tmp_path / "blocker").write_text("x")
        assert main([command, "--config", str(config_path), "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output directory") and str(tmp_path / out) in err
        assert (tmp_path / "blocker").read_text() == "x"

    def test_a_taken_temporary_name_is_left_alone(self, config_path, tmp_path, capsys):
        """A write that cannot open `<name>.tmp` removes only the temporaries it made."""
        out = tmp_path / "out"
        (out / "benchmark.jsonl.tmp").mkdir(parents=True)
        listing = sorted(out.rglob("*"))
        assert main(["run", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot write output directory") and str(out) in err, err
        assert sorted(out.rglob("*")) == listing

    def test_predicate_tuple_without_object_gives_no_predicate_sites(self, config_path, tmp_path, fixtures_dir, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(fixtures_dir, corpus)
        doc = json.loads((corpus / "kitchen.json").read_text())
        k1 = next(t for t in doc["tuples"] if t["tuple_id"] == "k1")
        del k1["object"], k1["object_attrs"]
        (corpus / "kitchen.json").write_text(json.dumps(doc))
        edit_config(config_path, input_glob=str(corpus / "*.json"))
        assert main(["run", "--config", str(config_path)]) == 0, capsys.readouterr().err
        records = map(json.loads, (tmp_path / "out" / "records.jsonl").read_text().splitlines())
        assert not any("k1" in r["source_tuple_ids"] and ".predicate." in r["category"] for r in records)

    def test_only_a_sides_first_attribute_of_a_type_is_manipulated(self, config_path, tmp_path, capsys):
        """Captions show a side's first attribute of each type, so a kite that
        is red and blue, or red and green, still gives pairs whose captions
        differ: no manipulation changes the second color alone."""

        def colors(*values):
            return [{"value": value, "attr_type": "Color"} for value in values]

        def tup(tuple_id, start, attrs, **rest):
            return {"tuple_id": tuple_id, "subject": "a", "subject_attrs": attrs,
                    "time": {"start_s": start, "end_s": start + 1}, **rest}

        doc = {"video_id": "kites", "duration_s": 10.0,
               "entities": [{"entity_id": "a", "name": "kite"}, {"entity_id": "b", "name": "bird"}],
               "tuples": [tup("t1", 0, colors("red", "blue")), tup("t2", 2, colors("red", "green")),
                          tup("t3", 4, colors("yellow")),
                          tup("t4", 6, colors("red", "blue"), object="b", object_attrs=colors("yellow", "green"))]}
        (tmp_path / "kites.json").write_text(json.dumps(doc))
        edit_config(config_path, input_glob=str(tmp_path / "kites.json"))
        assert main(["run", "--config", str(config_path)]) == 0, capsys.readouterr().err
        pairs = [json.loads(line) for line in (tmp_path / "out" / "benchmark.jsonl").read_text().splitlines()]
        assert {p["category"].split(".")[0] for p in pairs} == {"temporal", "neighborhood", "counterfactual"}
        assert all(p["positive"]["text"] != p["negative"]["text"] for p in pairs)

    def test_categories_string_asks_for_list(self, config_path, capsys):
        doc = json.loads(config_path.read_text())
        doc["categories"] = "temporal.predicate.Action"
        config_path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert "categories must be a list" in err and "'t'" not in err

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_empty_output_dir_is_a_config_error(self, config_path, tmp_path, capsys, monkeypatch, where):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        argv = ["run", "--config", str(config_path)]
        if where == "config":
            edit_config(config_path, output_dir="")
        else:
            argv += ["--out", ""]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == ("error: malformed config: key 'output_dir' must name a directory, "
                       f"got an empty string (config file {config_path})\n")
        assert list(cwd.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "probe"])
    @pytest.mark.parametrize("where", ["profile", "config"])
    def test_no_category_left_to_probe(self, config_path, tmp_path, capsys, command, where):
        if command == "probe":
            assert main(["ingest", "--config", str(config_path)]) == 0
        if where == "profile":
            profile = tmp_path / "profile.json"
            profile.write_text(json.dumps({**json.loads(profile.read_text()), "categories": []}))
            cause = f"profile {profile} declares no categories; nothing to probe"
        else:
            edit_config(config_path, categories=[])
            cause = "config key 'categories' lists no category; nothing to probe"
        before = outputs(tmp_path / "out") if command == "probe" else None
        capsys.readouterr()
        assert main([command, "--config", str(config_path)]) == 6
        assert capsys.readouterr().err == f"error: stage 'probe' failed: {cause}\n"
        if command == "probe":
            assert outputs(tmp_path / "out") == before
        else:
            assert not (tmp_path / "out").exists()

    def test_seed_override_changes_digest(self, config_path, tmp_path, capsys):
        assert main(["run", "--config", str(config_path)]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["run", "--config", str(config_path), "--force", "--seed", "7"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["config_digest"] != second["config_digest"]


class TestStagedCommands:
    def test_stages_reproduce_run_output(self, config_path, tmp_path, capsys):
        assert main(["run", "--config", str(config_path)]) == 0
        capsys.readouterr()
        run_benchmark = (tmp_path / "out" / "benchmark.jsonl").read_bytes()

        staged_out = tmp_path / "staged"
        for command in ("ingest", "probe", "render", "emit"):
            code = main([command, "--config", str(config_path), "--out", str(staged_out)])
            assert code == 0, command
        staged_benchmark = (staged_out / "benchmark.jsonl").read_bytes()
        assert staged_benchmark == run_benchmark
        assert (staged_out / "run_manifest.json").exists()

    def test_probe_before_ingest_fails(self, config_path, tmp_path):
        assert main(["probe", "--config", str(config_path)]) == 6

    @pytest.mark.parametrize("fixture", ["focker.json", "forrest.json", "kitchen.json"])
    @pytest.mark.parametrize("seed", [1, 42])
    def test_stages_reproduce_run_per_fixture(self, config_path, tmp_path, fixtures_dir, capsys, fixture, seed):
        doc = json.loads(config_path.read_text())
        doc["input_glob"] = str(fixtures_dir / fixture)
        config_path.write_text(json.dumps(doc))
        flags = ["--config", str(config_path), "--seed", str(seed)]
        assert main(["run", *flags, "--out", str(tmp_path / "run")]) == 0
        for command in ("ingest", "probe", "render", "emit"):
            assert main([command, *flags, "--out", str(tmp_path / "staged")]) == 0, command
        for name in ("graphs.jsonl", "records.jsonl", "benchmark.jsonl"):
            assert (tmp_path / "staged" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()

    @pytest.mark.parametrize(
        "edit, code, message",
        [
            (rewrite_first_record(lambda d: {**d, "format": 1}), 4, "not a format-2 record"),
            (rewrite_first_record(lambda d: {k: v for k, v in d.items() if k != "format"}), 4,
             "not a format-2 record"),
            (rewrite_first_record(lambda d: {"record_id": "x"}), 4, "not a format-2 record"),
            (rewrite_first_record(lambda d: {**d, "video_id": "no-such-video"}), 4, "'no-such-video'"),
            (rewrite_first_record(
                lambda d: {**first_change(lambda m: {**m, "tuple_id": "nope"})(d), "source_tuple_ids": ["nope"]}
            ), 4, "tuple 'nope' is not in video"),
            (rewrite_first_record(lambda d: {**d, "source_tuple_ids": ["nope", 7]}), 4,
             "source_tuple_ids"),
            (rewrite_first_record(first_change(lambda m: {**m, "subject": "e1"})), 4,
             "'subject' is not a changeable field"),
            (rewrite_first_record(first_change(lambda m: {**m, "time": {"start_s": "soon", "end_s": 1.0}})), 4,
             "'start_s' must be a number"),
            (rewrite_first_record(first_change(lambda m: {**m, "time": {"start_s": 2.0, "end_s": 1.0}})), 4,
             "invalid interval"),
            (rewrite_first_record(lambda d: {**d, "manipulated": [{"tuple_id": m["tuple_id"]} for m in d["manipulated"]]}),
             4, "left a tuple unchanged"),
            (rewrite_first_record(lambda d: {**d, "manipulated": [], "source_tuple_ids": []}), 4,
             "holds no tuple"),
            (rewrite_first_record(lambda d: {**d, "seed": "7"}), 4, "'seed' must be int"),
            (rewrite_first_record(lambda d: {**d, "seed": True}), 4, "records.jsonl line 1: key 'seed' must be int"),
            (rewrite_first_record(lambda d: {**d, "pool_size": False}), 4,
             "records.jsonl line 1: key 'pool_size' must be int"),
            (write_records(b"{oops\n"), 4, "records.jsonl line 1"),
            (write_records(b"\xff\n"), 4, "not UTF-8"),
            (unlink_graphs, 6, "graphs.jsonl not found"),
        ],
        ids=[
            "format-1", "no-format", "record-id-only", "unknown-video", "unknown-tuple",
            "source-ids-mismatch", "unknown-field", "malformed-field-value", "inverted-interval",
            "unchanged", "no-tuples", "seed-string", "seed-bool", "pool-size-bool", "invalid-json",
            "non-utf8", "graphs-absent",
        ],
    )
    def test_render_bad_records_exit_code(self, config_path, tmp_path, capsys, edit, code, message):
        for command in ("ingest", "probe"):
            assert main([command, "--config", str(config_path)]) == 0
        edit(tmp_path / "out")
        capsys.readouterr()
        assert main(["render", "--config", str(config_path)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out" / "benchmark.jsonl").exists()

    @pytest.mark.parametrize(
        "content", [b'{"nope": 1}\n', b"\xff\n", b"{oops\n", b"[1]\n"],
        ids=["missing-field", "non-utf8", "invalid-json", "not-an-object"],
    )
    def test_emit_bad_pairs_exit_code(self, config_path, tmp_path, capsys, content):
        for command in ("ingest", "probe", "render"):
            assert main([command, "--config", str(config_path)]) == 0
        (tmp_path / "out" / "benchmark.jsonl").write_bytes(content)
        capsys.readouterr()
        assert main(["emit", "--config", str(config_path)]) == 4
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out" / "run_manifest.json").exists()


class TestInputFileErrors:
    @pytest.mark.parametrize("commands", [["run"], ["ingest", "probe", "render"]], ids=["run", "render"])
    @pytest.mark.parametrize(
        "content, code, message",
        [(None, 7, "template file not found"), (b'{"templates": "\xff"}', 4, "not UTF-8")],
        ids=["missing", "non-utf8"],
    )
    def test_template_file_errors(self, config_path, tmp_path, capsys, commands, content, code, message):
        templates = tmp_path / "templates.json"
        if content is not None:
            templates.write_bytes(content)
        edit_config(config_path, templates_path=str(templates))
        *before, last = commands
        for command in before:
            assert main([command, "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert main([last, "--config", str(config_path)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and str(templates) in err

    @pytest.mark.parametrize("command", ["run", "ingest"])
    @pytest.mark.parametrize(
        "content, message",
        [(b"\xff", "not UTF-8"), (b"{not json", "invalid JSON"), (b'{"video_id": "v"}', "missing key")],
        ids=["non-utf8", "invalid-json", "missing-key"],
    )
    def test_corpus_file_errors(self, config_path, tmp_path, fixtures_dir, capsys, command, content, message):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(fixtures_dir / "kitchen.json", corpus)
        (corpus / "broken.json").write_bytes(content)
        edit_config(config_path, input_glob=str(corpus / "*.json"))
        capsys.readouterr()
        assert main([command, "--config", str(config_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and str(corpus / "broken.json") in err
        assert not (tmp_path / "out").exists()


def write_workspace(tmp: Path, corpus) -> Path:
    """The default profile, a config, and corpus/NAME.json for each (NAME,
    graph) in corpus, in tmp; returns the config's path."""
    shutil.rmtree(tmp / "corpus", ignore_errors=True)
    (tmp / "corpus").mkdir()
    for name, graph in corpus:
        (tmp / "corpus" / f"{name}.json").write_text(json.dumps(scene_graph_to_doc(graph)))
    profile = resources.files("eventprobe.data").joinpath("profile_default.json").read_text("utf-8")
    (tmp / "profile.json").write_text(profile, encoding="utf-8")
    config = tmp / "config.json"
    config.write_text(json.dumps({
        "global_seed": 3,
        "profile_path": str(tmp / "profile.json"),
        "input_glob": str(tmp / "corpus" / "*.json"),
        "output_dir": str(tmp / "out"),
    }))
    return config


def run_commands(config: Path, commands) -> tuple[int, dict]:
    """Exit code of the first failing command (or 0) and the output files,
    over an emptied output directory; none if the directory was not made."""
    out = Path(json.loads(config.read_text())["output_dir"])
    shutil.rmtree(out, ignore_errors=True)
    code = 0
    for command in commands:
        code = main([command, "--config", str(config)])
        if code != 0:
            break
    return code, outputs(out) if out.exists() else {}


class TestStageTable:
    @given(corpora)
    def test_staged_commands_write_what_run_writes(self, corpus):
        with tempfile.TemporaryDirectory() as tmp:
            config = write_workspace(Path(tmp), [(graph.video_id, graph) for graph in corpus])
            run_code, run_files = run_commands(config, ["run"])
            staged_code, staged_files = run_commands(config, ["ingest", "probe", "render", "emit"])
        assert staged_code == run_code
        if run_code == 0:  # a corpus without sites makes both end in exit 6
            assert len(run_files) == 4 and staged_files == run_files

    @given(st.integers(0, 2**32), st.integers(1, 4))
    def test_outputs_do_not_depend_on_input_order(self, seed, n_videos):
        """Reversing the files, and each document's tuples and entities,
        changes no output but graphs.jsonl, which keeps document order."""
        rng = random.Random(seed)
        graphs = [with_objects(g) for g in random_profile_corpus(rng, PROFILE, n_videos)]
        reversed_graphs = [
            replace(g, tuples=g.tuples[::-1], entities=g.entities[::-1]) for g in reversed(graphs)
        ]
        results = []
        with tempfile.TemporaryDirectory() as tmp:
            for corpus in (graphs, reversed_graphs):
                config = write_workspace(Path(tmp), [(f"f{i}", g) for i, g in enumerate(corpus)])
                results.append(run_commands(config, ["run"]))
        (code, files), (reversed_code, reversed_files) = results
        assert code == reversed_code
        if code == 0:  # a corpus without sites makes both end in exit 6
            assert files.pop("graphs.jsonl") != reversed_files.pop("graphs.jsonl")
            assert len(files) == 3 and reversed_files == files

    @pytest.mark.parametrize("commands", [["run"], ["render"]], ids=["run", "render"])
    def test_failed_force_rerun_leaves_directory_unchanged(self, config_path, tmp_path, commands):
        assert main(["run", "--config", str(config_path)]) == 0
        before = outputs(tmp_path / "out")
        edit_config(config_path, templates_path=str(tmp_path / "absent.json"))
        for command in commands:
            assert main([command, "--config", str(config_path), "--force"]) == 7
        assert outputs(tmp_path / "out") == before

    def test_stage_removes_later_outputs(self, config_path, tmp_path, capsys):
        assert main(["run", "--config", str(config_path)]) == 0
        assert main(["ingest", "--config", str(config_path), "--force"]) == 0
        assert list(outputs(tmp_path / "out")) == ["graphs.jsonl"]
        capsys.readouterr()
        assert main(["render", "--config", str(config_path)]) == 6
        assert "records.jsonl not found" in capsys.readouterr().err

    def test_staged_probe_rejects_unknown_quota(self, config_path, capsys):
        assert main(["ingest", "--config", str(config_path)]) == 0
        edit_config(config_path, quotas={"counterfactual.attribute.Smell": 1})
        capsys.readouterr()
        assert main(["probe", "--config", str(config_path)]) == 2
        assert "counterfactual.attribute.Smell" in capsys.readouterr().err

    # In a fresh interpreter: this one has numpy loaded, and an earlier
    # test may have bound the numeric commands' names in eventprobe.cli.
    def test_cli_import_loads_no_thread_pool_or_http_client(self, config_path):
        """Neither the import nor a pipeline run loads a thread pool, an HTTP
        client, numpy or the modules that use it."""
        unwanted = ("concurrent.futures", "urllib.request", "requests")
        numeric = ("numpy", "eventprobe.evaluate", "eventprobe.losses")
        code = (
            "import sys, eventprobe.cli\n"
            f"print([m for m in {unwanted + numeric!r} if m in sys.modules])\n"
            f"assert eventprobe.cli.main(['run', '--config', {str(config_path)!r}]) == 0\n"
            f"print([m for m in {numeric!r} if m in sys.modules])\n"
        )
        lines = fresh_python("-c", code).stdout.splitlines()
        assert lines[0] == "[]" and lines[-1] == "[]"

    @pytest.mark.parametrize("command", ["eval", "gap-report", "loss-selftest"])
    def test_numeric_command_binds_its_names(self, tmp_path, fixtures_dir, command):
        if command == "eval":
            benchmark = tmp_path / "benchmark.jsonl"
            benchmark.write_text("".join(
                json.dumps({"pair_id": f"c{i}", "video_id": f"v{i}", "category": "temporal.predicate.Action",
                            "positive": {"text": "a"}, "negative": {"text": "b"}}) + "\n"
                for i in range(1, 5)
            ))
            scores = str(fixtures_dir / "score_matrix_f1.csv")
            argv = ["eval", "--benchmark", str(benchmark), "--scores", scores, "--scores-control", scores,
                    "--out", str(tmp_path / "reports")]
        elif command == "gap-report":
            recalls = tmp_path / "recalls.csv"
            recalls.write_text("category,direction,k,pool,value\nc,T2V,1,positive,0.5\nc,T2V,1,control,0.25\n")
            argv = ["gap-report", "--recalls", str(recalls), "--out", str(tmp_path / "reports")]
        else:
            (tmp_path / "batch.json").write_text(json.dumps({"V": [[0.1, 0.2]], "T": [[0.3, 0.1]]}))
            argv = ["loss-selftest", "--input", str(tmp_path / "batch.json")]
        fresh_python("-m", "eventprobe.cli", *argv)


class TestEvalCommands:
    def build_benchmark(self, config_path, tmp_path):
        assert main(["run", "--config", str(config_path)]) == 0
        benchmark = tmp_path / "out" / "benchmark.jsonl"
        pairs = [json.loads(line) for line in benchmark.read_text().splitlines()]
        video_ids = sorted({p["video_id"] for p in pairs})
        caption_ids = [p["pair_id"] for p in pairs]
        owner = {p["pair_id"]: p["video_id"] for p in pairs}

        def write_matrix(path, scorer):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("video_id," + ",".join(caption_ids) + "\n")
                for v in video_ids:
                    cells = [repr(scorer(v, c)) for c in caption_ids]
                    fh.write(v + "," + ",".join(cells) + "\n")

        positive = tmp_path / "scores_positive.csv"
        control = tmp_path / "scores_control.csv"
        write_matrix(positive, lambda v, c: 1.0 if owner[c] == v else 0.0)
        write_matrix(control, lambda v, c: 0.5)
        return benchmark, positive, control

    def test_eval_writes_reports(self, config_path, tmp_path, capsys):
        benchmark, positive, control = self.build_benchmark(config_path, tmp_path)
        capsys.readouterr()
        code = main(
            [
                "eval",
                "--benchmark", str(benchmark),
                "--scores", str(positive),
                "--scores-control", str(control),
                "--ks", "1,5",
                "--model", "oracle-sim",
                "--out", str(tmp_path / "reports"),
            ]
        )
        assert code == 0
        gaps = (tmp_path / "reports" / "gaps.csv").read_text().splitlines()
        assert gaps[0] == "category,direction,k,p,p_control,delta_p"
        # A perfectly aligned model with a tied control pool maximizes the gap.
        first = gaps[1].split(",")
        assert float(first[3]) == 1.0
        assert float(first[5]) == 1.0
        scatter = (tmp_path / "reports" / "scatter.csv").read_text().splitlines()
        assert scatter[1].split(",")[1] == "oracle-sim"
        assert (tmp_path / "reports" / "recalls.csv").exists()

    def test_gap_report_from_csv(self, tmp_path):
        recalls = tmp_path / "recalls.csv"
        recalls.write_text(
            "category,direction,k,p,p_control\n"
            "counterfactual.attribute.Color,T2V,1,0.5,0.4\n",
            encoding="utf-8",
        )
        code = main(["gap-report", "--recalls", str(recalls), "--out", str(tmp_path / "r")])
        assert code == 0
        rows = (tmp_path / "r" / "gaps.csv").read_text().splitlines()
        assert abs(float(rows[1].split(",")[5]) - 0.2) < 1e-12

    def test_gap_report_skips_zero_baseline_wide_row(self, tmp_path):
        recalls = tmp_path / "recalls.csv"
        recalls.write_text(
            "category,direction,k,p,p_control\n"
            "counterfactual.attribute.Color,T2V,1,0.0,0.4\n",
            encoding="utf-8",
        )
        code = main(["gap-report", "--recalls", str(recalls), "--out", str(tmp_path / "r")])
        assert code == 0
        rows = (tmp_path / "r" / "gaps.csv").read_text().splitlines()
        assert rows == ["category,direction,k,p,p_control,delta_p"]

    def coarse_inputs(self, config_path, tmp_path):
        """A benchmark and two score CSVs of coarse scores: ties, partial
        recalls and some zero positive recalls."""
        benchmark, positive, control = self.build_benchmark(config_path, tmp_path)
        pairs = [json.loads(line) for line in benchmark.read_text().splitlines()]
        video_ids = sorted({p["video_id"] for p in pairs})
        rng = np.random.default_rng(3)
        for path in (positive, control):
            scores = rng.integers(0, 4, size=(len(video_ids), len(pairs))) / 4
            lines = ["video_id," + ",".join(p["pair_id"] for p in pairs)]
            lines += [v + "," + ",".join(map(str, row)) for v, row in zip(video_ids, scores)]
            path.write_text("\n".join(lines) + "\n")
        return benchmark, positive, control

    def test_gap_report_reads_eval_recalls(self, config_path, tmp_path, capsys):
        benchmark, positive, control = self.coarse_inputs(config_path, tmp_path)
        code = main(
            [
                "eval",
                "--benchmark", str(benchmark),
                "--scores", str(positive),
                "--scores-control", str(control),
                "--ks", "1,5",
                "--out", str(tmp_path / "eval"),
            ]
        )
        assert code == 0
        recalls = tmp_path / "eval" / "recalls.csv"
        code = main(["gap-report", "--recalls", str(recalls), "--out", str(tmp_path / "gap")])
        assert code == 0
        eval_gaps = (tmp_path / "eval" / "gaps.csv").read_bytes()
        assert len(eval_gaps.splitlines()) > 1
        assert (tmp_path / "gap" / "gaps.csv").read_bytes() == eval_gaps

    def test_gap_report_reads_eval_recalls_of_a_comma_category(self, tmp_path):
        category = "counterfactual.attribute.Col,or"
        benchmark = tmp_path / "benchmark.jsonl"
        benchmark.write_text("".join(
            json.dumps({"pair_id": f"c{i}", "video_id": f"v{i}", "category": category,
                        "positive": {"text": f"a {i}"}, "negative": {"text": f"b {i}"}}) + "\n"
            for i in range(2)
        ))
        for name, hit in (("positive", "0.9"), ("control", "0.5")):
            (tmp_path / f"{name}.csv").write_text(f"video_id,c0,c1\nv0,{hit},0.5\nv1,0.5,{hit}\n")
        argv = ["eval", "--benchmark", str(benchmark), "--scores", str(tmp_path / "positive.csv"),
                "--scores-control", str(tmp_path / "control.csv"), "--ks", "1", "--out", str(tmp_path / "eval")]
        assert main(argv) == 0
        recalls = tmp_path / "eval" / "recalls.csv"
        assert f'"{category}",T2V,1,positive,1.0' in recalls.read_text().splitlines()
        assert main(["gap-report", "--recalls", str(recalls), "--out", str(tmp_path / "gap")]) == 0
        eval_gaps = (tmp_path / "eval" / "gaps.csv").read_bytes()
        assert len(eval_gaps.splitlines()) > 1
        assert (tmp_path / "gap" / "gaps.csv").read_bytes() == eval_gaps

    def test_gap_report_unpaired_long_row(self, tmp_path):
        recalls = tmp_path / "recalls.csv"
        recalls.write_text(
            "category,direction,k,pool,value\n"
            "counterfactual.attribute.Color,T2V,1,positive,0.5\n",
            encoding="utf-8",
        )
        code = main(["gap-report", "--recalls", str(recalls), "--out", str(tmp_path / "r")])
        assert code == 4

    @pytest.mark.parametrize(
        "flags, code",
        [
            (["--ks", "0"], 2),
            (["--ks", "1,a"], 2),
            (["--ks", ""], 2),
            (["--ks", "1,1"], 2),
            (["--directions", "T2X"], 2),
            (["--scores", "{tmp}/absent.csv"], 6),
            (["--scores-control", "{tmp}/latin1.csv"], 4),
            (["--out", "{tmp}/latin1.csv/reports"], 2),
        ],
        ids=["k-zero", "k-not-a-number", "ks-empty", "ks-repeated", "unknown-direction",
             "missing-scores", "non-utf8-scores", "out-under-a-file"],
    )
    def test_eval_bad_input_exit_code(self, config_path, tmp_path, capsys, flags, code):
        benchmark, positive, control = self.build_benchmark(config_path, tmp_path)
        (tmp_path / "latin1.csv").write_bytes(b"video_id,caf\xe9\n")
        capsys.readouterr()
        argv = [
            "eval",
            "--benchmark", str(benchmark),
            "--scores", str(positive),
            "--scores-control", str(control),
            "--out", str(tmp_path / "reports"),
        ]
        assert main(argv + [flag.format(tmp=tmp_path) for flag in flags]) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"nope": 1}\n', "line 1"),
            (b'{"pair_id": "p", "video_id": "v", "category": "temporal.predicate.Action",'
             b' "positive": {"text": "a"}, "negative": {"text": 5}}\n', "must be strings"),
            (b"\xff\n", "not UTF-8"),
            (b"{oops\n", "line 1"),
        ],
        ids=["missing-field", "text-not-string", "non-utf8", "invalid-json"],
    )
    def test_eval_bad_benchmark_exit_code(self, config_path, tmp_path, capsys, content, message):
        _, positive, control = self.build_benchmark(config_path, tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(content)
        capsys.readouterr()
        argv = [
            "eval",
            "--benchmark", str(bad),
            "--scores", str(positive),
            "--scores-control", str(control),
            "--out", str(tmp_path / "reports"),
        ]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "reports").exists()

    def test_npz_scores_give_the_csv_reports(self, config_path, tmp_path, capsys):
        benchmark, _, _ = self.build_benchmark(config_path, tmp_path)
        pairs = [json.loads(line) for line in benchmark.read_text().splitlines()]
        video_ids = sorted({p["video_id"] for p in pairs})
        caption_ids = [p["pair_id"] for p in pairs]
        rng = np.random.default_rng(5)
        paths = {}
        for name in ("positive", "control"):
            # Coarse scores, so that many correct items tie with others.
            scores = rng.integers(0, 4, size=(len(video_ids), len(caption_ids))) / 4 - 0.5
            lines = ["video_id," + ",".join(caption_ids)]
            lines += [v + "," + ",".join(map(repr, row)) for v, row in zip(video_ids, scores.tolist())]
            (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
            np.savez(tmp_path / f"{name}.npz", video_ids=np.array(video_ids),
                     caption_ids=np.array(caption_ids), scores=scores)
        for suffix in ("csv", "npz"):
            code = main(
                [
                    "eval",
                    "--benchmark", str(benchmark),
                    "--scores", str(tmp_path / f"positive.{suffix}"),
                    "--scores-control", str(tmp_path / f"control.{suffix}"),
                    "--ks", "1,2,5",
                    "--out", str(tmp_path / suffix),
                ]
            )
            assert code == 0
        for report in ("recalls.csv", "gaps.csv", "scatter.csv"):
            assert (tmp_path / "npz" / report).read_bytes() == (tmp_path / "csv" / report).read_bytes()
        assert len((tmp_path / "csv" / "gaps.csv").read_bytes().splitlines()) > 1

    def test_eval_repeated_pair_id_exit_code(self, config_path, tmp_path, capsys):
        benchmark, positive, control = self.build_benchmark(config_path, tmp_path)
        first = benchmark.read_text().splitlines(keepends=True)[0]
        with open(benchmark, "a", encoding="utf-8") as fh:
            fh.write(first)
        capsys.readouterr()
        argv = [
            "eval",
            "--benchmark", str(benchmark),
            "--scores", str(positive),
            "--scores-control", str(control),
            "--out", str(tmp_path / "reports"),
        ]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(json.loads(first)["pair_id"]) in err, err
        assert not (tmp_path / "reports").exists()

    def test_eval_unknown_id_exit_code(self, config_path, tmp_path, capsys):
        benchmark, positive, control = self.build_benchmark(config_path, tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("video_id,capX\nvidX,0.1\n", encoding="utf-8")
        for flag in ("--scores", "--scores-control"):
            scores = {"--scores": str(positive), "--scores-control": str(control), flag: str(bad)}
            capsys.readouterr()
            argv = ["eval", "--benchmark", str(benchmark), *chain.from_iterable(scores.items()),
                    "--out", str(tmp_path / "reports")]
            assert main(argv) == 8
            err = capsys.readouterr().err
            assert re.fullmatch(f"error: video '[^']+' missing from {re.escape(str(bad))}\n", err), err

    @staticmethod
    def eval_with_cpus(argv, cpus, monkeypatch, capsys, min_bytes=0):
        """main(argv) with `cpus` usable CPUs, reading a control CSV of
        min_bytes or more in a child: its exit code, its stderr and the
        reports it wrote. No child process and no open file may outlive it."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(evaluate, "CHILD_MIN_CSV_BYTES", min_bytes)
        out = Path(argv[argv.index("--out") + 1])
        shutil.rmtree(out, ignore_errors=True)
        fds = sorted(os.listdir("/dev/fd"))
        capsys.readouterr()
        code = main(argv)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert sorted(os.listdir("/dev/fd")) == fds
        reports = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
        return code, capsys.readouterr().err, reports

    def test_the_control_matrix_read_in_a_child_gives_the_same_reports(self, config_path, tmp_path, capsys, monkeypatch):
        benchmark, positive, control = self.coarse_inputs(config_path, tmp_path)
        argv = ["eval", "--benchmark", str(benchmark), "--scores", str(positive), "--scores-control", str(control),
                "--ks", "1,2,5", "--out", str(tmp_path / "reports")]
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        in_process = self.eval_with_cpus(argv, 1, monkeypatch, capsys)
        assert forks == []
        assert self.eval_with_cpus(argv, 2, monkeypatch, capsys) == in_process
        assert forks == [1]
        assert in_process[0] == 0 and len(in_process[2]["gaps.csv"].splitlines()) > 1
        # These CSVs are far under a MiB: a fork would cost more than it saves.
        assert self.eval_with_cpus(argv, 2, monkeypatch, capsys, CHILD_MIN_CSV_BYTES) == in_process
        assert forks == [1]

    @pytest.mark.parametrize(
        "faults",
        [{"benchmark"}, {"positive"}, {"control"}, {"benchmark", "positive"}, {"benchmark", "control"},
         {"positive", "control"}, {"benchmark", "positive", "control"}],
        ids=lambda faults: "+".join(sorted(faults)),
    )
    def test_a_fault_in_any_eval_input_ends_as_in_process(self, config_path, tmp_path, capsys, monkeypatch, faults):
        benchmark, positive, control = self.build_benchmark(config_path, tmp_path)
        if "benchmark" in faults:
            benchmark.write_text("{oops\n")
        if "positive" in faults:
            positive.unlink()
        if "control" in faults:
            control.write_text(control.read_text().replace("0.5", "nan", 1))
        argv = ["eval", "--benchmark", str(benchmark), "--scores", str(positive), "--scores-control", str(control),
                "--out", str(tmp_path / "reports")]
        in_process = self.eval_with_cpus(argv, 1, monkeypatch, capsys)
        assert self.eval_with_cpus(argv, 2, monkeypatch, capsys) == in_process
        first = next(name for name in ("benchmark", "positive", "control") if name in faults)
        code, err, reports = in_process
        assert (code, reports) == ({"benchmark": 4, "positive": 6, "control": 4}[first], {})
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert str(dict(benchmark=benchmark, positive=positive, control=control)[first]) in err

    def test_a_child_that_dies_names_the_control_file(self, config_path, tmp_path, capsys, monkeypatch):
        benchmark, positive, control = self.build_benchmark(config_path, tmp_path)
        load = cli.load_score_matrix
        monkeypatch.setattr(cli, "load_score_matrix", lambda path: os._exit(3) if path == str(control) else load(path))
        argv = ["eval", "--benchmark", str(benchmark), "--scores", str(positive), "--scores-control", str(control),
                "--out", str(tmp_path / "reports")]
        assert self.eval_with_cpus(argv, 2, monkeypatch, capsys) == (
            1, f"error: {control}: the process reading it ended without a result\n", {}
        )

    def test_a_child_whose_matrix_is_not_taken_is_stopped(self, config_path, tmp_path, capsys, monkeypatch):
        benchmark, positive, control = self.build_benchmark(config_path, tmp_path)
        benchmark.write_text("{oops\n")
        load = cli.load_score_matrix
        monkeypatch.setattr(cli, "load_score_matrix", lambda path: time.sleep(60) if path == str(control) else load(path))
        argv = ["eval", "--benchmark", str(benchmark), "--scores", str(positive), "--scores-control", str(control),
                "--out", str(tmp_path / "reports")]
        started = time.monotonic()
        code, err, _ = self.eval_with_cpus(argv, 2, monkeypatch, capsys)
        assert code == 4 and str(benchmark) in err
        assert time.monotonic() - started < 30

    def test_a_failed_fork_reads_the_control_matrix_in_process(self, config_path, tmp_path, capsys, monkeypatch):
        benchmark, positive, control = self.coarse_inputs(config_path, tmp_path)
        argv = ["eval", "--benchmark", str(benchmark), "--scores", str(positive), "--scores-control", str(control),
                "--out", str(tmp_path / "reports")]
        in_process = self.eval_with_cpus(argv, 1, monkeypatch, capsys)

        def fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        assert self.eval_with_cpus(argv, 2, monkeypatch, capsys) == in_process
        assert in_process[0] == 0


class TestLossSelftest:
    def test_selftest_json(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        doc = {
            "tau": 0.2,
            "beta": 1.0,
            "V": (rng.normal(size=(3, 4)) * 0.4).tolist(),
            "T": (rng.normal(size=(3, 4)) * 0.4).tolist(),
            "G": [
                (rng.normal(size=(2, 4)) * 0.4).tolist(),
                [],
                [],
            ],
        }
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["loss-selftest", "--input", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["loss"] > 0
        assert out["fd_max_rel_err"] <= 1e-6

    def test_selftest_defaults(self, tmp_path, capsys):
        doc = {"V": [[0.1, 0.2]], "T": [[0.3, 0.1]]}
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["loss-selftest", "--input", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["loss"] == 0.0

    def test_bad_json_exit_code(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text("{oops", encoding="utf-8")
        assert main(["loss-selftest", "--input", str(path)]) == 4

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"T": [[0.1, 0.2]]}, "'V'"),
            ([[0.1, 0.2]], "JSON object"),
            ({"V": [[0.1, 0.2], [0.3]], "T": [[0.1, 0.2], [0.3, 0.4]]}, "V is not"),
            ({"V": [[0.1, 0.2]], "T": [[0.3, 0.1]], "tau": "a"}, "tau"),
            ({"V": [[0.1, 0.2]], "T": [[0.3, 0.1]], "G": 5}, "'G' must be list"),
            ('{"V": [[0.1, 0.2]], "T": [[0.3, 0.1]], "G": [[[1e999, 0.2]]]}', "G[0] has non-finite entries"),
            ({"V": [0.1, 0.2], "T": [0.3, 0.1]}, "must be 2-d"),
            ({"V": [[]], "T": [[]]}, "at least one item and one dimension"),
            ({"V": [[0.1, 0.2]], "T": [[0.3, 0.1]], "G": [[[0.1, 0.2]], [[0.3, 0.4]]]}, "one entry per item"),
        ],
        ids=["missing-V", "array-document", "ragged-V", "tau-string", "G-number",
             "G-overflow", "V-one-dimensional", "V-empty", "G-too-many-entries"],
    )
    def test_malformed_document_exit_code(self, tmp_path, capsys, doc, field):
        path = tmp_path / "batch.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        assert main(["loss-selftest", "--input", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err


    @pytest.mark.parametrize("G", [0, {}, False, "", "[]"], ids=["zero", "object", "false", "empty-string", "string"])
    def test_G_that_is_not_a_list_exit_code(self, tmp_path, capsys, G):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({"V": [[0.1, 0.2]], "T": [[0.3, 0.1]], "G": G}), encoding="utf-8")
        assert main(["loss-selftest", "--input", str(path)]) == 4
        assert "'G' must be list" in capsys.readouterr().err

    @pytest.mark.parametrize("G", [None, []], ids=["null", "empty-list"])
    def test_null_or_empty_G_means_no_generated_negatives(self, tmp_path, capsys, G):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({"V": [[0.1, 0.2]], "T": [[0.3, 0.1]], "G": G}), encoding="utf-8")
        assert main(["loss-selftest", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["loss"] == 0.0


class TestExitCodes:
    def test_mapping_is_stable(self):
        assert errors.EventProbeError.exit_code == 1
        assert errors.ConfigError.exit_code == 2
        assert errors.ProfileNotFound.exit_code == 3
        assert errors.MalformedDocument.exit_code == 4
        assert errors.OutputExists.exit_code == 5
        assert errors.EmptyInput.exit_code == 6
        assert errors.TemplateError.exit_code == 7
        assert errors.EvaluationError.exit_code == 8
        assert errors.ManipulationError.exit_code == 9

    def test_an_unexpected_stage_error_exits_1_on_one_line(self, config_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(pipeline, "apply_corpus", boom)
        assert main(["run", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == "error: stage 'probe' failed: boom\n"
        with pytest.raises(errors.EventProbeError, match="^stage 'probe' failed: boom$") as info:
            pipeline.run_pipeline(pipeline.PipelineConfig.from_file(config_path))
        assert type(info.value) is errors.EventProbeError
        assert isinstance(info.value.__cause__, RuntimeError)
