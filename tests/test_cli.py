import errno
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import eventprobe
from eventprobe import cli, documents, errors, evaluate, pipeline
from eventprobe.cli import main
from eventprobe.evaluate import CHILD_MIN_CSV_BYTES
from eventprobe.pipeline import CHILD_MIN_TUPLES

from .helpers import PROFILE, Workspace, corpora, no_child_left, outputs, random_profile_corpus, with_objects


def fresh_python(*args):
    """`python ARGS` in a new interpreter that imports this eventprobe;
    raises unless it exits 0."""
    src = str(Path(eventprobe.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)


def matching(video_ids, pairs):
    """1.0 where the caption is the video's own, else 0.0."""
    return [[float(p["video_id"] == v) for p in pairs] for v in video_ids]


def coarse(rng, shift=0.0):
    """Scores in {0, 1/4, 1/2, 3/4} less shift, drawn from rng: ties,
    partial recalls and some zero positive recalls."""
    return lambda video_ids, pairs: rng.integers(0, 4, size=(len(video_ids), len(pairs))) / 4 - shift


# The calls that start a child, each with the error it fails with when the
# process is out of processes or out of file descriptors.
FAILED_CALLS = [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)]


def failing(code):
    def call(*args):
        raise OSError(code, os.strerror(code))
    return call


class TestRunCommand:
    def test_run_success(self, ws, capsys):
        assert main(["run", "--config", str(ws.config)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["stage_counts"]["pairs"] == 24
        assert (ws.out / "benchmark.jsonl").exists()

    def test_second_run_needs_force(self, ws, capsys):
        assert main(["run", "--config", str(ws.config)]) == 0
        assert main(["run", "--config", str(ws.config)]) == 5
        assert main(["run", "--config", str(ws.config), "--force"]) == 0

    def test_missing_profile_exit_code(self, ws):
        ws.edit(profile_path=str(ws.tmp / "nope.json"))
        assert main(["run", "--config", str(ws.config)]) == 3

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize(
        "malformed",
        [
            {"decorator": {"enabled": "false", "endpoint": "http://localhost:9", "api_key_env": "PROBE_KEY"}},
            {"decorator": {"timeout_s": "10"}},
            {"decorator": {"max_candidates": "ten"}},
            {"categories": {"temporal.predicate.Action": 1}},
        ],
        ids=["decorator-enabled-string", "decorator-timeout-string", "decorator-max-candidates-word",
             "categories-object"],
    )
    def test_malformed_config_exit_code(self, ws, malformed, capsys):
        ws.edit(**malformed)
        assert main(["run", "--config", str(ws.config)]) == 2
        assert capsys.readouterr().err.startswith("error: malformed config")

    @pytest.mark.parametrize("out", ["blocker", "blocker/sub"], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["run", "ingest", "probe", "render", "emit"])
    def test_output_directory_unwritable(self, ws, capsys, command, out):
        (ws.tmp / "blocker").write_text("x")
        assert main([command, "--config", str(ws.config), "--out", str(ws.tmp / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output directory") and str(ws.tmp / out) in err
        assert (ws.tmp / "blocker").read_text() == "x"

    def test_a_taken_temporary_name_is_left_alone(self, ws, capsys):
        """A write that cannot open `<name>.tmp` removes only the temporaries it made."""
        out = ws.out
        (out / "benchmark.jsonl.tmp").mkdir(parents=True)
        listing = sorted(out.rglob("*"))
        assert main(["run", "--config", str(ws.config)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot write output directory") and str(out) in err, err
        assert sorted(out.rglob("*")) == listing

    def test_a_failed_first_move_of_any_class_propagates(self, tmp_path, monkeypatch):
        """A fault in the first move that is not an OSError propagates as it
        was raised; every temporary is removed and the old output kept."""
        out = tmp_path / "out"
        out.mkdir()
        (out / "graphs.jsonl").write_bytes(b"old\n")
        boom = RuntimeError("boom")
        real_replace, moves = os.replace, []

        def replace_first_fails(src, dst):
            moves.append(dst)
            if len(moves) == 1:
                raise boom
            real_replace(src, dst)

        monkeypatch.setattr(documents.os, "replace", replace_first_fails)
        with pytest.raises(RuntimeError) as raised:
            documents.write_outputs(out, {"graphs.jsonl": "new\n", "records.jsonl": "new\n"})
        assert raised.value is boom and len(moves) == 1
        assert outputs(out) == {"graphs.jsonl": b"old\n"}

    def test_predicate_tuple_without_object_gives_no_predicate_sites(self, ws, capsys):
        doc = json.loads((ws.corpus / "kitchen.json").read_text())
        k1 = next(t for t in doc["tuples"] if t["tuple_id"] == "k1")
        del k1["object"], k1["object_attrs"]
        (ws.corpus / "kitchen.json").write_text(json.dumps(doc))
        assert main(["run", "--config", str(ws.config)]) == 0, capsys.readouterr().err
        records = map(json.loads, (ws.out / "records.jsonl").read_text().splitlines())
        assert not any("k1" in r["source_tuple_ids"] and ".predicate." in r["category"] for r in records)

    def test_only_a_sides_first_attribute_of_a_type_is_manipulated(self, ws, capsys):
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
        (ws.tmp / "kites.json").write_text(json.dumps(doc))
        ws.edit(input_glob=str(ws.tmp / "kites.json"))
        assert main(["run", "--config", str(ws.config)]) == 0, capsys.readouterr().err
        pairs = [json.loads(line) for line in (ws.out / "benchmark.jsonl").read_text().splitlines()]
        assert {p["category"].split(".")[0] for p in pairs} == {"temporal", "neighborhood", "counterfactual"}
        assert all(p["positive"]["text"] != p["negative"]["text"] for p in pairs)

    def test_categories_string_asks_for_list(self, ws, capsys):
        ws.edit(categories="temporal.predicate.Action")
        assert main(["run", "--config", str(ws.config)]) == 2
        err = capsys.readouterr().err
        assert "categories must be a list" in err and "'t'" not in err

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_empty_output_dir_is_a_config_error(self, ws, capsys, monkeypatch, where):
        cwd = ws.tmp / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        argv = ["run", "--config", str(ws.config)]
        if where == "config":
            ws.edit(output_dir="")
        else:
            argv += ["--out", ""]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == ("error: malformed config: key 'output_dir' must name a directory, "
                       f"got an empty string (config file {ws.config})\n")
        assert list(cwd.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "probe"])
    @pytest.mark.parametrize("where", ["profile", "config"])
    def test_no_category_left_to_probe(self, ws, capsys, command, where):
        if command == "probe":
            assert main(["ingest", "--config", str(ws.config)]) == 0
        if where == "profile":
            ws.profile.write_text(json.dumps({**json.loads(ws.profile.read_text()), "categories": []}))
            cause = f"profile {ws.profile} declares no categories; nothing to probe"
        else:
            ws.edit(categories=[])
            cause = "config key 'categories' lists no category; nothing to probe"
        before = outputs(ws.out) if command == "probe" else None
        capsys.readouterr()
        assert main([command, "--config", str(ws.config)]) == 6
        assert capsys.readouterr().err == f"error: stage 'probe' failed: {cause}\n"
        if command == "probe":
            assert outputs(ws.out) == before
        else:
            assert not ws.out.exists()

    def test_seed_override_changes_digest(self, ws, capsys):
        assert main(["run", "--config", str(ws.config)]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["run", "--config", str(ws.config), "--force", "--seed", "7"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["config_digest"] != second["config_digest"]


class TestStagedCommands:
    def test_stages_reproduce_run_output(self, ws, capsys):
        assert main(["run", "--config", str(ws.config)]) == 0
        capsys.readouterr()
        run_benchmark = (ws.out / "benchmark.jsonl").read_bytes()

        staged_out = ws.tmp / "staged"
        for command in ("ingest", "probe", "render", "emit"):
            code = main([command, "--config", str(ws.config), "--out", str(staged_out)])
            assert code == 0, command
        staged_benchmark = (staged_out / "benchmark.jsonl").read_bytes()
        assert staged_benchmark == run_benchmark
        assert (staged_out / "run_manifest.json").exists()

    def test_probe_before_ingest_fails(self, ws):
        assert main(["probe", "--config", str(ws.config)]) == 6

    @pytest.mark.parametrize("fixture", ["focker.json", "forrest.json", "kitchen.json"])
    @pytest.mark.parametrize("seed", [1, 42])
    def test_stages_reproduce_run_per_fixture(self, ws, capsys, fixture, seed):
        ws.edit(input_glob=str(ws.corpus / fixture))
        flags = ["--config", str(ws.config), "--seed", str(seed)]
        assert main(["run", *flags, "--out", str(ws.tmp / "run")]) == 0
        for command in ("ingest", "probe", "render", "emit"):
            assert main([command, *flags, "--out", str(ws.tmp / "staged")]) == 0, command
        for name in ("graphs.jsonl", "records.jsonl", "benchmark.jsonl"):
            assert (ws.tmp / "staged" / name).read_bytes() == (ws.tmp / "run" / name).read_bytes()

    def test_render_without_graphs_exit_code(self, ws, capsys):
        for command in ("ingest", "probe"):
            assert main([command, "--config", str(ws.config)]) == 0
        (ws.out / "graphs.jsonl").unlink()
        capsys.readouterr()
        assert main(["render", "--config", str(ws.config)]) == 6
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "graphs.jsonl not found" in err
        assert not (ws.out / "benchmark.jsonl").exists()

    def test_emit_counts_the_lines_render_parsed(self, ws, capsys):
        # A final line without its newline, and a blank line, are counted as
        # parse_jsonl reads them: one item per non-blank line.
        assert main(["run", "--config", str(ws.config), "--out", str(ws.tmp / "run")]) == 0
        counts = json.loads(capsys.readouterr().out)["stage_counts"]
        ws.command("ingest", "probe", "render")
        for name, edit in [("graphs.jsonl", lambda text: text.replace("\n", "\n \n", 1)),
                           ("records.jsonl", lambda text: text.rstrip("\n"))]:
            text = (ws.out / name).read_text(encoding="utf-8")
            (ws.out / name).write_text(edit(text), encoding="utf-8")
        for command in ("render", "emit"):
            assert main([command, "--config", str(ws.config), "--force"]) == 0
        manifest = json.loads((ws.out / "run_manifest.json").read_text(encoding="utf-8"))
        assert manifest["stage_counts"] == counts and counts["records"] == counts["pairs"]


class TestInputFileErrors:
    @pytest.mark.parametrize("commands", [["run"], ["ingest", "probe", "render"]], ids=["run", "render"])
    @pytest.mark.parametrize(
        "content, code, message",
        [(None, 7, "template file not found"), (b'{"templates": "\xff"}', 4, "not UTF-8")],
        ids=["missing", "non-utf8"],
    )
    def test_template_file_errors(self, ws, capsys, commands, content, code, message):
        if content is not None:
            ws.templates.write_bytes(content)
        ws.edit(templates_path=str(ws.templates))
        argv = ws.command(*commands)
        capsys.readouterr()
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and str(ws.templates) in err

    @pytest.mark.parametrize(
        "content, message, command",
        [
            (b"\xff", "not UTF-8", "run"),
            (b"{not json", "invalid JSON", "run"),
            (b"\xff", "not UTF-8", "ingest"),
            (b"{not json", "invalid JSON", "ingest"),
            (b'{"video_id": "v"}', "missing key", "ingest"),
        ],
        ids=["non-utf8-run", "invalid-json-run", "non-utf8-ingest", "invalid-json-ingest", "missing-key-ingest"],
    )
    def test_corpus_file_errors(self, ws, capsys, content, message, command):
        (ws.corpus / "broken.json").write_bytes(content)
        assert main([command, "--config", str(ws.config)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and str(ws.corpus / "broken.json") in err
        assert not ws.out.exists()


def run_commands(ws: Workspace, commands) -> tuple[int, dict]:
    """Exit code of the first failing command (or 0) and the output files,
    over an emptied output directory; none if the directory was not made."""
    shutil.rmtree(ws.out, ignore_errors=True)
    code = 0
    for command in commands:
        code = main([command, "--config", str(ws.config)])
        if code != 0:
            break
    return code, outputs(ws.out) if ws.out.exists() else {}


class TestStageTable:
    @pytest.mark.parametrize("name", list(pipeline.STAGE_BY_NAME))
    def test_a_stage_commands_help_names_its_output(self, name, capsys):
        with pytest.raises(SystemExit) as raised:
            main([name, "--help"])
        assert raised.value.code == 0
        assert pipeline.STAGE_BY_NAME[name].output in capsys.readouterr().out

    @given(corpora)
    def test_staged_commands_write_what_run_writes(self, corpus):
        with tempfile.TemporaryDirectory() as tmp:
            ws = Workspace(Path(tmp), [(graph.video_id, graph) for graph in corpus], global_seed=3)
            run_code, run_files = run_commands(ws, ["run"])
            staged_code, staged_files = run_commands(ws, ["ingest", "probe", "render", "emit"])
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
                ws = Workspace(Path(tmp), [(f"f{i}", g) for i, g in enumerate(corpus)], global_seed=3)
                results.append(run_commands(ws, ["run"]))
        (code, files), (reversed_code, reversed_files) = results
        assert code == reversed_code
        if code == 0:  # a corpus without sites makes both end in exit 6
            assert files.pop("graphs.jsonl") != reversed_files.pop("graphs.jsonl")
            assert len(files) == 3 and reversed_files == files

    @pytest.mark.parametrize("commands", [["run"], ["render"]], ids=["run", "render"])
    def test_failed_force_rerun_leaves_directory_unchanged(self, ws, commands):
        assert main(["run", "--config", str(ws.config)]) == 0
        before = outputs(ws.out)
        ws.edit(templates_path=str(ws.tmp / "absent.json"))
        for command in commands:
            assert main([command, "--config", str(ws.config), "--force"]) == 7
        assert outputs(ws.out) == before

    def test_stage_removes_later_outputs(self, ws, capsys):
        assert main(["run", "--config", str(ws.config)]) == 0
        assert main(["ingest", "--config", str(ws.config), "--force"]) == 0
        assert list(outputs(ws.out)) == ["graphs.jsonl"]
        capsys.readouterr()
        assert main(["render", "--config", str(ws.config)]) == 6
        assert "records.jsonl not found" in capsys.readouterr().err

    def test_staged_probe_rejects_unknown_quota(self, ws, capsys):
        assert main(["ingest", "--config", str(ws.config)]) == 0
        ws.edit(quotas={"counterfactual.attribute.Smell": 1})
        capsys.readouterr()
        assert main(["probe", "--config", str(ws.config)]) == 2
        assert "counterfactual.attribute.Smell" in capsys.readouterr().err

    # In a fresh interpreter: this one has numpy loaded, and an earlier
    # test may have bound the numeric commands' names in eventprobe.cli.
    def test_cli_import_loads_no_thread_pool_or_http_client(self, ws):
        """Neither the import nor a pipeline run loads a thread pool, an HTTP
        client, numpy or the modules that use it; a numeric name asked of
        eventprobe.cli afterwards is bound to its module's object."""
        unwanted = ("concurrent.futures", "urllib.request", "requests")
        numeric = ("numpy", "eventprobe.evaluate", "eventprobe.losses")
        code = (
            "import sys, eventprobe.cli\n"
            f"print([m for m in {unwanted + numeric!r} if m in sys.modules])\n"
            f"assert eventprobe.cli.main(['run', '--config', {str(ws.config)!r}]) == 0\n"
            f"print([m for m in {numeric!r} if m in sys.modules])\n"
            "import eventprobe.evaluate, eventprobe.losses\n"
            "assert eventprobe.cli.load_score_matrix is eventprobe.evaluate.load_score_matrix\n"
            "assert eventprobe.cli.hn_nce_forward is eventprobe.losses.hn_nce_forward\n"
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


def with_cpus(ws, command, cpus, monkeypatch, capsys, min_size=0):
    """`command --force` over ws with `cpus` usable CPUs and every size rule
    of the pipeline's children at min_size: its exit code, its stderr and
    the output directory. No child process and no open file may outlive it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for rule in ("CHILD_MIN_TUPLES", "CHILD_MIN_PROBE_TUPLES", "CHILD_MIN_RECORDS_CHARS"):
        monkeypatch.setattr(pipeline, rule, min_size)
    capsys.readouterr()
    with no_child_left():
        code = main([command, "--config", str(ws.config), "--force"])
    return code, capsys.readouterr().err, outputs(ws.out) if ws.out.exists() else {}


def counting_forks(monkeypatch) -> list:
    """A list that gets one item per os.fork from now on."""
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    return forks


class TestGraphsChild:
    """`run` composes graphs.jsonl in a forked child while probe, render and
    emit run, when two CPUs are usable and the corpus is large enough."""

    @staticmethod
    def compose_with(monkeypatch, write):
        """Makes write(graphs) the composer of graphs.jsonl."""
        monkeypatch.setattr(pipeline, "STAGES", (replace(pipeline.STAGES[0], write=write), *pipeline.STAGES[1:]))

    def test_graphs_composed_in_a_child_give_the_same_outputs(self, ws, capsys, monkeypatch):
        forks = counting_forks(monkeypatch)
        in_process = with_cpus(ws, "run", 1, monkeypatch, capsys)
        assert in_process[0] == 0 and len(in_process[2]) == 4
        # The fixtures hold far fewer tuples than a child needs to pay.
        assert with_cpus(ws, "run", 2, monkeypatch, capsys, CHILD_MIN_TUPLES) == in_process
        assert forks == []
        shutil.rmtree(ws.out)
        assert with_cpus(ws, "run", 2, monkeypatch, capsys) == in_process
        assert forks == [1]
        # A lone ingest or emit has nothing to share, so it never forks; a
        # lone probe and a lone render fork once each (the size rules are 0).
        for command in ("ingest", "probe", "render", "emit"):
            before = len(forks)
            assert main([command, "--config", str(ws.config), "--force"]) == 0
            assert len(forks) - before == (command in ("probe", "render")), command
        assert outputs(ws.out) == in_process[2]

    @pytest.mark.parametrize("fault", ["later-stage", "compose"])
    def test_a_fault_while_the_child_composes_ends_as_in_process(self, ws, capsys, monkeypatch, fault):
        assert main(["run", "--config", str(ws.config)]) == 0
        before = outputs(ws.out)
        if fault == "later-stage":  # render fails; a child would still be composing
            ws.edit(templates_path=str(ws.tmp / "absent.json"))
            self.compose_with(monkeypatch, lambda graphs: time.sleep(60))
        else:
            def compose(graphs):
                raise ValueError("Out of range float values are not JSON compliant")
            self.compose_with(monkeypatch, compose)
        started = time.monotonic()
        in_process = with_cpus(ws, "run", 1, monkeypatch, capsys)
        assert with_cpus(ws, "run", 2, monkeypatch, capsys) == in_process
        assert time.monotonic() - started < 30
        code, err, files = in_process
        assert (code, files) == ({"later-stage": 7, "compose": 1}[fault], before)
        stage = {"later-stage": "render", "compose": "ingest"}[fault]
        assert err.startswith(f"error: stage '{stage}' failed: ") and len(err.splitlines()) == 1

    def test_a_child_killed_before_its_text_is_taken_names_graphs_jsonl(self, ws, capsys, monkeypatch):
        assert main(["run", "--config", str(ws.config)]) == 0
        before = outputs(ws.out)
        parent = os.getpid()

        def killed(graphs):
            assert os.getpid() != parent, "composed in this process"
            os.kill(os.getpid(), signal.SIGKILL)

        self.compose_with(monkeypatch, killed)
        graphs = ws.out / "graphs.jsonl"
        assert with_cpus(ws, "run", 2, monkeypatch, capsys) == (
            1, f"error: stage 'ingest' failed: {graphs}: the process writing it ended without a result\n", before
        )

    @pytest.mark.parametrize("call, code", FAILED_CALLS, ids=[call for call, _ in FAILED_CALLS])
    def test_a_failed_fork_or_pipe_composes_graphs_in_process(self, ws, capsys, monkeypatch, call, code):
        in_process = with_cpus(ws, "run", 1, monkeypatch, capsys)
        monkeypatch.setattr(os, call, failing(code))
        assert with_cpus(ws, "run", 2, monkeypatch, capsys) == in_process
        assert in_process[0] == 0


class TestLoneStageChild:
    """A lone probe or render computes the second half of its categories or
    records in a forked child while it computes the first, when two CPUs
    are usable and its input passes the size rule (0 here)."""

    def test_halves_computed_in_a_child_give_the_in_process_outputs(self, ws, capsys, monkeypatch):
        assert main(["run", "--config", str(ws.config)]) == 0
        run_files = outputs(ws.out)
        forks = counting_forks(monkeypatch)
        for command in ("probe", "render"):
            in_process = with_cpus(ws, command, 1, monkeypatch, capsys)
            assert in_process[0] == 0 and with_cpus(ws, command, 2, monkeypatch, capsys) == in_process
        assert forks == [1, 1]
        assert main(["emit", "--config", str(ws.config), "--force"]) == 0
        assert outputs(ws.out) == run_files

    @pytest.mark.parametrize("last_line", ["valid", "malformed"])
    def test_a_parse_error_anywhere_wins_over_an_earlier_render_error(self, tmp_path, capsys, monkeypatch, last_line):
        ws = Workspace(tmp_path, templates=True)
        ws.command("ingest", "probe", "render")
        # A render error on the first record, which is temporal and has
        # slots subject1 and subject2 only, and on the last records.
        table = json.loads(ws.templates.read_text(encoding="utf-8"))
        table["templates"]["temporal.predicate.Action"]["positive"] = "{subject}"
        table["templates"]["counterfactual.attribute.Color"]["positive"] = "{subject1}"
        ws.templates.write_text(json.dumps(table), encoding="utf-8")
        records = ws.out / "records.jsonl"
        lines = records.read_text(encoding="utf-8").splitlines(keepends=True)
        assert json.loads(lines[0])["category"] == "temporal.predicate.Action"
        if last_line == "malformed":
            records.write_text("".join(lines[:-1]) + "{oops\n", encoding="utf-8")
        before = outputs(ws.out)
        in_process = with_cpus(ws, "render", 1, monkeypatch, capsys)
        assert with_cpus(ws, "render", 2, monkeypatch, capsys) == in_process
        code, err, files = in_process
        assert files == before and len(err.splitlines()) == 1
        if last_line == "malformed":
            assert code == 4 and f"{records} line {len(lines)}: invalid JSON" in err
        else:
            assert code == 7 and "record 'temporal.predicate.Action#0000' cannot fill slot 'subject'" in err

    def test_the_first_failing_category_in_profile_order_wins(self, ws, capsys, monkeypatch):
        assert main(["run", "--config", str(ws.config)]) == 0
        before = outputs(ws.out)
        real = pipeline.apply_corpus
        failing_keys = set()

        def apply_corpus(graphs, profile, quotas, seed, categories=None):
            for category in categories or profile.category_set:
                if category.key in failing_keys:
                    raise errors.ManipulationError(f"{category.key} fails")
            return real(graphs, profile, quotas, seed, categories=categories)

        monkeypatch.setattr(pipeline, "apply_corpus", apply_corpus)
        # The child computes the last four of the profile's eight categories.
        for keys, first in [
            ({"temporal.attribute.Color", "counterfactual.predicate.Contact"}, "temporal.attribute.Color"),
            ({"counterfactual.attribute.Color", "counterfactual.predicate.Contact"}, "counterfactual.predicate.Contact"),
        ]:
            failing_keys.clear()
            failing_keys.update(keys)
            expected = (9, f"error: stage 'probe' failed: {first} fails\n", before)
            assert with_cpus(ws, "probe", 2, monkeypatch, capsys) == expected
            assert with_cpus(ws, "probe", 1, monkeypatch, capsys) == expected
            assert with_cpus(ws, "run", 1, monkeypatch, capsys) == expected

    @pytest.mark.parametrize("command, victim", [("probe", "apply_corpus"), ("render", "render_pair")])
    def test_a_child_killed_mid_command_names_its_output(self, ws, capsys, monkeypatch, command, victim):
        assert main(["run", "--config", str(ws.config)]) == 0
        before = outputs(ws.out)
        parent, real = os.getpid(), getattr(pipeline, victim)

        def killed(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, victim, killed)
        output = ws.out / pipeline.STAGE_BY_NAME[command].output
        assert with_cpus(ws, command, 2, monkeypatch, capsys) == (
            1, f"error: stage '{command}' failed: {output}: the process writing it ended without a result\n", before
        )

    @pytest.mark.parametrize("call, code", FAILED_CALLS, ids=[call for call, _ in FAILED_CALLS])
    def test_a_failed_fork_or_pipe_computes_both_halves_in_process(self, ws, capsys, monkeypatch, call, code):
        assert main(["run", "--config", str(ws.config)]) == 0
        for command in ("probe", "render"):
            in_process = with_cpus(ws, command, 1, monkeypatch, capsys)
            with monkeypatch.context() as failed:
                failed.setattr(os, call, failing(code))
                assert with_cpus(ws, command, 2, monkeypatch, capsys) == in_process
            assert in_process[0] == 0


class TestEvalCommands:
    def test_eval_writes_reports(self, ws, capsys):
        argv = ws.eval_argv(positive=matching)
        capsys.readouterr()
        assert main([*argv, "--ks", "1,5", "--model", "oracle-sim"]) == 0
        gaps = (ws.tmp / "reports" / "gaps.csv").read_text().splitlines()
        assert gaps[0] == "category,direction,k,p,p_control,delta_p"
        # A perfectly aligned model with a tied control pool maximizes the gap.
        first = gaps[1].split(",")
        assert float(first[3]) == 1.0
        assert float(first[5]) == 1.0
        scatter = (ws.tmp / "reports" / "scatter.csv").read_text().splitlines()
        assert scatter[1].split(",")[1] == "oracle-sim"
        assert (ws.tmp / "reports" / "recalls.csv").exists()

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

    def test_gap_report_reads_eval_recalls(self, ws, capsys):
        scores = coarse(np.random.default_rng(3))
        assert main([*ws.eval_argv(scores, scores), "--ks", "1,5", "--out", str(ws.tmp / "eval")]) == 0
        recalls = ws.tmp / "eval" / "recalls.csv"
        code = main(["gap-report", "--recalls", str(recalls), "--out", str(ws.tmp / "gap")])
        assert code == 0
        eval_gaps = (ws.tmp / "eval" / "gaps.csv").read_bytes()
        assert len(eval_gaps.splitlines()) > 1
        assert (ws.tmp / "gap" / "gaps.csv").read_bytes() == eval_gaps

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
            (["--out", "{tmp}/scores.csv/reports"], 2),
        ],
        ids=["k-zero", "k-not-a-number", "ks-empty", "ks-repeated", "unknown-direction", "out-under-a-file"],
    )
    def test_eval_bad_input_exit_code(self, ws, capsys, flags, code):
        argv = ws.eval_argv()
        capsys.readouterr()
        assert main(argv + [flag.format(tmp=ws.tmp) for flag in flags]) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert not (ws.tmp / "reports").exists()

    def test_npz_scores_give_the_csv_reports(self, ws, capsys):
        draw = coarse(np.random.default_rng(5), shift=0.5)  # many correct items tie with others

        def saved(name):
            """draw's scores, also saved as ws.tmp/name.npz."""
            def scores(video_ids, pairs):
                matrix = draw(video_ids, pairs)
                np.savez(ws.tmp / f"{name}.npz", video_ids=np.array(video_ids),
                         caption_ids=np.array([p["pair_id"] for p in pairs]), scores=matrix)
                return matrix
            return scores

        argv = ws.eval_argv(saved("positive"), saved("control"))
        npz = {str(ws.scores): str(ws.tmp / "positive.npz"), str(ws.scores_control): str(ws.tmp / "control.npz")}
        for suffix, paths in (("csv", {}), ("npz", npz)):
            assert main([paths.get(a, a) for a in argv] + ["--ks", "1,2,5", "--out", str(ws.tmp / suffix)]) == 0
        for report in ("recalls.csv", "gaps.csv", "scatter.csv"):
            assert (ws.tmp / "npz" / report).read_bytes() == (ws.tmp / "csv" / report).read_bytes()
        assert len((ws.tmp / "csv" / "gaps.csv").read_bytes().splitlines()) > 1

    def test_eval_repeated_pair_id_exit_code(self, ws, capsys):
        argv = ws.eval_argv()
        first = ws.benchmark.read_text().splitlines(keepends=True)[0]
        with open(ws.benchmark, "a", encoding="utf-8") as fh:
            fh.write(first)
        capsys.readouterr()
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(json.loads(first)["pair_id"]) in err, err
        assert not (ws.tmp / "reports").exists()

    def test_eval_unknown_id_exit_code(self, ws, capsys):
        argv = ws.eval_argv()
        bad = ws.tmp / "bad.csv"
        bad.write_text("video_id,capX\nvidX,0.1\n", encoding="utf-8")
        for flag in ("--scores", "--scores-control"):
            capsys.readouterr()
            assert main([*argv, flag, str(bad)]) == 8
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
        capsys.readouterr()
        with no_child_left():
            code = main(argv)
        reports = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
        return code, capsys.readouterr().err, reports

    def test_the_control_matrix_read_in_a_child_gives_the_same_reports(self, ws, capsys, monkeypatch):
        scores = coarse(np.random.default_rng(3))
        argv = [*ws.eval_argv(scores, scores), "--ks", "1,2,5"]
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
    def test_a_fault_in_any_eval_input_ends_as_in_process(self, ws, capsys, monkeypatch, faults):
        argv = ws.eval_argv()
        benchmark, positive, control = ws.benchmark, ws.scores, ws.scores_control
        if "benchmark" in faults:
            benchmark.write_text("{oops\n")
        if "positive" in faults:
            positive.unlink()
        if "control" in faults:
            control.write_text(control.read_text().replace("0.5", "nan", 1))
        in_process = self.eval_with_cpus(argv, 1, monkeypatch, capsys)
        assert self.eval_with_cpus(argv, 2, monkeypatch, capsys) == in_process
        first = next(name for name in ("benchmark", "positive", "control") if name in faults)
        code, err, reports = in_process
        assert (code, reports) == ({"benchmark": 4, "positive": 6, "control": 4}[first], {})
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert str(dict(benchmark=benchmark, positive=positive, control=control)[first]) in err

    @pytest.mark.parametrize("fault", ["repeated-id", "blank-negative"])
    def test_a_benchmark_error_wins_over_a_score_file_error(self, ws, capsys, monkeypatch, fault):
        argv = ws.eval_argv()
        lines = ws.benchmark.read_text(encoding="utf-8").splitlines(keepends=True)
        first = json.loads(lines[0])
        if fault == "repeated-id":
            ws.benchmark.write_text("".join(lines) + lines[0], encoding="utf-8")
            expected = (4, f"duplicate pair_id {first['pair_id']!r}")
        else:
            first["negative"]["text"] = " "
            ws.benchmark.write_text("".join([json.dumps(first) + "\n", *lines[1:]]), encoding="utf-8")
            expected = (8, f"pair {first['pair_id']!r} lacks negative text")
        ws.scores.unlink()
        forks = counting_forks(monkeypatch)
        for cpus in (1, 2):
            code, err, reports = self.eval_with_cpus(argv, cpus, monkeypatch, capsys)
            assert (code, err, reports) == (expected[0], f"error: {expected[1]}\n", {}), cpus
        assert forks == []  # the benchmark is checked before a child is started

    @pytest.mark.parametrize("fault", ["unknown-id-in-both", "unknown-id-in-control", "unknown-id-beside-a-nan"])
    def test_a_rank_error_ends_as_in_process(self, ws, capsys, monkeypatch, fault):
        """Each matrix is ranked where it is read; a load error still wins
        over a rank error, and between two rank errors that of --scores."""
        argv = ws.eval_argv()
        unknown = "video_id,capX\nvidX,0.1\n"
        if fault != "unknown-id-in-control":
            ws.scores.write_text(unknown, encoding="utf-8")
        if fault == "unknown-id-beside-a-nan":
            ws.scores_control.write_text(ws.scores_control.read_text().replace("0.5", "nan", 1))
        else:
            ws.scores_control.write_text(unknown, encoding="utf-8")
        in_process = self.eval_with_cpus(argv, 1, monkeypatch, capsys)
        assert self.eval_with_cpus(argv, 2, monkeypatch, capsys) == in_process
        named = ws.scores if fault == "unknown-id-in-both" else ws.scores_control
        code, err, reports = in_process
        if fault == "unknown-id-beside-a-nan":
            assert (code, reports) == (4, {}) and err == f"error: {named}: scores must all be finite\n"
        else:
            assert (code, reports) == (8, {})
            assert re.fullmatch(f"error: video '[^']+' missing from {re.escape(str(named))}\n", err), err

    def test_a_child_that_dies_names_the_control_file(self, ws, capsys, monkeypatch):
        argv = ws.eval_argv()
        control = str(ws.scores_control)
        load = cli.load_score_matrix
        monkeypatch.setattr(cli, "load_score_matrix", lambda path: os._exit(3) if path == control else load(path))
        assert self.eval_with_cpus(argv, 2, monkeypatch, capsys) == (
            1, f"error: {control}: the process reading it ended without a result\n", {}
        )

    def test_a_child_whose_matrix_is_not_taken_is_stopped(self, ws, capsys, monkeypatch):
        """A missing --scores ends eval at once, while the child still loads
        the control matrix."""
        argv = ws.eval_argv()
        ws.scores.unlink()
        load = cli.load_score_matrix
        control = str(ws.scores_control)
        monkeypatch.setattr(cli, "load_score_matrix", lambda path: time.sleep(60) if path == control else load(path))
        forks = counting_forks(monkeypatch)
        started = time.monotonic()
        code, err, _ = self.eval_with_cpus(argv, 2, monkeypatch, capsys)
        assert (code, err) == (6, f"error: score file not found: {ws.scores}\n")
        assert forks == [1] and time.monotonic() - started < 30

    def test_a_failed_fork_reads_the_control_matrix_in_process(self, ws, capsys, monkeypatch):
        scores = coarse(np.random.default_rng(3))
        argv = ws.eval_argv(scores, scores)
        in_process = self.eval_with_cpus(argv, 1, monkeypatch, capsys)
        for call, code in FAILED_CALLS:
            with monkeypatch.context() as patch:
                patch.setattr(os, call, failing(code))
                assert self.eval_with_cpus(argv, 2, patch, capsys) == in_process, call
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

    def test_an_unexpected_stage_error_exits_1_on_one_line(self, ws, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(pipeline, "apply_corpus", boom)
        assert main(["run", "--config", str(ws.config)]) == 1
        assert capsys.readouterr().err == "error: stage 'probe' failed: boom\n"
        with pytest.raises(errors.EventProbeError, match="^stage 'probe' failed: boom$") as info:
            pipeline.run_pipeline(pipeline.PipelineConfig.from_file(ws.config))
        assert type(info.value) is errors.EventProbeError
        assert isinstance(info.value.__cause__, RuntimeError)
