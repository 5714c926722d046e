"""Spans and counters recorded around calls into eventprobe's layers.

The tracer wraps public functions of the program where their callers look
them up (a module's namespace, or a class for a method), so a traced job
runs exactly the code an untraced job runs. Each call becomes one span
(name, start, end, parent, job id); counters are read from the call's
arguments and result at the same boundary. Everything stays in memory
until `write` is called at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


def _text_bytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _count_graph(args, kwargs, result):
    yield "scene_graph.tuples", len(result.tuples)
    yield "scene_graph.bytes_in", os.path.getsize(args[0])


def _count_recall(args, kwargs, result):
    _, gt, _, direction = args
    yield "evaluate.recall_calls", 1
    yield "evaluate.queries", len(gt.caption_to_video if direction == "T2V" else gt.video_to_captions)


def _count_matrix(args, kwargs, result):
    yield "evaluate.csv_bytes", os.path.getsize(args[0])
    yield "evaluate.cells", result.scores.size


# (modules whose namespace holds the callee, attribute, span name, counters)
# Both `pipeline` (used by `run`) and `cli` (used by the stage commands)
# import the layer functions by name, so each is patched where it is looked up.
PATCHES = (
    (("pipeline", "cli"), "load_profile", "profiles.load_s", None),
    (("pipeline", "cli"), "default_templates", "captions.templates_load_s", None),
    (("pipeline", "cli"), "load_templates", "captions.templates_load_s", None),
    (("pipeline",), "load_scene_graph", "scene_graph.load_s", _count_graph),
    (("pipeline",), "validate", "scene_graph.validate_s", None),
    (("pipeline", "cli"), "scene_graph_to_doc", "scene_graph.to_doc_s", None),
    (("cli",), "parse_scene_graph", "scene_graph.parse_s", None),
    (
        ("pipeline", "cli"),
        "apply_corpus",
        "manipulate.apply_corpus_s",
        lambda a, k, r: [("manipulate.records", len(r))],
    ),
    (
        ("manipulate",),
        "enumerate_candidates",
        "manipulate.enumerate_s",
        lambda a, k, r: [("manipulate.sites", len(r))],
    ),
    (
        ("pipeline", "cli"),
        "records_to_jsonl",
        "manipulate.to_jsonl_s",
        lambda a, k, r: [("manipulate.records_bytes", _text_bytes(r))],
    ),
    (("cli",), "records_from_jsonl", "manipulate.from_jsonl_s", None),
    (
        ("pipeline", "cli"),
        "render_pair",
        "captions.render_s",
        lambda a, k, r: [("captions.pairs", 1)],
    ),
    (("cli",), "pairs_to_jsonl", "captions.to_jsonl_s", None),
    (("cli",), "pairs_from_jsonl", "captions.from_jsonl_s", None),
    (
        ("pipeline", "cli"),
        "emit_benchmark",
        "captions.emit_s",
        lambda a, k, r: [("captions.benchmark_bytes", os.path.getsize(a[1]))],
    ),
    (("cli",), "load_score_matrix", "evaluate.load_matrix_s", _count_matrix),
    (("cli",), "evaluate_pools", "evaluate.pools_s", None),
    (("evaluate",), "ScoreMatrix.submatrix", "evaluate.submatrix_s", None),
    (("evaluate",), "recall_at_k", "evaluate.recall_s", _count_recall),
    (("cli",), "summarize", "evaluate.summarize_s", None),
    (("losses",), "LossBatch", "losses.batch_s", None),
    (("losses",), "hn_nce_weights", "losses.weights_s", None),
    (("losses",), "hn_nce_forward", "losses.forward_s", None),
    (("losses",), "hn_nce_grad", "losses.grad_s", None),
)

SPAN_METRICS = sorted({name for _, _, name, _ in PATCHES})
COUNTER_METRICS = (
    "scene_graph.tuples",
    "scene_graph.bytes_in",
    "manipulate.sites",
    "manipulate.records",
    "manipulate.records_bytes",
    "captions.pairs",
    "captions.benchmark_bytes",
    "evaluate.csv_bytes",
    "evaluate.cells",
    "evaluate.recall_calls",
    "evaluate.queries",
)
JOB = "job"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counters: list[dict[str, float]] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._job = -1
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._job)

    def start_job(self) -> None:
        self._job += 1
        self.counters.append({})

    def _wrap(self, fn, name, count):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                totals = tracer.counters[tracer._job]
                for key, value in count(args, kwargs, result):
                    totals[key] = totals.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        """Wrap every callee in PATCHES; a callee the program lacks is listed
        in `missing` and its metrics stay zero."""
        for modules, attr, name, count in PATCHES:
            for module_name in modules:
                owner = importlib.import_module(f"eventprobe.{module_name}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, leaf, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._undo.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def job_metrics(self) -> list[dict[str, float]]:
        """Per job: total seconds per span name, counters, and the job
        root's self time (its duration minus its direct children)."""
        jobs = [dict.fromkeys(SPAN_METRICS, 0.0) for _ in self.counters]
        child_time: dict[int, float] = {}
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            if name == JOB:
                jobs[job]["trace.job_s"] = end - start
                jobs[job]["cli.self_s"] = end - start - child_time.get(index, 0.0)
            else:
                jobs[job][name] += end - start
        for job, counters in zip(jobs, self.counters):
            job.update(dict.fromkeys(COUNTER_METRICS, 0))
            job.update(counters)
        return jobs

    def summary(self, speed_factors: list[float]) -> dict[str, float]:
        """Median over jobs of every per-job metric, plus derived ratios.

        Times of job j are scaled by speed_factors[j], as the worker scales
        end-to-end job times.
        """
        jobs = self.job_metrics()
        for job, factor in zip(jobs, speed_factors, strict=True):
            for key in job:
                if key.endswith("_s"):
                    job[key] *= factor
        out = {key: statistics.median(job[key] for job in jobs) for key in jobs[0]}
        sites = out["manipulate.sites"]
        out["manipulate.sampled_ratio"] = out["manipulate.records"] / sites if sites else 0.0
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end, "parent": parent, "job": job}
                    )
                    + "\n"
                )
            for job, counters in enumerate(self.counters):
                fh.write(json.dumps({"job": job, "counters": counters}) + "\n")
