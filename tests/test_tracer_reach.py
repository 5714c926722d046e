"""The benchmark's tracer still reaches the functions it wraps.

`perfbench/spans.py` wraps eventprobe functions by name, where their callers
look them up. A refactor that renames such a function, or calls it through
another name, leaves the tracer blind without failing anything. These tests
load the tracer from its file, unchanged, and check its reach.
"""

import importlib.util
from pathlib import Path

import pytest

from eventprobe.manipulate import apply_corpus, enumerate_candidates

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Callees the tracer already cannot find: the cli and pipeline hold the
# stage functions and writers as objects, which by-name patches bypass.
KNOWN_MISSING = {
    "cli.load_profile",
    "cli.default_templates",
    "cli.load_templates",
    "pipeline.scene_graph_to_doc",
    "cli.scene_graph_to_doc",
    "cli.parse_scene_graph",
    "cli.apply_corpus",
    "cli.records_to_jsonl",
    "cli.records_from_jsonl",
    "cli.render_pair",
    "cli.pairs_to_jsonl",
    "pipeline.emit_benchmark",
    "cli.emit_benchmark",
}


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_no_callee_goes_missing(tracer):
    assert set(tracer.missing) <= KNOWN_MISSING


def test_traced_probe_counts_every_site(tracer, corpus, profile):
    quotas = {category.key: 1 for category in profile.category_set}
    tracer.start_job()
    records = apply_corpus(corpus, profile, quotas, 7)
    # The wrapped enumerate_candidates is the one the sampling loop called.
    spans = [span for span in tracer.spans if span[0] == "manipulate.enumerate_s"]
    assert len(spans) == len(corpus) * len(profile.category_set)
    tracer.uninstall()
    total = sum(
        len(enumerate_candidates(graph, profile, category))
        for graph in corpus
        for category in profile.category_set
    )
    assert tracer.counters[0]["manipulate.sites"] == total > len(records)
