"""The shared test harness: builders, randomized generators, a workspace
for the eventprobe command, and the reference oracles that unit and
acceptance tests check the program against."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import shutil
import string as _string
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from eventprobe.captions import CaptionPair
from eventprobe.cli import main
from eventprobe.errors import MalformedDocument
from eventprobe.evaluate import ScoreMatrix, load_score_matrix
from eventprobe.losses import LossBatch
from eventprobe.manipulate import RECORDS_FORMAT, AttributeObservation, ManipulationRecord, _derived
from eventprobe.pipeline import PipelineConfig
from eventprobe.profiles import DatasetProfile, parse_profile
from eventprobe.scene_graph import (
    TUPLE_FIELDS,
    AttributeValue,
    EntityRef,
    EventTuple,
    PredicateValue,
    SceneGraph,
    TimeInterval,
)

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS_FILES = ("focker.json", "forrest.json", "kitchen.json")


def package_text(name: str) -> str:
    return resources.files("eventprobe.data").joinpath(name).read_text("utf-8")


# The profile shipped with the package (matches the built-in templates).
PROFILE = parse_profile(json.loads(package_text("profile_default.json")))

WORDS = (
    "amber", "basalt", "cedar", "drift", "ember", "fjord", "garnet", "heath",
    "iris", "jasper", "kelp", "lunar", "moss", "nectar", "onyx", "pearl",
    "quartz", "ripple", "slate", "tundra", "umber", "velvet", "wicker", "zephyr",
)


def entity(eid: str, name: str | None = None, cls: str | None = None) -> EntityRef:
    return EntityRef(entity_id=eid, name=name or eid, entity_class=cls)


def attr(value: str, attr_type: str = "Color") -> AttributeValue:
    return AttributeValue(value=value, attr_type=attr_type)


def pred(value: str, pred_type: str = "Action") -> PredicateValue:
    return PredicateValue(value=value, pred_type=pred_type)


def span(start: float, end: float | None = None) -> TimeInterval:
    return TimeInterval(start_s=start, end_s=start if end is None else end)


def make_tuple(
    tuple_id: str,
    subject: EntityRef,
    *,
    attrs: tuple[AttributeValue, ...] = (),
    predicate: PredicateValue | None = None,
    obj: EntityRef | None = None,
    obj_attrs: tuple[AttributeValue, ...] = (),
    time: TimeInterval | None = None,
) -> EventTuple:
    return EventTuple(
        tuple_id=tuple_id,
        subject=subject,
        subject_attrs=attrs,
        predicate=predicate,
        object=obj,
        object_attrs=obj_attrs,
        time=time or span(0.0, 1.0),
    )


def random_interval(rng: random.Random, horizon: float = 100.0) -> TimeInterval:
    start = round(rng.uniform(0, horizon - 1), 3)
    return TimeInterval(start_s=start, end_s=round(start + rng.uniform(0, 10), 3))


def random_predicate_pair(rng: random.Random) -> tuple[EventTuple, EventTuple]:
    """Two tuples valid for the temporal predicate swap."""
    pred_type = rng.choice(("Action", "Contact", "SpatialRelationship"))
    v1, v2 = rng.sample(WORDS, 2)
    s1, s2 = entity("e1", rng.choice(WORDS)), entity("e2", rng.choice(WORDS))
    t1 = random_interval(rng)
    t2 = random_interval(rng)
    while t2 == t1:
        t2 = random_interval(rng)
    has_obj = rng.random() < 0.5
    e1 = make_tuple(
        "ta",
        s1,
        attrs=(attr(rng.choice(WORDS)),) if rng.random() < 0.5 else (),
        predicate=pred(v1, pred_type),
        obj=entity("o1", rng.choice(WORDS)) if has_obj else None,
        time=t1,
    )
    e2 = make_tuple(
        "tb",
        s2,
        predicate=pred(v2, pred_type),
        time=t2,
    )
    return e1, e2


def random_observation_pair(
    rng: random.Random,
) -> tuple[AttributeObservation, AttributeObservation]:
    """Two observations valid for the temporal attribute swap."""
    subject = entity("e1", rng.choice(WORDS))
    attr_type = rng.choice(("Color", "Material", "Emotion"))
    v1, v2 = rng.sample(WORDS, 2)
    t1 = random_interval(rng)
    t2 = random_interval(rng)
    while t2 == t1:
        t2 = random_interval(rng)
    return (
        AttributeObservation(subject, attr(v1, attr_type), t1),
        AttributeObservation(subject, attr(v2, attr_type), t2),
    )


def random_neighborhood_tuple(rng: random.Random) -> EventTuple:
    """A tuple valid for the neighborhood swap.

    Each side carries at most one attribute per type, the domain on which
    the swap is a well-defined involution.
    """
    types = ["Color", "Material", "Emotion", "Age"]
    rng.shuffle(types)
    shared = types[0]
    v1, v2 = rng.sample(WORDS, 2)
    subject_attrs = [attr(v1, shared)]
    object_attrs = [attr(v2, shared)]
    for extra in types[1 : rng.randint(1, 3)]:
        side = rng.random()
        if side < 0.4:
            subject_attrs.append(attr(rng.choice(WORDS), extra))
        elif side < 0.8:
            object_attrs.append(attr(rng.choice(WORDS), extra))
    rng.shuffle(subject_attrs)
    rng.shuffle(object_attrs)
    return make_tuple(
        "tn",
        entity("e1", rng.choice(WORDS)),
        attrs=tuple(subject_attrs),
        predicate=pred(rng.choice(WORDS)) if rng.random() < 0.5 else None,
        obj=entity("e2", rng.choice(WORDS)),
        obj_attrs=tuple(object_attrs),
        time=random_interval(rng),
    )


def random_profile_graph(rng: random.Random, profile: DatasetProfile) -> SceneGraph:
    """A small random graph that only uses the profile's vocabulary."""
    n_entities = rng.randint(2, 5)
    entities = tuple(
        entity(f"e{i}", rng.choice(WORDS) + _string.ascii_lowercase[i])
        for i in range(n_entities)
    )
    tuples = []
    for t in range(rng.randint(1, 8)):
        subject = rng.choice(entities)
        subject_attrs = []
        for attr_type in profile.attribute_types:
            if rng.random() < 0.5:
                subject_attrs.append(attr(rng.choice(profile.vocab[attr_type]), attr_type))
        predicate = None
        obj = None
        obj_attrs: list[AttributeValue] = []
        if rng.random() < 0.7 or not subject_attrs:
            pred_type = rng.choice(profile.predicate_types)
            predicate = pred(rng.choice(profile.vocab[pred_type]), pred_type)
            if rng.random() < 0.7:
                obj = rng.choice([e for e in entities if e != subject])
                for attr_type in profile.attribute_types:
                    if rng.random() < 0.4:
                        obj_attrs.append(
                            attr(rng.choice(profile.vocab[attr_type]), attr_type)
                        )
        start = round(rng.uniform(0, 90), 2)
        tuples.append(
            EventTuple(
                tuple_id=f"t{t}",
                subject=subject,
                subject_attrs=tuple(subject_attrs),
                predicate=predicate,
                object=obj,
                object_attrs=tuple(obj_attrs),
                time=TimeInterval(start_s=start, end_s=round(start + rng.uniform(0, 9), 2)),
            )
        )
    return SceneGraph(
        video_id=f"v{rng.randrange(10**6)}",
        duration_s=100.0,
        entities=entities,
        tuples=tuple(tuples),
    )


def random_profile_corpus(
    rng: random.Random, profile: DatasetProfile, n_videos: int
) -> list[SceneGraph]:
    """n_videos random_profile_graph graphs, with video_ids v0, v1, ..."""
    return [
        replace(random_profile_graph(rng, profile), video_id=f"v{i}") for i in range(n_videos)
    ]


def with_objects(graph: SceneGraph) -> SceneGraph:
    """graph with an object on every tuple that has a predicate, which every
    default predicate template names."""
    def other(subject: EntityRef) -> EntityRef:
        return next(e for e in graph.entities if e != subject)

    return replace(graph, tuples=tuple(
        t if t.predicate is None or t.object is not None else _derived(t, object=other(t.subject))
        for t in graph.tuples
    ))


# --- hypothesis corpora -------------------------------------------------------
# Graphs drawn with few entities, few distinct times and few values, so that
# pairs at the same time, with the same key, and with both, are all common.

TIMES = (TimeInterval(0.0, 1.0), TimeInterval(2.0, 2.0), TimeInterval(0.0, 3.0))


def _values(type_name):
    return st.sampled_from(PROFILE.vocab[type_name][:2])


@st.composite
def graphs(draw, video_id="v0"):
    entities = tuple(
        EntityRef(f"e{i}", f"thing {i}") for i in range(draw(st.integers(1, 3)))
    )
    tuples = []
    for t in range(draw(st.integers(0, 9))):
        colors = draw(st.lists(_values("Color"), max_size=2))
        pred_type = draw(st.sampled_from([None, "Action", "Contact"]))
        if pred_type is None and not colors:
            pred_type = "Action"
        obj = draw(st.sampled_from((None, *entities)))
        obj_colors = draw(st.lists(_values("Color"), max_size=2)) if obj else []
        tuples.append(
            EventTuple(
                tuple_id=f"t{draw(st.integers(0, 99)):02d}-{t}",
                subject=draw(st.sampled_from(entities)),
                subject_attrs=tuple(AttributeValue(c, "Color") for c in colors),
                predicate=(
                    None
                    if pred_type is None
                    else PredicateValue(draw(_values(pred_type)), pred_type)
                ),
                object=obj,
                object_attrs=tuple(AttributeValue(c, "Color") for c in obj_colors),
                time=draw(st.sampled_from(TIMES)),
            )
        )
    return SceneGraph(video_id, 10.0, entities, tuple(tuples))


corpora = st.integers(1, 3).flatmap(
    lambda n: st.tuples(*(graphs(f"v{i}") for i in range(n)))
)


# --- the JSONL writers' oracles ----------------------------------------------
# Each artifact line as a dict, built field by field from the values:
# json_line of the dict is the line the program's writer must write.


def json_line(doc) -> str:
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":"), allow_nan=False) + "\n"


def attr_docs(attrs):
    return [{"value": a.value, "attr_type": a.attr_type} for a in attrs]


def predicate_doc(pred):
    return None if pred is None else {"value": pred.value, "pred_type": pred.pred_type}


def time_doc(time):
    return {"start_s": time.start_s, "end_s": time.end_s}


# The document of each field of TUPLE_FIELDS, by name.
FIELD_DOCS = {"subject_attrs": attr_docs, "predicate": predicate_doc, "object_attrs": attr_docs, "time": time_doc}


def scene_graph_to_doc(graph: SceneGraph) -> dict:
    """The canonical document of graph, the inverse of parse_scene_graph."""

    def entity_doc(ent):
        doc = {"entity_id": ent.entity_id, "name": ent.name}
        if ent.entity_class is not None:
            doc["entity_class"] = ent.entity_class
        return doc

    tuples = []
    for tup in graph.tuples:
        doc = {"tuple_id": tup.tuple_id, "subject": tup.subject.entity_id, "subject_attrs": attr_docs(tup.subject_attrs)}
        if tup.predicate is not None:
            doc["predicate"] = predicate_doc(tup.predicate)
        if tup.object is not None:
            doc["object"] = tup.object.entity_id
        doc["object_attrs"] = attr_docs(tup.object_attrs)
        doc["time"] = time_doc(tup.time)
        tuples.append(doc)
    return {
        "video_id": graph.video_id,
        "duration_s": graph.duration_s,
        "entities": [entity_doc(e) for e in graph.entities],
        "tuples": tuples,
    }


def record_to_doc(record: ManipulationRecord) -> dict:
    """The record relative to its graph: each manipulated tuple as its
    tuple_id plus the fields it changed."""

    def changes_doc(original, manipulated):
        doc = {"tuple_id": manipulated.tuple_id}
        for name in TUPLE_FIELDS:
            value = getattr(manipulated, name)
            if value != getattr(original, name):
                doc[name] = FIELD_DOCS[name](value)
        return doc

    doc = {
        "format": RECORDS_FORMAT,
        "record_id": record.record_id,
        "category": record.category.key,
        "video_id": record.video_id,
        "source_tuple_ids": list(record.source_tuple_ids),
        "manipulated": [changes_doc(o, m) for o, m in zip(record.original, record.manipulated)],
        "seed": record.seed,
    }
    if record.pool_size is not None:
        doc["pool_size"] = record.pool_size
    return doc


def pair_to_doc(pair: CaptionPair) -> dict:
    return {
        "pair_id": pair.pair_id,
        "video_id": pair.video_id,
        "category": pair.category.key,
        "positive": {"text": pair.positive.text, "renderer": pair.positive.renderer},
        "negative": {"text": pair.negative.text, "renderer": pair.negative.renderer},
    }


def score_matrix_from_csv(text: str) -> ScoreMatrix:
    """load_score_matrix over text written to a temporary CSV file, so that
    the text is read as `eval` reads its --scores."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.csv"
        path.write_text(text, encoding="utf-8", newline="")
        return load_score_matrix(path)


def csv_reader_score_matrix(text: str) -> ScoreMatrix:
    """Reference score-CSV parser: csv.reader and float() cell by cell."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedDocument("empty score CSV") from None
    if not header or header[0] != "video_id":
        raise MalformedDocument("first header cell must be 'video_id'")
    caption_ids = tuple(header[1:])
    video_ids: list[str] = []
    rows: list[list[float]] = []
    for line in reader:
        if not line:
            continue
        if len(line) != len(caption_ids) + 1:
            raise MalformedDocument(f"row {line[0]!r} has {len(line) - 1} scores")
        video_ids.append(line[0])
        try:
            rows.append([float(cell) for cell in line[1:]])
        except ValueError as exc:
            raise MalformedDocument(f"row {line[0]!r}: {exc}") from None
    return ScoreMatrix(
        video_ids=tuple(video_ids),
        caption_ids=caption_ids,
        scores=np.array(rows, dtype=np.float64).reshape(len(video_ids), len(caption_ids)),
    )


def write_scores(path: Path, video_ids, caption_ids, scores) -> None:
    """A score CSV: a header of caption_ids, then one row of scores per video.
    Each score is written as repr(float(x)), which reads back exactly."""
    lines = ["video_id," + ",".join(caption_ids) + "\n"]
    lines += [v + "," + ",".join(repr(float(x)) for x in row) + "\n" for v, row in zip(video_ids, scores)]
    path.write_text("".join(lines), encoding="utf-8")


def tied(video_ids, pairs):
    """Every score 0.5."""
    return [[0.5] * len(pairs) for _ in video_ids]


# --- a workspace for the eventprobe command -------------------------------------


def outputs(out_dir):
    """Every entry of out_dir by name: a file's bytes, a directory's own
    outputs, or for the run manifest, which holds wall-clock timestamps,
    its digest."""
    files = {p.name: outputs(p) if p.is_dir() else p.read_bytes() for p in sorted(out_dir.iterdir())}
    if "run_manifest.json" in files:
        files["run_manifest.json"] = json.loads(files["run_manifest.json"])["digest"]
    return files


@contextmanager
def no_child_left():
    """Asserts that the block leaves no child process, running or a zombie,
    and no file descriptor open that was not open before it."""
    fds = sorted(os.listdir("/dev/fd"))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/dev/fd")) == fds


class Workspace:
    """A valid config in tmp, seed 42 unless config says otherwise, naming
    the default profile, a corpus and the output directory tmp/out, and with
    templates, the shipped template table; plus helpers that build the
    inputs of later commands. The corpus is a copy of the fixtures, or
    corpus/NAME.json for each (NAME, graph) in graphs."""

    def __init__(self, tmp: Path, graphs=None, *, templates: bool = False, **config):
        self.tmp, self.out = tmp, tmp / "out"
        self.profile, self.templates = tmp / "profile.json", tmp / "templates.json"
        self.corpus, self.config = tmp / "corpus", tmp / "config.json"
        self.benchmark, self.scores, self.scores_control = tmp / "bench.jsonl", tmp / "scores.csv", tmp / "scores_control.csv"
        self.profile.write_text(package_text("profile_default.json"), encoding="utf-8")
        shutil.rmtree(self.corpus, ignore_errors=True)
        self.corpus.mkdir()
        if graphs is None:
            for name in CORPUS_FILES:
                shutil.copy(FIXTURES / name, self.corpus)
        for name, graph in graphs or ():
            (self.corpus / f"{name}.json").write_text(json.dumps(scene_graph_to_doc(graph)), encoding="utf-8")
        doc = {"global_seed": 42, "profile_path": str(self.profile),
               "input_glob": str(self.corpus / "*.json"), "output_dir": str(self.out)}
        if templates:
            self.templates.write_text(package_text("templates_t1.json"), encoding="utf-8")
            doc["templates_path"] = str(self.templates)
        self.config.write_text(json.dumps({**doc, **config}), encoding="utf-8")

    def edit(self, **changes):
        """Sets keys of the config file."""
        self.config.write_text(json.dumps(self.doc(**changes)), encoding="utf-8")

    def doc(self, **changes) -> dict:
        return {**json.loads(self.config.read_text(encoding="utf-8")), **changes}

    def pipeline_config(self, **changes) -> PipelineConfig:
        """The config with changes, as run_pipeline takes it."""
        return PipelineConfig.from_doc(self.doc(**changes))

    def command(self, *names):
        """Runs every named stage command but the last; returns the last's argv."""
        *before, last = names
        for name in before:
            assert main([name, "--config", str(self.config)]) == 0, name
        return [last, "--config", str(self.config)]

    def eval_argv(self, positive=tied, control=tied):
        """Runs `run`; returns eval's argv over a copy of its benchmark and
        the score CSVs of positive(video_ids, pairs) and control(video_ids,
        pairs), where pairs are the benchmark's lines as dicts."""
        assert main(["run", "--config", str(self.config)]) == 0
        shutil.copy(self.out / "benchmark.jsonl", self.benchmark)
        pairs = [json.loads(line) for line in self.benchmark.read_text(encoding="utf-8").splitlines()]
        video_ids = sorted({p["video_id"] for p in pairs})
        caption_ids = [p["pair_id"] for p in pairs]
        write_scores(self.scores, video_ids, caption_ids, positive(video_ids, pairs))
        write_scores(self.scores_control, video_ids, caption_ids, control(video_ids, pairs))
        return ["eval", "--benchmark", str(self.benchmark), "--scores", str(self.scores),
                "--scores-control", str(self.scores_control), "--out", str(self.tmp / "reports")]


# --- independent oracle -------------------------------------------------------
# Exhaustive sort-based ranking, deliberately different from the counting
# implementation under test: sort candidates by score, then walk the sorted
# list and take the LAST position still tied with the correct item.


def oracle_rank(values, correct):
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    rank = 0
    for position, idx in enumerate(order, start=1):
        if values[idx] == values[correct]:
            rank = position
    return rank


def oracle_recall(matrix, gt, k, direction):
    hits = 0
    if direction == "T2V":
        queries = sorted(gt.caption_to_video)
        for caption_id in queries:
            col = matrix.caption_ids.index(caption_id)
            row = matrix.video_ids.index(gt.caption_to_video[caption_id])
            values = [matrix.scores[r][col] for r in range(len(matrix.video_ids))]
            if oracle_rank(values, row) <= k:
                hits += 1
        return hits / len(queries)
    queries = sorted(gt.video_to_captions)
    for video_id in queries:
        row = matrix.video_ids.index(video_id)
        values = list(matrix.scores[row])
        best = min(
            oracle_rank(values, matrix.caption_ids.index(c))
            for c in gt.video_to_captions[video_id]
        )
        if best <= k:
            hits += 1
    return hits / len(queries)


# --- the InfoNCE oracle and random loss batches ------------------------------


def infonce_oracle(V, T, tau):
    """Symmetric softmax cross-entropy on the full similarity matrix."""
    S = (V @ T.T) / tau
    n = S.shape[0]
    total = 0.0
    for i in range(n):
        row = S[i]
        col = S[:, i]
        total += -(row[i] - _lse(row)) - (col[i] - _lse(col))
    return total / n


def _lse(x):
    m = np.max(x)
    return m + math.log(np.sum(np.exp(x - m)))


def random_batch(
    rng: np.random.Generator,
    n_max: int = 8,
    d_max: int = 16,
    gen_max: int = 4,
    scale: float | None = None,
    n: int | None = None,
) -> LossBatch:
    """Random batch with every coordinate bounded away from zero.

    Component magnitudes in [0.3, 1] before row normalization keep every
    partial derivative large enough for a central difference at h=1e-5 to
    resolve it; pass scale=sqrt(tau) to cap logits at |s|/tau <= 2.
    """
    n = int(rng.integers(1, n_max + 1)) if n is None else n
    d = int(rng.integers(2, d_max + 1))
    scale = 1.0 if scale is None else scale

    def rows(count):
        signs = rng.choice((-1.0, 1.0), size=(count, d))
        X = signs * rng.uniform(0.3, 1.0, size=(count, d))
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return X / norms * scale

    G = tuple(rows(int(rng.integers(0, gen_max + 1))) for _ in range(n))
    return LossBatch(V=rows(n), T=rows(n), G=G)
