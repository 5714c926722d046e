"""Builders and randomized generators shared by unit and acceptance tests."""

from __future__ import annotations

import csv
import io
import json
import random
import string as _string
import tempfile
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from eventprobe.captions import CaptionPair
from eventprobe.errors import MalformedDocument
from eventprobe.evaluate import ScoreMatrix, load_score_matrix
from eventprobe.manipulate import RECORDS_FORMAT, AttributeObservation, ManipulationRecord, _derived
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


def default_profile() -> DatasetProfile:
    """The profile shipped with the package (matches the built-in templates)."""
    text = resources.files("eventprobe.data").joinpath("profile_default.json").read_text("utf-8")
    return parse_profile(json.loads(text))


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
