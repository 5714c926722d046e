"""Scene-graph data model: entities, event tuples, parsing and validation.

A scene graph is a normalized JSON document describing one video: its
entities and a list of timestamped event tuples
(subject, subject attributes, predicate, object, object attributes, time).
All values are immutable after construction, so graphs can be shared freely
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable

from .documents import parse_jsonl, read_json, require, to_jsonl
from .errors import (
    DanglingEntityRef,
    EmptyInput,
    IntervalOutOfRange,
    MalformedDocument,
)
from .profiles import DatasetProfile


@dataclass(frozen=True)
class EntityRef:
    """A named entity, unique by entity_id within one video."""

    entity_id: str
    name: str
    entity_class: str | None = None

    def __post_init__(self) -> None:
        if not self.entity_id:
            raise MalformedDocument("entity_id must be nonempty")


@dataclass(frozen=True)
class AttributeValue:
    """One attribute observation, e.g. value='yellow', attr_type='Color'."""

    value: str
    attr_type: str


@dataclass(frozen=True)
class PredicateValue:
    """One predicate, e.g. value='touches', pred_type='Contact'."""

    value: str
    pred_type: str


@dataclass(frozen=True, order=True)
class TimeInterval:
    """Seconds-based interval; point events use start_s == end_s."""

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if not (0 <= self.start_s <= self.end_s):
            raise IntervalOutOfRange(
                f"invalid interval [{self.start_s}, {self.end_s}]"
            )


@dataclass(frozen=True)
class EventTuple:
    """One timestamped observation about a subject (and optional object)."""

    tuple_id: str
    subject: EntityRef
    subject_attrs: tuple[AttributeValue, ...]
    predicate: PredicateValue | None
    object: EntityRef | None
    object_attrs: tuple[AttributeValue, ...]
    time: TimeInterval

    def __post_init__(self) -> None:
        if self.predicate is None and not self.subject_attrs:
            raise MalformedDocument(
                f"tuple {self.tuple_id!r} has neither predicate nor subject attributes"
            )
        if self.object is None and self.object_attrs:
            raise MalformedDocument(
                f"tuple {self.tuple_id!r} carries object attributes without an object"
            )

    @property
    def key(self) -> EventKey:
        return EventKey(
            subject=self.subject,
            subject_attrs=self.subject_attrs,
            predicate=self.predicate,
            object=self.object,
            object_attrs=self.object_attrs,
        )


@dataclass(frozen=True)
class EventKey:
    """An event tuple minus its timestamp."""

    subject: EntityRef
    subject_attrs: tuple[AttributeValue, ...]
    predicate: PredicateValue | None
    object: EntityRef | None
    object_attrs: tuple[AttributeValue, ...]


@dataclass(frozen=True)
class SceneGraph:
    """All entities and event tuples annotated for one video."""

    video_id: str
    duration_s: float
    entities: tuple[EntityRef, ...]
    tuples: tuple[EventTuple, ...]

    def __post_init__(self) -> None:
        by_id: dict[str, EntityRef] = {}
        for ent in self.entities:
            if ent.entity_id in by_id:
                raise MalformedDocument(
                    f"duplicate entity_id {ent.entity_id!r} in video {self.video_id!r}"
                )
            by_id[ent.entity_id] = ent
        seen_tuples: set[str] = set()
        for tup in self.tuples:
            if tup.tuple_id in seen_tuples:
                raise MalformedDocument(
                    f"duplicate tuple_id {tup.tuple_id!r} in video {self.video_id!r}"
                )
            seen_tuples.add(tup.tuple_id)
            for ref in (tup.subject, tup.object):
                if ref is not None and by_id.get(ref.entity_id) != ref:
                    raise DanglingEntityRef(
                        f"tuple {tup.tuple_id!r} references unknown entity {ref.entity_id!r}"
                    )
            if tup.time.end_s > self.duration_s:
                raise IntervalOutOfRange(
                    f"tuple {tup.tuple_id!r} ends at {tup.time.end_s}s, "
                    f"beyond duration {self.duration_s}s"
                )

    @cached_property
    def tuples_by_id(self) -> dict[str, EventTuple]:
        """Index of the graph's tuples, built on first use."""
        return {tup.tuple_id: tup for tup in self.tuples}


@dataclass(frozen=True)
class Violation:
    """One profile-licensing problem found by validate(); data, not an error."""

    kind: str
    tuple_id: str
    detail: str


def _parse_attrs(raw: Any, tuple_id: str) -> tuple[AttributeValue, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise MalformedDocument(f"tuple {tuple_id!r}: attribute list expected")
    attrs = []
    for item in raw:
        if not isinstance(item, dict):
            raise MalformedDocument(f"tuple {tuple_id!r}: attribute object expected")
        attrs.append(
            AttributeValue(
                value=require(item, "value", str),
                attr_type=require(item, "attr_type", str),
            )
        )
    return tuple(attrs)


def _parse_predicate(raw: Any, tuple_id: str) -> PredicateValue | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise MalformedDocument(f"tuple {tuple_id!r}: predicate object expected")
    return PredicateValue(require(raw, "value", str), require(raw, "pred_type", str))


def _parse_time(raw: Any, tuple_id: str) -> TimeInterval:
    if not isinstance(raw, dict):
        raise MalformedDocument(f"tuple {tuple_id!r}: time object expected")
    return TimeInterval(require(raw, "start_s", float), require(raw, "end_s", float))


def _attr_docs(attrs: Iterable[AttributeValue]) -> list[dict[str, str]]:
    return [{"value": a.value, "attr_type": a.attr_type} for a in attrs]


def _predicate_doc(pred: PredicateValue | None) -> dict[str, str] | None:
    return None if pred is None else {"value": pred.value, "pred_type": pred.pred_type}


def _time_doc(time: TimeInterval) -> dict[str, float]:
    return {"start_s": time.start_s, "end_s": time.end_s}


# The tuple fields a manipulation may change, in document order, each with
# its document writer and its parser. Graph documents and manipulation
# records both go through these.
TUPLE_FIELDS: dict[str, tuple[Callable, Callable]] = {
    "subject_attrs": (_attr_docs, _parse_attrs),
    "predicate": (_predicate_doc, _parse_predicate),
    "object_attrs": (_attr_docs, _parse_attrs),
    "time": (_time_doc, _parse_time),
}


def parse_scene_graph(document: Any) -> SceneGraph:
    """Parse one canonical scene-graph document, as json.loads returns it.

    Raises MalformedDocument for schema problems, DanglingEntityRef when a
    tuple cites an unknown entity, and IntervalOutOfRange for bad timestamps.
    """
    if not isinstance(document, dict):
        raise MalformedDocument("top-level value must be an object")

    video_id = require(document, "video_id", str)
    if not video_id:
        raise MalformedDocument("video_id must be nonempty")
    duration_s = require(document, "duration_s", float)

    entities: dict[str, EntityRef] = {}
    for raw in require(document, "entities", list):
        if not isinstance(raw, dict):
            raise MalformedDocument("entity object expected")
        ent = EntityRef(
            entity_id=require(raw, "entity_id", str),
            name=require(raw, "name", str),
            entity_class=None if raw.get("entity_class") is None else require(raw, "entity_class", str),
        )
        if ent.entity_id in entities:
            raise MalformedDocument(f"duplicate entity_id {ent.entity_id!r}")
        entities[ent.entity_id] = ent

    def resolve(entity_id: str, tuple_id: str) -> EntityRef:
        try:
            return entities[entity_id]
        except KeyError:
            raise DanglingEntityRef(
                f"tuple {tuple_id!r} references unknown entity {entity_id!r}"
            ) from None

    tuples = []
    for raw in require(document, "tuples", list):
        if not isinstance(raw, dict):
            raise MalformedDocument("tuple object expected")
        tuple_id = require(raw, "tuple_id", str)
        if not tuple_id:
            raise MalformedDocument("tuple_id must be nonempty")
        obj = raw.get("object")
        tuples.append(
            EventTuple(
                tuple_id=tuple_id,
                subject=resolve(require(raw, "subject", str), tuple_id),
                subject_attrs=_parse_attrs(raw.get("subject_attrs"), tuple_id),
                predicate=_parse_predicate(raw.get("predicate"), tuple_id),
                object=None if obj is None else resolve(require(raw, "object", str), tuple_id),
                object_attrs=_parse_attrs(raw.get("object_attrs"), tuple_id),
                time=_parse_time(raw.get("time"), tuple_id),
            )
        )

    return SceneGraph(
        video_id=video_id,
        duration_s=duration_s,
        entities=tuple(entities.values()),
        tuples=tuple(tuples),
    )


def load_scene_graph(path: str) -> SceneGraph:
    """parse_scene_graph over one corpus file; every MalformedDocument names the file."""
    return read_json(path, EmptyInput(f"corpus file not found: {path}"), parse_scene_graph)


def scene_graph_to_doc(graph: SceneGraph) -> dict[str, Any]:
    """Inverse of parse_scene_graph; emits the canonical document shape."""

    def entity_doc(ent: EntityRef) -> dict[str, Any]:
        doc: dict[str, Any] = {"entity_id": ent.entity_id, "name": ent.name}
        if ent.entity_class is not None:
            doc["entity_class"] = ent.entity_class
        return doc

    tuples = []
    for tup in graph.tuples:
        doc: dict[str, Any] = {
            "tuple_id": tup.tuple_id,
            "subject": tup.subject.entity_id,
            "subject_attrs": _attr_docs(tup.subject_attrs),
        }
        if tup.predicate is not None:
            doc["predicate"] = _predicate_doc(tup.predicate)
        if tup.object is not None:
            doc["object"] = tup.object.entity_id
        doc["object_attrs"] = _attr_docs(tup.object_attrs)
        doc["time"] = _time_doc(tup.time)
        tuples.append(doc)

    return {
        "video_id": graph.video_id,
        "duration_s": graph.duration_s,
        "entities": [entity_doc(e) for e in graph.entities],
        "tuples": tuples,
    }


def graphs_to_jsonl(graphs: Iterable[SceneGraph]) -> str:
    return to_jsonl(map(scene_graph_to_doc, graphs))


def graphs_from_jsonl(text: str, name: str = "graphs.jsonl") -> list[SceneGraph]:
    return parse_jsonl(text, parse_scene_graph, name)


def validate(graph: SceneGraph, profile: DatasetProfile) -> list[Violation]:
    """Check every type and value in the graph against the profile.

    Returns a list of violations; an empty list means the graph only uses
    vocabulary the profile licenses.
    """
    violations: list[Violation] = []

    def check(tuple_id: str, slot: str, type_name: str, value: str, declared: tuple[str, ...]) -> None:
        if type_name not in declared:
            violations.append(Violation(
                f"Unknown{slot.title()}Type", tuple_id, f"{slot} type {type_name!r} not in profile"
            ))
        elif value not in profile.vocab_sets[type_name]:
            violations.append(Violation(
                "OutOfVocabularyValue", tuple_id, f"value {value!r} not in {type_name} vocabulary"
            ))

    for tup in graph.tuples:
        if tup.predicate is not None:
            pred = tup.predicate
            check(tup.tuple_id, "predicate", pred.pred_type, pred.value, profile.predicate_types)
        for attr in tup.subject_attrs + tup.object_attrs:
            check(tup.tuple_id, "attribute", attr.attr_type, attr.value, profile.attribute_types)
    return violations

