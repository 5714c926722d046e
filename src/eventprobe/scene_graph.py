"""Scene-graph data model: entities, event tuples, parsing and validation.

A scene graph is a normalized JSON document describing one video: its
entities and a list of timestamped event tuples
(subject, subject attributes, predicate, object, object attributes, time).
All values are immutable after construction, so graphs can be shared freely
across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping

from .errors import (
    DanglingEntityRef,
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
class Event:
    """All intervals during which one tuple key was observed."""

    key: EventKey
    intervals: tuple[TimeInterval, ...]

    def __post_init__(self) -> None:
        if not self.intervals:
            raise MalformedDocument("an event needs at least one interval")
        if list(self.intervals) != sorted(self.intervals):
            raise MalformedDocument("event intervals must be sorted by start time")


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


# Objects inside a document are checked as dicts, as json.loads makes them:
# isinstance against Mapping costs ten times as much, once per object.
def _require(doc: Mapping[str, Any], key: str, kind: type) -> Any:
    if key not in doc:
        raise MalformedDocument(f"missing key {key!r}")
    value = doc[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise MalformedDocument(f"key {key!r} must be a number")
        return float(value)
    if not isinstance(value, kind):
        raise MalformedDocument(f"key {key!r} must be {kind.__name__}")
    return value


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
                value=_require(item, "value", str),
                attr_type=_require(item, "attr_type", str),
            )
        )
    return tuple(attrs)


def _parse_predicate(raw: Any, tuple_id: str) -> PredicateValue | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise MalformedDocument(f"tuple {tuple_id!r}: predicate object expected")
    return PredicateValue(_require(raw, "value", str), _require(raw, "pred_type", str))


def _parse_time(raw: Any, tuple_id: str) -> TimeInterval:
    if not isinstance(raw, dict):
        raise MalformedDocument(f"tuple {tuple_id!r}: time object expected")
    return TimeInterval(_require(raw, "start_s", float), _require(raw, "end_s", float))


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


def parse_scene_graph(document: str | bytes | Mapping[str, Any]) -> SceneGraph:
    """Parse one canonical scene-graph document (JSON text or parsed object).

    Raises MalformedDocument for syntax/schema problems, DanglingEntityRef
    when a tuple cites an unknown entity, and IntervalOutOfRange for bad
    timestamps.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise MalformedDocument(f"invalid JSON: {exc}") from exc
    if not isinstance(document, Mapping):
        raise MalformedDocument("top-level value must be an object")

    video_id = _require(document, "video_id", str)
    duration_s = _require(document, "duration_s", float)

    entities: dict[str, EntityRef] = {}
    for raw in _require(document, "entities", list):
        if not isinstance(raw, dict):
            raise MalformedDocument("entity object expected")
        ent = EntityRef(
            entity_id=_require(raw, "entity_id", str),
            name=_require(raw, "name", str),
            entity_class=raw.get("entity_class"),
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
    for raw in _require(document, "tuples", list):
        if not isinstance(raw, dict):
            raise MalformedDocument("tuple object expected")
        tuple_id = _require(raw, "tuple_id", str)
        obj = raw.get("object")
        tuples.append(
            EventTuple(
                tuple_id=tuple_id,
                subject=resolve(_require(raw, "subject", str), tuple_id),
                subject_attrs=_parse_attrs(raw.get("subject_attrs"), tuple_id),
                predicate=_parse_predicate(raw.get("predicate"), tuple_id),
                object=None if obj is None else resolve(_require(raw, "object", str), tuple_id),
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


def parse_jsonl(text: str, parse: Callable[[Any], Any], name: str) -> list[Any]:
    """parse applied to the JSON value of every non-blank line of text; invalid
    JSON and parse's MalformedDocument become one naming the line."""
    parsed = []
    for number, line in enumerate(text.splitlines(), 1):
        if line.strip():
            try:
                parsed.append(parse(json.loads(line)))
            except (json.JSONDecodeError, MalformedDocument) as exc:
                raise MalformedDocument(f"{name} line {number}: {exc}") from None
    return parsed


def load_scene_graph(path: str) -> SceneGraph:
    with open(path, encoding="utf-8") as fh:
        return parse_scene_graph(fh.read())


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


def serialize_scene_graph(graph: SceneGraph, indent: int | None = 2) -> str:
    return json.dumps(scene_graph_to_doc(graph), ensure_ascii=False, indent=indent)


def validate(graph: SceneGraph, profile: DatasetProfile) -> list[Violation]:
    """Check every type and value in the graph against the profile.

    Returns a list of violations; an empty list means the graph only uses
    vocabulary the profile licenses.
    """
    violations: list[Violation] = []

    def check_attr(attr: AttributeValue, tuple_id: str) -> None:
        if attr.attr_type not in profile.attribute_types:
            violations.append(
                Violation(
                    kind="UnknownAttributeType",
                    tuple_id=tuple_id,
                    detail=f"attribute type {attr.attr_type!r} not in profile",
                )
            )
        elif attr.value not in profile.vocab_sets[attr.attr_type]:
            violations.append(
                Violation(
                    kind="OutOfVocabularyValue",
                    tuple_id=tuple_id,
                    detail=f"value {attr.value!r} not in {attr.attr_type} vocabulary",
                )
            )

    for tup in graph.tuples:
        if tup.predicate is not None:
            pred = tup.predicate
            if pred.pred_type not in profile.predicate_types:
                violations.append(
                    Violation(
                        kind="UnknownPredicateType",
                        tuple_id=tup.tuple_id,
                        detail=f"predicate type {pred.pred_type!r} not in profile",
                    )
                )
            elif pred.value not in profile.vocab_sets[pred.pred_type]:
                violations.append(
                    Violation(
                        kind="OutOfVocabularyValue",
                        tuple_id=tup.tuple_id,
                        detail=f"value {pred.value!r} not in {pred.pred_type} vocabulary",
                    )
                )
        for attr in tup.subject_attrs:
            check_attr(attr, tup.tuple_id)
        for attr in tup.object_attrs:
            check_attr(attr, tup.tuple_id)
    return violations


def index_events(graph: SceneGraph) -> list[Event]:
    """Group tuples sharing one key into events carrying all their intervals.

    Every tuple lands in exactly one event; the total interval count equals
    the tuple count. Events appear in first-observation order.
    """
    grouped: dict[EventKey, list[TimeInterval]] = {}
    for tup in graph.tuples:
        grouped.setdefault(tup.key, []).append(tup.time)
    return [
        Event(key=key, intervals=tuple(sorted(times)))
        for key, times in grouped.items()
    ]


__all__ = [
    "TUPLE_FIELDS",
    "AttributeValue",
    "EntityRef",
    "Event",
    "EventKey",
    "EventTuple",
    "PredicateValue",
    "SceneGraph",
    "TimeInterval",
    "Violation",
    "index_events",
    "load_scene_graph",
    "parse_jsonl",
    "parse_scene_graph",
    "scene_graph_to_doc",
    "serialize_scene_graph",
    "validate",
]
