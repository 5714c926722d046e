"""Scene-graph data model: entities, event tuples, parsing and validation.

A scene graph is a normalized JSON document describing one video: its
entities and a list of timestamped event tuples
(subject, subject attributes, predicate, object, object attributes, time).

Entities, values, intervals and event tuples are tuples. They are
immutable, so graphs can be shared freely across threads. They are equal by
field values whatever their type: an AttributeValue equals the
PredicateValue of the same two strings, so no set, dict or comparison may
mix two value types. A type with rules checks them in its __new__, through
which every value, parsed or derived, is built.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .documents import parse_jsonl, read_json, require, to_jsonl
from .errors import (
    DanglingEntityRef,
    EmptyInput,
    IntervalOutOfRange,
    MalformedDocument,
)
from .profiles import DatasetProfile


class _EntityRef(NamedTuple):
    entity_id: str
    name: str
    entity_class: str | None = None


class EntityRef(_EntityRef):
    """A named entity, unique by entity_id within one video."""

    __slots__ = ()

    def __new__(cls, entity_id: str, name: str, entity_class: str | None = None) -> EntityRef:
        if not entity_id:
            raise MalformedDocument("entity_id must be nonempty")
        return tuple.__new__(cls, (entity_id, name, entity_class))


class AttributeValue(NamedTuple):
    """One attribute observation, e.g. value='yellow', attr_type='Color'."""

    value: str
    attr_type: str


class PredicateValue(NamedTuple):
    """One predicate, e.g. value='touches', pred_type='Contact'."""

    value: str
    pred_type: str


class _TimeInterval(NamedTuple):
    start_s: float
    end_s: float


class TimeInterval(_TimeInterval):
    """Seconds-based interval; point events use start_s == end_s."""

    __slots__ = ()

    def __new__(cls, start_s: float, end_s: float) -> TimeInterval:
        if not (0 <= start_s <= end_s):
            raise IntervalOutOfRange(f"invalid interval [{start_s}, {end_s}]")
        return tuple.__new__(cls, (start_s, end_s))


class _EventTuple(NamedTuple):
    tuple_id: str
    subject: EntityRef
    subject_attrs: tuple[AttributeValue, ...]
    predicate: PredicateValue | None
    object: EntityRef | None
    object_attrs: tuple[AttributeValue, ...]
    time: TimeInterval


class EventTuple(_EventTuple):
    """One timestamped observation about a subject (and optional object)."""

    __slots__ = ()

    def __new__(
        cls,
        tuple_id: str,
        subject: EntityRef,
        subject_attrs: tuple[AttributeValue, ...],
        predicate: PredicateValue | None,
        object: EntityRef | None,
        object_attrs: tuple[AttributeValue, ...],
        time: TimeInterval,
    ) -> EventTuple:
        if predicate is None and not subject_attrs:
            raise MalformedDocument(
                f"tuple {tuple_id!r} has neither predicate nor subject attributes"
            )
        if object is None and object_attrs:
            raise MalformedDocument(
                f"tuple {tuple_id!r} carries object attributes without an object"
            )
        return tuple.__new__(
            cls, (tuple_id, subject, subject_attrs, predicate, object, object_attrs, time)
        )


def shown_index(attrs: Sequence[AttributeValue], attr_type: str | None) -> int | None:
    """The index of the attribute a caption shows: the first of attr_type in
    attrs, or the first of any type when attr_type is None; None if there is
    none. It is the only attribute of its type a manipulation changes."""
    for idx, attr in enumerate(attrs):
        if attr_type is None or attr.attr_type == attr_type:
            return idx
    return None


@dataclass(frozen=True)
class TupleGroups:
    """A graph's tuples grouped as site listing reads them, each group in
    tuple_id order. Tuple ids are unique within a graph, so this order does
    not depend on the document's."""

    # Keyed by (is predicate, type): a type's slots as two aligned lists, the
    # tuples and each slot's subject attribute index (None for a predicate,
    # listed only when its tuple has an object; an attribute listed only at
    # its shown_index), so a graph keeps no object per slot; and every value
    # each entity holds, a predicate's for its subject, an attribute's in
    # either role.
    slots: dict[tuple[bool, str], tuple[list[EventTuple], list[int | None]]]
    truthful: dict[tuple[bool, str], dict[str, set[str]]]  # entity id -> values


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
                if ref is None:
                    continue
                # A parsed graph's refs are its entities: identity settles most.
                known = by_id.get(ref.entity_id)
                if known is not ref and known != ref:
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

    @cached_property
    def groups(self) -> TupleGroups:
        """The tuples grouped for every site listing, in one scan, on first use."""
        slots: defaultdict = defaultdict(lambda: ([], []))
        truthful: defaultdict = defaultdict(lambda: defaultdict(set))
        for tup in sorted(self.tuples, key=lambda t: t.tuple_id):
            subject = tup.subject.entity_id
            if tup.predicate is not None:
                key = (True, tup.predicate.pred_type)
                if tup.object is not None:  # every predicate caption names the object
                    tuples, indices = slots[key]
                    tuples.append(tup)
                    indices.append(None)
                truthful[key][subject].add(tup.predicate.value)
            for idx, attr in enumerate(tup.subject_attrs):
                key = (False, attr.attr_type)
                if shown_index(tup.subject_attrs, attr.attr_type) == idx:
                    tuples, indices = slots[key]
                    tuples.append(tup)
                    indices.append(idx)
                truthful[key][subject].add(attr.value)
            for attr in tup.object_attrs:
                truthful[False, attr.attr_type][tup.object.entity_id].add(attr.value)
        return TupleGroups(dict(slots), dict(truthful))


# Parsing interns attribute and predicate values: a corpus holds one object
# per distinct (value, type), so equal values compare by identity. Sharing is
# safe because the values are tuples, which nothing can change. Times are not
# interned: they are mostly distinct, and 0.0 == -0.0 would merge two times
# that serialize differently.
_attribute = lru_cache(maxsize=4096)(AttributeValue)
_predicate = lru_cache(maxsize=4096)(PredicateValue)


def _parse_attrs(raw: Any, tuple_id: str) -> tuple[AttributeValue, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise MalformedDocument(f"tuple {tuple_id!r}: attribute list expected")
    attrs = []
    for item in raw:
        if not isinstance(item, dict):
            raise MalformedDocument(f"tuple {tuple_id!r}: attribute object expected")
        attrs.append(_attribute(require(item, "value", str), require(item, "attr_type", str)))
    return tuple(attrs)


def _parse_predicate(raw: Any, tuple_id: str) -> PredicateValue | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise MalformedDocument(f"tuple {tuple_id!r}: predicate object expected")
    return _predicate(require(raw, "value", str), require(raw, "pred_type", str))


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

    entities = []
    for raw in require(document, "entities", list):
        if not isinstance(raw, dict):
            raise MalformedDocument("entity object expected")
        entities.append(EntityRef(
            entity_id=require(raw, "entity_id", str),
            name=require(raw, "name", str),
            entity_class=None if raw.get("entity_class") is None else require(raw, "entity_class", str),
        ))
    by_id = {ent.entity_id: ent for ent in entities}  # SceneGraph rejects a repeated id

    def resolve(entity_id: str, tuple_id: str) -> EntityRef:
        try:
            return by_id[entity_id]
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
        entities=tuple(entities),
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
    """The graphs of graphs_to_jsonl's text; a repeated video_id raises
    MalformedDocument naming its line, since records name their graph by it."""
    seen: set[str] = set()

    def parse(doc: Any) -> SceneGraph:
        graph = parse_scene_graph(doc)
        if graph.video_id in seen:
            raise MalformedDocument(f"video_id {graph.video_id!r} repeats an earlier line's")
        seen.add(graph.video_id)
        return graph

    return parse_jsonl(text, parse, name)


def validate(graph: SceneGraph, profile: DatasetProfile) -> None:
    """Check every type and value in the graph against the profile.

    Raises one MalformedDocument that lists every tuple using vocabulary the
    profile does not license, each with the kind of fault it is.
    """
    found: list[str] = []

    def check(tuple_id: str, slot: str, type_name: str, value: str, declared: tuple[str, ...]) -> None:
        if type_name not in declared:
            found.append(f"tuple {tuple_id!r}: Unknown{slot.title()}Type ({slot} type {type_name!r} not in profile)")
        elif value not in profile.vocab_sets[type_name]:
            found.append(f"tuple {tuple_id!r}: OutOfVocabularyValue (value {value!r} not in {type_name} vocabulary)")

    for tup in graph.tuples:
        if tup.predicate is not None:
            pred = tup.predicate
            check(tup.tuple_id, "predicate", pred.pred_type, pred.value, profile.predicate_types)
        for attr in tup.subject_attrs + tup.object_attrs:
            check(tup.tuple_id, "attribute", attr.attr_type, attr.value, profile.attribute_types)
    if found:
        raise MalformedDocument(f"vocabulary the profile does not license: {'; '.join(found)}")

