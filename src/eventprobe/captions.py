"""Template rendering of manipulation records into caption pairs.

Each manipulation category has one positive and one negative pattern; the
positive caption is rendered from the record's original tuples, the negative
from the manipulated ones. Rendering is deterministic, so a benchmark built
with the decorator disabled is a pure function of records and templates.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    EmptyInput,
    MalformedDocument,
    TemplateMissing,
    TemplateSlotMissing,
)
from .documents import parse_jsonl, read_json, require, to_jsonl
from .manipulate import ManipulationRecord, time_order
from .profiles import ManipulationCategory
from .scene_graph import EventTuple

POSITIVE = "positive"
NEGATIVE = "negative"

_BASE_SLOTS = ("subject", "subject_attr", "predicate", "object", "object_attr")
ALLOWED_SLOTS = frozenset(
    [*_BASE_SLOTS, "connective"]
    + [f"{name}1" for name in _BASE_SLOTS]
    + [f"{name}2" for name in _BASE_SLOTS]
)


class _Caption(NamedTuple):
    text: str
    renderer: str


class Caption(_Caption):
    """One rendered caption and what rendered it."""

    __slots__ = ()

    def __new__(cls, text: str, renderer: str) -> Caption:
        if not text:
            raise MalformedDocument("caption text must be nonempty")
        if renderer not in ("template", "llm"):
            raise MalformedDocument(f"bad renderer {renderer!r}")
        return tuple.__new__(cls, (text, renderer))


class _CaptionPair(NamedTuple):
    pair_id: str
    video_id: str
    category: ManipulationCategory
    positive: Caption
    negative: Caption


class CaptionPair(_CaptionPair):
    """Positive and negative caption for one manipulation record."""

    __slots__ = ()

    def __new__(
        cls,
        pair_id: str,
        video_id: str,
        category: ManipulationCategory,
        positive: Caption,
        negative: Caption,
    ) -> CaptionPair:
        if positive.text == negative.text:
            raise MalformedDocument(f"pair {pair_id!r}: captions are identical")
        return tuple.__new__(cls, (pair_id, video_id, category, positive, negative))


@dataclass(frozen=True)
class TemplateSpec:
    """One pattern for one (category, polarity) combination."""

    template_id: str
    pattern: str

    def __post_init__(self) -> None:
        for _, field_name, _, _ in string.Formatter().parse(self.pattern):
            if field_name is not None and field_name not in ALLOWED_SLOTS:
                raise MalformedDocument(
                    f"template {self.template_id!r} uses unknown slot {field_name!r}"
                )


@dataclass(frozen=True)
class TemplateTable:
    """All templates of one table plus the temporal connective lexicon."""

    connectives: Mapping[str, str]
    specs: Mapping[tuple[str, str], TemplateSpec]

    def spec(self, category_key: str, polarity: str) -> TemplateSpec:
        try:
            return self.specs[(category_key, polarity)]
        except KeyError:
            raise TemplateMissing(
                f"no {polarity} template for category {category_key!r}"
            ) from None


def parse_templates(document: Any) -> TemplateTable:
    """Parse a template document, as json.loads returns it."""
    if not isinstance(document, dict):
        raise MalformedDocument("template document must be an object")
    table_id = require(document, "table_id", str) if "table_id" in document else "custom"
    connectives = require(document, "connectives", dict) if "connectives" in document else {}
    for polarity in connectives:
        require(connectives, polarity, str)
    specs: dict[tuple[str, str], TemplateSpec] = {}
    templates = require(document, "templates", dict) if "templates" in document else {}
    for category_key, patterns in templates.items():
        if not isinstance(patterns, dict):
            raise MalformedDocument(f"category {category_key!r}: pattern object expected")
        for polarity in (POSITIVE, NEGATIVE):
            if polarity not in patterns:
                raise MalformedDocument(
                    f"category {category_key!r} lacks a {polarity} pattern"
                )
            specs[(category_key, polarity)] = TemplateSpec(
                template_id=f"{table_id}.{category_key}.{polarity}",
                pattern=require(patterns, polarity, str),
            )
    return TemplateTable(connectives=connectives, specs=specs)


def load_templates(path: str | Path) -> TemplateTable:
    return read_json(path, TemplateMissing(f"template file not found: {path}"), parse_templates)


def default_templates() -> TemplateTable:
    """The table shipped with the package (matches the default profile)."""
    text = resources.files("eventprobe.data").joinpath("templates_t1.json").read_text("utf-8")
    return parse_templates(json.loads(text))


def _first_attr(tup: EventTuple, side: str, fine_type: str | None) -> str | None:
    attrs = tup.subject_attrs if side == "subject" else tup.object_attrs
    for attr in attrs:
        if fine_type is None or attr.attr_type == fine_type:
            return attr.value
    return None


def _tuple_slots(
    tup: EventTuple, category: ManipulationCategory, suffix: str = ""
) -> dict[str, str]:
    """Slot values one tuple can fill; unavailable slots stay absent.

    Attribute-target categories fill attr slots strictly from the category's
    fine type, so a pattern can never pick up an unrelated attribute.
    """
    fine = category.fine_type if category.target == "attribute" else None
    slots: dict[str, str] = {f"subject{suffix}": tup.subject.name}
    if tup.predicate is not None:
        slots[f"predicate{suffix}"] = tup.predicate.value
    if tup.object is not None:
        slots[f"object{suffix}"] = tup.object.name
    subject_attr = _first_attr(tup, "subject", fine)
    if subject_attr is not None:
        slots[f"subject_attr{suffix}"] = subject_attr
    object_attr = _first_attr(tup, "object", fine)
    if object_attr is not None:
        slots[f"object_attr{suffix}"] = object_attr
    return slots


def _render_one(
    record: ManipulationRecord,
    tuples: Sequence[EventTuple],
    spec: TemplateSpec,
    connective: str | None,
) -> Caption:
    ordered = time_order(tuples)
    slots: dict[str, str] = {}
    if len(ordered) == 1:
        slots.update(_tuple_slots(ordered[0], record.category))
    else:
        slots.update(_tuple_slots(ordered[0], record.category, suffix="1"))
        slots.update(_tuple_slots(ordered[1], record.category, suffix="2"))
    if connective is not None:
        slots["connective"] = connective
    try:
        text = spec.pattern.format_map(slots)
    except KeyError as exc:
        raise TemplateSlotMissing(
            f"record {record.record_id!r} cannot fill slot {exc.args[0]!r} "
            f"of template {spec.template_id!r}"
        ) from None
    return Caption(text, "template")


def render_pair(record: ManipulationRecord, templates: TemplateTable) -> CaptionPair:
    """Render the positive caption from the record's original tuples and the
    negative caption from the manipulated ones."""
    key = record.category.key
    positive = _render_one(
        record,
        record.original,
        templates.spec(key, POSITIVE),
        templates.connectives.get(POSITIVE),
    )
    negative = _render_one(
        record,
        record.manipulated,
        templates.spec(key, NEGATIVE),
        templates.connectives.get(NEGATIVE),
    )
    return CaptionPair(
        pair_id=record.record_id,
        video_id=record.video_id,
        category=record.category,
        positive=positive,
        negative=negative,
    )


def protected_values(record: ManipulationRecord) -> dict[str, tuple[str, ...]]:
    """Slot values that must survive verbatim in each polarity's caption.

    Counterfactual records protect the substituted slot (original value in
    the positive, replacement in the negative); swap-based records protect
    both exchanged values in both captions.
    """
    category = record.category
    if category.method == "counterfactual":
        orig, manip = record.original[0], record.manipulated[0]
        if category.target == "predicate":
            assert orig.predicate is not None and manip.predicate is not None
            return {POSITIVE: (orig.predicate.value,), NEGATIVE: (manip.predicate.value,)}
        for o_attr, m_attr in zip(
            orig.subject_attrs + orig.object_attrs,
            manip.subject_attrs + manip.object_attrs,
        ):
            if o_attr != m_attr:
                return {POSITIVE: (o_attr.value,), NEGATIVE: (m_attr.value,)}
        raise MalformedDocument(f"record {record.record_id!r} changed no slot")

    if category.method == "temporal" and category.target == "predicate":
        shown = [t.predicate.value for t in record.original if t.predicate]
    elif category.method == "temporal":
        shown = [_first_attr(t, "subject", category.fine_type) for t in record.original]
    else:  # neighborhood
        shown = [_first_attr(record.original[0], side, category.fine_type) for side in ("subject", "object")]
    values = tuple(value for value in shown if value is not None)
    return {POSITIVE: values, NEGATIVE: values}


# --- benchmark serialization -------------------------------------------------


def pair_to_doc(pair: CaptionPair) -> dict[str, Any]:
    return {
        "pair_id": pair.pair_id,
        "video_id": pair.video_id,
        "category": pair.category.key,
        "positive": {"text": pair.positive.text, "renderer": pair.positive.renderer},
        "negative": {"text": pair.negative.text, "renderer": pair.negative.renderer},
    }


def pair_from_doc(doc: Any) -> CaptionPair:
    try:
        pair_id, video_id, category = doc["pair_id"], doc["video_id"], doc["category"]
        positive, negative = doc["positive"], doc["negative"]
        texts = positive["text"], negative["text"]
        renderers = positive.get("renderer", "template"), negative.get("renderer", "template")
    except (KeyError, TypeError, AttributeError) as exc:
        raise MalformedDocument(f"caption pair incomplete: {exc!r}") from None
    if not all(isinstance(v, str) for v in (pair_id, video_id, category, *texts)):
        raise MalformedDocument(f"pair {pair_id!r}: ids, category and texts must be strings")
    return CaptionPair(
        pair_id=pair_id,
        video_id=video_id,
        category=ManipulationCategory.from_key(category),
        positive=Caption(texts[0], renderers[0]),
        negative=Caption(texts[1], renderers[1]),
    )


def pairs_to_jsonl(pairs: Iterable[CaptionPair]) -> str:
    return to_jsonl(map(pair_to_doc, pairs))


def pairs_from_jsonl(text: str, name: str = "caption pairs") -> list[CaptionPair]:
    """The pairs of a benchmark file; EmptyInput, naming it, if it holds none."""
    pairs = parse_jsonl(text, pair_from_doc, name)
    if not pairs:
        raise EmptyInput(f"{name}: no caption pairs")
    return pairs


def benchmark_categories(pairs: Sequence[CaptionPair]) -> dict[str, int]:
    """Pairs per category key of a benchmark, which holds at least one pair
    and each pair_id once."""
    if not pairs:
        raise EmptyInput("no caption pairs produced; check quotas and inputs")
    seen: set[str] = set()
    per_category: dict[str, int] = {}
    for pair in pairs:
        if pair.pair_id in seen:
            raise MalformedDocument(f"duplicate pair_id {pair.pair_id!r}")
        seen.add(pair.pair_id)
        per_category[pair.category.key] = per_category.get(pair.category.key, 0) + 1
    return per_category
