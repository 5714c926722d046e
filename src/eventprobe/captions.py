"""Template rendering of manipulation records into caption pairs.

A caption's claims are the slot values its tuples fill: the original tuples
for the positive, the manipulated ones for the negative. Each category has
one pattern per polarity, which picks from them, and the decorator protects
the manipulated slot's values among them. Rendering is deterministic, so a
benchmark built with the decorator disabled is a pure function of records
and templates.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .errors import EmptyInput, MalformedDocument, TemplateError
from .documents import json_string, parse_json, parse_jsonl, read_json, require
from .manipulate import ManipulationRecord, time_order
from .profiles import ManipulationCategory
from .scene_graph import EventTuple, shown_index

POSITIVE = "positive"
NEGATIVE = "negative"

_BASE_SLOTS = ("subject", "subject_attr", "predicate", "object", "object_attr")
# The slots one tuple fills, by suffix: none for a record's one tuple, "1"
# and "2" for the earlier and the later of two.
_SLOT_NAMES = {suffix: tuple(name + suffix for name in _BASE_SLOTS) for suffix in ("", "1", "2")}
ALLOWED_SLOTS = frozenset(["connective", *(name for names in _SLOT_NAMES.values() for name in names)])


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
class TemplateTable:
    """All patterns of one table, by (category key, polarity), plus the
    temporal connective lexicon."""

    table_id: str
    connectives: Mapping[str, str]
    patterns: Mapping[tuple[str, str], str]


_EMPTY_SLOTS = dict.fromkeys(ALLOWED_SLOTS, "")


def _check_pattern(pattern: str) -> None:
    """Raise ValueError unless pattern is nonempty, names only allowed slots,
    holds no slot in a format spec and formats with every slot empty. Slot
    values are strings, so rendering it can then fail only on a missing slot."""
    if not pattern:
        raise ValueError("pattern is empty")
    for _, field_name, format_spec, _ in string.Formatter().parse(pattern):
        if field_name is not None and field_name not in ALLOWED_SLOTS:
            raise ValueError(f"unknown slot {field_name!r}")
        if format_spec and any(f is not None for _, f, _, _ in string.Formatter().parse(format_spec)):
            raise ValueError(f"slot {field_name!r} takes its format spec from a slot")
    pattern.format_map(_EMPTY_SLOTS)


def parse_templates(document: Any) -> TemplateTable:
    """Parse a template document, as json.loads returns it."""
    table_id = require(document, "table_id", str) if "table_id" in document else "custom"
    connectives = require(document, "connectives", dict) if "connectives" in document else {}
    for polarity in connectives:
        require(connectives, polarity, str)
    patterns: dict[tuple[str, str], str] = {}
    templates = require(document, "templates", dict) if "templates" in document else {}
    for category_key, by_polarity in templates.items():
        if not isinstance(by_polarity, dict):
            raise MalformedDocument(f"category {category_key!r}: pattern object expected")
        for polarity in (POSITIVE, NEGATIVE):
            if polarity not in by_polarity:
                raise MalformedDocument(
                    f"category {category_key!r} lacks a {polarity} pattern"
                )
            pattern = require(by_polarity, polarity, str)
            try:
                _check_pattern(pattern)
            except ValueError as exc:
                template_id = f"{table_id}.{category_key}.{polarity}"
                raise MalformedDocument(f"template {template_id!r}: {exc}") from None
            patterns[(category_key, polarity)] = pattern
    return TemplateTable(table_id, connectives, patterns)


def load_templates(path: str | Path) -> TemplateTable:
    return read_json(path, TemplateError(f"template file not found: {path}"), parse_templates)


def default_templates() -> TemplateTable:
    """The table shipped with the package (matches the default profile)."""
    text = resources.files("eventprobe.data").joinpath("templates_t1.json").read_text("utf-8")
    return parse_templates(parse_json(text))


def _tuple_slots(
    tup: EventTuple, category: ManipulationCategory, suffix: str = ""
) -> dict[str, str]:
    """Slot values one tuple can fill; unavailable slots stay absent.

    Attribute-target categories fill attr slots strictly from the category's
    fine type, so a pattern can never pick up an unrelated attribute.
    """
    fine = category.fine_type if category.target == "attribute" else None
    subject, subject_attr, predicate, obj, object_attr = _SLOT_NAMES[suffix]
    slots = {subject: tup.subject.name}
    if tup.predicate is not None:
        slots[predicate] = tup.predicate.value
    if tup.object is not None:
        slots[obj] = tup.object.name
    for name, attrs in ((subject_attr, tup.subject_attrs), (object_attr, tup.object_attrs)):
        idx = shown_index(attrs, fine) if attrs else None
        if idx is not None:
            slots[name] = attrs[idx].value
    return slots


def claims(record: ManipulationRecord, polarity: str) -> dict[str, str]:
    """The slot values a caption of polarity can state: the original tuples'
    for the positive, the manipulated ones' for the negative, suffixed "1"
    and "2" in time_order when there are two. A pattern picks from them."""
    tuples = record.original if polarity == POSITIVE else record.manipulated
    if len(tuples) == 1:
        return _tuple_slots(tuples[0], record.category)
    first, second = time_order(tuples)
    return {**_tuple_slots(first, record.category, "1"), **_tuple_slots(second, record.category, "2")}


def _render_one(record: ManipulationRecord, templates: TemplateTable, polarity: str) -> Caption:
    key = record.category.key
    pattern = templates.patterns.get((key, polarity))
    if pattern is None:
        raise TemplateError(f"no {polarity} template for category {key!r}")
    slots = claims(record, polarity)
    if polarity in templates.connectives:
        slots["connective"] = templates.connectives[polarity]
    try:
        text = pattern.format_map(slots)
    except KeyError as exc:
        template_id = f"{templates.table_id}.{key}.{polarity}"
        raise TemplateError(
            f"record {record.record_id!r} cannot fill slot {exc.args[0]!r} "
            f"of template {template_id!r}"
        ) from None
    return Caption(text, "template")


def render_pair(record: ManipulationRecord, templates: TemplateTable) -> CaptionPair:
    """The record's positive and negative caption, each formatted from its claims."""
    return CaptionPair(
        record.record_id, record.video_id, record.category,
        _render_one(record, templates, POSITIVE),
        _render_one(record, templates, NEGATIVE),
    )


def protected_values(record: ManipulationRecord) -> dict[str, tuple[str, ...]]:
    """Slot values that must survive verbatim in each polarity's caption:
    the manipulated slot's values among its claims.

    A counterfactual record protects its original value in the positive and
    its substitute in the negative. A temporal record protects each tuple's
    value, and a neighborhood record the subject's and the object's, in both
    captions, each in that caption's order (decorate only tests presence).
    """
    category = record.category
    if category.target == "predicate":
        names = ("predicate",)
    elif category.method == "neighborhood":
        names = ("subject_attr", "object_attr")
    else:
        names = ("subject_attr",)
    suffixes = ("",) if len(record.original) == 1 else ("1", "2")
    keys = [name + suffix for suffix in suffixes for name in names]
    claimed = {polarity: claims(record, polarity) for polarity in (POSITIVE, NEGATIVE)}
    return {polarity: tuple(slots[key] for key in keys if key in slots) for polarity, slots in claimed.items()}


# --- benchmark serialization -------------------------------------------------


def _caption_text(caption: Caption) -> str:
    return f'{{"text":{json_string(caption.text)},"renderer":{json_string(caption.renderer)}}}'


def _pair_line(pair: CaptionPair) -> str:
    return (
        f'{{"pair_id":{json_string(pair.pair_id)},"video_id":{json_string(pair.video_id)}'
        f',"category":{json_string(pair.category.key)}'
        f',"positive":{_caption_text(pair.positive)},"negative":{_caption_text(pair.negative)}}}\n'
    )


def pair_from_doc(doc: Any) -> CaptionPair:
    if not isinstance(doc, dict):
        raise MalformedDocument("top-level value must be a JSON object")
    try:
        pair_id, video_id, category = doc["pair_id"], doc["video_id"], doc["category"]
        positive, negative = doc[POSITIVE], doc[NEGATIVE]
    except KeyError as exc:
        raise MalformedDocument(f"missing key {exc.args[0]!r}") from None
    for polarity, caption in ((POSITIVE, positive), (NEGATIVE, negative)):
        if not isinstance(caption, dict):
            raise MalformedDocument(f"{polarity!r} must be a JSON object")
        if "text" not in caption:
            raise MalformedDocument(f"missing key 'text' in {polarity!r}")
    texts = positive["text"], negative["text"]
    if not (isinstance(pair_id, str) and isinstance(video_id, str) and isinstance(category, str)
            and isinstance(texts[0], str) and isinstance(texts[1], str)):
        raise MalformedDocument(f"pair {pair_id!r}: ids, category and texts must be strings")
    return CaptionPair(
        pair_id, video_id, ManipulationCategory.from_key(category),
        Caption(texts[0], positive.get("renderer", "template")),
        Caption(texts[1], negative.get("renderer", "template")),
    )


def pairs_to_jsonl(pairs: Iterable[CaptionPair]) -> str:
    return "".join(map(_pair_line, pairs))


def pairs_from_jsonl(text: str, name: str) -> list[CaptionPair]:
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
