"""Manipulation operators that turn factual event tuples into foils.

Three methods are supported: temporal (exchange the timestamps of two
events), neighborhood (exchange same-type attributes between a tuple's
subject and object), and counterfactual (replace one slot's value with a
same-fine-type candidate that is false within the video). Temporal and
neighborhood swaps are involutions; counterfactual substitution is seeded
and reproducible.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple

from .documents import json_int, json_string, parse_jsonl, require
from .errors import MalformedDocument, ManipulationError
from .profiles import DatasetProfile, ManipulationCategory
from .scene_graph import (
    TUPLE_FIELDS,
    AttributeValue,
    EntityRef,
    EventTuple,
    PredicateValue,
    SceneGraph,
    TimeInterval,
    shown_index,
)

RECORDS_FORMAT = 2


class AttributeObservation(NamedTuple):
    """One attribute seen on one entity during one interval."""

    subject: EntityRef
    attribute: AttributeValue
    time: TimeInterval


class _ManipulationRecord(NamedTuple):
    record_id: str
    category: ManipulationCategory
    video_id: str
    original: tuple[EventTuple, ...]
    manipulated: tuple[EventTuple, ...]
    seed: int
    pool_size: int | None = None


class ManipulationRecord(_ManipulationRecord):
    """Provenance-carrying result of applying one operator at one site."""

    __slots__ = ()

    def __new__(
        cls,
        record_id: str,
        category: ManipulationCategory,
        video_id: str,
        original: tuple[EventTuple, ...],
        manipulated: tuple[EventTuple, ...],
        seed: int,
        pool_size: int | None = None,
    ) -> ManipulationRecord:
        if not original:
            raise MalformedDocument(f"record {record_id!r} holds no tuple")
        if len(original) != len(manipulated):
            raise MalformedDocument("original/manipulated tuple counts differ")
        for orig, manip in zip(original, manipulated):
            if orig == manip:
                raise MalformedDocument(
                    f"record {record_id!r}: manipulation left a tuple unchanged"
                )
        return tuple.__new__(
            cls, (record_id, category, video_id, original, manipulated, seed, pool_size)
        )

    @property
    def source_tuple_ids(self) -> tuple[str, ...]:
        return tuple(sorted(t.tuple_id for t in self.original))


def _derived(item: Any, **fields: Any) -> Any:
    """item with fields replaced, built through its type's constructor, so a
    derived value is checked as a parsed one is. Every operator builds its
    tuples here; record_from_doc calls EventTuple itself."""
    values = [*map(fields.pop, item._fields, item)]
    if fields:
        raise TypeError(f"{type(item).__name__} has no field {', '.join(fields)}")
    return type(item)(*values)


def _slot(e: EventTuple, index: int | None) -> AttributeValue | PredicateValue | None:
    """The value at a slot of e: its predicate when index is None, else its
    subject attribute at index; None if there is none."""
    if index is None:
        return e.predicate
    return e.subject_attrs[index] if index < len(e.subject_attrs) else None


def _with_slot(e: EventTuple, index: int | None, value: AttributeValue | PredicateValue) -> EventTuple:
    """e with the value at a slot replaced."""
    if index is None:
        return _derived(e, predicate=value)
    attrs = list(e.subject_attrs)
    attrs[index] = value
    return _derived(e, subject_attrs=tuple(attrs))


def _event_key(e: EventTuple) -> tuple:
    """Everything of a tuple but its id and time."""
    return (e.subject, e.subject_attrs, e.predicate, e.object, e.object_attrs)


# --- the three swap operators -------------------------------------------------


def temporal_predicate_swap(
    e1: EventTuple, e2: EventTuple
) -> tuple[EventTuple, EventTuple]:
    """Exchange the timestamps of two predicate events of one fine type.

    Applying the swap to its own output restores the original tuples.
    """
    if e1.predicate is None or e2.predicate is None:
        raise ManipulationError("both tuples must carry a predicate")
    if e1.predicate.pred_type != e2.predicate.pred_type:
        raise ManipulationError(
            f"predicate types differ: {e1.predicate.pred_type} vs {e2.predicate.pred_type}"
        )
    if e1.time == e2.time:
        raise ManipulationError(f"both events span {e1.time}")
    if _event_key(e1) == _event_key(e2):
        raise ManipulationError("tuples share one key; swapping their times changes nothing")
    return _derived(e1, time=e2.time), _derived(e2, time=e1.time)


def temporal_attribute_swap(
    o1: AttributeObservation, o2: AttributeObservation
) -> tuple[AttributeObservation, AttributeObservation]:
    """Exchange two attribute values of one entity across their intervals."""
    if o1.subject != o2.subject:
        raise ManipulationError(
            f"observations belong to {o1.subject.entity_id!r} and {o2.subject.entity_id!r}"
        )
    if o1.attribute.attr_type != o2.attribute.attr_type:
        raise ManipulationError(
            f"attribute types differ: {o1.attribute.attr_type} vs {o2.attribute.attr_type}"
        )
    if o1.attribute.value == o2.attribute.value:
        raise ManipulationError(f"both observations read {o1.attribute.value!r}")
    if o1.time == o2.time:
        raise ManipulationError(f"both observations span {o1.time}")
    return (
        _derived(o1, attribute=o2.attribute),
        _derived(o2, attribute=o1.attribute),
    )


def _neighborhood_pairs(
    e: EventTuple, attr_type: str | None
) -> list[tuple[int, AttributeValue, int, AttributeValue]]:
    """The (subject idx, subject attribute, object idx, object attribute)
    pairs, one per type both sides carry, by type: each side's attribute of
    the type that a caption shows."""
    pairs = []
    kinds = sorted({a.attr_type for a in e.subject_attrs}) if attr_type is None else (attr_type,)
    for kind in kinds:
        si, oi = shown_index(e.subject_attrs, kind), shown_index(e.object_attrs, kind)
        if si is not None and oi is not None:
            pairs.append((si, e.subject_attrs[si], oi, e.object_attrs[oi]))
    return pairs


def neighborhood_attribute_swap(
    e: EventTuple, attr_type: str | None = None
) -> EventTuple:
    """Exchange one same-type attribute pair between subject and object:
    each side's first attribute of the type, the one a caption shows.

    When several types qualify, the pair of the first type is swapped, so
    the operator is an involution.
    """
    if e.object is None:
        raise ManipulationError(f"tuple {e.tuple_id!r} has no object")
    pairs = _neighborhood_pairs(e, attr_type)
    if not pairs:
        raise ManipulationError(
            f"tuple {e.tuple_id!r} has no shared-type subject/object attribute pair"
        )
    differing = [pair for pair in pairs if pair[1] != pair[3]]
    if not differing:
        raise ManipulationError(
            f"tuple {e.tuple_id!r}: all shared-type attribute pairs hold equal values"
        )
    si, s_attr, oi, o_attr = differing[0]
    subject_attrs, object_attrs = list(e.subject_attrs), list(e.object_attrs)
    subject_attrs[si], object_attrs[oi] = o_attr, s_attr
    return _derived(e, subject_attrs=tuple(subject_attrs), object_attrs=tuple(object_attrs))


# --- counterfactual substitution ---------------------------------------------


def counterfactual_substitute(
    e: EventTuple,
    fine_type: str,
    attr_index: int | None,
    candidates: Sequence[str],
    rng: random.Random,
) -> EventTuple:
    """Replace one slot's value with a uniformly sampled candidate.

    The slot is the fine_type predicate when attr_index is None, else the
    fine_type subject attribute at attr_index. The incumbent value never
    qualifies, so the result always differs from the input at the
    substituted slot. Deterministic given the rng state.
    """
    slot = _slot(e, attr_index)
    if slot is None or slot[1] != fine_type:  # [1]: the attr_type or pred_type
        where = "predicate" if attr_index is None else f"subject attribute at index {attr_index}"
        raise ManipulationError(f"tuple {e.tuple_id!r} has no {fine_type} {where}")
    usable = [v for v in candidates if v != slot.value]
    if not usable:
        raise ManipulationError(f"no usable {fine_type} candidate for tuple {e.tuple_id!r}")
    return _with_slot(e, attr_index, type(slot)(rng.choice(usable), fine_type))


def _candidates(
    graph: SceneGraph, profile: DatasetProfile, predicate: bool, fine_type: str
) -> dict[str, tuple[str, ...]]:
    """The counterfactual candidates of every entity the graph attributes a
    fine_type value to, keyed by entity id, if it has any.

    An entity's candidates are the profile vocabulary of the fine type, in
    vocabulary order, minus every value the graph truthfully attributes to
    the entity, so sampled substitutes are false by construction within the
    video. A slot's incumbent is one of its subject's values, so it is
    never a candidate.
    """
    if fine_type not in profile.vocab:
        raise ManipulationError(f"fine type {fine_type!r} not in profile {profile.name!r}")
    vocab = profile.vocab[fine_type]
    candidates = {}
    for holder, values in graph.groups.truthful.get((predicate, fine_type), {}).items():
        left = tuple(v for v in vocab if v not in values)
        if left:
            candidates[holder] = left
    return candidates


# --- site enumeration ----------------------------------------------------------


class TemporalSite(NamedTuple):
    tuple_id_a: str
    attr_index_a: int | None  # None: a predicate slot
    tuple_id_b: str
    attr_index_b: int | None  # None: a predicate slot


class NeighborhoodSite(NamedTuple):
    tuple_id: str


class CounterfactualSite(NamedTuple):
    tuple_id: str
    attr_index: int | None  # None: the predicate slot
    candidates: tuple[str, ...]  # the slot subject's candidates, never empty


Site = TemporalSite | NeighborhoodSite | CounterfactualSite


def _interned(values: Iterable[Hashable]) -> list[int]:
    """Equal values get equal small ints, so pair checks compare ints."""
    ids: dict[Hashable, int] = {}
    return [ids.setdefault(v, len(ids)) for v in values]


def _bump(counts: dict[Hashable, int], key: Hashable) -> int:
    """Count one more key; returns the count before."""
    seen = counts.get(key, 0)
    counts[key] = seen + 1
    return seen


class _TemporalPairs(Sequence):
    """One video's temporal swap sites for one category, counted before built.

    Items are the category's predicate tuples, or its subject attribute
    observations, by tuple_id and then attribute index. Items i < j form a
    site when they share a group (their subject's entity_id, which names one
    entity within a graph, for attributes; predicates form one group),
    differ in time, and differ in key (the tuple key for predicates, the
    value for attributes). Sites are ordered by (i, j). Their number is
    counted on construction; a site is built only when it is indexed or
    iterated.
    """

    def __init__(self, graph: SceneGraph, category: ManipulationCategory) -> None:
        attribute = category.target == "attribute"
        self.tuples, self.indices = tuples, indices = graph.groups.slots.get(
            (not attribute, category.fine_type), ([], [])
        )
        if attribute:
            groups = _interned(tup.subject.entity_id for tup in tuples)
            keys = _interned(tup.subject_attrs[idx].value for tup, idx in zip(tuples, indices))
        else:
            groups = [0] * len(tuples)
            keys = _interned(map(_event_key, tuples))
        times = _interned(t.time for t in tuples)
        self._tags = list(zip(groups, times, keys))
        self._members: dict[int, list[int]] = {}
        for i, group in enumerate(groups):
            self._members.setdefault(group, []).append(i)

        # Valid later partners of item i: later items of its group, minus
        # those at the same time, minus those with the same key, plus those
        # with both (subtracted twice). Plain dicts: most keys occur once,
        # and a Counter would call __missing__ for each new key.
        later: dict[Hashable, int] = {}
        same_time: dict[Hashable, int] = {}
        same_key: dict[Hashable, int] = {}
        same_both: dict[Hashable, int] = {}
        counts = [0] * len(tuples)
        for i in reversed(range(len(tuples))):
            group, time, key = tag = self._tags[i]
            counts[i] = (
                _bump(later, group)
                - _bump(same_time, (group, time))
                - _bump(same_key, (group, key))
                + _bump(same_both, tag)
            )
        self.starts = list(accumulate(counts, initial=0))

    def partners(self, i: int) -> list[int]:
        """The items j > i that form a site with item i, in order."""
        group, time, key = self._tags[i]
        members = self._members[group]
        tags = self._tags
        return [
            j
            for j in members[bisect_right(members, i) :]
            if tags[j][1] != time and tags[j][2] != key
        ]

    def site(self, i: int, j: int) -> Site:
        tuples, indices = self.tuples, self.indices
        return TemporalSite(tuples[i].tuple_id, indices[i], tuples[j].tuple_id, indices[j])

    def __len__(self) -> int:
        return self.starts[-1]

    def __getitem__(self, ordinal: int) -> Site:
        """The site at this position of the video's site order."""
        if not 0 <= ordinal < self.starts[-1]:
            raise IndexError(f"site {ordinal} of {self.starts[-1]}")
        i = bisect_right(self.starts, ordinal) - 1
        return self.site(i, self.partners(i)[ordinal - self.starts[i]])

    def __iter__(self) -> Iterator[Site]:
        for i in range(len(self.tuples)):
            for j in self.partners(i):
                yield self.site(i, j)


class _Listing(Sequence):
    """One video's sites for one category, counted before built: one key
    of plain data per site, and make builds a key's site only when it is
    indexed or iterated."""

    def __init__(self, make: Callable[[Any], Site], keys: Sequence) -> None:
        self.make, self.keys = make, keys

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, ordinal: int) -> Site:
        return self.make(self.keys[ordinal])

    def __iter__(self) -> Iterator[Site]:
        return map(self.make, self.keys)


def enumerate_candidates(
    graph: SceneGraph,
    profile: DatasetProfile,
    category: ManipulationCategory,
) -> Sequence[Site]:
    """Exhaustively list the sites where the category's operator applies.

    Sites are duplicate-free and listed by tuple_id, then attribute index (a
    temporal pair by its first item, then its second), so their order
    depends only on tuple contents, never on their order in the document.
    apply_corpus numbers a category's sites in this order, video by video.
    Every listing counts its sites first and builds one only when it is
    indexed or iterated: a temporal category returns its _TemporalPairs,
    the others a _Listing of tuple ids (neighborhood) or of slot positions
    (counterfactual). A counterfactual site carries its subject's
    candidates.
    """
    if category.method == "temporal":
        return _TemporalPairs(graph, category)
    key = (category.target == "predicate", category.fine_type)
    tuples, indices = graph.groups.slots.get(key, ((), ()))
    if category.method == "neighborhood":
        return _Listing(NeighborhoodSite, [
            tup.tuple_id for tup in tuples
            if any(s_attr != o_attr for _, s_attr, _, o_attr in _neighborhood_pairs(tup, category.fine_type))
        ])
    candidates = _candidates(graph, profile, *key)

    def make(i: int) -> Site:
        tup = tuples[i]
        return CounterfactualSite(tup.tuple_id, indices[i], candidates[tup.subject.entity_id])

    return _Listing(make, [i for i, tup in enumerate(tuples) if tup.subject.entity_id in candidates])


# --- seeded application ----------------------------------------------------------


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed from arbitrary parts (independent of PYTHONHASHSEED)."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def time_order(tuples: Iterable[EventTuple]) -> list[EventTuple]:
    """The tuples by start time, then end time, then tuple_id."""
    return sorted(tuples, key=lambda t: (t.time.start_s, t.time.end_s, t.tuple_id))


def apply_site(
    graph: SceneGraph,
    profile: DatasetProfile,
    category: ManipulationCategory,
    site: Site,
    rng: random.Random | None,
) -> tuple[tuple[EventTuple, ...], tuple[EventTuple, ...], int | None]:
    """Run the category's operator at one site.

    Returns (original tuples, manipulated tuples, pool size); the two tuple
    lists are aligned componentwise, ordered by original start time. A
    counterfactual site draws its substitute from its candidates with rng,
    which the other methods do not use and may be None.
    """
    by_id = graph.tuples_by_id

    if isinstance(site, NeighborhoodSite):
        tup = by_id[site.tuple_id]
        return (tup,), (neighborhood_attribute_swap(tup, category.fine_type),), None

    if isinstance(site, CounterfactualSite):
        tup = by_id[site.tuple_id]
        manipulated = counterfactual_substitute(
            tup, category.fine_type, site.attr_index, site.candidates, rng
        )
        return (tup,), (manipulated,), len(site.candidates)

    if isinstance(site, TemporalSite):
        e1, e2 = by_id[site.tuple_id_a], by_id[site.tuple_id_b]
        if site.attr_index_a is None:
            m1, m2 = temporal_predicate_swap(e1, e2)
        else:
            ia, ib = site.attr_index_a, site.attr_index_b
            r1, r2 = temporal_attribute_swap(
                AttributeObservation(e1.subject, e1.subject_attrs[ia], e1.time),
                AttributeObservation(e2.subject, e2.subject_attrs[ib], e2.time),
            )
            m1, m2 = _with_slot(e1, ia, r1.attribute), _with_slot(e2, ib, r2.attribute)
        originals = time_order([e1, e2])
        return tuple(originals), (m1, m2) if originals[0] is e1 else (m2, m1), None

    raise ManipulationError(f"unsupported site {site!r}")


def _draw(total: int, quota: int | None, category_seed: int) -> list[int] | None:
    """The ordinals a quota keeps out of total sites, ascending; None when
    there is no quota or it keeps every site."""
    if quota is None or quota >= total:
        return None
    picker = random.Random(category_seed)
    return sorted(picker.sample(range(total), max(quota, 0)))


def _sampled_sites(
    graphs: Sequence[SceneGraph],
    profile: DatasetProfile,
    category: ManipulationCategory,
    quota: int | None,
    category_seed: int,
) -> list[tuple[int, SceneGraph, Site]]:
    """(ordinal, graph, site) for every site the quota keeps, by ordinal.

    Ordinals number the category's sites over the graphs in order, each
    graph's sites in enumerate_candidates order. The draw takes its total
    from the listings' lengths; a kept-all draw walks every site, any other
    indexes only the drawn ones.
    """
    listings = [enumerate_candidates(graph, profile, category) for graph in graphs]
    offsets = list(accumulate(map(len, listings), initial=0))
    drawn = _draw(offsets[-1], quota, category_seed)
    if drawn is None:
        walked = ((graph, site) for graph, sites in zip(graphs, listings) for site in sites)
        return [(ordinal, graph, site) for ordinal, (graph, site) in enumerate(walked)]
    chosen = []
    for ordinal in drawn:
        v = bisect_right(offsets, ordinal) - 1
        chosen.append((ordinal, graphs[v], listings[v][ordinal - offsets[v]]))
    return chosen


def apply_corpus(
    graphs: Sequence[SceneGraph],
    profile: DatasetProfile,
    quotas: Mapping[str, int],
    seed: int,
    categories: Sequence[ManipulationCategory] | None = None,
) -> list[ManipulationRecord]:
    """Apply manipulation categories across a corpus of graphs.

    By default every profile category runs. Per category, sites are numbered
    over videos in video_id order, each video's sites in enumerate_candidates
    order, and sampled without replacement up to the category's quota. Each
    category counts its sites and builds only the sampled ones.
    Sampling uses a per-category stream derived from the global seed, and
    every record carries its own derived seed, so results are stable under
    quota changes in other categories.
    """
    ordered = sorted(graphs, key=lambda g: g.video_id)
    records: list[ManipulationRecord] = []
    for category in (profile.category_set if categories is None else categories):
        category_seed = derive_seed(
            seed, category.method, category.target, category.fine_type
        )
        for ordinal, graph, site in _sampled_sites(
            ordered, profile, category, quotas.get(category.key), category_seed
        ):
            record_seed = derive_seed(category_seed, ordinal)
            # Only a counterfactual site draws from its record's generator.
            rng = random.Random(record_seed) if category.method == "counterfactual" else None
            original, manipulated, pool_size = apply_site(graph, profile, category, site, rng)
            records.append(
                ManipulationRecord(
                    record_id=f"{category.key}#{ordinal:04d}",
                    category=category,
                    video_id=graph.video_id,
                    original=original,
                    manipulated=manipulated,
                    seed=record_seed,
                    pool_size=pool_size,
                )
            )
    return records


# --- record serialization --------------------------------------------------------


# Each changeable field by name, in document order: its index in an
# EventTuple, its `,"name":` key text, its writer and its parser.
_FIELDS = {
    name: (EventTuple._fields.index(name), f",{json_string(name)}:", write, parse)
    for name, (write, parse) in TUPLE_FIELDS.items()
}


def _changes_text(original: EventTuple, manipulated: EventTuple) -> str:
    """The manipulated tuple as its tuple_id plus the fields it changed."""
    same = (original.tuple_id, original.subject, original.object)
    if (manipulated.tuple_id, manipulated.subject, manipulated.object) != same:
        raise MalformedDocument(f"tuple {original.tuple_id!r}: a record only changes {', '.join(TUPLE_FIELDS)}")
    text = f'{{"tuple_id":{json_string(manipulated.tuple_id)}'
    for index, key, write, _ in _FIELDS.values():
        value = manipulated[index]
        if value != original[index]:
            text += key + write(value)
    return text + "}"


def _record_line(record: ManipulationRecord) -> str:
    """The record relative to its graph, as one line: the originals are
    named, not copied."""
    changes = ",".join(map(_changes_text, record.original, record.manipulated))
    text = (
        f'{{"format":{json_int(RECORDS_FORMAT)},"record_id":{json_string(record.record_id)}'
        f',"category":{json_string(record.category.key)},"video_id":{json_string(record.video_id)}'
        f',"source_tuple_ids":[{",".join(map(json_string, record.source_tuple_ids))}]'
        f',"manipulated":[{changes}],"seed":{json_int(record.seed)}'
    )
    if record.pool_size is not None:
        text += f',"pool_size":{json_int(record.pool_size)}'
    return text + "}\n"


def record_from_doc(
    doc: Any, tuples_by_video: Mapping[str, Mapping[str, EventTuple]]
) -> ManipulationRecord:
    """Inverse of _record_line; originals come from the record's graph.

    Each manipulated tuple is its original with the changed fields laid
    over it, parsed by the scene-graph field parsers. A record holds as
    many tuples as its method's operator makes: two for temporal, else one.
    """
    if not isinstance(doc, dict) or doc.get("format") != RECORDS_FORMAT:
        raise MalformedDocument(
            f"not a format-{RECORDS_FORMAT} record; rerun probe to rewrite records.jsonl"
        )
    video_id = require(doc, "video_id", str)
    tuples = tuples_by_video.get(video_id)
    if tuples is None:
        raise MalformedDocument(f"video {video_id!r} is not in graphs.jsonl")
    original, manipulated = [], []
    for change in require(doc, "manipulated", list):
        tuple_id = change.get("tuple_id") if isinstance(change, dict) else None
        orig = tuples.get(tuple_id) if isinstance(tuple_id, str) else None
        if orig is None:
            raise MalformedDocument(f"tuple {tuple_id!r} is not in video {video_id!r}")
        values = list(orig)
        for name, raw in change.items():
            if name != "tuple_id":
                field = _FIELDS.get(name)
                if field is None:
                    raise MalformedDocument(f"tuple {tuple_id!r}: {name!r} is not a changeable field")
                values[field[0]] = field[3](raw, tuple_id)
        original.append(orig)
        manipulated.append(EventTuple(*values))
    # key=str keeps the sort total when a document puts a non-string id here.
    if sorted(t.tuple_id for t in original) != sorted(require(doc, "source_tuple_ids", list), key=str):
        raise MalformedDocument("source_tuple_ids must name the manipulated tuples")
    record = ManipulationRecord(
        require(doc, "record_id", str), ManipulationCategory.from_key(require(doc, "category", str)),
        video_id, tuple(original), tuple(manipulated), require(doc, "seed", int),
        require(doc, "pool_size", int) if "pool_size" in doc else None,
    )
    # As many tuples as apply_site returns for the record's method.
    method = record.category.method
    if len(original) != (2 if method == "temporal" else 1):
        want = "2 tuples" if method == "temporal" else "1 tuple"
        raise MalformedDocument(f"a {method} record holds {want}, not {len(original)}")
    return record


def records_to_jsonl(records: Iterable[ManipulationRecord]) -> str:
    return "".join(map(_record_line, records))


def records_from_jsonl(
    text: str, graphs: Iterable[SceneGraph], name: str, first_line: int = 1
) -> list[ManipulationRecord]:
    """Records from records_to_jsonl's text, against the graphs they came from.

    Raises MalformedDocument, naming the line, for anything that is not a
    format-2 record of one of the graphs; text's first line is the file's
    line first_line.
    """
    tuples_by_video = {graph.video_id: graph.tuples_by_id for graph in graphs}
    return parse_jsonl(text, lambda doc: record_from_doc(doc, tuples_by_video), name, first_line)
