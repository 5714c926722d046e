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
from collections import Counter
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Any, Hashable, Iterable, Iterator, Mapping, Sequence

from .documents import parse_jsonl, require, to_jsonl
from .errors import (
    EmptyPool,
    IdenticalKeys,
    MalformedDocument,
    NoObservableChange,
    NotApplicable,
    SameTimestamp,
    SlotAbsent,
    SubjectMismatch,
    TypeMismatch,
    UnknownType,
)
from .profiles import DatasetProfile, ManipulationCategory
from .scene_graph import (
    TUPLE_FIELDS,
    AttributeValue,
    EntityRef,
    EventTuple,
    PredicateValue,
    SceneGraph,
    TimeInterval,
)

SLOT_PREDICATE = "predicate"
SLOT_SUBJECT_ATTRIBUTE = "subject_attribute"

RECORDS_FORMAT = 2


@dataclass(frozen=True)
class AttributeObservation:
    """One attribute seen on one entity during one interval."""

    subject: EntityRef
    attribute: AttributeValue
    time: TimeInterval


@dataclass(frozen=True)
class CandidatePool:
    """Vocabulary slice a counterfactual value may be drawn from."""

    fine_type: str
    values: tuple[str, ...]
    exclusions: frozenset[str]

    def usable(self, incumbent: str | None = None) -> tuple[str, ...]:
        """Candidates left after exclusions; the incumbent never qualifies."""
        return tuple(
            v for v in self.values if v not in self.exclusions and v != incumbent
        )


@dataclass(frozen=True)
class SlotRef:
    """Points at one substitutable slot inside one tuple."""

    tuple_id: str
    kind: str
    attr_index: int | None = None


@dataclass(frozen=True)
class ManipulationRecord:
    """Provenance-carrying result of applying one operator at one site."""

    record_id: str
    category: ManipulationCategory
    video_id: str
    source_tuple_ids: tuple[str, ...]
    original: tuple[EventTuple, ...]
    manipulated: tuple[EventTuple, ...]
    seed: int
    pool_size: int | None = None

    def __post_init__(self) -> None:
        if not self.original:
            raise MalformedDocument(f"record {self.record_id!r} holds no tuple")
        if len(self.original) != len(self.manipulated):
            raise MalformedDocument("original/manipulated tuple counts differ")
        for orig, manip in zip(self.original, self.manipulated):
            if orig == manip:
                raise MalformedDocument(
                    f"record {self.record_id!r}: manipulation left a tuple unchanged"
                )


# --- the three swap operators -------------------------------------------------


def temporal_predicate_swap(
    e1: EventTuple, e2: EventTuple
) -> tuple[EventTuple, EventTuple]:
    """Exchange the timestamps of two predicate events of one fine type.

    Applying the swap to its own output restores the original tuples.
    """
    if e1.predicate is None or e2.predicate is None:
        raise TypeMismatch("both tuples must carry a predicate")
    if e1.predicate.pred_type != e2.predicate.pred_type:
        raise TypeMismatch(
            f"predicate types differ: {e1.predicate.pred_type} vs {e2.predicate.pred_type}"
        )
    if e1.time == e2.time:
        raise SameTimestamp(f"both events span {e1.time}")
    if e1.key == e2.key:
        raise IdenticalKeys("tuples share one key; swapping their times changes nothing")
    return replace(e1, time=e2.time), replace(e2, time=e1.time)


def temporal_attribute_swap(
    o1: AttributeObservation, o2: AttributeObservation
) -> tuple[AttributeObservation, AttributeObservation]:
    """Exchange two attribute values of one entity across their intervals."""
    if o1.subject != o2.subject:
        raise SubjectMismatch(
            f"observations belong to {o1.subject.entity_id!r} and {o2.subject.entity_id!r}"
        )
    if o1.attribute.attr_type != o2.attribute.attr_type:
        raise TypeMismatch(
            f"attribute types differ: {o1.attribute.attr_type} vs {o2.attribute.attr_type}"
        )
    if o1.attribute.value == o2.attribute.value:
        raise NoObservableChange(f"both observations read {o1.attribute.value!r}")
    if o1.time == o2.time:
        raise SameTimestamp(f"both observations span {o1.time}")
    return (
        replace(o1, attribute=o2.attribute),
        replace(o2, attribute=o1.attribute),
    )


def _neighborhood_pairs(
    e: EventTuple, attr_type: str | None
) -> tuple[list[tuple[str, str, str, int, int]], bool]:
    """All (type, subject value, object value, subject idx, object idx) pairs.

    Second return flags whether any same-type pair exists at all, regardless
    of value equality.
    """
    pairs = []
    any_shared = False
    for si, sa in enumerate(e.subject_attrs):
        for oi, oa in enumerate(e.object_attrs):
            if sa.attr_type != oa.attr_type:
                continue
            if attr_type is not None and sa.attr_type != attr_type:
                continue
            any_shared = True
            if sa.value != oa.value:
                pairs.append((sa.attr_type, sa.value, oa.value, si, oi))
    return pairs, any_shared


def neighborhood_attribute_swap(
    e: EventTuple, attr_type: str | None = None
) -> EventTuple:
    """Exchange one same-type attribute pair between subject and object.

    When several pairs qualify, the first in (attr_type, subject value,
    object value) order is swapped; the choice is unambiguous whenever each
    entity carries at most one attribute per type, which also makes the
    operator an involution on that domain.
    """
    if e.object is None:
        raise NotApplicable(f"tuple {e.tuple_id!r} has no object")
    pairs, any_shared = _neighborhood_pairs(e, attr_type)
    if not any_shared:
        raise NotApplicable(
            f"tuple {e.tuple_id!r} has no shared-type subject/object attribute pair"
        )
    if not pairs:
        raise NoObservableChange(
            f"tuple {e.tuple_id!r}: all shared-type attribute pairs hold equal values"
        )
    kind, s_val, o_val, si, oi = min(pairs)
    subject_attrs = list(e.subject_attrs)
    object_attrs = list(e.object_attrs)
    subject_attrs[si] = AttributeValue(value=o_val, attr_type=kind)
    object_attrs[oi] = AttributeValue(value=s_val, attr_type=kind)
    return replace(
        e, subject_attrs=tuple(subject_attrs), object_attrs=tuple(object_attrs)
    )


# --- counterfactual substitution ---------------------------------------------


def _resolve_slot(
    e: EventTuple, kind: str, fine_type: str, attr_index: int | None
) -> tuple[str, int | None]:
    """Locate the slot's incumbent value; returns (value, attr index or None)."""
    if kind == SLOT_PREDICATE:
        if e.predicate is None or e.predicate.pred_type != fine_type:
            raise SlotAbsent(
                f"tuple {e.tuple_id!r} has no {fine_type} predicate"
            )
        return e.predicate.value, None
    if kind != SLOT_SUBJECT_ATTRIBUTE:
        raise SlotAbsent(f"unknown slot kind {kind!r}")
    attrs = e.subject_attrs
    if attr_index is None:
        for idx, attr in enumerate(attrs):
            if attr.attr_type == fine_type:
                return attr.value, idx
        raise SlotAbsent(f"tuple {e.tuple_id!r} has no {fine_type} {kind}")
    if attr_index >= len(attrs) or attrs[attr_index].attr_type != fine_type:
        raise SlotAbsent(
            f"tuple {e.tuple_id!r} has no {fine_type} {kind} at index {attr_index}"
        )
    return attrs[attr_index].value, attr_index


def counterfactual_substitute(
    e: EventTuple,
    slot: str,
    pool: CandidatePool,
    rng: random.Random,
    attr_index: int | None = None,
) -> EventTuple:
    """Replace one slot's value with a uniformly sampled pool candidate.

    The incumbent value never qualifies, so the result always differs from
    the input at the substituted slot. Deterministic given the rng state.
    """
    incumbent, idx = _resolve_slot(e, slot, pool.fine_type, attr_index)
    usable = pool.usable(incumbent)
    if not usable:
        raise EmptyPool(
            f"no usable {pool.fine_type} candidate for tuple {e.tuple_id!r}"
        )
    choice = rng.choice(usable)
    if slot == SLOT_PREDICATE:
        return replace(
            e, predicate=PredicateValue(value=choice, pred_type=pool.fine_type)
        )
    attrs = list(e.subject_attrs)
    attrs[idx] = AttributeValue(value=choice, attr_type=pool.fine_type)
    return replace(e, subject_attrs=tuple(attrs))


def _truthful_values(
    graph: SceneGraph, fine_type: str, predicate: bool
) -> Iterator[tuple[str, str]]:
    """(entity id, value) for every fine_type value the graph attributes.

    A predicate counts for its subject; an attribute counts for its entity in
    either role.
    """
    for tup in graph.tuples:
        if predicate:
            if tup.predicate is not None and tup.predicate.pred_type == fine_type:
                yield tup.subject.entity_id, tup.predicate.value
            continue
        for attr in tup.subject_attrs:
            if attr.attr_type == fine_type:
                yield tup.subject.entity_id, attr.value
        for attr in tup.object_attrs:
            if attr.attr_type == fine_type:
                yield tup.object.entity_id, attr.value


def _check_type(profile: DatasetProfile, fine_type: str) -> None:
    if fine_type not in profile.vocab:
        raise UnknownType(f"fine type {fine_type!r} not in profile {profile.name!r}")


def _entity_pools(
    graph: SceneGraph, profile: DatasetProfile, fine_type: str, predicate: bool
) -> dict[str, CandidatePool]:
    """The candidate pool of every entity the graph attributes a fine_type
    value to, keyed by entity id, from one scan of the graph."""
    _check_type(profile, fine_type)
    truthful: dict[str, set[str]] = {}
    for holder, value in _truthful_values(graph, fine_type, predicate):
        truthful.setdefault(holder, set()).add(value)
    vocab = profile.vocab[fine_type]
    return {
        holder: CandidatePool(fine_type, vocab, frozenset(values))
        for holder, values in truthful.items()
    }


def build_pool(
    graph: SceneGraph,
    profile: DatasetProfile,
    slot: SlotRef,
    fine_type: str,
    pools: Mapping[str, CandidatePool] | None = None,
) -> CandidatePool:
    """Assemble the candidate pool for one slot.

    Values are the profile vocabulary of the fine type; exclusions are every
    value the graph truthfully attributes to the slot's subject, so sampled
    substitutes are false by construction within the video. pools, when
    given, is the graph's _entity_pools for the slot's type.
    """
    tup = graph.tuples_by_id.get(slot.tuple_id)
    if tup is None:
        raise SlotAbsent(f"tuple {slot.tuple_id!r} not in graph {graph.video_id!r}")
    if slot.kind not in (SLOT_PREDICATE, SLOT_SUBJECT_ATTRIBUTE):
        raise SlotAbsent(f"unknown slot kind {slot.kind!r}")
    if pools is None:
        pools = _entity_pools(graph, profile, fine_type, slot.kind == SLOT_PREDICATE)
    pool = pools.get(tup.subject.entity_id)
    return pool or CandidatePool(fine_type, profile.vocab[fine_type], frozenset())


# --- site enumeration ----------------------------------------------------------


@dataclass(frozen=True)
class TemporalPredicateSite:
    video_id: str
    tuple_id_a: str
    tuple_id_b: str

    @property
    def sort_key(self) -> tuple:
        return (self.tuple_id_a, self.tuple_id_b)

    @property
    def source_tuple_ids(self) -> tuple[str, ...]:
        return (self.tuple_id_a, self.tuple_id_b)


@dataclass(frozen=True)
class TemporalAttributeSite:
    video_id: str
    tuple_id_a: str
    attr_index_a: int
    tuple_id_b: str
    attr_index_b: int

    @property
    def sort_key(self) -> tuple:
        return (self.tuple_id_a, self.attr_index_a, self.tuple_id_b, self.attr_index_b)

    @property
    def source_tuple_ids(self) -> tuple[str, ...]:
        return (self.tuple_id_a, self.tuple_id_b)


@dataclass(frozen=True)
class NeighborhoodSite:
    video_id: str
    tuple_id: str

    @property
    def sort_key(self) -> tuple:
        return (self.tuple_id,)

    @property
    def source_tuple_ids(self) -> tuple[str, ...]:
        return (self.tuple_id,)


@dataclass(frozen=True)
class CounterfactualSite:
    video_id: str
    tuple_id: str
    slot: str
    attr_index: int | None

    @property
    def sort_key(self) -> tuple:
        return (self.tuple_id, self.slot, -1 if self.attr_index is None else self.attr_index)

    @property
    def source_tuple_ids(self) -> tuple[str, ...]:
        return (self.tuple_id,)


Site = TemporalPredicateSite | TemporalAttributeSite | NeighborhoodSite | CounterfactualSite


def _subject_observations(
    graph: SceneGraph, fine_type: str
) -> list[tuple[str, int, EventTuple]]:
    """(tuple_id, attr index, tuple) for each subject attribute of the type."""
    found = []
    for tup in graph.tuples:
        for idx, attr in enumerate(tup.subject_attrs):
            if attr.attr_type == fine_type:
                found.append((tup.tuple_id, idx, tup))
    return found


def _interned(values: Iterable[Hashable]) -> list[int]:
    """Equal values get equal small ints, so pair checks compare ints."""
    ids: dict[Hashable, int] = {}
    return [ids.setdefault(v, len(ids)) for v in values]


class _TemporalPairs:
    """One video's temporal swap sites for one category, counted before built.

    Items are the category's predicate tuples, or its subject attribute
    observations, in sort_key order. Items i < j form a site when they share
    a group (their subject, for attributes; predicates form one group),
    differ in time, and differ in key (the tuple key for predicates, the
    value for attributes). Sites are ordered by (i, j), which is their
    sort_key order, so the ordinal of a site is the same whether it is
    counted here or listed by enumerate_candidates.
    """

    def __init__(self, graph: SceneGraph, category: ManipulationCategory) -> None:
        self.video_id = graph.video_id
        self.attribute = category.target == "attribute"
        if self.attribute:
            obs = sorted(
                _subject_observations(graph, category.fine_type),
                key=lambda item: (item[0], item[1]),
            )
            self.items = [(tid, idx) for tid, idx, _ in obs]
            tuples = [tup for _, _, tup in obs]
            groups = _interned(tup.subject for tup in tuples)
            keys = _interned(tup.subject_attrs[idx].value for _, idx, tup in obs)
        else:
            tuples = sorted(
                (
                    t
                    for t in graph.tuples
                    if t.predicate is not None
                    and t.predicate.pred_type == category.fine_type
                ),
                key=lambda t: t.tuple_id,
            )
            self.items = [(t.tuple_id, None) for t in tuples]
            groups = [0] * len(tuples)
            keys = _interned(
                (t.subject, t.subject_attrs, t.predicate, t.object, t.object_attrs)
                for t in tuples
            )
        times = _interned((t.time.start_s, t.time.end_s) for t in tuples)
        self._tags = list(zip(groups, times, keys))
        self._members: dict[int, list[int]] = {}
        for i, group in enumerate(groups):
            self._members.setdefault(group, []).append(i)

        # Valid later partners of item i: later items of its group, minus
        # those at the same time, minus those with the same key, plus those
        # with both (subtracted twice).
        later: Counter = Counter()
        same_time: Counter = Counter()
        same_key: Counter = Counter()
        same_both: Counter = Counter()
        counts = [0] * len(tuples)
        for i in reversed(range(len(tuples))):
            group, time, key = self._tags[i]
            counts[i] = (
                later[group]
                - same_time[group, time]
                - same_key[group, key]
                + same_both[group, time, key]
            )
            later[group] += 1
            same_time[group, time] += 1
            same_key[group, key] += 1
            same_both[group, time, key] += 1
        self.starts = list(accumulate(counts, initial=0))
        self.total = self.starts[-1]

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
        (tid_a, idx_a), (tid_b, idx_b) = self.items[i], self.items[j]
        if self.attribute:
            return TemporalAttributeSite(self.video_id, tid_a, idx_a, tid_b, idx_b)
        return TemporalPredicateSite(self.video_id, tid_a, tid_b)

    def sites(self) -> list[Site]:
        return [self.site(i, j) for i in range(len(self.items)) for j in self.partners(i)]

    def nth(self, ordinal: int) -> Site:
        """The site at this position of the video's site order."""
        i = bisect_right(self.starts, ordinal) - 1
        return self.site(i, self.partners(i)[ordinal - self.starts[i]])


def enumerate_candidates(
    graph: SceneGraph,
    profile: DatasetProfile,
    category: ManipulationCategory,
) -> list[Site]:
    """Exhaustively list the sites where the category's operator applies.

    The list is duplicate-free and sorted by sort_key, so it depends only on
    tuple contents, never on their order in the document. apply_corpus
    numbers a category's sites in this order, video by video; when it only
    counts sites it numbers them in the same order, which keeps record seeds
    and record_ids independent of whether the sites were counted or listed.
    """
    sites: list[Site] = []
    vid = graph.video_id

    if category.method == "temporal":
        sites = _TemporalPairs(graph, category).sites()

    elif category.method == "neighborhood":
        for tup in graph.tuples:
            if tup.object is None:
                continue
            pairs, _ = _neighborhood_pairs(tup, category.fine_type)
            if pairs:
                sites.append(NeighborhoodSite(vid, tup.tuple_id))

    elif category.method == "counterfactual":
        if category.target == "predicate":
            slots = [
                (tup, SLOT_PREDICATE, None, tup.predicate.value)
                for tup in graph.tuples
                if tup.predicate is not None
                and tup.predicate.pred_type == category.fine_type
            ]
        else:
            slots = [
                (tup, SLOT_SUBJECT_ATTRIBUTE, idx, tup.subject_attrs[idx].value)
                for _, idx, tup in _subject_observations(graph, category.fine_type)
            ]
        if slots:
            pools = _entity_pools(
                graph, profile, category.fine_type, category.target == "predicate"
            )
            for tup, slot, idx, incumbent in slots:
                if pools[tup.subject.entity_id].usable(incumbent):
                    sites.append(CounterfactualSite(vid, tup.tuple_id, slot, idx))

    sites.sort(key=lambda s: s.sort_key)
    return sites


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
    pools: Mapping[str, CandidatePool] | None = None,
) -> tuple[tuple[EventTuple, ...], tuple[EventTuple, ...], int | None]:
    """Run the category's operator at one site.

    Returns (original tuples, manipulated tuples, pool size); the two tuple
    lists are aligned componentwise, ordered by original start time. A
    counterfactual site draws its substitute with rng, which the other
    methods do not use and may be None, and takes its pool from pools (the
    graph's _entity_pools for the category) when given.
    """
    by_id = graph.tuples_by_id

    if isinstance(site, TemporalPredicateSite):
        e1, e2 = by_id[site.tuple_id_a], by_id[site.tuple_id_b]
        s1, s2 = temporal_predicate_swap(e1, e2)
        originals = time_order([e1, e2])
        swapped = {s1.tuple_id: s1, s2.tuple_id: s2}
        return tuple(originals), tuple(swapped[t.tuple_id] for t in originals), None

    if isinstance(site, TemporalAttributeSite):
        e1, e2 = by_id[site.tuple_id_a], by_id[site.tuple_id_b]
        o1 = AttributeObservation(
            e1.subject, e1.subject_attrs[site.attr_index_a], e1.time
        )
        o2 = AttributeObservation(
            e2.subject, e2.subject_attrs[site.attr_index_b], e2.time
        )
        r1, r2 = temporal_attribute_swap(o1, o2)

        def with_attr(tup: EventTuple, idx: int, attr: AttributeValue) -> EventTuple:
            attrs = list(tup.subject_attrs)
            attrs[idx] = attr
            return replace(tup, subject_attrs=tuple(attrs))

        m1 = with_attr(e1, site.attr_index_a, r1.attribute)
        m2 = with_attr(e2, site.attr_index_b, r2.attribute)
        originals = time_order([e1, e2])
        swapped = {m1.tuple_id: m1, m2.tuple_id: m2}
        return tuple(originals), tuple(swapped[t.tuple_id] for t in originals), None

    if isinstance(site, NeighborhoodSite):
        tup = by_id[site.tuple_id]
        manipulated = neighborhood_attribute_swap(tup, category.fine_type)
        return (tup,), (manipulated,), None

    if isinstance(site, CounterfactualSite):
        tup = by_id[site.tuple_id]
        slot = SlotRef(site.tuple_id, site.slot, site.attr_index)
        pool = build_pool(graph, profile, slot, category.fine_type, pools)
        incumbent, _ = _resolve_slot(tup, site.slot, category.fine_type, site.attr_index)
        manipulated = counterfactual_substitute(
            tup, site.slot, pool, rng, site.attr_index
        )
        return (tup,), (manipulated,), len(pool.usable(incumbent))

    raise NotApplicable(f"unsupported site {site!r}")


def _draw(total: int, quota: int, category_seed: int) -> list[int]:
    """The ordinals a quota keeps out of total sites, ascending."""
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
    graph's sites in enumerate_candidates order. A temporal category under a
    quota below its site count is counted per video, and only the drawn
    sites are built; everything else is listed through enumerate_candidates.
    Both paths draw the same ordinals from the same count.
    """
    if quota is not None and category.method == "temporal":
        tables = [_TemporalPairs(graph, category) for graph in graphs]
        offsets = list(accumulate((table.total for table in tables), initial=0))
        if quota < offsets[-1]:
            chosen = []
            for ordinal in _draw(offsets[-1], quota, category_seed):
                v = bisect_right(offsets, ordinal) - 1
                chosen.append((ordinal, graphs[v], tables[v].nth(ordinal - offsets[v])))
            return chosen

    listed = [
        (graph, site)
        for graph in graphs
        for site in enumerate_candidates(graph, profile, category)
    ]
    if quota is None or quota >= len(listed):
        ordinals: Iterable[int] = range(len(listed))
    else:
        ordinals = _draw(len(listed), quota, category_seed)
    return [(ordinal, *listed[ordinal]) for ordinal in ordinals]


def apply_corpus(
    graphs: Sequence[SceneGraph],
    profile: DatasetProfile,
    quotas: Mapping[str, int] | None,
    seed: int,
    categories: Sequence[ManipulationCategory] | None = None,
) -> list[ManipulationRecord]:
    """Apply manipulation categories across a corpus of graphs.

    By default every profile category runs. Per category, sites are numbered
    over videos in video_id order, each video's sites in enumerate_candidates
    order, and sampled without replacement up to the category's quota. A
    temporal quota run counts its sites instead of listing them and builds
    only the sampled ones; the ordinals index the same site order either
    way, so seeds and record_ids do not change. Sampling uses a per-category
    stream derived from the global seed, and every record carries its own
    derived seed, so results are stable under quota changes in other
    categories.
    """
    quotas = dict(quotas or {})
    ordered = sorted(graphs, key=lambda g: g.video_id)
    seen_videos: set[str] = set()
    for graph in ordered:
        if graph.video_id in seen_videos:
            raise MalformedDocument(f"duplicate video_id {graph.video_id!r} in corpus")
        seen_videos.add(graph.video_id)

    records: list[ManipulationRecord] = []
    for category in (profile.category_set if categories is None else categories):
        category_seed = derive_seed(
            seed, category.method, category.target, category.fine_type
        )
        quota = quotas.get(category.key)
        pools: dict[str, dict[str, CandidatePool]] = {}
        for ordinal, graph, site in _sampled_sites(
            ordered, profile, category, quota, category_seed
        ):
            if category.method == "counterfactual" and graph.video_id not in pools:
                pools[graph.video_id] = _entity_pools(
                    graph, profile, category.fine_type, category.target == "predicate"
                )
            record_seed = derive_seed(category_seed, ordinal)
            # Only a counterfactual site draws from its record's generator.
            rng = random.Random(record_seed) if category.method == "counterfactual" else None
            original, manipulated, pool_size = apply_site(
                graph, profile, category, site, rng, pools.get(graph.video_id)
            )
            records.append(
                ManipulationRecord(
                    record_id=f"{category.key}#{ordinal:04d}",
                    category=category,
                    video_id=graph.video_id,
                    source_tuple_ids=site.source_tuple_ids,
                    original=original,
                    manipulated=manipulated,
                    seed=record_seed,
                    pool_size=pool_size,
                )
            )
    return records


# --- record serialization --------------------------------------------------------


def _changes_doc(original: EventTuple, manipulated: EventTuple) -> dict[str, Any]:
    """The manipulated tuple as its tuple_id plus the fields it changed."""
    same = (original.tuple_id, original.subject, original.object)
    if (manipulated.tuple_id, manipulated.subject, manipulated.object) != same:
        raise MalformedDocument(f"tuple {original.tuple_id!r}: a record only changes {', '.join(TUPLE_FIELDS)}")
    doc: dict[str, Any] = {"tuple_id": manipulated.tuple_id}
    for name, (to_doc, _) in TUPLE_FIELDS.items():
        value = getattr(manipulated, name)
        if value != getattr(original, name):
            doc[name] = to_doc(value)
    return doc


def record_to_doc(record: ManipulationRecord) -> dict[str, Any]:
    """The record relative to its graph: the originals are named, not copied."""
    doc: dict[str, Any] = {
        "format": RECORDS_FORMAT,
        "record_id": record.record_id,
        "category": record.category.key,
        "video_id": record.video_id,
        "source_tuple_ids": list(record.source_tuple_ids),
        "manipulated": [
            _changes_doc(o, m) for o, m in zip(record.original, record.manipulated)
        ],
        "seed": record.seed,
    }
    if record.pool_size is not None:
        doc["pool_size"] = record.pool_size
    return doc


def record_from_doc(
    doc: Any, tuples_by_video: Mapping[str, Mapping[str, EventTuple]]
) -> ManipulationRecord:
    """Inverse of record_to_doc; originals come from the record's graph.

    Each manipulated tuple is its original with the changed fields laid
    over it, parsed by the scene-graph field parsers.
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
        fields = {}
        for name, raw in change.items():
            if name != "tuple_id":
                if name not in TUPLE_FIELDS:
                    raise MalformedDocument(f"tuple {tuple_id!r}: {name!r} is not a changeable field")
                fields[name] = TUPLE_FIELDS[name][1](raw, tuple_id)
        original.append(orig)
        # replace() without its per-call field introspection; this runs per tuple.
        manipulated.append(EventTuple(**{**vars(orig), **fields}))
    source_tuple_ids = tuple(require(doc, "source_tuple_ids", list))
    # key=str keeps the sort total when a document puts a non-string id here.
    if sorted(t.tuple_id for t in original) != sorted(source_tuple_ids, key=str):
        raise MalformedDocument("source_tuple_ids must name the manipulated tuples")
    return ManipulationRecord(
        record_id=require(doc, "record_id", str),
        category=ManipulationCategory.from_key(require(doc, "category", str)),
        video_id=video_id,
        source_tuple_ids=source_tuple_ids,
        original=tuple(original),
        manipulated=tuple(manipulated),
        seed=require(doc, "seed", int),
        pool_size=require(doc, "pool_size", int) if "pool_size" in doc else None,
    )


def records_to_jsonl(records: Iterable[ManipulationRecord]) -> str:
    return to_jsonl(map(record_to_doc, records))


def records_from_jsonl(
    text: str, graphs: Iterable[SceneGraph], name: str = "records.jsonl"
) -> list[ManipulationRecord]:
    """Records from records_to_jsonl's text, against the graphs they came from.

    Raises MalformedDocument, naming the line, for anything that is not a
    format-2 record of one of the graphs.
    """
    tuples_by_video = {graph.video_id: graph.tuples_by_id for graph in graphs}
    return parse_jsonl(text, lambda doc: record_from_doc(doc, tuples_by_video), name)
