"""Count-first probing agrees with listing every site.

Graphs are drawn with few entities, few distinct times and few values, so
pairs at the same time, with the same key, and with both, are all common
and every term of the site count's inclusion-exclusion is exercised. The
same graphs check that a counterfactual listing, which tests each slot's
pool without building its candidates, lists exactly the slots with a usable
candidate, each carrying the pool a naive scan of the graph gives.
"""

import random
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from eventprobe.errors import ManipulationError
from eventprobe.manipulate import (
    SLOT_PREDICATE,
    SLOT_SUBJECT_ATTRIBUTE,
    AttributeObservation,
    CandidatePool,
    CounterfactualSite,
    ManipulationRecord,
    TemporalAttributeSite,
    TemporalPredicateSite,
    apply_corpus,
    apply_site,
    derive_seed,
    enumerate_candidates,
    temporal_attribute_swap,
    temporal_predicate_swap,
)
from eventprobe.profiles import default_profile
from eventprobe.scene_graph import (
    AttributeValue,
    EntityRef,
    EventTuple,
    PredicateValue,
    SceneGraph,
    TimeInterval,
)

PROFILE = default_profile()
PAIRWISE = tuple(c for c in PROFILE.category_set if c.method == "temporal")
COUNTERFACTUAL = tuple(c for c in PROFILE.category_set if c.method == "counterfactual")
# Only the two values the graphs draw from: a video can then hold every value
# of a type for one entity, which leaves that entity's pool empty.
NARROW = replace(PROFILE, vocab={name: values[:2] for name, values in PROFILE.vocab.items()})
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
        obj_colors = draw(st.lists(_values("Color"), max_size=1)) if obj else []
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


def _swap_applies(swap, a, b) -> bool:
    try:
        swap(a, b)
    except ManipulationError:
        return False
    return True


def operator_sites(graph, category) -> list:
    """Every pair the category's swap operator accepts, as sites, ordered by
    their items' (tuple_id, attribute index)."""
    vid = graph.video_id
    if category.target == "predicate":
        items = sorted(
            (t.tuple_id, t)
            for t in graph.tuples
            if t.predicate is not None and t.predicate.pred_type == category.fine_type
        )
        return [
            TemporalPredicateSite(vid, ida, idb)
            for (ida, a), (idb, b) in combinations(items, 2)
            if _swap_applies(temporal_predicate_swap, a, b)
        ]
    items = sorted(
        ((t.tuple_id, i), AttributeObservation(t.subject, attr, t.time))
        for t in graph.tuples
        for i, attr in enumerate(t.subject_attrs)
        if attr.attr_type == category.fine_type
    )
    return [
        TemporalAttributeSite(vid, *ka, *kb)
        for (ka, a), (kb, b) in combinations(items, 2)
        if _swap_applies(temporal_attribute_swap, a, b)
    ]


def truthful(graph, entity_id, fine_type, predicate) -> frozenset:
    """Every fine_type value the graph attributes to the entity: a predicate
    as its subject, an attribute in either role."""
    values = set()
    for tup in graph.tuples:
        if predicate:
            if (
                tup.subject.entity_id == entity_id
                and tup.predicate is not None
                and tup.predicate.pred_type == fine_type
            ):
                values.add(tup.predicate.value)
            continue
        if tup.subject.entity_id == entity_id:
            values.update(a.value for a in tup.subject_attrs if a.attr_type == fine_type)
        if tup.object is not None and tup.object.entity_id == entity_id:
            values.update(a.value for a in tup.object_attrs if a.attr_type == fine_type)
    return frozenset(values)


def usable_slots(graph, profile, category) -> list:
    """Every counterfactual slot whose pool, from a naive scan of the graph,
    leaves a candidate besides the incumbent, as a site carrying that pool,
    ordered by (tuple_id, attribute index)."""
    predicate = category.target == "predicate"
    found = []
    for t in graph.tuples:
        if predicate:
            slots = [(SLOT_PREDICATE, None, t.predicate.value)] if (
                t.predicate is not None and t.predicate.pred_type == category.fine_type
            ) else []
        else:
            slots = [
                (SLOT_SUBJECT_ATTRIBUTE, i, a.value)
                for i, a in enumerate(t.subject_attrs)
                if a.attr_type == category.fine_type
            ]
        for kind, idx, incumbent in slots:
            exclusions = truthful(graph, t.subject.entity_id, category.fine_type, predicate)
            candidates = [
                v for v in profile.vocab[category.fine_type]
                if v not in exclusions and v != incumbent
            ]
            if candidates:
                pool = CandidatePool(category.fine_type, profile.vocab[category.fine_type], exclusions)
                found.append(CounterfactualSite(graph.video_id, t.tuple_id, kind, idx, pool))
    return sorted(found, key=lambda s: (s.tuple_id, -1 if s.attr_index is None else s.attr_index))


def listed_records(graphs, category, quota, seed, profile=PROFILE):
    """apply_corpus as walk-every-site, then sample ordinals."""
    category_seed = derive_seed(seed, category.method, category.target, category.fine_type)
    listed = [
        (graph, site)
        for graph in sorted(graphs, key=lambda g: g.video_id)
        for site in enumerate_candidates(graph, profile, category)
    ]
    if quota is None or quota >= len(listed):
        chosen = range(len(listed))
    else:
        picker = random.Random(category_seed)
        chosen = sorted(picker.sample(range(len(listed)), quota))
    records = []
    for ordinal in chosen:
        graph, site = listed[ordinal]
        record_seed = derive_seed(category_seed, ordinal)
        original, manipulated, pool_size = apply_site(
            graph, profile, category, site, random.Random(record_seed)
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


@given(graphs())
def test_count_equals_listed_sites(graph):
    for category in PAIRWISE:
        expected = operator_sites(graph, category)
        table = enumerate_candidates(graph, PROFILE, category)
        assert len(table) == len(expected)
        assert list(table) == expected
        assert [table[ordinal] for ordinal in range(len(table))] == expected
        with pytest.raises(IndexError):
            table[len(table)]


@given(graphs())
def test_counterfactual_listing_matches_pools(graph):
    for profile in (PROFILE, NARROW):
        for category in COUNTERFACTUAL:
            listed = enumerate_candidates(graph, profile, category)
            assert listed == usable_slots(graph, profile, category)


@given(corpora, st.integers(0, 2**32))
def test_quota_runs_match_listing(corpus, seed):
    for profile in (PROFILE, NARROW):
        for category in profile.category_set:
            total = sum(len(enumerate_candidates(g, profile, category)) for g in corpus)
            quotas = sorted({q for q in (0, 1, total - 1, total) if q >= 0})
            for quota in (None, *quotas):
                caps = {} if quota is None else {category.key: quota}
                got = apply_corpus(corpus, profile, caps, seed, [category])
                assert got == listed_records(corpus, category, quota, seed, profile)


_names = st.sampled_from("abcd")


@given(
    st.lists(_names, unique=True, max_size=3).map(tuple),
    st.frozensets(_names, max_size=3),
    st.none() | _names,
)
def test_has_usable_matches_usable(values, exclusions, incumbent):
    pool = CandidatePool("Color", values, exclusions)
    assert pool.has_usable(incumbent) == bool(pool.usable(incumbent))


@pytest.mark.parametrize(
    "values, exclusions, incumbent, expected",
    [
        (("red",), (), "red", False),  # no exclusions, the incumbent is all
        (("red",), (), "blue", True),  # an incumbent outside the vocabulary
        (("red",), (), None, True),
        (("red", "blue"), (), "green", True),
        (("red", "blue"), ("blue",), "red", False),
        (("red", "blue"), ("red", "blue"), "green", False),
        ((), (), None, False),
    ],
)
def test_has_usable_on_hand_built_pools(values, exclusions, incumbent, expected):
    pool = CandidatePool("Color", values, frozenset(exclusions))
    assert pool.has_usable(incumbent) is expected
    assert bool(pool.usable(incumbent)) is expected
