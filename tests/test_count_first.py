"""Count-first temporal probing agrees with listing every site.

Graphs are drawn with few entities, few distinct times and few values, so
pairs at the same time, with the same key, and with both, are all common
and every term of the site count's inclusion-exclusion is exercised.
"""

import random
from itertools import combinations

from hypothesis import given, strategies as st

from eventprobe.errors import ManipulationError
from eventprobe.manipulate import (
    AttributeObservation,
    ManipulationRecord,
    _TemporalPairs,
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


def operator_sites(graph, category) -> list[tuple]:
    """sort_keys of every pair the category's swap operator accepts."""
    if category.target == "predicate":
        items = sorted(
            (t.tuple_id, t)
            for t in graph.tuples
            if t.predicate is not None and t.predicate.pred_type == category.fine_type
        )
        return [
            (ida, idb)
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
        (*ka, *kb)
        for (ka, a), (kb, b) in combinations(items, 2)
        if _swap_applies(temporal_attribute_swap, a, b)
    ]


def listed_records(graphs, category, quota, seed):
    """apply_corpus as enumerate-everything, then sample ordinals."""
    category_seed = derive_seed(seed, category.method, category.target, category.fine_type)
    listed = [
        (graph, site)
        for graph in sorted(graphs, key=lambda g: g.video_id)
        for site in enumerate_candidates(graph, PROFILE, category)
    ]
    if quota >= len(listed):
        chosen = range(len(listed))
    else:
        picker = random.Random(category_seed)
        chosen = sorted(picker.sample(range(len(listed)), quota))
    records = []
    for ordinal in chosen:
        graph, site = listed[ordinal]
        record_seed = derive_seed(category_seed, ordinal)
        original, manipulated, pool_size = apply_site(
            graph, PROFILE, category, site, random.Random(record_seed)
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
        listed = enumerate_candidates(graph, PROFILE, category)
        assert [site.sort_key for site in listed] == operator_sites(graph, category)
        table = _TemporalPairs(graph, category)
        assert table.total == len(listed)
        assert [table.nth(ordinal) for ordinal in range(table.total)] == listed


@given(corpora, st.integers(0, 2**32))
def test_quota_runs_match_listing(corpus, seed):
    for category in PAIRWISE:
        total = sum(_TemporalPairs(graph, category).total for graph in corpus)
        for quota in sorted({q for q in (0, 1, total - 1, total) if q >= 0}):
            got = apply_corpus(corpus, PROFILE, {category.key: quota}, seed, [category])
            assert got == listed_records(corpus, category, quota, seed)
